"""Case configuration: INI files with units, parsed into dataclasses.

A case file has sections [case], [mesh], [properties], [boundaries],
[time], [scheme], [solver], [output] and any number of [well.NAME]
sections.  Values may carry a unit suffix ("3.5 GPa", "100 mD",
"30 day", "100 m3/day"); bare numbers are SI.  Unknown sections, keys
and units are rejected with the offending name and line number.
parse -> serialize -> parse is the identity on the parsed form.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace
from io import StringIO
from pathlib import Path

import numpy as np

from ..coupling import BiotCase, PoroelasticProperties, TimeGrid, Well
from ..errors import ConfigurationError, GeometryError
from ..linsolve.precond import SolverOptions
from ..mesh import Mesh, build_barrier_mesh, build_cartesian
from ..tpsa import BoundaryKind, MechBoundary
from .manufactured import ManufacturedSolution

__all__ = [
    "MeshSpec",
    "BoundarySpec",
    "SchemeSpec",
    "OutputSpec",
    "WellSpec",
    "CaseConfig",
    "parse_quantity",
    "parse_config",
    "parse_config_text",
    "serialize_config",
]

DARCY = 9.869233e-13  # m^2
DAY = 86400.0  # s

_UNITS = {
    "pressure": {"": 1.0, "Pa": 1.0, "kPa": 1e3, "MPa": 1e6, "GPa": 1e9},
    "permeability": {
        "": 1.0,
        "m2": 1.0,
        "m^2": 1.0,
        "D": DARCY,
        "Darcy": DARCY,
        "darcy": DARCY,
        "mD": 1e-3 * DARCY,
    },
    "time": {"": 1.0, "s": 1.0, "hour": 3600.0, "day": DAY, "days": DAY},
    "viscosity": {"": 1.0, "Pa.s": 1.0, "Pa*s": 1.0, "cP": 1e-3},
    "rate": {"": 1.0, "m3/s": 1.0, "m^3/s": 1.0, "m3/day": 1.0 / DAY, "m^3/day": 1.0 / DAY},
    "compressibility": {"": 1.0, "1/Pa": 1.0, "1/kPa": 1e-3, "1/MPa": 1e-6, "1/GPa": 1e-9},
    "length": {"": 1.0, "m": 1.0, "cm": 1e-2, "km": 1e3},
    "dimensionless": {"": 1.0},
}

_SIDE_NAMES = ("x_min", "x_max", "y_min", "y_max", "z_min", "z_max")
_BOUNDARY_KINDS = {
    "fixed": BoundaryKind.FIXED,
    "free": BoundaryKind.FREE,
    "robin": BoundaryKind.ROBIN,
}

_ALLOWED_KEYS = {
    "case": {"name", "problem"},
    "mesh": {
        "builder",
        "nx",
        "ny",
        "nz",
        "lx",
        "ly",
        "lz",
        "barrier_axis",
        "barrier_index",
    },
    "properties": {"mu", "lambda", "alpha", "c0", "permeability", "fluid_viscosity"},
    "boundaries": set(_SIDE_NAMES) | {"mechanics", "robin_delta", "robin_mu"},
    "time": {"dt", "n_steps", "t0"},
    "scheme": {"kind", "tol", "max_iter", "anderson_m0"},
    "solver": {"rtol", "max_iter", "method"},
    "output": {"directory", "vtk", "csv"},
}
_WELL_KEYS = {"cell", "rate", "start", "stop"}


def parse_quantity(
    text: str, kind: str, key: str = "", line: int | None = None
) -> float:
    """Parse '<number> [unit]' into an SI float for the given quantity kind."""
    table = _UNITS[kind]
    parts = text.split()
    if not parts:
        raise ConfigurationError(f"empty value for {key}", key=key, line=line)
    number, unit = parts[0], " ".join(parts[1:])
    try:
        value = float(number)
    except ValueError:
        raise ConfigurationError(
            f"cannot parse number '{number}' for {key}", key=key, line=line
        ) from None
    if unit not in table:
        raise ConfigurationError(
            f"unknown {kind} unit '{unit}' for {key}", key=key, line=line
        )
    return value * table[unit]


@dataclass
class MeshSpec:
    """Structured mesh request: builder name, cell counts and box lengths."""

    builder: str = "cartesian"
    shape: tuple[int, int, int] = (1, 1, 1)
    lengths: tuple[float, float, float] = (1.0, 1.0, 1.0)
    barrier_axis: int = 0
    barrier_index: int | None = None

    def build(self) -> Mesh:
        nx, ny, nz = self.shape
        try:
            if self.builder == "cartesian":
                return build_cartesian(nx, ny, nz, self.lengths)
            if self.builder == "barrier":
                return build_barrier_mesh(
                    nx, ny, nz, self.lengths, self.barrier_axis, self.barrier_index
                )
        except GeometryError as err:
            raise ConfigurationError(str(err)) from err
        raise ConfigurationError(f"unknown mesh builder '{self.builder}'")


@dataclass
class BoundarySpec:
    """Mechanical closure per wall: a default plus per-side overrides."""

    default: str = "fixed"
    sides: dict[str, str] = field(default_factory=dict)
    robin_delta: float = 1.0
    robin_mu: float = 1.0

    def build(self, mesh: Mesh) -> MechBoundary:
        for name in (self.default, *self.sides.values()):
            if name not in _BOUNDARY_KINDS:
                raise ConfigurationError(f"unknown boundary kind '{name}'")
        kinds = np.full(mesh.n_faces, int(BoundaryKind.INTERIOR), dtype=np.int8)
        bdry = mesh.boundary_faces
        kinds[bdry] = int(_BOUNDARY_KINDS[self.default])
        if self.sides:
            normals = mesh.face_normals[bdry]
            axis = np.argmax(np.abs(normals), axis=1)
            positive = normals[np.arange(bdry.size), axis] > 0
            side_of = 2 * axis + positive.astype(int)
            for name, kind in self.sides.items():
                sel = bdry[side_of == _SIDE_NAMES.index(name)]
                kinds[sel] = int(_BOUNDARY_KINDS[kind])
        if np.any(kinds == BoundaryKind.ROBIN) and not all(
            math.isfinite(v) and v > 0 for v in (self.robin_delta, self.robin_mu)
        ):
            raise ConfigurationError(
                "Robin boundaries need finite, positive robin_delta and robin_mu"
            )
        boundary = MechBoundary(
            kind=kinds,
            robin_delta=np.full(mesh.n_faces, float(self.robin_delta)),
            robin_mu=np.full(mesh.n_faces, float(self.robin_mu)),
        )
        boundary.validate(mesh)
        return boundary


@dataclass
class SchemeSpec:
    """Coupling scheme selection and fixed-stress iteration controls."""

    kind: str = "fixed_stress"
    tol: float = 1e-6
    max_iter: int = 25
    anderson_m0: int = 0


@dataclass
class OutputSpec:
    directory: str = "out"
    vtk: bool = True
    csv: bool = True


@dataclass
class WellSpec:
    """Constant-rate well; cell is a linear id or structured (ix, iy, iz)."""

    name: str
    cell: int | tuple[int, int, int]
    rate: float  # m^3/s
    t_start: float = 0.0
    t_end: float = math.inf

    def resolve(self, mesh: Mesh) -> Well:
        cell = self.cell
        if isinstance(cell, tuple):
            try:
                cell = mesh.cell_index(*cell)
            except GeometryError as err:
                raise ConfigurationError(str(err)) from err
        return Well(cell=cell, rate=self.rate, t_start=self.t_start, t_end=self.t_end)


@dataclass
class CaseConfig:
    """Everything needed to build and run one case."""

    name: str = "case"
    problem: str = "generic"
    mesh: MeshSpec = field(default_factory=MeshSpec)
    props: PoroelasticProperties = None  # scalar-valued
    boundaries: BoundarySpec = field(default_factory=BoundarySpec)
    time: TimeGrid = None
    scheme: SchemeSpec = field(default_factory=SchemeSpec)
    solver: SolverOptions = field(default_factory=SolverOptions)
    output: OutputSpec = field(default_factory=OutputSpec)
    wells: list[WellSpec] = field(default_factory=list)

    def build_mesh(self) -> Mesh:
        return self.mesh.build()

    def build_case(self, mesh: Mesh | None = None) -> BiotCase:
        mesh = mesh if mesh is not None else self.build_mesh()
        boundary = self.boundaries.build(mesh)
        wells = [w.resolve(mesh) for w in self.wells]
        if self.problem == "manufactured":
            sol = ManufacturedSolution(
                mu=self.props.mu,
                lam=self.props.lam,
                alpha=self.props.alpha,
                c0=self.props.c0,
                perm=self.props.perm,
                fluid_viscosity=self.props.fluid_viscosity,
            )
            case = sol.as_case(mesh, self.time)
            case.props.boundary = boundary
            case.wells = wells
            case.name = self.name
            return case
        if self.problem != "generic":
            raise ConfigurationError(f"unknown problem kind '{self.problem}'")
        props = replace(self.props, boundary=boundary)
        return BiotCase(
            mesh=mesh, props=props, time=self.time, wells=wells, name=self.name
        )


def _key_lines(text: str) -> dict[tuple[str | None, str | None], int]:
    """Line number of every section header and key, for error reporting."""
    lines: dict[tuple[str | None, str | None], int] = {}
    section = None
    for i, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith(("#", ";")):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            lines.setdefault((section, None), i)
            continue
        if raw[:1].isspace():
            continue  # continuation line of the previous value
        cut = [pos for pos in (stripped.find("="), stripped.find(":")) if pos >= 0]
        if cut:
            key = stripped[: min(cut)].strip()
            lines.setdefault((section, key), i)
    return lines


class _SectionReader:
    """One section's key-value view with typed accessors."""

    def __init__(self, section: str, items: dict[str, str], lines):
        self.section = section
        self.items = items
        self.lines = lines

    def line(self, key: str) -> int | None:
        return self.lines.get((self.section, key))

    def raw(self, key: str, default: str | None = None) -> str | None:
        return self.items.get(key, default)

    def require(self, key: str) -> str:
        value = self.raw(key)
        if value is None:
            raise ConfigurationError(
                f"missing required property {key}",
                key=f"{self.section}.{key}",
                line=self.lines.get((self.section, None)),
            )
        return value

    def quantity(self, key: str, kind: str, default: float | None = None) -> float:
        value = self.raw(key)
        if value is None:
            if default is None:
                return self.require(key)  # raises
            return default
        return parse_quantity(value, kind, key=f"{self.section}.{key}", line=self.line(key))

    def integer(self, key: str, default: int | None = None, required=False) -> int:
        value = self.require(key) if required else self.raw(key)
        if value is None:
            return default
        try:
            return int(value)
        except ValueError:
            raise ConfigurationError(
                f"cannot parse integer '{value}' for {self.section}.{key}",
                key=f"{self.section}.{key}",
                line=self.line(key),
            ) from None

    def boolean(self, key: str, default: bool) -> bool:
        value = self.raw(key)
        if value is None:
            return default
        lowered = value.strip().lower()
        if lowered in ("true", "yes", "on", "1"):
            return True
        if lowered in ("false", "no", "off", "0"):
            return False
        raise ConfigurationError(
            f"cannot parse boolean '{value}' for {self.section}.{key}",
            key=f"{self.section}.{key}",
            line=self.line(key),
        )

    def check_consumed(self, allowed: set[str]) -> None:
        for key in self.items:
            if key not in allowed:
                line = self.line(key)
                raise ConfigurationError(
                    f"unknown key '{key}' in section [{self.section}]"
                    + (f" (line {line})" if line else ""),
                    key=f"{self.section}.{key}",
                    line=line,
                )


def parse_config(path) -> CaseConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise ConfigurationError(f"cannot read config file {path}: {err}") from err
    return parse_config_text(text, default_name=path.stem)


def parse_config_text(text: str, default_name: str = "case") -> CaseConfig:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep key case so units and names survive
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigurationError(f"malformed config: {err}") from None
    lines = _key_lines(text)

    def reader(section: str) -> _SectionReader:
        items = dict(parser[section]) if parser.has_section(section) else {}
        return _SectionReader(section, items, lines)

    for section in parser.sections():
        if section not in _ALLOWED_KEYS and not section.startswith("well."):
            raise ConfigurationError(
                f"unknown section '[{section}]'"
                + (f" (line {lines.get((section, None))})" if (section, None) in lines else ""),
                key=section,
                line=lines.get((section, None)),
            )
    for section, allowed in _ALLOWED_KEYS.items():
        if parser.has_section(section):
            reader(section).check_consumed(allowed)

    for required in ("mesh", "properties", "time"):
        if not parser.has_section(required):
            raise ConfigurationError(f"missing required section [{required}]")

    case_r = reader("case")
    name = case_r.raw("name", default_name)
    problem = case_r.raw("problem", "generic")

    mesh_r = reader("mesh")
    axis_name = mesh_r.raw("barrier_axis", "x")
    if axis_name not in ("x", "y", "z"):
        raise ConfigurationError(
            f"barrier_axis must be x, y or z, got '{axis_name}'",
            key="mesh.barrier_axis",
            line=mesh_r.line("barrier_axis"),
        )
    mesh = MeshSpec(
        builder=mesh_r.raw("builder", "cartesian"),
        shape=(
            mesh_r.integer("nx", required=True),
            mesh_r.integer("ny", required=True),
            mesh_r.integer("nz", required=True),
        ),
        lengths=(
            mesh_r.quantity("lx", "length", 1.0),
            mesh_r.quantity("ly", "length", 1.0),
            mesh_r.quantity("lz", "length", 1.0),
        ),
        barrier_axis="xyz".index(axis_name),
        barrier_index=mesh_r.integer("barrier_index", default=None),
    )

    props_r = reader("properties")
    props = PoroelasticProperties(
        mu=props_r.quantity("mu", "pressure"),
        lam=props_r.quantity("lambda", "pressure"),
        alpha=props_r.quantity("alpha", "dimensionless"),
        c0=props_r.quantity("c0", "compressibility"),
        perm=props_r.quantity("permeability", "permeability"),
        fluid_viscosity=props_r.quantity("fluid_viscosity", "viscosity", 1e-3),
    )

    bdry_r = reader("boundaries")
    sides = {}
    for side in _SIDE_NAMES:
        value = bdry_r.raw(side)
        if value is not None:
            sides[side] = value.strip()
    boundaries = BoundarySpec(
        default=bdry_r.raw("mechanics", "fixed").strip(),
        sides=sides,
        robin_delta=bdry_r.quantity("robin_delta", "length", 1.0),
        robin_mu=bdry_r.quantity("robin_mu", "pressure", 1.0),
    )

    time_r = reader("time")
    try:
        time = TimeGrid(
            dt=time_r.quantity("dt", "time"),
            n_steps=time_r.integer("n_steps", required=True),
            t0=time_r.quantity("t0", "time", 0.0),
        )
    except ConfigurationError as err:
        raise ConfigurationError(
            str(err), key="time", line=lines.get(("time", None))
        ) from None

    scheme_r = reader("scheme")
    scheme = SchemeSpec(
        kind=scheme_r.raw("kind", "fixed_stress").strip(),
        tol=scheme_r.quantity("tol", "dimensionless", 1e-6),
        max_iter=scheme_r.integer("max_iter", 25),
        anderson_m0=scheme_r.integer("anderson_m0", 0),
    )
    if scheme.kind not in ("lagged", "fixed_stress"):
        raise ConfigurationError(
            f"unknown scheme kind '{scheme.kind}'",
            key="scheme.kind",
            line=scheme_r.line("kind"),
        )

    solver_r = reader("solver")
    method = solver_r.raw("method", "auto").strip()
    if method not in ("auto", "direct", "iterative"):
        raise ConfigurationError(
            f"unknown solver method '{method}'",
            key="solver.method",
            line=solver_r.line("method"),
        )
    solver = SolverOptions(
        rtol=solver_r.quantity("rtol", "dimensionless", 1e-5),
        max_iter=solver_r.integer("max_iter", 500),
        method=method,
    )

    out_r = reader("output")
    output = OutputSpec(
        directory=out_r.raw("directory", "out").strip(),
        vtk=out_r.boolean("vtk", True),
        csv=out_r.boolean("csv", True),
    )

    wells = []
    for section in parser.sections():
        if not section.startswith("well."):
            continue
        well_r = reader(section)
        well_r.check_consumed(_WELL_KEYS)
        cell_text = well_r.require("cell").split()
        try:
            indices = [int(tok) for tok in cell_text]
        except ValueError:
            raise ConfigurationError(
                f"cannot parse cell '{' '.join(cell_text)}' for {section}.cell",
                key=f"{section}.cell",
                line=well_r.line("cell"),
            ) from None
        if len(indices) == 3:
            cell: int | tuple[int, int, int] = tuple(indices)
        elif len(indices) == 1:
            cell = indices[0]
        else:
            raise ConfigurationError(
                f"well cell needs 1 or 3 indices, got {len(indices)}",
                key=f"{section}.cell",
                line=well_r.line("cell"),
            )
        stop_text = well_r.raw("stop")
        t_end = math.inf
        if stop_text is not None and stop_text.strip() != "inf":
            t_end = parse_quantity(
                stop_text, "time", key=f"{section}.stop", line=well_r.line("stop")
            )
        wells.append(
            WellSpec(
                name=section[len("well.") :],
                cell=cell,
                rate=well_r.quantity("rate", "rate"),
                t_start=well_r.quantity("start", "time", 0.0),
                t_end=t_end,
            )
        )
    wells.sort(key=lambda w: w.name)

    return CaseConfig(
        name=name,
        problem=problem,
        mesh=mesh,
        props=props,
        boundaries=boundaries,
        time=time,
        scheme=scheme,
        solver=solver,
        output=output,
        wells=wells,
    )


def _fmt(value: float) -> str:
    return repr(float(value))


def serialize_config(config: CaseConfig) -> str:
    """Canonical SI-unit INI text; parse(serialize(c)) == c."""
    out = StringIO()

    def section(header: str, pairs):
        out.write(f"[{header}]\n")
        for key, value in pairs:
            out.write(f"{key} = {value}\n")
        out.write("\n")

    section("case", [("name", config.name), ("problem", config.problem)])
    mesh_pairs = [
        ("builder", config.mesh.builder),
        ("nx", config.mesh.shape[0]),
        ("ny", config.mesh.shape[1]),
        ("nz", config.mesh.shape[2]),
        ("lx", _fmt(config.mesh.lengths[0])),
        ("ly", _fmt(config.mesh.lengths[1])),
        ("lz", _fmt(config.mesh.lengths[2])),
    ]
    if config.mesh.builder == "barrier":
        mesh_pairs.append(("barrier_axis", "xyz"[config.mesh.barrier_axis]))
        if config.mesh.barrier_index is not None:
            mesh_pairs.append(("barrier_index", config.mesh.barrier_index))
    section("mesh", mesh_pairs)
    section(
        "properties",
        [
            ("mu", _fmt(config.props.mu)),
            ("lambda", _fmt(config.props.lam)),
            ("alpha", _fmt(config.props.alpha)),
            ("c0", _fmt(config.props.c0)),
            ("permeability", _fmt(config.props.perm)),
            ("fluid_viscosity", _fmt(config.props.fluid_viscosity)),
        ],
    )
    bdry_pairs = [("mechanics", config.boundaries.default)]
    bdry_pairs += [(side, config.boundaries.sides[side]) for side in _SIDE_NAMES if side in config.boundaries.sides]
    bdry_pairs += [
        ("robin_delta", _fmt(config.boundaries.robin_delta)),
        ("robin_mu", _fmt(config.boundaries.robin_mu)),
    ]
    section("boundaries", bdry_pairs)
    section(
        "time",
        [
            ("dt", _fmt(config.time.dt)),
            ("n_steps", config.time.n_steps),
            ("t0", _fmt(config.time.t0)),
        ],
    )
    section(
        "scheme",
        [
            ("kind", config.scheme.kind),
            ("tol", _fmt(config.scheme.tol)),
            ("max_iter", config.scheme.max_iter),
            ("anderson_m0", config.scheme.anderson_m0),
        ],
    )
    section(
        "solver",
        [
            ("rtol", _fmt(config.solver.rtol)),
            ("max_iter", config.solver.max_iter),
            ("method", config.solver.method),
        ],
    )
    section(
        "output",
        [
            ("directory", config.output.directory),
            ("vtk", str(config.output.vtk).lower()),
            ("csv", str(config.output.csv).lower()),
        ],
    )
    for well in config.wells:
        cell = well.cell
        cell_text = " ".join(str(i) for i in cell) if isinstance(cell, tuple) else str(cell)
        pairs = [
            ("cell", cell_text),
            ("rate", _fmt(well.rate)),
            ("start", _fmt(well.t_start)),
            ("stop", "inf" if math.isinf(well.t_end) else _fmt(well.t_end)),
        ]
        section(f"well.{well.name}", pairs)
    return out.getvalue()

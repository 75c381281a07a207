"""Case configuration: INI files with units, parsed into dataclasses.

A case file has sections [case], [mesh], [properties], [boundaries],
[time], [scheme], [solver], [output] and any number of [well.NAME]
sections.  Values may carry a unit suffix ("3.5 GPa", "100 mD",
"30 day", "100 m3/day"); bare numbers are SI.  One table, `_SECTIONS`
plus `_WELL`, lists every key with its kind, whether it is required and
the dataclass field it fills; an absent optional key keeps that field's
default.  Parsing checks each section against the table and rejects
unknown sections, keys, units and words, naming the offending key and
line.  Serializing walks the same table and writes every key that holds
a value, so parse(serialize(c)) == c for any config whose text values
are single-line.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace
from io import StringIO
from pathlib import Path
from typing import NamedTuple

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
    nx: int = 1
    ny: int = 1
    nz: int = 1
    lx: float = 1.0
    ly: float = 1.0
    lz: float = 1.0
    barrier_axis: str = "x"
    barrier_index: int | None = None

    def build(self) -> Mesh:
        shape = (self.nx, self.ny, self.nz)
        lengths = (self.lx, self.ly, self.lz)
        try:
            if self.builder == "barrier":
                axis = "xyz".index(self.barrier_axis)
                return build_barrier_mesh(*shape, lengths, axis, self.barrier_index)
            return build_cartesian(*shape, lengths)
        except GeometryError as err:
            raise ConfigurationError(str(err)) from err


@dataclass
class BoundarySpec:
    """Mechanical closure per wall: a default plus per-side overrides.

    A side left at None takes the default.
    """

    default: str = "fixed"
    x_min: str | None = None
    x_max: str | None = None
    y_min: str | None = None
    y_max: str | None = None
    z_min: str | None = None
    z_max: str | None = None
    robin_delta: float = 1.0
    robin_mu: float = 1.0

    def build(self, mesh: Mesh) -> MechBoundary:
        sides = {
            index: getattr(self, name)
            for index, name in enumerate(_SIDE_NAMES)
            if getattr(self, name) is not None
        }
        kinds = np.full(mesh.n_faces, int(BoundaryKind.INTERIOR), dtype=np.int8)
        bdry = mesh.boundary_faces
        kinds[bdry] = int(_BOUNDARY_KINDS[self.default])
        if sides:
            normals = mesh.face_normals[bdry]
            axis = np.argmax(np.abs(normals), axis=1)
            positive = normals[np.arange(bdry.size), axis] > 0
            side_of = 2 * axis + positive.astype(int)
            for index, kind in sides.items():
                kinds[bdry[side_of == index]] = int(_BOUNDARY_KINDS[kind])
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
        props = replace(self.props, boundary=boundary)
        return BiotCase(
            mesh=mesh, props=props, time=self.time, wells=wells, name=self.name
        )


class _Key(NamedTuple):
    """How one case-file key is read and which dataclass field it fills."""

    kind: object  # a _UNITS kind, int, bool, str, "cell", or a tuple of allowed words
    required: bool = False  # an absent optional key keeps its field's default
    field: str | None = None  # set only where the field's name differs from the key


class _Section(NamedTuple):
    """One fixed section: the CaseConfig field it fills, its class and keys."""

    field: str | None  # None: the keys are fields of CaseConfig itself
    spec: type | None
    keys: dict[str, _Key]


# The case-file schema: checking, parsing and serializing all walk it.
_SECTIONS = {
    "case": _Section(
        None, None, {"name": _Key(str), "problem": _Key(("generic", "manufactured"))}
    ),
    "mesh": _Section(
        "mesh",
        MeshSpec,
        {
            "builder": _Key(("cartesian", "barrier")),
            "nx": _Key(int, required=True),
            "ny": _Key(int, required=True),
            "nz": _Key(int, required=True),
            "lx": _Key("length"),
            "ly": _Key("length"),
            "lz": _Key("length"),
            "barrier_axis": _Key(("x", "y", "z")),
            "barrier_index": _Key(int),
        },
    ),
    "properties": _Section(
        "props",
        PoroelasticProperties,
        {
            "mu": _Key("pressure", required=True),
            "lambda": _Key("pressure", required=True, field="lam"),
            "alpha": _Key("dimensionless", required=True),
            "c0": _Key("compressibility", required=True),
            "permeability": _Key("permeability", required=True, field="perm"),
            "fluid_viscosity": _Key("viscosity"),
        },
    ),
    "boundaries": _Section(
        "boundaries",
        BoundarySpec,
        {
            "mechanics": _Key(tuple(_BOUNDARY_KINDS), field="default"),
            **{side: _Key(tuple(_BOUNDARY_KINDS)) for side in _SIDE_NAMES},
            "robin_delta": _Key("length"),
            "robin_mu": _Key("pressure"),
        },
    ),
    "time": _Section(
        "time",
        TimeGrid,
        {
            "dt": _Key("time", required=True),
            "n_steps": _Key(int, required=True),
            "t0": _Key("time"),
        },
    ),
    "scheme": _Section(
        "scheme",
        SchemeSpec,
        {
            "kind": _Key(("fixed_stress", "lagged")),
            "tol": _Key("dimensionless"),
            "max_iter": _Key(int),
            "anderson_m0": _Key(int),
        },
    ),
    "solver": _Section(
        "solver",
        SolverOptions,
        {
            "rtol": _Key("dimensionless"),
            "max_iter": _Key(int),
            "method": _Key(("auto", "direct", "iterative")),
        },
    ),
    "output": _Section(
        "output",
        OutputSpec,
        {"directory": _Key(str), "vtk": _Key(bool), "csv": _Key(bool)},
    ),
}
# the keys of each [well.NAME] section, one WellSpec per section
_WELL = {
    "cell": _Key("cell", required=True),
    "rate": _Key("rate", required=True),
    "start": _Key("time", field="t_start"),
    "stop": _Key("time", field="t_end"),
}


def _key_lines(text: str) -> dict[tuple[str | None, str | None], int]:
    """Line number of every section header and key, for error reporting."""
    lines: dict[tuple[str | None, str | None], int] = {}
    section = None
    key_indent = None  # indentation of the open key; None right after a header
    for i, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith(("#", ";")):
            continue
        indent = len(raw) - len(raw.lstrip())
        if key_indent is not None and indent > key_indent:
            continue  # configparser's rule: a continuation of the open key's value
        header = configparser.ConfigParser.SECTCRE.match(stripped)
        if header:
            section = header.group("header")  # unstripped, as configparser keeps it
            lines.setdefault((section, None), i)
            key_indent = None
            continue
        cut = [pos for pos in (stripped.find("="), stripped.find(":")) if pos >= 0]
        if cut:
            key = stripped[: min(cut)].strip()
            lines.setdefault((section, key), i)
            key_indent = indent
    return lines


def _parse_value(text: str, kind, section: str, key: str, line: int | None):
    """Read one value as its table kind; errors name the key and line."""
    name = f"{section}.{key}"
    if kind in _UNITS:
        return parse_quantity(text, kind, key=name, line=line)
    if kind is str:
        return text
    if isinstance(kind, tuple):
        if text not in kind:
            raise ConfigurationError(
                f"unknown {section} {key} '{text}' (one of {', '.join(kind)})",
                key=name,
                line=line,
            )
        return text
    if kind is bool:
        value = configparser.ConfigParser.BOOLEAN_STATES.get(text.lower())
        if value is None:
            raise ConfigurationError(
                f"cannot parse boolean '{text}' for {name}", key=name, line=line
            )
        return value
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise ConfigurationError(
                f"cannot parse integer '{text}' for {name}", key=name, line=line
            ) from None
    # a well cell: a flat cell id or a structured (ix, iy, iz)
    try:
        indices = tuple(int(token) for token in text.split())
    except ValueError:
        raise ConfigurationError(
            f"cannot parse cell '{text}' for {name}", key=name, line=line
        ) from None
    if len(indices) not in (1, 3):
        raise ConfigurationError(
            f"well cell needs 1 or 3 indices, got {len(indices)}", key=name, line=line
        )
    return indices if len(indices) == 3 else indices[0]


def _read_section(parser, lines, section: str, keys: dict[str, _Key]) -> dict:
    """Check one section against its keys; return its typed values by field."""
    items = parser[section] if parser.has_section(section) else {}
    for key in items:
        if key not in keys:
            line = lines.get((section, key))
            raise ConfigurationError(
                f"unknown key '{key}' in section [{section}]"
                + (f" (line {line})" if line else ""),
                key=f"{section}.{key}",
                line=line,
            )
    values = {}
    for key, spec in keys.items():
        if key in items:
            line = lines.get((section, key))
            value = _parse_value(items[key], spec.kind, section, key, line)
            values[spec.field or key] = value
        elif spec.required:
            if not parser.has_section(section):
                raise ConfigurationError(f"missing required section [{section}]")
            raise ConfigurationError(
                f"missing required property {key}",
                key=f"{section}.{key}",
                line=lines.get((section, None)),
            )
    return values


def _build(spec: type, values: dict, section: str, lines, **extra):
    """The section's spec object; its own checks are reported at the header."""
    try:
        return spec(**values, **extra)
    except ConfigurationError as err:
        raise ConfigurationError(
            str(err), key=section, line=lines.get((section, None))
        ) from None


def parse_config(path) -> CaseConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise ConfigurationError(f"cannot read config file {path}: {err}") from err
    return parse_config_text(text, default_name=path.stem)


def parse_config_text(text: str, default_name: str = "case") -> CaseConfig:
    # no default section: a [DEFAULT] header is an unknown section like any other
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    parser.optionxform = str  # keep key case so units and names survive
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigurationError(f"malformed config: {err}") from None
    lines = _key_lines(text)

    wells = []
    for section in parser.sections():
        if section.startswith("well."):
            values = _read_section(parser, lines, section, _WELL)
            name = section[len("well.") :]
            wells.append(_build(WellSpec, values, section, lines, name=name))
        elif section not in _SECTIONS:
            line = lines.get((section, None))
            raise ConfigurationError(
                f"unknown section '[{section}]'" + (f" (line {line})" if line else ""),
                key=section,
                line=line,
            )
    fields = {"name": default_name}
    for section, (attr, spec, keys) in _SECTIONS.items():
        values = _read_section(parser, lines, section, keys)
        if spec is None:
            fields.update(values)
        else:
            fields[attr] = _build(spec, values, section, lines)
    return CaseConfig(**fields, wells=sorted(wells, key=lambda w: w.name))


def _format(value, kind) -> str:
    if kind in _UNITS:
        return repr(float(value))
    if kind is bool:
        return str(value).lower()
    if isinstance(value, tuple):  # a structured well cell
        return " ".join(map(str, value))
    return str(value)


def _write_section(out: StringIO, header: str, spec, keys: dict[str, _Key]) -> None:
    out.write(f"[{header}]\n")
    for key, entry in keys.items():
        value = getattr(spec, entry.field or key)
        if value is not None:  # None marks an optional key without a value
            out.write(f"{key} = {_format(value, entry.kind)}\n")
    out.write("\n")


def serialize_config(config: CaseConfig) -> str:
    """Canonical SI-unit INI text of every key; parse(serialize(c)) == c."""
    out = StringIO()
    for section, (attr, _, keys) in _SECTIONS.items():
        _write_section(out, section, getattr(config, attr) if attr else config, keys)
    for well in config.wells:
        _write_section(out, f"well.{well.name}", well, _WELL)
    return out.getvalue()

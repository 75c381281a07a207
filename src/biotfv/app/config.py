"""Case configuration: INI files with units, parsed into dataclasses.

A case file has sections [case], [mesh], [properties], [boundaries],
[time], [scheme], [solver], [output] and any number of [well.NAME]
sections.  Values may carry a unit suffix ("3.5 GPa", "100 mD",
"30 day", "100 m3/day"); bare numbers are SI.  One table, `_SECTIONS`
plus `_WELL`, lists every key with its kind, whether it is required and
the dataclass field it fills; an absent optional key keeps that field's
default.  Parsing checks each section against the table and rejects
unknown sections, keys, units and words, naming the offending key and
line.  [time], [scheme], [solver] and [well.NAME] build the records the
run consumes (`TimeGrid`, `SchemeSpec`, `SolverOptions`, `Well`), whose
own checks are reported with the section and its header line;
`build_case` makes one `BiotCase`, which places the wells on the mesh.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ..coupling import SCHEME_KINDS, BiotCase, SchemeSpec, TimeGrid, Well
from ..errors import ConfigurationError
from ..linsolve.precond import SOLVER_METHODS, SolverOptions
from ..materials import PoroelasticProperties
from ..mesh import Mesh, build_barrier_mesh, build_cartesian
from .manufactured import ManufacturedSolution

__all__ = [
    "MeshSpec",
    "BoundarySpec",
    "CaseConfig",
    "parse_quantity",
    "parse_config",
    "parse_config_text",
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
_BOUNDARY_KINDS = ("fixed", "free", "robin")


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
    """Structured mesh request: cell counts, box lengths and, if either
    barrier key is set, a sealing plane (by default on x, mid-axis)."""

    nx: int = 1
    ny: int = 1
    nz: int = 1
    lx: float = 1.0
    ly: float = 1.0
    lz: float = 1.0
    barrier_axis: str | None = None
    barrier_index: int | None = None

    def build(self) -> Mesh:
        shape = (self.nx, self.ny, self.nz)
        lengths = (self.lx, self.ly, self.lz)
        if self.barrier_axis is None and self.barrier_index is None:
            return build_cartesian(*shape, lengths)
        axis = "xyz".index(self.barrier_axis or "x")
        return build_barrier_mesh(*shape, lengths, axis, self.barrier_index)


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

    @property
    def kinds(self) -> list[str]:
        """The closure of each wall, in _SIDE_NAMES order."""
        return [getattr(self, side) or self.default for side in _SIDE_NAMES]

    def build(self, mesh: Mesh) -> np.ndarray:
        """The outside weight w_out per face: on the boundary fixed 0, free
        inf and robin robin_delta / robin_mu, on interior faces 0."""
        words = self.kinds
        weights = {"fixed": 0.0, "free": math.inf}
        if "robin" in words:
            if not all(
                math.isfinite(v) and v > 0 for v in (self.robin_delta, self.robin_mu)
            ):
                raise ConfigurationError(
                    "Robin boundaries need finite, positive robin_delta and robin_mu"
                )
            weights["robin"] = self.robin_delta / self.robin_mu
        bdry = mesh.boundary_faces
        normals = mesh.face_normals[bdry]
        axis = np.argmax(np.abs(normals), axis=1)
        side_of = 2 * axis + (normals[np.arange(bdry.size), axis] > 0)
        w_out = np.zeros(mesh.n_faces)
        w_out[bdry] = np.array([weights[word] for word in words])[side_of]
        return w_out


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
    output_directory: str = "out"
    wells: list[Well] = field(default_factory=list)

    def build_mesh(self) -> Mesh:
        return self.mesh.build()

    def build_case(self, mesh: Mesh | None = None) -> BiotCase:
        """The case on the configured (or a given) mesh, built whole."""
        mesh = mesh if mesh is not None else self.build_mesh()
        w_out = self.boundaries.build(mesh)
        if self.problem == "manufactured":
            solution = ManufacturedSolution(self.props)
            return solution.as_case(mesh, self.time, w_out, self.wells, self.name)
        props = replace(self.props, w_out=w_out)
        return BiotCase(mesh, props, self.time, self.wells, name=self.name)


class _Key(NamedTuple):
    """How one case-file key is read and which dataclass field it fills."""

    kind: object  # a _UNITS kind, int, str, "name", "cell", or a tuple of words
    required: bool = False  # an absent optional key keeps its field's default
    field: str | None = None  # set only where the field's name differs from the key


class _Section(NamedTuple):
    """One fixed section: the CaseConfig field it fills, its class and keys."""

    field: str | None  # None: the keys are fields of CaseConfig itself
    spec: type | None
    keys: dict[str, _Key]


# The case-file schema: checking and parsing both walk it.
_SECTIONS = {
    "case": _Section(
        None, None, {"name": _Key("name"), "problem": _Key(("generic", "manufactured"))}
    ),
    "mesh": _Section(
        "mesh",
        MeshSpec,
        {
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
            "mechanics": _Key(_BOUNDARY_KINDS, field="default"),
            **{side: _Key(_BOUNDARY_KINDS) for side in _SIDE_NAMES},
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
            "kind": _Key(SCHEME_KINDS),
            "tol": _Key("dimensionless"),
            "max_iter": _Key(int),
        },
    ),
    "solver": _Section(
        "solver",
        SolverOptions,
        {
            "rtol": _Key("dimensionless"),
            "method": _Key(SOLVER_METHODS),
        },
    ),
    "output": _Section(None, None, {"directory": _Key(str, field="output_directory")}),
}
# the keys of each [well.NAME] section, one Well per section
_WELL = {
    "cell": _Key("cell", required=True),
    "rate": _Key("rate", required=True),
    "start": _Key("time", field="t_start"),
    "stop": _Key("time", field="t_end"),
}


def _bad_line(what: str, line: int) -> ConfigurationError:
    return ConfigurationError(f"malformed config: {what}", line=line)


def _read_lines(text: str) -> dict[str, tuple[int, dict[str, tuple[str, int]]]]:
    """Each section's header line and each of its keys' (value, line).

    Lines are counted on "\n" only.  Blank lines and whole-line "#" or ";"
    comments are skipped.  A header line holds nothing after its last "]".
    A key ends at its first "=" or ":"; a line indented deeper than the key
    above it would continue that key's value and is rejected, but a line
    right after a header is always a key.
    """
    sections = {}
    keys = None  # the open section's keys
    key_indent = None  # indentation of the open key; None right after a header
    for number, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith(("#", ";")):
            continue
        indent = len(raw) - len(raw.lstrip())
        if key_indent is not None and indent > key_indent:
            name = f"{section}.{key}"
            raise ConfigurationError(
                f"{name} must be a single line", key=name, line=keys[key][1]
            )
        header = re.match(r"\[(.+)\]", stripped)
        if header:
            if header.end() < len(stripped):
                raise _bad_line("text after a section header's ']'", number)
            section = header[1]  # unstripped: "[ time ]" names " time "
            if section in sections:
                raise _bad_line(f"section '{section}' already exists", number)
            keys, key_indent = {}, None
            sections[section] = (number, keys)
            continue
        if keys is None:
            raise _bad_line("key before the first section header", number)
        cuts = [pos for pos in (stripped.find("="), stripped.find(":")) if pos >= 0]
        cut = min(cuts, default=0)  # no delimiter leaves no key
        key = stripped[:cut].rstrip()
        if not key:
            raise _bad_line("neither a section header nor a key = value pair", number)
        if key in keys:
            raise _bad_line(
                f"option '{key}' in section '{section}' already exists", number
            )
        keys[key] = (stripped[cut + 1 :].strip(), number)
        key_indent = indent
    return sections


def _parse_value(text: str, kind, section: str, key: str, line: int | None):
    """Read one value as its table kind; errors name the key and line."""
    name = f"{section}.{key}"
    if kind in _UNITS:
        return parse_quantity(text, kind, key=name, line=line)
    if kind in (str, "name"):  # the output directory and the files' name prefix
        try:  # checked now, not when the first file is written after the run
            os.fsencode(text)
        except UnicodeEncodeError:
            raise ConfigurationError(
                f"{name} {text!r} cannot be encoded as a file name", key=name, line=line
            ) from None
    if kind is str:
        return text
    if kind == "name":  # names the output files, so it must stay in their directory
        bad = text in (".", "..") or "/" in text or os.sep in text
        if bad or not text.isprintable():
            raise ConfigurationError(
                f"{name} {text!r} must be a single path component", key=name, line=line
            )
        return text
    if isinstance(kind, tuple):
        if text not in kind:
            what = section if key == "kind" else f"{section} {key}"  # [scheme] kind
            raise ConfigurationError(
                f"unknown {what} '{text}' (one of {', '.join(kind)})",
                key=name,
                line=line,
            )
        return text
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


def _read_section(section: str, found, keys: dict[str, _Key]) -> dict:
    """Check one section against its keys; return its typed values by field."""
    header, items = found
    for key, (_, line) in items.items():
        if key not in keys:
            raise ConfigurationError(
                f"unknown key '{key}' in section [{section}]",
                key=f"{section}.{key}",
                line=line,
            )
    values = {}
    for key, spec in keys.items():
        if key in items:
            text, line = items[key]
            value = _parse_value(text, spec.kind, section, key, line)
            values[spec.field or key] = value
        elif spec.required:
            if header is None:
                raise ConfigurationError(f"missing required section [{section}]")
            raise ConfigurationError(
                f"missing required property {key}", key=f"{section}.{key}", line=header
            )
    return values


def _build(spec: type, values: dict, section: str, header: int | None, **extra):
    """The section's record; its own checks are reported at the header."""
    try:
        return spec(**values, **extra)
    except ConfigurationError as err:
        raise ConfigurationError(str(err), key=section, line=header) from None


def parse_config(path) -> CaseConfig:
    path = Path(path)
    try:  # as UTF-8 bytes, so that lines end at "\n" only, as in parse_config_text
        text = path.read_bytes().decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigurationError(f"cannot read config file {path}: {err}") from err
    return parse_config_text(text, default_name=path.stem)


def parse_config_text(text: str, default_name: str = "case") -> CaseConfig:
    sections = _read_lines(text)
    wells = []
    for section, found in sections.items():
        if section.startswith("well."):
            values = _read_section(section, found, _WELL)
            name = section[len("well.") :]
            wells.append(_build(Well, values, section, found[0], name=name))
        elif section not in _SECTIONS:
            raise ConfigurationError(
                f"unknown section '[{section}]'", key=section, line=found[0]
            )
    fields = {}
    for section, (attr, spec, keys) in _SECTIONS.items():
        found = sections.get(section, (None, {}))
        values = _read_section(section, found, keys)
        if spec is None:
            fields.update(values)
        else:
            fields[attr] = _build(spec, values, section, found[0])
    if "name" not in fields:  # the file name then names the output files
        fields["name"] = _parse_value(default_name, "name", "case", "name", None)
    return CaseConfig(**fields, wells=sorted(wells, key=lambda w: w.name))

"""Config parsing: units, validation errors, round-trip stability."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from biotfv.app.config import (
    _SECTIONS,
    _WELL,
    BoundarySpec,
    CaseConfig,
    MeshSpec,
    OutputSpec,
    SchemeSpec,
    WellSpec,
    parse_config,
    parse_config_text,
    parse_quantity,
    serialize_config,
)
from biotfv.coupling import PoroelasticProperties, TimeGrid
from biotfv.errors import ConfigurationError
from biotfv.linsolve.precond import SolverOptions
from biotfv.mesh import build_cartesian
from biotfv.tpsa import BoundaryKind

CASES = Path(__file__).resolve().parent.parent / "cases"
README = CASES.parent / "README.md"

MINIMAL = """
[mesh]
nx = 2
ny = 2
nz = 2

[properties]
mu = 1
lambda = 1
alpha = 0.5
c0 = 1e-2
permeability = 1e-12

[time]
dt = 1 day
n_steps = 3
"""


def test_quantity_units():
    assert parse_quantity("1 Darcy", "permeability") == pytest.approx(9.869233e-13)
    assert parse_quantity("100 mD", "permeability") == pytest.approx(9.869233e-14)
    assert parse_quantity("1 day", "time") == 86400.0
    assert parse_quantity("100 m3/day", "rate") == pytest.approx(100.0 / 86400.0)
    assert parse_quantity("3.5 GPa", "pressure") == 3.5e9
    assert parse_quantity("1 cP", "viscosity") == pytest.approx(1e-3)
    assert parse_quantity("1e-8 1/Pa", "compressibility") == 1e-8
    assert parse_quantity("2.5", "pressure") == 2.5  # bare numbers are SI


def test_quantity_rejects_unknown_unit():
    with pytest.raises(ConfigurationError, match="unknown pressure unit 'psi'"):
        parse_quantity("3 psi", "pressure", key="properties.mu", line=9)
    try:
        parse_quantity("3 psi", "pressure", key="properties.mu", line=9)
    except ConfigurationError as err:
        assert err.key == "properties.mu"
        assert err.line == 9


def test_quantity_rejects_bad_number():
    with pytest.raises(ConfigurationError, match="cannot parse number"):
        parse_quantity("fast Pa", "pressure")


def test_minimal_config_defaults():
    cfg = parse_config_text(MINIMAL)
    assert cfg.name == "case"
    assert cfg.problem == "generic"
    assert (cfg.mesh.nx, cfg.mesh.ny, cfg.mesh.nz) == (2, 2, 2)
    assert (cfg.mesh.lx, cfg.mesh.ly, cfg.mesh.lz) == (1.0, 1.0, 1.0)
    assert cfg.time.dt == 86400.0
    assert cfg.time.n_steps == 3
    assert cfg.scheme.kind == "fixed_stress"
    assert cfg.solver.rtol == 1e-5
    assert cfg.output.vtk is True
    assert cfg.wells == []


def test_barrier_case_file_parses_with_si_values():
    cfg = parse_config(CASES / "barrier.cfg")
    assert cfg.name == "barrier"
    assert cfg.mesh.builder == "barrier"
    assert (cfg.mesh.nx, cfg.mesh.ny, cfg.mesh.nz) == (30, 30, 3)
    assert (cfg.mesh.lx, cfg.mesh.ly, cfg.mesh.lz) == (300.0, 300.0, 30.0)
    assert cfg.mesh.barrier_axis == "x"
    assert cfg.mesh.barrier_index == 15
    assert cfg.props.mu == 3.5e9
    assert cfg.props.lam == 4e9
    assert cfg.props.alpha == 0.87
    assert cfg.props.perm == pytest.approx(100e-3 * 9.869233e-13)
    assert cfg.props.fluid_viscosity == pytest.approx(1e-3)
    assert cfg.time.dt == 30 * 86400.0
    assert cfg.time.n_steps == 24
    (well,) = cfg.wells
    assert well.cell == (7, 15, 1)
    assert well.rate == pytest.approx(100.0 / 86400.0)
    assert well.t_start == 0.0
    assert well.t_end == pytest.approx(360 * 86400.0)


def test_readme_example_parses_and_builds():
    (block,) = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
    cfg = parse_config_text(block)
    assert cfg.name == "demo"
    assert cfg.boundaries.default == "fixed"
    assert cfg.scheme.kind == "fixed_stress"
    assert cfg.solver.method == "auto"
    case = cfg.build_case()
    assert case.mesh.n_cells == 30 * 30 * 3
    assert case.wells[0].cell == case.mesh.cell_index(7, 15, 1)


def test_readme_lists_every_key_once():
    rows = re.findall(r"^\| `\[([\w.]+)\]` \| `(\w+)` \|", README.read_text(), re.M)
    schema = [(name, key) for name, section in _SECTIONS.items() for key in section.keys]
    schema += [("well.NAME", key) for key in _WELL]
    assert sorted(rows) == sorted(schema)


def test_manufactured_case_file_parses():
    cfg = parse_config(CASES / "manufactured.cfg")
    assert cfg.problem == "manufactured"
    assert cfg.props.mu == 0.01
    assert cfg.props.lam == 1.0
    assert cfg.props.perm == pytest.approx(9.869233e-13)
    assert cfg.props.fluid_viscosity == 5e-4
    assert cfg.scheme.kind == "lagged"


def test_missing_lambda_is_reported_by_name():
    text = MINIMAL.replace("lambda = 1\n", "")
    with pytest.raises(ConfigurationError, match="missing required property lambda"):
        parse_config_text(text)


def test_missing_section_is_reported():
    text = MINIMAL[: MINIMAL.index("[time]")]
    with pytest.raises(ConfigurationError, match=r"missing required section \[time\]"):
        parse_config_text(text)


def test_unknown_key_names_key_and_line():
    # the direct/iterative size switch is a constant, not a [solver] key
    for key, entry in (
        ("shenanigans", "shenanigans = 3"),
        ("direct_threshold", "direct_threshold = 30000"),
    ):
        text = MINIMAL + f"\n[solver]\nrtol = 1e-6\n{entry}\n"
        line = text.splitlines().index(entry) + 1
        with pytest.raises(ConfigurationError) as excinfo:
            parse_config_text(text)
        assert key in str(excinfo.value)
        assert str(line) in str(excinfo.value)
        assert excinfo.value.line == line


def test_unknown_section_rejected():
    # [DEFAULT] would copy its keys into every section; a padded header
    # keeps its spaces in configparser's section name
    for header in ("[wells]", "[DEFAULT]", "[ time ]"):
        text = MINIMAL + f"\n{header}\nfoo = 1\n"
        line = text.splitlines().index(header) + 1
        with pytest.raises(ConfigurationError, match="unknown section") as excinfo:
            parse_config_text(text)
        assert excinfo.value.line == line
        assert f"line {line}" in str(excinfo.value)


def test_unknown_well_key_rejected():
    text = MINIMAL + "\n[well.a]\ncell = 0\nrate = 1\ncolour = red\n"
    with pytest.raises(ConfigurationError, match="colour"):
        parse_config_text(text)


def test_bad_integer_and_boolean():
    with pytest.raises(ConfigurationError, match="cannot parse integer"):
        parse_config_text(MINIMAL.replace("nx = 2", "nx = two"))
    with pytest.raises(ConfigurationError, match="cannot parse boolean"):
        parse_config_text(MINIMAL + "\n[output]\nvtk = maybe\n")


def test_bad_scheme_and_method_and_axis():
    with pytest.raises(ConfigurationError, match="unknown scheme kind"):
        parse_config_text(MINIMAL + "\n[scheme]\nkind = magic\n")
    with pytest.raises(ConfigurationError, match="unknown solver method"):
        parse_config_text(MINIMAL + "\n[solver]\nmethod = gauss\n")
    with pytest.raises(ConfigurationError, match="barrier_axis"):
        parse_config_text(MINIMAL + "\n[mesh]\nbarrier_axis = w\n".replace("[mesh]\n", ""))


def test_round_trip_is_idempotent(tmp_path):
    for name in ("barrier.cfg", "manufactured.cfg"):
        cfg = parse_config(CASES / name)
        text = serialize_config(cfg)
        again = parse_config_text(text)
        assert again == cfg
        assert serialize_config(again) == text


def test_round_trip_minimal():
    cfg = parse_config_text(MINIMAL)
    assert parse_config_text(serialize_config(cfg)) == cfg


words = st.text("abcdefghijklmnopqrstuvwxyz_0123456789", min_size=1, max_size=8)
reals = st.floats(allow_nan=False, allow_infinity=False)
counts = st.integers(-5, 10**6)
side = st.none() | st.sampled_from(["fixed", "free", "robin"])


@st.composite
def case_configs(draw):
    """Any config the parser can produce, on either mesh builder."""
    mesh = MeshSpec(
        builder=draw(st.sampled_from(["cartesian", "barrier"])),
        nx=draw(counts),
        ny=draw(counts),
        nz=draw(counts),
        lx=draw(reals),
        ly=draw(reals),
        lz=draw(reals),
        barrier_axis=draw(st.sampled_from("xyz")),
        barrier_index=draw(st.none() | counts),
    )
    wells = [
        WellSpec(
            name=name,
            cell=draw(counts | st.tuples(counts, counts, counts)),
            rate=draw(reals),
            t_start=draw(reals),
            t_end=draw(reals | st.just(math.inf)),
        )
        for name in sorted(draw(st.sets(words, max_size=3)))
    ]
    return CaseConfig(
        name=draw(words),
        problem=draw(st.sampled_from(["generic", "manufactured"])),
        mesh=mesh,
        props=PoroelasticProperties(*(draw(reals) for _ in range(6))),
        boundaries=BoundarySpec(
            draw(st.sampled_from(["fixed", "free", "robin"])),
            *(draw(side) for _ in range(6)),
            robin_delta=draw(reals),
            robin_mu=draw(reals),
        ),
        time=TimeGrid(
            dt=draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
            n_steps=draw(st.integers(1, 10**6)),
            t0=draw(reals),
        ),
        scheme=SchemeSpec(
            draw(st.sampled_from(["fixed_stress", "lagged"])),
            draw(reals),
            draw(counts),
            draw(counts),
        ),
        solver=SolverOptions(
            draw(reals),
            draw(counts),
            draw(st.sampled_from(["auto", "direct", "iterative"])),
        ),
        output=OutputSpec(draw(words), draw(st.booleans()), draw(st.booleans())),
        wells=wells,
    )


@given(case_configs())
def test_round_trip_property(cfg):
    text = serialize_config(cfg)
    assert parse_config_text(text) == cfg
    assert serialize_config(parse_config_text(text)) == text


def test_boundary_spec_side_override():
    mesh = build_cartesian(2, 2, 2)
    spec = BoundarySpec(default="fixed", z_max="free")
    boundary = spec.build(mesh)
    free = np.flatnonzero(boundary.kind == BoundaryKind.FREE)
    assert free.size == 4
    assert np.all(mesh.face_centers[free, 2] == 1.0)
    fixed = np.flatnonzero(boundary.kind == BoundaryKind.FIXED)
    assert fixed.size == 24 - 4


def _assert_word_rejected(text, entry, key):
    """Parsing rejects the word in the line `entry`, naming key and line."""
    word = entry.split("=")[1].strip()
    with pytest.raises(ConfigurationError, match=f"'{word}' \\(one of") as excinfo:
        parse_config_text(text)
    assert excinfo.value.key == key
    assert excinfo.value.line == text.splitlines().index(entry) + 1


def test_boundary_spec_rejects_unknown_kind():
    # the closure words are checked when the file is parsed, not when built
    for entry, key in (
        ("mechanics = slippery", "boundaries.mechanics"),
        ("z_max = slippery", "boundaries.z_max"),
    ):
        _assert_word_rejected(MINIMAL + f"\n[boundaries]\n{entry}\n", entry, key)


def test_unknown_builder_and_problem_rejected():
    text = MINIMAL.replace("[mesh]\n", "[mesh]\nbuilder = hexagonal\n")
    _assert_word_rejected(text, "builder = hexagonal", "mesh.builder")
    text = MINIMAL + "\n[case]\nproblem = analytic\n"
    _assert_word_rejected(text, "problem = analytic", "case.problem")


def test_indented_key_after_header_keeps_its_line():
    # configparser reads an indented line right after a header as a key; a
    # line indented deeper than an open key continues that key's value
    text = MINIMAL.replace("[mesh]\nnx = 2\n", "[mesh]\n  nx = two\n")
    with pytest.raises(ConfigurationError, match="cannot parse integer") as excinfo:
        parse_config_text(text)
    assert excinfo.value.line == text.splitlines().index("  nx = two") + 1
    text = MINIMAL + "\n[case]\n  name = a\n    problem = generic\nproblem = analytic\n"
    with pytest.raises(ConfigurationError, match="analytic") as excinfo:
        parse_config_text(text)
    assert excinfo.value.line == text.splitlines().index("problem = analytic") + 1


def test_boundary_robin_needs_positive_parameters():
    mesh = build_cartesian(2, 2, 2)
    for delta, mu in ((0.0, 1.0), (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan)):
        spec = BoundarySpec(default="robin", robin_delta=delta, robin_mu=mu)
        with pytest.raises(ConfigurationError, match="robin_delta"):
            spec.build(mesh)
    # the Robin values are not read where no face is Robin
    BoundarySpec(default="fixed", robin_delta=math.nan).build(mesh)


def test_build_case_generic_resolves_well():
    cfg = parse_config(CASES / "barrier.cfg")
    case = cfg.build_case()
    assert case.mesh.n_cells == 2700
    (well,) = case.wells
    assert well.cell == case.mesh.cell_index(7, 15, 1)
    assert well.rate == pytest.approx(100.0 / 86400.0)
    assert well.t_end == pytest.approx(360 * 86400.0)
    assert case.props.boundary is not None
    assert case.f_p is None


def test_build_case_manufactured_attaches_sources():
    cfg = parse_config(CASES / "manufactured.cfg")
    cfg.mesh.nx = cfg.mesh.ny = cfg.mesh.nz = 4
    case = cfg.build_case()
    assert case.props.f_u.shape == (64, 3)
    assert case.f_p.shape == (64,)
    assert case.initial is not None
    assert case.name == "manufactured"


def test_build_case_rejects_out_of_range_structured_cell():
    text = MINIMAL + "\n[well.w]\ncell = 5 0 0\nrate = 1\n"
    cfg = parse_config_text(text)
    with pytest.raises(ConfigurationError):
        cfg.build_case()


def test_well_requires_rate():
    text = MINIMAL + "\n[well.w]\ncell = 0\n"
    with pytest.raises(ConfigurationError, match="missing required property rate"):
        parse_config_text(text)


def test_malformed_ini_reported():
    with pytest.raises(ConfigurationError, match="malformed config"):
        parse_config_text("properties]\nmu 1\n[")


def test_missing_file_reported(tmp_path):
    with pytest.raises(ConfigurationError, match="cannot read config file"):
        parse_config(tmp_path / "nope.cfg")


def test_config_equality_detects_changes():
    a = parse_config_text(MINIMAL)
    b = parse_config_text(MINIMAL.replace("alpha = 0.5", "alpha = 0.6"))
    assert a != b

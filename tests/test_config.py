"""Config parsing: units, validation errors, round-trip stability."""

import math
import re
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from biotfv.app.cli import main
from biotfv.app.config import (
    _SECTIONS,
    _WELL,
    BoundarySpec,
    CaseConfig,
    MeshSpec,
    parse_config,
    parse_config_text,
    parse_quantity,
)
from biotfv.coupling import SCHEME_KINDS, SchemeSpec, TimeGrid, Well
from biotfv.errors import ConfigurationError
from biotfv.linsolve.precond import SolverOptions
from biotfv.materials import PoroelasticProperties
from biotfv.mesh import build_barrier_mesh, build_cartesian

from oracles import serialize_config

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
    assert cfg.scheme.kind == "fixed"
    assert cfg.solver.rtol == 1e-5
    assert cfg.output_directory == "out"
    assert cfg.wells == []


def test_barrier_case_file_parses_with_si_values():
    cfg = parse_config(CASES / "barrier.cfg")
    assert cfg.name == "barrier"
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
    assert cfg.scheme.kind == "fixed"
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
    # the direct/iterative size switch is a constant, not a [solver] key,
    # and every run writes every output file, so [output] has no switches
    for known, key, entry in (
        ("[solver]\nrtol = 1e-6", "shenanigans", "shenanigans = 3"),
        ("[solver]\nrtol = 1e-6", "direct_threshold", "direct_threshold = 30000"),
        ("[output]\ndirectory = out", "vtk", "vtk = true"),
        ("[output]\ndirectory = out", "csv", "csv = true"),
    ):
        text = MINIMAL + f"\n{known}\n{entry}\n"
        line = text.splitlines().index(entry) + 1
        with pytest.raises(ConfigurationError) as excinfo:
            parse_config_text(text)
        assert key in str(excinfo.value)
        assert str(excinfo.value).count(f"line {line}") == 1
        assert excinfo.value.line == line


def test_unknown_section_rejected():
    # [DEFAULT] is no section of defaults, and a padded header keeps its
    # spaces in the section name
    for header in ("[wells]", "[DEFAULT]", "[ time ]"):
        text = MINIMAL + f"\n{header}\nfoo = 1\n"
        line = text.splitlines().index(header) + 1
        with pytest.raises(ConfigurationError, match="unknown section") as excinfo:
            parse_config_text(text)
        assert excinfo.value.line == line
        assert str(excinfo.value).count(f"line {line}") == 1


def test_unknown_well_key_rejected():
    text = MINIMAL + "\n[well.a]\ncell = 0\nrate = 1\ncolour = red\n"
    with pytest.raises(ConfigurationError, match="colour"):
        parse_config_text(text)


def test_bad_integer():
    with pytest.raises(ConfigurationError, match="cannot parse integer"):
        parse_config_text(MINIMAL.replace("nx = 2", "nx = two"))


def test_bad_scheme_and_method_and_axis():
    message = "unknown scheme 'magic' \\(one of lagged, fixed, anderson\\)"
    with pytest.raises(ConfigurationError, match=message):
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
# a tolerance of 1 or more stops every solve or pass before it does anything
below_one = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
normal = st.floats(min_value=np.finfo(float).tiny, allow_infinity=False)
counts = st.integers(-5, 10**6)
side = st.none() | st.sampled_from(["fixed", "free", "robin"])


@st.composite
def wells_named(draw, name):
    """A well the parser accepts: finite rate and start, stop after start."""
    t_start = draw(reals)
    # after -0.0 the next float up is 0.0, which is not after it
    after = st.floats(min_value=t_start, allow_nan=False).filter(lambda t: t > t_start)
    return Well(
        name=name,
        cell=draw(counts | st.tuples(counts, counts, counts)),
        rate=draw(reals),
        t_start=t_start,
        t_end=draw(after),
    )


@st.composite
def case_configs(draw):
    """Any config the parser can produce, with or without a barrier."""
    mesh = MeshSpec(
        nx=draw(counts),
        ny=draw(counts),
        nz=draw(counts),
        lx=draw(reals),
        ly=draw(reals),
        lz=draw(reals),
        barrier_axis=draw(st.none() | st.sampled_from("xyz")),
        barrier_index=draw(st.none() | counts),
    )
    names = sorted(draw(st.sets(words, max_size=3)))
    wells = [draw(wells_named(name)) for name in names]
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
            dt=draw(normal),  # a subnormal step is rejected
            n_steps=draw(st.integers(1, 10**6)),
            t0=draw(reals),
        ),
        scheme=SchemeSpec(
            draw(st.sampled_from(SCHEME_KINDS)),
            draw(below_one),
            draw(st.integers(1, 10**6)),
        ),
        solver=SolverOptions(
            draw(below_one),
            draw(st.sampled_from(["auto", "direct", "iterative"])),
        ),
        output_directory=draw(words),
        wells=wells,
    )


@given(case_configs())
def test_round_trip_property(cfg):
    text = serialize_config(cfg)
    assert parse_config_text(text) == cfg
    assert serialize_config(parse_config_text(text)) == text


@pytest.mark.parametrize(
    "section, entries, message",
    [
        ("scheme", "tol = nan", "tolerance"),
        ("scheme", "tol = 1", "tolerance must be positive and below 1"),
        ("scheme", "max_iter = 0", "iteration cap"),
        ("solver", "rtol = 0", "rtol"),
        ("solver", "rtol = 1", "rtol must be positive and below 1"),
        ("well.w", "cell = 0\nrate = nan", "well rate"),
        ("well.w", "cell = 0\nrate = 1\nstart = 2 day\nstop = 2 day", "stop time"),
        ("well.w", "cell = 0\nrate = 1\nstart = 2 day\nstop = 1 day", "stop time"),
    ],
)
def test_record_checks_name_section_and_header_line(section, entries, message):
    # each section builds its record when parsed, and the record checks itself
    text = MINIMAL + f"\n[{section}]\n{entries}\n"
    with pytest.raises(ConfigurationError, match=message) as excinfo:
        parse_config_text(text)
    assert excinfo.value.key == section
    assert excinfo.value.line == text.splitlines().index(f"[{section}]") + 1


def test_run_records_are_frozen():
    cfg = parse_config_text(MINIMAL + "\n[well.w]\ncell = 0\nrate = 1\n")
    records = ((cfg.scheme, "tol"), (cfg.solver, "rtol"), (cfg.wells[0], "rate"))
    for record, name in records:
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, -1.0)


def test_boundary_spec_side_override():
    mesh = build_cartesian(2, 2, 2)
    spec = BoundarySpec(default="fixed", z_max="free")
    w_out = spec.build(mesh)
    bdry = mesh.boundary_faces
    free = bdry[np.isinf(w_out[bdry])]
    assert free.size == 4
    assert np.all(mesh.face_centers[free, 2] == 1.0)
    fixed = bdry[w_out[bdry] == 0.0]
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


def test_fixed_stress_is_no_scheme_kind():
    # one name per scheme: the fixed-stress split is `fixed`
    text = MINIMAL + "\n[scheme]\nkind = fixed_stress\n"
    _assert_word_rejected(text, "kind = fixed_stress", "scheme.kind")


def test_anderson_window_is_no_scheme_key():
    # the anderson scheme's window is a constant, so a window set in the
    # case file is an unknown key, named at its own line
    text = MINIMAL + "\n[scheme]\nkind = anderson\nanderson_m0 = -1\n"
    line = text.splitlines().index("anderson_m0 = -1") + 1
    with pytest.raises(ConfigurationError, match="anderson_m0") as excinfo:
        parse_config_text(text)
    assert excinfo.value.key == "scheme.anderson_m0"
    assert excinfo.value.line == line
    assert str(excinfo.value).count(f"line {line}") == 1


def test_unknown_builder_and_problem_rejected():
    # the barrier keys alone ask for a barrier: a mesh kind is no key at all
    text = MINIMAL.replace("[mesh]\n", "[mesh]\nbuilder = hexagonal\n")
    with pytest.raises(ConfigurationError, match="unknown key 'builder'") as excinfo:
        parse_config_text(text)
    assert excinfo.value.key == "mesh.builder"
    assert excinfo.value.line == text.splitlines().index("builder = hexagonal") + 1
    text = MINIMAL + "\n[case]\nproblem = analytic\n"
    _assert_word_rejected(text, "problem = analytic", "case.problem")


@pytest.mark.parametrize(
    "keys, axis, index",
    [("barrier_index = 1\n", 0, 1), ("barrier_axis = y\n", 1, 1), ("", None, None)],
    ids=["index-alone", "axis-alone", "no-barrier-key"],
)
def test_barrier_keys_alone_ask_for_the_sealing_plane(keys, axis, index):
    # either key seals a plane, the other at its default (axis x, the
    # middle layer); without them the flow is one compartment
    cfg = parse_config_text(MINIMAL.replace("[mesh]\n", "[mesh]\n" + keys))
    mesh = cfg.build_mesh()
    if axis is None:
        assert not mesh.barrier.any()
        assert len(np.unique(mesh.flow_components())) == 1
        return
    assert np.array_equal(mesh.barrier, build_barrier_mesh(2, 2, 2, axis=axis).barrier)
    assert len(np.unique(mesh.flow_components())) == 2
    assert mesh.barrier.sum() == 4
    assert np.all(mesh.face_centers[mesh.barrier, axis] == 0.5 * index)


def test_a_case_file_naming_the_mesh_kind_exits_2(tmp_path, capsys):
    # the retired key that named the mesh kind, even agreeing with the
    # barrier keys, is unknown, named with its line
    text = MINIMAL.replace("[mesh]\n", "[mesh]\nbuilder = barrier\nbarrier_index = 1\n")
    path = tmp_path / "old.cfg"
    path.write_text(text)
    line = text.splitlines().index("builder = barrier") + 1
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"key 'mesh.builder': line {line}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_case_file_setting_the_krylov_cap_exits_2(tmp_path, capsys):
    # the cap is krylov.MAX_ITERATIONS: the retired key is unknown, even at
    # the value every case used to set, named with its line
    text = MINIMAL + "\n[solver]\nrtol = 1e-6\nmax_iter = 500\n"
    path = tmp_path / "old.cfg"
    path.write_text(text)
    line = text.splitlines().index("max_iter = 500") + 1
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "unknown key 'max_iter' in section [solver]" in err
    assert f"key 'solver.max_iter': line {line}" in err
    assert not (tmp_path / "out").exists()


def test_indented_key_after_header_keeps_its_line():
    # an indented line right after a header is a key; a line indented
    # deeper than an open key would continue that key's value
    text = MINIMAL.replace("[mesh]\nnx = 2\n", "[mesh]\n  nx = two\n")
    with pytest.raises(ConfigurationError, match="cannot parse integer") as excinfo:
        parse_config_text(text)
    assert excinfo.value.line == text.splitlines().index("  nx = two") + 1
    text = MINIMAL + "\n[case]\n  name = a\n    problem = generic\nproblem = analytic\n"
    with pytest.raises(ConfigurationError, match="single line") as excinfo:
        parse_config_text(text)
    assert excinfo.value.line == text.splitlines().index("  name = a") + 1


# (section, entry, an indented next line that would continue its value)
_CONTINUED = [
    ("case", "name = barrier", "two"),
    ("output", "directory = out", "two"),
    ("boundaries", "robin_mu = 3.5", "GPa"),  # would read as 3.5 GPa
    ("well.w", "cell = 1 1", "1"),  # would read as the cell (1, 1, 1)
    ("scheme", "max_iter = 5", "0"),
    ("solver", "method = iterative", "direct"),
]


@pytest.mark.parametrize(
    "section, entry, more", _CONTINUED, ids=[f"{s}-{e}" for s, e, _ in _CONTINUED]
)
def test_text_value_continued_on_next_line_rejected(section, entry, more):
    # an indented next line would continue the value: a name with a line
    # break would split file names and the VTK header, a number would take
    # the next line as its unit or a cell as its last index
    text = MINIMAL + f"\n[{section}]\n{entry}\n  {more}\n"
    key = f"{section}.{entry.split()[0]}"
    with pytest.raises(ConfigurationError, match="single line") as excinfo:
        parse_config_text(text)
    assert excinfo.value.key == key
    assert excinfo.value.line == text.splitlines().index(entry) + 1


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
    assert np.array_equal(case.props.w_out, np.zeros(case.mesh.n_faces))  # clamped
    assert np.array_equal(case.props.f_p, np.zeros(2700))
    assert cfg.boundaries.kinds == ["fixed"] * 6


def test_build_case_manufactured_attaches_sources():
    cfg = parse_config(CASES / "manufactured.cfg")
    cfg.mesh.nx = cfg.mesh.ny = cfg.mesh.nz = 4
    case = cfg.build_case()
    assert case.props.f_u.shape == (64, 3)
    assert case.props.f_p.shape == (64,)
    assert case.initial.t == cfg.time.t0
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


MALFORMED = pytest.mark.parametrize(
    "text, entry",
    [
        (MINIMAL + "\n[time]\nn_steps = 4\n", "[time]"),
        (MINIMAL.replace("nx = 2\n", "nx = 2\nnx = 3\n"), "nx = 3"),
        (MINIMAL.replace("nx = 2\n", "nx 2\n"), "nx 2"),
        ("nz = 9\n" + MINIMAL, "nz = 9"),
        (MINIMAL.replace("[mesh]\nnx = 2\n", "[mesh] nx = 2\n"), "[mesh] nx = 2"),
        (MINIMAL.replace("[time]\n", "[time] ; monthly\n"), "[time] ; monthly"),
    ],
    ids=[
        "repeated-section",
        "repeated-key",
        "no-delimiter",
        "key-before-header",
        "key-after-header",
        "comment-after-header",
    ],
)


def _offending_line(text, entry):
    """The last line reading `entry`."""
    return [i for i, raw in enumerate(text.splitlines(), 1) if raw == entry][-1]


@MALFORMED
def test_malformed_case_file_reports_its_line(text, entry):
    with pytest.raises(ConfigurationError, match="malformed config") as excinfo:
        parse_config_text(text)
    assert excinfo.value.line == _offending_line(text, entry)


@MALFORMED
def test_malformed_case_file_names_its_line_once(text, entry):
    # the message carries no source or line text of its own
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config_text(text)
    message = str(excinfo.value)
    assert message.count("line") == 1
    assert message.endswith(f": line {_offending_line(text, entry)}")


def test_header_with_trailing_key_is_rejected_not_dropped():
    # "[solver] method = iterative" once parsed as "[solver]" and dropped
    # the key without a word, leaving method = auto
    entry = "[solver] method = iterative"
    text = (CASES / "barrier.cfg").read_text().replace("[solver]", entry)
    with pytest.raises(ConfigurationError, match=r"text after a section header") as excinfo:
        parse_config_text(text)
    assert excinfo.value.line == text.split("\n").index(entry) + 1


@pytest.mark.parametrize(
    "char", ["\x0c", "\x85", "\r"], ids=["form-feed", "next-line", "lone-cr"]
)
def test_lines_are_counted_on_newlines_only(char, tmp_path):
    # str.splitlines, and a file read with universal newlines, would also
    # break at a form feed, NEL or lone CR
    text = f"# fault {char} plane\n" + (CASES / "barrier.cfg").read_text()
    text = text.replace("nx = 30\n", "nx = thirty\n")
    path = tmp_path / "barrier.cfg"
    path.write_bytes(text.encode())
    for parse, source in ((parse_config_text, text), (parse_config, path)):
        with pytest.raises(ConfigurationError, match="cannot parse integer") as excinfo:
            parse(source)
        assert excinfo.value.key == "mesh.nx"
        assert excinfo.value.line == text.split("\n").index("nx = thirty") + 1 == 10


def test_crlf_and_bom_case_file_parses_like_lf(tmp_path):
    text = (CASES / "barrier.cfg").read_text()
    assert parse_config_text(text.replace("\n", "\r\n")) == parse_config_text(text)
    # a UTF-8 byte-order mark, as some editors write, is not part of line 1
    path = tmp_path / "barrier.cfg"
    path.write_bytes(b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode())
    assert parse_config(path) == parse_config_text(text)


@pytest.mark.parametrize(
    "name", ["../escaped", "sub/case", ".", "..", "nul\x00byte", "form\x0cfeed"]
)
def test_case_name_is_one_path_component(name):
    # the name prefixes the output file names, so it must not leave their directory
    text = MINIMAL + f"\n[case]\nname = {name}\n"
    with pytest.raises(ConfigurationError, match="single path component") as excinfo:
        parse_config_text(text)
    assert excinfo.value.key == "case.name"
    assert excinfo.value.line == text.split("\n").index(f"name = {name}") + 1


def test_missing_file_reported(tmp_path):
    with pytest.raises(ConfigurationError, match="cannot read config file"):
        parse_config(tmp_path / "nope.cfg")
    # a file that is not UTF-8 text cannot be read either
    (tmp_path / "latin1.cfg").write_bytes(b"[case]\nname = d\xe9j\xe0\n")
    with pytest.raises(ConfigurationError, match="cannot read config file"):
        parse_config(tmp_path / "latin1.cfg")


def test_config_equality_detects_changes():
    a = parse_config_text(MINIMAL)
    b = parse_config_text(MINIMAL.replace("alpha = 0.5", "alpha = 0.6"))
    assert a != b

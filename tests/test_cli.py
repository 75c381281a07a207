"""Command-line interface: subcommands, exit codes, deterministic output."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import read_csv, read_vtk
from scipy.io import mmread

from biotfv import tpfa, tpsa
from biotfv.app import cli, drivers
from biotfv.app.cli import main
from biotfv.errors import GeometryError
from biotfv.linsolve import krylov, precond

CASES = Path(__file__).resolve().parent.parent / "cases"

BARRIER_SMALL = """
[case]
name = small

[mesh]
nx = 6
ny = 4
nz = 2
lx = 60 m
ly = 40 m
lz = 20 m
barrier_index = 3

[properties]
mu = 3.5 GPa
lambda = 4 GPa
alpha = 0.87
c0 = 1e-8 1/Pa
permeability = 100 mD
fluid_viscosity = 1 cP

[time]
dt = 10 day
n_steps = 3

[scheme]
tol = 1e-8
max_iter = 40

[well.w]
cell = 1 2 1
rate = 5 m3/day
"""

MANUFACTURED_SMALL = """
[case]
name = tinyman
problem = manufactured

[mesh]
nx = 4
ny = 4
nz = 4

[properties]
mu = 0.01 Pa
lambda = 1 Pa
alpha = 1.0
c0 = 0.01 1/Pa
permeability = 1 Darcy
fluid_viscosity = 5e-4 Pa.s

[time]
dt = 50 day
n_steps = 2

[scheme]
kind = lagged
"""


@pytest.fixture
def barrier_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(BARRIER_SMALL + f"\n[output]\ndirectory = {tmp_path / 'out'}\n")
    return path


@pytest.fixture
def manufactured_cfg(tmp_path):
    path = tmp_path / "tinyman.cfg"
    path.write_text(
        MANUFACTURED_SMALL + f"\n[output]\ndirectory = {tmp_path / 'out'}\n"
    )
    return path


def test_run_success(barrier_cfg, tmp_path, capsys):
    assert main(["run", str(barrier_cfg)]) == 0
    out = capsys.readouterr().out
    assert "mass defect" in out
    for name in ("small_series.csv", "small_psi.npy", "small_final.vtk"):
        assert (tmp_path / "out" / name).exists()


def test_run_dump_matrix(barrier_cfg, tmp_path):
    assert main(["run", str(barrier_cfg), "--dump-matrix"]) == 0
    assert (tmp_path / "out" / "small_mech.mtx").exists()


@pytest.mark.parametrize(
    "file_name, name_line, stem",
    [("small.cfg", "name = v1.2", "v1.2"), ("barrier.v2.cfg", "", "barrier.v2")],
    ids=["case-name", "file-stem"],
)
def test_run_dump_matrix_keeps_a_dotted_case_name(tmp_path, file_name, name_line, stem):
    # the text after a dot in the name is part of it, not a suffix to replace
    cfg = tmp_path / file_name
    cfg.write_text(
        BARRIER_SMALL.replace("name = small", name_line)
        + f"\n[output]\ndirectory = {tmp_path / 'out'}\n"
    )
    assert main(["run", str(cfg), "--dump-matrix"]) == 0
    dumps = sorted(path.name for path in (tmp_path / "out").glob("*.mtx"))
    assert dumps == [f"{stem}_mech.mtx"]


def test_run_dump_matrix_assembles_after_the_run(barrier_cfg, tmp_path, monkeypatch):
    # the engine keeps the operator only rescaled, so the dump assembles the
    # one it writes once the run is done, through no holder of the study's
    original, simulate = tpsa.assemble_tpsa, drivers.simulate
    built = []

    def spy(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    for module in [m for k, m in sys.modules.items() if k.startswith("biotfv")]:
        if getattr(module, "assemble_tpsa", None) is original:
            monkeypatch.setattr(module, "assemble_tpsa", spy)
    monkeypatch.setattr(drivers, "simulate", lambda *a: built.append("run") or simulate(*a))
    monkeypatch.setattr(drivers, "SharedOperators", None)
    assert main(["run", str(barrier_cfg), "--dump-matrix"]) == 0
    assert len(built) == 3 and built[1] == "run"
    dumped = mmread(tmp_path / "out" / "small_mech.mtx")
    assert (dumped != built[0].matrix).nnz == 0 and (dumped != built[2].matrix).nnz == 0


def test_run_is_deterministic(barrier_cfg, tmp_path):
    assert main(["run", str(barrier_cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["run", str(barrier_cfg), "--out", str(tmp_path / "b")]) == 0
    for name in ("small_series.csv", "small_psi.npy", "small_final.vtk"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.cfg")]) == 2
    assert "configuration error" in capsys.readouterr().err
    (tmp_path / "latin1.cfg").write_bytes(b"[case]\nname = d\xe9j\xe0\n")
    assert main(["run", str(tmp_path / "latin1.cfg")]) == 2
    assert "configuration error: cannot read config file" in capsys.readouterr().err


def test_invalid_config_exits_2(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(BARRIER_SMALL + "\n[solver]\nwarp_factor = 9\n")
    assert main(["run", str(bad)]) == 2


def test_header_with_trailing_text_exits_2_naming_its_line(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(BARRIER_SMALL + "\n[solver] method = iterative\n")
    line = bad.read_text().split("\n").index("[solver] method = iterative") + 1
    assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert f"line {line}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bad_cli_overrides_exit_2(barrier_cfg, tmp_path):
    # the solver is set in the case file only
    for flag in ("--rtol", "--max-iter"):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", str(barrier_cfg), flag, "1"])
        assert excinfo.value.code == 2
    bad = tmp_path / "bad.cfg"
    for entry in ("rtol = -1", "max_iter = 0"):
        bad.write_text(BARRIER_SMALL + f"\n[solver]\n{entry}\n")
        assert main(["run", str(bad), "--out", str(tmp_path / "bad")]) == 2
    assert not (tmp_path / "bad").exists()
    assert main(["convergence", str(barrier_cfg), "--grids", "a,b,c"]) == 2


def test_solver_failure_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(krylov, "MAX_ITERATIONS", 1)
    cfg = tmp_path / "hard.cfg"
    cfg.write_text(
        BARRIER_SMALL
        + "\n[solver]\nmethod = iterative\n"
        + f"[output]\ndirectory = {tmp_path / 'o'}\n"
    )
    assert main(["run", str(cfg)]) == 3
    assert "solver failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "module, operator",
    [
        (precond, "elastic (TPSA) factorization failed"),
        (tpfa, "flow (TPFA) factorization failed"),
    ],
    ids=["elastic", "flow"],
)
def test_singular_factorization_exits_3(
    barrier_cfg, monkeypatch, capsys, module, operator
):
    # SuperLU's own error for an exactly zero pivot
    def singular(*_args, **_kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(module, "splu", singular)
    for command in ("run", "barrier"):
        assert main([command, str(barrier_cfg)]) == 3
        err = capsys.readouterr().err
        assert "solver failure" in err and operator in err


def test_other_package_error_exits_2(barrier_cfg, monkeypatch, capsys):
    def broken(*_args, **_kwargs):
        raise GeometryError("degenerate face")

    monkeypatch.setattr(cli, "run_case", broken)
    assert main(["run", str(barrier_cfg)]) == 2
    assert "configuration error: degenerate face" in capsys.readouterr().err


def test_nan_permeability_exits_2_without_outputs(tmp_path, capsys):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(
        BARRIER_SMALL.replace("permeability = 100 mD", "permeability = nan mD")
        + f"\n[output]\ndirectory = {tmp_path / 'out'}\n"
    )
    assert main(["run", str(cfg)]) == 2
    assert "permeability must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


NAN_RATE = ("rate = 5 m3/day", "rate = nan m3/day")


@pytest.mark.parametrize(
    "edits, message",
    [
        ([NAN_RATE], "well rate"),
        ([NAN_RATE, ("tol = 1e-8", "kind = lagged\ntol = 1e-8")], "well rate"),
        ([("rate = 5 m3/day", "rate = 5 m3/day\nstart = nan day")], "start time"),
        ([("rate = 5 m3/day", "rate = 5 m3/day\nstop = nan day")], "stop time"),
        ([("[time]", "[solver]\nrtol = 0\nmethod = iterative\n\n[time]")], "rtol"),
        ([("[time]", "[solver]\nmax_iter = 0\n\n[time]")], "max_iter"),
        (
            [("[time]", "[boundaries]\nmechanics = robin\nrobin_delta = nan m\n[time]")],
            "robin_delta",
        ),
        ([("tol = 1e-8", "tol = nan")], "tolerance"),
        ([("n_steps = 3", "n_steps = 3\nt0 = nan day")], "t0"),
        (
            [("rate = 5 m3/day", "rate = 5 m3/day\nstart = 5 day\nstop = 1 day")],
            "stop time",
        ),
        ([("lx = 60 m", "lx = nan m")], "domain lengths must be finite"),
        ([("ly = 40 m", "ly = inf m")], "domain lengths must be finite"),
        # the anderson window is a constant: the key is unknown, whatever its value
        (
            [("max_iter = 40", "max_iter = 40\nanderson_m0 = -1")],
            "unknown key 'anderson_m0' in section [scheme]: "
            "key 'scheme.anderson_m0': line 29",
        ),
        # subnormal moduli, viscosity and lengths would make an operator singular
        ([("mu = 3.5 GPa", "mu = 1e-320 Pa")], "shear modulus must be positive and at"),
        (
            [("lambda = 4 GPa", "lambda = 1e-310 Pa")],
            "Lame parameter lambda must be positive and at",
        ),
        (
            [("fluid_viscosity = 1 cP", "fluid_viscosity = 1e-315 Pa.s")],
            "fluid viscosity must be positive and at",
        ),
        ([("lz = 20 m", "lz = 1e-310 m")], "domain lengths must be positive and at"),
        # a subnormal step overflows the storage term accumulation / dt
        ([("dt = 10 day", "dt = 1e-320 s")], "time step must be finite, positive and at"),
    ],
    ids=[
        "nan-rate", "nan-rate-lagged", "nan-start", "nan-stop", "zero-rtol",
        "zero-max-iter", "nan-robin-delta", "nan-tol", "nan-t0", "stop-before-start",
        "nan-length", "inf-length", "negative-anderson",
        "subnormal-mu", "subnormal-lambda", "subnormal-viscosity", "subnormal-lz",
        "subnormal-dt",
    ],
)
def test_bad_input_exits_2_without_outputs(tmp_path, capsys, edits, message):
    text = BARRIER_SMALL
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text + f"\n[output]\ndirectory = {tmp_path / 'out'}\n")
    for command in ("run", "barrier"):
        assert main([command, str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and message in err
        assert not (tmp_path / "out").exists()


ALL_FREE = [
    "mechanics = free",
    "mechanics = robin\n" + "\n".join(f"{side} = free" for side in (
        "x_min", "x_max", "y_min", "y_max", "z_min", "z_max"
    )),
]


@pytest.mark.parametrize("walls", ALL_FREE, ids=["default", "every-side"])
@pytest.mark.parametrize("method", ["direct", "iterative"])
def test_all_free_walls_exit_2_without_outputs(tmp_path, capsys, walls, method):
    # no wall holds the solid, so the displacement is fixed only up to a
    # rigid motion, which each solver path used to resolve its own way
    cfg = tmp_path / "free.cfg"
    cfg.write_text(
        BARRIER_SMALL
        + f"\n[boundaries]\n{walls}\n\n[solver]\nmethod = {method}\n"
        + f"\n[output]\ndirectory = {tmp_path / 'out'}\n"
    )
    for command in ("run", "barrier"):
        assert main([command, str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "configuration error: every wall (x_min, x_max, y_min, y_max, " in err
        assert "is traction-free" in err and "key 'boundaries'" in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, kind, method",
    [
        ("run", "lagged", "auto"),
        ("run", "lagged", "iterative"),
        ("run", "fixed", "auto"),
        ("run", "fixed", "iterative"),
        ("barrier", "fixed", "auto"),
    ],
)
def test_overflowing_run_exits_3_naming_the_step(tmp_path, capsys, command, kind, method):
    # a finite but huge rate overflows the first flow step to inf
    text = BARRIER_SMALL.replace("rate = 5 m3/day", "rate = 1e308 m3/s").replace(
        "tol = 1e-8", f"kind = {kind}\ntol = 1e-8"
    )
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(
        text + f"\n[solver]\nmethod = {method}\n\n[output]\ndirectory = {tmp_path / 'out'}\n"
    )
    assert main([command, str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "solver failure: coupled step 1 failed" in err and "not finite" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cell", ["99999", "-1"])
def test_manufactured_well_off_the_mesh_exits_2(tmp_path, capsys, cell):
    # the manufactured case gets its wells when it is built, like any other
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(
        MANUFACTURED_SMALL
        + f"\n[well.bad]\ncell = {cell}\nrate = 1 m3/day\n"
        + f"\n[output]\ndirectory = {tmp_path / 'out'}\n"
    )
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "out of range" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "args, summary, files",
    [
        (["run"], "1 coupling iterations",
         {"small_series.csv", "small_psi.npy", "small_final.vtk"}),
        (["barrier", "--schemes", "lagged,fixed"], "scheme fixed: 1 iterations",
         {"barrier_summary.csv", "barrier_lagged.csv", "barrier_fixed.csv"}),
    ],
)
def test_unconverged_fixed_stress_exits_3(
    barrier_cfg, tmp_path, capsys, args, summary, files
):
    # one fixed-stress pass cannot reach tol = 1e-8 on the coupled case
    barrier_cfg.write_text(
        barrier_cfg.read_text().replace("max_iter = 40", "max_iter = 1")
    )
    out = tmp_path / "capped"
    assert main([args[0], str(barrier_cfg), "--out", str(out), *args[1:]]) == 3
    captured = capsys.readouterr()
    assert summary in captured.out
    assert captured.err.count("solver failure") == 1
    assert (
        "solver failure: fixed coupling not converged after 1 iterations"
        in captured.err
    )
    assert files <= {path.name for path in out.iterdir()}


def test_case_name_outside_the_output_directory_exits_2(tmp_path, capsys):
    # "../escaped" would write escaped_series.csv and the rest next to --out
    cfg = tmp_path / "escape.cfg"
    cfg.write_text(BARRIER_SMALL.replace("name = small", "name = ../escaped"))
    for command in ("run", "barrier"):
        assert main([command, str(cfg), "--out", str(tmp_path / "out" / "run")]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "case.name" in err
    assert [path.name for path in tmp_path.rglob("*")] == ["escape.cfg"]


@pytest.mark.skipif(sys.platform != "linux", reason="C-locale file names are ASCII on Linux")
@pytest.mark.parametrize("key", ["case.name", "output.directory"])
def test_name_the_file_system_cannot_encode_exits_2(tmp_path, key):
    # under the C locale file names are ASCII, so the case file is rejected
    # when parsed, before a study runs that could not write its first file
    text, out = BARRIER_SMALL, tmp_path / "résultats"
    if key == "case.name":
        text, out = text.replace("name = small", "name = café"), tmp_path / "out"
    cfg = tmp_path / "small.cfg"
    cfg.write_bytes(f"{text}\n[output]\ndirectory = {out}\n".encode("utf-8"))
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0"}
    proc = subprocess.run(
        [sys.executable, "-m", "biotfv.app.cli", "run", str(cfg)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2, proc.stderr
    assert "configuration error" in proc.stderr and key in proc.stderr
    assert [path.name for path in tmp_path.iterdir()] == ["small.cfg"]


def test_unwritable_output_exits_4(barrier_cfg, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    assert main(["run", str(barrier_cfg), "--out", str(blocker / "sub")]) == 4
    assert "i/o error" in capsys.readouterr().err


def test_convergence_subcommand(manufactured_cfg, tmp_path, capsys):
    out = tmp_path / "conv"
    assert main(["convergence", str(manufactured_cfg), "--grids", "3,4,5", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "order dp" in stdout
    assert (out / "convergence_errors.csv").exists()
    assert (out / "convergence_orders.csv").exists()


def test_convergence_probe_failure_exits_3(tmp_path, monkeypatch, capsys):
    # the lagged march factors its operator; only the probe iterates, and fails
    monkeypatch.setattr(krylov, "MAX_ITERATIONS", 1)
    cfg = tmp_path / "probe.cfg"
    cfg.write_text(
        MANUFACTURED_SMALL
        + "\n[solver]\nmethod = direct\nrtol = 1e-12\n"
        + f"[output]\ndirectory = {tmp_path / 'out'}\n"
    )
    assert main(["convergence", str(cfg), "--grids", "3,4,5"]) == 3
    err = capsys.readouterr().err
    assert "solver failure: convergence probe on the 3^3 grid failed: " in err
    assert not (tmp_path / "out").exists()


def test_convergence_rejects_two_grids(manufactured_cfg):
    assert main(["convergence", str(manufactured_cfg), "--grids", "4,8"]) == 2


def test_convergence_rejects_a_repeated_grid(tmp_path, capsys):
    # grid 5 would be solved twice, written twice and weigh twice in the fit
    cfg = tmp_path / "conv.cfg"
    cfg.write_text(MANUFACTURED_SMALL + f"\n[output]\ndirectory = {tmp_path / 'out'}\n")
    assert main(["convergence", str(cfg), "--grids", "3,4,5,5"]) == 2
    assert "grid size listed twice: 5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        ("\n[well.w]\ncell = 0\nrate = 1e-3 m3/s\n", "takes no wells"),
        ("\n[boundaries]\nmechanics = free\n", "fixed mechanics on every wall"),
        ("\n[boundaries]\nz_max = robin\n", "fixed mechanics on every wall"),
    ],
    ids=["well", "free-walls", "robin-side"],
)
def test_convergence_rejects_what_the_closed_form_lacks(
    tmp_path, capsys, extra, message
):
    # the manufactured solution holds only without wells and with clamped walls
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(
        MANUFACTURED_SMALL + extra + f"\n[output]\ndirectory = {tmp_path / 'out'}\n"
    )
    assert main(["convergence", str(cfg), "--grids", "3,4,5"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err
    assert not (tmp_path / "out").exists()


def test_barrier_subcommand(barrier_cfg, tmp_path, capsys):
    out = tmp_path / "bar"
    assert (
        main(["barrier", str(barrier_cfg), "--schemes", "lagged,fixed", "--out", str(out)])
        == 0
    )
    stdout = capsys.readouterr().out
    assert "scheme lagged" in stdout and "scheme fixed" in stdout
    assert (out / "barrier_summary.csv").exists()
    assert (out / "barrier_lagged.csv").exists()
    assert (out / "barrier_fixed.csv").exists()


def test_barrier_rejects_unknown_scheme(barrier_cfg, tmp_path, capsys):
    # a valid scheme listed first must not run before the bad one is seen
    assert main(["barrier", str(barrier_cfg), "--schemes", "lagged,psychic"]) == 2
    assert UNKNOWN_PSYCHIC in capsys.readouterr().err
    assert not list(tmp_path.rglob("barrier_*"))


UNKNOWN_PSYCHIC = "unknown scheme 'psychic' (one of lagged, fixed, anderson)"


@pytest.mark.parametrize("command", ["run", "barrier"])
def test_case_file_rejects_unknown_scheme_as_the_cli_does(barrier_cfg, capsys, command):
    # one message for an unknown scheme, from the case file as from --schemes
    text = barrier_cfg.read_text().replace("tol = 1e-8", "kind = psychic\ntol = 1e-8")
    barrier_cfg.write_text(text)
    line = text.splitlines().index("kind = psychic") + 1
    assert main([command, str(barrier_cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{UNKNOWN_PSYCHIC}: key 'scheme.kind': line {line}" in err
    assert not (barrier_cfg.parent / "out").exists()


def test_fixed_stress_is_no_scheme_name(barrier_cfg, tmp_path, capsys):
    # one name per scheme: the fixed-stress split is `fixed`, nothing else
    assert main(["barrier", str(barrier_cfg), "--schemes", "fixed,fixed_stress"]) == 2
    err = capsys.readouterr().err
    assert "unknown scheme 'fixed_stress' (one of lagged, fixed, anderson)" in err
    assert not (tmp_path / "out").exists()


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", ["lagged", "fixed", "anderson"])
def test_one_name_means_one_scheme(barrier_cfg, tmp_path, capsys, kind):
    # `kind = X` in the case file and `--schemes X` run the same scheme
    text = barrier_cfg.read_text().replace("tol = 1e-8", f"kind = {kind}\ntol = 1e-8")
    barrier_cfg.write_text(text)
    run, bar = tmp_path / "run", tmp_path / "bar"
    assert main(["run", str(barrier_cfg), "--out", str(run)]) == 0
    assert f"scheme {kind}, " in capsys.readouterr().out
    assert main(["barrier", str(barrier_cfg), "--schemes", kind, "--out", str(bar)]) == 0
    assert f"scheme {kind}: " in capsys.readouterr().out
    psi = np.load(run / "small_psi.npy")
    assert _same_bits(psi, np.load(bar / f"barrier_{kind}_psi.npy"))
    _, fields = read_vtk(run / "small_final.vtk")
    _, bar_fields = read_vtk(bar / f"barrier_{kind}_final.vtk")
    assert list(fields) == list(bar_fields)
    for keyword, values in fields.items():
        if values is None:  # CELL_DATA
            assert bar_fields[keyword] is None
        else:
            assert _same_bits(values, bar_fields[keyword]), keyword


def test_case_named_after_its_file_gets_the_name_check(tmp_path, capsys):
    # with no [case] name the file name names the output files, so a file
    # name of two lines is rejected when parsed, as `name = two\nlines` is
    cfg = tmp_path / "two\nlines.cfg"
    cfg.write_text(
        BARRIER_SMALL.replace("name = small", "")
        + f"\n[output]\ndirectory = {tmp_path / 'out'}\n"
    )
    for command in ("run", "barrier"):
        assert main([command, str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "case.name 'two\\nlines' must be a single path component" in err
    assert [path.name for path in tmp_path.iterdir()] == [cfg.name]


def test_barrier_names_files_after_the_normalized_scheme(barrier_cfg, tmp_path):
    out = tmp_path / "bar"
    args = ["barrier", str(barrier_cfg), "--schemes", "lagged, Fixed", "--out", str(out)]
    assert main(args) == 0
    assert sorted(p.name for p in out.glob("barrier_fixed*")) == [
        "barrier_fixed.csv",
        "barrier_fixed_final.vtk",
        "barrier_fixed_psi.npy",
    ]
    _, rows = read_csv(out / "barrier_summary.csv")
    assert [row[0] for row in rows] == ["lagged", "fixed"]


@pytest.mark.parametrize(
    "schemes, repeated",
    [
        pytest.param("fixed,fixed", "fixed", id="fixed,fixed"),
        pytest.param("lagged, FIXED ,fixed", "fixed", id="lagged, FIXED ,fixed"),
    ],
)
def test_barrier_rejects_a_repeated_scheme(
    barrier_cfg, tmp_path, capsys, schemes, repeated
):
    assert main(["barrier", str(barrier_cfg), "--schemes", schemes]) == 2
    assert f"scheme listed twice: {repeated}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("schemes", ["", " , "])
def test_barrier_rejects_empty_scheme_list(barrier_cfg, tmp_path, capsys, schemes):
    assert main(["barrier", str(barrier_cfg), "--schemes", schemes]) == 2
    assert "at least one scheme" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_module_invocation_round_trip(barrier_cfg, tmp_path):
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "biotfv.app.cli",
            "run",
            str(barrier_cfg),
            "--out",
            str(tmp_path / "sub"),
            "--log-level",
            "warning",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sub" / "small_series.csv").exists()

"""Command-line interface: subcommands, exit codes, deterministic output."""

import subprocess
import sys
from pathlib import Path

import pytest
from scipy.io import mmread

from biotfv import tpsa
from biotfv.app import cli
from biotfv.app.cli import main
from biotfv.errors import GeometryError

CASES = Path(__file__).resolve().parent.parent / "cases"

BARRIER_SMALL = """
[case]
name = small

[mesh]
builder = barrier
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
    for name in ("small_series.csv", "small_psi.csv", "small_final.vtk"):
        assert (tmp_path / "out" / name).exists()


def test_run_dump_matrix(barrier_cfg, tmp_path):
    assert main(["run", str(barrier_cfg), "--dump-matrix"]) == 0
    assert (tmp_path / "out" / "small_mech.mtx").exists()


def test_run_dump_matrix_assembles_once(barrier_cfg, tmp_path, monkeypatch):
    original = tpsa.assemble_tpsa
    built = []

    def spy(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    for module in [m for k, m in sys.modules.items() if k.startswith("biotfv")]:
        if getattr(module, "assemble_tpsa", None) is original:
            monkeypatch.setattr(module, "assemble_tpsa", spy)
    assert main(["run", str(barrier_cfg), "--dump-matrix"]) == 0
    assert len(built) == 1
    dumped = mmread(tmp_path / "out" / "small_mech.mtx")
    assert (dumped != built[0].matrix).nnz == 0


def test_run_is_deterministic(barrier_cfg, tmp_path):
    assert main(["run", str(barrier_cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["run", str(barrier_cfg), "--out", str(tmp_path / "b")]) == 0
    for name in ("small_series.csv", "small_psi.csv", "small_final.vtk"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.cfg")]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_invalid_config_exits_2(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(BARRIER_SMALL + "\n[solver]\nwarp_factor = 9\n")
    assert main(["run", str(bad)]) == 2


def test_bad_cli_overrides_exit_2(barrier_cfg):
    assert main(["run", str(barrier_cfg), "--rtol", "-1"]) == 2
    assert main(["run", str(barrier_cfg), "--max-iter", "0"]) == 2
    assert main(["convergence", str(barrier_cfg), "--grids", "a,b,c"]) == 2


def test_solver_failure_exits_3(tmp_path, capsys):
    cfg = tmp_path / "hard.cfg"
    cfg.write_text(
        BARRIER_SMALL
        + f"\n[solver]\nmethod = iterative\n[output]\ndirectory = {tmp_path / 'o'}\n"
    )
    assert main(["run", str(cfg), "--max-iter", "1"]) == 3
    assert "solver failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new, operator",
    [
        ("mu = 3.5 GPa", "mu = 1e-320 Pa", "elastic (TPSA) factorization failed"),
        ("lz = 20 m", "lz = 1e-310 m", "flow (TPFA) factorization failed"),
    ],
    ids=["subnormal-mu", "subnormal-lz"],
)
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_singular_factorization_exits_3(tmp_path, capsys, old, new, operator):
    # both inputs pass validation; SuperLU then finds an exactly zero pivot
    cfg = tmp_path / "singular.cfg"
    cfg.write_text(
        BARRIER_SMALL.replace(old, new) + f"\n[output]\ndirectory = {tmp_path / 'o'}\n"
    )
    for command in ("run", "barrier"):
        assert main([command, str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "solver failure" in err and operator in err


def test_other_package_error_exits_2(barrier_cfg, monkeypatch, capsys):
    def broken(*_args, **_kwargs):
        raise GeometryError("degenerate face")

    monkeypatch.setattr(cli, "run_case", broken)
    assert main(["run", str(barrier_cfg)]) == 2
    assert "invalid input: degenerate face" in capsys.readouterr().err


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
        ([("lx = 60 m", "lx = nan m")], "lengths and origin must be finite"),
        ([("ly = 40 m", "ly = inf m")], "lengths and origin must be finite"),
        ([("max_iter = 40", "max_iter = 40\nanderson_m0 = -1")], "anderson_m0"),
    ],
    ids=[
        "nan-rate", "nan-rate-lagged", "nan-start", "nan-stop", "zero-rtol",
        "zero-max-iter", "nan-robin-delta", "nan-tol", "nan-t0", "stop-before-start",
        "nan-length", "inf-length", "negative-anderson",
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
         {"small_series.csv", "small_psi.csv", "small_final.vtk"}),
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
        "solver failure: fixed_stress coupling not converged after 1 iterations"
        in captured.err
    )
    assert files <= {path.name for path in out.iterdir()}


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


def test_convergence_rejects_two_grids(manufactured_cfg):
    assert main(["convergence", str(manufactured_cfg), "--grids", "4,8"]) == 2


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
    assert "unknown scheme 'psychic'" in capsys.readouterr().err
    assert not list(tmp_path.rglob("barrier_*"))


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

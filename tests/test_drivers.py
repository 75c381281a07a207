"""Experiment drivers: scheme dispatch, error fitting, study outputs."""

import logging
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from compare_outputs import barrier_copy, barrier_grid, solver_method, time_steps
from oracles import assert_same_final, assert_same_history, coupled_probe, read_csv

from biotfv import coupling
from biotfv.app import drivers
from biotfv.app.config import parse_config, parse_config_text
from biotfv.app.cli import main
from biotfv.app.drivers import (
    VARIABLES,
    ErrorReport,
    compartment_masks,
    fit_orders,
    relative_l2,
    run_barrier_case,
    run_case,
    run_convergence_study,
)
from biotfv.coupling import (
    SCHEME_KINDS,
    CoupledSystem,
    SchemeSpec,
    SharedOperators,
    simulate,
)
from biotfv.errors import ConfigurationError, SolverError
from biotfv.linsolve import krylov
from biotfv.linsolve.precond import TpsaSolver
from biotfv.mesh import build_cartesian
from biotfv.tpfa import FlowSystem
from pathlib import Path

CASES = Path(__file__).resolve().parent.parent / "cases"

TINY_BARRIER = """
[case]
name = tiny

[mesh]
nx = 6
ny = 4
nz = 2
lx = 60 m
ly = 40 m
lz = 20 m
barrier_axis = x
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
kind = fixed
tol = 1e-8
max_iter = 40

[output]
directory = unused

[well.w]
cell = 1 2 1
rate = 5 m3/day
stop = 20 day
"""

def test_scheme_token_mapping(tmp_path, monkeypatch):
    # each name runs the case's [scheme] settings as that kind, every one
    # through simulate with the study's shared head, which lagged ignores.
    # Fixed and anderson run first, in their listed
    # order, and lagged after them; the runs and the summary rows keep the
    # listed order
    seen = []

    def spy(engine, scheme, head=None):
        seen.append((scheme, head))
        return simulate(engine, scheme, head)

    monkeypatch.setattr(drivers, "simulate", spy)
    cfg = parse_config_text(TINY_BARRIER.replace("tol = 1e-8", "tol = 1e-7"))
    runs = run_barrier_case(cfg, (" Lagged", "FIXED ", "anderson"), out_dir=tmp_path)
    assert [scheme for scheme, _ in seen] == [
        SchemeSpec(kind=kind, tol=1e-7, max_iter=40) for kind in ("fixed", "anderson", "lagged")
    ]
    heads = [head for _, head in seen]
    assert isinstance(heads[0], coupling.SharedHead) and heads[2] is heads[1] is heads[0]
    assert [run.scheme for run in runs] == list(SCHEME_KINDS)
    assert [run.result.report.scheme for run in runs] == list(SCHEME_KINDS)
    _, rows = read_csv(tmp_path / "barrier_summary.csv")
    assert [row[0] for row in rows] == list(SCHEME_KINDS)
    seen.clear()
    with pytest.raises(ConfigurationError, match="unknown scheme 'monolithic'"):
        run_barrier_case(cfg, ("lagged", "monolithic"), out_dir=tmp_path / "bad")
    assert seen == [] and not (tmp_path / "bad").exists()


def _barrier_8(method="auto", tol="1e-6", max_iter="25"):
    """The shipped barrier case on 8 x 8 x 3 cells."""
    stops = [("tol = 1e-6", f"tol = {tol}"), ("max_iter = 25", f"max_iter = {max_iter}")]
    return barrier_copy(barrier_grid(8) + solver_method(method) + stops)


def _bits(array) -> bytes:
    return np.ascontiguousarray(array).tobytes()


# residuals on 8 x 8 x 3, both schemes alike for 3 passes: LU 1, 1.3e-3,
# 1.7e-6, then fixed 2.2e-9 and anderson 1.6e-10; Krylov 1, 1.8e-3,
# 8.8e-4, then fixed 3.7e-6, 3.0e-8 and anderson 2.0e-4, 2.2e-7
STOPS = {
    "shipped": {},
    "converged_in_shared_passes": {"tol": "1e-2"},
    "capped_at_2_passes": {"max_iter": "2"},
}


@pytest.mark.parametrize("stop", list(STOPS))
@pytest.mark.parametrize("method", ["direct", "iterative"])
def test_study_runs_equal_standalone_runs_bitwise(tmp_path, method, stop):
    # the study shares fixed's and anderson's first passes, and on the
    # Krylov path one elastic solver; each run must still be the one
    # simulate gives that scheme alone, so criterion 6's equal heads stay a
    # property of the schemes, not of the sharing, and a solver carries
    # nothing of one run into the next
    cfg = parse_config_text(_barrier_8(method, **STOPS[stop]))
    case = cfg.build_case()
    alone = {
        kind: simulate(CoupledSystem(case, cfg.solver), replace(cfg.scheme, kind=kind))
        for kind in SCHEME_KINDS
    }
    passes = alone["anderson"].report.iterations
    assert passes == {"shipped": 4 if method == "direct" else 5}.get(stop, 2)
    orders = [
        ("fixed", "anderson"),
        ("anderson", "fixed"),
        ("anderson",),
        ("lagged", "fixed", "anderson"),  # fixed and anderson reuse lagged's solver
    ]
    for schemes in orders:
        runs = run_barrier_case(cfg, schemes, out_dir=tmp_path / "_".join(schemes))
        for run in runs:
            got, want = run.result, alone[run.scheme]
            assert got.report.residuals == want.report.residuals
            assert got.report.converged == want.report.converged
            assert got.report.converged == (stop != "capped_at_2_passes" or run.scheme == "lagged")
            # bitwise psi pins every step's p_hat increment, which the
            # trimmed interior states no longer hold
            assert _bits(got.psi) == _bits(want.psi)
            assert len(got.states) == len(want.states)
            for a, b in zip(got.states, want.states):
                assert a.t == b.t
                assert _bits(a.dp) == _bits(b.dp)
            for a, b in [(got.states[0], want.states[0]), (got.final, want.final)]:
                assert all(_bits(getattr(a, v)) == _bits(getattr(b, v)) for v in VARIABLES)
            assert all(s.u is s.r is s.p_hat is None for s in got.states[1:-1])


def test_cli_exits_3_when_the_shared_passes_stop_on_the_cap(tmp_path):
    cfg = tmp_path / "capped.cfg"
    cfg.write_text(_barrier_8(max_iter="2"))
    for schemes in ("fixed,anderson", "anderson,fixed"):
        out = tmp_path / schemes.replace(",", "_")
        assert main(["barrier", str(cfg), "--schemes", schemes, "--out", str(out)]) == 3
        header, rows = read_csv(out / "barrier_summary.csv")
        assert header[:3] == ["scheme", "iterations", "converged"]
        assert [row[1:3] for row in rows] == [["2", "0"]] * 2


def test_a_three_scheme_study_marches_the_shared_passes_once(tmp_path, monkeypatch):
    # one lagged march, every fixed pass, and anderson's passes after the
    # three it shares with fixed; before the sharing, anderson marched all
    # of its passes
    marches = []
    evaluate = CoupledSystem.evaluate

    def spy(engine, psi, block=None):
        marches.append(psi is None)
        return evaluate(engine, psi, block)

    monkeypatch.setattr(CoupledSystem, "evaluate", spy)
    cfg = parse_config_text(_barrier_8("iterative"))
    runs = {run.scheme: run for run in run_barrier_case(cfg, SCHEME_KINDS, tmp_path)}
    fixed, anderson = (runs[kind].result.report.iterations for kind in ("fixed", "anderson"))
    assert anderson > 3
    assert len(marches) == 1 + fixed + (anderson - 3)
    assert marches.count(True) == 1  # the lagged march alone has no given source


@pytest.mark.parametrize("method", ["direct", "iterative"])
def test_a_study_builds_one_flow_and_one_assembly(tmp_path, monkeypatch, method):
    # the schemes share the flow system and the assembled elastic operator,
    # and on the Krylov path the elastic solver too; each scheme's engine
    # still factors its own LU.  The study drops the assembly once no later
    # engine reads it: after the first engine on the Krylov path, once the
    # last engine is built on the LU path
    built, engines, assembled, assemblies = [], [], [], []

    def counted(name, build):
        def spy(*args, **kwargs):
            built.append(name)
            return build(*args, **kwargs)

        return spy

    init = CoupledSystem.__init__

    def kept(engine, case, solver, shared):
        engines.append(engine)
        assembled.append(shared.elastic is not None)
        init(engine, case, solver, shared)
        if shared.elastic is not None:
            assemblies.append(weakref.ref(shared.elastic))

    monkeypatch.setattr(FlowSystem, "__init__", counted("flow", FlowSystem.__init__))
    monkeypatch.setattr(TpsaSolver, "__init__", counted("solver", TpsaSolver.__init__))
    monkeypatch.setattr(coupling, "assemble_tpsa", counted("assembly", coupling.assemble_tpsa))
    monkeypatch.setattr(CoupledSystem, "__init__", kept)
    cfg = parse_config_text(_barrier_8(method))
    runs = run_barrier_case(cfg, SCHEME_KINDS, tmp_path)
    assert [run.result.report.converged for run in runs] == [True] * 3
    solvers = 3 if method == "direct" else 1
    assert built == ["flow", "assembly"] + ["solver"] * solvers
    assert len(engines) == 3 and len({id(engine.mech) for engine in engines}) == solvers
    assert assembled == [False] + [method == "direct"] * 2
    # the dropped assembly is freed: no engine keeps it
    assert assemblies and all(assembly() is None for assembly in assemblies)
    # a holder filled for one case and solver options serves no other
    case = cfg.build_case()
    shared = SharedOperators()
    CoupledSystem(case, cfg.solver, shared)
    other = replace(cfg.solver, method="iterative" if method == "direct" else "direct")
    tighter = replace(cfg.solver, rtol=1e-8)
    assert cfg.solver.rtol == 1e-5
    built.clear()
    for wrong_case, solver in [(cfg.build_case(), cfg.solver), (case, other), (case, tighter)]:
        with pytest.raises(ValueError, match="another case or solver options"):
            CoupledSystem(wrong_case, solver, shared)
    assert built == []


# tracemalloc peak of the Krylov 12 x 12 x 3 barrier study at 48 steps
# with lagged listed first, above the peak without it, in doubles per
# cell-step.  Measured at one BLAS thread: -0.05, since lagged runs after
# fixed stress and its block never meets fixed's two; 2.25 when lagged ran
# first and its trimmed result (its dp and psi, 2, and a copy of its final
# state) was live at fixed's peak, 9.2 when every finished run kept its
# whole result, (7n, N) elastic block included.
FINISHED_RUN_BUDGET = 0.25


def test_a_finished_scheme_keeps_only_what_its_readers_need(tmp_path):
    grid = barrier_grid(12) + time_steps("15 day", 48) + solver_method("iterative")
    cfg = parse_config_text(barrier_copy(grid))
    case = cfg.build_case()
    cell_steps = case.mesh.n_cells * case.time.n_steps
    run_barrier_case(cfg, ("fixed", "anderson"), tmp_path / "warm")
    peaks = []
    for schemes in [("fixed", "anderson"), ("lagged", "fixed", "anderson")]:
        tracemalloc.start()
        try:
            runs = run_barrier_case(cfg, schemes, tmp_path / "_".join(schemes))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert all(run.result.report.converged for run in runs)
    gap = (peaks[1] - peaks[0]) / 8 / cell_steps
    assert gap <= FINISHED_RUN_BUDGET, gap


@pytest.mark.parametrize("first, second", [("fixed", "anderson"), ("anderson", "fixed")])
def test_the_resuming_scheme_logs_the_passes_it_took(tmp_path, caplog, first, second):
    cfg = parse_config_text(_barrier_8("direct"))
    with caplog.at_level(logging.INFO, logger="biotfv"):
        run_barrier_case(cfg, (first, second), out_dir=tmp_path)
    assert f"scheme {second}: passes 1-3 taken from {first}" in caplog.messages
    assert not any(f"scheme {first}: pass" in message for message in caplog.messages)


@pytest.mark.parametrize(
    "method, iterations",
    # the Krylov copy reads as the shipped 30 x 30 x 3 study (29, 16, 0, 0,
    # 0 and 29): fixed stress's passes 3 and 4 and anderson's own pass 4
    # solve nothing, and lagged marches once; the LU path logs no march
    [("iterative", [27, 17, 0, 0, 0, 27]), ("direct", [])],
)
def test_each_krylov_march_logs_its_iterations(tmp_path, caplog, method, iterations):
    cfg = parse_config_text(barrier_copy(barrier_grid(6, nz=2) + solver_method(method)))
    with caplog.at_level(logging.INFO, logger="biotfv"):
        run_barrier_case(cfg, SCHEME_KINDS, out_dir=tmp_path)
    marches = [message for message in caplog.messages if message.startswith("march of ")]
    assert marches == [f"march of 24 steps: {n} Krylov iterations" for n in iterations]


def test_relative_l2_values():
    mesh = build_cartesian(2, 1, 1)
    exact = np.array([1.0, 1.0])
    assert relative_l2(mesh, np.array([1.1, 0.9]), exact) == pytest.approx(0.1)
    # zero exact field falls back to the absolute norm
    assert relative_l2(mesh, np.array([1.0, 1.0]), np.zeros(2)) == pytest.approx(1.0)
    vec = np.ones((2, 3))
    assert relative_l2(mesh, vec, vec) == 0.0


def test_fit_orders_recovers_exact_power():
    reports = [
        ErrorReport(
            n=n,
            h=1.0 / n,
            n_cells=n**3,
            errors={"dp": (1.0 / n) ** 2, "u": 3 * (1.0 / n) ** 2,
                    "r": (1.0 / n) ** 1.5, "p_hat": (1.0 / n) ** 2},
            probe_iterations=0,
            probe_trace=[],
        )
        for n in (4, 8, 16)
    ]
    orders = fit_orders(reports)
    assert orders["dp"] == pytest.approx(2.0, abs=1e-12)
    assert orders["u"] == pytest.approx(2.0, abs=1e-12)
    assert orders["r"] == pytest.approx(1.5, abs=1e-12)


def test_convergence_study_validates_inputs():
    cfg = parse_config(CASES / "manufactured.cfg")
    with pytest.raises(ConfigurationError, match="at least 3 grids"):
        run_convergence_study(cfg, [4, 8])
    with pytest.raises(ConfigurationError, match="distinct sizes"):
        run_convergence_study(cfg, [3, 3, 3])
    generic = parse_config_text(TINY_BARRIER)
    with pytest.raises(ConfigurationError, match="manufactured"):
        run_convergence_study(generic, [4, 6, 8])


def test_convergence_study_halving_ratio_and_outputs(tmp_path):
    cfg = parse_config(CASES / "manufactured.cfg")
    study = run_convergence_study(cfg, [4, 6, 8], out_dir=tmp_path)
    by_n = {r.n: r for r in study.reports}
    ratio = by_n[4].errors["dp"] / by_n[8].errors["dp"]
    assert 3.0 <= ratio <= 5.5  # near 4 for a second-order scheme
    assert all(r.probe_iterations > 0 for r in study.reports)
    assert set(study.orders) == {"dp", "u", "r", "p_hat"}
    for name in (
        "convergence_errors.csv",
        "convergence_orders.csv",
        "convergence_iterations.csv",
    ):
        assert (tmp_path / name).exists()
    lines = (tmp_path / "convergence_errors.csv").read_text().splitlines()
    assert lines[0] == "n,h,n_cells,err_dp,err_u,err_r,err_p_hat"
    assert len(lines) == 4


def test_convergence_study_builds_one_flow_system_per_grid(tmp_path, monkeypatch):
    # the probe solves only the mechanics: its engine has no flow factorization
    built = []

    class CountedFlow(coupling.FlowSystem):
        def __init__(self, mesh, *args, **kwargs):
            built.append(mesh.n_cells)
            super().__init__(mesh, *args, **kwargs)

    monkeypatch.setattr(coupling, "FlowSystem", CountedFlow)
    run_convergence_study(parse_config(CASES / "manufactured.cfg"), [3, 4, 5], tmp_path)
    assert built == [27, 64, 125]


def test_convergence_probe_matches_a_probe_on_a_coupled_engine(tmp_path):
    cfg = parse_config(CASES / "manufactured.cfg")
    study = run_convergence_study(cfg, [3, 4, 5], out_dir=tmp_path)
    lagged = replace(cfg.scheme, kind="lagged")
    for report in study.reports:
        n = report.n
        case = cfg.build_case(mesh=build_cartesian(n, n, n))
        final = simulate(CoupledSystem(case, cfg.solver), lagged).final
        want = coupled_probe(case, cfg.solver, final.dp)
        assert report.probe_iterations == want.iterations > 0
        assert report.probe_trace == list(want.trace)


def test_each_grids_march_starts_cold_and_takes_the_probe_iterations(tmp_path, monkeypatch):
    # step 1 of each grid's lagged march is the probe's kind of solve, a
    # Krylov solve of the same operator from zero, and takes its iteration
    # count, so the march's step 1 can stand in for the probe only while no
    # start is given to it
    solves = []
    solve = TpsaSolver.solve

    def spy(solver, rhs, x0=None):
        report = solve(solver, rhs, x0)
        solves.append((solver, x0 is None, report.iterations))
        return report

    monkeypatch.setattr(TpsaSolver, "solve", spy)
    cfg = parse_config(CASES / "manufactured.cfg")
    cfg.time = replace(cfg.time, dt=25 * cfg.time.dt, n_steps=2)
    study = run_convergence_study(cfg, [4, 6, 8], out_dir=tmp_path)
    assert len(solves) == 3 * len(study.reports)  # two march steps and the probe per grid
    for k, report in enumerate(study.reports):
        (march, cold, iterations), (again, _, _), (probe, _, probed) = solves[3 * k : 3 * k + 3]
        assert again is march and probe is not march
        assert cold and iterations == probed == report.probe_iterations > 0


def test_convergence_probe_failure_names_the_probe(monkeypatch):
    # the lagged march factors its operator; only the probe iterates
    monkeypatch.setattr(krylov, "MAX_ITERATIONS", 1)
    cfg = parse_config(CASES / "manufactured.cfg")
    cfg.solver = replace(cfg.solver, method="direct")
    failed = r"^convergence probe on the 3\^3 grid failed: "
    with pytest.raises(SolverError, match=failed) as err:
        run_convergence_study(cfg, [3, 4, 5], out_dir="unused")
    assert "coupled step" not in str(err.value)
    assert len(err.value.trace) == 2  # the start and the one iteration allowed


def test_barrier_case_runs_and_reports(tmp_path):
    cfg = parse_config_text(TINY_BARRIER)
    runs = run_barrier_case(cfg, schemes=("lagged", "fixed"), out_dir=tmp_path)
    assert [r.scheme for r in runs] == ["lagged", "fixed"]
    engine = CoupledSystem(cfg.build_case(), cfg.solver)
    assert engine.drained
    for run in runs:
        # pressurized compartment and coupling-pressurized sealed compartment
        assert run.avg_dp_omega1[-1] > 0
        assert run.avg_dp_omega2[-1] > 0
        assert run.avg_dp_omega1[-1] > run.avg_dp_omega2[-1]
        assert (tmp_path / f"barrier_{run.scheme}.csv").exists()
        vtk_path = tmp_path / f"barrier_{run.scheme}_final.vtk"
        assert_same_final(vtk_path, run.result.final)
        psi_path = tmp_path / f"barrier_{run.scheme}_psi.npy"
        assert_same_history(psi_path, run.result.psi, cfg)
        # the physical coupling source, not the drained flow's source, from
        # a standalone run: the study's interior states hold no p_hat
        states = simulate(engine, replace(cfg.scheme, kind=run.scheme)).states
        if run.scheme == "lagged":
            states = states[:1] + states[:-1]
        physical = [engine.coupling_source(a, b) for a, b in zip(states, states[1:])]
        assert np.array_equal(np.load(psi_path), np.stack(physical))
    lagged, fixed = runs
    assert fixed.mass_defect < 1e-8
    # the drained flow takes the Biot storage from the two steps before, so
    # the lagged source history nearly telescopes too
    assert lagged.mass_defect < 1e-8
    assert (tmp_path / "barrier_summary.csv").exists()


def test_lagged_barrier_defect_shows_its_splitting_error(tmp_path):
    # at c0 = 1e-10 (tau = 1.2) the flow holds the Biot storage and the
    # lagged source history does not telescope: its defect stays visible
    text = TINY_BARRIER.replace("c0 = 1e-8 1/Pa", "c0 = 1e-10 1/Pa")
    text = text.replace("max_iter = 40", "max_iter = 60")
    cfg = parse_config_text(text)
    assert not CoupledSystem(cfg.build_case(), cfg.solver).drained
    lagged, fixed = run_barrier_case(cfg, schemes=("lagged", "fixed"), out_dir=tmp_path)
    assert fixed.result.report.converged
    assert lagged.mass_defect > fixed.mass_defect


ROBIN_AND_FREE = """
[boundaries]
mechanics = robin
robin_delta = 10 m
robin_mu = 1 GPa
z_max = free
"""


def test_barrier_mass_defect_balances_fluid_content_on_every_wall_set(tmp_path):
    # volume crosses Robin and traction-free walls, the fluid content does not
    case = parse_config_text(TINY_BARRIER).build_case()
    injected = 0.0
    for rates in case.sources:  # step by step, as global_mass_check sums
        injected += case.time.dt * rates.sum()
    alpha, alpha_over_lam = case.props.alpha, case.props.alpha / case.props.lam
    for walls, extra in (("fixed", ""), ("robin", ROBIN_AND_FREE)):
        cfg = parse_config_text(TINY_BARRIER + extra)
        out = tmp_path / walls
        runs = run_barrier_case(cfg, ("lagged", "fixed"), out_dir=out)
        header, rows = read_csv(out / "barrier_summary.csv")
        column = header.index("mass_defect")
        assert [row[column] for row in rows] == [str(run.mass_defect) for run in runs]
        for run in runs:
            first, last = run.result.states[0], run.result.states[-1]
            dp, p_hat = last.dp - first.dp, last.p_hat - first.p_hat
            content = case.props.c0 * dp + alpha_over_lam * (p_hat + alpha * dp)
            stored = np.sum(case.mesh.cell_volumes * content)
            assert run.mass_defect == abs(stored - injected) / abs(injected)
        assert runs[1].result.report.converged
        assert runs[1].mass_defect < 1e-8, walls


def test_compartment_masks_requires_two_components():
    cfg = parse_config_text(TINY_BARRIER)
    case = cfg.build_case()
    m1, m2 = compartment_masks(case)
    assert m1.sum() == 3 * 4 * 2  # cell layers on the well side of the x split
    assert m1[case.wells[0].cell]
    assert not np.any(m1 & m2)
    cfg.mesh.barrier_axis = cfg.mesh.barrier_index = None
    needs = "two flow compartments: set \\[mesh\\] barrier_index"
    with pytest.raises(ConfigurationError, match=needs):
        compartment_masks(cfg.build_case())


def test_run_case_writes_artifacts(tmp_path):
    cfg = parse_config_text(TINY_BARRIER)
    artifacts = run_case(cfg, out_dir=tmp_path, dump_system=True)
    names = {p.name for p in artifacts.paths}
    assert names == {
        "tiny_series.csv",
        "tiny_psi.npy",
        "tiny_final.vtk",
        "tiny_mech.mtx",
    }
    for p in artifacts.paths:
        assert p.exists()
    assert artifacts.mass_defect < 1e-8
    assert_same_history(tmp_path / "tiny_psi.npy", artifacts.result.psi, cfg)
    assert_same_final(tmp_path / "tiny_final.vtk", artifacts.result.final)
    lines = (tmp_path / "tiny_series.csv").read_text().splitlines()
    assert lines[0] == "step,time,mean_dp,min_dp,max_dp,mean_p_hat"
    assert len(lines) == 2 + cfg.time.n_steps  # header + initial + steps

"""End-to-end acceptance checks, one test per headline requirement.

Each criterion test computes its verdict first and prints a single
"criterion N: PASS/FAIL" line with the measured numbers (visible with
pytest -s/-rA, or in the captured output on failure), then asserts.
The last two tests gate the shipped barrier study: every file it writes
read back against its runs, and the elastic solver path it takes.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from biotfv.app.config import parse_config
from biotfv.app.drivers import run_barrier_case, run_convergence_study
from biotfv.coupling import CoupledSystem
from biotfv.linsolve.precond import DIRECT_THRESHOLD, SolverOptions, TpsaSolver
from biotfv.mesh import build_cartesian
from biotfv.tpsa import assemble_rhs, assemble_tpsa, mean_shear_modulus
from oracles import (
    VTK_FIELDS,
    assert_same_final,
    assert_same_history,
    hand_assembled_two_cell,
    material,
    read_csv,
    read_vtk,
)

CASES = Path(__file__).resolve().parent.parent / "cases"
VARIABLES = ("dp", "u", "r", "p_hat")


def _criterion(num: int, passed: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if passed else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    config = parse_config(CASES / "manufactured.cfg")
    out = tmp_path_factory.mktemp("convergence")
    return run_convergence_study(config, (8, 12, 16, 24), out_dir=out)


@pytest.fixture(scope="module")
def barrier_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("barrier")


@pytest.fixture(scope="module")
def barrier_runs(barrier_dir):
    config = parse_config(CASES / "barrier.cfg")
    runs = run_barrier_case(
        config, schemes=("lagged", "fixed", "anderson"), out_dir=barrier_dir
    )
    return {run.scheme: run for run in runs}


@pytest.fixture(scope="module")
def barrier_alpha_zero(tmp_path_factory):
    config = parse_config(CASES / "barrier.cfg")
    config.props = replace(config.props, alpha=0.0)
    out = tmp_path_factory.mktemp("barrier_alpha0")
    (run,) = run_barrier_case(config, schemes=("fixed",), out_dir=out)
    return run


def test_criterion_1_manufactured_solution_convergence_orders(study):
    # unit cube, grids 8/12/16/24 per direction, 50 steps of 50 days:
    # fitted L2 orders of all four fields at least 1.8, well under the
    # ten-minute budget
    orders = study.orders
    ok = all(orders[v] >= 1.8 for v in VARIABLES) and study.elapsed <= 600.0
    detail = (
        ", ".join(f"order {v} {orders[v]:.3f}" for v in VARIABLES)
        + f", runtime {study.elapsed:.1f} s"
    )
    _criterion(1, ok, detail)
    assert [r.n for r in study.reports] == [8, 12, 16, 24]
    for var in VARIABLES:
        assert orders[var] >= 1.8, (var, orders[var])
    assert study.elapsed <= 600.0


def test_criterion_2_rigid_translation_is_force_free_on_free_boundaries():
    # with every boundary traction-free, a constant displacement must sit
    # in the kernel row by row (closed-surface normal sums cancel exactly)
    mesh = build_cartesian(4, 3, 3, lengths=(1.2, 0.9, 1.0))
    rng = np.random.default_rng(2)
    props = material(
        mesh,
        mu=rng.uniform(0.5, 3.0, mesh.n_cells),
        lam=rng.uniform(0.5, 5.0, mesh.n_cells),
        w_out=np.inf,  # traction-free
    )
    system = assemble_tpsa(mesh, props)
    n = mesh.n_cells
    shift = np.array([0.8, -0.3, 0.55])
    x = np.zeros(7 * n)
    for c in range(3):
        x[c * n : (c + 1) * n] = shift[c]
    resid = np.abs(system.matrix @ x)
    bound = 1e-12 * np.abs(system.matrix).max() * np.linalg.norm(shift)
    ok = bool(resid.max() <= bound)
    _criterion(2, ok, f"max row residual {resid.max():.3e}, bound {bound:.3e}")
    assert resid.max() <= bound


def test_criterion_3_rescaled_solve_matches_dense_at_stiff_moduli():
    # mu = lambda = 1e10 Pa: solving the symmetrically rescaled system and
    # mapping back agrees with a dense solve of the raw system
    mesh = build_cartesian(3, 3, 3)
    n = mesh.n_cells
    props = material(
        mesh, mu=1e10, lam=1e10, f_u=np.random.default_rng(3).standard_normal((n, 3))
    )
    system = assemble_tpsa(mesh, props)
    b = assemble_rhs(mesh, props)
    solver = TpsaSolver(
        system, mean_shear_modulus(mesh, props), SolverOptions(method="direct")
    )
    x = solver.solve(b).x
    dense = np.linalg.solve(system.matrix.toarray(), b)
    rel = float(np.linalg.norm(x - dense) / np.linalg.norm(dense))
    ok = rel <= 1e-8
    _criterion(3, ok, f"rescaled vs dense relative error {rel:.3e}")
    assert rel <= 1e-8


def test_criterion_4_converged_injection_obeys_global_mass_identity(barrier_runs):
    # the stored fluid content, c0 * dp + (alpha/lam) * (p_hat + alpha * dp)
    # integrated over the cells, must equal the injected volume
    run = barrier_runs["fixed"]
    ok = run.result.report.converged and run.mass_defect <= 1e-8
    _criterion(
        4,
        ok,
        f"relative mass defect {run.mass_defect:.3e}"
        f" (converged={run.result.report.converged})",
    )
    assert run.result.report.converged
    assert run.mass_defect <= 1e-8


def test_criterion_5_sealed_compartment_pressurizes_only_through_the_rock(
    barrier_runs, barrier_alpha_zero
):
    # the barrier kills the flow path, so any pressure rise in omega2 must
    # come through the elastic coupling: positive when coupled, exactly
    # zero when alpha = 0, and the coupled omega1 pressure ends lower
    # because deformation adds storage
    coupled = barrier_runs["fixed"]
    end_injection = 12  # injection stops after step 12 (360 d at 30 d steps)
    a2 = float(coupled.avg_dp_omega2[end_injection])
    decoupled2 = barrier_alpha_zero.avg_dp_omega2
    a1 = float(coupled.avg_dp_omega1[-1])
    a1_decoupled = float(barrier_alpha_zero.avg_dp_omega1[-1])
    ok = a2 > 0.0 and bool(np.all(decoupled2 == 0.0)) and a1 < a1_decoupled
    _criterion(
        5,
        ok,
        f"coupled omega2 at end of injection {a2:.4g} Pa, decoupled"
        f" max |omega2| {np.abs(decoupled2).max():.3g},"
        f" final omega1 {a1:.6g} < {a1_decoupled:.6g} Pa",
    )
    assert a2 > 0.0
    assert np.all(decoupled2 == 0.0)
    assert a1 < a1_decoupled


def test_criterion_6_splitting_schemes_decrease_accelerate_and_agree(barrier_runs):
    # plain fixed-stress contracts monotonically; acceleration is inert
    # until it holds two residual samples and never does worse afterwards;
    # the lagged scheme reaches the same stationary end state.  The study
    # runs the common passes once, so the equal heads hold here by
    # construction; test_drivers.py's
    # test_study_runs_equal_standalone_runs_bitwise checks that each
    # scheme's study run is the run it makes alone
    plain = barrier_runs["fixed"].result.report.residuals
    accel = barrier_runs["anderson"].result.report.residuals
    decreasing = all(b < a for a, b in zip(plain, plain[1:]))
    heads_match = accel[0] == pytest.approx(
        plain[0], rel=1e-13
    ) and accel[1] == pytest.approx(plain[1], rel=1e-13)
    tail_ok = len(accel) <= len(plain) and all(
        accel[i] <= plain[i] for i in range(2, len(accel))
    )
    dp_lagged = barrier_runs["lagged"].result.final.dp
    dp_plain = barrier_runs["fixed"].result.final.dp
    rel = float(np.linalg.norm(dp_lagged - dp_plain) / np.linalg.norm(dp_plain))
    ok = decreasing and heads_match and tail_ok and rel <= 1e-6
    _criterion(
        6,
        ok,
        f"plain iterations {len(plain)}, accelerated {len(accel)},"
        f" lagged vs converged final dp {rel:.3e}",
    )
    assert decreasing, plain
    assert heads_match, (plain[:2], accel[:2])
    assert tail_ok, (plain, accel)
    assert rel <= 1e-6


def test_criterion_7_krylov_iteration_counts_stay_bounded(study, barrier_runs):
    # cold preconditioned solve of the 2700-cell barrier elastic system
    # (18,900 unknowns) converges to 1e-5 within 40 iterations, and the
    # manufactured-case count at most doubles from the 8 to the 16 grid
    config = parse_config(CASES / "barrier.cfg")
    case = config.build_case()
    options = replace(config.solver, method="iterative", rtol=1e-5)
    coupled = CoupledSystem(case, options)
    assert coupled.mech.matrix.shape == (18_900, 18_900)
    dp = barrier_runs["fixed"].result.final.dp
    report = coupled.mech_solve(dp, case.time.n_steps)
    probes = {r.n: r.probe_iterations for r in study.reports}
    ok = report.iterations <= 40 and probes[16] <= 2 * probes[8]
    _criterion(
        7,
        ok,
        f"barrier solve {report.iterations} iterations (cap 40),"
        f" refinement growth {probes[8]} -> {probes[16]}"
        f" ({probes[16] / probes[8]:.2f}x)",
    )
    assert report.iterations <= 40
    assert probes[16] <= 2 * probes[8]


def test_criterion_8_small_instances_match_dense_and_hand_assembly():
    # every box mesh with at most 200 unknowns: the preconditioned Krylov
    # path agrees with a dense direct solve; the 2-cell operator matches
    # its hand-assembled counterpart entry by entry
    shapes = sorted(
        {
            tuple(sorted((nx, ny, nz), reverse=True))
            for nx in range(1, 29)
            for ny in range(1, 29)
            for nz in range(1, 29)
            if nx * ny * nz <= 28
        }
    )
    worst = 0.0
    failures = []
    for idx, (nx, ny, nz) in enumerate(shapes):
        mesh = build_cartesian(nx, ny, nz, lengths=(float(nx), float(ny), float(nz)))
        n = mesh.n_cells
        rng = np.random.default_rng(80 + idx)
        props = material(
            mesh,
            mu=rng.uniform(0.5, 4.0, n),
            lam=rng.uniform(0.2, 6.0, n),
            f_u=rng.standard_normal((n, 3)),
        )
        system = assemble_tpsa(mesh, props)
        assert system.n_dof <= 200
        b = assemble_rhs(mesh, props, pressure_coupling=rng.standard_normal(n))
        solver = TpsaSolver(
            system,
            mean_shear_modulus(mesh, props),
            SolverOptions(method="iterative", rtol=1e-11),
        )
        report = solver.solve(b)
        assert report.iterations <= 400, (nx, ny, nz)
        x = report.x
        dense = np.linalg.solve(system.matrix.toarray(), b)
        rel = float(np.linalg.norm(x - dense) / np.linalg.norm(dense))
        worst = max(worst, rel)
        if rel > 1e-8:
            failures.append(((nx, ny, nz), rel))
    mu = np.array([1.3, 0.6])
    lam = np.array([2.0, 4.5])
    mesh2 = build_cartesian(2, 1, 1)
    props2 = material(mesh2, mu=mu, lam=lam)
    gap = float(
        np.abs(
            assemble_tpsa(mesh2, props2).matrix.toarray()
            - hand_assembled_two_cell(mu, lam)
        ).max()
    )
    ok = not failures and gap <= 1e-12
    _criterion(
        8,
        ok,
        f"{len(shapes)} meshes, worst iterative vs dense error {worst:.3e},"
        f" two-cell hand-assembly gap {gap:.3e}",
    )
    assert not failures, failures
    assert gap <= 1e-12


def test_shipped_barrier_files_read_back_as_its_runs(barrier_dir, barrier_runs):
    # every file of the shipped study: the summary lists each scheme in
    # order, converged, with the mass defect gate of criterion 4 and the
    # run's final averages; the per-step averages, psi histories and final
    # VTK states hold the run's arrays bit for bit
    config = parse_config(CASES / "barrier.cfg")
    header, rows = read_csv(barrier_dir / "barrier_summary.csv")
    summary = [dict(zip(header, row)) for row in rows]
    assert [row["scheme"] for row in summary] == ["lagged", "fixed", "anderson"]
    for row in summary:
        run = barrier_runs[row["scheme"]]
        prefix = f"barrier_{run.scheme}"
        assert row["converged"] == "1"
        assert float(row["mass_defect"]) <= 1e-8
        assert int(row["iterations"]) == run.result.report.iterations
        assert float(row["final_avg_dp_omega1"]) == run.avg_dp_omega1[-1]
        assert float(row["final_avg_dp_omega2"]) == run.avg_dp_omega2[-1]
        header, steps = read_csv(barrier_dir / f"{prefix}.csv")
        assert header == ["step", "time", "avg_dp_omega1", "avg_dp_omega2"]
        columns = np.array(steps, dtype=float).T
        assert np.array_equal(columns[0], np.arange(config.time.n_steps + 1))
        assert np.array_equal(columns[1], [state.t for state in run.result.states])
        assert np.array_equal(columns[2], run.avg_dp_omega1)
        assert np.array_equal(columns[3], run.avg_dp_omega2)
        assert_same_history(barrier_dir / f"{prefix}_psi.npy", run.result.psi, config)
        vtk = barrier_dir / f"{prefix}_final.vtk"
        head, sections = read_vtk(vtk)
        assert head == [
            "# vtk DataFile Version 3.0",
            f"barrier:{run.scheme}",
            "BINARY",
            "DATASET UNSTRUCTURED_GRID",
        ]
        assert list(sections) == [
            "POINTS 3844 double",
            "CELLS 2700 24300",
            "CELL_TYPES 2700",
            "CELL_DATA 2700",
        ] + [keyword for keyword, _ in VTK_FIELDS]
        assert np.all(sections["CELL_TYPES 2700"] == 12)  # hexahedra
        assert_same_final(vtk, run.result.final)


def test_shipped_barrier_takes_the_iterative_path_under_auto():
    # CI runs no method = iterative copy of the shipped barrier, because
    # auto already sends its 7 x 2,700 = 18,900 unknowns to AMG-BiCGStab
    config = parse_config(CASES / "barrier.cfg")
    n_dof = 7 * config.mesh.nx * config.mesh.ny * config.mesh.nz
    assert config.solver.method == "auto"
    assert n_dof > DIRECT_THRESHOLD, (
        f"auto factors the shipped barrier's {n_dof} unknowns: restore the "
        "method = iterative copy of cases/barrier.cfg in CI"
    )

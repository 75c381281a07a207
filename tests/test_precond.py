"""Rescaling, block-triangular preconditioner, and solver dispatch tests."""

import logging
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from biotfv.app.config import parse_config_text
from biotfv.coupling import BiotCase, CoupledSystem, SchemeSpec, TimeGrid, Well, simulate
from biotfv.errors import ConfigurationError, SolverError
from biotfv.linsolve import precond
from biotfv.linsolve.blocks import cell_order, rescale
from biotfv.linsolve.precond import (
    START_WINDOW,
    BlockTriangularPreconditioner,
    SolverOptions,
    StartWindow,
    TpsaSolver,
    start_weights,
)
from biotfv.mesh import build_cartesian
from biotfv.tpsa import assemble_rhs, assemble_tpsa, mean_shear_modulus
from compare_outputs import ROBIN_FREE, barrier_copy
from oracles import material

BARRIER = (Path(__file__).resolve().parent.parent / "cases" / "barrier.cfg").read_text()
# the CI copy with Robin walls and a traction-free top
ROBIN_FREE_BARRIER = barrier_copy(ROBIN_FREE)

def _system(nx, ny, nz, mu=1.0, lam=1.0, seed=0):
    mesh = build_cartesian(nx, ny, nz)
    f_u = np.random.default_rng(seed).standard_normal((mesh.n_cells, 3))
    props = material(mesh, mu=mu, lam=lam, f_u=f_u)
    system = assemble_tpsa(mesh, props)
    system.rhs[:] = assemble_rhs(mesh, props)
    return mesh, props, system


# ------------------------------------------------------------- rescaling


def test_rescale_identity_at_unit_modulus():
    _, _, system = _system(2, 1, 1)
    scaled, scale = rescale(system, 1.0)
    assert np.all(scale == 1.0)
    assert np.allclose(scaled.toarray(), system.matrix.toarray())


def test_rescale_roundtrip_involution():
    _, _, system = _system(2, 2, 1)
    scaled, scale = rescale(system, 7.3)
    n = system.n_cells
    assert np.allclose(scale[: 3 * n], 7.3**-0.5)
    assert np.allclose(scale[3 * n :], 7.3**0.5)
    # M~ = L M L, so M~ (x / scale) == scale * (M x)
    x = np.random.default_rng(1).standard_normal(system.n_dof)
    expected = scale * (system.matrix @ x)
    assert np.allclose(scaled @ (x / scale), expected, atol=1e-12)


def test_rescale_equivalence_with_direct_solve():
    _, _, system = _system(2, 2, 2, mu=3.0, lam=8.0)
    scaled, scale = rescale(system, 3.0)
    x_direct = np.linalg.solve(system.matrix.toarray(), system.rhs)
    x_tilde = np.linalg.solve(scaled.toarray(), scale * system.rhs)
    x = scale * x_tilde
    err = np.linalg.norm(x - x_direct) / np.linalg.norm(x_direct)
    assert err <= 1e-10


def test_rescale_conditioning_improvement_stiff_modulus():
    _, _, system = _system(2, 1, 1, mu=1e10, lam=1e10)
    scaled, _ = rescale(system, 1e10)
    cond_raw = np.linalg.cond(system.matrix.toarray())
    cond_scaled = np.linalg.cond(scaled.toarray())
    assert cond_raw / cond_scaled >= 1e6


def test_rescale_leaves_its_input_unchanged():
    # the scaled matrix shares the input's index arrays, and several
    # solvers may rescale one assembled system
    _, _, system = _system(3, 2, 2, mu=3.0, lam=8.0)
    matrix = system.matrix
    before = [a.copy() for a in (matrix.indptr, matrix.indices, matrix.data)]
    first, _ = rescale(system, 3.0)
    second, _ = rescale(system, 5.0)
    assert system.matrix is matrix
    for a, b in zip((matrix.indptr, matrix.indices, matrix.data), before):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert not np.array_equal(first.data, second.data)


def test_rescale_rejects_nonpositive_modulus():
    _, _, system = _system(2, 1, 1)
    with pytest.raises(ConfigurationError):
        rescale(system, 0.0)


# ----------------------------------------------------- block preconditioner


def test_preconditioner_zero_maps_to_zero():
    _, _, system = _system(2, 2, 2)
    pre = BlockTriangularPreconditioner(system.matrix, system.n_cells)
    assert np.all(pre.apply(np.zeros(system.n_dof)) == 0.0)


def test_preconditioner_linearity():
    _, _, system = _system(2, 2, 2)
    pre = BlockTriangularPreconditioner(system.matrix, system.n_cells)
    rng = np.random.default_rng(2)
    x, y = rng.standard_normal((2, system.n_dof))
    combo = pre.apply(2.5 * x - 1.5 * y)
    parts = 2.5 * pre.apply(x) - 1.5 * pre.apply(y)
    scale = np.linalg.norm(parts)
    assert np.linalg.norm(combo - parts) <= 1e-12 * scale


def test_preconditioner_is_exact_triangular_solve_on_small_system():
    # every block is <= 64 unknowns, so each hierarchy solves directly
    mesh, _, system = _system(2, 2, 2, mu=1.7, lam=0.8)
    n = mesh.n_cells
    pre = BlockTriangularPreconditioner(system.matrix, system.n_cells)
    m = system.matrix.toarray()
    lower = np.zeros_like(m)
    lower[: 3 * n, : 3 * n] = np.where(
        np.kron(np.eye(3), np.ones((n, n))) > 0, m[: 3 * n, : 3 * n], 0.0
    )
    lower[3 * n : 6 * n, : 3 * n] = m[3 * n : 6 * n, : 3 * n]
    lower[3 * n : 6 * n, 3 * n : 6 * n] = np.diag(np.diag(m)[3 * n : 6 * n])
    lower[6 * n :, : 3 * n] = m[6 * n :, : 3 * n]
    lower[6 * n :, 6 * n :] = m[6 * n :, 6 * n :]
    rng = np.random.default_rng(3)
    r = rng.standard_normal(system.n_dof)
    assert np.allclose(pre.apply(r), np.linalg.solve(lower, r), atol=1e-9)


def test_preconditioner_forward_substitution_coupling():
    mesh, _, system = _system(2, 2, 2)
    n = mesh.n_cells
    pre = BlockTriangularPreconditioner(system.matrix, system.n_cells)
    rng = np.random.default_rng(4)
    r = np.zeros(system.n_dof)
    r[: 3 * n] = rng.standard_normal(3 * n)
    y = pre.apply(r)
    y_u = y[: 3 * n]
    # with zero rotation and pressure residuals, those corrections are
    # driven purely through the coupling blocks
    m = system.matrix
    expected_r = -(m[3 * n : 6 * n, : 3 * n] @ y_u) / m.diagonal()[3 * n : 6 * n]
    rhs_p = -(m[6 * n :, : 3 * n] @ y_u)
    expected_p = np.linalg.solve(m[6 * n :, 6 * n :].toarray(), rhs_p)
    assert np.allclose(y[3 * n : 6 * n], expected_r, atol=1e-12)
    assert np.allclose(y[6 * n :], expected_p, atol=1e-9)


def test_preconditioner_rejects_zero_rotation_diagonal():
    _, _, system = _system(2, 1, 1)
    m = system.matrix.tolil()
    n = system.n_cells
    m[3 * n, 3 * n] = 0.0
    with pytest.raises(ConfigurationError):
        BlockTriangularPreconditioner(m.tocsr(), n)


# -------------------------------------------------------------- dispatch


def test_solver_direct_path_matches_dense():
    mesh, props, system = _system(2, 2, 2, mu=2.0, lam=5.0)
    solver = TpsaSolver(system, mean_shear_modulus(mesh, props))
    assert solver.direct
    report = solver.solve(system.rhs)
    assert len(report.trace) == 1  # one LU solve, no Krylov iterations
    expected = np.linalg.solve(system.matrix.toarray(), system.rhs)
    assert np.allclose(report.x, expected, rtol=1e-9, atol=1e-12)


def test_solver_iterative_path_matches_direct():
    mesh, props, system = _system(4, 4, 4, mu=2.0, lam=5.0)
    mu0 = mean_shear_modulus(mesh, props)
    direct = TpsaSolver(system, mu0, SolverOptions(method="direct"))
    iterative = TpsaSolver(system, mu0, SolverOptions(method="iterative", rtol=1e-10))
    x_ref = direct.solve(system.rhs).x
    assert direct.direct and not iterative.direct
    report = iterative.solve(system.rhs)
    assert report.iterations >= 1
    err = np.linalg.norm(report.x - x_ref) / np.linalg.norm(x_ref)
    assert err <= 1e-8


def test_solver_warm_start_reuses_factorization():
    mesh, props, system = _system(3, 3, 3)
    solver = TpsaSolver(
        system,
        mean_shear_modulus(mesh, props),
        SolverOptions(method="iterative", rtol=1e-8),
    )
    window = StartWindow()
    first = solver.solve(system.rhs, window)
    window.push(first.x, first.residual)
    again = solver.solve(system.rhs, window)  # from the first
    assert again.iterations <= 1


@pytest.mark.parametrize("method", ["direct", "iterative"])
def test_solver_writes_into_no_caller_storage(method):
    # three solves, each from a window of the solutions before it: every
    # solution is a new vector, and the given right-hand sides and the
    # window's kept solutions and products stay as they were
    mesh, props, system = _system(4, 4, 4, mu=2.0, lam=5.0)
    solver = TpsaSolver(
        system,
        mean_shear_modulus(mesh, props),
        SolverOptions(method=method, rtol=1e-10),
    )
    block = np.random.default_rng(7).standard_normal((system.n_dof, 3))
    given = block.copy()
    expected = np.linalg.solve(system.matrix.toarray(), given)
    window = StartWindow()
    for j, column in enumerate(block.T):
        kept = [a.copy() for a in (*window.solutions, *window.products)]
        report = solver.solve(column, window)
        x = report.x
        assert not np.shares_memory(x, block)
        for a, b in zip((*window.solutions, *window.products), kept, strict=True):
            assert not np.shares_memory(x, a) and np.array_equal(a, b)
        err = np.linalg.norm(x - expected[:, j]) / np.linalg.norm(expected[:, j])
        assert err <= 1e-8
        if not solver.direct:
            window.push(x, report.residual)
    assert np.array_equal(block, given)
    assert len(window) == (0 if method == "direct" else 3)


def test_direct_solve_ignores_its_start():
    mesh, props, system = _system(3, 3, 3)
    mu0 = mean_shear_modulus(mesh, props)
    solver = TpsaSolver(system, mu0, SolverOptions(method="direct"))
    # a window holding one solution of another load, from the Krylov path
    iterative = TpsaSolver(system, mu0, SolverOptions(method="iterative"))
    window = StartWindow()
    other = iterative.solve(np.random.default_rng(8).standard_normal(system.n_dof), window)
    window.push(other.x, other.residual)
    gram = window.gram.copy()
    cold, warm = solver.solve(system.rhs), solver.solve(system.rhs, window)
    assert cold.x.tobytes() == warm.x.tobytes() and cold.trace == warm.trace
    assert len(window) == 1 and window.load is None and np.array_equal(window.gram, gram)


def test_march_starts_minimize_the_residual_over_the_last_solutions(monkeypatch):
    # every start the solver hands BiCGStab over two fixed-stress passes of
    # seven steps, against the rule restated with explicit products: step 1
    # of each pass starts from zero, every later step i from a combination
    # of the pass's last min(i - 1, START_WINDOW) solutions, oldest first,
    # whose residual is within 1e-6 ||b|| of the least-squares optimum
    mesh = build_cartesian(4, 3, 2)
    props = material(mesh, lam=2.0, alpha=0.8, c0=0.5)
    case = BiotCase(mesh, props, TimeGrid(dt=1.0, n_steps=7), [Well(cell=0, rate=0.5)])
    engine = CoupledSystem(case, SolverOptions(method="iterative"))
    mech = engine.mech
    seen, solutions = [], []
    solve, bicgstab = TpsaSolver.solve, precond.bicgstab

    def solve_spy(self, rhs, window=None):
        kept = list(window.solutions)
        report = solve(self, rhs, window)
        seen[-1] += (kept,)
        solutions.append(report.x)
        return report

    def bicgstab_spy(operator, b, **kwargs):
        x0 = kwargs["x0"]
        seen.append((b, None if x0 is None else x0.copy()))
        return bicgstab(operator, b, **kwargs)

    monkeypatch.setattr(TpsaSolver, "solve", solve_spy)
    monkeypatch.setattr(precond, "bicgstab", bicgstab_spy)
    simulate(engine, SchemeSpec(tol=1e-14, max_iter=2))
    n_steps = case.time.n_steps
    assert len(seen) == 2 * n_steps
    for k, (b, x0, kept) in enumerate(seen):
        i = k % n_steps  # steps before this one in its pass
        march = solutions[k - i : k]
        assert [id(x) for x in kept] == [id(x) for x in march[-START_WINDOW:]]
        if i == 0:
            assert x0 is None
            continue
        basis = np.stack([x / mech.scale for x in kept], axis=1)
        products = mech.matrix @ basis
        weights = np.linalg.lstsq(products, b, rcond=None)[0]
        optimum = np.linalg.norm(b - products @ weights)
        assert np.linalg.norm(b - mech.matrix @ x0) <= optimum + 1e-6 * np.linalg.norm(b)
        coefficients = np.linalg.lstsq(basis, x0, rcond=None)[0]
        assert np.allclose(basis @ coefficients, x0, rtol=0.0, atol=1e-12 * np.abs(x0).max())


def test_the_start_window_keeps_at_most_start_window_solutions():
    # each push adds one solution and one product and extends the Gram
    # matrix by one row; from the (START_WINDOW + 1)-th the oldest pair goes
    rng = np.random.default_rng(3)
    window = StartWindow()
    pushed = []
    for k in range(START_WINDOW + 3):
        load = rng.standard_normal(20)
        assert (window.start(load, np.ones(20)) is None) == (k == 0)
        solution, residual = rng.standard_normal(20), rng.standard_normal(20)
        window.push(solution, residual)
        pushed.append((solution, load - residual))
        assert len(window) == len(window.products) == min(k + 1, START_WINDOW)
        kept = pushed[-START_WINDOW:]
        assert [id(x) for x in window.solutions] == [id(x) for x, _ in kept]
        products = np.stack([w for _, w in kept], axis=1)
        assert np.array_equal(np.stack(window.products, axis=1), products)
        assert np.allclose(window.gram, products.T @ products, rtol=1e-14)
        assert window.load is None
    # the march's last start empties the window once it is formed: no push
    # follows it
    window.last = True
    newest = pushed[-1][0]
    start = window.start(rng.standard_normal(20), np.ones(20))
    assert start.shape == newest.shape and not np.shares_memory(start, newest)
    assert len(window) == len(window.products) == 0 and window.load is None


@pytest.mark.parametrize("bad", ["nan", "zero"])
def test_the_start_falls_back_to_the_newest_solution(bad):
    # a Gram solve that is not finite (a NaN product) or singular (every
    # product zero, as from zero loads) puts all weight on the newest
    gram = np.full((3, 3), np.nan) if bad == "nan" else np.zeros((3, 3))
    assert np.array_equal(start_weights(gram, np.ones(3)), [0.0, 0.0, 1.0])
    window = StartWindow()
    solutions = [np.full(4, float(k + 1)) for k in range(3)]
    for k, solution in enumerate(solutions):
        window.start(np.zeros(4), np.ones(4))
        product = np.zeros(4)
        if bad == "nan" and k == 1:
            product[2] = np.nan
        window.push(solution, -product)  # the product is load - residual
    scale = np.full(4, 2.0)
    assert np.array_equal(window.start(np.ones(4), scale), solutions[-1] / scale)


@pytest.mark.parametrize("method", ["direct", "iterative"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solver_names_the_first_nonfinite_column_before_solving(method, bad):
    # of three loads, the second and third hold non-finite entries: the
    # second fails before it is solved, and is left as given, not scaled.
    # The step it belongs to is named by CoupledSystem.mech_solve
    # (test_coupling)
    mesh, props, system = _system(3, 3, 3)
    solver = TpsaSolver(
        system, mean_shear_modulus(mesh, props), SolverOptions(method=method)
    )
    block = np.tile(system.rhs[:, None], (1, 3))
    block[5, 1] = bad
    block[0, 2] = np.nan
    given = block.copy()
    window = StartWindow()
    first = solver.solve(block[:, 0], window)
    if not solver.direct:
        window.push(first.x, first.residual)
    with pytest.raises(SolverError, match="right-hand side is not finite"):
        solver.solve(block[:, 1], window)
    assert np.array_equal(block, given, equal_nan=True)  # not scaled


def test_solver_threshold_switches_method(monkeypatch):
    mesh, props, system = _system(2, 2, 2)
    mu0 = mean_shear_modulus(mesh, props)
    assert system.n_dof <= precond.DIRECT_THRESHOLD
    assert TpsaSolver(system, mu0).direct
    monkeypatch.setattr(precond, "DIRECT_THRESHOLD", system.n_dof)
    small = TpsaSolver(system, mu0)
    monkeypatch.setattr(precond, "DIRECT_THRESHOLD", system.n_dof - 1)
    large = TpsaSolver(system, mu0)
    assert small.direct and not large.direct


def test_solver_rejects_unknown_method():
    # the options check themselves when built, before any solver exists
    with pytest.raises(ConfigurationError, match="unknown solver method"):
        SolverOptions(method="magic")


@pytest.mark.parametrize(
    "options",
    [
        dict(rtol=0.0),
        dict(rtol=-1e-6),
        dict(rtol=float("nan")),
        dict(rtol=float("inf")),
        dict(method="direct", rtol=0.0),
        dict(method="iterative", rtol=0.0),
        dict(rtol=1.0),
    ],
)
def test_solver_rejects_bad_tolerance_and_cap(options):
    with pytest.raises(ConfigurationError):
        SolverOptions(**options)


def test_small_instance_oracle_meshes():
    # every clamped mesh with at most 200 unknowns: preconditioned
    # iteration agrees with a dense direct solve
    for dims in [(1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 3, 1), (7, 2, 2)]:
        mesh, props, system = _system(*dims, mu=1.4, lam=2.2, seed=dims[0])
        assert system.n_dof <= 200
        mu0 = mean_shear_modulus(mesh, props)
        solver = TpsaSolver(
            system, mu0, SolverOptions(method="iterative", rtol=1e-11)
        )
        report = solver.solve(system.rhs)
        assert report.iterations <= 400, dims
        expected = np.linalg.solve(system.matrix.toarray(), system.rhs)
        err = np.linalg.norm(report.x - expected) / np.linalg.norm(expected)
        assert err <= 1e-8, dims


# ------------------------------------------------- cell-blocked LU order


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 1, 1), (3, 2, 2)])
def test_cell_order_is_a_permutation_keeping_each_cell_together(dims):
    _, _, system = _system(*dims)
    n = system.n_cells
    order = cell_order(system.matrix, n)
    assert np.array_equal(np.sort(order), np.arange(7 * n))
    # row k holds the seven unknowns of the k-th cell, in field order
    cells = order.reshape(n, 7)
    assert np.array_equal(cells, cells[:, :1] + n * np.arange(7))


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 1, 1)])
def test_direct_solve_of_one_and_two_cells_matches_dense(dims):
    mesh, props, system = _system(*dims, mu=1.3, lam=2.9)
    solver = TpsaSolver(system, mean_shear_modulus(mesh, props))
    assert solver.direct
    block = np.random.default_rng(5).standard_normal((system.n_dof, 3))
    reports = [solver.solve(column) for column in block.T]
    expected = np.linalg.solve(system.matrix.toarray(), block)
    for j, report in enumerate(reports):
        assert np.allclose(report.x, expected[:, j], rtol=1e-10, atol=1e-12)
        assert report.trace[0] <= 1e-12


def test_factorization_is_the_one_precond_splu_call(monkeypatch):
    # the cell graph's own SuperLU call stays out of precond.splu, which
    # is the elastic factorization's only name
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("permc_spec"))
        return splu(*args, **kwargs)

    monkeypatch.setattr(precond, "splu", counted)
    mesh, props, system = _system(3, 3, 2)
    TpsaSolver(system, mean_shear_modulus(mesh, props))
    assert calls == ["NATURAL"]


@pytest.fixture(scope="module", params=[BARRIER, ROBIN_FREE_BARRIER], ids=["clamped", "robin-free"])
def shipped(request):
    """The shipped barrier operator's direct solver and a plain-order LU."""
    case = parse_config_text(request.param).build_case()
    # clamped walls only on the shipped case, some traction-free faces on its copy
    assert np.isinf(case.props.w_out).any() == (request.param is ROBIN_FREE_BARRIER)
    system = assemble_tpsa(case.mesh, case.props)
    solver = TpsaSolver(
        system,
        mean_shear_modulus(case.mesh, case.props),
        SolverOptions(method="direct"),
    )
    plain = splu(solver.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A")
    return solver, plain


def test_cell_order_fills_less_than_minimum_degree_on_unknowns(shipped):
    solver, plain = shipped
    assert solver.direct
    fill = solver._lu.L.nnz + solver._lu.U.nnz
    assert fill < plain.L.nnz + plain.U.nnz


def test_cell_order_solution_matches_plain_order(shipped):
    solver, plain = shipped
    block = np.random.default_rng(6).standard_normal((solver.matrix.shape[0], 4))
    expected = solver.scale[:, None] * plain.solve(solver.scale[:, None] * block)
    reports = [solver.solve(column) for column in block.T]
    for j, report in enumerate(reports):
        err = np.linalg.norm(report.x - expected[:, j]) / np.linalg.norm(expected[:, j])
        assert err <= 1e-12


def test_solver_logs_its_path_and_why(caplog):
    mesh, props, system = _system(2, 2, 2)
    mu0 = mean_shear_modulus(mesh, props)
    with caplog.at_level(logging.INFO, logger="biotfv"):
        TpsaSolver(system, mu0)
        TpsaSolver(system, mu0, SolverOptions(method="iterative"))
    text = caplog.text
    threshold = precond.DIRECT_THRESHOLD
    assert f"sparse LU ({system.n_dof} unknowns <= DIRECT_THRESHOLD {threshold})" in text
    assert "factor entries stored, factored in" in text
    assert "BiCGStab (method = iterative)" in text

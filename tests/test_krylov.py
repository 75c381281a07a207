"""BiCGStab tests."""

import numpy as np
import pytest
import scipy.sparse as sp
from oracles import CountingOperator

from biotfv.errors import SolverError
from biotfv.linsolve.amg import build_amg
from biotfv.linsolve import krylov
from biotfv.linsolve.krylov import bicgstab


def test_identity_converges_in_one_iteration():
    rhs = np.array([1.0, -2.0, 3.0])
    result = bicgstab(np.eye(3), rhs, rtol=1e-12)
    assert result.iterations == 1
    assert np.allclose(result.x, rhs, atol=1e-14)


def test_exact_preconditioner_converges_in_one_iteration():
    a = np.array([[4.0, 1.0], [1.0, 3.0]])
    inv = np.linalg.inv(a)
    rhs = np.array([1.0, 2.0])
    result = bicgstab(a, rhs, preconditioner=lambda v: inv @ v, rtol=1e-10)
    assert result.iterations == 1
    assert np.allclose(result.x, np.linalg.solve(a, rhs), atol=1e-10)


def test_matches_dense_solve_on_small_nonsymmetric_system():
    rng = np.random.default_rng(17)
    a = np.eye(50) * 10.0 + rng.standard_normal((50, 50))
    rhs = rng.standard_normal(50)
    expected = np.linalg.solve(a, rhs)
    result = bicgstab(a, rhs, rtol=1e-9, max_iter=200)
    err = np.linalg.norm(result.x - expected) / np.linalg.norm(expected)
    assert err <= 1e-8  # rtol * 10


def test_trace_records_per_iteration_residuals():
    rng = np.random.default_rng(3)
    a = np.eye(30) * 4.0 + 0.5 * rng.standard_normal((30, 30))
    rhs = rng.standard_normal(30)
    result = bicgstab(a, rhs, rtol=1e-8, max_iter=100)
    assert len(result.trace) == result.iterations + 1
    assert result.trace[0] == pytest.approx(np.linalg.norm(rhs))
    assert result.trace[-1] <= 1e-8 * np.linalg.norm(rhs)


def test_true_residual_at_convergence():
    rng = np.random.default_rng(5)
    a = sp.random(200, 200, density=0.05, random_state=7) + sp.eye(200) * 3.0
    rhs = rng.standard_normal(200)
    result = bicgstab(a.tocsr(), rhs, rtol=1e-7, max_iter=500)
    res = np.linalg.norm(rhs - a @ result.x)
    assert res <= 1e-7 * np.linalg.norm(rhs)


def test_amg_preconditioned_laplacian():
    n = 12
    a1 = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1])
    a = sp.kronsum(sp.kronsum(a1, a1), a1).tocsr()
    hier = build_amg(a)
    rng = np.random.default_rng(0)
    rhs = rng.standard_normal(a.shape[0])
    plain = bicgstab(a, rhs, rtol=1e-8, max_iter=2000)
    pre = bicgstab(a, rhs, preconditioner=hier.vcycle, rtol=1e-8, max_iter=2000)
    assert pre.iterations < plain.iterations
    assert pre.iterations <= 15


def test_cold_start_skips_the_product_with_zero_bit_for_bit():
    # r = rhs without forming rhs - A @ 0; signed zeros must come through
    a = (sp.random(120, 120, density=0.05, random_state=3) + sp.eye(120) * 3.0).tocsr()
    rng = np.random.default_rng(9)
    rhs = rng.standard_normal(120)
    rhs[::7] = 0.0
    rhs[1::7] = -0.0
    reports, products = [], []
    for x0 in (None, np.zeros(120)):
        counted = CountingOperator(a)
        reports.append(bicgstab(counted, rhs, rtol=1e-10, x0=x0))
        products.append(counted.products)
    cold, zero = reports
    assert cold.x.tobytes() == zero.x.tobytes()
    assert cold.trace == zero.trace
    assert products[0] == products[1] - 1


def test_zero_rhs_returns_zero():
    result = bicgstab(np.eye(4), np.zeros(4))
    assert np.all(result.x == 0.0)
    assert result.trace == [0.0]


def test_warm_start_with_exact_solution():
    a = np.diag([2.0, 3.0, 4.0])
    rhs = np.array([2.0, 6.0, 12.0])
    x0 = np.array([1.0, 2.0, 3.0])
    result = bicgstab(a, rhs, rtol=1e-10, x0=x0)
    assert result.iterations == 0
    assert result.x is x0  # handed back as given, not copied


def test_warm_start_speeds_convergence():
    rng = np.random.default_rng(8)
    a = np.eye(40) * 5.0 + rng.standard_normal((40, 40)) * 0.5
    rhs = rng.standard_normal(40)
    cold = bicgstab(a, rhs, rtol=1e-10, max_iter=200)
    near = cold.x + 1e-8 * rng.standard_normal(40)
    given = near.copy()
    warm = bicgstab(a, rhs, rtol=1e-10, max_iter=200, x0=near)
    assert warm.iterations <= cold.iterations
    assert np.array_equal(near, given)  # the start is never written in place


def test_invalid_rtol_rejected():
    with pytest.raises(ValueError):
        bicgstab(np.eye(2), np.ones(2), rtol=0.0)


def test_max_iter_exceeded_carries_trace():
    rng = np.random.default_rng(21)
    a = np.eye(60) * 2.0 + rng.standard_normal((60, 60)) * 0.3
    rhs = rng.standard_normal(60)
    with pytest.raises(SolverError) as err:
        bicgstab(a, rhs, rtol=1e-14, max_iter=1)
    assert len(err.value.trace) == 2


def test_skew_system_breaks_down_after_one_restart():
    # b = e1: A e1 = -e2 is orthogonal to the shadow residual e1, so the
    # search direction collapses at once, and again after the restart from
    # the same iterate
    a = CountingOperator(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    with pytest.raises(SolverError) as err:
        bicgstab(a, np.array([1.0, 0.0]), rtol=1e-10)
    assert str(err.value).startswith("second breakdown after restart: search direction collapsed")
    assert err.value.trace == [1.0]
    assert a.products == 3  # the search direction, the restart's residual, again


class Float32Operator:
    """A matrix whose products round through float32: the true residual
    stalls near 1e-9 to 1e-7 of ||b||, above rtol 1e-10, while the
    recursively updated residual can still fall below it."""

    def __init__(self, matrix):
        self.matrix = matrix.astype(np.float32)

    def __matmul__(self, vector):
        return (self.matrix @ vector.astype(np.float32)).astype(float)


def test_a_recursive_residual_below_rtol_is_not_accepted_without_the_true_one():
    rng = np.random.default_rng(5)
    a = np.eye(40) * 4.0 + rng.standard_normal((40, 40)) * 0.2
    rhs = rng.standard_normal(40)
    try:
        report = bicgstab(Float32Operator(a), rhs, rtol=1e-10)
    except SolverError as err:
        # the true residual stops falling within 40 iterations, so the
        # solve fails once it has set no new minimum for STAGNATION
        # iterations, not after all MAX_ITERATIONS = 500
        assert len(err.trace) - 1 == int(np.argmin(err.trace)) + krylov.STAGNATION < 100
        return
    assert np.linalg.norm(rhs - a @ report.x) <= 1e-10 * np.linalg.norm(rhs)


class PlateauThenExact:
    """A preconditioner for the 2 x 2 identity that returns (1, 0) for its
    first `plateau` + 1 iterations, then its input.  From b = (1, 1) the
    first iteration takes the residual to (0, 1) and each later one back
    to (0, 1) exactly, in small integers, so the trace ties its minimum
    for `plateau` iterations; the exact preconditioner then converges in
    one."""

    def __init__(self, plateau):
        self.calls = 2 * (plateau + 1)  # two applications per iteration

    def __call__(self, vector):
        self.calls -= 1
        return np.array([1.0, 0.0]) if self.calls >= 0 else vector


@pytest.mark.parametrize("plateau", [krylov.STAGNATION - 1, krylov.STAGNATION])
def test_a_plateau_fails_only_once_it_spans_the_stagnation_window(plateau):
    rhs = np.ones(2)
    solve = lambda: bicgstab(np.eye(2), rhs, PlateauThenExact(plateau), rtol=1e-10)
    if plateau < krylov.STAGNATION:
        report = solve()
        assert report.iterations == plateau + 2 and report.trace[1:-1] == [1.0] * (plateau + 1)
        assert np.linalg.norm(rhs - report.x) <= 1e-10 * np.linalg.norm(rhs)
        return
    with pytest.raises(SolverError, match="stagnated") as err:
        solve()
    assert err.value.trace[1:] == [1.0] * (plateau + 1)


def _poisson(n=12):
    a1 = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1])
    return sp.kronsum(sp.kronsum(a1, a1), a1).tocsr()


@pytest.mark.parametrize("solve", [bicgstab])
def test_rescaled_system_takes_the_same_iterations(solve):
    # every breakdown test is relative, so scaling A and b together changes
    # nothing; powers of two scale every operation exactly.  bicgstab's
    # stabilization check was absolute and broke down twice at 2^-40 and 2^-53
    a = _poisson()
    rhs = np.random.default_rng(0).standard_normal(a.shape[0])
    reports = []
    for scale in (1.0, 2.0**-27, 2.0**-40, 2.0**-53):
        scaled = (scale * a).tocsr()
        hier = build_amg(scaled)
        reports.append(solve(scaled, scale * rhs, preconditioner=hier.vcycle, rtol=1e-10))
    assert reports[0].iterations <= 20
    for report in reports[1:]:
        assert not report.restarted
        assert report.iterations == reports[0].iterations
        assert report.x.tobytes() == reports[0].x.tobytes()

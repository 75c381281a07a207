"""Smoothed-aggregation multigrid tests."""

from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st
from oracles import (
    CountingOperator,
    assert_same_csr,
    coo_aggregation_graph,
    coo_strength_graph,
    greedy_aggregate,
    material,
    multigrid_solve,
    reference_vcycle,
)
from scipy.sparse.linalg import eigsh

from biotfv.app.config import parse_config
from biotfv.app.manufactured import ManufacturedSolution
from biotfv.coupling import TimeGrid, mean_shear_modulus
from biotfv.errors import SolverError
from biotfv.linsolve import amg
from biotfv.linsolve.amg import (
    STRENGTH_THRESHOLD,
    aggregate,
    aggregation_graph,
    build_amg,
    smoothed_prolongator,
    tentative_prolongator,
)
from biotfv.linsolve.blocks import rescale
from biotfv.mesh import build_barrier_mesh, build_cartesian
from biotfv.tpsa import assemble_tpsa

CASES = Path(__file__).resolve().parent.parent / "cases"


def laplacian_1d(n, dirichlet=True):
    main = 2.0 * np.ones(n)
    if not dirichlet:
        main[0] = main[-1] = 1.0
    return sp.diags([-np.ones(n - 1), main, -np.ones(n - 1)], [-1, 0, 1]).tocsr()


def laplacian_3d(n):
    a1 = laplacian_1d(n)
    return sp.kronsum(sp.kronsum(a1, a1), a1).tocsr()


def test_strength_graph_keeps_laplacian_neighbors():
    a = laplacian_1d(5)
    s = aggregation_graph(a, 0.25)
    assert s.diagonal().sum() == 0.0
    assert s.nnz == a.nnz - 5


def test_strength_graph_drops_weak_entries():
    a = sp.csr_matrix(
        np.array(
            [
                [4.0, 0.1, -3.0, 0.0],
                [0.1, 4.0, 0.0, -3.0],
                [-3.0, 0.0, 4.0, 0.0],
                [0.0, -3.0, 0.0, 4.0],
            ]
        )
    )
    s = aggregation_graph(a, 0.25)
    # |0.1| < 0.25*4 is weak, |-3| is strong; every row has a strong
    # coupling, so no fallback brings the weak ones back
    assert s[0, 1] == 0.0 and s[1, 0] == 0.0
    assert s[0, 2] == 3.0 and s[1, 3] == 3.0
    assert s.nnz == 4


def test_greedy_aggregation_eight_point_line():
    s = aggregation_graph(laplacian_1d(8), 0.25)
    assign, count = aggregate(s)
    assert count == 3
    assert np.array_equal(assign, [0, 0, 1, 1, 1, 2, 2, 2])


def test_aggregation_graph_fallback_for_dominant_diagonals():
    # 7-point stencil fails the symmetric strength test (1/6 < 1/4)
    a = laplacian_3d(6)
    assert coo_strength_graph(a, 0.25).nnz == 0
    graph = aggregation_graph(a, 0.25)
    assert graph.nnz == a.nnz - a.shape[0]
    assign, count = aggregate(graph)
    assert count < a.shape[0] // 3
    # the 1D case keeps its pure strength graph
    b = laplacian_1d(8)
    assert (aggregation_graph(b, 0.25) != coo_strength_graph(b, 0.25)).nnz == 0


def test_aggregation_isolated_nodes_become_singletons():
    s = aggregation_graph(sp.eye(4, format="csr"), 0.25)
    assign, count = aggregate(s)
    assert count == 4
    assert np.array_equal(np.sort(assign), np.arange(4))


def solver_blocks(mesh, props):
    """The four AMG blocks of the rescaled TPSA system, as the solver sees them."""
    matrix, _ = rescale(assemble_tpsa(mesh, props), mean_shear_modulus(mesh, props))
    n = mesh.n_cells
    fields = [slice(f * n, (f + 1) * n) for f in (0, 1, 2, 6)]
    return [matrix[f, f].tocsr() for f in fields]


def manufactured_blocks():
    mesh = build_cartesian(8, 8, 8)
    props = parse_config(CASES / "manufactured.cfg").props
    case = ManufacturedSolution(props).as_case(mesh, TimeGrid(dt=1e6, n_steps=1))
    return solver_blocks(mesh, case.props)


def barrier_contrast_blocks():
    mesh = build_barrier_mesh(6, 6, 2, index=3)
    mu = np.where(mesh.cell_centers[:, 0] < 0.5, 1.0, 1e4)
    return solver_blocks(mesh, material(mesh, mu=mu))


BLOCK_SETS = pytest.mark.parametrize(
    "make_blocks",
    [manufactured_blocks, barrier_contrast_blocks, lambda: [laplacian_3d(10)]],
    ids=["tpsa-manufactured-8", "tpsa-barrier-mu-contrast", "poisson-3d"],
)


@BLOCK_SETS
def test_aggregation_matches_numpy_reference_on_every_level(make_blocks, monkeypatch):
    compared = []

    def checked(strength):
        assign, count = aggregate(strength)
        ref_assign, ref_count = greedy_aggregate(strength)
        assert count == ref_count
        assert assign.dtype == ref_assign.dtype
        assert np.array_equal(assign, ref_assign)
        compared.append(count)
        return assign, count

    monkeypatch.setattr(amg, "aggregate", checked)
    for block in make_blocks():
        build_amg(block)
    assert compared


@BLOCK_SETS
def test_vcycle_matches_the_explicit_residual_cycle_bit_for_bit(make_blocks):
    # the zero-start pre-sweep skips A @ 0 and the zero it would add to;
    # signed zeros in the right-hand side must come through too
    rng = np.random.default_rng(4)
    for block in make_blocks():
        hier = build_amg(block)
        assert hier.n_levels >= 2
        rhs = rng.standard_normal(block.shape[0])
        rhs[::5] = 0.0
        rhs[1::5] = -0.0
        got, want = hier.vcycle(rhs), reference_vcycle(hier, rhs)
        assert got.tobytes() == want.tobytes()


def nonsymmetric_matrix():
    """A random nonsymmetric matrix whose strong couplings are one-way."""
    rng = np.random.default_rng(5)
    a = sp.random(60, 60, density=0.08, random_state=rng, format="csr")
    a.data -= 0.5
    return (a + sp.diags(rng.uniform(0.5, 2.0, 60))).tocsr()


GRAPH_MATRICES = pytest.mark.parametrize(
    "make_matrix",
    [
        lambda: manufactured_blocks()[0],
        lambda: manufactured_blocks()[3],
        lambda: barrier_contrast_blocks()[0],
        lambda: barrier_contrast_blocks()[3],
        nonsymmetric_matrix,
        lambda: laplacian_3d(4),  # every row all weak
    ],
    ids=["manufactured-u", "manufactured-p", "barrier-u", "barrier-p",
         "nonsymmetric", "all-weak"],
)


@GRAPH_MATRICES
def test_aggregation_graph_matches_the_coo_formula_bitwise(make_matrix):
    matrix = make_matrix()
    matrix.sort_indices()
    assert_same_csr(
        aggregation_graph(matrix, STRENGTH_THRESHOLD),
        coo_aggregation_graph(matrix, STRENGTH_THRESHOLD),
    )


def test_aggregation_graph_doubles_a_strong_entry_into_a_lonely_node():
    # row 0 -> 1 is strong, every coupling of rows 1 and 2 weak: the
    # fallback adds |a_01| once more, as the CSR sum of the two graphs did
    a = sp.csr_matrix(
        np.array([[4.0, -3.0, 0.0], [-0.1, 4.0, -0.2], [0.0, -0.1, 4.0]])
    )
    graph = aggregation_graph(a, 0.25)
    assert graph.toarray().tolist() == [
        [0.0, 6.0, 0.0], [0.1, 0.0, 0.2], [0.0, 0.1, 0.0]
    ]
    assert_same_csr(graph, coo_aggregation_graph(a, 0.25))


@pytest.mark.parametrize("field", [0, 3], ids=["u", "p"])
def test_hierarchy_matches_the_coo_graph_hierarchy_bitwise(field, monkeypatch):
    block = barrier_contrast_blocks()[field]
    got = build_amg(block)
    monkeypatch.setattr(amg, "aggregation_graph", coo_aggregation_graph)
    want = build_amg(block)
    assert got.n_levels == want.n_levels >= 2
    for mine, theirs in zip(got.levels, want.levels):
        assert_same_csr(mine.matrix, theirs.matrix)
        if mine.prolongator is None:
            assert theirs.prolongator is None
            continue
        assert mine.weight.tobytes() == theirs.weight.tobytes()
        assert_same_csr(mine.prolongator, theirs.prolongator)
        assert_same_csr(mine.restriction, theirs.restriction)
    assert got.coarse_inverse.tobytes() == want.coarse_inverse.tobytes()


@st.composite
def symmetric_graphs(draw):
    """Symmetric strength graphs with few distinct weights and isolated nodes."""
    n = draw(st.integers(1, 40))
    node = st.integers(0, n - 1)
    edges = draw(
        st.lists(st.tuples(node, node, st.sampled_from([1.0, 2.0])), max_size=3 * n)
    )
    edges = {(min(i, j), max(i, j)): w for i, j, w in edges if i != j}
    rows = [i for i, j in edges] + [j for i, j in edges]
    cols = [j for i, j in edges] + [i for i, j in edges]
    vals = list(edges.values()) * 2
    graph = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    graph.sort_indices()
    return graph


@given(symmetric_graphs())
def test_aggregation_matches_numpy_reference_on_random_graphs(graph):
    assign, count = aggregate(graph)
    ref_assign, ref_count = greedy_aggregate(graph)
    assert count == ref_count
    assert np.array_equal(assign, ref_assign)


@st.composite
def directed_graphs(draw):
    """Strength graphs with one-way edges, tied weights and isolated nodes.

    Row i holds the edges out of node i, so an edge i -> j puts j in row i
    only; the nodes drawn as isolated keep no edge in either direction.
    """
    n = draw(st.integers(1, 40))
    node = st.integers(0, n - 1)
    isolated = draw(st.sets(node, max_size=n // 4 + 1))
    edges = draw(
        st.lists(st.tuples(node, node, st.sampled_from([1.0, 2.0])), max_size=3 * n)
    )
    edges = {(i, j): w for i, j, w in edges if i != j and not {i, j} & isolated}
    rows = [i for i, _ in edges]
    cols = [j for _, j in edges]
    graph = sp.coo_matrix((list(edges.values()), (rows, cols)), shape=(n, n)).tocsr()
    graph.sort_indices()
    return graph


@given(directed_graphs())
def test_aggregation_assigns_every_node_of_one_way_graphs(graph):
    # the reference keeps a last pass making singletons of unassigned nodes;
    # the package has none, so equal results show its two passes assign all
    assign, count = aggregate(graph)
    ref_assign, ref_count = greedy_aggregate(graph)
    assert count == ref_count
    assert np.array_equal(assign, ref_assign)
    assert np.all((0 <= assign) & (assign < count))


def test_tentative_prolongator_partition_of_unity():
    assign = np.array([0, 0, 1, 1, 1, 2, 2, 2])
    p = tentative_prolongator(assign, 3)
    assert p.shape == (8, 3)
    assert np.allclose(np.asarray(p.sum(axis=1)).ravel(), 1.0)


def test_smoothed_prolongator_preserves_constants():
    a = laplacian_1d(8, dirichlet=False)  # constant vector in the kernel
    s = aggregation_graph(a, 0.25)
    assign, count = aggregate(s)
    p0 = tentative_prolongator(assign, count)
    inv_diag = 1.0 / a.diagonal()
    p = smoothed_prolongator(a, p0, 0.5, inv_diag)
    # A @ ones = 0, so smoothing leaves the row sums at one
    assert np.allclose(np.asarray(p.sum(axis=1)).ravel(), 1.0, atol=1e-14)


def test_hierarchy_galerkin_property():
    a = laplacian_1d(200)
    hier = build_amg(a)
    assert [level.matrix.shape[0] for level in hier.levels] == [200, 67, 23]
    for fine, coarse in zip(hier.levels[:-1], hier.levels[1:]):
        expected = (fine.prolongator.T @ fine.matrix @ fine.prolongator).toarray()
        assert np.allclose(coarse.matrix.toarray(), expected, atol=1e-12)


def test_hierarchy_stops_on_stagnation():
    d = sp.diags(np.linspace(1.0, 3.0, 100)).tocsr()
    hier = build_amg(d)
    assert hier.n_levels == 1
    rhs = np.arange(100, dtype=float)
    x, trace = multigrid_solve(hier, rhs, rtol=1e-12)
    assert np.allclose(d @ x, rhs, atol=1e-12 * np.linalg.norm(rhs))
    assert len(trace) == 2  # direct coarse solve finishes in one cycle


def test_small_problem_is_direct():
    a = laplacian_1d(8)
    hier = build_amg(a)
    assert hier.n_levels == 1
    rhs = np.ones(8)
    x, _ = multigrid_solve(hier, rhs, rtol=1e-12)
    assert np.allclose(a @ x, rhs, atol=1e-12)


def test_singular_coarse_solve_consistent_rhs():
    a = laplacian_1d(8, dirichlet=False)
    hier = build_amg(a)
    rhs = np.array([1.0, -1.0, 0.5, -0.5, 0.25, -0.25, 1.0, -1.0])
    x, _ = multigrid_solve(hier, rhs, rtol=1e-10)
    assert np.allclose(a @ x, rhs, atol=1e-10)


def test_vcycle_contracts_poisson_3d():
    a = laplacian_3d(20)
    hier = build_amg(a)
    assert hier.n_levels >= 3
    rhs = np.zeros(a.shape[0])
    rng = np.random.default_rng(11)
    x = rng.standard_normal(a.shape[0])
    norms = [np.linalg.norm(x)]
    for _ in range(4):
        x = x + hier.vcycle(rhs - a @ x)
        norms.append(np.linalg.norm(x))
    ratios = [b / a_ for a_, b in zip(norms, norms[1:])]
    assert max(ratios) <= 0.5


def contrast_displacement_block(n, contrast):
    """u_x block of TPSA on an n^3 cube, mu jumping by `contrast` at x = 1/2."""
    mesh = build_cartesian(n, n, n)
    mu = np.where(mesh.cell_centers[:, 0] < 0.5, 1.0, contrast)
    matrix = assemble_tpsa(mesh, material(mesh, mu=mu)).matrix
    return matrix[: mesh.n_cells, : mesh.n_cells].tocsr()


@pytest.mark.parametrize(
    "make_matrix",
    [lambda: laplacian_3d(20), lambda: contrast_displacement_block(10, 1e4)],
    ids=["poisson-3d", "tpsa-mu-contrast"],
)
def test_jacobi_smoothing_never_raises_energy_error(make_matrix):
    # with rhs = 0 the iterate is the error, and a sweep maps e to
    # e - w A e; its A-norm must not grow, which fails if omega rho(D^-1 A)
    # reaches 2, as it may when the power iteration underestimates rho, so
    # the dominant mode is probed next to the random errors
    hier = build_amg(make_matrix())
    assert hier.n_levels >= 2
    rng = np.random.default_rng(21)
    for level in hier.levels[:-1]:
        a = level.matrix
        half = sp.diags(1.0 / np.sqrt(a.diagonal()))
        start = rng.standard_normal(a.shape[0])
        _, top = eigsh(half @ a @ half, k=1, which="LA", v0=start)
        errors = [*rng.standard_normal((10, a.shape[0])), half @ top[:, 0]]
        for e in errors:
            x = e + level.weight * (0.0 - a @ e)
            assert x @ (a @ x) <= e @ (a @ e)


def test_vcycle_makes_two_products_with_a_per_level():
    # one Jacobi sweep before and one after the coarse correction: the
    # residual before restriction and the post-sweep's take A, the pre-sweep
    # from zero takes none
    hier = build_amg(laplacian_3d(12))
    assert hier.n_levels >= 3
    want = hier.vcycle(np.ones(12**3))
    counted = hier.levels[:-1]
    for level in counted:
        level.matrix = CountingOperator(level.matrix)
        level.restriction = CountingOperator(level.restriction)
        level.prolongator = CountingOperator(level.prolongator)
    assert hier.vcycle(np.ones(12**3)).tobytes() == want.tobytes()
    products = [
        (lvl.matrix.products, lvl.restriction.products, lvl.prolongator.products)
        for lvl in counted
    ]
    assert products == [(2, 1, 1)] * len(counted)


def test_solve_reaches_tolerance_and_traces():
    a = laplacian_3d(12)
    hier = build_amg(a)
    rng = np.random.default_rng(4)
    rhs = rng.standard_normal(a.shape[0])
    x, trace = multigrid_solve(hier, rhs, rtol=1e-9)
    assert trace[-1] <= 1e-9 * trace[0]
    assert all(b < a_ for a_, b in zip(trace, trace[1:]))
    assert np.linalg.norm(a @ x - rhs) <= 1e-9 * np.linalg.norm(rhs) * 1.01


def test_preconditioner_action_is_symmetric():
    a = laplacian_3d(8)
    hier = build_amg(a)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(a.shape[0])
    v = rng.standard_normal(a.shape[0])
    left = u @ hier.vcycle(v)
    right = v @ hier.vcycle(u)
    assert left == pytest.approx(right, rel=1e-10)


def test_preconditioner_positive_on_random_probes():
    a = laplacian_3d(8)
    hier = build_amg(a)
    rng = np.random.default_rng(13)
    for _ in range(100):
        v = rng.standard_normal(a.shape[0])
        assert v @ hier.vcycle(v) > 0.0


def test_vcycle_linearity():
    a = laplacian_3d(6)
    hier = build_amg(a)
    rng = np.random.default_rng(1)
    x, y = rng.standard_normal((2, a.shape[0]))
    combo = hier.vcycle(0.7 * x - 2.0 * y)
    parts = 0.7 * hier.vcycle(x) - 2.0 * hier.vcycle(y)
    assert np.allclose(combo, parts, atol=1e-12 * np.linalg.norm(parts))


def test_displacement_block_solve():
    mesh = build_cartesian(6, 6, 6)
    n = mesh.n_cells
    system = assemble_tpsa(mesh, material(mesh, mu=2.0, lam=3.0))
    block = system.matrix[:n, :n].tocsr()
    hier = build_amg(block)
    rng = np.random.default_rng(7)
    rhs = rng.standard_normal(n)
    x, trace = multigrid_solve(hier, rhs, rtol=1e-10)
    assert np.linalg.norm(block @ x - rhs) <= 1e-9 * np.linalg.norm(rhs)


def test_zero_diagonal_rejected():
    a = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    big = sp.block_diag([a] * 40).tocsr()
    with pytest.raises(SolverError):
        build_amg(big)


def test_stalled_solve_raises_with_trace():
    a = laplacian_3d(12)
    hier = build_amg(a)
    rng = np.random.default_rng(4)
    rhs = rng.standard_normal(a.shape[0])
    with pytest.raises(SolverError) as err:
        multigrid_solve(hier, rhs, rtol=1e-14, max_cycles=2)
    assert len(err.value.trace) == 3

"""Elastic two-point discretization tests.

The 2-cell operator is checked entrywise against an independent scalar
hand assembly (tests/oracles.py), the vectorized assembly against a
brute-force local-to-global construction, and the kernel and covariance
properties against closed-form expectations.  Face stencils are read from
the per-face coefficient arrays the assembly itself uses.
"""

import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    assert_same_csr,
    cell_faces,
    face_duals,
    hand_assembled_two_cell,
    hand_skew,
    incidence_face_dual_map,
    incidence_tpsa_matrix,
    local_face_operator,
    material,
    product_rescale,
)

from biotfv.app.config import BoundarySpec, parse_config
from biotfv.linsolve.blocks import rescale
from biotfv.mesh import (
    build_barrier_mesh,
    build_cartesian,
    face_normal_distances,
)
from biotfv.tpfa import assemble_flow
from biotfv.tpsa import (
    assemble_rhs,
    assemble_tpsa,
    _face_dual_map,
    mean_shear_modulus,
    stencil_arrays,
)


# ----------------------------------------------------------- skew oracle


@settings(max_examples=50, deadline=None)
@given(
    a=st.tuples(*[st.floats(-10, 10) for _ in range(3)]),
    b=st.tuples(*[st.floats(-10, 10) for _ in range(3)]),
)
def test_skew_is_cross_product(a, b):
    a, b = np.array(a), np.array(b)
    assert np.allclose(hand_skew(a) @ b, np.cross(a, b), atol=1e-12)


# ---------------------------------------------------------- face stencils


def _stencil(mesh, face, props):
    """Stencil coefficients of one face, indexed from the per-face arrays."""
    return {key: float(value[face]) for key, value in stencil_arrays(mesh, props).items()}


def test_interior_stencil_uniform():
    # w = delta / mu = 0.25 on both sides: delta_total 0.5, mu_eff 1 and
    # stab = w_in w_out mu_eff / 2 = 1/32
    mesh = build_cartesian(2, 1, 1)
    props = material(mesh, mu=1.0)
    k = int(mesh.interior_faces[0])
    st_ = _stencil(mesh, k, props)
    assert set(st_) == {"at_in", "at_out", "g_u", "g_p"}
    assert (st_["at_in"], st_["at_out"]) == pytest.approx((0.5, 0.5))
    assert st_["g_u"] == pytest.approx(2.0 * 1.0 / 0.5)  # 2 mu_eff / delta_total
    assert st_["g_p"] == pytest.approx((0.5 * 0.25 * 0.25 * 1.0) / 0.5)  # stab / delta


def test_interior_stencil_heterogeneous():
    # mu = (1, 3), equal distances: w = (1/4, 1/12), weighted harmonic
    # average mu_eff = delta_total / (w_in + w_out) = 1.5
    mesh = build_cartesian(2, 1, 1)
    props = material(mesh, mu=np.array([1.0, 3.0]))
    st_ = _stencil(mesh, int(mesh.interior_faces[0]), props)
    assert st_["g_u"] == pytest.approx(2.0 * 1.5 / 0.5)
    assert st_["g_p"] == pytest.approx(0.5 * 0.25 * (0.25 / 3.0) * 1.5 / 0.5)
    # own-weight average leans toward the larger w; the opposite-weight
    # average takes the same two weights swapped
    assert (st_["at_in"], st_["at_out"]) == pytest.approx((0.75, 0.25))
    assert st_["at_in"] + st_["at_out"] == pytest.approx(1.0)


def test_fixed_boundary_stencil():
    # w_out = 0: delta_total = d_in = 0.5, mu_eff = mu = 2, stab = 0
    mesh = build_cartesian(1, 1, 1)
    props = material(mesh, mu=2.0)
    k = int(mesh.boundary_faces[0])
    st_ = _stencil(mesh, k, props)
    # avg~ takes the inside value, avg (weights swapped) the outside value 0
    assert (st_["at_in"], st_["at_out"]) == pytest.approx((1.0, 0.0))
    assert st_["g_u"] == pytest.approx(2.0 * 2.0 / 0.5)
    assert st_["g_p"] == 0.0


def test_free_boundary_stencil():
    # w_out -> inf: mu_eff -> 0 and stab / delta_total -> w_in / 2
    mesh = build_cartesian(1, 1, 1)
    props = material(mesh, mu=2.0, w_out=np.inf)
    st_ = _stencil(mesh, int(mesh.boundary_faces[0]), props)
    # avg~ takes the outside value 0, avg (weights swapped) the inside value
    assert (st_["at_in"], st_["at_out"]) == pytest.approx((0.0, 1.0))
    assert st_["g_u"] == 0.0
    assert st_["g_p"] == pytest.approx(0.5 * (0.5 / 2.0))


def test_robin_boundary_stencil():
    # w_in = 0.5, w_out = delta / mu_r = 0.05, delta_total = 0.5 + 0.1
    mesh = build_cartesian(1, 1, 1)
    props = material(mesh, mu=1.0, w_out=0.1 / 2.0)
    st_ = _stencil(mesh, int(mesh.boundary_faces[0]), props)
    assert st_["at_in"] + st_["at_out"] == pytest.approx(1.0)
    assert st_["at_out"] == pytest.approx(0.05 / (0.5 + 0.05))
    mu_eff = 0.6 / (0.5 + 0.05)
    assert st_["g_u"] == pytest.approx(2.0 * mu_eff / 0.6)
    assert st_["g_p"] == pytest.approx(0.5 * 0.5 * 0.05 * mu_eff / 0.6)


def test_stabilization_scales_with_h_squared():
    def stab(mesh):
        k = int(mesh.interior_faces[0])
        d_in, d_out = face_normal_distances(mesh)
        return _stencil(mesh, k, material(mesh))["g_p"] * (d_in[k] + d_out[k])

    coarse = stab(build_cartesian(2, 2, 2))
    fine = stab(build_cartesian(4, 4, 4))
    assert fine == pytest.approx(coarse / 4.0, rel=1e-12)


def test_large_outside_weight_approaches_free_operator():
    # the traction-free closure is the analytic w_out -> inf limit
    mesh = build_cartesian(3, 2, 2, lengths=(1.5, 1.0, 0.8))
    mu = np.linspace(1.0, 2.0, mesh.n_cells)
    lam = np.full(mesh.n_cells, 1.5)
    free = assemble_tpsa(mesh, material(mesh, mu=mu, lam=lam, w_out=np.inf)).matrix
    near = assemble_tpsa(mesh, material(mesh, mu=mu, lam=lam, w_out=1e8)).matrix
    assert abs(near - free).max() <= 1e-6 * abs(free).max()
    assert abs(near - free).max() > 0.0  # a finite weight, not the limit itself


# ------------------------------------------------------ local operators


def test_local_operator_translation():
    mesh = build_cartesian(2, 1, 1)
    props = material(mesh)
    k = int(mesh.interior_faces[0])
    L = local_face_operator(mesh, k, props)
    c = np.array([0.3, -1.2, 2.0])
    state = np.concatenate([c, np.zeros(3), [0.0], c, np.zeros(3), [0.0]])
    duals = L @ state
    a = mesh.face_areas[k]
    n = mesh.face_normals[k]
    assert np.allclose(duals[0:3], 0.0, atol=1e-14)  # no stress
    assert np.allclose(duals[3:6], -a * hand_skew(n) @ c, atol=1e-14)
    assert duals[6] == pytest.approx(a * np.dot(n, c))


def test_local_operator_pressure_jump():
    mesh = build_cartesian(2, 1, 1)
    props = material(mesh)
    k = int(mesh.interior_faces[0])
    L = local_face_operator(mesh, k, props)
    # equal pressures: stress picks up n * p, volume flux sees no jump
    state = np.zeros(14)
    state[6] = state[13] = 2.0
    duals = L @ state
    n = mesh.face_normals[k]
    assert np.allclose(duals[0:3], mesh.face_areas[k] * n * 2.0, atol=1e-14)
    assert duals[6] == pytest.approx(0.0)
    # pure jump drives the stabilized volume flux
    state = np.zeros(14)
    state[13] = 1.0
    duals = L @ state
    assert duals[6] == pytest.approx(mesh.face_areas[k] * 0.0625)


def test_local_operator_zero_state():
    mesh = build_cartesian(2, 1, 1)
    props = material(mesh)
    for k in range(mesh.n_faces):
        L = local_face_operator(mesh, k, props)
        assert np.allclose(L @ np.zeros(L.shape[1]), 0.0)


# ----------------------------------------------------------- assembly


def _global_from_local(mesh, props):
    """Brute-force reference: scatter local face operators plus mass."""
    n = mesh.n_cells
    mu, lam = props.mu, props.lam
    M = np.zeros((7 * n, 7 * n))

    def dofs(cell):
        return [f * n + cell for f in range(7)]

    for k in range(mesh.n_faces):
        L = local_face_operator(mesh, k, props)
        i, j = mesh.face_cells[k]
        cols = dofs(i) + (dofs(j) if j >= 0 else [])
        M[np.ix_(dofs(i), cols)] += -1.0 * L  # eps_ik = +1
        if j >= 0:
            M[np.ix_(dofs(j), cols)] += +1.0 * L  # eps_jk = -1
    for c in range(n):
        for d in range(3):
            M[(3 + d) * n + c, (3 + d) * n + c] += mesh.cell_volumes[c] / mu[c]
        M[6 * n + c, 6 * n + c] += mesh.cell_volumes[c] / lam[c]
    return M


def test_assembly_matches_local_operators():
    mesh = build_cartesian(2, 2, 2, lengths=(1.0, 2.0, 0.5))
    rng = np.random.default_rng(3)
    props = material(mesh, mu=rng.uniform(0.5, 3.0, mesh.n_cells), lam=2.0)
    system = assemble_tpsa(mesh, props)
    reference = _global_from_local(mesh, props)
    scale = np.abs(reference).max()
    assert np.allclose(system.matrix.toarray(), reference, atol=1e-13 * scale)


def test_assembly_matches_hand_oracle():
    mu = np.array([1.3, 0.6])
    lam = np.array([2.0, 4.5])
    mesh = build_cartesian(2, 1, 1)
    props = material(mesh, mu=mu, lam=lam)
    system = assemble_tpsa(mesh, props)
    reference = hand_assembled_two_cell(mu, lam)
    scale = np.abs(reference).max()
    assert np.allclose(system.matrix.toarray(), reference, atol=1e-12 * scale)


def test_hand_oracle_frozen_entries():
    # spot values computed by hand for mu = lam = 1
    M = hand_assembled_two_cell(np.ones(2), np.ones(2))
    n = 2

    def dof(f, c):
        return f * n + c

    assert M[dof(0, 0), dof(0, 1)] == pytest.approx(-4.0)
    assert M[dof(0, 0), dof(0, 0)] == pytest.approx(20.0)
    assert M[dof(3, 0), dof(3, 0)] == pytest.approx(0.5)  # rotation mass
    assert M[dof(6, 0), dof(6, 0)] == pytest.approx(0.5625)
    assert M[dof(6, 0), dof(6, 1)] == pytest.approx(-0.0625)
    assert M[dof(0, 0), dof(6, 0)] == pytest.approx(0.5)
    assert M[dof(0, 0), dof(6, 1)] == pytest.approx(-0.5)
    assert M[dof(6, 0), dof(0, 0)] == pytest.approx(-0.5)


def test_single_cell_free_reduces_to_mass_plus_stabilization():
    mesh = build_cartesian(1, 1, 1)
    props = material(mesh, mu=2.0, lam=5.0, w_out=np.inf)
    M = assemble_tpsa(mesh, props).matrix.toarray()
    expected = np.zeros((7, 7))
    for d in range(3):
        expected[3 + d, 3 + d] = 1.0 / 2.0
    # momentum rows vanish (zero traction); the volume-flux stabilization
    # survives the free limit with weight w_in / 2 per face
    w_in = 0.5 / 2.0
    expected[6, 6] = 1.0 / 5.0 + 6 * 1.0 * (w_in / 2.0)
    assert np.allclose(M, expected, atol=1e-14)


def test_translation_kernel_all_free():
    mesh = build_cartesian(3, 2, 2, lengths=(1.5, 1.0, 0.8))
    props = material(mesh, mu=1.7, lam=0.9, w_out=np.inf)
    system = assemble_tpsa(mesh, props)
    n = mesh.n_cells
    x = np.zeros(7 * n)
    shift = np.array([0.4, -1.1, 0.7])
    for c in range(3):
        x[c * n : (c + 1) * n] = shift[c]
    resid = system.matrix @ x
    bound = 1e-12 * np.abs(system.matrix).max() * np.linalg.norm(x)
    assert np.linalg.norm(resid) <= bound


def test_rigid_system_with_fixed_boundary_is_nonsingular():
    mesh = build_cartesian(2, 2, 2)
    props = material(mesh)
    M = assemble_tpsa(mesh, props).matrix.toarray()
    assert np.linalg.matrix_rank(M) == M.shape[0]


def test_block_structure():
    mesh = build_cartesian(2, 2, 1)
    props = material(mesh)
    system = assemble_tpsa(mesh, props)
    M = system.matrix.toarray()
    n = mesh.n_cells
    # displacement rows do not couple components through u columns
    for a in range(3):
        for b in range(3):
            if a != b:
                assert np.all(M[a * n : (a + 1) * n, b * n : (b + 1) * n] == 0.0)
    # rotation-rotation block is diagonal, rotation-pressure empty
    rr = M[3 * n : 6 * n, 3 * n : 6 * n]
    assert np.allclose(rr, np.diag(np.diag(rr)))
    assert np.all(M[3 * n : 6 * n, 6 * n :] == 0.0)
    assert np.all(M[6 * n :, 3 * n : 6 * n] == 0.0)


CASES = Path(__file__).resolve().parent.parent / "cases"


def _shipped_config(name, cells=None, boundaries=None):
    """A shipped case's config, optionally on (nx, ny, nz) cells or other
    walls; wells are dropped, since they leave the elastic matrix alone."""
    cfg = parse_config(CASES / f"{name}.cfg")
    if cells is not None:
        cfg.mesh.nx, cfg.mesh.ny, cfg.mesh.nz = cells
        if cfg.mesh.barrier_index is not None:
            cfg.mesh.barrier_index = cells[0] // 2
    if boundaries is not None:
        cfg.boundaries = boundaries
    cfg.wells = []
    return cfg


ROBIN_FREE_TOP = BoundarySpec("robin", z_max="free", robin_delta=10.0, robin_mu=1e9)


@pytest.mark.parametrize(
    "name, cells, boundaries",
    [
        ("barrier", None, None),
        ("barrier", (6, 6, 2), None),
        ("barrier", (6, 6, 2), ROBIN_FREE_TOP),
        ("manufactured", (8, 8, 8), None),
    ],
    ids=["barrier", "barrier-6x6x2-clamped", "barrier-6x6x2-robin-free", "manufactured-8"],
)
def test_rescaled_displacement_blocks_are_identical(name, cells, boundaries):
    # each displacement component sees the same scalar stencil, so one
    # multigrid hierarchy could serve all three blocks
    case = _shipped_config(name, cells, boundaries).build_case()
    system = assemble_tpsa(case.mesh, case.props)
    matrix, _ = rescale(system, mean_shear_modulus(case.mesh, case.props))
    n = case.mesh.n_cells
    blocks = [matrix[c * n : (c + 1) * n, c * n : (c + 1) * n].tocsr() for c in range(3)]
    for block in blocks[1:]:
        assert np.array_equal(block.indptr, blocks[0].indptr)
        assert np.array_equal(block.indices, blocks[0].indices)
        assert np.array_equal(block.data, blocks[0].data)


@pytest.mark.parametrize(
    "name, cells, boundaries, random_moduli",
    [
        ("manufactured", (8, 8, 8), None, False),
        ("barrier", None, None, False),
        ("barrier", None, ROBIN_FREE_TOP, False),
        ("barrier", None, None, True),
        ("manufactured", (3, 3, 3), None, False),
        ("barrier", (6, 6, 2), None, False),
        ("barrier", (6, 6, 2), ROBIN_FREE_TOP, False),
        ("barrier", (6, 6, 2), BoundarySpec("free"), False),
    ],
    ids=[
        "manufactured-8", "barrier", "barrier-robin-free", "barrier-random-moduli",
        "manufactured-3", "barrier-6x6x2", "barrier-6x6x2-robin-free",
        "barrier-6x6x2-free",
    ],
)
def test_assembly_matches_the_incidence_oracle_bitwise(
    name, cells, boundaries, random_moduli
):
    # keeping each entry array's nonzeros as it is made gives the same
    # entries in the same order as dropping the zeros after concatenation,
    # so G and the operator come out bit for bit the same CSR; the balance
    # made from div's arrays gives kron(I_7, div)'s, and rescaling the
    # stored entries the two products L M L.  All-free walls, which no
    # case accepts, still assemble
    cfg = _shipped_config(name, cells, boundaries)
    mesh = cfg.build_mesh()
    props = replace(cfg.props, w_out=cfg.boundaries.build(mesh)).validate(mesh)
    if random_moduli:  # per-cell moduli spanning two decades
        rng = np.random.default_rng(11)
        n = mesh.n_cells
        props = material(
            mesh, mu=10.0 ** rng.uniform(8, 10, n), lam=10.0 ** rng.uniform(8, 10, n)
        )
    system = assemble_tpsa(mesh, props)
    mu0 = mean_shear_modulus(mesh, props)
    assert_same_csr(_face_dual_map(mesh, props), incidence_face_dual_map(mesh, props))
    assert_same_csr(system.matrix, incidence_tpsa_matrix(mesh, props))
    assert_same_csr(rescale(system, mu0)[0], product_rescale(system, mu0))


def test_assembly_peak_memory_is_a_few_operators():
    # the face-dual map keeps only nonzero entries as it builds them; the
    # 16^3 assembly used to peak at 7.5 times the operator's CSR bytes
    mesh = build_cartesian(16, 16, 16)
    props = material(mesh)
    assemble_tpsa(mesh, props)  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        matrix = assemble_tpsa(mesh, props).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    csr_bytes = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
    assert peak <= 5 * csr_bytes, peak / csr_bytes


def test_scaling_covariance():
    mesh = build_cartesian(2, 2, 2)
    rng = np.random.default_rng(5)
    f_u = rng.standard_normal((mesh.n_cells, 3))
    s = 7.0
    p1 = material(mesh, mu=1.3, lam=2.7, f_u=f_u)
    p2 = material(mesh, mu=1.3 * s, lam=2.7 * s, f_u=f_u * s)
    x1 = np.linalg.solve(assemble_tpsa(mesh, p1).matrix.toarray(), assemble_rhs(mesh, p1))
    x2 = np.linalg.solve(assemble_tpsa(mesh, p2).matrix.toarray(), assemble_rhs(mesh, p2))
    n = mesh.n_cells
    assert np.allclose(x2[: 3 * n], x1[: 3 * n], rtol=1e-10)
    assert np.allclose(x2[3 * n :], s * x1[3 * n :], rtol=1e-10)


def test_robin_approaches_fixed():
    mesh = build_cartesian(2, 2, 2)
    fixed = assemble_tpsa(mesh, material(mesh, mu=1.0)).matrix.toarray()
    robin = assemble_tpsa(
        mesh, material(mesh, mu=1.0, w_out=1e-8 * 0.25 / 1.0)
    ).matrix.toarray()
    scale = np.abs(fixed).max()
    assert np.allclose(robin, fixed, atol=1e-6 * scale)


def test_mean_shear_modulus():
    mesh = build_cartesian(2, 1, 1)
    props = material(mesh, mu=np.array([1.0, 3.0]))
    assert mean_shear_modulus(mesh, props) == pytest.approx(2.0)


# ------------------------------------------------------- dual recovery


def _duals(mesh, props, x):
    """(sigma, tau, v) per face: the assembly's face map G applied to x."""
    duals = (_face_dual_map(mesh, props) @ x).reshape(7, mesh.n_faces)
    return duals[0:3].T, duals[3:6].T, duals[6]


def test_recover_duals_zero():
    mesh = build_cartesian(2, 2, 1)
    props = material(mesh)
    for dual in _duals(mesh, props, np.zeros(7 * mesh.n_cells)):
        assert np.all(dual == 0.0)


def test_recover_duals_translation_closed_surface():
    mesh = build_cartesian(2, 2, 2)
    props = material(mesh, w_out=np.inf)
    n = mesh.n_cells
    x = np.zeros(7 * n)
    for c, val in enumerate([1.0, 2.0, -0.5]):
        x[c * n : (c + 1) * n] = val
    sigma, tau, v = _duals(mesh, props, x)
    assert np.allclose(sigma, 0.0, atol=1e-13)
    # per-cell sums of signed duals vanish by the closed-surface identity
    for cell in range(n):
        acc_tau = np.zeros(3)
        acc_v = 0.0
        for k, eps in cell_faces(mesh, cell):
            acc_tau += eps * tau[k]
            acc_v += eps * v[k]
        assert np.allclose(acc_tau, 0.0, atol=1e-12)
        assert acc_v == pytest.approx(0.0, abs=1e-12)


def test_recover_duals_consistent_with_assembly():
    mesh = build_cartesian(3, 2, 2, lengths=(1.0, 0.7, 1.3))
    rng = np.random.default_rng(9)
    props = material(mesh, mu=rng.uniform(0.5, 2.0, mesh.n_cells), lam=1.4)
    system = assemble_tpsa(mesh, props)
    x = rng.standard_normal(7 * mesh.n_cells)
    sigma, tau, v = _duals(mesh, props, x)
    n = mesh.n_cells
    mu, lam = props.mu, props.lam
    flux = system.matrix @ x
    # subtract mass terms to isolate the dual sums
    for c in range(3):
        flux[(3 + c) * n : (4 + c) * n] -= mesh.cell_volumes / mu * x[(3 + c) * n : (4 + c) * n]
    flux[6 * n :] -= mesh.cell_volumes / lam * x[6 * n :]
    scale = np.abs(flux).max()
    for cell in range(n):
        acc = np.zeros(7)
        for k, eps in cell_faces(mesh, cell):
            acc[0:3] += eps * sigma[k]
            acc[3:6] += eps * tau[k]
            acc[6] += eps * v[k]
        expected = np.array([flux[f * n + cell] for f in range(7)])
        assert np.allclose(-acc, expected, atol=1e-12 * max(scale, 1.0))


@pytest.mark.parametrize("boundary", ["fixed", "free", "robin"])
def test_recover_duals_matches_face_formulas(boundary):
    mesh = build_cartesian(3, 2, 2, lengths=(1.0, 0.7, 1.3))
    rng = np.random.default_rng(11)
    w_out = {"fixed": 0.0, "free": np.inf, "robin": 0.1 / 2.0}[boundary]
    mu = rng.uniform(0.5, 3.0, mesh.n_cells)
    props = material(mesh, mu=mu, lam=1.4, w_out=w_out)
    x = rng.standard_normal(7 * mesh.n_cells)
    got = _duals(mesh, props, x)
    want = face_duals(mesh, props, x)
    scale = max(np.abs(dual).max() for dual in want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.allclose(g, w, rtol=0.0, atol=1e-13 * scale)


def test_operators_store_no_explicit_zeros():
    for w_out in (0.0, np.inf):  # fixed, free
        mesh = build_cartesian(3, 2, 2)
        props = material(mesh, mu=np.linspace(0.5, 2.0, mesh.n_cells), w_out=w_out)
        matrix = assemble_tpsa(mesh, props).matrix
        assert np.all(matrix.data != 0.0), w_out
    # sealed barrier faces carry zero transmissibility
    mesh = build_barrier_mesh(6, 4, 2, axis=0, index=3)
    matrix = assemble_flow(mesh, material(mesh))
    assert np.all(matrix.data != 0.0)


def test_rhs_assembly():
    mesh = build_cartesian(2, 1, 1)
    f_u = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    props = material(mesh, f_u=f_u)
    rhs = assemble_rhs(mesh, props, pressure_coupling=np.array([10.0, 20.0]))
    n = 2
    vol = 0.5
    for c in range(3):
        assert np.allclose(rhs[c * n : (c + 1) * n], vol * f_u[:, c])
    assert np.all(rhs[3 * n : 6 * n] == 0.0)
    assert np.allclose(rhs[6 * n :], vol * np.array([10.0, 20.0]))


def test_rhs_block_matches_single_columns_bitwise():
    # the k single-column right-hand sides of a (k, n) block of densities,
    # stacked, are the (7n, k) block: the body-force rows repeated and the
    # volume-scaled densities on the pressure rows, bit for bit
    rng = np.random.default_rng(3)
    mesh = build_cartesian(3, 2, 2, lengths=(1.0, 0.7, 1.3))
    n = mesh.n_cells
    props = material(mesh, f_u=rng.standard_normal((n, 3)))
    block = rng.standard_normal((4, n))
    columns = [assemble_rhs(mesh, props, pressure_coupling=row) for row in block]
    assert all(column.shape == (7 * n,) for column in columns)
    expected = np.repeat(assemble_rhs(mesh, props)[:, None], 4, axis=1)
    expected[6 * n :] = mesh.cell_volumes[:, None] * block.T
    assert np.array_equal(np.stack(columns, axis=1), expected)
    # no density is a zero density
    zero = assemble_rhs(mesh, props, pressure_coupling=np.zeros(n))
    assert np.array_equal(assemble_rhs(mesh, props), zero)

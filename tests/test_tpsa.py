"""Elastic two-point discretization tests.

The 2-cell operator is checked entrywise against an independent scalar
hand assembly (tests/oracles.py), the vectorized assembly against a
brute-force local-to-global construction, and the kernel and covariance
properties against closed-form expectations.  Face stencils are read from
the per-face coefficient arrays the assembly itself uses.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    cell_faces,
    face_duals,
    hand_assembled_two_cell,
    hand_skew,
    local_face_operator,
)

from biotfv.mesh import build_barrier_mesh, build_cartesian, per_cell
from biotfv.tpfa import FlowProperties, assemble_flow
from biotfv.tpsa import (
    ElasticProperties,
    MechBoundary,
    _stencil_arrays,
    assemble_rhs,
    assemble_tpsa,
    mean_shear_modulus,
    recover_duals,
)


def _props(mesh, mu=1.0, lam=1.0, boundary="fixed", **kw):
    if boundary == "fixed":
        bc = MechBoundary.fixed(mesh)
    elif boundary == "free":
        bc = MechBoundary.free(mesh)
    else:
        bc = MechBoundary.robin(mesh, kw.pop("delta"), kw.pop("mu_r"))
    n = mesh.n_cells
    return ElasticProperties(
        mu=np.broadcast_to(np.asarray(mu, dtype=float), (n,)).copy(),
        lam=np.broadcast_to(np.asarray(lam, dtype=float), (n,)).copy(),
        boundary=bc,
        **kw,
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
    return {key: float(value[face]) for key, value in _stencil_arrays(mesh, props).items()}


def test_interior_stencil_uniform():
    mesh = build_cartesian(2, 1, 1)
    props = _props(mesh, mu=1.0)
    k = int(mesh.interior_faces[0])
    st_ = _stencil(mesh, k, props)
    assert st_["w_in"] == pytest.approx(0.25)
    assert st_["w_out"] == pytest.approx(0.25)
    assert st_["mu_eff"] == pytest.approx(1.0)
    assert st_["delta_total"] == pytest.approx(0.5)
    assert st_["stab_weight"] == pytest.approx(0.5 * 0.25 * 0.25 * 1.0)
    assert (st_["at_in"], st_["at_out"]) == pytest.approx((0.5, 0.5))
    assert st_["g_u"] == pytest.approx(4.0)
    assert st_["g_p"] == pytest.approx(0.0625)


def test_interior_stencil_heterogeneous():
    # mu = (1, 3), equal distances: weighted harmonic average 1.5
    mesh = build_cartesian(2, 1, 1)
    props = _props(mesh, mu=np.array([1.0, 3.0]))
    st_ = _stencil(mesh, int(mesh.interior_faces[0]), props)
    assert st_["w_in"] == pytest.approx(0.25)
    assert st_["w_out"] == pytest.approx(0.25 / 3.0)
    assert st_["mu_eff"] == pytest.approx(1.5)
    # own-weight average leans toward the larger w; the opposite-weight
    # average takes the same two weights swapped
    assert (st_["at_in"], st_["at_out"]) == pytest.approx((0.75, 0.25))
    assert st_["at_in"] + st_["at_out"] == pytest.approx(1.0)


def test_fixed_boundary_stencil():
    mesh = build_cartesian(1, 1, 1)
    props = _props(mesh, mu=2.0)
    k = int(mesh.boundary_faces[0])
    st_ = _stencil(mesh, k, props)
    assert st_["w_out"] == 0.0
    # avg~ takes the inside value, avg (weights swapped) the outside value 0
    assert (st_["at_in"], st_["at_out"]) == pytest.approx((1.0, 0.0))
    assert st_["mu_eff"] == pytest.approx(2.0)
    assert st_["stab_weight"] == 0.0
    assert st_["g_u"] == pytest.approx(2.0 * 2.0 / 0.5)
    assert st_["g_p"] == 0.0


def test_free_boundary_stencil():
    mesh = build_cartesian(1, 1, 1)
    props = _props(mesh, mu=2.0, boundary="free")
    st_ = _stencil(mesh, int(mesh.boundary_faces[0]), props)
    assert np.isinf(st_["w_out"])
    # avg~ takes the outside value 0, avg (weights swapped) the inside value
    assert (st_["at_in"], st_["at_out"]) == pytest.approx((0.0, 1.0))
    assert st_["g_u"] == 0.0
    assert st_["g_p"] == pytest.approx(0.5 * st_["w_in"])


def test_robin_boundary_stencil():
    mesh = build_cartesian(1, 1, 1)
    props = _props(mesh, mu=1.0, boundary="robin", delta=0.1, mu_r=2.0)
    st_ = _stencil(mesh, int(mesh.boundary_faces[0]), props)
    assert st_["w_out"] == pytest.approx(0.05)
    assert st_["delta_total"] == pytest.approx(0.6)
    assert st_["at_in"] + st_["at_out"] == pytest.approx(1.0)
    assert st_["at_out"] == pytest.approx(0.05 / (0.5 + 0.05))


def test_stabilization_scales_with_h_squared():
    coarse = build_cartesian(2, 2, 2)
    fine = build_cartesian(4, 4, 4)
    pc = _props(coarse)
    pf = _props(fine)
    sc = _stencil(coarse, int(coarse.interior_faces[0]), pc)
    sf = _stencil(fine, int(fine.interior_faces[0]), pf)
    assert sf["stab_weight"] == pytest.approx(sc["stab_weight"] / 4.0, rel=1e-12)


# ------------------------------------------------------ local operators


def test_local_operator_translation():
    mesh = build_cartesian(2, 1, 1)
    props = _props(mesh)
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
    props = _props(mesh)
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
    props = _props(mesh)
    for k in range(mesh.n_faces):
        L = local_face_operator(mesh, k, props)
        assert np.allclose(L @ np.zeros(L.shape[1]), 0.0)


# ----------------------------------------------------------- assembly


def _global_from_local(mesh, props):
    """Brute-force reference: scatter local face operators plus mass."""
    n = mesh.n_cells
    mu, lam = per_cell(props.mu, n), per_cell(props.lam, n)
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
    props = _props(mesh, mu=rng.uniform(0.5, 3.0, mesh.n_cells), lam=2.0)
    system = assemble_tpsa(mesh, props)
    reference = _global_from_local(mesh, props)
    scale = np.abs(reference).max()
    assert np.allclose(system.matrix.toarray(), reference, atol=1e-13 * scale)


def test_assembly_matches_hand_oracle():
    mu = np.array([1.3, 0.6])
    lam = np.array([2.0, 4.5])
    mesh = build_cartesian(2, 1, 1)
    props = _props(mesh, mu=mu, lam=lam)
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
    props = _props(mesh, mu=2.0, lam=5.0, boundary="free")
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
    props = _props(mesh, mu=1.7, lam=0.9, boundary="free")
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
    props = _props(mesh)
    M = assemble_tpsa(mesh, props).matrix.toarray()
    assert np.linalg.matrix_rank(M) == M.shape[0]


def test_block_structure():
    mesh = build_cartesian(2, 2, 1)
    props = _props(mesh)
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


def test_scaling_covariance():
    mesh = build_cartesian(2, 2, 2)
    rng = np.random.default_rng(5)
    f_u = rng.standard_normal((mesh.n_cells, 3))
    s = 7.0
    p1 = _props(mesh, mu=1.3, lam=2.7, f_u=f_u)
    p2 = _props(mesh, mu=1.3 * s, lam=2.7 * s, f_u=f_u * s)
    x1 = np.linalg.solve(assemble_tpsa(mesh, p1).matrix.toarray(), assemble_rhs(mesh, p1))
    x2 = np.linalg.solve(assemble_tpsa(mesh, p2).matrix.toarray(), assemble_rhs(mesh, p2))
    n = mesh.n_cells
    assert np.allclose(x2[: 3 * n], x1[: 3 * n], rtol=1e-10)
    assert np.allclose(x2[3 * n :], s * x1[3 * n :], rtol=1e-10)


def test_robin_approaches_fixed():
    mesh = build_cartesian(2, 2, 2)
    fixed = assemble_tpsa(mesh, _props(mesh, mu=1.0)).matrix.toarray()
    robin = assemble_tpsa(
        mesh, _props(mesh, mu=1.0, boundary="robin", delta=1e-8 * 0.25, mu_r=1.0)
    ).matrix.toarray()
    scale = np.abs(fixed).max()
    assert np.allclose(robin, fixed, atol=1e-6 * scale)


def test_mean_shear_modulus():
    mesh = build_cartesian(2, 1, 1)
    props = _props(mesh, mu=np.array([1.0, 3.0]))
    assert mean_shear_modulus(mesh, props) == pytest.approx(2.0)


@pytest.mark.parametrize("field", ["mu", "lam"])
def test_elastic_properties_reject_nonpositive_lame(field):
    mesh = build_cartesian(2, 1, 1)
    with pytest.raises(ValueError, match="Lame parameters must be positive"):
        _props(mesh, **{field: np.array([1.0, 0.0])})


# ------------------------------------------------------- dual recovery


def test_recover_duals_zero():
    mesh = build_cartesian(2, 2, 1)
    props = _props(mesh)
    duals = recover_duals(mesh, props, np.zeros(7 * mesh.n_cells))
    assert np.all(duals.sigma == 0.0)
    assert np.all(duals.tau == 0.0)
    assert np.all(duals.v == 0.0)


def test_recover_duals_translation_closed_surface():
    mesh = build_cartesian(2, 2, 2)
    props = _props(mesh, boundary="free")
    n = mesh.n_cells
    x = np.zeros(7 * n)
    for c, val in enumerate([1.0, 2.0, -0.5]):
        x[c * n : (c + 1) * n] = val
    duals = recover_duals(mesh, props, x)
    assert np.allclose(duals.sigma, 0.0, atol=1e-13)
    # per-cell sums of signed duals vanish by the closed-surface identity
    for cell in range(n):
        acc_tau = np.zeros(3)
        acc_v = 0.0
        for k, eps in cell_faces(mesh, cell):
            acc_tau += eps * duals.tau[k]
            acc_v += eps * duals.v[k]
        assert np.allclose(acc_tau, 0.0, atol=1e-12)
        assert acc_v == pytest.approx(0.0, abs=1e-12)


def test_recover_duals_consistent_with_assembly():
    mesh = build_cartesian(3, 2, 2, lengths=(1.0, 0.7, 1.3))
    rng = np.random.default_rng(9)
    props = _props(mesh, mu=rng.uniform(0.5, 2.0, mesh.n_cells), lam=1.4)
    system = assemble_tpsa(mesh, props)
    x = rng.standard_normal(7 * mesh.n_cells)
    duals = recover_duals(mesh, props, x)
    n = mesh.n_cells
    mu, lam = per_cell(props.mu, n), per_cell(props.lam, n)
    flux = system.matrix @ x
    # subtract mass terms to isolate the dual sums
    for c in range(3):
        flux[(3 + c) * n : (4 + c) * n] -= mesh.cell_volumes / mu * x[(3 + c) * n : (4 + c) * n]
    flux[6 * n :] -= mesh.cell_volumes / lam * x[6 * n :]
    scale = np.abs(flux).max()
    for cell in range(n):
        acc = np.zeros(7)
        for k, eps in cell_faces(mesh, cell):
            acc[0:3] += eps * duals.sigma[k]
            acc[3:6] += eps * duals.tau[k]
            acc[6] += eps * duals.v[k]
        expected = np.array([flux[f * n + cell] for f in range(7)])
        assert np.allclose(-acc, expected, atol=1e-12 * max(scale, 1.0))


@pytest.mark.parametrize("boundary", ["fixed", "free", "robin"])
def test_recover_duals_matches_face_formulas(boundary):
    mesh = build_cartesian(3, 2, 2, lengths=(1.0, 0.7, 1.3))
    rng = np.random.default_rng(11)
    props = _props(
        mesh, mu=rng.uniform(0.5, 3.0, mesh.n_cells), lam=1.4, boundary=boundary,
        **({"delta": 0.1, "mu_r": 2.0} if boundary == "robin" else {}),
    )
    x = rng.standard_normal(7 * mesh.n_cells)
    duals = recover_duals(mesh, props, x)
    sigma, tau, v = face_duals(mesh, props, x)
    assert duals.sigma.shape == sigma.shape and duals.tau.shape == tau.shape
    scale = max(np.abs(sigma).max(), np.abs(tau).max(), np.abs(v).max())
    for got, want in ((duals.sigma, sigma), (duals.tau, tau), (duals.v, v)):
        assert np.allclose(got, want, rtol=0.0, atol=1e-13 * scale)


def test_operators_store_no_explicit_zeros():
    for boundary in ("fixed", "free"):
        mesh = build_cartesian(3, 2, 2)
        props = _props(mesh, mu=np.linspace(0.5, 2.0, mesh.n_cells), boundary=boundary)
        matrix = assemble_tpsa(mesh, props).matrix
        assert np.all(matrix.data != 0.0), boundary
    # sealed barrier faces carry zero transmissibility
    mesh = build_barrier_mesh(6, 4, 2, axis=0, index=3)
    matrix = assemble_flow(mesh, FlowProperties(perm=1.0))
    assert np.all(matrix.data != 0.0)


def test_rhs_assembly():
    mesh = build_cartesian(2, 1, 1)
    f_u = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    props = _props(mesh, f_u=f_u)
    rhs = assemble_rhs(mesh, props, pressure_coupling=np.array([10.0, 20.0]))
    n = 2
    vol = 0.5
    for c in range(3):
        assert np.allclose(rhs[c * n : (c + 1) * n], vol * f_u[:, c])
    assert np.all(rhs[3 * n : 6 * n] == 0.0)
    assert np.allclose(rhs[6 * n :], vol * np.array([10.0, 20.0]))

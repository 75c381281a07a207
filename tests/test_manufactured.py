"""Closed-form solution checked against central finite differences."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from biotfv.app.config import parse_config
from biotfv.app.manufactured import ManufacturedSolution
from biotfv.coupling import (
    CoupledSystem, SchemeSpec, TimeGrid, global_mass_check, simulate,
)
from biotfv.mesh import build_cartesian

from oracles import (
    central_difference_curl,
    central_difference_divergence,
    central_difference_gradient,
    central_difference_laplacian,
)

PROPS = parse_config(
    Path(__file__).resolve().parent.parent / "cases" / "manufactured.cfg"
).props
RNG = np.random.default_rng(7)
# Interior points away from the boundary so FD stencils stay inside the cube.
POINTS = 0.1 + 0.8 * RNG.random((40, 3))


def _sol(**kw):
    """The closed form with some of the shipped case's constants replaced."""
    return ManufacturedSolution(replace(PROPS, **kw))


def test_phi_peak_and_boundary_values():
    sol = _sol()
    center = np.array([[0.5, 0.5, 0.5]])
    assert sol.phi(center) == pytest.approx(1.0)
    faces = np.array(
        [[0.0, 0.3, 0.7], [1.0, 0.2, 0.9], [0.4, 0.0, 0.5], [0.4, 0.6, 1.0]]
    )
    assert np.all(np.abs(sol.phi(faces)) < 1e-30)


def test_gradient_matches_finite_differences():
    sol = _sol()
    fd = central_difference_gradient(sol.phi, POINTS)
    exact = sol.grad_phi(POINTS)
    assert np.allclose(exact, fd, rtol=1e-6, atol=1e-9)


def test_displacement_is_divergence_free():
    sol = _sol()
    div = central_difference_divergence(sol.displacement, POINTS)
    assert np.all(np.abs(div) < 1e-5)


def test_displacement_vanishes_on_boundary():
    sol = _sol()
    pts = []
    for d in range(3):
        for val in (0.0, 1.0):
            p = RNG.random((5, 3))
            p[:, d] = val
            pts.append(p)
    pts = np.vstack(pts)
    assert np.all(np.abs(sol.displacement(pts)) < 1e-12)


def test_no_flow_boundary():
    # The full gradient of phi vanishes on every wall, so grad(phi).n does too.
    sol = _sol()
    p = RNG.random((5, 3))
    p[:, 0] = 1.0
    assert np.all(np.abs(sol.grad_phi(p)) < 1e-12)


def test_rotation_is_minus_mu_curl_u():
    sol = _sol(mu=0.37)
    fd_curl = central_difference_curl(sol.displacement, POINTS)
    assert np.allclose(sol.rotation(POINTS), -0.37 * fd_curl, rtol=1e-6, atol=1e-8)


def test_effective_pressure_scaling():
    sol = _sol(alpha=0.87)
    assert np.allclose(
        sol.effective_pressure(POINTS), -0.87 * sol.phi(POINTS), atol=1e-15
    )


def test_body_force_matches_momentum_residual():
    # f_u = -mu lap(u) + alpha grad(phi), each term from finite differences.
    sol = _sol(mu=0.01, lam=1.0, alpha=1.0)
    lap = np.stack(
        [
            central_difference_laplacian(
                lambda x, c=c: sol.displacement(x)[:, c], POINTS
            )
            for c in range(3)
        ],
        axis=1,
    )
    fd_force = -sol.props.mu * lap + sol.props.alpha * central_difference_gradient(
        sol.phi, POINTS
    )
    exact = sol.body_force(POINTS)
    scale = np.max(np.abs(exact))
    assert np.allclose(exact, fd_force, atol=1e-6 * scale)


def test_fluid_source_matches_diffusion_residual():
    sol = _sol(perm=2.5e-13, fluid_viscosity=5e-4)
    fd = -(sol.props.perm / sol.props.fluid_viscosity) * central_difference_laplacian(
        sol.phi, POINTS
    )
    exact = sol.fluid_source(POINTS)
    scale = np.max(np.abs(exact))
    assert np.allclose(exact, fd, atol=1e-6 * scale)


def test_exact_state_shapes_and_values():
    sol = _sol()
    mesh = build_cartesian(3, 3, 3)
    state = sol.exact_state(mesh, t=2.0)
    assert state.dp.shape == (27,)
    assert state.u.shape == (27, 3)
    assert state.t == 2.0
    mid = 13  # center cell of the 3x3x3 grid, cell center at (0.5, 0.5, 0.5)
    assert state.dp[mid] == pytest.approx(1.0)
    assert np.allclose(state.u[mid], 0.0, atol=1e-12)


def test_as_case_builds_consistent_sources():
    sol = _sol()
    mesh = build_cartesian(4, 4, 4)
    case = sol.as_case(mesh, TimeGrid(dt=1e6, n_steps=2))
    assert case.props.f_u.shape == (64, 3)
    assert case.props.f_p.shape == (64,)
    assert case.wells == []
    assert np.allclose(case.initial.dp, sol.phi(mesh.cell_centers))


def test_discrete_steady_error_is_small_on_coarse_grid():
    # One long implicit step from the exact state stays near the exact
    # solution: the residual is pure discretization error, O(h^2).
    sol = _sol()
    mesh = build_cartesian(8, 8, 8)
    case = sol.as_case(mesh, TimeGrid(dt=4.32e6, n_steps=3))
    result = simulate(CoupledSystem(case), SchemeSpec(kind="lagged"))
    err = np.linalg.norm(result.final.dp - case.initial.dp) / np.linalg.norm(
        case.initial.dp
    )
    assert err < 0.1


def test_mass_defect_of_the_steady_source_is_at_roundoff():
    # f_p nets roundoff over the cube against a gross volume of order one,
    # so the defect is measured relative to the gross source volume
    sol = _sol()
    mesh = build_cartesian(4, 4, 4)
    case = sol.as_case(mesh, TimeGrid(dt=4.32e6, n_steps=3))
    result = simulate(CoupledSystem(case), SchemeSpec(kind="lagged"))
    assert abs(np.sum(case.time.dt * case.sources)) < 1e-12
    assert global_mass_check(case, result.states) < 1e-8

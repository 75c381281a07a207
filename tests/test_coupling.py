"""Splitting-scheme and coupling-source tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biotfv import coupling
from biotfv.coupling import (
    AndersonState,
    BiotCase,
    BiotState,
    CoupledSystem,
    PoroelasticProperties,
    SchemeSpec,
    TimeGrid,
    Well,
    anderson_weights,
    global_mass_check,
    simulate,
)
from biotfv.errors import ConfigurationError, SolverError
from biotfv.linsolve import precond
from biotfv.linsolve.precond import SolverOptions, TpsaSolver
from biotfv.mesh import build_cartesian
from biotfv.tpfa import FlowSystem

from oracles import sequential_march

LAGGED = SchemeSpec(kind="lagged")


def _case(
    nx=2, ny=2, nz=1, alpha=0.5, c0=1.0, mu=1.0, lam=1.0, perm=1.0,
    visc=1.0, dt=1.0, n_steps=4, wells=(), f_p=None,
):
    mesh = build_cartesian(nx, ny, nz)
    props = PoroelasticProperties(
        mu=mu, lam=lam, alpha=alpha, c0=c0, perm=perm, fluid_viscosity=visc
    )
    return BiotCase(
        mesh=mesh,
        props=props,
        time=TimeGrid(dt=dt, n_steps=n_steps),
        wells=list(wells),
        f_p=f_p,
    )


# ------------------------------------------------------- source formulas


def _mech_row_source(monkeypatch, case, dp):
    """The effective-pressure row source that mech_solve assembles for dp."""
    seen = []
    assemble = coupling.assemble_rhs

    def spy(*args, pressure_coupling, **kwargs):
        seen.append(pressure_coupling)
        return assemble(*args, pressure_coupling=pressure_coupling, **kwargs)

    monkeypatch.setattr(coupling, "assemble_rhs", spy)
    CoupledSystem(case).mech_solve(dp, 1)
    assert len(seen) == 1
    return seen[0]


def test_mech_rhs_zero_for_uncoupled(monkeypatch):
    case = _case(alpha=0.0)
    dp = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.all(_mech_row_source(monkeypatch, case, dp) == 0.0)


def test_mech_rhs_reservoir_magnitude(monkeypatch):
    # alpha = 0.87, lambda = 4 GPa, pressure jump 1 MPa
    case = _case(alpha=0.87, lam=4.0e9)
    dp = np.full(4, 1.0e6)
    rhs = _mech_row_source(monkeypatch, case, dp)
    assert np.allclose(rhs, -2.175e-4, rtol=1e-12)


def test_mech_rhs_zero_pressure(monkeypatch):
    case = _case()
    assert np.all(_mech_row_source(monkeypatch, case, np.zeros(4)) == 0.0)


def test_flow_source_constant_effective_pressure():
    engine = CoupledSystem(_case(dt=7.0))
    p_hat = np.array([3.0, -1.0, 0.5, 2.0])
    assert np.all(engine.flow_source(p_hat, p_hat) == 0.0)


def test_flow_source_unit_rise():
    # p_hat rising by lam/alpha per step gives psi = -1/dt
    dt = 3.0
    engine = CoupledSystem(_case(alpha=0.5, lam=2.0, dt=dt))
    p0 = np.zeros(4)
    p1 = np.full(4, 2.0 / 0.5)
    assert np.allclose(engine.flow_source(p0, p1), -1.0 / dt, rtol=1e-14)


# --------------------------------------------------------------- anderson


def test_anderson_single_pair_weight():
    assert np.array_equal(anderson_weights([np.array([5.0, 1.0])]), [1.0])


def test_anderson_two_pair_scalar_oracle():
    # residuals 2 (older) and -1 (newer): beta = (1/3, 2/3), mix kills both
    beta = anderson_weights([np.array([2.0]), np.array([-1.0])])
    assert np.allclose(beta, [1.0 / 3.0, 2.0 / 3.0], atol=1e-14)
    assert beta[0] * 2.0 + beta[1] * (-1.0) == pytest.approx(0.0, abs=1e-14)


def test_anderson_identical_residuals_regularized():
    g = np.array([1.0, -2.0])
    beta = anderson_weights([g, g.copy()])
    assert np.all(np.isfinite(beta))
    assert beta.sum() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(2, 5),
    seed=st.integers(0, 10_000),
)
def test_anderson_weights_sum_to_one(m, seed):
    rng = np.random.default_rng(seed)
    residuals = [rng.standard_normal(6) for _ in range(m)]
    beta = anderson_weights(residuals)
    assert beta.shape == (m,)
    assert beta.sum() == pytest.approx(1.0, abs=1e-9)


def test_anderson_state_first_steps_are_plain():
    state = AndersonState(m0=5)
    psi0 = np.zeros(3)
    image0 = np.array([1.0, 2.0, 3.0])
    state.push(psi0, image0)
    assert np.array_equal(state.next_iterate(), image0)
    assert np.array_equal(state.beta, [1.0])
    image1 = np.array([0.5, 0.5, 0.5])
    state.push(image0, image1)
    # only one pair in the window: still the plain image
    assert np.array_equal(state.next_iterate(), image1)
    assert np.allclose(state.beta, [1.0])


def test_anderson_state_oracle_combination():
    state = AndersonState(m0=2)
    state.push(np.array([9.0]), np.array([9.0]))  # dropped from the window
    state.push(np.array([0.0]), np.array([2.0]))  # residual 2
    state.push(np.array([1.0]), np.array([0.0]))  # residual -1
    mixed = state.next_iterate()
    assert mixed[0] == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert np.allclose(state.beta, [1.0 / 3.0, 2.0 / 3.0], atol=1e-14)


def test_anderson_state_window_cap():
    state = AndersonState(m0=2)
    for k in range(5):
        state.push(np.full(2, float(k)), np.full(2, float(k + 1)))
    assert len(state.psi_history) == 2
    assert state.pushes == 5


def test_anderson_state_requires_pairs():
    with pytest.raises(ValueError):
        AndersonState(m0=3).next_iterate()
    with pytest.raises(ConfigurationError):
        AndersonState(m0=0)


# ------------------------------------------------------------ time grid


def test_time_grid_times():
    grid = TimeGrid(dt=2.0, n_steps=3, t0=1.0)
    assert np.allclose(grid.times, [1.0, 3.0, 5.0, 7.0])
    assert grid.t_end == 7.0


def test_time_grid_validation():
    for dt, n_steps, t0 in [
        (0.0, 1, 0.0),
        (1.0, 0, 0.0),
        (np.nan, 1, 0.0),
        (np.inf, 1, 0.0),
        (-np.inf, 1, 0.0),
        (1.0, 1, np.nan),
        (1.0, 1, np.inf),
    ]:
        with pytest.raises(ConfigurationError):
            TimeGrid(dt=dt, n_steps=n_steps, t0=t0)


def test_well_schedule_half_open():
    well = Well(cell=0, rate=1.0, t_start=10.0, t_end=20.0)
    assert not well.active_at(10.0)
    assert well.active_at(15.0)
    assert well.active_at(20.0)
    assert not well.active_at(25.0)


@pytest.mark.parametrize(
    "schedule",
    [
        dict(rate=np.nan),
        dict(rate=np.inf),
        dict(rate=1.0, t_start=np.nan),
        dict(rate=1.0, t_start=-np.inf),
        dict(rate=1.0, t_end=np.nan),
        dict(rate=1.0, t_start=5.0, t_end=1.0),
        dict(rate=1.0, t_start=5.0, t_end=5.0),
    ],
)
def test_well_rejects_nonfinite_schedule(schedule):
    with pytest.raises(ConfigurationError):
        Well(cell=0, **schedule)


def test_source_rate_sums_densities_then_active_wells():
    case = _case(
        dt=1.0,
        n_steps=4,
        f_p=np.full(4, 2.0),
        wells=[Well(cell=1, rate=3.0, t_end=2.0), Well(cell=1, rate=0.5)],
    )
    volumes = case.mesh.cell_volumes
    psi = np.array([1.0, -1.0, 0.0, 4.0])
    assert np.array_equal(case.source_rate(1.0), volumes * 2.0 + [0.0, 3.5, 0.0, 0.0])
    assert np.array_equal(
        case.source_rate(3.0, psi), volumes * 2.0 + volumes * psi + [0.0, 0.5, 0.0, 0.0]
    )


def test_injected_volume():
    case = _case(
        dt=1.0,
        n_steps=4,
        wells=[Well(cell=0, rate=2.0, t_end=2.0), Well(cell=1, rate=1.0)],
    )
    # first well active for steps 1-2, second for all 4
    assert case.injected_volume() == pytest.approx(2.0 * 2.0 + 1.0 * 4.0)


def test_injected_volume_density_source():
    case = _case(dt=0.5, n_steps=6, f_p=np.full(4, 2.0))
    # total volume * density * time
    assert case.injected_volume() == pytest.approx(1.0 * 2.0 * 3.0)


def test_case_rejects_bad_well_cell():
    with pytest.raises(ConfigurationError):
        _case(wells=[Well(cell=99, rate=1.0)])


@pytest.mark.parametrize("cell", [4, -1, (2, 0, 0), (0, -1, 0)])
def test_case_rejects_well_cell_off_the_mesh(cell):
    with pytest.raises(ConfigurationError):
        _case(wells=[Well(cell=cell, rate=1.0)])


def test_case_resolves_structured_well_cell():
    well = Well(cell=(1, 1, 0), rate=1.0, name="w")
    case = _case(wells=[well])
    assert case.wells == [Well(cell=3, rate=1.0, name="w")]
    assert well.cell == (1, 1, 0)  # the input record is left as it was
    with pytest.raises(ConfigurationError, match="out of range") as excinfo:
        _case(wells=[Well(cell=-1, rate=1.0, name="w")])
    assert excinfo.value.key == "well.w"


@pytest.mark.parametrize(
    "value", [np.nan, np.inf, -np.inf, np.array([1.0, 1.0, np.nan, 1.0])]
)
@pytest.mark.parametrize("field", ["mu", "lam", "alpha", "c0", "perm", "visc"])
def test_case_rejects_nonfinite_properties(field, value):
    with pytest.raises(ConfigurationError, match="must be finite"):
        _case(**{field: value})


@pytest.mark.parametrize("value", [0.0, -1.0, np.array([1.0, 1.0, 0.0, 1.0])])
@pytest.mark.parametrize("field", ["mu", "lam"])
def test_case_rejects_nonpositive_moduli(field, value):
    # checked once here, so the coupling never divides by a zero lambda
    with pytest.raises(ConfigurationError, match="must be positive"):
        _case(**{field: value})


@pytest.mark.parametrize("tol", [0.0, -1e-6, np.nan, np.inf])
def test_fixed_stress_rejects_bad_tolerance(tol):
    with pytest.raises(ConfigurationError, match="tolerance"):
        SchemeSpec(tol=tol)


@pytest.mark.parametrize(
    "controls, message",
    [
        (dict(kind="monolithic"), "scheme kind"),
        (dict(max_iter=0), "iteration cap"),
        (dict(kind="lagged", tol=np.nan), "tolerance"),
        (dict(anderson_m0=-1), "anderson_m0"),
    ],
)
def test_scheme_spec_rejects_bad_controls(controls, message):
    with pytest.raises(ConfigurationError, match=message):
        SchemeSpec(**controls)


def test_fixed_stress_stops_at_first_nonfinite_residual(monkeypatch):
    case = _case(wells=[Well(cell=0, rate=0.5)])
    evaluate = CoupledSystem.evaluate
    calls = []

    def nan_evaluate(self, psi=None):
        calls.append(psi)
        states, psi = evaluate(self, psi)
        states[-1].p_hat[:] = np.nan
        return states, psi

    monkeypatch.setattr(CoupledSystem, "evaluate", nan_evaluate)
    with pytest.raises(SolverError, match="not finite") as excinfo:
        simulate(case, SchemeSpec(max_iter=25))
    assert len(calls) == 1
    assert len(excinfo.value.trace) == 1
    assert not np.isfinite(excinfo.value.trace[0])


# ------------------------------------------------- block mechanics solve


def _block_case():
    return _case(
        nx=4, ny=3, nz=2, alpha=0.8, c0=0.5, lam=2.0, n_steps=5,
        wells=[Well(cell=0, rate=0.5), Well(cell=17, rate=-0.2, t_end=3.0)],
    )


def _two_passes(case, options):
    """States of two fixed-stress passes of evaluate, and the two sources."""
    coupled = CoupledSystem(case, options)
    psi0 = np.zeros((case.time.n_steps, coupled.n_cells))
    first, _ = coupled.evaluate(psi0)
    psi1 = np.stack(
        [coupled.flow_source(a.p_hat, b.p_hat) for a, b in zip(first, first[1:])]
    )
    second, _ = coupled.evaluate(psi1)
    return [first, second], [psi0, psi1]


def test_block_solve_matches_per_step_lu_solves():
    case = _block_case()
    direct = SolverOptions(method="direct")
    passes, sources = _two_passes(case, direct)
    oracle = CoupledSystem(case, direct)
    warm = [None] * (case.time.n_steps + 1)
    for states, psi in zip(passes, sources):
        expected = sequential_march(oracle, psi, warm)
        for state, fields in zip(states[1:], expected):
            for got, want in zip((state.dp, state.u, state.r, state.p_hat), fields):
                scale = np.max(np.abs(want))
                assert scale > 0.0
                assert np.max(np.abs(got - want)) <= 1e-12 * scale


def test_block_solve_iterative_path_is_bit_identical_to_per_step_solves():
    # the second pass warm-starts every step from the first pass
    case = _block_case()
    iterative = SolverOptions(method="iterative", rtol=1e-8)
    passes, sources = _two_passes(case, iterative)
    oracle = CoupledSystem(case, iterative)
    warm = [None] * (case.time.n_steps + 1)
    for states, psi in zip(passes, sources):
        expected = sequential_march(oracle, psi, warm)
        for state, fields in zip(states[1:], expected):
            for got, want in zip((state.dp, state.u, state.r, state.p_hat), fields):
                assert np.array_equal(got, want)


@pytest.mark.parametrize("anderson_m0", [0, 3])
def test_direct_path_makes_one_elastic_solve_per_pass(monkeypatch, anderson_m0):
    case = _block_case()
    solve = TpsaSolver.solve
    columns = []

    def spy(self, rhs, x0=None):
        columns.append(rhs.shape[1] if rhs.ndim == 2 else 1)
        return solve(self, rhs, x0)

    monkeypatch.setattr(TpsaSolver, "solve", spy)
    direct = SolverOptions(method="direct")
    result = simulate(case, SchemeSpec(tol=1e-10, anderson_m0=anderson_m0), direct)
    assert result.report.converged and result.report.iterations >= 3
    assert columns == [case.time.n_steps] * result.report.iterations
    columns.clear()
    simulate(case, LAGGED, direct)
    assert columns == [1] * case.time.n_steps


@pytest.mark.parametrize("scheme", [LAGGED, SchemeSpec()], ids=["lagged", "fixed"])
def test_failed_block_column_names_its_step(monkeypatch, scheme):
    bicgstab = precond.bicgstab
    calls = []

    def third_fails(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise SolverError("no convergence", trace=[1.0, 0.5])
        return bicgstab(*args, **kwargs)

    monkeypatch.setattr(precond, "bicgstab", third_fails)
    iterative = SolverOptions(method="iterative")
    message = "coupled step 3 failed: no convergence"
    with pytest.raises(SolverError, match=message) as err:
        simulate(_block_case(), scheme, iterative)
    assert err.value.trace == [1.0, 0.5]


# -------------------------------------------------------------- schemes


def test_uncoupled_fixed_stress_converges_immediately():
    case = _case(alpha=0.0, wells=[Well(cell=0, rate=0.5)])
    result = simulate(case)
    assert result.report.converged
    assert result.report.iterations == 1
    assert result.report.residuals == [0.0]
    assert np.all(result.psi == 0.0)


def test_equilibrium_stays_at_rest_for_every_scheme():
    case = _case()
    for result in (simulate(case, LAGGED), simulate(case)):
        for state in result.states:
            assert np.all(state.dp == 0.0)
            assert np.all(state.u == 0.0)
            assert np.all(state.r == 0.0)
            assert np.all(state.p_hat == 0.0)


def test_lagged_uncoupled_matches_flow_only():
    case = _case(alpha=0.0, n_steps=5, wells=[Well(cell=0, rate=0.3)])
    result = simulate(case, LAGGED)
    flow = FlowSystem(case.mesh, case.props.flow_properties(case.mesh), case.time.dt)
    dp = np.zeros(case.mesh.n_cells)
    rate = np.zeros(case.mesh.n_cells)
    rate[0] = 0.3
    for state in result.states[1:]:
        dp = flow.step(dp, rate)
        assert np.allclose(state.dp, dp, atol=1e-14)
    assert np.all(result.psi == 0.0)


def test_first_lagged_step_has_zero_coupling_source():
    case = _case(n_steps=3, wells=[Well(cell=0, rate=0.2)])
    result = simulate(case, LAGGED)
    assert np.all(result.psi[0] == 0.0)
    assert np.any(result.psi[1] != 0.0)


def test_fixed_stress_residuals_decrease():
    case = _case(alpha=0.8, c0=0.5, n_steps=4, wells=[Well(cell=0, rate=0.5)])
    result = simulate(case, SchemeSpec(tol=1e-8, max_iter=60))
    assert result.report.converged
    res = result.report.residuals
    assert len(res) >= 3
    assert all(b < a for a, b in zip(res, res[1:]))


def test_fixed_stress_history_consistent_with_states():
    case = _case(alpha=0.7, n_steps=4, wells=[Well(cell=0, rate=0.4)])
    result = simulate(case, SchemeSpec(tol=1e-10))
    alpha_over_lam = 0.7 / 1.0
    assert result.psi.shape == (case.time.n_steps, case.mesh.n_cells)
    assert np.all(result.states[0].p_hat == 0.0)
    for i in range(case.time.n_steps):
        p_prev, p_now = result.states[i].p_hat, result.states[i + 1].p_hat
        expected = -alpha_over_lam * (p_now - p_prev) / case.time.dt
        assert np.allclose(result.psi[i], expected, atol=1e-13)


def test_fixed_stress_hits_iteration_cap():
    case = _case(alpha=0.9, c0=0.1, n_steps=4, wells=[Well(cell=0, rate=0.5)])
    result = simulate(case, SchemeSpec(tol=1e-30, max_iter=2))
    assert not result.report.converged
    assert result.report.iterations == 2


def test_anderson_matches_plain_for_two_iterations():
    case = _case(alpha=0.8, c0=0.5, n_steps=4, wells=[Well(cell=0, rate=0.5)])
    plain = simulate(case, SchemeSpec(tol=1e-10, max_iter=8))
    accel = simulate(case, SchemeSpec(tol=1e-10, max_iter=8, anderson_m0=5))
    assert plain.report.residuals[0] == accel.report.residuals[0]
    assert plain.report.residuals[1] == accel.report.residuals[1]


def test_anderson_converges_at_least_as_fast():
    case = _case(alpha=0.9, c0=0.2, n_steps=4, wells=[Well(cell=0, rate=0.5)])
    plain = simulate(case, SchemeSpec(tol=1e-9, max_iter=25))
    accel = simulate(case, SchemeSpec(tol=1e-9, max_iter=25, anderson_m0=5))
    assert accel.report.converged
    assert accel.report.iterations <= plain.report.iterations


def test_lagged_and_fixed_stress_agree_at_stationary_end():
    case = _case(
        alpha=0.5, c0=1.0, n_steps=20,
        wells=[Well(cell=0, rate=0.1, t_end=3.0)],
    )
    lagged = simulate(case, LAGGED)
    fs = simulate(case, SchemeSpec(tol=1e-10))
    ref = np.linalg.norm(fs.final.dp)
    assert np.linalg.norm(lagged.final.dp - fs.final.dp) <= 1e-6 * ref


def test_trajectory_timestamps():
    case = _case(dt=2.5, n_steps=3)
    result = simulate(case, LAGGED)
    assert [s.t for s in result.states] == [0.0, 2.5, 5.0, 7.5]


# ------------------------------------------------------------ mass check


def test_mass_check_no_injection_is_zero():
    case = _case()
    result = simulate(case)
    assert global_mass_check(case, result.states) == 0.0


def test_mass_check_single_sealed_cell():
    case = _case(
        nx=1, ny=1, nz=1, alpha=0.6, c0=2.0, n_steps=5,
        wells=[Well(cell=0, rate=0.25)],
    )
    result = simulate(case, SchemeSpec(tol=1e-12, max_iter=60))
    assert result.report.converged
    assert global_mass_check(case, result.states) <= 1e-10


def test_mass_check_coupled_multicell():
    case = _case(
        nx=3, ny=2, nz=1, alpha=0.8, c0=0.5, n_steps=6,
        wells=[Well(cell=2, rate=0.4, t_end=3.0)],
    )
    result = simulate(case, SchemeSpec(tol=1e-12, max_iter=80))
    assert result.report.converged
    assert global_mass_check(case, result.states) <= 1e-9


def test_mass_check_lagged_has_visible_defect():
    # the lagged source history does not telescope, so the identity is
    # only approximate there
    case = _case(
        nx=3, ny=2, nz=1, alpha=0.9, c0=0.1, n_steps=4,
        wells=[Well(cell=0, rate=0.5)],
    )
    lagged = simulate(case, LAGGED)
    fs = simulate(case, SchemeSpec(tol=1e-12, max_iter=80))
    assert global_mass_check(case, fs.states) < global_mass_check(case, lagged.states)

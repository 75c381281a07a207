"""Splitting-scheme and coupling-source tests."""

import logging
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biotfv import coupling, tpfa
from biotfv.app.cli import main
from biotfv.app.config import BoundarySpec, parse_config_text
from biotfv.coupling import (
    ANDERSON_WINDOW,
    SCHEME_KINDS,
    AndersonState,
    BiotCase,
    BiotState,
    CoupledSystem,
    PassState,
    SchemeSpec,
    SharedOperators,
    TimeGrid,
    Well,
    advance,
    anderson_weights,
    global_mass_check,
    simulate,
)
from biotfv.errors import ConfigurationError, SolverError
from biotfv.linsolve import precond
from biotfv.linsolve.precond import SolverOptions, TpsaSolver
from biotfv.materials import PoroelasticProperties
from biotfv.mesh import build_cartesian
from biotfv.tpfa import FlowSystem

from compare_outputs import barrier_copy, barrier_grid, solver_method, time_steps
from oracles import monolithic_march, sequential_march

LAGGED = SchemeSpec(kind="lagged")
CASES = Path(__file__).resolve().parent.parent / "cases"
# the shipped barrier on 12 x 12 x 3 cells, at 48 steps of 15 days
BARRIER_12 = barrier_copy(barrier_grid(12) + time_steps("15 day", 48))
MANUFACTURED = (CASES / "manufactured.cfg").read_text()


def _case(
    nx=2, ny=2, nz=1, alpha=0.5, c0=1.0, mu=1.0, lam=1.0, perm=1.0,
    visc=1.0, dt=1.0, n_steps=4, wells=(), f_p=0.0,
):
    mesh = build_cartesian(nx, ny, nz)
    props = PoroelasticProperties(
        mu=mu, lam=lam, alpha=alpha, c0=c0, perm=perm, fluid_viscosity=visc, f_p=f_p
    )
    return BiotCase(
        mesh=mesh,
        props=props,
        time=TimeGrid(dt=dt, n_steps=n_steps),
        wells=list(wells),
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
    assert len(seen) == 1 and seen[0].shape == dp.shape  # one load per solve
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


def _state(dp, p_hat):
    """A state of the four-cell `_case` with the given pressures, at rest."""
    return BiotState(
        dp=np.asarray(dp, float), u=np.zeros((4, 3)), r=np.zeros((4, 3)),
        p_hat=np.asarray(p_hat, float),
    )


def test_flow_source_constant_effective_pressure():
    engine = CoupledSystem(_case(dt=7.0))
    state = _state(np.ones(4), [3.0, -1.0, 0.5, 2.0])
    assert np.all(engine.flow_source(state, state) == 0.0)


def test_flow_source_unit_rise():
    # p_hat rising by lam/alpha per step gives psi = -1/dt; dp stays, so the
    # drained flow's lagged storage adds nothing
    dt = 3.0
    engine = CoupledSystem(_case(alpha=0.5, lam=2.0, dt=dt))
    assert engine.drained
    before, after = _state(np.ones(4), np.zeros(4)), _state(np.ones(4), np.full(4, 4.0))
    assert np.allclose(engine.flow_source(before, after), -1.0 / dt, rtol=1e-14)


@pytest.mark.parametrize("c0, drained", [(1.0, True), (0.01, False)])
def test_flow_source_takes_the_storage_the_drained_flow_leaves_out(c0, drained):
    # alpha = 0.5, lam = 2, mu = 1: tau = 0.125 / (c0 * 8/3); a rise of dp
    # by 1 and of p_hat by 4 per step of 3 s
    engine = CoupledSystem(_case(alpha=0.5, lam=2.0, c0=c0, dt=3.0))
    assert engine.drained == drained
    before, after = _state(np.zeros(4), np.zeros(4)), _state(np.ones(4), np.full(4, 4.0))
    psi = engine.coupling_source(before, after)
    assert np.allclose(psi, -1.0 / 3.0, rtol=1e-14)  # -(alpha/lam) * 4 / 3
    expected = psi - 0.125 / 3.0 if drained else psi
    assert np.allclose(engine.flow_source(before, after), expected, rtol=1e-14)
    storage = c0 if drained else c0 + 0.125
    assert np.allclose(engine.flow.accumulation, storage * engine.case.mesh.cell_volumes)


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
    # one pair in the window weighs 1: the mix is that pair's image exactly
    state = AndersonState()
    image = np.array([1.0, 2.0, 3.0])
    state.push(image - 0.5, image)
    assert np.array_equal(state.next_iterate(), image)


def test_anderson_one_pair_mix_is_the_image_bitwise():
    # the plain step, so anderson's third pass evaluates fixed stress's
    # psi bit for bit: a weighted sum over zeros would turn -0.0 into 0.0
    state = AndersonState()
    image = np.array([-0.0, 0.0, 2.5, -1e-300])
    state.push(np.array([1.0, -2.0, 0.5, 3.0]), image)
    mixed = state.next_iterate()
    assert mixed.tobytes() == image.tobytes()
    assert list(np.signbit(mixed)) == [True, False, False, True]
    assert np.array_equal(anderson_weights([np.array([1.0, -2.0])]), [1.0])


def test_anderson_state_oracle_combination():
    state = AndersonState()
    state.push(np.array([2.0]), np.array([2.0]))  # residual 2: psi 0, image 2
    state.push(np.array([-1.0]), np.array([0.0]))  # residual -1: psi 1, image 0
    # weights (1/3, 2/3) on the images 2 and 0
    assert state.next_iterate()[0] == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_anderson_state_window_cap():
    state = AndersonState()
    for k in range(ANDERSON_WINDOW + 2):
        state.push(np.full(2, float(k)), np.full(2, float(k + 1)))
    kept = [residual[0] for residual, _ in state.pairs]
    assert kept == [float(k) for k in range(2, ANDERSON_WINDOW + 2)]  # two dropped


def test_anderson_state_requires_pairs():
    with pytest.raises(ValueError):
        AndersonState().next_iterate()


def _least_squares_weights(residuals):
    """Oracle affine weights, oldest first: unregularized least squares
    on the differences to the newest residual."""
    g_new = residuals[-1]
    diffs = np.stack([g - g_new for g in residuals[:-1]], axis=1)
    c = np.linalg.lstsq(diffs, -g_new, rcond=None)[0]
    return np.append(c, 1.0 - c.sum())


def test_anderson_mixes_only_the_last_five_of_seven_pairs():
    rng = np.random.default_rng(7)
    residuals = [rng.standard_normal(12) for _ in range(7)]
    images = [rng.standard_normal(12) for _ in range(7)]
    state = AndersonState()
    for residual, image in zip(residuals, images):
        state.push(residual, image)

    def oracle(first):
        beta = _least_squares_weights(residuals[first:])
        return sum(w * image for w, image in zip(beta, images[first:]))

    assert np.allclose(state.next_iterate(), oracle(2), rtol=1e-10, atol=1e-12)
    # a two-pair window mixes something else
    assert not np.allclose(oracle(5), oracle(2), rtol=1e-3)


def test_anderson_weights_on_nearly_collinear_residuals_match_least_squares():
    # differences with singular values 1 and 1e-5: Gram condition ~1e10,
    # below the 1e14 at which the solve is regularized; a 1e-12 shift there
    # moves the weights by about 1e-2
    rng = np.random.default_rng(3)
    g_new = rng.standard_normal(8)
    basis, _ = np.linalg.qr(rng.standard_normal((8, 2)))
    diffs = basis @ np.diag([1.0, 1e-5]) @ np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    residuals = [g_new + diffs[:, 0], g_new + diffs[:, 1], g_new]
    gram = diffs.T @ diffs
    assert 1e9 < np.linalg.cond(gram) < 1e11
    want = _least_squares_weights(residuals)
    got = anderson_weights(residuals)
    assert np.linalg.norm(got - want) <= 1e-4 * np.linalg.norm(want)


def test_identical_residuals_take_the_plain_step():
    g = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(anderson_weights([g, g.copy(), g.copy()]), [0.0, 0.0, 1.0])
    state = AndersonState()
    images = [np.full(3, float(k)) for k in (1, 2, 3)]
    for image in images:
        state.push(g.copy(), image)
    assert np.array_equal(state.next_iterate(), images[-1])


@pytest.mark.parametrize("newest", [False, True])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_nonfinite_residual_takes_the_plain_step(bad, newest):
    residuals = [np.array([1.0, 2.0, 3.0]), np.array([0.5, -1.0, 2.0])]
    residuals[-1 if newest else 0][1] = bad
    assert np.array_equal(anderson_weights(residuals), [0.0, 1.0])


# ------------------------------------------------------------ time grid


def test_time_grid_times():
    grid = TimeGrid(dt=2.0, n_steps=3, t0=1.0)
    assert np.allclose(grid.times, [1.0, 3.0, 5.0, 7.0])


def test_time_grid_validation():
    for dt, n_steps, t0 in [
        (0.0, 1, 0.0),
        (1.0, 0, 0.0),
        (np.nan, 1, 0.0),
        (np.inf, 1, 0.0),
        (-np.inf, 1, 0.0),
        (1.0, 1, np.nan),
        (1.0, 1, np.inf),
        (1e-320, 1, 0.0),  # subnormal
        (5e-324, 1, 0.0),
        (1.0, 2.5, 0.0),  # a count: no fraction, float or bool
        (1.0, 2.0, 0.0),
        (1.0, True, 0.0),
    ]:
        with pytest.raises(ConfigurationError):
            TimeGrid(dt=dt, n_steps=n_steps, t0=t0)


def test_well_schedule_half_open():
    well = Well(cell=0, rate=1.0, t_start=10.0, t_end=20.0)
    assert not well.active_at(10.0, 5.0)
    assert well.active_at(15.0, 5.0)
    assert well.active_at(20.0, 5.0)
    assert not well.active_at(25.0, 5.0)


def test_a_well_stays_on_for_a_step_that_ends_past_its_stop_by_rounding():
    # step 3 ends at 3 * 0.1 = 0.30000000000000004 s, past the stop 0.3 s by
    # rounding alone: the well is on for steps 1-3 and off after
    well = Well(cell=0, rate=1.0, t_end=0.3)
    case = _case(nx=1, ny=1, dt=0.1, n_steps=5, wells=[well])
    times = case.time.times
    assert times[3] == 0.30000000000000004
    assert [well.active_at(t, 0.1) for t in times[1:]] == [True] * 3 + [False] * 2
    assert case.sources[:, 0].tolist() == [1.0] * 3 + [0.0] * 2


@pytest.mark.parametrize(
    "t0, dt", [(0.0, 1.0), (0.0, 1e-9), (0.0, 1e-12), (0.0, 1e-300), (1e6, 0.1)]
)
def test_well_switches_on_at_every_step_size(t0, dt):
    # one well from t0 feeds every step, one on (t0 + dt, t0 + 2 dt] step 2 only
    wells = [
        Well(cell=0, rate=2.0, t_start=t0),
        Well(cell=1, rate=1.0, t_start=t0 + dt, t_end=t0 + 2 * dt),
    ]
    props = PoroelasticProperties(
        mu=1.0, lam=1.0, alpha=0.0, c0=1.0, perm=1.0, fluid_viscosity=1.0
    )
    case = BiotCase(build_cartesian(2, 1, 1), props, TimeGrid(dt, 3, t0), wells)
    assert case.sources.tolist() == [[2.0, 0.0], [2.0, 1.0], [2.0, 0.0]]
    assert np.sum(dt * case.sources) == pytest.approx(7.0 * dt, rel=1e-12)


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


def test_sources_sum_densities_then_active_wells_in_list_order():
    # two wells on cell 1, on steps 1-2 and 2-4, onto f_p times the cell
    # volume 1/4; rounding shows the order: 1 + 2**53 + 1 is 2**53 when
    # summed in list order, 2**53 + 2 when the two ones go first
    big = 2.0**53
    case = _case(
        dt=1.0,
        n_steps=4,
        f_p=np.full(4, 4.0),
        wells=[Well(cell=1, rate=big, t_end=2.0), Well(cell=1, rate=1.0, t_start=1.0)],
    )
    expected = np.ones((4, 4))
    expected[:, 1] = [1.0 + big, (1.0 + big) + 1.0, 1.0 + 1.0, 1.0 + 1.0]
    assert np.array_equal(case.sources, expected)
    assert case.sources[1, 1] == big


def test_injected_volume():
    case = _case(
        dt=1.0,
        n_steps=4,
        wells=[Well(cell=0, rate=2.0, t_end=2.0), Well(cell=1, rate=1.0)],
    )
    # first well active for steps 1-2, second for all 4
    assert np.sum(case.time.dt * case.sources) == pytest.approx(2.0 * 2.0 + 1.0 * 4.0)


def test_injected_volume_density_source():
    case = _case(dt=0.5, n_steps=6, f_p=np.full(4, 2.0))
    # total volume * density * time
    assert np.sum(case.time.dt * case.sources) == pytest.approx(1.0 * 2.0 * 3.0)


def test_case_rejects_bad_well_cell():
    with pytest.raises(ConfigurationError):
        _case(wells=[Well(cell=99, rate=1.0)])


@pytest.mark.parametrize("cell", [4, -1, (2, 0, 0), (0, -1, 0)])
def test_case_rejects_well_cell_off_the_mesh(cell):
    with pytest.raises(ConfigurationError):
        _case(wells=[Well(cell=cell, rate=1.0)])


def test_case_rejects_walls_that_hold_nothing():
    # traction-free on every boundary face leaves the rigid motions free;
    # one face of any other closure holds the solid
    mesh = build_cartesian(2, 2, 1)
    w_out = np.full(mesh.n_faces, np.inf)
    props = PoroelasticProperties(
        mu=1.0, lam=1.0, alpha=0.5, c0=1.0, perm=1.0, w_out=w_out
    )
    with pytest.raises(ConfigurationError, match="rigid motion") as excinfo:
        BiotCase(mesh=mesh, props=props, time=TimeGrid(dt=1.0, n_steps=1))
    assert excinfo.value.key == "boundaries"
    for held in (0.0, 0.5):
        w_out[mesh.boundary_faces[0]] = held
        BiotCase(mesh=mesh, props=props, time=TimeGrid(dt=1.0, n_steps=1))


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


@pytest.mark.parametrize("tol", [0.0, -1e-6, np.nan, np.inf, 1.0, 2.0])
def test_fixed_stress_rejects_bad_tolerance(tol):
    with pytest.raises(ConfigurationError, match="tolerance"):
        SchemeSpec(tol=tol)


@pytest.mark.parametrize(
    "controls, message",
    [
        (dict(kind="fixed_stress"), "unknown scheme 'fixed_stress'"),
        (dict(max_iter=0), "iteration cap"),
        (dict(kind="lagged", tol=np.nan), "tolerance"),
        (dict(max_iter=2.5), "iteration cap must be an integer"),
        (dict(max_iter=3.0), "iteration cap must be an integer"),
        (dict(max_iter=True), "iteration cap must be an integer"),
    ],
)
def test_scheme_spec_rejects_bad_controls(controls, message):
    with pytest.raises(ConfigurationError, match=message):
        SchemeSpec(**controls)


def test_fixed_stress_stops_at_first_nonfinite_residual(monkeypatch):
    case = _case(wells=[Well(cell=0, rate=0.5)])
    evaluate = CoupledSystem.evaluate
    calls = []

    def nan_evaluate(self, psi):
        calls.append(psi)
        states = evaluate(self, psi)
        states[-1].p_hat[:] = np.nan
        return states

    monkeypatch.setattr(CoupledSystem, "evaluate", nan_evaluate)
    with pytest.raises(SolverError, match="not finite") as excinfo:
        simulate(CoupledSystem(case), SchemeSpec(max_iter=25))
    assert len(calls) == 1
    assert len(excinfo.value.trace) == 1
    assert not np.isfinite(excinfo.value.trace[0])


# ------------------------------------------------------ the time march


def _block_case(c0=0.5):
    """A two-well case; tau = 0.24 / c0, so drained at the default c0."""
    return _case(
        nx=4, ny=3, nz=2, alpha=0.8, c0=c0, lam=2.0, n_steps=5,
        wells=[Well(cell=0, rate=0.5), Well(cell=17, rate=-0.2, t_end=3.0)],
    )


def _copy(field):
    return None if field is None else field.copy()


def _kept(states):
    """Copies of a run's states, to check that no later run writes into
    them."""
    return [
        BiotState(dp=s.dp.copy(), u=_copy(s.u), r=_copy(s.r), p_hat=_copy(s.p_hat), t=s.t)
        for s in states
    ]


def _two_passes(case, options):
    """States of two fixed-stress passes of evaluate and the two sources."""
    coupled = CoupledSystem(case, options)
    psi0 = np.zeros((case.time.n_steps, coupled.n_cells))
    first = coupled.evaluate(psi0)
    psi1 = np.stack([coupled.flow_source(a, b) for a, b in zip(first, first[1:])])
    return [first, coupled.evaluate(psi1)], [psi0, psi1]


def _assert_march_matches(states, expected):
    """A march's states hold the oracle's dp and p_hat at every step, bit
    for bit, and u and r at the final step alone."""
    for state, (dp, u, r, p_hat) in zip(states[1:], expected, strict=True):
        assert np.array_equal(state.dp, dp) and np.array_equal(state.p_hat, p_hat)
    final = states[-1]
    assert np.array_equal(final.u, expected[-1][1]) and np.array_equal(final.r, expected[-1][2])
    assert all(s.u is s.r is None for s in states[1:-1])


@pytest.mark.parametrize("method", ["direct", "iterative"])
def test_each_pass_matches_per_step_solves(method):
    # bit for bit on both paths: every pass starts step 1 from zero and each
    # later step from its own start window; the LU path reads no start
    case = _block_case()
    options = SolverOptions(method=method, rtol=1e-8)
    passes, sources = _two_passes(case, options)
    oracle = CoupledSystem(case, options)
    for states, psi in zip(passes, sources):
        _assert_march_matches(states, sequential_march(oracle, psi))


def _assert_same_states(got, want):
    for a, b in zip(got, want, strict=True):
        for name in ("dp", "u", "r", "p_hat"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


def test_runs_on_one_engine_match_runs_on_fresh_engines():
    # each march keeps its own start window and solutions, so on the iterative
    # path neither the order of the schemes nor the runs before one change
    # its result, and no later run writes over an earlier run's states
    case = _block_case()
    iterative = SolverOptions(method="iterative", rtol=1e-8)
    schemes = [LAGGED, SchemeSpec(tol=1e-8), SchemeSpec(kind="anderson", tol=1e-8)]
    shared = CoupledSystem(case, iterative)
    earlier = []
    for scheme in schemes:
        got = simulate(shared, scheme)
        want = simulate(CoupledSystem(case, iterative), scheme)
        assert got.report == want.report
        assert np.array_equal(got.psi, want.psi)
        _assert_same_states(got.states, want.states)
        earlier.append((got.states, _kept(got.states)))
    for states, kept in earlier:
        _assert_same_states(states, kept)


@pytest.mark.parametrize("method", ["direct", "iterative"])
def test_each_march_keeps_dp_and_p_hat_and_its_final_solution(monkeypatch, method):
    # on both paths an interior state keeps dp and its own copy of p_hat,
    # and the final state views the last solution whole, so no march keeps
    # a (7n, N) block and no two marches share a field
    evaluate = CoupledSystem.evaluate
    marches = []

    def spy(self, psi):
        states = evaluate(self, psi)
        marches.append(states[1:])
        return states

    monkeypatch.setattr(CoupledSystem, "evaluate", spy)
    case = _block_case()
    engine = CoupledSystem(case, SolverOptions(method=method, rtol=1e-8))
    simulate(engine, SchemeSpec(tol=1e-14, max_iter=3))
    assert len(marches) == 3
    n = engine.n_cells
    fields = []
    for states in marches:
        *interior, final = states
        for state in interior:
            assert state.u is None and state.r is None
            assert state.p_hat.base is None and state.p_hat.shape == (n,)
        solution = final.p_hat.base
        assert solution.shape == (7 * n,)
        assert np.shares_memory(final.u, solution) and np.shares_memory(final.r, solution)
        fields += [s.dp for s in states] + [s.p_hat for s in interior] + [solution]
    assert len({id(field) for field in fields}) == len(fields)
    assert not any(
        np.shares_memory(a, b) for k, a in enumerate(fields) for b in fields[k + 1 :]
    )


def test_lagged_iterative_run_warm_starts_each_step_from_the_last():
    # one march: each step after the first starts from the march's window
    case = _block_case()
    iterative = SolverOptions(method="iterative", rtol=1e-8)
    result = simulate(CoupledSystem(case, iterative), LAGGED)
    _assert_march_matches(result.states, sequential_march(CoupledSystem(case, iterative), None))


def _small_barrier(c0="1e-8"):
    """The shipped barrier case on an 8 x 8 x 3 grid, on the iterative path."""
    storage = [("c0 = 1e-8 1/Pa", f"c0 = {c0} 1/Pa")]
    config = parse_config_text(barrier_copy(barrier_grid(8) + storage))
    options = replace(config.solver, method="iterative")
    return config.build_case(), options, config.scheme


def _counting_iterations(monkeypatch):
    """BiCGStab iteration counts of every elastic solve from here on."""
    counts = []
    bicgstab = precond.bicgstab

    def counted(*args, **kwargs):
        report = bicgstab(*args, **kwargs)
        counts.append(report.iterations)
        return report

    monkeypatch.setattr(precond, "bicgstab", counted)
    return counts


@pytest.mark.parametrize("kind", ["lagged", "fixed"])
def test_every_predicted_start_solve_meets_rtol_on_its_true_residual(monkeypatch, kind):
    case, options, scheme = _small_barrier()
    engine = CoupledSystem(case, options)
    solve = TpsaSolver.solve
    solved = []

    def spy(self, rhs, x0=None):
        report = solve(self, rhs, x0)
        solved.append((rhs, report.x))  # each a new vector, never written to
        return report

    monkeypatch.setattr(TpsaSolver, "solve", spy)
    result = simulate(engine, replace(scheme, kind=kind))
    assert result.report.converged
    assert len(solved) == case.time.n_steps * max(result.report.iterations, 1)
    mech = engine.mech
    for rhs, x in solved:
        b = mech.scale * rhs
        residual = np.linalg.norm(b - mech.matrix @ (x / mech.scale))
        assert residual <= options.rtol * np.linalg.norm(b)


@pytest.mark.parametrize("kind", ["fixed", "anderson"])
def test_no_fixed_stress_march_solves_nothing(monkeypatch, kind):
    # each pass re-solves every step from starts of its own, so no pass
    # repeats the last one's states (on the shipped barrier, passes 3 and 4
    # took 0 Krylov iterations when each started from the pass before)
    case, options, scheme = _small_barrier()
    counts = _counting_iterations(monkeypatch)
    result = simulate(CoupledSystem(case, options), replace(scheme, kind=kind, tol=1e-10))
    n_steps = case.time.n_steps
    marches = [sum(counts[k : k + n_steps]) for k in range(0, len(counts), n_steps)]
    assert len(marches) == result.report.iterations >= 4
    assert min(marches) > 0, marches


def test_each_start_has_no_larger_residual_than_the_last_solution(monkeypatch):
    # the start of every step after the first minimizes the residual over
    # the march's last solutions, the newest of them among the candidates,
    # in the lagged march and in every fixed-stress pass
    case, options, scheme = _small_barrier()
    engine = CoupledSystem(case, options)
    mech = engine.mech
    starts, solutions = [], []
    bicgstab, solve = precond.bicgstab, TpsaSolver.solve

    def bicgstab_spy(operator, b, **kwargs):
        starts.append((b, kwargs["x0"]))
        return bicgstab(operator, b, **kwargs)

    def solve_spy(self, rhs, window=None):
        report = solve(self, rhs, window)
        solutions.append(report.x)
        return report

    monkeypatch.setattr(precond, "bicgstab", bicgstab_spy)
    monkeypatch.setattr(TpsaSolver, "solve", solve_spy)
    simulate(engine, LAGGED)
    simulate(engine, scheme)
    n_steps = case.time.n_steps
    assert len(starts) == len(solutions) > n_steps
    for k, (b, x0) in enumerate(starts):
        if k % n_steps == 0:
            assert x0 is None
            continue
        start = np.linalg.norm(b - mech.matrix @ x0)
        last = np.linalg.norm(b - mech.matrix @ (solutions[k - 1] / mech.scale))
        assert start <= last, (k, start, last)


# tracemalloc peak of a run on a warmed engine above the engine, on the
# 12 x 12 x 3 copy below at 48 steps, in doubles per cell-step beyond a
# start window's 2 * START_WINDOW vectors of 7n (1.17 per cell-step here).
# Measured at one BLAS thread, all less that window, iterative: lagged
# 3.22, fixed 4.50, anderson 9.50; direct: 3.17, 4.47 and 9.48.  When each
# run kept a (7n, N) block of solutions, its passes solving over it, the
# whole peaks read 10.32, 11.61 and 16.60 (iterative) and 10.30, 11.60 and
# 16.62 (direct).  The bounds sit about 5% above the readings.
RUN_MEMORY_BUDGET = {
    "iterative": {"lagged": 3.4, "fixed": 4.75, "anderson": 10.0},
    "direct": {"lagged": 3.35, "fixed": 4.7, "anderson": 10.0},
}


def test_a_run_holds_its_states_and_one_start_window_in_budget():
    config = parse_config_text(BARRIER_12)
    case = config.build_case()
    cell_steps = case.mesh.n_cells * case.time.n_steps
    window = 2 * precond.START_WINDOW * 7 * case.mesh.n_cells
    used = {}
    for method, budget in RUN_MEMORY_BUDGET.items():
        engine = CoupledSystem(case, replace(config.solver, method=method))
        assert engine.mech.direct == (method == "direct")
        for kind in SCHEME_KINDS:
            scheme = replace(config.scheme, kind=kind)
            simulate(engine, scheme)  # warms the engine
            tracemalloc.start()
            try:
                result = simulate(engine, scheme)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert result.report.converged
            used[method, kind] = (peak / 8 - window) / cell_steps
        engine = None  # freed before the next engine is built
    assert all(
        used[method, kind] <= budget[kind]
        for method, budget in RUN_MEMORY_BUDGET.items()
        for kind in SCHEME_KINDS
    ), used


# tracemalloc peak of one pass after the first, above its start, in (N, n)
# arrays, on the direct 12 x 12 x 3 copy below.  Measured at one BLAS
# thread over passes 2-4: 4.63 without an Anderson window (the new dp and
# p_hat of every step, the image and its stacked rows, the defect squared
# in place) and 6.63 with one (the kept defect, one work array and, from
# pass 4, the mix).  When the passes solved over one (7n, N) block, which
# held p_hat, they read 3.59 and 5.59; when the norms took psi**2 and
# volumes * psi**2 as new arrays and the defect was made whether kept or
# not, 5.59 and 6.59 on top of that block.
PASS_TEMPORARIES = {"fixed": 4.9, "anderson": 6.9}


def test_a_pass_takes_its_residual_norms_in_one_work_array():
    config = parse_config_text(BARRIER_12)
    case = config.build_case()
    field_size = 8 * case.mesh.n_cells * case.time.n_steps
    engine = CoupledSystem(case, replace(config.solver, method="direct"))
    used = {}
    for kind, budget in PASS_TEMPORARIES.items():
        state = PassState(window=AndersonState() if kind == "anderson" else None)
        advance(engine, state, 0.0)  # the first pass, from psi = 0
        peaks = []
        for _ in range(3):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                advance(engine, state, 0.0)
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
            finally:
                tracemalloc.stop()
        assert len(state.residuals) == 4
        used[kind] = max(peaks) / field_size
    assert all(used[kind] <= budget for kind, budget in PASS_TEMPORARIES.items()), used


def test_predicted_starts_take_fewer_iterations_than_the_previous_rule(monkeypatch):
    # the previous rule started a march's step 2 from step 1 and every later
    # step by linear extrapolation from the two before it; the march's
    # minimal-residual starts take fewer Krylov iterations, in the lagged
    # march and in a fixed-stress run alike
    case, options, scheme = _small_barrier()
    counts = _counting_iterations(monkeypatch)
    simulate(CoupledSystem(case, options), LAGGED)
    lagged = sum(counts)
    counts.clear()
    fixed = simulate(CoupledSystem(case, options), scheme)
    assert fixed.report.converged
    predicted = [lagged, sum(counts)]

    counts.clear()
    engine = CoupledSystem(case, options)
    sequential_march(engine, None, extrapolate=True)
    previous = [sum(counts)]
    counts.clear()
    psi = np.zeros((case.time.n_steps, engine.n_cells))
    for _ in range(scheme.max_iter):
        fields = sequential_march(engine, psi, extrapolate=True)
        states = [case.initial] + [BiotState(*f) for f in fields]
        image = np.stack([engine.flow_source(a, b) for a, b in zip(states, states[1:])])
        residual = engine.weighted_norm(image - psi) / engine.weighted_norm(image)
        psi = image
        if residual <= scheme.tol:
            break
    else:
        pytest.fail("the previous rule's fixed-stress run did not converge")
    previous.append(sum(counts))
    assert predicted[0] < previous[0] and predicted[1] < previous[1], (predicted, previous)


@pytest.mark.parametrize("kind", SCHEME_KINDS)
@pytest.mark.parametrize("method", ["direct", "iterative"])
def test_each_scheme_makes_one_elastic_solve_per_step_in_step_order(
    monkeypatch, method, kind
):
    # every march interleaves: flow step i, then at once the one elastic
    # solve of step i, for steps 1..N in order.  The elastic rtol is tol/10:
    # re-solving passes at rtol 1e-8 stall at residuals of 4e-9 to 1.2e-8
    events = []
    step, mech_solve, solve = FlowSystem.step, CoupledSystem.mech_solve, TpsaSolver.solve

    def flow_spy(self, *args):
        events.append("flow")
        return step(self, *args)

    def mech_spy(self, dp, i, window=None):
        events.append(i)
        return mech_solve(self, dp, i, window)

    def solve_spy(self, rhs, window=None):
        events.append("solve")
        return solve(self, rhs, window)

    monkeypatch.setattr(FlowSystem, "step", flow_spy)
    monkeypatch.setattr(CoupledSystem, "mech_solve", mech_spy)
    monkeypatch.setattr(TpsaSolver, "solve", solve_spy)
    case = _block_case()
    options = SolverOptions(method=method, rtol=1e-11)
    result = simulate(CoupledSystem(case, options), SchemeSpec(kind=kind, tol=1e-10))
    assert result.report.converged
    passes = max(result.report.iterations, 1)
    assert kind == "lagged" or passes >= 3
    march = [e for i in range(1, case.time.n_steps + 1) for e in ("flow", i, "solve")]
    assert events == march * passes


@pytest.mark.parametrize("scheme", [LAGGED, SchemeSpec()], ids=["lagged", "fixed"])
@pytest.mark.parametrize("method", ["direct", "iterative"])
def test_a_nonfinite_flow_step_fails_naming_its_coupled_step(monkeypatch, method, scheme):
    # the third flow step of the first march goes NaN: its elastic load is
    # rejected before any solve, and the error names step 3 on both paths
    step = FlowSystem.step
    calls = []

    def third_is_nan(self, *args):
        calls.append(None)
        dp = step(self, *args)
        return np.full_like(dp, np.nan) if len(calls) == 3 else dp

    monkeypatch.setattr(FlowSystem, "step", third_is_nan)
    engine = CoupledSystem(_block_case(), SolverOptions(method=method))
    with pytest.raises(SolverError, match="coupled step 3 failed: .*not finite"):
        simulate(engine, scheme)
    assert len(calls) == 3


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
        simulate(CoupledSystem(_block_case(), iterative), scheme)
    assert err.value.trace == [1.0, 0.5]


def _distance(states, reference, fields=range(4)):
    """Largest max-norm gap, relative to the reference field, over steps
    1..N for dp (0) and p_hat (3), and at the final step, the one that
    keeps them, for u (1) and r (2)."""
    gaps = []
    for k in fields:
        first = -1 if k in (1, 2) else 0
        got = np.stack([(s.dp, s.u, s.r, s.p_hat)[k] for s in states[1:][first:]])
        want = np.stack([step[k] for step in reference[first:]])
        gaps.append(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    return max(gaps)


def test_fixed_stress_converges_to_the_monolithic_solution():
    case = _block_case()
    direct = SolverOptions(method="direct")
    assert CoupledSystem(case, direct).drained  # tau = 0.48
    reference = monolithic_march(CoupledSystem(case, direct))
    for tol in (1e-6, 1e-8, 1e-10):
        for kind in ("fixed", "anderson"):
            scheme = SchemeSpec(kind=kind, tol=tol, max_iter=50)
            result = simulate(CoupledSystem(case, direct), scheme)
            assert result.report.converged
            assert _distance(result.states, reference) <= 10 * tol, (tol, kind)


def test_the_oracle_holds_at_field_moduli():
    # GPa stiffness and c0 = 1e-8 1/Pa put the oracle's diagonal twenty
    # orders of magnitude apart; measured worst-step dp gap to a tight LU
    # Anderson run on this 8 x 8 x 3 barrier: 1.1e-5 unscaled, 7.3e-13
    # equilibrated
    case, _, _ = _small_barrier()
    direct = SolverOptions(method="direct")
    reference = monolithic_march(CoupledSystem(case, direct))
    scheme = SchemeSpec(kind="anderson", tol=1e-12, max_iter=50)
    result = simulate(CoupledSystem(case, direct), scheme)
    assert result.report.converged
    assert _distance(result.states, reference, fields=[0]) <= 1e-11


# the shipped barrier on 6 x 6 x 3 cells, on the LU path, at c0 = 1e-11 1/Pa:
# tau = 12, with the shipped tol 1e-6 and cap of 25 passes
STRONG_BARRIER = barrier_copy(
    barrier_grid(6) + solver_method("direct") + [("c0 = 1e-8 1/Pa", "c0 = 1e-11 1/Pa")]
)


def test_a_strongly_coupled_anderson_run_fills_and_slides_its_window(monkeypatch, tmp_path, capsys):
    # measured: anderson converged in 8 passes, its mixes taking 1, 2, 3, 4,
    # 5 and 5 pairs, with a worst-step gap of 1.2e-9 to the oracle; plain
    # fixed stress stopped unconverged at 25 passes
    windows = []
    next_iterate = AndersonState.next_iterate

    def mixing(window):
        windows.append([id(residual) for residual, _ in window.pairs])
        return next_iterate(window)

    monkeypatch.setattr(AndersonState, "next_iterate", mixing)
    config = parse_config_text(STRONG_BARRIER)
    case = config.build_case()
    assert np.allclose(coupling.coupling_strength(case.props), 12.0, rtol=0.01)
    anderson = simulate(CoupledSystem(case, config.solver), replace(config.scheme, kind="anderson"))
    assert anderson.report.converged and anderson.report.iterations == 8
    assert [len(pairs) for pairs in windows] == [1, 2, 3, 4, 5, ANDERSON_WINDOW]
    assert windows[-1][:-1] == windows[-2][1:]  # the oldest pair dropped
    reference = monolithic_march(CoupledSystem(case, config.solver))
    assert _distance(anderson.states, reference) <= 10 * config.scheme.tol
    cfg = tmp_path / "strong.cfg"
    cfg.write_text(STRONG_BARRIER)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert "fixed coupling not converged after 25 iterations" in capsys.readouterr().err


def test_lagged_splitting_error_is_seen_by_the_oracle_and_falls_when_drained(
    monkeypatch,
):
    # the lagged scheme is a different time discretization: the oracle sees
    # it where the flow holds the Biot storage (tau = 1.2)
    direct = SolverOptions(method="direct")
    strong = _block_case(c0=0.2)
    engine = CoupledSystem(strong, direct)
    assert not engine.drained
    reference = monolithic_march(engine)
    lagged = simulate(engine, LAGGED)
    assert _distance(lagged.states, reference, fields=[0]) > 1e-2
    # at tau = 0.48 the drained flow takes that storage from the two steps
    # before, and its march lands closer than the same case run undrained
    case = _block_case()
    drained = CoupledSystem(case, direct)
    reference = monolithic_march(drained)
    gap = _distance(simulate(drained, LAGGED).states, reference, fields=[0])
    monkeypatch.setattr(coupling, "coupling_strength", lambda props: np.inf)
    undrained = CoupledSystem(case, direct)
    assert drained.drained and not undrained.drained
    undrained_gap = _distance(simulate(undrained, LAGGED).states, reference, fields=[0])
    assert gap < undrained_gap / 10, (gap, undrained_gap)


@pytest.mark.parametrize("c0, tau", [("1e-8", 0.012), ("1e-10", 1.2), ("0", np.inf)])
def test_only_the_weakly_coupled_barrier_is_drained(caplog, c0, tau):
    # tau = alpha^2 / (c0 (lam + 2 mu / 3)) with alpha = 0.87, lam = 4 GPa
    # and mu = 3.5 GPa; without storativity the drained flow would be singular
    case, options, _ = _small_barrier(c0)
    assert np.allclose(coupling.coupling_strength(case.props), tau, rtol=0.01)
    with caplog.at_level(logging.INFO, logger="biotfv"):
        assert CoupledSystem(case, options).drained == (tau < 1.0)
    storage = "c0, drained split" if tau < 1.0 else "c0 + alpha^2/lambda"
    assert f"flow storage: {storage} (largest coupling strength tau {tau:.2g}" in caplog.text


def test_manufactured_case_is_not_drained():
    # c0 = 0.01 against alpha^2 / lam = 1: tau is about 99
    config = parse_config_text(MANUFACTURED)
    case = config.build_case(mesh=build_cartesian(3, 3, 3))
    assert np.all(coupling.coupling_strength(case.props) > 90.0)
    assert not CoupledSystem(case, config.solver).drained


@pytest.mark.parametrize("method", ["auto", "direct", "iterative"])
def test_flow_leaves_the_lu_only_when_iterative_above_the_threshold(
    monkeypatch, caplog, method
):
    # an 18-cell case against thresholds just below and at its size
    case = _case(nx=3, ny=3, nz=2)
    for threshold in (17, 18):
        monkeypatch.setattr(tpfa, "FLOW_DIRECT_CELLS", threshold)
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="biotfv"):
            flow = CoupledSystem(case, SolverOptions(method=method)).flow
        iterative = method == "iterative" and threshold == 17
        assert flow.iterative == iterative
        if method != "iterative":
            line = f"flow solve: sparse LU (method = {method})"
        elif iterative:
            line = (
                "flow solve: AMG-preconditioned BiCGStab "
                "(18 cells > FLOW_DIRECT_CELLS 17, method = iterative)"
            )
        else:
            line = "flow solve: sparse LU (18 cells <= FLOW_DIRECT_CELLS 18, method = iterative)"
        assert line in caplog.text


@pytest.mark.parametrize("method", ["auto", "iterative"])
def test_the_flow_and_elastic_rules_read_only_their_own_constants(monkeypatch, method):
    # each constant just below and at the size it is compared with: the
    # flow's path follows FLOW_DIRECT_CELLS alone, the elastic path
    # DIRECT_THRESHOLD alone
    case = _case(nx=3, ny=3, nz=2)
    cells, unknowns = case.mesh.n_cells, 7 * case.mesh.n_cells
    for flow_cells in (cells - 1, cells):
        for elastic_unknowns in (unknowns - 1, unknowns):
            monkeypatch.setattr(tpfa, "FLOW_DIRECT_CELLS", flow_cells)
            monkeypatch.setattr(precond, "DIRECT_THRESHOLD", elastic_unknowns)
            engine = CoupledSystem(case, SolverOptions(method=method))
            assert engine.flow.iterative == (method == "iterative" and flow_cells < cells)
            assert engine.mech.direct == (method == "auto" and elastic_unknowns == unknowns)


@pytest.mark.parametrize("method", ["direct", "iterative"])
def test_engine_keeps_no_unscaled_assembly(monkeypatch, method):
    # the engine keeps the elastic operator only rescaled, in its solver:
    # engines that also held the assembly or its holder raised the
    # convergence study's peak RSS from 135.9 to 144.9 MB
    assemble, refs = coupling.assemble_tpsa, []

    def spy(mesh, props):
        system = assemble(mesh, props)
        refs.append(weakref.ref(system))
        return system

    monkeypatch.setattr(coupling, "assemble_tpsa", spy)
    case, options = _case(nx=3, ny=3, nz=2), SolverOptions(method=method)
    engine = CoupledSystem(case, options)
    assert len(refs) == 1 and refs[0]() is None
    shared = SharedOperators()
    held = weakref.ref(shared)
    later = CoupledSystem(case, options, shared)
    # nor does the holder, which a study keeps for its later engines
    assert len(refs) == 2 and refs[1]() is None
    assert shared.flow is later.flow
    assert shared.mech is (None if method == "direct" else later.mech)
    del shared
    assert held() is None
    assert engine.mech.direct == later.mech.direct == (method == "direct")


@pytest.mark.parametrize("kind", ["fixed", "anderson"])
def test_coupling_passes_on_the_krylov_flow_match_the_lu_flow(monkeypatch, kind):
    # the same elastic path on both sides, so only the flow solve differs;
    # measured: mass defect 5.7e-13 (fixed) and 6.4e-13 (anderson), final dp
    # 8.1e-12 from the LU flow's, both passes 5 on both flows
    case, options, scheme = _small_barrier()
    scheme = replace(scheme, kind=kind)
    lu = simulate(CoupledSystem(case, options), scheme)
    monkeypatch.setattr(tpfa, "FLOW_DIRECT_CELLS", case.mesh.n_cells - 1)
    runs = []
    for _ in range(2):
        engine = CoupledSystem(case, options)
        assert engine.flow.iterative
        runs.append(simulate(engine, scheme))
    first, again = runs
    assert first.report.converged
    assert global_mass_check(case, first.states) <= 1e-11
    for a, b in zip(first.states, again.states, strict=True):
        for name in ("dp", "u", "r", "p_hat"):
            got, want = getattr(a, name), getattr(b, name)
            assert got is want is None or got.tobytes() == want.tobytes()
    dp, want = first.states[-1].dp, lu.states[-1].dp
    assert np.linalg.norm(dp - want) <= 1e-10 * np.linalg.norm(want)


def test_uncoupled_flow_forms_no_lagged_storage_term():
    # tau = 0, but there is no Biot storage to split off
    engine = CoupledSystem(_case(alpha=0.0))
    assert not engine.drained and engine.lagged_storage is None
    before, after = _state(np.zeros(4), np.zeros(4)), _state(np.ones(4), np.full(4, 2.0))
    assert np.all(engine.flow_source(before, after) == 0.0)


# -------------------------------------------------------------- schemes


def test_uncoupled_fixed_stress_converges_immediately():
    case = _case(alpha=0.0, wells=[Well(cell=0, rate=0.5)])
    result = simulate(CoupledSystem(case))
    assert result.report.converged
    assert result.report.iterations == 1
    assert result.report.residuals == [0.0]
    assert np.all(result.psi == 0.0)


def test_equilibrium_stays_at_rest_for_every_scheme():
    case = _case()
    engine = CoupledSystem(case)
    for result in (simulate(engine, LAGGED), simulate(engine)):
        for state in result.states:
            assert np.all(state.dp == 0.0)
            assert np.all(state.p_hat == 0.0)
        for state in (result.states[0], result.final):
            assert np.all(state.u == 0.0)
            assert np.all(state.r == 0.0)


def test_lagged_uncoupled_matches_flow_only():
    case = _case(alpha=0.0, n_steps=5, wells=[Well(cell=0, rate=0.3)])
    result = simulate(CoupledSystem(case), LAGGED)
    # alpha = 0: no Biot storage
    flow = FlowSystem(case.mesh, case.props, case.time.dt, case.props.c0)
    dp = np.zeros(case.mesh.n_cells)
    rate = np.zeros(case.mesh.n_cells)
    rate[0] = 0.3
    for state in result.states[1:]:
        dp = flow.step(dp, rate)
        assert np.allclose(state.dp, dp, atol=1e-14)
    assert np.all(result.psi == 0.0)


def test_first_lagged_step_has_zero_coupling_source():
    case = _case(n_steps=3, wells=[Well(cell=0, rate=0.2)])
    result = simulate(CoupledSystem(case), LAGGED)
    assert np.all(result.psi[0] == 0.0)
    assert np.any(result.psi[1] != 0.0)


def test_fixed_stress_residuals_decrease():
    case = _case(alpha=0.8, c0=0.5, n_steps=4, wells=[Well(cell=0, rate=0.5)])
    result = simulate(CoupledSystem(case), SchemeSpec(tol=1e-8, max_iter=60))
    assert result.report.converged
    res = result.report.residuals
    assert len(res) >= 3
    assert all(b < a for a, b in zip(res, res[1:]))


@pytest.mark.parametrize("scheme", [LAGGED, SchemeSpec(tol=1e-10)], ids=["lagged", "fixed"])
def test_source_history_is_the_physical_coupling_source(scheme):
    # tau = 0.29: the flow also saw the lagged Biot storage, the history
    # holds -(alpha/lam) * d(p_hat)/dt alone, over the step for fixed
    # stress and over the step before it for the lagged scheme
    case = _case(alpha=0.7, n_steps=4, wells=[Well(cell=0, rate=0.4)])
    engine = CoupledSystem(case)
    assert engine.drained
    result = simulate(engine, scheme)
    alpha_over_lam = 0.7 / 1.0
    assert result.psi.shape == (case.time.n_steps, case.mesh.n_cells)
    assert np.all(result.states[0].p_hat == 0.0)
    lag = 1 if scheme.kind == "lagged" else 0
    for i in range(case.time.n_steps):
        p_prev = result.states[max(i - lag, 0)].p_hat
        p_now = result.states[i + 1 - lag].p_hat
        expected = -alpha_over_lam * (p_now - p_prev) / case.time.dt
        assert np.allclose(result.psi[i], expected, rtol=0.0, atol=1e-13)


def test_fixed_stress_hits_iteration_cap():
    case = _case(alpha=0.9, c0=0.1, n_steps=4, wells=[Well(cell=0, rate=0.5)])
    result = simulate(CoupledSystem(case), SchemeSpec(tol=1e-30, max_iter=2))
    assert not result.report.converged
    assert result.report.iterations == 2


def test_anderson_matches_plain_for_two_iterations():
    case = _case(alpha=0.8, c0=0.5, n_steps=4, wells=[Well(cell=0, rate=0.5)])
    plain = simulate(CoupledSystem(case), SchemeSpec(tol=1e-10, max_iter=8))
    anderson = SchemeSpec(kind="anderson", tol=1e-10, max_iter=8)
    accel = simulate(CoupledSystem(case), anderson)
    assert plain.report.residuals[0] == accel.report.residuals[0]
    assert plain.report.residuals[1] == accel.report.residuals[1]


def test_anderson_converges_at_least_as_fast():
    case = _case(alpha=0.9, c0=0.2, n_steps=4, wells=[Well(cell=0, rate=0.5)])
    plain = simulate(CoupledSystem(case), SchemeSpec(tol=1e-9, max_iter=25))
    anderson = SchemeSpec(kind="anderson", tol=1e-9, max_iter=25)
    accel = simulate(CoupledSystem(case), anderson)
    assert accel.report.converged
    assert accel.report.iterations <= plain.report.iterations


def test_lagged_and_fixed_stress_agree_at_stationary_end():
    case = _case(
        alpha=0.5, c0=1.0, n_steps=20,
        wells=[Well(cell=0, rate=0.1, t_end=3.0)],
    )
    lagged = simulate(CoupledSystem(case), LAGGED)
    fs = simulate(CoupledSystem(case), SchemeSpec(tol=1e-10))
    ref = np.linalg.norm(fs.final.dp)
    assert np.linalg.norm(lagged.final.dp - fs.final.dp) <= 1e-6 * ref


def test_trajectory_timestamps():
    case = _case(dt=2.5, n_steps=3)
    result = simulate(CoupledSystem(case), LAGGED)
    assert [s.t for s in result.states] == [0.0, 2.5, 5.0, 7.5]


# ------------------------------------------------------------ mass check


def test_mass_check_no_injection_is_zero():
    case = _case()
    result = simulate(CoupledSystem(case))
    assert global_mass_check(case, result.states) == 0.0


def test_mass_check_single_sealed_cell():
    case = _case(
        nx=1, ny=1, nz=1, alpha=0.6, c0=2.0, n_steps=5,
        wells=[Well(cell=0, rate=0.25)],
    )
    result = simulate(CoupledSystem(case), SchemeSpec(tol=1e-12, max_iter=60))
    assert result.report.converged
    assert global_mass_check(case, result.states) <= 1e-10


def test_mass_check_coupled_multicell():
    case = _case(
        nx=3, ny=2, nz=1, alpha=0.8, c0=0.5, n_steps=6,
        wells=[Well(cell=2, rate=0.4, t_end=3.0)],
    )
    result = simulate(CoupledSystem(case), SchemeSpec(tol=1e-12, max_iter=80))
    assert result.report.converged
    assert global_mass_check(case, result.states) <= 1e-9


@pytest.mark.parametrize("w_out", [np.inf, 0.5])
def test_mass_check_closes_on_a_free_or_robin_face(w_out):
    case = _case(wells=[Well(cell=0, rate=0.5)])
    # one free or Robin face lets the solid's volume cross the walls
    case.props.w_out[case.mesh.boundary_faces[3]] = w_out
    result = simulate(CoupledSystem(case), SchemeSpec(tol=1e-12, max_iter=80))
    assert result.report.converged
    assert global_mass_check(case, result.states) <= 1e-9
    # c0 * dp alone misses the volume the coupling content took
    injected = case.time.dt * case.sources.sum()
    change = result.states[-1].dp - result.states[0].dp
    stored = np.sum(case.props.c0 * case.mesh.cell_volumes * change)
    assert abs(stored - injected) / injected > 1e-3


def _open_block_case():
    """`_block_case` with Robin walls and a traction-free top."""
    case = _block_case()
    walls = BoundarySpec(default="robin", robin_mu=2.0, z_max="free")
    w_out = walls.build(case.mesh)
    assert np.any(w_out == np.inf) and np.any((w_out > 0) & (w_out < np.inf))
    return replace(case, props=replace(case.props, w_out=w_out))


def test_mass_check_closes_on_robin_and_free_walls():
    case = _open_block_case()
    direct = SolverOptions(method="direct")
    march = monolithic_march(CoupledSystem(case, direct))
    states = [case.initial] + [
        BiotState(dp=dp, u=u, r=r, p_hat=p_hat) for dp, u, r, p_hat in march
    ]
    assert global_mass_check(case, states) <= 1e-10
    for kind in ("fixed", "anderson"):
        scheme = SchemeSpec(kind=kind, tol=1e-10, max_iter=50)
        result = simulate(CoupledSystem(case, direct), scheme)
        assert result.report.converged
        assert global_mass_check(case, result.states) <= 1e-9, kind


def test_mass_check_lagged_has_visible_defect():
    # the lagged source history does not telescope, so the identity is
    # only approximate there
    case = _case(
        nx=3, ny=2, nz=1, alpha=0.9, c0=0.1, n_steps=4,
        wells=[Well(cell=0, rate=0.5)],
    )
    lagged = simulate(CoupledSystem(case), LAGGED)
    fs = simulate(CoupledSystem(case), SchemeSpec(tol=1e-12, max_iter=80))
    assert global_mass_check(case, fs.states) < global_mass_check(case, lagged.states)

"""Flow discretization tests.

Oracle values are hand-computed from the two-point formulas: the
distance-weighted harmonic conductivity, transmissibility |face| k / d,
and the backward-Euler update on one or two cells.  The AMG-BiCGStab path
is checked against the LU path on a cube just above FLOW_DIRECT_CELLS.
"""

import numpy as np
import pytest
from scipy.sparse import diags
from scipy.sparse.linalg import spsolve

from oracles import material

from biotfv import tpfa
from biotfv.errors import ConfigurationError, SolverError
from biotfv.linsolve import krylov
from biotfv.mesh import build_barrier_mesh, build_cartesian
from biotfv.tpfa import FlowSystem, assemble_flow, effective_conductivity


def test_uniform_conductivity():
    mesh = build_cartesian(3, 2, 2)
    props = material(mesh, perm=2.5e-13, fluid_viscosity=5e-4)
    cond = effective_conductivity(mesh, props)
    assert np.allclose(cond[mesh.interior_faces], 2.5e-13 / 5e-4)
    assert np.all(cond[mesh.boundary_faces] == 0.0)


def test_harmonic_average_two_cells():
    mesh = build_cartesian(2, 1, 1)
    props = material(mesh, perm=np.array([1.0, 2.0]))
    cond = effective_conductivity(mesh, props)
    k = mesh.interior_faces[0]
    # 0.5 / (0.25/1 + 0.25/2) = 4/3
    assert cond[k] == pytest.approx(4.0 / 3.0, rel=1e-14)


def test_zero_permeability_cell():
    mesh = build_cartesian(3, 1, 1)
    props = material(mesh, perm=np.array([1.0, 0.0, 1.0]))
    cond = effective_conductivity(mesh, props)
    assert np.all(cond[mesh.interior_faces] == 0.0)


def test_barrier_face_sealed():
    mesh = build_barrier_mesh(4, 1, 1, axis=0, index=2)
    props = material(mesh, perm=1.0)
    cond = effective_conductivity(mesh, props)
    assert np.all(cond[mesh.barrier] == 0.0)
    open_faces = mesh.interior_faces[~mesh.barrier[mesh.interior_faces]]
    assert np.all(cond[open_faces] > 0.0)


def test_two_cell_matrix():
    mesh = build_cartesian(2, 1, 1)
    props = material(mesh, perm=1.0)
    A = assemble_flow(mesh, props).toarray()
    t = 1.0 * 1.0 / 0.5  # area * conductivity / distance
    assert np.allclose(A, [[t, -t], [-t, t]], atol=1e-14)


def test_matrix_symmetric_psd_zero_row_sums():
    mesh = build_cartesian(3, 3, 2, lengths=(1.0, 2.0, 0.5))
    rng = np.random.default_rng(7)
    props = material(
        mesh, perm=rng.uniform(0.5, 2.0, mesh.n_cells), fluid_viscosity=3e-4
    )
    A = assemble_flow(mesh, props)
    dense = A.toarray()
    assert np.allclose(dense, dense.T, atol=1e-12 * np.abs(dense).max())
    assert np.allclose(dense.sum(axis=1), 0.0, atol=1e-12 * np.abs(dense).max())
    eigs = np.linalg.eigvalsh(dense)
    assert eigs.min() >= -1e-12 * eigs.max()


def test_permeability_scaling_linearity():
    mesh = build_cartesian(2, 2, 2)
    a1 = assemble_flow(mesh, material(mesh, perm=1.0)).toarray()
    a2 = assemble_flow(mesh, material(mesh, perm=2.0)).toarray()
    assert np.allclose(a2, 2.0 * a1, rtol=1e-14)


def test_step_two_cell_oracle():
    # acc|cell|/dt = 1 each, T = 1, dp_old = (1, 0) -> (2/3, 1/3)
    mesh = build_cartesian(2, 1, 1)
    props = material(mesh, perm=0.5, fluid_viscosity=1.0, c0=2.0)
    system = FlowSystem(mesh, props, 1.0, props.c0)
    new = system.step(np.array([1.0, 0.0]), np.zeros(2))
    assert np.allclose(new, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-13)


def test_equilibrium_preserved():
    mesh = build_cartesian(3, 2, 2)
    props = material(mesh, perm=1e-12, fluid_viscosity=1e-3, c0=1e-8)
    dp = np.full(mesh.n_cells, 3.25e4)
    system = FlowSystem(mesh, props, 86400.0, props.c0)
    new = system.step(dp, np.zeros(mesh.n_cells))
    # tolerance reflects the conditioning of the storage-vs-flux scales
    assert np.allclose(new, dp, rtol=1e-9)


def test_single_cell_well_closed_form():
    mesh = build_cartesian(1, 1, 1, lengths=(2.0, 2.0, 2.0))
    c0, sb, q, dt = 1e-8, 2e-9, 5e-4, 3600.0
    props = material(mesh, perm=1e-12, fluid_viscosity=1e-3, c0=c0)
    rate = np.array([q])
    # the undrained storage c0 + alpha^2 / lambda, with Biot storage sb
    system = FlowSystem(mesh, props, dt, props.c0 + sb)
    expected_increment = q * dt / (8.0 * (c0 + sb))
    dp = system.step(np.zeros(1), rate)
    assert dp[0] == pytest.approx(expected_increment, rel=1e-13)
    dp = system.step(dp, rate)
    assert dp[0] == pytest.approx(2 * expected_increment, rel=1e-13)


def test_step_mass_balance_identity():
    mesh = build_cartesian(4, 3, 2, lengths=(2.0, 1.5, 1.0))
    rng = np.random.default_rng(11)
    props = material(
        mesh,
        perm=rng.uniform(0.5, 2.0, mesh.n_cells) * 1e-13,
        fluid_viscosity=1e-3,
        c0=rng.uniform(1e-9, 1e-8, mesh.n_cells),
    )
    rate = mesh.cell_volumes * rng.standard_normal(mesh.n_cells) * 1e-9
    rate[5] += 2e-6
    dt = 86400.0
    dp_old = rng.standard_normal(mesh.n_cells) * 1e3
    system = FlowSystem(mesh, props, dt, props.c0 + 2e-10)  # Biot storage 2e-10
    dp_new = system.step(dp_old, rate)
    lhs = np.sum(system.accumulation * (dp_new - dp_old))
    rhs = dt * rate.sum()
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_barrier_compartments_decouple():
    mesh = build_barrier_mesh(4, 2, 1, axis=0, index=2)
    props = material(mesh, perm=1e-12, fluid_viscosity=1e-3, c0=1e-8)
    comp = mesh.flow_components()
    well_cell = int(np.flatnonzero(comp == comp[0])[0])
    rate = np.zeros(mesh.n_cells)
    rate[well_cell] = 1e-5
    system = FlowSystem(mesh, props, 3600.0, props.c0)
    dp = system.step(np.zeros(mesh.n_cells), rate)
    other = comp != comp[well_cell]
    assert np.all(dp[~other] > 0)
    assert np.allclose(dp[other], 0.0, atol=1e-30)


def test_singular_system_rejected():
    mesh = build_cartesian(2, 2, 1)
    props = material(mesh, perm=1e-12, fluid_viscosity=1e-3, c0=0.0)
    with pytest.raises(SolverError, match="constant pressure"):
        FlowSystem(mesh, props, 1.0, props.c0)


@pytest.mark.parametrize("sealed_by", ["barrier", "zero-permeability"])
def test_compartment_without_storage_rejected(sealed_by):
    # storage elsewhere does not fix the level of a sealed, storage-free part
    mesh = build_barrier_mesh(4, 2, 2, index=2)
    if sealed_by == "barrier":
        labels = mesh.flow_components()
        props = material(
            mesh, perm=np.ones(16), c0=np.where(labels == labels[0], 1e-3, 0.0)
        )
    else:
        perm = np.ones(16)
        perm[5] = 0.0
        c0 = np.full(16, 1e-3)
        c0[5] = 0.0
        props = material(mesh, perm=perm, c0=c0)
    with pytest.raises(SolverError, match="constant pressure"):
        FlowSystem(mesh, props, 1.0, props.c0)


def test_step_matches_spsolve_at_high_contrast():
    mesh = build_barrier_mesh(6, 5, 3, index=3)
    rng = np.random.default_rng(17)
    perm = 10.0 ** rng.uniform(-6.0, 0.0, mesh.n_cells)
    perm[7] = 0.0
    props = material(mesh, perm=perm, c0=1e-3)
    dt = 10.0
    system = FlowSystem(mesh, props, dt, props.c0)
    dp_old = rng.standard_normal(mesh.n_cells)
    rate = rng.standard_normal(mesh.n_cells)
    matrix = (assemble_flow(mesh, props) + diags(system.accumulation / dt)).tocsc()
    reference = spsolve(matrix, system.accumulation / dt * dp_old + rate)
    dp = system.step(dp_old, rate)
    assert np.linalg.norm(dp - reference) <= 1e-12 * np.linalg.norm(reference)


def test_nonpositive_dt_rejected(monkeypatch):
    # any step that is not finite and positive, before anything is
    # factored: unchecked, a NaN step fails in SuperLU as "exactly
    # singular", and an infinite one solves the operator without storage:
    # on this case with unit sources, to -6.1e16 in every cell
    factored = []
    monkeypatch.setattr(tpfa, "splu", lambda *args, **kwargs: factored.append(args))
    mesh = build_cartesian(3, 3, 3)
    props = material(mesh, c0=1.0)
    for dt in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ConfigurationError, match="time step must be finite and positive"):
            FlowSystem(mesh, props, dt, props.c0)
    assert not factored


def test_unknown_method_rejected_before_assembly(monkeypatch):
    # a misspelt method is not silently factored: the 17^3 cube is above
    # FLOW_DIRECT_CELLS, so "Iterative" would otherwise take the LU
    assembled = []
    monkeypatch.setattr(tpfa, "assemble_flow", lambda *args: assembled.append(args))
    mesh = build_cartesian(17, 17, 17)
    props = material(mesh, c0=1e-8)
    with pytest.raises(ConfigurationError, match="unknown flow solver method 'Iterative'"):
        FlowSystem(mesh, props, 1.0, props.c0, "Iterative")
    assert assembled == []


def test_krylov_step_matches_the_lu_step_and_closes_each_step_mass_balance():
    # 17^3 = 4,913 cells, the smallest cube on the Krylov path under iterative;
    # the manufactured case's flow: 1 Darcy, c0 + alpha^2/lambda = 1.01
    mesh = build_cartesian(17, 17, 17)
    assert mesh.n_cells > tpfa.FLOW_DIRECT_CELLS
    rng = np.random.default_rng(3)
    props = material(
        mesh, perm=9.869233e-13 * rng.uniform(0.5, 2.0, mesh.n_cells),
        fluid_viscosity=5e-4, c0=0.01,
    )
    dt = 50 * 86400.0
    lu = FlowSystem(mesh, props, dt, props.c0 + 1.0)
    runs = [FlowSystem(mesh, props, dt, props.c0 + 1.0, "iterative") for _ in range(2)]
    assert not lu.iterative and all(run.iterative for run in runs)
    rates = mesh.cell_volumes * rng.standard_normal((3, mesh.n_cells)) * 1e-9
    dp_lu = np.zeros(mesh.n_cells)
    histories = [[np.zeros(mesh.n_cells)] for _ in runs]
    for rate in rates:
        dp_lu = lu.step(dp_lu, rate)
        for run, history in zip(runs, histories):
            history.append(run.step(history[-1], rate))
        dp_old, dp = histories[0][-2:]
        assert np.linalg.norm(dp - dp_lu) <= 1e-9 * np.linalg.norm(dp_lu)
        stored = np.sum(runs[0].accumulation * (dp - dp_old))
        assert abs(stored - dt * rate.sum()) <= 1e-9 * dt * np.abs(rate).sum()
    for a, b in zip(*histories):
        assert a.tobytes() == b.tobytes()


def test_krylov_step_reports_a_capped_solve_as_a_flow_failure(monkeypatch):
    mesh = build_cartesian(6, 6, 6)
    monkeypatch.setattr(tpfa, "FLOW_DIRECT_CELLS", mesh.n_cells - 1)
    monkeypatch.setattr(krylov, "MAX_ITERATIONS", 1)
    props = material(mesh, perm=1.0, c0=1e-6)
    system = FlowSystem(mesh, props, 1.0, props.c0, "iterative")
    assert system.iterative
    rate = np.zeros(mesh.n_cells)
    rate[0] = 1.0
    with pytest.raises(SolverError, match="flow .TPFA. solve failed: no convergence") as err:
        system.step(np.zeros(mesh.n_cells), rate)
    assert len(err.value.trace) == 2

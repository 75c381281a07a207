"""Splitting schemes coupling the flow and mechanics discretizations.

Flow and mechanics share the cell centres, so the coupling needs no
interpolation, only one coefficient per cell, alpha/lam: the pressure
deviation dp enters the mechanics as the effective-pressure row source
-(alpha/lam) * dp, and the effective pressure p_hat = lam*div(u) -
alpha*dp feeds the flow through the source psi = -(alpha/lam) *
d(p_hat)/dt.

Both schemes run the same time march (`CoupledSystem.evaluate`), one
flow step and one mechanics solve per time step.  They differ only in where
the flow source psi of a step comes from:

* lagged: built from the two previous mechanics states (no inner
  iterations);
* fixed stress: a given space-time field; one march maps it to F(psi),
  the source rebuilt from the states it produced, and the scheme
  iterates psi <- F(psi), optionally accelerated by Anderson mixing of
  previous evaluations.  A given psi frees the flow from the mechanics,
  so the march runs the flow through every step first and then solves
  the mechanics of all steps as one block.

Both reuse a single flow factorization and a single mechanics
factorization/preconditioner, since the operators are constant in time.
`simulate(case, scheme, solver)` runs either scheme; each of its three
input records checks itself when it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, GeometryError, SolverError
from .linsolve.blocks import SparseBlockSystem
from .linsolve.krylov import SolveReport
from .linsolve.precond import SolverOptions, TpsaSolver
from .mesh import Mesh, per_cell
from .tpfa import FlowProperties, FlowSystem
from .tpsa import (
    ElasticProperties,
    MechBoundary,
    assemble_rhs,
    assemble_tpsa,
    mean_shear_modulus,
)

__all__ = [
    "PoroelasticProperties",
    "Well",
    "TimeGrid",
    "SchemeSpec",
    "BiotCase",
    "BiotState",
    "CouplingReport",
    "SimulationResult",
    "AndersonState",
    "anderson_weights",
    "CoupledSystem",
    "simulate",
    "global_mass_check",
]


@dataclass
class PoroelasticProperties:
    """Per-cell material data of the coupled problem (scalars broadcast).

    Units: mu, lam in Pa; alpha dimensionless; c0 in 1/Pa; perm in m^2;
    fluid_viscosity in Pa s.  The flow unknown is the pressure deviation
    from a hydrostatic reference, which never enters the discretization.
    """

    mu: np.ndarray | float
    lam: np.ndarray | float
    alpha: np.ndarray | float
    c0: np.ndarray | float
    perm: np.ndarray | float
    fluid_viscosity: float = 1e-3
    boundary: MechBoundary | None = None
    f_u: np.ndarray | None = None

    def validate(self, mesh: Mesh) -> None:
        for name, value, positive in (
            ("shear modulus", self.mu, True),
            ("Lame parameter lambda", self.lam, True),
            ("Biot coefficient", self.alpha, False),
            ("storativity", self.c0, False),
            ("permeability", self.perm, False),
            ("fluid viscosity", self.fluid_viscosity, True),
        ):
            value = per_cell(value, mesh.n_cells)
            if not np.all(np.isfinite(value)):
                raise ConfigurationError(f"{name} must be finite")
            if positive and np.any(value <= 0):
                raise ConfigurationError(f"{name} must be positive")
            if not positive and np.any(value < 0):
                raise ConfigurationError(f"{name} must be nonnegative")

    def flow_properties(self, mesh: Mesh) -> FlowProperties:
        n = mesh.n_cells
        alpha = per_cell(self.alpha, n)
        lam = per_cell(self.lam, n)
        return FlowProperties(
            perm=per_cell(self.perm, n),
            viscosity=self.fluid_viscosity,
            c0=per_cell(self.c0, n),
            biot_storage=alpha**2 / lam,
        )

    def elastic_properties(self, mesh: Mesh) -> ElasticProperties:
        boundary = self.boundary or MechBoundary.fixed(mesh)
        return ElasticProperties(
            mu=per_cell(self.mu, mesh.n_cells),
            lam=per_cell(self.lam, mesh.n_cells),
            boundary=boundary,
            f_u=self.f_u,
        )


@dataclass(frozen=True)
class Well:
    """Constant-rate source on one cell, active on (start, end].

    The cell is a flat id or (ix, iy, iz); `BiotCase` places it on its mesh.
    """

    cell: int | tuple[int, int, int]
    rate: float  # m^3/s
    t_start: float = 0.0
    t_end: float = math.inf
    name: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.rate) and math.isfinite(self.t_start)):
            raise ConfigurationError("well rate and start time must be finite")
        if not self.t_end > self.t_start:  # also catches a NaN stop
            raise ConfigurationError("well stop time must be after its start time")

    def active_at(self, t: float) -> bool:
        # backward Euler evaluates sources at the end of the step; a small
        # relative slack absorbs float accumulation of the grid times
        slack = 1e-9 * max(abs(t), 1.0)
        return self.t_start + slack < t <= self.t_end + slack


@dataclass
class TimeGrid:
    dt: float
    n_steps: int
    t0: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ConfigurationError("time step must be positive and finite")
        if self.n_steps < 1:
            raise ConfigurationError("need at least one time step")
        if not math.isfinite(self.t0):
            raise ConfigurationError("start time t0 must be finite")

    @property
    def times(self) -> np.ndarray:
        """The N+1 time points including t0."""
        return self.t0 + self.dt * np.arange(self.n_steps + 1)

    @property
    def t_end(self) -> float:
        return self.t0 + self.dt * self.n_steps


SCHEME_KINDS = ("fixed_stress", "lagged")


@dataclass(frozen=True)
class SchemeSpec:
    """Coupling scheme and fixed-stress controls, checked for every kind.

    anderson_m0 = 0 iterates plainly; >= 1 mixes that many previous images.
    """

    kind: str = "fixed_stress"
    tol: float = 1e-6
    max_iter: int = 25
    anderson_m0: int = 0

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ConfigurationError(f"unknown scheme kind '{self.kind}'")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ConfigurationError(
                "fixed-stress tolerance must be positive and finite"
            )
        if self.max_iter < 1:
            raise ConfigurationError("fixed-stress iteration cap must be at least 1")
        if self.anderson_m0 < 0:
            raise ConfigurationError("anderson_m0 must be 0 (plain) or at least 1")


@dataclass
class BiotState:
    """Coupled fields at one time point."""

    dp: np.ndarray  # fluid pressure deviation (n,) [Pa]
    u: np.ndarray  # displacement (n, 3) [m]
    r: np.ndarray  # rotation (n, 3) [Pa]
    p_hat: np.ndarray  # effective pressure lam*div(u) - alpha*dp (n,) [Pa]
    t: float = 0.0

    @classmethod
    def equilibrium(cls, n: int, t: float = 0.0) -> "BiotState":
        return cls(
            dp=np.zeros(n), u=np.zeros((n, 3)), r=np.zeros((n, 3)),
            p_hat=np.zeros(n), t=t,
        )


@dataclass
class BiotCase:
    """A complete coupled problem: geometry, materials, sources, time grid."""

    mesh: Mesh
    props: PoroelasticProperties
    time: TimeGrid
    wells: list[Well] = field(default_factory=list)
    f_p: np.ndarray | None = None  # volumetric rate density [1/s]
    initial: BiotState | None = None
    name: str = ""

    def __post_init__(self):
        self.props.validate(self.mesh)
        self.wells = [self._placed(well) for well in self.wells]

    def _placed(self, well: Well) -> Well:
        """The well with its cell resolved to a flat id on this mesh."""
        key = f"well.{well.name}" if well.name else None
        cell, n = well.cell, self.mesh.n_cells
        if isinstance(cell, tuple):
            try:
                cell = self.mesh.cell_index(*cell)
            except GeometryError as err:
                raise ConfigurationError(str(err), key=key) from err
        if not 0 <= cell < n:
            raise ConfigurationError(f"well cell {cell} out of range 0..{n - 1}", key=key)
        return replace(well, cell=cell)

    def initial_state(self) -> BiotState:
        if self.initial is not None:
            return self.initial
        return BiotState.equilibrium(self.mesh.n_cells, t=self.time.t0)

    def source_rate(self, t: float, psi: np.ndarray | None = None) -> np.ndarray:
        """Flow source per cell at time t [m^3/s].

        The rate densities f_p and psi [1/s] times the cell volumes, then
        the wells active at t, summed in that order.
        """
        mesh = self.mesh
        rate = np.zeros(mesh.n_cells)
        if self.f_p is not None:
            rate += mesh.cell_volumes * per_cell(self.f_p, mesh.n_cells)
        if psi is not None:
            rate += mesh.cell_volumes * per_cell(psi, mesh.n_cells)
        for well in self.wells:
            if well.active_at(t):
                rate[well.cell] += well.rate
        return rate

    def injected_volume(self) -> float:
        """Cumulative non-coupling source volume over the simulation [m^3]."""
        total = 0.0
        for t in self.time.times[1:]:
            total += self.time.dt * self.source_rate(t).sum()
        return total


@dataclass
class CouplingReport:
    scheme: str
    residuals: list[float] = field(default_factory=list)
    converged: bool = True

    @property
    def iterations(self) -> int:
        return len(self.residuals)


@dataclass
class SimulationResult:
    states: list[BiotState]
    psi: np.ndarray  # flow source per step (N, n); F(psi) for fixed stress
    report: CouplingReport
    system: SparseBlockSystem | None  # unscaled elastic operator of the run

    @property
    def final(self) -> BiotState:
        return self.states[-1]


# ------------------------------------------------------------- Anderson


def anderson_weights(residuals: list[np.ndarray]) -> np.ndarray:
    """Affine weights minimizing the combined residual, oldest first.

    Solves min ||sum beta_i g_i|| with sum beta_i = 1 through the
    difference reformulation (unconstrained in m-1 variables).  A rank
    deficient or ill-conditioned normal matrix is regularized by a 1e-12
    diagonal shift; if the solve still degenerates, the weights fall back
    to the plain step (all weight on the newest pair).
    """
    m = len(residuals)
    if m < 1:
        raise ValueError("need at least one stored pair")
    if m == 1:
        return np.array([1.0])
    g_new = np.asarray(residuals[-1], dtype=float).ravel()
    diffs = np.stack(
        [np.asarray(g, dtype=float).ravel() - g_new for g in residuals[:-1]], axis=1
    )
    gram = diffs.T @ diffs
    rhs = -diffs.T @ g_new
    scale = float(np.max(np.abs(np.diag(gram)))) if gram.size else 0.0
    if scale == 0.0 or np.linalg.cond(gram) > 1e14:
        gram = gram + 1e-12 * max(scale, 1.0) * np.eye(m - 1)
    try:
        c = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        c = None
    if c is None or not np.all(np.isfinite(c)):
        beta = np.zeros(m)
        beta[-1] = 1.0
        return beta
    return np.append(c, 1.0 - c.sum())


@dataclass
class AndersonState:
    """Sliding window of (psi, F(psi)) pairs and the mixing weights.

    The window used for the next iterate holds min(m0, pushes - 1) of the
    most recent pairs, so the first two accelerated iterates coincide with
    the plain fixed-point iterates exactly.
    """

    m0: int
    psi_history: list[np.ndarray] = field(default_factory=list)
    image_history: list[np.ndarray] = field(default_factory=list)
    beta: np.ndarray | None = None
    pushes: int = 0

    def __post_init__(self):
        if self.m0 < 1:
            raise ConfigurationError("Anderson window must hold at least one pair")

    def push(self, psi: np.ndarray, image: np.ndarray) -> None:
        self.psi_history.append(np.array(psi, dtype=float, copy=True))
        self.image_history.append(np.array(image, dtype=float, copy=True))
        self.pushes += 1
        if len(self.psi_history) > self.m0:
            self.psi_history.pop(0)
            self.image_history.pop(0)

    def next_iterate(self) -> np.ndarray:
        if self.pushes == 0:
            raise ValueError("no stored pairs")
        m = min(self.m0, self.pushes - 1)
        if m < 1:
            self.beta = np.array([1.0])
            return self.image_history[-1].copy()
        psis = self.psi_history[-m:]
        images = self.image_history[-m:]
        self.beta = anderson_weights([f - p for p, f in zip(psis, images)])
        mixed = np.zeros_like(images[0])
        for weight, image in zip(self.beta, images):
            mixed += weight * image
        return mixed


# -------------------------------------------------------------- engine


class CoupledSystem:
    """Assembled, factorized operators of one case, reused across solves."""

    def __init__(self, case: BiotCase, solver: SolverOptions | None = None):
        self.case = case
        mesh = case.mesh
        self.flow = FlowSystem(mesh, case.props.flow_properties(mesh), case.time.dt)
        self.elastic = case.props.elastic_properties(mesh)
        self.system = assemble_tpsa(mesh, self.elastic)
        self.mech = TpsaSolver(
            self.system, mean_shear_modulus(mesh, self.elastic), solver
        )
        self.n_cells = mesh.n_cells
        # the one per-cell coupling coefficient, in both directions
        self.alpha_over_lam = per_cell(case.props.alpha, self.n_cells) / per_cell(
            case.props.lam, self.n_cells
        )
        self._mech_warm: list[np.ndarray | None] = [None] * (case.time.n_steps + 1)

    def flow_source(self, p_hat_prev: np.ndarray, p_hat_now: np.ndarray) -> np.ndarray:
        """Coupling source psi = -(alpha/lam) * (p_hat_now - p_hat_prev)/dt."""
        return -self.alpha_over_lam * (p_hat_now - p_hat_prev) / self.case.time.dt

    def mech_solve(
        self, dp: np.ndarray, step: int
    ) -> tuple[BiotState, SolveReport] | tuple[list[BiotState], list[SolveReport]]:
        """Mechanics loaded by the row source -(alpha/lam) * dp.

        dp of shape (n,) is one step and gives (BiotState, SolveReport); a
        (k, n) block holds steps step, ..., step + k - 1 and gives their
        states and reports as two lists, all solved as one block.  The
        iterative path starts each step from the previous pass's solution
        at that step, else from the previous step's.
        """
        case = self.case
        dps = np.atleast_2d(dp)
        steps = range(step, step + len(dps))
        rhs = np.empty((self.system.n_dof, len(dps)), order="F")
        for j, d in enumerate(dps):
            rhs[:, j] = assemble_rhs(
                case.mesh, self.elastic, pressure_coupling=-self.alpha_over_lam * d
            )
        x0 = None
        if not self.mech.direct:
            # a None entry starts from the column before it
            x0 = [self._mech_warm[s] for s in steps]
            if x0[0] is None and step > 0:
                x0[0] = self._mech_warm[step - 1]
        reports = self.mech.solve(rhs, x0=x0)
        states = []
        for s, d, report in zip(steps, dps, reports):
            if not self.mech.direct:
                self._mech_warm[s] = report.x
            u, r, p_hat = self.system.split(report.x)
            states.append(BiotState(dp=d, u=u, r=r, p_hat=p_hat, t=case.time.times[s]))
        if np.ndim(dp) == 1:
            return states[0], reports[0]
        return states, reports

    def _mechanics(self, dps: np.ndarray, step: int) -> list[BiotState]:
        """States of the (k, n) block of steps from `step` on; errors name the step."""
        try:
            states, _ = self.mech_solve(dps, step)
        except SolverError as err:
            failed = step + (err.column or 0)
            raise SolverError(
                f"coupled step {failed} failed: {err}", trace=err.trace
            ) from err
        return states

    def evaluate(
        self, psi: np.ndarray | None = None
    ) -> tuple[list[BiotState], np.ndarray]:
        """March all N steps; return the N+1 states and the (N, n) source the flow saw.

        Fixed stress (psi given): the flow of step i sees psi[i-1] and never
        waits on the mechanics, so the flow marches through every step
        first and the N mechanics solves then run as one block.  Lagged
        (psi None): step i's source is built from the two previous
        mechanics states, with p_hat(t_{-1}) := p_hat(t_0), so each flow
        step is followed by its own one-column mechanics solve.
        """
        case = self.case
        times = case.time.times
        n_steps = case.time.n_steps
        states = [case.initial_state()]
        if psi is None:
            psi = np.zeros((n_steps, self.n_cells))
            for i in range(1, n_steps + 1):
                psi[i - 1] = self.flow_source(
                    states[max(i - 2, 0)].p_hat, states[i - 1].p_hat
                )
                rate = case.source_rate(times[i], psi[i - 1])
                dp = self.flow.step(states[i - 1].dp, rate)
                states += self._mechanics(dp[None, :], i)
            return states, psi
        dps = np.empty((n_steps, self.n_cells))
        dp = states[0].dp
        for i in range(1, n_steps + 1):
            rate = case.source_rate(times[i], psi[i - 1])
            dp = dps[i - 1] = self.flow.step(dp, rate)
        states += self._mechanics(dps, 1)
        return states, psi

    def weighted_norm(self, psi: np.ndarray) -> float:
        """Space-time L2 norm with cell-volume and time-step weights."""
        volumes = self.case.mesh.cell_volumes
        return float(
            np.sqrt(self.case.time.dt * np.sum(volumes * psi**2))
        )


# -------------------------------------------------------------- schemes


def simulate(
    case: BiotCase,
    scheme: SchemeSpec | None = None,
    solver: SolverOptions | None = None,
) -> SimulationResult:
    """Run a case under one coupling scheme (default: plain fixed stress).

    Lagged: one march, each flow step seeing the previous mechanics state.
    Fixed stress: whole-simulation fixed-point iteration on the coupling
    source psi.  Every iteration evaluates F(psi): the time march with the
    current source history, whose states give the new source.  The
    iteration stops when the fixed-point residual F(psi) - psi, in the
    volume/dt weighted space-time L2 norm relative to F(psi), drops below
    scheme.tol; the residual is measured before any mixing, so the
    converged result is the evaluation at an (almost) fixed psi.  The
    result holds the last image F(psi).
    """
    scheme = scheme or SchemeSpec()
    engine = CoupledSystem(case, solver)
    if scheme.kind == "lagged":
        states, psi = engine.evaluate()
        return SimulationResult(
            states, psi, CouplingReport(scheme="lagged"), engine.system
        )
    psi = np.zeros((case.time.n_steps, engine.n_cells))
    m0 = scheme.anderson_m0
    anderson = AndersonState(m0=m0) if m0 >= 1 else None
    residuals: list[float] = []
    converged = False
    for _ in range(scheme.max_iter):
        states = None  # free the last pass's states before the next one's solve
        states, _ = engine.evaluate(psi)
        image = np.stack(
            [engine.flow_source(a.p_hat, b.p_hat) for a, b in zip(states, states[1:])]
        )
        change = engine.weighted_norm(image - psi)
        scale = engine.weighted_norm(image)
        residual = change / scale if scale > 0.0 else (0.0 if change == 0.0 else np.inf)
        residuals.append(residual)
        if not math.isfinite(residual):
            raise SolverError(
                f"fixed-stress residual is not finite at iteration {len(residuals)}",
                trace=residuals,
            )
        if residual <= scheme.tol:
            converged = True
            break
        if anderson is not None:
            anderson.push(psi, image)
            psi = anderson.next_iterate()
        else:
            psi = image
    name = "fixed_stress" if anderson is None else f"anderson[{m0}]"
    report = CouplingReport(scheme=name, residuals=residuals, converged=converged)
    return SimulationResult(states, image, report, engine.system)


def global_mass_check(case: BiotCase, states: list[BiotState]) -> float:
    """Defect of c0 * integral(dp(T)) against the injected volume.

    Exact (to solver tolerances) for converged coupled solves on fixed
    mechanical boundaries, where the coupling terms telescope away and the
    boundary volume flux vanishes identically.  Normalized by the injected
    volume when there is one.
    """
    mesh = case.mesh
    c0 = per_cell(case.props.c0, mesh.n_cells)
    stored = float(
        np.sum(c0 * mesh.cell_volumes * (states[-1].dp - states[0].dp))
    )
    injected = case.injected_volume()
    defect = abs(stored - injected)
    return defect / abs(injected) if injected != 0.0 else defect

"""Splitting schemes coupling the flow and mechanics discretizations.

Flow and mechanics share the cell centres, so both read one material
record, `PoroelasticProperties` (`materials.py`), which `BiotCase` checks
and broadcasts to per-cell arrays once, the body force f_u and the fluid
source density f_p included; `CoupledSystem` hands that record to the flow
and the elastic assembly as it is.  A `BiotCase` is complete once built:
it holds the validated record, the wells placed on its mesh, its
initial state (rest at t0 unless given) and its external source history
`sources`, one row per step, built once.  The coupling needs no
interpolation, only one coefficient per cell, alpha/lam, which `BiotCase`
forms once as `alpha_over_lam`: the pressure deviation dp enters the
mechanics as the effective-pressure row source -(alpha/lam) * dp, and the
effective pressure p_hat = lam*div(u) - alpha*dp feeds the flow through
the source psi = -(alpha/lam) * d(p_hat)/dt.

The flow's storage coefficient is c0 + L, with L = alpha^2/lam, and psi
is all the flow needs from the mechanics, unless every cell's coupling
strength tau = alpha^2/(c0 K_dr), K_dr = lam + 2 mu/3 the drained bulk
modulus, is below 1 (`coupling_strength`).  There the drained split,
L = 0, is stable and takes fewer passes (Kim, Tchelepi & Juanes, CMAME
200, 2011; Mikelic & Wheeler, Comput. Geosci. 17, 2013); the flow then
sees psi less the storage it leaves out, (alpha^2/lam) * d(dp)/dt, taken
from the previous pass for fixed stress and from the two previous steps
for the lagged scheme.  At a fixed point that term cancels the missing
storage, so the converged solution is the same.
`CoupledSystem.flow_source` forms what the flow sees, and
`CoupledSystem.coupling_source` the physical psi that results and output
files hold.

The schemes of `SCHEME_KINDS` run the same time march
(`CoupledSystem.evaluate`), one flow step and one mechanics solve per time
step.  They differ only in where the flow source psi of a step comes from:

* lagged: built from the two previous states (no inner iterations);
* fixed: fixed stress, a given space-time field; one march maps it to
  F(psi), the flow source rebuilt from the states it produced, and the
  scheme iterates psi <- F(psi);
* anderson: fixed stress whose next psi mixes the last ANDERSON_WINDOW
  evaluations (`AndersonState`).

All reuse a single flow factorization and a single mechanics
factorization/preconditioner, since the operators are constant in time;
`CoupledSystem` holds them, and `simulate(engine, scheme, head)`, the one
run entry, runs any scheme on it to the end.  Neither the flow system,
nor the assembled elastic operator, nor the elastic solver depends on
the scheme, so a study builds the first two once into a
`SharedOperators` holder and hands it to each scheme's engine, and on
the Krylov path the solver too (the rescaled operator and its four AMG
hierarchies); an LU is still factored once per engine.  The march, not
the elastic solver, owns a run's elastic solutions and the start of each
solve (`CoupledSystem.evaluate`): each pass solves over the last in the
run's one (7n, N) block, so a pass's states are views into that block,
valid until the run's next pass.

A fixed-stress run is a `PassState` (psi's source, the block, the
residuals, the Anderson window) that `advance` moves on by one pass, so
a run can stop and resume.  Anderson's first mix needs two pairs, so
fixed and anderson evaluate the same psi in their first SHARED_PASSES =
3 passes, bit for bit; a study that runs both computes those passes once
(`SharedHead`), and `simulate` runs each on from there, the second from
a copy.  On the seed-0 30x30x3 and 48x48x3 barrier studies that is 3 of
9 marches, and the study's wall time falls by about a quarter.
"""

from __future__ import annotations

import logging
import math
import numbers
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, GeometryError, SolverError
from .linsolve.blocks import SparseBlockSystem, split_fields
from .linsolve.krylov import SolveReport
from .linsolve.precond import SolverOptions, TpsaSolver
from .materials import PoroelasticProperties
from .mesh import Mesh
from .tpfa import FlowSystem
from .tpsa import assemble_rhs, assemble_tpsa, mean_shear_modulus

__all__ = [
    "Well",
    "TimeGrid",
    "SchemeSpec",
    "BiotCase",
    "BiotState",
    "CouplingReport",
    "SimulationResult",
    "AndersonState",
    "anderson_weights",
    "elastic_load",
    "coupling_strength",
    "SharedOperators",
    "CoupledSystem",
    "PassState",
    "advance",
    "simulate",
    "SharedHead",
    "global_mass_check",
]

_TINY = np.finfo(float).tiny

log = logging.getLogger("biotfv")


def _is_count(value) -> bool:
    """An integer, and not a bool: a count field takes no 2.5 and no True."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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

    def active_at(self, t: float, dt: float) -> bool:
        # backward Euler evaluates sources at the end of the step; a slack of
        # a millionth of a step absorbs the rounding of the grid times
        # t0 + i * dt (a few ulps of t) and never swallows a step
        slack = 1e-6 * dt
        return self.t_start + slack < t <= self.t_end + slack


@dataclass
class TimeGrid:
    dt: float
    n_steps: int
    t0: float = 0.0

    def __post_init__(self):
        # a subnormal step overflows the storage term accumulation / dt
        if not (math.isfinite(self.dt) and self.dt >= _TINY):
            raise ConfigurationError(
                f"time step must be finite, positive and at least {_TINY:.4g} s "
                "(not subnormal)"
            )
        if not _is_count(self.n_steps):
            raise ConfigurationError(
                f"number of time steps must be an integer, not {self.n_steps!r}"
            )
        if self.n_steps < 1:
            raise ConfigurationError("need at least one time step")
        if not math.isfinite(self.t0):
            raise ConfigurationError("start time t0 must be finite")

    @property
    def times(self) -> np.ndarray:
        """The N+1 time points including t0."""
        return self.t0 + self.dt * np.arange(self.n_steps + 1)


SCHEME_KINDS = ("lagged", "fixed", "anderson")
ANDERSON_WINDOW = 5  # (F(psi) - psi, F(psi)) pairs the anderson scheme mixes


@dataclass(frozen=True)
class SchemeSpec:
    """Coupling scheme and fixed-stress controls, checked for every kind."""

    kind: str = "fixed"
    tol: float = 1e-6
    max_iter: int = 25

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ConfigurationError(
                f"unknown scheme '{self.kind}' (one of {', '.join(SCHEME_KINDS)})"
            )
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ConfigurationError(
                "fixed-stress tolerance must be positive and finite"
            )
        if not _is_count(self.max_iter):
            raise ConfigurationError(
                f"fixed-stress iteration cap must be an integer, not {self.max_iter!r}"
            )
        if self.max_iter < 1:
            raise ConfigurationError("fixed-stress iteration cap must be at least 1")


@dataclass
class BiotState:
    """Coupled fields at one time point.

    A run's states hold u, r and p_hat as views into its (7n, N) elastic
    block.  An interior state of a trimmed result (`SimulationResult.trimmed`)
    holds dp and t alone, its u, r and p_hat None.
    """

    dp: np.ndarray  # fluid pressure deviation (n,) [Pa]
    u: np.ndarray | None  # displacement (n, 3) [m]
    r: np.ndarray | None  # rotation (n, 3) [Pa]
    p_hat: np.ndarray | None  # effective pressure lam*div(u) - alpha*dp (n,) [Pa]
    t: float = 0.0


@dataclass
class BiotCase:
    """A complete coupled problem: geometry, materials, sources, time grid.

    `sources` is the external source history the flow sees, one (n,) row
    per step in m^3/s: row i-1 holds the cell volumes times the fluid
    source density f_p, then the wells active at times[i] added in list
    order.  Runs share it and the initial state and never write into them.
    """

    mesh: Mesh
    props: PoroelasticProperties
    time: TimeGrid
    wells: list[Well] = field(default_factory=list)
    initial: BiotState | None = None
    name: str = ""
    sources: np.ndarray = field(init=False, repr=False)
    alpha_over_lam: np.ndarray = field(init=False, repr=False)  # per cell

    def __post_init__(self):
        self.props = self.props.validate(self.mesh)
        if np.all(np.isinf(self.props.w_out[self.mesh.boundary_faces])):
            raise ConfigurationError(
                "every wall (x_min, x_max, y_min, y_max, z_min, z_max) is "
                "traction-free, which fixes the displacement only up to a rigid "
                "motion: make at least one wall fixed or robin",
                key="boundaries",
            )
        self.alpha_over_lam = self.props.alpha / self.props.lam
        self.wells = [self._placed(well) for well in self.wells]
        times, dt = self.time.times[1:], self.time.dt
        self.sources = np.zeros((self.time.n_steps, self.mesh.n_cells))
        self.sources += self.mesh.cell_volumes * self.props.f_p
        for well in self.wells:
            active = [well.active_at(t, dt) for t in times]
            self.sources[active, well.cell] += well.rate
        if self.initial is None:
            n = self.mesh.n_cells
            self.initial = BiotState(
                dp=np.zeros(n), u=np.zeros((n, 3)), r=np.zeros((n, 3)),
                p_hat=np.zeros(n), t=self.time.t0,
            )

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
    """A run's N+1 states, its coupling source history and its report.

    The states of a run are whole, their elastic fields views into the
    run's (7n, N) block; a trimmed result keeps whole only the first and
    the final state (`trimmed`).
    """

    states: list[BiotState]
    # coupling source -(alpha/lam) * d(p_hat)/dt per step (N, n): from the
    # states of the step (fixed stress) or of the two steps before (lagged)
    psi: np.ndarray
    report: CouplingReport

    @property
    def final(self) -> BiotState:
        return self.states[-1]

    def trimmed(self) -> SimulationResult:
        """The result without the run's (7n, N) elastic block.

        Keeps the report, psi, every state's dp and t, the first state (the
        case's initial state) whole and a copy of the final one: what a
        finished run's output files, mass defect and compartment averages
        read.  The interior states' u, r and p_hat become None, so nothing
        the trimmed result holds keeps the block alive.
        """
        first, final = self.states[0], self.states[-1]
        interior = [replace(s, u=None, r=None, p_hat=None) for s in self.states[1:-1]]
        final = replace(final, u=final.u.copy(), r=final.r.copy(), p_hat=final.p_hat.copy())
        return SimulationResult([first, *interior, final], self.psi, self.report)


# ------------------------------------------------------------- Anderson


def anderson_weights(residuals: list[np.ndarray]) -> np.ndarray:
    """Affine weights minimizing the combined residual, oldest first.

    Solves min ||sum beta_i g_i|| with sum beta_i = 1 through the
    difference reformulation (unconstrained in m-1 variables).  A rank
    deficient or ill-conditioned normal matrix is regularized by a 1e-12
    diagonal shift; if a residual is not finite or the solve still
    degenerates, the weights fall back to the plain step (all weight on the
    newest pair).
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
    c = None
    # a non-finite residual takes the plain step: np.linalg.cond fails on NaN
    if np.all(np.isfinite(gram)) and np.all(np.isfinite(rhs)):
        scale = float(np.max(np.abs(np.diag(gram))))
        if scale == 0.0 or np.linalg.cond(gram) > 1e14:
            gram = gram + 1e-12 * max(scale, 1.0) * np.eye(m - 1)
        try:
            c = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            pass
    if c is None or not np.all(np.isfinite(c)):
        beta = np.zeros(m)
        beta[-1] = 1.0
        return beta
    return np.append(c, 1.0 - c.sum())


class AndersonState:
    """Sliding window of the last ANDERSON_WINDOW (F(psi) - psi, F(psi))
    pairs, kept as given.

    The caller never writes into a pushed pair, so the window holds the
    arrays themselves.
    """

    def __init__(self):
        self.pairs: deque[tuple[np.ndarray, np.ndarray]] = deque(maxlen=ANDERSON_WINDOW)

    def push(self, residual: np.ndarray, image: np.ndarray) -> None:
        self.pairs.append((residual, image))

    def next_iterate(self) -> np.ndarray:
        """The affine mix of the window's images with the smallest mixed
        residual; with one pair, that pair's image itself, the plain step."""
        if len(self.pairs) == 1:
            return self.pairs[0][1]
        beta = anderson_weights([residual for residual, _ in self.pairs])
        mixed = np.zeros_like(self.pairs[0][1])
        for weight, (_, image) in zip(beta, self.pairs):
            mixed += weight * image
        return mixed


# -------------------------------------------------------------- engine


def elastic_load(case: BiotCase, dp: np.ndarray) -> np.ndarray:
    """The (7n,) elastic right-hand side of a pressure deviation dp: the
    body force, and -(alpha/lam) * dp on the effective-pressure rows."""
    return assemble_rhs(
        case.mesh, case.props, pressure_coupling=-case.alpha_over_lam * dp
    )


def coupling_strength(props: PoroelasticProperties) -> np.ndarray:
    """Per-cell tau = alpha^2 / (c0 (lam + 2 mu/3)), infinite where c0 = 0."""
    drained_modulus = props.lam + 2.0 * props.mu / 3.0
    return np.divide(
        props.alpha**2,
        props.c0 * drained_modulus,
        out=np.full(np.shape(props.c0), np.inf),
        where=props.c0 > 0.0,
    )


class SharedOperators:
    """The flow system, the assembled elastic operator and the Krylov
    elastic solver of one case under one set of solver options, for every
    engine of a barrier study.

    None of them depends on the coupling scheme.  The first `CoupledSystem`
    handed an empty holder builds them into it; each later one takes them,
    and refuses a holder filled for another case or other solver options
    (method or rtol) before it builds anything.  `mech` stays None on the
    LU path, where each engine factors for itself.  The assembly stays
    unscaled for as long as the caller keeps the holder; the engines keep
    neither the holder nor the assembly.
    """

    def __init__(self):
        self.case: BiotCase | None = None
        self.solver: SolverOptions | None = None
        self.flow: FlowSystem | None = None
        self.elastic: SparseBlockSystem | None = None
        self.mech: TpsaSolver | None = None


class CoupledSystem:
    """Assembled, factorized operators of one case, reused across solves.

    The flow system and the elastic assembly come from ``shared``, built
    there by the first engine handed it, and so does a Krylov elastic
    solver, which keeps no state of a run; without a holder, the engine
    builds all of them for itself.  An engine on the LU path factors its
    own.  The elastic solver keeps the operator only rescaled, so the
    engine keeps no unscaled assembly.  The flow is drained
    when every coupling strength is below 1 and alpha is not zero
    everywhere; it then takes the Biot storage ``lagged_storage`` from the
    previous iterate, which is None otherwise.  The flow and the elastic
    solver each pick their own path from ``solver.method``.
    """

    def __init__(
        self,
        case: BiotCase,
        solver: SolverOptions | None = None,
        shared: SharedOperators | None = None,
    ):
        self.case = case
        solver = solver or SolverOptions()
        if shared is None:
            shared = SharedOperators()  # dropped on return, and the assembly with it
        elif shared.case is not None and (
            shared.case is not case or shared.solver != solver
        ):
            raise ValueError("shared operators belong to another case or solver options")
        mesh, props = case.mesh, case.props
        biot = props.alpha * case.alpha_over_lam
        strength = float(np.max(coupling_strength(props)))
        # without Biot storage (alpha = 0) both splits build the same flow
        self.drained = bool(np.any(biot) and strength < 1.0)
        if shared.case is None:
            log.info(
                "flow storage: %s (largest coupling strength tau %.3g)",
                "c0, drained split" if self.drained else "c0 + alpha^2/lambda",
                strength,
            )
            storage = props.c0 if self.drained else props.c0 + biot
            shared.flow = FlowSystem(mesh, props, case.time.dt, storage, solver.method)
            shared.elastic = assemble_tpsa(mesh, props)
            shared.case, shared.solver = case, solver
        self.flow = shared.flow
        self.lagged_storage = biot if self.drained else None
        self.mech = shared.mech
        if self.mech is None:
            self.mech = TpsaSolver(shared.elastic, mean_shear_modulus(mesh, props), solver)
            # the LU is not shared: perfbench's self-test barrier takes this
            # path and pins one factorization per scheme, so sharing it waits
            # for the change that moves that pin
            if not self.mech.direct:
                shared.mech = self.mech
        self.n_cells = mesh.n_cells

    def coupling_source(self, prev: BiotState, now: BiotState) -> np.ndarray:
        """Coupling source psi = -(alpha/lam) * (p_hat_now - p_hat_prev)/dt."""
        return -self.case.alpha_over_lam * (now.p_hat - prev.p_hat) / self.case.time.dt

    def flow_source(self, prev: BiotState, now: BiotState) -> np.ndarray:
        """The source the flow takes from an iterate's states around a step.

        psi, and for the drained flow psi less the storage it leaves out,
        (alpha^2/lam) * (dp_now - dp_prev)/dt.
        """
        psi = self.coupling_source(prev, now)
        if self.lagged_storage is not None:
            psi -= self.lagged_storage * (now.dp - prev.dp) / self.case.time.dt
        return psi

    def mech_solve(
        self, dp: np.ndarray, step: int, x0: np.ndarray | None = None
    ) -> SolveReport:
        """The elastic solve of step `step` (>= 1), loaded by
        -(alpha/lam) * dp and started from x0 on the iterative path.

        A failed solve is raised again naming the step.
        """
        try:
            return self.mech.solve(elastic_load(self.case, dp), x0)
        except SolverError as err:
            raise SolverError(
                f"coupled step {step} failed: {err}", trace=err.trace
            ) from err

    def evaluate(
        self, psi: np.ndarray | None, block: np.ndarray | None = None
    ) -> tuple[list[BiotState], np.ndarray]:
        """March all N steps, one flow step and then its mechanics solve
        each; return the N+1 states and the run's (7n, N) solution block.

        The flow of step i sees the flow source psi[i-1] when psi is given
        (fixed stress), and else (lagged) the one built from the two
        previous states, with state(t_{-1}) := state(t_0).  Step i's
        solution goes over column i-1 of `block`, the last march's, or of a
        new block; the states are views into it.

        Step i's base guess g is the last march's column i-1, else step
        i-1's solution x, else zero (None).  It starts from g + (x - g_prev),
        evaluated in that order, when step i-1's base guess g_prev was not
        zero, and from g otherwise: linear extrapolation in time on a first
        march, the correction step i-1 just took carried on in a later one.
        So fewer Krylov iterations are needed; each solve still stops on its
        true residual.  The LU path reads no start.  On the Krylov path the
        march logs its Krylov iterations at INFO: 0 when every start already
        met rtol, so that the march solved nothing.
        """
        case = self.case
        n_steps, times = case.time.n_steps, case.time.times
        volumes = case.mesh.cell_volumes
        marched = block is not None
        if not marched:
            # column-major, so every column is one contiguous vector
            block = np.empty((n_steps, 7 * self.n_cells)).T
        states = [case.initial]
        x = g_prev = None
        krylov_iterations = 0
        for i in range(1, n_steps + 1):
            if psi is None:
                source = self.flow_source(states[max(i - 2, 0)], states[i - 1])
            else:
                source = psi[i - 1]
            rate = case.sources[i - 1] + volumes * source
            dp = self.flow.step(states[i - 1].dp, rate)
            g = block[:, i - 1] if marched else x
            x0 = g if g_prev is None else g + (x - g_prev)
            g_prev = None if g is None else g.copy()  # the column is written over
            report = self.mech_solve(dp, i, x0)
            block[:, i - 1] = report.x
            krylov_iterations += report.iterations
            del report  # its x is in the block; it is not kept through the next solve
            x = block[:, i - 1]
            u, r, p_hat = split_fields(x, self.n_cells)
            states.append(BiotState(dp=dp, u=u, r=r, p_hat=p_hat, t=times[i]))
        if not self.mech.direct:
            log.info("march of %d steps: %d Krylov iterations", n_steps, krylov_iterations)
        return states, block

    def weighted_norm(self, psi: np.ndarray, out: np.ndarray | None = None) -> float:
        """Space-time L2 norm with cell-volume and time-step weights.

        The weighted squares go into `out`, an array of psi's shape and
        layout (psi itself may be it), and else into one new array.
        """
        squares = np.square(psi, out=out)
        squares *= self.case.mesh.cell_volumes
        return float(np.sqrt(self.case.time.dt * np.sum(squares)))


# -------------------------------------------------------------- schemes


SHARED_PASSES = 3  # passes fixed and anderson run alike: the first mix needs two pairs


@dataclass
class PassState:
    """A fixed-stress iteration between two passes; `advance` runs the next.

    `image` is the last pass's F(psi), None before the first pass.  The
    next pass evaluates that image, or, when the `window` (anderson) holds
    a pair, the window's mix; every pass after the first pushes its
    (F(psi) - psi, F(psi)) to the window.  `block` is the run's (7n, N)
    elastic block and `states` the last pass's states, views into it.
    """

    block: np.ndarray | None = None
    residuals: list[float] = field(default_factory=list)
    image: np.ndarray | None = None
    window: AndersonState | None = None
    states: list[BiotState] | None = None
    converged: bool = False

    def done(self, scheme: SchemeSpec) -> bool:
        return self.converged or len(self.residuals) >= scheme.max_iter

    def copy(self) -> PassState:
        """A copy to run more passes from, which later passes of either
        leave alone: its own block, residual list and window, without the
        last pass's states.  The pushed pairs and the image are shared,
        since no pass writes into them."""
        window = None
        if self.window is not None:
            window = AndersonState()
            window.pairs.extend(self.window.pairs)
        return replace(
            self,
            block=self.block.copy(order="F"),  # column-major, as evaluate made it
            residuals=list(self.residuals),
            window=window,
            states=None,
        )


def advance(engine: CoupledSystem, state: PassState, tol: float) -> None:
    """Run the next fixed-stress pass of `state` in place.

    The pass evaluates F(psi), the time march under the flow source psi,
    over the state's block, and records its residual F(psi) - psi in the
    volume/dt weighted space-time L2 norm relative to F(psi); it is
    converged at or below `tol`.  The residual is measured before any
    mixing, so a converged state's states are the evaluation at an
    (almost) fixed psi.  A non-finite residual raises `SolverError`.
    """
    if state.image is None:
        psi = np.zeros((engine.case.time.n_steps, engine.n_cells))
    elif state.window is not None and state.window.pairs:
        psi = state.window.next_iterate()
    else:
        psi = state.image
    state.states = state.image = None  # free the last pass's arrays before the next solve
    states, state.block = engine.evaluate(psi, state.block)
    image = np.stack([engine.flow_source(a, b) for a, b in zip(states, states[1:])])
    defect = image - psi  # the fixed-point residual, mixed by anderson
    # the zero start's pair never enters the window: the second pass is plain
    keep = state.window is not None and len(state.residuals) > 0
    # the norms square into one work array, the defect itself unless kept
    work = np.empty_like(image) if keep else defect
    change = engine.weighted_norm(defect, out=work)
    scale = engine.weighted_norm(image, out=work)
    residual = change / scale if scale > 0.0 else (0.0 if change == 0.0 else np.inf)
    state.residuals.append(residual)
    if not math.isfinite(residual):
        raise SolverError(
            f"fixed-stress residual is not finite at iteration {len(state.residuals)}",
            trace=state.residuals,
        )
    state.converged = residual <= tol
    if keep:
        state.window.push(defect, image)
    state.states, state.image = states, image


def simulate(
    engine: CoupledSystem, scheme: SchemeSpec | None = None, head: SharedHead | None = None
) -> SimulationResult:
    """Run the engine's case under one coupling scheme (default: fixed) to
    the end: the one run entry, alone or in a study.

    Lagged: one march, each flow step seeing the two states before it.
    Fixed and anderson: whole-simulation fixed-point iteration on the flow
    source psi, anderson mixing each new psi from its window, one
    `advance` per pass until the residual is at most scheme.tol or
    scheme.max_iter passes ran, on from a study's `head` when given.  The
    result holds the last march's states and their coupling source.  The
    run keeps its own (7n, N) solution block: each pass solves over the
    one before it in place and, on the iterative path, starts from it
    (`CoupledSystem.evaluate`).
    """
    scheme = scheme or SchemeSpec()
    report = CouplingReport(scheme=scheme.kind)
    if scheme.kind == "lagged":
        states, _ = engine.evaluate(None)
        pairs = zip(states[:1] + states[:-2], states[:-1])
    else:
        window = AndersonState() if scheme.kind == "anderson" else None
        state = PassState(window=window) if head is None else head.start(engine, scheme)
        while not state.done(scheme):
            advance(engine, state, scheme.tol)
        states = state.states
        pairs = zip(states, states[1:])
        report.residuals, report.converged = list(state.residuals), state.converged
    psi = np.stack([engine.coupling_source(a, b) for a, b in pairs])
    return SimulationResult(states, psi, report)


class SharedHead:
    """The first SHARED_PASSES passes of fixed stress and anderson, run once.

    Anderson's window holds one pair after its second pass, and a one-pair
    mix is the plain step, so both schemes evaluate the same psi in their
    first three passes, bit for bit.  For the first of the two, `start`
    runs those passes (fewer if the run stops sooner) with a window and
    keeps a copy of the state after them; the second resumes from that
    copy, on its own engine.  `simulate(engine, scheme, head)` runs each
    on, so each result is the one `simulate` gives that scheme alone.  The
    copy holds one (7n, N) block and the window's two pairs until the
    second run takes it over.  When the first run stops within those
    passes, the second takes its final state as it is: no later pass
    writes into it.  Both runs take the same tol and max_iter, as a
    study's schemes do.
    """

    def __init__(self):
        self.state: PassState | None = None
        self.taken_from = ""

    def start(self, engine: CoupledSystem, scheme: SchemeSpec) -> PassState:
        """The state fixed or anderson resumes from, after the shared passes:
        the first scheme runs them here, the second takes the kept copy."""
        if self.state is None:
            state = PassState(window=AndersonState())
            while not state.done(scheme) and len(state.residuals) < SHARED_PASSES:
                advance(engine, state, scheme.tol)
            # a finished state is final: no later pass writes into it
            self.state = state if state.done(scheme) else state.copy()
            self.taken_from = scheme.kind
        else:
            state, self.state = self.state, None
            passes = len(state.residuals)
            log.info(
                "scheme %s: %s taken from %s", scheme.kind,
                f"passes 1-{passes}" if passes > 1 else "pass 1", self.taken_from,
            )
        if scheme.kind != "anderson":
            state.window = None
        return state


def global_mass_check(case: BiotCase, states: list[BiotState]) -> float:
    """Defect of the change in fluid content against the injected volume.

    The Biot fluid content m = c0 * dp + alpha * div(u), with alpha * div(u)
    = (alpha/lam) * (p_hat + alpha * dp) in TPSA unknowns, changes by the
    injected volume on every mechanical closure, since no fluid crosses the
    walls; the defect is the flow's and the coupling's (for the lagged
    scheme, its last step's splitting term).  Normalized by the gross
    source volume, the sum over steps of dt * sum |rate|, when there is
    one: a source that injects and withdraws in equal parts nets roundoff,
    which would not scale the defect.  With injection only, gross and net
    volume agree.
    """
    props, dt = case.props, case.time.dt
    dp = states[-1].dp - states[0].dp
    p_hat = states[-1].p_hat - states[0].p_hat
    content = props.c0 * dp + case.alpha_over_lam * (p_hat + props.alpha * dp)
    stored = float(np.sum(case.mesh.cell_volumes * content))
    # one step at a time: a 2-D or a compensated sum rounds differently
    injected = gross = 0.0
    for rates in case.sources:
        injected += dt * rates.sum()
        gross += dt * np.abs(rates).sum()
    defect = abs(stored - injected)
    return defect / gross if gross != 0.0 else defect

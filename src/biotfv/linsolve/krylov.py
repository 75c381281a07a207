"""Right-preconditioned BiCGStab with residual tracing.

It declares convergence on the true residual norm relative to ||b||; the
recursively updated residual only gates when the check runs.  Every
breakdown test is relative, so a system and its rescaled copy take the
same iterations.  A breakdown of an inner product triggers one restart
from the current iterate before the solve fails with its trace attached.
A solve whose residual trace sets no new minimum for STAGNATION
iterations fails at once with its trace, rather than running out the cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SolverError

BREAKDOWN = 1e-30
# every elastic and flow solve's cap; the shipped studies' take at most 31
MAX_ITERATIONS = 500
# iterations without a new smallest residual after which a solve fails; no
# tier-1 or shipped solve goes more than 8 without one
STAGNATION = 30


@dataclass
class SolveReport:
    """One solve's solution and residual trace.

    The trace holds the residual norm per Krylov iteration, or the single
    relative residual of an LU solve.
    """

    x: np.ndarray
    trace: list[float]
    restarted: bool = False

    @property
    def iterations(self) -> int:
        return len(self.trace) - 1


def bicgstab(
    operator,
    rhs: np.ndarray,
    preconditioner=None,
    rtol: float = 1e-5,
    max_iter: int = MAX_ITERATIONS,
    x0: np.ndarray | None = None,
) -> SolveReport:
    """Solve operator @ x = rhs; operator is a sparse or dense matrix.

    x0 is not copied: the iterate is only ever rebound, never written in
    place, so an x0 that already meets rtol comes back as report.x.
    Without x0 the first residual is rhs itself: a sparse A @ 0 is +0.0
    throughout and rhs - (+0.0) is rhs, so skipping the product changes
    no bit.
    """
    if rtol <= 0.0:
        raise ValueError("rtol must be positive")
    apply_m = preconditioner if preconditioner is not None else (lambda v: v)
    rhs = np.asarray(rhs, dtype=float)
    norm_b = np.linalg.norm(rhs)
    x = np.zeros_like(rhs) if x0 is None else np.asarray(x0, dtype=float)
    if norm_b == 0.0:
        return SolveReport(x=np.zeros_like(rhs), trace=[0.0])

    r = rhs if x0 is None else rhs - operator @ x
    trace = [float(np.linalg.norm(r))]
    if trace[0] <= rtol * norm_b:
        return SolveReport(x=x, trace=trace)

    shadow = r.copy()
    norm_shadow = trace[0]
    rho = alpha = omega = 1.0
    v = np.zeros_like(rhs)
    p = np.zeros_like(rhs)
    restarted = False

    def restart_or_fail(reason: str):
        nonlocal r, shadow, norm_shadow, rho, alpha, omega, v, p, restarted
        if restarted:
            raise SolverError(
                f"second breakdown after restart: {reason} "
                f"(relative residual {trace[-1] / norm_b:.3e})",
                trace=trace,
            )
        restarted = True
        r = rhs - operator @ x
        shadow = r.copy()
        norm_shadow = np.linalg.norm(shadow)
        rho = alpha = omega = 1.0
        v = np.zeros_like(rhs)
        p = np.zeros_like(rhs)

    def converged() -> bool:
        # accept only on the true residual, refreshing r against drift
        nonlocal r
        true_res = rhs - operator @ x
        norm = float(np.linalg.norm(true_res))
        trace[-1] = norm
        if norm <= rtol * norm_b:
            return True
        r = true_res
        return False

    best = 0  # trace index of the smallest residual so far
    for _ in range(max_iter):
        if trace[-1] < trace[best]:
            best = len(trace) - 1
        elif len(trace) - 1 - best >= STAGNATION:
            raise SolverError(
                f"stagnated: no new residual minimum in {STAGNATION} iterations "
                f"(relative residual {trace[-1] / norm_b:.3e}, "
                f"smallest {trace[best] / norm_b:.3e})",
                trace=trace,
            )
        rho_next = float(shadow @ r)
        if abs(rho_next) < BREAKDOWN * max(norm_shadow * np.linalg.norm(r), 1e-300):
            restart_or_fail("shadow residual orthogonal to residual")
            continue
        beta = (rho_next / rho) * (alpha / omega)
        rho = rho_next
        p = r + beta * (p - omega * v)
        p_hat = apply_m(p)
        v = operator @ p_hat
        denom = float(shadow @ v)
        if abs(denom) < BREAKDOWN * max(norm_shadow * np.linalg.norm(v), 1e-300):
            restart_or_fail("search direction collapsed")
            continue
        alpha = rho / denom
        s = r - alpha * v
        x = x + alpha * p_hat
        norm_s = float(np.linalg.norm(s))
        trace.append(norm_s)
        if norm_s <= rtol * norm_b and converged():
            return SolveReport(x=x, trace=trace, restarted=restarted)
        s_hat = apply_m(s)
        t = operator @ s_hat
        tt = float(t @ t)
        if tt <= BREAKDOWN * norm_s**2:
            restart_or_fail("stabilization direction vanished")
            continue
        omega = float(t @ s) / tt
        x = x + omega * s_hat
        r = s - omega * t
        trace[-1] = float(np.linalg.norm(r))
        if trace[-1] <= rtol * norm_b and converged():
            return SolveReport(x=x, trace=trace, restarted=restarted)

    raise SolverError(
        f"no convergence in {max_iter} iterations "
        f"(relative residual {trace[-1] / norm_b:.3e})",
        trace=trace,
    )

"""Smoothed-aggregation algebraic multigrid.

Classical SA setup: strength-of-connection filtering, greedy aggregation,
a piecewise-constant tentative prolongator smoothed by one damped-Jacobi
step, and Galerkin coarse operators.  The cycle is V(1,1) with one
damped-Jacobi sweep x += w (b - A x) before and one after the coarse
correction, both with the weight vector w = (JACOBI_SMOOTHING / rho) D^-1,
so the cycle operator is symmetric for symmetric matrices.  rho is the
power-iteration estimate of rho(D^-1 A) that also damps the prolongator;
a sweep cannot raise the error's energy while JACOBI_SMOOTHING times
rho(D^-1 A) / rho stays below 2.  Setup and cycle are fully
deterministic (fixed-seed power iteration, index-ordered aggregation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..errors import SolverError


STRENGTH_THRESHOLD = 0.25
MAX_COARSE = 64  # rows at which coarsening stops
MAX_LEVELS = 25
POWER_ITERATIONS = 15
JACOBI_DAMPING = 2.0 / 3.0  # omega * rho of the prolongator smoothing
JACOBI_SMOOTHING = 1.65  # omega * rho of the cycle's sweeps, set by a sweep


def aggregation_graph(matrix: sp.csr_matrix, threshold: float) -> sp.csr_matrix:
    """Strength graph, with a fallback so no coupled node is left isolated.

    Off-diagonal couplings with |a_ij| > threshold*sqrt(|a_ii a_jj|) are
    strong.  Diagonally dominant stencils (a 7-point Laplacian has
    |a_ij|/a_ii = 1/6) can fail that test everywhere; nodes whose strong
    row is empty aggregate through all their nonzero couplings instead,
    kept in the rows and columns of those nodes.  The graph holds |a_ij|,
    doubled where a strong entry is also a fallback one (a strong a_ij
    whose column node is lonely).  Truly decoupled rows stay empty, so
    diagonal matrices never coarsen.  The entries are filtered in one pass
    over the CSR arrays, so the graph keeps the matrix's column order:
    `build_amg` hands it sorted and without duplicates.
    """
    n = matrix.shape[0]
    rows = np.repeat(np.arange(n), np.diff(matrix.indptr))
    cols, values = matrix.indices, matrix.data
    d = np.sqrt(np.abs(matrix.diagonal()))
    linked = (rows != cols) & (values != 0.0)
    magnitude = np.abs(values)
    strong = linked & (magnitude > threshold * d[rows] * d[cols])
    lonely = np.bincount(rows[strong], minlength=n) == 0
    fallback = linked & (lonely[rows] | lonely[cols])
    keep = strong | fallback
    magnitude[strong & fallback] *= 2.0
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows[keep], minlength=n))])
    return sp.csr_matrix((magnitude[keep], cols[keep], indptr), shape=matrix.shape)


def aggregate(strength: sp.csr_matrix) -> tuple[np.ndarray, int]:
    """Greedy aggregation over the strength graph.

    First pass seeds an aggregate from every node whose strong neighbors
    are all unclaimed (isolated nodes become singletons); second pass
    attaches leftovers to their most strongly connected aggregate (the
    first such neighbor in CSR order on a tie).  The first pass leaves a
    node only when a neighbor is claimed, and claims are never undone, so
    the second pass finds one for every leftover.  Strength rows are
    short, so the loops run over Python lists: a numpy call per node would
    cost more than the node's work.
    """
    n = strength.shape[0]
    indptr = strength.indptr.tolist()
    indices = strength.indices.tolist()
    data = strength.data.tolist()
    assign = [-1] * n
    count = 0
    for i in range(n):
        if assign[i] != -1:
            continue
        nbrs = indices[indptr[i] : indptr[i + 1]]
        for j in nbrs:
            if assign[j] != -1:
                break
        else:
            assign[i] = count
            for j in nbrs:
                assign[j] = count
            count += 1
    for i in range(n):
        if assign[i] != -1:
            continue
        best = -1
        best_val = 0.0
        for k in range(indptr[i], indptr[i + 1]):
            j = indices[k]
            if assign[j] != -1 and (best == -1 or data[k] > best_val):
                best, best_val = j, data[k]
        assign[i] = assign[best]
    return np.array(assign, dtype=np.int64), count


def tentative_prolongator(assign: np.ndarray, n_aggregates: int) -> sp.csr_matrix:
    n = assign.shape[0]
    return sp.csr_matrix(
        (np.ones(n), (np.arange(n), assign)), shape=(n, n_aggregates)
    )


def estimate_spectral_radius(
    matrix: sp.csr_matrix, inv_diag: np.ndarray, iterations: int
) -> float:
    """Power iteration on D^-1 A with a fixed-seed start vector."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(matrix.shape[0])
    v /= np.linalg.norm(v)
    rho = 1.0
    for _ in range(iterations):
        w = inv_diag * (matrix @ v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 1.0
        rho = norm
        v = w / norm
    return rho


def smoothed_prolongator(
    matrix: sp.csr_matrix, tentative: sp.csr_matrix, omega: float, inv_diag: np.ndarray
) -> sp.csr_matrix:
    return (tentative - sp.diags(omega * inv_diag) @ (matrix @ tentative)).tocsr()


@dataclass
class AmgLevel:
    """One level; the coarsest keeps only its matrix."""

    matrix: sp.csr_matrix
    weight: np.ndarray | None = None  # w = omega D^-1 of the Jacobi sweeps
    prolongator: sp.csr_matrix | None = None
    restriction: sp.csr_matrix | None = None


@dataclass
class AmgHierarchy:
    levels: list[AmgLevel]
    coarse_inverse: np.ndarray

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def vcycle(self, rhs: np.ndarray) -> np.ndarray:
        """One V-cycle from zero: the preconditioner action."""
        return self._cycle(0, rhs)

    def _cycle(self, depth: int, rhs: np.ndarray) -> np.ndarray:
        """One V-cycle from zero on level `depth`.

        The pre-sweep from zero is w * rhs: A @ 0 is +0.0 throughout and
        rhs - (+0.0) is rhs, and the coarse correction adds a +0.0 or a
        nonzero to every entry, so skipping the product changes no bit
        of the result.
        """
        level = self.levels[depth]
        if level.prolongator is None:
            return self.coarse_inverse @ rhs
        x = level.weight * rhs
        coarse = self._cycle(depth + 1, level.restriction @ (rhs - level.matrix @ x))
        x += level.prolongator @ coarse
        x += level.weight * (rhs - level.matrix @ x)
        return x


def build_amg(matrix: sp.spmatrix) -> AmgHierarchy:
    current = sp.csr_matrix(matrix)
    current.sort_indices()
    levels: list[AmgLevel] = []
    while current.shape[0] > MAX_COARSE and len(levels) < MAX_LEVELS - 1:
        diag = current.diagonal()
        if np.any(diag == 0.0):
            raise SolverError("zero diagonal entry, cannot smooth")
        inv_diag = 1.0 / diag
        strength = aggregation_graph(current, STRENGTH_THRESHOLD)
        assign, n_agg = aggregate(strength)
        if n_agg >= current.shape[0]:
            break  # no reduction possible, treat this level as coarsest
        rho = estimate_spectral_radius(current, inv_diag, POWER_ITERATIONS)
        omega = JACOBI_DAMPING / rho
        tentative = tentative_prolongator(assign, n_agg)
        prolongator = smoothed_prolongator(current, tentative, omega, inv_diag)
        restriction = prolongator.T.tocsr()
        levels.append(
            AmgLevel(
                matrix=current,
                weight=(JACOBI_SMOOTHING / rho) * inv_diag,
                prolongator=prolongator,
                restriction=restriction,
            )
        )
        current = (restriction @ levels[-1].matrix @ prolongator).tocsr()
        current.sort_indices()
    levels.append(AmgLevel(matrix=current))
    # pseudo-inverse tolerates the singular modes of pure traction problems
    coarse_inverse = np.linalg.pinv(current.toarray())
    return AmgHierarchy(levels=levels, coarse_inverse=coarse_inverse)

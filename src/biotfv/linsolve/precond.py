"""Block-triangular preconditioning and the elastic system solver.

The preconditioner is the lower block triangle of the rescaled operator
applied by forward substitution: multigrid V-cycles stand in for the
inverses of the three displacement component blocks and of the pressure
block, the rotation block is inverted exactly (it is diagonal), and the
upper-diagonal coupling blocks are discarded.  The preconditioner slices
its five blocks out of the rescaled matrix once, when it is built;
nothing is assembled, the action is composed from those blocks.

`TpsaSolver` factors or preconditions the rescaled matrix once and then
solves one (7n,) right-hand side per call, one per time step.  The
factored matrix is the rescaled one permuted to `blocks.cell_order`, cell
by cell; the solver's matrix, residuals and solutions stay field-major.
The solver keeps no state of a run: the iterative path starts from the
vector its caller hands it, and where a run's solutions live and where
each solve starts are the time march's (`coupling.CoupledSystem.evaluate`).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import splu

from ..errors import ConfigurationError, SolverError
from . import krylov
from .amg import build_amg
from .blocks import SparseBlockSystem, cell_order, rescale
from .krylov import SolveReport, bicgstab

# systems with at most this many unknowns are factored, larger ones go
# through the preconditioned Krylov solve (method "auto").  Set on the
# n x n x 3 barrier study, all three schemes end to end at one BLAS thread,
# when the paths tied for n = 8..13.  Re-measured with one LU solve per
# step, the Krylov path wins at every n = 8..14 (1,344 to 4,116 unknowns)
# by 1.7x to 2.3x, so the crossover now lies below n = 8; moving the value
# would change the path small cases take
DIRECT_THRESHOLD = 4_000

log = logging.getLogger("biotfv")


class BlockTriangularPreconditioner:
    """The lower block triangle of a rescaled 7n x 7n matrix, sliced once."""

    def __init__(self, matrix: csr_matrix, n_cells: int):
        n = self.n_cells = n_cells
        self.rotation_diagonal = matrix.diagonal()[3 * n : 6 * n]
        if np.any(self.rotation_diagonal == 0.0):
            raise ConfigurationError(
                "rotation block has a zero diagonal entry "
                "(shear modulus must be positive)"
            )
        self.displacement_hierarchies = [
            build_amg(matrix[c * n : (c + 1) * n, c * n : (c + 1) * n].tocsr())
            for c in range(3)
        ]
        self.pressure_hierarchy = build_amg(matrix[6 * n :, 6 * n :].tocsr())
        self.rotation_displacement = matrix[3 * n : 6 * n, : 3 * n].tocsr()
        self.pressure_displacement = matrix[6 * n :, : 3 * n].tocsr()

    def apply(self, residual: np.ndarray) -> np.ndarray:
        n = self.n_cells
        r_u, r_r, r_p = residual[: 3 * n], residual[3 * n : 6 * n], residual[6 * n :]
        y_u = np.concatenate(
            [
                hier.vcycle(r_u[c * n : (c + 1) * n])
                for c, hier in enumerate(self.displacement_hierarchies)
            ]
        )
        y_r = (r_r - self.rotation_displacement @ y_u) / self.rotation_diagonal
        y_p = self.pressure_hierarchy.vcycle(r_p - self.pressure_displacement @ y_u)
        return np.concatenate([y_u, y_r, y_p])


SOLVER_METHODS = ("auto", "direct", "iterative")


@dataclass(frozen=True)
class SolverOptions:
    """Solve settings, checked when built; each solver's own rule reads method."""

    rtol: float = 1e-5
    method: str = "auto"

    def __post_init__(self):
        if self.method not in SOLVER_METHODS:
            raise ConfigurationError(f"unknown solver method '{self.method}'")
        if not (math.isfinite(self.rtol) and self.rtol > 0):
            raise ConfigurationError("solver rtol must be positive and finite")


class TpsaSolver:
    """Factorize-or-precondition once, then solve step after step.

    The elastic operator is constant in time, so the sparse LU (small
    systems) or the rescaled preconditioner (large systems) is built a
    single time and reused for every step's solve.
    """

    def __init__(
        self,
        system: SparseBlockSystem,
        mu0: float,
        options: SolverOptions | None = None,
    ):
        self.options = options = options or SolverOptions()
        self.matrix, self.scale = rescale(system, mu0)
        if options.method == "auto":
            self.direct = system.n_dof <= DIRECT_THRESHOLD
            bound = "<=" if self.direct else ">"
            why = f"{system.n_dof} unknowns {bound} DIRECT_THRESHOLD {DIRECT_THRESHOLD}"
        else:
            self.direct = options.method == "direct"
            why = f"method = {options.method}"
        log.info(
            "elastic solve: %s (%s)",
            "sparse LU" if self.direct else "AMG-preconditioned BiCGStab",
            why,
        )
        self._order = self._lu = self._precond = None
        if self.direct:
            # minimum degree on the cell graph, each cell's seven unknowns kept
            # together: on the 30x30x3 barrier matrix 13% less fill, about a
            # third less factor time than minimum degree on the 7n unknowns,
            # and no row swaps under SuperLU's threshold pivoting
            self._order = order = cell_order(self.matrix, system.n_cells)
            permuted = self.matrix[order][:, order].tocsc()
            start = perf_counter()
            try:
                self._lu = splu(permuted, permc_spec="NATURAL")
            except RuntimeError as err:  # SuperLU: "Factor is exactly singular"
                raise SolverError(
                    f"elastic (TPSA) factorization failed: {err}"
                ) from err
            # SuperLU's own count of its supernodal L and U storage: reading
            # L.nnz + U.nnz instead copies both factors out (+110 MB peak on
            # the barrier study)
            log.info(
                "elastic LU: %d factor entries stored, factored in %.3f s",
                self._lu.nnz,
                perf_counter() - start,
            )
        else:
            self._precond = BlockTriangularPreconditioner(self.matrix, system.n_cells)

    def solve(self, rhs: np.ndarray, x0: np.ndarray | None = None) -> SolveReport:
        """Solve one (7n,) right-hand side; the report's x is a new vector.

        A right-hand side with a non-finite entry fails before anything is
        solved, and is never written to: each path scales it into a new
        vector.  The direct path solves by the LU, permuted to its cell
        order and back, and never reads x0.  The iterative path starts from
        x0 (None: zero).
        """
        if not np.isfinite(rhs).all():
            raise SolverError("elastic right-hand side is not finite")
        b = self.scale * rhs
        if self.direct:
            order = self._order
            x_tilde = np.empty(order.size)
            x_tilde[order] = self._lu.solve(b[order])
            residual = np.linalg.norm(b - self.matrix @ x_tilde) / max(
                np.linalg.norm(b), 1e-300
            )
            return SolveReport(x=self.scale * x_tilde, trace=[float(residual)])
        report = bicgstab(
            self.matrix,
            b,
            preconditioner=self._precond.apply,
            rtol=self.options.rtol,
            max_iter=krylov.MAX_ITERATIONS,
            x0=None if x0 is None else x0 / self.scale,
        )
        report.x = self.scale * report.x
        return report

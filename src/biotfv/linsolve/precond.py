"""Block-triangular preconditioning and the elastic system solver.

The preconditioner is the lower block triangle of the rescaled operator
applied by forward substitution: multigrid V-cycles stand in for the
inverses of the three displacement component blocks and of the pressure
block, the rotation block is inverted exactly (it is diagonal), and the
upper-diagonal coupling blocks are discarded.  Nothing is assembled; the
action is composed from the stored blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from ..errors import ConfigurationError
from .amg import AmgHierarchy, build_amg
from .blocks import SparseBlockSystem, rescale
from .krylov import SolveReport, bicgstab

# systems with at most this many unknowns are factored, larger ones go
# through the preconditioned Krylov solve (method "auto")
DIRECT_THRESHOLD = 30_000


@dataclass
class BlockTriangularPreconditioner:
    n_cells: int
    displacement_hierarchies: list[AmgHierarchy]
    rotation_diagonal: np.ndarray
    pressure_hierarchy: AmgHierarchy
    rotation_displacement: "object"
    pressure_displacement: "object"

    @classmethod
    def from_system(cls, system: SparseBlockSystem) -> "BlockTriangularPreconditioner":
        rotation_diagonal = system.rotation_diagonal
        if np.any(rotation_diagonal == 0.0):
            raise ConfigurationError(
                "rotation block has a zero diagonal entry "
                "(shear modulus must be positive)"
            )
        return cls(
            n_cells=system.n_cells,
            displacement_hierarchies=[
                build_amg(block) for block in system.displacement_blocks
            ],
            rotation_diagonal=rotation_diagonal,
            pressure_hierarchy=build_amg(system.pressure_block),
            rotation_displacement=system.rotation_displacement_block,
            pressure_displacement=system.pressure_displacement_block,
        )

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
    """Elastic solve settings, checked when built; "auto" picks by DIRECT_THRESHOLD."""

    rtol: float = 1e-5
    max_iter: int = 500
    method: str = "auto"

    def __post_init__(self):
        if self.method not in SOLVER_METHODS:
            raise ConfigurationError(f"unknown solver method '{self.method}'")
        if not (math.isfinite(self.rtol) and self.rtol > 0):
            raise ConfigurationError("solver rtol must be positive and finite")
        if self.max_iter < 1:
            raise ConfigurationError("solver max_iter must be at least 1")


class TpsaSolver:
    """Factorize-or-precondition once, then solve per right-hand side.

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
        self.scaled, self.scale = rescale(system, mu0)
        if options.method == "auto":
            self.direct = system.n_dof <= DIRECT_THRESHOLD
        else:
            self.direct = options.method == "direct"
        if self.direct:
            # minimum degree on A^T + A: about 2.3x less fill than the default
            # COLAMD on the elastic matrix, which is structurally symmetric
            self._lu = splu(self.scaled.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A")
            self._precond = None
        else:
            self._lu = None
            self._precond = BlockTriangularPreconditioner.from_system(self.scaled)

    def solve(self, rhs: np.ndarray, x0: np.ndarray | None = None) -> SolveReport:
        scaled_rhs = self.scale * rhs
        if self.direct:
            x_tilde = self._lu.solve(scaled_rhs)
            norm = max(np.linalg.norm(scaled_rhs), 1e-300)
            res = np.linalg.norm(scaled_rhs - self.scaled.matrix @ x_tilde)
            return SolveReport(
                x=self.scale * x_tilde, method="direct", trace=[float(res / norm)]
            )
        report = bicgstab(
            self.scaled.matrix,
            scaled_rhs,
            preconditioner=self._precond.apply,
            rtol=self.options.rtol,
            max_iter=self.options.max_iter,
            x0=None if x0 is None else np.asarray(x0) / self.scale,
        )
        report.x = self.scale * report.x
        return report

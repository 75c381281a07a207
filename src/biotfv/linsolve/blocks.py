"""Block structure and diagonal rescaling of the elastic system.

Global degrees of freedom are ordered field-major and component-major:

    [u_x | u_y | u_z | r_x | r_y | r_z | p]

with one block of length n_cells per entry.  This keeps the three
displacement component sub-blocks of the leading diagonal block
contiguous, which the preconditioner exploits: the displacement rows
couple components only through rotation and pressure columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix, diags

from ..errors import ConfigurationError

__all__ = ["SparseBlockSystem", "rescale"]


@dataclass
class SparseBlockSystem:
    """A 7n x 7n sparse operator with the field-major block layout."""

    matrix: csr_matrix
    rhs: np.ndarray
    n_cells: int

    def __post_init__(self):
        n = 7 * self.n_cells
        if self.matrix.shape != (n, n):
            raise ValueError(f"matrix shape {self.matrix.shape} does not match 7n = {n}")
        if self.rhs.shape != (n,):
            raise ValueError("rhs length does not match the matrix")

    @property
    def n_dof(self) -> int:
        return 7 * self.n_cells

    def field_slice(self, field: int) -> slice:
        """Fields 0..2 displacement, 3..5 rotation, 6 pressure."""
        n = self.n_cells
        return slice(field * n, (field + 1) * n)

    def split(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vector -> (u (n,3), r (n,3), p (n,))."""
        n = self.n_cells
        u = np.stack([x[self.field_slice(c)] for c in range(3)], axis=1)
        r = np.stack([x[self.field_slice(3 + c)] for c in range(3)], axis=1)
        return u, r, x[6 * n :].copy()

    # block views used by the triangular preconditioner

    @cached_property
    def displacement_blocks(self) -> list[csr_matrix]:
        """The three independent n x n component blocks of the u rows."""
        return [
            self.matrix[self.field_slice(c), self.field_slice(c)].tocsr()
            for c in range(3)
        ]

    @cached_property
    def rotation_diagonal(self) -> np.ndarray:
        """Diagonal of the rotation block (it has no off-diagonal part)."""
        n = self.n_cells
        return self.matrix.diagonal()[3 * n : 6 * n].copy()

    @cached_property
    def pressure_block(self) -> csr_matrix:
        n = self.n_cells
        return self.matrix[6 * n :, 6 * n :].tocsr()

    @cached_property
    def rotation_displacement_block(self) -> csr_matrix:
        n = self.n_cells
        return self.matrix[3 * n : 6 * n, : 3 * n].tocsr()

    @cached_property
    def pressure_displacement_block(self) -> csr_matrix:
        n = self.n_cells
        return self.matrix[6 * n :, : 3 * n].tocsr()


def rescale(
    system: SparseBlockSystem, mu0: float
) -> tuple[SparseBlockSystem, np.ndarray]:
    """Symmetric diagonal rescaling M~ = L M L, so the diagonal blocks no
    longer carry the modulus scale.

    Displacement dofs are scaled by mu0^(-1/2), rotation and pressure dofs
    by mu0^(+1/2).  Returns the scaled system and the diagonal of L:
    right-hand sides map as b~ = L b and solutions back as x = L x~.
    """
    if mu0 <= 0:
        raise ConfigurationError("average shear modulus must be positive")
    n = system.n_cells
    scale = np.empty(7 * n)
    scale[: 3 * n] = mu0 ** -0.5
    scale[3 * n :] = mu0 ** 0.5
    lam = diags(scale)
    scaled = SparseBlockSystem(
        matrix=(lam @ system.matrix @ lam).tocsr(),
        rhs=scale * system.rhs,
        n_cells=n,
    )
    return scaled, scale

"""Block structure and diagonal rescaling of the elastic system.

Global degrees of freedom are ordered field-major and component-major:

    [u_x | u_y | u_z | r_x | r_y | r_z | p]

with one block of length n_cells per entry.  This keeps the three
displacement component sub-blocks of the leading diagonal block
contiguous, which the preconditioner slices out of the rescaled matrix:
the displacement rows couple components only through rotation and
pressure columns.

A direct factorization wants the other layout: all seven unknowns sit at
the cell centre, so `cell_order` orders the cells by minimum degree and
keeps each cell's seven unknowns together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix, diags
from scipy.sparse.linalg import splu

from ..errors import ConfigurationError

__all__ = ["SparseBlockSystem", "cell_order", "rescale", "split_fields"]


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


def split_fields(
    x: np.ndarray, n_cells: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Field-major vector -> (u (n,3), r (n,3), p (n,)), views sharing x's memory."""
    n = n_cells
    return x[: 3 * n].reshape(3, n).T, x[3 * n : 6 * n].reshape(3, n).T, x[6 * n :]


def rescale(system: SparseBlockSystem, mu0: float) -> tuple[csr_matrix, np.ndarray]:
    """Symmetric diagonal rescaling M~ = L M L, so the diagonal blocks no
    longer carry the modulus scale.

    Displacement dofs are scaled by mu0^(-1/2), rotation and pressure dofs
    by mu0^(+1/2).  Returns the scaled matrix and the diagonal of L:
    right-hand sides map as b~ = L b and solutions back as x = L x~.
    """
    if mu0 <= 0:
        raise ConfigurationError("average shear modulus must be positive")
    n = system.n_cells
    scale = np.empty(7 * n)
    scale[: 3 * n] = mu0 ** -0.5
    scale[3 * n :] = mu0 ** 0.5
    # L M L entry by entry, rounded as (s_i m_ij) s_j like the two products
    # with diag(L), in a new data array on M's index arrays: the two
    # matrices share those, and nothing sorts or prunes either in place
    m = system.matrix
    data = np.repeat(scale, np.diff(m.indptr))
    data *= m.data
    data *= scale[m.indices]
    return csr_matrix((data, m.indices, m.indptr), shape=m.shape), scale


def cell_order(matrix: csr_matrix, n_cells: int) -> np.ndarray:
    """A fill-reducing elimination order of the 7n unknowns, cell by cell.

    The n x n quotient graph links cell i to cell j when any entry of their
    7 x 7 block is nonzero.  SuperLU's minimum degree on A^T + A orders that
    graph (its factor is thrown away: the values are made diagonally
    dominant only so that it factors), and each cell's seven unknowns then
    follow one another in field order.  Entry k of the result is the
    unknown eliminated k-th, so ``matrix[order][:, order]`` is the matrix
    to factor in its natural order.
    """
    n = n_cells
    coo = matrix.tocoo()
    linked = coo.data != 0.0
    graph = coo_matrix(
        (np.ones(np.count_nonzero(linked)), (coo.row[linked] % n, coo.col[linked] % n)),
        shape=(n, n),
    ).tocsr()
    graph.data[:] = 1.0  # conversion summed the duplicate links
    graph = graph + diags(np.asarray(graph.sum(axis=1)).ravel())
    # perm_c maps each cell to its position; its inverse lists the cells
    cells = np.argsort(splu(graph.tocsc(), permc_spec="MMD_AT_PLUS_A").perm_c)
    return (cells[:, None] + n * np.arange(7)).ravel()

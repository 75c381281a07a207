"""Cell-centered two-point flux approximation for single-phase flow.

The unknown is the fluid pressure deviation from a hydrostatic reference,
so the hydrostatic gradient never appears in the assembled operator.  All
exterior boundaries are no-flow; sealing barriers are interior faces with
zero transmissibility.  The operator is div diag(T) div^T with the signed
cell-face incidence ``Mesh.divergence``, the same one the elastic
balances use.  Time integration is backward Euler with the
combined storage coefficient c0 + alpha^2/lambda; a step takes the total
source per cell as one rate vector in m^3/s (`BiotCase.source_rate`
forms it from the rate densities and the wells).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix, diags
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from .errors import SolverError
from .mesh import Mesh, face_normal_distances, per_cell

__all__ = [
    "FlowProperties",
    "effective_conductivity",
    "assemble_flow",
    "FlowSystem",
]


@dataclass
class FlowProperties:
    """Flow material data.

    Attributes:
        perm: per-cell absolute permeability [m^2].
        viscosity: fluid viscosity [Pa s], scalar or per cell.
        c0: storativity [1/Pa], scalar or per cell.
        biot_storage: alpha^2/lambda [1/Pa], scalar or per cell.
    """

    perm: np.ndarray
    viscosity: np.ndarray | float = 1.0
    c0: np.ndarray | float = 0.0
    biot_storage: np.ndarray | float = 0.0

    def storage(self, n: int) -> np.ndarray:
        """Combined storage coefficient c0 + alpha^2/lambda per cell."""
        return per_cell(self.c0, n) + per_cell(self.biot_storage, n)


def effective_conductivity(mesh: Mesh, props: FlowProperties) -> np.ndarray:
    """Distance-weighted harmonic conductivity K/mu_w per face.

    Boundary faces (no-flow) and barrier faces get zero.  A cell with zero
    permeability simply zeroes the conductivity of its faces.
    """
    n = mesh.n_cells
    perm = per_cell(props.perm, n)
    visc = per_cell(props.viscosity, n)
    if np.any(perm < 0):
        raise ValueError("negative permeability")
    if np.any(visc <= 0):
        raise ValueError("viscosity must be positive")

    d_in, d_out = face_normal_distances(mesh)
    cond = np.zeros(mesh.n_faces)
    inter = mesh.interior_faces
    i = mesh.face_cells[inter, 0]
    j = mesh.face_cells[inter, 1]
    with np.errstate(divide="ignore"):
        res = d_in[inter] * visc[i] / perm[i] + d_out[inter] * visc[j] / perm[j]
    delta = d_in[inter] + d_out[inter]
    cond[inter] = np.where(np.isfinite(res), delta / res, 0.0)
    cond[mesh.barrier] = 0.0
    return cond


def assemble_flow(mesh: Mesh, props: FlowProperties) -> csr_matrix:
    """Symmetric positive semidefinite TPFA operator (volumetric flux form).

    The flux out of face_cells[k, 0] is T_k (div^T p)_k = T_k (p_in - p_out)
    and each cell balance is div applied to the fluxes, so the operator is
    div diag(T) div^T; boundary and barrier faces have T = 0 and leave no
    entry.
    """
    cond = effective_conductivity(mesh, props)
    d_in, d_out = face_normal_distances(mesh)
    # boundary faces: zero conductivity over an infinite distance
    trans = mesh.face_areas * cond / (d_in + d_out)
    div = mesh.divergence
    return (div @ diags(trans) @ div.T).tocsr().sorted_indices()


class FlowSystem:
    """Backward-Euler flow stepper with a reusable factorization.

    The system matrix is constant for a fixed step size, so it is
    factorized once and reused for every step and splitting iteration.
    """

    def __init__(self, mesh: Mesh, props: FlowProperties, dt: float):
        if dt <= 0:
            raise ValueError("time step must be positive")
        self.dt = float(dt)
        self.operator = assemble_flow(mesh, props)
        self.accumulation = props.storage(mesh.n_cells) * mesh.cell_volumes
        # every coupled set of cells (split by barriers and zero-permeability
        # cells) needs storage somewhere, or its level is undetermined
        _, labels = connected_components(self.operator, directed=False)
        if np.any(np.bincount(labels, weights=self.accumulation) == 0.0):
            raise SolverError(
                "flow system is singular: a no-flow compartment without storage "
                "leaves its constant pressure mode undetermined"
            )
        matrix = (self.operator + diags(self.accumulation / self.dt)).tocsc()
        # The matrix is symmetric with nonpositive off-diagonals and weakly
        # diagonally dominant, strictly in some row of every compartment (the
        # check above), so elimination in any symmetric order keeps positive
        # pivots and needs no pivoting.  Threshold pivoting would swap rows
        # and undo the minimum-degree ordering of A^T + A; without it the
        # factors have about half the fill of COLAMD's.
        try:
            self._lu = splu(
                matrix,
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        except RuntimeError as err:  # SuperLU: "Factor is exactly singular"
            raise SolverError(f"flow (TPFA) factorization failed: {err}") from err

    def step(self, dp_old: np.ndarray, rate: np.ndarray) -> np.ndarray:
        """Pressure deviation after one step, given the (n,) source in m^3/s."""
        rhs = self.accumulation / self.dt * dp_old + rate
        return self._lu.solve(rhs)

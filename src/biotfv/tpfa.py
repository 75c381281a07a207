"""Cell-centered two-point flux approximation for single-phase flow.

The unknown is the fluid pressure deviation from a hydrostatic reference,
so the hydrostatic gradient never appears in the assembled operator.  All
exterior boundaries are no-flow; sealing barriers are interior faces with
zero transmissibility.  The operator is div diag(T) div^T with the signed
cell-face incidence ``Mesh.divergence``, the same one the elastic
balances use.  Time integration is backward Euler with the per-cell
storage coefficient the caller hands `FlowSystem`: `CoupledSystem`
decides the split and passes c0 + alpha^2/lambda, or c0 alone for the
drained split, where it hands the flow the Biot storage alpha^2/lambda
as a source taken from the previous iterate.  A step takes the total
source per cell as one rate vector in m^3/s: `CoupledSystem.evaluate`
adds the coupling density times the cell volumes to the step's row of
`BiotCase.sources`, the record's fluid source density f_p times the cell
volumes plus the active wells.  Every function reads the material record
`PoroelasticProperties` after its `validate`, so permeability and
viscosity arrive as checked (n,) arrays.

`FlowSystem` solves the backward-Euler matrix one of two ways, by its own
rule: a sparse LU factored once, or, under ``method = iterative`` above
`FLOW_DIRECT_CELLS` cells, AMG-preconditioned BiCGStab from the previous
step's pressure to the fixed relative tolerance `FLOW_RTOL`.
"""

from __future__ import annotations

import logging
import math

import numpy as np
from scipy.sparse import csr_matrix, diags
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from .errors import ConfigurationError, SolverError
from .linsolve import krylov
from .linsolve.amg import build_amg
from .linsolve.precond import SOLVER_METHODS
from .materials import PoroelasticProperties
from .mesh import Mesh

__all__ = [
    "effective_conductivity",
    "assemble_flow",
    "FlowSystem",
]

# relative residual of the iterative flow solve.  The flow solve is the
# mass balance, so it does not follow the elastic rtol: each step's
# storage change closes against its source volume only up to the summed
# residual.  On the shipped barrier a Krylov flow at the elastic rtol 1e-5
# balanced fixed stress's fluid content to 4.8e-7, against 1.0e-11 at 1e-10
FLOW_RTOL = 1e-10

# only under method = iterative does a flow of more cells than this leave
# the LU for AMG-BiCGStab: a factor reused over many steps (216 in a barrier
# study) beats BiCGStab per step.  Manufactured cubes, one BLAS thread: at
# 8^3 and 12^3 the LU costs about the AMG set-up alone; at 24^3 it takes
# 0.49 s (4.06M entries), the AMG set-up 0.06 s and a step about 8 ms
FLOW_DIRECT_CELLS = 4_000

log = logging.getLogger("biotfv")


def effective_conductivity(mesh: Mesh, props: PoroelasticProperties) -> np.ndarray:
    """Distance-weighted harmonic conductivity K/mu_w per face.

    Boundary faces (no-flow) and barrier faces get zero.  A cell with zero
    permeability simply zeroes the conductivity of its faces.
    """
    perm, visc = props.perm, props.fluid_viscosity
    d_in, d_out = mesh.normal_distances
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


def assemble_flow(mesh: Mesh, props: PoroelasticProperties) -> csr_matrix:
    """Symmetric positive semidefinite TPFA operator (volumetric flux form).

    The flux out of face_cells[k, 0] is T_k (div^T p)_k = T_k (p_in - p_out)
    and each cell balance is div applied to the fluxes, so the operator is
    div diag(T) div^T; boundary and barrier faces have T = 0 and leave no
    entry.
    """
    cond = effective_conductivity(mesh, props)
    d_in, d_out = mesh.normal_distances
    # boundary faces: zero conductivity over an infinite distance
    trans = mesh.face_areas * cond / (d_in + d_out)
    div = mesh.divergence
    return (div @ diags(trans) @ div.T).tocsr().sorted_indices()


class FlowSystem:
    """Backward-Euler flow stepper with a reusable factorization or hierarchy.

    The system matrix is constant for a fixed step size, so it is
    factorized once (or given one AMG hierarchy) and reused for every step
    and splitting iteration.  storage is the (n,) storage coefficient in
    1/Pa of that matrix; method (`SolverOptions.method`) picks the path.
    """

    def __init__(
        self,
        mesh: Mesh,
        props: PoroelasticProperties,
        dt: float,
        storage: np.ndarray,
        method: str = "auto",
    ):
        if not (math.isfinite(dt) and dt > 0):
            # an infinite step drops the storage term and leaves the singular
            # operator alone; a NaN one would fail only in the factorization
            raise ConfigurationError(f"time step must be finite and positive, not {dt}")
        if method not in SOLVER_METHODS:
            raise ConfigurationError(
                f"unknown flow solver method '{method}' "
                f"(one of {', '.join(SOLVER_METHODS)})"
            )
        n = mesh.n_cells
        self.iterative = method == "iterative" and n > FLOW_DIRECT_CELLS
        why = f"method = {method}"
        if method == "iterative":
            bound = ">" if self.iterative else "<="
            why = f"{n} cells {bound} FLOW_DIRECT_CELLS {FLOW_DIRECT_CELLS}, {why}"
        path = "AMG-preconditioned BiCGStab" if self.iterative else "sparse LU"
        log.info("flow solve: %s (%s)", path, why)
        self.dt = float(dt)
        operator = assemble_flow(mesh, props)
        self.accumulation = storage * mesh.cell_volumes
        # every coupled set of cells (split by barriers and zero-permeability
        # cells) needs storage somewhere, or its level is undetermined
        _, labels = connected_components(operator, directed=False)
        if np.any(np.bincount(labels, weights=self.accumulation) == 0.0):
            raise SolverError(
                "flow system is singular: a no-flow compartment without storage "
                "leaves its constant pressure mode undetermined"
            )
        # The matrix is symmetric with nonpositive off-diagonals and weakly
        # diagonally dominant, strictly in some row of every compartment (the
        # check above).  So it is positive definite, and elimination in any
        # symmetric order keeps positive pivots and needs no pivoting.
        # Threshold pivoting would swap rows and undo the minimum-degree
        # ordering of A^T + A; without it the factors have about half the
        # fill of COLAMD's.
        matrix = operator + diags(self.accumulation / self.dt)
        self._lu = self._matrix = self._amg = None
        if self.iterative:
            self._matrix = matrix.tocsr()
            self._amg = build_amg(self._matrix)
            return
        try:
            self._lu = splu(
                matrix.tocsc(),
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        except RuntimeError as err:  # SuperLU: "Factor is exactly singular"
            raise SolverError(f"flow (TPFA) factorization failed: {err}") from err

    def step(self, dp_old: np.ndarray, rate: np.ndarray) -> np.ndarray:
        """Pressure deviation after one step, given the (n,) source in m^3/s."""
        rhs = self.accumulation / self.dt * dp_old + rate
        if not self.iterative:
            return self._lu.solve(rhs)
        try:
            report = krylov.bicgstab(
                self._matrix,
                rhs,
                preconditioner=self._amg.vcycle,
                rtol=FLOW_RTOL,
                max_iter=krylov.MAX_ITERATIONS,
                x0=dp_old,
            )
        except SolverError as err:
            raise SolverError(f"flow (TPFA) solve failed: {err}", trace=err.trace) from err
        return report.x

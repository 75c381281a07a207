"""Two-point finite-volume discretization of linear elasticity.

The solid is described by three cell fields: displacement u, a scaled
rotation r, and a solid pressure p (lambda div u, or the effective
pressure in the coupled setting).  Each face k with adjacent cells
(i, j) carries three dual quantities built from two-point differences
and weighted averages,

    stress      sigma_k =  |f| (2 mu_k grad_k u - S(n_k) avg~_k r + n_k avg~_k p)
    couple      tau_k   = -|f| S(n_k) avg_k u
    volume flux v_k     =  |f| (n_k . avg_k u + stab_k grad_k p)

where grad_k is the difference over the total normal distance, S(n) the
cross-product matrix with S(a) b = a x b, and the two averages use
the weights w = delta / mu: avg~ weights each cell by its own w, avg by
the opposite one.  The signs follow from the continuous fluxes:
(S r) n = -S(n) r.

Cell balance rows are -sum_k eps_ik (sigma, tau, v)_k plus the mass
terms |cell| (0, r/mu, p/lambda), with right-hand side |cell| f_u in the
momentum rows.  With G the linear map from cell unknowns to the face
duals and div the signed incidence ``Mesh.divergence``, the operator is
mass - (I_7 x div) G; ``recover_duals`` applies the same G.

Homogeneous boundary closures set the outside value to zero and choose
w_out: clamped 0, spring (Robin) delta_out/mu_out, and traction-free the
analytic limit w_out -> infinity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix, diags, identity, kron

from .errors import GeometryError
from .linsolve.blocks import SparseBlockSystem
from .mesh import Mesh, face_normal_distances, per_cell

__all__ = [
    "BoundaryKind",
    "MechBoundary",
    "ElasticProperties",
    "FaceDuals",
    "assemble_tpsa",
    "assemble_rhs",
    "recover_duals",
    "mean_shear_modulus",
    "stencil_arrays",
]


class BoundaryKind(enum.IntEnum):
    INTERIOR = 0
    FIXED = 1
    ROBIN = 2
    FREE = 3


@dataclass
class MechBoundary:
    """Mechanical boundary closure per face.

    kind is BoundaryKind.INTERIOR on interior faces.  Robin faces carry a
    positive spring distance and modulus defining w_out = delta / mu.
    """

    kind: np.ndarray
    robin_delta: np.ndarray
    robin_mu: np.ndarray

    @classmethod
    def uniform(cls, mesh: Mesh, kind: BoundaryKind, robin_delta=0.0, robin_mu=0.0):
        kinds = np.full(mesh.n_faces, int(BoundaryKind.INTERIOR), dtype=np.int8)
        kinds[mesh.boundary_faces] = int(kind)
        return cls(
            kind=kinds,
            robin_delta=np.full(mesh.n_faces, float(robin_delta)),
            robin_mu=np.full(mesh.n_faces, float(robin_mu)),
        )

    @classmethod
    def fixed(cls, mesh: Mesh):
        return cls.uniform(mesh, BoundaryKind.FIXED)

    @classmethod
    def free(cls, mesh: Mesh):
        return cls.uniform(mesh, BoundaryKind.FREE)

    @classmethod
    def robin(cls, mesh: Mesh, delta: float, mu: float):
        if delta <= 0 or mu <= 0:
            raise ValueError("Robin closure needs positive distance and modulus")
        return cls.uniform(mesh, BoundaryKind.ROBIN, delta, mu)

    def validate(self, mesh: Mesh) -> None:
        kinds = self.kind
        if np.any(kinds[mesh.interior_faces] != BoundaryKind.INTERIOR):
            raise ValueError("interior faces must have INTERIOR boundary kind")
        bdry = mesh.boundary_faces
        if np.any(kinds[bdry] == BoundaryKind.INTERIOR):
            raise ValueError("boundary face without a closure")
        robin = kinds == BoundaryKind.ROBIN
        if np.any(robin) and (
            np.any(self.robin_delta[robin] <= 0) or np.any(self.robin_mu[robin] <= 0)
        ):
            raise ValueError("Robin faces need positive delta and mu")


@dataclass
class ElasticProperties:
    """Per-cell solid material data and boundary closures.

    mu and lam are the Lame parameters [Pa], f_u a body-force density
    [N/m^3] additional to the hydrostatic reference.
    """

    mu: np.ndarray
    lam: np.ndarray
    boundary: MechBoundary
    f_u: np.ndarray | None = None

    def __post_init__(self):
        if np.any(np.asarray(self.mu) <= 0) or np.any(np.asarray(self.lam) <= 0):
            raise ValueError("Lame parameters must be positive")

    def body_force(self, mesh: Mesh) -> np.ndarray:
        if self.f_u is None:
            return np.zeros((mesh.n_cells, 3))
        f = np.asarray(self.f_u, dtype=float)
        return np.broadcast_to(f, (mesh.n_cells, 3)).copy()


def stencil_arrays(mesh: Mesh, props: ElasticProperties):
    """Vectorized stencil coefficients for every face.

    Returns a dict of per-face arrays: w_in, w_out, delta_total, mu_eff,
    stab_weight, at_in, at_out, g_u, g_p.  at_in and at_out weight each
    side by its own w, so at_in r_in + at_out r_out is avg~ r; the other
    average swaps them, avg u = at_out u_in + at_in u_out.  Outside values
    on boundary faces are homogeneous zero.  On traction-free faces w_out,
    delta_total and stab_weight are infinite and mu_eff is 0; the
    operative coefficients (averages, g_u, g_p) carry their analytic
    limits.
    """
    props.boundary.validate(mesh)
    mu = per_cell(props.mu, mesh.n_cells)
    d_in, d_out = face_normal_distances(mesh)
    m = mesh.n_faces
    cin = mesh.face_cells[:, 0]
    cout = mesh.face_cells[:, 1]
    kinds = props.boundary.kind

    w_in = d_in / mu[cin]
    w_out = np.zeros(m)
    inter = ~mesh.is_boundary
    w_out[inter] = d_out[inter] / mu[cout[inter]]
    robin = kinds == BoundaryKind.ROBIN
    w_out[robin] = props.boundary.robin_delta[robin] / props.boundary.robin_mu[robin]
    free = kinds == BoundaryKind.FREE
    # FIXED keeps w_out = 0; FREE is the w_out -> inf limit, taken analytically
    w_out[free] = np.inf

    delta_total = d_in.copy()
    delta_total[inter] += d_out[inter]
    delta_total[robin] += props.boundary.robin_delta[robin]
    delta_total[free] = np.inf

    finite = ~free
    denom = w_in + w_out
    at_in = np.zeros(m)
    at_out = np.zeros(m)
    g_u = np.zeros(m)
    g_p = np.zeros(m)
    mu_eff = np.zeros(m)
    stab = np.full(m, np.inf)

    at_in[finite] = w_in[finite] / denom[finite]
    at_out[finite] = w_out[finite] / denom[finite]
    g_u[finite] = 2.0 / denom[finite]
    g_p[finite] = 0.5 * w_in[finite] * w_out[finite] / denom[finite]
    mu_eff[finite] = delta_total[finite] / denom[finite]
    stab[finite] = 0.5 * w_in[finite] * w_out[finite] * mu_eff[finite]

    # traction-free limit: averages collapse to outside/inside values,
    # the stress difference term vanishes, the stabilization tends to w_in/2
    at_out[free] = 1.0
    g_p[free] = 0.5 * w_in[free]

    if np.any(d_in <= 0):
        raise GeometryError("degenerate geometry: non-positive normal distance")
    return {
        "w_in": w_in,
        "w_out": w_out,
        "delta_total": delta_total,
        "mu_eff": mu_eff,
        "stab_weight": stab,
        "at_in": at_in,
        "at_out": at_out,
        "g_u": g_u,
        "g_p": g_p,
    }


# S(n) as (row, column, sign, axis) entries: S(n)[row, column] = sign * n[axis]
_CROSS_ENTRIES = (
    (0, 1, -1.0, 2), (0, 2, +1.0, 1),
    (1, 0, +1.0, 2), (1, 2, -1.0, 0),
    (2, 0, -1.0, 1), (2, 1, +1.0, 0),
)


def _face_dual_map(mesh: Mesh, props: ElasticProperties) -> csr_matrix:
    """The (7m x 7n) map G from cell unknowns to face duals [sigma | tau | v].

    Rows are field-major like the unknowns: (sigma_x, sigma_y, sigma_z,
    tau_x, tau_y, tau_z, v), each of length n_faces.  Each cell-face
    incidence (i, k, eps_ik) of ``Mesh.divergence`` contributes one entry
    set; the inside cell (eps = +1) enters differences with -1, takes
    at_in in avg~ and at_out in avg, and the outside cell the reverse.
    """
    arr = stencil_arrays(mesh, props)
    n, m = mesh.n_cells, mesh.n_faces
    inc = mesh.divergence.tocoo()
    cell, face, eps = inc.row, inc.col, inc.data
    inside = eps > 0
    own = np.where(inside, arr["at_in"][face], arr["at_out"][face])
    other = np.where(inside, arr["at_out"][face], arr["at_in"][face])
    a = mesh.face_areas[face]
    nrm = mesh.face_normals[face]

    # (dual row field, unknown field, value per incidence)
    entries = [(6, 6, -eps * a * arr["g_p"][face])]  # v from the p difference
    for c in range(3):
        entries += [
            (c, c, -eps * a * arr["g_u"][face]),  # sigma from the u difference
            (c, 6, a * own * nrm[:, c]),  # sigma from n avg~ p
            (6, c, a * other * nrm[:, c]),  # v from n . avg u
        ]
    for c, d, sign, axis in _CROSS_ENTRIES:
        entries += [
            (c, 3 + d, -sign * a * own * nrm[:, axis]),  # sigma from -S(n) avg~ r
            (3 + c, d, -sign * a * other * nrm[:, axis]),  # tau from -S(n) avg u
        ]
    rows = np.concatenate([fr * m + face for fr, _, _ in entries])
    cols = np.concatenate([fc * n + cell for _, fc, _ in entries])
    vals = np.concatenate([v for _, _, v in entries])
    keep = vals != 0.0
    return coo_matrix(
        (vals[keep], (rows[keep], cols[keep])), shape=(7 * m, 7 * n)
    ).tocsr()


def mean_shear_modulus(mesh: Mesh, props: ElasticProperties) -> float:
    """Volume-weighted average shear modulus, the rescaling pivot."""
    mu = per_cell(props.mu, mesh.n_cells)
    return float(np.sum(mu * mesh.cell_volumes) / np.sum(mesh.cell_volumes))


def assemble_tpsa(mesh: Mesh, props: ElasticProperties) -> SparseBlockSystem:
    """Assemble the 7n x 7n elastic operator and the body-force rhs.

    Degrees of freedom are field-major: [u_x | u_y | u_z | r_x | r_y |
    r_z | p], each of length n_cells.  The operator is the mass diagonal
    minus the per-field divergence of the face duals, M - (I_7 x div) G.
    """
    n = mesh.n_cells
    mu = per_cell(props.mu, n)
    lam = per_cell(props.lam, n)
    mass = np.concatenate(
        [np.zeros(3 * n), np.tile(mesh.cell_volumes / mu, 3), mesh.cell_volumes / lam]
    )
    balance = kron(identity(7), mesh.divergence, format="csr")
    matrix = diags(mass) - balance @ _face_dual_map(mesh, props)
    matrix = matrix.tocsr().sorted_indices()
    return SparseBlockSystem(matrix=matrix, rhs=assemble_rhs(mesh, props), n_cells=n)


def assemble_rhs(
    mesh: Mesh, props: ElasticProperties, pressure_coupling: np.ndarray | None = None
) -> np.ndarray:
    """Right-hand side: volume-scaled body force, zero rotation rows, and
    an optional volume-scaled density on the pressure rows (the coupled
    problem passes -(alpha/lambda) dp there)."""
    n = mesh.n_cells
    rhs = np.zeros(7 * n)
    f_u = props.body_force(mesh)
    for c in range(3):
        rhs[c * n : (c + 1) * n] = mesh.cell_volumes * f_u[:, c]
    if pressure_coupling is not None:
        rhs[6 * n :] = mesh.cell_volumes * pressure_coupling
    return rhs


@dataclass
class FaceDuals:
    """Recovered dual quantities per face."""

    sigma: np.ndarray
    tau: np.ndarray
    v: np.ndarray


def recover_duals(mesh: Mesh, props: ElasticProperties, x: np.ndarray) -> FaceDuals:
    """Evaluate (sigma, tau, v) on every face from a solution vector.

    The same face map G the assembly applies the divergence to, so
    -div of the duals plus the mass terms reproduces the operator.
    """
    duals = (_face_dual_map(mesh, props) @ x).reshape(7, mesh.n_faces)
    return FaceDuals(sigma=duals[0:3].T, tau=duals[3:6].T, v=duals[6])

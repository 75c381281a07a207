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
momentum rows.  Homogeneous boundary closures set the outside value to
zero and choose w_out: clamped 0, spring (Robin) delta_out/mu_out, and
traction-free the analytic limit w_out -> infinity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix

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


def _stencil_arrays(mesh: Mesh, props: ElasticProperties):
    """Vectorized stencil coefficients for every face.

    Returns a dict of per-face arrays: w_in, w_out, delta_total, mu_eff,
    stab_weight, at_in, at_out (averages weighting own cells), b_in,
    b_out (opposite weights), g_u, g_p.  Outside values on boundary faces
    are homogeneous zero, so at_out and b_out are only used on interior
    faces.  On traction-free faces w_out, delta_total and stab_weight are
    infinite and mu_eff is 0; the operative coefficients (averages, g_u,
    g_p) carry their analytic limits.
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
    b_in = np.zeros(m)
    b_out = np.zeros(m)
    g_u = np.zeros(m)
    g_p = np.zeros(m)
    mu_eff = np.zeros(m)
    stab = np.full(m, np.inf)

    at_in[finite] = w_in[finite] / denom[finite]
    at_out[finite] = w_out[finite] / denom[finite]
    b_in[finite] = w_out[finite] / denom[finite]
    b_out[finite] = w_in[finite] / denom[finite]
    g_u[finite] = 2.0 / denom[finite]
    g_p[finite] = 0.5 * w_in[finite] * w_out[finite] / denom[finite]
    mu_eff[finite] = delta_total[finite] / denom[finite]
    stab[finite] = 0.5 * w_in[finite] * w_out[finite] * mu_eff[finite]

    # traction-free limit: averages collapse to outside/inside values,
    # the stress difference term vanishes, the stabilization tends to w_in/2
    at_out[free] = 1.0
    b_in[free] = 1.0
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
        "b_in": b_in,
        "b_out": b_out,
        "g_u": g_u,
        "g_p": g_p,
    }


def mean_shear_modulus(mesh: Mesh, props: ElasticProperties) -> float:
    """Volume-weighted average shear modulus, the rescaling pivot."""
    mu = per_cell(props.mu, mesh.n_cells)
    return float(np.sum(mu * mesh.cell_volumes) / np.sum(mesh.cell_volumes))


def assemble_tpsa(mesh: Mesh, props: ElasticProperties) -> SparseBlockSystem:
    """Assemble the 7n x 7n elastic operator and the body-force rhs.

    Degrees of freedom are field-major: [u_x | u_y | u_z | r_x | r_y |
    r_z | p], each of length n_cells.  Row blocks are the cell balances
    -sum_k eps_ik (sigma, tau, v)_k plus mass terms.
    """
    arr = _stencil_arrays(mesh, props)
    n = mesh.n_cells
    mu = per_cell(props.mu, n)
    lam = per_cell(props.lam, n)

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []

    def dof(fld, cells):
        return fld * n + cells

    def add(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    area = mesh.face_areas
    nrm = mesh.face_normals
    cin = mesh.face_cells[:, 0]
    cout = mesh.face_cells[:, 1]
    inter = mesh.interior_faces
    allf = np.arange(mesh.n_faces)

    # S(n) index pattern: entries (c, d, sign, axis) with value sign * n[axis]
    cross_entries = [
        (0, 1, -1.0, 2), (0, 2, +1.0, 1),
        (1, 0, +1.0, 2), (1, 2, -1.0, 0),
        (2, 0, -1.0, 1), (2, 1, +1.0, 0),
    ]

    # row side: (cells, eps); column side: (cells, own-average at, opposite
    # average b, gradient sign)
    def face_contrib(faces, row_cells, eps, col_cells, at, b, grad_sign):
        a = area[faces]
        # momentum rows, u columns: eps * (-1) * grad_sign * a * g_u, diagonal
        v_uu = -eps * grad_sign * a * arr["g_u"][faces]
        for c in range(3):
            add(dof(c, row_cells), dof(c, col_cells), v_uu)
        # momentum rows, r columns: -eps * (-a at S) = eps a at S
        for c, d, sgn, ax in cross_entries:
            v = eps * a * at * sgn * nrm[faces, ax]
            add(dof(c, row_cells), dof(3 + d, col_cells), v)
        # momentum rows, p column: -eps * a at n_c
        for c in range(3):
            add(dof(c, row_cells), dof(6, col_cells), -eps * a * at * nrm[faces, c])
        # rotation rows, u columns: -eps * (-a b S) = eps a b S
        for c, d, sgn, ax in cross_entries:
            v = eps * a * b * sgn * nrm[faces, ax]
            add(dof(3 + c, row_cells), dof(d, col_cells), v)
        # pressure row, u columns: -eps * a b n_d
        for d in range(3):
            add(dof(6, row_cells), dof(d, col_cells), -eps * a * b * nrm[faces, d])
        # pressure row, p column: -eps * grad_sign * a g_p
        add(dof(6, row_cells), dof(6, col_cells), -eps * grad_sign * a * arr["g_p"][faces])

    at_in, at_out = arr["at_in"], arr["at_out"]
    b_in, b_out = arr["b_in"], arr["b_out"]

    # inside-cell rows (eps = +1) against inside and outside columns
    face_contrib(allf, cin[allf], +1.0, cin[allf], at_in[allf], b_in[allf], -1.0)
    face_contrib(inter, cin[inter], +1.0, cout[inter], at_out[inter], b_out[inter], +1.0)
    # outside-cell rows (eps = -1), interior faces only
    face_contrib(inter, cout[inter], -1.0, cin[inter], at_in[inter], b_in[inter], -1.0)
    face_contrib(inter, cout[inter], -1.0, cout[inter], at_out[inter], b_out[inter], +1.0)

    # mass terms
    cells = np.arange(n)
    for c in range(3):
        add(dof(3 + c, cells), dof(3 + c, cells), mesh.cell_volumes / mu)
    add(dof(6, cells), dof(6, cells), mesh.cell_volumes / lam)

    matrix = coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(7 * n, 7 * n),
    ).tocsr()
    matrix.sum_duplicates()
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

    Post-processing path independent of the assembled matrix; re-summing
    the duals per cell reproduces the flux part of the operator, which
    the test suite uses to cross-check the assembly.
    """
    arr = _stencil_arrays(mesh, props)
    n = mesh.n_cells
    u = np.stack([x[c * n : (c + 1) * n] for c in range(3)], axis=1)
    r = np.stack([x[(3 + c) * n : (4 + c) * n] for c in range(3)], axis=1)
    p = x[6 * n :]

    cin = mesh.face_cells[:, 0]
    cout = mesh.face_cells[:, 1]
    outside = (~mesh.is_boundary).astype(float)[:, None]
    u_in, r_in, p_in = u[cin], r[cin], p[cin]
    # homogeneous outside values on the boundary
    u_out = u[cout] * outside
    r_out = r[cout] * outside
    p_out = p[cout] * outside[:, 0]

    a = mesh.face_areas[:, None]
    nrm = mesh.face_normals
    at_in, at_out = arr["at_in"][:, None], arr["at_out"][:, None]
    b_in, b_out = arr["b_in"][:, None], arr["b_out"][:, None]

    sigma = a * (
        arr["g_u"][:, None] * (u_out - u_in)
        - np.cross(nrm, at_in * r_in + at_out * r_out)
        + nrm * (at_in * p_in[:, None] + at_out * p_out[:, None])
    )
    tau = -a * np.cross(nrm, b_in * u_in + b_out * u_out)
    v = mesh.face_areas * (
        np.einsum("kd,kd->k", nrm, b_in * u_in + b_out * u_out)
        + arr["g_p"] * (p_out - p_in)
    )
    return FaceDuals(sigma=sigma, tau=tau, v=v)

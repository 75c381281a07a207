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
duals (``_face_dual_map``) and div the signed incidence
``Mesh.divergence``, the operator is mass - (I_7 x div) G; G applied to
a solution gives the face duals themselves.

Homogeneous boundary closures set the outside value to zero and choose
w_out: clamped 0, spring (Robin) delta_out/mu_out, and traction-free the
analytic limit w_out -> infinity.  Every function reads the material
record `PoroelasticProperties` after its `validate`: mu and lam as (n,)
arrays, the body force f_u as (n, 3) and that one weight per face as
the (n_faces,) array w_out.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix, diags

from .errors import GeometryError
from .linsolve.blocks import SparseBlockSystem
from .materials import PoroelasticProperties
from .mesh import Mesh

__all__ = [
    "assemble_tpsa",
    "assemble_rhs",
    "mean_shear_modulus",
    "stencil_arrays",
]


def stencil_arrays(mesh: Mesh, props: PoroelasticProperties):
    """Vectorized stencil coefficients for every face.

    Returns a dict of per-face arrays: at_in, at_out, g_u, g_p.  With
    w = delta / mu on each side (w_out from the boundary closure on
    boundary faces) and W = w_in + w_out, at_in = w_in / W and at_out =
    w_out / W weight each side by its own w, so at_in r_in + at_out r_out
    is avg~ r; the other average swaps them, avg u = at_out u_in + at_in
    u_out.  The differences are scaled by g_u = 2 mu_eff / delta_total =
    2 / W and g_p = stab / delta_total = w_in w_out / (2 W), where
    mu_eff = delta_total / W and stab = w_in w_out mu_eff / 2.  Outside
    values on boundary faces are homogeneous zero.  On traction-free
    faces (w_out = inf) the coefficients carry their analytic limits:
    at_in 0, at_out 1, g_u 0, g_p w_in / 2.
    """
    d_in, d_out = mesh.normal_distances
    if np.any(d_in <= 0):
        raise GeometryError("degenerate geometry: non-positive normal distance")
    cin, cout = mesh.face_cells.T
    w_in = d_in / props.mu[cin]
    w_out = np.where(mesh.is_boundary, props.w_out, d_out / props.mu[cout])
    finite = ~np.isinf(w_out)
    denom = w_in + w_out
    return {
        "at_in": w_in / denom,  # 0 on free faces
        "at_out": np.divide(w_out, denom, out=np.ones(mesh.n_faces), where=finite),
        "g_u": 2.0 / denom,  # 0 on free faces: no stress difference term
        "g_p": np.divide(0.5 * w_in * w_out, denom, out=0.5 * w_in, where=finite),
    }


# S(n) as (row, column, sign, axis) entries: S(n)[row, column] = sign * n[axis]
_CROSS_ENTRIES = (
    (0, 1, -1.0, 2), (0, 2, +1.0, 1),
    (1, 0, +1.0, 2), (1, 2, -1.0, 0),
    (2, 0, -1.0, 1), (2, 1, +1.0, 0),
)


def _face_dual_map(mesh: Mesh, props: PoroelasticProperties) -> csr_matrix:
    """The (7m x 7n) map G from cell unknowns to face duals [sigma | tau | v].

    G has no repeated (row, column), so its CSR holds exactly the nonzero
    entries of ``_face_dual_entries``, in their order.  The entries are
    made in their own call so that its per-incidence work arrays are
    freed before the CSR conversion, which sets the assembly's peak.
    """
    vals, rows, cols = _face_dual_entries(mesh, props)
    shape = (7 * mesh.n_faces, 7 * mesh.n_cells)
    return coo_matrix((vals, (rows, cols)), shape=shape).tocsr()


def _face_dual_entries(mesh: Mesh, props: PoroelasticProperties):
    """The nonzero entries of G as (values, rows, columns) arrays.

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

    def kept(row_field: int, col_field: int, values: np.ndarray):
        # about half the values are zero normal components: only the rest
        # become (value, row, column) entries, indexed in the incidence's dtype
        nonzero = np.flatnonzero(values)
        return (
            values[nonzero],
            row_field * m + face[nonzero],
            col_field * n + cell[nonzero],
        )

    pieces = [kept(6, 6, -eps * a * arr["g_p"][face])]  # v from the p difference
    for c in range(3):
        pieces += [
            kept(c, c, -eps * a * arr["g_u"][face]),  # sigma from the u difference
            kept(c, 6, a * own * nrm[:, c]),  # sigma from n avg~ p
            kept(6, c, a * other * nrm[:, c]),  # v from n . avg u
        ]
    for c, d, sign, axis in _CROSS_ENTRIES:
        pieces += [
            kept(c, 3 + d, -sign * a * own * nrm[:, axis]),  # sigma from -S(n) avg~ r
            kept(3 + c, d, -sign * a * other * nrm[:, axis]),  # tau from -S(n) avg u
        ]
    return tuple(np.concatenate(part) for part in zip(*pieces))


def _block_divergence(mesh: Mesh) -> csr_matrix:
    """I_7 x div, the (7n x 7m) per-field cell balance, from div's CSR arrays.

    Diagonal block k is div with its columns shifted by k m, so the arrays
    are div's tiled seven times: the CSR that ``kron(identity(7), div,
    format="csr")`` makes through COO, bit for bit and in its index dtype.
    """
    div = mesh.divergence
    shift = np.arange(7)[:, None]
    return csr_matrix(
        (
            np.tile(div.data, 7),
            (div.indices + shift * mesh.n_faces).ravel(),
            np.append((div.indptr[:-1] + shift * div.nnz).ravel(), 7 * div.nnz),
        ),
        shape=(7 * mesh.n_cells, 7 * mesh.n_faces),
    )


def mean_shear_modulus(mesh: Mesh, props: PoroelasticProperties) -> float:
    """Volume-weighted average shear modulus, the rescaling pivot."""
    return float(np.sum(props.mu * mesh.cell_volumes) / np.sum(mesh.cell_volumes))


def assemble_tpsa(mesh: Mesh, props: PoroelasticProperties) -> SparseBlockSystem:
    """Assemble the 7n x 7n elastic operator and the body-force rhs.

    Degrees of freedom are field-major: [u_x | u_y | u_z | r_x | r_y |
    r_z | p], each of length n_cells.  The operator is the mass diagonal
    minus the per-field divergence of the face duals, M - (I_7 x div) G.
    """
    n = mesh.n_cells
    volumes = mesh.cell_volumes
    mass = np.concatenate(
        [np.zeros(3 * n), np.tile(volumes / props.mu, 3), volumes / props.lam]
    )
    dual = _face_dual_map(mesh, props)
    product = _block_divergence(mesh) @ dual
    del dual  # both operands go before the subtraction, which sets the peak
    matrix = (diags(mass) - product).tocsr()
    matrix.sort_indices()
    return SparseBlockSystem(matrix=matrix, rhs=assemble_rhs(mesh, props), n_cells=n)


def assemble_rhs(
    mesh: Mesh,
    props: PoroelasticProperties,
    pressure_coupling: np.ndarray | None = None,
) -> np.ndarray:
    """The (7n,) right-hand side: volume-scaled body force, zero rotation
    rows, and an optional volume-scaled (n,) density on the pressure rows
    (the coupled problem passes -(alpha/lambda) dp there)."""
    n = mesh.n_cells
    volumes = mesh.cell_volumes
    density = np.zeros(n) if pressure_coupling is None else pressure_coupling
    rhs = np.zeros(7 * n)
    rhs[: 3 * n] = (volumes[:, None] * props.f_u).T.ravel()  # u_x | u_y | u_z
    rhs[6 * n :] = volumes * density
    return rhs

"""Polyhedral cell-face mesh with Cartesian builders.

The data model is deliberately minimal: cells carry centers and volumes,
faces carry centers, areas and one canonical unit normal each.  The
canonical normal points out of ``face_cells[k, 0]`` and into
``face_cells[k, 1]``, so the orientation sign of cell i at face k is

    eps_ik = +1 if i == face_cells[k, 0] else -1.

``Mesh.divergence`` is the sparse (cells x faces) matrix of these signs
and the only place that applies the convention: every cell balance,
-sum_k eps_ik (flux)_k, is that matrix applied to a face quantity.
Boundary faces have ``face_cells[k, 1] == -1`` and outward normals.
Sealing barriers are flagged per face and affect flow transmissibility
only; the elastic discretization treats them as ordinary interior faces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import GeometryError

__all__ = [
    "Mesh",
    "build_cartesian",
    "build_barrier_mesh",
    "face_normal_distances",
    "per_cell",
]


def per_cell(value, n: int) -> np.ndarray:
    """Broadcast a scalar or an (n,) value to a float array of length n."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(n, float(arr))
    if arr.shape != (n,):
        raise ValueError(f"expected scalar or ({n},) array, got shape {arr.shape}")
    return arr


@dataclass
class Mesh:
    """Cell-face mesh with canonical face normals.

    Attributes:
        cell_centers: (n, 3) cell centroids.
        cell_volumes: (n,) positive cell volumes.
        face_centers: (m, 3) face centroids.
        face_normals: (m, 3) unit normals, pointing out of face_cells[:, 0].
        face_areas: (m,) positive face areas.
        face_cells: (m, 2) adjacent cell ids; column 1 is -1 on the boundary.
        barrier: (m,) bool, True on sealing interior faces.
        vertices: optional (nv, 3) node coordinates (Cartesian builders only).
        cell_nodes: optional (n, 8) hexahedron corner ids in VTK order.
        shape: optional (nx, ny, nz) for structured builders.
    """

    cell_centers: np.ndarray
    cell_volumes: np.ndarray
    face_centers: np.ndarray
    face_normals: np.ndarray
    face_areas: np.ndarray
    face_cells: np.ndarray
    barrier: np.ndarray
    vertices: np.ndarray | None = None
    cell_nodes: np.ndarray | None = None
    shape: tuple[int, int, int] | None = None
    lengths: tuple[float, float, float] | None = None

    @property
    def n_cells(self) -> int:
        return self.cell_centers.shape[0]

    @property
    def n_faces(self) -> int:
        return self.face_centers.shape[0]

    @cached_property
    def is_boundary(self) -> np.ndarray:
        return self.face_cells[:, 1] < 0

    @cached_property
    def interior_faces(self) -> np.ndarray:
        return np.flatnonzero(~self.is_boundary)

    @cached_property
    def boundary_faces(self) -> np.ndarray:
        return np.flatnonzero(self.is_boundary)

    @cached_property
    def divergence(self) -> csr_matrix:
        """Signed cell-face incidence, (n_cells, n_faces): entry (i, k) is eps_ik."""
        inter = self.interior_faces
        cells = np.concatenate([self.face_cells[:, 0], self.face_cells[inter, 1]])
        faces = np.concatenate([np.arange(self.n_faces), inter])
        signs = np.concatenate([np.ones(self.n_faces), -np.ones(inter.size)])
        return coo_matrix(
            (signs, (cells, faces)), shape=(self.n_cells, self.n_faces)
        ).tocsr()

    def flow_components(self) -> np.ndarray:
        """Connected-component label per cell of the flow adjacency.

        Two cells are flow-adjacent when they share an interior face that
        is not a barrier.
        """
        keep = ~self.is_boundary & ~self.barrier
        i = self.face_cells[keep, 0]
        j = self.face_cells[keep, 1]
        ones = np.ones(i.size)
        adj = coo_matrix((ones, (i, j)), shape=(self.n_cells, self.n_cells))
        _, labels = connected_components(adj, directed=False)
        return labels

    def cell_index(self, ix: int, iy: int, iz: int) -> int:
        """Structured (ix, iy, iz) to cell id; builders only."""
        if self.shape is None:
            raise GeometryError("mesh has no structured shape information")
        nx, ny, nz = self.shape
        if not (0 <= ix < nx and 0 <= iy < ny and 0 <= iz < nz):
            raise GeometryError(f"cell index ({ix}, {iy}, {iz}) outside {self.shape}")
        return ix + nx * (iy + ny * iz)

    def validate(self) -> None:
        """Check geometric invariants; raise GeometryError on violation."""
        if np.any(self.cell_volumes <= 0):
            raise GeometryError("non-positive cell volume")
        if np.any(self.face_areas <= 0):
            raise GeometryError("non-positive face area")
        norms = np.linalg.norm(self.face_normals, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise GeometryError("face normals are not unit vectors")
        if np.any(self.face_cells[:, 0] < 0):
            raise GeometryError("face_cells[:, 0] must be a valid cell id")
        inter = ~self.is_boundary
        if np.any(self.face_cells[inter, 0] == self.face_cells[inter, 1]):
            raise GeometryError("face adjacent to the same cell twice")
        if np.any(self.barrier & self.is_boundary):
            raise GeometryError("barrier flags are only allowed on interior faces")
        self._check_closed_surfaces()
        self._check_normal_distances()

    def _check_closed_surfaces(self) -> None:
        # sum of eps_ik |face| n_k over each cell boundary must vanish
        acc = self.divergence @ (self.face_areas[:, None] * self.face_normals)
        scale = abs(self.divergence) @ self.face_areas
        rel = np.linalg.norm(acc, axis=1) / np.maximum(scale, 1e-300)
        if np.any(rel > 1e-12):
            raise GeometryError(
                f"cell surface not closed, max relative defect {rel.max():.3e}"
            )

    def _check_normal_distances(self) -> None:
        d_in, d_out = face_normal_distances(self)
        if np.any(d_in <= 0):
            raise GeometryError("non-positive normal distance on primary side")
        # boundary faces carry d_out = inf and pass
        if np.any(d_out <= 0):
            raise GeometryError("non-positive normal distance on secondary side")


def face_normal_distances(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Per-face normal distances (delta_in, delta_out) for two-point stencils.

    delta_in belongs to face_cells[:, 0], delta_out to face_cells[:, 1].
    Boundary faces have no outside cell; their delta_out is set to inf and
    must be replaced by the boundary closure of the caller.
    """
    d_in = np.einsum(
        "kd,kd->k",
        mesh.face_normals,
        mesh.face_centers - mesh.cell_centers[mesh.face_cells[:, 0]],
    )
    d_out = np.full(mesh.n_faces, np.inf)
    inter = mesh.interior_faces
    d_out[inter] = -np.einsum(
        "kd,kd->k",
        mesh.face_normals[inter],
        mesh.face_centers[inter] - mesh.cell_centers[mesh.face_cells[inter, 1]],
    )
    return d_in, d_out


def _axis_faces(nx: int, ny: int, nz: int, axis: int, dx: np.ndarray, origin: np.ndarray):
    """Face data for all faces orthogonal to one axis of a Cartesian grid.

    Returns (centers, normals, cells) where normals follow the canonical
    convention: +axis on interior and high-boundary faces, -axis on
    low-boundary faces, so the normal always points out of cells[:, 0].
    """
    n = np.array([nx, ny, nz])
    counts = n.copy()
    counts[axis] += 1
    idx = np.stack(
        np.meshgrid(*[np.arange(c) for c in counts], indexing="ij"), axis=-1
    ).reshape(-1, 3)

    centers = origin + (idx + 0.5) * dx
    centers[:, axis] = origin[axis] + idx[:, axis] * dx[axis]

    pos = idx[:, axis]
    low = pos == 0
    high = pos == n[axis]

    def cid(triple):
        return triple[:, 0] + nx * (triple[:, 1] + ny * triple[:, 2])

    plus_side = idx.copy()  # cell on the +axis side of the face
    minus_side = idx.copy()
    minus_side[:, axis] -= 1

    cells = np.empty((idx.shape[0], 2), dtype=np.int64)
    normals = np.zeros((idx.shape[0], 3))
    normals[:, axis] = 1.0

    interior = ~(low | high)
    cells[interior, 0] = cid(minus_side[interior])
    cells[interior, 1] = cid(plus_side[interior])
    # low boundary: the only cell sits on the +axis side, outward normal -axis
    cells[low, 0] = cid(plus_side[low])
    cells[low, 1] = -1
    normals[low, axis] = -1.0
    cells[high, 0] = cid(minus_side[high])
    cells[high, 1] = -1
    return centers, normals, cells, idx


def build_cartesian(
    nx: int,
    ny: int,
    nz: int,
    lengths: tuple[float, float, float] = (1.0, 1.0, 1.0),
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> Mesh:
    """Uniform Cartesian hexahedral mesh on a box.

    Cell ids run x-fastest: id = ix + nx (iy + ny iz).
    """
    if min(nx, ny, nz) < 1:
        raise GeometryError("cell counts must be at least 1 in every direction")
    if not np.all(np.isfinite([*lengths, *origin])):
        raise GeometryError("domain lengths and origin must be finite")
    if min(lengths) <= 0:
        raise GeometryError("domain lengths must be positive")
    nx, ny, nz = int(nx), int(ny), int(nz)
    dims = np.array([nx, ny, nz])
    dx = np.asarray(lengths, dtype=float) / dims
    org = np.asarray(origin, dtype=float)

    ci = np.stack(
        np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"), axis=-1
    ).reshape(-1, 3)
    # meshgrid(ij) varies z slowest in the last reshape axis; reorder to x-fastest
    order = np.argsort(ci[:, 0] + nx * (ci[:, 1] + ny * ci[:, 2]), kind="stable")
    ci = ci[order]
    cell_centers = org + (ci + 0.5) * dx
    cell_volumes = np.full(nx * ny * nz, float(np.prod(dx)))

    fc, fn, fcell, areas = [], [], [], []
    area_by_axis = [dx[1] * dx[2], dx[0] * dx[2], dx[0] * dx[1]]
    for axis in range(3):
        centers, normals, cells, _ = _axis_faces(nx, ny, nz, axis, dx, org)
        fc.append(centers)
        fn.append(normals)
        fcell.append(cells)
        areas.append(np.full(centers.shape[0], area_by_axis[axis]))

    mesh = Mesh(
        cell_centers=cell_centers,
        cell_volumes=cell_volumes,
        face_centers=np.concatenate(fc),
        face_normals=np.concatenate(fn),
        face_areas=np.concatenate(areas),
        face_cells=np.concatenate(fcell),
        barrier=np.zeros(sum(c.shape[0] for c in fc), dtype=bool),
        vertices=_cartesian_vertices(nx, ny, nz, dx, org),
        cell_nodes=_cartesian_cell_nodes(nx, ny, nz),
        shape=(nx, ny, nz),
        lengths=tuple(float(v) for v in lengths),
    )
    mesh.validate()
    return mesh


def _cartesian_vertices(nx, ny, nz, dx, org):
    vi = np.stack(
        np.meshgrid(np.arange(nx + 1), np.arange(ny + 1), np.arange(nz + 1), indexing="ij"),
        axis=-1,
    ).reshape(-1, 3)
    order = np.argsort(vi[:, 0] + (nx + 1) * (vi[:, 1] + (ny + 1) * vi[:, 2]), kind="stable")
    return org + vi[order] * dx


def _cartesian_cell_nodes(nx, ny, nz):
    def nid(ix, iy, iz):
        return ix + (nx + 1) * (iy + (ny + 1) * iz)

    ci = np.stack(
        np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"), axis=-1
    ).reshape(-1, 3)
    order = np.argsort(ci[:, 0] + nx * (ci[:, 1] + ny * ci[:, 2]), kind="stable")
    ci = ci[order]
    ix, iy, iz = ci[:, 0], ci[:, 1], ci[:, 2]
    # VTK hexahedron corner ordering
    corners = [
        (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
        (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
    ]
    return np.stack([nid(ix + a, iy + b, iz + c) for a, b, c in corners], axis=1)


def build_barrier_mesh(
    nx: int,
    ny: int,
    nz: int,
    lengths: tuple[float, float, float] = (1.0, 1.0, 1.0),
    axis: int = 0,
    index: int | None = None,
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> Mesh:
    """Cartesian mesh with one sealing plane of interior faces.

    The barrier sits between cell layers index-1 and index along the given
    axis and splits the flow adjacency into exactly two components; the
    elastic coupling across it is untouched.
    """
    counts = (int(nx), int(ny), int(nz))
    if index is None:
        index = counts[axis] // 2
    if not (1 <= index <= counts[axis] - 1):
        raise GeometryError(
            f"barrier plane index {index} must be interior, in [1, {counts[axis] - 1}]"
        )
    mesh = build_cartesian(nx, ny, nz, lengths, origin)
    plane = origin[axis] + lengths[axis] * index / counts[axis]
    on_plane = (np.abs(mesh.face_normals[:, axis]) > 0.5) & (
        np.abs(mesh.face_centers[:, axis] - plane) < 1e-12 * max(lengths)
    )
    mesh.barrier = on_plane & ~mesh.is_boundary
    n_comp = len(np.unique(mesh.flow_components()))
    if n_comp != 2:
        raise GeometryError(f"barrier mesh has {n_comp} flow components, expected 2")
    return mesh

"""Mesh construction and geometry invariants.

Expected values are derived independently: face counts from the
combinatorial formula for structured grids, distances from the grid
spacing, connectivity from a hand-rolled breadth-first search.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import cell_faces, normal_distance, orientation

from biotfv.errors import GeometryError
from biotfv.mesh import (
    Mesh,
    build_barrier_mesh,
    build_cartesian,
    face_normal_distances,
    per_cell,
)


def _expected_face_count(nx, ny, nz):
    interior = (nx - 1) * ny * nz + nx * (ny - 1) * nz + nx * ny * (nz - 1)
    boundary = 2 * (ny * nz + nx * nz + nx * ny)
    return interior, boundary


def _bfs_components(n_cells, edges):
    labels = -np.ones(n_cells, dtype=int)
    adj = [[] for _ in range(n_cells)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    comp = 0
    for start in range(n_cells):
        if labels[start] >= 0:
            continue
        stack = [start]
        labels[start] = comp
        while stack:
            c = stack.pop()
            for nb in adj[c]:
                if labels[nb] < 0:
                    labels[nb] = comp
                    stack.append(nb)
        comp += 1
    return comp, labels


def test_unit_cube_single_cell():
    mesh = build_cartesian(1, 1, 1)
    assert mesh.n_cells == 1
    assert mesh.n_faces == 6
    assert np.allclose(mesh.cell_volumes, 1.0)
    assert np.allclose(mesh.cell_centers, [[0.5, 0.5, 0.5]])
    assert np.all(mesh.is_boundary)
    # all normals outward: n . (x_face - x_cell) > 0
    d = np.einsum("kd,kd->k", mesh.face_normals, mesh.face_centers - mesh.cell_centers[0])
    assert np.all(d > 0)


def test_two_cell_mesh_geometry():
    mesh = build_cartesian(2, 1, 1)
    assert mesh.n_cells == 2
    k = mesh.interior_faces
    assert k.size == 1
    k = int(k[0])
    assert mesh.face_areas[k] == pytest.approx(1.0)
    i, j = mesh.face_cells[k]
    assert normal_distance(mesh, i, k) == pytest.approx(0.25)
    assert normal_distance(mesh, j, k) == pytest.approx(0.25)
    d_in, d_out = face_normal_distances(mesh)
    assert (d_in[k], d_out[k]) == pytest.approx((0.25, 0.25))
    # orientation signs are opposite across the face
    assert orientation(mesh, int(i), k) == 1
    assert orientation(mesh, int(j), k) == -1


@pytest.mark.parametrize("dims", [(2, 1, 1), (3, 2, 1), (4, 3, 2), (5, 5, 5)])
def test_face_counts(dims):
    nx, ny, nz = dims
    mesh = build_cartesian(nx, ny, nz)
    interior, boundary = _expected_face_count(nx, ny, nz)
    assert mesh.interior_faces.size == interior
    assert mesh.boundary_faces.size == boundary
    assert mesh.n_cells == nx * ny * nz


def test_stretched_spacing():
    mesh = build_cartesian(2, 2, 2, lengths=(1.0, 1.0, 10.0))
    d_in, d_out = face_normal_distances(mesh)
    # z-normal interior faces sit 2.5 from each neighbor center
    for k in mesh.interior_faces:
        if abs(mesh.face_normals[k, 2]) > 0.5:
            assert d_in[k] == pytest.approx(2.5)
            assert d_out[k] == pytest.approx(2.5)
        else:
            assert d_in[k] == pytest.approx(0.25)


def test_cell_index_order():
    mesh = build_cartesian(3, 2, 2, lengths=(3.0, 2.0, 2.0))
    # id = ix + nx (iy + ny iz) with x-fastest centers
    assert mesh.cell_index(0, 0, 0) == 0
    assert mesh.cell_index(2, 1, 1) == 11
    assert np.allclose(mesh.cell_centers[0], [0.5, 0.5, 0.5])
    assert np.allclose(mesh.cell_centers[mesh.cell_index(1, 1, 0)], [1.5, 1.5, 0.5])


def test_closed_surface_identity():
    mesh = build_cartesian(3, 3, 3, lengths=(2.0, 1.0, 0.5))
    for c in range(mesh.n_cells):
        acc = np.zeros(3)
        for k, eps in cell_faces(mesh, c):
            acc += eps * mesh.face_areas[k] * mesh.face_normals[k]
        assert np.linalg.norm(acc) <= 1e-12 * sum(
            mesh.face_areas[k] for k, _ in cell_faces(mesh, c)
        )


@pytest.mark.parametrize("dims", [(1, 1, 1), (3, 2, 2)])
def test_divergence_is_signed_incidence(dims):
    mesh = build_cartesian(*dims)
    div = mesh.divergence
    assert div.shape == (mesh.n_cells, mesh.n_faces)
    # each interior face leaves one cell and enters the other; a boundary
    # face only leaves its cell
    columns = np.asarray(div.sum(axis=0)).ravel()
    assert np.all(columns[mesh.interior_faces] == 0.0)
    assert np.all(columns[mesh.boundary_faces] == 1.0)
    dense = div.toarray()
    for cell in range(mesh.n_cells):
        for k, eps in cell_faces(mesh, cell):
            assert dense[cell, k] == eps
    assert div.nnz == mesh.n_faces + mesh.interior_faces.size


def test_volume_sums_to_domain():
    mesh = build_cartesian(4, 3, 5, lengths=(2.0, 3.0, 0.25))
    assert mesh.cell_volumes.sum() == pytest.approx(2.0 * 3.0 * 0.25)


def test_rejects_zero_cell_count():
    with pytest.raises(GeometryError):
        build_cartesian(0, 1, 1)


def test_rejects_negative_length():
    with pytest.raises(GeometryError):
        build_cartesian(2, 2, 2, lengths=(1.0, -1.0, 1.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rejects_nonfinite_lengths_and_origin(bad):
    with pytest.raises(GeometryError, match="must be finite"):
        build_cartesian(2, 2, 2, lengths=(1.0, bad, 1.0))
    with pytest.raises(GeometryError, match="must be finite"):
        build_cartesian(2, 2, 2, origin=(0.0, 0.0, bad))
    with pytest.raises(GeometryError, match="must be finite"):
        build_barrier_mesh(4, 2, 2, lengths=(bad, 1.0, 1.0))


def test_validate_catches_nonpositive_normal_distance():
    # cell 0's center moved past its +x face: delta_ik <= 0 on that face
    mesh = build_cartesian(3, 1, 1)
    mesh.cell_centers[0, 0] += 1.0
    with pytest.raises(GeometryError, match="normal distance"):
        mesh.validate()


def test_per_cell_broadcast():
    assert np.array_equal(per_cell(2, 3), [2.0, 2.0, 2.0])
    values = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(per_cell(values, 3), values)
    assert per_cell([1, 2, 3], 3).dtype == float
    for bad in (np.ones(2), np.ones((3, 1)), np.ones(1)):
        with pytest.raises(ValueError, match="expected scalar or"):
            per_cell(bad, 3)


def test_barrier_smallest_split():
    mesh = build_barrier_mesh(2, 1, 1, axis=0, index=1)
    assert mesh.barrier.sum() == 1
    assert int(mesh.barrier.nonzero()[0][0]) in mesh.interior_faces
    comp = mesh.flow_components()
    assert comp[0] != comp[1]


def test_barrier_4x2x1():
    mesh = build_barrier_mesh(4, 2, 1, axis=0, index=2)
    assert mesh.barrier.sum() == 2
    # independent connectivity oracle over non-barrier interior faces
    edges = [
        tuple(mesh.face_cells[k])
        for k in mesh.interior_faces
        if not mesh.barrier[k]
    ]
    n_comp, labels = _bfs_components(mesh.n_cells, edges)
    assert n_comp == 2
    assert np.array_equal(np.sort(np.unique(labels)), [0, 1])
    got = mesh.flow_components()
    # same partition up to label names
    for a in range(mesh.n_cells):
        for b in range(mesh.n_cells):
            assert (labels[a] == labels[b]) == (got[a] == got[b])


def test_barrier_reservoir_shape():
    mesh = build_barrier_mesh(30, 30, 3, lengths=(300.0, 300.0, 30.0), axis=0, index=15)
    assert mesh.n_cells == 2700
    comp = mesh.flow_components()
    left = comp == comp[mesh.cell_index(0, 0, 0)]
    assert left.sum() == 1350
    assert mesh.barrier.sum() == 30 * 3


def test_barrier_rejects_boundary_plane():
    for idx in (0, 4):
        with pytest.raises(GeometryError):
            build_barrier_mesh(4, 2, 2, axis=0, index=idx)


def test_plain_mesh_is_connected():
    mesh = build_cartesian(3, 2, 2)
    assert len(np.unique(mesh.flow_components())) == 1


def test_validate_catches_broken_normals():
    mesh = build_cartesian(2, 2, 2)
    mesh.face_normals = mesh.face_normals * 2.0
    with pytest.raises(GeometryError):
        mesh.validate()


def test_validate_catches_barrier_on_boundary():
    mesh = build_cartesian(2, 2, 2)
    mesh.barrier = mesh.is_boundary.copy()
    with pytest.raises(GeometryError):
        mesh.validate()


@settings(max_examples=25, deadline=None)
@given(
    nx=st.integers(1, 4),
    ny=st.integers(1, 4),
    nz=st.integers(1, 4),
    lx=st.floats(0.1, 10.0),
    ly=st.floats(0.1, 10.0),
    lz=st.floats(0.1, 10.0),
)
def test_geometry_properties(nx, ny, nz, lx, ly, lz):
    mesh = build_cartesian(nx, ny, nz, lengths=(lx, ly, lz))
    interior, boundary = _expected_face_count(nx, ny, nz)
    assert mesh.n_faces == interior + boundary
    # delta_ik + delta_jk equals the center-to-center distance along n, and
    # the vectorized distances match the scalar oracle face by face
    d_in, d_out = face_normal_distances(mesh)
    for k in mesh.interior_faces:
        i, j = mesh.face_cells[k]
        gap = abs(
            np.dot(mesh.face_normals[k], mesh.cell_centers[j] - mesh.cell_centers[i])
        )
        total = normal_distance(mesh, int(i), int(k)) + normal_distance(mesh, int(j), int(k))
        assert total == pytest.approx(gap, rel=1e-12)
        assert d_in[k] + d_out[k] == pytest.approx(total, rel=1e-12)
    mesh.validate()

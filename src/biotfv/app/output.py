"""On-disk result formats: CSV tables, .npy source histories, legacy VTK.

CSV files use ',' as delimiter and '.' as decimal separator; floats are
written with repr so a read-back reproduces them bit for bit.  A source
history is the (n_steps, n_cells) float64 array psi in NumPy's .npy
format, which np.load reads back bit for bit.  VTK files are legacy
BINARY (DataFile version 3.0) unstructured grids carrying the four cell
fields of the coupled solution: UTF-8 keyword lines, each followed by its
data as one big-endian block (>f8 points and fields, >i4 cells and types).
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
from scipy.io import mmwrite

from ..coupling import BiotState
from ..errors import GeometryError
from ..mesh import Mesh

__all__ = [
    "write_vtk",
    "write_csv",
    "save_source_history",
    "dump_matrix",
]


def write_csv(path, header: list[str], rows) -> None:
    """Header and rows through csv.writer, each line ending in CRLF.

    csv.writer writes each value with str, which for Python floats and
    numpy float64 is repr: the shortest text that reads back bit for bit.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, delimiter=",")
        writer.writerow(header)
        writer.writerows(rows)


def save_source_history(path, psi: np.ndarray) -> None:
    """Persist a coupling source history as one .npy array at exactly path."""
    psi = np.asarray(psi)
    if psi.ndim != 2:
        raise ValueError("source history must have shape (n_steps, n_cells)")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as handle:  # np.save(path) would append ".npy"
        np.save(handle, psi, allow_pickle=False)


# VTK name, BiotState field and components: 1 is SCALARS, 3 is VECTORS
_VTK_FIELDS = (
    ("pressure_deviation", "dp", 1),
    ("displacement", "u", 3),
    ("rotation", "r", 3),
    ("effective_pressure", "p_hat", 1),
)


def write_vtk(path, mesh: Mesh, state: BiotState, title: str = "biotfv") -> None:
    """Legacy binary VTK unstructured grid with the four cell fields."""
    if mesh.vertices is None or mesh.cell_nodes is None:
        raise GeometryError("mesh has no vertex data, cannot write VTK")
    n = mesh.n_cells
    cells = np.column_stack((np.full(n, 8), mesh.cell_nodes))  # 8 corners, then ids
    parts = ["# vtk DataFile Version 3.0", title, "BINARY", "DATASET UNSTRUCTURED_GRID"]
    parts += [f"POINTS {len(mesh.vertices)} double", mesh.vertices.astype(">f8")]
    parts += [f"CELLS {n} {n * 9}", cells.astype(">i4"), f"CELL_TYPES {n}"]
    parts += [np.full(n, 12, dtype=">i4"), f"CELL_DATA {n}"]  # 12: hexahedron
    for name, attr, width in _VTK_FIELDS:
        values = np.asarray(getattr(state, attr), dtype=">f8")
        expected = (n,) if width == 1 else (n, width)
        if values.shape != expected:
            label = name.replace("_", " ")
            raise ValueError(f"{label} has shape {values.shape}, expected {expected}")
        if width == 1:
            parts += [f"SCALARS {name} double 1", "LOOKUP_TABLE default", values]
        else:
            parts += [f"VECTORS {name} double", values]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as handle:  # after both checks: a rejection writes nothing
        for part in parts:
            handle.write(part.encode() if isinstance(part, str) else part.tobytes())
            handle.write(b"\n")


def dump_matrix(prefix, matrix) -> Path:
    """MatrixMarket dump of a sparse operator to <prefix>.mtx."""
    path = Path(f"{prefix}.mtx")
    path.parent.mkdir(parents=True, exist_ok=True)
    mmwrite(path, matrix.tocoo())
    return path

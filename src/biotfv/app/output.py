"""On-disk result formats: CSV tables, .npy source histories, legacy VTK.

CSV files use ',' as delimiter and '.' as decimal separator; floats are
written with repr so a read-back reproduces them bit for bit.  A source
history is the (n_steps, n_cells) float64 array psi in NumPy's .npy
format, which np.load reads back bit for bit.  VTK files are legacy ASCII
(DataFile version 3.0) unstructured grids carrying the four cell fields
of the coupled solution.
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


def _rows(array: np.ndarray) -> list[str]:
    """One line per row (per entry of a 1-D array), each value as its repr."""
    return [" ".join(map(repr, row)) for row in array.reshape(len(array), -1).tolist()]


def write_vtk(path, mesh: Mesh, state: BiotState, title: str = "biotfv") -> None:
    """Legacy ASCII VTK unstructured grid with the four cell fields."""
    if mesh.vertices is None or mesh.cell_nodes is None:
        raise GeometryError("mesh has no vertex data, cannot write VTK")
    n = mesh.n_cells
    lines = ["# vtk DataFile Version 3.0", title, "ASCII", "DATASET UNSTRUCTURED_GRID"]
    lines += [f"POINTS {len(mesh.vertices)} double", *_rows(mesh.vertices)]
    lines += [f"CELLS {n} {n * 9}", *["8 " + row for row in _rows(mesh.cell_nodes)]]
    lines += [f"CELL_TYPES {n}", *["12"] * n, f"CELL_DATA {n}"]  # 12: hexahedron
    for name, attr, width in _VTK_FIELDS:
        values = np.asarray(getattr(state, attr), dtype=float)
        expected = (n,) if width == 1 else (n, width)
        if values.shape != expected:
            label = name.replace("_", " ")
            raise ValueError(f"{label} has shape {values.shape}, expected {expected}")
        if width == 1:
            lines += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
        else:
            lines.append(f"VECTORS {name} double")
        lines += _rows(values)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def dump_matrix(prefix, matrix) -> list[Path]:
    """MatrixMarket dump of a sparse operator to <prefix>.mtx."""
    path = Path(f"{prefix}.mtx")
    path.parent.mkdir(parents=True, exist_ok=True)
    mmwrite(path, matrix.tocoo())
    return [path]

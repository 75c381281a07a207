"""On-disk result formats: legacy VTK, CSV tables, source histories.

CSV files use ',' as delimiter and '.' as decimal separator; floats are
written with repr so a read-back reproduces them bit for bit.  VTK files
are legacy ASCII (DataFile version 3.0) unstructured grids carrying the
four cell fields of the coupled solution.
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
    """Persist a coupling source history as (step, cell, psi) rows."""
    psi = np.asarray(psi)
    if psi.ndim != 2:
        raise ValueError("source history must have shape (n_steps, n_cells)")
    steps, cells = np.divmod(np.arange(psi.size), psi.shape[1])
    write_csv(
        path,
        ["step", "cell", "psi"],
        zip(steps.tolist(), cells.tolist(), psi.ravel().tolist()),
    )


def write_vtk(path, mesh: Mesh, state: BiotState, title: str = "biotfv") -> None:
    """Legacy ASCII VTK unstructured grid with the four cell fields."""
    if mesh.vertices is None or mesh.cell_nodes is None:
        raise GeometryError("mesh has no vertex data, cannot write VTK")
    n = mesh.n_cells
    for name, field, width in (
        ("pressure deviation", state.dp, None),
        ("displacement", state.u, 3),
        ("rotation", state.r, 3),
        ("effective pressure", state.p_hat, None),
    ):
        expected = (n,) if width is None else (n, width)
        if np.shape(field) != expected:
            raise ValueError(
                f"{name} has shape {np.shape(field)}, expected {expected}"
            )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.vertices.shape[0]} double",
    ]
    lines += [" ".join(repr(float(c)) for c in v) for v in mesh.vertices]
    lines.append(f"CELLS {n} {n * 9}")
    lines += ["8 " + " ".join(str(i) for i in nodes) for nodes in mesh.cell_nodes]
    lines.append(f"CELL_TYPES {n}")
    lines += ["12"] * n  # VTK_HEXAHEDRON
    lines.append(f"CELL_DATA {n}")
    lines.append("SCALARS pressure_deviation double 1")
    lines.append("LOOKUP_TABLE default")
    lines += [repr(float(v)) for v in state.dp]
    lines.append("VECTORS displacement double")
    lines += [" ".join(repr(float(c)) for c in row) for row in state.u]
    lines.append("VECTORS rotation double")
    lines += [" ".join(repr(float(c)) for c in row) for row in state.r]
    lines.append("SCALARS effective_pressure double 1")
    lines.append("LOOKUP_TABLE default")
    lines += [repr(float(v)) for v in state.p_hat]
    path.write_text("\n".join(lines) + "\n")


def dump_matrix(prefix, matrix) -> list[Path]:
    """MatrixMarket dump of a sparse operator to <prefix>.mtx."""
    path = Path(prefix).with_suffix(".mtx")
    path.parent.mkdir(parents=True, exist_ok=True)
    mmwrite(path, matrix.tocoo())
    return [path]

"""Writers: CSV round-trips, .npy source histories, VTK structure, matrix dumps."""

import numpy as np
import pytest
from scipy.io import mmread
from scipy.sparse import random as sparse_random

from oracles import read_csv

from biotfv.app.output import dump_matrix, save_source_history, write_csv, write_vtk
from biotfv.coupling import BiotState
from biotfv.errors import GeometryError
from biotfv.mesh import build_cartesian

RNG = np.random.default_rng(11)


def test_csv_round_trip_is_exact(tmp_path):
    rows = [(i, RNG.standard_normal() * 10.0**RNG.integers(-12, 12)) for i in range(50)]
    path = tmp_path / "table.csv"
    write_csv(path, ["i", "value"], rows)
    header, back = read_csv(path)
    assert header == ["i", "value"]
    for (i, value), row in zip(rows, back):
        assert int(row[0]) == i
        assert float(row[1]) == value  # repr round-trips exactly


def test_csv_uses_comma_delimiter_and_point_decimal(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [(1.5, 2.25)])
    text = path.read_text()
    assert text.splitlines()[1] == "1.5,2.25"


def test_source_history_round_trip(tmp_path):
    psi = RNG.standard_normal((7, 13))
    path = tmp_path / "psi.npy"
    save_source_history(path, psi)
    back = np.load(path)
    assert back.dtype == np.float64 and back.shape == psi.shape
    assert np.array_equal(back.view(np.int64), psi.view(np.int64))


def test_source_history_writes_exactly_the_given_path(tmp_path):
    # np.save(path) would append ".npy" to a path that does not end in it
    save_source_history(tmp_path / "sub" / "psi.npy", np.zeros((2, 3)))
    save_source_history(tmp_path / "psi.bin", np.zeros((2, 3)))
    written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.*"))
    assert written == ["psi.bin", "sub/psi.npy"]


def test_source_history_rejects_wrong_shape(tmp_path):
    with pytest.raises(ValueError, match="shape"):
        save_source_history(tmp_path / "x.npy", np.zeros(5))
    assert not (tmp_path / "x.npy").exists()


def _state(n):
    return BiotState(
        dp=np.arange(n, dtype=float),
        u=RNG.standard_normal((n, 3)),
        r=RNG.standard_normal((n, 3)),
        p_hat=RNG.standard_normal(n),
        t=1.0,
    )


def test_vtk_single_cell_structure(tmp_path):
    mesh = build_cartesian(1, 1, 1)
    path = tmp_path / "one.vtk"
    write_vtk(path, mesh, _state(1))
    lines = path.read_text().splitlines()
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    assert "POINTS 8 double" in lines
    cells_at = lines.index("CELLS 1 9")
    assert lines[cells_at + 1].startswith("8 ")
    assert sorted(int(t) for t in lines[cells_at + 1].split()[1:]) == list(range(8))
    types_at = lines.index("CELL_TYPES 1")
    assert lines[types_at + 1] == "12"
    assert "CELL_DATA 1" in lines
    for name in (
        "SCALARS pressure_deviation double 1",
        "VECTORS displacement double",
        "VECTORS rotation double",
        "SCALARS effective_pressure double 1",
    ):
        assert name in lines


def test_vtk_cell_data_values_round_trip(tmp_path):
    mesh = build_cartesian(2, 3, 1)
    state = _state(6)
    path = tmp_path / "grid.vtk"
    write_vtk(path, mesh, state)
    lines = path.read_text().splitlines()
    at = lines.index("SCALARS pressure_deviation double 1") + 2
    dp = [float(v) for v in lines[at : at + 6]]
    assert dp == state.dp.tolist()
    at = lines.index("VECTORS displacement double") + 1
    u = np.array([[float(c) for c in lines[at + i].split()] for i in range(6)])
    assert np.array_equal(u, state.u)


def _expected_vtk(mesh, state, title):
    """The VTK text written one number at a time, each float as repr(float(v))."""

    def row(values):
        return " ".join(repr(float(v)) for v in np.atleast_1d(values))

    n = mesh.n_cells
    lines = ["# vtk DataFile Version 3.0", title, "ASCII", "DATASET UNSTRUCTURED_GRID"]
    lines.append(f"POINTS {mesh.vertices.shape[0]} double")
    lines += [row(v) for v in mesh.vertices]
    lines.append(f"CELLS {n} {9 * n}")
    lines += ["8 " + " ".join(str(int(i)) for i in nodes) for nodes in mesh.cell_nodes]
    lines += [f"CELL_TYPES {n}", *["12"] * n, f"CELL_DATA {n}"]
    for header, values in (
        ("SCALARS pressure_deviation double 1\nLOOKUP_TABLE default", state.dp),
        ("VECTORS displacement double", state.u),
        ("VECTORS rotation double", state.r),
        ("SCALARS effective_pressure double 1\nLOOKUP_TABLE default", state.p_hat),
    ):
        lines.append(header)
        lines += [row(v) for v in values]
    return "\n".join(lines) + "\n"


def test_vtk_text_is_byte_exact(tmp_path):
    # signed zero, the smallest subnormal, exponent forms, NaN, and the node
    # ids of a 48 x 48 x 3 grid
    mesh = build_cartesian(48, 48, 3, (0.1, 0.3, 7.0))
    n = mesh.n_cells
    special = np.array([-0.0, 5e-324, 1e-5, 1e16, np.nan, 1.0 / 3.0, -2.5e-300])
    state = BiotState(
        dp=np.resize(special, n),
        u=np.resize(np.roll(special, 1), (n, 3)),
        r=np.resize(np.roll(special, 2), (n, 3)),
        p_hat=np.resize(np.roll(special, 3), n),
    )
    path = tmp_path / "exact.vtk"
    write_vtk(path, mesh, state, title="exact")
    expected = _expected_vtk(mesh, state, "exact")
    assert path.read_bytes() == expected.encode("ascii")
    lines = expected.splitlines()
    for text in ("-0.0", "5e-324", "1e-05", "1e+16", "nan"):
        assert text in lines
    assert "9603" in lines[lines.index(f"CELLS {n} {9 * n}") + n].split()


def test_vtk_rejects_mismatched_state(tmp_path):
    mesh = build_cartesian(2, 2, 2)
    with pytest.raises(ValueError, match="pressure deviation"):
        write_vtk(tmp_path / "bad.vtk", mesh, _state(7))


def test_vtk_requires_vertex_data(tmp_path):
    mesh = build_cartesian(1, 1, 1)
    mesh.vertices = None
    with pytest.raises(GeometryError, match="vertex data"):
        write_vtk(tmp_path / "x.vtk", mesh, _state(1))


def test_vtk_unwritable_path_raises_oserror(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("plain file")
    mesh = build_cartesian(1, 1, 1)
    with pytest.raises(OSError):
        write_vtk(blocker / "sub" / "x.vtk", mesh, _state(1))


def test_dump_matrix_round_trip(tmp_path):
    matrix = sparse_random(9, 9, density=0.4, random_state=3, format="csr")
    paths = dump_matrix(tmp_path / "sub" / "sys", matrix)
    assert paths == [tmp_path / "sub" / "sys.mtx"]
    back = mmread(paths[0]).tocsr()
    assert np.allclose(back.toarray(), matrix.toarray(), atol=0)

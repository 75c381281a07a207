"""Writers: CSV round-trips, .npy source histories, VTK structure, matrix dumps."""

import struct

import numpy as np
import pytest
from scipy.io import mmread
from scipy.sparse import random as sparse_random

from oracles import VTK_FIELDS, read_csv, read_vtk

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


def _bits(values):
    """The float64 bit patterns of values, whatever their byte order."""
    return np.asarray(values, dtype=np.float64).view(np.int64)


def test_vtk_single_cell_structure(tmp_path):
    mesh = build_cartesian(1, 1, 1)
    path = tmp_path / "one.vtk"
    write_vtk(path, mesh, _state(1))
    head, sections = read_vtk(path)
    assert head == [
        "# vtk DataFile Version 3.0",
        "biotfv",
        "BINARY",
        "DATASET UNSTRUCTURED_GRID",
    ]
    assert list(sections) == [
        "POINTS 8 double",
        "CELLS 1 9",
        "CELL_TYPES 1",
        "CELL_DATA 1",
        *(keyword for keyword, _ in VTK_FIELDS),
    ]
    cells = sections["CELLS 1 9"]
    assert cells[0, 0] == 8
    assert sorted(cells[0, 1:].tolist()) == list(range(8))
    assert sections["CELL_TYPES 1"].tolist() == [12]  # hexahedron
    assert sections["POINTS 8 double"].dtype == np.dtype(">f8")
    assert cells.dtype == np.dtype(">i4")


def test_vtk_cell_data_values_round_trip(tmp_path):
    mesh = build_cartesian(2, 3, 1)
    state = _state(6)
    path = tmp_path / "grid.vtk"
    write_vtk(path, mesh, state)
    _, sections = read_vtk(path)
    assert np.array_equal(_bits(sections["POINTS 24 double"]), _bits(mesh.vertices))
    assert np.array_equal(sections["CELLS 6 54"][:, 1:], mesh.cell_nodes)
    for keyword, attr in VTK_FIELDS:
        assert np.array_equal(_bits(sections[keyword]), _bits(getattr(state, attr)))


def _expected_vtk(mesh, state, title):
    """The VTK bytes packed one value at a time: ">d" per float, ">i" per int."""

    def text(*lines):
        return "".join(f"{line}\n" for line in lines).encode("utf-8")

    def doubles(values):
        return b"".join(struct.pack(">d", float(v)) for v in np.ravel(values)) + b"\n"

    def ints(values):
        return b"".join(struct.pack(">i", int(i)) for i in values) + b"\n"

    n = mesh.n_cells
    out = text("# vtk DataFile Version 3.0", title, "BINARY", "DATASET UNSTRUCTURED_GRID")
    out += text(f"POINTS {mesh.vertices.shape[0]} double") + doubles(mesh.vertices)
    out += text(f"CELLS {n} {9 * n}")
    out += ints(i for nodes in mesh.cell_nodes for i in (8, *nodes))
    out += text(f"CELL_TYPES {n}") + ints([12] * n) + text(f"CELL_DATA {n}")
    for header, values in (
        ("SCALARS pressure_deviation double 1\nLOOKUP_TABLE default", state.dp),
        ("VECTORS displacement double", state.u),
        ("VECTORS rotation double", state.r),
        ("SCALARS effective_pressure double 1\nLOOKUP_TABLE default", state.p_hat),
    ):
        out += text(header) + doubles(values)
    return out


def test_vtk_bytes_are_exact(tmp_path):
    # signed zero, the smallest subnormal, tiny and huge values, NaN, a
    # repeating fraction, and the node ids of a 48 x 48 x 3 grid
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
    assert path.read_bytes() == _expected_vtk(mesh, state, "exact")
    _, sections = read_vtk(path)
    for keyword, attr in VTK_FIELDS:  # NaN included, bit for bit
        assert np.array_equal(_bits(sections[keyword]), _bits(getattr(state, attr)))
    assert 9603 in sections[f"CELLS {n} {9 * n}"][-1, 1:]


def test_vtk_title_is_utf8(tmp_path):
    # a case name may hold any text the file system can encode
    path = tmp_path / "cafe.vtk"
    write_vtk(path, build_cartesian(1, 1, 1), _state(1), title="café:fixed")
    assert path.read_bytes().split(b"\n")[1] == "café:fixed".encode("utf-8")
    head, _ = read_vtk(path)
    assert head[1] == "café:fixed"


def test_vtk_rejects_mismatched_state(tmp_path):
    mesh = build_cartesian(2, 2, 2)
    path = tmp_path / "bad.vtk"
    with pytest.raises(ValueError, match="pressure deviation"):
        write_vtk(path, mesh, _state(7))
    assert not path.exists()


def test_vtk_requires_vertex_data(tmp_path):
    mesh = build_cartesian(1, 1, 1)
    mesh.vertices = None
    path = tmp_path / "x.vtk"
    with pytest.raises(GeometryError, match="vertex data"):
        write_vtk(path, mesh, _state(1))
    assert not path.exists()


def test_vtk_unwritable_path_raises_oserror(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("plain file")
    mesh = build_cartesian(1, 1, 1)
    with pytest.raises(OSError):
        write_vtk(blocker / "sub" / "x.vtk", mesh, _state(1))


def test_dump_matrix_round_trip(tmp_path):
    matrix = sparse_random(9, 9, density=0.4, random_state=3, format="csr")
    path = dump_matrix(tmp_path / "sub" / "sys", matrix)
    assert path == tmp_path / "sub" / "sys.mtx"
    back = mmread(path).tocsr()
    assert np.allclose(back.toarray(), matrix.toarray(), atol=0)

"""The output comparison's gate: which differing files it lets through."""

from pathlib import Path

import pytest

import compare_outputs
from compare_outputs import MANIFEST, compare, edited

REPO = Path(__file__).resolve().parents[1]


def _manifest(folder, hashes, figures=("rotation order 1.8001784867",)):
    folder.mkdir()
    lines = [f"{digest}  {name}" for name, digest in hashes.items()]
    lines += [f"# {figure}" for figure in figures]
    (folder / MANIFEST).write_text("\n".join(lines) + "\n")
    return folder


@pytest.fixture
def trees(tmp_path):
    base = _manifest(tmp_path / "base", {"barrier/a.csv": "11", "barrier/b.vtk": "22"})
    head = _manifest(tmp_path / "head", {"barrier/a.csv": "11", "barrier/b.vtk": "33"})
    return tmp_path, base, head


def test_identical_outputs_pass(tmp_path, capsys):
    base = _manifest(tmp_path / "base", {"x/a.csv": "11"})
    head = _manifest(tmp_path / "head", {"x/a.csv": "11"})
    assert compare(base, head, None) == 0
    assert "1 files, 0 differ" in capsys.readouterr().out


@pytest.mark.parametrize(
    "declared, status",
    [
        (None, 1),
        ("OUTPUTS CHANGED: `barrier/b.vtk`, finer VTK output", 0),
        ("- OUTPUTS CHANGED: barrier*/*.vtk (finer VTK output).", 0),
        ("OUTPUTS CHANGED: barrier/a.csv", 1),
        ("OUTPUTS CHANGED: b.vtk", 1),
        ("barrier/b.vtk is named, but on a line without the marker", 1),
        ("a line that names OUTPUTS CHANGED: barrier/b.vtk past its start", 1),
    ],
)
def test_a_differing_file_passes_only_when_declared(trees, declared, status):
    tmp_path, base, head = trees
    path = None
    if declared is not None:
        path = tmp_path / "added.txt"
        path.write_text(f"some other line\n{declared}\n")
    assert compare(base, head, path) == status


def test_a_file_only_one_tree_wrote_differs(tmp_path, capsys):
    base = _manifest(tmp_path / "base", {"x/a.csv": "11"})
    head = _manifest(tmp_path / "head", {"x/a.csv": "11", "x/new.csv": "44"})
    assert compare(base, head, None) == 1
    assert "x/new.csv: missing -> 44 (UNDECLARED)" in capsys.readouterr().out
    assert compare_outputs.differing({"a": "1"}, {}) == ["a"]


def test_a_case_edit_needs_its_line_exactly_once():
    assert edited("a = 1\nb = 2\n", [("b = 2", "b = 3\nc = 4")]) == "a = 1\nb = 3\nc = 4\n"
    for text in ("a = 1\n", "b = 2\nb = 2\n"):
        with pytest.raises(SystemExit, match="not there exactly once"):
            edited(text, [("b = 2", "b = 3")])


@pytest.mark.parametrize(
    "declared, status",
    [(None, 1), ("OUTPUTS CHANGED: exit/dump, now unconverged", 0), ("OUTPUTS CHANGED: dump/*", 1)],
)
def test_a_changed_exit_status_passes_only_when_declared(tmp_path, capsys, declared, status):
    base = _manifest(tmp_path / "base", {"dump/a.mtx": "11", "exit/dump": "0"})
    head = _manifest(tmp_path / "head", {"dump/a.mtx": "11", "exit/dump": "3"})
    path = None
    if declared is not None:
        path = tmp_path / "added.txt"
        path.write_text(f"{declared}\n")
    assert compare(base, head, path) == status
    out = capsys.readouterr().out
    assert "exit/dump: 0 -> 3" in out
    assert "1 files, 0 differ; 1 exit statuses, 1 differ" in out


def test_run_logs_each_case_beside_the_manifest_and_records_its_exit(tmp_path, monkeypatch):
    small = [
        ("nx = 30", "nx = 6"),
        ("ny = 30", "ny = 6"),
        ("nz = 3", "nz = 2"),
        ("barrier_index = 15", "barrier_index = 3"),
        ("cell = 7 15 1", "cell = 1 3 1"),
    ]
    monkeypatch.setattr(compare_outputs, "CASES", [("small", "barrier", "barrier.cfg", small, [])])
    out = tmp_path / "out"
    compare_outputs.run(REPO, out)
    assert "elastic solve: " in (out / "logs" / "small.log").read_text()
    hashes, figures = compare_outputs.read_manifest(out)
    assert hashes["exit/small"] == "0"
    assert "small/barrier_summary.csv" in hashes
    assert all(name.startswith(("small/", "exit/")) for name in hashes)  # no log, no case file
    assert figures == []

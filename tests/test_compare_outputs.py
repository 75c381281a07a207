"""The output comparison's gate, which differing files it lets through,
and the gate on what a run's studies and logs wrote."""

import csv
import shutil

import pytest

import compare_outputs
from compare_outputs import (
    CASES,
    MANIFEST,
    REPO,
    ROBIN_FREE,
    WARNING,
    Case,
    barrier_grid,
    compare,
    edited,
    gate,
    solver_method,
    time_steps,
    usage,
    usage_line,
)

SMALL = barrier_grid(6, nz=2)
# the Krylov copies stop at rtol 1e-7: at the shipped 1e-5 the 6 x 6 x 2
# Krylov and LU studies' final averages differ by 2.7e-5, above the gate's
# 2e-5 (1.3e-5 on the shipped grid).  `method = auto` takes the LU on
# 6 x 6 x 2, so the shipped study's copy asks for the Krylov path
KRYLOV = solver_method("iterative") + [("rtol = 1e-5", "rtol = 1e-7")]
DIRECT = SMALL + solver_method("direct")
SMALL_LONG = SMALL + KRYLOV + time_steps("120 day", 6)
CUBE = [("nx = 16", "nx = 4"), ("ny = 16", "ny = 4"), ("nz = 16", "nz = 4"), ("n_steps = 50", "n_steps = 2")]
# every case but the convergence study, on small copies
SMALL_CASES = [
    Case("barrier", "barrier", "barrier.cfg", SMALL + KRYLOV),
    Case("barrier_direct", "barrier", "barrier.cfg", DIRECT),
    Case("barrier_48", "barrier", "barrier.cfg", SMALL),
    Case("barrier_48_krylov", "barrier", "barrier.cfg", SMALL + KRYLOV),
    Case("barrier_robin", "barrier", "barrier.cfg", SMALL + ROBIN_FREE),
    Case("dump", "run", "barrier.cfg", SMALL, ["--dump-matrix"]),
    Case("barrier_36_direct", "run", "barrier.cfg", DIRECT, WARNING),
    *[Case(compare_outputs.alone_folder(s), "barrier", "barrier.cfg", SMALL + KRYLOV,
           ["--schemes", s, *WARNING]) for s in compare_outputs.ALONE],
    *[Case(folder, "barrier", "barrier.cfg", SMALL_LONG, ["--schemes", s, *WARNING])
      for folder, s in compare_outputs.LONG_STUDIES.items()],
    Case("manufactured", "run", "manufactured.cfg", CUBE, WARNING),
    Case("barrier_direct_2t", "barrier", "barrier.cfg", DIRECT, WARNING, threads=2),
]


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


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """`run` of the gated cases on small copies, shared by the module's tests."""
    out = tmp_path_factory.mktemp("small") / "out"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compare_outputs, "CASES", SMALL_CASES)
        compare_outputs.run(REPO, out)
    return out


def test_run_logs_each_case_beside_the_manifest_and_records_its_exit(small_run):
    # barrier_48 is the shipped case on 6 x 6 x 2 cells, unchanged otherwise
    assert "elastic solve: " in (small_run / "logs" / "barrier_48.log").read_text()
    hashes, figures = compare_outputs.read_manifest(small_run)
    folders = [folder for folder, *_ in SMALL_CASES]
    assert all(hashes[f"exit/{folder}"] == "0" for folder in folders)
    assert "barrier_48/barrier_summary.csv" in hashes
    # no log, no case file
    assert all(name.split("/")[0] in folders + ["exit"] for name in hashes)
    # one wall time and peak RSS per case, and no other figure
    assert list(usage(figures)) == folders and len(figures) == len(folders)
    assert all(wall > 0.0 and peak > 0.0 for wall, peak in usage(figures).values())


def test_the_cases_build_the_ci_copies():
    # the 36 x 36 x 3 copy keeps the shipped well cell; barrier_grid moves it
    cases = {case.folder: case for case in CASES}
    for name, lines in [
        ("barrier_36_direct", {"nx = 36", "barrier_index = 18", "cell = 7 15 1", "method = direct"}),
        ("barrier_48_long", {"nx = 48", "cell = 12 24 1", "dt = 7.5 day", "n_steps = 96"}),
        ("barrier_48_long_all", {"nx = 48", "cell = 12 24 1", "dt = 7.5 day", "n_steps = 96"}),
        ("barrier_direct_2t", {"nx = 30", "cell = 7 15 1", "method = direct"}),
    ]:
        assert lines <= set(compare_outputs.barrier_copy(cases[name].edits).splitlines())
    assert [case.folder for case in CASES if case.threads != 1] == ["barrier_direct_2t"]
    assert cases["barrier_anderson_fixed"].extra == ["--schemes", "anderson,fixed", "--log-level", "warning"]


def test_compare_prints_each_case_usage_side_by_side(tmp_path, capsys):
    figures = ["rotation order 1.8001784867", usage_line("barrier", 1.0, 80.0)]
    base = _manifest(tmp_path / "base", {"x/a.csv": "11"}, figures)
    head = _manifest(tmp_path / "head", {"x/a.csv": "11"}, [figures[0], usage_line("barrier", 1.5, 81.3)])
    assert compare(base, head, None) == 0
    out = capsys.readouterr().out
    assert "base rotation order 1.8001784867\nhead rotation order 1.8001784867\n" in out
    assert "  barrier: 1.00 -> 1.50 s, 80.0 -> 81.3 MB" in out
    assert "base barrier:" not in out


def _doctor(out, name, scheme, key, value):
    """Set `key` of `scheme` in folder `name`'s summary, or with no scheme,
    replace the first line of file `name` holding `key` with `value` copies
    of it, or with the line `value`."""
    if scheme is None:
        lines = (out / name).read_text().splitlines()
        index = next(i for i, line in enumerate(lines) if key in line)
        lines[index : index + 1] = [value] if isinstance(value, str) else [lines[index]] * value
        (out / name).write_text("\n".join(lines) + "\n")
        return
    with open(out / name / "barrier_summary.csv") as handle:
        rows = list(csv.DictReader(handle))
    row = next(row for row in rows if row["scheme"] == scheme)
    row[key] = repr(float(row[key]) * value) if isinstance(value, float) else value
    with open(out / name / "barrier_summary.csv", "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


@pytest.mark.parametrize(
    "name, scheme, key, value, failure",
    [
        ("barrier", "anderson", "converged", "0", "barrier_summary.csv: anderson unconverged"),
        ("barrier_robin", "fixed", "converged", "0", "robin/barrier_summary.csv: fixed unconverged"),
        ("barrier_48_krylov", "lagged", "mass_defect", "2e-8", "lagged mass defect 2.000e-08"),
        ("barrier_robin", "anderson", "mass_defect", "2e-8", "anderson mass defect 2.000e-08"),
        ("barrier_robin", "lagged", "mass_defect", "2e-8", None),  # printed only
        ("barrier", "fixed", "final_avg_dp_omega2", 1 + 3e-5, "fixed final_avg_dp_omega2: relative gap 3"),
        ("barrier_48", "lagged", "final_avg_dp_omega1", 1 - 3e-5, "lagged final_avg_dp_omega1: relative gap 3"),
        ("barrier_direct/barrier_summary.csv", None, "anderson,", 0, "['lagged', 'fixed'], not"),
        ("logs/barrier.log", None, "elastic solve: ", 0, "barrier.log: 0 elastic solve lines, not 1"),
        ("logs/barrier_direct.log", None, "elastic solve: ", 2, "4 elastic solve lines, not 3"),
        ("logs/dump.log", None, "scheme fixed,", 0, "dump.log: no 'scheme fixed,' report line"),
        ("barrier_lagged/barrier_lagged.csv", None, ",", 2, "barrier_lagged.csv differs from barrier/"),
        ("barrier_anderson_fixed/barrier_fixed.csv", None, ",", 2, "fixed/barrier_fixed.csv differs from"),
        ("barrier_direct_2t/barrier_summary.csv", None, "anderson,", 0, "2t/barrier_summary.csv differs"),
        ("barrier_48_long", "fixed", "converged", "0", "long/barrier_summary.csv: fixed unconverged"),
        ("barrier_48_long_all", "anderson", "mass_defect", "2e-8", "anderson mass defect 2.000e-08"),
        ("barrier_48_long_all", "lagged", "mass_defect", "2e-8", None),  # printed only
        ("logs/manufactured.log", None, "mass defect", "mass defect 2.000e-08",
         "manufactured.log: mass defects ['2.000e-08'"),
    ],
)
def test_the_gate_fails_a_doctored_run(small_run, tmp_path, capsys, name, scheme, key, value, failure):
    assert gate(small_run) == 0  # the untouched run
    out = tmp_path / "out"
    shutil.copytree(small_run, out)
    _doctor(out, name, scheme, key, value)
    if name.split("/")[0] == "barrier_direct":  # and its two-thread twin alike, so only one gate fails
        shutil.copytree(out / "barrier_direct", out / "barrier_direct_2t", dirs_exist_ok=True)
    capsys.readouterr()
    assert gate(out) == (failure is not None)
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAILED")]
    assert len(failed) == (failure is not None) and all(failure in line for line in failed), failed


def _record(out, recorded):
    """Write each case's recorded (wall, peak) over its manifest line."""
    lines = (out / MANIFEST).read_text().splitlines()
    for folder, (wall, peak) in recorded.items():
        index = next(i for i, line in enumerate(lines) if line.startswith(f"# {folder}: "))
        lines[index] = f"# {usage_line(folder, wall, peak)}"
    (out / MANIFEST).write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "recorded, failure",
    [
        ({"barrier_48_long": (1.0, 200.0), "barrier_48_long_all": (1.0, 205.1)},
         "lagged adds 5.1 MB to the 96-step study's peak RSS"),
        ({"barrier_48_long": (1.0, 200.0), "barrier_48_long_all": (1.0, 204.9)}, None),
        ({"barrier_36_direct": (31.0, 100.0)}, "barrier_36_direct took 31.00 s"),
        ({"barrier_36_direct": (29.0, 100.0)}, None),
    ],
)
def test_the_gate_bounds_the_recorded_usage(small_run, tmp_path, capsys, recorded, failure):
    out = tmp_path / "out"
    shutil.copytree(small_run, out)
    _record(out, recorded)
    capsys.readouterr()
    assert gate(out) == (failure is not None)
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAILED")]
    assert failed == ([] if failure is None else [f"FAILED {failure}"])

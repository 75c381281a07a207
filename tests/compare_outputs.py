"""Build the barrier case copies, check that a tree writes the same
output files as its merge base, and gate what the runs wrote.

    python tests/compare_outputs.py run TREE OUT
    python tests/compare_outputs.py compare BASE_OUT HEAD_OUT [--declared FILE]
    python tests/compare_outputs.py gate OUT
    python tests/compare_outputs.py case NAME DEST

Every barrier copy the tests and CI run is the shipped case with whole
lines replaced by `edited`, from `barrier_grid`, `solver_method`,
`ROBIN_FREE` and `time_steps`.

`run` runs seven cases with the package in TREE/src on TREE's own case
files, at one BLAS thread and `--log-level info`, into OUT, and writes
OUT/outputs.sha256: one sha256 per output file, then one `exit/FOLDER`
entry per case holding its exit status (0, or 3 for a run that stopped
unconverged) in place of a hash, then, as comment lines, the convergence
study's rotation order to 10 digits and its probe iteration count per
grid.  The cases are the shipped barrier study, its `method = direct`
copy, its 48x48x3 copy under `method = auto` and under
`method = iterative`, its Robin and traction-free copy, `run
--dump-matrix` of the shipped barrier, and `convergence --grids
8,12,16,24` of the shipped manufactured case.  Each case's edited case
file is kept as OUT/cases/FOLDER.cfg and its stdout and stderr as
OUT/logs/FOLDER.log; neither is hashed (the logs hold timings and
absolute paths).

`compare` prints both trees' figures and every file or exit status that
differs or that only one tree wrote.  It exits 1 naming each such entry
unless FILE declares it: a line of FILE that starts with the marker
`OUTPUTS CHANGED:`, after a list bullet if any, and holds after it a word
that is the entry's name (a path relative to OUT, or `exit/FOLDER`) or a
shell pattern matching it (`barrier/barrier_fixed.csv`, `barrier*/*.vtk`,
`exit/dump`).
Give as FILE the lines a change adds to CHANGES.md, so that only the
change's own declarations count.  With no FILE, `compare` checks that
two runs wrote the same entries, e.g. two runs of one tree.

`gate` exits 1 naming each failure of a `run` folder: in an AGREEING
pair a scheme unconverged, over MAX_DEFECT or with final averages more
than MAX_GAP apart; in the Robin/free study a scheme unconverged, or
fixed or anderson over MAX_DEFECT; `elastic solve: ` log lines other
than ELASTIC_SOLVE_LINES, or no `scheme fixed,` line in the dump's log.
`case` writes one of the CI_COPIES, which only CI runs, to DEST.
"""

from __future__ import annotations

import argparse
import csv
import fnmatch
import hashlib
import os
import re
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
MANIFEST = "outputs.sha256"
MARKER = "OUTPUTS CHANGED:"
CONVERGENCE = "convergence"
EXIT = "exit/"  # the manifest names a case's exit status EXIT + its folder

# the CLI of the tree's own package, which must come from TREE/src
LAUNCH = """
import sys
from pathlib import Path
import biotfv
from biotfv.app.cli import main
src = Path(sys.argv[1]).resolve()
if src not in Path(biotfv.__file__).resolve().parents:
    sys.exit(f"biotfv imported from {biotfv.__file__}, not from {src}")
sys.exit(main(sys.argv[2:]))
"""

ROBIN_FREE = [
    ("mechanics = fixed", "mechanics = robin\nrobin_delta = 10 m\nrobin_mu = 1 GPa\nz_max = free"),
]


def barrier_grid(n: int, nz: int = 3, well: bool = True) -> list[tuple[str, str]]:
    """The shipped barrier on an n x n x nz mesh, the barrier at n // 2 and,
    with `well`, the well in the cell that holds the shipped well's centre
    (perfbench's `barrier_case` rule)."""
    edits = [
        ("nx = 30", f"nx = {n}"),
        ("ny = 30", f"ny = {n}"),
        ("nz = 3", f"nz = {nz}"),
        ("barrier_index = 15", f"barrier_index = {n // 2}"),
    ]
    if well:
        cell = (int((c + 0.5) * m / k) for c, m, k in zip((7, 15, 1), (n, n, nz), (30, 30, 3)))
        edits.append(("cell = 7 15 1", f"cell = {' '.join(map(str, cell))}"))
    return edits


def solver_method(method: str) -> list[tuple[str, str]]:
    return [("[solver]", f"[solver]\nmethod = {method}")]


def time_steps(dt: str, n_steps: int) -> list[tuple[str, str]]:
    return [("dt = 30 day", f"dt = {dt}"), ("n_steps = 24", f"n_steps = {n_steps}")]


# (output folder, subcommand, case file, line edits of the case, extra arguments)
CASES = [
    ("barrier", "barrier", "barrier.cfg", [], []),
    ("barrier_direct", "barrier", "barrier.cfg", solver_method("direct"), []),
    ("barrier_48", "barrier", "barrier.cfg", barrier_grid(48), []),
    ("barrier_48_krylov", "barrier", "barrier.cfg", barrier_grid(48) + solver_method("iterative"), []),
    ("barrier_robin", "barrier", "barrier.cfg", ROBIN_FREE, []),
    ("dump", "run", "barrier.cfg", [], ["--dump-matrix"]),
    (CONVERGENCE, "convergence", "manufactured.cfg", [], ["--grids", "8,12,16,24"]),
]
# barrier copies that CI runs on their own, written by `case NAME DEST`
CI_COPIES = {
    # 27,216 unknowns, so the LU path above precond.DIRECT_THRESHOLD; the
    # well stays in the shipped cell
    "barrier_36_direct": barrier_grid(36, well=False) + solver_method("direct"),
    # the Krylov 48x48x3 copy at 7.5-day steps over the same 720 days
    "barrier_48_long": barrier_grid(48) + solver_method("iterative") + time_steps("7.5 day", 96),
}


def edited(text: str, edits: list[tuple[str, str]]) -> str:
    """The case text with each whole line `old` replaced by `new`; an edit
    whose line is missing fails, so a renamed key cannot rerun the shipped case."""
    lines = text.splitlines()
    for old, new in edits:
        if lines.count(old) != 1:
            raise SystemExit(f"case line {old!r} is not there exactly once")
        lines[lines.index(old)] = new
    return "\n".join(lines) + "\n"


def barrier_copy(edits: list[tuple[str, str]]) -> str:
    """This tree's shipped barrier case with `edits` applied."""
    return edited((REPO / "cases" / "barrier.cfg").read_text(), edits)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def convergence_figures(folder: Path) -> list[str]:
    """The rotation order to 10 digits and the probe iterations per grid."""
    with open(folder / "convergence_orders.csv") as handle:
        orders = {row["variable"]: float(row["order"]) for row in csv.DictReader(handle)}
    probes: dict[str, int] = {}
    with open(folder / "convergence_iterations.csv") as handle:
        for row in csv.DictReader(handle):
            probes[row["n"]] = int(row["iteration"])  # the trace's last row
    counts = " ".join(f"{n}:{count}" for n, count in probes.items())
    return [f"rotation order {orders['r']:.10f}", f"probe iterations {counts}"]


def run(tree: Path, out: Path) -> None:
    tree, out = tree.resolve(), out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(tree / "src"))
    cases_dir, logs_dir = out / "cases", out / "logs"
    cases_dir.mkdir(exist_ok=True)
    logs_dir.mkdir(exist_ok=True)
    exits = []
    start = time.perf_counter()
    for folder, command, case, edits, extra in CASES:
        cfg = cases_dir / f"{folder}.cfg"
        cfg.write_text(edited((tree / "cases" / case).read_text(), edits))
        args = [command, str(cfg), "--out", str(out / folder), "--log-level", "info", *extra]
        log = logs_dir / f"{folder}.log"
        t0 = time.perf_counter()
        # the working directory is OUT, so no package is imported from the caller's
        with open(log, "w") as handle:
            done = subprocess.run(
                [sys.executable, "-c", LAUNCH, str(tree / "src"), *args],
                cwd=out, env=env, stdout=handle, stderr=subprocess.STDOUT,
            )
        # a run that stops unconverged exits 3 and still writes its files
        if done.returncode not in (0, 3):
            tail = "\n".join(log.read_text().splitlines()[-20:])
            raise SystemExit(f"{tail}\nbiotfv {' '.join(args)} exited {done.returncode}")
        exits.append(f"{done.returncode}  {EXIT}{folder}")
        print(f"{folder}: {time.perf_counter() - t0:.1f} s (exit {done.returncode})")
    lines = [
        f"{sha256(path)}  {path.relative_to(out).as_posix()}"
        for folder, *_ in CASES
        for path in sorted((out / folder).rglob("*"))
        if path.is_file()
    ]
    lines += exits
    if any(folder == CONVERGENCE for folder, *_ in CASES):
        lines += [f"# {figure}" for figure in convergence_figures(out / CONVERGENCE)]
    (out / MANIFEST).write_text("\n".join(lines) + "\n")
    print(f"{tree}: {len(CASES)} cases in {time.perf_counter() - start:.1f} s")


def read_manifest(out: Path) -> tuple[dict[str, str], list[str]]:
    hashes, figures = {}, []
    for line in (out / MANIFEST).read_text().splitlines():
        if line.startswith("# "):
            figures.append(line[2:])
        else:
            digest, name = line.split("  ", 1)
            hashes[name] = digest
    return hashes, figures


def declared_patterns(text: str) -> list[str]:
    """The words after the marker on each line that starts with it,
    without the quotes and punctuation around them."""
    lines = [line.lstrip("-* \t") for line in text.splitlines()]
    return [
        word.strip("`'\"(),;:.")
        for line in lines
        if line.startswith(MARKER)
        for word in line[len(MARKER):].split()
    ]


def differing(base: dict[str, str], head: dict[str, str]) -> list[str]:
    """Entries whose hashes or exit statuses differ, or that only one tree
    wrote, sorted."""
    return sorted(name for name in base.keys() | head.keys() if base.get(name) != head.get(name))


def is_declared(name: str, patterns: list[str]) -> bool:
    return any(fnmatch.fnmatchcase(name, pattern) for pattern in patterns)


def compare(base_out: Path, head_out: Path, declared_path: Path | None) -> int:
    base, base_figures = read_manifest(base_out)
    head, head_figures = read_manifest(head_out)
    for before, after in zip(base_figures, head_figures):
        print(f"base {before}\nhead {after}")
    changed = differing(base, head)
    patterns = declared_patterns(declared_path.read_text()) if declared_path else []
    for name in changed:
        state = "declared" if is_declared(name, patterns) else "UNDECLARED"
        print(f"{name}: {base.get(name, 'missing')[:12]} -> {head.get(name, 'missing')[:12]} ({state})")
    exits = sum(name.startswith(EXIT) for name in head)
    changed_exits = sum(name.startswith(EXIT) for name in changed)
    print(f"{len(head) - exits} files, {len(changed) - changed_exits} differ; "
          f"{exits} exit statuses, {changed_exits} differ")
    bad = [name for name in changed if not is_declared(name, patterns)]
    if bad:
        print(f"outputs differ from {base_out} without an {MARKER} line: {', '.join(bad)}")
        return 1
    return 0


SUMMARY = "barrier_summary.csv"
SCHEMES = ["lagged", "fixed", "anderson"]
MAX_DEFECT = 1e-8  # fluid-content balance
# final compartment averages, relative: twice the elastic rtol 1e-5.  The
# rtol does not bound the gap: the shipped LU and Krylov studies read 1.3e-5
MAX_GAP = 2e-5
# (reference, other): LU against iterative elastic, factored against AMG-BiCGStab flow
AGREEING = [("barrier_direct", "barrier"), ("barrier_48", "barrier_48_krylov")]
# three engines share one Krylov elastic solver; each factors its own LU
ELASTIC_SOLVE_LINES = {"barrier": 1, "barrier_direct": 3}


def read_summary(path: Path) -> dict[str, dict[str, str]]:
    with open(path) as handle:
        return {row["scheme"]: row for row in csv.DictReader(handle)}


def summary_problems(path: Path | str, schemes: list[str], gated) -> list[str]:
    """The failures of one barrier summary: schemes other than `schemes`, in
    that order, an unconverged scheme, or a scheme in `gated` whose mass
    defect exceeds MAX_DEFECT.  Prints each scheme's figures."""
    rows = read_summary(path)
    bad = [] if list(rows) == schemes else [f"{path}: schemes {list(rows)}, not {schemes}"]
    for scheme, row in rows.items():
        defect = float(row["mass_defect"])
        print(f"{path} {scheme}: converged {row['converged']}, mass defect {defect:.3e}")
        if row["converged"] != "1":
            bad.append(f"{path}: {scheme} unconverged")
        if scheme in gated and not defect <= MAX_DEFECT:
            bad.append(f"{path}: {scheme} mass defect {defect:.3e}")
    return bad


def gate(out: Path) -> int:
    bad = []
    for reference, other in AGREEING:
        paths = [out / folder / SUMMARY for folder in (reference, other)]
        bad += [problem for path in paths for problem in summary_problems(path, SCHEMES, SCHEMES)]
        want, got = map(read_summary, paths)
        for scheme in [s for s in want if s in got]:
            for key in ("final_avg_dp_omega1", "final_avg_dp_omega2"):
                a, b = float(want[scheme][key]), float(got[scheme][key])
                gap = abs(b - a) / abs(a)
                figure = f"{other} {scheme} {key}: relative gap {gap:.2e} to {reference}"
                print(figure)
                if not gap <= MAX_GAP:
                    bad.append(figure)
    # lagged's Robin/free defect is its splitting term (9.7e-9), printed only
    bad += summary_problems(out / "barrier_robin" / SUMMARY, SCHEMES, ("fixed", "anderson"))
    for folder, want in ELASTIC_SOLVE_LINES.items():
        got = (out / "logs" / f"{folder}.log").read_text().count("elastic solve: ")
        print(f"{folder}.log: {got} elastic solve lines")
        if got != want:
            bad.append(f"{folder}.log: {got} elastic solve lines, not {want}")
    # perfbench reads its metrics by scheme name, so a renamed scheme fails here
    if not re.search(r"^case .*, scheme fixed,", (out / "logs" / "dump.log").read_text(), re.M):
        bad.append("dump.log: no 'scheme fixed,' report line")
    for problem in bad:
        print(f"FAILED {problem}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run the cases of one tree and hash their files")
    run_p.add_argument("tree", type=Path)
    run_p.add_argument("out", type=Path)
    cmp_p = sub.add_parser("compare", help="compare two trees' hashes")
    cmp_p.add_argument("base_out", type=Path)
    cmp_p.add_argument("head_out", type=Path)
    cmp_p.add_argument("--declared", type=Path, help="text holding OUTPUTS CHANGED: lines")
    gate_p = sub.add_parser("gate", help="check what a run's studies and logs wrote")
    gate_p.add_argument("out", type=Path)
    case_p = sub.add_parser("case", help="write a barrier copy that CI runs on its own")
    case_p.add_argument("name", choices=list(CI_COPIES))
    case_p.add_argument("dest", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        run(args.tree, args.out)
        return 0
    if args.command == "gate":
        return gate(args.out)
    if args.command == "case":
        args.dest.write_text(barrier_copy(CI_COPIES[args.name]))
        return 0
    return compare(args.base_out, args.head_out, args.declared)


if __name__ == "__main__":
    sys.exit(main())

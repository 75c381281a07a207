"""Build the case copies, run every study CI runs, check that a tree
writes the same output files as its merge base, and gate what the runs
wrote.

    python tests/compare_outputs.py run TREE OUT
    python tests/compare_outputs.py compare BASE_OUT HEAD_OUT [--declared FILE]
    python tests/compare_outputs.py gate OUT

Every barrier copy the tests and CI run is the shipped case with whole
lines replaced by `edited`, from `barrier_grid`, `solver_method`,
`ROBIN_FREE` and `time_steps`.

`run` runs the CASES with the package in TREE/src on TREE's own case
files, at one BLAS thread and `--log-level info` unless a case says
otherwise, into OUT, and writes OUT/outputs.sha256: one sha256 per
output file, then one `exit/FOLDER` entry per case holding its exit
status (0, or 3 for a run that stopped unconverged) in place of a hash,
then, as comment lines, the convergence study's rotation order to 10
digits, its probe iteration count per grid, and each case's wall time
and peak RSS (`# FOLDER: 1.23 s, peak RSS 95.4 MB`, from `os.wait4`).
The cases are the shipped barrier study, its `method = direct` copy,
its 48x48x3 copy under `method = auto` and under `method = iterative`,
its Robin and traction-free copy, `run --dump-matrix` of the shipped
barrier, `convergence --grids 8,12,16,24` of the shipped manufactured
case, a 36x36x3 `run` on the LU path, the shipped study under `--schemes
lagged`, `fixed`, `anderson` and `anderson,fixed`, a 96-step 48x48x3
Krylov copy under `--schemes fixed,anderson` and
`lagged,fixed,anderson`, `run` of the shipped manufactured case, and the
`method = direct` copy again at two BLAS threads and `--log-level
warning`.  Each case's edited case file is kept as OUT/cases/FOLDER.cfg
and its stdout and stderr as OUT/logs/FOLDER.log; neither is hashed
(the logs hold timings and absolute paths).

`compare` prints both trees' figures, each case's wall time and peak RSS
side by side, and every file or exit status that differs or that only
one tree wrote.  It exits 1 naming each such entry unless FILE declares
it: a line of FILE that starts with the marker `OUTPUTS CHANGED:`, after
a list bullet if any, and holds after it a word that is the entry's name
(a path relative to OUT, or `exit/FOLDER`) or a shell pattern matching
it (`barrier/barrier_fixed.csv`, `barrier*/*.vtk`, `exit/dump`).
Give as FILE the lines a change adds to CHANGES.md, so that only the
change's own declarations count.  With no FILE, `compare` checks that
two runs wrote the same entries, e.g. two runs of one tree.  Times and
peaks are printed only; `gate` bounds two of them.

`gate` exits 1 naming each failure of a `run` folder: in an AGREEING
pair a scheme unconverged, over MAX_DEFECT or with final averages more
than MAX_GAP apart; in the Robin/free study and the two 96-step studies
a scheme unconverged, or fixed or anderson over MAX_DEFECT; a scheme run
ALONE whose files differ from the shipped study's; a two-thread file
that differs from its one-thread twin; lagged, which runs first in
`lagged,fixed,anderson`, adding more than MAX_LAGGED_RSS to the 96-step
study's peak RSS, which it would if its finished run kept a step
history through fixed stress's passes; the 36x36x3 LU run
taking more than MAX_LU_WALL; a manufactured mass defect over
MAX_DEFECT; `elastic solve: ` log lines other than ELASTIC_SOLVE_LINES,
or no `scheme fixed,` line in the dump's log.
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
from typing import NamedTuple, Sequence

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


class Case(NamedTuple):
    folder: str  # under OUT, and the case's name in the manifest
    command: str  # the biotfv subcommand
    case: str  # the case file under TREE/cases
    edits: Sequence[tuple[str, str]] = ()  # applied by `edited`
    extra: Sequence[str] = ()  # arguments after `--log-level info`, which a later one overrides
    threads: int = 1  # BLAS threads


# the log level of the cases that once ran in CI steps of their own; run
# at it, the single-scheme and two-thread copies also check that the log
# level changes no file
WARNING = ["--log-level", "warning"]
# --schemes of the shipped study's copies that run schemes alone.  The
# study shares one flow system, one elastic assembly and fixed stress's
# first three passes among its engines; run alone, each scheme builds its
# own and anderson marches those passes itself.  Listed anderson first,
# the study runs them in anderson's run
ALONE = ["lagged", "fixed", "anderson", "anderson,fixed"]
# the 48x48x3 Krylov copy at 7.5-day steps over the same 720 days, where
# memory grows with cells x steps, run without and with lagged
LONG = barrier_grid(48) + solver_method("iterative") + time_steps("7.5 day", 96)
LONG_STUDIES = {"barrier_48_long": "fixed,anderson", "barrier_48_long_all": "lagged,fixed,anderson"}


def alone_folder(schemes: str) -> str:
    return "barrier_" + schemes.replace(",", "_")


CASES = [
    Case("barrier", "barrier", "barrier.cfg"),
    Case("barrier_direct", "barrier", "barrier.cfg", solver_method("direct")),
    Case("barrier_48", "barrier", "barrier.cfg", barrier_grid(48)),
    Case("barrier_48_krylov", "barrier", "barrier.cfg", barrier_grid(48) + solver_method("iterative")),
    Case("barrier_robin", "barrier", "barrier.cfg", ROBIN_FREE),
    Case("dump", "run", "barrier.cfg", extra=["--dump-matrix"]),
    Case(CONVERGENCE, "convergence", "manufactured.cfg", extra=["--grids", "8,12,16,24"]),
    # 27,216 unknowns, so the LU path above precond.DIRECT_THRESHOLD; the
    # well stays in the shipped cell
    Case("barrier_36_direct", "run", "barrier.cfg",
         barrier_grid(36, well=False) + solver_method("direct"), WARNING),
    *[Case(alone_folder(s), "barrier", "barrier.cfg", extra=["--schemes", s, *WARNING]) for s in ALONE],
    *[Case(folder, "barrier", "barrier.cfg", LONG, ["--schemes", s, *WARNING])
      for folder, s in LONG_STUDIES.items()],
    # the shipped 16^3 case is iterative and above the flow's
    # tpfa.FLOW_DIRECT_CELLS, so its flow runs AMG-BiCGStab, not an LU
    Case("manufactured", "run", "manufactured.cfg", extra=WARNING),
    # the LU path writes the same files at two BLAS threads and at warning level
    Case("barrier_direct_2t", "barrier", "barrier.cfg", solver_method("direct"), WARNING, threads=2),
]


def edited(text: str, edits: Sequence[tuple[str, str]]) -> str:
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


def tree_hashes(folder: Path) -> dict[str, str]:
    """The sha256 of every file under `folder`, by its path relative to it."""
    return {
        path.relative_to(folder).as_posix(): sha256(path)
        for path in sorted(folder.rglob("*"))
        if path.is_file()
    }


# a case's wall time and peak RSS, as a manifest comment
USAGE = re.compile(r"(\S+): ([0-9.]+) s, peak RSS ([0-9.]+) MB")


def usage_line(folder: str, wall: float, peak: float) -> str:
    return f"{folder}: {wall:.2f} s, peak RSS {peak:.1f} MB"


def usage(figures: list[str]) -> dict[str, tuple[float, float]]:
    """Each case's wall time in s and peak RSS in MB, from the manifest's comments."""
    found = map(USAGE.fullmatch, figures)
    return {match[1]: (float(match[2]), float(match[3])) for match in found if match}


def run(tree: Path, out: Path) -> None:
    tree, out = tree.resolve(), out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    cases_dir, logs_dir = out / "cases", out / "logs"
    cases_dir.mkdir(exist_ok=True)
    logs_dir.mkdir(exist_ok=True)
    exits, usages = [], []
    start = time.perf_counter()
    for folder, command, case, edits, extra, threads in CASES:
        cfg = cases_dir / f"{folder}.cfg"
        cfg.write_text(edited((tree / "cases" / case).read_text(), edits))
        args = [command, str(cfg), "--out", str(out / folder), "--log-level", "info", *extra]
        blas = {name: str(threads) for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), **blas)
        log = logs_dir / f"{folder}.log"
        t0 = time.perf_counter()
        # the working directory is OUT, so no package is imported from the caller's
        with open(log, "w") as handle:
            child = subprocess.Popen(
                [sys.executable, "-c", LAUNCH, str(tree / "src"), *args],
                cwd=out, env=env, stdout=handle, stderr=subprocess.STDOUT,
            )
            # wait4 reports this child's own peak; getrusage's is the largest child's
            _, status, resources = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
        wall, peak = time.perf_counter() - t0, resources.ru_maxrss / 1024  # KiB on Linux
        # a run that stops unconverged exits 3 and still writes its files
        if child.returncode not in (0, 3):
            tail = "\n".join(log.read_text().splitlines()[-20:])
            raise SystemExit(f"{tail}\nbiotfv {' '.join(args)} exited {child.returncode}")
        exits.append(f"{child.returncode}  {EXIT}{folder}")
        usages.append(usage_line(folder, wall, peak))
        print(f"{usages[-1]} (exit {child.returncode})")
    lines = [
        f"{digest}  {folder}/{name}"
        for folder, *_ in CASES
        for name, digest in tree_hashes(out / folder).items()
    ]
    lines += exits
    ran_convergence = any(folder == CONVERGENCE for folder, *_ in CASES)
    figures = convergence_figures(out / CONVERGENCE) if ran_convergence else []
    lines += [f"# {figure}" for figure in figures + usages]
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
    studies = [[f for f in figures if not USAGE.fullmatch(f)] for figures in (base_figures, head_figures)]
    for before, after in zip(*studies):
        print(f"base {before}\nhead {after}")
    base_usage, head_usage = usage(base_figures), usage(head_figures)
    print("wall time and peak RSS per case, base -> head")
    for folder in [folder for folder in head_usage if folder in base_usage]:
        (base_wall, base_peak), (head_wall, head_peak) = base_usage[folder], head_usage[folder]
        print(f"  {folder}: {base_wall:.2f} -> {head_wall:.2f} s, {base_peak:.1f} -> {head_peak:.1f} MB")
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
# The schemes run in the listed order, so lagged runs first in the
# 96-step study and its finished run is live through fixed stress's
# passes.  It keeps only its summary, its final state and averages, which
# added 0.4 MB on a 2-core VM (152.0 and 152.4 MB).  When lagged ran first
# and kept its dp and psi, 2 N n doubles (10.1 MB there), it added
# 11.0-11.4 MB, and 46.2-46.6 MB when it kept its whole result.  The peaks
# themselves are not gated
MAX_LAGGED_RSS = 5.0  # MB
# minimum degree on the 36x36x3 copy's 7n unknowns took over 70 s to
# factor its matrix; ordered cell by cell, with one LU solve per step, the
# run takes about 3 s
MAX_LU_WALL = 30.0  # s


def scheme_files(scheme: str) -> list[str]:
    return [f"barrier_{scheme}.csv", f"barrier_{scheme}_psi.npy", f"barrier_{scheme}_final.vtk"]


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
    # lagged's Robin/free defect is its splitting term (9.7e-9), printed
    # only, and so is its 96-step one
    bad += summary_problems(out / "barrier_robin" / SUMMARY, SCHEMES, ("fixed", "anderson"))
    for folder, schemes in LONG_STUDIES.items():
        bad += summary_problems(out / folder / SUMMARY, schemes.split(","), ("fixed", "anderson"))
    study = tree_hashes(out / "barrier")
    for schemes in ALONE:
        folder = alone_folder(schemes)
        alone = tree_hashes(out / folder)
        names = [name for scheme in schemes.split(",") for name in scheme_files(scheme)]
        print(f"{folder}: {len(names)} files against barrier/'s")
        for name in names:
            if name not in study or alone.get(name) != study[name]:
                bad.append(f"{folder}/{name} differs from barrier/{name}")
    twin = tree_hashes(out / "barrier_direct")
    print(f"barrier_direct_2t: {len(twin)} files against barrier_direct/'s")
    for name in differing(twin, tree_hashes(out / "barrier_direct_2t")):
        bad.append(f"barrier_direct_2t/{name} differs from barrier_direct/{name}")
    used = usage(read_manifest(out)[1])
    lagged_rss = used["barrier_48_long_all"][1] - used["barrier_48_long"][1]
    print(f"lagged adds {lagged_rss:.1f} MB to the 96-step study's peak RSS")
    if not lagged_rss <= MAX_LAGGED_RSS:
        bad.append(f"lagged adds {lagged_rss:.1f} MB to the 96-step study's peak RSS")
    lu_wall = used["barrier_36_direct"][0]
    print(f"barrier_36_direct: {lu_wall:.2f} s")
    if not lu_wall <= MAX_LU_WALL:
        bad.append(f"barrier_36_direct took {lu_wall:.2f} s")
    defects = re.findall(r"mass defect ([^\s,]+)", (out / "logs" / "manufactured.log").read_text())
    print(f"manufactured.log: mass defects {', '.join(defects)}")
    if not defects or not all(float(defect) <= MAX_DEFECT for defect in defects):
        bad.append(f"manufactured.log: mass defects {defects}")
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
    args = parser.parse_args(argv)
    if args.command == "run":
        run(args.tree, args.out)
        return 0
    if args.command == "gate":
        return gate(args.out)
    return compare(args.base_out, args.head_out, args.declared)


if __name__ == "__main__":
    sys.exit(main())

"""Run tier-1 against one-line mutants of the numerical core.

    python tests/mutation_survey.py [--work DIR]

Each mutant replaces one line of `coupling`, `linsolve/krylov`,
`linsolve/amg` or `linsolve/precond` in a copy of this tree, made under
DIR (default: a temporary directory), and runs the tier-1 suite on that
copy at one BLAS thread, stopping at the first failure.  A mutant is
killed when the suite fails; a mutant that survives is reported, and
the survey exits 1.  A mutant whose line is not in its module exactly
once fails the survey before anything runs, so the list follows the
code.  First of all a control, which only appends a comment to one
line, goes through the same copy, edit and run; the survey stops with
exit 2 unless the control survives, since a suite that fails on any
edited copy would kill every mutant.  Each mutant takes up to one
tier-1 run, about 30 s on a 2-core VM.  Run it on a change that touches
those modules and report the tally.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "biotfv"
TIER1 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # path under src/biotfv
    line: str  # the whole line, stripped
    mutated: str  # what replaces it, at the same indentation


CONTROL = Mutant("control", "coupling.py", "from __future__ import annotations",
                 "from __future__ import annotations  # unchanged")

MUTANTS = [
    Mutant("anderson off", "coupling.py",
           "elif state.window is not None and state.window.pairs:",
           "elif False:"),
    Mutant("drained term's sign", "coupling.py",
           "psi -= self.lagged_storage * (now.dp - prev.dp) / self.case.time.dt",
           "psi += self.lagged_storage * (now.dp - prev.dp) / self.case.time.dt"),
    Mutant("tau modulus", "coupling.py",
           "drained_modulus = props.lam + 2.0 * props.mu / 3.0",
           "drained_modulus = props.lam + 2.0 * props.mu"),
    Mutant("gross volume", "coupling.py",
           "gross += dt * np.abs(rates).sum()",
           "gross += dt * rates.sum()"),
    Mutant("10x stricter tol", "coupling.py",
           "state.converged = residual <= tol",
           "state.converged = residual <= tol / 10"),
    Mutant("zero start's pair pushed", "coupling.py",
           "keep = state.window is not None and len(state.residuals) > 0",
           "keep = state.window is not None"),
    Mutant("anderson window 2", "coupling.py",
           "ANDERSON_WINDOW = 5  # (F(psi) - psi, F(psi)) pairs the anderson scheme mixes",
           "ANDERSON_WINDOW = 2"),
    Mutant("regularized at cond > 1e2", "coupling.py",
           "if scale == 0.0 or np.linalg.cond(gram) > 1e14:",
           "if scale == 0.0 or np.linalg.cond(gram) > 1e2:"),
    Mutant("well window without slack", "coupling.py",
           "slack = 1e-6 * dt",
           "slack = 0.0"),
    Mutant("LU shared across engines", "coupling.py",
           "if not self.mech.direct:",
           "if True:"),
    Mutant("no upper bound on tol", "coupling.py",
           "if not 0 < self.tol < 1:",
           "if not 0 < self.tol:"),
    Mutant("accepted on the recursive residual", "linsolve/krylov.py",
           "# accept only on the true residual, refreshing r against drift; an",
           "return True"),
    Mutant("omega = 1", "linsolve/krylov.py",
           "omega = float(t @ s) / tt",
           "omega = 1.0"),
    Mutant("no stagnation stop", "linsolve/krylov.py",
           "STAGNATION = 30",
           "STAGNATION = MAX_ITERATIONS"),
    Mutant("jacobi weight", "linsolve/amg.py",
           "JACOBI_DAMPING = 2.0 / 3.0  # omega * rho of the prolongator smoothing",
           "JACOBI_DAMPING = 1.0"),
    Mutant("rotation-displacement coupling dropped", "linsolve/precond.py",
           "y_r = (r_r - self.rotation_displacement @ y_u) / self.rotation_diagonal",
           "y_r = r_r / self.rotation_diagonal"),
    Mutant("pressure-displacement coupling dropped", "linsolve/precond.py",
           "y_p = self.pressure_hierarchy.vcycle(r_p - self.pressure_displacement @ y_u)",
           "y_p = self.pressure_hierarchy.vcycle(r_p)"),
    Mutant("start window 3", "linsolve/precond.py",
           "START_WINDOW = 4",
           "START_WINDOW = 3"),
    Mutant("no Gram fallback", "linsolve/precond.py",
           "weights = newest",
           "pass"),
    Mutant("unshifted Gram solve", "linsolve/precond.py",
           "START_SHIFT = 1e-12",
           "START_SHIFT = 0.0"),
    Mutant("starts from the newest solution", "linsolve/precond.py",
           "start /= scale",
           "start = self.solutions[-1] / scale"),
]


def mutated_source(text: str, mutant: Mutant) -> str:
    """The module text with the mutant's line replaced, indentation kept;
    a line that is not there exactly once fails."""
    lines = text.splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if line.strip() == mutant.line]
    if len(hits) != 1:
        raise SystemExit(f"mutant '{mutant.name}': {mutant.line!r} is in "
                         f"{mutant.module} {len(hits)} times, not once")
    line = lines[hits[0]]
    lines[hits[0]] = line[: len(line) - len(line.lstrip())] + mutant.mutated + "\n"
    return "".join(lines)


def tier1(work: Path, mutant: Mutant) -> subprocess.CompletedProcess:
    """Tier-1 at one BLAS thread on a copy of this tree, with the mutant's
    line replaced; the copy is removed afterwards."""
    tree = work / "tree"
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out", ".bench_out"))
    module = tree / PACKAGE / mutant.module
    module.write_text(mutated_source(module.read_text(), mutant))
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(tree / "src"))
    try:
        return subprocess.run([sys.executable, *TIER1], cwd=tree, env=env,
                              capture_output=True, text=True)
    finally:
        shutil.rmtree(tree)


def first_failure(output: str) -> str:
    # pytest's summary names a test file; a gate's own FAILED lines in the
    # captured output name none
    found = re.search(r"^(FAILED|ERROR) (\S+\.py\b\S*)", output, re.MULTILINE)
    return found[2] if found else output.strip()[-200:]


def survey(work: Path) -> int:
    for mutant in [CONTROL, *MUTANTS]:  # every line is there once before anything runs
        mutated_source((ROOT / PACKAGE / mutant.module).read_text(), mutant)
    # a mutant is killed only by a failure the control does not have
    done = tier1(work, CONTROL)
    if done.returncode != 0:
        print(f"tier-1 fails on the control: {first_failure(done.stdout)}")
        return 2
    print(" 0. control (coupling.py): survived", flush=True)
    survivors = 0
    for number, mutant in enumerate(MUTANTS, 1):
        start = time.perf_counter()
        done = tier1(work, mutant)
        if done.returncode != 0:
            verdict = f"killed by {first_failure(done.stdout)}"
        else:
            verdict = "SURVIVED"
            survivors += 1
        print(f"{number:2d}. {mutant.name} ({mutant.module}, "
              f"{time.perf_counter() - start:.0f} s): {verdict}", flush=True)
    print(f"{len(MUTANTS)} mutants, {survivors} survived")
    return 1 if survivors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", type=Path, help="where the mutated copies go")
    args = parser.parse_args(argv)
    if args.work is not None:
        args.work.mkdir(parents=True, exist_ok=True)
        return survey(args.work)
    with tempfile.TemporaryDirectory() as work:
        return survey(Path(work))


if __name__ == "__main__":
    sys.exit(main())

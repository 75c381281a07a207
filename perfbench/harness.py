"""Workloads, case generation, output checks and metrics of the benchmark.

Each workload is one study run through the package's own drivers on a
case text generated from the seed:

* ``convergence``: the manufactured grid-refinement study, lagged scheme,
  iterative elastic path at rtol 1e-8, 2 steps per grid.  A traced run
  spends about 56% of its time in AMG V-cycles (12 cold tight-tolerance
  solves, ~1,600 cycles) and about 39% in set-up of the growing cubic
  grids (flow LU 18%, AMG 13%, TPSA assembly 6%); no elastic LU, no
  coupling iterations, almost no output.
* ``barrier``: the 30x30x3 sealed-barrier case under the lagged, fixed
  and anderson schemes.  At 18,900 dofs the ``auto`` path factors the
  elastic operator with LU once per scheme; no AMG runs.
* ``barrier_large``: the same physics on 48x48x3 (48,384 dofs), on the
  other side of ``direct_threshold``: one AMG set-up per scheme, then
  hundreds of warm-started Krylov solves, plus CSV/VTK output.

One operation is one grid of the convergence study or one scheme of a
barrier study; a failed check, a package error or an unconverged
fixed-stress loop fails it.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from biotfv.app.config import parse_config_text
from biotfv.app.drivers import relative_l2, run_barrier_case, run_convergence_study
from biotfv.errors import BiotfvError

from spans import SETUP_SPANS, Span, Tracer, install, outermost, self_times

# The shipped study takes 50 steps of 50 days per grid.  The benchmark
# covers the same 2500 days in 2 steps, which keeps a study near 20 s on
# 2 cores and leaves V-cycles its largest layer, though set-up now takes
# more than a third of it; the fitted orders stay above MIN_ORDER (3
# grids, or 4 steps of 50 days, do not).
CONVERGENCE_GRIDS = (8, 12, 16, 24)
CONVERGENCE_STEPS = 2
CONVERGENCE_END_DAYS = 2500.0
MIN_ORDER = 1.8
BARRIER_SCHEMES = ("lagged", "fixed", "anderson")
# Lagged splitting lags the coupling source by one step; after shut-in the
# compartments equilibrate, so its final pressure matches fixed stress to
# well within this relative L2 distance.
LAGGED_AGREEMENT = 1e-3

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("mesh.build_s", "s"),
    ("tpfa.setup_s", "s"),
    ("tpfa.setup_calls", "count"),
    ("tpfa.step_s", "s"),
    ("tpfa.step_calls", "count"),
    ("tpsa.assemble_s", "s"),
    ("tpsa.assemble_calls", "count"),
    ("tpsa.matrix_nnz", "count"),
    ("tpsa.rhs_s", "s"),
    ("linsolve.blocks.rescale_s", "s"),
    ("linsolve.precond.setup_s", "s"),
    ("linsolve.precond.direct_setups", "count"),
    ("linsolve.precond.iterative_setups", "count"),
    ("linsolve.precond.lu_factor_s", "s"),
    ("linsolve.precond.lu_fill_nnz", "count"),
    ("linsolve.precond.solve_s", "s"),
    ("linsolve.precond.solve_calls", "count"),
    ("linsolve.amg.setup_s", "s"),
    ("linsolve.amg.setup_calls", "count"),
    ("linsolve.amg.levels", "count"),
    ("linsolve.amg.operator_complexity", "ratio"),
    ("linsolve.amg.setup_growth", "slope"),
    ("linsolve.amg.vcycle_s", "s"),
    ("linsolve.amg.vcycle_calls", "count"),
    ("linsolve.krylov.solve_s", "s"),
    ("linsolve.krylov.solves", "count"),
    ("linsolve.krylov.iterations", "count"),
    ("linsolve.krylov.iters_per_solve", "count"),
    ("linsolve.krylov.restarts", "count"),
    ("coupling.setup_s", "s"),
    ("coupling.evaluate_s", "s"),
    ("coupling.mech_solve_s", "s"),
    ("coupling.mech_solves", "count"),
    ("coupling.iterations.fixed", "count"),
    ("coupling.iterations.anderson", "count"),
    ("coupling.anderson_mix_s", "s"),
    ("app.output.csv_s", "s"),
    ("app.output.vtk_s", "s"),
    ("app.output.bytes", "bytes"),
    ("trace.wall_s", "s"),
    ("trace.uncovered_s", "s"),
    ("trace.spans", "count"),
)

# Counts computed from the outputs; they repeat exactly for one seed.
COMPUTED = (
    "tpsa.matrix_nnz",
    "linsolve.precond.lu_fill_nnz",
    "linsolve.amg.levels",
    "linsolve.amg.operator_complexity",
    "app.output.bytes",
)

# ------------------------------------------------------------ case texts

CASES = Path(__file__).resolve().parent.parent / "cases"


def set_keys(text: str, values: dict[tuple[str, str], str]) -> str:
    """Replace the ``key = value`` lines named by (section, key) in a case text.

    Every key must already be in the text, so a key renamed in a shipped
    case stops the benchmark rather than being silently ignored.
    """
    lines = text.splitlines()
    todo = dict(values)
    section = None
    for i, line in enumerate(lines):
        stripped = line.strip()
        if stripped.startswith("["):
            section = stripped.strip("[]")
        elif "=" in stripped and not stripped.startswith("#"):
            key = stripped.split("=", 1)[0].strip()
            if (section, key) in todo:
                lines[i] = f"{key} = {todo.pop((section, key))}"
    if todo:
        raise KeyError(f"keys not in the case text: {sorted(todo)}")
    return "\n".join(lines) + "\n"


def convergence_case() -> str:
    """The shipped manufactured case with the benchmark's time steps.

    The closed-form problem fixes every other input, so no seed enters it.
    """
    return set_keys(
        (CASES / "manufactured.cfg").read_text(),
        {
            ("time", "dt"): f"{CONVERGENCE_END_DAYS / CONVERGENCE_STEPS:g} day",
            ("time", "n_steps"): str(CONVERGENCE_STEPS),
        },
    )


def barrier_case(seed: int, n: int, nz: int = 3) -> str:
    """The shipped barrier case on an n x n x nz mesh with a seeded well.

    The well is drawn on the shipped 30x30x3 grid, in the compartment
    x < 150 m, and placed in the cell of the n x n x nz mesh that holds its
    centre.  Seed 0 is the shipped injector, cell (7, 15, 1) at 100 m3/day,
    so seed 0 on 30x30x3 gives the shipped case unchanged.
    """
    if seed == 0:
        coarse, rate = (7, 15, 1), 100.0
    else:
        rng = random.Random(seed)
        coarse = (rng.randrange(15), rng.randrange(30), rng.randrange(3))
        rate = round(rng.uniform(50.0, 200.0), 1)
    cell = (int((c + 0.5) * m / k) for c, m, k in zip(coarse, (n, n, nz), (30, 30, 3)))
    return set_keys(
        (CASES / "barrier.cfg").read_text(),
        {
            ("mesh", "nx"): str(n),
            ("mesh", "ny"): str(n),
            ("mesh", "nz"): str(nz),
            ("mesh", "barrier_index"): str(n // 2),
            ("well.injector", "cell"): " ".join(map(str, cell)),
            ("well.injector", "rate"): f"{rate:g} m3/day",
        },
    )


# ---------------------------------------------------------------- checks


@dataclass
class Check:
    op: str
    name: str
    passed: bool
    value: object = None


def check_convergence(study) -> tuple[list[Check], dict]:
    """Fitted orders, and probe iterations growing at most 2x per refinement.

    The probe pair is the coarsest grid and the grid twice as fine, or the
    finest grid when the study has none twice as fine.
    """
    checks = [
        Check("study", f"order_{var}>={MIN_ORDER}", order >= MIN_ORDER, order)
        for var, order in study.orders.items()
    ]
    probes = {r.n: r.probe_iterations for r in study.reports}
    coarse = min(probes)
    fine = 2 * coarse if 2 * coarse in probes else max(probes)
    checks.append(
        Check(
            str(fine),
            f"probe_iterations_{fine}<=2x{coarse}",
            probes[fine] <= 2 * probes[coarse],
            [probes[coarse], probes[fine]],
        )
    )
    summary = {"orders": study.orders, "probe_iterations": probes}
    return checks, summary


def check_barrier(runs, config) -> tuple[list[Check], dict]:
    by_scheme = {run.scheme: run for run in runs}
    stop = config.wells[0].t_end
    checks = []
    for run in runs:
        report = run.result.report
        fixed_stress = run.scheme != "lagged"
        # the defect is a linear functional of the elastic solve error and,
        # for fixed stress, of the unconverged coupling source
        bound = config.solver.rtol + (config.scheme.tol if fixed_stress else 0.0)
        if fixed_stress:
            checks.append(Check(run.scheme, "converged", report.converged, report.iterations))
        defect = float(run.mass_defect)
        checks.append(Check(run.scheme, f"mass_defect<={bound:g}", defect <= bound, defect))
        times = np.array([s.t for s in run.result.states])
        at_stop = int(np.flatnonzero(times <= stop * (1 + 1e-9))[-1])
        omega2 = float(run.avg_dp_omega2[at_stop])
        checks.append(Check(run.scheme, "omega2_dp>0_at_shut_in", omega2 > 0.0, omega2))
    fixed = by_scheme["fixed"].result
    res = fixed.report.residuals
    checks.append(
        Check(
            "fixed",
            "residuals_decrease",
            all(b < a for a, b in zip(res, res[1:])),
            res,
        )
    )
    lagged = by_scheme["lagged"].result
    mesh = config.build_mesh()
    gap = float(relative_l2(mesh, lagged.final.dp, fixed.final.dp))
    checks.append(
        Check("lagged", f"final_dp_vs_fixed<={LAGGED_AGREEMENT:g}", gap <= LAGGED_AGREEMENT, gap)
    )
    summary = {
        "passes": {run.scheme: run.result.report.iterations for run in runs},
        "mass_defect": {run.scheme: run.mass_defect for run in runs},
    }
    return checks, summary


# ------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    """A study kind and its size; ``grids`` is set for convergence studies."""

    name: str
    size: int = 0
    nz: int = 3
    grids: tuple[int, ...] = ()

    @property
    def operations(self) -> tuple[str, ...]:
        return tuple(map(str, self.grids)) if self.grids else BARRIER_SCHEMES

    def case_text(self, seed: int) -> str:
        if self.grids:
            return convergence_case()
        return barrier_case(seed, self.size, self.nz)

    def run(self, config, out_dir: Path):
        if self.grids:
            return run_convergence_study(config, self.grids, out_dir)
        return run_barrier_case(config, BARRIER_SCHEMES, out_dir)

    def check(self, outcome, config) -> tuple[list[Check], dict]:
        if self.grids:
            return check_convergence(outcome)
        return check_barrier(outcome, config)


WORKLOADS = {
    "convergence": Workload("convergence", grids=CONVERGENCE_GRIDS),
    "barrier": Workload("barrier", size=30),
    "barrier_large": Workload("barrier_large", size=48),
}


@dataclass
class StudyRun:
    wall: float
    spans: list[Span]
    checks: list[Check] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    error: str | None = None

    def failed_operations(self, operations) -> set[str]:
        if self.error is not None:
            return set(operations)
        failed = set()
        for check in self.checks:
            if not check.passed:
                failed |= set(operations) if check.op == "study" else {check.op}
        return failed


def run_study(workload: Workload, text: str, out_dir: Path, traced: bool) -> StudyRun:
    """Run one study through the package's drivers, timed end to end.

    Only the drivers' work is timed; the checks run afterwards.
    """
    tracer = Tracer()
    install(tracer, full=traced)
    outcome = config = error = None
    try:
        start = perf_counter()
        try:
            config = parse_config_text(text)
            outcome = workload.run(config, out_dir)
        except BiotfvError as err:
            error = f"{type(err).__name__}: {err}"
        wall = perf_counter() - start
    finally:
        tracer.uninstall()
    study = StudyRun(wall=wall, spans=tracer.spans, error=error)
    if error is None:
        study.checks, study.summary = workload.check(outcome, config)
    return study


# --------------------------------------------------------------- metrics


def setup_seconds(study: StudyRun) -> float:
    """Operator set-up of one study: the plain sum of its outermost
    mesh builds and CoupledSystem builds, so a first build that costs more
    than the rest counts in full.
    """
    return sum(span.duration for span in outermost(study.spans, SETUP_SPANS))


def _amg_growth(spans: list[Span]) -> float:
    """Log-log slope of AMG set-up time against fine rows, 0 below 2 sizes."""
    times: dict[int, list[float]] = {}
    for span in spans:
        if span.name == "linsolve.amg.setup":
            times.setdefault(span.attrs["rows"], []).append(span.duration)
    if len(times) < 2:
        return 0.0
    rows = sorted(times)
    median = [statistics.median(times[r]) for r in rows]
    return float(np.polyfit(np.log(rows), np.log(median), 1)[0])


def layer_metrics(study: StudyRun) -> dict[str, float]:
    """Per-layer self times and counts of one traced study."""
    spans = study.spans
    own = self_times(spans)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, t in zip(spans, own):
        self_s[span.name] = self_s.get(span.name, 0.0) + t
        calls[span.name] = calls.get(span.name, 0) + 1

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    amg = [s for s in spans if s.name == "linsolve.amg.setup"]
    finest = max(amg, key=lambda s: s.attrs["rows"], default=None)
    solves = calls.get("linsolve.krylov.solve", 0)
    iterations = attr_sum("linsolve.krylov.solve", "iterations")
    direct = attr_sum("linsolve.precond.setup", "direct")
    top = [s for s in spans if s.parent < 0]
    covered = sum(s.duration for s in top)
    passes = study.summary.get("passes", {})
    m = {
        "mesh.build_s": self_s.get("mesh.build", 0.0),
        "tpfa.setup_s": self_s.get("tpfa.setup", 0.0),
        "tpfa.setup_calls": calls.get("tpfa.setup", 0),
        "tpfa.step_s": self_s.get("tpfa.step", 0.0),
        "tpfa.step_calls": calls.get("tpfa.step", 0),
        "tpsa.assemble_s": self_s.get("tpsa.assemble", 0.0),
        "tpsa.assemble_calls": calls.get("tpsa.assemble", 0),
        "tpsa.matrix_nnz": attr_sum("tpsa.assemble", "nnz"),
        "tpsa.rhs_s": self_s.get("tpsa.rhs", 0.0),
        "linsolve.blocks.rescale_s": self_s.get("linsolve.blocks.rescale", 0.0),
        "linsolve.precond.setup_s": self_s.get("linsolve.precond.setup", 0.0),
        "linsolve.precond.direct_setups": direct,
        "linsolve.precond.iterative_setups": calls.get("linsolve.precond.setup", 0) - direct,
        "linsolve.precond.lu_factor_s": self_s.get("linsolve.precond.lu_factor", 0.0),
        "linsolve.precond.lu_fill_nnz": attr_sum("linsolve.precond.lu_factor", "fill_nnz"),
        "linsolve.precond.solve_s": self_s.get("linsolve.precond.solve", 0.0),
        "linsolve.precond.solve_calls": calls.get("linsolve.precond.solve", 0),
        "linsolve.amg.setup_s": self_s.get("linsolve.amg.setup", 0.0),
        "linsolve.amg.setup_calls": len(amg),
        "linsolve.amg.levels": finest.attrs["levels"] if finest else 0,
        "linsolve.amg.operator_complexity": (
            finest.attrs["operator_complexity"] if finest else 0.0
        ),
        "linsolve.amg.setup_growth": _amg_growth(spans),
        "linsolve.amg.vcycle_s": self_s.get("linsolve.amg.vcycle", 0.0),
        "linsolve.amg.vcycle_calls": calls.get("linsolve.amg.vcycle", 0),
        "linsolve.krylov.solve_s": self_s.get("linsolve.krylov.solve", 0.0),
        "linsolve.krylov.solves": solves,
        "linsolve.krylov.iterations": iterations,
        "linsolve.krylov.iters_per_solve": iterations / solves if solves else 0.0,
        "linsolve.krylov.restarts": attr_sum("linsolve.krylov.solve", "restarted"),
        "coupling.setup_s": self_s.get("coupling.setup", 0.0),
        "coupling.evaluate_s": self_s.get("coupling.evaluate", 0.0),
        "coupling.mech_solve_s": self_s.get("coupling.mech_solve", 0.0),
        "coupling.mech_solves": calls.get("coupling.mech_solve", 0),
        "coupling.iterations.fixed": passes.get("fixed", 0),
        "coupling.iterations.anderson": passes.get("anderson", 0),
        "coupling.anderson_mix_s": self_s.get("coupling.anderson_mix", 0.0),
        "app.output.csv_s": self_s.get("app.output.csv", 0.0),
        "app.output.vtk_s": self_s.get("app.output.vtk", 0.0),
        "app.output.bytes": attr_sum("app.output.csv", "bytes")
        + attr_sum("app.output.vtk", "bytes"),
        "trace.wall_s": study.wall,
        "trace.uncovered_s": study.wall - covered,
        "trace.spans": len(spans),
    }
    return m


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(workload: Workload, seed: int, traced: bool, out_root: Path):
    """Run one whole study; return the result and the run record.

    A run is one study, whose figures are reported as measured.  Peak RSS
    is that of this process, which runs nothing else.
    """
    text = workload.case_text(seed)
    gc.collect()
    study = run_study(workload, text, out_root / workload.name, traced)
    failed = len(study.failed_operations(workload.operations))
    if traced:
        values = layer_metrics(study)
        units = dict(PER_LAYER)
    else:
        values = {
            "wall_s": study.wall,
            "setup_s": setup_seconds(study),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = dict(END_TO_END)
    result = {
        "correct": failed == 0,
        "attempted": len(workload.operations),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    record = {
        "workload": workload.name,
        "seed": seed,
        "traced": traced,
        "case": text,
        "wall_s": study.wall,
        "error": study.error,
        "summary": study.summary,
        "checks": [vars(c) for c in study.checks],
        "computed_counts": list(COMPUTED) if traced else [],
    }
    return result, record

"""Fast self-test of the benchmark harness on tiny inputs.

Runs a 3/4/5 convergence study and a 6x6x2 barrier study, traced and
untraced, and checks metric names against BENCHMARK.json, the output
checks, span nesting, non-negative self times, that the traced layers
cover most of each study, the layers predicted absent, the one build per
scheme that set-up time sums, the case generator and that every wrapper
is removed afterwards.
Takes a few seconds; run it with ``python3 perfbench/run.py --self-test``.
"""

from __future__ import annotations

import json
from pathlib import Path

from biotfv import coupling, mesh, tpsa
from biotfv.linsolve import precond

import harness
from harness import Check, StudyRun, Workload
from spans import SETUP_SPANS, outermost, self_times

ROOT = Path(__file__).resolve().parent.parent
TINY_CONVERGENCE = Workload("convergence", grids=(3, 4, 5))
TINY_BARRIER = Workload("barrier", size=6, nz=2)
# Share of a tiny study's wall time outside every top-level span (config
# parsing, driver bookkeeping, error norms); it measures 2-5%.
MAX_UNCOVERED = 0.15


class Expect:
    def __init__(self):
        self.passed = 0
        self.failures: list[str] = []

    def __call__(self, condition, message: str) -> None:
        if condition:
            self.passed += 1
        else:
            self.failures.append(message)


def check_metric_names(expect: Expect) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(
        [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END),
        "end_to_end metrics differ from harness.END_TO_END",
    )
    expect(
        [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(harness.PER_LAYER),
        "per_layer metrics differ from harness.PER_LAYER",
    )
    expect(
        sorted(w["name"] for w in spec["workloads"]) == sorted(harness.WORKLOADS),
        "workloads differ from harness.WORKLOADS",
    )


def check_spans(expect: Expect, study: StudyRun, label: str) -> None:
    spans = study.spans
    for span in spans:
        if span.parent >= 0:
            outer = spans[span.parent]
            expect(
                outer.start <= span.start <= span.end <= outer.end,
                f"{label}: span {span.name} escapes its parent {outer.name}",
            )
    expect(min(self_times(spans)) >= 0.0, f"{label}: negative self time")
    m = harness.layer_metrics(study)
    share = m["trace.uncovered_s"] / m["trace.wall_s"]
    expect(
        share <= MAX_UNCOVERED,
        f"{label}: traced layers leave {share:.1%} of the study uncovered",
    )
    expect(set(m) == {name for name, _ in harness.PER_LAYER}, f"{label}: metric set")


def parents(study: StudyRun, name: str) -> set[str]:
    return {study.spans[s.parent].name for s in study.spans if s.name == name and s.parent >= 0}


def check_studies(expect: Expect, out: Path) -> None:
    originals = (mesh.build_cartesian, coupling.assemble_tpsa, precond.splu, tpsa.assemble_rhs)
    text = TINY_CONVERGENCE.case_text(0)
    conv = harness.run_study(TINY_CONVERGENCE, text, out / "convergence", traced=True)
    expect(conv.error is None, f"convergence study failed: {conv.error}")
    names = [c.name for c in conv.checks]
    expect(
        names == [f"order_{v}>=1.8" for v in ("dp", "u", "r", "p_hat")]
        + ["probe_iterations_5<=2x3"],
        f"convergence checks {names}",
    )
    check_spans(expect, conv, "convergence")
    m = harness.layer_metrics(conv)
    expect(m["linsolve.precond.lu_factor_s"] == 0.0, "convergence factored an elastic LU")
    expect(m["linsolve.precond.direct_setups"] == 0, "convergence took the direct path")
    expect(m["linsolve.amg.setup_calls"] == 4 * 6, "4 AMG set-ups per elastic system")
    expect(m["linsolve.amg.vcycle_calls"] > 0, "no V-cycles on convergence")
    expect(m["linsolve.amg.setup_growth"] != 0.0, "no AMG growth fitted over 3 grids")
    expect(parents(conv, "linsolve.amg.vcycle") == {"linsolve.krylov.solve"}, "vcycle parent")
    expect(parents(conv, "linsolve.amg.setup") == {"linsolve.precond.setup"}, "amg parent")
    expect(m["tpsa.assemble_calls"] == 6, "one assembly per elastic system")

    text = TINY_BARRIER.case_text(0)
    bar = harness.run_study(TINY_BARRIER, text, out / "barrier", traced=True)
    expect(bar.error is None, f"barrier study failed: {bar.error}")
    failed = [(c.op, c.name, c.value) for c in bar.checks if not c.passed]
    expect(not failed, f"barrier checks failed: {failed}")
    check_spans(expect, bar, "barrier")
    m = harness.layer_metrics(bar)
    expect(m["linsolve.amg.vcycle_calls"] == 0, "barrier ran V-cycles")
    expect(m["linsolve.amg.setup_s"] == 0.0, "barrier built AMG")
    expect(m["linsolve.precond.direct_setups"] == 3, "one LU per scheme")
    expect(m["linsolve.precond.lu_fill_nnz"] > 0, "no LU fill counted")
    expect(m["coupling.iterations.fixed"] > 0, "no fixed-stress passes counted")
    expect(m["app.output.bytes"] > 0 and m["app.output.vtk_s"] > 0.0, "no output counted")
    expect(
        parents(bar, "linsolve.precond.lu_factor") == {"linsolve.precond.setup"}, "LU parent"
    )
    expect(
        parents(bar, "mesh.build") <= {"mesh.build"}, "mesh spans nest only in mesh spans"
    )
    expect(
        parents(bar, "tpsa.rhs") == {"tpsa.assemble", "coupling.mech_solve"}, "rhs parents"
    )
    builds = [s.name for s in outermost(bar.spans, SETUP_SPANS)]
    expect(builds.count("coupling.setup") == 3, f"set-up spans per scheme: {builds}")

    plain = harness.run_study(TINY_BARRIER, text, out / "barrier", traced=False)
    expect(
        {s.name for s in plain.spans} == {"mesh.build", "coupling.setup"},
        "untraced runs record set-up spans only",
    )
    expect(
        (mesh.build_cartesian, coupling.assemble_tpsa, precond.splu, tpsa.assemble_rhs)
        == originals,
        "wrappers left installed after a study",
    )


def check_cases_and_failures(expect: Expect) -> None:
    shipped = (harness.CASES / "barrier.cfg").read_text()
    expect(harness.barrier_case(0, 30) == shipped, "seed 0 is not the shipped barrier case")
    expect(harness.barrier_case(5, 48) == harness.barrier_case(5, 48), "seeded case repeats")
    expect(harness.barrier_case(5, 48) != harness.barrier_case(6, 48), "seeds differ")
    for seed in range(1, 40):
        text = harness.barrier_case(seed, 48)
        cell = next(line for line in text.splitlines() if line.startswith("cell"))
        ix = int(cell.split()[2])
        expect(0 <= ix < 24, f"seed {seed}: well outside omega1 ({cell})")
    ops = TINY_BARRIER.operations
    study = StudyRun(wall=1.0, spans=[], checks=[Check("fixed", "converged", False)])
    expect(study.failed_operations(ops) == {"fixed"}, "per-scheme failure")
    study.checks.append(Check("study", "order", False))
    expect(study.failed_operations(ops) == set(ops), "study failure fails every operation")
    expect(StudyRun(1.0, [], error="SolverError").failed_operations(ops) == set(ops), "error")


def main(out: Path) -> int:
    expect = Expect()
    check_metric_names(expect)
    check_cases_and_failures(expect)
    check_studies(expect, out)
    for failure in expect.failures:
        print(f"FAIL {failure}")
    print(f"self-test: {expect.passed} passed, {len(expect.failures)} failed")
    return 1 if expect.failures else 0

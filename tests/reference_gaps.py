"""Gate each scheme's states on three barrier copies against the trusted
reference, an LU-path Anderson run at tol 1e-12 (`oracles.TightReference`).

    python tests/reference_gaps.py

The copies are the shipped 30x30x3 barrier study, its 48x48x3 copy and
its strongly coupled copy at c0 = 1e-10 1/Pa (tau = 1.2), each on the
path `method = auto` picks (Krylov on all three).  For every scheme it
prints the worst-step dp gap to the reference, the pass count and
whether the run converged.  Lagged does not converge to the coupled
solution, so its gap is measured to its own LU-path march.  It exits 1
naming each scheme whose gap or passes exceed its CEILING: the figures
the previous start rule read, each pass starting from the last pass's
solutions, at one BLAS thread.  Outside tier-1: it takes about a minute.
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from compare_outputs import barrier_copy, barrier_grid  # noqa: E402
from oracles import TightReference  # noqa: E402

from biotfv.app.config import parse_config_text  # noqa: E402
from biotfv.coupling import SCHEME_KINDS, CoupledSystem, simulate  # noqa: E402

COPIES = {
    "shipped": [],
    "barrier_48": barrier_grid(48),
    "strong": [("c0 = 1e-8 1/Pa", "c0 = 1e-10 1/Pa")],
}
# (worst-step dp gap, passes) per copy and scheme under the previous start
# rule.  Lagged's gap to the Anderson reference, its splitting error, read
# 3.2468e-05, 3.0356e-05 and 1.4884e-01
CEILING = {
    ("shipped", "lagged"): (5.3566e-08, 0),
    ("shipped", "fixed"): (5.7180e-08, 4),
    ("shipped", "anderson"): (5.7167e-08, 4),
    ("barrier_48", "lagged"): (4.8531e-08, 0),
    ("barrier_48", "fixed"): (4.8008e-08, 4),
    ("barrier_48", "anderson"): (4.7992e-08, 4),
    ("strong", "lagged"): (5.4099e-06, 0),
    ("strong", "fixed"): (2.5881e-05, 25),
    ("strong", "anderson"): (3.5779e-06, 13),
}


def main() -> int:
    failures = []
    for copy, edits in COPIES.items():
        config = parse_config_text(barrier_copy(edits))
        case = config.build_case()
        references = {"lagged": TightReference(case, "lagged"), "": TightReference(case)}
        averages = references[""].averages
        print(f"{copy}: reference final averages {averages[0]:.10g} / {averages[1]:.10g}")
        engine = CoupledSystem(case, config.solver)
        for kind in SCHEME_KINDS:
            reference = references.get(kind, references[""])
            result = simulate(engine, replace(config.scheme, kind=kind))
            gap, passes = reference.gap(result.states), result.report.iterations
            ceiling, most = CEILING[copy, kind]
            print(f"  {kind:8s} gap {gap:.4e} (ceiling {ceiling:.4e}), passes {passes} "
                  f"(at most {most}), converged {result.report.converged}")
            if gap > ceiling or passes > most:
                failures.append(f"{copy} {kind}")
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""biotfv benchmark: three studies timed end to end, each layer timed from outside.

    python3 perfbench/run.py --workload barrier --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0     # every workload, both modes
    python3 perfbench/run.py --self-test                  # harness check on tiny inputs

Run from the repository root.  The package is imported from ``src/`` next
to this directory.  A run is one whole study, timed as it happens;
``--seconds`` is the time that study is expected to take at most, and a
study that takes longer is reported on stderr.  A single-workload run
prints one JSON run record (seed, generated case text, machine, the
checks) and then, as its last line, the result: ``correct``,
``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
``--workload all`` runs each workload untraced and traced, each in a
fresh process, and reports the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("convergence", "barrier", "barrier_large")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads() -> int:
    """Set BLAS/OpenMP thread pools before numpy is imported.

    Unset pools get one thread: the solver stack's sparse kernels are
    single-threaded, and on 2 cores a second BLAS thread only spins, which
    made studies slower (barrier 29-36 s against 25-28 s on a 2-core Xeon
    VM) and their times track machine load.  An explicit setting is kept, capped at nproc.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, 1))
        except ValueError:
            wanted = 1
        os.environ[var] = str(min(max(wanted, 1), nproc))
    return nproc


def import_package():
    """Import biotfv from this checkout's ``src/``, not from anywhere else."""
    sys.path.insert(0, str(SRC))
    import biotfv

    where = Path(biotfv.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"biotfv resolved to {where}, outside {SRC}")
    return biotfv


def machine(nproc: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            models = (line.split(":", 1)[1] for line in handle if line.startswith("model name"))
            cpu = next(models, cpu).strip()
    except OSError:
        pass
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def run_all(args) -> int:
    """Each workload untraced then traced, each in its own fresh process."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        results = {}
        for trace in (0, 1):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode not in (0, 1) or not lines:
                sys.stderr.write(proc.stderr)
                print(f"{name}: trace {trace} run exited {proc.returncode}", file=sys.stderr)
                return 2
            print(lines[-2])  # run record: seed, case text, checks
            results[trace] = json.loads(lines[-1])
        untraced, traced = results[0], results[1]
        for key in ("attempted", "failed"):
            totals[key] += untraced[key]
        totals["correct"] &= untraced["correct"] and traced["correct"]
        metrics = untraced["metrics"]
        wall = metrics["wall_s"]["value"]
        overhead = traced["metrics"]["trace.wall_s"]["value"] - wall
        metrics["trace_overhead_s"] = {"value": overhead, "unit": "s"}
        for key, metric in metrics.items():
            totals["metrics"][f"{name}.{key}"] = metric
        print(
            f"# {name}: wall_s {wall:.3f} s, setup_s {metrics['setup_s']['value']:.3f} s, "
            f"peak_rss_mb {metrics['peak_rss_mb']['value']:.1f} MB, tracing overhead "
            f"{overhead:.3f} s ({100 * overhead / wall:.1f}%), "
            f"failed {untraced['failed']}/{untraced['attempted']}"
        )
    print(json.dumps(totals))
    return 0 if totals["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload or --self-test is required")

    nproc = cap_threads()
    try:
        import_package()
    except ImportError as err:
        print(f"perfbench: cannot import biotfv from {SRC}: {err}", file=sys.stderr)
        return 2
    if args.self_test:
        import selftest

        return selftest.main(OUT / "selftest")
    if args.workload == "all":
        return run_all(args)

    import harness

    workload = harness.WORKLOADS[args.workload]
    result, record = harness.run_workload(workload, args.seed, bool(args.trace), OUT)
    if record["wall_s"] > args.seconds:
        print(
            f"perfbench: the {args.workload} study took {record['wall_s']:.1f} s, "
            f"more than --seconds {args.seconds:g}",
            file=sys.stderr,
        )
    record["machine"] = machine(nproc)
    record["result"] = result
    suffix = "_trace" if args.trace else ""
    bench_file = OUT / f"BENCH_{args.workload}{suffix}.json"
    OUT.mkdir(exist_ok=True)
    bench_file.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(record, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

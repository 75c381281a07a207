"""Command-line front end.

Exit codes: 0 success, 2 configuration error or any other invalid input
(every package error that is not a solver failure), 3 solver failure
(including a singular factorization, and a fixed-stress run that stops at
its iteration cap unconverged, after its outputs are written), 4 I/O error
while writing results.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace

from ..errors import BiotfvError, ConfigurationError, SolverError
from .config import parse_config
from .drivers import run_barrier_case, run_case, run_convergence_study

log = logging.getLogger("biotfv")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", help="case configuration file (INI)")
    common.add_argument("--out", help="output directory (default: from config)")
    common.add_argument("--rtol", type=float, help="linear solver tolerance override")
    common.add_argument(
        "--max-iter", type=int, help="linear solver iteration cap override"
    )
    common.add_argument(
        "--log-level",
        default="info",
        choices=["debug", "info", "warning", "error"],
        help="logging verbosity",
    )

    parser = argparse.ArgumentParser(
        prog="biotfv",
        description="Finite-volume simulator for single-phase Biot poroelasticity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", parents=[common], help="run one configured case")
    run_p.add_argument(
        "--dump-matrix",
        action="store_true",
        help="also write the assembled elastic system in MatrixMarket format",
    )

    conv_p = sub.add_parser(
        "convergence",
        parents=[common],
        help="grid-refinement study against the closed-form solution",
    )
    conv_p.add_argument(
        "--grids",
        default="8,12,16,24",
        help="comma-separated cells per direction (at least 3 values)",
    )

    bar_p = sub.add_parser(
        "barrier", parents=[common], help="sealed-barrier compartment study"
    )
    bar_p.add_argument(
        "--schemes",
        default="lagged,fixed,anderson",
        help="comma-separated coupling schemes to run",
    )
    return parser


def _apply_overrides(config, args):
    """The config with the solver overrides; SolverOptions checks them."""
    overrides = {"rtol": args.rtol, "max_iter": args.max_iter}
    overrides = {key: value for key, value in overrides.items() if value is not None}
    return replace(config, solver=replace(config.solver, **overrides))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = _apply_overrides(parse_config(args.config), args)
        reports = []
        if args.command == "run":
            artifacts = run_case(
                config, out_dir=args.out, dump_system=args.dump_matrix
            )
            report = artifacts.result.report
            print(
                f"case '{artifacts.case.name}': {len(artifacts.result.states) - 1} "
                f"steps, scheme {report.scheme}, "
                f"{report.iterations} coupling iterations, "
                f"mass defect {artifacts.mass_defect:.3e}"
            )
            for path in artifacts.paths:
                print(f"wrote {path}")
            reports.append(report)
        elif args.command == "convergence":
            grids = [token for token in args.grids.split(",") if token.strip()]
            try:
                grids = [int(token) for token in grids]
            except ValueError:
                raise ConfigurationError(
                    f"--grids must be integers, got '{args.grids}'"
                ) from None
            study = run_convergence_study(config, grids, out_dir=args.out)
            print("n,h," + ",".join(f"err_{v}" for v in ("dp", "u", "r", "p_hat")))
            for rep in study.reports:
                errs = ",".join(repr(rep.errors[v]) for v in ("dp", "u", "r", "p_hat"))
                print(f"{rep.n},{rep.h!r},{errs}")
            for var, order in study.orders.items():
                print(f"order {var}: {order:.3f}")
        else:
            schemes = [s for s in args.schemes.split(",") if s.strip()]
            runs = run_barrier_case(config, schemes, out_dir=args.out)
            for run in runs:
                print(
                    f"scheme {run.scheme}: {run.result.report.iterations} iterations, "
                    f"mass defect {run.mass_defect:.3e}, final compartment averages "
                    f"{run.avg_dp_omega1[-1]:.6g} / {run.avg_dp_omega2[-1]:.6g} Pa"
                )
                reports.append(run.result.report)
    except ConfigurationError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except SolverError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 3
    except BiotfvError as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 4
    failed = [r for r in reports if not r.converged]
    for report in failed:
        print(
            f"solver failure: {report.scheme} coupling not converged after "
            f"{report.iterations} iterations",
            file=sys.stderr,
        )
    return 3 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

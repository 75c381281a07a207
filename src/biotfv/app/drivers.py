"""Experiment drivers behind the CLI: single runs, grid-refinement
studies on the manufactured solution, and the sealed-barrier case."""

from __future__ import annotations

import logging
import time as _time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ..coupling import (
    BiotCase,
    BiotState,
    CoupledSystem,
    SCHEME_KINDS,
    SharedHead,
    SharedOperators,
    SimulationResult,
    elastic_load,
    elastic_solver,
    global_mass_check,
    simulate,
)
from ..errors import ConfigurationError, SolverError
from ..mesh import Mesh, build_cartesian
from ..tpsa import assemble_tpsa
from .config import CaseConfig
from .output import dump_matrix, save_source_history, write_csv, write_vtk

log = logging.getLogger("biotfv")

__all__ = [
    "relative_l2",
    "RunArtifacts",
    "run_case",
    "ErrorReport",
    "ConvergenceStudy",
    "fit_orders",
    "run_convergence_study",
    "BarrierRun",
    "compartment_masks",
    "run_barrier_case",
]

VARIABLES = ("dp", "u", "r", "p_hat")


def relative_l2(mesh: Mesh, approx: np.ndarray, exact: np.ndarray) -> float:
    """Volume-weighted relative L2 distance; absolute when exact is zero."""
    w = mesh.cell_volumes
    diff = np.asarray(approx) - np.asarray(exact)
    if diff.ndim == 2:
        w = w[:, None]
    num = float(np.sum(w * diff**2))
    den = float(np.sum(w * np.asarray(exact) ** 2))
    return float(np.sqrt(num / den)) if den > 0 else float(np.sqrt(num))


@dataclass
class RunArtifacts:
    case: BiotCase
    result: SimulationResult
    mass_defect: float
    paths: list[Path] = field(default_factory=list)


def run_case(
    config: CaseConfig, out_dir=None, dump_system: bool = False
) -> RunArtifacts:
    """Run one case per its configured scheme and write the outputs.

    With `dump_system` the assembled elastic operator is written too,
    assembled again after the run, since the engine keeps it only rescaled.
    """
    case = config.build_case()
    out = Path(out_dir if out_dir is not None else config.output_directory)
    log.info(
        "running case '%s': %d cells, %d steps, scheme %s",
        case.name,
        case.mesh.n_cells,
        case.time.n_steps,
        config.scheme.kind,
    )
    result = simulate(CoupledSystem(case, config.solver), config.scheme)
    mass = global_mass_check(case, result.states)
    log.info(
        "finished: %d coupling iterations, mass defect %.3e",
        result.report.iterations,
        mass,
    )
    name = case.name or "case"
    series = out / f"{name}_series.csv"
    rows = [
        (
            i,
            state.t,
            float(np.mean(state.dp)),
            float(np.min(state.dp)),
            float(np.max(state.dp)),
            float(np.mean(state.p_hat)),
        )
        for i, state in enumerate(result.states)
    ]
    write_csv(
        series,
        ["step", "time", "mean_dp", "min_dp", "max_dp", "mean_p_hat"],
        rows,
    )
    psi_path = out / f"{name}_psi.npy"
    save_source_history(psi_path, result.psi)
    vtk_path = out / f"{name}_final.vtk"
    write_vtk(vtk_path, case.mesh, result.final, title=name)
    paths = [series, psi_path, vtk_path]
    if dump_system:
        system = assemble_tpsa(case.mesh, case.props)
        paths.append(dump_matrix(out / f"{name}_mech", system.matrix))
    return RunArtifacts(case=case, result=result, mass_defect=mass, paths=paths)


@dataclass
class ErrorReport:
    """Errors against the closed-form solution on one grid."""

    n: int
    h: float
    n_cells: int
    errors: dict[str, float]
    probe_iterations: int
    probe_trace: list[float]


@dataclass
class ConvergenceStudy:
    reports: list[ErrorReport]
    orders: dict[str, float]
    elapsed: float


def fit_orders(reports: list[ErrorReport]) -> dict[str, float]:
    """Least-squares slope of log(error) against log(h) per variable."""
    h = np.log([r.h for r in reports])
    return {
        var: float(np.polyfit(h, np.log([r.errors[var] for r in reports]), 1)[0])
        for var in VARIABLES
    }


def _reject_repeats(items: list, what: str) -> None:
    """Reject a list that names an item twice, naming each such item."""
    repeated = sorted({item for item in items if items.count(item) > 1})
    if repeated:
        listed = ", ".join(map(str, repeated))
        raise ConfigurationError(f"{what} listed twice: {listed}")


def run_convergence_study(
    config: CaseConfig, grids, out_dir=None
) -> ConvergenceStudy:
    """Grid-refinement study of the coupled scheme on the unit cube.

    Each grid solves the full transient with the lagged scheme starting
    from the exact solution, so the measured error is pure discretization
    error.  A probe then records the residual trace of one more mechanics
    solve per grid, forced through the preconditioned Krylov path: a cold
    solve of the final step's load.  It builds only what that solve reads,
    an elastic solver (`coupling.elastic_solver`), and no flow system.
    """
    grids = [int(n) for n in grids]
    if len(set(grids)) < 3:
        raise ConfigurationError(
            "convergence study needs at least 3 grids of distinct sizes"
        )
    # a repeated size would be solved, written and weighted in the fit twice
    _reject_repeats(grids, "grid size")
    if any(n < 2 for n in grids):
        raise ConfigurationError("convergence grids must have at least 2 cells")
    if config.problem != "manufactured":
        raise ConfigurationError(
            "convergence study needs a manufactured-problem config"
        )
    # the closed form measured against solves the problem without sources
    # and with clamped walls; anything else fits meaningless orders
    if config.wells:
        raise ConfigurationError("convergence study takes no wells")
    if set(config.boundaries.kinds) != {"fixed"}:
        raise ConfigurationError(
            "convergence study needs fixed mechanics on every wall"
        )
    start = _time.perf_counter()
    reports = []
    for n in grids:
        t0 = _time.perf_counter()
        mesh = build_cartesian(n, n, n)
        case = config.build_case(mesh=mesh)
        lagged = replace(config.scheme, kind="lagged")
        result = simulate(CoupledSystem(case, config.solver), lagged)
        exact = case.initial  # steady solution, exact at t0
        final = result.final
        errors = {
            v: relative_l2(mesh, getattr(final, v), getattr(exact, v))
            for v in VARIABLES
        }
        probe = elastic_solver(case, replace(config.solver, method="iterative"))
        try:
            probe_report = probe.solve(elastic_load(case, final.dp))
        except SolverError as err:
            raise SolverError(
                f"convergence probe on the {n}^3 grid failed: {err}", trace=err.trace
            ) from err
        del probe  # freed before the next grid's engine is built
        reports.append(
            ErrorReport(
                n=n,
                h=1.0 / n,
                n_cells=mesh.n_cells,
                errors=errors,
                probe_iterations=probe_report.iterations,
                probe_trace=list(probe_report.trace),
            )
        )
        log.info(
            "grid %d^3: err_dp %.3e, err_u %.3e, probe iterations %d (%.1f s)",
            n,
            errors["dp"],
            errors["u"],
            probe_report.iterations,
            _time.perf_counter() - t0,
        )
    orders = fit_orders(reports)
    study = ConvergenceStudy(
        reports=reports, orders=orders, elapsed=_time.perf_counter() - start
    )
    log.info(
        "fitted orders: %s",
        ", ".join(f"{k} {v:.2f}" for k, v in orders.items()),
    )
    out = Path(out_dir if out_dir is not None else config.output_directory)
    write_csv(
        out / "convergence_errors.csv",
        ["n", "h", "n_cells"] + [f"err_{v}" for v in VARIABLES],
        [(r.n, r.h, r.n_cells, *[r.errors[v] for v in VARIABLES]) for r in reports],
    )
    write_csv(
        out / "convergence_orders.csv",
        ["variable", "order"],
        [(v, orders[v]) for v in VARIABLES],
    )
    write_csv(
        out / "convergence_iterations.csv",
        ["n", "iteration", "residual"],
        [(r.n, i, res) for r in reports for i, res in enumerate(r.probe_trace)],
    )
    return study


@dataclass
class BarrierRun:
    """One scheme's finished run of a barrier study, summarized.

    `result` holds the report, every state's t, and the first and final
    states whole; its psi is None and its interior states hold t alone.
    So a finished run keeps no array with a step axis but its compartment
    averages while the later schemes run.  The psi history and every
    step's averages are in the scheme's files.
    """

    scheme: str
    result: SimulationResult
    avg_dp_omega1: np.ndarray
    avg_dp_omega2: np.ndarray
    mass_defect: float


def compartment_masks(case: BiotCase) -> tuple[np.ndarray, np.ndarray]:
    """Flow compartments; omega1 is the one holding the first well."""
    labels = case.mesh.flow_components()
    if len(np.unique(labels)) != 2:
        needs = "exactly two flow compartments: set [mesh] barrier_index"
        raise ConfigurationError(f"barrier study needs {needs} to make a barrier")
    lab1 = labels[case.wells[0].cell] if case.wells else 0
    return labels == lab1, labels != lab1


def run_barrier_case(
    config: CaseConfig, schemes=SCHEME_KINDS, out_dir=None
) -> list[BarrierRun]:
    """Run the sealed-barrier case under several coupling schemes.

    Each name, stripped and lower-cased, is one of `SCHEME_KINDS` and runs
    the case's [scheme] settings as that kind.  Writes, per scheme, a CSV of
    per-step compartment-average pressure deviations, the source history
    psi as .npy and the final state as VTK, named after the scheme, then a
    summary table with iteration counts and the global mass defect of each.
    Every name is checked before the first runs, and an unknown or repeated
    one is rejected, so bad input writes no file.  The mass defect is the
    fluid-content balance of `global_mass_check`, on every wall closure.

    The schemes run in the listed order, and a scheme that raises stops
    the study there, keeping the files of the schemes before it.

    The study builds one flow system, in the first engine, and hands it
    to every later one through a `coupling.SharedOperators` holder.  On
    the Krylov path the elastic solver (rescaling and four AMG
    hierarchies) travels the same way, so the study builds it once; on
    the LU path each scheme's engine assembles and factors its own
    (`coupling.elastic_solver`).  Once a scheme's files are written and
    its averages and mass defect taken, its run is summarized
    (`BarrierRun`), so the study holds one scheme's step histories at a
    time.  Every scheme runs through
    `simulate(engine, scheme, head)`.  When both fixed and anderson are
    listed, the study's `coupling.SharedHead` runs their first three
    passes once and the second resumes from a copy, with every file and
    report as if it had run alone, saving 3 of 9 marches and about a
    quarter of the wall time on the seed-0 30x30x3 and 48x48x3 studies.
    """
    case = config.build_case()
    masks = compartment_masks(case)
    names = [token.strip().lower() for token in schemes]
    if not names:
        raise ConfigurationError("barrier study needs at least one scheme")
    # a repeated scheme would be run and written twice
    _reject_repeats(names, "scheme")
    specs = [replace(config.scheme, kind=name) for name in names]
    vol = case.mesh.cell_volumes
    out = Path(out_dir if out_dir is not None else config.output_directory)
    runs = []
    head = SharedHead() if {"fixed", "anderson"} <= set(names) else None
    shared = SharedOperators()
    for name, scheme in zip(names, specs):
        log.info("barrier case, scheme %s", name)
        engine = CoupledSystem(case, config.solver, shared)
        result = simulate(engine, scheme, head)
        # an LU is freed before the next scheme factors its own; a Krylov
        # solver lives on in the holder for the next engine
        del engine
        averages = []
        for mask in masks:
            w = vol[mask]
            averages.append(
                np.array([float(w @ s.dp[mask] / w.sum()) for s in result.states])
            )
        run = BarrierRun(
            scheme=name,
            result=result,
            avg_dp_omega1=averages[0],
            avg_dp_omega2=averages[1],
            mass_defect=global_mass_check(case, result.states),
        )
        runs.append(run)
        write_csv(
            out / f"barrier_{name}.csv",
            ["step", "time", "avg_dp_omega1", "avg_dp_omega2"],
            [
                (i, s.t, run.avg_dp_omega1[i], run.avg_dp_omega2[i])
                for i, s in enumerate(result.states)
            ],
        )
        save_source_history(out / f"barrier_{name}_psi.npy", result.psi)
        write_vtk(
            out / f"barrier_{name}_final.vtk",
            case.mesh,
            result.final,
            title=f"{case.name}:{name}",
        )
        log.info(
            "scheme %s: %d iterations, mass defect %.3e, final averages %.4g / %.4g",
            name,
            result.report.iterations,
            run.mass_defect,
            run.avg_dp_omega1[-1],
            run.avg_dp_omega2[-1],
        )
        # summarized once its files are written, so no step history but
        # the averages outlives the scheme's own run
        first, *interior, final = result.states
        interior = [BiotState(dp=None, u=None, r=None, p_hat=None, t=s.t) for s in interior]
        run.result = SimulationResult([first, *interior, final], None, result.report)
        del result
    write_csv(
        out / "barrier_summary.csv",
        [
            "scheme",
            "iterations",
            "converged",
            "mass_defect",
            "final_avg_dp_omega1",
            "final_avg_dp_omega2",
        ],
        [
            (
                r.scheme,
                r.result.report.iterations,
                int(r.result.report.converged),
                r.mass_defect,
                r.avg_dp_omega1[-1],
                r.avg_dp_omega2[-1],
            )
            for r in runs
        ],
    )
    return runs

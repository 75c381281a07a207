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
    CoupledSystem,
    SCHEME_KINDS,
    SharedHead,
    SharedOperators,
    SimulationResult,
    elastic_load,
    global_mass_check,
    simulate,
)
from ..errors import ConfigurationError, SolverError
from ..linsolve.precond import TpsaSolver
from ..mesh import Mesh, build_cartesian
from ..tpsa import assemble_tpsa, mean_shear_modulus
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

    With `dump_system` the engine builds its operators into a
    `SharedOperators` holder, and the dump reads the assembly from it.
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
    # the dump needs the assembled operator, which the engine keeps only rescaled
    shared = SharedOperators() if dump_system else None
    engine = CoupledSystem(case, config.solver, shared)
    result = simulate(engine, config.scheme)
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
        paths.append(dump_matrix(out / f"{name}_mech", shared.elastic.matrix))
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
    an elastic solver on its own assembly, and no flow system.
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
        probe = TpsaSolver(
            assemble_tpsa(mesh, case.props),
            mean_shear_modulus(mesh, case.props),
            replace(config.solver, method="iterative"),
        )
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

    The study builds one flow system and one elastic assembly, in the
    first scheme's engine, and hands them to every later one through a
    `coupling.SharedOperators` holder.  On the Krylov path the elastic
    solver (rescaling and four AMG hierarchies) travels the same way, so
    the study builds it once; on the LU path each scheme's engine factors
    its own.  The holder is dropped once the last engine is built, so the
    assembly is freed before the last run.  When both fixed
    and anderson are listed, they share their first three passes
    (`coupling.SharedHead`): the first of them runs those passes and the
    second resumes from a copy, with every file and report as if it had
    run alone.  On the seed-0 30x30x3 and 48x48x3 studies that saves 3 of
    the 9 marches and about a quarter of the wall time.
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
        run_scheme = simulate if head is None or name == "lagged" else head.simulate
        engine = CoupledSystem(case, config.solver, shared)
        if name == names[-1]:
            shared = None  # the last engine has its solver: its run needs no assembly
        result = run_scheme(engine, scheme)
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

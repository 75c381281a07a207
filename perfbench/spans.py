"""In-memory spans recorded around biotfv's public functions.

The package itself is not instrumented: a ``Tracer`` replaces public
functions and methods with timing wrappers for the length of one study
and restores them afterwards.  Functions that other modules import by
name are replaced in every loaded ``biotfv`` module that holds them, so
``coupling``, ``linsolve.precond`` and ``app.drivers`` call the wrapper
too.  Each span records its name, start, end, parent span and optional
attributes computed from the call's arguments and result.
"""

from __future__ import annotations

import functools
import os
import sys
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from the wrappers it installs until ``uninstall``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, attrs=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, result)
            return result

        return traced

    def patch_function(self, module, attr: str, name: str, attrs=None, everywhere=True):
        """Wrap ``module.attr`` and, if ``everywhere``, every biotfv alias of it."""
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, attrs)
        holders = [module]
        if everywhere:
            holders += [
                m
                for key, m in list(sys.modules.items())
                if key.startswith("biotfv") and m is not module and m is not None
            ]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapped)
                    self._undo.append((holder, key, original))

    def patch_method(self, cls, attr: str, name: str, attrs=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, attrs))
        self._undo.append((cls, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)


# Spans that bound operator set-up; installed on untraced runs as well,
# since they are what setup_s is measured from (a handful of calls per study).
SETUP_SPANS = ("mesh.build", "coupling.setup")


def _mesh_cells(_args, mesh):
    return {"cells": mesh.n_cells}


def _file_bytes(args, _result):
    return {"bytes": os.path.getsize(args[0])}


def _lu_attrs(_args, lu):
    return {"fill_nnz": int(lu.L.nnz + lu.U.nnz)}


def _amg_attrs(args, hierarchy):
    nnz = [level.matrix.nnz for level in hierarchy.levels]
    return {
        "rows": int(hierarchy.levels[0].matrix.shape[0]),
        "levels": hierarchy.n_levels,
        "operator_complexity": sum(nnz) / nnz[0],
    }


def _krylov_attrs(_args, result):
    return {"iterations": result.iterations, "restarted": bool(result.restarted)}


def install(tracer: Tracer, full: bool) -> None:
    """Wrap the set-up boundaries, and with ``full`` every traced layer."""
    from biotfv import coupling, mesh, tpfa, tpsa
    from biotfv.app import output
    from biotfv.linsolve import amg, blocks, krylov, precond

    tracer.patch_function(mesh, "build_cartesian", "mesh.build", _mesh_cells)
    tracer.patch_function(mesh, "build_barrier_mesh", "mesh.build", _mesh_cells)
    tracer.patch_method(
        coupling.CoupledSystem, "__init__", "coupling.setup",
        lambda args, _r: {"cells": args[0].n_cells},
    )
    if not full:
        return
    tracer.patch_method(tpfa.FlowSystem, "__init__", "tpfa.setup")
    tracer.patch_method(tpfa.FlowSystem, "step", "tpfa.step")
    tracer.patch_function(
        tpsa, "assemble_tpsa", "tpsa.assemble",
        lambda _a, system: {"nnz": int(system.matrix.nnz)},
    )
    tracer.patch_function(tpsa, "assemble_rhs", "tpsa.rhs")
    tracer.patch_function(blocks, "rescale", "linsolve.blocks.rescale")
    tracer.patch_method(
        precond.TpsaSolver, "__init__", "linsolve.precond.setup",
        lambda args, _r: {"direct": bool(args[0].direct)},
    )
    tracer.patch_method(precond.TpsaSolver, "solve", "linsolve.precond.solve")
    # only the elastic factorization: tpfa's flow LU shares scipy's splu
    tracer.patch_function(
        precond, "splu", "linsolve.precond.lu_factor", _lu_attrs, everywhere=False
    )
    tracer.patch_function(amg, "build_amg", "linsolve.amg.setup", _amg_attrs)
    tracer.patch_method(amg.AmgHierarchy, "vcycle", "linsolve.amg.vcycle")
    tracer.patch_function(krylov, "bicgstab", "linsolve.krylov.solve", _krylov_attrs)
    tracer.patch_method(coupling.CoupledSystem, "evaluate", "coupling.evaluate")
    tracer.patch_method(coupling.CoupledSystem, "mech_solve", "coupling.mech_solve")
    tracer.patch_method(coupling.AndersonState, "next_iterate", "coupling.anderson_mix")
    tracer.patch_function(output, "write_csv", "app.output.csv", _file_bytes)
    tracer.patch_function(output, "save_source_history", "app.output.csv")
    tracer.patch_function(output, "write_vtk", "app.output.vtk", _file_bytes)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.duration for s in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.duration
    return own


def outermost(spans: list[Span], names) -> list[Span]:
    """Spans named in ``names`` that have no ancestor named in ``names``."""
    names = set(names)
    found = []
    for span in spans:
        if span.name not in names:
            continue
        parent = span.parent
        while parent >= 0 and spans[parent].name not in names:
            parent = spans[parent].parent
        if parent < 0:
            found.append(span)
    return found

"""Spans around the calls into each module's public functions.

The package binds names with ``from .x import y``, so one function can be
reachable from several modules (``compute_weights`` from ``hierarchy``,
``study``, ``invariants`` and the package itself). ``Tracer.install``
replaces every binding of a traced function in every loaded
``hiersplines`` module, and methods on their class; ``Tracer.restore``
puts every original back.

Spans live in flat arrays in memory: name id, parent span, start and end.
Self time is a span's duration minus the durations of its direct
children. The tracer assumes one calling thread, which holds while
``HIERSPLINES_THREADS`` is unset.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

SPAN = "span"    # timed: .s (self time) and .calls
COUNT = "count"  # entries counted only: .calls, and .misses for a cache


@dataclass(frozen=True)
class Target:
    """One traced layer: a metric prefix and the functions it covers."""

    name: str
    functions: tuple[str, ...]  # "module:attribute" or "module:Class.method"
    kind: str = SPAN
    # for a cached COUNT target: the cache attribute, the argument that
    # owns it and the argument that keys it (see univariate.pair_cache)
    cache: tuple[str, int, int] | None = None


TARGETS = (
    Target("fixtures.load_fixture", ("hiersplines.fixtures:load_fixture",)),
    Target("univariate.children_table", ("hiersplines.univariate:children_table",), COUNT,
           ("_children_tables", 0, 1)),
    Target("univariate.parent_table", ("hiersplines.univariate:parent_table",), COUNT,
           ("_parent_tables", 1, 0)),
    Target("tensor.tensor_children", ("hiersplines.tensor:tensor_children",)),
    Target("tensor.cell_ancestor", ("hiersplines.tensor:cell_ancestor",)),
    Target("tensor.eval_function", ("hiersplines.tensor:eval_function",)),
    Target("hierarchy.compute_weights", ("hiersplines.hierarchy:compute_weights",)),
    Target("hierarchy.build_refinable_basis", ("hiersplines.hierarchy:build_refinable_basis",)),
    Target("hierarchy.build_hierarchical_basis",
           ("hiersplines.hierarchy:build_hierarchical_basis",)),
    Target("hierarchy.active_mesh", ("hiersplines.hierarchy:active_mesh",)),
    Target("hierarchy.expand_deactivated", ("hiersplines.hierarchy:expand_deactivated",)),
    Target("hierarchy.enlarge_hierarchy", ("hiersplines.hierarchy:enlarge_hierarchy",)),
    Target("quasiinterp.compute_core_domains", ("hiersplines.quasiinterp:compute_core_domains",)),
    Target("quasiinterp.operator_build",
           ("hiersplines.quasiinterp:MultiscaleQuasiInterpolant.__init__",
            "hiersplines.quasiinterp:LevelQuasiInterpolant.__init__")),
    Target("quasiinterp.workspace_build",
           ("hiersplines.quasiinterp:LocalProjectionWorkspace.__init__",)),
    Target("quasiinterp.apply_parts",
           ("hiersplines.quasiinterp:MultiscaleQuasiInterpolant.apply_parts",)),
    Target("quasiinterp.express_over_refinable",
           ("hiersplines.quasiinterp:MultiscaleQuasiInterpolant.express_over_refinable",)),
    # lq_norm runs inside error_norms; a span of its own would empty
    # error_norms' self time, so it is only counted
    Target("quasiinterp.error_norms", ("hiersplines.quasiinterp:error_norms",)),
    Target("quasiinterp.lq_norm", ("hiersplines.quasiinterp:lq_norm",), COUNT),
    Target("kernels.tensor_spline_values", ("hiersplines.kernels:tensor_spline_values",)),
    Target("kernels.basis_columns", ("hiersplines.kernels:basis_columns",)),
    Target("invariants.run_invariant_suite", ("hiersplines.invariants:run_invariant_suite",)),
    Target("study.run_convergence_study", ("hiersplines.study:run_convergence_study",)),
    Target("cli.main", ("hiersplines.cli:main",)),
)

POINTS = "kernels.tensor_spline_values.points"
PER_CELL = "quasiinterp.workspace_build.per_cell"
OVERHEAD = "trace.overhead"


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for t in TARGETS:
        if t.kind == SPAN:
            units[f"{t.name}.s"] = "s"
        units[f"{t.name}.calls"] = "count"
        if t.cache is not None:
            units[f"{t.name}.misses"] = "count"
    units[POINTS] = "count"
    units[PER_CELL] = "ratio"
    units[OVERHEAD] = "ratio"
    return units


def _resolve(spec: str):
    """The owner (module or class), attribute name and current value."""
    module_name, attr = spec.split(":")
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, owner.__dict__[name]


def _tensor_points(args, kwargs) -> int:
    points = kwargs["points"] if "points" in kwargs else args[6]
    return int(points.shape[0])


def _workspace_key(args, kwargs):
    _self, level, cell = args[:3]
    return (level.index, level.kvs, tuple(cell))


class Tracer:
    """Installs wrappers, records spans, and computes per-layer metrics."""

    def __init__(self):
        self.span_names = [t.name for t in TARGETS if t.kind == SPAN]
        self.count_names = [t.name for t in TARGETS if t.kind == COUNT]
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.repeat_starts: list[int] = []
        self.counts = [0] * len(self.count_names)
        self.misses = [0] * len(self.count_names)
        self.points = 0
        self.workspace_keys: set = set()
        self._stack = [-1]
        self._installed: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, fn: Callable, nid: int,
                      observe: Callable | None = None) -> Callable:
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if observe is not None:
                observe(args, kwargs)
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, fn: Callable, cid: int,
                       cache: tuple[str, int, int] | None) -> Callable:
        counts, misses = self.counts, self.misses

        def counted(*args, **kwargs):
            counts[cid] += 1
            if cache is not None:
                attr, owner, key = cache
                if args[key] not in vars(args[owner]).get(attr, ()):
                    misses[cid] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _observer(self, name: str) -> Callable | None:
        if name == "kernels.tensor_spline_values":
            def observe(args, kwargs):
                self.points += _tensor_points(args, kwargs)
            return observe
        if name == "quasiinterp.workspace_build":
            keys = self.workspace_keys

            def observe(args, kwargs):
                keys.add(_workspace_key(args, kwargs))
            return observe
        return None

    def install(self) -> None:
        """Wrap every binding of every target in the loaded package."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "hiersplines"
                                         or name.startswith("hiersplines."))]
        for t in TARGETS:
            for spec in t.functions:
                owner, attr, fn = _resolve(spec)
                if t.kind == SPAN:
                    wrapper = self._span_wrapper(
                        fn, self.span_names.index(t.name), self._observer(t.name))
                else:
                    wrapper = self._count_wrapper(fn, self.count_names.index(t.name),
                                                  t.cache)
                if isinstance(owner, type):
                    self._set(owner, attr, fn, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            self._set(module, key, fn, wrapper)

    def _set(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def begin_repeat(self) -> None:
        """Mark the start of a repeat: the spans that follow carry its id."""
        self.repeat_starts.append(len(self.names))

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        names = np.frombuffer(self.names, dtype=np.int32).copy()
        repeat = np.zeros(names.size, dtype=np.int32)
        for r, first in enumerate(self.repeat_starts):
            repeat[first:] = r
        return {
            "name": names,
            "parent": np.frombuffer(self.parents, dtype=np.int32).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
            "repeat": repeat,
        }

    def self_times(self) -> np.ndarray:
        """Per span: duration minus the durations of its direct children."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        child = np.zeros_like(duration)
        nested = a["parent"] >= 0
        np.add.at(child, a["parent"][nested], duration[nested])
        return duration - child

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics except the overhead, which needs an untraced run."""
        a = self.arrays()
        n = len(self.span_names)
        calls = np.bincount(a["name"], minlength=n)
        self_s = np.bincount(a["name"], weights=self.self_times(), minlength=n)
        out: dict[str, float] = {}
        for i, name in enumerate(self.span_names):
            out[f"{name}.s"] = float(self_s[i])
            out[f"{name}.calls"] = int(calls[i])
        for t in TARGETS:
            if t.kind == COUNT:
                i = self.count_names.index(t.name)
                out[f"{t.name}.calls"] = self.counts[i]
                if t.cache is not None:
                    out[f"{t.name}.misses"] = self.misses[i]
        out[POINTS] = self.points
        builds = out["quasiinterp.workspace_build.calls"]
        out[PER_CELL] = builds / len(self.workspace_keys) if self.workspace_keys else 0.0
        return out

    def write(self, path: Path, meta: dict) -> None:
        """Write the spans and the name table once, at the end of a run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.span_names),
                            meta=np.array(json.dumps(meta, sort_keys=True)),
                            **self.arrays())

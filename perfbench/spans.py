"""Span tracing of nfeq's layers from outside the package.

``Tracer.install`` replaces each traced function at every module or class
attribute of the ``nfeq`` package that binds it (``from .functions import
eval_on`` makes one binding per importing module; ``PiecewiseLinear`` binds
``evaluate`` twice, as itself and as ``__call__``). A wrapper records one span
per call: id, parent id, layer name, start and end. Spans stay in memory;
``end_op`` turns the spans of one operation into per-layer self times (span
duration minus the duration of its child spans), call counts and work
counters, and ``write`` saves the kept spans when the run ends.

A traced function that no longer exists is reported as absent: its metrics
read ``None`` and nothing else changes.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

#: spans kept in memory for ``write``; later operations are only aggregated
MAX_KEPT_SPANS = 50_000
#: pseudo-layer covering the tracer's own counter arithmetic
COUNTER_LAYER = "trace.counters"
#: counters aggregated per operation by maximum instead of sum
MAX_COUNTERS = frozenset({"collocation.matrix_bytes"})
#: counters that must repeat exactly across the operations of a run
EXACT_COUNTS = ("collocation.nnz", "picard.iterations", "picard.exact_visits",
                "holder.pairwise_seminorm.pairs", "oracles.product_formula.calls")


def _arg(i: int, name: str):
    def get(args, kwargs):
        return args[i] if len(args) > i else kwargs[name]
    return get


def _nnz(a) -> int:
    return int(a.nnz) if hasattr(a, "nnz") else int(np.count_nonzero(a))


def _matrix_bytes(a) -> int:
    if isinstance(a, np.ndarray):
        return a.nbytes
    return a.data.nbytes + a.indices.nbytes + a.indptr.nbytes


#: layer -> (module, attribute path, {counter metric: fn(args, kwargs, result)})
TARGETS = {
    "functions.eval_on": ("nfeq.functions", "eval_on", {
        "functions.eval_on.points": lambda a, k, r: np.size(_arg(1, "ts")(a, k))}),
    "grids.evaluate": ("nfeq.grids", "PiecewiseLinear.evaluate", {
        "grids.evaluate.points": lambda a, k, r: np.size(_arg(1, "t")(a, k))}),
    "grids.measure_projector_norm": ("nfeq.grids", "measure_projector_norm", {}),
    "holder.pairwise_seminorm": ("nfeq.holder", "pairwise_seminorm", {
        "holder.pairwise_seminorm.pairs":
            lambda a, k, r: np.size(_arg(0, "ts")(a, k)) ** 2}),
    "linalg.solve": ("nfeq.linalg", "solve", {}),
    "linalg.condition_estimate": ("nfeq.linalg", "condition_estimate", {}),
    "collocation.assemble": ("nfeq.collocation", "assemble", {
        "collocation.assemble.rows": lambda a, k, r: _arg(1, "grid")(a, k).n - 1,
        "collocation.nnz": lambda a, k, r: _nnz(r[0]),
        "collocation.matrix_bytes": lambda a, k, r: _matrix_bytes(r[0])}),
    "collocation.solve_collocation": ("nfeq.collocation", "solve_collocation", {}),
    "problem.operator": ("nfeq.problem", "ProblemSpec.operator", {}),
    "problem.validate": ("nfeq.problem", "validate", {}),
    "problem.certify": ("nfeq.problem", "certify", {}),
    "oracles.product_formula": ("nfeq.oracles", "product_formula", {}),
    "oracles.manufacture": ("nfeq.oracles", "manufacture", {}),
    "picard.picard_grid": ("nfeq.picard", "picard_grid", {
        "picard.iterations": lambda a, k, r: len(r.increments)}),
    "picard.picard_exact_counted": ("nfeq.picard", "picard_exact_counted", {
        "picard.exact_visits": lambda a, k, r: r[1]}),
    "study.run_study": ("nfeq.study", "run_study", {
        "study.rungs": lambda a, k, r: len(r.ladder)}),
}


def layer_metrics(layer: str) -> list[str]:
    """Every metric name one traced layer produces."""
    return [f"{layer}.self_s", f"{layer}.calls", *TARGETS[layer][2]]


def _resolve(module: str, path: str):
    obj = importlib.import_module(module)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _package_owners():
    """Modules of the nfeq package and the classes they define."""
    mods = [m for name, m in list(sys.modules.items())
            if m is not None and (name == "nfeq" or name.startswith("nfeq."))]
    classes = {id(v): v for m in mods for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("nfeq")}
    return mods + list(classes.values())


class Tracer:
    def __init__(self) -> None:
        self.absent: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._spans: list[tuple[int, int | None, str, float, float]] = []
        self._kept_ops: list[tuple[str, int, int]] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._op_start = 0
        self._op_counts: dict[str, float] = defaultdict(float)
        self._failed_counters: set[str] = set()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        owners = _package_owners()
        for layer, (module, path, counters) in TARGETS.items():
            try:
                original = _resolve(module, path)
            except (ImportError, AttributeError):
                self.absent.update(layer_metrics(layer))
                continue
            wrapper = self._wrap(layer, original, counters)
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._patches.append((owner, attr, original))
                        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, layer, fn, counters):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            sid = tracer._next_id
            tracer._next_id += 1
            tracer._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if counters:
                    tracer._count(sid, counters, args, kwargs, result)
                return result
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer._spans.append((sid, parent, layer, start, end))

        return functools.wraps(fn)(traced)

    def _count(self, parent, counters, args, kwargs, result) -> None:
        # recorded as a child span so the counted layer's self time excludes it
        start = perf_counter()
        for metric, count in counters.items():
            try:
                value = count(args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                self._failed_counters.add(metric)
                continue
            if metric in MAX_COUNTERS:
                self._op_counts[metric] = max(self._op_counts[metric], value)
            else:
                self._op_counts[metric] += value
        sid = self._next_id
        self._next_id += 1
        self._spans.append((sid, parent, COUNTER_LAYER, start, perf_counter()))

    # -- per-operation aggregation -------------------------------------------

    def begin_op(self) -> None:
        self._op_start = len(self._spans)
        self._op_counts = defaultdict(float)

    def end_op(self, label: str) -> dict[str, float]:
        """Self time, calls and counters of the spans since ``begin_op``."""
        spans = self._spans[self._op_start:]
        child = defaultdict(float)
        for _, parent, _, start, end in spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, _, layer, start, end in spans:
            out[f"{layer}.self_s"] += (end - start) - child[sid]
            out[f"{layer}.calls"] += 1
        out.update(self._op_counts)
        if len(self._spans) > MAX_KEPT_SPANS:
            del self._spans[self._op_start:]
        else:
            self._kept_ops.append((label, self._op_start, len(self._spans)))
        return out

    def unavailable(self) -> set[str]:
        """Metrics of layers that are gone or whose counters no longer apply."""
        return self.absent | self._failed_counters

    def write(self, path) -> None:
        """Save the kept spans, one JSON object per line."""
        with open(path, "w") as fh:
            for label, lo, hi in self._kept_ops:
                for sid, parent, layer, start, end in self._spans[lo:hi]:
                    fh.write(json.dumps({"op": label, "id": sid, "parent": parent,
                                         "name": layer, "start": start,
                                         "end": end}) + "\n")

"""Outside-in tracing: wrappers around the program's functions, installed by the benchmark.

Each wrapped function is replaced wherever callers look it up: in the
defining module's globals and in every ``bayespace`` module that imported
the name.  Methods are replaced on their class.  A span wrapper records
(name, start, end, parent span, op id) in memory; a count wrapper only
bumps counters.  Self time is a span's duration minus that of its child
spans; the op's own root span keeps the time outside every wrapped
function, reported as ``other.self_s``.
"""

from __future__ import annotations

import functools
import json
from array import array
import os
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

ROOT_SPAN = "other"


def _arg(args, kwargs, index: int, name: str, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _bytes_written(counts, args, kwargs, result):
    counts["experiments.write.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _factor_nodes(counts, args, kwargs, result):
    factor, spec = _arg(args, kwargs, 0, "factor"), _arg(args, kwargs, 2, "spec")
    counts["gvi.factor_nodes"] += spec.nodes_per_dim ** factor.arity


def _dense_marginals(counts, args, kwargs, result):
    state, sparse = _arg(args, kwargs, 0, "state"), _arg(args, kwargs, 2, "sparse", True)
    if not sparse or np.triu(state.pattern, 2).any():
        counts["gvi.marginals_dense.calls"] += 1


def _iterations(key: str):
    def count(counts, args, kwargs, result):
        counts[key] += result.iterations
    return count


def _points(counts, args, kwargs, result):
    counts["quadrature.points"] += result[0].shape[0]


def _fd_substitution(callback: str):
    def count(counts, args, kwargs, result):
        if getattr(_arg(args, kwargs, 0, "p"), callback) is None:
            counts["elements.fd_substitutions"] += 1
    return count


def _calls(key: str):
    def count(counts, args, kwargs, result):
        counts[key] += 1
    return count


# (module, function or Class.method, span name or None for count-only, counter)
LAYERS = [
    ("experiments", "_write_csv", "experiments.write", _bytes_written),
    ("experiments", "_write_summary", "experiments.write", _bytes_written),
    ("experiments", "make_chain", "experiments.make_chain", None),
    ("graphio", "dumps_graph", "graphio.dumps_graph", None),
    ("gvi", "gvi_sparse_solve", "gvi.gvi_sparse_solve", _iterations("gvi.iterations")),
    ("gvi", "fill_pattern", "gvi.fill_pattern", None),
    ("gvi", "marginals_for_factors", "gvi.marginals_for_factors", _dense_marginals),
    ("gvi", "factor_expectations", "gvi.factor_expectations", _factor_nodes),
    ("gvi", "assemble", "gvi.assemble", None),
    ("gvi", "GaussianState.to_measure", "gvi.GaussianState.to_measure", None),
    ("variational", "iterate", "variational.iterate", _iterations("variational.iterations")),
    ("variational", "gram", "variational.gram", None),
    ("variational", "basis_projections", "variational.basis_projections", None),
    ("variational", "kl", "variational.kl", None),
    ("gaussian", "expected_derivatives", "gaussian.expected_derivatives", None),
    ("gaussian", "gaussian_coordinates", "gaussian.gaussian_coordinates", None),
    ("gaussian", "gaussian_from_coordinates", "gaussian.gaussian_from_coordinates", None),
    ("gaussian", "GaussianBasis.__post_init__", None, _calls("gaussian.GaussianBasis.calls")),
    ("matrixops", "build_duplication", "matrixops.build_duplication", None),
    ("elements", "log_partition", "elements.log_partition", None),
    ("elements", "inner_product", "elements.inner_product", None),
    ("elements", "element_grad", None, _fd_substitution("grad")),
    ("elements", "element_hess", None, _fd_substitution("hess")),
    ("hermite", "reconstruct", "hermite.reconstruct", None),
    ("quadrature", "measure_nodes", "quadrature.measure_nodes", _points),
    ("quadrature", "trapezoid_points", "quadrature.trapezoid_points", _points),
    ("measures", "GaussianMeasure.__post_init__", None, _calls("measures.GaussianMeasure.calls")),
]

# Per-layer metrics reported per op: (name, unit, better).
SPAN_CALLS = ["gvi.fill_pattern", "gvi.factor_expectations", "gvi.GaussianState.to_measure",
              "variational.kl", "matrixops.build_duplication", "elements.log_partition",
              "elements.inner_product", "quadrature.measure_nodes",
              "quadrature.trapezoid_points"]
COUNTERS = [("experiments.write.bytes", "B"), ("gvi.factor_nodes", "count"),
            ("gvi.marginals_dense.calls", "count"), ("gvi.iterations", "count"),
            ("variational.iterations", "count"), ("gaussian.GaussianBasis.calls", "count"),
            ("elements.fd_substitutions", "count"), ("quadrature.points", "count"),
            ("measures.GaussianMeasure.calls", "count")]
SPANS = list(dict.fromkeys(name for _, _, name, _ in LAYERS if name)) + [ROOT_SPAN]
PER_LAYER = ([(f"{name}.self_s", "s", "lower") for name in SPANS]
             + [(f"{name}.calls", "count", "lower") for name in SPAN_CALLS]
             + [(name, unit, "lower") for name, unit in COUNTERS]
             + [("trace.op_s", "s", "lower"), ("trace.ops_per_s", "op/s", "higher")])


class Tracer:
    """Spans and counters kept in memory for one run.

    Spans are stored column-wise in arrays, which the garbage collector does
    not scan, so the cost of a span does not grow with the length of the run.
    """

    def __init__(self):
        self.names: List[str] = []
        self.name_ids, self.parents, self.ops = array("i"), array("q"), array("i")
        self.starts, self.ends = array("d"), array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._index: Dict[str, int] = {}
        self.op = -1
        self._root = self._key(ROOT_SPAN)

    def _key(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _columns(self):
        return self.name_ids, self.parents, self.ops, self.starts, self.ends

    def reset(self):
        for column in self._columns():
            del column[:]
        self.counts.clear()

    def _open(self, key: int) -> int:
        """Append a span under the innermost open one and make it innermost."""
        index = len(self.starts)
        self.name_ids.append(key)
        self.parents.append(self._stack[-1])
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def _close(self):
        self.ends[self._stack.pop()] = perf_counter()

    def span(self, name: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        key, tracer = self._key(name), self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._open(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            return result
        return wrapper

    def count(self, fn: Callable, counter: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counter(counts, args, kwargs, None)
            return fn(*args, **kwargs)
        return wrapper

    def begin_op(self, op: int):
        self.op = op
        self._open(self._root)

    def end_op(self):
        self._close()

    def install(self):
        """Replace every function in LAYERS wherever ``bayespace`` modules hold it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "bayespace" or name.startswith("bayespace.")]
        for module_name, target, span, counter in LAYERS:
            module = sys.modules[f"bayespace.{module_name}"]
            owner, _, attr = target.rpartition(".")
            holder = getattr(module, owner) if owner else module
            original = getattr(holder, attr)
            wrapper = (self.span(span, original, counter) if span
                       else self.count(original, counter))
            if owner:
                setattr(holder, attr, wrapper)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapper)

    def per_op(self, speed: List[float], completed: int) -> Dict[str, float]:
        """Per-layer metrics per attempted op; self times add up to ``trace.op_s``.

        ``speed[op]`` scales op ``op``'s times to reference machine speed.
        """
        attempted = len(speed)
        child = [0.0] * len(self.starts)
        for parent, start, end in zip(self.parents, self.starts, self.ends):
            if parent >= 0:
                child[parent] += end - start
        self_s: Dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        op_s = 0.0
        for k, (key, parent, op, start, end) in enumerate(zip(*self._columns())):
            name = self.names[key]
            self_s[name] += ((end - start) - child[k]) * speed[op]
            calls[name] += 1
            if parent < 0:
                op_s += (end - start) * speed[op]
        out = {f"{name}.self_s": self_s[name] / attempted for name in SPANS}
        out.update({f"{name}.calls": calls[name] / attempted for name in SPAN_CALLS})
        out.update({name: self.counts[name] / attempted for name, _ in COUNTERS})
        out["trace.op_s"] = op_s / attempted
        out["trace.ops_per_s"] = completed / op_s
        return out

    def write(self, path: Path):
        """Write the spans as JSON columns: name index, parent span, op, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = dict(zip(("name", "parent", "op", "start", "end"),
                           (column.tolist() for column in self._columns())))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, **columns}, fh, separators=(",", ":"))

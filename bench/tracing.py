"""Span tracing for the benchmark's traced run.

The library is not modified. Instead, :func:`install` replaces each public
function of every layer module with a wrapper that records a span, at every
module that binds the function (the layers use ``from .scm import
solve_scm`` and the like, so patching only the defining module would miss
most calls). :func:`install` returns a callable that restores the originals.

Spans are kept in memory as ``Span(id, name, start, end, parent)`` records
and summarised at the end; a span's self time is its duration minus the part
of it covered by its child spans. For the functions listed in
``DISTINCT_KEYS`` the wrapper also hashes the array arguments, so the summary
can say how many calls repeated an earlier input.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

LAYERS = (
    "cli",
    "panel",
    "scm",
    "ridge",
    "covariates",
    "selection",
    "inference",
    "estimators",
    "sim",
)


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None


def digest(*arrays):
    """Stable digest of the bytes, shapes and dtypes of some arrays."""
    import numpy as np  # not at module level: the benchmark times the numpy import

    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=float)
        h.update(str((a.shape, a.dtype.str)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _solve_scm_key(blocks, *args, **kwargs):
    return digest(blocks.x1, blocks.x0)


def _svd_key(cls, x0, *args, **kwargs):
    return digest(x0)


DISTINCT_KEYS = {
    "scm.solve_scm": _solve_scm_key,
    "ridge.ControlSVD.compute": _svd_key,
}


class Tracer:
    """Records nested spans and distinct-input counts in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.keys = defaultdict(set)
        self._stack = []
        self._next_id = 0

    def open(self, name):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((span_id, name, parent, self.clock()))
        return span_id

    def close(self, span_id):
        end = self.clock()
        top_id, name, parent, start = self._stack.pop()
        if top_id != span_id:
            raise RuntimeError(f"span {name!r} closed out of order")
        self.spans.append(Span(span_id, name, start, end, parent))

    def wrap(self, name, fn, key=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key is not None:
                self.keys[name].add(key(*args, **kwargs))
            span_id = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span_id)

        return traced


def self_times(spans):
    """Map span id -> self time: duration minus the union of its children."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children[s.id]):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out[s.id] = (s.end - s.start) - covered
    return out


def summarize(spans):
    """Per name: calls, inclusive seconds and self seconds.

    Inclusive seconds count only the outermost span of a name, so a function
    reached again from inside itself is not counted twice.
    """
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    calls = Counter()
    total = Counter()
    self_s = Counter()
    for s in spans:
        calls[s.name] += 1
        self_s[s.name] += own[s.id]
        if not _has_ancestor(s, s.name, by_id):
            total[s.name] += s.end - s.start
    return {n: {"calls": calls[n], "s": total[n], "self_s": self_s[n]} for n in calls}


def _has_ancestor(span, name, by_id):
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name == name:
            return True
        parent = by_id.get(parent.parent)
    return False


def distinct_ratio(keys, calls):
    """Distinct inputs per call; 0 when the function was never called."""
    return len(keys) / calls if calls else 0.0


def _public_functions(module, layer):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield f"{layer}.{name}", obj


def install(tracer, package="panelctrl"):
    """Wrap every layer's public functions at every binding; return an undo."""
    pkg = importlib.import_module(package)
    modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, module in modules.items():
        for name, fn in _public_functions(module, layer):
            wrappers[fn] = tracer.wrap(name, fn, DISTINCT_KEYS.get(name))

    undo = []
    for module in [pkg, *modules.values()]:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                undo.append((module, attr, value))
                setattr(module, attr, wrappers[value])

    svd_cls = modules["ridge"].ControlSVD
    compute = svd_cls.__dict__["compute"]
    name = "ridge.ControlSVD.compute"
    undo.append((svd_cls, "compute", compute))
    svd_cls.compute = classmethod(tracer.wrap(name, compute.__func__, DISTINCT_KEYS[name]))

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


# Per-layer metrics reported by the traced run, and their fields.
REPORTED = {
    "scm.solve_scm": ("calls", "s", "self_s"),
    "ridge.ControlSVD.compute": ("calls", "s"),
    "ridge.augment_weights": ("calls", "s"),
    "selection.loo_cv": ("calls", "s", "self_s"),
    "inference.jackknife_plus": ("calls", "s", "self_s"),
    "panel.load_panel": ("s",),
    "panel.split_and_center": ("calls", "s"),
    "estimators.estimate": ("calls", "s"),
    "estimators.weights_for_design": ("calls", "s"),
    "sim.draw_panel": ("calls", "s"),
    "sim.run_monte_carlo": ("self_s",),
    "cli.main": ("s",),
}

_UNITS = {
    "calls": "count",
    "s": "s",
    "self_s": "s",
    "ms_per_call": "ms",
    "distinct_ratio": "ratio",
    "rows_per_s": "1/s",
    "overhead_ratio": "ratio",
}


def unit_of(metric):
    return _UNITS[metric.rsplit(".", 1)[1]]


def layer_metrics(tracer, rows_per_panel):
    """Per-layer metrics of one traced operation.

    Functions that were not called report zero, ratios over them included.
    """
    summary = summarize(tracer.spans)

    def value(name, field):
        return summary.get(name, {}).get(field, 0)

    out = {f"{n}.{f}": value(n, f) for n, fields in REPORTED.items() for f in fields}
    solves = value("scm.solve_scm", "calls")
    svds = value("ridge.ControlSVD.compute", "calls")
    load_s = value("panel.load_panel", "s")
    out["scm.solve_scm.ms_per_call"] = 1e3 * value("scm.solve_scm", "s") / solves if solves else 0.0
    out["scm.solve_scm.distinct_ratio"] = distinct_ratio(tracer.keys["scm.solve_scm"], solves)
    out["ridge.ControlSVD.compute.distinct_ratio"] = distinct_ratio(
        tracer.keys["ridge.ControlSVD.compute"], svds
    )
    out["panel.load_panel.rows_per_s"] = (
        value("panel.load_panel", "calls") * rows_per_panel / load_s if load_s else 0.0
    )
    return out

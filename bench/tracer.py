"""Span tracer that wraps scalevar's public functions from the outside.

`Tracer.install()` replaces each public function of the six modules, and
`Path.at_many`, with a wrapper that records one span per outermost call.
While that call runs, the function's own module global is set back to the
original, so a recursive function (the tree walk in `lagdsl.evaluate`)
recurses without passing through the wrapper and gets no span of its own.  A
call that still re-enters the wrapper runs unwrapped.  Every namespace that
bound the original function is patched, including those that imported it
with `from .x import y`.  Nothing under `src/` changes.

Spans stay in memory.  A span's self time is its duration minus the spans it
directly caused.  The wrapper's own bookkeeping is timed too and charged to a
pseudo-layer "trace", so the self times of all layers, "bench" (the
benchmark's own code inside an operation) and "trace" together add up to the
traced wall time of the operations.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "lagdsl", "scaleops", "varcalc", "schrodinger", "funcspace")


def _arg(args, kwargs, index: int, name: str, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _width(args, kwargs):
    """Array elements per `evaluate(e, b)` call: the widest binding."""
    b = _arg(args, kwargs, 1, "b")
    return max(getattr(x, "size", 1) for x in (b.t, *b.q, *b.v))


def _path_key(p):
    """Content identity of a path: its description, or two checksums of its samples.

    Samples are complex128, so they read as 64-bit words; a plain and a
    position-weighted wrapping sum cost far less than a byte hash.
    """
    if p.values is None:
        return ("analytic", p.label, json.dumps(p.meta, sort_keys=True, default=str))
    words = np.ascontiguousarray(p.values).reshape(-1).view(np.uint64)
    weights = np.arange(1, words.size + 1, dtype=np.uint64)
    return ("sampled", p.values.shape, int(words.sum()), int((words * weights).sum()))


def _derivative_key(args, kwargs):
    """Input identity of `scale_derivative_path(p, sp, grid=None)`."""
    p, sp = _arg(args, kwargs, 0, "p"), _arg(args, kwargs, 1, "sp")
    grid = _arg(args, kwargs, 2, "grid") or p.grid
    return (_path_key(p), sp.epsilon, sp.mu, repr(grid))


def _profile_key(args, kwargs):
    """Input identity of `oscillation_profile(p, deltas, sample_count, interval=None)`."""
    deltas = tuple(float(d) for d in _arg(args, kwargs, 1, "deltas"))
    interval = _arg(args, kwargs, 3, "interval")
    count = _arg(args, kwargs, 2, "sample_count")
    return (_path_key(_arg(args, kwargs, 0, "p")), deltas, count, repr(interval))


# Extra per-call facts recorded for a few functions: ("width", fn) feeds a
# mean width, ("key", fn) a ratio of distinct inputs to calls.
PROBES = {
    "lagdsl.evaluate": ("width", _width),
    "scaleops.scale_derivative_path": ("key", _derivative_key),
    "funcspace.oscillation_profile": ("key", _profile_key),
}


class Tracer:
    """Records spans of wrapped scalevar calls, grouped by operation."""

    def __init__(self):
        self.spans = []  # (op, name, layer, start, end, self_s, depth, info)
        self.overhead = 0.0
        self._stack = []  # [child time] per open span
        self._op = -1
        self._restore = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        root = importlib.import_module("scalevar")
        modules = {layer: importlib.import_module(f"scalevar.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapped[fn] = self._wrap(fn, f"{layer}.{name}", layer)
        path_cls = modules["funcspace"].Path
        at_many = path_cls.__dict__["at_many"]
        self._restore.append((path_cls, "at_many", at_many))
        setattr(path_cls, "at_many", self._wrap(at_many, "funcspace.Path.at_many", "funcspace"))
        for mod in (root, *modules.values()):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapped[value])

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _wrap(self, fn, name: str, layer: str):
        clock, stack, spans = time.perf_counter, self._stack, self.spans
        probe = PROBES.get(name, (None, None))[1]
        active = [False]
        module_globals, own_name = fn.__globals__, fn.__name__

        def wrapper(*args, **kwargs):
            if active[0] or not stack:  # re-entry, or called outside an operation
                return fn(*args, **kwargs)
            t0 = clock()
            info = probe(args, kwargs) if probe is not None else None
            frame = [0.0]
            depth = len(stack)
            stack.append(frame)
            active[0] = True
            own_global = module_globals.get(own_name) is wrapper
            if own_global:
                module_globals[own_name] = fn
            t1 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t2 = clock()
                if own_global:
                    module_globals[own_name] = wrapper
                active[0] = False
                stack.pop()
                spans.append((self._op, name, layer, t1, t2, t2 - t1 - frame[0], depth, info))
                t3 = clock()
                stack[-1][0] += t3 - t0
                self.overhead += (t1 - t0) + (t3 - t2)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- operations -------------------------------------------------------

    def run_op(self, fn):
        """Run fn() as one traced operation under a root span of layer "bench"."""
        self._op += 1
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((self._op, "bench.op", "bench", t0, t1, t1 - t0 - frame[0], 0, None))

    # -- aggregation --------------------------------------------------------

    def summary(self) -> dict:
        """Totals over all recorded spans; see `aggregate`."""
        return aggregate(self.spans, self.overhead)

    def reset(self) -> None:
        self.spans.clear()
        self.overhead = 0.0


def aggregate(spans, overhead: float) -> dict:
    """Calls and self time per layer and per function, plus probe ratios.

    `wall` is the summed duration of the operations' root spans.  A key's
    distinct count is taken within each operation, so `useful_ratio` shows
    work repeated inside one operation.
    """
    calls = defaultdict(int)
    self_s = defaultdict(float)
    width = defaultdict(int)
    keys = defaultdict(set)
    wall = 0.0
    for op, name, layer, start, end, own, _depth, info in spans:
        if layer == "bench":
            wall += end - start
        for key in (name, layer):
            calls[key] += 1
            self_s[key] += own
        kind = PROBES.get(name, (None,))[0]
        if kind == "width":
            width[name] += info
        elif kind == "key":
            keys[name].add((op, info))
    self_s["trace"] = overhead
    return {
        "wall": wall,
        "calls": dict(calls),
        "self_s": dict(self_s),
        "mean_width": {k: v / calls[k] for k, v in width.items()},
        "useful_ratio": {k: len(v) / calls[k] for k, v in keys.items()},
    }

"""Time grids, path representations, and roughness diagnostics.

A :class:`Path` is a d-dimensional complex-valued function of time, backed
either by an analytic evaluator (callable at any admissible t) or by samples
on a uniform :class:`TimeGrid`.  Sampled paths never interpolate: evaluating
off a node is an error, which keeps every finite-difference operator exact
with respect to the stored samples.

Grids carry explicit padding so that stencils t - eps .. t + eps stay inside
the represented interval; operators that consume padding shrink it instead of
fabricating boundary values.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridError, NumericalError, ValidationError

__all__ = [
    "TimeGrid",
    "Path",
    "HolderEstimate",
    "make_grid",
    "sample",
    "stack_paths",
    "weierstrass",
    "oscillation_profile",
    "estimate_holder",
    "mean_function",
    "parse_sigma",
]

# Node matching tolerance as a fraction of the step, and relative slack when
# checking that a length is an integer multiple of the step.
_NODE_TOL = 1e-6
_STEP_TOL = 1e-9

_SIMPSON_PANELS = 64
_MAX_SERIES_TERMS = 100_000
# Fewest rows of the series' cosine table a thread takes.  Starting and joining
# a thread costs about 0.13 ms on a 2-core x86 box; 1024 rows of cosines cost
# 0.2 ms at 10 terms and 1.6-2 ms at 30, where arguments past b^17 slow cos.
_ROWS_PER_THREAD = 1024


def parse_sigma(sigma) -> int:
    """Normalize a side selector to +1 (forward) or -1 (backward)."""
    if sigma in (1, "+", "+1"):
        return 1
    if sigma in (-1, "-", "-1"):
        return -1
    raise ValidationError(f"sigma must be +1 or -1, got {sigma!r}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid with step h = (b-a)/n on [a, b], padded by pad_steps nodes per side.

    Node times are affine in the index, node(k) = a + (k - pad_steps)*h, so no
    rounding accumulates; the padded domain is [a - pad, b + pad] with
    pad = pad_steps*h.
    """

    a: float
    b: float
    n: int
    pad_steps: int

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValidationError("grid endpoints must be finite")
        if self.a >= self.b:
            raise ValidationError(f"grid needs a < b, got a={self.a}, b={self.b}")
        if self.n < 2:
            raise ValidationError(f"grid needs n >= 2 interior steps, got n={self.n}")
        if self.pad_steps < 0:
            raise ValidationError(f"pad_steps must be >= 0, got {self.pad_steps}")
        # index_of promises nodes to _NODE_TOL steps; floats must be that fine
        spacing = math.ulp(max(abs(self.a - self.pad), abs(self.b + self.pad)))
        if spacing > _NODE_TOL * self.h:
            raise ValidationError(
                f"step h={self.h!r} is too fine for distinct nodes: floats near the grid ends "
                f"are {spacing!r} apart"
            )

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n

    @property
    def pad(self) -> float:
        return self.pad_steps * self.h

    @property
    def num_nodes(self) -> int:
        return self.n + 1 + 2 * self.pad_steps

    @property
    def core(self) -> slice:
        """Index slice selecting the unpadded window [a, b]."""
        return slice(self.pad_steps, self.pad_steps + self.n + 1)

    def node(self, k: int) -> float:
        return self.a + (k - self.pad_steps) * self.h

    def nodes(self) -> np.ndarray:
        return self.a + (np.arange(self.num_nodes) - self.pad_steps) * self.h

    def index_of(self, t: float) -> int:
        """Index of the node at time t; GridError if t is off-node."""
        k = int(round((t - self.a) / self.h)) + self.pad_steps
        if not 0 <= k < self.num_nodes or abs(t - self.node(k)) > _NODE_TOL * self.h:
            raise GridError(
                f"t={t!r} is not a node of the padded grid (sampled paths do not interpolate)"
            )
        return k

    def steps_of(self, delta: float) -> int:
        """Integer m with delta = m*h, m >= 1; GridError otherwise."""
        m = int(round(delta / self.h))
        if m < 1 or abs(delta - m * self.h) > _STEP_TOL * max(abs(delta), self.h):
            raise GridError(
                f"delta={delta!r} is not a positive integer multiple of the step h={self.h!r}"
            )
        return m

    def with_pad_steps(self, pad_steps: int) -> "TimeGrid":
        return TimeGrid(self.a, self.b, self.n, pad_steps)


def make_grid(a: float, b: float, n: int, pad: float = 0.0) -> TimeGrid:
    """Build a grid on [a, b] with n steps; pad is rounded half-up to whole steps."""
    if not isinstance(n, (int, np.integer)):
        raise ValidationError(f"n must be an integer, got {n!r}")
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(pad)):
        raise ValidationError("grid parameters must be finite")
    if pad < 0:
        raise ValidationError(f"pad must be >= 0, got {pad}")
    if a >= b:
        raise ValidationError(f"grid needs a < b, got a={a}, b={b}")
    # pad*n/(b-a) instead of pad/h so a half-step pad rounds on exact arithmetic
    steps = pad * n / (b - a)
    if not math.isfinite(steps):
        raise ValidationError(f"pad={pad} is not a finite number of steps h={(b - a) / n}")
    pad_steps = math.floor(steps + 0.5)
    return TimeGrid(float(a), float(b), int(n), pad_steps)


class Path:
    """Complex-valued path t -> C^d with analytic or sampled backing.

    Sampled paths evaluate only at the nodes of their grid.  Analytic paths
    evaluate anywhere inside their domain, which may be unbounded (None).
    All values are validated finite.
    """

    def __init__(self, dim, *, fn=None, grid=None, values=None, domain=None, label="", meta=None):
        if dim < 1:
            raise ValidationError(f"path dimension must be >= 1, got {dim}")
        if (fn is None) == (values is None):
            raise ValidationError("exactly one of fn / values must back a path")
        self.dim = int(dim)
        self.label = label
        self.meta = dict(meta or {})
        self._fn = fn
        self.domain = None if domain is None else (float(domain[0]), float(domain[1]))
        self.grid = grid
        if values is not None:
            if grid is None:
                raise ValidationError("sampled paths need a grid")
            values = np.asarray(values, dtype=np.complex128)
            if values.ndim == 1:
                values = values[:, None]
            if values.shape != (grid.num_nodes, self.dim):
                raise ValidationError(
                    f"sample array has shape {values.shape}, expected ({grid.num_nodes}, {self.dim})"
                )
            if not np.isfinite(values).all():
                raise NumericalError(f"path {label!r} contains non-finite samples")
        self.values = values

    @classmethod
    def from_callable(cls, fn, dim=1, domain=None, label="", vectorized=False, meta=None):
        """Analytic path from a callable; set vectorized=True when fn maps arrays."""
        if vectorized:
            vec = fn
        else:
            def vec(ts, _fn=fn):
                return np.stack(
                    [np.atleast_1d(np.asarray(_fn(float(t)), dtype=np.complex128)) for t in ts]
                )
        return cls(dim, fn=vec, domain=domain, label=label, meta=meta)

    @classmethod
    def from_samples(cls, grid: TimeGrid, values, label="", meta=None):
        values = np.asarray(values, dtype=np.complex128)
        dim = 1 if values.ndim == 1 else values.shape[1]
        return cls(dim, grid=grid, values=values, label=label, meta=meta)

    @property
    def is_sampled(self) -> bool:
        return self.values is not None

    def at(self, t: float) -> np.ndarray:
        """Value at one time, as a complex vector of length dim."""
        return self.at_many(np.asarray([float(t)]))[0]

    def at_many(self, ts) -> np.ndarray:
        """Values at an array of times, shape (len(ts), dim)."""
        ts = np.asarray(ts, dtype=float)
        if self.is_sampled:
            idx = np.fromiter((self.grid.index_of(t) for t in ts), dtype=int, count=ts.size)
            return self.values[idx]
        self._check_domain(ts)
        out = np.asarray(self._fn(ts), dtype=np.complex128)
        if out.ndim == 1:
            out = out[:, None]
        if out.shape != (ts.size, self.dim):
            raise ValidationError(
                f"path evaluator returned shape {out.shape}, expected ({ts.size}, {self.dim})"
            )
        if not np.isfinite(out).all():
            raise NumericalError(f"path {self.label!r} evaluated to non-finite values")
        return out

    def _check_domain(self, ts: np.ndarray) -> None:
        if self.domain is None:
            return
        lo, hi = self.domain
        tol = 1e-12 * max(1.0, abs(lo), abs(hi))
        if np.any(ts < lo - tol) or np.any(ts > hi + tol):
            raise DomainError(
                f"evaluation outside the represented interval [{lo}, {hi}] of path {self.label!r}"
            )


def sample(p: Path, grid: TimeGrid) -> Path:
    """Sample a path at every node of grid (padding included).

    An analytic path is evaluated at the nodes.  A sampled path is only
    restricted, never interpolated: grid must have the same (a, b, n) and at
    most the path's padding, and the result holds the path's own samples on
    those nodes.  Any other grid is a GridError.
    """
    if p.is_sampled:
        g = p.grid
        off = g.pad_steps - grid.pad_steps
        if off < 0 or (g.a, g.b, g.n) != (grid.a, grid.b, grid.n):
            raise GridError("resampling a sampled path onto a different grid is not supported")
        if off == 0:
            return p
        return Path.from_samples(grid, p.values[off : off + grid.num_nodes], label=p.label, meta=p.meta)
    vals = p.at_many(grid.nodes())
    return Path.from_samples(grid, vals, label=p.label, meta=p.meta)


def stack_paths(paths, label="") -> Path:
    """Stack unit-dimensional paths into one multi-dimensional path."""
    paths = list(paths)
    if not paths:
        raise ValidationError("stack_paths needs at least one path")
    if all(p.is_sampled for p in paths):
        grid = paths[0].grid
        if any(p.grid != grid for p in paths):
            raise GridError("stacked sampled paths must share one grid")
        return Path.from_samples(grid, np.hstack([p.values for p in paths]), label=label)
    if any(p.is_sampled for p in paths):
        raise ValidationError("cannot mix sampled and analytic paths in a stack")
    dim = sum(p.dim for p in paths)
    los = [p.domain[0] for p in paths if p.domain is not None]
    his = [p.domain[1] for p in paths if p.domain is not None]
    domain = (max(los), min(his)) if los else None

    def fn(ts, _paths=tuple(paths)):
        return np.hstack([q.at_many(ts) for q in _paths])

    return Path.from_callable(fn, dim=dim, domain=domain, label=label, vectorized=True)


def weierstrass(a_coef: float, b_base: float, trunc_tol: float) -> Path:
    """Truncated cosine series t -> sum_n a^n cos(b^n pi t), a rough test path.

    Keeps N+1 terms with N minimal such that the uniform tail bound
    a^(N+1)/(1-a) drops below trunc_tol.  The oscillation exponent
    -ln(a)/ln(b) is attached as meta["holder_alpha"].  Requires 0 < a < 1,
    b > 1 and a*b >= 1 (the regime where the series is nowhere smooth for
    a*b > 1).  Evaluation is deterministic: fixed term order, fixed dtype, and
    the same bits whatever the thread count; the cosines run on the CPUs in
    the process's affinity mask.
    """
    if not (0.0 < a_coef < 1.0):
        raise ValidationError(f"a_coef must lie in (0, 1), got {a_coef}")
    if not b_base > 1.0:
        raise ValidationError(f"b_base must exceed 1, got {b_base}")
    if a_coef * b_base < 1.0:
        raise ValidationError(f"need a_coef*b_base >= 1, got {a_coef * b_base}")
    if not trunc_tol > 0.0:
        raise ValidationError(f"trunc_tol must be positive, got {trunc_tol}")
    nterms = 1
    while a_coef**nterms / (1.0 - a_coef) >= trunc_tol:
        nterms += 1
        if nterms > _MAX_SERIES_TERMS:
            raise ValidationError("trunc_tol too small: series truncation exceeds the term cap")
    coef = a_coef ** np.arange(nterms)
    with np.errstate(over="ignore"):
        freq = np.pi * b_base ** np.arange(nterms)
    if not np.isfinite(freq).all():
        raise ValidationError(f"b_base={b_base} makes the series frequencies overflow")

    def series(ts, _coef=coef, _freq=freq):
        x = np.multiply.outer(np.asarray(ts, dtype=float), _freq)
        _cos_in_place(x)
        # one matmul over all rows: BLAS kernel tails give row blocks other bits
        return x @ _coef

    alpha = -math.log(a_coef) / math.log(b_base)
    return Path.from_callable(
        series,
        dim=1,
        vectorized=True,
        label=f"weierstrass(a={a_coef}, b={b_base})",
        meta={"holder_alpha": alpha, "series_terms": nterms},
    )


def _cos_in_place(x: np.ndarray) -> None:
    """x = cos(x) in contiguous row blocks, one per CPU the process may use.

    Block 0 runs on the calling thread, every other block on its own thread
    inside a copy of the caller's context, so np.errstate holds there too.
    cos is elementwise, so the bits do not depend on the split.  The first
    exception in block order is raised once every thread has joined.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else (os.cpu_count() or 1)
    k = max(1, min(cpus, len(x) // _ROWS_PER_THREAD))
    bounds = [len(x) * i // k for i in range(k + 1)]
    errors = [None] * k

    def work(i):
        block = x[bounds[i] : bounds[i + 1]]
        try:
            np.cos(block, out=block)
        except Exception as err:  # raised on the calling thread below
            errors[i] = err

    threads = [
        threading.Thread(target=contextvars.copy_context().run, args=(work, i))
        for i in range(1, k)
    ]
    try:
        for thread in threads:
            thread.start()
        work(0)
    finally:
        for thread in threads:
            if thread.ident is not None:  # started
                thread.join()
    for err in errors:
        if err is not None:
            raise err


@dataclass(frozen=True)
class HolderEstimate:
    """Oscillation-exponent fit: slope, RMS regression residual, delta range,
    and the max-oscillation profile M(delta) the line was fitted to."""

    alpha: float
    fit_residual: float
    delta_range: tuple
    profile: np.ndarray


def _probe_interval(p: Path, interval):
    if interval is not None:
        lo, hi = float(interval[0]), float(interval[1])
    elif p.is_sampled:
        lo, hi = p.grid.a, p.grid.b
    elif p.domain is not None:
        lo, hi = p.domain
    else:
        lo, hi = 0.0, 1.0
    if not lo < hi:
        raise ValidationError(f"probe interval must satisfy lo < hi, got [{lo}, {hi}]")
    return lo, hi


def oscillation_profile(p: Path, deltas, sample_count: int, interval=None):
    """Max oscillation M(delta) = max_t ||p(t+delta) - p(t)|| per requested delta.

    Probes sample_count equispaced times in [lo, hi - delta]; for sampled
    paths the probes sit on nodes and every delta must be a whole number of
    steps.  Deltas must be positive and strictly decreasing.
    """
    deltas = [float(d) for d in deltas]
    if any(d <= 0 for d in deltas):
        raise ValidationError("deltas must be positive")
    if any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])):
        raise ValidationError("deltas must be strictly decreasing")
    if sample_count < 2:
        raise ValidationError(f"sample_count must be >= 2, got {sample_count}")
    lo, hi = _probe_interval(p, interval)

    def oscillation(d):
        if p.is_sampled:
            g = p.grid
            md = g.steps_of(d)
            k0, k1 = g.index_of(lo), g.index_of(hi)
            if k1 - md < k0:
                raise DomainError(f"delta={d} leaves no probe room in [{lo}, {hi}]")
            ks = np.unique(np.round(np.linspace(k0, k1 - md, sample_count)).astype(int))
            diff = p.values[ks + md] - p.values[ks]
        else:
            if hi - d <= lo:
                raise DomainError(f"delta={d} leaves no probe room in [{lo}, {hi}]")
            ts = np.linspace(lo, hi - d, sample_count)
            diff = p.at_many(ts + d) - p.at_many(ts)
        return float(np.max(np.linalg.norm(diff, axis=1)))

    return np.array([oscillation(d) for d in deltas])


def estimate_holder(p: Path, deltas, sample_count: int, interval=None) -> HolderEstimate:
    """Roughness exponent from the slope of ln M(delta) against ln delta.

    M is the max-oscillation profile; a least-squares line through the log-log
    points gives alpha, with the RMS deviation as fit quality.  Needs at least
    3 deltas; a vanished oscillation (constant path) is degenerate.
    """
    deltas = [float(d) for d in deltas]
    if len(deltas) < 3:
        raise ValidationError(f"need at least 3 deltas, got {len(deltas)}")
    profile = oscillation_profile(p, deltas, sample_count, interval)
    if np.min(profile) <= 0.0:
        raise NumericalError("degenerate oscillation: max |p(t+delta) - p(t)| vanished")
    logd = np.log(deltas)
    logm = np.log(profile)
    slope, intercept = np.polyfit(logd, logm, 1)
    resid = logm - (slope * logd + intercept)
    return HolderEstimate(
        alpha=float(slope),
        fit_residual=float(np.sqrt(np.mean(resid**2))),
        delta_range=(deltas[-1], deltas[0]),
        profile=profile,
    )


def mean_function(p: Path, epsilon: float, sigma) -> Path:
    """Windowed mean t -> (sigma/epsilon) * integral of p over [t, t + sigma*epsilon].

    Composite Simpson quadrature with 64 panels per evaluation.  The classical
    derivative of the result reproduces the one-sided difference quotient of p
    at scale epsilon, which ties the mean to the quotient operators.  Needs an
    analytic path: the quadrature nodes fall off-grid.
    """
    sg = parse_sigma(sigma)
    if p.is_sampled:
        raise ValidationError("mean_function needs an analytic path (quadrature is off-node)")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
    nsub = 2 * _SIMPSON_PANELS
    offsets = sg * epsilon * np.arange(nsub + 1) / nsub
    weights = np.ones(nsub + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0

    def fn(ts, _off=offsets, _w=weights):
        ts = np.asarray(ts, dtype=float)
        pts = (ts[:, None] + _off[None, :]).ravel()
        vals = p.at_many(pts).reshape(ts.size, nsub + 1, p.dim)
        # (sigma/eps) * Simpson over a window of signed width sigma*eps
        return np.einsum("j,tjd->td", _w, vals) / (6.0 * _SIMPSON_PANELS)

    domain = None
    if p.domain is not None:
        lo, hi = p.domain
        domain = (lo, hi - epsilon) if sg > 0 else (lo + epsilon, hi)
        if not domain[0] < domain[1]:
            raise DomainError("epsilon window exhausts the path domain")
    return Path.from_callable(
        fn,
        dim=p.dim,
        domain=domain,
        vectorized=True,
        label=f"mean(sigma={'+' if sg > 0 else '-'}, eps={epsilon}, {p.label})",
    )

"""Finite-scale derivative operators on paths.

The one-sided quotients at scale eps,

    D+ f(t) = (f(t+eps) - f(t)) / eps,    D- f(t) = (f(t) - f(t-eps)) / eps,

combine into the scale derivative

    box_eps f = 1/2 [ (D+ + D-) + i*mu*(D+ - D-) ],   mu in {-1, 1, 0, -i, i}.

mu = -i collapses the operator to D+, mu = +i to D-, and mu = 0 to the
symmetric half-sum; complex-valued paths are handled by direct complex
arithmetic, which agrees with applying the formula to real and imaginary
parts separately.  The scale-free derivative is extracted numerically by an
eps sweep with two-point Richardson extrapolation and an explicit convergence
flag, honest about inputs that have no classical derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridError, ValidationError
from .funcspace import Path, TimeGrid, parse_sigma

__all__ = [
    "ScaleParams",
    "ExtrapolationReport",
    "DEFAULT_EPSILONS",
    "DEFAULT_TOLERANCE",
    "parse_mu",
    "delta",
    "scale_derivative",
    "scale_derivative_path",
    "quantum_derivative",
    "quantum_integral",
    "trapezoid",
    "quadratic_term",
    "composite_scale_derivative",
]

_MU_BY_KEY = {"1": 1 + 0j, "+1": 1 + 0j, "-1": -1 + 0j, "0": 0j, "i": 1j, "-i": -1j}
_ADMISSIBLE_MU = (1 + 0j, -1 + 0j, 0j, 1j, -1j)

# Default sweep for the eps -> 0 extraction: nine dyadic scales below 1e-2.
# Nine (not eight) keeps the post-extrapolation error of cubic test functions
# below 1e-8.  Tolerance gates the convergence flag.
DEFAULT_EPSILONS = tuple(1e-2 * 2.0**-k for k in range(9))
DEFAULT_TOLERANCE = 1e-8


def parse_mu(mu) -> complex:
    """Normalize the operator mix parameter to one of 1, -1, 0, i, -i."""
    if isinstance(mu, str):
        key = mu.strip()
        if key in _MU_BY_KEY:
            return _MU_BY_KEY[key]
        raise ValidationError(f"mu must be one of 1, -1, 0, i, -i; got {mu!r}")
    try:
        z = complex(mu)
    except (TypeError, ValueError):
        raise ValidationError(f"mu must be one of 1, -1, 0, i, -i; got {mu!r}") from None
    if z in _ADMISSIBLE_MU:
        return z
    raise ValidationError(f"mu must be one of 1, -1, 0, i, -i; got {mu!r}")


@dataclass(frozen=True)
class ScaleParams:
    """Operator parameters: the scale epsilon > 0 and the mix mu."""

    epsilon: float
    mu: complex

    def __post_init__(self):
        eps = self.epsilon
        if not (isinstance(eps, (int, float)) and math.isfinite(eps) and eps > 0):
            raise ValidationError(f"epsilon must be a positive finite real, got {eps!r}")
        object.__setattr__(self, "epsilon", float(eps))
        object.__setattr__(self, "mu", parse_mu(self.mu))


def delta(p: Path, epsilon: float, sigma, t: float) -> np.ndarray:
    """One-sided difference quotient of p at scale epsilon.

    sigma=+1 gives (p(t+eps) - p(t))/eps, sigma=-1 gives (p(t) - p(t-eps))/eps.
    Sampled paths require t on a node and epsilon a whole number of steps.
    """
    sg = parse_sigma(sigma)
    if not epsilon > 0:
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
    if p.is_sampled:
        g = p.grid
        k = g.index_of(t)
        m = g.steps_of(epsilon)
        k2 = k + sg * m
        if not 0 <= k2 < g.num_nodes:
            raise DomainError(f"stencil at t={t} with epsilon={epsilon} leaves the padded grid")
        return sg * (p.values[k2] - p.values[k]) / epsilon
    pts = p.at_many(np.asarray([t + sg * epsilon, t]))
    return sg * (pts[0] - pts[1]) / epsilon


def _combine(dplus: np.ndarray, dminus: np.ndarray, mu: complex) -> np.ndarray:
    return 0.5 * (dplus + dminus) + (0.5j * mu) * (dplus - dminus)


def scale_derivative(p: Path, sp: ScaleParams, t: float) -> np.ndarray:
    """box_eps p at time t: 1/2[(D+ + D-) + i*mu*(D+ - D-)], a complex vector."""
    dplus = delta(p, sp.epsilon, +1, t)
    dminus = delta(p, sp.epsilon, -1, t)
    return _combine(dplus, dminus, sp.mu)


def scale_derivative_path(p: Path, sp: ScaleParams, grid: TimeGrid | None = None) -> Path:
    """box_eps p sampled at every node the stencil can reach.

    A sampled input on a grid with pad_steps = P and eps = m*h yields output
    on the same core [a, b] with pad_steps = P - m; the padding must cover the
    stencil (pad >= eps).  Analytic inputs need an explicit grid, again with
    pad >= eps, and allow any positive eps.
    """
    eps, mu = sp.epsilon, sp.mu
    if p.is_sampled:
        if grid is not None and grid != p.grid:
            raise GridError("grid argument conflicts with the sampled path's own grid")
        g = p.grid
        m = g.steps_of(eps)
        if m > g.pad_steps:
            raise GridError(
                f"padding {g.pad!r} is smaller than epsilon={eps!r}; extend the grid pad"
            )
        # D+ at node k is D- at node k + m: one difference array serves both
        d = (p.values[m:] - p.values[:-m]) / eps
        out = _combine(d[m:], d[:-m], mu)
        return Path.from_samples(g.with_pad_steps(g.pad_steps - m), out, label=f"scale[{p.label}]")
    if grid is None:
        raise ValidationError("scale_derivative_path of an analytic path needs an explicit grid")
    m_eff = max(1, math.ceil(eps / grid.h - 1e-9))
    if m_eff > grid.pad_steps:
        raise GridError(f"padding {grid.pad!r} is smaller than epsilon={eps!r}; extend the grid pad")
    ts = grid.nodes()[m_eff : grid.num_nodes - m_eff]
    vplus = p.at_many(ts + eps)
    v0 = p.at_many(ts)
    vminus = p.at_many(ts - eps)
    out = _combine((vplus - v0) / eps, (v0 - vminus) / eps, mu)
    return Path.from_samples(grid.with_pad_steps(grid.pad_steps - m_eff), out, label=f"scale[{p.label}]")


@dataclass(frozen=True)
class ExtrapolationReport:
    """Eps-sweep record: raw operator values, extrapolated limit, convergence flag.

    converged is set only when the last two Richardson-extrapolated values
    differ by less than tolerance; otherwise the raw sequence is the answer.
    """

    epsilons: tuple
    values: np.ndarray
    limit_estimate: complex
    convergence_rate: float
    converged: bool
    tolerance: float


def quantum_derivative(p: Path, mu, epsilons=None, tolerance=None, *, t) -> ExtrapolationReport:
    """Scale-free derivative estimate at time t via an eps sweep.

    Evaluates box_eps p for each eps, then applies two-point Richardson
    extrapolation assuming a leading error linear in eps to the last pair.
    convergence_rate is the log-log slope of successive value differences
    against eps (inf when the values repeat exactly).  Inputs without a
    classical derivative come back with converged=False.
    """
    mu = parse_mu(mu)
    eps_list = tuple(float(e) for e in (DEFAULT_EPSILONS if epsilons is None else epsilons))
    tol = DEFAULT_TOLERANCE if tolerance is None else float(tolerance)
    if len(eps_list) < 4:
        raise ValidationError(f"need at least 4 epsilons, got {len(eps_list)}")
    if any(e <= 0 for e in eps_list):
        raise ValidationError("epsilons must be positive")
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ValidationError("epsilons must be strictly decreasing")
    vals = np.stack([scale_derivative(p, ScaleParams(e, mu), t) for e in eps_list])
    rich = np.stack(
        [
            (e1 * v2 - e2 * v1) / (e1 - e2)
            for (e1, v1), (e2, v2) in zip(zip(eps_list, vals), zip(eps_list[1:], vals[1:]))
        ]
    )
    converged = bool(np.linalg.norm(rich[-1] - rich[-2]) < tol)
    diffs = np.linalg.norm(np.diff(vals, axis=0), axis=1)
    mask = diffs > 0.0
    if mask.sum() >= 2:
        rate = float(np.polyfit(np.log(np.asarray(eps_list[:-1])[mask]), np.log(diffs[mask]), 1)[0])
    else:
        rate = math.inf
    limit = rich[-1]
    if p.dim == 1:
        return ExtrapolationReport(eps_list, vals[:, 0], complex(limit[0]), rate, converged, tol)
    return ExtrapolationReport(eps_list, vals, limit, rate, converged, tol)


def trapezoid(values: np.ndarray, h: float) -> np.ndarray:
    """Trapezoid quadrature of uniformly sampled values, shape (N,) or (N, d)."""
    values = np.asarray(values)
    flat = values[:, None] if values.ndim == 1 else values
    out = h * (flat.sum(axis=0) - 0.5 * (flat[0] + flat[-1]))
    return out[0] if values.ndim == 1 else out


def quantum_integral(dp: Path, grid: TimeGrid) -> np.ndarray:
    """Trapezoid quadrature of a sampled path over the core window [a, b] of grid."""
    if not dp.is_sampled:
        raise ValidationError("quantum_integral needs a sampled path")
    g = dp.grid

    def close(x, y):
        return abs(x - y) <= 1e-12 * max(1.0, abs(x), abs(y))

    if not (close(g.a, grid.a) and close(g.b, grid.b) and g.n == grid.n):
        raise GridError("mismatched grid: the sampled path does not cover the requested [a, b]")
    vals = dp.values[g.core]
    out = trapezoid(vals, g.h)
    return np.atleast_1d(out)


def quadratic_term(p: Path, sp: ScaleParams, k: int, j: int, t: float) -> complex:
    """Finite-scale quadratic correction used by the composite rule.

    Returns (eps/2) [ (D+ x_k)(D+ x_j)(1 + i*mu) - (D- x_k)(D- x_j)(1 - i*mu) ]
    at time t, with 1-based component indices matching q1..qd naming.  For
    smooth paths this vanishes linearly in eps (mu != 0); for rough paths it
    survives and feeds the curvature term of the composite derivative.
    """
    if not (1 <= k <= p.dim and 1 <= j <= p.dim):
        raise ValidationError(f"component indices must lie in 1..{p.dim}, got k={k}, j={j}")
    dplus = delta(p, sp.epsilon, +1, t)
    dminus = delta(p, sp.epsilon, -1, t)
    cp = 1.0 + 1j * sp.mu
    cm = 1.0 - 1j * sp.mu
    return complex(
        (sp.epsilon / 2.0) * (dplus[k - 1] * dplus[j - 1] * cp - dminus[k - 1] * dminus[j - 1] * cm)
    )


def composite_scale_derivative(field, p: Path, sp: ScaleParams, t: float) -> complex:
    """box_eps of t -> f(x(t), t) assembled by the chain rule.

    Evaluates  df/dt + grad f . box x + 1/2 sum_kj H_kj a_kj  where a_kj is the
    finite-scale quadratic term above.  field must expose dim,
    time_derivative(t, q), gradient(t, q) and hessian(t, q); for f(x) = x_k
    the rule reduces exactly to the scale derivative of that component.
    """
    if getattr(field, "dim", None) != p.dim:
        raise ValidationError(
            f"field dimension {getattr(field, 'dim', None)} does not match path dimension {p.dim}"
        )
    hessian_fn = getattr(field, "hessian", None)
    if hessian_fn is None:
        raise ValidationError("field does not supply a Hessian")
    q = p.at(t)
    dplus = delta(p, sp.epsilon, +1, t)
    dminus = delta(p, sp.epsilon, -1, t)
    v = _combine(dplus, dminus, sp.mu)
    hess = np.asarray(hessian_fn(t, q), dtype=np.complex128)
    if hess.shape != (p.dim, p.dim):
        raise ValidationError(f"Hessian has shape {hess.shape}, expected ({p.dim}, {p.dim})")
    cp = 1.0 + 1j * sp.mu
    cm = 1.0 - 1j * sp.mu
    a = (sp.epsilon / 2.0) * (np.outer(dplus, dplus) * cp - np.outer(dminus, dminus) * cm)
    grad = np.asarray(field.gradient(t, q), dtype=np.complex128)
    total = field.time_derivative(t, q) + grad @ v + 0.5 * np.sum(hess * a)
    return complex(total)

"""Scale calculus of variations: action values, extremal residuals, invariance
checks and conserved-quantity reports.

For a Lagrangian L(t, q, v) with v = box q (the scale derivative of the path):

    extremal residual        r = dL/dq - box(dL/dv)
    energy-balance residual  r = box(L - dL/dv . v) - dL/dt
    conserved quantity       C = dL/dv . xi + (L - dL/dv . v) tau

under a generator (tau(t, q), xi(t, q)).  Residuals are reported on the
window [a + eps, b - eps]: the outer scale derivative consumes one stencil of
data on each side and no boundary values are fabricated.  A report reads the
path up to its reach beyond [a, b], eps (2*eps for the residuals, which apply
box twice); padding beyond the reach is never evaluated, so a report is
bitwise the same for any larger pad.  All checks take a candidate path as
data; nothing here solves the variational problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import GridError, NumericalError, ValidationError
from .funcspace import Path, TimeGrid, sample
# evaluate stays bound here for bench/test_bench.py::test_tracer_patches_every_binding_and_restores_it
from .lagdsl import Bindings, compile, diff, evaluate, parse, references_velocity
from .scaleops import ScaleParams, scale_derivative_path, trapezoid

__all__ = [
    "LagrangianSpec",
    "SymmetrySpec",
    "ResidualReport",
    "NoetherReport",
    "evaluate_functional",
    "functional_integrand",
    "euler_lagrange_residual",
    "dubois_reymond_residual",
    "invariance_derivative",
    "invariance_integrand",
    "invariance_integrand_integral",
    "noether_constant",
]


def _compile_fields(spec, names) -> None:
    """Hold a program per expression of the named fields (a tuple for a tuple field)."""
    programs = {}
    for name in names:
        value = getattr(spec, name)
        programs[name] = tuple(map(compile, value)) if isinstance(value, tuple) else compile(value)
    object.__setattr__(spec, "_programs", programs)


@dataclass(frozen=True)
class LagrangianSpec:
    """Lagrangian L(t, q, v) with its symbolic partials dL/dt, dL/dq, dL/dv,
    each compiled once, at construction, for every report on the spec."""

    L: object
    dL_dt: object
    grad_q: tuple
    grad_v: tuple
    dim: int
    params: dict
    _programs: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _compile_fields(self, ("L", "dL_dt", "grad_q", "grad_v"))

    @classmethod
    def from_text(cls, text: str, dim: int = 1, params=None) -> "LagrangianSpec":
        params = dict(params or {})
        L = parse(text, dim, param_names=tuple(params))
        return cls(
            L=L,
            dL_dt=diff(L, "t"),
            grad_q=tuple(diff(L, f"q{k + 1}") for k in range(dim)),
            grad_v=tuple(diff(L, f"v{k + 1}") for k in range(dim)),
            dim=int(dim),
            params=params,
        )


@dataclass(frozen=True)
class SymmetrySpec:
    """Generator pair (tau(t, q), xi(t, q)) with the group-parameter step.

    tau rescales time, xi displaces the path; neither may reference velocity
    variables; each is compiled once, at construction.  s_step is the
    central-difference step in the group parameter, in S_STEP_RANGE: below
    about sqrt(machine epsilon) rounding error exceeds the step.
    """

    S_STEP_RANGE: ClassVar[tuple] = (1e-8, 0.1)

    tau: object
    xi: tuple
    dim: int
    params: dict
    s_step: float = 1e-4
    _programs: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        low, high = self.S_STEP_RANGE
        if not low <= self.s_step <= high:
            raise ValidationError(f"s_step must lie in [{low}, {high}], got {self.s_step}")
        if len(self.xi) != self.dim:
            raise ValidationError(f"xi needs {self.dim} components, got {len(self.xi)}")
        if any(references_velocity(e) for e in (self.tau, *self.xi)):
            raise ValidationError("symmetry generators may not reference velocity variables")
        _compile_fields(self, ("tau", "xi"))

    @classmethod
    def from_text(cls, tau_text: str, xi_texts, dim: int = 1, params=None, s_step: float = 1e-4):
        params = dict(params or {})
        if isinstance(xi_texts, str):
            xi_texts = [xi_texts]
        return cls(
            tau=parse(tau_text, dim, param_names=tuple(params)),
            xi=tuple(parse(x, dim, param_names=tuple(params)) for x in xi_texts),
            dim=int(dim),
            params=params,
            s_step=float(s_step),
        )


@dataclass(frozen=True)
class ResidualReport:
    """Pointwise residual samples with max |r| and the h-weighted l2 norm."""

    node_times: np.ndarray
    residuals: np.ndarray
    max_abs: float
    l2: float

    @classmethod
    def from_samples(cls, ts, res, weight: float) -> "ResidualReport":
        res = np.asarray(res, dtype=np.complex128)
        mags = np.abs(res)
        return cls(
            node_times=np.asarray(ts, dtype=float),
            residuals=res,
            max_abs=float(mags.max()),
            l2=float(math.sqrt(weight * float((mags**2).sum()))),
        )


def modulus(z: complex) -> float:
    """abs(z), or hypot(re, im) where complex abs raises: inf for |z| overflowing, nan
    for a NaN part meeting an errno that an earlier overflow left set."""
    try:
        return abs(z)
    except OverflowError:
        return math.hypot(z.real, z.imag)


@dataclass(frozen=True)
class NoetherReport:
    """Samples of a candidate conserved quantity C(t) with mean and drift.

    drift = max |C - mean| / max(1, |mean|), so zero-mean constants do not
    divide by zero.
    """

    node_times: np.ndarray
    constant_samples: np.ndarray
    mean: complex
    drift: float

    @classmethod
    def from_samples(cls, ts, samples) -> "NoetherReport":
        samples = np.asarray(samples, dtype=np.complex128)
        mean = complex(samples.mean())
        drift = float(np.max(np.abs(samples - mean)) / max(1.0, modulus(mean)))
        return cls(np.asarray(ts, dtype=float), samples, mean, drift)


# ---------------------------------------------------------------------------
# Path state


@dataclass(frozen=True)
class _PathState:
    """The input path cut to a report's reach (m = eps in grid steps), and box q
    with its node times and q on the grid m steps inside it."""

    path: Path
    m: int
    grid: TimeGrid
    ts: np.ndarray
    q: np.ndarray
    v: np.ndarray


def _check_dim(what: str, dim: int, p: Path) -> None:
    if dim != p.dim:
        raise ValidationError(f"dimension mismatch: {what} has d={dim}, path has d={p.dim}")


def _path_state(Lg: LagrangianSpec, p: Path, sp: ScaleParams, sym=None, outer=None) -> _PathState:
    """Check p against the specs, cut it to the report's reach and take its scale
    derivative once.

    The reach is eps, or 2*eps when outer names the quantity a report
    differentiates a second time; then pad >= 2*eps and a non-empty window
    [a+eps, b-eps] are checked before the first derivative is taken.
    """
    if not p.is_sampled:
        raise ValidationError(
            "variational checks need a sampled path; use funcspace.sample(path, grid)"
        )
    _check_dim("spec", Lg.dim, p)
    if sym is not None:
        _check_dim("symmetry", sym.dim, p)
    g = p.grid
    m = g.steps_of(sp.epsilon)
    reach = m if outer is None else 2 * m
    if outer is not None and g.pad_steps < reach:
        raise GridError(
            f"padding {g.pad!r} is smaller than 2*epsilon={2 * sp.epsilon!r} "
            f"(the outer derivative of the {outer} consumes one stencil per side)"
        )
    if outer is not None and g.n <= reach:
        raise GridError("grid too coarse: the window [a+eps, b-eps] is empty")
    if g.pad_steps > reach:
        p = sample(p, g.with_pad_steps(reach))
    v = scale_derivative_path(p, sp)
    return _PathState(p, m, v.grid, v.grid.nodes(), p.values[m:-m], v.values)


def _eval_samples(programs, params, ts, qvals, vvals=None) -> np.ndarray:
    """Run compiled expressions on per-node arrays, constants broadcast: one program
    gives (N,), a tuple of them the (N, k) array of their columns."""
    b = Bindings(
        t=ts,
        q=tuple(np.asarray(qvals, dtype=np.complex128).T),
        v=() if vvals is None else tuple(np.asarray(vvals, dtype=np.complex128).T),
        params=params,
    )
    n = len(qvals)
    column = lambda f: np.broadcast_to(np.asarray(f(b), dtype=np.complex128), (n,))
    if isinstance(programs, tuple):
        return np.stack([column(f) for f in programs], axis=1)
    return np.array(column(programs))


def _momentum_energy(Lg: LagrangianSpec, ts, qvals, vvals):
    """The momentum dL/dv, (N, d), and the energy term L - dL/dv . v, (N,), per node."""
    lvals = _eval_samples(Lg._programs["L"], Lg.params, ts, qvals, vvals)
    momentum = _eval_samples(Lg._programs["grad_v"], Lg.params, ts, qvals, vvals)
    return momentum, lvals - (momentum * vvals).sum(axis=1)


# ---------------------------------------------------------------------------
# Operations


def functional_integrand(Lg: LagrangianSpec, p: Path, sp: ScaleParams):
    """Per-node samples of L(t, q, box q) on the core window [a, b]."""
    st = _path_state(Lg, p, sp)
    return st.ts, _eval_samples(Lg._programs["L"], Lg.params, st.ts, st.q, st.v), p.grid.h


def evaluate_functional(Lg: LagrangianSpec, p: Path, sp: ScaleParams) -> complex:
    """Trapezoid value of the action  integral L(t, q, box q) dt  over [a, b]."""
    _, integrand, h = functional_integrand(Lg, p, sp)
    return complex(trapezoid(integrand, h))


def _boxed_samples(st: _PathState, sp: ScaleParams, label: str, inner: np.ndarray, params, rhs):
    """Apply an outer scale derivative to per-node samples (named label) on the state's grid;
    return the node times and box(inner) minus the rhs programs on the window [a + eps, b - eps]."""
    m = st.m
    outer = scale_derivative_path(Path.from_samples(st.grid, inner, label=label), sp).values[m:-m]
    w = slice(2 * m, -2 * m)
    ts = st.ts[w]
    res = outer - _eval_samples(rhs, params, ts, st.q[w], st.v[w])
    if res.shape[1] == 1:
        res = res[:, 0]
    return ts, res


def euler_lagrange_residual(Lg: LagrangianSpec, p: Path, sp: ScaleParams) -> ResidualReport:
    """Residual of the extremal condition  dL/dq - box(dL/dv) = 0.

    The momentum dL/dv is sampled along the path and differentiated as a
    path itself, so the input needs pad >= 2*eps.
    """
    st = _path_state(Lg, p, sp, outer="momentum")
    momentum = _eval_samples(Lg._programs["grad_v"], Lg.params, st.ts, st.q, st.v)
    # negate box(momentum) - dL/dq rather than subtract the other way: the
    # signs of zeros (-0.0 in the CSV) stay as they are
    ts, res = _boxed_samples(st, sp, "momentum", momentum, Lg.params, Lg._programs["grad_q"])
    return ResidualReport.from_samples(ts, -res, p.grid.h)


def dubois_reymond_residual(Lg: LagrangianSpec, p: Path, sp: ScaleParams) -> ResidualReport:
    """Residual of the energy balance  box(L - dL/dv . v) - dL/dt = 0."""
    st = _path_state(Lg, p, sp, outer="energy")
    _, energy = _momentum_energy(Lg, st.ts, st.q, st.v)
    ts, res = _boxed_samples(st, sp, "energy", energy[:, None], Lg.params, (Lg._programs["dL_dt"],))
    return ResidualReport.from_samples(ts, res, p.grid.h)


def _generator_state(Lg: LagrangianSpec, p: Path, sym: SymmetrySpec, sp: ScaleParams):
    """Core-window samples of the path state, of tau and xi along the path, and
    of box tau and box xi, which read tau and xi on the padded window."""
    st = _path_state(Lg, p, sp, sym=sym)
    r, m = st.path, st.m
    tau, xi = (_eval_samples(sym._programs[k], sym.params, r.grid.nodes(), r.values) for k in ("tau", "xi"))
    dtau = scale_derivative_path(Path.from_samples(r.grid, tau, label="tau"), sp).values[:, 0]
    dxi = scale_derivative_path(Path.from_samples(r.grid, xi, label="xi"), sp).values
    return st.ts, st.q, st.v, tau[m:-m], xi[m:-m], dtau, dxi


def invariance_derivative(
    Lg: LagrangianSpec, p: Path, sym: SymmetrySpec, sp: ScaleParams
) -> complex:
    """Central-difference d/ds at s = 0 of the generator-deformed action.

    The deformed action at group parameter s integrates
    L(t + s tau, q + s xi, (v + s box xi)/(1 + s box tau)) (1 + s box tau);
    box tau and box xi are scale derivatives of the generators composed with
    the path, consistent with the operator semantics used everywhere else.
    """
    ts, qv, vv, tau, xi, dtau, dxi = _generator_state(Lg, p, sym, sp)

    def action(s: float) -> complex:
        den = 1.0 + s * dtau
        if float(np.min(np.abs(den))) < 1e-6:
            raise NumericalError(
                "time deformation degenerate: |1 + s*box(tau)| < 1e-6 at a node"
            )
        integrand = _eval_samples(
            Lg._programs["L"], Lg.params, ts + s * tau, qv + s * xi, (vv + s * dxi) / den[:, None]
        ) * den
        return complex(trapezoid(integrand, p.grid.h))

    s = sym.s_step
    return (action(+s) - action(-s)) / (2.0 * s)


def invariance_integrand(Lg: LagrangianSpec, p: Path, sym: SymmetrySpec, sp: ScaleParams):
    """First-order invariance integrand sampled on the core window:
    dL/dt tau + dL/dq . xi + dL/dv . (box xi - v box tau) + L box tau."""
    ts, qv, vv, tau, xi, dtau, dxi = _generator_state(Lg, p, sym, sp)
    lvals = _eval_samples(Lg._programs["L"], Lg.params, ts, qv, vv)
    out = _eval_samples(Lg._programs["dL_dt"], Lg.params, ts, qv, vv) * tau + lvals * dtau
    for k in range(Lg.dim):
        out += _eval_samples(Lg._programs["grad_q"][k], Lg.params, ts, qv, vv) * xi[:, k]
        out += _eval_samples(Lg._programs["grad_v"][k], Lg.params, ts, qv, vv) * (
            dxi[:, k] - vv[:, k] * dtau
        )
    return ts, out, p.grid.h


def invariance_integrand_integral(
    Lg: LagrangianSpec, p: Path, sym: SymmetrySpec, sp: ScaleParams
) -> complex:
    """Trapezoid value of the first-order invariance integrand over [a, b].

    Agrees with invariance_derivative to the group-parameter step squared;
    a nonzero value flags a generator the action is not invariant under.
    """
    _, integrand, h = invariance_integrand(Lg, p, sym, sp)
    return complex(trapezoid(integrand, h))


def noether_constant(
    Lg: LagrangianSpec, p: Path, sym: SymmetrySpec, sp: ScaleParams
) -> NoetherReport:
    """Candidate conserved quantity C = dL/dv . xi + (L - dL/dv . v) tau.

    Sampled on the core window; the drift statistic measures constancy.  The
    momentum term carries xi, the energy term carries tau.
    """
    st = _path_state(Lg, p, sp, sym=sym)
    tau, xi = (_eval_samples(sym._programs[k], sym.params, st.ts, st.q) for k in ("tau", "xi"))
    momentum, energy = _momentum_energy(Lg, st.ts, st.q, st.v)
    samples = (momentum * xi).sum(axis=1) + energy * tau
    return NoetherReport.from_samples(st.ts, samples)

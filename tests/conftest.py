import math

import numpy as np
import pytest

from scalevar import (
    Bindings,
    EnergyReport,
    GridError,
    LagrangianSpec,
    NoetherReport,
    NumericalError,
    Path,
    ResidualReport,
    ScaleParams,
    SchrodingerProblem,
    SymmetrySpec,
    TimeGrid,
    Trajectory,
    ValidationError,
    evaluate,
    make_grid,
    sample,
    scale_derivative_path,
    trapezoid,
)
from scalevar.lagdsl import BinOp, Const, Neg, Pow, Var


def ulps_apart(x, y) -> float:
    """Distance between two complex values in units of the larger one's spacing."""
    x = complex(x)
    y = complex(y)
    scale = max(abs(x), abs(y), np.finfo(float).tiny)
    return abs(x - y) / float(np.spacing(scale))


def dyadic_complex(rng, shape):
    """Complex samples on a dyadic lattice: k * 2^-15 per component, |k| <= 2^15.

    Sums, differences, small rational scalings and divisions by powers of two
    stay exact in binary64, so algebraic operator identities hold bitwise.
    """
    re = rng.integers(-(2**15), 2**15 + 1, size=shape) * 2.0**-15
    im = rng.integers(-(2**15), 2**15 + 1, size=shape) * 2.0**-15
    return re + 1j * im


def dyadic_sampled_path(rng, n_nodes=9, dim=1, h=2.0**-6):
    """Sampled path on a dyadic grid, values on the dyadic lattice."""
    n = n_nodes - 1
    grid = make_grid(0.0, n * h, n, 0.0)
    values = dyadic_complex(rng, (n_nodes, dim))
    return Path.from_samples(grid, values)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def sampled(fn, grid, dim=1, label="", vectorized=True):
    return sample(Path.from_callable(fn, dim=dim, vectorized=vectorized, label=label), grid)


# ---------------------------------------------------------------------------
# reference expression evaluator: the recursive tree walk that lagdsl.compile
# replaced, copied with its helpers as the oracle for bitwise comparisons


def _ref_coerce(x):
    if isinstance(x, np.ndarray):
        return x.astype(np.complex128, copy=False)
    return complex(x)


def _ref_ipow(z, n: int):
    if n < 0:
        if np.any(z == 0):
            raise NumericalError("zero base raised to a negative power")
        return 1.0 / _ref_ipow(z, -n)
    try:
        return z**n
    except ZeroDivisionError:  # pragma: no cover - guarded above
        raise NumericalError("zero base raised to a negative power") from None


def _ref_eval_pow(z, c: float):
    if float(c).is_integer():
        return _ref_ipow(z, int(c))
    return np.power(_ref_coerce(z), c)


def _ref_apply_fn(fn: str, z):
    if fn == "sin":
        return np.sin(z)
    if fn == "cos":
        return np.cos(z)
    if fn == "exp":
        return np.exp(z)
    if fn == "ln":
        if np.any(z == 0):
            raise NumericalError("ln(0)")
        return np.log(z)
    if fn == "sqrt":
        return np.sqrt(z)
    if fn == "abs2":
        return (z * np.conjugate(z)).real
    if fn == "conj":
        return np.conjugate(z)
    raise ValidationError(f"unknown function {fn!r}")  # pragma: no cover


def reference_evaluate(e, b):
    """Evaluate to a complex scalar, or an array when bindings carry arrays."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        if e.kind == "t":
            return _ref_coerce(b.t)
        if e.kind == "param":
            if e.name not in b.params:
                raise ValidationError(f"unbound parameter {e.name!r}")
            return _ref_coerce(b.params[e.name])
        seq = b.q if e.kind == "q" else b.v
        if len(seq) < e.index:
            raise ValidationError(
                f"binding supplies {len(seq)} {e.kind} components, {e.name} needs {e.index}"
            )
        return _ref_coerce(seq[e.index - 1])
    if isinstance(e, Neg):
        return -reference_evaluate(e.arg, b)
    if isinstance(e, BinOp):
        lhs = reference_evaluate(e.left, b)
        rhs = reference_evaluate(e.right, b)
        if e.op == "+":
            return lhs + rhs
        if e.op == "-":
            return lhs - rhs
        if e.op == "*":
            return lhs * rhs
        if np.any(rhs == 0):
            raise NumericalError("division by zero")
        return lhs / rhs
    if isinstance(e, Pow):
        return _ref_eval_pow(reference_evaluate(e.base, b), e.exponent)
    return _ref_apply_fn(e.fn, reference_evaluate(e.arg, b))


def same_bits(x, y) -> bool:
    """Same Python type, dtype, shape and bytes: the bitwise-identity check."""
    ax, ay = np.asarray(x), np.asarray(y)
    return (
        type(x) is type(y)
        and (ax.dtype, ax.shape) == (ay.dtype, ay.shape)
        and ax.tobytes() == ay.tobytes()
    )


# ---------------------------------------------------------------------------
# reference Weierstrass series: the serial formula that funcspace.weierstrass
# evaluated on one thread, kept as the oracle for bitwise comparisons


def reference_weierstrass(ts, a_coef: float, b_base: float, nterms: int) -> np.ndarray:
    """sum_n a^n cos(b^n pi t) over nterms terms: one cos table, one matmul."""
    coef = a_coef ** np.arange(nterms)
    freq = np.pi * b_base ** np.arange(nterms)
    return np.cos(np.multiply.outer(np.asarray(ts, dtype=float), freq)) @ coef


# ---------------------------------------------------------------------------
# reference CSV writer: the per-cell path that the cli table writer replaced,
# copied with its helper as the oracle for byte comparisons


def _ref_fmt_num(x) -> str:
    f = float(x)
    if not math.isfinite(f):
        raise NumericalError("non-finite value in output")
    return repr(f)


def reference_write_csv(prefix: str, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_ref_fmt_num(x) for x in row))
    with open(prefix + ".csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_series_rows(ts, arrays):
    """Rows (t, re, im, ...) from a time vector and complex arrays (N,) or (N, d)."""
    mats = []
    for arr in arrays:
        arr = np.asarray(arr)
        mats.append(arr[:, None] if arr.ndim == 1 else arr)
    rows = []
    for i, t in enumerate(ts):
        row = [t]
        for mat in mats:
            for z in mat[i]:
                row += [z.real, z.imag]
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# reference reports: the varcalc report code and schrodinger.energy_constant
# as they were before the reports shared one path state, copied with their
# helpers as the oracle for bitwise comparisons


def _ref_residual_report(ts: np.ndarray, res: np.ndarray, weight: float) -> ResidualReport:
    res = np.asarray(res, dtype=np.complex128)
    mags = np.abs(res)
    return ResidualReport(
        node_times=np.asarray(ts, dtype=float),
        residuals=res,
        max_abs=float(mags.max()),
        l2=float(math.sqrt(weight * float((mags**2).sum()))),
    )


def _ref_noether_report(ts: np.ndarray, samples: np.ndarray) -> NoetherReport:
    samples = np.asarray(samples, dtype=np.complex128)
    mean = complex(samples.mean())
    drift = float(np.max(np.abs(samples - mean)) / max(1.0, abs(mean)))
    return NoetherReport(np.asarray(ts, dtype=float), samples, mean, drift)


def _ref_sampled_grid(p: Path) -> TimeGrid:
    if not p.is_sampled:
        raise ValidationError(
            "variational checks need a sampled path; use funcspace.sample(path, grid)"
        )
    return p.grid


def _ref_check_dim(spec_dim: int, p: Path) -> None:
    if spec_dim != p.dim:
        raise ValidationError(f"dimension mismatch: spec has d={spec_dim}, path has d={p.dim}")


def _ref_restrict(p: Path, target: TimeGrid) -> np.ndarray:
    """Samples of p on the node set of a narrower grid with the same core."""
    g = p.grid
    off = g.pad_steps - target.pad_steps
    if off < 0 or (g.a, g.b, g.n) != (target.a, target.b, target.n):
        raise GridError("incompatible grids")
    return p.values[off : off + target.num_nodes]


def _ref_eval_samples(expr, params, ts, qvals, vvals=None) -> np.ndarray:
    """Evaluate an expression on per-node arrays; constants broadcast to (N,)."""
    b = Bindings(
        t=ts,
        q=tuple(np.asarray(qvals, dtype=np.complex128).T),
        v=() if vvals is None else tuple(np.asarray(vvals, dtype=np.complex128).T),
        params=params,
    )
    out = evaluate(expr, b)
    n = len(qvals)
    return np.array(np.broadcast_to(np.asarray(out, dtype=np.complex128), (n,)))


def _ref_core_state(Lg: LagrangianSpec, p: Path, sp: ScaleParams):
    """Times, positions and velocities on the core window [a, b]."""
    v_path = scale_derivative_path(p, sp)
    g1 = v_path.grid
    core = g1.core
    ts = g1.nodes()[core]
    qv = _ref_restrict(p, g1)[core]
    vv = v_path.values[core]
    return g1, ts, qv, vv


def reference_functional_integrand(Lg: LagrangianSpec, p: Path, sp: ScaleParams):
    """Per-node samples of L(t, q, box q) on the core window [a, b]."""
    g = _ref_sampled_grid(p)
    _ref_check_dim(Lg.dim, p)
    _, ts, qv, vv = _ref_core_state(Lg, p, sp)
    return ts, _ref_eval_samples(Lg.L, Lg.params, ts, qv, vv), g.h


def _ref_boxed_samples_report(p: Path, sp: ScaleParams, inner: np.ndarray, rhs_fn):
    """Apply an outer scale derivative to per-node samples and report the
    residual box(inner) - rhs on the window [a + eps, b - eps]."""
    g = p.grid
    m = g.steps_of(sp.epsilon)
    v_path = scale_derivative_path(p, sp)
    g1 = v_path.grid
    inner_path = Path.from_samples(g1, inner)
    outer = scale_derivative_path(inner_path, sp)
    g2 = outer.grid
    ts2 = g2.nodes()
    qv2 = _ref_restrict(p, g2)
    vv2 = _ref_restrict(v_path, g2)
    res = outer.values - rhs_fn(ts2, qv2, vv2)
    if g2.n <= 2 * m:
        raise GridError("grid too coarse: the window [a+eps, b-eps] is empty")
    w = slice(g2.pad_steps + m, g2.pad_steps + g2.n - m + 1)
    res_w = res[w]
    if res_w.shape[1] == 1:
        res_w = res_w[:, 0]
    return _ref_residual_report(ts2[w], res_w, g.h)


def reference_euler_lagrange_residual(Lg: LagrangianSpec, p: Path, sp: ScaleParams) -> ResidualReport:
    """Residual of the extremal condition  dL/dq - box(dL/dv) = 0.

    The momentum dL/dv is sampled along the path and differentiated as a
    path itself, so the input needs pad >= 2*eps.
    """
    g = _ref_sampled_grid(p)
    _ref_check_dim(Lg.dim, p)
    m = g.steps_of(sp.epsilon)
    if g.pad_steps < 2 * m:
        raise GridError(
            f"padding {g.pad!r} is smaller than 2*epsilon={2 * sp.epsilon!r} "
            "(the outer derivative of the momentum consumes one stencil per side)"
        )
    v_path = scale_derivative_path(p, sp)
    g1 = v_path.grid
    ts1 = g1.nodes()
    qv1 = _ref_restrict(p, g1)
    vv1 = v_path.values
    momentum = np.stack(
        [_ref_eval_samples(Lg.grad_v[k], Lg.params, ts1, qv1, vv1) for k in range(Lg.dim)], axis=1
    )

    def rhs(ts, qv, vv):
        return np.stack(
            [_ref_eval_samples(Lg.grad_q[k], Lg.params, ts, qv, vv) for k in range(Lg.dim)], axis=1
        )

    # _ref_boxed_samples_report yields box(momentum) - dL/dq; flip to dL/dq - box(momentum)
    report = _ref_boxed_samples_report(p, sp, momentum, rhs)
    return _ref_residual_report(report.node_times, -report.residuals, g.h)


def reference_dubois_reymond_residual(Lg: LagrangianSpec, p: Path, sp: ScaleParams) -> ResidualReport:
    """Residual of the energy balance  box(L - dL/dv . v) - dL/dt = 0."""
    g = _ref_sampled_grid(p)
    _ref_check_dim(Lg.dim, p)
    m = g.steps_of(sp.epsilon)
    if g.pad_steps < 2 * m:
        raise GridError(
            f"padding {g.pad!r} is smaller than 2*epsilon={2 * sp.epsilon!r} "
            "(the outer derivative of the energy consumes one stencil per side)"
        )
    v_path = scale_derivative_path(p, sp)
    g1 = v_path.grid
    ts1 = g1.nodes()
    qv1 = _ref_restrict(p, g1)
    vv1 = v_path.values
    lvals = _ref_eval_samples(Lg.L, Lg.params, ts1, qv1, vv1)
    momentum_dot_v = np.zeros_like(lvals)
    for k in range(Lg.dim):
        momentum_dot_v += _ref_eval_samples(Lg.grad_v[k], Lg.params, ts1, qv1, vv1) * vv1[:, k]
    energy = lvals - momentum_dot_v

    def rhs(ts, qv, vv):
        return _ref_eval_samples(Lg.dL_dt, Lg.params, ts, qv, vv)[:, None]

    return _ref_boxed_samples_report(p, sp, energy[:, None], rhs)


def _ref_generator_state(Lg: LagrangianSpec, p: Path, sym: SymmetrySpec, sp: ScaleParams):
    """Core-window samples of tau, xi and their scale derivatives along the path."""
    g = _ref_sampled_grid(p)
    _ref_check_dim(Lg.dim, p)
    if sym.dim != p.dim:
        raise ValidationError(f"dimension mismatch: symmetry has d={sym.dim}, path has d={p.dim}")
    ts_all = g.nodes()
    qv_all = p.values
    tau_all = _ref_eval_samples(sym.tau, sym.params, ts_all, qv_all)
    xi_all = np.stack(
        [_ref_eval_samples(x, sym.params, ts_all, qv_all) for x in sym.xi], axis=1
    )
    g1, ts, qv, vv = _ref_core_state(Lg, p, sp)
    m = g.pad_steps - g1.pad_steps
    core = g1.core
    tau = tau_all[m:-m][core]
    xi = xi_all[m:-m][core]
    dtau = scale_derivative_path(Path.from_samples(g, tau_all), sp).values[:, 0][core]
    dxi = scale_derivative_path(Path.from_samples(g, xi_all), sp).values[core]
    return g, ts, qv, vv, tau, xi, dtau, dxi


def reference_invariance_derivative(
    Lg: LagrangianSpec, p: Path, sym: SymmetrySpec, sp: ScaleParams
) -> complex:
    """Central-difference d/ds at s = 0 of the generator-deformed action.

    The deformed action at group parameter s integrates
    L(t + s tau, q + s xi, (v + s box xi)/(1 + s box tau)) (1 + s box tau);
    box tau and box xi are scale derivatives of the generators composed with
    the path, consistent with the operator semantics used everywhere else.
    """
    g, ts, qv, vv, tau, xi, dtau, dxi = _ref_generator_state(Lg, p, sym, sp)

    def action(s: float) -> complex:
        den = 1.0 + s * dtau
        if float(np.min(np.abs(den))) < 1e-6:
            raise NumericalError(
                "time deformation degenerate: |1 + s*box(tau)| < 1e-6 at a node"
            )
        b = Bindings(
            t=ts + s * tau,
            q=tuple((qv + s * xi).T),
            v=tuple(((vv + s * dxi) / den[:, None]).T),
            params=Lg.params,
        )
        integrand = np.broadcast_to(
            np.asarray(evaluate(Lg.L, b), dtype=np.complex128), ts.shape
        ) * den
        return complex(trapezoid(integrand, g.h))

    s = sym.s_step
    return (action(+s) - action(-s)) / (2.0 * s)


def reference_invariance_integrand(Lg: LagrangianSpec, p: Path, sym: SymmetrySpec, sp: ScaleParams):
    """First-order invariance integrand sampled on the core window:
    dL/dt tau + dL/dq . xi + dL/dv . (box xi - v box tau) + L box tau."""
    g, ts, qv, vv, tau, xi, dtau, dxi = _ref_generator_state(Lg, p, sym, sp)
    lvals = _ref_eval_samples(Lg.L, Lg.params, ts, qv, vv)
    out = _ref_eval_samples(Lg.dL_dt, Lg.params, ts, qv, vv) * tau + lvals * dtau
    for k in range(Lg.dim):
        out += _ref_eval_samples(Lg.grad_q[k], Lg.params, ts, qv, vv) * xi[:, k]
        out += _ref_eval_samples(Lg.grad_v[k], Lg.params, ts, qv, vv) * (
            dxi[:, k] - vv[:, k] * dtau
        )
    return ts, out, g.h


def reference_invariance_integrand_integral(
    Lg: LagrangianSpec, p: Path, sym: SymmetrySpec, sp: ScaleParams
) -> complex:
    """Trapezoid value of the first-order invariance integrand over [a, b].

    Agrees with invariance_derivative to the group-parameter step squared;
    a nonzero value flags a generator the action is not invariant under.
    """
    _, integrand, h = reference_invariance_integrand(Lg, p, sym, sp)
    return complex(trapezoid(integrand, h))


def reference_noether_constant(
    Lg: LagrangianSpec, p: Path, sym: SymmetrySpec, sp: ScaleParams
) -> NoetherReport:
    """Candidate conserved quantity C = dL/dv . xi + (L - dL/dv . v) tau.

    Sampled on the core window; the drift statistic measures constancy.  The
    momentum term carries xi, the energy term carries tau.
    """
    g, ts, qv, vv, tau, xi, _, _ = _ref_generator_state(Lg, p, sym, sp)
    lvals = _ref_eval_samples(Lg.L, Lg.params, ts, qv, vv)
    momentum = np.stack(
        [_ref_eval_samples(Lg.grad_v[k], Lg.params, ts, qv, vv) for k in range(Lg.dim)], axis=1
    )
    samples = (momentum * xi).sum(axis=1) + (lvals - (momentum * vv).sum(axis=1)) * tau
    return _ref_noether_report(ts, samples)


def _ref_log_gradient_sum(prob: SchrodingerProblem, t, q):
    """sum_k (dPsi/dq_k)/Psi in quotient form, branch-free."""
    b = Bindings(t=t, q=tuple(q), v=(), params=prob.params)
    psi = reference_evaluate(prob.psi, b)
    if np.min(np.abs(psi)) <= 1e-12:
        raise NumericalError("wavefunction magnitude at or below 1e-12 on the probed region")
    total = 0.0 + 0.0j
    for dq in prob.psi_q:
        total = total + reference_evaluate(dq, b) / psi
    return total


def reference_energy_constant(prob: SchrodingerProblem, traj: Trajectory, sp: ScaleParams) -> EnergyReport:
    """Track both energy forms along a trajectory on the core window [a, b].

    theorem: -(m/2) (box_eps q)^2 - U(q) with box_eps q the scale derivative
    of the sampled trajectory; variant: 2m (gamma sum_k dPsi/dq_k / Psi)^2
    + U(q).  Each form gets its own drift statistic.
    """
    p = traj.path
    v_path = scale_derivative_path(p, sp)
    g1 = v_path.grid
    core = g1.core
    ts = g1.nodes()[core]
    qv = _ref_restrict(p, g1)[core]
    vv = v_path.values[core]
    b = Bindings(t=ts, q=tuple(qv.T), v=(), params=prob.params)
    potential = np.broadcast_to(
        np.asarray(evaluate(prob.potential, b), dtype=np.complex128), ts.shape
    )
    v_squared = (vv**2).sum(axis=1)
    theorem = -(0.5 * prob.m) * v_squared - potential
    grad_sum = _ref_log_gradient_sum(prob, ts, tuple(qv.T))
    variant = 2.0 * prob.m * (prob.gamma * grad_sum) ** 2 + potential
    variant = np.broadcast_to(np.asarray(variant, dtype=np.complex128), ts.shape)
    return EnergyReport(
        theorem=_ref_noether_report(ts, np.array(theorem)),
        variant=_ref_noether_report(ts, np.array(variant)),
    )

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalevar import (
    DEFAULT_EPSILONS,
    GridError,
    Path,
    ScalarField,
    ScaleParams,
    ValidationError,
    composite_scale_derivative,
    delta,
    make_grid,
    quadratic_term,
    quantum_derivative,
    quantum_integral,
    sample,
    scale_derivative,
    scale_derivative_path,
    weierstrass,
)
from conftest import dyadic_complex, dyadic_sampled_path, same_bits, ulps_apart

T_SQUARED = Path.from_callable(lambda t: t * t, label="t^2")


def test_scale_params_validation():
    sp = ScaleParams(0.1, "-i")
    assert sp.mu == -1j
    assert ScaleParams(0.5, 1).mu == 1 + 0j
    with pytest.raises(ValidationError):
        ScaleParams(-0.1, 0)
    with pytest.raises(ValidationError):
        ScaleParams(0.1, 2)
    with pytest.raises(ValidationError):
        ScaleParams(0.1, "j")


# ---------------------------------------------------------------------------
# one-sided quotients


def test_delta_of_constant_is_zero():
    p = Path.from_callable(lambda t: 3.0 + 2j)
    for sigma in (+1, -1):
        assert delta(p, 0.37, sigma, 1.1)[0] == 0.0


def test_delta_of_square_both_sides():
    assert delta(T_SQUARED, 0.1, +1, 1.0)[0] == pytest.approx(2.1, abs=1e-12)
    assert delta(T_SQUARED, 0.1, -1, 1.0)[0] == pytest.approx(1.9, abs=1e-12)


def test_delta_of_complex_exponential_closed_form():
    p = Path.from_callable(lambda t: cmath.exp(1j * t))
    for eps, t in ((0.2, 0.0), (0.05, 1.3)):
        expect = cmath.exp(1j * t) * (cmath.exp(1j * eps) - 1.0) / eps
        assert delta(p, eps, +1, t)[0] == pytest.approx(expect, abs=1e-13)


def test_delta_sampled_requires_node_and_multiple():
    g = make_grid(0.0, 1.0, 10, 0.1)
    p = sample(Path.from_callable(lambda t: t), g)
    assert delta(p, 0.1, +1, 0.5)[0] == pytest.approx(1.0)
    with pytest.raises(GridError):
        delta(p, 0.07, +1, 0.5)
    with pytest.raises(GridError):
        delta(p, 0.1, +1, 0.55)


# ---------------------------------------------------------------------------
# scale derivative pointwise


def test_scale_derivative_of_square():
    assert scale_derivative(T_SQUARED, ScaleParams(0.1, 1), 1.0)[0] == pytest.approx(
        2.0 + 0.1j, abs=1e-12
    )
    assert scale_derivative(T_SQUARED, ScaleParams(0.1, 0), 1.0)[0] == pytest.approx(
        2.0, abs=1e-12
    )
    # i*(-i) = 1 collapses the operator onto the forward quotient
    assert scale_derivative(T_SQUARED, ScaleParams(0.1, "-i"), 1.0)[0] == pytest.approx(
        2.1, abs=1e-12
    )


def test_mu_collapse_identities_on_dyadic_paths(rng):
    # mu = -i gives D+, mu = +i gives D-, mu = 0 the half-sum; dyadic data
    # keeps every intermediate exact, so the identities hold to 0 ulps
    for _ in range(50):
        p = dyadic_sampled_path(rng, n_nodes=9)
        g = p.grid
        k = int(rng.integers(2, 7))
        m = int(rng.integers(1, 3))
        t = g.node(k)
        eps = m * g.h
        dplus = delta(p, eps, +1, t)[0]
        dminus = delta(p, eps, -1, t)[0]
        assert ulps_apart(scale_derivative(p, ScaleParams(eps, "-i"), t)[0], dplus) <= 4
        assert ulps_apart(scale_derivative(p, ScaleParams(eps, "i"), t)[0], dminus) <= 4
        assert (
            ulps_apart(scale_derivative(p, ScaleParams(eps, 0), t)[0], 0.5 * (dplus + dminus))
            <= 4
        )


def test_linearity_on_dyadic_paths(rng):
    for _ in range(50):
        pa = dyadic_sampled_path(rng, n_nodes=9)
        pb = dyadic_sampled_path(rng, n_nodes=9)
        alpha, beta = 1.5, -0.75  # dyadic scalars keep the combination exact
        combo = Path.from_samples(pa.grid, alpha * pa.values + beta * pb.values)
        sp = ScaleParams(2.0 * pa.grid.h, "1")
        t = pa.grid.node(4)
        lhs = scale_derivative(combo, sp, t)[0]
        rhs = alpha * scale_derivative(pa, sp, t)[0] + beta * scale_derivative(pb, sp, t)[0]
        assert ulps_apart(lhs, rhs) <= 4


def test_re_im_decomposition_exact(rng):
    # complex arithmetic processes components independently for every
    # admissible mu, so splitting into real and imaginary parts is bitwise
    for _ in range(20):
        p = dyadic_sampled_path(rng, n_nodes=9)
        pre = Path.from_samples(p.grid, p.values.real.astype(complex))
        pim = Path.from_samples(p.grid, p.values.imag.astype(complex))
        t = p.grid.node(4)
        for mu in ("1", "-1", "0", "i", "-i"):
            sp = ScaleParams(p.grid.h, mu)
            whole = scale_derivative(p, sp, t)[0]
            split = scale_derivative(pre, sp, t)[0] + 1j * scale_derivative(pim, sp, t)[0]
            assert whole == split


def test_linearity_generic_values(rng):
    # non-dyadic data: identities hold to rounding
    g = make_grid(0.0, 1.0, 16, 0.25)
    va = rng.standard_normal((g.num_nodes, 1)) + 1j * rng.standard_normal((g.num_nodes, 1))
    vb = rng.standard_normal((g.num_nodes, 1)) + 1j * rng.standard_normal((g.num_nodes, 1))
    pa, pb = Path.from_samples(g, va), Path.from_samples(g, vb)
    combo = Path.from_samples(g, 0.3 * va + 1.7 * vb)
    sp = ScaleParams(g.h, "i")
    t = g.node(8)
    lhs = scale_derivative(combo, sp, t)[0]
    rhs = 0.3 * scale_derivative(pa, sp, t)[0] + 1.7 * scale_derivative(pb, sp, t)[0]
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# vectorized scale derivative


def test_scale_derivative_path_constant_is_zero():
    g = make_grid(0.0, 1.0, 50, 0.1)
    p = sample(Path.from_callable(lambda t: 5.0 - 2j), g)
    dp = scale_derivative_path(p, ScaleParams(2 * g.h, "1"))
    assert np.all(dp.values == 0.0)


def test_scale_derivative_path_identity_is_one():
    g = make_grid(0.0, 1.0, 1024, 2.0**-9)  # dyadic grid: quotients exact
    p = sample(Path.from_callable(lambda t: t), g)
    for mu in ("1", "-1", "0", "i", "-i"):
        dp = scale_derivative_path(p, ScaleParams(g.h, mu))
        assert np.all(dp.values == 1.0)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    mu=st.sampled_from(["1", "-1", "0", "i", "-i"]),
    m=st.integers(1, 3),
    dim=st.integers(1, 3),
    n=st.integers(2, 40),
    extra_pad=st.integers(0, 2),
)
def test_scale_derivative_path_matches_two_quotients_bitwise(seed, mu, m, dim, n, extra_pad):
    # dyadic samples times a random scale, so that most quotients round
    g = make_grid(0.0, 1.0, n, (m + extra_pad) / n)
    rng = np.random.default_rng(seed)
    vals = dyadic_complex(rng, (g.num_nodes, dim)) * rng.uniform(0.5, 2.0)
    for part in (vals.real, vals.imag):  # zeros of either sign in either part
        signs = rng.choice([-1.0, 1.0], vals.shape)
        part[...] = np.where(rng.random(vals.shape) < 0.3, np.copysign(0.0, signs), part)
    sp = ScaleParams(m * g.h, mu)
    got = scale_derivative_path(Path.from_samples(g, vals), sp)
    dplus = (vals[2 * m :] - vals[m:-m]) / sp.epsilon
    dminus = (vals[m:-m] - vals[: -2 * m]) / sp.epsilon
    want = 0.5 * (dplus + dminus) + (0.5j * sp.mu) * (dplus - dminus)
    assert got.grid == g.with_pad_steps(g.pad_steps - m)
    assert same_bits(got.values, want)


def test_scale_derivative_path_of_an_analytic_path():
    g = make_grid(0.0, 1.0, 1024, 2.0**-9)  # dyadic grid: quotients exact
    p = Path.from_callable(lambda t: t, vectorized=True)
    for mu in ("1", "-1", "0", "i", "-i"):
        dp = scale_derivative_path(p, ScaleParams(g.h, mu), grid=g)
        assert dp.grid == g.with_pad_steps(g.pad_steps - 1)
        assert np.all(dp.values == 1.0)
    other = make_grid(0.0, 1.0, 512, 2.0**-9)
    with pytest.raises(GridError, match="grid argument conflicts"):
        scale_derivative_path(sample(p, g), ScaleParams(g.h, "0"), grid=other)


def test_scale_derivative_path_weierstrass_finite():
    w = weierstrass(0.5, 3.0, 1e-12)
    g = make_grid(0.0, 1.0, 100, 0.01)
    ws = sample(w, g)
    sp = ScaleParams(0.01, "1")
    dp = scale_derivative_path(ws, sp)
    assert np.isfinite(dp.values).all()
    # the vectorized sweep agrees bitwise with pointwise calls on the samples
    t = dp.grid.node(dp.grid.pad_steps + 7)
    assert dp.at(t)[0] == scale_derivative(ws, sp, t)[0]
    # and with the analytic path up to its eps-scale sensitivity to t rounding
    assert dp.at(t)[0] == pytest.approx(scale_derivative(w, sp, t)[0], rel=1e-6)


def test_scale_derivative_path_pad_deficit():
    g = make_grid(0.0, 1.0, 100, 0.01)
    p = sample(Path.from_callable(lambda t: t), g)
    with pytest.raises(GridError):
        scale_derivative_path(p, ScaleParams(0.02, "0"))
    with pytest.raises(ValidationError):
        scale_derivative_path(Path.from_callable(lambda t: t), ScaleParams(0.02, "0"))


# ---------------------------------------------------------------------------
# eps -> 0 extraction


def test_quantum_derivative_of_sine():
    p = Path.from_callable(np.sin, vectorized=True)
    report = quantum_derivative(p, "1", [0.1, 0.05, 0.025, 0.0125], 1e-3, t=0.5)
    assert report.converged
    assert abs(report.limit_estimate - math.cos(0.5)) < 1e-4
    # the default sweep resolves the limit much more tightly
    fine = quantum_derivative(p, "1", t=0.5)
    assert fine.converged
    assert abs(fine.limit_estimate - math.cos(0.5)) < 1e-8


def test_quantum_derivative_of_square_mu_zero():
    # the symmetric half-sum cancels the eps term of t^2 at every scale
    report = quantum_derivative(T_SQUARED, "0", t=0.7)
    assert report.converged
    assert abs(report.limit_estimate - 1.4) < 1e-11
    # raw values cancel the eps term; only subtraction noise at tiny eps remains
    assert np.max(np.abs(report.values - 1.4)) < 5e-12


def test_quantum_derivative_weierstrass_does_not_converge():
    w = weierstrass(0.5, 3.0, 1e-12)
    report = quantum_derivative(w, "1", t=0.3)
    assert not report.converged
    # successive differences grow as eps shrinks (exponent alpha - 1 < 0)
    assert report.convergence_rate < 0


def test_quantum_derivative_needs_four_epsilons():
    with pytest.raises(ValidationError):
        quantum_derivative(T_SQUARED, "0", [0.1, 0.05, 0.025], 1e-8, t=0.5)
    with pytest.raises(ValidationError):
        quantum_derivative(T_SQUARED, "0", [0.1, 0.2, 0.05, 0.025], 1e-8, t=0.5)


def test_default_epsilons_are_decreasing():
    assert len(DEFAULT_EPSILONS) >= 4
    assert all(e2 < e1 for e1, e2 in zip(DEFAULT_EPSILONS, DEFAULT_EPSILONS[1:]))


# ---------------------------------------------------------------------------
# quadrature


def test_quantum_integral_square_closed_form():
    # box(t^2) = 2t + i*mu*eps exactly, so the trapezoid integral is 1 + i*eps
    g = make_grid(0.0, 1.0, 100, 0.01)
    p = sample(T_SQUARED, g)
    dp = scale_derivative_path(p, ScaleParams(0.01, "1"))
    total = quantum_integral(dp, g)[0]
    assert total == pytest.approx(1.0 + 0.01j, abs=1e-12)


def test_quantum_integral_zero_path():
    g = make_grid(0.0, 1.0, 100, 0.0)
    dp = Path.from_samples(g, np.zeros(g.num_nodes))
    assert quantum_integral(dp, g)[0] == 0.0


def test_quantum_integral_mismatched_grid():
    g = make_grid(0.0, 1.0, 100, 0.0)
    other = make_grid(0.0, 2.0, 100, 0.0)
    dp = Path.from_samples(g, np.zeros(g.num_nodes))
    with pytest.raises(GridError):
        quantum_integral(dp, other)


def test_endpoint_rule_smooth_paths():
    # |integral(box p) - (p(b) - p(a))| < 1e-3 at eps = h = 1e-3
    g = make_grid(0.0, 1.0, 1000, 0.001)
    sp = ScaleParams(0.001, "0")
    for fn, span in ((lambda t: t * t, 1.0), (np.sin, math.sin(1.0))):
        p = sample(Path.from_callable(fn, vectorized=fn is np.sin), g)
        total = quantum_integral(scale_derivative_path(p, sp), g)[0]
        assert abs(total - span) < 1e-3


def test_endpoint_defect_weierstrass_sweep():
    # measured, not asserted: the endpoint defect for a rough path stays
    # finite over the eps sweep; record the trend for inspection
    w = weierstrass(0.5, 3.0, 1e-12)
    a, b = 0.0, 1.0
    span = w.at(b)[0] - w.at(a)[0]
    defects = []
    for k in (2, 4, 8):
        n = 250 * k
        g = make_grid(a, b, n, 4.0 / n)
        dp = scale_derivative_path(sample(w, g), ScaleParams(1.0 / n, "1"))
        total = quantum_integral(dp, g)[0]
        defects.append(abs(total - span))
    assert all(np.isfinite(d) for d in defects)
    print("endpoint defect sweep (eps = h = 1/250k):", defects)


# ---------------------------------------------------------------------------
# quadratic correction term


def test_quadratic_term_scales_linearly_for_smooth_paths():
    sweeps = np.geomspace(1e-2, 1e-4, 9)
    mags = [abs(quadratic_term(T_SQUARED, ScaleParams(e, "1"), 1, 1, 0.7)) for e in sweeps]
    slope = np.polyfit(np.log(sweeps), np.log(mags), 1)[0]
    assert abs(slope - 1.0) < 0.1


def test_quadratic_term_weierstrass_scaling():
    # |a_11| of a rough path follows eps^(2*alpha - 1)
    w = weierstrass(0.5, 3.0, 1e-12)
    alpha = w.meta["holder_alpha"]
    sweeps = np.geomspace(1e-2, 1e-4, 9)
    ts = np.linspace(0.05, 0.95, 200)
    mags = []
    for e in sweeps:
        sp = ScaleParams(e, "0")
        mags.append(max(abs(quadratic_term(w, sp, 1, 1, t)) for t in ts[::20]))
    slope = np.polyfit(np.log(sweeps), np.log(mags), 1)[0]
    assert abs(slope - (2 * alpha - 1)) < 0.2
    # magnitude is finite and nonzero at eps = 1e-3
    val = abs(quadratic_term(w, ScaleParams(1e-3, "0"), 1, 1, 0.3))
    assert 0.0 < val < 10.0


def test_quadratic_term_vanishes_with_constant_component():
    def fn(ts):
        return np.stack([np.full_like(ts, 2.0), np.sin(ts)], axis=1)

    p = Path.from_callable(fn, dim=2, vectorized=True)
    assert quadratic_term(p, ScaleParams(0.01, "0"), 1, 2, 0.4) == 0.0
    with pytest.raises(ValidationError):
        quadratic_term(p, ScaleParams(0.01, "0"), 0, 2, 0.4)
    with pytest.raises(ValidationError):
        quadratic_term(p, ScaleParams(0.01, "0"), 1, 3, 0.4)


# ---------------------------------------------------------------------------
# composite rule


def test_composite_identity_field_reduces_to_scale_derivative():
    field = ScalarField.from_text("q1", 1)
    sp = ScaleParams(0.05, "i")
    got = composite_scale_derivative(field, T_SQUARED, sp, 0.8)
    assert got == pytest.approx(scale_derivative(T_SQUARED, sp, 0.8)[0], abs=1e-14)


def test_composite_pure_time_field():
    field = ScalarField.from_text("t", 1)
    for p in (T_SQUARED, weierstrass(0.5, 3.0, 1e-12)):
        got = composite_scale_derivative(field, p, ScaleParams(0.01, "1"), 0.4)
        assert got == pytest.approx(1.0, abs=1e-12)


def test_composite_square_field_matches_direct_linear_path():
    # f(x) = x^2, p(t) = t, eps = 0.1, mu = 0: both routes give exactly 2
    field = ScalarField.from_text("q1^2", 1)
    p = Path.from_callable(lambda t: t)
    sp = ScaleParams(0.1, "0")
    composite = composite_scale_derivative(field, p, sp, 1.0)
    direct = scale_derivative(Path.from_callable(lambda t: t * t), sp, 1.0)[0]
    assert composite == pytest.approx(2.0, abs=1e-13)
    assert composite == pytest.approx(direct, abs=1e-13)


def test_composite_square_field_matches_direct_rough_path():
    w = weierstrass(0.5, 3.0, 1e-12)
    squared = Path.from_callable(lambda ts: w.at_many(ts)[:, 0] ** 2, vectorized=True)
    field = ScalarField.from_text("q1^2", 1)
    sp = ScaleParams(1e-3, "0")
    for t in (0.2, 0.55, 0.9):
        got = composite_scale_derivative(field, w, sp, t)
        want = scale_derivative(squared, sp, t)[0]
        assert abs(got - want) <= 0.05 * max(1e-30, abs(want))


def test_composite_requires_hessian():
    class NoHessian:
        dim = 1

        def time_derivative(self, t, q):
            return 0.0

        def gradient(self, t, q):
            return np.zeros(1)

        hessian = None

    with pytest.raises(ValidationError):
        composite_scale_derivative(NoHessian(), T_SQUARED, ScaleParams(0.1, "0"), 0.5)


# ---------------------------------------------------------------------------
# product rule at finite scale


def _weier_pair():
    f = weierstrass(3.0**-0.63, 3.0, 1e-10)
    g = weierstrass(3.0**-0.63, 3.0, 1e-10)
    return f, g


def test_product_rule_cross_term_closed_form():
    # box(fg) - box(f) g - f box(g) equals
    # (eps/2)[(D+f)(D+g)(1+i*mu) - (D-f)(D-g)(1-i*mu)] for every admissible mu
    f, g = _weier_pair()
    fg = Path.from_callable(
        lambda ts: f.at_many(ts)[:, 0] * g.at_many(ts)[:, 0], vectorized=True
    )
    eps, t = 1e-3, 0.371
    for mu in ("1", "-1", "0", "i", "-i"):
        sp = ScaleParams(eps, mu)
        lhs = (
            scale_derivative(fg, sp, t)[0]
            - scale_derivative(f, sp, t)[0] * g.at(t)[0]
            - f.at(t)[0] * scale_derivative(g, sp, t)[0]
        )
        dpf, dmf = delta(f, eps, +1, t)[0], delta(f, eps, -1, t)[0]
        dpg, dmg = delta(g, eps, +1, t)[0], delta(g, eps, -1, t)[0]
        muz = ScaleParams(eps, mu).mu
        rhs = (eps / 2.0) * (dpf * dpg * (1 + 1j * muz) - dmf * dmg * (1 - 1j * muz))
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))

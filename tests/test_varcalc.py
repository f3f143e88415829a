import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scalevar import lagdsl
from scalevar import (
    GridError,
    LagrangianSpec,
    NumericalError,
    Path,
    ScalarField,
    ScaleParams,
    SchrodingerProblem,
    SymmetrySpec,
    Trajectory,
    ValidationError,
    composite_scale_derivative,
    dubois_reymond_residual,
    energy_constant,
    euler_lagrange_residual,
    evaluate_functional,
    functional_integrand,
    integrate_trajectory,
    invariance_derivative,
    invariance_integrand,
    invariance_integrand_integral,
    make_grid,
    noether_constant,
    schrodinger_residual,
    velocity_field,
)
from conftest import (
    dyadic_complex,
    reference_dubois_reymond_residual,
    reference_energy_constant,
    reference_euler_lagrange_residual,
    reference_functional_integrand,
    reference_invariance_derivative,
    reference_invariance_integrand,
    reference_invariance_integrand_integral,
    reference_noether_constant,
    same_bits,
    sampled,
)

FREE = LagrangianSpec.from_text("0.5*v1^2")
OSC = LagrangianSpec.from_text("0.5*v1^2 - 0.5*q1^2")
TIME_SHIFT = SymmetrySpec.from_text("1", "0")
SPACE_SHIFT = SymmetrySpec.from_text("0", "1")

# dyadic grid: h = 2^-10 keeps the identity path's quotients exact
DYADIC = make_grid(0.0, 1.0, 1024, 4.0 * 2.0**-10)
SP_DYADIC = ScaleParams(2.0**-10, "0")

OSC_GRID = make_grid(0.0, 1.0, 2000, 0.004)
SP_FINE = ScaleParams(1e-3, "0")


def _linear(grid=DYADIC):
    return sampled(lambda ts: ts.astype(complex), grid)


def _cos(grid=OSC_GRID):
    return sampled(np.cos, grid)


# ---------------------------------------------------------------------------
# action evaluation


def test_functional_of_linear_path_is_exact():
    # box(t) = 1 exactly on the dyadic grid, so the integrand is exactly 1
    Lg = LagrangianSpec.from_text("v1^2")
    assert evaluate_functional(Lg, _linear(), SP_DYADIC) == 1.0 + 0j


def test_functional_of_position_lagrangian():
    Lg = LagrangianSpec.from_text("q1")
    value = evaluate_functional(Lg, _linear(), SP_DYADIC)
    assert abs(value - 0.5) < DYADIC.h**2


def test_functional_of_zero_lagrangian():
    Lg = LagrangianSpec.from_text("0")
    assert evaluate_functional(Lg, _linear(), SP_DYADIC) == 0.0


def test_functional_shift_by_constant_is_exact():
    base = evaluate_functional(FREE, _linear(), SP_DYADIC)
    shifted = evaluate_functional(
        LagrangianSpec.from_text("0.5*v1^2+2.5"), _linear(), SP_DYADIC
    )
    assert shifted == base + 2.5 * (DYADIC.b - DYADIC.a)


def test_functional_requires_sampled_path():
    with pytest.raises(ValidationError):
        evaluate_functional(FREE, Path.from_callable(lambda t: t), SP_DYADIC)


def test_functional_pad_deficit():
    g = make_grid(0.0, 1.0, 100, 0.0)
    with pytest.raises(GridError):
        evaluate_functional(FREE, _linear(g), ScaleParams(g.h, "0"))


# ---------------------------------------------------------------------------
# extremal residual


def test_el_residual_free_particle_is_exactly_zero():
    report = euler_lagrange_residual(FREE, _linear(), SP_DYADIC)
    assert report.max_abs == 0.0
    assert report.l2 == 0.0
    # window [a+eps, b-eps]
    assert report.node_times[0] == pytest.approx(DYADIC.a + SP_DYADIC.epsilon)
    assert report.node_times[-1] == pytest.approx(DYADIC.b - SP_DYADIC.epsilon)


def test_el_residual_oscillator_extremal():
    report = euler_lagrange_residual(OSC, _cos(), SP_FINE)
    assert report.max_abs < 1e-4


def test_el_residual_flags_non_extremal():
    # L = v^2/2 with p = t^2: the residual is the constant -2
    p = sampled(lambda ts: (ts**2).astype(complex), DYADIC)
    report = euler_lagrange_residual(FREE, p, ScaleParams(2.0**-10, "1"))
    assert np.allclose(report.residuals, -2.0, atol=1e-9)


def test_el_residual_needs_double_padding():
    g = make_grid(0.0, 1.0, 1000, 0.001)
    with pytest.raises(GridError, match="2\\*epsilon"):
        euler_lagrange_residual(FREE, _linear(g), ScaleParams(0.001, "0"))


def test_el_dimension_mismatch():
    p2 = sampled(lambda ts: np.stack([ts, ts], axis=1).astype(complex), DYADIC, dim=2)
    with pytest.raises(ValidationError, match="dimension"):
        euler_lagrange_residual(FREE, p2, SP_DYADIC)


# ---------------------------------------------------------------------------
# energy balance residual


def test_dbr_residual_free_particle_is_exactly_zero():
    report = dubois_reymond_residual(FREE, _linear(), SP_DYADIC)
    assert report.max_abs == 0.0


def test_dbr_residual_time_dependent_lagrangian():
    # L = t*v1 along p = t: energy is identically zero, dL/dt = v1 = 1
    Lg = LagrangianSpec.from_text("t*v1")
    report = dubois_reymond_residual(Lg, _linear(), SP_DYADIC)
    assert np.allclose(report.residuals, -1.0, atol=1e-12)


def test_dbr_residual_oscillator_extremal():
    report = dubois_reymond_residual(OSC, _cos(), SP_FINE)
    assert report.max_abs < 1e-3


# ---------------------------------------------------------------------------
# invariance


def test_invariance_time_translation_of_autonomous_lagrangian():
    for p in (_linear(), sampled(lambda ts: (ts**2).astype(complex), DYADIC)):
        assert abs(invariance_derivative(FREE, p, TIME_SHIFT, SP_DYADIC)) < 1e-10
        assert abs(invariance_integrand_integral(FREE, p, TIME_SHIFT, SP_DYADIC)) == 0.0


def test_invariance_space_translation_of_free_particle():
    assert abs(invariance_derivative(FREE, _linear(), SPACE_SHIFT, SP_DYADIC)) < 1e-10


def test_non_invariance_detected_for_oscillator_translation():
    p = _cos()
    got = invariance_derivative(OSC, p, SPACE_SHIFT, SP_FINE)
    # d/ds integral(L(q + s)) at 0 is -integral(q) = -sin(1)
    assert abs(got + math.sin(1.0)) < 1e-3
    assert abs(got) > 0.1


def test_invariance_example_with_position_momentum_coupling():
    Lg = LagrangianSpec.from_text("q1*v1")
    got = invariance_integrand_integral(Lg, _linear(), SPACE_SHIFT, SP_DYADIC)
    assert abs(got - 1.0) < 1e-10


def test_invariance_lemma_agreement_corpus():
    # the two routes to the first variation agree to s_step^2 + quadrature
    cases = [
        (FREE, _linear(), TIME_SHIFT, SP_DYADIC),
        (FREE, _linear(), SPACE_SHIFT, SP_DYADIC),
        (OSC, _cos(), TIME_SHIFT, SP_FINE),
        (OSC, _cos(), SPACE_SHIFT, SP_FINE),
        (
            LagrangianSpec.from_text("q1*v1"),
            _linear(),
            SymmetrySpec.from_text("t", "q1"),
            SP_DYADIC,
        ),
    ]
    for Lg, p, sym, sp in cases:
        a = invariance_derivative(Lg, p, sym, sp)
        b = invariance_integrand_integral(Lg, p, sym, sp)
        assert abs(a - b) < 1e-6


def test_invariance_denominator_guard():
    # box(tau) = 1 along tau = t, so s near -1/box(tau) collapses 1 + s*box(tau)
    sym = SymmetrySpec.from_text("t", "0", s_step=0.1)
    g = make_grid(0.0, 1.0, 100, 0.02)
    p = sampled(lambda ts: ts.astype(complex), g)
    big = ScaleParams(g.h, "0")
    # box(tau) = -10 along tau = -10*t, so 1 + s*box(tau) vanishes at s = 0.1
    wild = SymmetrySpec.from_text("-10*t", "0", s_step=0.1)
    with pytest.raises(NumericalError, match="1 \\+ s\\*box"):
        invariance_derivative(FREE, p, wild, big)
    assert np.isfinite(abs(invariance_derivative(FREE, p, sym, big)))


# ---------------------------------------------------------------------------
# conserved quantities


def test_noether_free_particle_energy():
    report = noether_constant(FREE, _linear(), TIME_SHIFT, SP_DYADIC)
    assert report.mean == -0.5 + 0j
    assert report.drift == 0.0


def test_noether_free_particle_momentum():
    report = noether_constant(FREE, _linear(), SPACE_SHIFT, SP_DYADIC)
    assert report.mean == 1.0 + 0j
    assert report.drift == 0.0


def test_noether_non_extremal_drifts():
    p = sampled(lambda ts: (ts**2).astype(complex), DYADIC)
    report = noether_constant(FREE, p, TIME_SHIFT, SP_DYADIC)
    assert report.drift > 0.1


def test_noether_oscillator_energy():
    report = noether_constant(OSC, _cos(), TIME_SHIFT, SP_FINE)
    assert abs(report.mean + 0.5) < 1e-3
    assert report.drift < 1e-3


def test_noether_soundness_bound():
    # along near-extremals of near-invariant actions the drift stays below
    # K*(residual + eps); K = 1.0 calibrated on this corpus (max observed
    # ratio is a few 1e-4 over (delta + eps) ~ 1e-3)
    K = 1.0
    q_free = LagrangianSpec.from_text("0.5*v1^2 + v1")  # q-independent, autonomous
    corpus = [
        (FREE, _linear(), TIME_SHIFT, SP_DYADIC),
        (FREE, _linear(), SPACE_SHIFT, SP_DYADIC),
        (OSC, _cos(), TIME_SHIFT, SP_FINE),
        (q_free, _linear(), TIME_SHIFT, SP_DYADIC),
        (q_free, _linear(), SPACE_SHIFT, SP_DYADIC),
    ]
    for Lg, p, sym, sp in corpus:
        delta_el = euler_lagrange_residual(Lg, p, sp).max_abs
        delta_inv = abs(invariance_derivative(Lg, p, sym, sp))
        delta = max(delta_el, delta_inv)
        drift = noether_constant(Lg, p, sym, sp).drift
        assert drift < K * (delta + sp.epsilon)


def test_dbr_implied_on_extremals():
    # whenever the extremal residual is small the energy balance follows
    K = 1.0
    for Lg, p, sp in ((FREE, _linear(), SP_DYADIC), (OSC, _cos(), SP_FINE)):
        delta = euler_lagrange_residual(Lg, p, sp).max_abs
        dbr = dubois_reymond_residual(Lg, p, sp).max_abs
        assert dbr < K * (delta + sp.epsilon)


def test_classical_reduction_oscillator():
    # all five operations approach the classical values as eps shrinks
    classical_action = -math.sin(2.0) / 4.0  # integral of -cos(2t)/2 over [0,1]
    errors = []
    for m in (4, 2, 1):
        sp = ScaleParams(m * OSC_GRID.h, "0")
        p = _cos()
        errors.append(
            (
                abs(evaluate_functional(OSC, p, sp) - classical_action),
                euler_lagrange_residual(OSC, p, sp).max_abs,
                dubois_reymond_residual(OSC, p, sp).max_abs,
                abs(invariance_derivative(OSC, p, TIME_SHIFT, sp)),
                abs(noether_constant(OSC, p, TIME_SHIFT, sp).mean + 0.5),
            )
        )
    finest = errors[-1]
    assert finest[0] < 1e-3
    assert finest[1] < 1e-4 and finest[2] < 1e-4
    assert finest[3] < 1e-10
    assert finest[4] < 1e-4
    # the eps-dependent errors shrink with eps
    assert errors[2][1] < errors[0][1]
    assert errors[2][2] < errors[0][2]


# ---------------------------------------------------------------------------
# spec validation


def test_symmetry_spec_rejects_velocities():
    with pytest.raises(ValidationError, match="^symmetry generators may not reference velocity variables$"):
        SymmetrySpec.from_text("v1", "0")
    with pytest.raises(ValidationError):
        SymmetrySpec.from_text("1", "v1")


def test_symmetry_spec_s_step_range():
    for s_step in (0.5, 0.0, 1e-14, 1e-300):
        with pytest.raises(ValidationError, match="s_step"):
            SymmetrySpec.from_text("1", "0", s_step=s_step)
    low, high = SymmetrySpec.S_STEP_RANGE
    assert (low, high) == (1e-8, 0.1)
    for s_step in (low, high):
        assert SymmetrySpec.from_text("1", "0", s_step=s_step).s_step == s_step


def test_programs_are_built_when_the_specs_are(monkeypatch):
    built = []
    program = lagdsl._program
    monkeypatch.setattr(lagdsl, "_program", lambda roots, joint: built.append(roots) or program(roots, joint))
    Lg = LagrangianSpec.from_text("0.5*v1^2 - 0.5*q1^2 + 0.1*t*q1")
    sym = SymmetrySpec.from_text("1", "0.5 + t")
    gauss = SchrodingerProblem("exp(-q1^2/2)*exp(-i*t/2)", "0.5*q1^2", 1.0, 1.0)
    node = SchrodingerProblem("ln(q1)", "0", 1.0, 1.0)
    field = ScalarField.from_text("q1^2*t + sin(q1)", 1)
    assert built
    built.clear()
    p, sp = _cos(), SP_FINE
    evaluate_functional(Lg, p, sp)
    euler_lagrange_residual(Lg, p, sp)
    dubois_reymond_residual(Lg, p, sp)
    invariance_derivative(Lg, p, sym, sp)
    invariance_integrand_integral(Lg, p, sym, sp)
    noether_constant(Lg, p, sym, sp)
    grid = make_grid(0.0, 0.5, 50, 0.02)
    traj = integrate_trajectory(gauss, [0.5], grid)
    energy_constant(gauss, traj, ScaleParams(0.01, "0"))
    schrodinger_residual(gauss, np.linspace(0.0, 1.0, 5), np.linspace(-1.0, 1.0, 5))
    gauss.psi_values(0.3, [0.2])
    velocity_field(gauss, 0.3, [0.2])
    with pytest.raises(NumericalError, match="ln"):  # Psi fails on its own, as reported
        velocity_field(node, 0.0, [0.0])
    for method in (field.value, field.time_derivative, field.gradient, field.hessian):
        method(0.3, [0.2])
    composite_scale_derivative(field, p, sp, 0.5)
    assert built == []


def test_lagrangian_partials_are_consistent():
    Lg = LagrangianSpec.from_text("0.5*v1^2 - 0.5*q1^2 + t*q1", 1)
    from scalevar.lagdsl import diff

    assert Lg.dL_dt == diff(Lg.L, "t")
    assert Lg.grad_q[0] == diff(Lg.L, "q1")
    assert Lg.grad_v[0] == diff(Lg.L, "v1")


def test_two_dimensional_paths_supported():
    g = make_grid(0.0, 1.0, 512, 8.0 / 512)
    p = sampled(lambda ts: np.stack([ts, ts**2], axis=1).astype(complex), g, dim=2)
    Lg = LagrangianSpec.from_text("0.5*v1^2 + 0.5*v2^2 - q1*q2", 2)
    sp = ScaleParams(2.0 / 512, "0")
    report = euler_lagrange_residual(Lg, p, sp)
    assert report.residuals.shape[1] == 2
    sym = SymmetrySpec.from_text("1", ["0", "0"], dim=2)
    out = noether_constant(Lg, p, sym, sp)
    assert np.isfinite(out.drift)


# ---------------------------------------------------------------------------
# bitwise agreement with the reference reports


def _sum_over(d, term):
    return " + ".join(term(k) for k in range(1, d + 1))


# Lagrangians, symmetry generators and wavefunctions over d components
LAGRANGIANS = (
    lambda d: "0.5*(" + _sum_over(d, lambda k: f"v{k}^2") + ") - 0.5*q1^2",
    lambda d: f"t*q1*v{d} + sin(q{d}) - 0.25*v1*q1",
    lambda d: "exp(0.125*q1)*(" + _sum_over(d, lambda k: f"v{k}*q{k}") + ") + cos(t)",
)
GENERATORS = (("1", lambda k: "0"), ("0", lambda k: "1"), ("t", lambda k: f"0.5*q{k}"))


def same_result(x, y) -> bool:
    """Bitwise identity of reports (field by field), tuples and plain values."""
    if dataclasses.is_dataclass(x):
        return type(x) is type(y) and all(
            same_result(getattr(x, f.name), getattr(y, f.name)) for f in dataclasses.fields(x)
        )
    if isinstance(x, tuple):
        return isinstance(y, tuple) and len(x) == len(y) and all(map(same_result, x, y))
    return same_bits(x, y)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 3),
    mu=st.sampled_from(["1", "-1", "0", "i", "-i"]),
    steps=st.integers(1, 3),
    extra_pad=st.integers(0, 2),
    n=st.integers(8, 24),
    lagrangian=st.sampled_from(LAGRANGIANS),
    generator=st.sampled_from(GENERATORS),
)
def test_reports_match_reference_bitwise(seed, dim, mu, steps, extra_pad, n, lagrangian, generator):
    h = 2.0**-6
    pad_steps = 2 * steps + extra_pad
    grid = make_grid(0.0, n * h, n, pad_steps * h)
    rng = np.random.default_rng(seed)
    p = Path.from_samples(grid, dyadic_complex(rng, (grid.num_nodes, dim)))
    sp = ScaleParams(steps * h, mu)
    Lg = LagrangianSpec.from_text(lagrangian(dim), dim=dim)
    tau, xi = generator
    sym = SymmetrySpec.from_text(tau, [xi(k) for k in range(1, dim + 1)], dim=dim)
    pairs = [
        (euler_lagrange_residual, reference_euler_lagrange_residual, (Lg, p, sp)),
        (dubois_reymond_residual, reference_dubois_reymond_residual, (Lg, p, sp)),
        (functional_integrand, reference_functional_integrand, (Lg, p, sp)),
        (invariance_integrand, reference_invariance_integrand, (Lg, p, sym, sp)),
        (invariance_integrand_integral, reference_invariance_integrand_integral, (Lg, p, sym, sp)),
        (invariance_derivative, reference_invariance_derivative, (Lg, p, sym, sp)),
        (noether_constant, reference_noether_constant, (Lg, p, sym, sp)),
    ]
    for fn, ref, args in pairs:
        assert same_result(fn(*args), ref(*args)), fn.__name__
    psi = "exp(-0.25*(" + _sum_over(dim, lambda k: f"q{k}^2") + ") - 0.5*i*t)"
    prob = SchrodingerProblem(psi, "0.5*q1^2", 1.0, 1.0, dim=dim)
    traj = Trajectory(path=p, q0=p.values[pad_steps], grid=grid)
    assert same_result(energy_constant(prob, traj, sp), reference_energy_constant(prob, traj, sp))


def test_el_residual_keeps_negative_zeros():
    # box(momentum) - dL/dq is +0.0 along a linear path; the residual is its
    # negation, so every real and imaginary part is -0.0, as the CSV prints it
    got = euler_lagrange_residual(FREE, _linear(), SP_DYADIC)
    assert same_result(got, reference_euler_lagrange_residual(FREE, _linear(), SP_DYADIC))
    assert np.signbit(got.residuals.real).all() and np.signbit(got.residuals.imag).all()


def _complex_parts(re, im):
    """A complex array with exactly these real and imaginary parts, signs of zeros kept."""
    z = np.empty(re.shape, dtype=np.complex128)
    z.real, z.imag = re, im
    return z


# Lagrangians whose values and momenta vanish on the zero-heavy paths below
ZERO_LAGRANGIANS = LAGRANGIANS + (
    lambda d: "0.5*(" + _sum_over(d, lambda k: f"v{k}^2") + ")",
    lambda d: _sum_over(d, lambda k: f"q{k}*v{k}^2"),
    lambda d: "-0.5*(" + _sum_over(d, lambda k: f"v{k}^2") + ")",
    lambda d: "-(" + _sum_over(d, lambda k: f"q{k}*v{k}^2") + ")",
)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("mu", ["1", "-1", "0", "i", "-i"])
def test_energy_term_matches_reference_on_signed_zeros(mu, dim):
    # The DuBois-Reymond and Noether reports share one energy term L - dL/dv . v.
    # On integer-valued real paths with repeated values and zeros, and on paths
    # made of zeros of either sign, L, the momenta and their products are signed
    # zeros at many nodes; the reports stay bitwise equal to the reference ones.
    h = 2.0**-6
    grid = make_grid(0.0, 8 * h, 8, 4 * h)
    sp = ScaleParams(2 * h, mu)
    rng = np.random.default_rng(dim)
    shape = (grid.num_nodes, dim)
    signed_zeros = lambda: np.copysign(0.0, rng.choice([-1.0, 1.0], shape))
    paths = []
    for _ in range(3):
        paths.append(_complex_parts(rng.integers(-2, 3, shape).astype(float), np.zeros(shape)))
        paths.append(_complex_parts(signed_zeros(), signed_zeros()))
    for lagrangian in ZERO_LAGRANGIANS:
        Lg = LagrangianSpec.from_text(lagrangian(dim), dim=dim)
        for values in paths:
            p = Path.from_samples(grid, values)
            got = dubois_reymond_residual(Lg, p, sp)
            assert same_result(got, reference_dubois_reymond_residual(Lg, p, sp))
            for tau, xi in GENERATORS:
                sym = SymmetrySpec.from_text(tau, [xi(k) for k in range(1, dim + 1)], dim=dim)
                got = noether_constant(Lg, p, sym, sp)
                assert same_result(got, reference_noether_constant(Lg, p, sym, sp))


def test_energy_term_from_four_components_sums_in_numpy_order():
    # numpy sums a row of four or more complex terms pairwise, where the reference
    # DuBois-Reymond report adds them one by one, so the two may differ in the last bits
    dim = 4
    grid = make_grid(0.0, 1.0, 32, 4 / 32)
    p = Path.from_samples(grid, dyadic_complex(np.random.default_rng(4), (grid.num_nodes, dim)))
    sp = ScaleParams(2 / 32, "0")
    Lg = LagrangianSpec.from_text(LAGRANGIANS[2](dim), dim=dim)
    got = dubois_reymond_residual(Lg, p, sp).residuals
    want = reference_dubois_reymond_residual(Lg, p, sp).residuals
    # last-bit differences of an energy term of size 1, divided by epsilon
    assert np.max(np.abs(got - want)) <= 1e-12
    sym = SymmetrySpec.from_text("1", ["0"] * dim, dim=dim)
    assert same_result(noether_constant(Lg, p, sym, sp), reference_noether_constant(Lg, p, sym, sp))

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import reference_evaluate, same_bits
from scalevar import (
    Bindings,
    ExpressionError,
    LagrangianSpec,
    NumericalError,
    ScaleParams,
    SchrodingerProblem,
    SymmetrySpec,
    TimeGrid,
    ValidationError,
    energy_constant,
    integrate_trajectory,
    kinetic_coefficient_identity_gap,
    make_grid,
    noether_constant,
    schrodinger_residual,
    velocity_field,
)
from scalevar import lagdsl, schrodinger

# plane wave with k = 2 and the matching dispersion omega = k^2/2 (hbar = m = 1)
PLANE = SchrodingerProblem("exp(i*(2*q1 - 2*t))", "0", 1.0, 1.0)
# harmonic ground state with unit frequency and energy 1/2
GAUSS = SchrodingerProblem("exp(-q1^2/2)*exp(-i*t/2)", "0.5*q1^2", 1.0, 1.0)

GRID = make_grid(0.0, 1.0, 1000, 0.002)
SP = ScaleParams(0.001, "0")


def _probe_lattice():
    ts = np.repeat(np.linspace(0.0, 1.0, 9), 9)
    qs = np.tile(np.linspace(-2.0, 2.0, 9), 9)
    return ts, qs


# ---------------------------------------------------------------------------
# wave equation residual


def test_plane_wave_solves_equation():
    ts, qs = _probe_lattice()
    report = schrodinger_residual(PLANE, ts, qs)
    assert report.max_abs < 1e-12


def test_gaussian_ground_state_solves_equation():
    ts, qs = _probe_lattice()
    report = schrodinger_residual(GAUSS, ts, qs)
    assert report.max_abs < 1e-12


def test_wrong_dispersion_detected():
    bad = SchrodingerProblem("exp(i*(2*q1 - 1.5*t))", "0", 1.0, 1.0)
    report = schrodinger_residual(bad, np.array([0.2]), np.array([0.0]))
    # linear in the time derivative: |omega - k^2/2| * |Psi|
    assert report.max_abs == pytest.approx(0.5, abs=1e-12)


def test_residual_floor_guard():
    # the Gaussian collapses below the magnitude floor far from the origin
    with pytest.raises(NumericalError, match="magnitude"):
        schrodinger_residual(GAUSS, np.array([0.0]), np.array([12.0]))


# ---------------------------------------------------------------------------
# velocity field


def test_plane_wave_velocity_constant():
    # gradient of ln(psi) is i*k, so v = -2i*gamma*(i*k) = hbar*k/m = 2
    for t, q in ((0.0, 0.0), (0.7, 1.3), (0.2, -0.4 + 0.1j)):
        assert velocity_field(PLANE, t, [q])[0] == pytest.approx(2.0, abs=1e-12)


def test_gaussian_velocity_is_rotation_field():
    for q in (1.0, 0.3 - 0.2j):
        assert velocity_field(GAUSS, 0.1, [q])[0] == pytest.approx(1j * q, abs=1e-12)


def test_velocity_zero_when_psi_position_independent():
    prob = SchrodingerProblem("exp(-i*t)", "0", 1.0, 1.0)
    assert velocity_field(prob, 0.3, [0.8])[0] == 0.0


def test_energy_forms_have_one_sample_per_node_for_constant_psi_and_potential():
    # neither form depends on t or q here; both must still be sampled per node
    prob = SchrodingerProblem("1", "0", 1.0, 1.0)
    energy = energy_constant(prob, integrate_trajectory(prob, [0.5], GRID), SP)
    assert energy.theorem.constant_samples.shape == (GRID.n + 1,)
    assert energy.variant.constant_samples.shape == (GRID.n + 1,)


def test_velocity_invariant_under_rescaling():
    # the quotient form cancels any constant prefactor of the wavefunction
    for lam in ("2", "(0.3+0.4*i)", "1.7"):
        scaled = SchrodingerProblem(f"{lam}*exp(i*(2*q1 - 2*t))", "0", 1.0, 1.0)
        base = velocity_field(PLANE, 0.4, [0.9])[0]
        assert velocity_field(scaled, 0.4, [0.9])[0] == pytest.approx(base, rel=1e-13)
    doubled = SchrodingerProblem("2*exp(i*(2*q1 - 2*t))", "0", 1.0, 1.0)
    assert velocity_field(doubled, 0.4, [0.9])[0] == velocity_field(PLANE, 0.4, [0.9])[0]


@pytest.mark.parametrize(
    "prob",
    [
        PLANE,
        GAUSS,
        SchrodingerProblem("exp(-(q1^2 + 2*q2^2)/2)*exp(-i*1.5*t)", "0", 1.0, 1.0, dim=2),
        SchrodingerProblem("(q1 + k)*exp(i*q1*t)", "0", 0.7, 1.3, params={"k": 0.5 - 0.25j}),
    ],
    ids=["plane", "gauss", "2-D", "params"],
)
def test_velocity_field_matches_reference_walk_bitwise(prob):
    for t, q in ((0.0, 0.3), (0.7, -1.2 + 0.4j), (-0.4, 2.5 - 0.1j)):
        q = [q, -q / 2][: prob.dim]
        b = Bindings(t=t, q=tuple(q), v=(), params=prob.params)
        psi = reference_evaluate(prob.psi, b)
        want = np.array(
            [-2j * prob.gamma * reference_evaluate(dq, b) / psi for dq in prob.psi_q],
            dtype=np.complex128,
        )
        assert velocity_field(prob, t, q).tobytes() == want.tobytes()


def test_psi_collapse_is_reported_before_its_gradient_fails():
    # at q1 = 0 psi is 0, and its gradient 1/(2*sqrt(q1)) divides by zero
    root = SchrodingerProblem("sqrt(q1)*exp(-i*t)", "0", 1.0, 1.0)
    with pytest.raises(NumericalError, match="magnitude"):
        velocity_field(root, 0.0, [0.0])
    with pytest.raises(NumericalError, match="magnitude"):
        integrate_trajectory(root, [0.0], GRID)
    with pytest.raises(NumericalError, match="magnitude"):
        schrodinger_residual(root, np.array([0.0, 0.5]), np.array([1.0, 0.0]))


def test_floor_check_takes_an_overflowing_psi():
    # psi is finite, but Python's complex abs of it raises OverflowError
    huge = SchrodingerProblem("(1.5e308+1.5e308*i)*q1", "0", 1.0, 1.0)
    with pytest.raises(OverflowError):
        abs(complex(1.5e308, 1.5e308))
    assert huge.psi_values(0.0, [1.0]) == complex(1.5e308, 1.5e308)


def test_a_wrong_component_count_is_named():
    two = SchrodingerProblem("exp(-(q1^2 + q2^2)/2)", "0", 1.0, 1.0, dim=2)
    for prob, q in ((GAUSS, [0.5, 1.0]), (GAUSS, []), (two, [0.5]), (two, [0.5, 1.0, 2.0])):
        message = f"^position has {len(q)} components, expected {prob.dim}$"
        with pytest.raises(ValidationError, match=message):
            prob.psi_values(0.0, q)
        with pytest.raises(ValidationError, match=message):
            velocity_field(prob, 0.0, q)
        with pytest.raises(ValidationError, match=message):
            integrate_trajectory(prob, q, GRID)


def test_a_problem_is_generated_in_three_emitter_passes(monkeypatch):
    built = []
    monkeypatch.setattr(lagdsl, "_program", lambda *args: pytest.fail("a Bindings program was built"))
    generate = schrodinger.generate
    monkeypatch.setattr(schrodinger, "generate", lambda roots, *rest: built.append(roots) or generate(roots, *rest))
    prob = SchrodingerProblem("exp(-q1^2/2)*exp(-i*t/2)", "0.5*q1^2", 1.0, 1.0)
    assert [len(roots) for roots in built] == [1, 2, 4]
    assert built[0][0] is prob.potential and built[1][0] is prob.psi and built[2][0] is prob.psi


def test_velocity_requires_nonzero_psi():
    node = SchrodingerProblem("q1*exp(-i*t)", "0", 1.0, 1.0)
    with pytest.raises(NumericalError):
        velocity_field(node, 0.0, [0.0])


# ---------------------------------------------------------------------------
# trajectory integration


def test_plane_wave_trajectory_is_linear():
    traj = integrate_trajectory(PLANE, [0.0], GRID)
    ts = GRID.nodes()
    assert np.max(np.abs(traj.path.values[:, 0] - 2.0 * ts)) < 1e-10
    assert traj.path.at(GRID.a)[0] == 0.0  # anchored at t = a


def test_gaussian_trajectory_matches_exponential():
    traj = integrate_trajectory(GAUSS, [1.0], GRID)
    ts = GRID.nodes()
    exact = np.exp(1j * ts)
    assert np.max(np.abs(traj.path.values[:, 0] - exact)) < 1e-8


def test_rk4_error_drops_sixteenfold():
    errors = []
    for n in (25, 50):
        g = make_grid(0.0, 1.0, n, 0.0)
        traj = integrate_trajectory(GAUSS, [1.0], g)
        exact = np.exp(1j * g.nodes())
        errors.append(np.max(np.abs(traj.path.values[:, 0] - exact)))
    ratio = errors[0] / errors[1]
    assert 8.0 < ratio < 32.0


def test_trajectory_stops_at_wavefunction_node():
    node = SchrodingerProblem("q1*exp(-i*t)", "0", 1.0, 1.0)
    with pytest.raises(NumericalError):
        integrate_trajectory(node, [0.0], GRID)


def test_trajectory_divergence_guard():
    # v = 6q for this phase profile, so the flow grows like e^{6t} and
    # crosses the 1e6 limit inside the window
    runaway = SchrodingerProblem("exp(i*3*q1^2)", "0", 1.0, 1.0)
    g = make_grid(0.0, 10.0, 200, 0.0)
    with pytest.raises(NumericalError, match="divergence"):
        integrate_trajectory(runaway, [1.0], g)


def test_divergence_check_takes_an_overflowing_modulus():
    # |q| of a finite q overflows: Python's complex abs raises OverflowError here
    for q0 in (1.7e308 + 1.7e308j, -1.5e308 + 1.5e308j):
        with pytest.raises(OverflowError):
            abs(complex(q0))
        with pytest.raises(NumericalError, match="^trajectory divergence"):
            integrate_trajectory(PLANE, [q0], GRID)
    with pytest.raises(NumericalError, match="^trajectory divergence"):
        integrate_trajectory(PLANE, [complex("nan")], GRID)


def test_trajectory_q0_dimension_check():
    with pytest.raises(ValidationError):
        integrate_trajectory(PLANE, [0.0, 1.0], GRID)


def _reference_trajectory(prob, q0, grid):
    """Fixed-step RK4 with the velocity field on the reference tree walk."""

    def velocity(t, y):
        b = Bindings(t=t, q=tuple(y), v=(), params=prob.params)
        psi = reference_evaluate(prob.psi, b)
        return np.array(
            [-2j * prob.gamma * reference_evaluate(dq, b) / psi for dq in prob.psi_q],
            dtype=np.complex128,
        )

    def step(t, y, h):
        k1 = velocity(t, y)
        k2 = velocity(t + 0.5 * h, y + (0.5 * h) * k1)
        k3 = velocity(t + 0.5 * h, y + (0.5 * h) * k2)
        k4 = velocity(t + h, y + h * k3)
        return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    ts = grid.nodes()
    out = np.empty((ts.size, prob.dim), dtype=np.complex128)
    anchor = grid.pad_steps
    out[anchor] = np.asarray(q0, dtype=np.complex128)
    for i in range(anchor, ts.size - 1):
        out[i + 1] = step(ts[i], out[i], grid.h)
    for i in range(anchor, 0, -1):
        out[i - 1] = step(ts[i], out[i], -grid.h)
    return out


@pytest.mark.parametrize(
    "prob, q0",
    [
        (GAUSS, [1.0]),
        (
            # 2-D ground state with frequencies 1 and 2, energy 3/2
            SchrodingerProblem(
                "exp(-(q1^2 + 2*q2^2)/2)*exp(-i*1.5*t)", "0.5*q1^2 + 2*q2^2", 1.0, 1.0, dim=2
            ),
            [0.6, -0.4 + 0.1j],
        ),
        (
            # parameters in the width (so in the velocity) and in the phase
            SchrodingerProblem(
                "exp(-k*q1^2/2)*exp(-i*w*t)", "0.5*q1^2", 0.9, 1.1, params={"k": 1.2 + 0.1j, "w": 0.6}
            ),
            [0.7 - 0.2j],
        ),
    ],
    ids=["1-D", "2-D", "params"],
)
def test_trajectory_matches_reference_walk_bitwise(prob, q0):
    grid = make_grid(0.0, 0.5, 250, 0.01)
    traj = integrate_trajectory(prob, q0, grid)
    assert np.array_equal(traj.path.values, _reference_trajectory(prob, q0, grid))


_UNIT = st.floats(0.5, 2.0)
_COMPONENT = st.builds(complex, st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))


@settings(max_examples=40, deadline=None)
@given(
    widths=st.lists(st.floats(0.2, 2.0), min_size=1, max_size=3),
    energy=st.floats(0.1, 3.0),
    as_param=st.booleans(),
    hbar=_UNIT,
    m=_UNIT,
    data=st.data(),
    b=st.floats(0.25, 1.0),
    n=st.integers(2, 40),
    pad_steps=st.integers(0, 6),
)
def test_trajectory_matches_reference_walk_bitwise_property(
    widths, energy, as_param, hbar, m, data, b, n, pad_steps
):
    # Gaussian-type psi in 1-3 dimensions, its phase rate inline or a parameter;
    # a padded grid runs the backward pass as well as the forward one
    dim = len(widths)
    gauss = " + ".join(f"{w!r}*q{k + 1}^2" for k, w in enumerate(widths))
    rate, params = ("e", {"e": energy}) if as_param else (repr(energy), {})
    prob = SchrodingerProblem(f"exp(-({gauss})/2)*exp(-i*{rate}*t)", "0", hbar, m, dim, params)
    q0 = data.draw(st.lists(_COMPONENT, min_size=dim, max_size=dim))
    grid = TimeGrid(0.0, b, n, pad_steps)
    traj = integrate_trajectory(prob, q0, grid)
    assert traj.path.values.tobytes() == _reference_trajectory(prob, q0, grid).tobytes()


# Dyadic grid: every node and stage time (s, s +- h/2, s +- h) is exact, so an
# expression can be made to fail at one chosen RK4 stage.  Stages 2 and 3 share
# a time, stage 4 of one step has the time of the next step's stage 1.
_DYADIC = make_grid(0.0, 1.0, 16, 0.25)
_COLLAPSE = "wavefunction magnitude at or below 1e-12 on the probed region"
_DIVERGENCE = "trajectory divergence: |q| exceeded 1e6"


@pytest.mark.parametrize(
    "psi, message",
    [
        # psi = sqrt(q1*(t - c)) is 0 at t = c, where its gradient
        # (t - c)/(2*sqrt(q1*(t - c))) divides by zero: the collapse is reported
        ("sqrt(q1*(t - 0.28125))", _COLLAPSE),  # stage 2 of the step from 0.25
        ("sqrt(q1*(t - 0.25))", _COLLAPSE),  # stage 4 of the step from 0.1875
        ("sqrt(q1*(t + 0.09375))", _COLLAPSE),  # backward, stage 2 of the step from -0.0625
        ("sqrt(q1*(t + 0.125))", _COLLAPSE),  # backward, stage 4 of the step from -0.0625
        # (q1 - 0.5)^50 overflows at the diverged position, so running the
        # program before the divergence check would report an overflow instead
        ("exp(i*1e10*q1)*(1 + (q1 - 0.5)^50)", _DIVERGENCE),  # stage 2: v = 1e10 at stage 1
        ("exp(i*1e10*t*q1)*(1 + (q1 - 0.5)^50)", _DIVERGENCE),  # stage 3: v = 1e10*t
        # stage 4: v = t + 1e11*(q1 - 0.5), zero at stage 1, 1/32 at stage 2
        ("exp(i*(t*q1 + 1e11*(q1 - 0.5)^2/2))*(1 + (q1 - 0.5)^50)", _DIVERGENCE),
        # backward, stage 3: v = 200*exp(-400*t) is small for t >= 0
        ("exp(i*200*exp(-400*t)*q1)*(1 + (q1 - 0.5)^50)", _DIVERGENCE),
    ],
)
def test_trajectory_guards_fire_in_order_at_later_stages(psi, message):
    prob = SchrodingerProblem(psi, "0", 1.0, 1.0)
    q0 = [1.0] if psi.startswith("sqrt") else [0.5]
    with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
        integrate_trajectory(prob, q0, _DYADIC)


@pytest.mark.parametrize("psi", ["(1+i)*1e308*(1 + t)", "(1+i)*1e308*(1 - t)"])
def test_trajectory_floor_check_takes_an_overflowing_psi(psi):
    # |psi| overflows (Python's complex abs raises) beyond |t| = 0.271, first at
    # stage 4 of the step from 0.25, or of the backward step from -0.25; psi
    # and the zero velocity stay finite on [-0.5, 0.75], so q rests at q0
    prob = SchrodingerProblem(psi, "0", 1.0, 1.0)
    grid = make_grid(0.0, 0.25, 8, 0.5)
    traj = integrate_trajectory(prob, [0.25 + 0.5j], grid)
    assert np.all(traj.path.values == 0.25 + 0.5j)


# ---------------------------------------------------------------------------
# energy forms


def test_plane_wave_energy_both_forms():
    traj = integrate_trajectory(PLANE, [0.0], GRID)
    report = energy_constant(PLANE, traj, SP)
    # -(1/2) k^2 with hbar = m = 1 and k = 2
    assert abs(report.theorem.mean + 2.0) < 1e-9
    assert report.theorem.drift < 1e-6
    assert abs(report.variant.mean + 2.0) < 1e-9
    assert report.variant.drift < 1e-6


def test_gaussian_energy_theorem_form_constant():
    traj = integrate_trajectory(GAUSS, [1.0], GRID)
    report = energy_constant(GAUSS, traj, SP)
    # kinetic and potential parts cancel along q = e^{it}
    assert abs(report.theorem.mean) < 1e-5
    assert report.theorem.drift < 1e-4
    # the sign-flipped variant oscillates like q^2 and is not conserved
    assert report.variant.drift > 0.5


def test_potential_shift_moves_theorem_form_exactly():
    # a shift small enough to keep max(1, |mean|) = 1 leaves drift untouched
    shift = 0.5
    shifted_problem = SchrodingerProblem(
        "exp(-q1^2/2)*exp(-i*t/2)", "0.5*q1^2 + 0.5", 1.0, 1.0
    )
    traj = integrate_trajectory(GAUSS, [1.0], GRID)
    base = energy_constant(GAUSS, traj, SP)
    moved = energy_constant(shifted_problem, traj, SP)
    assert np.allclose(
        moved.theorem.constant_samples, base.theorem.constant_samples - shift, atol=1e-12
    )
    assert moved.theorem.drift == pytest.approx(base.theorem.drift, abs=1e-12)


@pytest.mark.parametrize(
    "psi, potential, q0",
    [
        ("exp(-q1^2/2)*exp(-i*t/2)", "0.5*q1^2", [1.0]),  # the bundled config's problem
        ("exp(i*(2*q1 - 2*t))", "0", [0.0]),  # plane wave
        ("exp(-q1^2/2)*exp(-i*t/2)", "0.5*q1^2", [0.3 - 0.4j]),  # an offset complex start
    ],
    ids=["gaussian", "plane", "offset"],
)
@pytest.mark.parametrize("mu", ["0", "-i"])
def test_theorem_form_is_the_noether_constant_of_time_translation(psi, potential, q0, mu):
    # -(m/2) (box q)^2 - U is C = L - dL/dv v for L = (m/2) v^2 - U, tau = 1, xi = 0
    grid = make_grid(0.0, 1.0, 1000, 0.002)
    sp = ScaleParams(0.001, mu)
    prob = SchrodingerProblem(psi, potential, 1.0, 1.0)
    traj = integrate_trajectory(prob, q0, grid)
    theorem = energy_constant(prob, traj, sp).theorem
    Lg = LagrangianSpec.from_text(f"0.5*v1^2 - ({potential})")
    noether = noether_constant(Lg, traj.path, SymmetrySpec.from_text("1", "0"), sp)
    assert np.array_equal(theorem.node_times, noether.node_times)
    # the kinetic and potential terms are of order one, and the forms round them differently
    assert np.max(np.abs(theorem.constant_samples - noether.constant_samples)) <= 1e-14


def test_kinetic_coefficient_identity():
    assert kinetic_coefficient_identity_gap(1.0, 1.0) <= 1.0
    assert kinetic_coefficient_identity_gap(0.9, 1.7) <= 1.0
    assert kinetic_coefficient_identity_gap(1.0546e-34, 9.109e-31) <= 1.0


def test_problem_validation():
    with pytest.raises(ValidationError):
        SchrodingerProblem("exp(q1)", "q1", 0.0, 1.0)
    with pytest.raises(ValidationError):
        SchrodingerProblem("exp(q1)", "q1", 1.0, -1.0)
    with pytest.raises(ValidationError):
        SchrodingerProblem("exp(q1)", "t*q1", 1.0, 1.0)  # potential must be spatial
    with pytest.raises(ValidationError, match="^psi may not reference velocity variables$"):
        SchrodingerProblem("v1*q1", "q1", 1.0, 1.0)
    prob = SchrodingerProblem("exp(q1)", "q1", 2.0, 4.0)
    assert prob.gamma == 0.25


# ---------------------------------------------------------------------------
# the generated programs against the reference walk, failures included


def _psi_texts(atoms):
    """Expressions over the given atoms: functions, quotients, negative and root powers."""
    return st.recursive(
        st.sampled_from(atoms),
        lambda inner: st.one_of(
            st.builds("{}({})".format, st.sampled_from(["ln", "sqrt", "exp", "sin"]), inner),
            st.builds("({}){}({})".format, inner, st.sampled_from("+-*/"), inner),
            st.builds("({})^{}".format, inner, st.sampled_from(["-2", "-1", "2", "0.5"])),
        ),
        max_leaves=6,
    )


_PSI = st.one_of(
    _psi_texts(["t", "q1", "(q1 - 1)", "(t - 0.5)", "2", "i"]),
    _psi_texts(["t", "(t - 0.5)", "2", "i"]),  # t alone
    _psi_texts(["q1", "(q1 - 1)", "2", "i"]),  # q alone
)
_POINT = st.tuples(st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([0.0, 1.0, -1.0, 0.5 + 0.5j, 2j]))


def _reference_roots(prob, roots, t, q):
    """Psi on the reference walk, its floor check, then the other roots in order."""
    b = Bindings(t=t, q=(q,), v=(), params=prob.params)
    psi = reference_evaluate(prob.psi, b)
    smallest = np.min(np.abs(psi)) if isinstance(psi, np.ndarray) else math.hypot(psi.real, psi.imag)
    if smallest <= 1e-12:
        raise NumericalError(_COLLAPSE)
    return psi, [reference_evaluate(e, b) for e in roots]


def _reference_velocity(prob, t, q):
    psi, grad = _reference_roots(prob, prob.psi_q, t, q)
    return np.array([-2j * prob.gamma * dq / psi for dq in grad], dtype=np.complex128)


def _reference_residual(prob, ts, qs):
    psi, (*second, psi_t, potential) = _reference_roots(prob, (*prob.psi_qq, prob.psi_t, prob.potential), ts, qs)
    lap = np.zeros(ts.shape, dtype=np.complex128)
    for psi_qq in second:
        lap = lap + psi_qq
    res = 1j * prob.hbar * psi_t + (prob.hbar**2 / (2.0 * prob.m)) * lap - potential * psi
    return np.asarray(res, dtype=np.complex128)


def _assert_same_outcome(call, reference):
    """call() gives the reference's bits, or raises the reference's error."""
    try:
        want = reference()
    except NumericalError as exc:
        with pytest.raises(NumericalError, match=f"^{re.escape(str(exc))}$"):
            call()
        return
    assert same_bits(call(), want)


@settings(max_examples=300, deadline=None)
@given(
    psi=_PSI,
    potential=st.sampled_from(["0.5*q1^2", "1/q1", "ln(q1 + 1)"]),
    point=_POINT,
    points=st.lists(_POINT, min_size=1, max_size=3),
)
def test_programs_match_the_reference_walk_and_its_first_error(psi, potential, point, points):
    try:
        prob = SchrodingerProblem(psi, potential, 1.0, 1.0)
    except ExpressionError:  # a folded constant that is not finite
        assume(False)
    t, q = point
    ts = np.array([p[0] for p in points])
    qs = np.array([p[1] for p in points], dtype=np.complex128)
    with np.errstate(all="ignore"):
        _assert_same_outcome(lambda: prob.psi_values(t, [q]), lambda: _reference_roots(prob, (), t, q)[0])
        _assert_same_outcome(lambda: prob.psi_values(ts, [qs]), lambda: _reference_roots(prob, (), ts, qs)[0])
        _assert_same_outcome(lambda: velocity_field(prob, t, [q]), lambda: _reference_velocity(prob, t, q))
        _assert_same_outcome(
            lambda: schrodinger_residual(prob, ts, qs).residuals, lambda: _reference_residual(prob, ts, qs)
        )


def test_residual_of_a_psi_of_t_alone_with_a_potential_of_q():
    # the potential's read of q1 comes before psi's statements in the program
    prob = SchrodingerProblem("exp(-i*t)", "0.5*q1^2", 1.0, 1.0)
    ts, qs = np.array([0.0, 0.5]), np.array([1.0, -0.5 + 0.25j])
    got = schrodinger_residual(prob, ts, qs).residuals
    assert same_bits(got, _reference_residual(prob, ts, qs))

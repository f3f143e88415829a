import contextlib
import math
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reference_weierstrass
from scalevar import (
    DomainError,
    GridError,
    NumericalError,
    Path,
    ValidationError,
    delta,
    estimate_holder,
    make_grid,
    mean_function,
    sample,
    weierstrass,
)
from scalevar.funcspace import _ROWS_PER_THREAD as ROWS

LN2_OVER_LN3 = math.log(2.0) / math.log(3.0)


# ---------------------------------------------------------------------------
# grids


def test_grid_with_padding():
    g = make_grid(0.0, 1.0, 10, 0.2)
    assert g.h == pytest.approx(0.1)
    assert g.pad_steps == 2
    assert g.num_nodes == 15
    assert g.node(0) == pytest.approx(-0.2)
    assert g.node(g.num_nodes - 1) == pytest.approx(1.2)


def test_grid_without_padding():
    g = make_grid(0.0, 1.0, 10, 0.0)
    assert g.num_nodes == 11
    assert g.node(0) == 0.0
    assert g.node(10) == pytest.approx(1.0)


def test_grid_pad_rounds_half_up():
    # pad 0.25 at h = 0.1 rounds to 3 steps per side
    g = make_grid(0.0, 1.0, 10, 0.25)
    assert g.pad_steps == 3
    assert g.num_nodes == 17


def test_grid_nodes_affine_spacing():
    # affine node computation: every gap matches h to a few ulps of the
    # intermediate magnitude |t - a| + |a| (the scale the rounding happens at)
    g = make_grid(-0.3, 2.7, 977, 0.05)
    ts = g.nodes()
    gaps = np.diff(ts)
    bound = 4.0 * np.spacing(np.abs(ts[1:] - g.a) + abs(g.a) + g.h)
    assert np.all(np.abs(gaps - g.h) <= bound)


def test_grid_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        make_grid(1.0, 0.0, 10, 0.0)
    with pytest.raises(ValidationError):
        make_grid(0.0, 1.0, 1, 0.0)
    with pytest.raises(ValidationError):
        make_grid(0.0, 1.0, 10, -0.1)
    with pytest.raises(ValidationError):
        make_grid(0.0, math.inf, 10, 0.0)
    with pytest.raises(ValidationError):
        make_grid(0.0, 1.0, 10.5, 0.0)
    with pytest.raises(ValidationError, match="not a finite number of steps"):
        make_grid(0.0, 1e-300, 100, 1e300)
    # floats near 1e15 are 0.125 apart: a step of 0.01 cannot give distinct nodes
    with pytest.raises(ValidationError, match="too fine for distinct nodes"):
        make_grid(1e15, 1e15 + 1, 100, 0.0)


def test_grid_index_and_steps():
    g = make_grid(0.0, 1.0, 10, 0.2)
    assert g.index_of(0.0) == 2
    assert g.index_of(1.2) == 14
    with pytest.raises(GridError):
        g.index_of(0.05)
    assert g.steps_of(0.3) == 3
    with pytest.raises(GridError):
        g.steps_of(0.25)
    with pytest.raises(GridError):
        g.steps_of(0.0)


# ---------------------------------------------------------------------------
# paths


def test_sampled_path_is_node_only():
    g = make_grid(0.0, 1.0, 4, 0.0)
    p = Path.from_samples(g, np.arange(5, dtype=float))
    assert p.at(0.25)[0] == 1.0  # the value stored at node index 1
    with pytest.raises(GridError):
        p.at(0.1)


def test_sampled_path_rejects_nonfinite():
    g = make_grid(0.0, 1.0, 4, 0.0)
    vals = np.ones(5, dtype=complex)
    vals[2] = np.nan
    with pytest.raises(NumericalError):
        Path.from_samples(g, vals)


def test_analytic_path_domain_checked():
    p = Path.from_callable(lambda t: t, domain=(0.0, 1.0))
    assert p.at(1.0)[0] == 1.0
    with pytest.raises(DomainError):
        p.at(1.5)


def test_sample_respects_padding():
    g = make_grid(0.0, 1.0, 10, 0.2)
    p = sample(Path.from_callable(lambda t: 3.0 * t), g)
    assert p.is_sampled
    assert p.values.shape == (15, 1)
    assert p.at(-0.2)[0] == pytest.approx(-0.6)


def test_sample_restricts_a_sampled_path():
    g = make_grid(0.0, 1.0, 10, 0.3)
    p = Path.from_samples(g, np.arange(g.num_nodes) + 0.5j)
    assert sample(p, g) is p
    narrow = g.with_pad_steps(1)
    q = sample(p, narrow)
    assert q.grid == narrow
    assert np.array_equal(q.values, p.values[2:-2])
    for other in (g.with_pad_steps(4), make_grid(0.0, 1.0, 20, 0.1), make_grid(0.0, 2.0, 10, 0.2)):
        with pytest.raises(GridError):
            sample(p, other)


# ---------------------------------------------------------------------------
# weierstrass generator


def test_weierstrass_metadata_and_truncation():
    w = weierstrass(0.5, 3.0, 1e-12)
    assert w.meta["holder_alpha"] == pytest.approx(LN2_OVER_LN3, abs=1e-15)
    # minimal term count: 0.5^N / (1 - 0.5) < tol first at N = 41
    assert w.meta["series_terms"] == 41
    coarse = weierstrass(0.5, 3.0, 1e-4)
    assert coarse.meta["series_terms"] == 15
    ts = np.linspace(0.0, 1.0, 257)
    gap = np.max(np.abs(w.at_many(ts) - coarse.at_many(ts)))
    assert gap < 1e-4


def test_weierstrass_boundary_exponent_one():
    # a*b = 1 is allowed and tags exponent 1
    w = weierstrass(0.5, 2.0, 1e-12)
    assert w.meta["holder_alpha"] == pytest.approx(1.0)


def test_weierstrass_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        weierstrass(1.5, 3.0, 1e-12)
    with pytest.raises(ValidationError):
        weierstrass(0.5, 0.9, 1e-12)
    with pytest.raises(ValidationError):
        weierstrass(0.2, 3.0, 1e-12)  # a*b < 1
    with pytest.raises(ValidationError):
        weierstrass(0.5, 3.0, 0.0)


def test_weierstrass_deterministic():
    ts = np.linspace(-0.7, 1.9, 1001)
    v1 = weierstrass(0.5, 3.0, 1e-12).at_many(ts)
    v2 = weierstrass(0.5, 3.0, 1e-12).at_many(ts)
    assert np.array_equal(v1, v2)


@contextlib.contextmanager
def _cpus(n):
    """The process may run on n CPUs; counts the threads started meanwhile."""
    started = []
    start = threading.Thread.start
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        mp.setattr(threading.Thread, "start", lambda self: (started.append(self), start(self)))
        yield started


def _series_case(a_coef, b_base, nterms):
    """A series of exactly nterms terms, and its serial reference."""
    w = weierstrass(a_coef, b_base, a_coef**nterms / (1.0 - a_coef) * (1.0 + 1e-6))
    assert w.meta["series_terms"] == nterms
    return w, lambda ts: reference_weierstrass(ts, a_coef, b_base, nterms)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.one_of(st.sampled_from([0, 1, ROWS - 1]), st.integers(2 * ROWS, 8 * ROWS + 7)),
    cpus=st.sampled_from([1, 2, 3, 8]),
    b_base=st.floats(1.5, 3.5),
    a_frac=st.floats(0.0, 1.0),
    nterms=st.integers(1, 45),
    lo=st.floats(-4.0, 4.0),
    width=st.floats(0.0, 4.0),
)
@example(rows=3 * ROWS + 1, cpus=3, b_base=3.0, a_frac=0.5, nterms=41, lo=0.0, width=1.0)
@example(rows=8 * ROWS + 7, cpus=8, b_base=3.5, a_frac=0.2, nterms=45, lo=-1.0, width=3.0)
@example(rows=2 * ROWS + 1, cpus=2, b_base=1.5, a_frac=0.0, nterms=1, lo=0.5, width=0.0)
def test_weierstrass_matches_the_serial_series_bitwise(rows, cpus, b_base, a_frac, nterms, lo, width):
    # a in [1.001/b, 0.9]: a*b >= 1 after rounding, and a tail bound that picks exactly nterms
    a_coef = 1.001 / b_base + a_frac * (0.9 - 1.001 / b_base)
    w, reference = _series_case(a_coef, b_base, nterms)
    ts = np.linspace(lo, lo + width, rows)
    with _cpus(cpus) as started:
        got = w.at_many(ts)
    want = np.asarray(reference(ts), dtype=np.complex128).reshape(rows, 1)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert len(started) == max(1, min(cpus, rows // ROWS)) - 1


def test_weierstrass_threads_keep_the_bits_under_fast_switching():
    w, reference = _series_case(0.6, 3.3, 40)
    ts = np.linspace(-1.3, 2.1, 8 * ROWS + 5)
    want = reference(ts).tobytes()
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    runs = 0
    try:
        with _cpus(8) as started:
            deadline = time.monotonic() + 2.0
            while runs < 20 and time.monotonic() < deadline:
                assert w.at_many(ts)[:, 0].real.tobytes() == want
                runs += 1
    finally:
        sys.setswitchinterval(interval)
    assert runs >= 1 and len(started) == 7 * runs
    assert not any(t.is_alive() for t in started) and threading.active_count() == before


def test_weierstrass_threads_raise_under_the_callers_errstate():
    # the inf lands in the last of 8 blocks, which a worker thread computes
    w, reference = _series_case(0.5, 3.0, 41)
    ts = np.linspace(0.0, 1.0, 8 * ROWS)
    ts[-1] = np.inf
    with np.errstate(invalid="raise"):
        with pytest.raises(FloatingPointError) as serial:
            reference(ts)
        with _cpus(8) as started, pytest.raises(FloatingPointError) as threaded:
            w.at_many(ts)
    assert str(threaded.value) == str(serial.value) == "invalid value encountered in cos"
    assert len(started) == 7 and not any(t.is_alive() for t in started)


# ---------------------------------------------------------------------------
# Holder exponent estimation


def test_holder_of_linear_path():
    p = Path.from_callable(lambda t: t, domain=(0.0, 1.0))
    est = estimate_holder(p, [0.1, 0.05, 0.025], 400)
    assert abs(est.alpha - 1.0) < 0.05
    assert est.delta_range == (0.025, 0.1)


def test_holder_of_weierstrass_analytic():
    w = weierstrass(0.5, 3.0, 1e-12)
    est = estimate_holder(w, [3.0**-j for j in range(2, 8)], 600)
    assert abs(est.alpha - LN2_OVER_LN3) < 0.1
    assert est.fit_residual >= 0.0


def test_holder_of_weierstrass_sampled():
    n = 3**6
    g = make_grid(0.0, 1.0, n, 0.0)
    p = sample(weierstrass(0.5, 3.0, 1e-12), g)
    deltas = [3.0**-j for j in range(2, 7)]  # all whole multiples of h = 3^-6
    est = estimate_holder(p, deltas, 400)
    assert abs(est.alpha - LN2_OVER_LN3) < 0.1


def test_holder_degenerate_on_constant_path():
    p = Path.from_callable(lambda t: 4.0, domain=(0.0, 1.0))
    with pytest.raises(NumericalError, match="degenerate oscillation"):
        estimate_holder(p, [0.1, 0.05, 0.025], 100)


def test_holder_needs_three_deltas():
    p = Path.from_callable(lambda t: t, domain=(0.0, 1.0))
    with pytest.raises(ValidationError):
        estimate_holder(p, [0.1, 0.05], 100)


def test_holder_delta_exits_domain():
    p = Path.from_callable(lambda t: t, domain=(0.0, 1.0))
    with pytest.raises(DomainError):
        estimate_holder(p, [2.0, 1.5, 1.2], 100)


# ---------------------------------------------------------------------------
# mean function


def test_mean_of_constant():
    p = Path.from_callable(lambda t: 2.5 - 1j)
    for sigma in (+1, -1):
        m = mean_function(p, 0.1, sigma)
        assert m.at(0.3)[0] == pytest.approx(2.5 - 1j, abs=1e-14)


def test_mean_of_identity_shifts_by_half_eps():
    m = mean_function(Path.from_callable(lambda t: t), 0.1, +1)
    ts = np.linspace(-1.0, 2.0, 7)
    assert np.allclose(m.at_many(ts)[:, 0], ts + 0.05, atol=1e-14)


def test_mean_of_square_backward():
    # (-1/0.1) * integral_1^0.9 s^2 ds = (1 - 0.729)/0.3
    m = mean_function(Path.from_callable(lambda t: t * t), 0.1, -1)
    assert m.at(1.0)[0] == pytest.approx((1.0 - 0.729) / 0.3, abs=1e-12)


def test_mean_derivative_matches_quotient():
    # d/dt of the windowed mean equals the one-sided quotient at the same scale
    p = Path.from_callable(np.sin, vectorized=True)
    eps = 0.1
    for sigma in (+1, -1):
        m = mean_function(p, eps, sigma)
        step = eps / 1000.0
        for t in (0.2, 1.3):
            numeric = (m.at(t + step)[0] - m.at(t - step)[0]) / (2.0 * step)
            assert abs(numeric - delta(p, eps, sigma, t)[0]) < 1e-6


def test_mean_requires_analytic_backing():
    g = make_grid(0.0, 1.0, 10, 0.0)
    p = Path.from_samples(g, np.zeros(11))
    with pytest.raises(ValidationError):
        mean_function(p, 0.1, +1)


def test_mean_respects_domain():
    p = Path.from_callable(lambda t: t, domain=(0.0, 1.0))
    m = mean_function(p, 0.2, +1)
    assert m.domain == (0.0, 0.8)
    with pytest.raises(DomainError):
        m.at(0.9)

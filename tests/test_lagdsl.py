import cmath
import json
import math
import operator
import pathlib

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import reference_evaluate, same_bits
from scalevar import ExpressionError, NumericalError, ScaleVarError, ValidationError
from scalevar import lagdsl
from scalevar.lagdsl import (
    FUNCTIONS,
    MAX_DEPTH,
    BinOp,
    Bindings,
    Call,
    Const,
    Neg,
    Pow,
    ScalarField,
    Var,
    add,
    compile,
    compile_all,
    diff,
    div,
    evaluate,
    format_expr,
    free_variables,
    func,
    mul,
    neg,
    parse,
    power,
    references_velocity,
    sub,
)

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"

# ---------------------------------------------------------------------------
# deterministic corpus of guarded random expressions


def _corpus(count=20, dim=2, seed=7):
    """Random expression texts that stay away from zeros and branch cuts.

    Division, ln and sqrt arguments are wrapped as (2 + 0.1*u) so every
    evaluation point with |variables| <= 1 is safe.
    """
    rng = np.random.default_rng(seed)
    leaves = ["t", "q1", "v1", "q2", "v2", "0.7", "1.3", "0.25"]

    def build(depth):
        if depth == 0:
            return str(rng.choice(leaves))
        kind = rng.choice(["add", "sub", "mul", "div", "pow", "sin", "cos", "exp", "ln", "sqrt", "neg"])
        a = build(depth - 1)
        if kind in ("add", "sub", "mul"):
            b = build(depth - 1)
            op = {"add": "+", "sub": "-", "mul": "*"}[kind]
            return f"({a}{op}{b})"
        if kind == "div":
            b = build(depth - 1)
            return f"({a})/(2+0.1*({b}))"
        if kind == "pow":
            return f"({a})^{rng.choice([2, 3])}"
        if kind == "neg":
            return f"-({a})"
        if kind in ("ln", "sqrt"):
            return f"{kind}(2+0.1*({a}))"
        return f"{kind}({a})"

    return [build(3) for _ in range(count)]


def _random_bindings(rng, dim=2):
    def point():
        return complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))

    return Bindings(
        t=rng.uniform(0.2, 1.0),
        q=tuple(point() for _ in range(dim)),
        v=tuple(point() for _ in range(dim)),
        params={},
    )


def _shifted(b, var, offset):
    if var == "t":
        return Bindings(t=b.t + offset, q=b.q, v=b.v, params=b.params)
    kind, idx = var[0], int(var[1:]) - 1
    if kind == "q":
        q = list(b.q)
        q[idx] += offset
        return Bindings(t=b.t, q=tuple(q), v=b.v, params=b.params)
    v = list(b.v)
    v[idx] += offset
    return Bindings(t=b.t, q=b.q, v=tuple(v), params=b.params)


# ---------------------------------------------------------------------------
# parsing


def test_parse_lagrangian_with_parameters():
    e = parse("0.5*m*v1^2 - U", 1, ("m", "U"))
    assert free_variables(e) == {"m", "v1", "U"}


def test_parse_imaginary_literal():
    e = parse("sin(t)*q1 + i*v1", 1)
    b = Bindings(t=0.0, q=(2.0,), v=(3.0,))
    assert evaluate(e, b) == pytest.approx(3j)


def test_parse_index_out_of_range():
    with pytest.raises(ExpressionError, match="index out of range"):
        parse("q3", 2)


def test_parse_unknown_identifier_with_column():
    with pytest.raises(ExpressionError, match="column 7"):
        parse("1 + t*woble", 1)


def test_parse_syntax_error_column():
    with pytest.raises(ExpressionError, match="column"):
        parse("1 + * 2", 1)
    with pytest.raises(ExpressionError):
        parse("", 1)
    with pytest.raises(ExpressionError):
        parse("sin 3", 1)


def test_parse_precedence():
    # ^ binds tighter than unary minus, which binds tighter than *
    e = parse("-t^2", 1)
    assert evaluate(e, Bindings(t=3.0)) == pytest.approx(-9.0)
    e2 = parse("-t*t", 1)
    assert evaluate(e2, Bindings(t=3.0)) == pytest.approx(-9.0)
    e3 = parse("2^-2", 1)
    assert evaluate(e3, Bindings()) == pytest.approx(0.25)
    e4 = parse("t^2^3", 1)  # exponent tower folds right-associatively to 8
    assert evaluate(e4, Bindings(t=2.0)) == pytest.approx(256.0)


def test_parse_exponent_must_be_constant():
    with pytest.raises(ExpressionError, match="constant"):
        parse("q1^t", 1)
    with pytest.raises(ExpressionError, match="constant"):
        parse("q1^i", 1)
    assert isinstance(parse("q1^(1/2)", 1), Pow)


def test_parse_rejects_shadowing_parameter_names():
    with pytest.raises(ValidationError):
        parse("q1", 1, ("sin",))
    with pytest.raises(ValidationError):
        parse("q1", 1, ("v2",))
    # the first reserved name in the order given, whatever the hash seed
    with pytest.raises(ValidationError, match="^parameter name 't' shadows"):
        parse("q1", 1, ("t", "q1", "sin"))
    with pytest.raises(ValidationError, match="^parameter name 'sin' shadows"):
        parse("q1", 1, ("w", "sin", "q1", "t"))


# ---------------------------------------------------------------------------
# evaluation


def test_eval_complex_square():
    assert evaluate(parse("v1^2", 1), Bindings(v=(1 + 1j,))) == pytest.approx(2j)


def test_eval_euler_identity():
    val = evaluate(parse("exp(i*t)", 1), Bindings(t=math.pi))
    assert abs(val + 1.0) < 1e-15


def test_eval_abs2_is_real():
    val = evaluate(parse("abs2(q1)", 1), Bindings(q=(3 + 4j,)))
    assert val == pytest.approx(25.0)
    assert np.imag(val) == 0.0


def test_eval_integer_power_exact_on_negative_reals():
    assert evaluate(parse("q1^2", 1), Bindings(q=(-2.0,))) == 4.0 + 0j


def test_eval_principal_branches():
    val = evaluate(parse("sqrt(q1)", 1), Bindings(q=(-1.0,)))
    assert val == pytest.approx(1j)
    val = evaluate(parse("ln(q1)", 1), Bindings(q=(-1.0,)))
    assert val == pytest.approx(1j * math.pi)


def test_eval_division_by_zero():
    with pytest.raises(NumericalError, match="division by zero"):
        evaluate(parse("1/q1", 1), Bindings(q=(0.0,)))


def test_eval_ln_zero():
    with pytest.raises(NumericalError, match="ln"):
        evaluate(parse("ln(q1)", 1), Bindings(q=(0.0,)))


def test_eval_unbound_parameter():
    with pytest.raises(ValidationError, match="unbound"):
        evaluate(parse("m*t", 1, ("m",)), Bindings(t=1.0))


def test_eval_broadcasts_arrays():
    ts = np.linspace(0.0, 1.0, 5)
    out = evaluate(parse("t^2+q1", 1), Bindings(t=ts, q=(2.0,)))
    assert np.allclose(out, ts**2 + 2.0)


# ---------------------------------------------------------------------------
# differentiation


def test_diff_power_rule_folds_to_velocity():
    d = diff(parse("0.5*v1^2", 1), "v1")
    assert format_expr(d) == "v1"


def test_diff_product_rule():
    d = diff(parse("sin(t)*q1", 1), "t")
    assert format_expr(d) == "cos(t)*q1"


def test_diff_wrt_absent_variable_is_zero():
    assert diff(parse("sin(t)", 1), "q1") == Const(0)


def test_diff_quotient_and_chain():
    e = parse("sin(q1)/(2+0.1*q1)", 1)
    d = diff(e, "q1")
    rng = np.random.default_rng(3)
    for _ in range(5):
        b = _random_bindings(rng, dim=1)
        h = 1e-5
        fd = (evaluate(e, _shifted(b, "q1", h)) - evaluate(e, _shifted(b, "q1", -h))) / (2 * h)
        assert abs(evaluate(d, b) - fd) < 1e-6


def test_diff_abs2_rejected_for_complex_variables():
    e = parse("abs2(q1)", 1)
    with pytest.raises(ExpressionError, match="complex variable"):
        diff(e, "q1")


def test_diff_abs2_along_time():
    # u(t) = exp(i*t)*(1+t) has a non-real derivative, so a conj rule that
    # drops the conjugate, or an abs2 rule that drops it from either term,
    # gives a different value; the second derivative of abs2 goes through the
    # conj rule.  Each derivative is checked by central differences of the
    # expression it differentiates.
    for text, order in (("abs2(exp(i*t)*(1+t))", 1), ("conj(exp(i*t)*(1+t))", 1),
                        ("abs2(exp(i*t)*(1+t))", 2)):
        below = parse(text, 1)
        for _ in range(order - 1):
            below = diff(below, "t")
        d = diff(below, "t")
        for t in (0.3, 1.1):
            h = 1e-6
            fd = (
                evaluate(below, Bindings(t=t + h)) - evaluate(below, Bindings(t=t - h))
            ) / (2 * h)
            assert abs(evaluate(d, Bindings(t=t)) - fd) < 1e-6, (text, order, t)


@pytest.mark.parametrize("var", ["t", "q1"])
def test_diff_of_an_unknown_function_raises(var):
    # a Call built by hand bypasses func's check; diff must not apply another rule to it
    e = Call("foo", Var("t", 0, "t") if var == "t" else Var("q", 1, "q1"))
    with pytest.raises(ValidationError, match="unknown function 'foo'"):
        diff(e, var)


def test_function_names_keep_their_order():
    assert FUNCTIONS == ("sin", "cos", "exp", "ln", "sqrt", "abs2", "conj")


def test_diff_linearity_structural():
    e1 = parse("sin(q1)*t", 1)
    e2 = parse("q1^3", 1)
    combined = diff(add(mul(Const(2.5), e1), e2), "q1")
    separate = add(mul(Const(2.5), diff(e1, "q1")), diff(e2, "q1"))
    assert combined == separate


def test_gradient_check_on_corpus():
    # symbolic derivative vs central differences, relative 1e-6, h = 1e-5
    rng = np.random.default_rng(11)
    h = 1e-5
    checked = 0
    for text in _corpus():
        e = parse(text, 2)
        for var in ("t", "q1", "v1", "q2", "v2"):
            if var not in free_variables(e):
                continue
            d = diff(e, var)
            b = _random_bindings(rng)
            sym = evaluate(d, b)
            fd = (evaluate(e, _shifted(b, var, h)) - evaluate(e, _shifted(b, var, -h))) / (2 * h)
            assert abs(sym - fd) < 1e-6 * max(1.0, abs(sym)), (text, var)
            checked += 1
    assert checked >= 20


# ---------------------------------------------------------------------------
# printing


def test_print_parse_idempotence_on_corpus():
    for text in _corpus():
        ast = parse(text, 2)
        printed = format_expr(ast)
        assert parse(printed, 2) == ast, (text, printed)


def test_print_parse_idempotence_on_derivatives():
    for text in _corpus(count=8, seed=13):
        ast = diff(parse(text, 2), "q1")
        printed = format_expr(ast)
        assert parse(printed, 2) == ast, (text, printed)


def test_print_complex_constants_roundtrip():
    for value in (2j, -1j, 1.5 + 2j, 3.0 - 1j, -2.5 + 0j, 0.5 + 1j):
        ast = Const(complex(value))
        assert parse(format_expr(ast), 1) == ast


def test_constant_folding_at_parse():
    assert parse("2*i", 1) == Const(2j)
    assert parse("1+2*3", 1) == Const(7.0)
    assert isinstance(parse("q1*0+1", 1), Const)


def test_print_negative_imaginary_denominator():
    e = parse("t/(-2*i)", 1)
    assert format_expr(e) == "t/(-2.0*i)"
    assert evaluate(parse(format_expr(e), 1), Bindings(t=1.0)) == 0.5j


# ---------------------------------------------------------------------------
# scalar fields


def test_scalar_field_gradient_and_hessian():
    f = ScalarField.from_text("q1^2*q2 + t", 2)
    g = f.gradient(0.0, (2.0, 3.0))
    assert g == pytest.approx(np.array([12.0, 4.0]))
    H = f.hessian(0.0, (2.0, 3.0))
    assert H == pytest.approx(np.array([[6.0, 4.0], [4.0, 0.0]]))
    assert f.time_derivative(0.5, (2.0, 3.0)) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "text, method, shape",  # each has a constant partial
    [("q1^2*q2 + t", "hessian", (2, 2)), ("q1 + q2^2", "gradient", (2,))],
)
def test_scalar_field_partials_broadcast_constants_over_array_positions(text, method, shape):
    f = ScalarField.from_text(text, 2)
    q = (np.arange(3.0), np.ones(3))
    got = getattr(f, method)(0.0, q)
    for node in range(3):
        want = getattr(f, method)(0.0, (q[0][node], q[1][node]))
        assert want.shape == shape and want.dtype == np.complex128
        assert same_bits(got[..., node], want)


def test_scalar_field_rejects_velocities():
    with pytest.raises(ValidationError, match="^scalar fields may not reference velocity variables$"):
        ScalarField.from_text("v1^2", 1)


def test_references_velocity():
    assert references_velocity(parse("q1 + t*v2", 2))
    assert references_velocity(parse("v10", 10))
    assert not references_velocity(parse("q1*v - t", 1, ("v",)))
    assert not references_velocity(parse("vq1 + 2", 1, ("vq1",)))


# ---------------------------------------------------------------------------
# compiled closures against the reference tree walk, bit for bit

# int, float and complex constants as the folding constructors leave them;
# 0.0, -0.0 and 0j compare equal but are different operands
_CONSTS = [0, 1, 0.0, -0.0, 1.0, 2.5, -1.5, 1e-3, 1j, 1 + 0j, -2j, 0.5 - 0.25j]
_VARS = [
    Var("t", 0, "t"),
    Var("q", 1, "q1"),
    Var("q", 2, "q2"),
    Var("v", 1, "v1"),
    Var("v", 2, "v2"),
    Var("param", 0, "k"),
]
_EXPONENTS = [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 2, -0.5, 0.5, 1.5]
_POOL = [0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 0.3 + 0.4j, -1j, 1.5 - 0.5j]
_KINDS = ("float", "complex", "float64", "complex128", "float array", "complex array")

_leaves = st.one_of(st.sampled_from(_CONSTS).map(Const), st.sampled_from(_VARS))
_trees = st.recursive(
    _leaves,
    lambda children: st.one_of(
        children.map(Neg),
        st.builds(BinOp, st.sampled_from("+-*/"), children, children),
        st.builds(Pow, children, st.sampled_from(_EXPONENTS)),
        st.builds(Call, st.sampled_from(FUNCTIONS), children),
    ),
    max_leaves=12,
)


def _component(kind, values):
    """One binding value of the given kind from pool values (first one for scalars)."""
    if kind.endswith("array"):
        arr = np.array(values, dtype=np.complex128)
        return arr.real.copy() if kind == "float array" else arr
    z = complex(values[0])
    return {
        "float": z.real,
        "complex": z,
        "float64": np.float64(z.real),
        "complex128": np.complex128(z),
    }[kind]


@st.composite
def _bindings(draw):
    """Bindings whose components each take a random kind, scalar or array."""

    def component():
        kind = draw(st.sampled_from(_KINDS))
        return _component(kind, draw(st.lists(st.sampled_from(_POOL), min_size=3, max_size=3)))

    return Bindings(
        t=component(),
        q=(component(), component()),
        v=(component(), component()),
        params={"k": component()},
    )


def _outcome(fn):
    """("value", result) or ("error", (type, message)); numpy warnings muted."""
    with np.errstate(all="ignore"):
        try:
            return "value", fn()
        except (ScaleVarError, ArithmeticError) as err:
            return "error", (type(err), str(err))


def _assert_same_as_reference(e, b, closure=None):
    closure = compile(e) if closure is None else closure
    want = _outcome(lambda: reference_evaluate(e, b))
    for got in (_outcome(lambda: closure(b)), _outcome(lambda: evaluate(e, b))):
        assert got[0] == want[0], (e, b, want, got)
        if want[0] == "value":
            assert same_bits(got[1], want[1]), (e, b, want[1], got[1])
        else:
            assert got[1] == want[1], (e, b)


_FOLDING = {"+": add, "-": sub, "*": mul, "/": div}


def _folded(e):
    """e rebuilt bottom-up through the folding constructors, as parse builds trees."""
    if isinstance(e, Neg):
        return neg(_folded(e.arg))
    if isinstance(e, BinOp):
        return _FOLDING[e.op](_folded(e.left), _folded(e.right))
    if isinstance(e, Pow):
        return power(_folded(e.base), e.exponent)
    if isinstance(e, Call):
        return func(e.fn, _folded(e.arg))
    return e


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_trees)
def test_format_parse_round_trip(raw):
    try:
        e = _folded(raw)
    except ExpressionError:  # folding made a constant that is not finite
        assume(False)
    text = format_expr(e)
    again = parse(text, 2, ("k",))
    assert again == e, (text, again)
    assert format_expr(again) == text


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(e=_trees, bs=st.lists(_bindings(), min_size=2, max_size=2))
def test_compiled_matches_reference_walk_bitwise(e, bs):
    closure = compile(e)  # compiled once, called on several bindings
    for b in bs:
        _assert_same_as_reference(e, b, closure)


@st.composite
def _shared_roots(draw):
    """Trees, then roots built from them by reference: sums, products and
    quotients of two trees and t-derivatives, so the roots share subtrees."""
    trees = draw(st.lists(_trees, min_size=1, max_size=3))
    picks = st.integers(0, len(trees) - 1)
    roots = list(trees)
    for op, i, j in draw(st.lists(st.tuples(st.sampled_from("+-*/"), picks, picks), max_size=3)):
        roots.append(BinOp(op, trees[i], trees[j]))
    for i in draw(st.lists(picks, max_size=2)):
        try:
            roots.append(diff(trees[i], "t"))
        except ExpressionError:  # the derivative folds a constant that is not finite
            pass
    return draw(st.permutations(roots))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(roots=_shared_roots(), bs=st.lists(_bindings(), min_size=2, max_size=2))
def test_joint_program_matches_reference_walk_bitwise(roots, bs):
    program = compile_all(roots)
    for b in bs:
        wants = [_outcome(lambda e=e: reference_evaluate(e, b)) for e in roots]
        got = _outcome(lambda: program(b))
        failures = [want for want in wants if want[0] == "error"]
        if failures:  # what evaluating the roots one after another raises first
            assert got == failures[0], (roots, b)
            continue
        assert got[0] == "value" and len(got[1]) == len(roots), (roots, b, got)
        for value, want in zip(got[1], wants):
            assert same_bits(value, want[1]), (roots, b, want[1], value)


def _variable_leaves(e):
    """The Var leaves of e, left to right."""
    if isinstance(e, Var):
        return [e]
    return [leaf for x in lagdsl._operands(e) for leaf in _variable_leaves(x)]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    roots=st.lists(_trees, min_size=1, max_size=3),
    b=_bindings(),
    nq=st.integers(0, 2),
    nv=st.integers(0, 2),
    keep_k=st.booleans(),
)
def test_a_missing_variable_is_reported_in_read_order(roots, b, nq, nv, keep_k):
    b = Bindings(t=b.t, q=b.q[:nq], v=b.v[:nv], params=b.params if keep_k else {})
    got = _outcome(lambda: compile_all(roots)(b))
    leaves = [e for root in roots for e in _variable_leaves(root)]
    reads = [_outcome(lambda e=e: reference_evaluate(e, b)) for e in leaves]
    missing = [read for read in reads if read[0] == "error"]
    if missing:  # the first one left to right across the roots, before any guard
        assert missing[0][1][0] is ValidationError
        assert got == missing[0], (roots, b)
        return
    wants = [_outcome(lambda e=e: reference_evaluate(e, b)) for e in roots]
    failures = [want for want in wants if want[0] == "error"]
    if failures:
        assert got == failures[0], (roots, b)
        return
    assert got[0] == "value" and len(got[1]) == len(roots), (roots, b, got)
    for value, want in zip(got[1], wants):
        assert same_bits(value, want[1]), (roots, b, want[1], value)


_points =st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@settings(
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    e=_trees,
    data=st.data(),
    t=st.floats(-2.0, 2.0),
    q=st.tuples(_points, _points),
    v=st.tuples(_points, _points),
    k=_points,
)
def test_diff_matches_central_differences(e, data, t, q, v, k):
    variables = sorted(free_variables(e) - {"k"})
    assume(variables)
    var = data.draw(st.sampled_from(variables))
    # abs2 and conj have no derivative along q or v; folding may make a
    # constant that is not finite
    try:
        d = diff(e, var)
    except ExpressionError:
        assume(False)
    b = Bindings(t=t, q=q, v=v, params={"k": k})
    got = _central_difference(e, d, var, b)
    assume(got is not None)
    sym, fine, bound = got
    assert abs(sym - fine) <= bound, (e, var, b, sym, fine)


def test_diff_matches_central_differences_beside_a_large_constant():
    # f is about 1e6, so rounding f costs the step-h/2 quotient about 2e-5
    e = parse("0.001^-2 + (v2^-3)^0.5", 2)
    b = Bindings(t=0.0, q=(0j, 0j), v=(0j, 1.125 + 0j), params={})
    sym, fine, bound = _central_difference(e, diff(e, "v2"), "v2", b)
    assert abs(sym - fine) <= bound, (sym, fine)


def _central_difference(e, d, var, b):
    """(d at b, central difference of e at b, bound on their distance), or None where
    the difference cannot be trusted."""
    h = 1e-5
    outcomes = [_outcome(lambda: reference_evaluate(d, b)), _outcome(lambda: reference_evaluate(e, b))]
    for step in (-h, -h / 2, h / 2, h):
        outcomes.append(_outcome(lambda: reference_evaluate(e, _shifted(b, var, step))))
    if not all(kind == "value" and cmath.isfinite(x) for kind, x in outcomes):
        return None
    sym, f, f_left, f_half_left, f_half_right, f_right = (x for _, x in outcomes)
    # only where e is smooth across the stencil and the differences have
    # settled: a pole, a branch cut or rounding within reach of the step
    # shows as a large second difference or as the two steps disagreeing
    coarse, fine = (f_right - f_left) / (2 * h), (f_half_right - f_half_left) / h
    if not (
        abs(f_right - 2 * f + f_left) <= 1e-6 * max(1.0, abs(f))
        and abs(coarse - fine) <= 1e-8 * max(1.0, abs(fine))
    ):
        return None
    # the quotient divides the rounding of f's two samples, eps * |f| each, by h
    rounding = 4 * np.finfo(float).eps * max(1.0, abs(f)) / h
    return sym, fine, 1e-6 * max(1.0, abs(sym)) + rounding


def _sympy_symbol(sympy, name):
    return sympy.Symbol(name, real=True) if name == "t" else sympy.Symbol(name)


def _sympy_number(sympy, z):
    if isinstance(z, int):
        return sympy.Integer(z)
    z = complex(z)
    return sympy.Float(z.real) + sympy.I * sympy.Float(z.imag)


def _to_sympy(sympy, e):
    """e as a sympy expression: t is a real symbol, q, v and k complex ones."""
    if isinstance(e, Const):
        return _sympy_number(sympy, e.value)
    if isinstance(e, Var):
        return _sympy_symbol(sympy, e.name)
    if isinstance(e, Neg):
        return -_to_sympy(sympy, e.arg)
    if isinstance(e, BinOp):
        op = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}[e.op]
        return op(_to_sympy(sympy, e.left), _to_sympy(sympy, e.right))
    if isinstance(e, Pow):
        c = float(e.exponent)
        return _to_sympy(sympy, e.base) ** (sympy.Integer(int(c)) if c.is_integer() else sympy.Float(c))
    fn = {
        "ln": sympy.log,
        "abs2": lambda z: z * sympy.conjugate(z),
        "conj": sympy.conjugate,
    }.get(e.fn) or getattr(sympy, e.fn)
    return fn(_to_sympy(sympy, e.arg))


def _ill_conditioned(e, b) -> bool:
    """Whether an argument in e at b of ln, sqrt or a non-integer power lies on
    the closed negative real axis (the branch cut), or one of sin, cos or exp
    exceeds 100 in modulus (its rounding then shows in the result)."""
    for node, _ in lagdsl._walk(e):
        if isinstance(node, Pow) and not float(node.exponent).is_integer():
            fn = "pow"
        elif isinstance(node, Call) and node.fn not in ("abs2", "conj"):
            fn = node.fn
        else:
            continue
        u = complex(reference_evaluate(lagdsl._operands(node)[0], b))
        if fn in ("sin", "cos", "exp") and abs(u) > 100:
            return True
        if fn in ("ln", "sqrt", "pow") and u.real <= 0 and abs(u.imag) <= 1e-6 * abs(u):
            return True
    return False


def _largest_value(e, b) -> float:
    """The largest modulus of a subexpression of e at b, the scale of e's rounding error."""
    return max(abs(complex(reference_evaluate(node, b))) for node, _ in lagdsl._walk(e))


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    e=_trees,
    t=st.floats(-2.0, 2.0),
    q=st.tuples(_points, _points),
    v=st.tuples(_points, _points),
    k=_points,
)
def test_diff_matches_sympy(e, t, q, v, k):
    sympy = pytest.importorskip("sympy")
    b = Bindings(t=t, q=q, v=v, params={"k": k})
    kind, value = _outcome(lambda: evaluate(e, b))  # a guard may raise, or e be infinite
    assume(kind == "value" and cmath.isfinite(value) and not _ill_conditioned(e, b))
    values = {"t": t, "q1": q[0], "q2": q[1], "v1": v[0], "v2": v[1], "k": k}
    point = {_sympy_symbol(sympy, x): _sympy_number(sympy, z) for x, z in values.items()}
    checked = 0
    for var in sorted(free_variables(e) - {"k"}):
        try:
            d = diff(e, var)
        except ExpressionError:  # a fold that is not finite, or abs2/conj along q or v
            continue
        kind, got = _outcome(lambda: evaluate(d, b))
        if kind == "error" or not cmath.isfinite(got):
            continue
        try:
            want = sympy.diff(_to_sympy(sympy, e), _sympy_symbol(sympy, var)).evalf(30, subs=point)
            want = complex(want)
        except (TypeError, ZeroDivisionError):  # sympy meets a pole: zoo or nan
            continue
        scale = max(1.0, abs(want), _largest_value(d, b))
        if cmath.isfinite(want) and math.isfinite(scale):
            assert abs(got - want) <= 1e-8 * scale, (e, var, b, got, want)
            checked += 1
    assume(checked)


def _bundled_texts():
    """(text, dim) of every expression in the bundled configs."""
    for config in sorted(CONFIG_DIR.glob("*.json")):
        problem = json.loads(config.read_text())["problem"]
        paths = problem.get("path", [])
        paths = [paths] if isinstance(paths, str) else paths
        dim = len(problem["q0"]) if "q0" in problem else len(paths)
        xi = problem.get("xi", [])
        xi = [xi] if isinstance(xi, str) else xi
        yield from ((p, 0) for p in paths)
        yield from ((problem[k], dim) for k in ("L", "tau", "psi", "potential") if k in problem)
        yield from ((x, dim) for x in xi)


def _with_derivatives(e, dim):
    out = [e]
    for var in ["t"] + [f"{kind}{k}" for kind in "qv" for k in range(1, dim + 1)]:
        try:
            out.append(diff(e, var))
        except ExpressionError:  # abs2/conj along a complex variable
            pass
    return out


def test_bundled_and_corpus_expressions_match_reference_walk():
    texts = list(_bundled_texts()) + [(text, 2) for text in _corpus()]
    assert len(texts) > 20
    for text, dim in texts:
        for e in _with_derivatives(parse(text, dim), dim):
            for k, kind in enumerate(_KINDS):  # every component of one kind
                values = _POOL[k : k + 3] if kind.endswith("array") else [0.3 - 0.2j]
                comps = [_component(kind, values) for _ in range(5)]
                b = Bindings(t=comps[0], q=tuple(comps[1:3]), v=tuple(comps[3:5]))
                _assert_same_as_reference(e, b)


@pytest.mark.parametrize(
    "text, bindings, message",
    [
        ("1/q1", Bindings(q=(0.0,)), "division by zero"),
        ("q1/0", Bindings(q=(1.0,)), "division by zero"),  # a zero constant denominator
        ("t/(q1-q1)", Bindings(t=np.ones(3), q=(np.arange(3.0),)), "division by zero"),
        ("ln(q1)", Bindings(q=(np.array([1.0, 0.0]),)), "ln(0)"),
        ("q1^-2", Bindings(q=(0j,)), "zero base raised to a negative power"),
        ("k*t", Bindings(t=1.0), "unbound parameter 'k'"),
        ("q1+q2", Bindings(q=(1.0,)), "binding supplies 1 q components, q2 needs 2"),
        ("v2", Bindings(v=(1.0,)), "binding supplies 1 v components, v2 needs 2"),
    ],
)
def test_compiled_guards_raise_like_reference(text, bindings, message):
    e = parse(text, 2, ("k",))
    want = _outcome(lambda: reference_evaluate(e, bindings))
    assert want[0] == "error" and want[1][1] == message
    _assert_same_as_reference(e, bindings)


# ---------------------------------------------------------------------------
# non-finite constants and the depth cap


@pytest.mark.parametrize(
    "text, column",
    [
        ("1e400", 1),
        ("t + 1e400", 5),
        ("1e400-1e400", 1),
        ("q1*1e200*1e200", 9),
        ("-1e308*10", 7),
        ("2*exp(1000)", 3),
        ("10^400", 3),
    ],
)
def test_non_finite_constant_rejected_at_parse(text, column):
    with pytest.raises(ExpressionError, match="not finite") as info:
        parse(text, 1)
    assert info.value.column == column


def test_ln_and_sqrt_of_a_negative_constant_fold_on_the_principal_branch():
    assert parse("sqrt(-1)", 1) == Const(1j)
    assert parse("ln(-1)", 1) == Const(math.pi * 1j)
    for fn in ("sqrt", "ln"):
        for x in (-1.0, -2.5):
            at_runtime = complex(evaluate(parse(f"{fn}(q1)", 1), Bindings(q=(x,))))
            assert same_bits(parse(f"{fn}({x})", 1).value, at_runtime)
    # a positive argument still folds on the real branch; complex ln would
    # differ in the last bit at 0.8155261736351271
    for text, value in [
        ("sqrt(4)", np.sqrt(4.0)),
        ("ln(2)", np.log(2.0)),
        ("ln(0.8155261736351271)", np.log(0.8155261736351271)),
    ]:
        assert same_bits(parse(text, 1).value, complex(value))


def test_diff_rejects_a_non_finite_fold():
    # 1.7e306 * 1000 overflows when the power rule's factor merges with it
    e = parse("1.7e306*q1^1000", 1)
    with pytest.raises(ExpressionError, match="^constant is not finite"):
        diff(e, "q1")
    # gradient 1e308*q1^999 is finite, the Hessian's 1e308*999 is not
    with pytest.raises(ExpressionError, match="^constant is not finite"):
        ScalarField.from_text("1e305*q1^1000", 1)


def test_underflowed_negative_power_overflows():
    # 1e-200^2 underflows to zero, so 1e-200^-2 overflows
    with pytest.raises(ExpressionError, match="not finite") as info:
        parse("1e-200^-2", 1)
    assert info.value.column == 7
    with pytest.raises(NumericalError, match="overflow in power"):
        compile(parse("q1^-2", 1))(Bindings(q=(1e-200,)))


def test_largest_finite_constants_parse():
    assert parse("1.7e308", 1) == Const(1.7e308)
    assert parse("exp(700)", 1).value == pytest.approx(np.exp(700.0))


def _quotient_chain(depth: int) -> str:
    """Left-deep quotients q1/(q1+2)/(q1+2)..., a tree of the given depth.

    Of the shapes tried, its derivatives grow deepest: the first is about
    three times, the second about six times as deep as the expression.
    """
    return "q1" + "/(q1+2)" * (depth - 2)


_AT_CAP = {
    "sum": "+".join(["t"] * MAX_DEPTH),
    "quotients": _quotient_chain(MAX_DEPTH),
    "nested calls": "sin(" * (MAX_DEPTH - 1) + "q1" + ")" * (MAX_DEPTH - 1),
    "parentheses": "(" * (MAX_DEPTH - 1) + "q1" + ")" * (MAX_DEPTH - 1),
}


@pytest.mark.parametrize("text", _AT_CAP.values(), ids=_AT_CAP.keys())
def test_depth_cap_admits_every_pass_at_the_cap(text):
    e = parse(text, 1)
    assert parse(format_expr(e), 1) == e
    d1 = diff(e, "q1")
    assert format_expr(d1)
    b = Bindings(t=0.5, q=(0.25,))
    for x in (e, d1):
        _assert_same_as_reference(x, b)
    compile(diff(d1, "q1"))


def test_passes_recurse_six_times_deeper_than_the_cap():
    # as deep as the second derivative of a quotient chain at the cap
    q1 = Var("q", 1, "q1")
    e = q1
    for _ in range(6 * MAX_DEPTH):
        e = BinOp("/", e, q1)
    assert format_expr(e).count("/") == 6 * MAX_DEPTH
    assert compile(e)(Bindings(q=(1.0,))) == 1.0
    assert isinstance(diff(e, "q1"), BinOp)


def _chain(make, depth: int):
    """make applied depth times, starting from q1."""
    e = Var("q", 1, "q1")
    for _ in range(depth):
        e = make(e)
    return e


_SIX_TIMES_THE_CAP = {
    "left quotients": lambda e: BinOp("/", e, Var("q", 1, "q1")),
    "right sums": lambda e: BinOp("+", Var("t", 0, "t"), e),
    "calls": lambda e: Call("sin", e),
    "signs": Neg,
    "powers": lambda e: Pow(e, 1.0),
}


@pytest.mark.parametrize("make", _SIX_TIMES_THE_CAP.values(), ids=_SIX_TIMES_THE_CAP.keys())
def test_programs_evaluate_six_times_deeper_than_the_cap(make):
    # one inlined expression this deep would pass CPython's 200 nested
    # parentheses; the program names a node every so many levels instead
    e = _chain(make, 6 * MAX_DEPTH)
    for b in (Bindings(t=0.25, q=(0.9,)), Bindings(t=np.ones(3), q=(np.array([0.9, -0.5, 2j]),))):
        _assert_same_as_reference(e, b)


def _sin_nodes(e):
    """(distinct, spelled out): sin nodes of e counted by identity, and as
    often as the tree reaches them."""
    seen = {}  # id -> (node, sin nodes it spells out, itself included)

    def spelled(node):
        if id(node) not in seen:
            below = [getattr(node, f) for f in ("left", "right", "arg", "base") if hasattr(node, f)]
            own = isinstance(node, Call) and node.fn == "sin"
            seen[id(node)] = node, own + sum(spelled(x) for x in below)
        return seen[id(node)][1]

    total = spelled(e)
    return sum(isinstance(n, Call) and n.fn == "sin" for n, _ in seen.values()), total


def test_a_call_evaluates_each_distinct_node_once(monkeypatch):
    # the second derivative of a sin chain reaches the chain's nodes over and
    # over; the program computes each distinct one once per call
    calls = []
    impl, rule, along_q = lagdsl._FUNCTIONS["sin"]

    def counted(z):
        calls.append(z)
        return impl(z)

    monkeypatch.setitem(lagdsl._FUNCTIONS, "sin", (counted, rule, along_q))
    e = parse("sin(" * 20 + "q1" + ")" * 20, 1)
    d2 = diff(diff(e, "q1"), "q1")
    distinct, spelled = _sin_nodes(d2)
    assert (distinct, spelled) == (39, 2680)
    program = compile(d2)
    assert calls == []
    program(Bindings(q=(0.3,)))
    assert len(calls) == distinct
    calls.clear()
    compile_all((e, d2))(Bindings(q=(np.array([0.3, 0.7]),)))
    assert len(calls) == _sin_nodes(BinOp("+", e, d2))[0] == distinct + 1  # all but e's root sin


_BEYOND_CAP = {
    "sum": "+".join(["t"] * (MAX_DEPTH + 1)),
    "3000 terms": "+".join(["t"] * 3000),
    "quotients": _quotient_chain(MAX_DEPTH + 1),
    "nested calls": "sin(" * MAX_DEPTH + "q1" + ")" * MAX_DEPTH,
    "parentheses": "(" * MAX_DEPTH + "q1" + ")" * MAX_DEPTH,
    "signs": "-" * 5000 + "q1",
}


@pytest.mark.parametrize("text", _BEYOND_CAP.values(), ids=_BEYOND_CAP.keys())
def test_depth_cap_rejects_deeper_expressions(text):
    with pytest.raises(ExpressionError, match="deeper than"):
        parse(text, 1)

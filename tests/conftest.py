import math

import numpy as np
import pytest

from scalevar import NumericalError, Path, ValidationError, make_grid, sample
from scalevar.cli import _atomic_write
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
    _atomic_write(prefix + ".csv", "\n".join(lines) + "\n")


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

"""Small expression language for Lagrangians, potentials, wavefunctions and
symmetry generators: parsing, complex evaluation, exact symbolic
differentiation.

Grammar (whitespace-insensitive, 1-based columns in error messages):

    expr   := term  (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?        right-associative, constant exponent
    atom   := NUMBER | "i" | IDENT | IDENT "(" expr ")" | "(" expr ")"

Variables are t, q1..qd and v1..vd with d declared at parse time; "i" is the
imaginary unit; every other identifier must be a declared parameter or one of
the functions sin, cos, exp, ln, sqrt, abs2, conj.  Exponents must fold to a
real constant.  Evaluation uses complex arithmetic with principal branches
for ln and sqrt; abs2(z) = z*conj(z) evaluates real.  Differentiation through
abs2 and conj is only defined along the real variable t and is rejected for
the complex-valued q and v variables.  Construction applies constant folding
and the 0/1 identities, nothing more.  ln and sqrt of a negative real
constant fold on the principal branch, as evaluation takes them.  Every
constant a constructor folds is checked: one that is not finite raises
ExpressionError, whether parse folds it (the message gives the column) or
diff does.  parse also rejects a literal that is not finite and expressions
nesting deeper than MAX_DEPTH.

Each function is one row of a table, _FUNCTIONS: its numpy evaluation, its
derivative rule and whether that rule holds along q and v.  FUNCTIONS lists
the names in table order.

Evaluation model: compile(e) lowers an expression once to the source of one
Python function of Bindings, with no recursion: each distinct node is
computed once per call and each variable is read once.  A node used once
that cannot raise (+, -, *, negation, / by a nonzero constant) is inlined
into its parent's expression; every power, function call and guarded
division is a statement, in the order of a walk of the tree, left to right
and children first.  compile_all(exprs) returns the values of several
expressions as a tuple, computing a subtree they share once.  Code objects
are cached by source text.  evaluate(e, b) is compile(e)(b); the classes
that declare expressions (ScalarField, the varcalc specs, SchrodingerProblem)
compile them once, at construction.  The function keeps the guards of
evaluation: division by zero (left out where the denominator is a nonzero
constant), ln(0), a zero base under a negative integer power, unbound
parameters and missing q/v components raise when it is called: a missing
variable first, then whichever guard the walk meets first.
"""

from __future__ import annotations

import builtins
import cmath
import functools
import re
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import ExpressionError, NumericalError, ValidationError

__all__ = [
    "Const",
    "Var",
    "Neg",
    "BinOp",
    "Pow",
    "Call",
    "Expr",
    "Bindings",
    "FUNCTIONS",
    "MAX_DEPTH",
    "parse",
    "compile",
    "compile_all",
    "evaluate",
    "diff",
    "format_expr",
    "free_variables",
    "references_velocity",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "power",
    "func",
    "ScalarField",
]

_VAR_RE = re.compile(r"^([qv])([0-9]+)$")
_TOKEN_RE = re.compile(
    r"(?P<num>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<space>\s+)"
)


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Const:
    value: complex


@dataclass(frozen=True)
class Var:
    kind: str  # "t", "q", "v" or "param"
    index: int  # 1-based for q/v, 0 otherwise
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of "+-*/"
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: float


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"


Expr = Union[Const, Var, Neg, BinOp, Pow, Call]

# Deepest expression parse accepts, in parser nesting and in tree height.
# The parser recurses six frames per level of parentheses or function call
# (unary, power, atom, and expr three times: once per precedence level and
# once to reach the operand), one per sign and two per exponent; diff and
# format_expr recurse one frame per tree level, and a second derivative can
# be six times deeper than its expression (a chain of quotients).  At 100
# every pass stays near 600 frames, inside Python's default recursion limit
# of 1000.  compile and the functions it makes do not recurse.
MAX_DEPTH = 100


def _operands(e: Expr) -> tuple:
    if isinstance(e, BinOp):
        return (e.left, e.right)
    if isinstance(e, (Neg, Call)):
        return (e.arg,)
    if isinstance(e, Pow):
        return (e.base,)
    return ()


def _walk(e: Expr):
    """Every node of e with its level (the root is 1), visited without recursion."""
    stack = [(e, 1)]
    while stack:
        node, level = stack.pop()
        yield node, level
        stack += ((x, level + 1) for x in _operands(node))


def _depth(e: Expr) -> int:
    """Height of the tree (a leaf is 1)."""
    return max(level for _, level in _walk(e))


def free_variables(e: Expr) -> set:
    """Names of all variables and parameters referenced by e."""
    return {node.name for node, _ in _walk(e) if isinstance(node, Var)}


def references_velocity(e: Expr) -> bool:
    """True when e uses a velocity variable v1..vd."""
    return any(isinstance(node, Var) and node.kind == "v" for node, _ in _walk(e))


# ---------------------------------------------------------------------------
# Folding constructors (constant folding plus 0/1 identities, no more)


def _is_const(e, value=None) -> bool:
    return isinstance(e, Const) and (value is None or e.value == value)


def _fold(value) -> Const:
    """The constant that folding produced; it must be finite."""
    if not cmath.isfinite(value):
        raise ExpressionError(f"constant is not finite ({value})")
    return Const(value)


def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return _fold(a.value + b.value)
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    return BinOp("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return _fold(a.value - b.value)
    if _is_const(b, 0):
        return a
    if _is_const(a, 0):
        return neg(b)
    return BinOp("-", a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return _fold(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return _fold(a.value * b.value)
    if isinstance(b, Const):
        a, b = b, a  # canonical constant on the left
    if isinstance(a, Const):
        if a.value == 0:
            return Const(0)
        if a.value == 1:
            return b
        if isinstance(b, BinOp) and b.op == "*" and isinstance(b.left, Const):
            return mul(_fold(a.value * b.left.value), b.right)
    return BinOp("*", a, b)


def div(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0:
        return _fold(a.value / b.value)
    if _is_const(b, 1):
        return a
    return BinOp("/", a, b)


def power(base: Expr, exponent: float) -> Expr:
    exponent = float(exponent)
    if exponent == 0.0:
        return Const(1)
    if exponent == 1.0:
        return base
    if isinstance(base, Const):
        try:
            with np.errstate(all="ignore"):
                return _fold(_pow_fn(exponent)(base.value))
        except OverflowError:
            raise ExpressionError("constant is not finite (overflow)") from None
        except NumericalError:  # a zero base under a negative power stays a Pow
            pass
    return Pow(base, exponent)


def func(fn: str, arg: Expr) -> Expr:
    impl = _function(fn)[0]
    if isinstance(arg, Const):
        value = arg.value
        if fn in ("ln", "sqrt") and value.real < 0:
            value = complex(value)  # the principal branch, not the real nan
        try:
            with np.errstate(all="ignore"):
                return _fold(complex(impl(value)))
        except NumericalError:  # ln(0) stays a Call
            pass
    return Call(fn, arg)


# ---------------------------------------------------------------------------
# Parsing


@dataclass(frozen=True)
class _Token:
    kind: str  # "num", "ident", "op", "end"
    text: str
    column: int  # 1-based


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExpressionError(f"unexpected character {text[pos]!r}", pos + 1)
        if m.lastgroup != "space":
            tokens.append(_Token(m.lastgroup, m.group(), pos + 1))
        pos = m.end()
    tokens.append(_Token("end", "", len(text) + 1))
    return tokens


# binary operators by precedence, loosest first; all are left-associative
_BINARY = ({"+": add, "-": sub}, {"*": mul, "/": div})


def _build(column: int, fn, *args) -> Expr:
    """fn(*args); a folding error gets the column of the token that asked for it."""
    try:
        return fn(*args)
    except ExpressionError as err:
        raise ExpressionError(str(err), column) from None


class _Parser:
    def __init__(self, tokens, dim, params):
        self.tokens = tokens
        self.pos = 0
        self.dim = dim
        self.params = params
        self.nesting = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.text == op:
            return self.take()
        raise ExpressionError(f"expected {op!r}, found {tok.text or 'end of input'!r}", tok.column)

    def expr(self, level: int = 0) -> Expr:
        """Operands joined by the operators of _BINARY[level] and tighter ones."""
        if level == len(_BINARY):
            return self.unary()
        ops = _BINARY[level]
        node = self.expr(level + 1)
        while (op := self.peek()).text in ops:
            self.take()
            node = _build(op.column, ops[op.text], node, self.expr(level + 1))
        return node

    def unary(self) -> Expr:
        # every nesting (parentheses, function arguments, signs, exponents)
        # passes through here, so this bounds the parser's recursion
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ExpressionError(
                f"expression nests deeper than {MAX_DEPTH} levels", self.peek().column
            )
        if self.peek().text == "-":
            self.take()
            node = neg(self.unary())
        else:
            node = self.power()
        self.nesting -= 1
        return node

    def power(self) -> Expr:
        base = self.atom()
        if self.peek().text == "^":
            caret = self.take()
            exp_node = self.unary()
            if not isinstance(exp_node, Const) or exp_node.value.imag != 0:
                raise ExpressionError("exponent must fold to a real constant", caret.column)
            return _build(caret.column, power, base, exp_node.value.real)
        return base

    def atom(self) -> Expr:
        tok = self.take()
        if tok.kind == "num":
            return _build(tok.column, _fold, float(tok.text))
        if tok.kind == "ident" and tok.text not in FUNCTIONS:
            return self.resolve(tok.text, tok.column)
        if tok.kind == "ident":  # a function name, then its parenthesised argument
            self.expect_op("(")
        elif tok.text != "(":
            raise ExpressionError(f"unexpected token {tok.text or 'end of input'!r}", tok.column)
        node = self.expr()
        self.expect_op(")")
        return node if tok.text == "(" else _build(tok.column, func, tok.text, node)

    def resolve(self, name: str, column: int) -> Expr:
        if name == "t":
            return Var("t", 0, "t")
        if name == "i":
            return Const(1j)
        m = _VAR_RE.match(name)
        if m:
            idx = int(m.group(2))
            if not 1 <= idx <= self.dim:
                raise ExpressionError(
                    f"index out of range: {name} exceeds declared dimension {self.dim}", column
                )
            return Var(m.group(1), idx, f"{m.group(1)}{idx}")
        if name in self.params:
            return Var("param", 0, name)
        raise ExpressionError(f"unknown identifier {name!r}", column)


def parse(text: str, dim: int = 1, param_names=()) -> Expr:
    """Parse an expression over t, q1..qd, v1..vd and the named parameters."""
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("empty expression")
    params = set(param_names)
    for name in params:
        if name in ("t", "i") or name in FUNCTIONS or _VAR_RE.match(name):
            raise ValidationError(f"parameter name {name!r} shadows a reserved identifier")
    parser = _Parser(_tokenize(text), int(dim), params)
    node = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ExpressionError(f"unexpected token {trailing.text!r}", trailing.column)
    if _depth(node) > MAX_DEPTH:
        raise ExpressionError(f"expression tree is deeper than {MAX_DEPTH} levels")
    return node


# ---------------------------------------------------------------------------
# Evaluation


@dataclass(frozen=True)
class Bindings:
    """Values for one evaluation: time, position/velocity components, parameters.

    Components may be scalars or equally shaped numpy arrays; arrays broadcast
    through the whole expression.
    """

    t: object = 0.0
    q: tuple = ()
    v: tuple = ()
    params: dict = field(default_factory=dict)


def _coerce(x):
    if isinstance(x, np.ndarray):
        return x.astype(np.complex128, copy=False)
    return complex(x)


def _ipow(z, n: int):
    """z^n for a negative integer n."""
    if np.any(z == 0):
        raise NumericalError("zero base raised to a negative power")
    try:
        return 1.0 / z**-n
    except ZeroDivisionError:  # z^-n underflowed to zero, so z^n overflows
        raise OverflowError(f"power ^{n} overflows") from None


def _pow_fn(c: float):
    """z -> z^c: Python integer powers for integral c, a principal complex power otherwise."""
    if float(c).is_integer():
        n = int(c)
        if n >= 0:
            return lambda z: z**n
        return lambda z: _ipow(z, n)
    return lambda z: np.power(_coerce(z), c)


def _ln(z):
    if np.any(z == 0):
        raise NumericalError("ln(0)")
    return np.log(z)


def _abs2(z):
    return (z * np.conjugate(z)).real


# name: (numpy evaluation, rule (e, u, du) -> de for e = name(u), whether the
# rule holds along the complex q and v; abs2 and conj hold along t only)
_FUNCTIONS = {
    "sin": (np.sin, lambda e, u, du: mul(func("cos", u), du), True),
    "cos": (np.cos, lambda e, u, du: neg(mul(func("sin", u), du)), True),
    "exp": (np.exp, lambda e, u, du: mul(e, du), True),
    "ln": (_ln, lambda e, u, du: div(du, u), True),
    "sqrt": (np.sqrt, lambda e, u, du: div(du, mul(Const(2), func("sqrt", u))), True),
    "abs2": (_abs2, lambda e, u, du: add(mul(u, func("conj", du)), mul(func("conj", u), du)), False),
    "conj": (np.conjugate, lambda e, u, du: func("conj", du), False),
}
FUNCTIONS = tuple(_FUNCTIONS)


def _function(fn: str):
    """The table row of a function name."""
    if fn not in _FUNCTIONS:
        raise ValidationError(f"unknown function {fn!r}")
    return _FUNCTIONS[fn]


def _div(lhs, rhs):
    if np.any(rhs == 0):
        raise NumericalError("division by zero")
    return lhs / rhs


def _power(c: float):
    """z -> z^c as _pow_fn takes it, with a Python overflow as a NumericalError."""
    pw = _pow_fn(c)

    def raise_to(z):
        try:
            return pw(z)
        except OverflowError:  # a Python scalar power overflows where numpy gives inf
            raise NumericalError(f"overflow in power ^{c:g}") from None

    return raise_to


def _unbound(b: Bindings, variables) -> None:
    """Raise for the first of the variables (Var nodes) that b does not supply."""
    for e in variables:
        if e.kind == "param":
            if e.name not in b.params:
                raise ValidationError(f"unbound parameter {e.name!r}")
            continue
        seq = b.q if e.kind == "q" else b.v
        if len(seq) < e.index:
            raise ValidationError(
                f"binding supplies {len(seq)} {e.kind} components, {e.name} needs {e.index}"
            )


# What every compiled program may call, bound in its globals under these names.
_RUNTIME = {"_coerce": _coerce, "_div": _div, "_unbound": _unbound}

# Deepest nesting of one inlined expression in a program's source; a node
# any deeper gets a name of its own.  This keeps the source far inside
# CPython's limit of 200 nested parentheses, with no recursion in the program.
_INLINE_NESTING = 32


def _emit(roots) -> tuple:
    """Body of one Python function of Bindings b that computes every root.

    Returns (lines, one expression per root, globals).  Each distinct node
    (keyed by identity, never by value: Const(1.0) == Const(1+0j)) is
    computed once.  A node that cannot raise (+, -, *, negation, / by a
    nonzero constant) and is used once is inlined into its parent's
    expression, so numpy can reuse its temporary; every other node, and one
    nested past _INLINE_NESTING, is a statement assigning a local.  The
    statements follow a walk of the roots (left to right, children first),
    so the guards fire in the order that walk meets them.  Each variable is
    read once, at the top, after one test that the bindings supply them all.
    Constants and callables live in the globals and reach the source only as
    names; parameter names reach it through repr.
    """
    uses, stack = {}, list(roots)
    while stack:
        node = stack.pop()
        uses[id(node)] = uses.get(id(node), 0) + 1
        if uses[id(node)] == 1:
            stack += _operands(node)

    env = dict(_RUNTIME)
    global_names = {}  # id(object) -> its name in env
    reads, lines = [], []
    variables = {}  # (kind, name, index) -> local
    done = {}  # id(node) -> (source, nesting); nesting 0 is a bare name

    def bind(obj) -> str:
        name = global_names.get(id(obj))
        if name is None:
            name = global_names[id(obj)] = f"_g{len(global_names)}"
            env[name] = obj
        return name

    def assign(source: str, to=lines) -> tuple:
        name = f"_{len(reads) + len(lines)}"
        to.append(f"{name} = {source}")
        return name, 0

    def read(e: Var) -> tuple:
        key = (e.kind, e.name, e.index)
        if key not in variables:
            source = {"t": "b.t", "param": f"b.params[{e.name!r}]"}.get(e.kind)
            source = source or f"b.{e.kind}[{e.index - 1!r}]"  # b.q or b.v
            variables[key] = assign(f"_coerce({source})", reads)[0], e
        return variables[key][0], 0

    def lower(e: Expr) -> tuple:
        if isinstance(e, Const):
            return bind(e.value), 0
        if isinstance(e, Var):
            return read(e)
        args = [done[id(x)] for x in _operands(e)]
        if isinstance(e, (Pow, Call)):
            fn = _power(e.exponent) if isinstance(e, Pow) else _function(e.fn)[0]
            return assign(f"{bind(fn)}({args[0][0]})")
        if isinstance(e, Neg):
            source = f"(-{args[0][0]})"
        elif not isinstance(e, BinOp):
            raise TypeError(f"not an expression node: {e!r}")
        elif e.op != "/" or (isinstance(e.right, Const) and e.right.value != 0):
            source = f"({args[0][0]} {e.op} {args[1][0]})"
        else:
            return assign(f"_div({args[0][0]}, {args[1][0]})")
        nesting = 1 + max(a[1] for a in args)
        if uses[id(e)] == 1 and nesting <= _INLINE_NESTING:
            return source, nesting
        return assign(source)

    for root in roots:
        stack = [(root, False)]
        while stack:
            node, ready = stack.pop()
            if id(node) in done:
                continue
            if ready:
                done[id(node)] = lower(node)
            else:
                stack.append((node, True))
                stack += ((x, False) for x in reversed(_operands(node)))
    # one test of the bindings up front; _unbound finds which read would fail first
    read_vars = tuple(e for _, e in variables.values() if e.kind != "t")
    checks = [f"{e.name!r} not in b.params" for e in read_vars if e.kind == "param"]
    for kind in "qv":
        n = max((e.index for e in read_vars if e.kind == kind), default=0)
        checks += [f"len(b.{kind}) < {n!r}"] if n else []
    guard = [f"if {' or '.join(checks)}: _unbound(b, {bind(read_vars)})"] if checks else []
    return guard + reads + lines, [done[id(r)][0] for r in roots], env


@functools.lru_cache(maxsize=256)
def _code(source: str):
    return builtins.compile(source, "<lagdsl program>", "exec")


def _program(roots, joint: bool):
    lines, results, env = _emit(roots)
    value = f"({''.join(r + ', ' for r in results)})" if joint else results[0]
    body = "".join(f"    {line}\n" for line in lines)
    exec(_code(f"def program(b):\n{body}    return {value}\n"), env)
    return env.pop("program")  # so the function and its globals form no cycle


def compile(e: Expr):
    """Lower e once to a function b -> value over Bindings.

    The function performs the same operations on the same operand types as
    the expression prescribes, node by node, so its results are bitwise
    reproducible: constants come back as stored, variables pass through
    complex coercion, integer powers use Python's integer power.  Guards
    raise at call time: division by zero (omitted for a nonzero constant
    denominator, where it cannot fire), ln(0), a zero base under a negative
    power, unbound parameters and missing q/v components.
    """
    return _program((e,), joint=False)


def compile_all(exprs):
    """Lower several expressions to one function b -> tuple of their values.

    A subtree the expressions share is computed once per call.  Each value
    has the bits compile(e)(b) gives; when any expression fails, the call
    raises what evaluating them one after another would raise first.
    """
    return _program(tuple(exprs), joint=True)


def evaluate(e: Expr, b: Bindings):
    """compile(e)(b): a complex scalar, or an array when bindings carry arrays."""
    return compile(e)(b)


# ---------------------------------------------------------------------------
# Differentiation


def _parse_var(var: str):
    if var == "t":
        return "t", 0
    m = _VAR_RE.match(var)
    if m:
        return m.group(1), int(m.group(2))
    raise ValidationError(f"cannot differentiate with respect to {var!r}")


def diff(e: Expr, var: str) -> Expr:
    """Exact partial derivative with respect to "t", "qK" or "vK", folded."""
    kind, index = _parse_var(var)
    return _diff(e, kind, index)


def _diff(e: Expr, kind: str, index: int) -> Expr:
    if isinstance(e, Const):
        return Const(0)
    if isinstance(e, Var):
        return Const(1) if (e.kind == kind and e.index == index) else Const(0)
    if isinstance(e, Neg):
        return neg(_diff(e.arg, kind, index))
    if isinstance(e, BinOp):
        da = _diff(e.left, kind, index)
        db = _diff(e.right, kind, index)
        if e.op == "+":
            return add(da, db)
        if e.op == "-":
            return sub(da, db)
        if e.op == "*":
            return add(mul(da, e.right), mul(e.left, db))
        return div(sub(mul(da, e.right), mul(e.left, db)), power(e.right, 2.0))
    if isinstance(e, Pow):
        du = _diff(e.base, kind, index)
        return mul(mul(Const(e.exponent), power(e.base, e.exponent - 1.0)), du)
    du = _diff(e.arg, kind, index)
    _, rule, complex_ok = _function(e.fn)
    if not complex_ok and kind != "t":
        raise ExpressionError(
            f"cannot differentiate {e.fn} with respect to the complex variable {kind}{index}"
        )
    return rule(e, e.arg, du)


# ---------------------------------------------------------------------------
# Printing


_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _fmt_float(x: float) -> str:
    return repr(float(x))


def _fmt_const(v: complex):
    re_, im = v.real, v.imag
    if im == 0:
        s = _fmt_float(re_)
        return s, (_PREC_NEG if s.startswith("-") else _PREC_ATOM)
    if re_ == 0:
        if im == 1:
            return "i", _PREC_ATOM
        if im == -1:
            return "-i", _PREC_NEG
        return f"{_fmt_float(im)}*i", _PREC_MUL  # a product, whatever its sign
    sign = "-" if im < 0 else "+"
    tail = "i" if abs(im) == 1 else f"{_fmt_float(abs(im))}*i"
    return f"({_fmt_float(re_)}{sign}{tail})", _PREC_ATOM


def _fmt(e: Expr, min_prec: int = _PREC_ADD) -> str:
    """Text of e, parenthesised when it binds looser than min_prec."""
    if isinstance(e, Const):
        s, prec = _fmt_const(e.value)
    elif isinstance(e, Var):
        s, prec = e.name, _PREC_ATOM
    elif isinstance(e, Neg):
        s, prec = "-" + _fmt(e.arg, _PREC_NEG), _PREC_NEG
    elif isinstance(e, BinOp):
        prec = _PREC_ADD if e.op in "+-" else _PREC_MUL
        s = _fmt(e.left, prec) + e.op + _fmt(e.right, prec + 1)
    elif isinstance(e, Pow):
        s, prec = f"{_fmt(e.base, _PREC_ATOM)}^{_fmt_float(e.exponent)}", _PREC_POW
    else:
        s, prec = f"{e.fn}({_fmt(e.arg)})", _PREC_ATOM
    return f"({s})" if prec < min_prec else s


def format_expr(e: Expr) -> str:
    """Render an AST to text; reparsing yields a structurally identical AST."""
    return _fmt(e)


# ---------------------------------------------------------------------------
# Scalar fields (value, time derivative, gradient, Hessian)


class ScalarField:
    """Twice-differentiable scalar function of (t, q1..qd) with symbolic partials.

    Velocity variables are rejected; the Hessian is the full matrix of second
    q-derivatives, precomputed symbolically.  Value, time derivative, gradient
    and row-major Hessian are four programs, compiled once at construction.
    """

    def __init__(self, expr: Expr, dim: int, params=None):
        self.params = dict(params or {})
        self.dim = int(dim)
        if references_velocity(expr):
            raise ValidationError("scalar fields may not reference velocity variables")
        self.expr = expr
        self.expr_t = diff(expr, "t")
        self.expr_grad = tuple(diff(expr, f"q{k + 1}") for k in range(self.dim))
        self.expr_hess = tuple(
            tuple(diff(g, f"q{j + 1}") for j in range(self.dim)) for g in self.expr_grad
        )
        self._value = compile(self.expr)
        self._time = compile(self.expr_t)
        self._grad = compile_all(self.expr_grad)
        self._hess = compile_all([h for row in self.expr_hess for h in row])

    @classmethod
    def from_text(cls, text: str, dim: int = 1, params=None) -> "ScalarField":
        params = dict(params or {})
        return cls(parse(text, dim, param_names=tuple(params)), dim, params)

    def _bind(self, t, q) -> Bindings:
        return Bindings(t=t, q=tuple(q), v=(), params=self.params)

    def value(self, t, q):
        return self._value(self._bind(t, q))

    def time_derivative(self, t, q):
        return self._time(self._bind(t, q))

    def gradient(self, t, q) -> np.ndarray:
        return np.array(self._grad(self._bind(t, q)), dtype=np.complex128)

    def hessian(self, t, q) -> np.ndarray:
        flat = np.array(self._hess(self._bind(t, q)), dtype=np.complex128)
        return flat.reshape((self.dim, self.dim) + flat.shape[1:])

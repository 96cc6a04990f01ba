"""Small arithmetic expression language for problem files.

Grammar (whitespace-insensitive, no implicit multiplication):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Unary minus binds tighter than '*' but looser than '^', so "-t^2" means
-(t^2) and "-(t-1)^2" negates the whole square.  Variables are t (time) and
s (kernel integration variable); functions exp, sin, cos, sqrt, ln, abs;
constants pi and e.

One tree walk evaluates floats and numpy arrays alike: evaluate runs it on
floats, as_function also on arrays that broadcast together.  as_function
compiles one expression or a whole grid of them (a problem file's A, B, N,
u or exact) into one function, whose result has the grid's shape in front
of the broadcast shape of t and s.  Bit-identity
between the two comes from the operations themselves: + - * / and negation
are Python or numpy arithmetic, whose IEEE results are the same, and every
function call and ^ apply the same math function, to the float or to each
element of the array (np.frompyfunc), because numpy's exp, log and power
round differently.  as_function cuts zero-stride axes of its inputs
(np.broadcast_to views) to length 1 first, so a sub-expression of t alone
makes one math call per distinct t, not one per (t, s).  When the walk fails
on arrays (division by zero, domain error, overflow), as_function re-runs
evaluate point by point, every entry at each point, so the ExprEvalError
raised names the first failing (t, s) and the first failing entry there.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Const",
    "Neg",
    "BinOp",
    "Call",
    "ExprSyntaxError",
    "ExprEvalError",
    "parse",
    "evaluate",
    "to_str",
    "variables",
    "as_function",
]

FUNCTIONS = {
    "exp": math.exp,
    "sin": math.sin,
    "cos": math.cos,
    "sqrt": math.sqrt,
    "ln": math.log,
    "abs": abs,
}
CONSTANTS = {"pi": math.pi, "e": math.e}
VARIABLES = ("t", "s")


class ExprSyntaxError(Exception):
    """Malformed source; carries the byte offset and the expected tokens."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = expected
        hint = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at offset {offset}{hint}")


class ExprEvalError(Exception):
    """Evaluation failed: a division by zero, a call's domain or range error,
    or an undefined ^; the message names the values of t and s."""


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Num, Var, Const, Neg, BinOp, Call]

_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self._skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def expect(self, char: str):
        if self.peek() != char:
            raise ExprSyntaxError(
                f"unexpected {self.describe_here()}", self.pos, (repr(char),)
            )
        self.pos += 1

    def describe_here(self) -> str:
        return repr(self.src[self.pos]) if self.pos < len(self.src) else "end of input"

    def _left_assoc(self, ops: tuple[str, ...], operand: Callable[[], Expr]) -> Expr:
        """operand (op operand)*, op one of ops, grouped from the left."""
        node = operand()
        while self.peek() in ops:
            op = self.src[self.pos]
            self.pos += 1
            node = BinOp(op, node, operand())
        return node

    def parse_expr(self) -> Expr:
        return self._left_assoc(("+", "-"), self.parse_term)

    def parse_term(self) -> Expr:
        return self._left_assoc(("*", "/"), self.parse_unary)

    def parse_unary(self) -> Expr:
        if self.peek() == "-":
            self.pos += 1
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.peek() == "^":
            self.pos += 1
            return BinOp("^", base, self.parse_unary())
        return base

    def parse_atom(self) -> Expr:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            node = self.parse_expr()
            self.expect(")")
            return node
        m = _NUMBER.match(self.src, self.pos)
        if m:
            value = float(m.group())
            if math.isinf(value):  # to_str would print "inf", which does not parse
                raise ExprSyntaxError(f"number {m.group()} overflows", m.start())
            self.pos = m.end()
            return Num(value)
        m = _IDENT.match(self.src, self.pos)
        if m:
            name = m.group()
            self.pos = m.end()
            if self.peek() == "(":
                if name not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {name!r}", m.start())
                self.pos += 1
                arg = self.parse_expr()
                self.expect(")")
                return Call(name, arg)
            if name in VARIABLES:
                return Var(name)
            if name in CONSTANTS:
                return Const(name)
            raise ExprSyntaxError(f"unknown identifier {name!r}", m.start())
        raise ExprSyntaxError(
            f"unexpected {self.describe_here()}",
            self.pos,
            ("number", "identifier", "'('", "'-'"),
        )


def parse(src: str) -> Expr:
    """Parse source text into an expression tree."""
    p = _Parser(src)
    node = p.parse_expr()
    if p.peek():
        raise ExprSyntaxError(
            f"trailing input {p.describe_here()}", p.pos, ("operator", "end of input")
        )
    return node


def evaluate(e: Expr, t: float, s: float = 0.0) -> float:
    """IEEE double evaluation with t and s bound; a failure raises ExprEvalError.
    Overflow to inf is silent for numpy scalars too, as for Python floats."""
    with np.errstate(all="ignore"):
        return _eval(e, t, s)


def _eval(e: Expr, t, s):
    """The tree walk, on floats or on arrays that broadcast together."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return t if e.name == "t" else s
    if isinstance(e, Const):
        return CONSTANTS[e.name]
    if isinstance(e, Neg):
        return -_eval(e.operand, t, s)
    if isinstance(e, Call):
        arg = _eval(e.arg, t, s)
        try:
            return _apply(FUNCTIONS[e.func], arg)
        except (ValueError, OverflowError) as exc:
            raise ExprEvalError(f"{exc} in {e.func}({arg}) at t={t}, s={s}") from exc
    if isinstance(e, BinOp):
        a = _eval(e.left, t, s)
        b = _eval(e.right, t, s)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if np.count_nonzero(b == 0.0):  # np.any costs 5x as much on a float
                raise ExprEvalError(f"division by zero in {to_str(e)!r} at t={t}, s={s}")
            return a / b
        try:
            return _apply(math.pow, a, b)
        except (ValueError, OverflowError) as exc:
            raise ExprEvalError(f"{a}^{b} undefined at t={t}, s={s}") from exc
    raise TypeError(f"not an expression node: {e!r}")


# the element-wise ufunc of each function and of ^, built once: a fresh
# np.frompyfunc costs about 3 us per array call; the table never grows
_UFUNCS = {fn: np.frompyfunc(fn, 1, 1) for fn in FUNCTIONS.values()}
_UFUNCS[math.pow] = np.frompyfunc(math.pow, 2, 1)


def _apply(fn: Callable, *args):
    """fn's float on floats; on arrays, fn applied to each element
    (np.frompyfunc), because numpy's exp, log and power round differently.
    A function put into FUNCTIONS later gets a ufunc per call."""
    if any(isinstance(a, np.ndarray) for a in args):
        ufunc = _UFUNCS.get(fn) or np.frompyfunc(fn, len(args), 1)
        return np.asarray(ufunc(*args), dtype=float)
    return float(fn(*args))


# precedences used by the printer; Neg sits between '*' and '^'
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG_PREC = 3


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _PREC[e.op]
    if isinstance(e, Neg):
        return _NEG_PREC
    return 9


def to_str(e: Expr) -> str:
    """Render with minimal parentheses; parse(to_str(e)) == e."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, (Var, Const)):
        return e.name
    if isinstance(e, Call):
        return f"{e.func}({to_str(e.arg)})"
    if isinstance(e, Neg):
        inner = to_str(e.operand)
        if _prec(e.operand) < _NEG_PREC:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, BinOp):
        lp, rp = _prec(e.left), _prec(e.right)
        left, right = to_str(e.left), to_str(e.right)
        if e.op == "^":
            # base must be an atom; exponent is a unary
            if lp <= _PREC["^"]:
                left = f"({left})"
            if rp < _NEG_PREC:
                right = f"({right})"
        else:
            # left-associative: right children of equal precedence keep parens
            if lp < _PREC[e.op]:
                left = f"({left})"
            if rp <= _PREC[e.op]:
                right = f"({right})"
        return f"{left}{e.op}{right}"
    raise TypeError(f"not an expression node: {e!r}")


def variables(e: Expr) -> set[str]:
    """Names of the variables the expression references."""
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Neg):
        return variables(e.operand)
    if isinstance(e, Call):
        return variables(e.arg)
    if isinstance(e, BinOp):
        return variables(e.left) | variables(e.right)
    return set()


def as_function(exprs) -> Callable:
    """A (t, s=0.0) callable of one Expr, or of a nested tuple or list of
    them (a grid), bit-identical to evaluate at every entry.

    Floats in give evaluate's float out for one Expr, and a float array of
    the grid's shape for a grid.  Arrays in give an array of shape grid
    shape + np.broadcast(t, s).shape whose every element equals evaluate at
    that element: t and s are compacted once, and each entry's walk fills its
    slot.  When the walk on arrays raises ExprEvalError, evaluate runs point
    by point in C order, every entry at each point, so the error names the
    first failing point and the first failing entry there.
    """
    grid = np.array(exprs, dtype=object)
    entries = list(np.ndenumerate(grid))

    def f(t, s=0.0):
        if not (isinstance(t, np.ndarray) or isinstance(s, np.ndarray)):
            out = np.empty(grid.shape)
            for i, e in entries:
                out[i] = evaluate(e, t, s)
            return out if grid.ndim else float(out)
        t, s = np.asarray(t, dtype=float), np.asarray(s, dtype=float)
        out = np.empty(grid.shape + np.broadcast(t, s).shape)
        ct, cs = _compact(t), _compact(s)
        try:
            with np.errstate(all="ignore"):  # overflow to inf is silent, as for floats
                for i, e in entries:
                    out[i] = _eval(e, ct, cs)
        except ExprEvalError:
            for a, b in np.broadcast(t, s):
                for e in grid.flat:
                    evaluate(e, a, b)
            raise
        return out

    return f


def _compact(a: np.ndarray) -> np.ndarray:
    """a with every zero-stride axis cut to length 1, so a broadcast input
    is computed on once per distinct value; it broadcasts back to a."""
    return a[tuple(slice(None, 1 if st == 0 else None) for st in a.strides) + (...,)]

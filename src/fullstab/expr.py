"""Scalar expression trees over decision variables x1..xn and parameters
p1..pd.

The grammar is deliberately small: rational/decimal literals, +, -, *, /,
integer powers and unary minus.  Everything stays exactly representable:
literals are stored as :class:`fractions.Fraction`, so evaluation at
rational points is exact and symbolic derivatives carry exact
coefficients.  Division by zero raises :class:`EvaluationError` with the
offending subtree, never a silent NaN.  :func:`evaluate` walks a tree at
one point or at many (numpy float columns, one row per point); it serves
folding, exactness tests and the error path of the code that
:mod:`fullstab.modelspec` compiles from a model's tables.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .errors import EvaluationError, ModelSyntaxError, UnknownIdentifierError

Number = Union[int, float, Fraction]


def is_rational(*vectors) -> bool:
    """True when every entry is an int or a Fraction: evaluation there is
    exact, since every literal is a Fraction and +, -, *, / and integer
    powers keep Fractions as Fractions."""
    return all(isinstance(c, (int, Fraction)) for vec in vectors for c in vec)


_ZERO = Fraction(0)
_ONE = Fraction(1)
# the largest float, exactly
_FLOAT_MAX = Fraction(sys.float_info.max)


@dataclass(frozen=True)
class Num:
    value: Fraction  # a float in trees made by fold_float
    source: "Expr" = field(default=None, compare=False, repr=False)  # what fold replaced


@dataclass(frozen=True)
class Var:
    kind: str  # 'x' or 'p'
    index: int  # 0-based


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


Expr = Union[Num, Var, Add, Sub, Mul, Div, Pow, Neg]


def num(value) -> Num:
    return Num(Fraction(value))


def is_zero(e: Expr) -> bool:
    return isinstance(e, Num) and e.value == 0


def is_one(e: Expr) -> bool:
    return isinstance(e, Num) and e.value == 1


# ---------------------------------------------------------------------------
# rendering


def to_string(e: Expr, parent_prec: int = 0) -> str:
    """Render with minimal parentheses; parse(to_string(e)) evaluates
    identically to e."""
    prec, text = _render(e)
    if prec < parent_prec:
        return "(" + text + ")"
    return text


def _render(e: Expr):
    # precedence: add/sub 1, mul/div 2, unary minus 3, power 4, atom 5
    if isinstance(e, Num):
        if e.source is not None:
            return _render(e.source)
        v = e.value
        if v < 0:
            return 3, "-" + _render_frac(-v)
        return 5, _render_frac(v)
    if isinstance(e, Var):
        return 5, f"{e.kind}{e.index + 1}"
    if isinstance(e, Add):
        return 1, to_string(e.left, 1) + " + " + to_string(e.right, 2)
    if isinstance(e, Sub):
        return 1, to_string(e.left, 1) + " - " + to_string(e.right, 2)
    if isinstance(e, Mul):
        return 2, to_string(e.left, 2) + "*" + to_string(e.right, 3)
    if isinstance(e, Div):
        return 2, to_string(e.left, 2) + "/" + to_string(e.right, 5)
    if isinstance(e, Neg):
        return 3, "-" + to_string(e.operand, 3)
    if isinstance(e, Pow):
        return 4, to_string(e.base, 5) + "^" + str(e.exponent)
    raise TypeError(f"not an Expr: {e!r}")


def _render_frac(v: Fraction) -> str:
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


# ---------------------------------------------------------------------------
# evaluation


def evaluate(e: Expr, x: Sequence[Number], p: Sequence[Number]):
    """Evaluate at a point.  Exact when inputs are Fractions/ints; float
    otherwise.  An entry of x or p may also be a numpy float column, one
    row per point: each row then gets the bits of the float evaluation at
    that row, and a zero denominator in any row raises.  Float inputs are
    meant for a tree made by :func:`fold_float`, so that no Fraction
    arithmetic is done.  A float overflow raises EvaluationError naming
    the innermost subtree that overflowed."""
    try:
        if isinstance(e, Num):
            return e.value
        if isinstance(e, Var):
            return x[e.index] if e.kind == "x" else p[e.index]
        if isinstance(e, Add):
            return evaluate(e.left, x, p) + evaluate(e.right, x, p)
        if isinstance(e, Sub):
            return evaluate(e.left, x, p) - evaluate(e.right, x, p)
        if isinstance(e, Mul):
            return evaluate(e.left, x, p) * evaluate(e.right, x, p)
        if isinstance(e, Div):
            denom = evaluate(e.right, x, p)
            if _has_zero(denom):
                raise EvaluationError("division by zero", to_string(e))
            return evaluate(e.left, x, p) / denom
        if isinstance(e, Neg):
            return -evaluate(e.operand, x, p)
        if isinstance(e, Pow):
            base = evaluate(e.base, x, p)
            if e.exponent < 0 and _has_zero(base):
                raise EvaluationError("zero raised to a negative power", to_string(e))
            if isinstance(base, np.ndarray):
                # Python's float ** int (C pow) per row: numpy's power differs
                # from it in the last bit
                return np.array([b ** e.exponent for b in base.tolist()])
            if e.exponent < 0 and isinstance(base, Fraction):
                return _ONE / base ** (-e.exponent)
            return base ** e.exponent
    except OverflowError:
        # Python's float ** int, or a float meeting a Fraction no float holds
        raise EvaluationError("float overflow", to_string(e)) from None
    raise TypeError(f"not an Expr: {e!r}")


def bounds(e: Expr, xbox, pbox, slack=0):
    """Exact bounds (lo, hi) of ``e`` over a box of one (lo, hi) pair of
    Fractions per variable, by interval arithmetic (Moore, 1966); None
    where a denominator or a negative power's base may be 0.  A ``slack``
    > 0 widens the interval of every node by slack (1 + |end|)."""
    if isinstance(e, (Num, Var)):
        ends = (e.value,) if isinstance(e, Num) else (xbox if e.kind == "x" else pbox)[e.index]
    elif isinstance(e, (Neg, Pow)):
        a = bounds(e.operand if isinstance(e, Neg) else e.base, xbox, pbox, slack)
        if a is None or isinstance(e, Pow) and e.exponent < 0 and a[0] <= 0 <= a[1]:
            return None
        ends = [-c if isinstance(e, Neg) else c**e.exponent for c in a]
        if isinstance(e, Pow) and e.exponent > 0 and e.exponent % 2 == 0 and a[0] < 0 < a[1]:
            ends.append(_ZERO)
    else:
        a, b = bounds(e.left, xbox, pbox, slack), bounds(e.right, xbox, pbox, slack)
        if a is None or b is None or isinstance(e, Div) and b[0] <= 0 <= b[1]:
            return None
        if isinstance(e, (Sub, Div)):  # a - b = a + (-b), a / b = a * (1 / b)
            b = (-b[1], -b[0]) if isinstance(e, Sub) else (1 / b[1], 1 / b[0])
        ends = [s + t if isinstance(e, (Add, Sub)) else s * t for s in a for t in b]
    lo, hi = min(ends), max(ends)
    return lo - slack * (1 + abs(lo)), hi + slack * (1 + abs(hi))


def _has_zero(value) -> bool:
    if isinstance(value, np.ndarray):
        return bool((value == 0).any())
    return value == 0


def fold_float(e: Expr) -> Expr:
    """``e`` for evaluation at float points: every variable-free subtree
    becomes one Num holding its exact value cast to float (it renders as
    the subtree it replaced, so error messages name the model text).  The
    tree then evaluates with no Fraction arithmetic and to the same bits,
    since Python computes float op Fraction as float op float(Fraction).
    A subtree whose value raises (a zero denominator) or lies beyond every
    float is kept, so that evaluation raises there as before."""
    if isinstance(e, Var):
        return e
    if not has_var(e):
        try:
            value = evaluate(e, (), ())
            if abs(value) <= _FLOAT_MAX:
                return Num(float(value), source=e)
        except EvaluationError:
            pass
    if isinstance(e, Num):
        return e
    if isinstance(e, Neg):
        return Neg(fold_float(e.operand))
    if isinstance(e, Pow):
        return Pow(fold_float(e.base), e.exponent)
    return type(e)(fold_float(e.left), fold_float(e.right))


def has_var(e: Expr) -> bool:
    if isinstance(e, Var):
        return True
    if isinstance(e, Num):
        return False
    if isinstance(e, Neg):
        return has_var(e.operand)
    if isinstance(e, Pow):
        return has_var(e.base)
    return has_var(e.left) or has_var(e.right)


# ---------------------------------------------------------------------------
# simplification (constant folding and unit/zero identities; idempotent)


def simplify(e: Expr) -> Expr:
    if isinstance(e, (Num, Var)):
        return e
    if isinstance(e, Neg):
        a = simplify(e.operand)
        if isinstance(a, Num):
            return Num(-a.value)
        if isinstance(a, Neg):
            return a.operand
        return Neg(a)
    if isinstance(e, Add):
        a, b = simplify(e.left), simplify(e.right)
        if is_zero(a):
            return b
        if is_zero(b):
            return a
        if isinstance(a, Num) and isinstance(b, Num):
            return Num(a.value + b.value)
        return Add(a, b)
    if isinstance(e, Sub):
        a, b = simplify(e.left), simplify(e.right)
        if is_zero(b):
            return a
        if isinstance(a, Num) and isinstance(b, Num):
            return Num(a.value - b.value)
        if is_zero(a):
            return simplify(Neg(b))
        return Sub(a, b)
    if isinstance(e, Mul):
        a, b = simplify(e.left), simplify(e.right)
        if is_zero(a) or is_zero(b):
            return Num(_ZERO)
        if is_one(a):
            return b
        if is_one(b):
            return a
        if isinstance(a, Num) and isinstance(b, Num):
            return Num(a.value * b.value)
        return Mul(a, b)
    if isinstance(e, Div):
        a, b = simplify(e.left), simplify(e.right)
        if is_zero(a) and not is_zero(b):
            return Num(_ZERO)
        if is_one(b):
            return a
        if isinstance(a, Num) and isinstance(b, Num) and b.value != 0:
            return Num(a.value / b.value)
        return Div(a, b)
    if isinstance(e, Pow):
        a = simplify(e.base)
        if e.exponent == 0:
            return Num(_ONE)
        if e.exponent == 1:
            return a
        if isinstance(a, Num) and (a.value != 0 or e.exponent > 0):
            if e.exponent >= 0:
                return Num(a.value**e.exponent)
            return Num(_ONE / a.value ** (-e.exponent))
        return Pow(a, e.exponent)
    raise TypeError(f"not an Expr: {e!r}")


# ---------------------------------------------------------------------------
# exact symbolic differentiation


def differentiate(e: Expr, kind: str, index: int) -> Expr:
    """Exact partial derivative with respect to x(index+1) or p(index+1).

    Total on valid expressions; the result is simplified so literal-zero
    subtrees fold away (which makes repeated differentiation idempotent on
    affine expressions).
    """
    return simplify(_diff(e, kind, index))


def _diff(e: Expr, kind: str, index: int) -> Expr:
    if isinstance(e, Num):
        return Num(_ZERO)
    if isinstance(e, Var):
        if e.kind == kind and e.index == index:
            return Num(_ONE)
        return Num(_ZERO)
    if isinstance(e, Add):
        return Add(_diff(e.left, kind, index), _diff(e.right, kind, index))
    if isinstance(e, Sub):
        return Sub(_diff(e.left, kind, index), _diff(e.right, kind, index))
    if isinstance(e, Mul):
        return Add(
            Mul(_diff(e.left, kind, index), e.right),
            Mul(e.left, _diff(e.right, kind, index)),
        )
    if isinstance(e, Div):
        # (u/v)' = u'/v - u v'/v^2
        return Sub(
            Div(_diff(e.left, kind, index), e.right),
            Div(Mul(e.left, _diff(e.right, kind, index)), Pow(e.right, 2)),
        )
    if isinstance(e, Neg):
        return Neg(_diff(e.operand, kind, index))
    if isinstance(e, Pow):
        # d(u^k) = k u^(k-1) u'
        return Mul(
            Mul(Num(Fraction(e.exponent)), Pow(e.base, e.exponent - 1)),
            _diff(e.base, kind, index),
        )
    raise TypeError(f"not an Expr: {e!r}")


# ---------------------------------------------------------------------------
# identically-zero test

# rational points at which expr_is_zero must find a zero value
_ZERO_TRIALS = 12


def expr_is_zero(e: Expr, n: int, d: int) -> bool:
    """Decide whether ``e`` is identically zero.

    Simplification handles the common case; otherwise evaluate exactly at
    the points of :func:`at_probe_points` (Schwartz-Zippel with exact
    arithmetic: a nonzero rational function vanishes at all of them only
    if they happen to lie on its zero set).
    """
    s = simplify(e)
    if is_zero(s):
        return True
    hits = 0
    for value in at_probe_points(lambda x, p: evaluate(s, x, p), n, d):
        if value != 0:
            return False
        hits += 1
    return hits > 0


def at_probe_points(fn, n: int, d: int):
    """``fn(x, p)`` at the first _ZERO_TRIALS of 8 * _ZERO_TRIALS fixed
    rational points (x, p) where it raises no EvaluationError (a point on a
    singularity is skipped): the points of every identically-zero test."""
    hits = k = 0
    for _ in range(8 * _ZERO_TRIALS):
        x = [_probe_value(k + 2 * j) for j in range(n)]
        p = [_probe_value(k + 2 * n + 3 * j + 1) for j in range(d)]
        k += 2 * n + 3 * max(d, 1) + 5
        try:
            value = fn(x, p)
        except EvaluationError:
            continue
        yield value
        hits += 1
        if hits == _ZERO_TRIALS:
            return


def _probe_value(seed: int) -> Fraction:
    # Quasi-random rationals with large, coprime-ish numerators/denominators.
    a = (seed * 2654435761 + 1013904223) % 100003 - 50001
    b = (seed * 40503 + 12345) % 9973 + 1
    if a == 0:
        a = 7
    return Fraction(a, b)


# ---------------------------------------------------------------------------
# expression parser (shared by the model-file reader)


class _Tokenizer:
    _SYMBOLS = "+-*/^()"

    def __init__(self, text: str, line: int = 1, col_offset: int = 0):
        self.text = text
        self.pos = 0
        self.line = line
        self.col_offset = col_offset
        self.tokens = []
        self._scan()
        self.index = 0

    def _scan(self):
        text = self.text
        i = 0
        while i < len(text):
            c = text[i]
            if c in " \t":
                i += 1
                continue
            start = i
            if c in self._SYMBOLS:
                self.tokens.append(("sym", c, start))
                i += 1
            elif c.isdigit() or (c == "." and i + 1 < len(text) and text[i + 1].isdigit()):
                j = i
                seen_dot = False
                while j < len(text) and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                    seen_dot = seen_dot or text[j] == "."
                    j += 1
                self.tokens.append(("num", text[i:j], start))
                i = j
            elif c.isalpha() or c == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("ident", text[i:j], start))
                i = j
            else:
                raise ModelSyntaxError(
                    f"unexpected character {c!r}", self.line, self.col_offset + i + 1
                )
        self.tokens.append(("end", "", len(text)))

    def peek(self):
        return self.tokens[self.index]

    def next(self):
        tok = self.tokens[self.index]
        if tok[0] != "end":
            self.index += 1
        return tok

    def col(self, tok) -> int:
        return self.col_offset + tok[2] + 1


class ExprParser:
    """Recursive-descent parser for the scalar expression grammar."""

    def __init__(self, n: int, d: int):
        self.n = n
        self.d = d

    def parse(self, text: str, line: int = 1, col_offset: int = 0) -> Expr:
        tz = _Tokenizer(text, line, col_offset)
        e = self._expr(tz)
        tok = tz.peek()
        if tok[0] != "end":
            raise ModelSyntaxError(
                f"unexpected token {tok[1]!r}", tz.line, tz.col(tok)
            )
        return e

    def _expr(self, tz) -> Expr:
        e = self._term(tz)
        while tz.peek()[1] in ("+", "-"):
            op = tz.next()[1]
            rhs = self._term(tz)
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def _term(self, tz) -> Expr:
        e = self._unary(tz)
        while tz.peek()[1] in ("*", "/"):
            op = tz.next()[1]
            rhs = self._unary(tz)
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def _unary(self, tz) -> Expr:
        if tz.peek()[1] == "-":
            tz.next()
            return Neg(self._unary(tz))
        if tz.peek()[1] == "+":
            tz.next()
            return self._unary(tz)
        return self._power(tz)

    def _power(self, tz) -> Expr:
        base = self._atom(tz)
        if tz.peek()[1] == "^":
            tz.next()
            sign = 1
            if tz.peek()[1] == "-":
                tz.next()
                sign = -1
            tok = tz.next()
            if tok[0] != "num" or "." in tok[1]:
                raise ModelSyntaxError(
                    "exponent must be an integer literal", tz.line, tz.col(tok)
                )
            return Pow(base, sign * int(tok[1]))
        return base

    def _atom(self, tz) -> Expr:
        tok = tz.next()
        kind, value, _ = tok
        if kind == "num":
            return Num(Fraction(value))
        if kind == "ident":
            return self._variable(value, tz, tok)
        if value == "(":
            e = self._expr(tz)
            closing = tz.next()
            if closing[1] != ")":
                raise ModelSyntaxError("expected ')'", tz.line, tz.col(closing))
            return e
        raise ModelSyntaxError(
            f"expected a number, variable or '(', got {value!r}" if value else "unexpected end of expression",
            tz.line,
            tz.col(tok),
        )

    def _variable(self, name: str, tz, tok) -> Var:
        kind = name[0]
        rest = name[1:]
        if kind in ("x", "p") and rest.isdigit():
            idx = int(rest)
            bound = self.n if kind == "x" else self.d
            if 1 <= idx <= bound:
                return Var(kind, idx - 1)
            raise UnknownIdentifierError(
                f"unknown identifier '{name}': index out of declared range "
                f"(n={self.n}, d={self.d})",
                tz.line,
                tz.col(tok),
            )
        raise UnknownIdentifierError(
            f"unknown identifier '{name}'", tz.line, tz.col(tok)
        )

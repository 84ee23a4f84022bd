"""Parametric model files: parsing, exact derivatives, point evaluation.

A model couples a base map f(x, p) on R^n (given directly or as the
x-gradient of a scalar potential) with m inequality constraints
phi_i(x, p) <= 0 and, optionally, a reference triple on the solution-map
graph.  All derivative data (Jacobian of f, constraint gradients in x and
p, Hessians), and the structure flags read from it, are built symbolically
once at construction.  The first evaluation compiles the tables to one
Python function that evaluates them exactly at rational points, and in
floats at one point or at a batch, with the results of the tree walk
(:func:`expr.evaluate`), which runs only to name an error.  Both paths
give arrays of one layout, Fractions in ``dtype=object`` on the exact one.

Model file format (UTF-8, '#' comments)::

    dims n=3 d=2
    potential = x3 + (1/4 + p2)*x1 + p1*x2 + x3^2 - x1*x2
    constraint x1 - x3 - p1 <= 0
    ...
    reference x=(0,0,0) p=(0,0) v=(0,0,0)

Either ``potential = <expr>`` or ``f = (<expr>, ..., <expr>)`` must be
present.  Variables are spelled x1..xn and p1..pd.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from typing import Optional

import numpy as np

from . import expr as ex
from .defaults import FEAS_TOL
from .errors import (
    DimensionError,
    EvaluationError,
    InfeasiblePointError,
    ModelSyntaxError,
)

__all__ = [
    "ParametricModel",
    "ReferenceTriple",
    "EvalBundle",
    "parse_model",
    "print_model",
    "eval_bundle",
    "eval_bundle_exact",
    "eval_f",
    "eval_reference",
]


@dataclass(frozen=True)
class ReferenceTriple:
    """A point (x, p, v) on the solution-map graph; ``v_hat = v - f(x, p)``
    is always computed from an evaluation at (x, p), never stored
    independently."""

    x: tuple
    p: tuple
    v: tuple

    def v_hat(self, exact: "EvalBundle") -> np.ndarray:
        """v - f(x, p) in floats, from the bundle ``exact`` evaluated at
        (x, p) (the first bundle of :func:`eval_reference`): the difference
        is exact before the cast at a rational reference."""
        return np.array([float(v - f) for v, f in zip(self.v, exact.f)])

    def as_arrays(self):
        return (
            np.array([float(c) for c in self.x]),
            np.array([float(c) for c in self.p]),
            np.array([float(c) for c in self.v]),
        )


@dataclass(frozen=True)
class ParametricModel:
    n: int
    d: int
    f_components: tuple  # n expressions
    constraints: tuple  # m expressions
    potential: Optional[ex.Expr] = None
    reference: Optional[ReferenceTriple] = None
    # derived symbolic tables, filled in __post_init__
    f_jac: tuple = field(default=(), compare=False)  # n x n exprs, d f_i / d x_j
    grad_phi: tuple = field(default=(), compare=False)  # m x n exprs
    hess_phi: tuple = field(default=(), compare=False)  # m x n x n exprs
    affine_x: tuple = field(default=(), compare=False)  # per-constraint flag
    affine_xp: tuple = field(default=(), compare=False)  # gradient constant in (x,p)
    phi_p: tuple = field(default=(), compare=False)  # m x d exprs, d phi_i / d p_l
    param_free: tuple = field(default=(), compare=False)  # phi_i independent of p
    jointly_affine: tuple = field(default=(), compare=False)  # phi_i affine in (x, p)
    f_affine: bool = field(default=False, compare=False)  # f affine in x
    # the tables compiled at the first evaluation (_Program)
    program: Optional["_Program"] = field(default=None, init=False, compare=False, repr=False)

    @property
    def m(self) -> int:
        return len(self.constraints)

    @property
    def tables(self) -> tuple:
        """(f, jac_f, phi, grad_phi, hess_phi) as expressions."""
        return (self.f_components, self.f_jac, self.constraints, self.grad_phi, self.hess_phi)

    def __post_init__(self):
        if len(self.f_components) != self.n:
            raise DimensionError(
                f"f has {len(self.f_components)} components, expected n={self.n}"
            )
        n, d, m = self.n, self.d, len(self.constraints)

        def zero(entries):  # every entry is identically zero
            return all(ex.expr_is_zero(e, n, d) for e in entries)

        def partials(e, kind, count):
            return tuple(ex.differentiate(e, kind, j) for j in range(count))

        def all_zero(table, kind, count):  # every partial of every entry
            return zero(ex.differentiate(e, kind, j) for e in table for j in range(count))

        f_jac = tuple(partials(fi, "x", n) for fi in self.f_components)
        grad_phi = tuple(partials(phi, "x", n) for phi in self.constraints)
        hess_phi = tuple(tuple(partials(g, "x", n) for g in grads) for grads in grad_phi)
        affine_x = tuple(zero(_entries(hess)) for hess in hess_phi)
        affine_xp = tuple(affine_x[i] and all_zero(grad_phi[i], "p", d) for i in range(m))
        phi_p = tuple(partials(phi, "p", d) for phi in self.constraints)
        param_free = tuple(zero(row) for row in phi_p)
        jointly_affine = tuple(
            affine_xp[i] and (param_free[i] or all_zero(phi_p[i], "p", d)) for i in range(m)
        )
        f_affine = all_zero(_entries(f_jac), "x", n)
        derived = dict(
            f_jac=f_jac, grad_phi=grad_phi, hess_phi=hess_phi, affine_x=affine_x,
            affine_xp=affine_xp, phi_p=phi_p, param_free=param_free,
            jointly_affine=jointly_affine, f_affine=f_affine,
        )
        for name, value in derived.items():
            object.__setattr__(self, name, value)
        if self.reference is not None:
            self._check_reference()

    def _check_reference(self):
        ref = self.reference
        if len(ref.x) != self.n or len(ref.p) != self.d or len(ref.v) != self.n:
            raise DimensionError("reference dimensions do not match dims header")
        for i, phi in enumerate(self.constraints):
            val = ex.evaluate(phi, ref.x, ref.p)  # exact at a rational reference
            if val > FEAS_TOL:
                shown = f"{float(val):.3e}" if val <= sys.float_info.max else "beyond every float"
                raise InfeasiblePointError(
                    f"reference point violates constraint {i + 1}: "
                    f"phi_{i + 1} = {shown} > {FEAS_TOL}"
                )


@dataclass(frozen=True)
class EvalBundle:
    """All first- and second-order data at one point, as numpy arrays of
    one layout: floats from :func:`eval_bundle`, Fractions in
    ``dtype=object`` from :func:`eval_bundle_exact`."""

    f: np.ndarray  # (n,)
    jac_f: np.ndarray  # (n, n), entry [i, j] = d f_i / d x_j
    phi: np.ndarray  # (m,)
    grad_phi: np.ndarray  # (m, n)
    hess_phi: np.ndarray  # (m, n, n)

    @property
    def exact(self) -> bool:
        """Whether the entries are Fractions rather than floats."""
        return self.jac_f.dtype == object

    def floats(self) -> "EvalBundle":
        """The bundle in floats, each Fraction entry rounded once (itself
        when it is a float bundle)."""
        if not self.exact:
            return self
        try:
            return EvalBundle(*(a.astype(float) for a in self.arrays()))
        except OverflowError:
            raise EvaluationError("non-finite value in evaluation bundle")

    def arrays(self) -> tuple:
        """(f, jac_f, phi, grad_phi, hess_phi), uncopied."""
        return self.f, self.jac_f, self.phi, self.grad_phi, self.hess_phi

    def lagrangian_jacobian(self, lam):
        """x-Jacobian of the Lagrangian map f + sum lam_i grad phi_i, i.e.
        jac_f + sum lam_i hess_phi_i (not necessarily symmetric), with lam
        cast to the bundle's number type."""
        H = self.jac_f.copy()
        for li, hess in zip(map(Fraction if self.exact else float, lam), self.hess_phi):
            if li != 0:
                H += li * hess
        return H


def _entries(table):
    """A nested table's entries in row-major order: the flat order."""
    return [e for t in table for e in _entries(t)] if isinstance(table, tuple) else [table]


def _pow(base, k):
    if isinstance(base, np.ndarray):
        # Python's float ** int (C pow) per row: numpy's power differs
        # from it in the last bit
        return np.fromiter(map(pow, base.tolist(), repeat(k)), float, len(base))
    return base**k


def _div(a, b):
    # a zero in any row of a column raises, as a scalar zero does
    if not (b.all() if isinstance(b, np.ndarray) else b):
        raise ZeroDivisionError
    return a / b


class _Program:
    """The tables compiled to one function ``fn(x, p, c, out)`` that writes
    each entry with a variable into ``out`` in the flat order (a template
    holds the others) and computes a repeated subtree once.  Each maximal
    variable-free subtree is a slot of ``c``: its Fraction on the exact
    path, its value in the folded walk on the float path.  So ``fn`` does
    the operations of :func:`expr.evaluate`, with the same results, and
    raises only where the walk does: at a zero denominator or base of a
    negative power, or on overflow.  The walk then runs to name the error,
    as it does when a slot has no value on the path."""

    _OPS = {ex.Add: "+", ex.Sub: "-", ex.Mul: "*"}

    def __init__(self, model: ParametricModel):
        self.entries = _entries(model.tables)
        slots, names, lines, writes, constant = {}, {}, [], [], {}

        def emit(e):
            if isinstance(e, ex.Var):
                return f"{e.kind}[{e.index}]"
            if not ex.has_var(e):
                return f"c[{slots.setdefault(e, len(slots))}]"
            if isinstance(e, ex.Neg):
                rhs = "-" + emit(e.operand)
            elif isinstance(e, ex.Pow):
                rhs = f"_pow({emit(e.base)}, {e.exponent})"
            elif isinstance(e, ex.Div):
                rhs = f"_div({emit(e.left)}, {emit(e.right)})"
            else:
                rhs = f"{emit(e.left)} {_Program._OPS[type(e)]} {emit(e.right)}"
            if rhs not in names:
                names[rhs] = f"t[{len(names)}]"
                lines.append(f"    {names[rhs]} = {rhs}")
            return names[rhs]

        for j, e in enumerate(self.entries):
            if ex.has_var(e):
                writes.append(f"    out[{j}] = {emit(e)}")
            else:
                constant[j] = slots.setdefault(e, len(slots))
        del emit  # the recursive closure is a cycle holding the tables
        namespace = {"_pow": _pow, "_div": _div}
        # temporaries in a list: compiled names are interned, in a table that never shrinks
        head = f"def fn(x, p, c, out):\n    t = [None] * {len(names)}"
        source = "\n".join([head, *lines, *writes, "    return"])
        exec(compile(source, "<model>", "exec"), namespace)
        self.fn = namespace.pop("fn")  # no cycle through fn.__globals__
        # per path (exact or not): the slots (None if one lacks a value), template
        self.paths = {}
        for exact in (True, False):
            values = [self._slot_value(e, exact) for e in slots]
            template = [Fraction(0) if exact else 0.0] * len(self.entries)
            for j, k in constant.items():
                template[j] = template[j] if values[k] is None else values[k]
            self.paths[exact] = (None if None in values else values), template

    @staticmethod
    def _slot_value(e, exact):
        # the walk's value, None where it raises; a Fraction beyond every
        # float (kept by fold_float) makes fn raise OverflowError where used
        try:
            return ex.evaluate(e if exact else ex.fold_float(e), (), ())
        except EvaluationError:
            return None


def _values(model: ParametricModel, x, p, exact=False, size=None):
    """The flat entries at (x, p), or at the rows of (K, n) and (K, d)
    arrays on the float path (then an array of one row per entry): all of
    them from the compiled function, or the first ``size`` from the walk."""
    if exact:
        x, p, batch = [Fraction(c) for c in x], [Fraction(c) for c in p], ()
    else:
        x, p = np.asarray(x, dtype=float), np.asarray(p, dtype=float)
        batch = x.shape[:-1]
        if not batch:
            x, p = x.tolist(), p.tolist()
        elif p.ndim != 2 or len(p) != len(x):
            raise DimensionError(f"{len(x)} x rows but p has shape {p.shape}")
        else:  # one float column per variable
            x, p = list(np.ascontiguousarray(x.T)), list(np.ascontiguousarray(p.T))
    if len(x) != model.n or len(p) != model.d:
        raise DimensionError(
            f"point has dims ({len(x)}, {len(p)}), model needs ({model.n}, {model.d})"
        )
    if model.program is None:
        object.__setattr__(model, "program", _Program(model))
    slots, template = model.program.paths[exact]
    out = np.repeat(np.array(template)[:, None], *batch, axis=1) if batch else list(template)
    with np.errstate(all="ignore"):
        if slots is not None:
            try:
                model.program.fn(x, p, slots, out)
                return np.asarray(out, dtype=object if exact else float)
            except ArithmeticError:
                pass
        for j, e in enumerate(model.program.entries[:size]):
            out[j] = value = ex.evaluate(e if exact else ex.fold_float(e), x, p)
            if not exact and isinstance(value, Fraction):  # a literal no float holds
                raise EvaluationError("float overflow", ex.to_string(e))
    return np.asarray(out[:size], dtype=object if exact else float)


def _split(model: ParametricModel, flat) -> EvalBundle:
    """The flat entries as a bundle of views, the batch axis first."""
    n, m = model.n, model.m
    flat, arrays, start = flat.T, [], 0
    for shape in ((n,), (n, n), (m,), (m, n), (m, n, n)):
        size = math.prod(shape)
        arrays.append(flat[..., start : start + size].reshape(flat.shape[:-1] + shape))
        start += size
    return EvalBundle(*arrays)


def eval_bundle(model: ParametricModel, x, p) -> EvalBundle:
    """Evaluate f, its x-Jacobian, all constraints with gradients and
    Hessians in floats at (x, p), or at each row of (K, n) and (K, d)
    arrays, every array of the bundle then with a leading K axis.  Raises
    EvaluationError on division by zero or a non-finite value at any
    point."""
    flat = _values(model, x, p)
    # f, jac_f and phi lead the flat order
    if not np.isfinite(flat[: model.n * (model.n + 1) + model.m]).all():
        raise EvaluationError("non-finite value in evaluation bundle")
    return _split(model, flat)


def eval_f(model: ParametricModel, x, p) -> np.ndarray:
    """f alone in floats, at one point or at the rows of (K, n) and (K, d)
    arrays, from the same function as :func:`eval_bundle`."""
    return _values(model, x, p, size=model.n)[: model.n].T


def eval_bundle_exact(model: ParametricModel, x, p) -> EvalBundle:
    """The same data in Fractions at a rational point (see
    :func:`expr.is_rational`), in the layout of a one-point
    :func:`eval_bundle` with ``dtype=object``."""
    return _split(model, _values(model, x, p, exact=True))


def eval_reference(model: ParametricModel, ref: ReferenceTriple):
    """The reference evaluated once, as (exact, floats): ``exact`` is the
    Fraction bundle when x, p and v are all rational, and ``floats`` its
    cast (:meth:`EvalBundle.floats`); otherwise both are the float bundle.
    The pointwise checks take these bundles instead.  An exact entry that
    no float holds raises EvaluationError naming it (e.g. phi_1)."""
    if not ex.is_rational(ref.x, ref.p, ref.v):
        return (bundle := eval_bundle(model, ref.x, ref.p)), bundle
    exact = eval_bundle_exact(model, ref.x, ref.p)
    try:
        return exact, exact.floats()
    except EvaluationError:
        tables = zip(("f", "jac_f", "phi", "grad_phi", "hess_phi"), exact.arrays())
        named = [(t + "".join(f"_{k + 1}" for k in at), a[at])
                 for t, a in tables for at in np.ndindex(a.shape)]
        j = next(j for j, (_, c) in enumerate(named) if abs(c) > ex._FLOAT_MAX)
        raise EvaluationError(f"{named[j][0]} lies beyond every float",
                              ex.to_string(model.program.entries[j])) from None


# ---------------------------------------------------------------------------
# model-file grammar

_DIMS_RE = re.compile(r"^dims\s+n\s*=\s*(\d+)\s+d\s*=\s*(\d+)\s*$")
_CONSTR_RE = re.compile(r"^constraint\s+(.*?)\s*<=\s*0\s*$")
_REF_RE = re.compile(
    r"^reference\s+x\s*=\s*\(([^)]*)\)\s+p\s*=\s*\(([^)]*)\)\s+v\s*=\s*\(([^)]*)\)\s*$"
)


def parse_model(text: str) -> ParametricModel:
    """Parse a model file; see the module docstring for the grammar."""
    n = d = None
    potential = None
    f_components = None
    constraints = []
    reference = None
    parser = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("dims"):
            m = _DIMS_RE.match(line)
            if not m:
                raise ModelSyntaxError("malformed dims header", lineno)
            n, d = int(m.group(1)), int(m.group(2))
            parser = ex.ExprParser(n, d)
            continue
        if parser is None:
            raise ModelSyntaxError("dims header must come first", lineno)
        if line.startswith("potential"):
            _, _, rhs = line.partition("=")
            if not rhs.strip():
                raise ModelSyntaxError("potential needs an expression", lineno)
            potential = parser.parse(rhs.strip(), lineno)
            continue
        if line.startswith("f"):
            _, _, rhs = line.partition("=")
            rhs = rhs.strip()
            if not (rhs.startswith("(") and rhs.endswith(")")):
                raise ModelSyntaxError("f must be a parenthesized tuple", lineno)
            parts = _split_tuple(rhs[1:-1], lineno)
            f_components = tuple(parser.parse(part, lineno) for part in parts)
            continue
        if line.startswith("constraint"):
            m = _CONSTR_RE.match(line)
            if not m:
                raise ModelSyntaxError("constraint must end with '<= 0'", lineno)
            constraints.append(parser.parse(m.group(1), lineno))
            continue
        if line.startswith("reference"):
            m = _REF_RE.match(line)
            if not m:
                raise ModelSyntaxError(
                    "reference must look like 'reference x=(...) p=(...) v=(...)'",
                    lineno,
                )
            xs = _parse_vector(m.group(1), n, "x", lineno)
            ps = _parse_vector(m.group(2), d, "p", lineno)
            vs = _parse_vector(m.group(3), n, "v", lineno)
            reference = ReferenceTriple(x=xs, p=ps, v=vs)
            continue
        raise ModelSyntaxError(f"unrecognized line: {line!r}", lineno)

    if n is None:
        raise ModelSyntaxError("missing dims header")
    if potential is None and f_components is None:
        raise ModelSyntaxError("model needs either 'potential =' or 'f = (...)'")
    if potential is not None and f_components is not None:
        raise ModelSyntaxError("give either a potential or f, not both")
    if potential is not None:
        f_components = tuple(ex.differentiate(potential, "x", j) for j in range(n))
    return ParametricModel(
        n=n,
        d=d,
        f_components=f_components,
        constraints=tuple(constraints),
        potential=potential,
        reference=reference,
    )


def _split_tuple(body: str, lineno: int):
    parts = []
    depth = 0
    current = []
    for c in body:
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        if c == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(c)
    parts.append("".join(current))
    parts = [part.strip() for part in parts]
    if any(not part for part in parts):
        raise ModelSyntaxError("empty tuple component", lineno)
    return parts


def _parse_vector(body: str, size: int, label: str, lineno: int) -> tuple:
    body = body.strip()
    parts = [s.strip() for s in body.split(",")] if body else []
    if len(parts) != size:
        raise ModelSyntaxError(
            f"{label} has {len(parts)} components, expected {size}", lineno
        )
    values = []
    for part in parts:
        try:
            values.append(_parse_number(part))
        except (ValueError, ZeroDivisionError):
            raise ModelSyntaxError(f"bad number {part!r} in {label}", lineno)
    return tuple(values)


def _parse_number(token: str):
    token = token.strip()
    neg = token.startswith("-")
    if neg:
        token = token[1:].strip()
    if "/" in token:
        a, b = token.split("/")
        value = Fraction(int(a), int(b))
    else:
        value = Fraction(token)
    return -value if neg else value


def print_model(model: ParametricModel) -> str:
    """Render back to the file grammar; parse(print(model)) evaluates
    pointwise identically."""
    lines = [f"dims n={model.n} d={model.d}"]
    if model.potential is not None:
        lines.append(f"potential = {ex.to_string(model.potential)}")
    else:
        body = ", ".join(ex.to_string(c) for c in model.f_components)
        lines.append(f"f = ({body})")
    for phi in model.constraints:
        lines.append(f"constraint {ex.to_string(phi)} <= 0")
    if model.reference is not None:
        ref = model.reference
        x, p, v = (", ".join(map(_format_number, vec)) for vec in (ref.x, ref.p, ref.v))
        lines.append(f"reference x=({x}) p=({p}) v=({v})")
    return "\n".join(lines) + "\n"


def _format_number(value) -> str:
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    return repr(value)

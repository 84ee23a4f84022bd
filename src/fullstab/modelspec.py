"""Parametric model files: parsing, exact derivatives, point evaluation.

A model couples a base map f(x, p) on R^n (given directly or as the
x-gradient of a scalar potential) with m inequality constraints
phi_i(x, p) <= 0 and, optionally, a reference triple on the solution-map
graph.  All derivative data (Jacobian of f, constraint gradients in x and
p, Hessians), and the structure flags read from it, are built symbolically
once at construction; the data is evaluated on demand, exactly at rational
points.  The float path evaluates a copy of the tables folded once per
model (:func:`expr.fold_float`), at one point or at a batch of points
through the same code.  Both paths give arrays of one layout, Fractions in
``dtype=object`` on the exact one.

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

import re
from dataclasses import dataclass, field
from fractions import Fraction
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
    # every phi_i affine in (x, p) and jac_f constant in (x, p)
    polyhedral: bool = field(default=False, compare=False)
    # (f, jac_f, phi, grad_phi, hess_phi) by expr.fold_float
    float_tables: tuple = field(default=(), compare=False, repr=False)

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
        n, d = self.n, self.d
        f_jac = tuple(
            tuple(ex.differentiate(fi, "x", j) for j in range(n))
            for fi in self.f_components
        )
        grad_phi = tuple(
            tuple(ex.differentiate(phi, "x", j) for j in range(n))
            for phi in self.constraints
        )
        hess_phi = tuple(
            tuple(
                tuple(ex.differentiate(gj, "x", k) for k in range(n))
                for gj in grads
            )
            for grads in grad_phi
        )
        affine_x = tuple(
            all(ex.expr_is_zero(h, n, d) for row in hess for h in row)
            for hess in hess_phi
        )
        affine_xp = tuple(
            affine_x[i]
            and all(
                ex.expr_is_zero(ex.differentiate(g, "p", l), n, d)
                for g in grad_phi[i]
                for l in range(d)
            )
            for i in range(len(self.constraints))
        )
        phi_p = tuple(
            tuple(ex.differentiate(phi, "p", l) for l in range(d))
            for phi in self.constraints
        )
        param_free = tuple(all(ex.expr_is_zero(e, n, d) for e in row) for row in phi_p)
        jointly_affine = tuple(
            affine_xp[i]
            and (param_free[i] or all(
                ex.expr_is_zero(ex.differentiate(e, "p", l), n, d)
                for e in phi_p[i]
                for l in range(d)
            ))
            for i in range(len(self.constraints))
        )
        f_affine = all(
            ex.expr_is_zero(ex.differentiate(fij, "x", k), n, d)
            for row in f_jac
            for fij in row
            for k in range(n)
        )
        polyhedral = f_affine and all(jointly_affine) and all(
            ex.expr_is_zero(ex.differentiate(fij, "p", l), n, d)
            for row in f_jac
            for fij in row
            for l in range(d)
        )
        object.__setattr__(self, "f_jac", f_jac)
        object.__setattr__(self, "grad_phi", grad_phi)
        object.__setattr__(self, "hess_phi", hess_phi)
        object.__setattr__(self, "affine_x", affine_x)
        object.__setattr__(self, "affine_xp", affine_xp)
        object.__setattr__(self, "phi_p", phi_p)
        object.__setattr__(self, "param_free", param_free)
        object.__setattr__(self, "jointly_affine", jointly_affine)
        object.__setattr__(self, "f_affine", f_affine)
        object.__setattr__(self, "polyhedral", polyhedral)
        object.__setattr__(self, "float_tables", _fold(self.tables))
        if self.reference is not None:
            self._check_reference()

    def _check_reference(self):
        ref = self.reference
        if len(ref.x) != self.n or len(ref.p) != self.d or len(ref.v) != self.n:
            raise DimensionError("reference dimensions do not match dims header")
        phi = self.phi_values(ref.x, ref.p)
        for i, val in enumerate(phi):
            if float(val) > FEAS_TOL:
                raise InfeasiblePointError(
                    f"reference point violates constraint {i + 1}: "
                    f"phi_{i + 1} = {float(val):.3e} > {FEAS_TOL}"
                )

    # -- point evaluation ---------------------------------------------------

    def phi_values(self, x, p):
        return [ex.evaluate(phi, x, p) for phi in self.constraints]


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


def _fold(table):
    if isinstance(table, tuple):
        return tuple(_fold(t) for t in table)
    return ex.fold_float(table)


def _evaluate(table, x, p, cast):
    if isinstance(table, tuple):
        return [_evaluate(t, x, p, cast) for t in table]
    return cast(ex.evaluate(table, x, p))


def _eval_tables(model: ParametricModel, tables, x, p, cast):
    """``tables`` (f, jac_f, phi, grad_phi, hess_phi, or the first few of
    them) at (x, p) as nested lists, each entry passed through ``cast`` as
    it is evaluated."""
    if len(x) != model.n or len(p) != model.d:
        raise DimensionError(
            f"point has dims ({len(x)}, {len(p)}), model needs ({model.n}, {model.d})"
        )
    return _evaluate(tables, x, p, cast)


def _float_points(x, p):
    """(x, p) as lists of floats at one point, or as lists of float columns
    when x and p are (K, n) and (K, d) arrays of K points; with the cast
    that gives every table entry the batch shape, () or (K,)."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    if x.ndim == 1:
        return x.tolist(), p.tolist(), (), float
    if p.ndim != 2 or len(p) != len(x):
        raise DimensionError(f"{len(x)} x rows but p has shape {p.shape}")
    batch = x.shape[:1]
    return (
        list(np.ascontiguousarray(x.T)),
        list(np.ascontiguousarray(p.T)),
        batch,
        lambda value: value if isinstance(value, np.ndarray) else np.full(batch, value),
    )


def _stack(table, shape, batch, dtype=float):
    """A nested list of entries as an array of ``shape``, with the batch
    axis first."""
    a = np.array(table, dtype=dtype).reshape(shape + batch)
    return np.moveaxis(a, -1, 0) if batch else a


def _bundle(model: ParametricModel, tables, batch, dtype) -> EvalBundle:
    n, m = model.n, model.m
    shapes = ((n,), (n, n), (m,), (m, n), (m, n, n))
    return EvalBundle(*(_stack(t, shape, batch, dtype) for t, shape in zip(tables, shapes)))


def eval_bundle(model: ParametricModel, x, p) -> EvalBundle:
    """Evaluate f, its x-Jacobian, all constraints with gradients and
    Hessians in floats at (x, p), or at each row of (K, n) and (K, d)
    arrays, every array of the bundle then with a leading K axis.  Raises
    EvaluationError on division by zero or a non-finite value at any
    point."""
    x, p, batch, cast = _float_points(x, p)
    with np.errstate(all="ignore"):
        tables = _eval_tables(model, model.float_tables, x, p, cast)
    bundle = _bundle(model, tables, batch, float)
    if not all(np.all(np.isfinite(a)) for a in (bundle.f, bundle.jac_f, bundle.phi)):
        raise EvaluationError("non-finite value in evaluation bundle")
    return bundle


def eval_f(model: ParametricModel, x, p) -> np.ndarray:
    """f alone in floats, at one point or at the rows of (K, n) and (K, d)
    arrays, from the same folded tables as :func:`eval_bundle`."""
    x, p, batch, cast = _float_points(x, p)
    with np.errstate(all="ignore"):
        (f,) = _eval_tables(model, model.float_tables[:1], x, p, cast)
    return _stack(f, (model.n,), batch)


def eval_bundle_exact(model: ParametricModel, x, p) -> EvalBundle:
    """The same data in Fractions at a rational point (see
    :func:`expr.is_rational`), in the layout of a one-point
    :func:`eval_bundle` with ``dtype=object``."""
    x, p = [Fraction(c) for c in x], [Fraction(c) for c in p]
    return _bundle(model, _eval_tables(model, model.tables, x, p, Fraction), (), object)


def eval_reference(model: ParametricModel, ref: ReferenceTriple):
    """The reference evaluated once, as (exact, floats): ``exact`` is the
    Fraction bundle when x, p and v are all rational, and ``floats`` its
    cast (:meth:`EvalBundle.floats`); otherwise both are the float bundle.
    The pointwise checks take these bundles instead."""
    if ex.is_rational(ref.x, ref.p, ref.v):
        exact = eval_bundle_exact(model, ref.x, ref.p)
    else:
        exact = eval_bundle(model, ref.x, ref.p)
    return exact, exact.floats()


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
        lines.append(
            "reference x=({}) p=({}) v=({})".format(
                ", ".join(_format_number(c) for c in ref.x),
                ", ".join(_format_number(c) for c in ref.p),
                ", ".join(_format_number(c) for c in ref.v),
            )
        )
    return "\n".join(lines) + "\n"


def _format_number(value) -> str:
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    return repr(value)

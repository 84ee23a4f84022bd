"""Dense two-phase simplex with Bland's rule, desk scale (<= 32 columns).

Rational data (ints and Fractions, see :func:`expr.is_rational`) are
solved exactly, on Python ints: verdict-critical qualification margins
(is t* exactly zero?) must not be floating-point artifacts.  Each column
of A, the rhs and the cost is first multiplied by a positive integer that
clears its denominators.  Columns are scaled, never rows, which would
change the artificials of phase 1: a positive column scale keeps the sign
of every reduced cost, the order of every ratio test with its ties and
every nonzero test, so Bland's rule takes the pivots it takes on the
Fractions and the solution maps back to the same Fractions.  The tableau
then holds integer numerators over one common denominator D > 0, the
absolute determinant of the current basis, and a pivot on T_rs is the
fraction-free (Bareiss) update T'_ij = (T_ij T_rs - T_is T_rj) / D, which
divides exactly, after which D = T_rs; a negative pivot (possible only
when artificials are driven out) negates the tableau and D together.
:func:`gauss_jordan` runs on the same pivot.  Float data take the same
steps on a float tableau, with a tolerance.

Standard form: minimize c.x subject to A x = b, x >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Optional, Sequence

from .defaults import MAX_LP_DIM
from .errors import DeskScaleError
from .expr import is_rational

_FLOAT_EPS = 1e-11


@dataclass
class LPResult:
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    x: Optional[list] = None
    value: Optional[object] = None


def solve_standard_lp(c: Sequence, A: Sequence[Sequence], b: Sequence) -> LPResult:
    """Minimize c.x s.t. A x = b, x >= 0 (two-phase, Bland's rule)."""
    n = len(c)
    if n > MAX_LP_DIM:
        raise DeskScaleError(f"LP has {n} columns, cap is {MAX_LP_DIM}")
    if not is_rational(*A, c, b):
        cost = [float(v) for v in c]
        rows = [[float(v) for v in row] + [float(bi)] for row, bi in zip(A, b)]
        status, basis, rows, _ = _two_phase(rows, cost, n, _FLOAT_EPS)
        if status != "optimal":
            return LPResult(status)
        x = [0.0] * n
        for bi, row in zip(basis, rows):
            x[bi] = row[-1]
        return LPResult(status, x, sum(ci * xi for ci, xi in zip(cost, x)))
    # the integer LP over y = sb x / s, cost scaled by t; lcm takes lists,
    # as generators unpacked in this loop raised peak memory by about 1 MB
    s = [lcm(*[row[j].denominator for row in A]) for j in range(n)]
    sb, t = lcm(*[v.denominator for v in b]), lcm(*[v.denominator for v in c])
    rows = [
        [v.numerator * (sj // v.denominator) for v, sj in zip(row, s)]
        + [bi.numerator * (sb // bi.denominator)]
        for row, bi in zip(A, b)
    ]
    cost = [v.numerator * (t // v.denominator) * sj for v, sj in zip(c, s)]
    status, basis, rows, D = _two_phase(rows, cost, n, 0)
    if status != "optimal":
        return LPResult(status)
    x = [Fraction(0)] * n
    for bi, row in zip(basis, rows):
        x[bi] = Fraction(s[bi] * row[-1], sb * D)
    value = Fraction(_objective(rows, basis, cost), t * sb * D)
    return LPResult(status, x, value)


def _two_phase(rows, cost, n, tol):
    """Both phases on the rows [A | b] of a float tableau (``tol`` > 0) or
    an integer one (``tol`` = 0): phase 1 from the artificial basis, the
    artificials driven out where a nonzero entry allows, rows still on an
    artificial dropped (they are redundant, with rhs 0), phase 2 on
    ``cost``.  Returns (status, basis, rows, D)."""
    m = len(rows)
    zero, one = (0.0, 1.0) if tol else (0, 1)
    full = []
    for i, row in enumerate(rows):
        if row[-1] < 0:
            row = [-v for v in row]
        full.append(row[:n] + [zero] * i + [one] + [zero] * (m - i - 1) + row[-1:])
    basis = list(range(n, n + m))
    cost1 = [zero] * n + [one] * m
    D = _simplex_core(full, basis, cost1, n + m, tol, 1)
    if D is None or _objective(full, basis, cost1) > tol:  # phase 1 is never unbounded
        return "infeasible", None, None, None
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if abs(full[i][j]) > tol), None)
            if col is not None:
                D = _pivot(full, basis, i, col, D, tol)
    keep = [i for i in range(m) if basis[i] < n]
    rows = [full[i][:n] + [full[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    D = _simplex_core(rows, basis, cost, n, tol, D)
    return ("unbounded" if D is None else "optimal"), basis, rows, D


def _objective(rows, basis, cost):
    return sum(cost[bi] * row[-1] for bi, row in zip(basis, rows))


def _reduced_costs(rows, basis, cost, ncols, D):
    # D r_j = D c_j - c_B . (D B^{-1} A_j), computed row-wise from the tableau
    red = [D * cj for cj in cost[:ncols]]
    for row, bi in zip(rows, basis):
        cb = cost[bi]
        if cb != 0:
            red = [r - cb * v for r, v in zip(red, row)]
    return red


def _simplex_core(rows, basis, cost, ncols, tol, D):
    """In-place primal simplex with Bland's rule on a feasible tableau over
    the common denominator D; returns the final D, or None when the LP is
    unbounded."""
    max_iters = 200 * (ncols + len(basis) + 1)
    for _ in range(max_iters):
        red = _reduced_costs(rows, basis, cost, ncols, D)
        enter = next((j for j in range(ncols) if red[j] < -tol), None)
        if enter is None:
            return D
        # ratio test, Bland tie-break on smallest basis index; the integer
        # tableau compares rhs_i / a_i by cross-multiplying (a_i > 0)
        leave = None
        for i, row in enumerate(rows):
            a = row[enter]
            if a > tol:
                if leave is None:
                    leave = i
                    continue
                best = rows[leave]
                if tol:
                    ratio, least = row[-1] / a, best[-1] / best[enter]
                else:
                    ratio, least = row[-1] * best[enter], best[-1] * a
                if ratio < least or (ratio == least and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            return None
        D = _pivot(rows, basis, leave, enter, D, tol)
    raise RuntimeError("simplex did not terminate (cycling despite Bland's rule)")


def _pivot(rows, basis, leave, enter, D, tol):
    """Pivot on rows[leave][enter] and return the new common denominator:
    a float tableau (``tol`` > 0) divides the pivot row and keeps D; an
    integer one takes the fraction-free step, which leaves the pivot row
    as it is (negated, with D, when the pivot is negative)."""
    basis[leave] = enter
    prow = rows[leave]
    pivot = prow[enter]
    if tol:
        prow = rows[leave] = [v / pivot for v in prow]
        for i, row in enumerate(rows):
            if i != leave and row[enter] != 0:
                factor = row[enter]
                rows[i] = [v - factor * w for v, w in zip(row, prow)]
        return D
    if pivot < 0:
        prow = rows[leave] = [-v for v in prow]
        pivot = -pivot
    for i, row in enumerate(rows):
        if i != leave:
            factor = row[enter]
            rows[i] = [(v * pivot - factor * w) // D for v, w in zip(row, prow)]
    return pivot


def gauss_jordan(rows):
    """Exact Gauss-Jordan elimination of a matrix of ints and Fractions.

    Returns (reduced, pivots, det): the reduced row echelon form of
    ``rows`` in Fractions, the pivot column of each nonzero reduced row (so
    the rank is ``len(pivots)``), and the determinant of ``rows`` (0 when
    it is singular or not square).  Each row is first scaled by the lcm of
    its denominators, a row operation that changes no pivot and no reduced
    row, and then eliminated on the integer pivot of the simplex.
    """
    scales = [lcm(*[v.denominator for v in row]) for row in rows]
    M = [[v.numerator * (s // v.denominator) for v in row] for row, s in zip(rows, scales)]
    nrows = len(M)
    ncols = len(M[0]) if M else 0
    pivots = [None] * nrows
    D = sign = 1
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if M[i][col] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            M[r], M[pivot_row] = M[pivot_row], M[r]
            sign = -sign
        if M[r][col] < 0:
            sign = -sign
        D = _pivot(M, pivots, r, col, D, 0)
        r += 1
    det = Fraction(sign * D, prod(scales)) if r == nrows == ncols else Fraction(0)
    return [[Fraction(v, D) for v in row] for row in M], pivots[:r], det


# ---------------------------------------------------------------------------
# convenience wrappers


def solve_inequality_lp(
    c: Sequence,
    A_ub: Sequence[Sequence],
    b_ub: Sequence,
    lower: Sequence,
    upper: Sequence,
    maximize: bool = False,
    A_eq: Sequence[Sequence] = (),
    b_eq: Sequence = (),
) -> LPResult:
    """Optimize c.x s.t. A_ub x <= b_ub, A_eq x = b_eq, lower <= x <= upper.

    Bounds must be finite (use large sentinels only if genuinely needed);
    shift-and-slack conversion to standard form.
    """
    nvar = len(c)
    exact = is_rational(*A_ub, *A_eq, c, b_ub, b_eq, lower, upper)
    # rational data stay ints and Fractions, as solve_standard_lp takes them
    cast = (lambda v: v) if exact else float
    zero, one = (0, 1) if exact else (0.0, 1.0)
    lo = [cast(v) for v in lower]
    hi = [cast(v) for v in upper]
    span = [h - l for h, l in zip(hi, lo)]
    mrows = len(A_ub)
    # variables: y_j = x_j - lo_j in [0, span_j], slack s_i per row,
    # slack t_j per upper bound
    ncols = nvar + mrows + nvar
    A = []
    b = []
    for i in range(mrows):
        row = [cast(v) for v in A_ub[i]] + [
            one if j == i else zero for j in range(mrows)
        ] + [zero] * nvar
        rhs = cast(b_ub[i]) - sum(
            cast(A_ub[i][j]) * lo[j] for j in range(nvar)
        )
        A.append(row)
        b.append(rhs)
    for row, rhs in zip(A_eq, b_eq):
        row = [cast(v) for v in row]
        A.append(row + [zero] * (mrows + nvar))
        b.append(cast(rhs) - sum(a * l for a, l in zip(row, lo)))
    for j in range(nvar):
        row = [zero] * ncols
        row[j] = one
        row[nvar + mrows + j] = one
        A.append(row)
        b.append(span[j])
    sign = -1 if maximize else 1
    cc = [sign * cast(v) for v in c] + [zero] * (mrows + nvar)
    res = solve_standard_lp(cc, A, b)
    if res.status != "optimal":
        return res
    x = [res.x[j] + lo[j] for j in range(nvar)]
    value = sum(cast(c[j]) * x[j] for j in range(nvar))
    return LPResult(status="optimal", x=x, value=value)


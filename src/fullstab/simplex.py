"""Dense two-phase simplex with Bland's rule, desk scale (<= 32 columns).

Works on floats or exact Fractions: verdict-critical qualification margins
(is t* exactly zero?) must not be floating-point artifacts, so callers
with rational data get exact pivoting for free by passing Fractions.

Standard form: minimize c.x subject to A x = b, x >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    m = len(A)
    n = len(c)
    if n > MAX_LP_DIM:
        raise DeskScaleError(f"LP has {n} columns, cap is {MAX_LP_DIM}")
    exact = is_rational(*A, c, b)
    zero = Fraction(0) if exact else 0.0
    one = Fraction(1) if exact else 1.0
    tol = zero if exact else _FLOAT_EPS

    # copy, flip rows to make b >= 0
    T = [[_cast(v, exact) for v in row] for row in A]
    bb = [_cast(v, exact) for v in b]
    for i in range(m):
        if bb[i] < 0:
            T[i] = [-v for v in T[i]]
            bb[i] = -bb[i]

    # phase 1: artificial variables
    full = [T[i] + [one if j == i else zero for j in range(m)] + [bb[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    cost1 = [zero] * n + [one] * m
    status = _simplex_core(full, basis, cost1, n + m, tol)
    if status != "optimal":  # pragma: no cover - phase 1 is always bounded
        return LPResult(status="infeasible")
    phase1_value = _objective(full, basis, cost1, m)
    if phase1_value > tol:
        return LPResult(status="infeasible")
    # drive artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= n:
            pivot_col = next(
                (j for j in range(n) if _abs(full[i][j]) > tol), None
            )
            if pivot_col is not None:
                _pivot(full, basis, i, pivot_col)
    # drop artificial columns
    rows = [row[:n] + [row[-1]] for i, row in enumerate(full)]
    # rows whose basis is still artificial are redundant zero rows; keep them
    # with a harmless identity (their rhs is zero), flagging basis as -1
    keep_rows = []
    keep_basis = []
    for i in range(m):
        if basis[i] >= n:
            continue  # redundant constraint, rhs 0
        keep_rows.append(rows[i])
        keep_basis.append(basis[i])
    cost2 = [_cast(v, exact) for v in c]
    status = _simplex_core(keep_rows, keep_basis, cost2, n, tol)
    if status == "unbounded":
        return LPResult(status="unbounded")
    x = [zero] * n
    for i, bi in enumerate(keep_basis):
        x[bi] = keep_rows[i][-1]
    value = sum(ci * xi for ci, xi in zip(cost2, x))
    return LPResult(status="optimal", x=x, value=value)


def _cast(v, exact):
    if exact:
        return v if isinstance(v, Fraction) else Fraction(v)
    return float(v)


def _abs(v):
    return -v if v < 0 else v


def _objective(rows, basis, cost, m):
    return sum(cost[basis[i]] * rows[i][-1] for i in range(len(basis)))


def _reduced_costs(rows, basis, cost, ncols):
    # r_j = c_j - c_B . B^{-1} A_j, computed row-wise from the tableau
    red = list(cost[:ncols])
    for i, bi in enumerate(basis):
        cb = cost[bi]
        if cb != 0:
            row = rows[i]
            for j in range(ncols):
                if row[j] != 0:
                    red[j] = red[j] - cb * row[j]
    return red


def _simplex_core(rows, basis, cost, ncols, tol) -> str:
    """In-place primal simplex with Bland's rule on a feasible tableau."""
    max_iters = 200 * (ncols + len(basis) + 1)
    for _ in range(max_iters):
        red = _reduced_costs(rows, basis, cost, ncols)
        enter = next((j for j in range(ncols) if red[j] < -tol), None)
        if enter is None:
            return "optimal"
        # ratio test, Bland tie-break on smallest basis index
        leave = None
        best = None
        for i in range(len(basis)):
            a = rows[i][enter]
            if a > tol:
                ratio = rows[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return "unbounded"
        _pivot(rows, basis, leave, enter)
    raise RuntimeError("simplex did not terminate (cycling despite Bland's rule)")


def _pivot(rows, basis, leave, enter):
    pivot = rows[leave][enter]
    rows[leave] = [v / pivot for v in rows[leave]]
    for i in range(len(rows)):
        if i != leave and rows[i][enter] != 0:
            factor = rows[i][enter]
            rows[i] = [v - factor * w for v, w in zip(rows[i], rows[leave])]
    basis[leave] = enter


def gauss_jordan(rows):
    """Exact Gauss-Jordan elimination over Fractions.

    Returns (reduced, pivots, det): the reduced row echelon form of
    ``rows``, the pivot column of each nonzero reduced row (so the rank is
    ``len(pivots)``), and the determinant of ``rows`` (0 when it is
    singular or not square).
    """
    M = [[Fraction(v) for v in row] for row in rows]
    nrows = len(M)
    ncols = len(M[0]) if M else 0
    pivots = [None] * nrows
    det = Fraction(1)
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if M[i][col] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            M[r], M[pivot_row] = M[pivot_row], M[r]
            det = -det
        det *= M[r][col]
        _pivot(M, pivots, r, col)
        r += 1
    if r < nrows or nrows != ncols:
        det = Fraction(0)
    return M, pivots[:r], det


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
    zero = Fraction(0) if exact else 0.0
    one = Fraction(1) if exact else 1.0
    lo = [_cast(v, exact) for v in lower]
    hi = [_cast(v, exact) for v in upper]
    span = [h - l for h, l in zip(hi, lo)]
    mrows = len(A_ub)
    # variables: y_j = x_j - lo_j in [0, span_j], slack s_i per row,
    # slack t_j per upper bound
    ncols = nvar + mrows + nvar
    A = []
    b = []
    for i in range(mrows):
        row = [_cast(v, exact) for v in A_ub[i]] + [
            one if j == i else zero for j in range(mrows)
        ] + [zero] * nvar
        rhs = _cast(b_ub[i], exact) - sum(
            _cast(A_ub[i][j], exact) * lo[j] for j in range(nvar)
        )
        A.append(row)
        b.append(rhs)
    for row, rhs in zip(A_eq, b_eq):
        row = [_cast(v, exact) for v in row]
        A.append(row + [zero] * (mrows + nvar))
        b.append(_cast(rhs, exact) - sum(a * l for a, l in zip(row, lo)))
    for j in range(nvar):
        row = [zero] * ncols
        row[j] = one
        row[nvar + mrows + j] = one
        A.append(row)
        b.append(span[j])
    sign = -1 if maximize else 1
    cc = [sign * _cast(v, exact) for v in c] + [zero] * (mrows + nvar)
    res = solve_standard_lp(cc, A, b)
    if res.status != "optimal":
        return res
    x = [res.x[j] + lo[j] for j in range(nvar)]
    value = sum(_cast(c[j], exact) * x[j] for j in range(nvar))
    return LPResult(status="optimal", x=x, value=value)


"""LP kernel: optimality, infeasibility, unboundedness, exact pivoting."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from fullstab import simplex
from fullstab.simplex import (
    gauss_jordan,
    solve_inequality_lp,
    solve_standard_lp,
)

import oracles
from oracles import cofactor_det, fraction_simplex


def test_basic_standard_form():
    # min -x1 - 2 x2 s.t. x1 + x2 + s = 4, x1 + 3 x2 + t = 6
    res = solve_standard_lp(
        [-1.0, -2.0, 0.0, 0.0],
        [[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]],
        [4.0, 6.0],
    )
    assert res.status == "optimal"
    assert res.value == pytest.approx(-5.0)  # x = (3, 1)
    assert res.x[:2] == pytest.approx([3.0, 1.0])


def test_infeasible():
    # x1 = -1 with x1 >= 0
    res = solve_standard_lp([1.0], [[1.0]], [-1.0])
    assert res.status == "infeasible"


def test_unbounded_with_ray():
    # min -x1 s.t. x1 - x2 = 0: unbounded along the ray (1, 1)
    res = solve_standard_lp([-1.0, 0.0], [[1.0, -1.0]], [0.0])
    assert res.status == "unbounded"


def test_exact_fraction_pivoting():
    res = solve_standard_lp(
        [Fraction(-1), Fraction(-2), Fraction(0), Fraction(0)],
        [
            [Fraction(1), Fraction(1), Fraction(1), Fraction(0)],
            [Fraction(1), Fraction(3), Fraction(0), Fraction(1)],
        ],
        [Fraction(4), Fraction(6)],
    )
    assert res.status == "optimal"
    assert res.value == Fraction(-5)
    assert isinstance(res.value, Fraction)


def _random_rational_lp(rng):
    """A small LP over Fractions, some denominators large: b = A x0 for an
    x0 >= 0 with zeros (feasible, degenerate, ratio ties) or b drawn at
    random (often infeasible); rows repeated, negated or combined
    (redundant equality rows); c of any sign (often unbounded) or 0."""
    dens = (1, 1, 1, 2, 3, 12, 10**9 + 7)

    def q():
        if rng.random() < 0.35:
            return Fraction(0)
        return Fraction(int(rng.integers(-4, 5)), int(rng.choice(dens)))

    m, n = int(rng.integers(1, 5)), int(rng.integers(1, 8))
    A = [[q() for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.75:
        x0 = [abs(q()) for _ in range(n)]
        b = [sum((a * x for a, x in zip(row, x0)), Fraction(0)) for row in A]
    else:
        b = [q() for _ in range(m)]
    for _ in range(int(rng.integers(0, 3))):
        i, k = (int(v) for v in rng.integers(0, len(A), size=2))
        u, w = Fraction(int(rng.integers(-2, 3))), Fraction(int(rng.integers(-2, 3)), 3)
        A.append([u * a + w * e for a, e in zip(A[i], A[k])])
        b.append(u * b[i] + w * b[k])
    # c = 0 makes x the vertex that phase 1 and the drive-out reach
    c = [q() for _ in range(n)] if rng.random() < 0.7 else [Fraction(0)] * n
    return c, A, b


def test_integer_tableau_matches_fraction_simplex(monkeypatch):
    # the integer tableau takes the Fraction tableau's pivots, each of the
    # same sign, so status, x and value agree exactly: on random LPs and on
    # two fixed ones, Beale's cycling example and a redundant pair whose
    # first artificial leaves on a negative pivot
    F = Fraction
    beale = (
        [F(-3, 4), F(150), F(-1, 50), F(6), F(0), F(0), F(0)],
        [[F(1, 4), F(-60), F(-1, 25), F(9), F(1), F(0), F(0)],
         [F(1, 2), F(-90), F(-1, 50), F(3), F(0), F(1), F(0)],
         [F(0), F(0), F(1), F(0), F(0), F(0), F(1)]],
        [F(0), F(0), F(1)],
    )
    negative = ([F(1), F(1)], [[F(-1), F(1)], [F(1), F(-1)]], [F(0), F(0)])
    rng = np.random.default_rng(20)
    lps = [beale, negative] + [_random_rational_lp(rng) for _ in range(1200)]
    ours, theirs = [], []

    def spy(path, pivot):
        def recorded(rows, basis, leave, enter, *rest):
            path.append((leave, enter, rows[leave][enter] < 0))
            return pivot(rows, basis, leave, enter, *rest)
        return recorded

    monkeypatch.setattr(simplex, "_pivot", spy(ours, simplex._pivot))
    monkeypatch.setattr(oracles, "_fraction_pivot", spy(theirs, oracles._fraction_pivot))
    statuses = []
    for k, (c, A, b) in enumerate(lps):
        ours.clear()
        theirs.clear()
        res = solve_standard_lp(c, A, b)
        assert (res.status, res.x, res.value) == fraction_simplex(c, A, b), k
        assert ours == theirs, k
        statuses.append((res.status, any(negative for *_, negative in ours)))
    assert statuses[:2] == [("optimal", False), ("optimal", True)]
    counts = {key: statuses.count(key) for key in set(statuses)}
    assert min(counts.get((s, False), 0) for s in ("optimal", "infeasible", "unbounded")) >= 100
    assert counts[("optimal", True)] >= 20, counts


def test_exact_solve_makes_no_fraction_per_pivot():
    # a 9 x 12 reachability LP of the corpus (the box [-1, 1]^4 shifted to
    # [0, 2]^4, slacks and t): Fractions are made only for x and the value,
    # however many pivots the solve takes
    rows = [
        [1, 1, 3, -1, 1, 1, 0, 0, 0, 0, 0, 0],
        [1, 1, -1, 3, 1, 0, 1, 0, 0, 0, 0, 0],
        [3, -1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
        [-1, 3, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    ] + [[int(j in (i, 7 + i)) for j in range(12)] for i in range(5)]
    A = [[Fraction(v) for v in row] for row in rows]
    b = [Fraction(v) for v in (4, 4, 4, 4, 2, 2, 2, 2, 1)]
    c = [Fraction(-int(j == 4)) for j in range(12)]
    pivots = []
    pivot, new = simplex._pivot, Fraction.__dict__["__new__"]
    made = []

    def counting_new(cls, *args, **kwargs):
        made.append(1)
        return new(cls, *args, **kwargs)

    def counting_pivot(*args):
        pivots.append(1)
        return pivot(*args)

    simplex._pivot, Fraction.__new__ = counting_pivot, counting_new
    try:
        res = solve_standard_lp(c, A, b)
    finally:
        simplex._pivot, Fraction.__new__ = pivot, new
    assert res.status == "optimal" and res.value == 0
    assert res.x == [0, 0, 2, 2, 0, 0, 0, 2, 2, 0, 0, 1]
    assert len(pivots) == 10
    assert len(made) <= len(c) + 2  # the Fraction tableau made 2,068


def test_degenerate_no_cycling():
    # Classic degenerate instance; Bland's rule must terminate.
    c = [-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0]
    A = [
        [0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
        [0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    ]
    b = [0.0, 0.0, 1.0]
    res = solve_standard_lp(c, A, b)
    assert res.status == "optimal"
    assert res.value == pytest.approx(-0.05)


def test_inequality_wrapper_box():
    # max x1 + x2 over the box [-1, 1]^2 with x1 + x2 <= 1
    res = solve_inequality_lp(
        [1.0, 1.0], [[1.0, 1.0]], [1.0], [-1.0, -1.0], [1.0, 1.0], maximize=True
    )
    assert res.status == "optimal"
    assert res.value == pytest.approx(1.0)


def test_inequality_wrapper_equalities_exact():
    # max x1 + x2 + x3 over [-1, 1]^3 with x1 = x2 and x1 + x3 <= 1/2:
    # x3 = 1 forces x1 = x2 = -1/2 (value 0), x1 = x2 = 1 forces x3 = -1/2
    # (value 3/2)
    F = Fraction
    res = solve_inequality_lp(
        [F(1)] * 3, [[F(1), F(0), F(1)]], [F(1, 2)], [F(-1)] * 3, [F(1)] * 3,
        maximize=True, A_eq=[[F(1), F(-1), F(0)]], b_eq=[F(0)],
    )
    assert res.status == "optimal"
    assert res.value == F(3, 2)
    assert res.x == [F(1), F(1), F(-1, 2)]
    infeasible = solve_inequality_lp(
        [1.0], [], [], [-1.0], [1.0], A_eq=[[1.0]], b_eq=[2.0]
    )
    assert infeasible.status == "infeasible"


def test_redundant_equalities():
    # Duplicated row should not break phase 1 cleanup.
    res = solve_standard_lp(
        [1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]], [2.0, 2.0]
    )
    assert res.status == "optimal"
    assert res.value == pytest.approx(2.0)


def test_random_lps_match_reference():
    # Cross-check against a brute-force vertex enumeration on random
    # bounded inequality problems.
    rng = np.random.default_rng(123)
    for _ in range(25):
        n = int(rng.integers(2, 4))
        mrows = int(rng.integers(1, 4))
        A = rng.normal(size=(mrows, n))
        b = rng.uniform(0.5, 1.5, size=mrows)  # 0 strictly feasible
        c = rng.normal(size=n)
        res = solve_inequality_lp(c, A, b, [-1.0] * n, [1.0] * n, maximize=True)
        assert res.status == "optimal"
        best = _brute_force_max(c, A, b, n)
        assert res.value == pytest.approx(best, abs=1e-8)


def _brute_force_max(c, A, b, n):
    """Enumerate all vertices of {Ax <= b, -1 <= x <= 1}."""
    rows = [(A[i], b[i]) for i in range(A.shape[0])]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append((e, 1.0))
        rows.append((-e, 1.0))
    best = -np.inf
    for combo in itertools.combinations(range(len(rows)), n):
        M = np.array([rows[i][0] for i in combo])
        rhs = np.array([rows[i][1] for i in combo])
        if abs(np.linalg.det(M)) < 1e-10:
            continue
        x = np.linalg.solve(M, rhs)
        if all(r @ x <= s + 1e-9 for r, s in rows):
            best = max(best, float(np.asarray(c) @ x))
    return best


def test_gauss_jordan_matches_cofactor_det_and_numpy_rank():
    # the first 80 trials have denominators up to 3, where numpy's rank is
    # reliable; the other 80 add denominators up to 2^61 - 1, where the rank
    # is the order of the largest nonzero minor, by cofactor expansion
    rng = np.random.default_rng(11)
    singular = 0
    for trial in range(160):
        nrows = int(rng.integers(1, 6))
        ncols = nrows if trial % 2 else int(rng.integers(1, 6))
        den = (lambda: int(rng.integers(1, 4))) if trial < 80 else (
            lambda: int(rng.choice([1, 2, 3, 10**6 + 3, 2**61 - 1])))
        M = [
            [Fraction(int(rng.integers(-3, 4)), den()) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        if trial % 3 == 0 and nrows > 1:  # a dependent row
            M[-1] = [a + 2 * b for a, b in zip(M[0], M[1])]
        R, pivots, det = gauss_jordan(M)
        r = len(pivots)
        if trial < 80:
            assert r == int(np.linalg.matrix_rank(np.array(M, dtype=float))), trial
        assert r == _minor_rank(M), trial
        for k, col in enumerate(pivots):
            assert [row[col] for row in R] == [int(i == k) for i in range(nrows)]
        assert all(v == 0 for row in R[r:] for v in row)
        # each row of M is the combination of reduced rows its pivot entries give
        for row in M:
            assert row == [
                sum((row[col] * R[k][j] for k, col in enumerate(pivots)), Fraction(0))
                for j in range(ncols)
            ], trial
        if nrows == ncols:
            assert det == cofactor_det(M), trial
            singular += det == 0
    assert singular >= 10  # the singular branch was exercised


def _minor_rank(M):
    """The order of the largest nonzero minor of M."""
    return max(
        (
            k
            for k in range(1, min(len(M), len(M[0])) + 1)
            for I in itertools.combinations(range(len(M)), k)
            for J in itertools.combinations(range(len(M[0])), k)
            if cofactor_det([[M[i][j] for j in J] for i in I]) != 0
        ),
        default=0,
    )

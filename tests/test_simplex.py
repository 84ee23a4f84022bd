"""LP kernel: optimality, infeasibility, unboundedness, exact pivoting."""

from fractions import Fraction

import numpy as np
import pytest

from fullstab.simplex import (
    gauss_jordan,
    solve_inequality_lp,
    solve_standard_lp,
)

from oracles import cofactor_det


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
    import itertools

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
    rng = np.random.default_rng(11)
    singular = 0
    for trial in range(80):
        nrows = int(rng.integers(1, 6))
        ncols = nrows if trial % 2 else int(rng.integers(1, 6))
        M = [
            [Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4))) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        if trial % 3 == 0 and nrows > 1:  # a dependent row
            M[-1] = [a + 2 * b for a, b in zip(M[0], M[1])]
        R, pivots, det = gauss_jordan(M)
        r = int(np.linalg.matrix_rank(np.array(M, dtype=float)))
        assert len(pivots) == r, trial
        for k, col in enumerate(pivots):
            assert [row[col] for row in R] == [int(i == k) for i in range(nrows)]
        assert all(v == 0 for row in R[r:] for v in row)
        if nrows == ncols:
            assert det == cofactor_det(M), trial
            singular += det == 0
    assert singular >= 5  # the singular branch was exercised

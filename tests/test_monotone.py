"""Monotonicity estimators and the localization inequality."""

import math
import tracemalloc

import numpy as np
import pytest

from fullstab import pairs
from fullstab.errors import DegenerateSampleError, InputError
from fullstab.monotone import GraphSample, estimate_from_inverse, estimate_moduli
from fullstab.stabharness import verify_inequality
from fullstab.visolver import LocalizationTable
from oracles import estimate_moduli_rowwise, inverse_lipschitz_rowwise


def localization_violations(V, theta, kappa):
    """Violating pairs of ||dv - 2 kappa dtheta|| <= ||dv|| + tol and their
    count: the pair inequality at ell = 0 on a table of theta at the
    canonical parameters V with no basic parameter (d = 0)."""
    N = V.shape[0]
    table = LocalizationTable(
        v_nodes=V, p_nodes=np.zeros((N, 0)), x_values=theta,
        residuals=np.zeros(N), methods=["given"] * N,
    )
    return verify_inequality(table, kappa, ell=0.0)


def linear_graph(H, n_points=60, seed=0, include_eigvecs=True, scale=1.0):
    """Sample the graph of T(x) = Hx; eigen-directions of the symmetric
    part are included so the worst pair ratio equals the smallest
    eigenvalue exactly."""
    rng = np.random.default_rng(seed)
    n = H.shape[0]
    pts = [rng.normal(size=n) * scale for _ in range(n_points)]
    if include_eigvecs:
        _, vecs = np.linalg.eigh(0.5 * (H + H.T))
        origin = np.zeros(n)
        pts.append(origin)
        for k in range(n):
            pts.append(vecs[:, k] * scale)
    U = np.array(pts)
    return GraphSample(u=U, v=U @ H.T)


class TestEstimateModuli:
    def test_identity_kappa_one(self):
        s = linear_graph(np.eye(3), n_points=100, seed=1)
        est = estimate_moduli(s)
        assert est.kappa_hat == pytest.approx(1.0, abs=1e-12)
        assert est.r_hat == 0.0

    def test_negated_identity(self):
        s = linear_graph(-np.eye(2), n_points=50, seed=2)
        est = estimate_moduli(s)
        assert est.kappa_hat == pytest.approx(-1.0, abs=1e-12)
        assert est.r_hat == pytest.approx(1.0, abs=1e-12)

    def test_skew_witness_along_e2(self, skew_model):
        # T(x) = (x1, -x2) sampled near 0 including a pair differing only
        # in the second coordinate.
        U = np.array([[0.0, 0.0], [0.0, 0.5], [0.3, 0.1], [-0.2, 0.2]])
        V = np.column_stack([U[:, 0], -U[:, 1]])
        est = estimate_moduli(GraphSample(u=U, v=V))
        assert est.kappa_hat == pytest.approx(-1.0, abs=1e-12)
        i, j = est.witness
        du = U[i] - U[j]
        dv = V[i] - V[j]
        assert float(dv @ du) / float(du @ du) == pytest.approx(est.kappa_hat, abs=1e-12)
        assert abs(du[0]) < 1e-12 and abs(du[1]) > 0

    def test_linear_maps_match_min_eig(self):
        rng = np.random.default_rng(3)
        for trial in range(100):
            n = int(rng.integers(2, 5))
            H = rng.normal(size=(n, n))
            target = float(np.linalg.eigvalsh(0.5 * (H + H.T))[0])
            est = estimate_moduli(linear_graph(H, n_points=40, seed=trial))
            assert est.kappa_hat == pytest.approx(target, abs=1e-9), trial
            # sample ratios can never under-run the true minimum
            assert est.kappa_hat >= target - 1e-12

    def test_order_invariance_and_scale_covariance(self):
        rng = np.random.default_rng(4)
        H = rng.normal(size=(3, 3))
        s = linear_graph(H, n_points=30, seed=5)
        perm = rng.permutation(len(s))
        est1 = estimate_moduli(s)
        est2 = estimate_moduli(GraphSample(u=s.u[perm], v=s.v[perm]))
        assert est1.kappa_hat == pytest.approx(est2.kappa_hat, abs=1e-14)
        est3 = estimate_moduli(GraphSample(u=s.u, v=2.5 * s.v))
        assert est3.kappa_hat == pytest.approx(2.5 * est1.kappa_hat, rel=1e-12)

    def test_degenerate_pairs_raise(self):
        U = np.zeros((3, 2))
        with pytest.raises(DegenerateSampleError):
            estimate_moduli(GraphSample(u=U, v=U))


class TestLocalizationEstimate:
    def test_exact_half_map_no_violations(self):
        rng = np.random.default_rng(6)
        V = rng.normal(size=(40, 2))
        assert localization_violations(V, V / 2.0, kappa=0.5) == ([], 0)

    def test_identity_boundary_case_passes_at_tolerance(self):
        # theta(v) = v with kappa = 1: ||-dv|| = ||dv||, equality exactly.
        rng = np.random.default_rng(7)
        V = rng.normal(size=(30, 3))
        assert localization_violations(V, V.copy(), kappa=1.0) == ([], 0)

    def test_skew_inverse_always_violates(self):
        # theta = inverse of (x1, -x2); along e2-differences the left side
        # is (1 + 2 kappa)|dv2| > |dv2| for every kappa > 0.
        rng = np.random.default_rng(8)
        V = rng.normal(size=(25, 2))
        theta = np.column_stack([V[:, 0], -V[:, 1]])
        for kappa in (0.01, 0.1, 1.0, 10.0):
            violations, count = localization_violations(V, theta, kappa=kappa)
            assert violations and count, kappa
            worst = max(v["margin"] for v in violations)
            assert worst > 0

    def test_consistency_with_inverse_moduli(self):
        # no violations at level kappa ==> inverse-graph kappa_hat >= kappa
        rng = np.random.default_rng(9)
        A = np.array([[2.0, 0.3], [-0.3, 1.0]])
        V = rng.normal(size=(40, 2))
        theta = np.linalg.solve(A, V.T).T
        kappa = 0.9  # below the true modulus of A
        assert localization_violations(V, theta, kappa=kappa) == ([], 0)
        est = estimate_moduli(GraphSample(u=theta, v=V))
        assert est.kappa_hat >= kappa - 1e-9

    def test_kappa_must_be_positive(self):
        with pytest.raises(InputError):
            localization_violations(np.eye(2), np.eye(2), kappa=0.0)


class TestEstimateFromInverse:
    def test_half_map(self):
        rng = np.random.default_rng(10)
        V = rng.normal(size=(30, 2))
        s = GraphSample(u=V, v=V / 2.0)
        L = estimate_from_inverse(s)
        assert L == pytest.approx(0.5, abs=1e-12)

    def test_identity(self):
        rng = np.random.default_rng(11)
        V = rng.normal(size=(20, 3))
        assert estimate_from_inverse(GraphSample(u=V, v=V.copy())) == pytest.approx(1.0)

    def test_pd_linear_inverse_bound(self):
        # L_hat <= 1/kappa_hat + 1e-9 on 100 random PD instances
        rng = np.random.default_rng(12)
        for trial in range(100):
            n = int(rng.integers(2, 5))
            B = rng.normal(size=(n, n))
            A = B @ B.T + np.eye(n) * rng.uniform(0.2, 1.0)
            V = rng.normal(size=(25, n))
            theta = np.linalg.solve(A, V.T).T
            s = GraphSample(u=V, v=theta)
            L = estimate_from_inverse(s)  # raises on bound violation
            inv_est = estimate_moduli(GraphSample(u=theta, v=V))
            assert L <= 1.0 / inv_est.kappa_hat + 1e-9


class TestCSV:
    def test_roundtrip(self):
        text = "u1,u2,v1,v2\n0,0,0,0\n1,0,1,0\n0,1,0,-1\n"
        s = GraphSample.from_csv(text, n=2)
        assert len(s) == 3
        est = estimate_moduli(s)
        assert est.kappa_hat == pytest.approx(-1.0)

    def test_bad_width(self):
        with pytest.raises(InputError):
            GraphSample.from_csv("1,2,3\n", n=2)


def _random_sample(n, N, seed, tied=False):
    """A random graph sample with repeated u's (degenerate pairs, skipped);
    untied, a repeated v too, and with ``tied`` v = u, so every kept ratio
    is exactly 1 and the witness is decided by the first-pair tie-break
    alone."""
    rng = np.random.default_rng(seed)
    U = rng.normal(size=(N, n))
    U[N // 2:N // 2 + 3] = U[0]
    if tied:
        return GraphSample(u=U, v=U.copy())
    V = U @ rng.normal(size=(n, n)) + 0.1 * np.sin(U)
    V[-2] = V[1]
    return GraphSample(u=U, v=V)


SAMPLES = [(1, 30, 0), (3, 50, 1), (8, 40, 2), (12, 25, 3), (3, 40, 4, True)]


class TestBlockedEstimators:
    """estimate_moduli and estimate_from_inverse reduce block by block with
    a running extreme; they reproduce the whole-stack reduction to the bit,
    witness and pair count included."""

    @pytest.mark.parametrize("block", [None, 1, 7])
    @pytest.mark.parametrize("args", SAMPLES, ids=[f"n{a[0]}-N{a[1]}" + "-tied" * (len(a) > 3) for a in SAMPLES])
    def test_match_rowwise(self, args, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(pairs, "_BLOCK", block)
        s = _random_sample(*args)
        est = estimate_moduli(s)
        kappa, witness, count = estimate_moduli_rowwise(s)
        assert (repr(est.kappa_hat), est.witness, est.pair_count) == (repr(kappa), witness, count)
        assert repr(estimate_from_inverse(s)) == repr(inverse_lipschitz_rowwise(s))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("block", [None, 1])
    @pytest.mark.parametrize("first", [True, False], ids=["nan-first", "nan-later"])
    def test_overflowing_pairs_match_rowwise(self, first, block, monkeypatch):
        # ||du||^2 overflows to inf on pairs with the 1e200 row, whose ratio
        # inf/inf is NaN: the whole-stack argmin returns the first NaN, before
        # or after a finite ratio, and so must the running extreme
        if block is not None:
            monkeypatch.setattr(pairs, "_BLOCK", block)
        rows = [[0.0], [1e200], [1.0], [2.0]] if first else [[1.0], [2.0], [0.0], [1e200]]
        s = GraphSample(u=rows, v=rows)
        est = estimate_moduli(s)
        _, witness, count = estimate_moduli_rowwise(s)
        assert math.isnan(est.kappa_hat) and (est.witness, est.pair_count) == (witness, count)
        assert repr(estimate_from_inverse(s)) == repr(inverse_lipschitz_rowwise(s))

    def test_tied_witness_is_the_first_pair(self):
        est = estimate_moduli(_random_sample(3, 40, 4, tied=True))
        assert est.kappa_hat == 1.0 and est.witness == (0, 1)

    def test_peak_memory_bounded(self):
        # 1,500 points make 1,124,250 pairs: the traced peak stays under one
        # float per pair, so no per-pair array is held (whole stacks took
        # about 145 MB)
        s = _random_sample(3, 1500, 5)
        count = 1500 * 1499 // 2
        for run in (estimate_moduli, estimate_from_inverse):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                run(s)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
            assert peak < 8 * count, run.__name__

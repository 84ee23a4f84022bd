"""Monotonicity estimators and the localization inequality."""

import numpy as np
import pytest

from fullstab.errors import DegenerateSampleError, InputError
from fullstab.monotone import GraphSample, estimate_from_inverse, estimate_moduli
from fullstab.stabharness import verify_inequality
from fullstab.visolver import LocalizationTable


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

    def test_ball_declaration_enforced(self):
        with pytest.raises(InputError):
            GraphSample(
                u=np.array([[0.0], [2.0]]),
                v=np.array([[0.0], [0.0]]),
                center_u=np.array([0.0]),
                center_v=np.array([0.0]),
                radius=1.0,
            )


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

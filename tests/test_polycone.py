"""Cone geometry: membership, generators, polarity, spans, projection.

Oracles: rejection sampling for membership agreement, Dykstra's algorithm
for projections, and direct generator checks frozen from hand derivations.
"""

import itertools

import numpy as np
import pytest

from fullstab import polycone
from fullstab.defaults import MAX_CONE_ROWS
from fullstab.errors import (
    InfeasiblePointError,
    InfeasibleSetError,
    InputError,
    SolveFailureError,
)
from fullstab.modelspec import eval_bundle, eval_bundle_exact, parse_model
from fullstab.polycone import (
    ConeDesc,
    SubspaceBasis,
    active_indices,
    critical_cone,
    nnls,
    polyhedron_rows,
    project_onto_rows,
    span_difference,
    tangent_cone,
)

from oracles import dykstra_projection, polar_from_generators


def tangent_at(model, x, p):
    """Tangent cone at (x, p) over the active set there."""
    bundle = eval_bundle(model, x, p)
    return tangent_cone(bundle, active_indices(bundle.phi))


@pytest.fixture(scope="module")
def ex64_vhat(ex64_model):
    ref = ex64_model.reference
    return ref.v_hat(eval_bundle_exact(ex64_model, ref.x, ref.p))


class TestActiveSet:
    def test_reference_all_active(self, ex64_model):
        assert active_indices(eval_bundle(ex64_model, [0, 0, 0], [0, 0]).phi) == (0, 1, 2, 3)

    def test_interior_point_empty(self, ex64_model):
        # phi = (-1, -1, -1, -1) at x = (0, 0, 1)
        assert active_indices(eval_bundle(ex64_model, [0, 0, 1], [0, 0]).phi) == ()

    def test_unconstrained_model(self, skew_model):
        assert active_indices(eval_bundle(skew_model, [0, 0], []).phi) == ()

    def test_infeasible_point_rejected(self, ex64_model):
        with pytest.raises(InfeasiblePointError):
            active_indices(eval_bundle(ex64_model, [1, 0, 0], [0, 0]).phi)


class TestTangentCone:
    def test_worked_example_rows(self, ex64_model):
        T = tangent_at(ex64_model, [0, 0, 0], [0, 0])
        assert T.E.shape == (0, 3)
        assert T.G == pytest.approx(
            np.array([[1, 0, -1], [-1, 0, -1], [0, 1, -1], [0, -1, -1]])
        )

    def test_inactive_point_full_space(self, ex64_model):
        T = tangent_at(ex64_model, [0, 0, 1], [0, 0])
        assert T.E.shape[0] == 0 and T.G.shape[0] == 0
        rng = np.random.default_rng(0)
        assert T.contains(rng.normal(size=(50, 3))).all()

    def test_box_lower_corner(self):
        m = parse_model(
            "dims n=1 d=0\nf = (x1)\nconstraint -x1 <= 0\nconstraint x1 - 1 <= 0\n"
        )
        T = tangent_at(m, [0.0], [])
        assert T.contains(np.array([1.0]))
        assert not T.contains(np.array([-1.0]))

    def test_apex_cone_extreme_rays(self, ex64_model):
        T = tangent_at(ex64_model, [0, 0, 0], [0, 0])
        rays, lin = T.generators()
        assert lin.shape[1] == 0
        expected = {
            tuple(np.sign(np.round(r * np.sqrt(3), 6))) for r in rays
        }
        assert expected == {(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)}
        assert T.contains(rays).all()


class TestCriticalCone:
    def test_worked_example_is_origin(self, ex64_model, ex64_vhat):
        # v_hat = (-1/4, 0, -1) lies in the interior of the normal cone at
        # the apex, so the critical cone is {0}: for w in T we have
        # <v_hat, w> = -w1/4 - w3 <= -3 w3/4, with equality only at w = 0.
        T = tangent_at(ex64_model, [0, 0, 0], [0, 0])
        K = critical_cone(T, ex64_vhat)
        rays, lin = K.generators()
        assert rays.shape[0] == 0 and lin.shape[1] == 0
        rng = np.random.default_rng(1)
        W = rng.normal(size=(500, 3))
        members = W[K.contains(W)]
        assert np.all(np.linalg.norm(members, axis=1) < 1e-6) if members.size else True

    def test_zero_vhat_returns_tangent(self, ex64_model):
        T = tangent_at(ex64_model, [0, 0, 0], [0, 0])
        K = critical_cone(T, np.zeros(3))
        assert K.G == pytest.approx(T.G)
        assert K.E.shape[0] == 0

    def test_full_space_interior(self):
        T = ConeDesc(3)
        K = critical_cone(T, np.zeros(3))
        assert K.contains(np.array([1.0, -2.0, 0.5]))

    def test_bad_normal_vector_rejected(self, ex64_model):
        T = tangent_at(ex64_model, [0, 0, 0], [0, 0])
        with pytest.raises(InputError, match="not a normal vector"):
            critical_cone(T, np.array([0.0, 0.0, 1.0]))  # points into the cone

    def test_members_stay_in_tangent_and_orthogonal(self):
        # simplex facet: x >= 0, sum x <= 1 at a vertex
        G = np.array([[-1.0, 0.0], [0.0, -1.0]])
        T = ConeDesc(2, G=G)
        v_hat = np.array([-1.0, 0.0])  # normal at the vertex along -e1
        K = critical_cone(T, v_hat)
        rays, lin = K.generators()
        rng = np.random.default_rng(2)
        coeffs = rng.uniform(0, 2, size=(1000, rays.shape[0]))
        free = rng.normal(size=(1000, lin.shape[1]))
        members = coeffs @ rays + (free @ lin.T if lin.shape[1] else 0.0)
        assert rays.shape[0] + lin.shape[1] > 0
        assert np.all(K.contains(members))
        assert np.all(T.contains(members))
        assert np.max(np.abs(members @ v_hat)) <= 1e-8 * np.max(
            1 + np.linalg.norm(members, axis=1)
        )


class TestSpanDifference:
    def test_halfspace_spans_plane(self):
        K = ConeDesc(2, G=np.array([[-1.0, 0.0]]))  # w1 >= 0
        S = span_difference(K)
        assert S.dim == 2

    def test_ray_on_line(self):
        K = ConeDesc(2, E=np.array([[1.0, 0.0]]), G=np.array([[0.0, -1.0]]))
        S = span_difference(K)
        assert S.dim == 1
        assert abs(S.V[:, 0] @ np.array([0.0, 1.0])) == pytest.approx(1.0)

    def test_worked_example_critical_span_dim(self, ex64_model, ex64_vhat):
        # Oracle: brute-force ray enumeration of K = T cap {v_hat}^perp
        # finds no nonzero members, so span(K - K) is 0-dimensional.
        T = tangent_at(ex64_model, [0, 0, 0], [0, 0])
        K = critical_cone(T, ex64_vhat)
        rays, lin = K.generators()
        assert rays.shape[0] == 0 and lin.shape[1] == 0
        assert span_difference(K).dim == 0


class TestPolarCone:
    def test_full_space_polar_origin(self):
        K = ConeDesc(3)
        P = polar_from_generators(K)
        rng = np.random.default_rng(3)
        W = rng.normal(size=(200, 3))
        members = W[P.contains(W)]
        assert all(np.linalg.norm(m) < 1e-6 for m in members)

    def test_halfline_polar(self):
        K = ConeDesc(1, G=np.array([[-1.0]]))  # w >= 0
        P = polar_from_generators(K)
        assert P.contains(np.array([-2.0]))
        assert not P.contains(np.array([0.5]))

    def test_bipolar_identity_random(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            n = 3
            G = rng.normal(size=(int(rng.integers(1, 4)), n))
            K = ConeDesc(n, G=G)
            KK = polar_from_generators(polar_from_generators(K))
            W = rng.normal(size=(1000, n))
            W /= np.linalg.norm(W, axis=1)[:, None]
            a = K.contains(W, tol=1e-9)
            b = KK.contains(W, tol=1e-9)
            # skip samples within 1e-7 of either boundary
            margin_k = np.max(W @ K.G.T, axis=1)
            clear = np.abs(margin_k) > 1e-7
            assert np.array_equal(a[clear], b[clear]), trial

    def test_membership_consistency_with_polar_generators(self):
        rng = np.random.default_rng(5)
        for trial in range(8):
            n = int(rng.integers(2, 5))
            G = rng.normal(size=(int(rng.integers(1, 4)), n))
            K = ConeDesc(n, G=G)
            P = polar_from_generators(K)
            rays, lin = P.generators()
            W = rng.normal(size=(1000, n))
            margin_k = np.max(W @ K.G.T, axis=1)
            clear = np.abs(margin_k) > 1e-7
            inner_ok = np.ones(W.shape[0], dtype=bool)
            if rays.shape[0]:
                inner_ok &= np.max(W @ rays.T, axis=1) <= 1e-9 * (
                    1 + np.linalg.norm(W, axis=1)
                )
            if lin.shape[1]:
                inner_ok &= np.max(np.abs(W @ lin), axis=1) <= 1e-9 * (
                    1 + np.linalg.norm(W, axis=1)
                )
            assert np.array_equal(K.contains(W)[clear], inner_ok[clear]), trial


class TestSupEstimateRecipe:
    def test_critical_cone_members_reachable_nearby(self):
        # Members of K - K stay in the linearized critical cone along
        # u_t = x + t w1 for small t > 0 (polyhedral radial recipe).
        m = parse_model(
            "dims n=3 d=0\nf = (x1, x2, x3)\n"
            "constraint -x1 <= 0\nconstraint -x2 <= 0\nconstraint -x3 <= 0\n"
        )
        x = [0.0, 0.0, 0.0]
        T = tangent_at(m, x, [])
        v_hat = np.array([-1.0, 0.0, 0.0])
        K = critical_cone(T, v_hat)
        rays, lin = K.generators()
        gens = list(rays) + list(lin.T) + list(-lin.T)
        A, b = polyhedron_rows(m, [])
        for w1, w2 in itertools.product(gens, gens):
            diff = np.asarray(w2) - np.asarray(w1)
            for t in (1e-2, 1e-3, 1e-4):
                u_t = np.array(x) + t * np.asarray(w1)
                assert np.all(A @ u_t <= b + 1e-12)
                act = [i for i in range(A.shape[0]) if A[i] @ u_t >= b[i] - 1e-12]
                assert np.all(A[act] @ diff <= 1e-9)
                assert abs(diff @ v_hat) <= 1e-9


class TestProjection:
    def test_box_clips(self):
        m = parse_model(
            "dims n=1 d=0\nf = (x1)\nconstraint -x1 <= 0\nconstraint x1 - 1 <= 0\n"
        )
        assert project_onto_rows(*polyhedron_rows(m, []), np.array([2.0])) == pytest.approx([1.0])

    def test_feasible_point_fixed(self, ex64_model):
        z = np.array([0.0, 0.0, 0.5])
        assert project_onto_rows(*polyhedron_rows(ex64_model, [0.0, 0.0]), z) == pytest.approx(z)

    def test_random_polytopes_match_dykstra(self):
        rng = np.random.default_rng(6)
        for trial in range(12):
            n = 3
            mrows = int(rng.integers(2, 6))
            A = rng.normal(size=(mrows, n))
            b = rng.uniform(0.2, 1.0, size=mrows)  # origin strictly feasible
            z = rng.normal(size=n) * 2.0
            mine = project_onto_rows(A, b, z)
            oracle = dykstra_projection(A, b, z)
            assert mine == pytest.approx(oracle, abs=1e-6), trial
            assert np.all(A @ mine <= b + 1e-9)

    def test_many_rows_match_dykstra(self):
        # more rows than the enumeration cap of the cone paths
        rng = np.random.default_rng(9)
        for trial in range(6):
            n = 3
            mrows = MAX_CONE_ROWS + int(rng.integers(1, 9))
            A = rng.normal(size=(mrows, n))
            b = rng.uniform(0.2, 1.0, size=mrows)
            z = rng.normal(size=n) * 2.0
            mine = project_onto_rows(A, b, z)
            oracle = dykstra_projection(A, b, z)
            assert mine == pytest.approx(oracle, abs=1e-6), trial
            assert np.all(A @ mine <= b + 1e-9)

    def test_opposite_faces_are_not_averaged(self):
        # x1 <= 1 and -x1 <= 0 taken together as equalities give x1 = 1/2,
        # feasible with z - x in their cone but not tight on either row;
        # KKT at (0, -1): z - x = 3/2 (-1, 0) + 1/2 (-1, -1)
        A = np.array([[1.0, 0.0], [-1.0, 1.0], [-1.0, 0.0], [-1.0, -1.0]])
        b = np.array([1.0, 1.0, 0.0, 1.0])
        z = np.array([-2.0, -1.5])
        x = project_onto_rows(A, b, z)
        assert x == pytest.approx([0.0, -1.0], abs=1e-12)
        assert x == pytest.approx(dykstra_projection(A, b, z), abs=1e-6)

    def test_unverified_point_raises(self, monkeypatch):
        # u = 0 is not the NNLS optimum here; it maps back to x = z, which is
        # infeasible, and must not be returned as the projection
        monkeypatch.setattr(polycone, "nnls", lambda E, f: (np.zeros(E.shape[1]), 1.0))
        A = np.array([[1.0, 0.0]])
        with pytest.raises(SolveFailureError):
            project_onto_rows(A, np.array([1.0]), np.array([2.0, 0.0]))

    def test_projection_beats_every_feasible_point(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(4, 3))
        b = rng.uniform(0.3, 1.0, size=4)
        z = rng.normal(size=3) * 3.0
        star = project_onto_rows(A, b, z)
        dstar = np.linalg.norm(z - star)
        for _ in range(100):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            steps = (b - A @ np.zeros(3)) / np.maximum(A @ direction, 1e-12)
            t_max = float(np.min(np.where(A @ direction > 1e-12, steps, np.inf)))
            c = min(t_max, 5.0) * rng.uniform(0, 1) * direction
            if np.all(A @ c <= b + 1e-12):
                assert dstar <= np.linalg.norm(z - c) + 1e-9

    def test_degenerate_apex_projection(self, ex64_model):
        # All four constraints active at the target: rank-deficient KKT.
        z = np.array([0.0, 0.0, -1.0])
        x = project_onto_rows(*polyhedron_rows(ex64_model, [0.0, 0.0]), z)
        assert x == pytest.approx([0.0, 0.0, 0.0], abs=1e-9)

    def test_empty_set_detected(self):
        m = parse_model(
            "dims n=1 d=0\nf = (x1)\nconstraint x1 + 1 <= 0\nconstraint -x1 <= 0\n"
        )
        with pytest.raises(InfeasibleSetError):
            project_onto_rows(*polyhedron_rows(m, []), np.array([0.0]))


class TestNNLS:
    def test_matches_lstsq_when_interior(self):
        rng = np.random.default_rng(8)
        A = rng.normal(size=(5, 3))
        x_true = rng.uniform(0.5, 1.5, size=3)
        b = A @ x_true
        x, res = nnls(A, b)
        assert x == pytest.approx(x_true, abs=1e-9)
        assert res <= 1e-10

    def test_clamps_to_zero(self):
        A = np.eye(2)
        x, res = nnls(A, np.array([1.0, -1.0]))
        assert x == pytest.approx([1.0, 0.0])
        assert res == pytest.approx(1.0)


class TestSubspaceBasis:
    def test_rejects_nonorthonormal(self):
        with pytest.raises(InputError):
            SubspaceBasis(V=np.array([[1.0], [1.0]]))

    def test_orthonormal_ok(self):
        S = SubspaceBasis(V=np.array([[1.0], [0.0]]))
        assert S.dim == 1

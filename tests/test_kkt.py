"""Constraint qualifications and multiplier polytopes.

The exact CRCQ rank test is held to the sampled rank probe it replaced
(``oracles.crcq_by_sampling``) on 33 models; the one model where they
differ (phi_2 = x1 + x2^9) is a jump the probe cannot see.

Expected multiplier vertices for the worked model come from solving the
stationarity system by hand: with gradients (1,0,-1), (-1,0,-1), (0,1,-1),
(0,-1,-1) and rhs (-1/4, 0, -1), the solutions are
(3/8 - a, 5/8 - a, a, a) for 0 <= a <= 3/8; the endpoints are the two
vertices asserted below.
"""

from fractions import Fraction

import numpy as np
import pytest

from fullstab.defaults import RANK_TOL
from fullstab.errors import (
    InputError,
    LocalizationError,
    NoMultiplierError,
    UnboundedMultiplierError,
)
from fullstab.kkt import (
    _exact_solve,
    check_licq,
    check_mfcq,
    multiplier_polytope,
    strict_complement,
)
from fullstab.modelspec import eval_bundle_exact, parse_model
from fullstab.secondorder import scoc_probe
from fullstab.simplex import solve_standard_lp
from fullstab.stabharness import CertifyOptions, _max_independent_subset, certify

from conftest import (
    DEPENDENT_CURVED,
    STEEP_DEPENDENT,
    crcq_at,
    curv,
    exact_at,
    floats_at,
    reference_gusosc,
)
from oracles import crcq_by_sampling, curved_multiplier_model, random_crcq_model

ZERO3 = (Fraction(0), Fraction(0), Fraction(0))
ZERO2 = (Fraction(0), Fraction(0))


# each check at (x, p) on the bundle certify would hand it there
def mfcq_at(model, x, p):
    return check_mfcq(*exact_at(model, x, p))


def licq_at(model, x, p):
    return check_licq(*floats_at(model, x, p))


def polytope_at(model, x, p, v):
    return multiplier_polytope(*exact_at(model, x, p, v), v)


class TestMFCQ:
    def test_worked_example_holds_with_unique_witness(self, ex64_model):
        rep = mfcq_at(ex64_model, ZERO3, ZERO2)
        assert rep.verdict == "holds"
        assert rep.witness["t_star"] == pytest.approx(1.0, abs=1e-12)
        assert rep.witness["direction"] == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)
        # witness re-verification: <g_i, d> <= -t* + 1e-10
        G = np.array([[1, 0, -1], [-1, 0, -1], [0, 1, -1], [0, -1, -1]], dtype=float)
        d = np.array(rep.witness["direction"])
        assert np.all(G @ d <= -rep.witness["t_star"] + 1e-10)

    def test_vacuous_when_inactive(self, ex64_model):
        rep = mfcq_at(ex64_model, (0, 0, 1), ZERO2)
        assert rep.verdict == "holds"
        assert rep.witness["vacuous"] is True

    def test_opposing_gradients_fail_exactly(self):
        m = parse_model(
            "dims n=1 d=0\nf = (x1)\nconstraint x1 <= 0\nconstraint -x1 <= 0\n"
        )
        rep = mfcq_at(m, (Fraction(0),), ())
        assert rep.verdict == "fails"
        assert rep.witness["t_star"] == 0.0
        assert rep.witness["exact"] is True


class TestLICQ:
    def test_worked_example_fails(self, ex64_model):
        rep = licq_at(ex64_model, ZERO3, ZERO2)
        assert rep.verdict == "fails"
        assert rep.witness["rank"] == 3 and rep.witness["count"] == 4

    def test_single_constraint_holds(self):
        m = parse_model("dims n=2 d=0\nf = (x1, x2)\nconstraint x1 <= 0\n")
        rep = licq_at(m, (0, 0), ())
        assert rep.verdict == "holds"

    def test_empty_active_set_holds(self, skew_model):
        assert licq_at(skew_model, (0, 0), ()).verdict == "holds"


class TestCRCQ:
    def test_affine_model_holds(self, ex64_model):
        rep = crcq_at(ex64_model, ZERO3, ZERO2)
        assert rep.verdict == "holds"
        assert rep.witness.get("affine") is True

    def test_vanishing_gradient_fails(self):
        # grad phi_1 = 2 x1 vanishes at the origin but not nearby, so the
        # singleton subfamily {1} changes rank.
        m = parse_model(
            "dims n=1 d=0\nf = (x1)\nconstraint x1^2 <= 0\nconstraint x1 <= 0\n"
        )
        rep = crcq_at(m, (0,), ())
        assert rep.verdict == "fails"
        assert rep.witness["subset"] == [1]
        assert rep.witness["rank_at_reference"] == 0
        assert rep.witness["rank_generic"] == 1
        x = rep.witness["point"]["x"]
        assert x[0] != 0 and rep.witness["point"]["p"] == []

    def test_nonvanishing_gradient_holds_by_licq(self, monkeypatch):
        # one active gradient 3 x1^2 + 1 != 0: LICQ holds, so every
        # subfamily has full rank at the reference, which cannot rise, and
        # the rank test evaluates no probe point
        from fullstab import kkt

        m = parse_model("dims n=1 d=0\nf = (x1)\nconstraint x1^3 + x1 <= 0\n")
        monkeypatch.setattr(kkt, "at_probe_points", None)  # a call would raise
        rep = crcq_at(m, (0,), ())
        assert rep.verdict == "holds"
        assert rep.witness == {"active_set": [1]}

    def test_dependent_curved_gradients_sampled(self):
        # gradients 1 + 2 x1 and 2 are dependent at the origin, so LICQ
        # fails and the rank test runs; with n = 1 every subfamily has full
        # rank 1 at the reference, which cannot rise
        m = parse_model(
            "dims n=1 d=0\nf = (x1)\nconstraint x1 + x1^2 <= 0\nconstraint 2*x1 <= 0\n"
        )
        assert licq_at(m, (0,), ()).verdict == "fails"
        rep = crcq_at(m, (0,), ())
        assert rep.verdict == "holds"
        assert rep.witness == {"active_set": [1, 2]}


# phi_1 = x1 and phi_2 = x1 + x2^9: the family {1, 2} has rank 1 at the
# reference and rank 2 wherever x2 != 0, a jump below the rank cutoff
# inside the sampled probe's ball of radius 1e-2
NINTH_POWER = (
    "dims n=2 d=0\nf = (x1, x2)\nconstraint x1 <= 0\nconstraint x1 + x2^9 <= 0\n"
    "reference x=(0, 0) p=() v=(0, 0)\n"
)

# two constraints active at the reference, the sampler's verdict in the
# comment: a vanishing gradient, gradients proportional in x, a curvature
# that separates them, a slope that moves with p, and opposite gradients
TWO_CONSTRAINTS = [
    "dims n=1 d=0\nf = (x1)\nconstraint x1^2 <= 0\nconstraint x1 <= 0\n"
    "reference x=(0) p=() v=(0)\n",  # fails on {1}
    DEPENDENT_CURVED,  # corroborated
    "dims n=2 d=0\nf = (x1, x2)\nconstraint x1 <= 0\nconstraint x1 - x2^2 <= 0\n"
    "reference x=(0, 0) p=() v=(0, 0)\n",  # fails on {1, 2}
    "dims n=2 d=1\nf = (x1, x2)\nconstraint x1 + p1*x2 <= 0\nconstraint x1 <= 0\n"
    "reference x=(0, 0) p=(0) v=(0, 0)\n",  # fails on {1, 2}
    "dims n=2 d=0\nf = (x1, x2)\nconstraint x1 + x2^2 <= 0\nconstraint -x1 - x2^2 <= 0\n"
    "reference x=(0, 0) p=() v=(0, 0)\n",  # corroborated
]


def _sampled_cases():
    """The 33 models on which the exact rank test is held to the sampled
    probe: curv-3..8, the two dependent models, seeded CRCQ models,
    seeded models where CRCQ fails, and the two-constraint cases."""
    cases = [pytest.param(parse_model(curv(k)), id=f"curv-{k}") for k in range(3, 9)]
    cases += [pytest.param(parse_model(DEPENDENT_CURVED), id="DEPENDENT_CURVED"),
              pytest.param(parse_model(STEEP_DEPENDENT), id="STEEP_DEPENDENT")]
    cases += [pytest.param(random_crcq_model(np.random.default_rng(s)), id=f"crcq-{s}")
              for s in range(8)]
    cases += [pytest.param(curved_multiplier_model(np.random.default_rng(s)), id=f"multiplier-{s}")
              for s in range(12)]
    cases += [pytest.param(parse_model(text), id=f"two-{j}")
              for j, text in enumerate(TWO_CONSTRAINTS)]
    return cases


class TestExactCRCQ:
    """CRCQ off the affine shortcut: the rank of each subfamily at
    the reference against its generic rank, read exactly at rational
    points."""

    @pytest.mark.parametrize("model", _sampled_cases())
    def test_agrees_with_the_sampled_probe(self, model):
        ref = model.reference
        exact, I = exact_at(model, ref.x, ref.p)
        rep = crcq_at(model, ref.x, ref.p)
        sampled = crcq_by_sampling(model, exact.floats(), I, ref.x, ref.p)
        assert rep.verdict == {"corroborated": "holds", "fails": "fails"}[sampled.verdict]
        if rep.verdict == "fails":
            assert rep.witness["subset"] == sampled.witness["subset"]
            assert rep.witness["rank_at_reference"] == sampled.witness["rank_at_center"]
            assert rep.witness["rank_generic"] >= sampled.witness["rank_at_witness"]

    def test_ninth_power_jump_fails(self):
        m = parse_model(NINTH_POWER)
        exact, I = exact_at(m, (0, 0), ())
        assert crcq_by_sampling(m, exact.floats(), I, (0, 0), ()).verdict == "corroborated"
        rep = crcq_at(m, (0, 0), ())
        assert rep.verdict == "fails"
        assert rep.witness["subset"] == [1, 2]
        assert rep.witness["rank_at_reference"] == 1 and rep.witness["rank_generic"] == 2
        x = [Fraction(c) for c in rep.witness["point"]["x"]]
        G = eval_bundle_exact(m, x, ()).grad_phi
        assert G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0] != 0
        gusosc = reference_gusosc(m)
        assert gusosc.verdict == "not_run"
        report = certify(m, CertifyOptions(grid_v=2, grid_p=2, n_random=0))
        assert report.cq["crcq"] == rep.to_json_dict()
        assert report.gusosc["verdict"] == "not_run"
        assert report.verdict == "undetermined"

    def test_no_evaluable_point_fails(self, monkeypatch):
        # nothing is certified without a point: CRCQ fails with a reason
        from fullstab import kkt

        monkeypatch.setattr(kkt, "at_probe_points", lambda fn, n, d: iter(()))
        rep = crcq_at(parse_model(NINTH_POWER), (0, 0), ())
        assert rep.verdict == "fails"
        assert rep.witness["reason"] == "the active gradients evaluate at no probe point"

    def test_certify_cq_block_is_the_same_at_every_seed(self, monkeypatch):
        # the localization is stubbed out: the cq block is decided before it
        from fullstab import stabharness

        def no_table(*args, **kwargs):
            raise LocalizationError("not built")

        monkeypatch.setattr(stabharness, "build_localization", no_table)
        m = parse_model(curv(4))
        blocks = [certify(m, CertifyOptions(seed=seed)).cq for seed in range(4)]
        assert blocks[0]["crcq"] == {
            "cq": "CRCQ", "verdict": "holds", "witness": {"active_set": [1, 2, 3, 4]},
        }
        assert all(block == blocks[0] for block in blocks)


class TestMultiplierPolytope:
    def test_worked_example_segment_exact(self, ex64_model):
        ms = polytope_at(ex64_model, ZERO3, ZERO2, ZERO3)
        assert ms.exact is True
        assert ms.dim == 1
        verts = sorted(ms.vertices)
        assert verts == [
            (Fraction(0), Fraction(1, 4), Fraction(3, 8), Fraction(3, 8)),
            (Fraction(3, 8), Fraction(5, 8), Fraction(0), Fraction(0)),
        ]

    def test_vertices_satisfy_description(self, ex64_model):
        ms = polytope_at(ex64_model, ZERO3, ZERO2, ZERO3)
        G = ms.grad_matrix
        rhs = np.array([float(v - f) for v, f in zip(ZERO3, ms.bundle.f)])
        for vert in ms.vertices_float():
            assert np.min(vert) >= -1e-12
            assert G.T @ vert == pytest.approx(rhs, abs=1e-9)

    def test_interior_point_singleton_zero(self, ex64_model):
        # v = f(x, p) at an interior point: Lambda = {0}
        x = (0, 0, 1)
        f = [float(v) for v in eval_bundle_exact(ex64_model, x, (0, 0)).f]
        ms = polytope_at(ex64_model, x, (0, 0), tuple(f))
        assert ms.vertices_float() == pytest.approx(np.zeros((1, 4)))

    def test_no_multiplier_raises(self, ex64_model):
        with pytest.raises(NoMultiplierError):
            polytope_at(ex64_model, (0, 0, 1), ZERO2, (5.0, 5.0, 5.0))

    @pytest.mark.parametrize("five", [Fraction(5), 5.0], ids=["exact", "float"])
    def test_no_multiplier_at_active_point_raises(self, ex64_model, five):
        # all four constraints are active and MFCQ holds, but v - f =
        # (19/4, 5, 4) is outside the cone of the gradients: each gradient
        # has third entry -1, so no nonnegative combination reaches +4
        with pytest.raises(NoMultiplierError, match="not in Psi"):
            polytope_at(ex64_model, ZERO3, ZERO2, (five,) * 3)

    def test_unbounded_reports_recession(self):
        m = parse_model(
            "dims n=1 d=0\nf = (x1)\nconstraint x1 <= 0\nconstraint -x1 <= 0\n"
        )
        with pytest.raises(UnboundedMultiplierError) as err:
            polytope_at(m, (Fraction(0),), (), (Fraction(0),))
        ray = err.value.recession
        assert ray is not None
        assert min(ray) >= 0 and max(ray) > 0
        # recession direction annihilates the gradient sum
        assert ray[0] * 1.0 + ray[1] * (-1.0) == pytest.approx(0.0, abs=1e-9)

    def test_hull_support_function_matches_description(self, ex64_model):
        # sup over the affine description equals max over enumerated
        # vertices for random objectives (bounded polytope under MFCQ).
        ms = polytope_at(ex64_model, ZERO3, ZERO2, ZERO3)
        cols = [
            [float(g) for g in ms.grad_matrix[i]] for i in ms.active
        ]
        rhs = [float(v - f) for v, f in zip(ZERO3, ms.bundle.f)]
        A = [[cols[j][i] for j in range(len(cols))] for i in range(3)]
        V = ms.vertices_float()
        rng = np.random.default_rng(9)
        for _ in range(1000):
            c = rng.normal(size=len(cols))
            res = solve_standard_lp([-ci for ci in c], A, rhs)
            assert res.status == "optimal"
            lp_max = -float(res.value)
            vert_max = float(np.max(V[:, list(ms.active)] @ c))
            assert lp_max == pytest.approx(vert_max, abs=1e-8)

    def test_m_zero_model(self, skew_model):
        ms = polytope_at(skew_model, (0, 0), (), (0, 0))
        assert ms.vertices == [()]


class TestIntegerPointStaysExact:
    """At an integer point, x1/x2 must come out as a Fraction (Python's
    int / int gives a float), so the exact paths stay exact."""

    MODEL = "dims n=2 d=0\nf = (x1/x2, x2)\nconstraint x1/x2 - 1/2 <= 0\n"

    def test_every_exact_bundle_entry_is_a_fraction(self):
        b = eval_bundle_exact(parse_model(self.MODEL), (1, 2), ())
        rows = [b.f, b.phi, *b.jac_f, *b.grad_phi, *(r for h in b.hess_phi for r in h)]
        assert all(type(c) is Fraction for row in rows for c in row)
        assert b.f.tolist() == [Fraction(1, 2), Fraction(2)]
        assert b.grad_phi.tolist() == [[Fraction(1, 2), Fraction(-1, 4)]]

    def test_mfcq_reports_exact(self):
        rep = mfcq_at(parse_model(self.MODEL), (1, 2), ())
        assert rep.verdict == "holds"
        assert rep.witness["exact"] is True

    def test_multiplier_polytope_reports_exact(self):
        # v = f + 4 grad phi = (1/2 + 2, 2 - 1)
        ms = polytope_at(parse_model(self.MODEL), (1, 2), (), (Fraction(5, 2), 1))
        assert ms.exact is True
        assert ms.vertices == [(Fraction(4),)]


class TestStrictComplement:
    def test_first_vertex_strongly_active_pair(self):
        lam = (Fraction(3, 8), Fraction(5, 8), Fraction(0), Fraction(0))
        assert strict_complement(lam, (0, 1, 2, 3)) == (0, 1)

    def test_zero_multiplier(self):
        assert strict_complement((0.0, 0.0), (0, 1)) == ()

    def test_other_vertex(self):
        lam = (Fraction(0), Fraction(1, 4), Fraction(3, 8), Fraction(3, 8))
        assert strict_complement(lam, (0, 1, 2, 3)) == (1, 2, 3)


class TestExactSolve:
    def test_unique_solution(self):
        F = Fraction
        assert _exact_solve([[F(1), F(1)], [F(1), F(-1)], [F(2), F(0)]], [F(3), F(1), F(4)]) == [2, 1]

    def test_dependent_columns_return_none(self):
        assert _exact_solve([[1, 2], [2, 4]], [1, 2]) is None

    def test_inconsistent_system_returns_none(self):
        assert _exact_solve([[1], [1]], [1, 2]) is None


class TestSharedRankCutoff:
    @pytest.mark.parametrize("eps", ["0.0000000006", "0.0000000003"])
    def test_licq_subset_and_probe_agree(self, eps):
        # gradients (1, 0) and (1, eps): sigma_min / sigma_0 is about eps / 2,
        # against the cutoff max(shape) * RANK_TOL = 2e-10
        m = parse_model(
            f"dims n=2 d=0\nf = (x1, x2)\nconstraint x1 <= 0\n"
            f"constraint x1 + {eps}*x2 <= 0\nreference x=(0, 0) p=() v=(1, 0)\n"
        )
        G = np.array([[1.0, 0.0], [1.0, float(eps)]])
        s = np.linalg.svd(G, compute_uv=False)
        above = s[1] > 2 * RANK_TOL * s[0]
        assert 0.5 < s[1] / (2 * RANK_TOL * s[0]) < 2.0  # near the cutoff
        licq = licq_at(m, (0, 0), ())
        assert (licq.verdict == "holds") == above
        assert (_max_independent_subset(G, [0, 1]) == (0, 1)) == above
        floats, _ = floats_at(m, (0, 0), ())
        if above:
            scoc_probe(floats, (1.0, 0.0), (0, 1))
        else:
            with pytest.raises(InputError, match="dependent"):
                scoc_probe(floats, (1.0, 0.0), (0, 1))

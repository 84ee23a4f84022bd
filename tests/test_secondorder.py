"""Second-order tests.

min_on_cone is anchored to a 1e5-direction rejection-sampling oracle; the
bordered determinants to exact cofactor expansion; the strict-
complementarity and uniform tests to hand-derived worked-example values
(GSSOSC failing direction e2, uniform test holding, skew map failing at
-1); the exact uniform test also to the graph-sampling oracle
(``gusosc_sequential``) and to a sampling-only oracle; the vertex minimum
of GSSOSC to a scan of the whole multiplier polytope on random curved
models; the LICQ limit and the face path under MFCQ + CRCQ of the uniform
test to the graph-sampling oracle within a stated O(eta) band, the LICQ
limit also to a least-squares oracle.
"""

import importlib.util
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fullstab import expr as ex
from fullstab.errors import (
    DeskScaleError,
    InputError,
    LocalizationError,
    UnboundedMultiplierError,
)
from fullstab.kkt import check_licq
from fullstab.modelspec import eval_bundle, parse_model
from fullstab.polycone import ConeDesc, SubspaceBasis
from fullstab.secondorder import (
    QuadForm,
    check_gssosc,
    check_pvi_pointwise,
    check_smooth_psd,
    min_on_cone,
    min_on_subspace,
    scoc_probe,
)
from fullstab.stabharness import CertifyOptions, certify

from conftest import (
    DEPENDENT_CURVED,
    MODELS_DIR,
    STEEP_DEPENDENT,
    curv,
    exact_at,
    floats_at,
    half_planes,
    reference_gusosc,
    reference_multipliers,
)
from oracles import (
    cofactor_det,
    curved_multiplier_model,
    gssosc_by_scan,
    gusosc_sequential,
    licq_limit,
    min_quadratic_on_cone_sampling,
    random_crcq_model,
    random_licq_model,
    uniform_value_oracle,
)
from test_acceptance import _corpus

H64 = np.array([[0.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])

# the symmetric part of jac_f has eigenvalues 4 and -2; on the orthant cone
# of the apex the form is at least 1
OFF_APEX = (
    "dims n=2 d=0\nf = (x1 + 3*x2, 3*x1 + x2)\n"
    "constraint -x1 <= 0\nconstraint -x2 <= 0\nreference x=(0, 0) p=() v=(0, 0)\n"
)


def _floats(model):
    ref = model.reference
    return floats_at(model, ref.x, ref.p)[0]


def _exact(model):
    ref = model.reference
    return exact_at(model, ref.x, ref.p, ref.v)[0]


def _v_hat(model):
    return model.reference.v_hat(_exact(model))


def _pointwise(model):
    """(v_hat, float bundle, active set) at the model's reference, the
    arguments of check_pvi_pointwise after the model."""
    ref = model.reference
    return (_v_hat(model), *floats_at(model, ref.x, ref.p))


class TestMinOnSubspace:
    def test_worked_example_e2_gives_zero(self):
        V = SubspaceBasis(V=np.array([[0.0], [1.0], [0.0]]))
        val, w = min_on_subspace(QuadForm(H64), V)
        assert val == pytest.approx(0.0, abs=1e-14)
        assert abs(w[1]) == pytest.approx(1.0)

    def test_identity_any_subspace_one(self):
        rng = np.random.default_rng(0)
        Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        V = SubspaceBasis(V=Q[:, :2])
        val, _ = min_on_subspace(QuadForm(np.eye(4)), V)
        assert val == pytest.approx(1.0)

    def test_indefinite_full_space(self):
        val, w = min_on_subspace(QuadForm(np.diag([1.0, -1.0])), SubspaceBasis(V=np.eye(2)))
        assert val == pytest.approx(-1.0)
        assert abs(w[1]) == pytest.approx(1.0)

    def test_zero_dim_sentinel(self):
        val, w = min_on_subspace(QuadForm(np.eye(3)), SubspaceBasis(V=np.zeros((3, 0))))
        assert val == math.inf and w is None

    def test_uses_symmetric_part(self):
        # <Hw, w> = <H_s w, w> for every w
        rng = np.random.default_rng(1)
        H = rng.normal(size=(3, 3))
        q = QuadForm(H)
        for _ in range(20):
            w = rng.normal(size=3)
            assert float(w @ q.sym @ w) == pytest.approx(float(w @ H @ w), abs=1e-10)


class TestMinOnCone:
    def test_plane_restriction(self):
        K = ConeDesc(2, E=np.array([[0.0, 1.0]]))  # w2 = 0
        val, w = min_on_cone(QuadForm(np.diag([1.0, -1.0])), K)
        assert val == pytest.approx(1.0)

    def test_full_space_indefinite(self):
        K = ConeDesc(2)
        val, w = min_on_cone(QuadForm(np.diag([1.0, -1.0])), K)
        assert val == pytest.approx(-1.0)
        assert abs(w[1]) == pytest.approx(1.0)

    def test_trivial_cone_sentinel(self):
        K = ConeDesc(2, E=np.eye(2))
        val, w = min_on_cone(QuadForm(np.diag([1.0, -1.0])), K)
        assert val == math.inf and w is None

    def test_random_instances_match_sampling_oracle(self):
        # light version; the full 100-instance run is acceptance criterion 3
        rng = np.random.default_rng(2)
        checked = 0
        for trial in range(30):
            n = int(rng.integers(2, 6))
            H = rng.normal(size=(n, n))
            H /= np.linalg.norm(H, 2)  # unit-scaled instances
            G = rng.normal(size=(int(rng.integers(1, 3)), n))
            K = ConeDesc(n, G=G)
            oracle, count = min_quadratic_on_cone_sampling(
                H, lambda W: K.contains(W), n, n_samples=100_000, seed=trial
            )
            if count < 100:
                continue
            val, w = min_on_cone(QuadForm(H), K)
            checked += 1
            # face enumeration is exact; sampling can only stay above it,
            # up to the membership tolerance band
            assert val <= oracle + 5e-9 * (1 + abs(val)), trial
            assert val >= oracle - 1e-4, trial
            assert K.contains(w, tol=1e-9)
            assert float(w @ H @ w) == pytest.approx(val, abs=1e-10)
        assert checked >= 20

    def test_span_as_cone_matches_subspace(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            H = rng.normal(size=(3, 3))
            E = rng.normal(size=(1, 3))
            K = ConeDesc(3, E=E)
            V = SubspaceBasis(V=_null(E))
            v_cone, _ = min_on_cone(QuadForm(H), K)
            v_sub, _ = min_on_subspace(QuadForm(H), V)
            assert v_cone == pytest.approx(v_sub, abs=1e-10)

    def test_scaling_covariance(self):
        rng = np.random.default_rng(4)
        H = rng.normal(size=(3, 3))
        G = rng.normal(size=(2, 3))
        K = ConeDesc(3, G=G)
        v1, _ = min_on_cone(QuadForm(H), K)
        v2, _ = min_on_cone(QuadForm(3.5 * H), K)
        assert v2 == pytest.approx(3.5 * v1, rel=1e-12)


def _null(M):
    u, s, vt = np.linalg.svd(M, full_matrices=True)
    rank = int(np.sum(s > 1e-10 * s[0]))
    return vt[rank:].T


class TestGSSOSC:
    def test_worked_example_fails_with_e2_witness(self, ex64_model):
        rep = check_gssosc(_floats(ex64_model), reference_multipliers(ex64_model))
        assert rep.verdict == "fails"
        assert rep.modulus == pytest.approx(0.0, abs=1e-12)
        lam = rep.witness["lambda"]
        assert lam == pytest.approx([3 / 8, 5 / 8, 0, 0], abs=1e-12)
        d = np.array(rep.witness["direction"])
        assert abs(d[1]) == pytest.approx(1.0, abs=1e-10)
        assert abs(d[0]) < 1e-10 and abs(d[2]) < 1e-10

    def test_identity_unconstrained_holds(self, identity_model):
        rep = check_gssosc(_floats(identity_model), reference_multipliers(identity_model))
        assert rep.verdict == "holds"
        assert rep.modulus == pytest.approx(1.0)

    def test_skew_unconstrained_fails(self, skew_model):
        rep = check_gssosc(_floats(skew_model), reference_multipliers(skew_model))
        assert rep.verdict == "fails"
        assert rep.modulus == pytest.approx(-1.0)
        d = np.array(rep.witness["direction"])
        assert abs(d[1]) == pytest.approx(1.0, abs=1e-10)

    def test_witness_reverifies(self, ex64_model):
        rep = check_gssosc(_floats(ex64_model), reference_multipliers(ex64_model))
        lam = rep.witness["lambda"]
        w = np.array(rep.witness["direction"])
        H = eval_bundle(ex64_model, [0, 0, 0], [0, 0]).lagrangian_jacobian(lam)
        assert float(w @ H @ w) <= 1e-9
        grads = np.array([[1, 0, -1], [-1, 0, -1]], dtype=float)
        assert np.max(np.abs(grads @ w)) <= 1e-9


class TestGUSOSC:
    def test_worked_example_corroborated(self, ex64_model):
        # the graph-sampling oracle agrees with the exact 'holds'
        rep = gusosc_sequential(
            ex64_model, ex64_model.reference, reference_multipliers(ex64_model), 1e-2, 500, 7
        )
        assert rep.verdict == "corroborated"
        assert rep.modulus > 0
        assert rep.details["samples_accepted"] == 500
        assert reference_gusosc(ex64_model).verdict == "holds"

    def test_worked_example_decided_by_faces(self, ex64_model):
        # only the apex face is reachable: its two vertex supports give
        # trivial cones, while the unreachable face {1, 2} would give the
        # value 0 on e2
        rep = reference_gusosc(ex64_model)
        assert rep.verdict == "holds"
        assert rep.modulus == math.inf
        assert rep.details["reachability_lps"] == 4
        assert rep.details["cones_evaluated"] == 2
        assert rep.details["pairs"] == [
            {"active_set": [1, 2, 3, 4], "strongly_active": [2, 3, 4], "value": None},
            {"active_set": [1, 2, 3, 4], "strongly_active": [1, 2], "value": None},
        ]
        assert rep.details["exact"] is True

    def test_minimum_off_the_apex(self):
        # the apex pair gives 1 on the negative orthant; the face {1} and
        # the interior see the eigenvalue -2 of the symmetric part
        m = parse_model(OFF_APEX)
        rep = reference_gusosc(m)
        assert rep.verdict == "fails"
        assert rep.modulus == pytest.approx(-2.0, abs=1e-12)
        assert rep.witness["active_set"] != [1, 2]
        values = {tuple(p["active_set"]): p["value"] for p in rep.details["pairs"]}
        assert values[(1, 2)] == pytest.approx(1.0, abs=1e-12)
        assert values[(1,)] == pytest.approx(-2.0, abs=1e-12)
        assert values[()] == pytest.approx(-2.0, abs=1e-12)
        w = np.array(rep.witness["direction"])
        assert float(w @ np.array([[1.0, 3.0], [3.0, 1.0]]) @ w) == pytest.approx(-2.0)

    def test_active_set_over_cap_rejected(self):
        # 13 half-planes -x1 + (k/7) x2 <= 0 through the origin, all active
        rows = "".join(f"constraint -x1 + ({k}/7)*x2 <= 0\n" for k in range(-6, 7))
        m = parse_model(f"dims n=2 d=0\nf = (x1, x2)\n{rows}reference x=(0, 0) p=() v=(0, 0)\n")
        with pytest.raises(DeskScaleError, match="face-enumeration cap"):
            reference_gusosc(m)

    def test_curved_active_set_over_cap_rejected(self):
        # the curved version of the model above is refused alike
        m = parse_model(half_planes(" + x2^2"))
        with pytest.raises(DeskScaleError, match="13 active constraints exceed the face-enumeration cap"):
            reference_gusosc(m)

    def test_reachability_lp_sized_by_active_rows(self):
        # n = d = 8: a box over (w, dp, t) would need 2 * 17 + 2 = 36 LP
        # columns, over the 32-column cap; the row space of the two active
        # rows needs 2 * 3 + 2
        zeros = ", ".join(["0"] * 8)
        xs = ", ".join(f"x{i}" for i in range(1, 9))
        m = parse_model(
            f"dims n=8 d=8\nf = ({xs})\nconstraint x1 - p1 <= 0\nconstraint x2 - p2 <= 0\n"
            f"reference x=({zeros}) p=({zeros}) v=({zeros})\n"
        )
        rep = reference_gusosc(m)
        assert rep.verdict == "holds" and rep.modulus == pytest.approx(1.0)
        assert rep.details["reachability_lps"] == 3
        assert [p["active_set"] for p in rep.details["pairs"]] == [[], [1], [2], [1, 2]]

    def test_mfcq_failure_rejected_on_both_paths(self):
        # the uniform test takes Lambda, which is refused without MFCQ, so
        # neither the polyhedral (x1) nor the curved (x1 + x1^3) path is
        # reached
        for f in ("x1", "x1 + x1^3"):
            m = parse_model(
                f"dims n=1 d=0\nf = ({f})\nconstraint x1 <= 0\nconstraint -x1 <= 0\n"
                "reference x=(0) p=() v=(0)\n"
            )
            with pytest.raises(UnboundedMultiplierError, match="MFCQ"):
                reference_multipliers(m)

    def test_faces_agree_with_sampler_on_corpus(self, ex64_model, skew_model, identity_model):
        # ex64, the 20 criterion-7 instances, identity and skew: the exact
        # value equals the sampled one (both +inf or within 1e-9)
        models = [ex64_model, *_corpus(), identity_model, skew_model]
        assert len(models) == 23
        for idx, m in enumerate(models):
            exact = reference_gusosc(m)
            sampled = gusosc_sequential(m, m.reference, reference_multipliers(m), 1e-2, 80, 5)
            assert exact.details["samples_accepted"] == 0, idx
            if math.isinf(exact.modulus):
                assert math.isinf(sampled.modulus), idx
            else:
                assert exact.modulus == pytest.approx(sampled.modulus, abs=1e-9), idx
            assert exact.ok == (sampled.verdict == "corroborated"), idx

    def test_faces_agree_with_sampling_oracle(self, ex64_model):
        corpus = _corpus()
        models = [
            (ex64_model, math.inf),
            (corpus[6], 1.0),
            (corpus[13], 2.5),
            (parse_model(OFF_APEX), -2.0),
        ]
        for m, expected in models:
            ms = reference_multipliers(m)
            rep = reference_gusosc(m, ms)
            act = list(ms.active)
            G = ms.grad_matrix[act]
            B = [[float(ex.evaluate(ex.differentiate(m.constraints[i], "p", l), m.reference.x,
                                    m.reference.p)) for l in range(m.d)] for i in act]
            supports = {tuple(act.index(i) for i in act if float(v[i]) > 1e-8) for v in ms.vertices}
            H = np.array([[float(ex.evaluate(e, m.reference.x, m.reference.p)) for e in row]
                          for row in m.f_jac])
            oracle = uniform_value_oracle(H, G, B, sorted(supports))
            if math.isinf(expected):
                assert math.isinf(rep.modulus) and math.isinf(oracle)
            else:
                assert rep.modulus == pytest.approx(expected, abs=1e-12)
                assert abs(oracle - expected) <= 1e-4, (expected, oracle)

    def test_skew_fails_at_minus_one(self, skew_model):
        rep = reference_gusosc(skew_model)
        assert rep.verdict == "fails"
        assert rep.modulus <= -1 + 1e-6
        assert rep.modulus == pytest.approx(-1.0, abs=1e-9)

    def test_interior_pd_reference(self):
        m = parse_model(
            "dims n=2 d=0\nf = (2*x1, 3*x2)\nconstraint x1 - 1 <= 0\n"
            "reference x=(0, 0) p=() v=(0, 0)\n"
        )
        rep = reference_gusosc(m)
        assert rep.verdict == "holds"
        # the interior face has the full-space cone: min eig of sym jac
        assert rep.modulus == pytest.approx(2.0, abs=1e-6)

    def test_gssosc_implies_gusosc_on_corpus(self):
        # Strict-complementarity test passing forces the uniform test to
        # hold, and the sampled uniform bound to at least half the
        # pointwise modulus at small radius (per-instance radii below).
        corpus = [
            ("dims n=2 d=1\nf = (3*x1 + x2, x2 - x1)\nconstraint -x1 - p1 <= 0\n"
             "reference x=(0, 0) p=(0) v=(-1, 0)\n", 1e-3),
            ("dims n=2 d=0\nf = (2*x1, x2)\nconstraint -x1 <= 0\nconstraint -x2 <= 0\n"
             "reference x=(0, 0) p=() v=(-1, -1)\n", 1e-3),
            ("dims n=1 d=1\nf = (x1 + p1)\nconstraint x1 - 1 <= 0\n"
             "reference x=(0) p=(0) v=(0)\n", 1e-3),
        ]
        for text, eta0 in corpus:
            m = parse_model(text)
            gss = check_gssosc(_floats(m), reference_multipliers(m))
            assert gss.verdict == "holds", text
            gus = reference_gusosc(m)
            assert gus.verdict == "holds", text
            sampled = gusosc_sequential(m, m.reference, reference_multipliers(m), eta0, 120, 5)
            if math.isfinite(gss.modulus):
                assert min(gus.modulus, sampled.modulus) >= gss.modulus / 2 - 1e-9


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def curved_benchmark_models():
    """The five models of the benchmark's curved workload, with their
    references, as the benchmark writes them."""
    path = PERFBENCH / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses resolve the module by name
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return {bm.name: parse_model(bm.text(MODELS_DIR)) for bm in workloads._curved()}


class TestSampledGUSOSC:
    """Off LICQ and off the polyhedral scope, check_gusosc decides at the
    reference: by faces under MFCQ + CRCQ, held to the graph-sampling
    oracle at eta = 1e-2 within 0.3 eta (gaps up to 2.5e-3 on
    STEEP_DEPENDENT, below 1e-3 on the others), and not at all where CRCQ
    fails."""

    ETA = 1e-2

    def _faces_against_oracle(self, m, seed=0):
        ms = reference_multipliers(m)
        rep = reference_gusosc(m, ms)
        assert rep.details["method"] == "faces"
        assert rep.details["lp_rejected_kept"] == [] and rep.details["minimum_attained"]
        assert rep.details["samples_accepted"] == rep.details["attempts"] == 0
        sampled = gusosc_sequential(m, m.reference, ms, self.ETA, 200, seed)
        if math.isinf(rep.modulus):
            assert math.isinf(sampled.modulus)
        else:
            assert abs(sampled.modulus - rep.modulus) <= 0.3 * self.ETA
        assert rep.verdict == ("holds" if sampled.verdict == "corroborated" else "fails")
        return rep

    @pytest.mark.parametrize("seed", range(8))
    def test_random_curved_models_match_sequential_oracle(self, seed):
        m = random_crcq_model(np.random.default_rng(seed))
        assert reference_gusosc(m).details["premise"] == (
            "MFCQ holds; CRCQ holds"
        )
        self._faces_against_oracle(m, seed)

    def test_curv_family_and_dependent_models(self):
        # curv-k has the one vertex e_1 and the form 3 I; of its 2^k - 1
        # faces with the support inside, the LP keeps {1} and the reference
        # face; on the two dependent models every form is constant on the
        # cones
        for k in range(3, 9):
            rep = self._faces_against_oracle(parse_model(curv(k)))
            assert rep.modulus == pytest.approx(3.0, abs=1e-12)
            assert rep.details["reachability_lps"] == 2 ** (k - 1) - 1
            assert [p["active_set"] for p in rep.details["pairs"]] == [[1], list(range(1, k + 1))]
        for text, value in ((DEPENDENT_CURVED, 1.0), (STEEP_DEPENDENT, 1002.0)):
            rep = self._faces_against_oracle(parse_model(text))
            assert rep.modulus == pytest.approx(value, abs=1e-9)
        # affine constraints with a nonconstant jac_f take the same path
        m = parse_model(
            "dims n=1 d=1\nf = (x1^3 + 2*x1 + p1)\nconstraint x1 <= 0\nconstraint 3*x1 <= 0\n"
            "reference x=(0) p=(0) v=(0)\n"
        )
        rep = self._faces_against_oracle(m)
        assert rep.modulus == pytest.approx(2.0, abs=1e-12)
        assert rep.details["premise"] == "MFCQ holds; CRCQ holds"

    def test_constraints_moving_with_p_keep_the_faces_the_lp_rejects(self):
        # phi_1 = x1 + p1^2 and phi_2 = x1: CRCQ holds in x, and the face
        # {1} is reached at x1 = -p1^2 although its LP needs w = 0 and w <
        # 0; {2} is not reached.  Both stay in the minimum, and the minimum
        # is attained on the reference face
        m = parse_model(
            "dims n=1 d=1\nf = (2*x1 + x1^3 + p1)\nconstraint x1 + p1^2 <= 0\n"
            "constraint x1 <= 0\nreference x=(0) p=(0) v=(0)\n"
        )
        rep = reference_gusosc(m)
        assert rep.details["lp_rejected_kept"] == [[1], [2]]
        assert rep.details["reachability"].startswith("faces the LP rejects kept")
        assert rep.details["minimum_attained"] is True
        assert rep.verdict == "holds" and rep.modulus == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(12))
    def test_crcq_failure_not_run(self, seed, monkeypatch):
        # every seed of this family fails the CRCQ probe: no uniform value,
        # and certify's verdict is undetermined whatever the harness finds
        # (its tables take seconds here, so it is stubbed out)
        from fullstab import stabharness

        def no_table(*args, **kwargs):
            raise LocalizationError("not built")

        m = curved_multiplier_model(np.random.default_rng(seed))
        rep = reference_gusosc(m)
        assert rep.verdict == "not_run" and rep.modulus is None and not rep.ok
        assert rep.details["method"] == "not_run"
        for key in ("attempts", "samples_accepted", "samples_requested", "cones_evaluated"):
            assert rep.details[key] == 0
        monkeypatch.setattr(stabharness, "build_localization", no_table)
        report = certify(m)
        assert report.cq["crcq"]["verdict"] == "fails"
        assert report.verdict == "undetermined"
        assert report.gusosc == rep.to_json_dict()

    def test_certify_seed_does_not_move_the_verdict(self, monkeypatch):
        # generator seed 5 used to end in DegenerateSampleError (exit 1) at
        # certify seeds 1 and 2 and to exit 0 at 0 and 3; the exit code is
        # taken as the CLI takes it.  Without random nodes the table's nodes
        # do not depend on the seed, so it is built once for all four
        from fullstab import stabharness

        tables = []
        build = stabharness.build_localization

        def built_once(*args, **kwargs):
            if not tables:
                tables.append(build(*args, **kwargs))
            return tables[0]

        monkeypatch.setattr(stabharness, "build_localization", built_once)
        m = curved_multiplier_model(np.random.default_rng(5))
        seen = []
        for seed in range(4):
            report = certify(m, CertifyOptions(seed=seed, grid_v=2, n_random=0))
            code = 2 if report.verdict == "inconsistent" else 0
            seen.append((code, report.verdict, report.to_json_dict()["gusosc"]))
        assert seen[0][:2] == (0, "undetermined")
        assert all(s == seen[0] for s in seen)


class TestGusoscLicqLimit:
    """Under LICQ check_gusosc reports the limit of the uniform value, the
    pointwise strong second-order value, without sampling.  The limit is
    checked against a least-squares oracle (``licq_limit``), and the
    graph-sampling oracle at eta = 1e-2 is its oracle in turn: its modulus is a minimum
    over graph points within eta, so it lies O(eta) from the limit.  The
    stated bands: 0.3 eta on the curved benchmark models, whose gaps are
    2.5e-3 (circle), 1.1e-3 (sphere-3d) and below 1e-7 (the others), and 5
    eta on the seeded models, whose gaps reach 3.4e-2."""

    ETA = 1e-2

    def _limit_against_oracles(self, m, band, seed):
        ref, ms = m.reference, reference_multipliers(m)
        assert check_licq(_floats(m), ms.active).verdict == "holds"
        rep = reference_gusosc(m, ms)
        value, strong = licq_limit(_floats(m), ms.active, [float(c) for c in ref.v])
        assert rep.details["method"] == "licq_limit"
        assert rep.details["strongly_active"] == strong
        assert rep.verdict == ("holds" if value > 1e-9 else "fails")
        assert rep.details["all_cones_trivial"] is (value == math.inf)
        sampled = gusosc_sequential(m, ref, ms, self.ETA, 200, seed)
        if value == math.inf:
            assert rep.modulus == sampled.modulus == math.inf
            return 0.0
        assert abs(rep.modulus - value) <= 1e-12 * (1 + abs(value))
        gap = sampled.modulus - rep.modulus
        assert abs(gap) <= band * self.ETA
        return gap

    @pytest.mark.parametrize("seed", [0, 1])
    def test_curved_benchmark_models(self, curved_benchmark_models, seed):
        gaps = {
            name: self._limit_against_oracles(m, 0.3, seed)
            for name, m in curved_benchmark_models.items()
        }
        # the two models whose forms change near the reference sample below
        # the limit, by more than rounding
        assert gaps["circle"] < -1e-3 and gaps["sphere-3d"] < -1e-4

    @pytest.mark.parametrize("seed", range(16))
    def test_seeded_licq_models(self, seed):
        m = random_licq_model(np.random.default_rng(seed))
        self._limit_against_oracles(m, 5.0, seed)


class TestPVIPointwise:
    def test_skew_full_space_fails(self, skew_model):
        rep = check_pvi_pointwise(skew_model, *_pointwise(skew_model))
        assert rep.verdict == "fails"
        assert rep.details["closure_holds"] is False
        d = np.array(rep.witness["direction"])
        assert abs(d[1]) == pytest.approx(1.0, abs=1e-10)

    def test_line_constraint_holds_with_modulus_one(self):
        # C = {x : x2 = 0} via an inequality pair; K - K = span{e1}
        m = parse_model(
            "dims n=2 d=0\nf = (x1, -x2)\nconstraint x2 <= 0\nconstraint -x2 <= 0\n"
            "reference x=(0, 0) p=() v=(0, 0)\n"
        )
        rep = check_pvi_pointwise(m, *_pointwise(m))
        assert rep.verdict == "holds"
        assert rep.modulus == pytest.approx(1.0)
        assert rep.details["critical_span_dim"] == 1

    def test_box_full_support_vacuous(self):
        # box [-1, 1]^2 at a corner with normal of full support:
        # critical span is {0}, vacuously positive.
        m = parse_model(
            "dims n=2 d=0\nf = (x1, -x2)\n"
            "constraint x1 - 1 <= 0\nconstraint -x1 - 1 <= 0\n"
            "constraint x2 - 1 <= 0\nconstraint -x2 - 1 <= 0\n"
            "reference x=(1, 1) p=() v=(3, 1)\n"
        )
        # v_hat = v - f = (2, 2): positive support on both active normals
        rep = check_pvi_pointwise(m, *_pointwise(m))
        assert rep.verdict == "vacuous"
        assert rep.details["critical_span_dim"] == 0

    def test_reference_evaluated_once(self, monkeypatch):
        # the tangent cone and jac_f come from the bundle the caller
        # evaluated and the active set it passes, with no evaluation of
        # its own
        import fullstab.polycone as polycone

        m = parse_model(
            "dims n=2 d=0\nf = (x1, -x2)\nconstraint x2 <= 0\nconstraint -x2 <= 0\n"
            "reference x=(0, 0) p=() v=(0, 0)\n"
        )
        args = _pointwise(m)
        calls = []
        inner = polycone.eval_bundle
        monkeypatch.setattr(polycone, "eval_bundle", lambda *a: calls.append(a) or inner(*a))
        assert check_pvi_pointwise(m, *args).verdict == "holds"
        assert calls == []

    def test_parameter_dependent_constraints_rejected(self, ex64_model):
        with pytest.raises(InputError, match="parameter-independent"):
            check_pvi_pointwise(ex64_model, *_pointwise(ex64_model))


class TestSmoothPSD:
    def test_identity_holds(self, identity_model):
        rep = check_smooth_psd(identity_model, _v_hat(identity_model), _floats(identity_model))
        assert rep.verdict == "holds" and rep.modulus == pytest.approx(1.0)

    def test_skew_fails_minus_one(self, skew_model):
        rep = check_smooth_psd(skew_model, _v_hat(skew_model), _floats(skew_model))
        assert rep.verdict == "fails"
        assert rep.modulus == pytest.approx(-1.0, abs=1e-12)

    def test_worked_example_jacobian_stripped(self):
        # min eigenvalue of the worked-example Jacobian is -1
        m = parse_model(
            "dims n=3 d=2\npotential = x3 + (1/4 + p2)*x1 + p1*x2 + x3^2 - x1*x2\n"
            "reference x=(0, 0, 0) p=(0, 0) v=(1/4, 0, 1)\n"
        )
        rep = check_smooth_psd(m, _v_hat(m), _floats(m))
        assert rep.verdict == "fails"
        assert rep.modulus == pytest.approx(-1.0, abs=1e-12)

    def test_requires_unconstrained(self, ex64_model):
        with pytest.raises(InputError):
            check_smooth_psd(ex64_model, _v_hat(ex64_model), _floats(ex64_model))


class TestSCOCProbe:
    def test_worked_example_det_zero_exact(self, ex64_model):
        lam = (Fraction(3, 8), Fraction(5, 8), Fraction(0), Fraction(0))
        out = scoc_probe(_exact(ex64_model), lam, (0, 1))
        assert out["exact"] is True
        assert out["det_exact"] == "0"
        assert out["zero"] is True
        assert abs(out["det_scaled"]) < 1e-9

    def test_float_multiplier_runs_the_float_path(self, ex64_model):
        # the number type is the bundle's: a float multiplier comes with the
        # float bundle, as it does at a reference that is not rational
        exact = scoc_probe(
            _exact(ex64_model),
            (Fraction(3, 8), Fraction(5, 8), Fraction(0), Fraction(0)), (0,),
        )
        out = scoc_probe(_floats(ex64_model), (0.375, 0.625, 0, 0), (0,))
        assert out["exact"] is False
        assert out["det_exact"] is None
        assert out["det"] == float(Fraction(exact["det_exact"]))

    def test_unconstrained_identity_det_one(self, identity_model):
        out = scoc_probe(_exact(identity_model), (), ())
        assert out["det"] == pytest.approx(1.0)
        assert out["zero"] is False

    def test_single_row_matches_cofactor_oracle(self, ex64_model):
        lam = (Fraction(3, 8), Fraction(5, 8), Fraction(0), Fraction(0))
        out = scoc_probe(_exact(ex64_model), lam, (0,))
        # oracle: cofactor expansion of the 4x4 bordered matrix
        M = [
            [Fraction(0), Fraction(-1), Fraction(0), Fraction(1)],
            [Fraction(-1), Fraction(0), Fraction(0), Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(2), Fraction(-1)],
            [Fraction(-1), Fraction(0), Fraction(1), Fraction(0)],
        ]
        expected = cofactor_det(M)
        assert Fraction(out["det_exact"]) == expected
        assert expected != 0
        assert out["zero"] is False

    def test_five_by_five_matches_cofactor_oracle(self, ex64_model):
        lam = (Fraction(3, 8), Fraction(5, 8), Fraction(0), Fraction(0))
        out = scoc_probe(_exact(ex64_model), lam, (0, 1))
        M = [
            [Fraction(0), Fraction(-1), Fraction(0), Fraction(1), Fraction(-1)],
            [Fraction(-1), Fraction(0), Fraction(0), Fraction(0), Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(2), Fraction(-1), Fraction(-1)],
            [Fraction(-1), Fraction(0), Fraction(1), Fraction(0), Fraction(0)],
            [Fraction(1), Fraction(0), Fraction(1), Fraction(0), Fraction(0)],
        ]
        assert cofactor_det(M) == 0
        assert Fraction(out["det_exact"]) == 0

    def test_dependent_rows_rejected(self):
        m = parse_model(
            "dims n=1 d=0\nf = (x1)\nconstraint x1 <= 0\nconstraint 2*x1 <= 0\n"
            "reference x=(0) p=() v=(-1)\n"
        )
        with pytest.raises(InputError, match="dependent"):
            scoc_probe(_exact(m), (Fraction(1), Fraction(0)), (0, 1))


class TestLambdaScanAcrossPolytope:
    def test_all_vertices_visited(self, ex64_model):
        ms = reference_multipliers(ex64_model)
        rep = check_gssosc(_floats(ex64_model), ms)
        assert rep.details["lambda_count"] == len(ms.vertices) == 2

    @pytest.mark.parametrize("seed", range(12))
    def test_vertex_minimum_equals_the_scan(self, seed):
        # Lambda is a polytope, so no multiplier beats the vertices: a
        # point inside a face has a larger strongly active set than each of
        # the face's vertices, and the form is affine in lam
        model = curved_multiplier_model(np.random.default_rng(seed))
        ref = model.reference
        ms = reference_multipliers(model)
        assert ms.dim >= 2
        rep = check_gssosc(_floats(model), ms)
        assert rep.details["lambda_count"] == len(ms.vertices)
        scanned = gssosc_by_scan(eval_bundle(model, ref.x, ref.p), ms.vertices)
        values = [value for _, value in scanned]
        assert math.isfinite(rep.modulus)
        assert abs(min(values) - rep.modulus) <= 1e-12
        assert min(values[len(ms.vertices):]) >= rep.modulus - 1e-12

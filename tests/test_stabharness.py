"""Inequality verification, moduli fitting and the certify pipeline."""

import ast
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fullstab import pairs
from fullstab.defaults import TOL_ACT, TOL_INEQ
from fullstab.errors import InputError
from fullstab.modelspec import eval_bundle_exact, parse_model
from fullstab.monotone import graph_sample_from_model
from fullstab.stabharness import (
    CertifyOptions,
    _frozen_groups,
    _pair_terms,
    certify,
    fit_moduli,
    verify_inequality,
)
from fullstab.visolver import LocalizationTable, build_localization

from conftest import BOUNDARY_TOL_ACT
from oracles import (
    fit_ell_closed_form_rowwise,
    fit_moduli_rowwise,
    pair_terms_rowwise,
    verify_inequality_rowwise,
    worst_pair_margin,
)


def make_table(v, p, x):
    v = np.atleast_2d(np.asarray(v, dtype=float))
    p = np.asarray(p, dtype=float)
    if p.ndim == 1:
        p = p[:, None] if p.size == v.shape[0] else p.reshape(v.shape[0], -1)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return LocalizationTable(
        v_nodes=v,
        p_nodes=p,
        x_values=x,
        residuals=np.zeros(v.shape[0]),
        methods=["synthetic"] * v.shape[0],
    )


def scaled_inverse_table(c, count=40, seed=0):
    """theta(v) = v / c for f(x) = c x, parameter-free."""
    rng = np.random.default_rng(seed)
    V = rng.normal(size=(count, 2))
    return make_table(V, np.zeros((count, 0)), V / c)


def hoelder_table():
    """theta(v, p) = 0.5 v + sqrt(p): square-root parameter response.  The
    regime shows on a geometric ladder of scales toward the singular
    parameter (a uniform grid away from 0 is locally Lipschitz and fits
    slope 1)."""
    vals = np.linspace(-0.02, 0.02, 5)
    ps = [0.0] + [0.1 * 0.25**k for k in range(8)]
    V, P, X = [], [], []
    for v in vals:
        for p in ps:
            V.append([v])
            P.append([p])
            X.append([0.5 * v + math.sqrt(p)])
    return make_table(V, P, X)


class TestVerifyInequality:
    def test_exact_algebra_no_violations(self):
        # theta(v) = v/(2c) with kappa = c: the left side vanishes.
        c = 3.0
        rng = np.random.default_rng(1)
        V = rng.normal(size=(30, 2))
        table = make_table(V, np.zeros((30, 0)), V / (2 * c))
        violations, count = verify_inequality(table, kappa=c, ell=0.0)
        assert count == 0 and violations == []

    def test_skew_violates_for_every_kappa(self):
        rng = np.random.default_rng(2)
        V = rng.normal(size=(25, 2))
        theta = np.column_stack([V[:, 0], -V[:, 1]])
        table = make_table(V, np.zeros((25, 0)), theta)
        for kappa in (0.01, 0.1, 1.0, 10.0):
            violations, count = verify_inequality(table, kappa=kappa, ell=0.0)
            assert count > 0, kappa
            assert violations[0]["margin"] > 0

    def test_rejects_bad_moduli(self):
        table = scaled_inverse_table(1.0, count=5)
        with pytest.raises(InputError):
            verify_inequality(table, kappa=0.0, ell=0.0)
        with pytest.raises(InputError):
            verify_inequality(table, kappa=1.0, ell=-1.0)

    def test_exponent_one_pass_implies_half_on_small_grids(self):
        # d <= 1 on the grid, so d <= sqrt(d) and the same ell works.
        rng = np.random.default_rng(3)
        V = rng.normal(size=(20, 1)) * 0.05
        P = rng.uniform(0, 0.5, size=(20, 1))
        X = 0.5 * V + 0.3 * P
        table = make_table(V, P, X)
        fitted = fit_moduli(table)
        assert fitted.ell_hat is not None
        _, count1 = verify_inequality(
            table, fitted.kappa_used, fitted.ell_hat, exponent=1.0
        )
        assert count1 == 0
        _, count_half = verify_inequality(
            table, fitted.kappa_used, fitted.ell_hat, exponent=0.5
        )
        assert count_half == 0

    def test_refinement_never_clears_violations(self):
        rng = np.random.default_rng(4)
        V = rng.normal(size=(15, 2))
        theta = np.column_stack([V[:, 0], -V[:, 1]])
        coarse = make_table(V, np.zeros((15, 0)), theta)
        _, count_coarse = verify_inequality(coarse, kappa=1.0, ell=0.0)
        assert count_coarse > 0
        V2 = np.vstack([V, rng.normal(size=(10, 2))])
        theta2 = np.column_stack([V2[:, 0], -V2[:, 1]])
        fine = make_table(V2, np.zeros((25, 0)), theta2)
        _, count_fine = verify_inequality(fine, kappa=1.0, ell=0.0)
        assert count_fine >= count_coarse


class TestFitModuli:
    def test_identity_map(self):
        table = scaled_inverse_table(1.0)
        fitted = fit_moduli(table)
        assert fitted.kappa_hat == pytest.approx(1.0, abs=1e-12)
        assert fitted.ell_hat == 0.0
        assert fitted.exponent_hat is None  # parameter-independent

    def test_scaled_map(self):
        table = scaled_inverse_table(4.0)
        fitted = fit_moduli(table)
        assert fitted.kappa_hat == pytest.approx(4.0, abs=1e-12)

    def test_lipschitz_regime_exponent_one(self):
        # theta(v, p) = 0.5 v + p: exactly Lipschitz in p.
        vals = np.linspace(-0.05, 0.05, 5)
        ps = np.linspace(-0.05, 0.05, 7)
        V, P, X = [], [], []
        for v in vals:
            for p in ps:
                V.append([v])
                P.append([p])
                X.append([0.5 * v + p])
        table = make_table(V, P, X)
        fitted = fit_moduli(table)
        assert fitted.exponent_hat == pytest.approx(1.0, abs=0.1)
        assert fitted.exponent_used == 1.0
        assert fitted.kappa_hat == pytest.approx(2.0, abs=1e-9)
        _, count = verify_inequality(
            table, fitted.kappa_used, fitted.ell_hat, fitted.exponent_used
        )
        assert count == 0

    def test_hoelder_regime_exponent_half(self):
        table = hoelder_table()
        fitted = fit_moduli(table)
        assert fitted.exponent_hat is not None
        assert abs(fitted.exponent_hat - 0.5) < 0.25
        assert fitted.exponent_used == 0.5
        assert fitted.ell_hat is not None
        _, count = verify_inequality(
            table, fitted.kappa_used, fitted.ell_hat, exponent=0.5
        )
        assert count == 0

    def test_vacuous_kappa_flagged_not_failed(self):
        # localization constant in v: strong monotonicity is vacuous.
        rng = np.random.default_rng(5)
        V = rng.normal(size=(12, 1))
        P = rng.normal(size=(12, 1))
        X = np.column_stack([P[:, 0]])
        table = make_table(V, P, X)
        fitted = fit_moduli(table)
        assert fitted.kappa_vacuous is True
        assert fitted.kappa_flagged is False
        assert fitted.kappa_used == 1.0


class TestGraphSample:
    def test_unconstrained_direct(self, skew_model):
        s = graph_sample_from_model(skew_model, skew_model.reference, count=50, seed=3)
        assert len(s) >= 40

    def test_constrained_via_solver(self, ex64_model):
        s = graph_sample_from_model(
            ex64_model, ex64_model.reference, eta=0.01, count=20, seed=4
        )
        assert len(s) == 20
        # every sampled u solves the system: localization is the apex map
        assert np.max(np.abs(s.u[:, 2])) < 1e-9


class TestCertify:
    def test_worked_example_full_pipeline(self, ex64_model):
        opts = CertifyOptions(samples=150, grid_v=3, grid_p=3, n_random=5, seed=7)
        rep = certify(ex64_model, opts)
        assert rep.verdict == "fully_stable"
        assert rep.fully_stable is True
        assert rep.cq["mfcq"]["verdict"] == "holds"
        assert rep.cq["licq"]["verdict"] == "fails"
        assert rep.cq["crcq"]["verdict"] == "holds"
        assert rep.gssosc["verdict"] == "fails"
        assert rep.gusosc["verdict"] == "holds"
        assert any(s["zero"] for s in rep.scoc_probe)
        assert rep.violation_count == 0
        assert rep.moduli["kappa"] > 0

    def test_skew_not_fully_stable(self, skew_model):
        rep = certify(skew_model, CertifyOptions(samples=50, grid_v=5))
        assert rep.verdict == "not_fully_stable"
        assert rep.fully_stable is False
        assert rep.smooth_psd["verdict"] == "fails"
        assert rep.smooth_psd["modulus"] == pytest.approx(-1.0, abs=1e-12)
        assert rep.violation_count > 0
        assert rep.moduli["kappa_flagged"] is True

    def test_identity_fully_stable(self, identity_model):
        rep = certify(identity_model, CertifyOptions(samples=50))
        assert rep.verdict == "fully_stable"
        assert rep.moduli["kappa_hat"] == pytest.approx(1.0, abs=1e-10)
        assert rep.moduli["ell"] == 0.0

    def test_pair_terms_computed_once(self, ex64_model, monkeypatch):
        # fit_moduli computes the table's pair terms once, at the fitted
        # kappa, for ell and for the violations it lists there: one
        # computation per certification, and the same moduli and violations
        # as verify_inequality at the fitted moduli, which computes afresh
        from fullstab import stabharness

        calls = []
        pair_indices = stabharness._pair_indices

        def counting(count):
            calls.append(count)
            return pair_indices(count)

        monkeypatch.setattr(stabharness, "_pair_indices", counting)
        opts = CertifyOptions(samples=60, grid_v=3, grid_p=3, n_random=5, seed=7)
        rep = certify(ex64_model, opts)
        assert len(calls) == 1
        table = rep._table

        def fresh():
            return make_table(table.v_nodes, table.p_nodes, table.x_values)

        fitted = fit_moduli(fresh())
        assert rep.moduli == fitted.to_json_dict()
        args = (fitted.kappa_used, fitted.ell_hat, fitted.exponent_used)
        assert verify_inequality(table, *args) == verify_inequality(fresh(), *args)
        assert (rep.violations, rep.violation_count) == verify_inequality(table, *args)
        # another kappa is computed afresh
        assert verify_inequality(table, 0.25, 0.0) == verify_inequality(fresh(), 0.25, 0.0)

    @pytest.mark.parametrize("name, seed", [("ex64", 7), ("circle", 0)])
    def test_moduli_clear_every_table_pair(self, name, seed, ex64_model, circle_model):
        # the fit sees the 200k-pair subsample of ex64's 3145-node table
        # (4.9M pairs); the reported (kappa, ell, exponent) must hold on
        # every pair within TOL_INEQ, as the benchmark checks it.  The band
        # of the closed-form ell leaves ex64 5.8e-10 (an ell nudged up from
        # the largest ratio only until the subsample clears leaves 1.0e-9 +
        # 1.4e-16, over the slack)
        model = {"ex64": ex64_model, "circle": circle_model}[name]
        rep = certify(model, CertifyOptions(seed=seed))
        assert rep.verdict == "fully_stable" and rep.violation_count == 0
        moduli = rep.moduli
        margin = worst_pair_margin(rep._table, moduli["kappa"], moduli["ell"], moduli["exponent"])
        assert margin <= TOL_INEQ

    @pytest.mark.parametrize("name", ["ex64", "circle"])
    def test_reference_evaluated_once(self, name, ex64_model, circle_model, monkeypatch):
        # every pointwise check reads the one bundle certify evaluates at
        # the rational reference, in Fractions, or its float cast: one
        # exact evaluation and no float one at the reference, one
        # enumeration of Lambda at the reference and one MFCQ LP, certify's
        # own, after which Lambda is enumerated without a second one (every
        # LP that kkt solves is an MFCQ LP here: MFCQ holds, so no recession
        # direction is sought).  The face sweep and the projection rows
        # evaluate their own table points (0, p), which on ex64 include the
        # reference's.
        import sys

        import fullstab.kkt as kkt
        import fullstab.modelspec as modelspec

        modules = [mod for key, mod in sys.modules.items() if key.startswith("fullstab.")]
        exact_bundles, enumerated, lps = [], [], []

        def patch(home, name, record, modules=modules):
            original = getattr(home, name)

            def wrapper(*args, **kwargs):
                out = original(*args, **kwargs)
                record(args, out)
                return out

            for mod in modules:
                if getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, wrapper)

        model = {"ex64": ex64_model, "circle": circle_model}[name]
        ref = model.reference
        float_callers = []

        def at_reference(args, out):
            _, x, p = args
            if np.ndim(x) == 1 and [float(c) for c in (*x, *p)] == [
                float(c) for c in (*ref.x, *ref.p)
            ]:
                caller = sys._getframe(2)
                while caller.f_code.co_name.startswith("<"):  # a comprehension
                    caller = caller.f_back
                float_callers.append(caller.f_code.co_name)

        patch(modelspec, "eval_bundle_exact", lambda args, out: exact_bundles.append(out))
        patch(modelspec, "eval_bundle", at_reference)
        patch(kkt, "_multipliers", lambda args, out: enumerated.append(args[0]))
        patch(kkt, "solve_inequality_lp", lambda args, out: lps.append(1), [kkt])
        rep = certify(model, CertifyOptions(samples=50, grid_v=3, grid_p=3, n_random=2))
        assert rep.verdict == "fully_stable"
        assert len(exact_bundles) == 1
        assert set(float_callers) <= {"_face_sweep", "polyhedron_rows"}
        assert sum(bundle is exact_bundles[0] for bundle in enumerated) == 1
        assert len(lps) == 1

    @pytest.mark.parametrize("name", ["ex64", "circle"])
    def test_licq_decided_once(self, name, ex64_model, circle_model, monkeypatch):
        # certify decides LICQ at the reference once and hands its report
        # to the CRCQ probe and the uniform test, which on the circle both
        # take their LICQ paths
        import sys

        import fullstab.kkt as kkt

        calls = []
        original = kkt.check_licq

        def counting(*args):
            calls.append(sys._getframe(1).f_code.co_name)
            return original(*args)

        for key, mod in list(sys.modules.items()):
            if key.startswith("fullstab.") and getattr(mod, "check_licq", None) is original:
                monkeypatch.setattr(mod, "check_licq", counting)
        model = {"ex64": ex64_model, "circle": circle_model}[name]
        rep = certify(model, CertifyOptions(samples=50, grid_v=3, grid_p=3, n_random=2))
        assert calls == ["certify"]
        if name == "circle":
            assert rep.cq["crcq"]["witness"]["licq"] is True
            assert rep.gusosc["details"]["method"] == "licq_limit"

    def test_one_active_set_at_the_reference(self, monkeypatch):
        # phi_1 = -1/10^7 at the reference: in Fractions just outside the
        # double TOL_ACT, in floats equal to it, so active sets taken from
        # the two number types disagree; certify takes one, from the exact
        # bundle, and hands it to every pointwise check
        import fullstab.stabharness as stabharness

        m = parse_model(BOUNDARY_TOL_ACT)
        ref = m.reference
        phi = eval_bundle_exact(m, ref.x, ref.p).phi[0]
        assert abs(phi) > TOL_ACT == abs(float(phi))
        seen = []
        inner = stabharness.check_pvi_pointwise

        def spy(model, v_hat, bundle, I, *args):
            seen.append(I)
            return inner(model, v_hat, bundle, I, *args)

        monkeypatch.setattr(stabharness, "check_pvi_pointwise", spy)
        rep = certify(m, CertifyOptions(samples=20, grid_v=3, grid_p=3, n_random=2))
        assert [block["witness"]["active_set"] for block in rep.cq.values()] == [[], [], []]
        assert rep.multipliers["active_set"] == []
        assert seen == [()]
        assert rep.pvi_pointwise["verdict"] == "holds"

    def test_mfcq_failure_refuses_second_order(self):
        m = parse_model(
            "dims n=1 d=0\nf = (x1)\nconstraint x1 <= 0\nconstraint -x1 <= 0\n"
            "reference x=(0) p=() v=(0)\n"
        )
        rep = certify(m, CertifyOptions(samples=10))
        assert rep.verdict == "undetermined"
        assert rep.gssosc is None and rep.gusosc is None
        assert rep.multipliers.get("unbounded") is True
        assert rep.multipliers["recession"] is not None

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_circle_boundary_fully_stable(self, circle_model, seed):
        # the reference sits on the curved boundary with multiplier 1/2; on
        # the tangent line the Lagrangian Jacobian is (1 + 2 lambda) I = 2 I.
        # LICQ holds, so GUSOSC is that limit, the same at every seed
        rep = certify(circle_model, CertifyOptions(seed=seed))
        details = rep.gusosc["details"]
        assert rep.verdict == "fully_stable"
        assert rep.gusosc["verdict"] == "holds"
        assert details["method"] == "licq_limit"
        assert details["strongly_active"] == [1]
        assert details["samples_accepted"] == details["samples_requested"] == 0
        assert details["all_cones_trivial"] is False
        assert rep.gusosc["modulus"] == pytest.approx(2.0, abs=1e-12)
        assert rep.cq["crcq"]["verdict"] == "holds"

    def test_missing_reference_rejected(self):
        m = parse_model("dims n=1 d=0\nf = (x1)\n")
        with pytest.raises(InputError):
            certify(m)

    def test_report_text_mirrors_json(self, identity_model):
        rep = certify(identity_model, CertifyOptions(samples=20))
        text = rep.to_text()
        data = rep.to_json_dict()
        assert f"verdict: {data['verdict']}" in text
        assert f"model_hash: {data['model_hash']}" in text
        for key in data:
            assert f"{key}:" in text


class TestConsistencyChain:
    # GSSOSC holds => GUSOSC holds => zero violations at the fitted
    # moduli; checked here on a handful of instances and in the acceptance
    # suite on the full 20-model corpus.
    def test_chain_on_small_corpus(self):
        corpus = [
            "dims n=1 d=1\nf = (2*x1 + p1)\nconstraint x1 - 1 <= 0\nreference x=(0) p=(0) v=(0)\n",
            "dims n=2 d=0\nf = (2*x1 + x2, x1 + 2*x2)\nreference x=(0, 0) p=() v=(0, 0)\n",
            "dims n=2 d=1\nf = (3*x1, 2*x2 + p1)\nconstraint -x1 <= 0\nreference x=(0, 0) p=(0) v=(-1, 0)\n",
        ]
        for text in corpus:
            m = parse_model(text)
            rep = certify(m, CertifyOptions(samples=60, grid_v=3, grid_p=3, n_random=3))
            assert rep.gssosc["verdict"] == "holds", text
            assert rep.gusosc["verdict"] == "holds", text
            assert rep.violation_count == 0, text
            assert rep.verdict == "fully_stable", text


class TestGUSOSCReportBlock:
    def test_in_scope_block_independent_of_seed(self, ex64_model):
        # the face enumeration reads no seed, so its report block is the
        # same bytes at every certify seed
        blocks = set()
        for seed in range(4):
            opts = CertifyOptions(samples=60, grid_v=3, grid_p=3, n_random=3, seed=seed)
            rep = certify(ex64_model, opts).to_json_dict()
            blocks.add(json.dumps(rep["gusosc"], sort_keys=True))
        assert len(blocks) == 1
        assert json.loads(blocks.pop())["verdict"] == "holds"


# ---------------------------------------------------------------------------
# the blocked pair kernel against the row-wise fit


def _random_table(n, d, seed):
    """Six v-nodes repeated across five p-nodes (so the fit has p-frozen
    groups and a v-frozen slice), plus six nodes off that grid, two of them
    at p = 0.0 and p = -0.0 (two distinct nodes by their bytes); x is a
    strongly monotone affine localization in v with a smooth perturbation,
    so kappa is positive and ell comes from the moving pairs."""
    rng = np.random.default_rng(seed)
    V, P = rng.normal(size=(6, n)), rng.normal(size=(5, d))
    v = np.vstack([np.repeat(V, 5, axis=0), rng.normal(size=(6, n))])
    extra = rng.normal(size=(6, d))
    extra[0], extra[1] = 0.0, -0.0
    p = np.vstack([np.tile(P, (6, 1)), extra])
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    M = Q @ np.diag(rng.uniform(0.5, 1.5, size=n)) @ Q.T
    x = (v - p @ rng.normal(size=(d, n))) @ M + 0.05 * np.tanh(v @ rng.normal(size=(n, n)))
    return make_table(v, p, x)


def _frozen_table(violating):
    """Every pair p-frozen (one parameter node): x = v / 2, which clears the
    inequality at ell = 0, or a random x, which no ell clears."""
    rng = np.random.default_rng(5)
    v = rng.normal(size=(30, 3))
    x = rng.normal(size=(30, 3)) if violating else v / 2.0
    return make_table(v, np.full(30, 0.5), x)


def _tied_table():
    """x = v: every nondegenerate ratio is exactly 1, so the kappa witness
    is decided by the first-pair tie-break alone."""
    rng = np.random.default_rng(6)
    v = np.repeat(rng.normal(size=(8, 2)), 4, axis=0)
    return make_table(v, np.tile(rng.normal(size=(4, 1)), (8, 1)), v.copy())


def _fresh(table):
    return make_table(table.v_nodes, table.p_nodes, table.x_values)


def _bits(value):
    return json.dumps(value, sort_keys=True)


def assert_fit_matches_rowwise(table, every_check=True):
    """fit_moduli, the pair terms and verify_inequality reproduce the
    row-wise oracles to the bit: the moduli, with ell against its row-wise
    closed form and within the band 1e-9 (1 + ell) of the row-wise
    bisection; the violations the fit lists; verify_inequality at the
    fitted moduli and, with ``every_check``, at ell = 0 and at a kappa of
    its own."""
    blocked = _fresh(table)
    fitted = fit_moduli(blocked)
    moduli, bisected = fitted.to_json_dict(), fit_moduli_rowwise(table).to_json_dict()
    ell, ell_bisected = moduli.pop("ell"), bisected.pop("ell")
    assert _bits(moduli) == _bits(bisected)

    kappa, exponent = fitted.kappa_used, fitted.exponent_used
    assert _bits(ell) == _bits(fit_ell_closed_form_rowwise(table, kappa, exponent))
    if ell:
        assert abs(ell - ell_bisected) <= 1e-9 * (1.0 + ell)
    else:
        assert ell == ell_bisected  # both 0.0 or both None
    walk, *terms = _pair_terms(blocked, kappa)
    ends = [np.concatenate(side) for side in zip(*[(ii, jj) for _, ii, jj in walk.blocks()])]
    expected = pair_terms_rowwise(table, kappa)
    for got, want in zip(ends + terms, expected):
        assert got.tobytes() == want.tobytes()

    checks = [(kappa, ell or 0.0, exponent), (kappa, 0.0, 1.0), (0.25, 0.0, 0.5)]
    listed = (fitted.violations, fitted.violation_count)
    assert _bits(listed) == _bits(verify_inequality_rowwise(table, *checks[0]))
    for args in checks if every_check else checks[:1]:
        got = verify_inequality(blocked, *args)
        assert _bits(got) == _bits(verify_inequality_rowwise(table, *args))


@pytest.fixture(scope="module")
def ex64_table(ex64_model):
    """The ex64 table at certify's defaults: 3145 nodes, so its pairs are
    the PAIR_CAP subsample."""
    table = build_localization(ex64_model, ex64_model.reference)
    assert len(table) * (len(table) - 1) // 2 > 200_000
    return table


TABLES = {
    **{f"n{n}-d{d}": (lambda n=n, d=d: _random_table(n, d, seed=10 * n + d))
       for n in (1, 3, 8, 12) for d in (0, 1, 2)},
    "all-frozen": lambda: _frozen_table(violating=False),
    "all-frozen-violating": lambda: _frozen_table(violating=True),
    "tied": _tied_table,
    "hoelder": hoelder_table,
}


class TestBlockedPairKernel:
    @pytest.mark.parametrize("block", [None, 1, 7])
    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_small_tables_match_rowwise(self, name, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(pairs, "_BLOCK", block)
        assert_fit_matches_rowwise(TABLES[name]())

    @pytest.mark.parametrize("block", [None, 1, 7])
    def test_ex64_table_matches_rowwise(self, ex64_table, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(pairs, "_BLOCK", block)
        # one pair per block is ~10 s a walk here; the other checks run at
        # one pair per block on the small tables
        assert_fit_matches_rowwise(ex64_table, every_check=block != 1)

    def test_cases_reach_every_branch(self):
        fits = {name: fit_moduli(make()) for name, make in TABLES.items()}
        assert fits["all-frozen"].ell_hat == 0.0
        assert fits["all-frozen-violating"].ell_hat is None
        assert fits["tied"].kappa_hat == 1.0
        assert fits["hoelder"].exponent_used == 0.5
        assert fits["n12-d1"].ell_hat is None  # the pair at p = 0.0 and p = -0.0
        assert sum(bool(f.ell_hat) for f in fits.values()) >= 8
        # 0.0 and -0.0 are two parameter nodes: six groups, not five
        groups = _frozen_groups(_random_table(3, 1, 0).p_nodes)
        assert [g.tolist() for g in groups[:2]] == [list(range(0, 30, 5)), list(range(1, 30, 5))]
        assert len(groups) == 11

    def test_ex64_peak_memory(self, ex64_table):
        # the blocks hold no (pairs, n) stack: at most 3/4 of the row-wise
        # fit's traced peak, both measured here on fresh copies of the table
        def peak(run):
            table = _fresh(ex64_table)
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                run(table)
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        def blocked(table):
            fitted = fit_moduli(table)
            verify_inequality(table, fitted.kappa_used, fitted.ell_hat or 0.0, fitted.exponent_used)

        def rowwise(table):
            fitted = fit_moduli_rowwise(table)
            verify_inequality_rowwise(
                table, fitted.kappa_used, fitted.ell_hat or 0.0, fitted.exponent_used
            )

        assert peak(blocked) <= 0.75 * peak(rowwise)


def _called(node):
    """The bare or attribute name a call node calls."""
    return getattr(node.func, "attr", getattr(node.func, "id", None))


class TestOnePairKernel:
    """Every pair walk goes through ``fullstab.pairs``: outside it, no module
    enumerates pairs (``triu_indices``, ``tril_indices``), gathers rows
    (``take``) or subscripts by a block's ends (named ii and jj
    throughout), and each walk of the package builds a ``Pairs``."""

    @staticmethod
    def _sources():
        for path in sorted(Path(pairs.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            scope = {id(node): fn.name for fn in tree.body
                     if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)}
            yield path.name, tree, scope

    def test_no_pair_walk_outside_the_kernel(self):
        found, gathers = [], 0
        for name, tree, _ in self._sources():
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and _called(node) in {"triu_indices", "tril_indices", "take"}:
                    gathers += name == "pairs.py"
                    found.append((name, node.lineno, _called(node)))
                elif isinstance(node, ast.Subscript) and {
                    sub.id for sub in ast.walk(node.slice) if isinstance(sub, ast.Name)
                } & {"ii", "jj"}:
                    found.append((name, node.lineno, "subscript"))
        assert [entry for entry in found if entry[0] != "pairs.py"] == []
        # the guard sees the gathers it keeps in the kernel
        assert gathers >= 2

    def test_every_walk_builds_pairs(self):
        # the kappa groups (through _pair_ratios) and the v-frozen slice
        # of fit_moduli included
        users = sorted(
            (name, scope.get(id(node)))
            for name, tree, scope in self._sources() for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _called(node) == "Pairs"
        )
        assert users == [
            ("monotone.py", "_pair_ratios"),
            ("monotone.py", "estimate_from_inverse"),
            ("stabharness.py", "_pair_terms"),
            ("stabharness.py", "fit_moduli"),
        ]

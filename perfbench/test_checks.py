"""Each independent check must reject a deliberately corrupted output.

Run from the repository root with::

    PYTHONPATH=src python3 -m pytest -q perfbench

The outputs come from real ``certify`` runs on small benchmark models; each
test first shows that the untouched output passes, then corrupts one thing
and expects ``CheckError``.
"""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads
from tracer import Tracer

import fullstab.cli as cli

ROOT = Path(__file__).resolve().parent.parent


def _model(workload, name):
    return next(m for m in workloads.models_for(workload) if m.name == name)


def _certify(tmp_path, model):
    path = tmp_path / f"{model.name}.model"
    path.write_text(model.text(ROOT / "models"))
    report, table = tmp_path / "r.json", tmp_path / "t.csv"
    code = cli.run(["certify", str(path), *model.argv_for(0),
                    "--json", str(report), "--csv-table", str(table)])
    assert code == 0
    return json.loads(report.read_text()), table.read_text()


@pytest.fixture(scope="module")
def simplex(tmp_path_factory):
    """A corpus model with a nonzero multiplier vertex (0, 1/2, 1)."""
    model = _model("corpus", "simplex2-d")
    return (model, *_certify(tmp_path_factory.mktemp("simplex"), model))


@pytest.fixture(scope="module")
def box(tmp_path_factory):
    """A corpus model whose fitted ell is positive."""
    model = _model("corpus", "box2-a")
    return (model, *_certify(tmp_path_factory.mktemp("box"), model))


@pytest.fixture(scope="module")
def skew(tmp_path_factory):
    model = _model("corpus", "skew")
    return (model, *_certify(tmp_path_factory.mktemp("skew"), model))


@pytest.fixture(scope="module")
def identity(tmp_path_factory):
    model = _model("corpus", "identity")
    return (model, *_certify(tmp_path_factory.mktemp("identity"), model))


def test_untouched_outputs_pass(simplex, box, skew, identity):
    for model, report, table in (simplex, box, skew, identity):
        checks.check_certification("corpus", model, report, table)


def test_flipped_verdict_is_rejected(simplex, skew):
    model, report, table = simplex
    bad = dict(report, verdict="not_fully_stable")
    with pytest.raises(checks.CheckError, match="positive definite"):
        checks.check_corpus_model(model, bad, *checks.parse_table(model, table)[::2])
    model, report, _ = skew
    with pytest.raises(checks.CheckError, match="verdict"):
        checks.check_verdict(model, dict(report, verdict="fully_stable"))


def test_vertex_with_one_wrong_entry_is_rejected(simplex):
    model, report, _ = simplex
    assert report["multipliers"]["vertices"] == [["0", "1/2", "1"]]
    checks.check_multipliers(model, report)
    for k, wrong in ((1, "1/3"), (2, "2"), (0, "1/8")):
        bad = copy.deepcopy(report)
        bad["multipliers"]["vertices"][0][k] = wrong
        with pytest.raises(checks.CheckError):
            checks.check_multipliers(model, bad)


def test_vertex_off_the_active_set_is_rejected(box):
    model, report, _ = box
    assert report["multipliers"]["vertices"] == [["1", "0", "0", "0"]]
    bad = copy.deepcopy(report)
    bad["multipliers"]["vertices"][0][3] = "1/2"
    with pytest.raises(checks.CheckError, match="off the active set"):
        checks.check_multipliers(model, bad)


def test_perturbed_table_x_is_rejected(simplex):
    model, _, table = simplex
    V, P, X = checks.parse_table(model, table)
    checks.check_table(model, V, P, X)
    for row in (0, len(X) // 2, len(X) - 1):
        for delta in (1e-3, -1e-3):
            bad = X.copy()
            bad[row, 0] += delta
            with pytest.raises(checks.CheckError, match=f"table row {row}"):
                checks.check_table(model, V, P, bad)


def test_unconstrained_table_checks_f_equals_v(identity):
    model, report, table = identity
    V, P, X = checks.parse_table(model, table)
    bad = X.copy()
    bad[3, 0] += 1e-6
    with pytest.raises(checks.CheckError, match="table row 3"):
        checks.check_table(model, V, P, bad)
    with pytest.raises(checks.CheckError, match="theta"):
        checks.check_corpus_model(model, report, V, bad)


def test_pair_inequality_rejects_a_smaller_ell(box):
    model, report, table = box
    V, P, X = checks.parse_table(model, table)
    checks.check_pair_inequality(model, report, V, P, X)
    assert report["moduli"]["ell"] > 0
    bad = copy.deepcopy(report)
    bad["moduli"]["ell"] *= 0.5
    with pytest.raises(checks.CheckError, match="pair inequality"):
        checks.check_pair_inequality(model, bad, V, P, X)


def test_worst_pair_margin_sees_every_pair():
    rng = np.random.default_rng(1)
    V, P, X = rng.normal(size=(40, 2)), rng.normal(size=(40, 1)), rng.normal(size=(40, 2))
    brute = max(
        np.linalg.norm((V[i] - V[j]) - 2 * 0.7 * (X[i] - X[j]))
        - np.linalg.norm(V[i] - V[j]) - 0.3 * np.linalg.norm(P[i] - P[j])
        for i in range(40) for j in range(i + 1, 40)
    )
    assert checks.worst_pair_margin(V, P, X, 0.7, 0.3, 1.0, block=7) == pytest.approx(brute)


def test_wrong_skew_modulus_is_rejected(skew):
    model, report, table = skew
    V, _, X = checks.parse_table(model, table)
    assert checks.jacobian_sym_min_eig(model) == -1.0
    bad = copy.deepcopy(report)
    bad["smooth_psd"]["modulus"] = -0.5
    with pytest.raises(checks.CheckError, match="modulus"):
        checks.check_corpus_model(model, bad, V, X)


def test_tracer_sees_calls_through_imported_names(tmp_path):
    import fullstab.kkt as kkt
    import fullstab.secondorder as secondorder

    original = kkt.check_mfcq
    tracer = Tracer()
    tracer.install()
    try:
        assert secondorder.check_mfcq is kkt.check_mfcq is not original
        _certify(tmp_path, _model("corpus", "box1-a"))
    finally:
        tracer.uninstall()
    assert secondorder.check_mfcq is kkt.check_mfcq is original
    assert tracer.calls("cli.run") == 1
    assert tracer.calls("stabharness.certify") == 1
    assert tracer.calls("kkt.check_mfcq") > 1
    total = tracer.total_s("cli.run")
    inner = sum(s for key, (_, _, s) in tracer.stats.items())
    assert inner == pytest.approx(total, rel=1e-9)

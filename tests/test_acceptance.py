"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import json
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fullstab import expr as ex
from fullstab.cli import run
from fullstab.modelspec import eval_bundle_exact, parse_model, print_model
from fullstab.monotone import GraphSample, estimate_moduli
from fullstab.polycone import ConeDesc, polyhedron_rows
from fullstab.secondorder import QuadForm, min_on_cone
from fullstab.stabharness import CertifyOptions, certify, verify_inequality
from fullstab.visolver import solve_faces, solve_projected

from oracles import fd_partial, min_quadratic_on_cone_sampling, random_polynomial_expr
from test_monotone import localization_violations

MODELS = Path(__file__).resolve().parent.parent / "models"


def _report(criterion, detail=""):
    print(f"\nACCEPTANCE {criterion}: PASS {detail}")


# ---------------------------------------------------------------------------


def test_criterion_1_worked_example_end_to_end(tmp_path):
    """Full certification of the shipped worked model at default radii."""
    out = tmp_path / "ex64.json"
    t0 = time.time()
    code = run(["certify", str(MODELS / "ex64.model"), "--seed", "7",
                "--json", str(out)])
    elapsed = time.time() - t0
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["fully_stable"] is True
    # MFCQ with the unique witness direction
    assert rep["cq"]["mfcq"]["verdict"] == "holds"
    assert rep["cq"]["mfcq"]["witness"]["direction"] == pytest.approx(
        [0.0, 0.0, 1.0], abs=1e-12
    )
    assert rep["cq"]["licq"]["verdict"] == "fails"
    assert rep["cq"]["crcq"]["verdict"] == "holds"
    # exact multiplier vertices (rational mode)
    assert sorted(rep["multipliers"]["vertices"]) == [
        ["0", "1/4", "3/8", "3/8"],
        ["3/8", "5/8", "0", "0"],
    ]
    # strict-complementarity test fails at the first vertex along e2
    assert rep["gssosc"]["verdict"] == "fails"
    assert rep["gssosc"]["witness"]["lambda"] == pytest.approx(
        [0.375, 0.625, 0.0, 0.0], abs=1e-12
    )
    w = np.array(rep["gssosc"]["witness"]["direction"])
    assert abs(w[1]) == pytest.approx(1.0, abs=1e-9)
    assert abs(w[0]) < 1e-9 and abs(w[2]) < 1e-9
    # bordered 5x5 determinant is zero
    probe = [s for s in rep["scoc_probe"] if s["J"] == [1, 2]]
    assert probe and probe[0]["det_exact"] == "0"
    assert abs(probe[0]["det_scaled"]) < 1e-9
    # uniform test decided on the two pairs of the only reachable face
    # (the 500-sample run at this seed is pinned in test_secondorder)
    assert rep["gusosc"]["verdict"] == "holds"
    assert rep["gusosc"]["details"]["cones_evaluated"] == 2
    assert rep["gusosc"]["vacuous"] or rep["gusosc"]["modulus"] > 0
    # harness: zero violations over the 5^3 x 5^2 grid, positive kappa
    assert rep["localization"]["grid_v"] == 5 and rep["localization"]["grid_p"] == 5
    assert rep["localization"]["single_valued"] is True
    assert rep["violation_count"] == 0
    assert rep["moduli"]["kappa"] > 0
    assert elapsed < 30.0
    _report(1, f"({elapsed:.1f} s)")


def test_criterion_2_skew_counterexample(tmp_path):
    t0 = time.time()
    out = tmp_path / "skew.json"
    code = run(["certify", str(MODELS / "skew.model"), "--json", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["fully_stable"] is False
    assert rep["smooth_psd"]["verdict"] == "fails"
    assert rep["smooth_psd"]["modulus"] == pytest.approx(-1.0, abs=1e-12)
    model = parse_model((MODELS / "skew.model").read_text())
    outs = solve_faces(model, [0.1, -0.05], [])
    assert len(outs) == 1 and outs[0].multiplicity == "unique-in-box"
    assert outs[0].x == pytest.approx([0.1, 0.05], abs=1e-12)
    # violations for every kappa in the sweep (ell = 0, parameter-free)
    rng = np.random.default_rng(0)
    V = rng.normal(size=(40, 2)) * 0.05
    theta = np.column_stack([V[:, 0], -V[:, 1]])
    from fullstab.visolver import LocalizationTable

    table = LocalizationTable(
        v_nodes=V, p_nodes=np.zeros((40, 0)), x_values=theta,
        residuals=np.zeros(40), methods=["analytic"] * 40,
    )
    for kappa in (0.01, 0.1, 1.0, 10.0):
        _, count = verify_inequality(table, kappa=kappa, ell=0.0)
        assert count > 0, kappa
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(2, f"({elapsed:.1f} s)")


def test_criterion_3_cone_minimizer_oracle_equivalence():
    rng = np.random.default_rng(2)
    checked = 0
    sign_checked = 0
    for trial in range(100):
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
        assert abs(val - oracle) <= 1e-4, (trial, val, oracle)
        if abs(val) > 1e-3:
            sign_checked += 1
            assert np.sign(val) == np.sign(oracle), trial
    assert checked == 100
    _report(3, f"({checked} instances, {sign_checked} sign checks)")


def test_criterion_4_symbolic_derivatives_vs_finite_differences():
    rng = np.random.default_rng(42)
    checked = 0
    for trial in range(100):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(0, 3))
        e = random_polynomial_expr(rng, n, d)
        x = rng.uniform(-1, 1, size=n)
        p = rng.uniform(-1, 1, size=d)
        for kind, count in (("x", n), ("p", d)):
            for j in range(count):
                de = ex.differentiate(e, kind, j)
                exact = float(ex.evaluate(de, list(x), list(p)))
                approx = fd_partial(e, kind, j, x, p)
                scale = max(1.0, abs(exact))
                assert abs(exact - approx) <= 1e-6 * scale, (trial, kind, j)
                # second derivatives (Hessian entries) against FD of the
                # symbolic gradient
                for k in range(n):
                    dde = ex.differentiate(de, "x", k)
                    exact2 = float(ex.evaluate(dde, list(x), list(p)))
                    approx2 = fd_partial(de, "x", k, x, p)
                    scale2 = max(1.0, abs(exact2))
                    assert abs(exact2 - approx2) <= 1e-6 * scale2
        checked += 1
    assert checked == 100
    _report(4)


def test_criterion_5_solver_cross_validation():
    rng = np.random.default_rng(100)
    done = 0
    while done < 100:
        n = int(rng.integers(1, 5))
        mrows = int(rng.integers(1, 9))
        B = rng.normal(size=(n, n))
        Jf = B @ B.T + np.eye(n) * rng.uniform(0.5, 1.5)
        A = rng.normal(size=(mrows, n))
        b = rng.uniform(0.3, 1.0, size=mrows)
        model = _affine_model(Jf, A, b)
        v = rng.normal(size=n) * 0.5
        faces = solve_faces(model, v, [], box_center=np.zeros(n), box_radius=50.0)
        assert len(faces) == 1
        proj = solve_projected(model, v, [], np.zeros(n))
        assert proj.converged
        assert np.max(np.abs(proj.x - faces[0].x)) < 1e-7
        _vi_inner_product_test(model, faces[0].x, v, rng)
        done += 1
    _report(5, "(100 instances)")


def _affine_model(Jf, A, b):
    n = Jf.shape[0]

    def lit(value):
        # exact fraction literal; plain decimals only (no scientific form)
        from fractions import Fraction as _F

        f = _F(float(value))
        return f"{f.numerator}/{f.denominator}"

    comps = []
    for i in range(n):
        comps.append(" + ".join(f"({lit(Jf[i, j])})*x{j + 1}" for j in range(n)))
    lines = [f"dims n={n} d=0", "f = (" + ", ".join(comps) + ")"]
    for i in range(A.shape[0]):
        terms = " + ".join(f"({lit(A[i, j])})*x{j + 1}" for j in range(n))
        lines.append(f"constraint {terms} - ({lit(b[i])}) <= 0")
    return parse_model("\n".join(lines) + "\n")


def _vi_inner_product_test(model, x_star, v, rng, count=1000):
    A, b = polyhedron_rows(model, [])
    n = model.n
    f_star = np.array([float(c) for c in eval_bundle_exact(model, x_star, []).f])
    g = v - f_star
    dirs = rng.normal(size=(count, n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    Ad = dirs @ A.T
    with np.errstate(divide="ignore"):
        steps = np.where(Ad > 1e-12, b[None, :] / np.maximum(Ad, 1e-12), np.inf)
    t_max = np.minimum(np.min(steps, axis=1), 10.0)
    U = dirs * (t_max * rng.uniform(0, 1, size=count))[:, None]
    feasible = np.all(U @ A.T <= b[None, :] + 1e-10, axis=1)
    U = U[feasible]
    assert U.shape[0] > count // 2
    inner = (U - x_star[None, :]) @ g
    assert np.max(inner) <= 1e-8


def test_criterion_6_monotonicity_estimators():
    rng = np.random.default_rng(3)
    for trial in range(100):
        n = int(rng.integers(2, 5))
        H = rng.normal(size=(n, n))
        target = float(np.linalg.eigvalsh(0.5 * (H + H.T))[0])
        pts = [rng.normal(size=n) for _ in range(max(30, n * (n + 1) // 2))]
        _, vecs = np.linalg.eigh(0.5 * (H + H.T))
        pts.append(np.zeros(n))
        pts.extend(vecs.T)  # eigen-directions pin the extremal pair ratio
        U = np.array(pts)
        est = estimate_moduli(GraphSample(u=U, v=U @ H.T))
        assert abs(est.kappa_hat - target) <= 1e-9, trial
    # localization-inequality consistency: no violations at kappa implies
    # the inverse-graph modulus estimate reaches kappa
    for trial in range(30):
        n = int(rng.integers(2, 4))
        B = rng.normal(size=(n, n))
        Amat = B @ B.T + np.eye(n) * rng.uniform(0.3, 1.0)
        V = rng.normal(size=(30, n))
        theta = np.linalg.solve(Amat, V.T).T
        kappa = 0.9 * float(np.linalg.eigvalsh(0.5 * (Amat + Amat.T))[0])
        if kappa <= 0 or localization_violations(V, theta, kappa)[1]:
            continue
        est = estimate_moduli(GraphSample(u=theta, v=V))
        assert est.kappa_hat >= kappa - 1e-9
    _report(6, "(100 linear maps)")


# ---------------------------------------------------------------------------
# criterion 7: 20-model corpus chain


def _with_reference(body: str, x_ref, p_ref, lam):
    """Attach a consistent reference: v = f(x, p) + sum lam_i grad phi_i."""
    model = parse_model(body)
    bundle = eval_bundle_exact(model, list(x_ref), list(p_ref))
    v = list(bundle.f)
    for i, li in enumerate(lam):
        if li:
            for j in range(model.n):
                v[j] += Fraction(li) * bundle.grad_phi[i][j]
    def fmt(vals):
        return ", ".join(
            f"{c.numerator}/{c.denominator}" if isinstance(c, Fraction) and c.denominator != 1
            else str(c.numerator if isinstance(c, Fraction) else c)
            for c in vals
        )
    text = body.rstrip("\n") + (
        f"\nreference x=({fmt(x_ref)}) p=({fmt(p_ref)}) v=({fmt(v)})\n"
    )
    return parse_model(text)


def _corpus():
    F = Fraction
    models = []
    # --- box instances (7)
    box2 = (
        "dims n=2 d=1\nf = (2*x1 + x2 + p1, x1 + 2*x2)\n"
        "constraint x1 - 1 - p1 <= 0\nconstraint -x1 - 1 <= 0\n"
        "constraint x2 - 1 <= 0\nconstraint -x2 - 1 <= 0\n"
    )
    models.append(_with_reference(box2, [F(1), F(0)], [F(0)], [F(1), 0, 0, 0]))
    models.append(_with_reference(box2, [F(0), F(0)], [F(0)], [0, 0, 0, 0]))
    models.append(_with_reference(box2, [F(1), F(1)], [F(0)], [F(1), 0, F(2), 0]))
    box1 = (
        "dims n=1 d=1\nf = (3*x1 + p1)\n"
        "constraint x1 - 1 <= 0\nconstraint -x1 - p1 - 1 <= 0\n"
    )
    models.append(_with_reference(box1, [F(1)], [F(0)], [F(2), 0]))
    models.append(_with_reference(box1, [F(-1)], [F(0)], [0, F(1)]))
    box3 = (
        "dims n=3 d=1\nf = (2*x1, 3*x2 + p1, x3 + x1)\n"
        "constraint x1 - 1 <= 0\nconstraint x2 - 1 <= 0\nconstraint x3 - 1 <= 0\n"
        "constraint -x1 <= 0\nconstraint -x2 <= 0\nconstraint -x3 <= 0\n"
    )
    models.append(_with_reference(box3, [F(0), F(0), F(0)], [F(0)], [0, 0, 0, F(1), F(1), F(1)]))
    models.append(_with_reference(box3, [F(1), F(0), F(1)], [F(0)], [F(1), 0, 0, 0, F(3), 0]))
    # --- simplex instances (7)
    simplex2 = (
        "dims n=2 d=1\nf = (2*x1 - x2 + p1, -x1 + 2*x2)\n"
        "constraint -x1 <= 0\nconstraint -x2 <= 0\nconstraint x1 + x2 - 1 <= 0\n"
    )
    models.append(_with_reference(simplex2, [F(0), F(0)], [F(0)], [F(1), F(1), 0]))
    models.append(_with_reference(simplex2, [F(1, 2), F(1, 2)], [F(0)], [0, 0, F(1)]))
    models.append(_with_reference(simplex2, [F(1, 4), F(1, 4)], [F(0)], [0, 0, 0]))
    models.append(_with_reference(simplex2, [F(1), F(0)], [F(0)], [0, F(1, 2), F(1)]))
    simplex3 = (
        "dims n=3 d=2\nf = (3*x1 + p1, 3*x2 + p2, 3*x3 + x1)\n"
        "constraint -x1 <= 0\nconstraint -x2 <= 0\nconstraint -x3 <= 0\n"
        "constraint x1 + x2 + x3 - 1 <= 0\n"
    )
    models.append(_with_reference(simplex3, [F(0), F(0), F(0)], [F(0), F(0)], [F(1), F(1), F(1), 0]))
    models.append(_with_reference(simplex3, [F(0), F(0), F(1, 2)], [F(0), F(0)], [F(2), F(1), 0, 0]))
    models.append(_with_reference(simplex3, [F(1, 3), F(1, 3), F(1, 3)], [F(0), F(0)], [0, 0, 0, F(1)]))
    # --- worked-example-style shifted cones (6)
    cone_base = (
        "dims n=3 d=2\npotential = x3 + (1/4 + p2)*x1 + p1*x2 + x3^2 {extra}\n"
        "constraint x1 - x3 - p1 <= 0\nconstraint -x1 - x3 + p1 <= 0\n"
        "constraint x2 - x3 - p2 <= 0\nconstraint -x2 - x3 + p2 <= 0\n"
    )
    for extra in ("- x1*x2", "+ x1^2 + x2^2", "+ x1^2/2 + x2^2/2 - x1*x2/4"):
        models.append(
            _with_reference(
                cone_base.format(extra=extra),
                [F(0), F(0), F(0)], [F(0), F(0)],
                [F(3, 8), F(5, 8), 0, 0],
            )
        )
    cone_v2 = (
        "dims n=3 d=1\npotential = x3 + x1/2 + x3^2 + x1^2 + x2^2 + p1*x1\n"
        "constraint x1 - x3 - p1 <= 0\nconstraint -x1 - x3 + p1 <= 0\n"
        "constraint x2 - x3 <= 0\nconstraint -x2 - x3 <= 0\n"
    )
    models.append(_with_reference(cone_v2, [F(0)] * 3, [F(0)], [F(1, 4), F(3, 4), 0, 0]))
    models.append(_with_reference(cone_v2, [F(0)] * 3, [F(0)], [0, F(1, 2), F(1, 4), F(1, 4)]))
    models.append(_with_reference(cone_v2, [F(0)] * 3, [F(0)], [F(1, 8), F(5, 8), F(1, 8), F(1, 8)]))
    assert len(models) == 20
    return models


def test_criterion_7_consistency_chain_on_corpus(tmp_path):
    opts = CertifyOptions(samples=80, grid_v=3, grid_p=3, n_random=4, seed=5)
    chain_checked = 0
    gssosc_held = 0
    for idx, model in enumerate(_corpus()):
        path = tmp_path / f"corpus_{idx}.model"
        path.write_text(print_model(model))
        code = run([
            "certify", str(path), "--samples", "80", "--grid-v", "3",
            "--grid-p", "3", "--seed", "5", "--json",
            str(tmp_path / f"corpus_{idx}.json"),
        ])
        assert code != 2, f"corpus model {idx}: inconsistency exit"
        assert code == 0, f"corpus model {idx}: exit {code}"
        rep = json.loads((tmp_path / f"corpus_{idx}.json").read_text())
        chain_checked += 1
        if rep["gssosc"] and rep["gssosc"]["verdict"] == "holds":
            gssosc_held += 1
            assert rep["gusosc"]["verdict"] == "holds", f"corpus {idx}"
            assert rep["violation_count"] == 0, f"corpus {idx}"
            assert rep["verdict"] == "fully_stable", f"corpus {idx}"
    assert chain_checked == 20
    assert gssosc_held >= 12  # the corpus is dominated by stable instances
    _report(7, f"({chain_checked} models, {gssosc_held} with GSSOSC)")


def test_criterion_8_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["certify", str(MODELS / "ex64.model"), "--seed", "3",
            "--samples", "60", "--grid-v", "3", "--grid-p", "3"]
    assert run(argv + ["--json", str(a)]) == 0
    assert run(argv + ["--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    _report(8)

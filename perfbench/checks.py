"""Independent checks of certify's outputs.

Every check recomputes what it needs from the benchmark's own formulas in
``workloads.py``, with numpy and ``fractions`` only; none calls fullstab,
and none compares against a stored copy of an earlier output.  A failed
check raises ``CheckError``: a wrong output fails the whole run.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

# Feasibility and active-constraint tolerance on table rows (the program's
# documented active-set tolerance).
TOL_ACT = 1e-7
# Stationarity residual allowed on a table row, relative to 1 + |v - f|.
TOL_STAT = 1e-8
# Slack of the full-stability pair inequality (the program's TOL_INEQ).
TOL_INEQ = 1e-9


class CheckError(AssertionError):
    """A certify output failed an independent check."""


def _fail(model, message):
    raise CheckError(f"{model.name}: {message}")


# ---------------------------------------------------------------------------
# verdicts and multipliers


def check_verdict(model, report):
    verdict = report["verdict"]
    if verdict == "inconsistent":
        _fail(model, "verdict is 'inconsistent'")
    if model.expect is not None and verdict != model.expect:
        _fail(model, f"verdict {verdict!r}, expected {model.expect!r}")


def exact_active_set(model):
    x = [Fraction(c) for c in model.x_ref]
    p = [Fraction(c) for c in model.p_ref]
    return [i for i, phi in enumerate(model.phi) if Fraction(phi(x, p)) == 0]


def check_multipliers(model, report):
    """Each vertex solves v - f(x, p) = sum lam_i grad phi_i(x, p) exactly,
    with lam >= 0 and lam_i = 0 off the active set."""
    mult = report["multipliers"]
    if model.m == 0:
        return
    x = [Fraction(c) for c in model.x_ref]
    p = [Fraction(c) for c in model.p_ref]
    active = exact_active_set(model)
    if [i - 1 for i in mult["active_set"]] != active:
        _fail(model, f"active set {mult['active_set']} != {[i + 1 for i in active]}")
    rhs = [vj - Fraction(fj) for vj, fj in zip(model.v_ref(), model.f(x, p))]
    grads = [[Fraction(g) for g in grad(x, p)] for grad in model.grad_phi]
    if not mult["vertices"]:
        _fail(model, "no multiplier vertex reported")
    for vertex in mult["vertices"]:
        lam = [Fraction(c) for c in vertex]
        if len(lam) != model.m or any(c < 0 for c in lam):
            _fail(model, f"vertex {vertex} is not a nonnegative {model.m}-vector")
        if any(c != 0 for i, c in enumerate(lam) if i not in active):
            _fail(model, f"vertex {vertex} is nonzero off the active set")
        combo = [sum(lam[i] * grads[i][j] for i in range(model.m)) for j in range(model.n)]
        if combo != rhs:
            _fail(model, f"vertex {vertex}: sum lam_i grad phi_i = {combo} != {rhs}")


def jacobian_sym_min_eig(model) -> float:
    """Smallest eigenvalue of the symmetric part of the x-Jacobian of f at
    the reference, from exact unit differences (exact for affine f)."""
    x = [Fraction(c) for c in model.x_ref]
    p = [Fraction(c) for c in model.p_ref]
    f0 = model.f(x, p)
    J = np.zeros((model.n, model.n))
    for j in range(model.n):
        xj = list(x)
        xj[j] += 1
        J[:, j] = [float(Fraction(a) - Fraction(b)) for a, b in zip(model.f(xj, p), f0)]
    return float(np.linalg.eigvalsh(0.5 * (J + J.T))[0])


# ---------------------------------------------------------------------------
# localization table


def parse_table(model, csv_text):
    """(V, P, X) float arrays from the localization CSV."""
    lines = csv_text.strip().splitlines()
    n, d = model.n, model.d
    header = (
        [f"v{i + 1}" for i in range(n)] + [f"p{i + 1}" for i in range(d)]
        + [f"x{i + 1}" for i in range(n)] + ["residual", "method"]
    )
    if lines[0].split(",") != header:
        _fail(model, f"unexpected table header {lines[0]!r}")
    rows = np.array([[float(c) for c in line.split(",")[: 2 * n + d]] for line in lines[1:]])
    if rows.shape[0] == 0:
        _fail(model, "empty localization table")
    return rows[:, :n], rows[:, n:n + d], rows[:, n + d:]


def _rows(value, N):
    return np.broadcast_to(np.asarray(value, dtype=float), (N,))


def _columns(fn, X, P):
    """Evaluate a vector formula on all rows; returns an (N, len) array."""
    N = X.shape[0]
    return np.stack([_rows(c, N) for c in fn(tuple(X.T), tuple(P.T))], axis=1)


def check_table(model, V, P, X):
    """Every row: x is feasible and v - f(x, p) lies in the normal cone at x.

    The normal-cone test is a nonnegative least-squares problem over the
    near-active constraints, solved by enumerating supports: the optimum is
    attained on a support of linearly independent gradients, where it is
    the least-squares solution on that support.
    """
    N = X.shape[0]
    R = V - _columns(model.f, X, P)
    scale = 1.0 + np.linalg.norm(R, axis=1)
    best = np.linalg.norm(R, axis=1)
    if model.m:
        PHI = np.stack([_rows(phi(tuple(X.T), tuple(P.T)), N) for phi in model.phi], axis=1)
        worst = int(np.argmax(PHI.max(axis=1)))
        if PHI[worst].max() > TOL_ACT:
            _fail(model, f"table row {worst}: x = {X[worst]} violates a constraint")
        G = np.stack([_columns(g, X, P) for g in model.grad_phi], axis=1)
        near = PHI >= -TOL_ACT
        for r in range(1, min(model.m, model.n) + 1):
            for S in itertools.combinations(range(model.m), r):
                S = list(S)
                rows = np.flatnonzero(near[:, S].all(axis=1))
                if rows.size == 0:
                    continue
                GS = G[rows][:, S, :]  # (k, r, n)
                lam = np.einsum("krn,kn->kr", np.linalg.pinv(np.swapaxes(GS, 1, 2)), R[rows])
                ok = lam.min(axis=1) >= -1e-12
                resid = np.linalg.norm(np.einsum("kr,krn->kn", lam, GS) - R[rows], axis=1)
                best[rows[ok]] = np.minimum(best[rows[ok]], resid[ok])
    bad = best > TOL_STAT * scale
    if np.any(bad):
        k = int(np.flatnonzero(bad)[0])
        _fail(
            model,
            f"table row {k}: v - f(x, p) is not in the normal cone at x = {X[k]} "
            f"(distance {best[k]:.3e})",
        )


def worst_pair_margin(V, P, X, kappa, ell, exponent, block=256) -> float:
    """max over all pairs i < j of
    |(v_i - v_j) - 2 kappa (x_i - x_j)| - |v_i - v_j| - ell |p_i - p_j|^exponent."""
    N = V.shape[0]
    worst = -np.inf
    for lo in range(0, N - 1, block):
        hi = min(N, lo + block)
        dv = V[lo:hi, None, :] - V[None, :, :]
        dx = X[lo:hi, None, :] - X[None, :, :]
        dp = np.linalg.norm(P[lo:hi, None, :] - P[None, :, :], axis=2)
        margin = (
            np.linalg.norm(dv - 2.0 * kappa * dx, axis=2)
            - np.linalg.norm(dv, axis=2)
            - ell * dp**exponent
        )
        upper = np.arange(lo, hi)[:, None] < np.arange(N)[None, :]
        worst = max(worst, float(np.max(np.where(upper, margin, -np.inf))))
    return worst


def check_pair_inequality(model, report, V, P, X):
    """The pair inequality at the reported (kappa, ell, exponent) holds on
    every pair of the table, not only on the pairs the program sampled."""
    moduli = report["moduli"]
    if report["violation_count"] or moduli is None or moduli["ell"] is None:
        return
    margin = worst_pair_margin(V, P, X, moduli["kappa"], moduli["ell"], moduli["exponent"])
    if margin > TOL_INEQ:
        _fail(model, f"pair inequality violated by {margin:.3e} at the reported moduli")


# ---------------------------------------------------------------------------
# all checks for one certification


def check_certification(workload, model, report, csv_text):
    check_verdict(model, report)
    check_multipliers(model, report)
    V, P, X = parse_table(model, csv_text)
    check_table(model, V, P, X)
    check_pair_inequality(model, report, V, P, X)
    if workload == "corpus":
        check_corpus_model(model, report, V, X)


def check_corpus_model(model, report, V, X):
    """Every corpus model has affine f.  A positive definite symmetric
    Jacobian part makes f strongly monotone on a convex set, hence fully
    stable; skew's smallest eigenvalue is its reported modulus; the
    identity's localization is theta(v) = v."""
    min_eig = jacobian_sym_min_eig(model)
    if min_eig > 0 and report["verdict"] != "fully_stable":
        _fail(model, f"symmetric Jacobian part is positive definite ({min_eig}) "
                     f"but the verdict is {report['verdict']!r}")
    if model.m == 0:
        modulus = report["smooth_psd"]["modulus"]
        if abs(modulus - min_eig) > 1e-12:
            _fail(model, f"smooth_psd modulus {modulus} != smallest eigenvalue {min_eig}")
    if model.name == "identity" and not np.allclose(X, V, rtol=0, atol=1e-12):
        _fail(model, "identity map: theta(v) != v")

"""Second-order stability tests.

All quadratic-form minimization is exact at desk scale: on a subspace it
is a projected eigenvalue problem, on a polyhedral cone it enumerates
faces (2^rows) and collects the feasible eigenvector candidates of each
face-projected symmetric part, which contains every KKT point of the
sphere-constrained problem and hence the global minimizer.

The uniform neighborhood condition (GUSOSC) is decided exactly, as
'holds'/'fails', when every constraint is affine in (x, p) and jac_f is
constant: it is then a minimum over finitely many (reachable face,
multiplier-vertex support) pairs, each face settled by one exact LP.  On
every other model it is sampled on the solution-map graph and reported
as 'corroborated'/'fails', never 'proved'.  The pointwise tests (strict
complementarity subspaces, critical-cone spans, smooth positive
definiteness, the bordered-determinant probe) are decided directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .defaults import (
    ETA,
    SAMPLES,
    SEED,
    TOL_ACT,
    TOL_CONE,
    TOL_CQ,
    TOL_PD,
)
from .errors import (
    DegenerateSampleError,
    EvaluationError,
    InfeasibleSetError,
    InputError,
    SolveFailureError,
)
from .expr import differentiate, evaluate, expr_is_zero
from .kkt import (
    MultiplierSet,
    _jsonify,
    _multipliers,
    check_mfcq,
    strict_complement,
)
from .modelspec import EvalBundle, ParametricModel, ReferenceTriple, eval_bundle
from .polycone import (
    ConeDesc,
    SubspaceBasis,
    active_mask,
    critical_cone,
    null_space,
    project_onto_rows,
    rank,
    row_norms,
    span_difference,
    subsets,
    tangent_cone,
)
from .simplex import gauss_jordan, solve_inequality_lp

__all__ = [
    "QuadForm",
    "SecondOrderReport",
    "min_on_subspace",
    "min_on_cone",
    "check_gssosc",
    "check_gusosc",
    "gusosc_by_sampling",
    "check_pvi_pointwise",
    "check_smooth_psd",
    "scoc_probe",
]


@dataclass(frozen=True)
class QuadForm:
    """Quadratic form w -> <H w, w>; values always go through the symmetric
    part, which represents the same form.  H may also be a (k, n, n) stack
    of forms (see :func:`min_on_cone`)."""

    H: np.ndarray

    @property
    def sym(self) -> np.ndarray:
        return 0.5 * (self.H + np.swapaxes(self.H, -1, -2))


@dataclass
class SecondOrderReport:
    condition: str
    verdict: str  # 'holds' | 'fails' | 'corroborated' | 'vacuous'
    modulus: Optional[float]
    witness: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.verdict in ("holds", "corroborated", "vacuous")

    def to_json_dict(self):
        vacuous = self.modulus is not None and not math.isfinite(self.modulus)
        return {
            "condition": self.condition,
            "verdict": self.verdict,
            "modulus": None if vacuous else self.modulus,
            "vacuous": vacuous,
            "witness": _jsonify(self.witness),
            "details": _jsonify(self.details),
        }


# ---------------------------------------------------------------------------
# core minimizers


def min_on_subspace(Q: QuadForm, V: SubspaceBasis):
    """Minimum of <H w, w> over unit vectors in span(V); +inf sentinel for
    the 0-dimensional subspace (vacuous positivity).  Returns (value, w)."""
    if V.dim == 0:
        return math.inf, None
    M = V.V.T @ Q.sym @ V.V
    vals, vecs = np.linalg.eigh(0.5 * (M + M.T))
    w = V.V @ vecs[:, 0]
    return float(vals[0]), w / np.linalg.norm(w)


def min_on_cone(Q: QuadForm, K: ConeDesc):
    """Exact minimum of <H w, w> over K intersected with the unit sphere,
    by face enumeration; +inf if K = {0}.  Returns (value, argmin).

    For a (k, n, n) stack of forms over the one cone K the faces are
    enumerated once, with one stacked eigensolve per face, and (values,
    argmins) come back as a (k,) array and a list: entry j is what the call
    on the j-th form alone returns, to the bit."""
    Hs = Q.sym
    forms = Hs.reshape(-1, K.n, K.n)
    best = [math.inf] * len(forms)
    best_w = [None] * len(forms)
    for subset in subsets(range(K.G.shape[0]), "inequality rows"):
        rows = np.vstack([K.E, K.G[list(subset)]])
        V = null_space(rows, K.n)
        if V.shape[1] == 0:
            continue
        M = V.T @ forms @ V
        vals, vecs = np.linalg.eigh(0.5 * (M + np.swapaxes(M, -1, -2)))
        for j in range(len(forms)):
            for idx in range(vals.shape[1]):
                if vals[j, idx] >= best[j]:
                    break
                w = V @ vecs[j, :, idx]
                norm = np.linalg.norm(w)
                if norm < 1e-12:
                    continue
                w = w / norm
                for cand in (w, -w):
                    if K.contains(cand, TOL_CONE):
                        best[j] = float(vals[j, idx])
                        best_w[j] = cand
                        break
    if Hs.ndim == 2:
        return best[0], best_w[0]
    return np.array(best), best_w


# ---------------------------------------------------------------------------
# pointwise strict-complementarity test over the whole multiplier set


def check_gssosc(
    bundle: EvalBundle, ms: MultiplierSet, tol_pd: float = TOL_PD
) -> SecondOrderReport:
    """Strong second-order sufficient test at the point of the float
    ``bundle``: for every multiplier in ``ms``, positive definiteness of
    the Lagrangian Jacobian on the null space of the strongly active
    constraint gradients.

    Lambda is a polytope here (``multiplier_polytope`` refuses an unbounded
    one), so the minimum over its vertices is exact: a multiplier in the
    relative interior of a face is a positive combination of the face's
    vertices, its strongly active set contains each of theirs (so its null
    space lies in each of theirs), and the Lagrangian Jacobian is affine in
    lam.
    """
    n = len(bundle.f)
    worst = math.inf
    witness = {}
    for lam in ms.vertices:
        i_plus = strict_complement(lam, ms.active)
        rows = bundle.grad_phi[list(i_plus)] if i_plus else np.zeros((0, n))
        V = SubspaceBasis(V=null_space(rows, n))
        H = QuadForm(bundle.lagrangian_jacobian(lam))
        val, w = min_on_subspace(H, V)
        if val < worst:
            worst = val
            witness = {
                "lambda": [float(c) for c in lam],
                "strongly_active": [i + 1 for i in i_plus],
                "direction": None if w is None else [float(c) for c in w],
                "value": None if not math.isfinite(val) else val,
            }
    verdict = "holds" if worst > tol_pd else "fails"
    details = {"lambda_count": len(ms.vertices), "multiplier_dim": ms.dim}
    return SecondOrderReport("GSSOSC", verdict, worst, witness, details)


# ---------------------------------------------------------------------------
# sampled uniform neighborhood test


def _ball(rng, dim: int, radius: float) -> np.ndarray:
    if dim == 0:
        return np.zeros(0)
    raw = rng.normal(size=dim)
    norm = np.linalg.norm(raw)
    if norm == 0:
        return np.zeros(dim)
    return raw / norm * radius * rng.uniform() ** (1.0 / dim)


def mixed_sign_cone(grad_rows: np.ndarray, active, strongly_active, n: int) -> ConeDesc:
    """{u : <g_i, u> = 0 (strongly active), <g_i, u> >= 0 (weakly active)}."""
    i_plus = list(strongly_active)
    weak = [i for i in active if i not in strongly_active]
    E = grad_rows[i_plus] if i_plus else None
    G = -grad_rows[weak] if weak else None
    return ConeDesc(n, E=E, G=G)


def check_gusosc(
    model: ParametricModel,
    ref: ReferenceTriple,
    ms: MultiplierSet,
    eta: float = ETA,
    samples: int = SAMPLES,
    seed: int = SEED,
    tol_pd: float = TOL_PD,
    tol_act: float = TOL_ACT,
) -> SecondOrderReport:
    """Uniform second-order test around ``ref`` with multiplier set ``ms``
    (from :func:`kkt.multiplier_polytope`, so MFCQ holds): decided exactly
    by face enumeration when every constraint is affine in (x, p) and jac_f
    is constant in (x, p), otherwise corroborated by
    :func:`gusosc_by_sampling` (the only path that reads ``eta``,
    ``samples``, ``seed`` and ``tol_act``)."""
    if _polyhedral(model):
        return _gusosc_by_faces(model, ref, ms, tol_pd)
    return gusosc_by_sampling(model, ref, ms, eta, samples, seed, tol_pd, tol_act)


def _polyhedral(model: ParametricModel) -> bool:
    """Every phi_i affine in (x, p) and jac_f constant in (x, p), decided on
    the symbolic derivatives."""
    n, d = model.n, model.d
    if not (model.f_affine and all(model.affine_xp)):
        return False
    second_p = [
        differentiate(differentiate(phi, "p", k), "p", l)
        for phi in model.constraints for k in range(d) for l in range(d)
    ]
    jac_p = [differentiate(e, "p", l) for row in model.f_jac for e in row for l in range(d)]
    return all(expr_is_zero(e, n, d) for e in second_p + jac_p)


def _gusosc_by_faces(
    model: ParametricModel,
    ref: ReferenceTriple,
    ms: MultiplierSet,
    tol_pd: float = TOL_PD,
) -> SecondOrderReport:
    """Uniform second-order test decided exactly on polyhedral data (see
    :func:`_polyhedral`).

    With constraints phi = G x + B p + c and a constant jac_f, the
    multipliers of graph points near the reference have supports that
    contain the support J of some vertex of Lambda(x, p, v), and every
    active set I near x is reachable from x by a small move in (x, p).
    The uniform value is therefore the minimum of jac_f over
    ``mixed_sign_cone(G, I, J)`` across the pairs of a reachable face
    I of I(x) and a vertex support J inside it (the critical faces of
    Dontchev & Rockafellar, SIAM J. Optim. 6, 1996).  Face I is reachable
    iff the LP max t over (w, dp, t) in the unit box subject to G_I w +
    B_I dp = 0 and G_r w + B_r dp + t <= 0 for r in I(x) outside I has
    t* > 0; it is solved exactly on rational data.
    """
    bundle, active, exact = ms.bundle, ms.active, ms.exact
    cast = Fraction if exact else float
    B = np.array(
        [[cast(evaluate(differentiate(model.constraints[i], "p", l), ref.x, ref.p))
          for l in range(model.d)] for i in active],
        dtype=bundle.phi.dtype,
    ).reshape(len(active), model.d)
    rows = np.hstack([bundle.grad_phi[list(active)], B])  # [G_i | B_i], i in active
    supports = {}  # vertex support J -> first vertex with it
    for vert in ms.vertices:
        supports.setdefault(strict_complement(vert, active), vert)
    H = QuadForm(bundle.jac_f.astype(float))

    ell = math.inf
    witness = {}
    pairs = []
    lps = 0
    for I in subsets(active, "active constraints"):
        inside = [J for J in supports if set(J) <= set(I)]
        if not inside:
            continue
        if I != active:
            lps += 1
            face = [k for k, i in enumerate(active) if i in I]
            rest = [k for k, i in enumerate(active) if i not in I]
            if not _face_reachable(rows[face], rows[rest], exact):
                continue
        for J in inside:
            cone = mixed_sign_cone(ms.grad_matrix, I, J, model.n)
            val, w = min_on_cone(H, cone)
            pair = {
                "active_set": [i + 1 for i in I],
                "strongly_active": [j + 1 for j in J],
                "value": None if not math.isfinite(val) else val,
            }
            pairs.append(pair)
            if val < ell:
                ell = val
                witness = {
                    **pair,
                    "lambda": [float(c) for c in supports[J]],
                    "direction": [float(c) for c in w],
                }
    verdict = "holds" if ell > tol_pd else "fails"
    details = {
        "samples_accepted": 0,
        "samples_requested": 0,
        "attempts": 0,
        "cones_evaluated": len(pairs),
        "reachability_lps": lps,
        "pairs": pairs,
        "all_cones_trivial": not math.isfinite(ell),
        "exact": exact,
    }
    return SecondOrderReport("GUSOSC", verdict, ell, witness, details)


def _face_reachable(face_rows, rest_rows, exact: bool) -> bool:
    """Whether some z in the unit box has face_rows . z = 0 and rest_rows . z
    < 0, for rows [G_i | B_i] over z = (w, dp)."""
    rows = np.vstack([face_rows, rest_rows])
    if len(rows) < rows.shape[1]:
        # the signs depend only on the part of z in the row space, so with
        # fewer rows than unknowns search z = rows^T y: fewer LP columns
        gram = rows @ rows.T
        face_rows, rest_rows = gram[: len(face_rows)], gram[len(face_rows):]
    zero, one = (Fraction(0), Fraction(1)) if exact else (0.0, 1.0)
    k = rest_rows.shape[1]
    res = solve_inequality_lp(
        [zero] * k + [one],
        np.column_stack([rest_rows, [one] * len(rest_rows)]),
        [zero] * len(rest_rows),
        [-one] * k + [zero],
        [one] * (k + 1),
        maximize=True,
        A_eq=np.column_stack([face_rows, [zero] * len(face_rows)]),
        b_eq=[zero] * len(face_rows),
    )
    if res.status != "optimal":  # pragma: no cover - always feasible (z=0, t=0)
        raise RuntimeError(f"reachability LP unexpectedly {res.status}")
    t_star = res.x[k]
    return t_star > 0 if exact else float(t_star) > TOL_CQ


# at most this many attempts are judged as one chunk by gusosc_by_sampling,
# which bounds the memory a chunk holds
_CHUNK_ROWS = 256
# linearized projections per draw in gusosc_by_sampling
_MAX_STEPS = 8


def gusosc_by_sampling(
    model: ParametricModel,
    ref: ReferenceTriple,
    ms: MultiplierSet,
    eta: float = ETA,
    samples: int = SAMPLES,
    seed: int = SEED,
    tol_pd: float = TOL_PD,
    tol_act: float = TOL_ACT,
) -> SecondOrderReport:
    """Uniform second-order test, corroborated by sampling graph points of
    the Lagrangian representation near the reference (any model; the path
    :func:`check_gusosc` takes off the polyhedral scope).

    Every attempt draws the same variates in the same order, whatever
    becomes of it: a p and an x offset in the eta/4 ball (``_ball``), the
    index of a base multiplier among the vertices of ``ms`` (at ``ref``)
    and m uniforms in [-1, 1] for the multiplier noise.  The draw is
    projected onto the constraints linearized at the current point until it
    is feasible (at most _MAX_STEPS times), and kept when x and v = f +
    grad phi^T lam lie within eta of the reference and MFCQ holds; at each
    kept sample and each multiplier vertex there, the Lagrangian Jacobian
    form is minimized over the cone mixing strongly active equalities with
    weakly active inequalities, and the reported lower bound is the minimum
    over everything sampled.

    Attempts are drawn and judged in chunks of arrays, sized from the
    acceptance rate so far: one eval_bundle call per projection step per
    chunk, and one stacked :func:`min_on_cone` call for the chunk's samples
    with no active constraint.  Attempts are judged in order up to the one
    at which ``samples`` are accepted, so the report does not depend on the
    chunk sizes, and an evaluation error is raised only at an attempt the
    one-at-a-time loop would have reached."""
    vertex_pool = ms.vertices_float()
    x0, p0, v0 = ref.as_arrays()
    n, d, m = model.n, model.d, model.m
    rng = np.random.default_rng(seed)
    max_attempts = 80 * samples
    draw_radius = eta / 4.0
    noise_scale = eta / (8.0 * max(1, m))

    def draw(count):
        X, P, U = np.empty((count, n)), np.empty((count, d)), np.empty((count, m))
        pick = np.empty(count, dtype=int)
        for i in range(count):
            P[i] = p0 + _ball(rng, d, draw_radius)
            X[i] = x0 + _ball(rng, n, draw_radius)
            pick[i] = rng.integers(len(vertex_pool))
            U[i] = rng.uniform(-1.0, 1.0, size=m)
        return X, P, pick, U

    def judge(X, P, pick, U, need):
        """The attempts (X, P, pick, U) of a chunk judged in order up to the
        one at which ``need`` are accepted.  Returns (attempts used, MFCQ
        failures, active sets of the accepted attempts, cones evaluated,
        least cone value, its witness), the witness being the first
        attempt and vertex with that value."""
        X, (f, jac, phi, grad, hess) = _retract(model, X, P, tol_act)
        feasible, act = active_mask(phi, tol_act)
        lam = np.where(act, np.maximum(0.0, vertex_pool[pick] + noise_scale * U), 0.0)
        V = f + np.matmul(lam[:, None, :], grad)[:, 0, :]
        near = feasible & (row_norms(X - x0) <= eta) & (row_norms(V - v0) <= eta)

        def bundle(k):
            return EvalBundle(f[k], jac[k], phi[k], grad[k], hess[k])

        used, failures, kept = len(X), 0, []
        for k in np.flatnonzero(near):
            active = tuple(int(i) for i in np.flatnonzero(act[k]))
            # LICQ implies MFCQ, so the LP runs only on dependent gradients
            dependent = rank(grad[k][list(active)]) < len(active)
            if dependent and not check_mfcq(bundle(k), active).ok:
                failures += 1
                continue
            kept.append((k, active))
            if len(kept) == need:
                used = k + 1
                break
        # a sample with no active constraint has the cone R^n and the one
        # multiplier vertex 0, where the Lagrangian Jacobian is jac_f
        inner = [k for k, active in kept if not active]
        if inner:
            values, argmins = min_on_cone(QuadForm(jac[inner]), ConeDesc(n))
            interior = dict(zip(inner, zip(values.tolist(), argmins)))
        cones, best, witness = 0, math.inf, {}
        for k, active in kept:
            minima = [(*interior[k], np.zeros(m))] if not active else []
            if active:
                at = bundle(k)
                for vert in _multipliers(at, active, V[k]).vertices:
                    cone = mixed_sign_cone(grad[k], active, strict_complement(vert, active), n)
                    H = QuadForm(at.lagrangian_jacobian(vert))
                    minima.append((*min_on_cone(H, cone), vert))
            for val, w, vert in minima:
                cones += 1
                if val < best:
                    best = val
                    witness = {
                        "x": [float(c) for c in X[k]],
                        "p": [float(c) for c in P[k]],
                        "v": [float(c) for c in V[k]],
                        "lambda": [float(c) for c in vert],
                        "direction": None if w is None else [float(c) for c in w],
                        "value": None if not math.isfinite(val) else val,
                    }
        return used, failures, [active for _, active in kept], cones, best, witness

    def settle(X, P, pick, U, need):
        """The :func:`judge` results that cover a chunk: one, or on an
        evaluation error those of its halves in order, the second only
        while fewer than ``need`` are accepted, so that the error surfaces
        only at an attempt the one-at-a-time loop reaches."""
        try:
            return [judge(X, P, pick, U, need)]
        except (EvaluationError, ArithmeticError):
            if len(X) == 1:
                raise
            h = len(X) // 2
            judged = settle(X[:h], P[:h], pick[:h], U[:h], need)
            got = sum(len(actives) for _, _, actives, *_ in judged)
            if got < need:
                judged += settle(X[h:], P[h:], pick[h:], U[h:], need - got)
            return judged

    attempts = accepted = mfcq_failures = cones_evaluated = 0
    ell_hat, witness = math.inf, {}
    faces = {}  # active set -> accepted samples, in the order first seen
    while accepted < samples and attempts < max_attempts:
        rate = (accepted + 1) / (attempts + 1)
        need = samples - accepted
        size = min(_CHUNK_ROWS, max_attempts - attempts, math.ceil(1.1 * need / rate))
        for used, failures, actives, cones, best, at_best in settle(*draw(size), need):
            attempts += used
            accepted += len(actives)
            mfcq_failures += failures
            cones_evaluated += cones
            for active in actives:
                faces[active] = faces.get(active, 0) + 1
            if best < ell_hat:
                ell_hat, witness = best, at_best
    if accepted == 0:
        raise DegenerateSampleError(
            "no feasible graph samples found near the reference "
            f"(attempts={attempts}); geometry may be degenerate"
        )
    verdict = "corroborated" if ell_hat > tol_pd else "fails"
    details = {
        "eta": eta,
        "samples_accepted": accepted,
        "samples_requested": samples,
        "attempts": attempts,
        "mfcq_failures": mfcq_failures,
        "cones_evaluated": cones_evaluated,
        "all_cones_trivial": not math.isfinite(ell_hat),
        "faces": [
            {"active_set": [i + 1 for i in active], "samples": count}
            for active, count in faces.items()
        ],
    }
    return SecondOrderReport("GUSOSC", verdict, ell_hat, witness, details)


def _retract(model, X, P, tol_act):
    """Evaluate the draws (X, P) by one eval_bundle call, then project
    every infeasible row onto the constraints linearized there, {y : phi +
    grad phi (y - x) <= 0}, and re-evaluate the moved rows by one call,
    at most _MAX_STEPS times.  Returns the moved X and f, jac_f, phi,
    grad_phi and hess_phi as C-contiguous stacks (each row laid out as a
    one-point evaluation lays it out); a row whose projection failed reads
    phi = +inf."""
    X = X.copy()
    tables = [np.ascontiguousarray(a) for a in eval_bundle(model, X, P).arrays()]
    phi, grad = tables[2], tables[3]
    failed = np.zeros(len(X), dtype=bool)
    for _ in range(_MAX_STEPS):
        feasible = active_mask(phi, tol_act)[0]
        moving = np.flatnonzero(~feasible & ~failed)
        if not moving.size:
            break
        for k in moving:
            try:
                X[k] = project_onto_rows(grad[k], grad[k] @ X[k] - phi[k], X[k])
            except (InfeasibleSetError, SolveFailureError):
                failed[k] = True
        moved = moving[~failed[moving]]
        if moved.size:
            for table, rows in zip(tables, eval_bundle(model, X[moved], P[moved]).arrays()):
                table[moved] = rows
    phi[failed] = math.inf
    return X, tables


# ---------------------------------------------------------------------------
# pointwise tests for parameter-independent polyhedral constraint sets


def check_pvi_pointwise(
    model: ParametricModel,
    v_hat: np.ndarray,
    bundle: EvalBundle,
    I,
    tol_pd: float = TOL_PD,
) -> SecondOrderReport:
    """Pointwise spans test for parameter-independent affine constraints,
    at the reference whose float bundle is ``bundle``, with active set I,
    and whose v - f is ``v_hat`` (:meth:`ReferenceTriple.v_hat`):
    minimizes the base-map Jacobian form on (a) the span of the tangent
    cone intersected with the normal complement and (b) the span of the
    critical cone.  The combined verdict is (b), the polyhedral
    characterization; (a) is the closure-type sufficient condition and is
    reported alongside."""
    if not (all(model.affine_x) and all(model.param_free)):
        raise InputError(
            "pointwise spans test needs parameter-independent affine "
            "constraints; use the sampled uniform test instead"
        )
    T = tangent_cone(bundle, I)
    K = critical_cone(T, v_hat)
    span_T = span_difference(T)
    V_a = _intersect_with_orthogonal(span_T, v_hat)
    V_b = span_difference(K)
    Q = QuadForm(bundle.jac_f)
    mod_a, w_a = min_on_subspace(Q, V_a)
    mod_b, w_b = min_on_subspace(Q, V_b)
    holds_b = mod_b > tol_pd
    verdict = "holds" if holds_b else "fails"
    if not math.isfinite(mod_b) and holds_b:
        verdict = "vacuous"
    witness = {}
    if not holds_b and w_b is not None:
        witness = {"direction": [float(c) for c in w_b], "value": mod_b}
    details = {
        "closure_modulus": None if not math.isfinite(mod_a) else mod_a,
        "closure_holds": mod_a > tol_pd,
        "closure_dim": V_a.dim,
        "critical_span_modulus": None if not math.isfinite(mod_b) else mod_b,
        "critical_span_dim": V_b.dim,
        "closure_direction": None if w_a is None else [float(c) for c in w_a],
        # weak-lower-semicontinuity side conditions on the quadratic form
        # are automatic in finite dimensions
        "form_regularity": "automatic in finite dimensions",
    }
    return SecondOrderReport("PVI-pointwise", verdict, mod_b, witness, details)


def _intersect_with_orthogonal(span: SubspaceBasis, v: np.ndarray) -> SubspaceBasis:
    if span.dim == 0:
        return span
    c = span.V.T @ v
    if np.linalg.norm(c) <= 1e-12 * (1 + np.linalg.norm(v)):
        return span
    inner = null_space(c[None, :], span.dim)
    return SubspaceBasis(V=span.V @ inner)


def check_smooth_psd(
    model: ParametricModel,
    v_hat: np.ndarray,
    bundle: EvalBundle,
    tol_pd: float = TOL_PD,
) -> SecondOrderReport:
    """Unconstrained case: local strong monotonicity of f around the
    reference, whose float bundle is ``bundle`` and whose v - f is
    ``v_hat``, is decided by positive definiteness of the symmetric part of
    the Jacobian."""
    if model.m != 0:
        raise InputError("smooth positive-definiteness test needs m = 0")
    if np.linalg.norm(v_hat) > TOL_CONE * (1 + np.linalg.norm(v_hat)):
        raise InputError("reference not on the graph: v != f(x, p) with m = 0")
    Q = QuadForm(bundle.jac_f)
    vals, vecs = np.linalg.eigh(Q.sym)
    modulus = float(vals[0])
    verdict = "holds" if modulus > tol_pd else "fails"
    witness = {}
    if verdict == "fails":
        witness = {"direction": [float(c) for c in vecs[:, 0]], "value": modulus}
    return SecondOrderReport("SMOOTH-PSD", verdict, modulus, witness, {})


# ---------------------------------------------------------------------------
# bordered-determinant probe

# |det| of the row-scaled bordered matrix below which it counts as zero
_DET_ZERO = 1e-9


def scoc_probe(bundle: EvalBundle, lam: Sequence, J: Sequence[int]):
    """Determinant of the bordered matrix [[jac_L, G_J^T], [-G_J, 0]] at
    the point of ``bundle``, for a basis subset J of independent active
    gradients at an extreme multiplier.  A zero determinant (|det| <
    _DET_ZERO after row-norm scaling) flags a coherent-orientation
    violation.

    Returns a dict with the raw determinant (exact on a Fraction bundle),
    the row-scaled determinant and the zero flag.
    """
    J = tuple(J)
    exact = bundle.exact
    G = bundle.grad_phi[list(J)]
    if J and (len(gauss_jordan(G)[1]) if exact else rank(G)) < len(J):
        raise InputError("dependent basis rows in the bordered matrix")
    zeros = np.zeros((len(J), len(J)), dtype=G.dtype)
    M = np.block([[bundle.lagrangian_jacobian(lam), G.T], [-G, zeros]])
    M_float = M.astype(float)
    det = gauss_jordan(M)[2] if exact else float(np.linalg.det(M_float))
    norms = np.linalg.norm(M_float, axis=1)
    norms[norms == 0] = 1.0
    scaled_det = float(np.linalg.det(M_float / norms[:, None]))
    is_zero = (exact and det == 0) or abs(scaled_det) < _DET_ZERO
    return {
        "J": [i + 1 for i in J],
        "lambda": [float(c) for c in lam],
        "det": float(det),
        "det_exact": str(det) if exact else None,
        "det_scaled": scaled_det,
        "zero": bool(is_zero),
        "exact": exact,
    }

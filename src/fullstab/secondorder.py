"""Second-order stability tests.

All quadratic-form minimization is exact at desk scale: on a subspace it
is a projected eigenvalue problem, on a polyhedral cone it enumerates
faces (2^rows) and collects the feasible eigenvector candidates of each
face-projected symmetric part, which contains every KKT point of the
sphere-constrained problem and hence the global minimizer.

The uniform neighborhood condition (GUSOSC) is decided at the reference,
as 'holds'/'fails', and nothing is sampled.  When every constraint is
affine in (x, p) and jac_f is constant it is a minimum over finitely many
(reachable face, multiplier-vertex support) pairs, each face settled by
one exact LP.  Where LICQ holds at the reference it is the pointwise
strong second-order value, its limit as the neighborhood shrinks.
Elsewhere under MFCQ + CRCQ it is the minimum over the same pairs with the
Lagrangian Jacobian of each support's vertex.  Where CRCQ fails it is
'not_run', since it no longer characterizes full stability.  The
pointwise tests (strict complementarity subspaces, critical-cone spans,
smooth positive definiteness, the bordered-determinant probe) are decided
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .defaults import TOL_CONE, TOL_CQ, TOL_PD
from .errors import InputError
from .expr import evaluate
# check_mfcq is unused here; the benchmark's tracer test patches it through this module
from .kkt import CQReport, MultiplierSet, _jsonify, check_mfcq, strict_complement  # noqa: F401
from .modelspec import EvalBundle, ParametricModel, ReferenceTriple
from .polycone import (
    ConeDesc,
    SubspaceBasis,
    critical_cone,
    null_space,
    rank,
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
    verdict: str  # 'holds' | 'fails' | 'vacuous' | 'not_run'
    modulus: Optional[float]
    witness: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.verdict in ("holds", "vacuous")

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

    Lambda is a polytope here (it is enumerated only once MFCQ holds), so
    the minimum over its vertices is exact: a multiplier in the relative
    interior of a face is a positive combination of the face's vertices,
    its strongly active set contains each of theirs (so its null space lies
    in each of theirs), and the Lagrangian Jacobian is affine in lam.
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
# uniform neighborhood test


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
    tol_pd: float = TOL_PD,
    *,
    licq: CQReport,
    crcq: CQReport,
) -> SecondOrderReport:
    """Uniform second-order test around ``ref`` with multiplier set ``ms``
    (enumerated once MFCQ holds), by the first of four paths that applies
    (``licq`` and ``crcq`` are :func:`kkt.check_licq` and
    :func:`kkt.probe_crcq` at the bundle and active set of ``ms``,
    which the caller decides once):

    1. every constraint affine in (x, p) and jac_f constant in (x, p):
       decided exactly by face enumeration (:func:`_gusosc_by_faces`);
    2. LICQ at the reference: decided exactly as the limit of the uniform
       value, which is the pointwise strong second-order value
       (:func:`_gusosc_licq_limit`);
    3. CRCQ fails: not run (verdict 'not_run', modulus None), since the
       test no longer characterizes full stability there;
    4. otherwise (MFCQ + CRCQ without LICQ): the face enumeration of 1,
       with the Lagrangian Jacobian of each support's vertex at the
       reference as the form.

    The uniform value at radius eta is the infimum, over the graph points
    (x, p, v, lam) within eta of the reference, of the minimum of the
    Lagrangian Jacobian form over ``mixed_sign_cone(grad phi(x, p), I(x),
    I_+(lam))``; each path gives its limit as eta -> 0.

    Why the limit is the pointwise value under LICQ.  Under LICQ,
    Lambda(xbar, pbar, vbar) is a single lambar, LICQ persists near
    (xbar, pbar), and the multipliers of nearby graph points are unique and
    tend to lambar.  So their strongly active sets contain I_+ = I_+(lambar),
    each mixed cone lies in null(grad phi_{I_+}(x, p)), and the value at
    each point is at least the minimum of the form over that subspace.
    That subspace tends to K = null(grad phi_{I_+}(xbar, pbar)), because the
    rows of I_+ keep full rank, and the form tends to that of lambar; this
    is the bound.  The bound is attained: for each p near pbar, LICQ lets x
    sit on {phi_{I_+}(., p) = 0} with every other constraint strictly
    inactive, and v = f + grad phi^T lam with lam > 0 on I_+ is a graph
    point whose mixed cone is exactly the subspace.  Hence, as eta -> 0, the
    uniform value tends to the minimum of the Lagrangian Jacobian form of
    lambar over K, which is what :func:`check_gssosc` computes: when it is
    positive the condition holds at every small eta, when it is negative
    it fails at every eta (a zero reads 'fails', as on the other paths).
    This is the "full stability iff SSOSC under LICQ" of Mordukhovich,
    Nghia & Rockafellar, Math. Oper. Res. 40 (2015), carried over to the
    variational system v in f(x, p) + d_x g(x, p).

    Why path 4 gives the limit under MFCQ + CRCQ.  Vertices: the form is
    affine in lam and a larger strongly active set gives a smaller cone,
    so at each graph point the vertices of its multiplier polytope attain
    the minimum (as in :func:`check_gssosc`).  Supports: a vertex of a
    nearby Lambda(x, p, v) has a support J with grad phi_J(x, p) linearly
    independent; under CRCQ every subfamily keeps its rank near the
    reference (Janin, Math. Programming Study 21, 1984), so grad
    phi_J(xbar, pbar) is independent too, and the vertex, the unique
    solution on J, tends to the solution at the reference: a vertex of
    Lambda(xbar, pbar, vbar) with support J' in J, whose form is the limit
    of the nearby forms (a support determines its vertex).  Cones: a limit
    of unit vectors of the nearby cones lies in ``mixed_sign_cone(grad
    phi(xbar, pbar), I(x), J)``, inside the cone of (I(x), J').  So the
    minimum over the pairs of a face I of I(xbar) that nearby graph points
    have and a vertex support inside it bounds the limit from below.  The
    bound is attained: on such a face Lu (Math. Program. 126, 2011) makes
    the feasible set a smooth image of a polyhedral one, so the cones of
    its points tend to the reference's (they are a fixed polyhedral cone
    pulled back by d phi_K, K a basis of the face's gradients), and v = f
    + grad phi_J^T lam_J with J's vertex lam_J gives graph points with
    that pair.  Reachability: on active constraints affine in (x, p) the
    LP of :func:`_gusosc_by_faces` decides it.  So it does under CRCQ on
    curved active constraints free of p.  When t* > 0, phi_I keeps its
    rank, and the constant-rank theorem lifts the LP direction onto {phi_I
    = 0}.  When t* = 0, Motzkin's transposition theorem gives mu >= 0 on
    the other active constraints, nonzero on S, and some nu with sum mu_r
    grad phi_r + sum nu_i grad phi_i = 0 at xbar (r in S, i in I).  Each
    active phi is locally a function of phi_Khat, Khat a basis of I(xbar)
    containing one K of I (Janin), and on {phi_K = 0} the map from the
    other coordinates phi_Khat to phi_S keeps its rank (CRCQ on K and S),
    so its image is a manifold tangent at 0 to a space orthogonal to mu.
    There mu . y = o(|y|), while y < 0 on S forces mu . y <= -c |y|: no
    point near xbar has phi_I = 0 and phi_S < 0.  With moves in p the
    partial CRCQ in x checked here does not give this: with phi_1 = x1 +
    p1^2 and phi_2 = x1 (n = d = 1) the face {1} is reached at x1 = -p1^2,
    p1 != 0, while its LP needs w = 0 and w < 0.  So when an active
    constraint is curved and moves with p, the faces the LP rejects stay in
    the minimum (``details['lp_rejected_kept']``): 'holds' is sound, and
    'fails' is exact only when the minimum is attained on I(xbar), where
    the reference itself is the graph point (``details
    ['minimum_attained']``).  The premise, named in ``details['premise']``,
    is decided at the reference: CRCQ by the exact rank test of
    :func:`kkt.probe_crcq`."""
    if model.polyhedral:
        return _gusosc_by_faces(model, ref, ms, tol_pd)
    if licq.ok:
        return _gusosc_licq_limit(ms.bundle.floats(), ms, tol_pd)
    if not crcq.ok:
        details = {
            "method": "not_run",
            "reason": "CRCQ fails at the reference: the uniform test no longer "
            "characterizes full stability",
            "samples_accepted": 0,
            "samples_requested": 0,
            "attempts": 0,
            "cones_evaluated": 0,
        }
        return SecondOrderReport("GUSOSC", "not_run", None, {}, details)
    return _gusosc_by_faces(model, ref, ms, tol_pd, crcq)


def _gusosc_licq_limit(bundle: EvalBundle, ms: MultiplierSet, tol_pd: float) -> SecondOrderReport:
    """Uniform second-order test under LICQ at the point of the float
    ``bundle``, decided as its limit, the strong second-order value of
    :func:`check_gssosc` (see :func:`check_gusosc`).  The sample counters
    read 0, as on the face path."""
    limit = check_gssosc(bundle, ms, tol_pd)
    details = {
        "method": "licq_limit",
        "strongly_active": [i + 1 for i in strict_complement(ms.vertices[0], ms.active)],
        "samples_accepted": 0,
        "samples_requested": 0,
        "attempts": 0,
        "cones_evaluated": len(ms.vertices),
        "all_cones_trivial": not math.isfinite(limit.modulus),
    }
    return SecondOrderReport("GUSOSC", limit.verdict, limit.modulus, limit.witness, details)


def _gusosc_by_faces(
    model: ParametricModel,
    ref: ReferenceTriple,
    ms: MultiplierSet,
    tol_pd: float = TOL_PD,
    crcq: Optional[CQReport] = None,
) -> SecondOrderReport:
    """Uniform second-order test decided by face enumeration at the
    reference: exactly on polyhedral data (``model.polyhedral``), and
    under MFCQ + CRCQ (``crcq``, the report it rests on, given) as the
    bound that :func:`check_gusosc` derives.

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
    t* > 0; it is solved exactly on rational data.  Off that scope G and B
    are taken at the reference, the form of pair (I, J) is the Lagrangian
    Jacobian of J's vertex there (jac_f itself on polyhedral data), and
    when an active constraint is curved and moves with p a face the LP
    rejects stays in the minimum.
    """
    bundle, active, exact = ms.bundle, ms.active, ms.exact
    cast = Fraction if exact else float
    B = np.array(
        [[cast(evaluate(e, ref.x, ref.p)) for e in model.phi_p[i]] for i in active],
        dtype=bundle.phi.dtype,
    ).reshape(len(active), model.d)
    rows = np.hstack([bundle.grad_phi[list(active)], B])  # [G_i | B_i], i in active
    supports = {}  # vertex support J -> first vertex with it
    for vert in ms.vertices:
        supports.setdefault(strict_complement(vert, active), vert)
    forms = {
        J: QuadForm(bundle.lagrangian_jacobian(vert).astype(float))
        for J, vert in supports.items()
    }
    # the LP decides when each active constraint is free of p or affine in
    # (x, p) (see check_gusosc), as on polyhedral data
    lp_decides = crcq is None or all(
        model.param_free[i] or model.jointly_affine[i] for i in active
    )

    ell = at_reference = math.inf
    witness = {}
    pairs, kept = [], []
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
                if lp_decides:
                    continue
                kept.append([i + 1 for i in I])
        for J in inside:
            cone = mixed_sign_cone(ms.grad_matrix, I, J, model.n)
            val, w = min_on_cone(forms[J], cone)
            pair = {
                "active_set": [i + 1 for i in I],
                "strongly_active": [j + 1 for j in J],
                "value": None if not math.isfinite(val) else val,
            }
            pairs.append(pair)
            if I == active:
                at_reference = min(at_reference, val)
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
    if crcq is not None:
        details.update({
            "method": "faces",
            "premise": "MFCQ holds; CRCQ holds",
            "reachability": "decided by the LP: each active constraint affine in "
            "(x, p) or free of p" if lp_decides else "faces the LP rejects kept: "
            "'holds' is sound, 'fails' is exact only where minimum_attained",
            "lp_rejected_kept": kept,
            "minimum_attained": lp_decides or at_reference <= ell,
        })
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
            "constraints; use the uniform test instead"
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

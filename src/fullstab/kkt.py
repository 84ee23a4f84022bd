"""Constraint qualifications and the Lagrange multiplier polytope.

MFCQ is decided by a small LP (exact rational pivoting whenever the point
and model data are rational, so a zero margin is never a floating-point
artifact); LICQ, which only the report reads, by a singular-value rank
check; CRCQ by comparing each active subfamily's rank at the reference
with its generic rank, read exactly at deterministic rational points,
except for jointly affine data, where gradients are constant.  Nothing is
sampled.

The multiplier set Lambda(x, p, v) = {lam >= 0 : sum lam_i grad phi_i =
v - f(x, p), lam_i = 0 off the active set} is enumerated vertex by vertex
over independent column subsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .defaults import TOL_CONE, TOL_CQ
from .errors import NoMultiplierError, UnboundedMultiplierError
from .expr import at_probe_points, evaluate
from .modelspec import EvalBundle, ParametricModel
from .polycone import rank, subsets
from .simplex import gauss_jordan, solve_inequality_lp

__all__ = [
    "CQReport",
    "MultiplierSet",
    "check_mfcq",
    "check_licq",
    "probe_crcq",
    "multiplier_polytope",
    "strict_complement",
]


@dataclass
class CQReport:
    cq: str  # 'MFCQ' | 'LICQ' | 'CRCQ'
    verdict: str  # 'holds' | 'fails'
    witness: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.verdict == "holds"

    def to_json_dict(self):
        return {"cq": self.cq, "verdict": self.verdict, "witness": _jsonify(self.witness)}


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return obj if np.isfinite(obj) else None
    return obj


# ---------------------------------------------------------------------------
# MFCQ


def check_mfcq(bundle: EvalBundle, I) -> CQReport:
    """Partial MFCQ in x at the point of ``bundle``, whose active set is I:
    exists d with <grad phi_i, d> < 0 for i in I.  Decided by maximizing
    the margin t over the sup-norm ball, exactly on a Fraction bundle."""
    if not I:
        # +inf sentinel: the condition is vacuous with no active gradients
        return CQReport(
            "MFCQ", "holds", {"active_set": [], "t_star": float("inf"), "vacuous": True}
        )
    exact = bundle.exact
    grads = bundle.grad_phi[list(I)]
    n = len(bundle.f)
    zero, one = (Fraction(0), Fraction(1)) if exact else (0.0, 1.0)
    t_upper = max(sum(abs(g) for g in row) for row in grads) + one
    # variables (d, t): maximize t s.t. g_i . d + t <= 0, |d| <= 1, 0 <= t
    A_ub = [list(row) + [one] for row in grads]
    b_ub = [zero] * len(grads)
    c = [zero] * n + [one]
    lower = [-one] * n + [zero]
    upper = [one] * n + [t_upper]
    res = solve_inequality_lp(c, A_ub, b_ub, lower, upper, maximize=True)
    if res.status != "optimal":  # pragma: no cover - always feasible (d=0,t=0)
        raise RuntimeError(f"MFCQ LP unexpectedly {res.status}")
    t_star = res.x[n]
    d = res.x[:n]
    holds = (t_star > 0) if exact else (float(t_star) > TOL_CQ)
    witness = {
        "active_set": [i + 1 for i in I],
        "t_star": float(t_star),
        "direction": [float(v) for v in d],
        "exact": exact,
    }
    return CQReport("MFCQ", "holds" if holds else "fails", witness)


# ---------------------------------------------------------------------------
# LICQ


def check_licq(bundle: EvalBundle, I) -> CQReport:
    """LICQ at the point of the float ``bundle``, whose active set is I: the
    active gradients have full row rank."""
    if not I:
        return CQReport("LICQ", "holds", {"active_set": [], "rank": 0, "vacuous": True})
    Gact = bundle.grad_phi[list(I)]
    r = rank(Gact)
    witness = {
        "active_set": [i + 1 for i in I],
        "rank": r,
        "count": len(I),
        "singular_values": [float(v) for v in np.linalg.svd(Gact, compute_uv=False)],
    }
    return CQReport("LICQ", "holds" if r == len(I) else "fails", witness)


# ---------------------------------------------------------------------------
# CRCQ probe


def probe_crcq(model: ParametricModel, bundle: EvalBundle, I) -> CQReport:
    """Partial CRCQ in x at the reference, whose bundle (exact on rational
    data) is ``bundle`` with active set I: every active-gradient subfamily
    S keeps its rank nearby.

    It holds on jointly affine constraints (constant gradients).
    Otherwise: the entries of grad_x phi_S are rational in (x, p), rank is
    lower semicontinuous, and a minor not identically zero vanishes on no
    open set, so S keeps its rank iff its rank at the reference equals its
    generic rank.  That is read exactly at the points of
    :func:`expr.at_probe_points`, with the Schwartz-Zippel caveat of
    :func:`expr.expr_is_zero`; a family of full rank cannot rise, so the
    points are evaluated only at the first family below full rank (never
    under LICQ).  'fails' names the first S (in :func:`polycone.subsets`
    order) whose rank rises, with a point of its generic rank (not near
    the reference), or says that no point evaluates, so nothing is
    certified.
    """
    if not I:
        return CQReport("CRCQ", "holds", {"active_set": [], "vacuous": True})
    active = [i + 1 for i in I]
    if all(model.affine_xp[i] for i in I):
        return CQReport("CRCQ", "holds", {"active_set": active, "affine": True})
    families = subsets(I, "active constraints")
    next(families)  # the empty family has rank 0 everywhere
    points = None
    for subset in families:
        rows = bundle.grad_phi[list(subset)]
        base_rank = len(gauss_jordan(rows)[1]) if bundle.exact else rank(rows)
        if base_rank == min(len(subset), model.n):
            continue  # full rank cannot rise
        if points is None:
            points = list(at_probe_points(
                lambda x, p: (x, p, {i: [evaluate(g, x, p) for g in model.grad_phi[i]] for i in I}),
                model.n, model.d,
            ))
            if not points:
                reason = "the active gradients evaluate at no probe point"
                return CQReport("CRCQ", "fails", {"active_set": active, "reason": reason})
        ranks = [len(gauss_jordan([grads[i] for i in subset])[1]) for *_, grads in points]
        if max(ranks) > base_rank:
            x, p, _ = points[ranks.index(max(ranks))]
            return CQReport("CRCQ", "fails", {
                "active_set": active, "subset": [i + 1 for i in subset],
                "rank_at_reference": base_rank, "rank_generic": max(ranks),
                "point": {"x": x, "p": p},
            })
    return CQReport("CRCQ", "holds", {"active_set": active})


# ---------------------------------------------------------------------------
# multiplier polytope


@dataclass
class MultiplierSet:
    """Lambda(x, p, v) with enumerated vertices (full-length m vectors), and
    the bundle at (x, p) it was enumerated from."""

    active: tuple
    vertices: list  # list of tuples (Fraction or float entries)
    dim: int
    bundle: EvalBundle

    @property
    def exact(self) -> bool:
        return self.bundle.exact

    @property
    def grad_matrix(self) -> np.ndarray:
        """The (m, n) constraint gradients in floats."""
        return self.bundle.grad_phi.astype(float)

    def vertices_float(self) -> np.ndarray:
        return np.array([[float(c) for c in vert] for vert in self.vertices])

    def to_json_dict(self):
        return {
            "active_set": [i + 1 for i in self.active],
            "vertices": [[_jsonify(c) for c in v] for v in self.vertices],
            "dim": self.dim,
            "exact": self.exact,
        }


def multiplier_polytope(bundle: EvalBundle, I, v) -> MultiplierSet:
    """Enumerate the vertices of Lambda(x, p, v) at the point of ``bundle``,
    whose active set is I.

    Raises :class:`NoMultiplierError` when no multiplier exists (the triple
    is not on the solution-map graph) and
    :class:`UnboundedMultiplierError` with a recession direction when MFCQ
    fails and the set is unbounded, so a returned set certifies MFCQ.
    """
    if not check_mfcq(bundle, I).ok:
        raise UnboundedMultiplierError(
            "MFCQ fails: the multiplier set may be empty or unbounded; "
            "second-order checks are refused",
            recession=_recession_direction(bundle, I),
        )
    return _multipliers(bundle, I, v)


def _multipliers(bundle: EvalBundle, I, v) -> MultiplierSet:
    """:func:`multiplier_polytope` without the MFCQ check."""
    m = len(bundle.phi)
    cast = Fraction if bundle.exact else float
    rhs = np.array([cast(vi) for vi in v], dtype=bundle.f.dtype) - bundle.f
    residual = max((abs(float(r)) for r in rhs), default=0.0)
    scale = 1.0 + residual

    if not I:
        if residual > TOL_CONE * scale:
            raise NoMultiplierError(
                "no multiplier exists: v != f(x, p) at an interior point"
            )
        vertices = [tuple([cast(0)] * m)]
    else:
        # a nonempty {lam >= 0 : G lam = rhs} has a basic solution, so the
        # vertex enumeration also decides feasibility
        vertices = _enumerate_vertices(bundle, I, rhs, TOL_CONE * scale)
        if not vertices:
            raise NoMultiplierError(
                "no multiplier exists: v is not in Psi(x, p); the reference "
                "triple is not on the solution-map graph"
            )
    V = np.array([[float(c) for c in vert] for vert in vertices])
    dim = rank(V - V[0]) if len(vertices) > 1 else 0
    return MultiplierSet(active=I, vertices=vertices, dim=dim, bundle=bundle)


def _recession_direction(bundle: EvalBundle, I):
    """Nonzero lam >= 0 with sum_{i in I} lam_i grad phi_i = 0, or None."""
    if not I:
        return None
    G = bundle.grad_phi[list(I)].T
    zero, one = (Fraction(0), Fraction(1)) if bundle.exact else (0.0, 1.0)
    res = solve_inequality_lp(
        [one] * len(I), np.vstack([G, -G]), [zero] * (2 * len(G)),
        [zero] * len(I), [one] * len(I), maximize=True,
    )
    if res.status != "optimal" or float(res.value) <= 1e-9:
        return None
    lam = [0.0] * len(bundle.phi)
    for idx, i in enumerate(I):
        lam[i] = float(res.x[idx])
    return lam


def _enumerate_vertices(bundle: EvalBundle, I, rhs, tol):
    exact = bundle.exact
    cols = bundle.grad_phi[list(I)]
    found = []
    # more columns than rows are dependent
    for subset in subsets(range(len(I)), "active constraints", len(rhs)):
        sol = _solve_subset(cols[list(subset)], rhs, exact, tol)
        if sol is None:
            continue
        lam = [Fraction(0) if exact else 0.0] * len(bundle.phi)
        ok = True
        for pos, j in enumerate(subset):
            value = sol[pos]
            if exact:
                if value < 0:
                    ok = False
                    break
            else:
                if value < -1e-12:
                    ok = False
                    break
                value = max(value, 0.0)
            lam[I[j]] = value
        if ok:
            found.append(tuple(lam))
    # dedupe, deterministic order
    unique = []
    for lam in sorted(found, key=lambda t: [float(c) for c in t]):
        if not any(
            max(abs(float(a) - float(b)) for a, b in zip(lam, other)) < 1e-8
            for other in unique
        ):
            unique.append(lam)
    return unique


def _solve_subset(rows, rhs, exact, tol):
    """Solve rows^T lam = rhs for independent gradient rows; None when the
    rows are dependent or the system inconsistent."""
    k = len(rows)
    if exact:
        return _exact_solve(rows.T, rhs)
    if not k:
        return [] if max((abs(r) for r in rhs), default=0.0) <= tol else None
    if rank(rows) < k:
        return None
    sol, *_ = np.linalg.lstsq(rows.T, rhs, rcond=None)
    if np.linalg.norm(rows.T @ sol - rhs) > tol:
        return None
    return list(sol)


def _exact_solve(A, b):
    """Solve A lam = b over Fractions; None if the columns are dependent or
    the system inconsistent."""
    k = np.shape(A)[1]
    R, pivots, _ = gauss_jordan(np.column_stack([A, b]))
    if pivots != list(range(k)):
        return None  # a column without a pivot, or a pivot in the rhs column
    return [R[j][-1] for j in range(k)]


def strict_complement(lam: Sequence, I: Sequence[int]):
    """Strongly active indices I_+ = {i in I : lam_i > TOL_CQ} (0-based)."""
    return tuple(i for i in I if float(lam[i]) > TOL_CQ)

"""Constraint qualifications and the Lagrange multiplier polytope.

MFCQ is decided by a small LP (exact rational pivoting whenever the point
and model data are rational, so a zero margin is never a floating-point
artifact); LICQ by a singular-value rank check; CRCQ by a sampled probe
that can falsify or corroborate but never prove, except for jointly affine
data where gradients are constant.

The multiplier set Lambda(x, p, v) = {lam >= 0 : sum lam_i grad phi_i =
v - f(x, p), lam_i = 0 off the active set} is enumerated vertex by vertex
over independent column subsets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .defaults import (
    CRCQ_RADIUS,
    CRCQ_SAMPLES,
    MAX_ACTIVE_SUBSETS,
    TOL_ACT,
    TOL_CONE,
    TOL_CQ,
)
from .errors import (
    DeskScaleError,
    NoMultiplierError,
    UnboundedMultiplierError,
)
from .expr import is_rational
from .modelspec import ParametricModel, eval_bundle, eval_bundle_exact
from .polycone import active_indices, rank
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
    verdict: str  # 'holds' | 'fails' | 'corroborated'
    witness: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.verdict in ("holds", "corroborated")

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


def check_mfcq(model: ParametricModel, x, p, tol_act: float = TOL_ACT, tol_cq: float = TOL_CQ) -> CQReport:
    """Partial MFCQ in x: exists d with <grad phi_i, d> < 0 on the active
    set.  Decided by maximizing the margin t over the sup-norm ball."""
    exact = is_rational(x, p)
    bundle = (eval_bundle_exact if exact else eval_bundle)(model, x, p)
    return _mfcq(bundle, active_indices(bundle.phi, tol_act), exact, tol_cq)


def _mfcq(bundle, I, exact: bool, tol_cq: float = TOL_CQ) -> CQReport:
    """:func:`check_mfcq` on an evaluated bundle with active set I."""
    if not I:
        # +inf sentinel: the condition is vacuous with no active gradients
        return CQReport(
            "MFCQ", "holds", {"active_set": [], "t_star": float("inf"), "vacuous": True}
        )
    grads = [list(bundle.grad_phi[i]) for i in I]
    n = len(bundle.f)
    one = Fraction(1) if exact else 1.0
    zero = Fraction(0) if exact else 0.0
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
    holds = (t_star > 0) if exact else (float(t_star) > tol_cq)
    witness = {
        "active_set": [i + 1 for i in I],
        "t_star": float(t_star),
        "direction": [float(v) for v in d],
        "exact": exact,
    }
    return CQReport("MFCQ", "holds" if holds else "fails", witness)


# ---------------------------------------------------------------------------
# LICQ


def check_licq(model: ParametricModel, x, p, tol_act: float = TOL_ACT) -> CQReport:
    bundle = eval_bundle(model, x, p)
    return _licq(bundle, active_indices(bundle.phi, tol_act))


def _licq(bundle, I) -> CQReport:
    """:func:`check_licq` on an evaluated float bundle with active set I."""
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


def probe_crcq(
    model: ParametricModel,
    x,
    p,
    radius: float = CRCQ_RADIUS,
    samples: int = CRCQ_SAMPLES,
    seed: int = 0,
    tol_act: float = TOL_ACT,
) -> CQReport:
    """Partial CRCQ in x: every active-gradient subfamily keeps constant
    rank on a neighborhood of (x, p).

    Jointly affine constraints have constant gradients, so the verdict is
    upgraded to 'holds'; otherwise the probe samples the neighborhood and
    can only report 'corroborated' or 'fails' (with a witness subset and
    point).
    """
    center = eval_bundle(model, x, p)
    return _crcq(model, center, active_indices(center.phi, tol_act), x, p, radius, samples, seed)


def _crcq(
    model: ParametricModel,
    center,
    I,
    x,
    p,
    radius: float = CRCQ_RADIUS,
    samples: int = CRCQ_SAMPLES,
    seed: int = 0,
) -> CQReport:
    """:func:`probe_crcq` around (x, p), whose float bundle ``center`` has
    active set I."""
    if radius <= 0 or samples < 1:
        raise ValueError("probe needs radius > 0 and samples >= 1")
    if not I:
        return CQReport("CRCQ", "holds", {"active_set": [], "vacuous": True})
    if len(I) > MAX_ACTIVE_SUBSETS:
        raise DeskScaleError(
            f"active set of size {len(I)} exceeds the subset-enumeration cap"
        )
    if all(model.affine_xp[i] for i in I):
        return CQReport(
            "CRCQ", "holds", {"active_set": [i + 1 for i in I], "affine": True}
        )
    x0 = np.array([float(c) for c in x])
    p0 = np.array([float(c) for c in p])
    rng = np.random.default_rng(seed)
    points = [(x0, p0)]
    for _ in range(samples):
        dx = rng.normal(size=model.n)
        dp = rng.normal(size=model.d) if model.d else np.zeros(0)
        norm = np.linalg.norm(np.concatenate([dx, dp]))
        if norm > 0:
            shift = radius * rng.uniform() / norm
            points.append((x0 + shift * dx, p0 + shift * dp))
    grads = [center.grad_phi] + [eval_bundle(model, xx, pp).grad_phi for xx, pp in points[1:]]
    subsets = []
    for r in range(1, len(I) + 1):
        subsets.extend(itertools.combinations(I, r))
    for subset in subsets:
        base_rank = rank(grads[0][list(subset)])
        for k in range(1, len(points)):
            rank_k = rank(grads[k][list(subset)])
            if rank_k != base_rank:
                xx, pp = points[k]
                return CQReport(
                    "CRCQ",
                    "fails",
                    {
                        "active_set": [i + 1 for i in I],
                        "subset": [i + 1 for i in subset],
                        "rank_at_center": base_rank,
                        "rank_at_witness": rank_k,
                        "witness_x": [float(v) for v in xx],
                        "witness_p": [float(v) for v in pp],
                    },
                )
    return CQReport(
        "CRCQ",
        "corroborated",
        {"active_set": [i + 1 for i in I], "samples": samples, "radius": radius},
    )


# ---------------------------------------------------------------------------
# multiplier polytope


@dataclass
class MultiplierSet:
    """Lambda(x, p, v) with enumerated vertices (full-length m vectors)."""

    m: int
    active: tuple
    vertices: list  # list of tuples (Fraction or float entries)
    dim: int
    exact: bool
    stationarity_rhs: list  # v - f(x, p)
    grad_matrix: np.ndarray  # (m, n) float gradients for re-verification

    def vertices_float(self) -> np.ndarray:
        return np.array([[float(c) for c in vert] for vert in self.vertices])

    def to_json_dict(self):
        return {
            "active_set": [i + 1 for i in self.active],
            "vertices": [[_jsonify(c) for c in v] for v in self.vertices],
            "dim": self.dim,
            "exact": self.exact,
        }


def multiplier_polytope(
    model: ParametricModel,
    x,
    p,
    v,
    tol_act: float = TOL_ACT,
    tol: float = TOL_CONE,
) -> MultiplierSet:
    """Enumerate the vertices of Lambda(x, p, v).

    Raises :class:`NoMultiplierError` when no multiplier exists (the triple
    is not on the solution-map graph) and
    :class:`UnboundedMultiplierError` with a recession direction when MFCQ
    fails and the set is unbounded.
    """
    exact = is_rational(x, p, v)
    bundle = (eval_bundle_exact if exact else eval_bundle)(model, x, p)
    I = active_indices(bundle.phi, tol_act)
    if I and not _mfcq(bundle, I, exact).ok:
        cols = [list(bundle.grad_phi[i]) for i in I]
        raise UnboundedMultiplierError(
            "MFCQ fails: the multiplier set may be empty or unbounded; "
            "second-order checks are refused",
            recession=_recession_direction(cols, model.m, I, exact),
        )
    return _multipliers(bundle, I, v, exact, tol)


def _multipliers(bundle, I, v, exact: bool, tol: float = TOL_CONE) -> MultiplierSet:
    """:func:`multiplier_polytope` on an evaluated bundle with active set I,
    without the MFCQ check."""
    m, n = len(bundle.phi), len(bundle.f)
    cast = Fraction if exact else float
    cols = [list(bundle.grad_phi[i]) for i in I]
    rhs = [cast(vi) - fi for vi, fi in zip(v, bundle.f)]
    grad_matrix = np.array(bundle.grad_phi, dtype=float).reshape(m, n)
    scale = 1.0 + max((abs(float(r)) for r in rhs), default=0.0)

    if not I:
        if max((abs(float(r)) for r in rhs), default=0.0) > tol * scale:
            raise NoMultiplierError(
                "no multiplier exists: v != f(x, p) at an interior point"
            )
        return MultiplierSet(
            m=m,
            active=(),
            vertices=[tuple([cast(0)] * m)],
            dim=0,
            exact=exact,
            stationarity_rhs=rhs,
            grad_matrix=grad_matrix,
        )

    # a nonempty {lam >= 0 : G lam = rhs} has a basic solution, so the
    # vertex enumeration also decides feasibility
    vertices = _enumerate_vertices(cols, rhs, m, I, exact, tol * scale)
    if not vertices:
        raise NoMultiplierError(
            "no multiplier exists: v is not in Psi(x, p); the reference "
            "triple is not on the solution-map graph"
        )
    V = np.array([[float(c) for c in vert] for vert in vertices])
    dim = rank(V - V[0]) if len(vertices) > 1 else 0
    return MultiplierSet(
        m=m,
        active=I,
        vertices=vertices,
        dim=dim,
        exact=exact,
        stationarity_rhs=rhs,
        grad_matrix=grad_matrix,
    )


def _recession_direction(cols, m, I, exact):
    """Nonzero lam >= 0 with sum lam_i g_i = 0, or None."""
    k = len(cols)
    if k == 0:
        return None
    one = Fraction(1) if exact else 1.0
    zero = Fraction(0) if exact else 0.0
    nrows = len(cols[0])
    A_ub = [[cols[j][i] for j in range(k)] for i in range(nrows)]
    A_ub += [[-cols[j][i] for j in range(k)] for i in range(nrows)]
    b_ub = [zero] * (2 * nrows)
    res = solve_inequality_lp(
        [one] * k, A_ub, b_ub, [zero] * k, [one] * k, maximize=True
    )
    if res.status != "optimal" or float(res.value) <= 1e-9:
        return None
    lam = [0.0] * m
    for idx, i in enumerate(I):
        lam[i] = float(res.x[idx])
    return lam


def _enumerate_vertices(cols, rhs, m, I, exact, tol):
    k = len(cols)
    n = len(rhs)
    found = []
    max_support = min(k, n)
    for r in range(0, max_support + 1):
        for subset in itertools.combinations(range(k), r):
            sol = _solve_subset(cols, rhs, subset, exact, tol)
            if sol is None:
                continue
            lam = [Fraction(0) if exact else 0.0] * m
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


def _solve_subset(cols, rhs, subset, exact, tol):
    """Solve sum_{j in subset} lam_j col_j = rhs for independent columns;
    None when dependent or inconsistent."""
    if not subset:
        if exact:
            return [] if all(r == 0 for r in rhs) else None
        return [] if max((abs(r) for r in rhs), default=0.0) <= tol else None
    if exact:
        return _exact_solve([[cols[j][i] for j in subset] for i in range(len(rhs))], list(rhs))
    A = np.array([cols[j] for j in subset], dtype=float).T
    if rank(A.T) < len(subset):
        return None
    sol, *_ = np.linalg.lstsq(A, np.array(rhs, dtype=float), rcond=None)
    if np.linalg.norm(A @ sol - np.array(rhs, dtype=float)) > tol:
        return None
    return list(sol)


def _exact_solve(A, b):
    """Solve A lam = b over Fractions; None if the columns are dependent or
    the system inconsistent."""
    ncols = len(A[0]) if A else 0
    R, pivots, _ = gauss_jordan([list(row) + [bi] for row, bi in zip(A, b)])
    if pivots != list(range(ncols)):
        return None  # a column without a pivot, or a pivot in the rhs column
    return [R[k][-1] for k in range(ncols)]


def strict_complement(lam: Sequence, I: Sequence[int], tol_cq: float = TOL_CQ):
    """Strongly active indices I_+ = {i in I : lam_i > tol} (0-based)."""
    return tuple(i for i in I if float(lam[i]) > tol_cq)

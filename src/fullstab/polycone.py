"""Exact polyhedral cone geometry at desk scale.

Cones live in facet (H-) representation ``{w : E w = 0, G w <= 0}``; ray
generators are computed on demand by a double-description-style active-set
enumeration (n <= 8, <= 16 rows is the intended regime).  Tangent cones of
inequality systems are linearization cones: exact for constraints affine
in x, and exact under MFCQ otherwise (callers label them accordingly).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .defaults import MAX_CONE_ROWS, RANK_TOL, TOL_ACT, TOL_CONE
from .errors import (
    DeskScaleError,
    InfeasiblePointError,
    InfeasibleSetError,
    InputError,
    SolveFailureError,
)
from .modelspec import ParametricModel, eval_bundle

__all__ = [
    "ConeDesc",
    "SubspaceBasis",
    "active_mask",
    "active_indices",
    "tangent_cone",
    "critical_cone",
    "span_difference",
    "nnls",
    "rank",
    "row_norms",
    "null_space",
]


class ConeDesc:
    """Closed convex polyhedral cone {w : E w = 0, G w <= 0}."""

    def __init__(self, n: int, E=None, G=None):
        self.n = n
        self.E = _as_matrix(E, n)
        self.G = _as_matrix(G, n)
        self.E.setflags(write=False)
        self.G.setflags(write=False)
        self._generators = None

    def contains(self, w, tol: float = TOL_CONE):
        """Membership test; accepts a single vector or a stack of rows."""
        w = np.asarray(w, dtype=float)
        single = w.ndim == 1
        W = w[None, :] if single else w
        scale = 1.0 + np.linalg.norm(W, axis=1)
        ok = np.ones(W.shape[0], dtype=bool)
        if self.E.shape[0]:
            ok &= np.max(np.abs(W @ self.E.T), axis=1) <= tol * scale
        if self.G.shape[0]:
            ok &= np.max(W @ self.G.T, axis=1) <= tol * scale
        return bool(ok[0]) if single else ok

    def generators(self):
        """(rays, lineality): unit extreme rays modulo lineality, and an
        orthonormal basis of the lineality space.  cone = cone(rays) +
        span(lineality)."""
        if self._generators is None:
            self._generators = _enumerate_generators(self)
        return self._generators

    def facets_csv(self) -> str:
        lines = []
        for row in self.E:
            lines.append("eq," + ",".join(repr(float(v)) for v in row))
        for row in self.G:
            lines.append("ineq," + ",".join(repr(float(v)) for v in row))
        return "\n".join(lines)

    def generators_csv(self) -> str:
        rays, lin = self.generators()
        lines = []
        for row in rays:
            lines.append("ray," + ",".join(repr(float(v)) for v in row))
        for col in lin.T:
            lines.append("line," + ",".join(repr(float(v)) for v in col))
        return "\n".join(lines)


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal columns spanning a subspace (k may be 0)."""

    V: np.ndarray  # (n, k)

    @property
    def dim(self) -> int:
        return self.V.shape[1]

    def __post_init__(self):
        V = self.V
        if V.shape[1] and not np.allclose(V.T @ V, np.eye(V.shape[1]), atol=1e-10):
            raise InputError("subspace basis is not orthonormal")


def _as_matrix(M, n) -> np.ndarray:
    if M is None:
        return np.zeros((0, n))
    M = np.array(M, dtype=float)
    if M.size == 0:
        return np.zeros((0, n))
    M = M.reshape(-1, n)
    if not np.all(np.isfinite(M)):
        raise InputError("cone description contains non-finite rows")
    return M


def _rank_of(shape, s: np.ndarray) -> int:
    """Count of singular values s (descending) of a matrix of the given
    shape above the shared cutoff max(shape) * RANK_TOL * s[0]."""
    cutoff = max(shape) * RANK_TOL * (s[0] if s.size and s[0] > 0 else 1.0)
    return int(np.sum(s > cutoff))


def rank(M) -> int:
    """Numerical rank of M under the shared cutoff (0 for an empty matrix)."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0
    return _rank_of(M.shape, np.linalg.svd(M, compute_uv=False))


def row_norms(A):
    """np.linalg.norm over the last axis, to the bit: a matmul of
    contiguous vectors runs the same BLAS dot as norm does."""
    A = np.ascontiguousarray(A)
    return np.sqrt(np.matmul(A[..., None, :], A[..., :, None])[..., 0, 0])


def null_space(M: np.ndarray, n: int) -> np.ndarray:
    """Orthonormal basis of {w in R^n : M w = 0} as columns, with the rank
    decided by the shared cutoff."""
    if M.shape[0] == 0:
        return np.eye(n)
    _, s, vt = np.linalg.svd(M, full_matrices=True)
    return vt[_rank_of(M.shape, s):].T


def _enumerate_generators(cone: ConeDesc):
    n = cone.n
    if cone.G.shape[0] > MAX_CONE_ROWS + 4:
        raise DeskScaleError(
            f"{cone.G.shape[0]} inequality rows exceed the enumeration cap"
        )
    stacked = np.vstack([cone.E, cone.G])
    lin = null_space(stacked, n)
    dim_lin = lin.shape[1]
    rays = []
    kg = cone.G.shape[0]
    for r in range(kg + 1):
        for subset in itertools.combinations(range(kg), r):
            rows = np.vstack([cone.E, cone.G[list(subset)]]) if subset or cone.E.shape[0] else np.zeros((0, n))
            N = null_space(rows, n)
            if N.shape[1] != dim_lin + 1:
                continue
            # direction orthogonal to the lineality space inside N
            if dim_lin:
                proj = N - lin @ (lin.T @ N)
            else:
                proj = N
            u, s, vt = np.linalg.svd(proj, full_matrices=False)
            if s.size == 0 or s[0] < 1e-9:
                continue
            direction = u[:, 0]
            for cand in (direction, -direction):
                if cone.contains(cand, tol=1e-9):
                    rays.append(cand / np.linalg.norm(cand))
    unique = []
    for ray in rays:
        if not any(np.linalg.norm(ray - r) < 1e-8 for r in unique):
            unique.append(ray)
    R = np.array(unique) if unique else np.zeros((0, n))
    return R, lin


# ---------------------------------------------------------------------------
# active sets and cone builders at an evaluated point


def active_mask(phi, tol_act: float = TOL_ACT):
    """The only active-set rule, for constraint values in floats or
    Fractions, one point or a (k, m) stack of points (one per row): returns
    (feasible, active), where feasible is max_i phi_i <= tol_act per point
    and active marks the i with |phi_i| <= tol_act."""
    phi = np.asarray(phi)
    feasible = np.max(phi, axis=-1, initial=-np.inf) <= tol_act
    return feasible, np.abs(phi) <= tol_act


def active_indices(phi, tol_act: float = TOL_ACT):
    """Indices (0-based, sorted) of the active constraints of one point, by
    :func:`active_mask`.  The point must be feasible to ``tol_act``; reports
    use 1-based labels."""
    feasible, active = active_mask(phi, tol_act)
    if not feasible:
        raise InfeasiblePointError(
            f"point is infeasible: max phi = {float(max(phi)):.3e} > {tol_act}"
        )
    return tuple(int(i) for i in np.flatnonzero(active))


def tangent_cone(bundle, I) -> ConeDesc:
    """Linearization cone {w : grad_x phi_i . w <= 0, i in I} from an
    evaluated float bundle; exact for affine constraints, exact under MFCQ
    otherwise."""
    G = bundle.grad_phi
    return ConeDesc(G.shape[1], G=G[list(I)] if I else None)


def critical_cone(T: ConeDesc, v_hat) -> ConeDesc:
    """Tangent cone intersected with the hyperplane orthogonal to the normal
    vector v_hat; validates v_hat against the polar of T."""
    v = np.asarray([float(c) for c in v_hat], dtype=float)
    if v.shape != (T.n,):
        raise InputError("v_hat has wrong dimension")
    if np.linalg.norm(v) <= TOL_CONE:
        return ConeDesc(T.n, E=T.E, G=T.G)
    rays, lin = T.generators()
    scale = 1.0 + float(np.linalg.norm(v))
    if rays.shape[0] and np.max(rays @ v) > TOL_CONE * scale:
        raise InputError(
            "v_hat is not a normal vector at the reference point "
            "(inconsistent reference triple)"
        )
    if lin.shape[1] and np.max(np.abs(lin.T @ v)) > TOL_CONE * scale:
        raise InputError(
            "v_hat is not a normal vector at the reference point "
            "(inconsistent reference triple)"
        )
    E = np.vstack([T.E, v[None, :]]) if T.E.shape[0] else v[None, :]
    return ConeDesc(T.n, E=E, G=T.G)


def span_difference(K: ConeDesc) -> SubspaceBasis:
    """Orthonormal basis of K - K = span(K), from the generators."""
    rays, lin = K.generators()
    stacked = np.vstack([rays, lin.T]) if rays.shape[0] or lin.shape[1] else np.zeros((0, K.n))
    if stacked.shape[0] == 0:
        return SubspaceBasis(V=np.zeros((K.n, 0)))
    _, s, vt = np.linalg.svd(stacked, full_matrices=False)
    return SubspaceBasis(V=vt[:_rank_of(stacked.shape, s)].T)


# ---------------------------------------------------------------------------
# Euclidean projection onto an affine-in-x constraint set


def polyhedron_rows(model: ParametricModel, p):
    """(A, b) with C(p) = {x : A x <= b}; requires affinity in x."""
    if not all(model.affine_x):
        raise InputError("projection requires constraints affine in x")
    zero_x = [0.0] * model.n
    bundle = eval_bundle(model, zero_x, [float(c) for c in p])
    A = bundle.grad_phi
    b = -bundle.phi
    return A, b


def project_onto_rows(A: np.ndarray, b: np.ndarray, z: np.ndarray):
    """Euclidean projection of z onto {x : A x <= b}.

    With y = x - z this is the least-distance problem min ||y|| subject to
    -A y >= A z - b, solved by one nonnegative least-squares call (Lawson &
    Hanson, *Solving Least Squares Problems*, ch. 23): u minimizes
    ||E u - f|| over u >= 0 for E = [-A^T; (A z - b)^T] and f = e_{n+1};
    with r = E u - f, the projection is x = z - r[:n] / r[n] and the
    multipliers are mu = u / (-r[n]).  A zero residual is a Farkas
    certificate that the set is empty (:class:`InfeasibleSetError`).  The
    point is returned only after primal feasibility and complementarity
    check out to ``TOL_CONE`` (relative); otherwise :class:`SolveFailureError`.
    """
    m, n = A.shape
    scale = 1.0 + float(np.linalg.norm(z)) + (float(np.max(np.abs(b))) if m else 0.0)
    feas_tol = TOL_CONE * scale
    if m == 0 or np.all(A @ z <= b + feas_tol):
        return z.copy()
    E = np.vstack([-A.T, (A @ z - b)[None, :]])
    f = np.zeros(n + 1)
    f[n] = 1.0
    u, _ = nnls(E, f)
    r = E @ u - f
    if np.linalg.norm(r) <= TOL_CONE:
        raise InfeasibleSetError("constraint set is empty (no projection exists)")
    x = z - r[:n] / r[n]
    mu = u / -r[n]
    viol = A @ x - b
    feasible = np.all(viol <= feas_tol)
    complementary = np.all(mu * np.abs(viol) <= feas_tol * (1.0 + mu))
    if not (r[n] < 0 and feasible and complementary):
        raise SolveFailureError("projection failed its optimality check")
    return x


def nnls(A: np.ndarray, b: np.ndarray):
    """Lawson-Hanson nonnegative least squares: min ||A x - b||, x >= 0.

    Returns (x, residual_norm).  Deterministic; desk scale only.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    w = A.T @ (b - A @ x)
    tol = 1e-12 * (1 + float(np.linalg.norm(A.T @ b, ord=np.inf)) if n else 1.0)
    for _ in range(6 * max(n, 1) + 10):
        if passive.all() or (w[~passive] <= tol).all():
            break
        candidates = np.where(~passive, w, -np.inf)
        j = int(np.argmax(candidates))
        passive[j] = True
        while True:
            s = np.zeros(n)
            idx = np.flatnonzero(passive)
            sol, *_ = np.linalg.lstsq(A[:, idx], b, rcond=None)
            s[idx] = sol
            if (s[idx] > tol).all():
                x = s
                break
            neg = idx[s[idx] <= tol]
            with np.errstate(divide="ignore", invalid="ignore"):
                alphas = x[neg] / (x[neg] - s[neg])
            alpha = float(np.min(alphas)) if neg.size else 0.0
            x = x + alpha * (s - x)
            passive[np.abs(x) <= tol] = False
            x[~passive] = 0.0
            if not passive.any():
                x = np.zeros(n)
                break
        w = A.T @ (b - A @ x)
    return x, float(np.linalg.norm(A @ x - b))

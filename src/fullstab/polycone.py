"""Exact polyhedral cone geometry at desk scale.

Cones live in facet (H-) representation ``{w : E w = 0, G w <= 0}``; ray
generators are computed on demand by a double-description-style active-set
enumeration (n <= 8, <= 12 rows: the cap of :func:`subsets`).  Tangent
cones of inequality systems are linearization cones: exact for constraints
affine in x, and exact under MFCQ otherwise (callers label them
accordingly).

Euclidean projection onto polyhedra has one stacked kernel:
:func:`project_onto_rows` projects each row of a (K, n) stack of points
onto its own {x : A x <= b} through one lockstep Lawson-Hanson
:func:`nnls` call, with no row cap and no enumeration.
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
    "active_indices",
    "tangent_cone",
    "critical_cone",
    "span_difference",
    "nnls",
    "rank",
    "row_norms",
    "row_space_projectors",
    "null_space",
    "subsets",
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


def _rank_cutoff(shape, s: np.ndarray):
    """The shared rank cutoff max(shape) * RANK_TOL * s[0] for the singular
    values s (descending along the last axis) of a matrix of the given
    shape, or of each matrix of a stack; s[0] reads 1 when it is 0."""
    top = s[..., :1]
    return max(shape) * RANK_TOL * np.where(top > 0, top, 1.0)


def _rank_of(shape, s: np.ndarray) -> int:
    """Count of singular values s (descending) of a matrix of the given
    shape above the shared cutoff."""
    return int(np.sum(s > _rank_cutoff(shape, s)))


def rank(M):
    """Numerical rank of M under the shared cutoff (0 for an empty matrix),
    or the (K,) ranks of a (K, m, n) stack of nonempty matrices."""
    M = np.asarray(M, dtype=float)
    if M.ndim == 3:
        s = np.linalg.svd(M, compute_uv=False)
        return np.sum(s > _rank_cutoff(M.shape[1:], s), axis=-1)
    if M.size == 0:
        return 0
    return _rank_of(M.shape, np.linalg.svd(M, compute_uv=False))


def row_norms(A):
    """np.linalg.norm over the last axis, to the bit: a matmul of
    contiguous vectors runs the same BLAS dot as norm does."""
    A = np.ascontiguousarray(A)
    return np.sqrt(np.matmul(A[..., None, :], A[..., :, None])[..., 0, 0])


def row_space_projectors(A: np.ndarray) -> np.ndarray:
    """The orthogonal projector onto the row space of each matrix of a
    (K, m, n) stack, as a (K, n, n) stack, with each rank decided by the
    shared cutoff."""
    K, m, n = A.shape
    if not m:
        return np.zeros((K, n, n))
    _, s, vt = np.linalg.svd(A, full_matrices=False)
    W = vt * (s > _rank_cutoff((m, n), s))[..., None]
    return np.matmul(W.transpose(0, 2, 1), W)


def null_space(M: np.ndarray, n: int) -> np.ndarray:
    """Orthonormal basis of {w in R^n : M w = 0} as columns, with the rank
    decided by the shared cutoff."""
    if M.shape[0] == 0:
        return np.eye(n)
    _, s, vt = np.linalg.svd(M, full_matrices=True)
    return vt[_rank_of(M.shape, s):].T


def subsets(items, what: str, most: int | None = None):
    """Every subset of ``items`` as a tuple, of at most ``most`` items when
    that is given, by size and then in ``itertools.combinations`` order:
    the one 2^k walk of the package (active-set guesses, cone faces,
    critical faces, multiplier supports, CRCQ subfamilies).
    More than ``MAX_CONE_ROWS`` items raise :class:`DeskScaleError` at call
    time, with the count named by ``what``."""
    items = tuple(items)
    if len(items) > MAX_CONE_ROWS:
        raise DeskScaleError(
            f"{len(items)} {what} exceed the face-enumeration cap ({MAX_CONE_ROWS})"
        )
    top = len(items) if most is None else min(most, len(items))
    return itertools.chain.from_iterable(itertools.combinations(items, r) for r in range(top + 1))


def _enumerate_generators(cone: ConeDesc):
    n = cone.n
    stacked = np.vstack([cone.E, cone.G])
    lin = null_space(stacked, n)
    dim_lin = lin.shape[1]
    rays = []
    for subset in subsets(range(cone.G.shape[0]), "inequality rows"):
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


def active_indices(phi, tol_act: float = TOL_ACT):
    """Indices (0-based, sorted) of the i with |phi_i| <= tol_act, for the
    constraint values of one point in floats or Fractions: the only
    active-set rule.  The point must be feasible to ``tol_act``; reports
    use 1-based labels."""
    phi = np.asarray(phi)
    if np.max(phi, initial=-np.inf) > tol_act:
        raise InfeasiblePointError(
            f"point is infeasible: max phi = {float(max(phi)):.3e} > {tol_act}"
        )
    return tuple(int(i) for i in np.flatnonzero(np.abs(phi) <= tol_act))


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
    """(A, b) with C(p) = {x : A x <= b}; requires affinity in x.  For a
    (K, d) stack of parameters, (K, m, n) and (K, m) stacks from one
    evaluation."""
    if not all(model.affine_x):
        raise InputError("projection requires constraints affine in x")
    p = np.asarray(p, dtype=float)
    zero_x = np.zeros(p.shape[:-1] + (model.n,))
    bundle = eval_bundle(model, zero_x, p)
    return bundle.grad_phi, -bundle.phi


def _matvec(A, x):
    """A[k] @ x[k] for every row k of the stacks."""
    return np.matmul(A, x[..., None])[..., 0]


def project_onto_rows(A: np.ndarray, b: np.ndarray, z: np.ndarray, tight: bool = False):
    """Euclidean projection of z onto {x : A x <= b}, or of each row of a
    stack onto its own set: A (K, m, n), b (K, m) and z (K, n).

    With y = x - z this is the least-distance problem min ||y|| subject to
    -A y >= A z - b, solved by one nonnegative least-squares call (Lawson &
    Hanson, *Solving Least Squares Problems*, ch. 23): u minimizes
    ||E u - f|| over u >= 0 for E = [-A^T; (A z - b)^T] and f = e_{n+1};
    with r = E u - f, the projection is x = z - r[:n] / r[n] and the
    multipliers are mu = u / (-r[n]).  A zero residual is a Farkas
    certificate that the set is empty (:class:`InfeasibleSetError`).  The
    point is returned only after primal feasibility and complementarity
    check out to ``TOL_CONE`` (relative); otherwise :class:`SolveFailureError`,
    which a non-finite z, A or b also raises.

    Far from the set -r[n] is about 1 / (1 + ||y||^2) and the recovery of x
    loses more than the check allows, so a row that fails with a slack above
    1 is solved again at the slack over sigma = max|A z - b|, whose solution
    is y / sigma: x = z - sigma r[:n] / r[n] and mu = sigma u / (-r[n]).

    The infeasible rows of a stack go to one stacked :func:`nnls` call (and
    the far rows it leaves unverified to a second), and every row gets the
    bits of its own one-point call.  A one-point call
    returns x or raises; a stacked call returns (X, failures), where
    failures maps each row whose one-point call raises to that exception
    and X holds z in those rows.  With ``tight`` the call also returns the
    mask of the rows of A that are tight at the projection: the final
    passive set of the NNLS (mu > 0), empty for a point inside its set and
    for a failed row.
    """
    A, b, z = (np.ascontiguousarray(a, dtype=float) for a in (A, b, z))
    single = z.ndim == 1
    if single:
        A, b, z = A[None], b[None], z[None]
    K, m, n = A.shape
    X, failures, T = z.copy(), {}, np.zeros((K, m), dtype=bool)
    if m:
        feas_tol = TOL_CONE * (1.0 + row_norms(z) + np.abs(b).max(axis=1))[:, None]
        Az = _matvec(A, z)
        outside = ~(Az <= b + feas_tol)
        if outside.any():
            rows = np.flatnonzero(outside.any(axis=1))
            if rows.size < K:
                A, b, z, feas_tol, Az = (a[rows] for a in (A, b, z, feas_tol, Az))
            slack = Az - b
            # a non-finite entry of A, b or z leaves a non-finite slack
            if not np.isfinite(slack).all():
                finite = np.isfinite(slack).all(axis=1)
                for k in rows[~finite]:
                    failures[k] = SolveFailureError("projection of a non-finite point")
                rows, A, b, z, feas_tol, slack = (
                    a[finite] for a in (rows, A, b, z, feas_tol, slack)
                )

            def least_distance(k, sigma):
                # rows k at slack / sigma: the point, the passive set u > 0,
                # whether the point checks out and whether the set is empty
                E = np.concatenate(
                    [-A[k].transpose(0, 2, 1), (slack[k] / sigma)[:, None, :]], axis=1
                )
                f = np.zeros((len(E), n + 1))
                f[:, n] = 1.0
                u, res = nnls(E, f)
                r = _matvec(E, u) - f
                with np.errstate(divide="ignore", invalid="ignore"):
                    x = z[k] - sigma * r[:, :n] / r[:, n:]
                    mu = sigma * u / -r[:, n:]
                    viol = _matvec(A[k], x) - b[k]
                    ok = (r[:, n] < 0) & (
                        (viol <= feas_tol[k]) & (mu * np.abs(viol) <= feas_tol[k] * (1.0 + mu))
                    ).all(axis=1)
                empty = res <= TOL_CONE
                return x, u > 0, ~empty & ok, empty

            x, passive, keep, empty = least_distance(slice(None), 1.0)
            sigma = np.abs(slack).max(axis=1, keepdims=True)
            again = np.flatnonzero(~keep & (sigma[:, 0] > 1.0))
            if again.size:
                scaled = least_distance(again, sigma[again])
                for out, values in zip((x, passive, keep, empty), scaled):
                    out[again] = values
            X[rows[keep]] = x[keep]
            T[rows[keep]] = passive[keep]
            for i in np.flatnonzero(~keep):
                failures[rows[i]] = (
                    InfeasibleSetError("constraint set is empty (no projection exists)")
                    if empty[i]
                    else SolveFailureError("projection failed its optimality check")
                )
    if single:
        if failures:
            raise failures[0]
        return (X[0], T[0]) if tight else X[0]
    return (X, failures, T) if tight else (X, failures)


def nnls(A: np.ndarray, b: np.ndarray):
    """Lawson-Hanson nonnegative least squares: min ||A x - b||, x >= 0,
    for one system or for each of a stack, A (K, m, n) and b (K, m).

    The rows of a stack run in lockstep, each with its own passive set,
    tolerance and stopping rule: each inner step solves the least-squares
    problems of the rows still running it, on their passive columns, by
    one stacked pseudo-inverse (:func:`_passive_lstsq`).  Returns (x,
    residual_norm), or the (K, n) and (K,) stacks of them; a row's result
    does not depend on the other rows.  Deterministic; finite inputs, desk
    scale only.
    """
    A = np.ascontiguousarray(A, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    single = A.ndim == 2
    if single:
        A, b = A[None], b[None]
    K, m, n = A.shape
    At = A.transpose(0, 2, 1)
    x = np.zeros((K, n))
    passive = np.zeros((K, n), dtype=bool)
    w = _matvec(At, b)
    tol = 1e-12 * (1 + np.abs(w).max(axis=1, initial=0.0))[:, None]
    live = np.ones(K, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(6 * max(n, 1) + 10):
            # a row is done when no entry off its passive set has w > tol
            live &= ~(passive | (w <= tol)).all(axis=1)
            inner = np.flatnonzero(live)
            if not inner.size:
                break
            j = np.argmax(np.where(passive, -np.inf, w), axis=1)
            passive[inner, j[inner]] = True
            while inner.size:
                # the rows running this step (a view when all of them run)
                sel = inner if inner.size < K else slice(None)
                pi, ti = passive[sel], tol[sel]
                s = _passive_lstsq(A[sel], b[sel], pi)
                solved = (~pi | (s > ti)).all(axis=1)
                if solved.all():
                    x[sel] = s
                    break
                # step back to the first passive entry that would turn negative
                xi = x[sel]
                alpha = np.where(pi & (s <= ti), xi / (xi - s), np.inf).min(axis=1)
                step = xi + alpha[:, None] * (s - xi)
                kept = pi & ~(np.abs(step) <= ti)
                step[~kept] = 0.0
                x[sel] = np.where(solved[:, None], s, step)
                passive[sel] = np.where(solved[:, None], pi, kept)
                inner = inner[~solved & kept.any(axis=1)]
            # (the rows already done keep a w they no longer read)
            w = _matvec(At, b - _matvec(A, x))
    res = row_norms(_matvec(A, x) - b)
    return (x[0], float(res[0])) if single else (x, res)


def _passive_lstsq(A, b, passive):
    """The minimum-norm least-squares solution of each row's A[k] s = b[k]
    over its passive columns (zero elsewhere), by one stacked SVD with the
    cutoff of ``lstsq``: singular values up to eps * max(m, passive count)
    times the largest count as zero.  The arithmetic is that of
    ``np.linalg.pinv`` followed by a product with b."""
    u, sig, vt = np.linalg.svd(A * passive[:, None, :], full_matrices=False)
    rank_tol = np.finfo(float).eps * np.maximum(A.shape[1], passive.sum(axis=1))
    # (singular values come in descending order: sig[:, :1] is the largest)
    inv = 1.0 / np.where(sig > rank_tol[:, None] * sig[:, :1], sig, np.inf)
    pinv = np.matmul(vt.transpose(0, 2, 1), inv[..., None] * u.transpose(0, 2, 1))
    s = _matvec(pinv, b)
    s[~passive] = 0.0
    return s

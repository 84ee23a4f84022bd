"""Solvers for the perturbed variational condition and the localization
table they produce.

One uniqueness oracle and one cross-check, both at desk scale:

* the face sweep - exhaustive enumeration of candidate active sets J,
  solving the stationarity system with phi_J = 0 and filtering by sign,
  feasibility and a sup-norm box.  Data affine in x give a linear system,
  solved for many nodes at once by one batched least-squares call per
  guess.  Curved data run a Newton multistart (the same stencil of starts
  at every node) as one stacked Newton iteration per guess over every
  (node, start) pair of a chunk of nodes: one batched evaluation and one
  batched linear solve per step.  A fixed-point solver cannot certify
  single-valuedness, enumeration over a box can.  ``solve_faces`` runs it
  on one node, ``build_localization`` on a grid.
* ``solve_projected`` - semismooth Newton on the natural map
  F(x) = x - Proj_{C(p)}(x - (f(x, p) - v)), whose zeros are the
  solutions (Qi & Sun, Math. Program. 58, 1993), for constraints affine
  in x; it cross-checks the table.  Projection onto a polyhedron is
  piecewise affine, so F is semismooth, and a generalized Jacobian is
  I - P (I - J_f), with P the projector onto the null space of the rows
  tight at the projection (read from the final passive set of its NNLS).
  Full stability implies strong regularity of the solution (Robinson,
  Math. Oper. Res. 5, 1980), under which every element of the
  B-subdifferential of F there is nonsingular (Facchinei & Pang,
  Finite-Dimensional Variational Inequalities and Complementarity
  Problems, 2003), so Newton converges locally quadratically.  It needs
  no step size and, unlike a fixed-point step, no monotonicity: the
  skew map, strongly regular but not fully stable, is solved in one
  step.  Away from the solution, halving the step until ||F|| falls
  keeps the iterates from diverging, and a rank-deficient Newton matrix
  gives way to the natural-map step -F.  It never enumerates active
  sets, so it stays independent of the sweep.  A stack of nodes runs in
  lockstep, one batched evaluation, one stacked projection and one
  batched solve per step, so a table's cross-check is one call.

``build_localization`` tabulates the solution map on a tensor grid around
the reference (plus random interior nodes), aborting with a witness at the
first node that admits zero or several solutions in the box even after
halving the radii.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .defaults import (
    BOX_RADIUS,
    GRID_P,
    GRID_V,
    MAX_GRID_NODES,
    MAX_SHRINK,
    RANDOM_NODES,
    RHO_P,
    RHO_V,
    SEED,
    TOL_ACT,
)
from .errors import (
    DeskScaleError,
    EvaluationError,
    LocalizationError,
)
from .modelspec import ParametricModel, ReferenceTriple, eval_bundle
from .polycone import (
    polyhedron_rows, project_onto_rows, rank, row_norms, row_space_projectors, subsets,
)

__all__ = [
    "SolveOutcome",
    "LocalizationTable",
    "solve_projected",
    "solve_faces",
    "build_localization",
]


@dataclass
class SolveOutcome:
    x: np.ndarray
    lam: np.ndarray  # full-length multipliers (zeros off the active guess)
    residual: float
    iterations: int
    method: str  # 'semismooth-newton' | 'face-enumeration'
    converged: bool
    multiplicity: str = "unknown"  # 'unique-in-box' | 'multiple-found' | 'unknown'

    def to_json_dict(self):
        return {
            "x": [float(c) for c in self.x],
            "lambda": [float(c) for c in self.lam],
            "residual": self.residual,
            "iterations": self.iterations,
            "method": self.method,
            "converged": self.converged,
            "multiplicity": self.multiplicity,
        }


# ---------------------------------------------------------------------------
# semismooth Newton on the natural map

# relative residual at which semismooth Newton has converged
_PROJECTED_TOL = 1e-11
# evaluations per row before solve_projected or _newton_stack gives it up
_NEWTON_STEPS = 60


def solve_projected(model: ParametricModel, v, p, x0):
    """Semismooth Newton on the natural map F(x) = x - y(x), with
    y(x) = Proj_{C(p)}(x - (f(x, p) - v)), from x0.

    F(x) = 0 is the variational condition v in f(x, p) + N_{C(p)}(x).  A
    generalized Jacobian of F at x is I - P (I - J_f), where J_f is the
    x-Jacobian of f and P the projector onto the null space of the rows of
    C(p) = {x : A x <= b} that are tight at y: the final passive set of the
    projection's NNLS.  With Q = I - P the projector onto their row space
    (:func:`polycone.row_space_projectors`), the Newton system is
    (Q + P J_f) d = -F(x); where Q + P J_f is rank-deficient under the
    shared rank cutoff, d = -F(x), the step to y.  A trial point x + t d
    (t = 1, 1/2, ...) is accepted once ||F|| falls below that at x.  A
    row stops when ||F(x)|| < 1e-11 (1 + ||y||), when its Newton system
    cannot be solved, or after ``_NEWTON_STEPS`` evaluations.  The
    outcome is y at the last accepted x, with residual ||F(x)|| and the
    count of Newton steps taken.

    v and p may be (K, n) and (K, d) stacks of nodes, x0 one start or a
    (K, n) stack: every row then runs this rule in lockstep, and each
    evaluation of the live rows' trial points is one ``eval_bundle`` call,
    one stacked ``project_onto_rows`` call and one batched solve.  The call
    returns one outcome per row, each with the bits of that row's one-node
    call; when rows fail, the first failing row's error is raised, as a
    node-by-node loop would, and an evaluation error at any row raises.
    """
    V = np.asarray(v, dtype=float)
    single = V.ndim == 1
    V = V.reshape(-1, model.n)
    K, n = V.shape
    P = np.asarray(p, dtype=float).reshape(K, model.d)
    X0 = np.broadcast_to(np.asarray(x0, dtype=float), V.shape).copy()
    A, b = polyhedron_rows(model, P)
    errors = {}  # row -> the error its one-node call raises
    # each row's outcome
    x_out, resid = X0.copy(), np.zeros(K)
    iterations, converged = np.zeros(K, dtype=int), np.zeros(K, dtype=bool)
    # the live rows' state and data, compacted as rows stop: the accepted
    # iterate x with its residual r and projection y, the Newton step d
    # and its scale t, the Newton systems solved so far, and the trial
    # point x + t d (x0 first, which any finite residual accepts)
    rows, x, y, trial = np.arange(K), X0, X0, X0
    r, d, t, solves = np.full(K, np.inf), np.zeros((K, n)), np.ones(K), np.zeros(K, dtype=int)
    Vl, Pl, Al, bl = V, P, A, b
    evaluations = 0
    while rows.size:
        if evaluations == _NEWTON_STEPS:
            # the step cap: the rows still running stop where they are
            x_out[rows], resid[rows], iterations[rows] = y, r, solves
            break
        evaluations += 1
        bundle = eval_bundle(model, trial, Pl)
        proj, failures, tight = project_onto_rows(Al, bl, trial - (bundle.f - Vl), tight=True)
        errors.update((rows[i], err) for i, err in failures.items())
        F = trial - proj
        rt = row_norms(F)
        better = rt < r
        x, y, r = (np.where(better[:, None], trial, x), np.where(better[:, None], proj, y),
                   np.where(better, rt, r))
        conv = better & (rt < _PROJECTED_TOL * (1.0 + row_norms(proj)))
        # a better point not converged takes a Newton step, a worse one
        # halves the step it came from
        go = np.flatnonzero(better & ~conv)
        Q = row_space_projectors(Al[go] * tight[go, :, None])
        M = Q + np.matmul(np.eye(n) - Q, bundle.jac_f[go])
        # a rank-deficient Newton matrix takes the natural-map step -F
        step, solved = -F[go], np.ones(go.size, dtype=bool)
        regular = rank(M) == n
        step[regular], solved[regular] = _solve_stack(M[regular], step[regular])
        solved &= np.isfinite(step).all(axis=1)
        d[go], t[go], solves[go] = step, 1.0, solves[go] + 1
        t[~better] *= 0.5
        # (a row whose start has no finite residual never accepts a point)
        stop = conv | np.isinf(r)
        stop[go[~solved]] = True
        stop[list(failures)] = True
        if stop.any():
            done = rows[stop]
            x_out[done], resid[done], converged[done] = y[stop], r[stop], conv[stop]
            iterations[done] = solves[stop]
            keep = ~stop
            if errors:
                # a node-by-node loop never reaches the rows after a failure
                keep &= rows < min(errors)
            rows, x, y, r, d, t, solves, Vl, Pl, Al, bl = (
                a[keep] for a in (rows, x, y, r, d, t, solves, Vl, Pl, Al, bl)
            )
        trial = x + t[:, None] * d
    if errors:
        raise errors[min(errors)]
    outcomes = [
        SolveOutcome(
            x=x_out[k], lam=np.zeros(model.m), residual=float(resid[k]),
            iterations=int(iterations[k]), method="semismooth-newton",
            converged=bool(converged[k]),
        )
        for k in range(K)
    ]
    return outcomes[0] if single else outcomes


# ---------------------------------------------------------------------------
# face enumeration


def _newton_stack(model, V, P, J, Z):
    """Newton's method on the face phi_J = 0, one stacked iteration for
    all rows: row r starts from z = Z[r] = (x, lam_J) at the node (V[r],
    P[r]).  Each iteration evaluates the live rows by one eval_bundle
    call and solves their Newton systems by :func:`_solve_stack`.  A row
    stops where a single run would: converged (||F|| < 1e-12 (1 + ||v||)),
    a singular Newton matrix, a non-finite or > 1e6 iterate, or
    _NEWTON_STEPS steps.  Returns the converged mask, the final rows z and f, phi and
    grad phi evaluated at the converged rows."""
    n, m, k = model.n, model.m, len(J)
    Z = np.array(Z, dtype=float)
    done = np.zeros(len(Z), dtype=bool)
    f, phi, grad = np.zeros((len(Z), n)), np.zeros((len(Z), m)), np.zeros((len(Z), m, n))
    tol = 1e-12 * (1 + row_norms(V))
    live = np.arange(len(Z))
    for _ in range(_NEWTON_STEPS):
        if not live.size:
            break
        z = Z[live]
        bundle = eval_bundle(model, z[:, :n], P[live])
        F = np.zeros((live.size, n + k))
        F[:, :n] = bundle.f - V[live]
        JL = bundle.jac_f.copy()
        for idx, i in enumerate(J):
            F[:, :n] += z[:, n + idx, None] * bundle.grad_phi[:, i]
            F[:, n + idx] = bundle.phi[:, i]
            JL += z[:, n + idx, None, None] * bundle.hess_phi[:, i]
        conv = row_norms(F) < tol[live]
        rows = live[conv]
        done[rows] = True
        f[rows], phi[rows], grad[rows] = bundle.f[conv], bundle.phi[conv], bundle.grad_phi[conv]
        go = ~conv
        live, z, G = live[go], z[go], bundle.grad_phi[go]
        M = np.zeros((live.size, n + k, n + k))
        M[:, :n, :n] = JL[go]
        for idx, i in enumerate(J):
            M[:, :n, n + idx] = G[:, i]
            M[:, n + idx, :n] = G[:, i]
        delta, solved = _solve_stack(M, -F[go])
        live = live[solved]
        z = z[solved] + delta[solved]
        Z[live] = z
        live = live[np.all(np.isfinite(z), axis=1) & (row_norms(z) <= 1e6)]
    return done, Z, f, phi, grad


def _solve_stack(M, rhs):
    """Solve the systems M[r] y = rhs[r] by one LAPACK call.  A singular
    matrix makes that call raise; the stack is then split into the rows
    whose LU has no zero pivot (a nonzero determinant), solved by one call
    again, and the others, each solved alone and failing only if its own
    matrix is singular.  Returns the solutions and the mask of the solved
    rows."""
    try:
        return np.linalg.solve(M, rhs[..., None])[..., 0], np.ones(len(M), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    y = np.zeros_like(rhs)
    ok = np.linalg.det(M) != 0
    y[ok] = np.linalg.solve(M[ok], rhs[ok][..., None])[..., 0]
    for r in np.flatnonzero(~ok):
        try:
            y[r] = np.linalg.solve(M[r], rhs[r])
            ok[r] = True
        except np.linalg.LinAlgError:
            pass
    return y, ok


def _kkt_residual(f, phi, grad_phi, lam, v):
    """KKT residual of (x, lam) at the node v, from f, phi and grad phi
    evaluated at (x, p); row by row when the arguments are stacked."""
    stat = f - v
    if not phi.shape[-1]:
        return row_norms(stat)
    stat = stat + np.matmul(lam[..., None, :], grad_phi)[..., 0, :]
    feas = np.max(np.clip(phi, 0.0, None), axis=-1)
    comp = np.max(np.abs(lam * phi), axis=-1)
    return row_norms(stat) + feas + comp


def _face_sweep(model, V, P, center, box_radius, tol_act):
    """Yield, node by node over the rows of (V, P), the merged solutions
    [(x, lam, residual), ...] of v in f(x, p) + N_{C(p)}(x) inside the
    sup-norm box around ``center``.

    Each active-set guess J is solved with phi_J = 0 and kept when
    lam >= 0, phi <= tol_act and x lies in the box.  When f and every phi
    are affine in x the system is linear: the data are evaluated by one
    batched call over the distinct parameter rows (row by row when it
    raises, so the error names the first failing row), and each guess is
    one batched lstsq over the nodes that share (jac_f, grad_phi),
    filtered by the linear residual.
    The tail then runs in array passes: the kept rows of every guess are
    stably sorted by node (each node keeps its discovery order), a node
    whose candidates all lie within 1e-7 of its first keeps that one (as
    :func:`_merge` would) and only the others go through ``_merge``, and
    one stacked KKT residual scores every kept copy.  Otherwise every
    (node, start) pair of the Newton multistart runs in
    :func:`_newton_sweep`, one stacked iteration per guess over chunks of
    nodes; the runs are filtered by the KKT residual, and per node the
    least-residual copy of each duplicate is kept, the runs taken guess by
    guess and start by start.
    """
    n, m = model.n, model.m
    # a solution has a multiplier with independent support (Caratheodory's
    # conic theorem), so guesses of more than n constraints add none
    guesses = [list(J) for J in subsets(range(m), "constraints", n)]
    if not (model.f_affine and all(model.affine_x)):
        yield from _newton_sweep(model, V, P, center, box_radius, tol_act, guesses)
        return
    N = V.shape[0]
    rows, which = np.unique(P, axis=0, return_inverse=True)
    which = which.reshape(-1)
    # f, jac_f, phi and grad_phi at (0, p), one entry per distinct p row
    try:
        F0, JF, C, GP = eval_bundle(model, np.zeros((len(rows), n)), rows).arrays()[:4]
    except (EvaluationError, ArithmeticError):
        # the point calls raise the error of the first failing row
        bundles = [eval_bundle(model, [0.0] * n, row) for row in rows]
        F0, JF, C, GP = (np.array([b.arrays()[i] for b in bundles]) for i in range(4))
    groups = {}
    for k, b in enumerate(which):
        groups.setdefault((JF[b].tobytes(), GP[b].tobytes()), []).append(k)
    found = []  # (nodes, x, lam) of the kept rows, guess by guess
    for nodes in map(np.array, groups.values()):
        Jf, G = JF[which[nodes[0]]], GP[which[nodes[0]]]
        f0, c = F0[which[nodes]], C[which[nodes]]
        for J in guesses:
            size = n + len(J)
            M = np.zeros((size, size))
            M[:n, :n] = Jf
            M[:n, n:] = G[J].T
            M[n:, :n] = G[J]
            rhs = np.zeros((len(nodes), size))
            rhs[:, :n] = V[nodes] - f0
            rhs[:, n:] = -c[:, J]
            sol = np.linalg.lstsq(M, rhs.T, rcond=None)[0].T
            X, lam_j = sol[:, :n], sol[:, n:]
            ok = (
                np.linalg.norm(rhs - sol @ M.T, axis=1)
                <= 1e-9 * (1 + np.linalg.norm(rhs, axis=1))
            )
            if J:
                ok &= np.min(lam_j, axis=1) >= -1e-9
            if m:
                ok &= np.max(X @ G.T + c, axis=1) <= tol_act
            ok &= np.max(np.abs(X - center), axis=1) <= box_radius + 1e-12
            lam = np.zeros((np.count_nonzero(ok), m))
            lam[:, J] = np.clip(lam_j[ok], 0.0, None)
            found.append((nodes[ok], X[ok], lam))
    # every node's candidates together, in discovery order (guess by guess)
    node, X, L = (np.concatenate(a) for a in zip(*found))
    order = np.argsort(node, kind="stable")
    node, X, L = node[order], X[order], L[order]
    start = np.searchsorted(node, np.arange(N + 1))
    # _merge keeps just the first candidate of a node whose candidates all
    # lie within 1e-7 of it; the other nodes go through _merge itself
    near = np.max(np.abs(X - X[start[node]]), axis=1) < 1e-7
    kept = [[start[k]] if start[k] < start[k + 1] else [] for k in range(N)]
    for k in np.unique(node[~near]):
        kept[k] = [s[2] for s in _merge([(X[i], L[i], i) for i in range(start[k], start[k + 1])])]
    # one stacked KKT residual over the kept candidates: f and phi are
    # affine in x, so the bundle at (0, p) gives their values at x
    idx = np.array([i for ks in kept for i in ks], dtype=int)
    at, x = which[node[idx]], X[idx, :, None]
    resid = np.zeros(len(node))
    resid[idx] = _kkt_residual(
        F0[at] + np.matmul(JF[at], x)[..., 0], C[at] + np.matmul(GP[at], x)[..., 0],
        GP[at], L[idx], V[node[idx]],
    )
    for ks in kept:
        yield [(X[i], L[i], float(resid[i])) for i in ks]


def _newton_sweep(model, V, P, center, box_radius, tol_act, guesses):
    """The curved branch of :func:`_face_sweep`.  Nodes run in chunks of
    1, 2, 4, ... nodes; within a chunk each guess J is one
    :func:`_newton_stack` over every (node, start) pair.  A consumer that
    stops at a node therefore wastes at most the rest of its chunk."""
    n, m = model.n, model.m
    starts = np.array(_newton_starts(center, box_radius, n))
    S = len(starts)

    def candidates(nodes):
        """The kept solutions [(x, lam, residual), ...] of each node, guess
        by guess and start by start."""
        found = [[] for _ in nodes]
        Vs, Ps = np.repeat(V[nodes], S, axis=0), np.repeat(P[nodes], S, axis=0)
        tol = [1e-8 * (1 + np.linalg.norm(v)) for v in V[nodes]]
        for J in guesses:
            Z0 = np.tile(np.hstack([starts, np.ones((S, len(J)))]), (len(nodes), 1))
            done, Z, f, phi, grad = _newton_stack(model, Vs, Ps, J, Z0)
            rows = np.flatnonzero(done)
            X, lam = Z[rows, :n], np.zeros((rows.size, m))
            lam[:, J] = Z[rows, n:]
            keep = np.max(np.abs(X - center), axis=1) <= box_radius + 1e-12
            if m:
                keep &= (np.min(lam, axis=1) >= -1e-9) & (np.max(phi[rows], axis=1) <= tol_act)
            rows, X, lam = rows[keep], X[keep], np.clip(lam[keep], 0.0, None)
            resid = _kkt_residual(f[rows], phi[rows], grad[rows], lam, Vs[rows])
            for r, x, l, res in zip(rows, X, lam, resid):
                if res <= tol[r // S]:
                    found[r // S].append((x, l, float(res)))
        return found

    def sweep(nodes):
        try:
            found = candidates(nodes)
        except (EvaluationError, ArithmeticError):
            # narrow the failure down to its node, after the nodes before it
            if len(nodes) == 1:
                raise
            h = len(nodes) // 2
            yield from sweep(nodes[:h])
            yield from sweep(nodes[h:])
            return
        for sols in found:
            # least KKT residual first, so _merge keeps that copy
            sols.sort(key=lambda s: s[2])
            yield _merge(sols)

    lo, size = 0, 1
    while lo < len(V):
        yield from sweep(range(lo, min(lo + size, len(V))))
        lo, size = lo + size, 2 * size


def _merge(solutions):
    """Keep the first of each group of solutions whose x agree to 1e-7;
    deterministic order by x."""
    merged = []
    for sol in solutions:
        if not any(np.max(np.abs(prev[0] - sol[0])) < 1e-7 for prev in merged):
            merged.append(sol)
    merged.sort(key=lambda s: tuple(np.round(s[0], 12)))
    return merged


def solve_faces(
    model: ParametricModel,
    v,
    p,
    box_center=None,
    box_radius: float = BOX_RADIUS,
) -> list:
    """All solutions of v in f(x, p) + N_{C(p)}(x) inside the sup-norm box,
    by the face sweep of ``build_localization`` on the single node (v, p).
    Deterministic order."""
    center = (
        np.asarray(box_center, dtype=float)
        if box_center is not None
        else (model.reference.as_arrays()[0] if model.reference else np.zeros(model.n))
    )
    V = np.asarray(v, dtype=float).reshape(1, model.n)
    P = np.asarray(p, dtype=float).reshape(1, model.d)
    merged = next(_face_sweep(model, V, P, center, box_radius, TOL_ACT))
    multiplicity = "unique-in-box" if len(merged) == 1 else (
        "multiple-found" if merged else "unknown"
    )
    return [
        SolveOutcome(
            x=x, lam=lam, residual=resid, iterations=0,
            method="face-enumeration", converged=True, multiplicity=multiplicity,
        )
        for x, lam, resid in merged
    ]


def _newton_starts(center, box_radius, n):
    """Deterministic multi-start stencil: center, box-axis points, and a
    few seeded interior draws, so distinct roots per face are all seen."""
    starts = [center.copy()]
    for i in range(n):
        for sign in (1.0, -1.0):
            s = center.copy()
            s[i] += sign * box_radius
            starts.append(s)
    rng = np.random.default_rng(12345)
    for _ in range(4):
        starts.append(center + box_radius * rng.uniform(-1, 1, size=n))
    return starts


# ---------------------------------------------------------------------------
# localization table


@dataclass
class LocalizationTable:
    v_nodes: np.ndarray  # (N, n)
    p_nodes: np.ndarray  # (N, d)
    x_values: np.ndarray  # (N, n)
    residuals: np.ndarray  # (N,)
    methods: list
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return self.v_nodes.shape[0]

    def to_csv(self) -> str:
        n = self.v_nodes.shape[1]
        d = self.p_nodes.shape[1]
        header = (
            [f"v{i + 1}" for i in range(n)]
            + [f"p{i + 1}" for i in range(d)]
            + [f"x{i + 1}" for i in range(n)]
            + ["residual", "method"]
        )
        # tolist gives Python floats, whose repr is that of each float(c)
        values = np.hstack(
            [self.v_nodes, self.p_nodes, self.x_values, self.residuals[:, None]]
        ).tolist()
        lines = [",".join(header)] + [
            ",".join(map(repr, row)) + "," + method for row, method in zip(values, self.methods)
        ]
        return "\n".join(lines) + "\n"


def _grid_nodes(ref_v, ref_p, rho_v, rho_p, grid_v, grid_p, n, d, n_random, seed):
    axes_v = [np.linspace(c - rho_v, c + rho_v, grid_v) for c in ref_v]
    v_mesh = (
        np.stack([g.ravel() for g in np.meshgrid(*axes_v, indexing="ij")], axis=1)
        if n
        else np.zeros((1, 0))
    )
    if d:
        axes_p = [np.linspace(c - rho_p, c + rho_p, grid_p) for c in ref_p]
        p_mesh = np.stack(
            [g.ravel() for g in np.meshgrid(*axes_p, indexing="ij")], axis=1
        )
    else:
        p_mesh = np.zeros((1, 0))
    V = np.repeat(v_mesh, p_mesh.shape[0], axis=0)
    P = np.tile(p_mesh, (v_mesh.shape[0], 1))
    rng = np.random.default_rng(seed)
    if n_random:
        Vr = ref_v + rho_v * rng.uniform(-1, 1, size=(n_random, n))
        Pr = (
            ref_p + rho_p * rng.uniform(-1, 1, size=(n_random, d))
            if d
            else np.zeros((n_random, 0))
        )
        V = np.vstack([V, Vr])
        P = np.vstack([P, Pr])
    return V, P


# solve_projected cross-checks of a table affine in x, spread over its nodes
_CROSS_CHECKS = 10


def build_localization(
    model: ParametricModel,
    ref: ReferenceTriple,
    rho_v: float = RHO_V,
    rho_p: float = RHO_P,
    grid_v: int = GRID_V,
    grid_p: int = GRID_P,
    n_random: int = RANDOM_NODES,
    box_radius: float = BOX_RADIUS,
    seed: int = SEED,
    tol_act: float = TOL_ACT,
) -> LocalizationTable:
    """Tabulate the single-valued localization on a tensor grid plus random
    interior nodes; radii halve (at most 6 times) when single-valuedness
    fails, and a LocalizationError with the witness node is raised when it
    keeps failing.  When the constraints are affine in x, one stacked
    ``solve_projected`` call from the reference x cross-checks the table
    at _CROSS_CHECKS nodes spread over it."""
    x0, p0, v0 = ref.as_arrays()
    n, d = model.n, model.d
    grid_nodes = grid_v**n * max(1, grid_p**d)
    if grid_nodes > MAX_GRID_NODES:
        raise DeskScaleError(
            f"localization grid of {grid_nodes} nodes exceeds the desk-scale cap "
            f"({MAX_GRID_NODES}); lower the grid sizes"
        )
    attempt_rho_v, attempt_rho_p = rho_v, rho_p
    last_witness = None
    for shrink in range(MAX_SHRINK + 1):
        V, P = _grid_nodes(
            v0, p0, attempt_rho_v, attempt_rho_p, grid_v, grid_p, n, d, n_random, seed
        )
        N = V.shape[0]
        table_x = np.zeros((N, n))
        resids = np.zeros(N)
        sweep = _face_sweep(model, V, P, x0, box_radius, tol_act)
        for k, merged in enumerate(sweep):
            if len(merged) != 1:
                last_witness = {
                    "v": V[k].tolist(),
                    "p": P[k].tolist(),
                    "solutions": len(merged),
                }
                break
            table_x[k], _, resids[k] = merged[0]
        else:
            agreements = []
            if all(model.affine_x):
                nodes = np.arange(0, N, max(1, N // _CROSS_CHECKS))
                outs = solve_projected(model, V[nodes], P[nodes], x0)
                agreements = [
                    float(np.max(np.abs(out.x - table_x[k])))
                    for k, out in zip(nodes, outs) if out.converged
                ]
            meta = {
                "rho_v": attempt_rho_v,
                "rho_p": attempt_rho_p,
                "grid_v": grid_v,
                "grid_p": grid_p,
                "n_random": n_random,
                "box_radius": box_radius,
                "seed": seed,
                "shrinks": shrink,
                "cross_check_max_gap": max(agreements) if agreements else None,
                "cross_checks": len(agreements),
            }
            return LocalizationTable(
                v_nodes=V, p_nodes=P, x_values=table_x,
                residuals=resids, methods=["face-enumeration"] * N, meta=meta,
            )
        attempt_rho_v *= 0.5
        attempt_rho_p *= 0.5
    raise LocalizationError(
        "no single-valued localization at the requested radii "
        f"(after {MAX_SHRINK} halvings)",
        witness=last_witness,
    )

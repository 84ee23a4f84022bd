"""Independent oracles shared by the test suite.

Each oracle deliberately avoids the code path it checks: derivatives are
verified by central finite differences, cone minimization by rejection
sampling, projections by Dykstra's alternating method, determinants by
cofactor expansion, the integer simplex by the Fraction tableau it
replaced (``fraction_simplex``), the exact CRCQ rank test by the sampled
rank probe it replaced (``crcq_by_sampling``, on the curv-k family and the
seeded models of ``random_crcq_model`` and ``curved_multiplier_model``),
the stacked Newton face sweep by one scalar Newton run per (node, guess,
start) on the unfolded expression trees, the array tail of the affine face
sweep by its per-node append, merge and score loop, the vertex minimum of
GSSOSC by a scan of points inside the multiplier polytope, the exact
uniform test off the polyhedral scope by graph sampling
(``gusosc_sequential``, on the seeded models of ``random_licq_model`` and
``random_crcq_model`` among others) and its limit under LICQ also by a
least-squares multiplier and one projected eigenvalue problem
(``licq_limit``), the pruned face sweep by the sweep over every active-set
guess (``full_face_sweep``), the stacked projection kernel by the one-row
Lawson-Hanson NNLS it replaced, the lockstep semismooth Newton cross-check
by its node-by-node loop and its solutions by the projected fixed-point
iteration it replaced, the one-walk inverse estimator by its two walks,
and the blocked pair kernel (the moduli fit, the pair inequality and the
monotonicity estimators) by the row-wise fit over whole gathered stacks,
with p-frozen groups from a dict on each node's bytes and an ell bisection
that counts violations over every pair (``fit_moduli_rowwise`` and its
helpers), with the closed-form ell checked bit for bit by
``fit_ell_closed_form_rowwise``; the reported moduli are held on every
pair of a table, not only the fit's subsample, by ``worst_pair_margin``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from fullstab import expr as ex
from fullstab.errors import DimensionError, EvaluationError
from fullstab.modelspec import EvalBundle, parse_model


def fd_gradient(fun, point, step=1e-5):
    """Central finite differences of a scalar function of one vector."""
    point = np.asarray(point, dtype=float)
    grad = np.zeros_like(point)
    for i in range(point.size):
        hi = point.copy()
        lo = point.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (fun(hi) - fun(lo)) / (2 * step)
    return grad


def fd_partial(e, kind, index, x, p, step=1e-5):
    """Central finite difference of one Expr partial derivative."""
    x = [float(c) for c in x]
    p = [float(c) for c in p]

    def at(delta):
        xs, ps = list(x), list(p)
        if kind == "x":
            xs[index] += delta
        else:
            ps[index] += delta
        return float(ex.evaluate(e, xs, ps))

    return (at(step) - at(-step)) / (2 * step)


def min_quadratic_on_cone_sampling(H, cone_contains, n, n_samples=100_000, seed=0):
    """Min of <Hw, w> over unit directions inside a cone, by rejection
    sampling: a global pass over ~60% of the budget plus shrinking local
    resampling rounds around the incumbent (brute force throughout, no
    eigen or face reasoning).  Returns (value, count_accepted_global);
    value is +inf when no sample lands in the cone."""
    rng = np.random.default_rng(seed)
    Hs = 0.5 * (H + H.T)

    def best_of(W):
        norms = np.linalg.norm(W, axis=1)
        W = W[norms > 1e-12] / norms[norms > 1e-12, None]
        keep = cone_contains(W)
        W = W[keep]
        if W.shape[0] == 0:
            return np.inf, None, 0
        vals = np.einsum("ij,jk,ik->i", W, Hs, W)
        k = int(np.argmin(vals))
        return float(vals[k]), W[k], int(W.shape[0])

    def repair(W, anchor):
        """Blend infeasible directions toward a feasible anchor until they
        enter the cone (bisection on the blend fraction)."""
        norms = np.linalg.norm(W, axis=1)
        W = W[norms > 1e-12] / norms[norms > 1e-12, None]
        feas = cone_contains(W)
        bad = W[~feas]
        if bad.shape[0] == 0:
            return W[feas]
        lo = np.zeros(bad.shape[0])
        hi = np.ones(bad.shape[0])
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            blend = (1 - mid)[:, None] * bad + mid[:, None] * anchor
            bn = np.linalg.norm(blend, axis=1)
            ok = np.zeros(bad.shape[0], dtype=bool)
            good = bn > 1e-12
            ok[good] = cone_contains(blend[good] / bn[good, None])
            hi[ok] = mid[ok]
            lo[~ok] = mid[~ok]
        blend = (1 - hi)[:, None] * bad + hi[:, None] * anchor
        bn = np.linalg.norm(blend, axis=1)
        repaired = blend[bn > 1e-12] / bn[bn > 1e-12, None]
        repaired = repaired[cone_contains(repaired)]
        return np.vstack([W[feas], repaired]) if repaired.size else W[feas]

    global_budget = int(0.5 * n_samples)
    W = rng.normal(size=(global_budget, n))
    norms = np.linalg.norm(W, axis=1)
    W = W[norms > 1e-12] / norms[norms > 1e-12, None]
    W = W[cone_contains(W)]
    count = int(W.shape[0])
    if count == 0:
        return np.inf, 0
    vals = np.einsum("ij,jk,ik->i", W, Hs, W)
    order = np.argsort(vals)
    # multi-start: up to 6 well-separated incumbents from the global pass
    starts = []
    for idx in order:
        w = W[idx]
        if all(np.linalg.norm(w - s) > 0.25 for s in starts):
            starts.append(w)
        if len(starts) == 8:
            break
    rounds = 16
    local_budget = max(200, (n_samples - global_budget) // (rounds * len(starts)))
    best_val = float(vals[order[0]])
    for start in starts:
        cur_w = start
        cur_val = float(cur_w @ Hs @ cur_w)
        sigma = 0.5
        for _ in range(rounds):
            cloud = cur_w[None, :] + sigma * rng.normal(size=(local_budget, n))
            candidates = repair(cloud, cur_w)
            if candidates.shape[0]:
                cv = np.einsum("ij,jk,ik->i", candidates, Hs, candidates)
                k = int(np.argmin(cv))
                if float(cv[k]) < cur_val:
                    cur_val, cur_w = float(cv[k]), candidates[k]
            sigma *= 0.5
        best_val = min(best_val, cur_val)
    return best_val, count


def dykstra_projection(A, b, z, iters=20_000):
    """Projection of z onto {x : A x <= b} by Dykstra's algorithm over the
    half-spaces.  Independent of any active-set reasoning."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    z = np.asarray(z, dtype=float)
    m = A.shape[0]
    if m == 0:
        return z.copy()
    x = z.copy()
    corrections = np.zeros((m, z.size))
    row_sq = np.einsum("ij,ij->i", A, A)
    for sweep in range(iters // m + 1):
        moved = 0.0
        for i in range(m):
            y = x + corrections[i]
            viol = A[i] @ y - b[i]
            if viol > 0 and row_sq[i] > 0:
                x_new = y - (viol / row_sq[i]) * A[i]
            else:
                x_new = y
            corrections[i] = y - x_new
            moved = max(moved, float(np.max(np.abs(x_new - x))))
            x = x_new
        if moved < 1e-14:
            break
    return x


def nnls_one_row(A, b):
    """Lawson-Hanson nonnegative least squares, min ||A x - b|| over
    x >= 0, one system at a time with ``lstsq`` on the passive columns.
    Returns (x, residual_norm)."""
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


def project_one_row(A, b, z):
    """Projection of z onto {x : A x <= b} by one :func:`nnls_one_row`
    call on the least-distance problem, with the Farkas test and the
    feasibility and complementarity checks of ``project_onto_rows``;
    raises as it does."""
    from fullstab.errors import InfeasibleSetError, SolveFailureError

    m, n = A.shape
    scale = 1.0 + float(np.linalg.norm(z)) + (float(np.max(np.abs(b))) if m else 0.0)
    feas_tol = 1e-9 * scale
    if m == 0 or np.all(A @ z <= b + feas_tol):
        return z.copy()
    E = np.vstack([-A.T, (A @ z - b)[None, :]])
    f = np.zeros(n + 1)
    f[n] = 1.0
    u, _ = nnls_one_row(E, f)
    r = E @ u - f
    if np.linalg.norm(r) <= 1e-9:
        raise InfeasibleSetError("constraint set is empty (no projection exists)")
    x = z - r[:n] / r[n]
    mu = u / -r[n]
    viol = A @ x - b
    feasible = np.all(viol <= feas_tol)
    complementary = np.all(mu * np.abs(viol) <= feas_tol * (1.0 + mu))
    if not (r[n] < 0 and feasible and complementary):
        raise SolveFailureError("projection failed its optimality check")
    return x


def solve_projected_per_node(model, v, p, x0, moduli=None, max_iter=5000):
    """The projected fixed-point iteration of ``visolver.solve_projected``
    on one node, one step at a time: the same step rule, halvings, stall
    rule and tolerance, with one-point ``eval_f`` and one-point
    ``project_onto_rows`` calls.  Returns (x, residual, iterations,
    converged)."""
    from fullstab.defaults import MAX_SHRINK
    from fullstab.modelspec import eval_f
    from fullstab.polycone import polyhedron_rows, project_onto_rows
    from fullstab.visolver import _PROJECTED_TOL

    v = np.asarray(v, dtype=float)
    p = np.asarray(p, dtype=float)
    x = np.asarray(x0, dtype=float).copy()
    estimated = moduli is not None and moduli[0] > 0 and moduli[1] > 0
    gamma = 0.9 * moduli[0] / moduli[1] ** 2 if estimated else 1e-2
    if model.m:
        A, b = polyhedron_rows(model, p)

    def step(xc):
        target = xc - gamma * (eval_f(model, xc, p) - v)
        return project_onto_rows(A, b, target) if model.m else target

    halvings, best_resid, stall, iterations = 0, np.inf, 0, 0
    for it in range(1, max_iter + 1):
        iterations = it
        x_next = step(x)
        resid = float(np.linalg.norm(x_next - x))
        x = x_next
        if resid < _PROJECTED_TOL * (1.0 + float(np.linalg.norm(x))):
            return x, resid, it, True
        if np.all(np.isfinite(x)) and resid <= 1e6:
            if resid < best_resid * (1 - 1e-12):
                best_resid, stall = resid, 0
                continue
            stall += 1
            if stall <= 200:
                continue
        halvings += 1
        if halvings > MAX_SHRINK:
            break
        gamma *= 0.5
        x = np.asarray(x0, dtype=float).copy()
        best_resid, stall = np.inf, 0
    return x, float(np.linalg.norm(step(x) - x)), iterations, False


def semismooth_newton_per_node(model, v, p, x0):
    """The semismooth Newton rule of ``visolver.solve_projected`` on one
    node, one step at a time: the natural map from one-point
    ``eval_bundle`` and one-point ``project_onto_rows`` calls, the Newton
    matrix Q + (I - Q) J_f from the row-space projector of the tight rows,
    one ``np.linalg.solve`` per Newton step (the step -F where that matrix
    is rank-deficient), the step halved until the residual falls, and the
    same tolerance and step cap.  Returns (x, residual, iterations,
    converged)."""
    from fullstab.modelspec import eval_bundle
    from fullstab.polycone import polyhedron_rows, project_onto_rows, rank, row_space_projectors
    from fullstab.visolver import _NEWTON_STEPS, _PROJECTED_TOL

    v = np.asarray(v, dtype=float)
    p = np.asarray(p, dtype=float)
    n = model.n
    A, b = polyhedron_rows(model, p)
    x = y = np.asarray(x0, dtype=float).copy()
    best, d, t, solves = np.inf, np.zeros(n), 1.0, 0
    for _ in range(_NEWTON_STEPS):
        trial = x if best == np.inf else x + t * d
        bundle = eval_bundle(model, trial, p)
        z = trial - (bundle.f - v)
        proj, tight = project_onto_rows(A, b, z, tight=True)
        F = trial - proj
        resid = float(np.linalg.norm(F))
        if not resid < best:
            if best == np.inf:
                return x, best, solves, False
            t *= 0.5
            continue
        x, y, best = trial, proj, resid
        if resid < _PROJECTED_TOL * (1.0 + float(np.linalg.norm(proj))):
            return y, resid, solves, True
        Q = row_space_projectors((A * tight[:, None])[None])[0]
        M = Q + (np.eye(n) - Q) @ bundle.jac_f
        solves += 1
        try:
            d = np.linalg.solve(M, -F) if rank(M) == n else -F
        except np.linalg.LinAlgError:
            return y, best, solves, False
        if not np.all(np.isfinite(d)):
            return y, best, solves, False
        t = 1.0
    return y, best, solves, False


def cofactor_det(M):
    """Exact determinant by cofactor expansion (Fractions)."""
    size = len(M)
    if size == 0:
        return Fraction(1)
    if size == 1:
        return Fraction(M[0][0])
    total = Fraction(0)
    for j in range(size):
        if M[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in M[1:]]
        sign = -1 if j % 2 else 1
        total += sign * Fraction(M[0][j]) * cofactor_det(minor)
    return total


def fraction_simplex(c, A, b):
    """Minimize c.x s.t. A x = b, x >= 0 by the two-phase simplex with
    Bland's rule on a tableau of Fractions, each pivot dividing its row:
    the exact path of ``solve_standard_lp`` before it moved to integers.
    Returns (status, x, value), x and value None unless optimal."""
    m, n = len(A), len(c)
    full = []
    for i, (row, rhs) in enumerate(zip(A, b)):
        sign = -1 if rhs < 0 else 1  # rows with b_i < 0 are negated first
        full.append(
            [sign * Fraction(v) for v in row]
            + [Fraction(int(j == i)) for j in range(m)]
            + [sign * Fraction(rhs)]
        )
    basis = list(range(n, n + m))
    cost1 = [Fraction(0)] * n + [Fraction(1)] * m
    _fraction_bland(full, basis, cost1, n + m)  # phase 1 is bounded
    if sum(cost1[bi] * row[-1] for bi, row in zip(basis, full)) > 0:
        return "infeasible", None, None
    for i in range(m):
        if basis[i] >= n:  # drive the artificial out on its first nonzero entry
            col = next((j for j in range(n) if full[i][j] != 0), None)
            if col is not None:
                _fraction_pivot(full, basis, i, col)
    keep = [i for i in range(m) if basis[i] < n]  # the others are redundant rows
    rows = [full[i][:n] + [full[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    cost = [Fraction(v) for v in c]
    if not _fraction_bland(rows, basis, cost, n):
        return "unbounded", None, None
    x = [Fraction(0)] * n
    for bi, row in zip(basis, rows):
        x[bi] = row[-1]
    return "optimal", x, sum(ci * xi for ci, xi in zip(cost, x))


def _fraction_bland(rows, basis, cost, ncols):
    """Bland's rule on a feasible Fraction tableau: the first column with a
    negative reduced cost enters, the least ratio leaves (ties to the least
    basic index).  False when the LP is unbounded."""
    while True:
        red = [
            cost[j] - sum(cost[bi] * row[j] for bi, row in zip(basis, rows))
            for j in range(ncols)
        ]
        enter = next((j for j in range(ncols) if red[j] < 0), None)
        if enter is None:
            return True
        ratios = [
            (row[-1] / row[enter], basis[i], i) for i, row in enumerate(rows) if row[enter] > 0
        ]
        if not ratios:
            return False
        _fraction_pivot(rows, basis, min(ratios)[2], enter)


def _fraction_pivot(rows, basis, leave, enter):
    rows[leave] = [v / rows[leave][enter] for v in rows[leave]]
    for i, row in enumerate(rows):
        if i != leave and row[enter] != 0:
            rows[i] = [v - row[enter] * w for v, w in zip(row, rows[leave])]
    basis[leave] = enter


def random_polynomial_expr(rng, n, d, depth=3):
    """Random polynomial expression tree over declared variables."""
    if depth == 0 or rng.random() < 0.3:
        choice = rng.random()
        if choice < 0.4 and n > 0:
            return ex.Var("x", int(rng.integers(n)))
        if choice < 0.55 and d > 0:
            return ex.Var("p", int(rng.integers(d)))
        return ex.Num(Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5))))
    op = rng.random()
    left = random_polynomial_expr(rng, n, d, depth - 1)
    right = random_polynomial_expr(rng, n, d, depth - 1)
    if op < 0.35:
        return ex.Add(left, right)
    if op < 0.55:
        return ex.Sub(left, right)
    if op < 0.8:
        return ex.Mul(left, right)
    if op < 0.9:
        return ex.Neg(left)
    return ex.Pow(left, int(rng.integers(2, 4)))


def _null_basis(M, n, tol=1e-10):
    """Orthonormal columns spanning {z in R^n : M z = 0}, by numpy SVD."""
    M = np.asarray(M, dtype=float).reshape(-1, n)
    if M.shape[0] == 0:
        return np.eye(n)
    _, s, vt = np.linalg.svd(M)
    r = int(np.sum(s > tol * max(1.0, s[0])))
    return vt[r:].T


def uniform_value_oracle(H, G, B, supports, n_samples=20_000, reach_samples=2_000, seed=0):
    """Uniform second-order value of polyhedral data at a reference, by
    sampling alone (no LP, no face enumeration of cones).

    ``G`` (k x n) and ``B`` (k x d) hold the x- and p-gradients of the k
    active constraints, ``supports`` the supports of the reference
    multiplier vertices (tuples of row positions).  A face I is reachable
    when some (w, dp) drawn from the null space of [G_I | B_I] has
    G_r w + B_r dp < 0 on every other active row r.  Each cone {u : G_J u =
    0, G_i u >= 0 for i in I outside J} is searched with
    :func:`min_quadratic_on_cone_sampling` inside the null space of G_J;
    a cone whose inequality rows force a further equality has no interior
    there and reads as {0}.  Returns the minimum over reachable faces I and
    supports J inside I (+inf when every cone is {0})."""
    G = np.asarray(G, dtype=float)
    k, n = G.shape
    GB = np.hstack([G, np.asarray(B, dtype=float).reshape(k, -1)])
    Hs = 0.5 * (np.asarray(H, dtype=float) + np.asarray(H, dtype=float).T)
    rng = np.random.default_rng(seed)
    best = np.inf
    for mask in range(1 << k):
        I = [i for i in range(k) if mask >> i & 1]
        inside = [J for J in supports if set(J) <= set(I)]
        if not inside:
            continue
        rest = [r for r in range(k) if r not in I]
        if rest:
            N = _null_basis(GB[I], GB.shape[1])
            if N.shape[1] == 0:
                continue
            Z = rng.normal(size=(reach_samples, N.shape[1])) @ N.T
            if not np.any(np.all(Z @ GB[rest].T < -1e-9, axis=1)):
                continue
        for J in inside:
            N = _null_basis(G[list(J)], n)
            if N.shape[1] == 0:
                continue
            weak = G[[i for i in I if i not in J]] @ N

            def contains(W, weak=weak):
                return np.all(W @ weak.T >= -1e-9, axis=1)

            value, _ = min_quadratic_on_cone_sampling(
                N.T @ Hs @ N, contains, N.shape[1], n_samples=n_samples, seed=seed
            )
            best = min(best, value)
    return best


def newton_face_sweep(model, V, P, starts, box_radius, center, tol_act=1e-7):
    """The curved face sweep one pair at a time: for each node (v, p) of
    the rows of (V, P), each active-set guess J and each start, a scalar
    Newton run on phi_J = 0 with every point evaluated by ``expr.evaluate``
    on the model's unfolded trees.  A run stops on convergence
    (||F|| < 1e-12 (1 + ||v||)), a singular matrix, a non-finite or > 1e6
    iterate, or 60 steps.  Runs are kept when lam >= 0, phi <= tol_act, x
    is in the box and the KKT residual is at most 1e-8 (1 + ||v||); the
    kept runs of a node, least residual first, are merged on x to 1e-7.
    Returns [(x, lam, residual), ...] per node, ordered by x."""
    n, m = model.n, model.m
    guesses = [list(J) for r in range(m + 1) for J in itertools.combinations(range(m), r)]
    out = []
    for v, p in zip(V, P):
        found = []
        for J in guesses:
            for start in starts:
                run = _newton_run(model, v, p, J, start)
                if run is None:
                    continue
                x, lam_j, f, phi, grad = run
                lam = np.zeros(m)
                lam[J] = lam_j
                if m and (np.min(lam) < -1e-9 or np.max(phi) > tol_act):
                    continue
                if np.max(np.abs(x - center)) > box_radius + 1e-12:
                    continue
                lam = np.clip(lam, 0.0, None)
                stat = f - v
                resid = float(np.linalg.norm(stat))
                if m:
                    stat = stat + grad.T @ lam
                    resid = (
                        float(np.linalg.norm(stat))
                        + float(np.max(np.clip(phi, 0.0, None)))
                        + float(np.max(np.abs(lam * phi)))
                    )
                if resid <= 1e-8 * (1 + np.linalg.norm(v)):
                    found.append((x, lam, resid))
        found.sort(key=lambda s: s[2])
        merged = []
        for sol in found:
            if not any(np.max(np.abs(prev[0] - sol[0])) < 1e-7 for prev in merged):
                merged.append(sol)
        merged.sort(key=lambda s: tuple(np.round(s[0], 12)))
        out.append(merged)
    return out


def face_sweep_per_node(model, V, P, center, box_radius, tol_act=1e-7):
    """The affine face sweep with its tail node by node: the same batched
    lstsq per (group, guess), then every accepted row appended to its
    node's list one at a time, each node's list merged by
    ``visolver._merge`` and each kept copy scored by its own
    ``_kkt_residual`` call, with f + J_f x and phi + grad phi x formed
    from that node's bundle at (0, p).  Returns [(x, lam, residual), ...]
    per node."""
    from fullstab.modelspec import eval_bundle
    from fullstab.visolver import _kkt_residual, _merge

    n, m = model.n, model.m
    guesses = [list(J) for r in range(m + 1) for J in itertools.combinations(range(m), r)]
    rows, which = np.unique(P, axis=0, return_inverse=True)
    bundles = [eval_bundle(model, [0.0] * n, row) for row in rows]
    node_bundles = [bundles[b] for b in which.reshape(-1)]
    groups = {}
    for k, bundle in enumerate(node_bundles):
        key = (bundle.jac_f.tobytes(), bundle.grad_phi.tobytes())
        groups.setdefault(key, []).append(k)
    found = [[] for _ in range(len(V))]
    for nodes in groups.values():
        Jf, G = node_bundles[nodes[0]].jac_f, node_bundles[nodes[0]].grad_phi
        f0 = np.array([node_bundles[k].f for k in nodes])
        c = np.array([node_bundles[k].phi for k in nodes]).reshape(len(nodes), m)
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
            for i in np.flatnonzero(ok):
                lam = np.zeros(m)
                lam[J] = np.clip(lam_j[i], 0.0, None)
                found[nodes[i]].append((X[i], lam))
    out = []
    for k, b in enumerate(node_bundles):
        out.append([
            (x, lam, float(_kkt_residual(
                b.f + b.jac_f @ x, b.phi + b.grad_phi @ x, b.grad_phi, lam, V[k]
            )))
            for x, lam in _merge(found[k])
        ])
    return out


def _newton_run(model, v, p, J, start, max_iter=60):
    n, k = model.n, len(J)
    z = np.concatenate([start, np.ones(k)])
    p = [float(c) for c in p]
    for _ in range(max_iter):
        x = [float(c) for c in z[:n]]

        def ev(table):
            return np.array([float(ex.evaluate(e, x, p)) for e in table])

        f, phi = ev(model.f_components), ev(model.constraints)
        jac = np.array([ev(row) for row in model.f_jac]).reshape(n, n)
        grad = np.array([ev(row) for row in model.grad_phi]).reshape(-1, n)
        hess = [np.array([ev(row) for row in rows]).reshape(n, n) for rows in model.hess_phi]
        F = np.zeros(n + k)
        F[:n] = f - v
        JL = jac.copy()
        for idx, i in enumerate(J):
            F[:n] += z[n + idx] * grad[i]
            F[n + idx] = phi[i]
            JL += z[n + idx] * hess[i]
        if np.linalg.norm(F) < 1e-12 * (1 + np.linalg.norm(v)):
            return z[:n], z[n:], f, phi, grad
        M = np.zeros((n + k, n + k))
        M[:n, :n] = JL
        for idx, i in enumerate(J):
            M[:n, n + idx] = grad[i]
            M[n + idx, :n] = grad[i]
        try:
            z = z + np.linalg.solve(M, -F)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(z)) or np.linalg.norm(z) > 1e6:
            return None
    return None


def polar_from_generators(K):
    """Polar {z : <z, w> <= 0 for all w in K} of a cone, built from its
    generators (rays, lineality) by Farkas duality: z is in the polar iff
    <z, r> <= 0 on every ray and <z, l> = 0 on every lineality vector."""
    from fullstab.polycone import ConeDesc

    rays, lin = K.generators()
    return ConeDesc(
        K.n,
        E=lin.T if lin.shape[1] else None,
        G=rays if rays.shape[0] else None,
    )


def gssosc_by_scan(bundle, vertices, scan_random=64, seed=0, tol_cq=1e-8):
    """The strong second-order value over a finite scan of the multiplier
    polytope with the given vertices: the vertices, every edge midpoint and
    ``scan_random`` Dirichlet combinations of the vertices.

    At each scanned lam the value is the smallest eigenvalue of the
    symmetric part of jac_f + sum lam_i hess phi_i on the null space of the
    gradients with lam_i > tol_cq (+inf when that space is {0}), assembled
    from the float bundle with numpy alone.  Returns [(lam, value)]."""
    V = np.array([[float(c) for c in vert] for vert in vertices])
    lams = list(V) + [(a + b) / 2 for a, b in itertools.combinations(V, 2)]
    if len(V) > 1:
        rng = np.random.default_rng(seed)
        lams += list(rng.dirichlet(np.ones(len(V)), size=scan_random) @ V)
    grads = np.asarray(bundle.grad_phi, dtype=float)
    jac = np.asarray(bundle.jac_f, dtype=float)
    hess = np.asarray(bundle.hess_phi, dtype=float)
    n = jac.shape[0]
    scanned = []
    for lam in lams:
        H = jac + np.tensordot(lam, hess, axes=1)
        N = _null_basis(grads[lam > tol_cq], n)
        value = np.inf
        if N.shape[1]:
            value = float(np.linalg.eigvalsh(N.T @ (0.5 * (H + H.T)) @ N)[0])
        scanned.append((lam, value))
    return scanned


def _ball(rng, dim, radius):
    """A point of the centred ball of ``radius`` in R^dim, uniform in
    volume."""
    if dim == 0:
        return np.zeros(0)
    raw = rng.normal(size=dim)
    norm = np.linalg.norm(raw)
    if norm == 0:
        return np.zeros(dim)
    return raw / norm * radius * rng.uniform() ** (1.0 / dim)


def crcq_by_sampling(model, bundle, I, x, p, samples=50, seed=0, radius=1e-2):
    """CRCQ at (x, p), whose float bundle is ``bundle`` with active set I,
    by the sampled rank probe the exact test replaced: ``samples`` points
    of the ball of ``radius`` around (x, p), all in one batched
    evaluation, and every nonempty subfamily's rank at each compared with
    its rank at (x, p).  It can falsify but never prove: it returns a
    CQReport 'corroborated', or 'fails' with a witness subset and point.
    A rank jump too small to clear the rank cutoff inside the ball goes
    unseen."""
    from fullstab.kkt import CQReport
    from fullstab.modelspec import eval_bundle
    from fullstab.polycone import rank, subsets

    families = subsets(I, "active constraints")
    next(families)  # the empty family has rank 0 everywhere
    x0 = np.array([float(c) for c in x])
    p0 = np.array([float(c) for c in p])
    rng = np.random.default_rng(seed)
    xs, ps = [], []
    for _ in range(samples):
        dx = rng.normal(size=model.n)
        dp = rng.normal(size=model.d) if model.d else np.zeros(0)
        norm = np.linalg.norm(np.concatenate([dx, dp]))
        if norm > 0:
            shift = radius * rng.uniform() / norm
            xs.append(x0 + shift * dx)
            ps.append(p0 + shift * dp)
    xs, ps = np.array(xs), np.array(ps).reshape(len(xs), model.d)
    grads = [bundle.grad_phi, *eval_bundle(model, xs, ps).grad_phi]
    for subset in families:
        base_rank = rank(grads[0][list(subset)])
        for k in range(1, len(grads)):
            rank_k = rank(grads[k][list(subset)])
            if rank_k != base_rank:
                return CQReport(
                    "CRCQ",
                    "fails",
                    {
                        "active_set": [i + 1 for i in I],
                        "subset": [i + 1 for i in subset],
                        "rank_at_center": base_rank,
                        "rank_at_witness": rank_k,
                        "witness_x": [float(v) for v in xs[k - 1]],
                        "witness_p": [float(v) for v in ps[k - 1]],
                    },
                )
    return CQReport(
        "CRCQ",
        "corroborated",
        {"active_set": [i + 1 for i in I], "samples": samples, "radius": radius},
    )


def gusosc_draws(model, ref, ms, eta, seed):
    """The fixed-width draw stream of the sampled uniform test, one attempt
    at a time: (p, x, base vertex index, m uniforms in [-1, 1]), the same
    variates whatever becomes of the attempt."""
    x0, p0, _ = ref.as_arrays()
    rng = np.random.default_rng(seed)
    while True:
        p = p0 + _ball(rng, model.d, eta / 4.0)
        x = x0 + _ball(rng, model.n, eta / 4.0)
        yield p, x, rng.integers(len(ms.vertices)), rng.uniform(-1.0, 1.0, size=model.m)


def gusosc_sequential(model, ref, ms, eta, samples, seed, tol_pd=1e-8, tol_act=1e-7):
    """The uniform test sampled on the solution-map graph, as a plain
    per-attempt loop over :func:`gusosc_draws`: each attempt is evaluated
    at its own point, projected onto the linearized constraints at most 8
    times, judged from its last evaluation (x and v within eta of the
    reference, MFCQ), and every multiplier vertex of an accepted sample
    gets its own cone minimization.  Its modulus is a minimum over graph
    points within eta, so it lies O(eta) from the limits that
    ``check_gusosc`` decides exactly.  Returns a SecondOrderReport
    ('corroborated' or 'fails')."""
    from fullstab.errors import (
        DegenerateSampleError,
        InfeasiblePointError,
        InfeasibleSetError,
        SolveFailureError,
    )
    from fullstab.kkt import _multipliers, check_mfcq, strict_complement
    from fullstab.modelspec import eval_bundle
    from fullstab.polycone import active_indices, project_onto_rows, rank
    from fullstab.secondorder import QuadForm, SecondOrderReport, min_on_cone, mixed_sign_cone

    pool = ms.vertices_float()
    x0, _, v0 = ref.as_arrays()
    noise = eta / (8.0 * max(1, model.m))
    ell, witness, faces = np.inf, {}, {}
    accepted = attempts = failures = cones = 0
    draws = gusosc_draws(model, ref, ms, eta, seed)
    while accepted < samples and attempts < 80 * samples:
        attempts += 1
        p, x, pick, u = next(draws)
        bundle = eval_bundle(model, x, p)
        try:
            for _ in range(8):
                if np.max(bundle.phi, initial=-np.inf) <= tol_act:
                    break
                G = bundle.grad_phi
                x = project_onto_rows(G, G @ x - bundle.phi, x)
                bundle = eval_bundle(model, x, p)
            active = active_indices(bundle.phi, tol_act)
        except (InfeasiblePointError, InfeasibleSetError, SolveFailureError):
            continue
        if np.linalg.norm(x - x0) > eta:
            continue
        lam = np.zeros(model.m)
        for i in active:
            lam[i] = max(0.0, pool[pick][i] + noise * u[i])
        v = bundle.f + bundle.grad_phi.T @ lam
        if np.linalg.norm(v - v0) > eta:
            continue
        if rank(bundle.grad_phi[list(active)]) < len(active) and not check_mfcq(bundle, active).ok:
            failures += 1
            continue
        accepted += 1
        faces[active] = faces.get(active, 0) + 1
        for vert in _multipliers(bundle, active, v).vertices:
            strong = strict_complement(vert, active)
            cone = mixed_sign_cone(bundle.grad_phi, active, strong, model.n)
            val, w = min_on_cone(QuadForm(bundle.lagrangian_jacobian(vert)), cone)
            cones += 1
            if val < ell:
                ell = val
                witness = {
                    "x": [float(c) for c in x],
                    "p": [float(c) for c in p],
                    "v": [float(c) for c in v],
                    "lambda": [float(c) for c in vert],
                    "direction": None if w is None else [float(c) for c in w],
                    "value": None if not np.isfinite(val) else val,
                }
    if accepted == 0:
        raise DegenerateSampleError(f"no samples accepted in {attempts} attempts")
    details = {
        "eta": eta,
        "samples_accepted": accepted,
        "samples_requested": samples,
        "attempts": attempts,
        "mfcq_failures": failures,
        "cones_evaluated": cones,
        "all_cones_trivial": not np.isfinite(ell),
        "faces": [{"active_set": [i + 1 for i in I], "samples": c} for I, c in faces.items()],
    }
    verdict = "corroborated" if ell > tol_pd else "fails"
    return SecondOrderReport("GUSOSC", verdict, ell, witness, details)


def linear_form(coeffs):
    """Model-file text of sum_j c_j x_(j+1)."""
    return " + ".join(f"{c}*x{j + 1}" for j, c in enumerate(coeffs))


def random_licq_model(rng):
    """Random model off the polyhedral scope (f has a cubic term) with one
    to three constraints, curved in x and moving with p, each active at the
    reference x = 0, p = 0 or not; the active gradients are independent
    (LICQ holds), and the reference multiplier is random on them, 0, 1/2
    or 1 each, so constraints may be strongly or weakly active."""
    n, d = int(rng.integers(1, 4)), int(rng.integers(0, 3))
    m = int(rng.integers(1, 4))
    jac = rng.integers(-2, 3, size=(n, n)) + 2 * np.eye(n, dtype=int)
    rows = [linear_form(row) + f" + x{j + 1}^3" for j, row in enumerate(jac)]
    if d:
        rows[0] += " + p1"
    active = rng.permutation(m)[: int(rng.integers(0, min(m, n) + 1))]
    G = np.linalg.qr(rng.normal(size=(n, n)))[0][: len(active)]
    v = np.zeros(n, dtype=object)
    lines = [f"dims n={n} d={d}", "f = (" + ", ".join(rows) + ")"]
    grads = iter(G)
    for i in range(m):
        if i in active:
            g = [Fraction(c).limit_denominator(8) for c in next(grads)]
            lam = Fraction(int(rng.integers(0, 3)), 2)
            v = v + np.array([lam * c for c in g], dtype=object)
            shift = ""
        else:
            g = [Fraction(int(c)) for c in rng.integers(-2, 3, size=n)]
            shift = " - 1"
        curve = " + ".join(
            f"{int(rng.integers(-2, 3))}*x{a + 1}*x{b + 1}" for a in range(n) for b in range(a, n)
        )
        moving = f" + {int(rng.integers(-1, 2))}*p{d}" if d else ""
        linear = linear_form([f"({c})" for c in g])
        lines.append(f"constraint {linear} + {curve}{moving}{shift} <= 0")
    x, p = ", ".join(["0"] * n), ", ".join(["0"] * d)
    lines.append(f"reference x=({x}) p=({p}) v=(" + ", ".join(str(c) for c in v) + ")")
    return parse_model("\n".join(lines) + "\n")


def curved_multiplier_model(rng):
    """Random model with k curved constraints active at x = 0 whose
    gradients span only r < n directions, k - r >= 2, and a reference
    multiplier with full support: dim Lambda = k - r >= 2 and the
    Lagrangian Jacobian depends on lam through the constraint Hessians.
    Every gradient has first entry >= 1, so MFCQ holds along -e1 and Lambda
    is bounded.  About half the models make the first gradient equal to v,
    which gives a vertex with support {1}, smaller than the others' when
    r >= 2."""
    n = int(rng.integers(3, 5))
    r = int(rng.integers(1, n))
    k = r + 2 + int(rng.integers(0, 2))
    grads = np.zeros((k, n), dtype=int)
    grads[:, 0] = rng.integers(1, 4, size=k)
    grads[:, 1:r] = rng.integers(-3, 4, size=(k, r - 1))
    weights = rng.integers(1, 4, size=k)
    if rng.integers(2):
        grads[0] = grads[1:].T @ weights[1:]
        weights[0] = 0
    v = grads.T @ weights  # f(0) = 0
    jac = rng.integers(-2, 3, size=(n, n)) + 2 * np.eye(n, dtype=int)
    lines = [f"dims n={n} d=0", "f = (" + ", ".join(linear_form(row) for row in jac) + ")"]
    for g in grads:
        curvature = " + ".join(
            f"{int(rng.integers(-3, 4))}*x{a + 1}*x{b + 1}"
            for a in range(n) for b in range(a, n)
        )
        lines.append(f"constraint {linear_form(g)} + {curvature} <= 0")
    lines.append(
        "reference x=(" + ", ".join(["0"] * n) + ") p=() v=("
        + ", ".join(str(int(c)) for c in v) + ")"
    )
    return parse_model("\n".join(lines) + "\n")


def random_crcq_model(rng):
    """Random model off the polyhedral scope in the family of ``curv``:
    n = 2 and three to five curved constraints s_j x2 - x1 + c_j (x1^2 +
    x2^2) <= 0 active at the reference x = 0, with distinct slopes s_j, so
    the active gradients are pairwise independent: MFCQ holds along e1,
    every subfamily keeps its rank near 0 (CRCQ) and LICQ fails.  Maybe one
    more constraint is inactive.  The constraints are free of p, which
    enters f only; jac_f is a I plus a skew part plus the derivative of
    cubic terms, and v is 0 or lam times the gradient of largest slope, so
    Lambda is one vertex, with empty support or with the constraint whose
    face {j} is reached along its tangent.  The forms are multiples of I
    at the reference, so a sampled face within the active tolerance of the
    reference gives the value of the face it rounds to."""
    d = int(rng.integers(0, 3))
    a, b = Fraction(int(rng.integers(2, 5)), 2), int(rng.integers(-1, 2))
    rows = [f"{a}*x1 + {b}*x2 + x1^3/4", f"{-b}*x1 + {a}*x2 + x2^3/4"]
    for l in range(d):
        rows[l % 2] += f" + p{l + 1}"
    k = int(rng.integers(3, 6))
    slopes = rng.choice([Fraction(c, 2) for c in range(-4, 5)], size=k, replace=False)
    lines = [f"dims n=2 d={d}", "f = (" + ", ".join(rows) + ")"]
    for s in slopes:
        c = Fraction(int(rng.integers(-1, 3)), 2)
        lines.append(f"constraint -x1 + ({s})*x2 + ({c})*(x1^2 + x2^2) <= 0")
    if rng.integers(2):
        lines.append(f"constraint {linear_form(rng.integers(-2, 3, size=2))} + x1^2 - 1 <= 0")
    lam = Fraction(int(rng.integers(0, 3)), 2)
    v = [-lam, lam * max(slopes)]
    p = ", ".join(["0"] * d)
    lines.append(f"reference x=(0, 0) p=({p}) v=({v[0]}, {v[1]})")
    return parse_model("\n".join(lines) + "\n")


def full_face_sweep(model, V, P, center, box_radius, tol_act=1e-7):
    """The curved face sweep over every active-set guess, all 2^m of them,
    as it ran before guesses were capped at n constraints: the stacked
    Newton multistart of ``visolver._newton_sweep`` handed the full list.
    Returns [(x, lam, residual), ...] per node."""
    from fullstab.visolver import _newton_sweep

    m = model.m
    guesses = [list(J) for r in range(m + 1) for J in itertools.combinations(range(m), r)]
    return list(_newton_sweep(model, V, P, center, box_radius, tol_act, guesses))


def licq_limit(bundle, active, v, tol_cq=1e-8):
    """The limit of the uniform second-order value under LICQ at the point
    of a float ``bundle`` with active set ``active`` and reference ``v``,
    assembled with numpy alone: the unique multiplier solves grad
    phi_active^T lam = v - f by least squares (no vertex enumeration), I+
    is where lam > tol_cq, and the value is the least eigenvalue of the
    symmetric part of jac_f + sum lam_i hess phi_i on the null space of the
    I+ gradients (+inf when that space is {0}).  Returns (value, I+ as
    1-based labels)."""
    grads = np.asarray(bundle.grad_phi, dtype=float)
    lam = np.zeros(len(grads))
    if len(active):
        rhs = np.asarray(v, dtype=float) - np.asarray(bundle.f, dtype=float)
        lam[list(active)] = np.linalg.lstsq(grads[list(active)].T, rhs, rcond=None)[0]
    strong = [i for i in active if lam[i] > tol_cq]
    hess = np.asarray(bundle.hess_phi, dtype=float)
    H = np.asarray(bundle.jac_f, dtype=float) + np.tensordot(lam, hess, axes=1)
    N = _null_basis(grads[strong], H.shape[0])
    value = np.inf
    if N.shape[1]:
        value = float(np.linalg.eigvalsh(N.T @ (0.5 * (H + H.T)) @ N)[0])
    return value, [i + 1 for i in strong]


def _pair_indices_rowwise(count):
    """Every i < j of range(count), or the capped subsample of
    ``stabharness`` (seed 0, ``PAIR_CAP`` draws of each end)."""
    from fullstab.defaults import PAIR_CAP

    if count * (count - 1) // 2 <= PAIR_CAP:
        return np.triu_indices(count, k=1)
    rng = np.random.default_rng(0)
    ii = rng.integers(0, count, size=PAIR_CAP)
    jj = rng.integers(0, count, size=PAIR_CAP)
    keep = ii != jj
    return np.minimum(ii[keep], jj[keep]), np.maximum(ii[keep], jj[keep])


def pair_terms_rowwise(table, kappa):
    """(ii, jj, lhs, ||dv||, d_p) over the table's (capped) pairs, from
    whole (P, n) stacks gathered by fancy indexing."""
    ii, jj = _pair_indices_rowwise(len(table))
    dv = table.v_nodes[ii] - table.v_nodes[jj]
    dx = table.x_values[ii] - table.x_values[jj]
    dp = (
        np.linalg.norm(table.p_nodes[ii] - table.p_nodes[jj], axis=1)
        if table.p_nodes.shape[1]
        else np.zeros(ii.size)
    )
    lhs = np.linalg.norm(dv - 2.0 * kappa * dx, axis=1)
    return ii, jj, lhs, np.linalg.norm(dv, axis=1), dp


def verify_inequality_rowwise(table, kappa, ell, exponent=1.0):
    """The pair inequality checked over whole stacks: the worst 20
    violations and their count, as ``verify_inequality`` reports them."""
    from fullstab.defaults import TOL_INEQ

    ii, jj, lhs, base, dp = pair_terms_rowwise(table, kappa)
    rhs = base + ell * dp**exponent + TOL_INEQ
    bad = np.flatnonzero(lhs > rhs)
    bad = bad[np.argsort(lhs[bad] - rhs[bad])[::-1]]
    return [
        {
            "pair": (int(ii[k]), int(jj[k])),
            "lhs": float(lhs[k]),
            "rhs": float(rhs[k]),
            "margin": float(lhs[k] - rhs[k]),
            "d_p": float(dp[k]),
        }
        for k in bad[:20]
    ], int(bad.size)


def pair_ratios_rowwise(u, v):
    """All unordered pair ratios <dv, du>/||du||^2 with ||du|| <= 1e-12
    skipped, from whole stacks: (ratios, ii, jj)."""
    ii, jj = np.triu_indices(u.shape[0], k=1)
    du = u[ii] - u[jj]
    dv = v[ii] - v[jj]
    sq = np.einsum("ij,ij->i", du, du)
    keep = np.sqrt(sq) > 1e-12
    return np.einsum("ij,ij->i", dv[keep], du[keep]) / sq[keep], ii[keep], jj[keep]


def fit_moduli_rowwise(table):
    """The moduli fit row-wise: p-frozen groups by a dict on each node's
    bytes, the ratios, the v-frozen slice and the pair terms over whole
    gathered stacks, and ell bisected with a violation count over every
    pair at each step.  Returns the StabilityModuli ``fit_moduli`` must
    reproduce to the bit, except ell, whose closed form lies within the
    bisection's stopping band 1e-9 (1 + ell) of this one."""
    from fullstab.defaults import TOL_INEQ
    from fullstab.stabharness import StabilityModuli

    groups = {}
    for k in range(len(table)):
        groups.setdefault(table.p_nodes[k].tobytes(), []).append(k)
    kappa_hat, p_frozen, witness = None, 0, {}
    for idx in groups.values():
        idx = np.array(idx)
        ratios, ii, jj = pair_ratios_rowwise(table.x_values[idx], table.v_nodes[idx])
        p_frozen += ratios.size
        if ratios.size:
            k = int(np.argmin(ratios))
            if kappa_hat is None or ratios[k] < kappa_hat:
                kappa_hat = float(ratios[k])
                witness["kappa_pair"] = (int(idx[ii[k]]), int(idx[jj[k]]))
    flagged = kappa_hat is not None and kappa_hat <= TOL_INEQ
    kappa = 1.0 if kappa_hat is None or flagged else kappa_hat

    exponent_hat, v_frozen = None, 0
    if table.p_nodes.shape[1]:
        V = table.v_nodes
        vkey = V[int(np.argmin(np.linalg.norm(V - np.median(V, axis=0), axis=1)))]
        sel = np.flatnonzero(np.linalg.norm(V - vkey, axis=1) < 1e-12)
        if sel.size >= 2:
            ii, jj = np.triu_indices(sel.size, k=1)
            dx = np.linalg.norm(table.x_values[sel[ii]] - table.x_values[sel[jj]], axis=1)
            dp = np.linalg.norm(table.p_nodes[sel[ii]] - table.p_nodes[sel[jj]], axis=1)
            keep = (dx > 1e-12) & (dp > 1e-12)
            v_frozen = int(np.sum(keep))
            if v_frozen >= 2:
                exponent_hat = float(np.polyfit(np.log(dp[keep]), np.log(dx[keep]), 1)[0])
    exponent = 1.0
    if exponent_hat is not None and abs(exponent_hat - 0.5) < abs(exponent_hat - 1.0):
        exponent = 0.5

    ii, jj, lhs, base, dp = pair_terms_rowwise(table, kappa)
    frozen = dp <= 1e-15
    gap = lhs - base - TOL_INEQ
    dpe = dp**exponent
    ell = 0.0
    if np.any(frozen & (gap > 0)):
        k = int(np.argmax(np.where(frozen, gap, -np.inf)))
        ell = None
        witness["ell_blocking_pair"] = {
            "pair": (int(ii[k]), int(jj[k])),
            "margin": float(gap[k]),
            "reason": "parameter-frozen pair violates at every ell",
        }
    elif np.any(~frozen) and np.any(lhs > base + 0.0 * dpe + TOL_INEQ):
        moving = ~frozen
        hi = max(0.0, float(np.max(gap[moving] / dpe[moving]))) + 1.0
        lo = 0.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if np.sum(lhs > base + mid * dpe + TOL_INEQ) == 0:
                hi = mid
            else:
                lo = mid
            if hi - lo <= 1e-9 * (1.0 + hi):
                break
        ell = hi
    return StabilityModuli(
        kappa_hat=kappa_hat,
        kappa_vacuous=kappa_hat is None,
        kappa_used=kappa,
        kappa_flagged=flagged,
        ell_hat=ell,
        exponent_hat=exponent_hat,
        exponent_used=exponent,
        p_frozen_pairs=p_frozen,
        v_frozen_pairs=v_frozen,
        witness=witness,
    )


def fit_ell_closed_form_rowwise(table, kappa, exponent):
    """ell of ``fit_moduli`` at (kappa, exponent) from whole stacks: None
    when a parameter-frozen pair violates, 0.0 when no pair violates at
    ell = 0, else h + 1e-9 (1 + h) with h the largest moving-pair ratio
    (lhs - ||dv|| - TOL_INEQ) / d_p^exponent, clipped at 0."""
    from fullstab.defaults import TOL_INEQ

    _, _, lhs, base, dp = pair_terms_rowwise(table, kappa)
    frozen = dp <= 1e-15
    gap = lhs - base - TOL_INEQ
    if np.any(frozen & (gap > 0)):
        return None
    if np.all(frozen) or not np.any(lhs > base + TOL_INEQ):
        return 0.0
    h = max(0.0, float(np.max(gap[~frozen] / dp[~frozen] ** exponent)))
    return h + 1e-9 * (1.0 + h)


def worst_pair_margin(table, kappa, ell, exponent):
    """The largest ||dv - 2 kappa dx|| - ||dv|| - ell d_p^exponent over
    every pair i < j of the table, not a subsample: the quantity the pair
    inequality bounds by TOL_INEQ.  numpy only, 256 rows against all at a
    time."""
    V, P, X = table.v_nodes, table.p_nodes, table.x_values
    N = V.shape[0]
    worst = -np.inf
    for lo in range(0, N - 1, 256):
        rows = np.arange(lo, min(N, lo + 256))
        dv = V[rows, None, :] - V[None, :, :]
        dx = X[rows, None, :] - X[None, :, :]
        dp = np.sqrt(np.sum((P[rows, None, :] - P[None, :, :]) ** 2, axis=2))
        margin = (
            np.sqrt(np.sum((dv - 2.0 * kappa * dx) ** 2, axis=2))
            - np.sqrt(np.sum(dv**2, axis=2))
            - ell * dp**exponent
        )
        upper = rows[:, None] < np.arange(N)[None, :]
        worst = max(worst, float(np.max(margin, where=upper, initial=-np.inf)))
    return worst


def estimate_moduli_rowwise(sample):
    """(kappa_hat, witness pair, kept pairs) of ``estimate_moduli`` from the
    whole stack of pair ratios."""
    ratios, ii, jj = pair_ratios_rowwise(sample.u, sample.v)
    k = int(np.argmin(ratios))
    return float(ratios[k]), (int(ii[k]), int(jj[k])), int(ratios.size)


def inverse_lipschitz_rowwise(sample):
    """The largest ||dx|| / ||dv|| over pairs with ||dv|| > 1e-12 of
    ``estimate_from_inverse`` (v the sample's u, x its v), from whole stacks."""
    ii, jj = np.triu_indices(len(sample), k=1)
    dv = np.linalg.norm(sample.u[ii] - sample.u[jj], axis=1)
    dx = np.linalg.norm(sample.v[ii] - sample.v[jj], axis=1)
    keep = dv > 1e-12
    return float(np.max(dx[keep] / dv[keep]))


def estimate_from_inverse_two_walks(sample):
    """``estimate_from_inverse`` as two walks over the pairs: the largest
    ||dx|| / ||dv|| by one ``pair_extreme`` walk, then the consistency bound
    against ``estimate_moduli`` of the swapped sample, a second walk with
    the same gathers.  Returns L_hat or raises as the one-walk estimator."""
    from fullstab.defaults import TOL_INEQ
    from fullstab.errors import DegenerateSampleError, InconsistencyError
    from fullstab.monotone import GraphSample, estimate_moduli
    from fullstab.pairs import Pairs, diff, pair_extreme

    V, X = sample.u, sample.v

    def lipschitz(ii, jj):
        dv = np.linalg.norm(diff(V, ii, jj), axis=1)
        dx = np.linalg.norm(diff(X, ii, jj), axis=1)
        keep = dv > 1e-12
        return ((keep, dx[keep] / dv[keep]),)

    ((count, L_hat, _),) = pair_extreme(Pairs(len(V)), lipschitz, (True,))
    if count == 0:
        raise DegenerateSampleError("all pairs degenerate (coincident v's)")
    L_hat = float(L_hat)
    inv = estimate_moduli(GraphSample(u=X.copy(), v=V.copy()))
    if inv.kappa_hat > 0 and L_hat > 1.0 / inv.kappa_hat + TOL_INEQ:
        raise InconsistencyError(f"L_hat = {L_hat} exceeds 1/kappa_hat = {1.0 / inv.kappa_hat}")
    return L_hat


def _fold(table):
    if isinstance(table, tuple):
        return tuple(_fold(t) for t in table)
    return ex.fold_float(table)


def _evaluate(table, x, p, cast):
    if isinstance(table, tuple):
        return [_evaluate(t, x, p, cast) for t in table]
    return cast(ex.evaluate(table, x, p))


def _eval_tables(model, tables, x, p, cast):
    if len(x) != model.n or len(p) != model.d:
        raise DimensionError(
            f"point has dims ({len(x)}, {len(p)}), model needs ({model.n}, {model.d})"
        )
    return _evaluate(tables, x, p, cast)


def _float_points(x, p):
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    if x.ndim == 1:
        return x.tolist(), p.tolist(), (), float
    if p.ndim != 2 or len(p) != len(x):
        raise DimensionError(f"{len(x)} x rows but p has shape {p.shape}")
    batch = x.shape[:1]
    return (
        list(np.ascontiguousarray(x.T)),
        list(np.ascontiguousarray(p.T)),
        batch,
        lambda value: value if isinstance(value, np.ndarray) else np.full(batch, value),
    )


def _stack(table, shape, batch, dtype=float):
    a = np.array(table, dtype=dtype).reshape(shape + batch)
    return np.moveaxis(a, -1, 0) if batch else a


def _bundle(model, tables, batch, dtype):
    n, m = model.n, model.m
    shapes = ((n,), (n, n), (m,), (m, n), (m, n, n))
    return EvalBundle(*(_stack(t, shape, batch, dtype) for t, shape in zip(tables, shapes)))


def tree_walk_bundle(model, x, p, exact=False):
    """``eval_bundle`` (or, with ``exact``, ``eval_bundle_exact``) by the
    recursive tree walk it replaced: every table entry evaluated by
    ``expr.evaluate`` on the tables as ``expr.fold_float`` folds them (the
    unfolded tables on the exact path), cast and stacked entry by entry."""
    if exact:
        x, p = [Fraction(c) for c in x], [Fraction(c) for c in p]
        return _bundle(model, _eval_tables(model, model.tables, x, p, Fraction), (), object)
    x, p, batch, cast = _float_points(x, p)
    with np.errstate(all="ignore"):
        tables = _eval_tables(model, _fold(model.tables), x, p, cast)
    bundle = _bundle(model, tables, batch, float)
    if not all(np.all(np.isfinite(a)) for a in (bundle.f, bundle.jac_f, bundle.phi)):
        raise EvaluationError("non-finite value in evaluation bundle")
    return bundle

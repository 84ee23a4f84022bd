"""Solvers: semismooth Newton vs face enumeration, localization tables.

Cross-validation oracle: both routes must agree on strongly monotone
affine problems, and every solution must pass the inner-product test of
the underlying inequality against many feasible points.
"""

from fractions import Fraction

import numpy as np
import pytest

from fullstab import visolver
from fullstab.errors import (
    EvaluationError,
    InfeasibleSetError,
    LocalizationError,
    UnboundedMultiplierError,
)
from fullstab.modelspec import eval_bundle_exact, eval_reference, parse_model
from fullstab.polycone import null_space, polyhedron_rows, row_space_projectors
from fullstab.visolver import build_localization, solve_faces, solve_projected

from conftest import curv
from oracles import (
    face_sweep_per_node,
    full_face_sweep,
    newton_face_sweep,
    random_crcq_model,
    semismooth_newton_per_node,
    solve_projected_per_node,
)


def scalar_halfline_model():
    return parse_model("dims n=1 d=0\nf = (x1)\nconstraint -x1 <= 0\nreference x=(0) p=() v=(0)\n")


class TestSolveProjected:
    def test_negative_target_clips_to_zero(self):
        m = scalar_halfline_model()
        out = solve_projected(m, [-3.0], [], [1.0])
        assert out.converged
        assert out.x == pytest.approx([0.0], abs=1e-9)
        assert out.residual < 1e-9

    def test_positive_target_interior(self):
        m = scalar_halfline_model()
        out = solve_projected(m, [2.0], [], [0.5])
        assert out.converged
        assert out.x == pytest.approx([2.0], abs=1e-8)

    def test_worked_example_reference(self, ex64_model):
        out = solve_projected(ex64_model, [0.0, 0.0, 0.0], [0.0, 0.0], [0.1, 0.1, 0.1])
        assert out.converged
        assert out.x == pytest.approx([0.0, 0.0, 0.0], abs=1e-9)
        assert out.residual < 1e-9

    def test_linear_map_without_step_size(self):
        # f = 4 x1 is solved with no step size to choose
        m = parse_model("dims n=1 d=0\nf = (4*x1)\nreference x=(0) p=() v=(0)\n")
        out = solve_projected(m, [2.0], [], [0.0])
        assert out.converged
        assert out.x == pytest.approx([0.5], abs=1e-9)


class TestSolveFaces:
    def test_interval_interior(self):
        m = parse_model(
            "dims n=1 d=0\nf = (x1)\nconstraint -x1 <= 0\nconstraint x1 - 1 <= 0\n"
            "reference x=(0) p=() v=(0)\n"
        )
        outs = solve_faces(m, [0.5], [], box_radius=2.0)
        assert len(outs) == 1
        assert outs[0].x == pytest.approx([0.5], abs=1e-12)
        assert outs[0].multiplicity == "unique-in-box"

    def test_skew_unique_solution(self, skew_model):
        outs = solve_faces(skew_model, [0.0, 0.0], [])
        assert len(outs) == 1
        assert outs[0].x == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_worked_example_perturbed_unique(self, ex64_model):
        outs = solve_faces(ex64_model, [0.0, 0.0, 0.0], [0.01, -0.01])
        assert len(outs) == 1
        # the solution tracks the apex (p1, p2, 0)
        assert outs[0].x == pytest.approx([0.01, -0.01, 0.0], abs=1e-9)
        cross = solve_projected(
            ex64_model, [0.0, 0.0, 0.0], [0.01, -0.01], [0.1, 0.1, 0.1]
        )
        assert cross.converged
        assert np.max(np.abs(cross.x - outs[0].x)) < 1e-7

    def test_agreement_on_random_strongly_monotone_vis(self):
        # light version of acceptance criterion 5 (full run lives there)
        _run_agreement_trials(30, seed=100)

    def test_nonaffine_f_newton_path(self):
        m = parse_model(
            "dims n=1 d=0\nf = (x1 + x1^3)\nconstraint -x1 <= 0\n"
            "reference x=(0) p=() v=(0)\n"
        )
        outs = solve_faces(m, [2.0], [], box_radius=5.0)
        assert len(outs) == 1
        x = float(outs[0].x[0])
        assert x + x**3 == pytest.approx(2.0, abs=1e-9)

    def test_face_solutions_are_fixed_points(self, ex64_model):
        # every face solution satisfies the projected fixed-point identity
        # ||x - Proj(x - gamma (f(x) - v))|| < 1e-9
        from fullstab.polycone import polyhedron_rows, project_onto_rows

        v = np.array([0.01, -0.02, 0.03])
        p = np.array([0.02, 0.01])
        outs = solve_faces(ex64_model, v, p)
        assert outs
        A, b = polyhedron_rows(ex64_model, p)
        for out in outs:
            f = np.array([float(c) for c in eval_bundle_exact(ex64_model, out.x, p).f])
            for gamma in (1e-2, 0.1):
                proj = project_onto_rows(A, b, out.x - gamma * (f - v))
                assert np.linalg.norm(out.x - proj) < 1e-9


def _run_agreement_trials(count, seed):
    rng = np.random.default_rng(seed)
    done = 0
    while done < count:
        n = int(rng.integers(1, 5))
        mrows = int(rng.integers(1, 9))
        B = rng.normal(size=(n, n))
        Jf = B @ B.T + np.eye(n) * rng.uniform(0.5, 1.5)  # strongly monotone
        A = rng.normal(size=(mrows, n))
        b = rng.uniform(0.3, 1.0, size=mrows)  # origin strictly feasible
        model = _affine_model_text(Jf, A, b)
        v = rng.normal(size=n) * 0.5
        faces = solve_faces(model, v, [], box_center=np.zeros(n), box_radius=50.0)
        assert len(faces) == 1, "strongly monotone VI must have one solution"
        proj = solve_projected(model, v, [], np.zeros(n))
        assert proj.converged
        assert np.max(np.abs(proj.x - faces[0].x)) < 1e-7
        _check_vi_inner_product(model, faces[0].x, v, rng)
        done += 1


def _affine_model_text(Jf, A, b):
    n = Jf.shape[0]

    def lit(value):
        # exact fraction literal; plain decimals only (no scientific form)
        from fractions import Fraction as _F

        f = _F(float(value))
        return f"{f.numerator}/{f.denominator}"

    comps = []
    for i in range(n):
        terms = " + ".join(f"({lit(Jf[i, j])})*x{j + 1}" for j in range(n))
        comps.append(terms)
    lines = [f"dims n={n} d=0", "f = (" + ", ".join(comps) + ")"]
    for i in range(A.shape[0]):
        terms = " + ".join(f"({lit(A[i, j])})*x{j + 1}" for j in range(n))
        lines.append(f"constraint {terms} - ({lit(b[i])}) <= 0")
    return parse_model("\n".join(lines) + "\n")


def _check_vi_inner_product(model, x_star, v, rng, count=1000):
    """<v - f(x*), u - x*> <= 1e-8 for feasible u sampled in C."""
    A, b = polyhedron_rows(model, [])
    n = model.n
    f_star = np.array([float(c) for c in eval_bundle_exact(model, x_star, []).f])
    g = v - f_star
    slack_dirs = rng.normal(size=(count, n))
    for k in range(count):
        direction = slack_dirs[k] / np.linalg.norm(slack_dirs[k])
        Ad = A @ direction
        steps = np.where(Ad > 1e-12, b / np.maximum(Ad, 1e-12), np.inf)
        t_max = float(np.min(steps))
        u = direction * min(t_max, 10.0) * rng.uniform(0, 1)
        assert np.all(A @ u <= b + 1e-10)
        assert float(g @ (u - x_star)) <= 1e-8


class TestBuildLocalization:
    def test_identity_table_exact(self, identity_model):
        table = build_localization(identity_model, identity_model.reference, grid_v=5, n_random=5)
        assert np.max(np.abs(table.x_values - table.v_nodes)) < 1e-10

    def test_worked_example_grid_unique(self, ex64_model):
        table = build_localization(
            ex64_model, ex64_model.reference,
            grid_v=3, grid_p=3, n_random=5,
        )
        assert len(table) == 27 * 9 + 5
        # theta(v, p) = (p1, p2, 0) on this neighborhood
        expect = np.column_stack(
            [table.p_nodes[:, 0], table.p_nodes[:, 1], np.zeros(len(table))]
        )
        assert np.max(np.abs(table.x_values - expect)) < 1e-9
        assert np.max(table.residuals) < 1e-9
        assert table.meta["shrinks"] == 0
        assert table.meta["cross_check_max_gap"] < 1e-7

    def test_pd_linear_localization_matches_inverse(self):
        m = parse_model(
            "dims n=2 d=0\nf = (2*x1 + x2, x1 + 3*x2)\nreference x=(0, 0) p=() v=(0, 0)\n"
        )
        table = build_localization(m, m.reference, grid_v=3, n_random=0)
        Jf = np.array([[2.0, 1.0], [1.0, 3.0]])
        expect = np.linalg.solve(Jf, table.v_nodes.T).T
        assert np.max(np.abs(table.x_values - expect)) < 1e-10

    def test_degenerate_model_aborts_upstream(self):
        m = parse_model(
            "dims n=1 d=0\nf = (0*x1)\nconstraint x1 <= 0\nconstraint -x1 <= 0\n"
            "reference x=(0) p=() v=(0)\n"
        )
        from conftest import reference_multipliers

        with pytest.raises(UnboundedMultiplierError):
            reference_multipliers(m)

    def test_multiple_solutions_raise_localization_error(self):
        # f(x) = x^3 - x has three zeros in the box; no single-valued
        # localization exists at any radius around the middle one.
        m = parse_model(
            "dims n=1 d=0\nf = (x1^3 - x1)\nreference x=(0) p=() v=(0)\n"
        )
        with pytest.raises(LocalizationError) as err:
            build_localization(m, m.reference, grid_v=3, n_random=0, box_radius=2.0)
        assert err.value.witness is not None

    def test_newton_sweep_stops_at_first_bad_node(self, monkeypatch):
        # x^3 - x has three roots at the first node of every attempt; the
        # sweep yields node by node and its first chunk is one node, so each
        # of the 1 + MAX_SHRINK attempts gives the stacked Newton the
        # stencil of that node once (7 starts, one active-set guess)
        m = parse_model(
            "dims n=1 d=0\nf = (x1^3 - x1)\nreference x=(0) p=() v=(0)\n"
        )
        pairs = []
        newton = visolver._newton_stack

        def counting(model, V, P, J, Z, **kwargs):
            pairs.extend([1] * len(Z))
            return newton(model, V, P, J, Z, **kwargs)

        monkeypatch.setattr(visolver, "_newton_stack", counting)
        with pytest.raises(LocalizationError):
            build_localization(m, m.reference, grid_v=3, n_random=0, box_radius=2.0)
        assert len(pairs) == (1 + visolver.MAX_SHRINK) * 7

    @pytest.mark.parametrize("name", ["p-dependent-gradient", "ex64"])
    def test_table_rows_match_single_node_sweep(self, name, ex64_model):
        # the batched sweep groups nodes by (jac_f, grad_phi); with a
        # Jacobian and a gradient that depend on p every parameter row is
        # its own group
        model = ex64_model if name == "ex64" else parse_model(
            "dims n=2 d=1\nf = ((2 + p1)*x1 + p1, x2)\n"
            "constraint x1 + p1*x2 - 1/4 <= 0\n"
            "reference x=(1/4, 0) p=(0) v=(3/2, 0)\n"
        )
        assert model.f_affine and all(model.affine_x)
        table = build_localization(model, model.reference, grid_v=3, grid_p=3, n_random=6, seed=3)
        assert table.meta["shrinks"] == 0
        x0 = model.reference.as_arrays()[0]
        for k in range(len(table)):
            outs = solve_faces(
                model, table.v_nodes[k], table.p_nodes[k], box_center=x0
            )
            assert len(outs) == 1
            assert np.max(np.abs(outs[0].x - table.x_values[k])) <= 1e-12
            assert abs(outs[0].residual - table.residuals[k]) <= 1e-12

    def test_cross_check_box_model_in_one_call(self, monkeypatch):
        # box3-b of the acceptance corpus: at the fixed-point rule's default
        # step 1e-2 four of its eleven cross-checks took about 1680
        # iterations each
        model = parse_model(
            "dims n=3 d=1\nf = (2*x1, 3*x2 + p1, x3 + x1)\n"
            "constraint x1 - 1 <= 0\nconstraint x2 - 1 <= 0\nconstraint x3 - 1 <= 0\n"
            "constraint -x1 <= 0\nconstraint -x2 <= 0\nconstraint -x3 <= 0\n"
            "reference x=(1, 0, 1) p=(0) v=(3, -3, 2)\n"
        )
        calls = []

        def recording(*args, **kwargs):
            outs = solve_projected(*args, **kwargs)
            calls.append([out.iterations for out in outs])
            return outs

        monkeypatch.setattr(visolver, "solve_projected", recording)
        table = build_localization(model, model.reference, grid_v=3, grid_p=3, seed=5)
        # one stacked call for the table's eleven cross-check nodes
        assert len(calls) == 1
        assert table.meta["cross_checks"] == len(calls[0]) == 11
        assert max(calls[0]) < 400

    def test_csv_export_shape(self, identity_model):
        table = build_localization(identity_model, identity_model.reference, grid_v=3, n_random=2)
        csv = table.to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "v1,x1,residual,method"
        assert len(lines) == 1 + len(table)

    def test_csv_matches_per_value_repr(self):
        # -0.0, a subnormal, 0.1 + 0.2 and 1e16 print as repr(float(c)) does
        special = np.array([-0.0, 5e-324, 0.1 + 0.2, 1e16])
        table = visolver.LocalizationTable(
            v_nodes=special.reshape(2, 2), p_nodes=special[::-1].reshape(2, 2),
            x_values=special[[1, 3, 0, 2]].reshape(2, 2), residuals=special[2:],
            methods=["face-enumeration", "face-enumeration"],
        )
        rows = [
            ",".join(
                [repr(float(c)) for c in table.v_nodes[k]]
                + [repr(float(c)) for c in table.p_nodes[k]]
                + [repr(float(c)) for c in table.x_values[k]]
                + [repr(float(table.residuals[k])), table.methods[k]]
            )
            for k in range(len(table))
        ]
        assert table.to_csv().splitlines()[1:] == rows
        assert "-0.0" in rows[0] and "5e-324" in rows[0] and "1e+16" in rows[0]


class TestArrayFaceSweep:
    """The affine face sweep collects, merges and scores every node's
    candidates in array passes; node by node it yields, bit for bit, the
    lists of the per-node append, merge and score loop."""

    @staticmethod
    def _assert_sweep_matches_oracle(model, V, P):
        assert model.f_affine and all(model.affine_x)
        center, box_radius = model.reference.as_arrays()[0], visolver.BOX_RADIUS
        got = list(visolver._face_sweep(model, V, P, center, box_radius, visolver.TOL_ACT))
        expect = face_sweep_per_node(model, V, P, center, box_radius, visolver.TOL_ACT)
        assert [len(g) for g in got] == [len(e) for e in expect]
        for g, e in zip(got, expect):
            for (x, lam, r), (xe, lame, re) in zip(g, e):
                assert np.array_equal(x, xe) and np.array_equal(lam, lame)
                assert type(r) is float and r == re
        return [len(g) for g in got]

    @staticmethod
    def _grid(model, grid_v, grid_p, n_random, seed):
        x0, p0, v0 = model.reference.as_arrays()
        return visolver._grid_nodes(
            v0, p0, visolver.RHO_V, visolver.RHO_P, grid_v, grid_p,
            model.n, model.d, n_random, seed,
        )

    def test_worked_example_default_grid(self, ex64_model):
        V, P = self._grid(ex64_model, visolver.GRID_V, visolver.GRID_P, visolver.RANDOM_NODES, 7)
        assert self._assert_sweep_matches_oracle(ex64_model, V, P) == [1] * 3145

    def test_criterion_7_corpus(self):
        from test_acceptance import _corpus

        for model in _corpus():
            V, P = self._grid(model, 3, 3, 4, 5)
            assert set(self._assert_sweep_matches_oracle(model, V, P)) == {1}

    def test_several_solutions_take_the_merge_path(self):
        # f = p1 x1 on [-1/1000, 1/1000] with the upper bound listed twice:
        # at v = 0 and p1 <= 0 the three points 0 and +-1/1000 solve, the
        # upper one found on three faces; elsewhere the solution is unique
        model = parse_model(
            "dims n=1 d=1\nf = (p1*x1)\nconstraint x1 - 1/1000 <= 0\n"
            "constraint -x1 - 1/1000 <= 0\nconstraint x1 - 1/1000 <= 0\n"
            "reference x=(0) p=(0) v=(0)\n"
        )
        V, P = self._grid(model, 5, 5, 4, 5)
        counts = self._assert_sweep_matches_oracle(model, V, P)
        several = [k for k, c in enumerate(counts) if c > 1]
        assert several and all(V[k, 0] == 0 and P[k, 0] <= 0 for k in several)
        assert set(counts) == {1, 3}
        with pytest.raises(LocalizationError) as err:
            build_localization(model, model.reference, grid_v=5, grid_p=5)
        assert err.value.witness["solutions"] == 3


# the curved benchmark models: nonlinear f, curved constraints, n = 1..3
CURVED_MODELS = {
    "cubic": "dims n=1 d=1\nf = (x1^3 + x1 + p1)\nreference x=(0) p=(0) v=(0)\n",
    "disk-inactive": (
        "dims n=2 d=1\nf = (2*x1 + p1, x2 + x2^3 - x1/2)\n"
        "constraint x1^2 + x2^2 - 1 <= 0\nreference x=(0, 0) p=(0) v=(0, 0)\n"
    ),
    "paraboloid-active": (
        "dims n=2 d=1\nf = (x1 + x1^3 + p1, x2)\n"
        "constraint x1^2 - x2 + p1 <= 0\nreference x=(0, 0) p=(0) v=(0, 0)\n"
    ),
    "sphere-3d": (
        "dims n=3 d=1\nf = (x1 + x1^3 + p1, x2 + x2*x3/2, x3 + x3^3)\n"
        "constraint x1^2 + x2^2 + x3^2 - 1 <= 0\n"
        "reference x=(0, 0, 0) p=(0) v=(0, 0, 0)\n"
    ),
    "circle": (
        "dims n=2 d=1\nf = (x1 + p1, x2)\nconstraint x1^2 + x2^2 - 1 <= 0\n"
        "reference x=(1, 0) p=(0) v=(2, 0)\n"
    ),
}


class TestLockstepProjected:
    """solve_projected on a stack of nodes runs every row in lockstep; each
    row's outcome equals, bit for bit, the node-by-node semismooth Newton
    loop with one-point evaluations, projections and solves."""

    @staticmethod
    def _cross_check(model, monkeypatch, **grid):
        """The one solve_projected call of build_localization's cross-check:
        its arguments and its outcomes."""
        calls = []

        def recording(*args, **kwargs):
            outs = solve_projected(*args, **kwargs)
            calls.append((args, kwargs, outs))
            return outs

        monkeypatch.setattr(visolver, "solve_projected", recording)
        build_localization(model, model.reference, **grid)
        monkeypatch.undo()
        (call,) = calls
        return call

    def _assert_lockstep_matches_oracle(self, model, monkeypatch, **grid):
        (_, V, P, x0), kwargs, outs = self._cross_check(model, monkeypatch, **grid)
        assert len(outs) == len(V) > 1 and not kwargs
        self._assert_rows_match_oracle(model, V, P, x0, outs)
        return outs

    @staticmethod
    def _assert_rows_match_oracle(model, V, P, x0, outs):
        X0 = np.broadcast_to(x0, V.shape)
        for k, out in enumerate(outs):
            x, resid, iterations, converged = semismooth_newton_per_node(
                model, V[k], P[k], X0[k]
            )
            assert np.array_equal(out.x, x)
            assert out.residual == resid and type(out.residual) is float
            assert out.iterations == iterations and out.converged == converged

    def test_worked_example(self, ex64_model, monkeypatch):
        outs = self._assert_lockstep_matches_oracle(ex64_model, monkeypatch, seed=7)
        assert all(out.converged for out in outs)

    def test_criterion_7_corpus(self, monkeypatch):
        from test_acceptance import _corpus

        for model in _corpus():
            self._assert_lockstep_matches_oracle(model, monkeypatch, grid_v=3, grid_p=3, seed=5)

    def test_identity_and_skew(self, identity_model, skew_model, monkeypatch):
        self._assert_lockstep_matches_oracle(identity_model, monkeypatch)
        # f = (x1, -x2) is not monotone, so no fixed-point step contracts;
        # with no constraints the natural map is f - v, and one Newton step
        # solves each of the 12 rows but the reference node, solved at x0
        outs = self._assert_lockstep_matches_oracle(skew_model, monkeypatch)
        assert len(outs) == 12 and all(out.converged for out in outs)
        assert sorted(out.iterations for out in outs) == [0] + [1] * 11

    def test_nonaffine_f_and_p_dependent_rows(self):
        # f with cubic and p-dependent terms over constraints affine in x
        # whose rows and bounds move with p: rows of a stack take different
        # numbers of Newton steps and halvings, start on and off C(p), and
        # end with none, one or two tight constraints
        model = parse_model(
            "dims n=2 d=1\nf = (x1 + x1^3 + p1*x2, x2 + x2^3/3 - p1*x1)\n"
            "constraint x1 + p1*x2 - 1/2 <= 0\nconstraint -x2 - 1/4 + p1 <= 0\n"
            "constraint x1 - x2 - 1 <= 0\n"
        )
        assert not model.f_affine and all(model.affine_x)
        rng = np.random.default_rng(11)
        V = rng.uniform(-3.0, 3.0, size=(40, 2))
        P = rng.uniform(-0.2, 0.2, size=(40, 1))
        X0 = rng.uniform(-2.0, 2.0, size=(40, 2))
        outs = solve_projected(model, V, P, X0)
        self._assert_rows_match_oracle(model, V, P, X0, outs)
        assert all(out.converged for out in outs)
        assert len({out.iterations for out in outs}) > 2
        A, b = polyhedron_rows(model, P)
        X = np.array([out.x for out in outs])
        tight = np.abs(np.matmul(A, X[..., None])[..., 0] - b) < 1e-9
        assert set(tight.sum(axis=1)) >= {0, 1, 2}
        # each x solves its node: it is the face sweep's solution there
        for k in range(0, 40, 8):
            (face,) = solve_faces(model, V[k], P[k], box_center=np.zeros(2), box_radius=10.0)
            assert np.max(np.abs(face.x - outs[k].x)) < 1e-9

    def test_one_node_is_a_stack_of_one(self, ex64_model):
        v, p, x0 = [0.01, -0.02, 0.03], [0.02, 0.01], [0.1, 0.1, 0.1]
        one = solve_projected(ex64_model, v, p, x0)
        (row,) = solve_projected(ex64_model, [v], [p], [x0])
        assert np.array_equal(one.x, row.x) and one.residual == row.residual
        assert one.iterations == row.iterations and one.converged and row.converged

    def test_first_failing_row_raises(self):
        # C(p) = {x : 0 <= x1 <= p1} is empty for p1 < 0: the stack raises
        # the error of its first such row, as the node-by-node loop would
        model = parse_model(
            "dims n=1 d=1\nf = (x1)\nconstraint x1 - p1 <= 0\nconstraint -x1 <= 0\n"
            "reference x=(0) p=(1) v=(0)\n"
        )
        with pytest.raises(InfeasibleSetError):
            solve_projected(model, [[0.5], [0.5], [0.5]], [[1.0], [-1.0], [2.0]], [3.0])
        with pytest.raises(InfeasibleSetError):
            solve_projected_per_node(model, [0.5], [-1.0], [3.0])
        outs = solve_projected(model, [[0.5], [0.5]], [[1.0], [0.25]], [3.0])
        assert [out.x[0] for out in outs] == pytest.approx([0.5, 0.25], abs=1e-8)


class TestNewtonAgreesWithFixedPoint:
    """The semismooth Newton cross-check solves what the projected
    fixed-point rule it replaced solves: at every cross-check node where
    that rule converges, both x agree with each other and with the face
    sweep's table to 1e-9."""

    @staticmethod
    def _assert_agreement(model, **grid):
        calls = []

        def recording(*args):
            outs = solve_projected(*args)
            calls.append((args, outs))
            return outs

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(visolver, "solve_projected", recording)
            table = build_localization(model, model.reference, **grid)
        ((_, V, P, x0), outs), = calls
        nodes = np.arange(0, len(table), max(1, len(table) // visolver._CROSS_CHECKS))
        # the old rule's step came from (kappa, L) of the reference Jacobian
        jac = eval_reference(model, model.reference)[1].jac_f
        moduli = (np.linalg.eigvalsh(0.5 * (jac + jac.T))[0], np.linalg.norm(jac, 2))
        agreed = 0
        for k, (node, out) in enumerate(zip(nodes, outs)):
            assert out.converged and out.method == "semismooth-newton"
            assert np.max(np.abs(out.x - table.x_values[node])) < 1e-9
            x, _, _, converged = solve_projected_per_node(model, V[k], P[k], x0, moduli)
            if converged:
                assert np.max(np.abs(out.x - x)) < 1e-9
                agreed += 1
        return agreed, len(outs)

    def test_worked_example(self, ex64_model):
        agreed, checks = self._assert_agreement(ex64_model, grid_v=3, grid_p=3, seed=7)
        assert agreed == checks == 11

    def test_criterion_7_corpus(self):
        from test_acceptance import _corpus

        for model in _corpus():
            assert self._assert_agreement(model, grid_v=3, grid_p=3, seed=5)[0] > 0

    def test_identity(self, identity_model):
        agreed, checks = self._assert_agreement(identity_model)
        assert agreed == checks == 13

    def test_tight_row_projector_is_the_null_space_complement(self):
        # Q = I - N N^T for an orthonormal null-space basis N of the rows,
        # including repeated and dependent rows and no row at all
        rng = np.random.default_rng(3)
        for m, n in [(1, 1), (2, 3), (3, 3), (4, 2), (5, 4)]:
            A = rng.normal(size=(6, m, n))
            A[1, -1] = A[1, 0]
            A[2] = 0.0
            tight = rng.uniform(size=(6, m)) < 0.6
            Q = row_space_projectors(A * tight[..., None])
            for k in range(6):
                N = null_space(A[k][tight[k]], n)
                assert np.max(np.abs(Q[k] - (np.eye(n) - N @ N.T))) < 1e-12


def _random_curved_model(rng):
    """A strongly monotone f with cubic terms and rational constants over
    convex quadratic constraints, each active or inactive at x = 0, with a
    reference v built from nonnegative multipliers."""
    n, d = int(rng.integers(1, 3)), int(rng.integers(0, 2))

    def q(lo, hi):
        return Fraction(int(rng.integers(lo, hi)), 4)

    skew = q(-4, 5)
    f, v = [], [Fraction(0)] * n
    for i in range(n):
        term = f"({q(4, 9)})*x{i + 1} + x{i + 1}^3/({q(2, 9)})"
        if n == 2:
            term += f" + ({skew if i == 0 else -skew})*x{2 - i}"
        if d and i == 0:
            term += " + p1/3"
        f.append(term)
    constraints = []
    for _ in range(int(rng.integers(1, 3))):
        g = [q(-4, 5) for _ in range(n)]
        slack = Fraction(int(rng.integers(0, 2)), 2)
        squares = " + ".join(f"x{j + 1}^2" for j in range(n))
        linear = " + ".join(f"({g[j]})*x{j + 1}" for j in range(n))
        shift = " - p1/5" if d else ""
        constraints.append(f"constraint ({q(1, 5)})*({squares}) + {linear} - {slack}{shift} <= 0")
        if slack == 0:
            lam = Fraction(int(rng.integers(0, 3)), 2)
            v = [vi + lam * gi for vi, gi in zip(v, g)]
    zeros = ", ".join(["0"] * n)
    text = (
        f"dims n={n} d={d}\nf = ({', '.join(f)})\n" + "\n".join(constraints)
        + f"\nreference x=({zeros}) p=({', '.join(['0'] * d)}) v=({', '.join(map(str, v))})\n"
    )
    return parse_model(text)


class TestStackedNewtonSweep:
    """The stacked Newton of the curved face sweep gives, bit for bit, the
    tables of one scalar Newton run per (node, guess, start)."""

    @staticmethod
    def _assert_table_matches_oracle(model):
        assert not (model.f_affine and all(model.affine_x))
        table = build_localization(model, model.reference, grid_v=3, grid_p=3, n_random=4)
        x0 = model.reference.as_arrays()[0]
        starts = visolver._newton_starts(x0, table.meta["box_radius"], model.n)
        expect = newton_face_sweep(
            model, table.v_nodes, table.p_nodes, starts, table.meta["box_radius"], x0
        )
        for k, merged in enumerate(expect):
            assert len(merged) == 1
            x, _, resid = merged[0]
            assert np.array_equal(table.x_values[k], x)
            assert table.residuals[k] == resid

    @pytest.mark.parametrize("name", sorted(CURVED_MODELS))
    def test_curved_models(self, name):
        self._assert_table_matches_oracle(parse_model(CURVED_MODELS[name]))

    def test_seeded_random_curved_models(self):
        rng = np.random.default_rng(2024)
        for _ in range(6):
            self._assert_table_matches_oracle(_random_curved_model(rng))

    def test_multiple_roots_match_oracle(self):
        # every node of x^3 - x has three roots in the box: all of them,
        # their multipliers and residuals come out as the scalar runs give
        m = parse_model("dims n=1 d=0\nf = (x1^3 - x1)\nconstraint x1 - 1/2 <= 0\n")
        V = np.array([[-0.01], [0.0], [0.02]])
        P = np.zeros((3, 0))
        center = np.zeros(1)
        got = list(visolver._face_sweep(m, V, P, center, 2.0, 1e-7))
        starts = visolver._newton_starts(center, 2.0, 1)
        expect = newton_face_sweep(m, V, P, starts, 2.0, center)
        assert [len(g) for g in got] == [len(e) for e in expect] == [3, 3, 3]
        for g, e in zip(got, expect):
            for (x, lam, r), (xe, lame, re) in zip(g, e):
                assert np.array_equal(x, xe) and np.array_equal(lam, lame) and r == re

    @staticmethod
    def _guesses_run(model, monkeypatch):
        """The guesses J that reach the stacked Newton while a table of
        ``model`` is built and held to the unpruned oracle."""
        seen = set()
        newton = visolver._newton_stack

        def recording(model, V, P, J, Z):
            seen.add(tuple(J))
            return newton(model, V, P, J, Z)

        monkeypatch.setattr(visolver, "_newton_stack", recording)
        TestStackedNewtonSweep._assert_table_matches_oracle(model)
        return seen

    def test_constraint_off_the_box_never_reaches_newton(self, monkeypatch):
        # x1^2 + x2^2 - 1 is at most 2 (1/5)^2 - 1 < 0 on the box
        model = parse_model(CURVED_MODELS["disk-inactive"])
        assert self._guesses_run(model, monkeypatch) == {()}

    @pytest.mark.parametrize("constraints, seen", [
        # the upper end is -1e-12, inside the margin 1e-11 (1 + max ||v||)
        (["x1 - 1/5 - 12/10000000000 - 1/1000000000000"], {(), (0,)}),
        # the upper end is -2e-11, outside it
        (["x1 - 1/5 - 12/10000000000 - 2/100000000000"], {()}),
        # the exact upper end of the first is -9e-9, but its terms of 2e8
        # widen it past 0; the second is off by far
        (["1000000000*x1 - 200000001.2 - 2/100000000",
          "1000000000*(x1^2 + x2^2) - 1000000000"], {(), (0,)}),
    ], ids=["grazing-kept", "grazing-off", "scale-1e9"])
    def test_margin_models_match_oracle(self, constraints, seen, monkeypatch):
        # the box is |x| <= 1/5 widened by 1e-9 (1 + 1/5): the face of x1 = c
        # lies just beyond it, so it is never kept either way
        model = parse_model(
            "dims n=2 d=1\nf = (2*x1 + p1, x2 + x2^3 - x1/2)\n"
            + "".join(f"constraint {c} <= 0\n" for c in constraints)
            + "reference x=(0, 0) p=(0) v=(0, 0)\n"
        )
        assert self._guesses_run(model, monkeypatch) == seen

    def test_pole_in_chunk_after_bad_node(self):
        # nodes 1 and 2 share a chunk; node 1 has three roots in the box and
        # the start x = 2 of node 2 sits on its pole.  A consumer stopping
        # at node 1 gets it, as from a node-by-node sweep; the error comes
        # only with node 2
        m = parse_model("dims n=1 d=1\nf = (x1^3 - x1 + 1/(x1 - p1))\n")
        V, P = np.zeros((3, 1)), np.array([[5.0], [5.0], [2.0]])
        sweep = visolver._face_sweep(m, V, P, np.zeros(1), 2.0, 1e-7)
        assert [len(next(sweep)), len(next(sweep))] == [3, 3]
        with pytest.raises(EvaluationError, match="division by zero"):
            next(sweep)


class TestGuessesUpToN:
    """The face sweep tries only active-set guesses of at most n
    constraints, since a solution has a multiplier with linearly
    independent support (Caratheodory's conic theorem).  The sweep over all
    2^m guesses (``full_face_sweep``) finds as many solutions at every node
    of a table, each x within 1e-9."""

    @staticmethod
    def _assert_as_full_sweep(model):
        assert model.m > model.n
        x0, p0, v0 = model.reference.as_arrays()
        V, P = visolver._grid_nodes(
            v0, p0, visolver.RHO_V, visolver.RHO_P, 3, 3, model.n, model.d, 4, 0
        )
        args = (model, V, P, x0, visolver.BOX_RADIUS, visolver.TOL_ACT)
        got, expect = list(visolver._face_sweep(*args)), full_face_sweep(*args)
        assert [len(g) for g in got] == [len(e) for e in expect]
        for g, e in zip(got, expect):
            for (x, _, _), (xe, _, _) in zip(g, e):
                assert np.max(np.abs(x - xe)) <= 1e-9
        return got

    @pytest.mark.parametrize("k", range(3, 9))
    def test_curv_family(self, k):
        assert {len(g) for g in self._assert_as_full_sweep(parse_model(curv(k)))} == {1}

    def test_seeded_curved_models(self):
        rng = np.random.default_rng(7)
        for _ in range(4):
            self._assert_as_full_sweep(random_crcq_model(rng))
        tried = 0
        while tried < 4:  # the n = 1, m = 2 draws of the other family
            m = _random_curved_model(rng)
            if m.m > m.n:
                self._assert_as_full_sweep(m)
                tried += 1

"""Solvers: projected iteration vs face enumeration, localization tables.

Cross-validation oracle: both routes must agree on strongly monotone
affine problems, and every solution must pass the inner-product test of
the underlying inequality against many feasible points.
"""

import numpy as np
import pytest

from fullstab import visolver
from fullstab.errors import LocalizationError, UnboundedMultiplierError
from fullstab.modelspec import parse_model
from fullstab.polycone import polyhedron_rows
from fullstab.visolver import build_localization, solve_faces, solve_projected


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

    def test_moduli_step_choice(self):
        m = parse_model("dims n=1 d=0\nf = (4*x1)\nreference x=(0) p=() v=(0)\n")
        out = solve_projected(m, [2.0], [], [0.0], moduli=(4.0, 4.0))
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
            f = np.array([float(c) for c in ex64_model.f_values(list(out.x), list(p))])
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
        kappa = float(np.linalg.eigvalsh(0.5 * (Jf + Jf.T))[0])
        L = float(np.linalg.norm(Jf, 2))
        proj = solve_projected(
            model, v, [], np.zeros(n), moduli=(kappa, L), max_iter=20000
        )
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
    f_star = np.array([float(c) for c in model.f_values(list(x_star), [])])
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
        table = build_localization(
            identity_model, identity_model.reference, grid_v=5, n_random=5
        )
        assert np.max(np.abs(table.x_values - table.v_nodes)) < 1e-10

    def test_worked_example_grid_unique(self, ex64_model):
        table = build_localization(
            ex64_model, ex64_model.reference, grid_v=3, grid_p=3, n_random=5
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
        from fullstab.kkt import multiplier_polytope

        with pytest.raises(UnboundedMultiplierError):
            multiplier_polytope(m, (0,), (), (0,))

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
        # sweep yields node by node, so each of the 1 + MAX_SHRINK attempts
        # runs the Newton stencil (7 starts, one active-set guess) once
        m = parse_model(
            "dims n=1 d=0\nf = (x1^3 - x1)\nreference x=(0) p=() v=(0)\n"
        )
        calls = []
        newton = visolver._solve_face_newton

        def counting(*args, **kwargs):
            calls.append(1)
            return newton(*args, **kwargs)

        monkeypatch.setattr(visolver, "_solve_face_newton", counting)
        with pytest.raises(LocalizationError):
            build_localization(m, m.reference, grid_v=3, n_random=0, box_radius=2.0)
        assert len(calls) == (1 + visolver.MAX_SHRINK) * 7

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
        table = build_localization(
            model, model.reference, grid_v=3, grid_p=3, n_random=6, seed=3
        )
        assert table.meta["shrinks"] == 0
        x0 = model.reference.as_arrays()[0]
        for k in range(len(table)):
            outs = solve_faces(
                model, table.v_nodes[k], table.p_nodes[k], box_center=x0
            )
            assert len(outs) == 1
            assert np.max(np.abs(outs[0].x - table.x_values[k])) <= 1e-12
            assert abs(outs[0].residual - table.residuals[k]) <= 1e-12

    def test_cross_check_step_from_reference_jacobian(self, monkeypatch):
        # box3-b of the acceptance corpus: at the fixed default step 1e-2
        # four of its eleven cross-checks took about 1680 iterations each
        model = parse_model(
            "dims n=3 d=1\nf = (2*x1, 3*x2 + p1, x3 + x1)\n"
            "constraint x1 - 1 <= 0\nconstraint x2 - 1 <= 0\nconstraint x3 - 1 <= 0\n"
            "constraint -x1 <= 0\nconstraint -x2 <= 0\nconstraint -x3 <= 0\n"
            "reference x=(1, 0, 1) p=(0) v=(3, -3, 2)\n"
        )
        iterations = []

        def recording(*args, **kwargs):
            out = solve_projected(*args, **kwargs)
            iterations.append(out.iterations)
            return out

        monkeypatch.setattr(visolver, "solve_projected", recording)
        table = build_localization(model, model.reference, grid_v=3, grid_p=3, seed=5)
        assert table.meta["cross_checks"] == len(iterations) == 11
        assert max(iterations) < 400

    def test_csv_export_shape(self, identity_model):
        table = build_localization(
            identity_model, identity_model.reference, grid_v=3, n_random=2
        )
        csv = table.to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "v1,x1,residual,method"
        assert len(lines) == 1 + len(table)

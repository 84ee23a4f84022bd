"""Model parsing, exact derivatives and evaluation bundles.

Derivative correctness is anchored to a central finite-difference oracle;
all frozen expected values below were computed by hand evaluation plus the
oracle before the implementation existed.
"""

from fractions import Fraction

import numpy as np
import pytest

from fullstab import expr as ex
from fullstab.errors import (
    EvaluationError,
    InfeasiblePointError,
    ModelSyntaxError,
    UnknownIdentifierError,
)
from fullstab.modelspec import (
    eval_bundle,
    eval_bundle_exact,
    eval_f,
    parse_model,
    print_model,
)

from conftest import MODELS_DIR
from oracles import fd_partial, random_polynomial_expr


def parse_expr(text, n, d):
    return ex.ExprParser(n, d).parse(text)


class TestParse:
    def test_worked_example_file(self, ex64_model):
        m = ex64_model
        assert (m.n, m.d, m.m) == (3, 2, 4)
        assert m.affine_x == (True, True, True, True)
        assert m.reference is not None

    def test_identity_map(self):
        m = parse_model("dims n=1 d=0\nf = (x1)\n")
        b = eval_bundle(m, [2.0], [])
        assert b.f == pytest.approx([2.0])
        assert b.jac_f == pytest.approx(np.array([[1.0]]))

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError, match="unknown identifier"):
            parse_model("dims n=1 d=0\nf = (x1 + q1)\n")

    def test_out_of_range_variable(self):
        with pytest.raises(UnknownIdentifierError):
            parse_model("dims n=1 d=0\nf = (x2)\n")

    def test_syntax_error_carries_line(self):
        with pytest.raises(ModelSyntaxError) as err:
            parse_model("dims n=1 d=0\nf = (x1 + )\n")
        assert err.value.line == 2

    def test_dimension_mismatch_in_f(self):
        with pytest.raises(Exception, match="components"):
            parse_model("dims n=2 d=0\nf = (x1)\n")

    def test_infeasible_reference_rejected(self):
        text = "dims n=1 d=0\nf = (x1)\nconstraint x1 <= 0\nreference x=(1) p=() v=(1)\n"
        with pytest.raises(InfeasiblePointError):
            parse_model(text)

    def test_reference_must_match_dims(self):
        with pytest.raises(Exception):
            parse_model("dims n=2 d=0\nf = (x1, x2)\nreference x=(0) p=() v=(0, 0)\n")

    def test_fractions_parsed_exactly(self):
        m = parse_model("dims n=1 d=0\nf = (1/4*x1)\n")
        val = ex.evaluate(m.f_components[0], [Fraction(2)], [])
        assert val == Fraction(1, 2)


class TestDifferentiate:
    def test_example_partial_matches_fd_at_random_points(self):
        # d/dx3 of the worked potential equals 1 + 2*x3.
        e = parse_expr("x3 + (1/4 + p2)*x1 + p1*x2 + x3^2 - x1*x2", 3, 2)
        dx3 = ex.differentiate(e, "x", 2)
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.uniform(-1, 1, size=3)
            p = rng.uniform(-1, 1, size=2)
            exact = float(ex.evaluate(dx3, list(x), list(p)))
            approx = fd_partial(e, "x", 2, x, p)
            assert exact == pytest.approx(approx, rel=1e-6, abs=1e-9)
            assert exact == pytest.approx(1 + 2 * x[2], abs=1e-12)

    def test_derivative_of_unrelated_variable_is_zero(self):
        e = parse_expr("x2", 2, 0)
        assert ex.is_zero(ex.differentiate(e, "x", 0))

    def test_parameter_derivative(self):
        e = parse_expr("x1 - x3 - p1", 3, 2)
        dp1 = ex.differentiate(e, "p", 0)
        assert isinstance(dp1, ex.Num) and dp1.value == -1

    def test_random_trees_match_fd(self):
        # 100 random models/points; every gradient entry within 1e-6 rel.
        rng = np.random.default_rng(42)
        for trial in range(100):
            n = int(rng.integers(1, 4))
            d = int(rng.integers(0, 3))
            e = random_polynomial_expr(rng, n, d)
            x = rng.uniform(-1, 1, size=n)
            p = rng.uniform(-1, 1, size=d)
            for j in range(n):
                de = ex.differentiate(e, "x", j)
                exact = float(ex.evaluate(de, list(x), list(p)))
                approx = fd_partial(e, "x", j, x, p)
                assert exact == pytest.approx(approx, rel=1e-6, abs=2e-6), (
                    trial,
                    ex.to_string(e),
                )

    def test_mixed_partials_commute(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            e = random_polynomial_expr(rng, 3, 1)
            dxy = ex.differentiate(ex.differentiate(e, "x", 0), "x", 2)
            dyx = ex.differentiate(ex.differentiate(e, "x", 2), "x", 0)
            for _ in range(5):
                x = list(rng.uniform(-1, 1, size=3))
                p = list(rng.uniform(-1, 1, size=1))
                a = float(ex.evaluate(dxy, x, p))
                b = float(ex.evaluate(dyx, x, p))
                assert a == pytest.approx(b, abs=1e-10 * (1 + abs(a)))


class TestEvalBundle:
    def test_worked_example_reference_values(self, ex64_model):
        # Hand evaluation of the model data at the reference; cross-checked
        # against finite differences in test_jacobian_matches_fd.
        b = eval_bundle(ex64_model, [0, 0, 0], [0, 0])
        assert b.f == pytest.approx([0.25, 0.0, 1.0], abs=1e-15)
        assert b.jac_f == pytest.approx(
            np.array([[0, -1, 0], [-1, 0, 0], [0, 0, 2]]), abs=1e-15
        )
        assert b.phi == pytest.approx([0, 0, 0, 0], abs=1e-15)
        assert b.grad_phi == pytest.approx(
            np.array([[1, 0, -1], [-1, 0, -1], [0, 1, -1], [0, -1, -1]]), abs=1e-15
        )
        assert np.all(b.hess_phi == 0)

    def test_jacobian_matches_fd(self, ex64_model):
        rng = np.random.default_rng(11)
        x = rng.uniform(-0.5, 0.5, size=3)
        p = rng.uniform(-0.5, 0.5, size=2)
        b = eval_bundle(ex64_model, x, p)
        for i in range(3):
            for j in range(3):
                def fi(xv, i=i):
                    return float(
                        ex.evaluate(ex64_model.f_components[i], list(xv), list(p))
                    )
                hi, lo = x.copy(), x.copy()
                hi[j] += 1e-5
                lo[j] -= 1e-5
                fd = (fi(hi) - fi(lo)) / 2e-5
                assert b.jac_f[i, j] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_hessian_symmetric(self):
        m = parse_model("dims n=2 d=0\nf = (x1, x2)\nconstraint x1^2*x2 + x2^3 - 1 <= 0\n")
        b = eval_bundle(m, [0.3, 0.4], [])
        assert b.hess_phi[0] == pytest.approx(b.hess_phi[0].T, abs=1e-12)

    def test_affine_constraint_hessian_zero(self, ex64_model):
        b = eval_bundle(ex64_model, [0.1, -0.2, 0.5], [0.05, -0.03])
        assert np.all(b.hess_phi == 0)

    def test_division_by_zero_reports_subtree(self):
        m = parse_model("dims n=1 d=0\nf = (1/x1)\n")
        with pytest.raises(EvaluationError, match="x1"):
            eval_bundle(m, [0.0], [])

    def test_exact_bundle_is_rational(self, ex64_model):
        b = eval_bundle_exact(ex64_model, [Fraction(0)] * 3, [Fraction(0)] * 2)
        assert b.f.tolist() == [Fraction(1, 4), Fraction(0), Fraction(1)]

    @pytest.mark.parametrize("name", ["ex64", "skew", "circle", "identity"])
    def test_exact_bundle_has_the_float_layout(self, name):
        # the same shapes as a one-point float bundle (m = 0 included),
        # Fraction entries in object arrays, and a float view whose every
        # entry is float() of the exact one
        model = parse_model((MODELS_DIR / f"{name}.model").read_text())
        x = [Fraction(k + 1, 3) for k in range(model.n)]
        p = [Fraction(-k - 1, 7) for k in range(model.d)]
        exact = eval_bundle_exact(model, x, p)
        floats = exact.floats()
        assert exact.exact and not floats.exact
        for a, b, c in zip(exact.arrays(), eval_bundle(model, x, p).arrays(), floats.arrays()):
            assert a.shape == b.shape == c.shape
            assert a.dtype == object and c.dtype == float
            assert all(type(e) is Fraction for e in a.flat)
            assert c.tolist() == np.array([float(e) for e in a.flat]).reshape(a.shape).tolist()
        assert floats.floats() is floats
        assert [a.shape for a in exact.arrays()][2:] == [
            (model.m,), (model.m, model.n), (model.m, model.n, model.n)
        ]

    def test_float_view_of_an_overflowing_exact_bundle_raises(self):
        # f = 10^400 exactly, which no float holds
        m = parse_model("dims n=1 d=0\nf = (x1 + 10^400)\nreference x=(0) p=() v=(0)\n")
        exact = eval_bundle_exact(m, [0], [])
        assert exact.f[0] == 10**400
        with pytest.raises(EvaluationError, match="non-finite"):
            exact.floats()

    def test_lagrangian_jacobian_in_the_bundle_number_type(self):
        m = parse_model("dims n=2 d=0\nf = (x1, x2)\nconstraint x1^2 + x2^2 - 1 <= 0\n")
        exact = eval_bundle_exact(m, (1, 0), ()).lagrangian_jacobian([Fraction(1, 3)])
        assert exact.tolist() == [[Fraction(5, 3), 0], [0, Fraction(5, 3)]]
        assert all(type(c) is Fraction for row in exact for c in row)
        approx = eval_bundle(m, (1, 0), ()).lagrangian_jacobian([Fraction(1, 3)])
        assert approx.dtype == float
        assert approx == pytest.approx(np.eye(2) * 5 / 3, abs=1e-15)


def _random_rational_expr(rng, n, d):
    """A random polynomial over a positive denominator with a constant
    subtree and a negative power, so that folding, division and powers all
    show."""
    num = random_polynomial_expr(rng, n, d)
    den = ex.Add(ex.Div(ex.num(int(rng.integers(1, 9))), ex.num(3)), ex.Pow(ex.Var("x", 0), 2))
    return ex.Add(ex.Div(num, den), ex.Mul(ex.Pow(den, -1), ex.Var("x", n - 1)))


class TestColumnEvaluation:
    def test_columns_match_scalar_rows(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n, d = int(rng.integers(1, 4)), int(rng.integers(0, 3))
            e = _random_rational_expr(rng, n, d)
            folded = ex.fold_float(e)
            X, P = rng.uniform(-2, 2, size=(300, n)), rng.uniform(-2, 2, size=(300, d))
            cols = ex.evaluate(folded, list(X.T), list(P.T))
            for row in range(len(X)):
                x, p = X[row].tolist(), P[row].tolist()
                # the raw tree computes float op Fraction as the folded one
                assert cols[row] == ex.evaluate(e, x, p) == ex.evaluate(folded, x, p)

    def test_fold_leaves_no_fraction_and_renders_the_source(self):
        e = parse_expr("(1/4 + p1)*x1 + (2 + 3)/7 - x1^2/(1 - 1)", 1, 1)
        folded = ex.fold_float(e)

        def nums(t):
            if isinstance(t, ex.Num):
                return [t.value]
            children = [c for c in vars(t).values() if not isinstance(c, (int, str))]
            return [v for c in children for v in nums(c)]

        assert all(type(v) is float for v in nums(folded))
        assert ex.to_string(folded) == ex.to_string(e)
        # the zero denominator is kept, so evaluation raises where it did
        with pytest.raises(EvaluationError, match=r"x1\^2/\(1 - 1\)"):
            ex.evaluate(folded, [0.5], [0.25])

    def test_zero_denominator_in_one_row_raises(self):
        e = ex.fold_float(parse_expr("x1/(x2 - 1/2)", 2, 0))
        X = np.array([[1.0, 0.0], [1.0, 0.5], [2.0, 3.0]])
        with pytest.raises(EvaluationError, match=r"x1/\(x2 - 1/2\)"):
            ex.evaluate(e, list(X.T), [])
        assert ex.evaluate(e, list(X[[0, 2]].T), []).tolist() == [-2.0, 0.8]

    def test_float_overflow_names_its_subtree(self):
        # Python's float ** int raises OverflowError where numpy would give
        # inf; it surfaces as the typed error, at one point and per row
        e = ex.fold_float(parse_expr("x1 + (1 + x1)^4000", 1, 0))
        with pytest.raises(EvaluationError, match=r"float overflow in subexpression '\(1 \+ x1\)\^4000'"):
            ex.evaluate(e, [1.0], [])
        with pytest.raises(EvaluationError, match=r"'\(1 \+ x1\)\^4000'"):
            ex.evaluate(e, [np.array([-1.0, 1.0])], [])
        assert ex.evaluate(e, [np.array([-1.0, -2.0])], []).tolist() == [-1.0, -1.0]

    def test_constant_beyond_every_float_is_kept_and_raises_typed(self):
        # 10^400 stays a subtree when folding; evaluation in floats then
        # raises the typed error there, and the exact value is untouched
        e = parse_expr("x1 + 10^400*x1 - 10^400*x1", 1, 0)
        folded = ex.fold_float(e)
        assert ex.to_string(folded) == ex.to_string(e)
        with pytest.raises(EvaluationError, match="float overflow in subexpression '10\\^400'"):
            ex.evaluate(folded, [0.5], [])
        assert ex.evaluate(e, [Fraction(1, 2)], []) == Fraction(1, 2)

    def test_batched_bundle_matches_points(self, ex64_model):
        curved = parse_model(
            "dims n=2 d=1\nf = (x1 + x1^3/3 + p1, x2/(1 + x1^2))\n"
            "constraint x1^2 + x2^2 - 1 <= 0\nconstraint x1 - p1^2 <= 0\n"
        )
        rng = np.random.default_rng(4)
        for model in (ex64_model, curved):
            X = rng.uniform(-1, 1, size=(40, model.n))
            P = rng.uniform(-1, 1, size=(40, model.d))
            batch = eval_bundle(model, X, P)
            for row in range(len(X)):
                point = eval_bundle(model, X[row], P[row])
                for name in ("f", "jac_f", "phi", "grad_phi", "hess_phi"):
                    assert np.array_equal(getattr(batch, name)[row], getattr(point, name))
                assert np.array_equal(eval_f(model, X[row], P[row]), point.f)
                # the values the unfolded trees give at the float point
                fx = [
                    float(ex.evaluate(fi, X[row].tolist(), P[row].tolist()))
                    for fi in model.f_components
                ]
                assert point.f.tolist() == fx
            assert np.array_equal(eval_f(model, X, P), batch.f)

    def test_batched_bundle_raises_on_one_bad_row(self):
        m = parse_model("dims n=1 d=1\nf = (1/(x1 - p1))\n")
        with pytest.raises(EvaluationError, match="division by zero"):
            eval_bundle(m, np.array([[0.5], [0.25], [1.0]]), np.array([[0.0], [0.25], [0.0]]))
        m = parse_model("dims n=1 d=0\nf = (x1*x1*x1*x1)\n")
        with pytest.raises(EvaluationError, match="non-finite"):
            eval_bundle(m, np.array([[1.0], [1e100]]), np.zeros((2, 0)))


class TestRoundTrip:
    def test_print_parse_pointwise_identical(self, ex64_model):
        text = print_model(ex64_model)
        m2 = parse_model(text)
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.uniform(-1, 1, size=3)
            p = rng.uniform(-1, 1, size=2)
            b1 = eval_bundle(ex64_model, x, p)
            b2 = eval_bundle(m2, x, p)
            assert b1.f == pytest.approx(b2.f, abs=1e-12)
            assert b1.phi == pytest.approx(b2.phi, abs=1e-12)

    def test_random_model_roundtrip(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            n, d = int(rng.integers(1, 3)), int(rng.integers(0, 2))
            comps = ", ".join(
                ex.to_string(random_polynomial_expr(rng, n, d)) for _ in range(n)
            )
            text = f"dims n={n} d={d}\nf = ({comps})\n"
            m = parse_model(text)
            m2 = parse_model(print_model(m))
            for _ in range(5):
                x = list(rng.uniform(-1, 1, size=n))
                p = list(rng.uniform(-1, 1, size=d))
                try:
                    v1 = [float(ex.evaluate(c, x, p)) for c in m.f_components]
                except EvaluationError:
                    continue
                v2 = [float(ex.evaluate(c, x, p)) for c in m2.f_components]
                assert v1 == pytest.approx(v2, abs=1e-12)


class TestAffinityDetection:
    def test_quadratic_not_affine(self):
        m = parse_model("dims n=1 d=0\nf = (x1)\nconstraint x1^2 - 1 <= 0\nreference x=(0) p=() v=(0)\n")
        assert m.affine_x == (False,)

    def test_disguised_zero_hessian(self):
        # x1*x1 - x1^2 is identically zero; the probe must see through it.
        m = parse_model("dims n=1 d=0\nf = (x1)\nconstraint x1*x1 - x1^2 + x1 <= 0\n")
        assert m.affine_x == (True,)

    def test_parameter_dependent_gradient_not_affine_xp(self):
        m = parse_model("dims n=1 d=1\nf = (x1)\nconstraint p1*x1 <= 0\n")
        assert m.affine_x == (True,)
        assert m.affine_xp == (False,)

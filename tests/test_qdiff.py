"""Closed-form vs numeric deformed derivatives, kernels, reductions."""

import math

import pytest

from qcalc import (
    Deformation,
    DomainError,
    MissingDerivativeError,
    PoleError,
    RealFunction,
    ToleranceWarning,
    builtin,
    parse,
    q_add,
)
from qcalc import funcexpr, qdiff
from qcalc.funcexpr import differentiate, evaluate
from qcalc.qdiff import (
    DerivConfig,
    dual_qderiv_closed,
    dual_qderiv_numeric,
    primal_qderiv_closed,
    primal_qderiv_numeric,
)
from qcalc.qgeom import dual_qtangent, primal_qtangent

Q_SET = [-1.0, 0.0, 0.5, 2.0]


def grid(lo: float, hi: float, n: int) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def scaled_err(got: float, want: float) -> float:
    return abs(got - want) / max(1.0, abs(want))


# ---------------------------------------------------------------------------
# Point values


class TestPointValues:
    def test_primal_closed_deformed_exponential(self):
        d = Deformation(0.5)
        f = builtin("qexp", d)
        # (1 + 0.5*1) * 1.5 = 2.25
        assert primal_qderiv_closed(f, 1.0, d) == pytest.approx(2.25, rel=1e-15)

    def test_primal_closed_square(self):
        d = Deformation(0.5)
        f = funcexpr.compile(parse("x^2", d))
        # (1 + 0.5) * 2 = 3
        assert primal_qderiv_closed(f, 1.0, d) == pytest.approx(3.0, rel=1e-15)

    def test_dual_closed_deformed_log(self):
        d = Deformation(0.5)
        F = builtin("qlog", d)
        # reduces to 1/x for every q
        assert dual_qderiv_closed(F, 2.0, d) == pytest.approx(0.5, rel=1e-15)

    def test_dual_closed_identity(self):
        d = Deformation(0.0)
        F = builtin("identity", d)
        # 1 / (1 + 1*1) = 0.5
        assert dual_qderiv_closed(F, 1.0, d) == pytest.approx(0.5, rel=1e-15)


# ---------------------------------------------------------------------------
# Closed-form / numeric equivalence


class TestEquivalence:
    @pytest.mark.parametrize("q", Q_SET)
    @pytest.mark.parametrize("text", ["x^2", "sin(x)"])
    def test_primal_on_expressions(self, q, text):
        d = Deformation(q)
        f = funcexpr.compile(parse(text, d))
        for x in grid(0.05, 0.9, 20):
            want = primal_qderiv_closed(f, x, d)
            got = primal_qderiv_numeric(f, x, d)
            assert scaled_err(got, want) <= 1e-6, (q, x)

    @pytest.mark.parametrize("q", Q_SET)
    def test_primal_on_deformed_exponential(self, q):
        d = Deformation(q)
        f = builtin("qexp", d)
        for x in grid(0.05, 0.9, 20):
            want = primal_qderiv_closed(f, x, d)
            got = primal_qderiv_numeric(f, x, d)
            assert scaled_err(got, want) <= 1e-6, (q, x)

    @pytest.mark.parametrize("q", Q_SET)
    def test_dual_on_deformed_log(self, q):
        d = Deformation(q)
        F = builtin("qlog", d)
        for x in grid(0.2, 3.0, 20):
            want = dual_qderiv_closed(F, x, d)
            got = dual_qderiv_numeric(F, x, d)
            assert scaled_err(got, want) <= 1e-6, (q, x)

    @pytest.mark.parametrize("q", Q_SET)
    def test_dual_on_identity(self, q):
        d = Deformation(q)
        F = builtin("identity", d)
        for x in grid(0.05, 0.9, 20):
            want = dual_qderiv_closed(F, x, d)
            got = dual_qderiv_numeric(F, x, d)
            assert scaled_err(got, want) <= 1e-6, (q, x)

    @pytest.mark.parametrize("q", Q_SET)
    def test_dual_on_restricted_cubic(self, q):
        d = Deformation(q)
        F = funcexpr.compile(parse("x^3 + 1", d))
        # keep 1 + delta*F(x) positive: negative x for q > 1
        xs = grid(-0.9, -0.05, 20) if q > 1.0 else grid(0.05, 0.9, 20)
        for x in xs:
            want = dual_qderiv_closed(F, x, d)
            got = dual_qderiv_numeric(F, x, d)
            assert scaled_err(got, want) <= 1e-6, (q, x)


# ---------------------------------------------------------------------------
# Structural properties


SUPPORT_GRIDS = {
    -1.0: (-0.45, 2.5),
    0.0: (-0.95, 2.5),
    0.5: (-1.9, 2.5),
    2.0: (-2.0, 0.9),
}


class TestEigenfunction:
    @pytest.mark.parametrize("q", Q_SET)
    def test_deformed_exponential_is_fixed_point(self, q):
        d = Deformation(q)
        f = builtin("qexp", d)
        lo, hi = SUPPORT_GRIDS[q]
        for x in grid(lo, hi, 20):
            got = primal_qderiv_numeric(f, x, d)
            assert scaled_err(got, f(x)) <= 1e-6, (q, x)


class TestDualSendsLogToReciprocal:
    @pytest.mark.parametrize("q", Q_SET)
    def test_on_decade(self, q):
        d = Deformation(q)
        F = builtin("qlog", d)
        for x in grid(0.1, 10.0, 20):
            got = dual_qderiv_numeric(F, x, d)
            assert scaled_err(got, 1.0 / x) <= 1e-6, (q, x)


class TestTranslationKernels:
    @pytest.mark.parametrize("q", Q_SET)
    @pytest.mark.parametrize("c", [-0.5, 1.0, 2.0])
    def test_primal_ignores_additive_constants(self, q, c):
        d = Deformation(q)
        f = builtin("qexp", d)
        shifted = RealFunction(eval=lambda x: f(x) + c, domain=f.domain)
        for x in grid(0.1, 0.8, 5):
            base = primal_qderiv_numeric(f, x, d)
            moved = primal_qderiv_numeric(shifted, x, d)
            assert abs(base - moved) <= 1e-8 * max(1.0, abs(base)), (q, c, x)

    @pytest.mark.parametrize("q", Q_SET)
    @pytest.mark.parametrize("c", [-0.5, 1.0, 2.0])
    def test_dual_ignores_deformed_additive_constants(self, q, c):
        d = Deformation(q)
        if d.bracket(c) <= 0.05:
            pytest.skip("shift lands on or beyond the pole for this q")
        F = builtin("qlog", d)
        shifted = RealFunction(eval=lambda x: q_add(F(x), c, d), domain=F.domain)
        for x in grid(0.4, 2.5, 5):
            base = dual_qderiv_numeric(F, x, d)
            moved = dual_qderiv_numeric(shifted, x, d)
            assert abs(base - moved) <= 1e-8 * max(1.0, abs(base)), (q, c, x)


class TestClassicalReduction:
    def test_primal_is_plain_derivative(self):
        d = Deformation(1.0)
        f = funcexpr.compile(parse("sin(x)", d))
        for x in grid(-1.0, 1.0, 9):
            got = primal_qderiv_numeric(f, x, d)
            assert scaled_err(got, math.cos(x)) <= 1e-6

    def test_dual_is_plain_derivative(self):
        d = Deformation(1.0)
        F = funcexpr.compile(parse("sin(x)", d))
        for x in grid(-0.5, 0.5, 9):
            got = dual_qderiv_numeric(F, x, d)
            assert scaled_err(got, math.cos(x)) <= 1e-6


# ---------------------------------------------------------------------------
# Failure modes and diagnostics


class TestFailureModes:
    def test_closed_requires_attached_derivative(self):
        d = Deformation(0.5)
        bare = RealFunction(eval=lambda x: x * x)
        with pytest.raises(MissingDerivativeError):
            primal_qderiv_closed(bare, 1.0, d)
        with pytest.raises(MissingDerivativeError):
            dual_qderiv_closed(bare, 1.0, d)

    def test_dual_closed_pole(self):
        d = Deformation(0.5)
        at_pole = RealFunction(eval=lambda x: -2.0, derivative=lambda x: 0.0)
        with pytest.raises(DomainError) as numeric:
            dual_qderiv_numeric(at_pole, 1.0, d)
        with pytest.raises(DomainError) as closed:  # the numeric method's error
            dual_qderiv_closed(at_pole, 1.0, d)
        assert str(closed.value) == str(numeric.value)

    def test_dual_numeric_rejects_cutoff_region(self):
        d = Deformation(2.0)
        F = builtin("identity", d)
        with pytest.raises(DomainError):
            dual_qderiv_numeric(F, 1.5, d)

    def test_primal_numeric_rejects_pole_point(self):
        d = Deformation(0.5)
        f = funcexpr.compile(parse("x^2", d))
        with pytest.raises(PoleError):
            primal_qderiv_numeric(f, -2.0, d)

    def test_numeric_outside_domain(self):
        d = Deformation(0.5)
        f = funcexpr.compile(parse("ln(x)", d))
        with pytest.raises(DomainError):
            primal_qderiv_numeric(f, -3.0, d)

    def test_stencil_shrinks_into_narrow_domain(self):
        d = Deformation(0.5)
        lo, hi = 1.0 - 2e-5, 1.0 + 2e-5

        def f(x: float) -> float:
            if not (lo < x < hi):
                raise DomainError("wall")
            return math.log(x)

        narrow = RealFunction(eval=f, domain=lambda x: lo < x < hi)
        got = dual_qderiv_numeric(narrow, 1.0, d)
        want = 1.0 / d.bracket(math.log(1.0))  # = 1.0
        assert scaled_err(got, want) <= 1e-6

    def test_unfittable_stencil_raises(self):
        d = Deformation(0.5)
        only_center = RealFunction(
            eval=lambda x: x, domain=lambda x: x == 1.0
        )
        with pytest.raises(DomainError):
            dual_qderiv_numeric(only_center, 1.0, d)

    @pytest.mark.parametrize("numeric", [primal_qderiv_numeric, dual_qderiv_numeric])
    @pytest.mark.parametrize("q", [1.0, 0.5])
    def test_an_overflowing_stencil_says_so(self, numeric, q):
        # exp(x) is finite at x but overflows at x + h for every step tried
        d = Deformation(q)
        f = funcexpr.compile(parse("exp(x)", d))
        with pytest.raises(DomainError, match="stencil still overflows after 8 shrinks") as info:
            numeric(f, 709.78271, d)
        assert isinstance(info.value.__cause__, OverflowError)
        # a stencil that leaves the domain is still told apart
        with pytest.raises(DomainError, match="no difference stencil fits inside the domain"):
            numeric(RealFunction(eval=lambda x: x, domain=lambda x: x == 1.0), 1.0, d)

    @pytest.mark.parametrize("numeric, q, x", [
        (primal_qderiv_numeric, 1.0, 1.7976931348623157e308),
        (primal_qderiv_numeric, 1.0, -1.7976931348623157e308),
        (dual_qderiv_numeric, -1.0, 1.7976931348623157e308),
        (dual_qderiv_numeric, 1.0, -1.7976931348623157e308),
    ])
    def test_a_stencil_point_past_the_float_range_overflows(self, numeric, q, x):
        # x is finite but x + h is not: the identity chart's outermost point overflows
        d = Deformation(q)
        f = funcexpr.compile(parse("x", d))
        with pytest.raises(DomainError, match="stencil still overflows after 8 shrinks") as info:
            numeric(f, x, d)
        assert isinstance(info.value.__cause__, OverflowError)
        assert math.isfinite(numeric(f, math.copysign(1.7e308, x), d))  # its stencil fits

    def test_rough_function_warns(self):
        d = Deformation(0.5)
        kink = RealFunction(eval=lambda x: abs(x - 0.3 - 1e-7), domain=lambda x: True)
        with pytest.warns(ToleranceWarning):
            value = primal_qderiv_numeric(kink, 0.3, d)
        assert math.isfinite(value)

    @pytest.mark.parametrize("numeric", [primal_qderiv_numeric, dual_qderiv_numeric])
    def test_a_nan_estimate_warns(self, numeric):
        # x*x is finite at 1.3407807e154 and overflows on the stencil around
        # it: value and estimate are NaN
        d = Deformation(1.0)
        f = funcexpr.compile(parse("x*x", d))
        with pytest.warns(ToleranceWarning, match="error estimate nan"):
            value = numeric(f, 1.3407807e154, d)
        assert math.isnan(value)

    def test_smooth_functions_do_not_warn(self):
        d = Deformation(0.5)
        f = builtin("qexp", d)
        with warnings_as_errors():
            primal_qderiv_numeric(f, 0.7, d)
            dual_qderiv_numeric(builtin("qlog", d), 2.0, d)


class TestTheChart:
    def test_the_operators_hold_no_chart_arithmetic(self):
        # the chart's texts live in funcexpr (and its scalars in qcore): the
        # stencil and the panel only format them
        from qcalc import qquad

        for module in (qdiff, qquad):
            with open(module.__file__, encoding="utf-8") as source:
                text = source.read()
            for arithmetic in ("log1p(", "expm1(", "exp(delta", "log(-"):
                assert arithmetic not in text, (module.__name__, arithmetic)

    def test_the_deformed_qlog_template_is_the_inverse_chart(self):
        # qlog_q formats CHART_ABOVE at log of its operand, its delta bound as a
        # second operand; the templates' own text holds no chart arithmetic
        import ast

        assert funcexpr._TEMPLATES["qlog_q"] == "expm1({1} * log({0})) / {1}"
        with open(funcexpr.__file__, encoding="utf-8") as source:
            text = source.read()
        (templates,) = [node for node in ast.parse(text).body if isinstance(node, ast.Assign)
                        and getattr(node.targets[0], "id", None) == "_TEMPLATES"]
        assert "expm1(" not in ast.get_source_segment(text, templates)

    @pytest.mark.parametrize("x", [1e307, 1e308, 1.79e308])
    def test_dual_numeric_is_finite_past_the_float_range(self, x):
        # at q = -1, delta * F(x) = 2x is inf: ln_big_e's branch past the float
        # range keeps every stencil value finite
        d = Deformation(-1.0)
        f = funcexpr.compile(parse("x", d))
        with warnings_as_errors():
            value, estimate = qdiff.dual_qderiv_numeric_with_estimate(f, x, d)
        want = 0.5 / (x + 0.5)  # 1 / (1 + 2x), without overflowing
        assert math.isfinite(value) and math.isfinite(estimate)
        assert abs(value - want) <= 1e-6 * want

    @pytest.mark.parametrize("q", [-1.0, 0.0, 0.5])
    def test_compiled_qexp_derivative_is_flat_on_the_cutoff(self, q):
        d = Deformation(q)
        f = funcexpr.compile(parse("qexp(x)", d))
        for x in (d.pole - 1.0, d.pole, -1e300, -1e308):
            assert f.derivative(x) == 0.0 == builtin("qexp", d).derivative(x), x
        for x in (d.pole - 1.0, -1e300):  # the pole is the primal chart's too
            assert primal_qderiv_closed(f, x, d) == 0.0 == primal_qderiv_numeric(f, x, d)
        assert f.derivative(d.pole + 0.5) == pytest.approx(f.eval(d.pole + 0.5) ** q, rel=1e-15)

    @pytest.mark.parametrize("x", [1.0, 1.5, 1e308])
    def test_compiled_qexp_derivative_is_undefined_at_and_past_the_pole(self, x):
        d = Deformation(2.0)
        f = funcexpr.compile(parse("qexp(x)", d))
        with pytest.raises(PoleError):
            f.derivative(x)
        # qexp(x) is inf there, so x is outside its domain before the derivative runs
        with pytest.raises(DomainError) as info:
            primal_qderiv_closed(f, x, d)
        assert str(info.value) == f"x = {x} is outside the domain of qexp(x)"
        assert f.derivative(0.5) == pytest.approx(4.0, rel=1e-15)  # (1 - 0.5)^-2

    @pytest.mark.parametrize("text, x", [("ln(x)", -2.0), ("ln(x)", 0.0), ("sqrt(x)", -1.0),
                                         ("1/(x+3)", -3.0), ("x^2", 1e308)])
    def test_primal_closed_is_undefined_outside_the_domain(self, text, x):
        d = Deformation(0.5)
        f = funcexpr.compile(parse(text, d))
        with pytest.raises(DomainError) as numeric:
            primal_qderiv_numeric(f, x, d)
        with pytest.raises(DomainError) as closed:
            primal_qderiv_closed(f, x, d)
        assert str(closed.value) == str(numeric.value) == (
            f"x = {x} is outside the domain of {f.label}")

    @pytest.mark.parametrize("q", [-1.0, 0.0, 0.5])
    def test_compiled_qexp_second_derivative_is_flat_on_the_cutoff(self, q):
        d = Deformation(q)
        second = differentiate(differentiate(parse("qexp(x)", d)))
        for x in (d.pole - 1.0, -1e300, -1e308):
            assert evaluate(second, x) == 0.0, x
        for x in (d.pole + 0.5, 0.3, 2.0):  # q (1 + delta*x)^((2q-1)/delta) on the support
            want = q * (1.0 + d.delta * x) ** ((2.0 * q - 1.0) / d.delta)
            assert evaluate(second, x) == pytest.approx(want, rel=1e-14, abs=0.0), x

    def test_compiled_qexp_second_derivative_is_undefined_past_the_pole(self):
        d = Deformation(2.0)
        second = differentiate(differentiate(parse("qexp(x)", d)))
        for x in (1.0, 1.5, 1e308):
            with pytest.raises(PoleError):
                evaluate(second, x)
        assert evaluate(second, 0.5) == pytest.approx(16.0, rel=1e-15)  # 2 (1 - 0.5)^-3

    def test_builtins_the_grammar_covers_are_compiled_trees(self):
        d = Deformation(0.5)
        for name, text in (("qexp", "qexp(x)"), ("qlog", "qlog(x)"), ("recip", "1/x"),
                           ("identity", "x")):
            f = builtin(name, d)
            assert f.label == name and f.domain is None
            assert f.eval.tree == parse(text, d)


# ---------------------------------------------------------------------------
# One domain rule: the closed and numeric derivatives and the tangents decide
# where each operator is defined alike


def _outcome(call):
    """("value", the value), or the raised error's (type, message)."""
    try:
        return "value", call()
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


class TestOneDomainRule:
    @pytest.mark.parametrize("text, q, x", [
        ("x", 0.5, -2.0),  # the primal pole; F on the dual pole
        ("x", 2.0, 1.0),  # the primal pole; F on the dual pole
        ("ln(x)", 0.5, -2.0),  # outside F's domain
        ("x", 0.5, -3.0),  # F in the dual cutoff region
        ("x", 2.0, 1.5),  # F in the dual cutoff region, beyond the primal pole
        ("qexp(x)", 2.0, 1.5),  # F(x) = inf: outside F's domain
        ("x^2+3*x-1", 0.5, 0.3),
        ("qlog(x+2)", 2.0, 0.3),
        ("x*qexp(x/4)+sin(x)^2", 1.0, 0.3),
    ])
    @pytest.mark.parametrize("predicate", [False, True])
    @pytest.mark.parametrize("op", ["primal", "dual"])
    def test_closed_numeric_and_tangent_decide_alike(self, op, predicate, text, q, x):
        d = Deformation(q)
        f = funcexpr.compile(parse(text, d))
        if predicate:  # a hand-built domain predicate, and no label
            f = RealFunction(eval=f.eval, derivative=f.derivative, domain=f.defined)
        closed = getattr(qdiff, f"{op}_qderiv_closed")
        numeric = getattr(qdiff, f"{op}_qderiv_numeric")
        if op == "primal":
            tangent = lambda g: primal_qtangent(g, x, d).k_q  # noqa: E731
        else:
            tangent = lambda g: dual_qtangent(g, x, d).k_sup_q  # noqa: E731
        numeric_only = RealFunction(eval=f.eval, domain=f.domain, label=f.label)
        outcomes = [_outcome(lambda: closed(f, x, d)), _outcome(lambda: numeric(f, x, d)),
                    _outcome(lambda: tangent(f)), _outcome(lambda: tangent(numeric_only))]
        if all(kind == "value" for kind, _ in outcomes):
            want = outcomes[0][1]
            for _, value in outcomes:
                assert abs(value - want) <= 1e-6 * max(1.0, abs(want)), outcomes
        else:
            assert outcomes == [outcomes[0]] * 4


class warnings_as_errors:
    def __enter__(self):
        import warnings

        self._ctx = warnings.catch_warnings()
        self._ctx.__enter__()
        warnings.simplefilter("error", ToleranceWarning)
        return self

    def __exit__(self, *exc):
        return self._ctx.__exit__(*exc)


class TestConfig:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            DerivConfig(rel_tol=-1.0)
        with pytest.raises(TypeError):
            DerivConfig(base_step=1e-4)  # the stencil is fixed by qdiff constants

    @pytest.mark.parametrize("rel_tol", [math.nan, math.inf])
    def test_rejects_non_finite_rel_tol(self, rel_tol):
        # err > nan is never true, so a nan tolerance would never warn
        with pytest.raises(ValueError, match="finite"):
            DerivConfig(rel_tol=rel_tol)


# ---------------------------------------------------------------------------
# Work per point: each stencil point of a compiled function is evaluated once


class TestEvaluationCount:
    @pytest.mark.parametrize("q", [-1.0, 0.5, 1.0, 2.0])
    def test_compiled_function_evaluations_per_point(self, q):
        # the tree's compiled closure, wrapped before compile() takes it,
        # counts the centre-point domain check and the stencil points alike
        d = Deformation(q)
        ast = parse("x*qexp(x/4)+sin(x)^2", d)
        calls = []
        real_closure = funcexpr.compile(ast).eval

        def counting_closure(x, flags=None):
            calls.append(x)
            return real_closure(x, flags)

        object.__setattr__(ast, "_compiled", counting_closure)
        f = funcexpr.compile(ast)
        budget = 2 * (qdiff.RICHARDSON_LEVELS + 1) + 1
        for op in (primal_qderiv_numeric, dual_qderiv_numeric):
            for x in (-0.3, 0.2, 0.4):
                calls.clear()
                op(f, x, d)
                assert 0 < len(calls) <= budget, (op.__name__, x, len(calls))


# ---------------------------------------------------------------------------
# Accuracy of the numeric derivatives against the closed ones

# the smooth expressions of the benchmark's tables, each with its x range
TABLE_POOL = (
    ("x^2+3*x-1", (-0.5, 1.2)),
    ("sin(x)*cos(x)", (-1.0, 1.5)),
    ("exp(x/2)-1.2", (-2.0, 1.0)),
    ("1/(x+3)", (-1.0, 3.0)),
    ("sqrt(x+1.5)-1", (-1.0, 1.5)),
    ("qexp(x/3)-1", (-1.0, 1.5)),
    ("qlog(x+2)", (-1.0, 1.0)),
    ("x*qexp(x/4)+sin(x)^2", (-1.0, 1.0)),
    ("ln(x+2)*cos(x)", (-1.0, 1.5)),
    ("(x+1)^3/(x^2+1)-0.5", (-1.0, 1.0)),
)


def _numeric_sweep():
    """(error scaled by max(1, |slope|), absolute error, estimate) of every
    numeric derivative of the pool on 40 points, 7 q and both operators that
    has a closed slope to compare with."""
    rows = []
    for text, (lo, hi) in TABLE_POOL:
        for q in (-1.0, 0.0, 0.5, 0.9, 1.0, 1.1, 2.0):
            d = Deformation(q)
            f = funcexpr.compile(parse(text, d))
            for x in grid(lo, hi, 40):
                for op in ("primal", "dual"):
                    try:
                        want = qdiff.slope_at(f, x, d, op)[1]
                    except (DomainError, PoleError):
                        continue
                    numeric = getattr(qdiff, f"{op}_qderiv_numeric_with_estimate")
                    got, estimate = numeric(f, x, d)
                    rows.append((scaled_err(got, want), abs(got - want), estimate))
    return rows


class TestAccuracy:
    def test_the_pool_sweep_is_accurate_and_its_estimates_honest(self):
        rows = _numeric_sweep()
        assert len(rows) > 5000
        errors = sorted(row[0] for row in rows)
        assert errors[len(errors) // 2] <= 2e-12
        assert errors[int(0.99 * len(errors))] <= 5e-11
        # estimates that claim less than the true error
        assert sum(estimate < error for _, error, estimate in rows) <= 300

    @pytest.mark.parametrize("op, q, value, estimate", [
        ("primal", 0.5, 1.0660548754473858e-06, 1.1004478692496267e-06),
        ("primal", 2.0, -1.2978098439587442e-06, 1.3396790410583103e-06),
    ])
    def test_a_level_one_miss_returns_the_full_table(self, op, q, value, estimate):
        # level 1 misses rel_tol on the kink of abs(x-0.3): the value and the
        # estimate are those of the full three-level table, bit for bit
        d = Deformation(q)
        f = funcexpr.compile(parse("abs(x-0.3)", d))
        numeric = getattr(qdiff, f"{op}_qderiv_numeric_with_estimate")
        with pytest.warns(ToleranceWarning, match="error estimate"):
            got = numeric(f, 0.3, d)
        assert [v.hex() for v in got] == [value.hex(), estimate.hex()]

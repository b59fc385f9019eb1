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
from qcalc.qdiff import (
    DerivConfig,
    dual_qderiv_closed,
    dual_qderiv_numeric,
    primal_qderiv_closed,
    primal_qderiv_numeric,
)

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
        with pytest.raises(PoleError):
            dual_qderiv_closed(at_pole, 1.0, d)

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

    def test_rough_function_warns(self):
        d = Deformation(0.5)
        kink = RealFunction(eval=lambda x: abs(x - 0.3 - 1e-7), domain=lambda x: True)
        with pytest.warns(ToleranceWarning):
            value = primal_qderiv_numeric(kink, 0.3, d)
        assert math.isfinite(value)

    def test_smooth_functions_do_not_warn(self):
        d = Deformation(0.5)
        f = builtin("qexp", d)
        with warnings_as_errors():
            primal_qderiv_numeric(f, 0.7, d)
            dual_qderiv_numeric(builtin("qlog", d), 2.0, d)


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
        real_closure = ast._compiled

        def counting_closure(x, flags=None):
            calls.append(x)
            return real_closure(x, flags)

        vars(ast)["_compiled"] = counting_closure
        f = funcexpr.compile(ast)
        budget = 2 * (qdiff.RICHARDSON_LEVELS + 1) + 1
        for op in (primal_qderiv_numeric, dual_qderiv_numeric):
            for x in (-0.3, 0.2, 0.4):
                calls.clear()
                op(f, x, d)
                assert 0 < len(calls) <= budget, (op.__name__, x, len(calls))

"""Deformed line families, secant/tangent slopes, duality relations."""

import math
import random

import pytest

from qcalc import (
    Deformation,
    DegenerateSecantError,
    DomainError,
    InverseMismatchError,
    RealFunction,
    builtin,
    ln_big_e,
    parse,
    q_add,
    q_log,
    q_sub,
)
from qcalc import funcexpr
from test_compiled_eval import calls, names
from qcalc.qgeom import (
    DualQLine,
    PrimalQLine,
    dual_qline_eval,
    dual_qline_through,
    dual_qtangent,
    dual_secant_slope,
    integral_ratio,
    primal_qline_eval,
    primal_qline_through,
    primal_qtangent,
    primal_secant_slope,
    slope_duality,
)

Q_SET = [-1.0, 0.0, 0.5, 2.0]


def as_fn(evaluator, domain=lambda x: True) -> RealFunction:
    return RealFunction(eval=evaluator, domain=domain)


# ---------------------------------------------------------------------------
# Line evaluation


class TestLineEvaluation:
    def test_primal_at_zero_is_exactly_c(self):
        L = PrimalQLine(Deformation(0.5), 2.0, 1.0)
        assert primal_qline_eval(L, 0.0) == 1.0

    def test_primal_point_value(self):
        L = PrimalQLine(Deformation(0.5), 2.0, 0.0)
        # oracle: generate_frozen_values.py -> 2 * ln(1.5)/0.5
        assert abs(primal_qline_eval(L, 1.0) - 1.6218604324326575) <= 1e-15

    def test_dual_at_zero_is_exactly_intercept(self):
        L = DualQLine(Deformation(0.5), 1.0, 0.25)
        assert dual_qline_eval(L, 0.0) == 0.25

    def test_dual_point_value(self):
        L = DualQLine(Deformation(0.5), 1.0, 0.0)
        # oracle: generate_frozen_values.py -> ln_q 2 at q = 0.5
        assert abs(dual_qline_eval(L, math.log(2.0)) - 0.8284271247461901) <= 1e-15

    def test_dual_bracket_constant_round_trip(self):
        d = Deformation(0.5)
        L = DualQLine(d, 1.3, 0.6)
        rebuilt = DualQLine(d, 1.3, (L.c - 1.0) / d.delta)
        assert rebuilt.intercept == pytest.approx(L.intercept, rel=1e-15)

    def test_classical_lines_are_ordinary(self):
        d = Deformation(1.0)
        P = PrimalQLine(d, 2.0, 0.5)
        D = DualQLine(d, 2.0, 0.5)
        for x in (-1.0, 0.3, 2.0):
            assert primal_qline_eval(P, x) == pytest.approx(2.0 * x + 0.5, rel=1e-15)
            assert dual_qline_eval(D, x) == pytest.approx(2.0 * x + 0.5, rel=1e-15)
        assert D.c == 1.0  # the bracket constant degenerates classically


# ---------------------------------------------------------------------------
# Constant-slope laws


class TestConstantSlope:
    @pytest.mark.parametrize("q", Q_SET)
    def test_primal_secant_recovers_line_slope(self, q):
        d = Deformation(q)
        rng = random.Random(int(q * 4) + 100)
        for _ in range(25):
            k = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
            c = rng.uniform(-2.0, 2.0)
            L = as_fn(lambda x, Ln=PrimalQLine(d, k, c): primal_qline_eval(Ln, x))
            # sample x on the bracket-positive side, away from the pole
            lo, hi = (-0.8, 0.8) if q <= 1.0 else (-0.8, 0.8)
            x_i = rng.uniform(lo, hi)
            x_j = rng.uniform(lo, hi)
            if abs(x_i - x_j) < 1e-3:
                continue
            got = primal_secant_slope(L, x_i, x_j, d)
            assert abs(got - k) <= 1e-12 * max(1.0, abs(k)), (q, k, x_i, x_j)

    @pytest.mark.parametrize("q", Q_SET)
    def test_dual_secant_recovers_line_slope(self, q):
        d = Deformation(q)
        rng = random.Random(int(q * 4) + 200)
        for _ in range(25):
            k = rng.uniform(0.1, 1.0) * rng.choice([-1.0, 1.0])
            intercept = rng.uniform(-0.3, 0.5)
            if d.bracket(intercept) <= 0.1:
                continue
            L = as_fn(lambda x, Ln=DualQLine(d, k, intercept): dual_qline_eval(Ln, x))
            x_i, x_j = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
            if abs(x_i - x_j) < 1e-3:
                continue
            got = dual_secant_slope(L, x_i, x_j, d)
            assert abs(got - k) <= 1e-12 * max(1.0, abs(k)), (q, k, x_i, x_j)

    def test_constant_function_has_zero_slope(self):
        d = Deformation(0.5)
        const = as_fn(lambda x: 3.0)
        assert primal_secant_slope(const, 0.2, 1.4, d) == 0.0
        assert dual_secant_slope(const, 0.2, 1.4, d) == 0.0


# ---------------------------------------------------------------------------
# Secant degeneracies


class TestDegenerateSecants:
    def test_mirror_pair_collapses_in_primal_chart(self):
        d = Deformation(0.5)  # mirror of x across the pole: -4 - x
        f = builtin("qexp", d)
        with pytest.raises(DegenerateSecantError):
            primal_secant_slope(f, 1.0, -5.0, d)

    def test_mirror_pair_with_rounding(self):
        d = Deformation(0.5)
        f = as_fn(lambda x: x)
        with pytest.raises(DegenerateSecantError):
            primal_secant_slope(f, 0.3, -4.0 - 0.3, d)

    def test_coincident_points(self):
        d = Deformation(0.5)
        f = builtin("qexp", d)
        with pytest.raises(DegenerateSecantError):
            primal_secant_slope(f, 0.7, 0.7, d)
        with pytest.raises(DegenerateSecantError):
            dual_secant_slope(builtin("qlog", d), 0.7, 0.7, d)

    def test_dual_secant_rejects_cutoff_values(self):
        d = Deformation(2.0)
        f = as_fn(lambda x: x)  # values beyond 1 are off the support
        with pytest.raises(DomainError):
            dual_secant_slope(f, 0.5, 1.5, d)


# ---------------------------------------------------------------------------
# Interpolation and tangency


class TestThroughLines:
    def test_primal_secant_point_value(self):
        d = Deformation(0.5)
        # oracle: generate_frozen_values.py -> 1.25 / ln(2.25)
        got = primal_secant_slope(builtin("qexp", d), 1.0, 0.0, d)
        assert abs(got - 1.5414396639852699) <= 1e-14

    def test_dual_secant_point_value(self):
        d = Deformation(0.5)
        # oracle: generate_frozen_values.py -> ln(4)/3
        got = dual_secant_slope(builtin("qlog", d), 1.0, 4.0, d)
        assert abs(got - 0.4620981203732969) <= 1e-14

    @pytest.mark.parametrize("q", Q_SET)
    @pytest.mark.parametrize("text", ["x^2", "sin(x)"])
    def test_primal_line_passes_through_both_points(self, q, text):
        d = Deformation(q)
        F = funcexpr.compile(parse(text, d))
        x_i, x_j = 0.2, 0.8
        L = primal_qline_through(F, x_i, x_j, d)
        assert abs(primal_qline_eval(L, x_i) - F(x_i)) <= 1e-10
        assert abs(primal_qline_eval(L, x_j) - F(x_j)) <= 1e-10

    @pytest.mark.parametrize("q", Q_SET)
    def test_dual_line_passes_through_both_points(self, q):
        d = Deformation(q)
        F = builtin("qlog", d)
        x_i, x_j = 0.6, 2.4
        L = dual_qline_through(F, x_i, x_j, d)
        assert abs(dual_qline_eval(L, x_i) - F(x_i)) <= 1e-10
        assert abs(dual_qline_eval(L, x_j) - F(x_j)) <= 1e-10

    def test_primal_through_is_idempotent_on_lines(self):
        d = Deformation(0.5)
        L = PrimalQLine(d, 1.7, 0.4)
        wrapped = as_fn(lambda x: primal_qline_eval(L, x))
        got = primal_qline_through(wrapped, 0.1, 1.3, d)
        assert abs(got.k_q - L.k_q) <= 1e-12
        assert abs(got.c - L.c) <= 1e-12

    def test_dual_through_is_idempotent_on_lines(self):
        d = Deformation(0.5)
        L = DualQLine(d, 0.9, 0.2)
        wrapped = as_fn(lambda x: dual_qline_eval(L, x))
        got = dual_qline_through(wrapped, -0.4, 1.1, d)
        assert abs(got.k_sup_q - L.k_sup_q) <= 1e-12
        assert abs(got.intercept - L.intercept) <= 1e-12

    def test_classical_reduction_is_ordinary_secant(self):
        d = Deformation(1.0)
        F = funcexpr.compile(parse("x^2", d))
        L = primal_qline_through(F, 1.0, 3.0, d)
        assert L.k_q == pytest.approx(4.0, rel=1e-12)  # (9-1)/(3-1)


class TestTangents:
    def test_primal_tangent_of_square(self):
        d = Deformation(0.5)
        F = funcexpr.compile(parse("x^2", d))
        L = primal_qtangent(F, 1.0, d)
        assert L.k_q == pytest.approx(3.0, rel=1e-12)
        # oracle: generate_frozen_values.py -> 1 - 6 ln 1.5
        assert abs(L.c - (-1.4327906486489863)) <= 1e-13

    def test_primal_tangent_slope_of_deformed_exponential(self):
        d = Deformation(0.5)
        L = primal_qtangent(builtin("qexp", d), 0.7, d)
        assert L.k_q == pytest.approx(builtin("qexp", d)(0.7), rel=1e-12)

    def test_dual_tangent_of_deformed_log(self):
        d = Deformation(0.5)
        L = dual_qtangent(builtin("qlog", d), 2.0, d)
        assert L.k_sup_q == pytest.approx(0.5, rel=1e-12)
        assert abs(dual_qline_eval(L, 2.0) - q_log(2.0, d)) <= 1e-12

    def test_dual_tangent_of_identity(self):
        d = Deformation(0.0)
        L = dual_qtangent(builtin("identity", d), 1.0, d)
        assert L.k_sup_q == pytest.approx(0.5, rel=1e-12)

    def test_tangent_of_line_recovers_parameters(self):
        d = Deformation(0.5)
        L = PrimalQLine(d, 1.7, 0.4)
        wrapped = as_fn(lambda x: primal_qline_eval(L, x))  # numeric-slope path
        got = primal_qtangent(wrapped, 0.8, d)
        assert abs(got.k_q - 1.7) <= 1e-8
        assert abs(got.c - 0.4) <= 1e-8

    @pytest.mark.parametrize("text", ["x^2+3*x-1", "x*qexp(x/4)+sin(x)^2", "qlog(x+2)"])
    @pytest.mark.parametrize("q", [0.5, 1.0])
    def test_a_warm_tangent_costs_at_most_eight_calls(self, text, q):
        d = Deformation(q)
        F = funcexpr.compile(parse(text, d))
        numeric = RealFunction(eval=F.eval, domain=F.domain)  # no derivative
        for op in (primal_qtangent, dual_qtangent):
            for f in (F, numeric):
                codes = calls(op, f, 0.3, d)
                assert len(codes) <= 8, names(codes)

    @pytest.mark.parametrize("closed", [True, False])
    @pytest.mark.parametrize("tangent", [primal_qtangent, dual_qtangent])
    def test_a_tangent_evaluates_F_at_its_point_once(self, tangent, closed):
        d = Deformation(0.5)
        seen = []

        def F(x):
            seen.append(x)
            return x * x + 1.0

        f = RealFunction(eval=F, derivative=(lambda x: 2.0 * x) if closed else None)
        tangent(f, 0.3, d)
        assert seen.count(0.3) == 1 + (not closed)  # and once more in the numeric stencil

    def test_primal_tangent_outside_the_domain_says_so(self):
        d = Deformation(0.5)
        for f in (funcexpr.compile(parse("ln(x)", d)), RealFunction(math.log, label="ln(x)")):
            with pytest.raises(DomainError, match=r"^x = -2.0 is outside the domain of ln\(x\)$"):
                primal_qtangent(f, -2.0, d)

    def test_dual_tangent_rejects_cutoff_point(self):
        d = Deformation(2.0)
        with pytest.raises(DomainError):
            dual_qtangent(as_fn(lambda x: x), 1.5, d)

    @pytest.mark.parametrize("q", Q_SET)
    @pytest.mark.parametrize("flavor", ["primal", "dual"])
    def test_secant_converges_to_tangent_at_first_order(self, q, flavor):
        d = Deformation(q)
        if flavor == "primal":
            F = builtin("qexp", d)
            x0 = 0.4
            k_tan = primal_qtangent(F, x0, d).k_q
            slope = lambda h: primal_secant_slope(F, x0, x0 + h, d)
        else:
            F = builtin("qlog", d)
            x0 = 2.0
            k_tan = dual_qtangent(F, x0, d).k_sup_q
            slope = lambda h: dual_secant_slope(F, x0, x0 + h, d)
        hs = [10.0**-k for k in range(1, 7)]
        errs = [abs(slope(h) - k_tan) for h in hs]
        assert all(a > b for a, b in zip(errs, errs[1:])), (q, flavor, errs)
        # least-squares order in h: first-order convergence or better
        xs = [math.log10(h) for h in hs]
        ys = [math.log10(e) for e in errs]
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        order = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
            (x - mx) ** 2 for x in xs
        )
        assert order >= 0.9, (q, flavor, order)


# ---------------------------------------------------------------------------
# Same curve, two readings: primal line of F vs dual line of its inverse


class TestSameCurveIdentity:
    @pytest.mark.parametrize("q", Q_SET)
    def test_inverted_primal_line_is_the_dual_line(self, q):
        d = Deformation(q)
        F = builtin("qexp", d)
        G = builtin("qlog", d)
        x_i, x_j = (0.2, 0.8) if q > 1.0 else (0.2, 1.1)
        y_i, y_j = F(x_i), F(x_j)

        P = primal_qline_through(F, x_i, x_j, d)
        M = dual_qline_through(G, y_i, y_j, d)
        assert abs(P.k_q * M.k_sup_q - 1.0) <= 1e-10

        def x_from_primal(y: float) -> float:
            u = (y - P.c) / P.k_q
            if d.classical:
                return u
            return math.expm1(d.delta * u) / d.delta

        for i in range(20):
            y = y_i + (y_j - y_i) * i / 19.0
            assert abs(x_from_primal(y) - dual_qline_eval(M, y)) <= 1e-8, (q, y)


class TestSlopeDuality:
    def test_at_origin(self):
        d = Deformation(0.5)
        kp, kd = slope_duality(builtin("qexp", d), builtin("qlog", d), 0.0, d)
        assert kp == pytest.approx(1.0, rel=1e-10)
        assert kd == pytest.approx(1.0, rel=1e-10)

    def test_point_values(self):
        d = Deformation(0.5)
        kp, kd = slope_duality(builtin("qexp", d), builtin("qlog", d), 1.0, d)
        assert kp == pytest.approx(2.25, rel=1e-12)
        # oracle: generate_frozen_values.py -> 1/2.25
        assert kd == pytest.approx(0.4444444444444444, rel=1e-12)

    def test_self_inverse_identity(self):
        d = Deformation(0.0)
        f = builtin("identity", d)
        kp, kd = slope_duality(f, f, 0.0, d)
        assert kp * kd == pytest.approx(1.0, rel=1e-10)

    DUALITY_GRIDS = {
        -1.0: [-0.4, 0.0, 0.5, 1.0],
        0.0: [-0.5, 0.0, 0.5, 1.0],
        0.5: [-0.5, 0.0, 0.5, 1.0],
        2.0: [-0.5, 0.0, 0.5, 0.8],
    }

    @pytest.mark.parametrize("q", Q_SET)
    def test_product_is_one_across_grid(self, q):
        d = Deformation(q)
        F, G = builtin("qexp", d), builtin("qlog", d)
        for x0 in self.DUALITY_GRIDS[q]:
            kp, kd = slope_duality(F, G, x0, d)
            assert abs(kp * kd - 1.0) <= 1e-6, (q, x0)

    def test_mismatched_pair_is_rejected(self):
        d = Deformation(0.5)
        with pytest.raises(InverseMismatchError):
            slope_duality(builtin("qexp", d), builtin("identity", d), 1.0, d)


class TestTranslationFamily:
    @pytest.mark.parametrize("q", Q_SET)
    def test_equal_slope_dual_lines_differ_by_deformed_constant(self, q):
        d = Deformation(q)
        L1 = DualQLine(d, 0.8, 0.5)
        L2 = DualQLine(d, 0.8, -0.3)
        const = q_sub(dual_qline_eval(L1, 0.3), dual_qline_eval(L2, 0.3), d)
        for i in range(20):
            x = -1.0 + 2.0 * i / 19.0
            lhs = dual_qline_eval(L1, x)
            rhs = q_add(dual_qline_eval(L2, x), const, d)
            assert abs(lhs - rhs) <= 1e-8, (q, x)


# ---------------------------------------------------------------------------
# Integral ratio


class TestIntegralRatio:
    def test_canonical_case(self):
        d = Deformation(0.5)
        f = builtin("qexp", d)  # its own primal derivative
        g = builtin("recip", d)  # dual derivative of the deformed log
        got = integral_ratio(f, g, 0.0, 1.0, 1.0, 2.25, d)
        # oracle: generate_frozen_values.py — the deformed-increment mean
        # slope (y1-y0)/(x1 (-)_q x0) = 1.25, not the u-chart secant slope
        assert abs(got - 1.25) <= 1e-6

    @pytest.mark.parametrize("q", [-1.0, 0.0, 0.5])
    def test_matches_deformed_increment_quotient(self, q):
        d = Deformation(q)
        f = builtin("qexp", d)
        g = builtin("recip", d)
        x0, x1 = 0.2, 0.9
        y0, y1 = f(x0), f(x1)
        got = integral_ratio(f, g, x0, x1, y0, y1, d)
        want = (y1 - y0) / q_sub(x1, x0, d)
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want)), q

    def test_classical_reduction(self):
        d = Deformation(1.0)
        f = funcexpr.compile(parse("2*x", d))  # derivative of x^2
        g = funcexpr.compile(parse("1/(2*sqrt(x))", d))  # derivative of sqrt
        x0, x1, y0, y1 = 1.0, 2.0, 1.0, 4.0
        got = integral_ratio(f, g, x0, x1, y0, y1, d)
        assert got == pytest.approx((y1 - y0) / (x1 - x0), rel=1e-8)

    def test_degenerate_bounds(self):
        d = Deformation(0.5)
        f = builtin("qexp", d)
        g = builtin("recip", d)
        with pytest.raises(DegenerateSecantError):
            integral_ratio(f, g, 1.0, 1.0, 1.0, 2.25, d)
        with pytest.raises(DegenerateSecantError):
            integral_ratio(f, g, 0.0, 1.0, 2.25, 2.25, d)


class TestDualInterceptCancellation:
    def test_tangent_intercept_where_the_ramp_is_tiny(self):
        # exp(delta*k*x0) is about 1.9e-10 here; 1 + delta*q_log_exp_of(k*x0)
        # formed as a sum left only six or seven correct digits in the intercept
        d = Deformation(2.0)
        F = funcexpr.compile(parse("x^2+3*x-1", d))
        line = dual_qtangent(F, 0.5376754515423714, d)
        want = -516724221.34126623  # mpmath, 50 digits
        assert abs(line.intercept - want) <= 1e-12 * abs(want)

"""Adaptive deformed integrals vs closed forms and independent oracles."""

import copy
import math
import pickle
import random

import pytest

from qcalc import (
    Deformation,
    DomainError,
    RealFunction,
    SingularityError,
    builtin,
    parse,
    q_add,
    q_exp,
    q_log,
    q_sub,
)
from qcalc import funcexpr, qquad
from qcalc.qdiff import dual_qderiv_numeric, primal_qderiv_numeric
from qcalc.qquad import (
    GeometricPartition,
    IntegralFlag,
    IntegralResult,
    QuadratureConfig,
    SingularityMode,
    borges_dual_qint,
    dual_qint,
    dual_qint_from,
    partition_sum_oracle,
    primal_qint,
    primal_qint_riemann,
)

Q_SET = [-1.0, 0.0, 0.5, 2.0]

TIGHT = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-12)
REFLECT = QuadratureConfig(singularity_mode=SingularityMode.REFLECT)


def scaled_err(got: float, want: float) -> float:
    return abs(got - want) / max(1.0, abs(want))


# ---------------------------------------------------------------------------
# Primal integral point values


class TestPrimalPointValues:
    @pytest.mark.parametrize(
        "q,lo,hi,want",
        [
            # oracle: generate_frozen_values.py (e_q(hi) - e_q(lo))
            (0.5, 0.0, 1.0, 1.25),
            (0.0, 0.0, 1.0, 1.0),
            (0.9, 0.0, 1.0, 1.5937424601),
            (2.0, 0.0, 0.5, 1.0),
        ],
    )
    def test_deformed_exponential_integrates_to_itself(self, q, lo, hi, want):
        d = Deformation(q)
        res = primal_qint(builtin("qexp", d), lo, hi, d)
        assert abs(res.value - want) <= 1e-8
        assert res.error_estimate <= max(1e-10, 1e-8 * abs(res.value))
        assert res.flags == frozenset()

    def test_constant_integrand_is_scaled_log(self):
        d = Deformation(0.0)
        res = primal_qint(funcexpr.compile(parse("1", d)), 0.0, 1.0, d)
        # oracle: generate_frozen_values.py -> ln 2
        assert abs(res.value - 0.6931471805599453) <= 1e-10

    def test_result_converts_to_float(self):
        d = Deformation(0.5)
        res = primal_qint(builtin("qexp", d), 0.0, 1.0, d)
        assert float(res) == res.value


class TestBoundHandling:
    def test_swapped_bounds_negate_exactly(self):
        d = Deformation(0.5)
        f = builtin("qexp", d)
        fwd = primal_qint(f, 0.0, 1.0, d)
        rev = primal_qint(f, 1.0, 0.0, d)
        assert rev.value == -fwd.value  # bitwise, not approximately
        assert rev.error_estimate == fwd.error_estimate
        assert rev.flags == fwd.flags

    def test_empty_interval(self):
        d = Deformation(0.5)
        res = primal_qint(builtin("qexp", d), 0.7, 0.7, d)
        assert res.value == 0.0
        assert res.error_estimate == 0.0

    def test_domain_errors_propagate(self):
        d = Deformation(0.5)
        f = funcexpr.compile(parse("ln(x)", d))
        with pytest.raises(DomainError):
            primal_qint(f, -1.0, 1.0, d)

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("bounds", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 0.5)])
    def test_non_finite_bounds_are_domain_errors(self, q, bounds):
        d = Deformation(q)
        f = funcexpr.compile(parse("x", d))
        want = f"integration bounds must be finite, got [{bounds[0]}, {bounds[1]}]"
        for integral in (primal_qint, dual_qint, borges_dual_qint):
            with pytest.raises(DomainError) as info:
                integral(f, *bounds, d, REFLECT)
            assert str(info.value) == want

    def test_a_bound_whose_chart_overflows_is_an_overflow(self):
        d = Deformation(-1.0)  # delta = 2: 1 + delta*1e308 is inf
        f = funcexpr.compile(parse("x", d))
        with pytest.raises(OverflowError, match=r"\[1e\+308, 0.5\] is not finite"):
            primal_qint(f, 1e308, 0.5, d)


# ---------------------------------------------------------------------------
# Pole crossing and the reflection identity


class TestSingularityHandling:
    def test_crossing_raises_by_default(self):
        d = Deformation(0.5)  # pole at -2
        f = funcexpr.compile(parse("1", d))
        with pytest.raises(SingularityError):
            primal_qint(f, -3.0, 0.0, d)

    @pytest.mark.parametrize("mode", [SingularityMode.ERROR, SingularityMode.REFLECT])
    @pytest.mark.parametrize("bounds", [(-2.0, 0.0), (-3.0, -2.0)])
    def test_pole_on_a_bound_always_raises(self, mode, bounds):
        d = Deformation(0.5)
        f = funcexpr.compile(parse("1", d))
        cfg = QuadratureConfig(singularity_mode=mode)
        with pytest.raises(SingularityError):
            primal_qint(f, bounds[0], bounds[1], d, cfg)

    def test_reflected_value_and_flags(self):
        d = Deformation(0.5)
        f = funcexpr.compile(parse("1", d))
        res = primal_qint(f, -3.0, 0.0, d, REFLECT)
        # oracle: generate_frozen_values.py -> 2 ln 2
        assert abs(res.value - 1.3862943611198906) <= 1e-9
        assert IntegralFlag.REFLECTION_APPLIED in res.flags
        assert IntegralFlag.SINGULARITY_CROSSED in res.flags

    @pytest.mark.parametrize(
        "q,lo,hi",
        [
            (0.5, -3.0, 0.0),
            (0.5, -2.5, 8.0),
            (2.0, 0.0, 3.0),
            (-1.0, -1.0, 4.0),
        ],
    )
    def test_mirror_interval_never_recrosses(self, q, lo, hi):
        d = Deformation(q)
        assert lo < d.pole < hi  # the cases really do cross
        mirrored_hi = -2.0 / d.delta - hi
        a, b = min(lo, mirrored_hi), max(lo, mirrored_hi)
        assert not (a < d.pole < b)
        assert d.bracket(lo) * d.bracket(mirrored_hi) > 0.0

        f = funcexpr.compile(parse("1", d))
        res = primal_qint(f, lo, hi, d, REFLECT)
        want = (
            math.log(abs(d.bracket(mirrored_hi))) - math.log(abs(d.bracket(lo)))
        ) / d.delta
        assert scaled_err(res.value, want) <= 1e-9, (q, lo, hi)


# ---------------------------------------------------------------------------
# Near the pole: the primal chart puts the pole at u = +-inf


class TestNearThePole:
    """Integrals with one bound at a gap of 1e-3 to 1e-12 from the pole, on
    either side of it, over intervals 0.9 long (the width of the benchmark's
    smooth band), against an mpmath oracle.

    Near the pole the integral is about ln|1 + delta*x| / delta, so its
    condition number in x is of order 1/|1 + delta*x|: a bound's rounding
    error is amplified up to 1e12-fold, and no float algorithm does better.
    The oracle therefore integrates from the points whose brackets equal the
    float 1 + delta*x of each bound, each within an ulp of that bound, and
    in u = ln|1 + delta*x| / delta, where its integrand is smooth.
    """

    TEXTS = ("1", "exp(-x)*sin(3*x)+1", "x^2*cos(x)-x")

    @staticmethod
    def oracle(text, bounds, d, side):
        mp = pytest.importorskip("mpmath")
        f = {"1": lambda x: mp.mpf(1),
             "exp(-x)*sin(3*x)+1": lambda x: mp.exp(-x) * mp.sin(3 * x) + 1,
             "x^2*cos(x)-x": lambda x: x**2 * mp.cos(x) - x}[text]
        with mp.workdps(40):
            delta = mp.mpf(d.delta)
            us = []
            for x in bounds:
                bracket = mp.mpf(d.bracket(x))
                assert abs((bracket - 1) / delta - x) <= math.ulp(x)
                us.append(mp.log(abs(bracket)) / delta)
            return float(mp.quad(lambda u: f((side * mp.exp(delta * u) - 1) / delta), us))

    @pytest.mark.parametrize("q", [-1.0, 0.0, 0.5, 0.9, 1.1, 2.0])
    @pytest.mark.parametrize("side", [1, -1])  # the sign of 1 + delta*x
    @pytest.mark.parametrize("gap", [1e-3, 1e-6, 1e-9, 1e-12])
    def test_near_pole_integrals_take_few_panels_and_meet_the_tolerance(self, q, side, gap):
        d = Deformation(q)
        away = side if d.delta > 0.0 else -side  # from the pole into that side
        bounds = (d.pole + away * gap, d.pole + away * (gap + 0.9))
        cfg = QuadratureConfig()
        for text in self.TEXTS:
            res = primal_qint(funcexpr.compile(parse(text, d)), *bounds, d, cfg)
            ref = self.oracle(text, bounds, d, side)
            assert res.flags == frozenset() and res.n_panels <= 10, (text, res.n_panels)
            assert abs(res.value - ref) <= max(cfg.abs_tol, cfg.rel_tol * abs(ref)), text


# ---------------------------------------------------------------------------
# Tolerance contract


class TestToleranceContract:
    @pytest.mark.parametrize("q", Q_SET)
    def test_error_estimate_within_budget_when_converged(self, q):
        d = Deformation(q)
        cfg = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-10)
        for text, lo, hi in [("x^2", 0.0, 0.9), ("sin(x)", 0.0, 0.9)]:
            res = primal_qint(funcexpr.compile(parse(text, d)), lo, hi, d, cfg)
            assert IntegralFlag.TOLERANCE_NOT_MET not in res.flags
            assert res.error_estimate <= max(cfg.abs_tol, cfg.rel_tol * abs(res.value))

    def test_a_nan_total_ends_the_run(self):
        # qexp(x)-qexp(-x) at q = 2 is +inf past x = 1 and -inf before x = -1,
        # so the total is NaN and no split can mend it
        d = Deformation(2.0)
        res = dual_qint(funcexpr.compile(parse("qexp(x)-qexp(-x)", d)), -3.0, 3.0, d)
        assert math.isnan(res.value) and math.isnan(res.error_estimate)
        assert res.flags == {IntegralFlag.TOLERANCE_NOT_MET}
        assert res.n_panels <= 50

    def test_exhausted_subdivisions_are_flagged_not_raised(self):
        d = Deformation(0.5)
        spike = RealFunction(eval=lambda x: 1.0 / (1e-6 + (x - 0.37) ** 2))
        cfg = QuadratureConfig(max_subdivisions=1)
        res = primal_qint(spike, 0.0, 1.0, d, cfg)
        assert IntegralFlag.TOLERANCE_NOT_MET in res.flags
        assert res.error_estimate > max(cfg.abs_tol, cfg.rel_tol * abs(res.value))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=-1e-8)
        with pytest.raises(ValueError):
            QuadratureConfig(max_subdivisions=0)

    @pytest.mark.parametrize("n", [2.5, math.inf, math.nan, 2.0, "3"])
    def test_a_subdivision_count_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="max_subdivisions must be an integer"):
            QuadratureConfig(max_subdivisions=n)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tolerances_are_rejected(self, tol):
        with pytest.raises(ValueError, match="finite"):
            QuadratureConfig(abs_tol=tol)
        with pytest.raises(ValueError, match="finite"):
            QuadratureConfig(rel_tol=tol)


# ---------------------------------------------------------------------------
# Independent cross-checks: midpoint sum and geometric partition


class TestRiemannCrossCheck:
    @pytest.mark.parametrize(
        "q,lo,hi",
        [(0.5, 0.0, 1.0), (-1.0, 0.0, 1.0), (2.0, 0.0, 0.5), (0.0, 0.0, 1.0)],
    )
    def test_adaptive_agrees_with_flat_midpoint_sum(self, q, lo, hi):
        d = Deformation(q)
        f = builtin("qexp", d)
        adaptive = primal_qint(f, lo, hi, d).value
        flat = primal_qint_riemann(f, lo, hi, 100_000, d)
        assert abs(adaptive - flat) <= 1e-5

    def test_rejects_empty_partition(self):
        d = Deformation(0.5)
        with pytest.raises(DomainError):
            primal_qint_riemann(builtin("qexp", d), 0.0, 1.0, 0, d)

    @pytest.mark.parametrize("n", [2.5, math.inf, 2.0])
    def test_rejects_a_step_count_that_is_not_an_integer(self, n):
        d = Deformation(0.5)
        with pytest.raises(DomainError, match="must be an integer"):
            primal_qint_riemann(builtin("qexp", d), 0.0, 1.0, n, d)


class TestGeometricPartition:
    @pytest.mark.parametrize("q,lo,hi", [(-1.0, 0.0, 1.0), (0.5, 0.0, 1.0), (2.0, 0.0, 0.5)])
    def test_nodes_and_uniform_deformed_step(self, q, lo, hi):
        d = Deformation(q)
        part = GeometricPartition(lo, hi, 7, d)
        assert part.nodes[0] == lo
        assert part.nodes[-1] == hi
        assert abs(part.z - d.bracket(hi) / d.bracket(lo)) <= 1e-15 * part.z
        assert all(a < b for a, b in zip(part.nodes, part.nodes[1:]))
        # adjacent u-gaps all equal ln(e_q(t)): uniform in the u chart
        from qcalc import ln_big_e

        want_gap = math.log(q_exp(part.t, d).value)
        us = [ln_big_e(x, d) for x in part.nodes]
        for a, b in zip(us, us[1:]):
            assert abs((b - a) - want_gap) <= 1e-12 * max(1.0, abs(want_gap))

    def test_preconditions(self):
        with pytest.raises(DomainError):
            GeometricPartition(0.0, 1.0, 4, Deformation(1.0))
        with pytest.raises(DomainError):
            GeometricPartition(-3.0, 0.0, 4, Deformation(0.5))  # cutoff bound
        with pytest.raises(DomainError):
            GeometricPartition(1.0, 0.0, 4, Deformation(0.5))
        with pytest.raises(DomainError):
            GeometricPartition(0.0, 1.0, 0, Deformation(0.5))

    @pytest.mark.parametrize("n", [2.5, math.inf, 2.0])
    @pytest.mark.parametrize("use", [GeometricPartition, partition_sum_oracle])
    def test_a_step_count_must_be_an_integer(self, use, n):
        with pytest.raises(DomainError, match="must be an integer"):
            use(0.0, 1.0, n, Deformation(0.5))
        assert use(0.0, 1.0, True, Deformation(0.5)) == use(0.0, 1.0, 1, Deformation(0.5))


class TestPartitionSum:
    def test_single_cell_value(self):
        d = Deformation(0.5)
        # oracle: generate_frozen_values.py -> e_q(1) * ln(1.5)/0.5
        got = partition_sum_oracle(0.0, 1.0, 1, d)
        assert abs(got - 1.8245929864867396) <= 1e-13 * 1.8245929864867396

    def test_monotone_first_order_convergence(self):
        d = Deformation(0.5)
        limit = 1.25  # oracle: generate_frozen_values.py
        ns = [2**k for k in range(3, 13)]
        sums = [partition_sum_oracle(0.0, 1.0, n, d) for n in ns]
        errs = [s - limit for s in sums]
        assert all(e > 0.0 for e in errs)  # approaches from above
        assert all(a > b for a, b in zip(errs, errs[1:]))  # monotone
        # least-squares slope of log2(err) against log2(n)
        xs = [math.log2(n) for n in ns]
        ys = [math.log2(e) for e in errs]
        n = len(xs)
        mx, my = sum(xs) / n, sum(ys) / n
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
            (x - mx) ** 2 for x in xs
        )
        assert -1.2 <= slope <= -0.8
        assert errs[-1] <= 1e-3

    def test_rejects_classical_deformation(self):
        with pytest.raises(DomainError):
            partition_sum_oracle(0.0, 1.0, 8, Deformation(1.0))

    @pytest.mark.parametrize("lo,hi,n,q", [(0.0, 1.0, 4, 1.0), (-3.0, 0.0, 4, 0.5),
                                           (1.0, 0.0, 4, 0.5), (0.0, 1.0, 0, 0.5)])
    def test_rejects_what_the_partition_rejects(self, lo, hi, n, q):
        with pytest.raises(DomainError) as part:
            GeometricPartition(lo, hi, n, Deformation(q))
        with pytest.raises(DomainError) as oracle:
            partition_sum_oracle(lo, hi, n, Deformation(q))
        assert str(oracle.value) == str(part.value)

    def test_builds_no_partition_nodes(self, monkeypatch):
        # the closed form reads only the bracket ratio z; each of the n - 1
        # inner nodes would cost a q_times_n call
        d = Deformation(0.5)
        want = partition_sum_oracle(-0.2, 0.9, 4096, d)

        def q_times_n(*args):
            raise AssertionError("partition_sum_oracle built a partition node")

        monkeypatch.setattr(qquad, "q_times_n", q_times_n)
        assert partition_sum_oracle(-0.2, 0.9, 4096, d) == want


# ---------------------------------------------------------------------------
# Dual integral


class TestDualPointValues:
    def test_reciprocal_integrates_to_deformed_log(self):
        d = Deformation(0.5)
        res = dual_qint(builtin("recip", d), 1.0, 2.0, d, TIGHT)
        # oracle: generate_frozen_values.py -> ln_q 2
        assert abs(res.value - 0.8284271247461901) <= 1e-10

    def test_constant_integrand(self):
        d = Deformation(0.5)
        f = funcexpr.compile(parse("0.7", d))
        res = dual_qint(f, 0.0, 2.0, d, TIGHT)
        # oracle: generate_frozen_values.py -> ln_q(exp(1.4))
        assert abs(res.value - 2.027505414940953) <= 1e-10

    @pytest.mark.parametrize("q", Q_SET)
    @pytest.mark.parametrize("x", [2.0, 4.0, 10.0])
    def test_reciprocal_matches_deformed_log_everywhere(self, q, x):
        d = Deformation(q)
        res = dual_qint(builtin("recip", d), 1.0, x, d, TIGHT)
        assert abs(res.value - q_log(x, d)) <= 1e-10, (q, x)

    def test_reversed_bounds_are_the_deformed_negation(self):
        d = Deformation(0.5)
        f = builtin("recip", d)
        fwd = dual_qint(f, 1.0, 2.0, d, TIGHT).value
        rev = dual_qint(f, 2.0, 1.0, d, TIGHT).value
        assert abs(rev - q_sub(0.0, fwd, d)) <= 1e-12


class TestDualAdditivity:
    @pytest.mark.parametrize("q", Q_SET)
    def test_splits_compose_with_deformed_addition(self, q):
        d = Deformation(q)
        f = builtin("recip", d)
        rng = random.Random(int(q * 10) + 77)
        for _ in range(20):
            a, b, c = sorted(rng.uniform(0.5, 3.5) for _ in range(3))
            whole = dual_qint(f, a, c, d, TIGHT).value
            split = q_add(
                dual_qint(f, a, b, d, TIGHT).value,
                dual_qint(f, b, c, d, TIGHT).value,
                d,
            )
            assert abs(whole - split) <= 1e-10, (q, a, b, c)


class TestDualDefiniteForm:
    @pytest.mark.parametrize("q", Q_SET)
    def test_reconstructs_deformed_log(self, q):
        d = Deformation(q)
        res = dual_qint_from(builtin("recip", d), 2.0, 5.0, q_log(2.0, d), d, TIGHT)
        assert abs(res.value - q_log(5.0, d)) <= 1e-8

    @pytest.mark.parametrize("q", Q_SET)
    def test_difference_form(self, q):
        d = Deformation(q)
        res = dual_qint(builtin("recip", d), 2.0, 5.0, d, TIGHT)
        want = q_sub(q_log(5.0, d), q_log(2.0, d), d)
        assert abs(res.value - want) <= 1e-8


# ---------------------------------------------------------------------------
# Fundamental theorems: each derivative inverts its integral


class TestFundamentalTheorems:
    @pytest.mark.parametrize("q", Q_SET)
    def test_primal_derivative_of_primal_integral(self, q):
        d = Deformation(q)
        f = funcexpr.compile(parse("sin(x)", d))
        xs = [0.3, 0.6, 0.8] if q > 1.0 else [0.3, 0.8, 1.5]

        def accumulated(t: float) -> float:
            return primal_qint(f, 0.0, t, d, TIGHT).value

        F = RealFunction(eval=accumulated)
        for x in xs:
            got = primal_qderiv_numeric(F, x, d)
            assert scaled_err(got, math.sin(x)) <= 1e-6, (q, x)

    @pytest.mark.parametrize("q", Q_SET)
    def test_dual_derivative_of_dual_integral(self, q):
        d = Deformation(q)
        f = builtin("recip", d)

        def accumulated(t: float) -> float:
            return dual_qint(f, 1.0, t, d, TIGHT).value

        F = RealFunction(eval=accumulated)
        for x in (1.5, 2.5):
            got = dual_qderiv_numeric(F, x, d)
            assert scaled_err(got, 1.0 / x) <= 1e-6, (q, x)

    @pytest.mark.parametrize("q", Q_SET)
    def test_dual_integral_of_dual_derivative(self, q):
        d = Deformation(q)
        # D-dual of ln_q is 1/x; integrating it back gives the (-)_q change
        res = dual_qint(builtin("recip", d), 2.0, 5.0, d, TIGHT)
        want = q_sub(q_log(5.0, d), q_log(2.0, d), d)
        assert abs(res.value - want) <= 1e-8, q


# ---------------------------------------------------------------------------
# The flawed value-side dual and its measured gap


class TestFlawedDual:
    def test_value_side_integral_point_value(self):
        d = Deformation(0.5)
        got = borges_dual_qint(builtin("recip", d), 1.0, 2.0, d)
        # oracle: generate_frozen_values.py -> ln 2 + 1/4
        assert abs(got - 0.9431471805599453) <= 1e-8

    def test_gap_from_true_dual_is_material(self):
        d = Deformation(0.5)
        flawed = borges_dual_qint(builtin("recip", d), 1.0, 2.0, d)
        true = dual_qint(builtin("recip", d), 1.0, 2.0, d, TIGHT).value
        gap = abs(flawed - true)
        # oracle: generate_frozen_values.py -> 0.11472005581375522
        assert gap > 0.1
        assert abs(gap - 0.11472005581375522) <= 1e-8

    def test_returns_plain_float(self):
        d = Deformation(0.5)
        got = borges_dual_qint(builtin("recip", d), 1.0, 2.0, d)
        assert isinstance(got, float) and not isinstance(got, IntegralResult)


class TestUsedFunction:
    def test_pickles_and_its_copy_gets_its_own_cache(self):
        # stencils holds the generated point functions, which do not pickle:
        # pickling and copy.copy rebuild f from its fields, with an empty cache
        d = Deformation(0.5)
        f = RealFunction(math.exp, math.exp)
        primal_qderiv_numeric(f, 0.3, d)
        primal_qint(f, 0.0, 1.0, d)
        assert f.stencils
        back = pickle.loads(pickle.dumps(f))
        assert back == f and back.stencils == {}
        dup = copy.copy(f)
        assert dup == f and dup.stencils is not f.stencils and dup.stencils == {}
        assert primal_qint(dup, 0.0, 1.0, d) == primal_qint(f, 0.0, 1.0, d)

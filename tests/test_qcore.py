"""Algebraic properties of the deformed operations.

Frozen expected values come from tests/oracles/generate_frozen_values.py
(50-digit mpmath evaluation of the defining formulas).
"""

import dataclasses
import math
import pickle
import random

import pytest

from qcalc.errors import DomainError, PoleError
from qcalc.qcore import (
    Q1_EPSILON,
    Deformation,
    EvalFlag,
    ExtendedValue,
    big_e,
    ln_big_e,
    q_add,
    q_div,
    q_exp,
    q_log,
    q_log_exp_of,
    q_mul,
    q_power_n,
    q_sub,
    q_times_n,
)

Q_SET = [Deformation(-1.0), Deformation(0.0), Deformation(0.5), Deformation(2.0)]


def rel_err(got, want):
    return abs(got - want) / max(1.0, abs(got), abs(want))


class TestDeformation:
    def test_delta_is_exact(self):
        assert Deformation(0.5).delta == 0.5
        assert Deformation(-1.0).delta == 2.0
        assert Deformation(1.0).delta == 0.0

    def test_classical_branch_threshold(self):
        assert Deformation(1.0).classical
        assert Deformation(1.0 + 5e-13).classical
        assert not Deformation(1.0 - 2e-12).classical
        assert not Deformation(0.999999).classical

    def test_pole_location(self):
        assert Deformation(0.5).pole == -2.0
        assert Deformation(2.0).pole == 1.0
        assert math.isnan(Deformation(1.0).pole)

    @pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
    def test_non_finite_q_is_rejected(self, q):
        with pytest.raises(ValueError, match="q must be finite"):
            Deformation(q)

    @pytest.mark.parametrize(
        "q", [-1.0, 0.0, 0.5, 0.9, 1.0, 1.1, 2.0, 1.0 + 1e-13, 1.0 - 1e-13]
    )
    def test_stored_constants_equal_their_formulas(self, q):
        d = Deformation(q)
        assert d.delta == 1.0 - q
        assert d.classical is (abs(1.0 - q) < Q1_EPSILON)
        if d.classical:
            assert math.isnan(d.inv_delta)
        else:
            assert d.inv_delta == 1.0 / (1.0 - q)
        assert d.bracket(0.25) == 1.0 + (1.0 - q) * 0.25

    def test_stored_constants_stay_out_of_the_dataclass_interface(self):
        d = Deformation(0.5)
        assert repr(d) == "Deformation(q=0.5)"
        assert d == Deformation(0.5) and hash(d) == hash(Deformation(0.5))
        assert len({d, Deformation(0.5), Deformation(2.0)}) == 2
        with pytest.raises(TypeError):
            Deformation(0.5, delta=0.25)
        with pytest.raises(TypeError):
            Deformation(0.5, q1_epsilon=1e-9)  # a qcore constant, not a field
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.delta = 0.25

    def test_stored_constants_survive_pickling_and_replace(self):
        d = Deformation(0.5)
        back = pickle.loads(pickle.dumps(d))
        assert back == d
        assert (back.delta, back.classical, back.inv_delta) == (0.5, False, 2.0)
        moved = Deformation(2.0)
        assert (moved.delta, moved.classical, moved.inv_delta) == (-1.0, False, -1.0)
        with pytest.raises(TypeError):
            dataclasses.replace(d, q=2.0)  # a plain record, not a dataclass


class TestPointValues:
    def test_q_log_frozen(self):
        d = Deformation(0.5)
        assert q_log(1.0, d) == 0.0
        # oracle: mpmath (x^(1-q)-1)/(1-q)
        assert math.isclose(q_log(2.0, d), 0.8284271247461901, rel_tol=1e-15)
        assert math.isclose(q_log(10.0, d), 4.324555320336759, rel_tol=1e-15)
        assert q_log(2.0, Deformation(-1.0)) == 1.5
        assert q_log(2.0, Deformation(0.0)) == 1.0
        assert q_log(2.0, Deformation(2.0)) == 0.5
        assert math.isclose(q_log(2.0, Deformation(1.0)), math.log(2.0), rel_tol=1e-15)

    def test_q_log_domain(self):
        for bad in (0.0, -1.0, -0.5):
            with pytest.raises(DomainError):
                q_log(bad, Deformation(0.5))

    def test_q_log_near_one_is_cancellation_safe(self):
        # direct powering loses ~8 digits at x = 1+1e-9; the expm1 form must
        # match a 50-digit evaluation of (sqrt(x)-1)/0.5 at the exact float64
        # input (oracle: tests/oracles/generate_frozen_values.py formulas)
        d = Deformation(0.5)
        got = q_log(1.0 + 1e-9, d)
        assert math.isclose(got, 1.000000082490371e-09, rel_tol=1e-13)

    def test_q_exp_frozen(self):
        d = Deformation(0.5)
        assert q_exp(0.0, d).value == 1.0
        assert q_exp(1.0, d).value == 2.25  # oracle: 1.5^2
        assert math.isclose(q_exp(1.0, Deformation(0.9)).value, 2.5937424601, rel_tol=1e-14)
        assert math.isclose(q_exp(0.5, Deformation(2.0)).value, 2.0, rel_tol=1e-15)

    def test_q_exp_cutoff_below_support(self):
        v = q_exp(-3.0, Deformation(0.5))
        assert v.value == 0.0
        assert v.flags == frozenset({EvalFlag.CUTOFF_APPLIED})

    def test_q_exp_pole_side_for_q_above_one(self):
        v = q_exp(5.0, Deformation(2.0))
        assert math.isinf(v.value)
        assert v.flags == frozenset({EvalFlag.POLE_REACHED})

    def test_q_exp_overflow_maps_to_pole_flag(self):
        v = q_exp(1e300, Deformation(0.5))
        assert math.isinf(v.value)
        assert EvalFlag.POLE_REACHED in v.flags

    def test_q_exp_classical_branch_flag(self):
        v = q_exp(1.0, Deformation(1.0))
        assert math.isclose(v.value, math.e, rel_tol=1e-15)
        assert v.flags == frozenset({EvalFlag.Q1_BRANCH})

    def test_big_e_frozen(self):
        d = Deformation(0.5)
        assert big_e(0.0, d) == 1.0
        assert big_e(-4.0, d) == 1.0  # oracle: |1-2|^2
        assert big_e(-2.0, d) == 0.0  # zero at the pole for q < 1
        assert math.isinf(big_e(1.0, Deformation(2.0)))  # pole for q > 1

    def test_ln_big_e_frozen(self):
        d = Deformation(0.5)
        assert ln_big_e(0.0, d) == 0.0
        # oracle: 2*ln(1.5)
        assert math.isclose(ln_big_e(1.0, d), 0.8109302162163288, rel_tol=1e-15)
        assert ln_big_e(3.0, Deformation(1.0)) == 3.0
        with pytest.raises(PoleError):
            ln_big_e(-2.0, d)
        with pytest.raises(PoleError):
            ln_big_e(1.0, Deformation(2.0))

    # delta = 2, 4, -2, -4: x = +-1e308 lie on both sides of the pole, and
    # delta*x overflows for all but 4.5e307 at |delta| = 2
    @pytest.mark.parametrize("q", [-1.0, -3.0, 3.0, 5.0])
    @pytest.mark.parametrize("x", [1e308, -1e308, 1.7976931348623157e308, 9e307, -4.5e307])
    def test_ln_big_e_stays_finite_where_delta_x_overflows(self, q, x):
        mp = pytest.importorskip("mpmath")
        d = Deformation(q)
        with mp.workdps(50):
            delta = mp.mpf(1) - mp.mpf(q)
            want = float(mp.log(abs(1 + delta * mp.mpf(x))) / delta)
        assert math.isfinite(ln_big_e(x, d))
        assert rel_err(ln_big_e(x, d), want) <= 4e-16

    def test_arithmetic_frozen(self):
        d0 = Deformation(0.0)
        assert q_add(2.0, 3.0, d0) == 11.0
        assert q_add(2.0, 3.0, Deformation(1.0)) == 5.0
        assert q_sub(11.0, 3.0, d0) == 2.0
        with pytest.raises(PoleError):
            q_sub(5.0, -1.0, d0)
        assert q_mul(2.0, 3.0, d0).value == 4.0
        assert q_mul(2.0, 3.0, Deformation(1.0)).value == 6.0
        assert q_div(4.0, 3.0, d0).value == 2.0
        assert math.isclose(q_div(2.0, 3.0, Deformation(1.0)).value, 2.0 / 3.0)
        assert q_power_n(2.0, 3, d0).value == 4.0
        assert q_power_n(2.0, 3, Deformation(1.0)).value == 8.0
        assert q_times_n(2, 1.0, d0) == 3.0
        assert q_times_n(3, 2.0, Deformation(1.0)) == 6.0

    def test_arithmetic_domain_errors(self):
        d = Deformation(0.5)
        with pytest.raises(DomainError):
            q_mul(-2.0, 3.0, d)
        with pytest.raises(DomainError):
            q_div(2.0, 0.0, d)
        with pytest.raises(DomainError):
            q_power_n(0.0, 2, d)
        with pytest.raises(DomainError):
            q_power_n(2.0, 0, d)
        with pytest.raises(DomainError):
            q_times_n(0, 1.0, d)

    @pytest.mark.parametrize("n", [2.5, 2.0, math.nan, "2"])
    @pytest.mark.parametrize("q", [0.5, 1.0])
    def test_fold_counts_must_be_integers(self, n, q):
        # an n-fold fold has a whole number of terms: 2.5 once gave 3.51 and 4.14
        d = Deformation(q)
        with pytest.raises(DomainError, match="requires an integer n"):
            q_times_n(n, 1.0, d)
        with pytest.raises(DomainError, match="requires an integer n"):
            q_power_n(2.0, n, d)

    def test_q_log_exp_of_frozen(self):
        d = Deformation(0.5)
        assert q_log_exp_of(0.0, d) == 0.0
        # oracle: equals q_log(2, 0.5)
        assert math.isclose(q_log_exp_of(math.log(2.0), d), 0.8284271247461901, rel_tol=1e-14)
        assert q_log_exp_of(3.7, Deformation(1.0)) == 3.7

    def test_q_log_exp_of_never_forms_exp_directly(self):
        # exp(5000) overflows, but (1-q)*5000 = -5000 does not for q=2
        assert math.isclose(q_log_exp_of(5000.0, Deformation(2.0)), 1.0, rel_tol=1e-15)
        with pytest.raises(OverflowError):
            q_log_exp_of(5000.0, Deformation(0.5))


class TestRoundTrips:
    def test_log_exp_inverse_pair(self):
        rng = random.Random(42)
        for d in Q_SET:
            for _ in range(200):
                x = rng.uniform(0.02, 8.0)
                assert rel_err(q_exp(q_log(x, d), d).value, x) < 1e-12
        for d in Q_SET:
            for _ in range(200):
                x = rng.uniform(-2.0, 2.0)
                ev = q_exp(x, d)
                if ev.flags:
                    continue
                assert rel_err(q_log(ev.value, d), x) < 1e-12

    def test_add_sub_inversion(self):
        rng = random.Random(43)
        for d in Q_SET:
            for _ in range(200):
                x, y = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
                if d.bracket(y) == 0.0:
                    continue
                assert rel_err(q_sub(q_add(x, y, d), y, d), x) < 1e-12

    def test_mul_div_inversion(self):
        rng = random.Random(44)
        for d in Q_SET:
            for _ in range(200):
                x, y = rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)
                prod = q_mul(x, y, d)
                if prod.flags:
                    continue
                back = q_div(prod.value, y, d)
                if back.flags:
                    continue
                assert rel_err(back.value, x) < 1e-12


class TestIdentityTable:
    """The log/exp identity table linking ordinary and deformed arithmetic."""

    N = 200

    def _pairs(self, seed, lo, hi):
        rng = random.Random(seed)
        return [(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(self.N)]

    def test_log_of_ordinary_product(self):
        # ln_q(x*y) = ln_q(x) (+)_q ln_q(y)
        for d in Q_SET:
            for x, y in self._pairs(1, 0.05, 4.0):
                lhs = q_log(x * y, d)
                rhs = q_add(q_log(x, d), q_log(y, d), d)
                assert rel_err(lhs, rhs) < 1e-10

    def test_log_of_deformed_product(self):
        # ln_q(x (*)_q y) = ln_q(x) + ln_q(y)
        for d in Q_SET:
            for x, y in self._pairs(2, 0.05, 4.0):
                prod = q_mul(x, y, d)
                if prod.flags:
                    continue
                assert rel_err(q_log(prod.value, d), q_log(x, d) + q_log(y, d)) < 1e-10

    def test_log_of_ordinary_quotient(self):
        # ln_q(x/y) = ln_q(x) (-)_q ln_q(y)
        for d in Q_SET:
            for x, y in self._pairs(3, 0.05, 4.0):
                lhs = q_log(x / y, d)
                rhs = q_sub(q_log(x, d), q_log(y, d), d)
                assert rel_err(lhs, rhs) < 1e-10

    def test_log_of_deformed_quotient(self):
        # ln_q(x (/)_q y) = ln_q(x) - ln_q(y)
        for d in Q_SET:
            for x, y in self._pairs(4, 0.05, 4.0):
                quot = q_div(x, y, d)
                if quot.flags:
                    continue
                assert rel_err(q_log(quot.value, d), q_log(x, d) - q_log(y, d)) < 1e-10

    def test_exp_ordinary_product(self):
        # e_q(x) * e_q(y) = e_q(x (+)_q y)
        for d in Q_SET:
            for x, y in self._pairs(5, -1.5, 1.5):
                ex, ey = q_exp(x, d), q_exp(y, d)
                esum = q_exp(q_add(x, y, d), d)
                if ex.flags or ey.flags or esum.flags:
                    continue
                assert rel_err(ex.value * ey.value, esum.value) < 1e-10

    def test_exp_deformed_product(self):
        # e_q(x) (*)_q e_q(y) = e_q(x + y)
        for d in Q_SET:
            for x, y in self._pairs(6, -1.5, 1.5):
                ex, ey = q_exp(x, d), q_exp(y, d)
                if ex.flags or ey.flags:
                    continue
                prod = q_mul(ex.value, ey.value, d)
                target = q_exp(x + y, d)
                if prod.flags or target.flags:
                    continue
                assert rel_err(prod.value, target.value) < 1e-10

    def test_exp_ordinary_quotient(self):
        # e_q(x) / e_q(y) = e_q(x (-)_q y)
        for d in Q_SET:
            for x, y in self._pairs(7, -1.5, 1.5):
                ex, ey = q_exp(x, d), q_exp(y, d)
                if ex.flags or ey.flags or d.bracket(y) == 0.0:
                    continue
                target = q_exp(q_sub(x, y, d), d)
                if target.flags:
                    continue
                assert rel_err(ex.value / ey.value, target.value) < 1e-10

    def test_exp_deformed_quotient(self):
        # e_q(x) (/)_q e_q(y) = e_q(x - y)
        for d in Q_SET:
            for x, y in self._pairs(8, -1.5, 1.5):
                ex, ey = q_exp(x, d), q_exp(y, d)
                if ex.flags or ey.flags:
                    continue
                quot = q_div(ex.value, ey.value, d)
                target = q_exp(x - y, d)
                if quot.flags or target.flags:
                    continue
                assert rel_err(quot.value, target.value) < 1e-10


class TestFolds:
    def test_power_n_equals_iterated_mul(self):
        rng = random.Random(45)
        for d in Q_SET:
            for _ in range(50):
                x = rng.uniform(0.97, 1.06)
                acc = x
                for n in range(2, 17):
                    acc = q_mul(acc, x, d).value
                    closed = q_power_n(x, n, d).value
                    assert rel_err(closed, acc) < 1e-12

    def test_times_n_equals_iterated_add(self):
        rng = random.Random(46)
        for d in Q_SET:
            for _ in range(50):
                x = rng.uniform(-2.0, 2.0)
                acc = x
                for n in range(2, 17):
                    acc = q_add(acc, x, d)
                    closed = q_times_n(n, x, d)
                    assert rel_err(closed, acc) < 1e-12

    def test_unit_folds(self):
        d = Deformation(0.5)
        assert q_power_n(1.7, 1, d).value == 1.7
        assert q_times_n(1, -0.3, d) == -0.3


class TestReflectionSymmetry:
    def test_big_e_mirror(self):
        rng = random.Random(47)
        for d in (Deformation(0.0), Deformation(0.5), Deformation(2.0)):
            count = 0
            while count < 100:
                x = rng.uniform(-6.0, 6.0)
                if abs(d.bracket(x)) < 0.01:
                    continue
                count += 1
                mirror = -2.0 / d.delta - x
                assert abs(big_e(x, d) - big_e(mirror, d)) <= 1e-12 * big_e(x, d)


class TestClassicalContinuity:
    """Off-branch q = 1 +/- 1e-6 stays within 1e-4 of ordinary calculus.

    The bound is read in the scaled sense |deformed - ordinary| <=
    1e-4 * max(1, |ordinary|); the absolute reading is impossible for
    exp-like growth (e_q(10) deviates from e^10 by ~1 in absolute terms).
    """

    DS = [Deformation(1.0 - 1e-6), Deformation(1.0 + 1e-6)]

    def check(self, got, want):
        assert abs(got - want) <= 1e-4 * max(1.0, abs(want))

    def test_all_operations(self):
        rng = random.Random(48)
        for d in self.DS:
            assert not d.classical
            for _ in range(100):
                x = rng.uniform(-10.0, 10.0)
                y = rng.uniform(-10.0, 10.0)
                px, py = rng.uniform(0.05, 10.0), rng.uniform(0.05, 10.0)
                n = rng.randint(1, 5)
                self.check(q_log(px, d), math.log(px))
                self.check(q_exp(x, d).value, math.exp(x))
                self.check(big_e(x, d), math.exp(x))
                self.check(ln_big_e(x, d), x)
                self.check(q_add(x, y, d), x + y)
                self.check(q_sub(x, y, d), x - y)
                self.check(q_mul(px, py, d).value, px * py)
                self.check(q_div(px, py, d).value, px / py)
                self.check(q_power_n(px, n, d).value, px**n)
                self.check(q_times_n(n, x, d), n * x)
                self.check(q_log_exp_of(x, d), x)


class TestExtendedValueContract:
    def test_infinity_always_carries_pole_flag(self):
        rng = random.Random(49)
        for d in Q_SET:
            for _ in range(300):
                ev = q_exp(rng.uniform(-50.0, 50.0), d)
                if math.isinf(ev.value):
                    assert EvalFlag.POLE_REACHED in ev.flags
                if ev.cutoff:
                    assert ev.value == 0.0
                    assert d.delta > 0.0

    def test_float_conversion(self):
        assert float(ExtendedValue(2.5)) == 2.5
        assert ExtendedValue(1.0).flags == frozenset()

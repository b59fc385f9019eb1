"""In-process tests for the invariant battery driver."""

import math

import pytest

from qcalc import verify
from qcalc.errors import DomainError
from qcalc.verify import DEFAULT_Q_SWEEP, PropertyResult, run_battery


class TestBattery:
    def test_default_sweep_all_pass(self):
        results = run_battery()
        assert results
        assert all(r.passed for r in results)

    def test_pass_rule_is_residual_within_tolerance(self):
        for r in run_battery([0.5]):
            assert r.passed == (r.max_residual <= r.tolerance)

    def test_deterministic_across_runs(self):
        assert run_battery([0.5, 2.0]) == run_battery([0.5, 2.0])

    def test_duplicate_qs_are_dropped(self):
        assert run_battery([0.5, 0.5]) == run_battery([0.5])

    def test_classical_only_sweep(self):
        results = run_battery([1.0])
        assert all(r.passed for r in results)
        vacuous = {r.name for r in results if r.detail == "not exercised"}
        assert vacuous == {
            "reflection/big-e-symmetry",
            "int/partition-slope",
            "int/partition-final-error",
            "int/flawed-dual-value",
            "int/flawed-dual-gap",
        }

    def test_empty_sweep_is_rejected(self):
        with pytest.raises(DomainError):
            run_battery([])


class TestFaultInjection:
    def test_flipped_sign_fails_exactly_the_identity_table(self):
        results = run_battery([0.5], fault_sign=-1.0)
        failed = {r.name for r in results if not r.passed}
        assert failed == {"algebra/identity-table"}

    def test_fault_residual_is_far_outside_tolerance(self):
        results = {r.name: r for r in run_battery([0.5], fault_sign=-1.0)}
        bad = results["algebra/identity-table"]
        assert math.isfinite(bad.max_residual)
        assert bad.max_residual > 1e6 * bad.tolerance


class TestResultShape:
    def test_result_fields(self):
        r = run_battery([0.5])[0]
        assert isinstance(r, PropertyResult)
        assert isinstance(r.name, str) and r.name
        assert r.tolerance >= 0.0
        assert r.max_residual >= 0.0

    def test_default_sweep_constant(self):
        assert DEFAULT_Q_SWEEP == (-1.0, 0.0, 0.5, 0.9, 1.0, 1.1, 2.0)


def points_at(table):
    """A one-q property yielding table[q]'s (residual, x) points."""
    return lambda d: iter(table.get(d.q, ()))


class TestNonFiniteResiduals:
    def test_nan_after_finite_residuals_fails_the_row(self, monkeypatch):
        # a comparison passes over a NaN that is not the first point
        probe = points_at({0.5: [(1e-16, 0.1)], 2.0: [(math.nan, None), (1e-15, 0.3)]})
        monkeypatch.setattr(
            verify, "_BATTERY", [("probe/nan-residual", 1e-12, verify._sweep, probe)])
        (row,) = run_battery([0.5, 2.0])
        assert math.isnan(row.max_residual)
        assert not row.passed
        assert row.detail == "worst at q=2"


class TestRaisingProperty:
    def test_a_property_that_raises_is_a_failing_row_and_the_rest_still_run(
        self, monkeypatch
    ):
        def raises(d):
            raise ZeroDivisionError("probe division")

        swept = []

        def later(d):
            swept.append(d.q)
            yield 0.0, None

        monkeypatch.setattr(verify, "_BATTERY", [
            ("probe/raises", 1e-12, verify._sweep, raises),
            ("probe/later", 0.0, verify._sweep, later)])
        failed, after = run_battery([0.5])
        assert failed == PropertyResult(
            "probe/raises", math.inf, 1e-12, False, "error: probe division")
        assert after == PropertyResult("probe/later", 0.0, 0.0, True, "worst at q=0.5")
        assert swept == [0.5]

    def test_a_generator_that_raises_after_its_points_is_an_error_row(self, monkeypatch):
        def raises_late(d):
            yield 1e-16, 0.25
            yield math.nan, 0.5
            raise ValueError("probe failed late, after two points")

        monkeypatch.setattr(verify, "_BATTERY", [
            ("probe/raises-late", 1e-12, verify._sweep, raises_late),
            ("probe/later", 1e-12, verify._sweep, points_at({2.0: [(1e-13, 0.7)]}))])
        failed, after = run_battery([0.5, 2.0])
        # a comma in the message would add a CSV cell
        assert failed == PropertyResult(
            "probe/raises-late", math.inf, 1e-12, False,
            "error: probe failed late; after two points")
        assert after == PropertyResult(
            "probe/later", 1e-13, 1e-12, True, "worst at q=2 x=0.7")


class TestWorstLocation:
    @pytest.mark.parametrize("table,detail", [
        # the largest residual wins, wherever it is
        ({0.5: [(1e-15, 0.1), (3e-15, 0.2)], 2.0: [(2e-15, 0.3)]}, "worst at q=0.5 x=0.2"),
        # a tie goes to the larger q, whatever the sweep order
        ({0.5: [(3e-15, 0.1)], 2.0: [(1e-15, 0.2), (3e-15, 0.3)]}, "worst at q=2 x=0.3"),
        # a tie at one q goes to the first point
        ({0.5: [(3e-15, 0.1), (3e-15, 0.2)], 2.0: [(1e-15, 0.3)]}, "worst at q=0.5 x=0.1"),
        # x is None where the check has no abscissa
        ({0.5: [(1e-15, 0.1)], 2.0: [(2e-15, None)]}, "worst at q=2"),
        ({}, "not exercised"),
    ])
    @pytest.mark.parametrize("sweep", [[0.5, 2.0], [2.0, 0.5]])
    def test_the_worst_point_and_where_it_is(self, monkeypatch, table, detail, sweep):
        monkeypatch.setattr(
            verify, "_BATTERY", [("probe/location", 1.0, verify._sweep, points_at(table))])
        (row,) = run_battery(sweep)
        assert row.detail == detail
        assert row.max_residual == max((r for pts in table.values() for r, _ in pts),
                                       default=0.0)

    @pytest.mark.parametrize("sweep,detail", [
        ([0.5, 2.0], "worst at q=0.5 x=0.2"), ([2.0, 0.5], "worst at q=2 x=0.3")])
    def test_the_first_non_finite_point_in_sweep_order_wins(self, monkeypatch, sweep,
                                                             detail):
        table = {0.5: [(1.0, 0.1), (math.inf, 0.2), (math.nan, 0.25)],
                 2.0: [(math.nan, 0.3), (2.0, 0.4)]}
        monkeypatch.setattr(
            verify, "_BATTERY", [("probe/location", 1.0, verify._sweep, points_at(table))])
        (row,) = run_battery(sweep)
        assert row.detail == detail
        assert not row.passed

    @pytest.mark.parametrize("q,text", [
        (1.0 - 1e-6, "0.999999"), (1.0 + 1e-6, "1.000001"), (0.123456789, "0.123456789"),
        (2.0, "2"), (-1.0, "-1"), (1e-05, "1e-05")])
    def test_q_is_named_in_full_and_x_to_six_digits(self, monkeypatch, q, text):
        # with 6 significant digits, q = 1 +- 1e-6 both read q=1
        monkeypatch.setattr(verify, "_BATTERY", [
            ("probe/location", 1.0, verify._sweep, points_at({q: [(1e-15, 0.123456789)]}))])
        (row,) = run_battery([q])
        assert row.detail == f"worst at q={text} x=0.123457"

    def test_classical_continuity_names_its_side_of_q_1(self):
        row = next(r for r in run_battery() if r.name == "classical-continuity")
        assert row.detail == "worst at q=1.000001 x=-6"

    def test_rows_run_at_their_own_deformations(self, monkeypatch):
        seen = {}

        def probe(name):
            def prop(d):
                seen.setdefault(name, []).append(d.q)
                yield 0.0, None
            return prop

        monkeypatch.setattr(verify, "_BATTERY", [
            (at.__name__, 0.0, at, probe(at.__name__))
            for at in (verify._sweep, verify._first_q, verify._near_one)])
        run_battery([2.0, 0.5])
        assert seen == {"_sweep": [2.0, 0.5], "_first_q": [2.0],
                        "_near_one": [1.0 - 1e-6, 1.0 + 1e-6]}


def test_partition_slope_residual_is_the_same_on_every_python():
    # the least-squares slope sums with math.fsum; the builtin sum rounds
    # differently before Python 3.12 (it printed ...49769e-03 on 3.11)
    row = next(r for r in run_battery([0.5]) if r.name == "int/partition-slope")
    assert f"{row.max_residual:.16e}" == "2.0578257219951990e-03"


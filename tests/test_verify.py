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


class TestNonFiniteResiduals:
    def test_nan_after_finite_residuals_fails_the_row(self, monkeypatch):
        # max() over (residual, q) tuples passes over a NaN that is not first
        residuals = [(1e-16, 0.5), (math.nan, 2.0), (1e-15, 1.0)]
        probe = ("probe/nan-residual", 1e-12, lambda ds: verify._worst(residuals))
        monkeypatch.setattr(verify, "_BATTERY", [probe])
        (row,) = run_battery([0.5])
        assert math.isnan(row.max_residual)
        assert not row.passed
        assert row.detail == "worst at q=2"


class TestRaisingProperty:
    def test_a_property_that_raises_is_a_failing_row_and_the_rest_still_run(
        self, monkeypatch
    ):
        def raises(ds):
            raise ZeroDivisionError("probe division")

        swept = []

        def later(ds):
            swept.append([d.q for d in ds])
            return 0.0, "ran"

        monkeypatch.setattr(verify, "_BATTERY", [
            ("probe/raises", 1e-12, raises), ("probe/later", 0.0, later)])
        failed, after = run_battery([0.5])
        assert failed == PropertyResult(
            "probe/raises", math.inf, 1e-12, False, "error: probe division")
        assert after == PropertyResult("probe/later", 0.0, 0.0, True, "ran")
        assert swept == [[0.5]]


def test_partition_slope_residual_is_the_same_on_every_python():
    # the least-squares slope sums with math.fsum; the builtin sum rounds
    # differently before Python 3.12 (it printed ...49769e-03 on 3.11)
    row = next(r for r in run_battery([0.5]) if r.name == "int/partition-slope")
    assert f"{row.max_residual:.16e}" == "2.0578257219951990e-03"


"""End-to-end CLI tests: run ``python -m qcalc`` as a subprocess.

The installed ``qcalc`` console script, which calls the same ``cli.main``,
is run by the CI workflow.

Checks of options, grids and ``meta`` keys call ``cli.main`` in process,
where stdout and stderr are captured by pytest.
"""

import argparse
import json
import math
import subprocess
import sys

import pytest

from qcalc import cli

CMD = [sys.executable, "-m", "qcalc"]


def run_cli(*argv):
    return subprocess.run(
        CMD + list(argv), capture_output=True, text=True, timeout=120
    )


class TestEval:
    def test_qexp_golden_rows(self):
        res = run_cli("eval", "qexp(x)", "--q", "0.5",
                      "--from", "0", "--to", "1", "--points", "2")
        assert res.returncode == 0
        assert res.stdout == (
            "x,value,flags\n"
            "0.0000000000000000e+00,1.0000000000000000e+00,\n"
            "1.0000000000000000e+00,2.2500000000000000e+00,\n"
        )

    def test_classical_identity_rows(self):
        res = run_cli("eval", "x", "--q", "1",
                      "--from", "0", "--to", "1", "--points", "2")
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[1].startswith("0.0000000000000000e+00,0.0000000000000000e+00")
        assert lines[2].startswith("1.0000000000000000e+00,1.0000000000000000e+00")

    def test_cutoff_region_is_flagged_not_fatal(self):
        res = run_cli("eval", "qexp(x)", "--q", "0.5",
                      "--from", "-3", "--to", "-2.5", "--points", "2")
        assert res.returncode == 0
        assert "CutoffApplied" in res.stdout

    def test_domain_error_exits_1_with_no_table(self):
        res = run_cli("eval", "qlog(x)", "--q", "0.5",
                      "--from", "-1", "--to", "1", "--points", "3")
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr != ""

    def test_parse_error_exits_2_with_byte_offset(self):
        res = run_cli("eval", "2*+3", "--q", "0.5",
                      "--from", "0", "--to", "1", "--points", "2")
        assert res.returncode == 2
        assert res.stdout == ""
        assert "byte offset 2" in res.stderr

    def test_unknown_flag_is_an_error(self):
        res = run_cli("eval", "x", "--q", "1", "--from", "0", "--to", "1",
                      "--points", "2", "--frobnicate")
        assert res.returncode == 2
        assert res.stdout == ""

    def test_grid_validation(self):
        res = run_cli("eval", "x", "--q", "1",
                      "--from", "1", "--to", "0", "--points", "2")
        assert res.returncode == 2
        res = run_cli("eval", "x", "--q", "1",
                      "--from", "0", "--to", "1", "--points", "1")
        assert res.returncode == 2
        res = run_cli("eval", "x", "--q", "1", "--from", "0", "--to", "1")
        assert res.returncode == 2

    def test_missing_q_is_an_error(self):
        res = run_cli("eval", "x", "--from", "0", "--to", "1", "--points", "2")
        assert res.returncode == 2


class TestDiff:
    def test_eigenfunction_at_zero(self):
        res = run_cli("diff", "qexp(x)", "primal", "numeric", "--q", "0.5",
                      "--from", "0", "--to", "1", "--points", "2")
        assert res.returncode == 0
        row = res.stdout.splitlines()[1].split(",")
        assert abs(float(row[1]) - 1.0) < 1e-8
        assert float(row[2]) >= 0.0

    def test_dual_closed_qlog(self):
        res = run_cli("diff", "qlog(x)", "dual", "closed", "--q", "0.5",
                      "--from", "2", "--to", "3", "--points", "2")
        assert res.returncode == 0
        row = res.stdout.splitlines()[1].split(",")
        assert abs(float(row[1]) - 0.5) < 1e-12
        assert float(row[2]) == 0.0

    def test_constant_derivative_is_zero(self):
        res = run_cli("diff", "3", "primal", "numeric", "--q", "0.5",
                      "--from", "0", "--to", "1", "--points", "3")
        assert res.returncode == 0
        for line in res.stdout.splitlines()[1:]:
            assert float(line.split(",")[1]) == 0.0

    def test_pole_point_exits_1(self):
        res = run_cli("diff", "qexp(x)", "primal", "numeric", "--q", "0.5",
                      "--from", "-2", "--to", "0", "--points", "2")
        assert res.returncode == 1
        assert res.stdout == ""

    def test_dual_numeric_at_the_float_limit_is_finite(self):
        res = run_cli("diff", "x", "dual", "numeric", "--q", "-1",
                      "--from", "1e307", "--to", "1e308", "--points", "2")
        assert (res.returncode, res.stderr) == (0, "")
        for line in res.stdout.splitlines()[1:]:
            x, value, estimate = map(float, line.split(","))
            assert math.isfinite(value) and math.isfinite(estimate)
            want = 0.5 / (x + 0.5)  # 1 / (1 + 2x), without overflowing
            assert abs(value - want) <= 1e-6 * want

    @pytest.mark.parametrize("q", ["-1", "0", "0.5"])
    def test_closed_qexp_derivative_on_the_cutoff_matches_the_numeric_one(self, q):
        rows = {}
        for method in ("closed", "numeric"):
            res = run_cli("diff", "qexp(x)", "primal", method, "--q", q,
                          "--from", "-1e300", "--to", "-1e299", "--points", "2")
            assert (res.returncode, res.stderr) == (0, "")
            rows[method] = [float(line.split(",")[1]) for line in res.stdout.splitlines()[1:]]
        assert rows["closed"] == rows["numeric"] == [0.0, 0.0]

    def test_closed_qexp_derivative_past_the_pole_exits_1(self):
        # qexp(1.5) is inf at q = 2: x is outside its domain, for both methods
        for method in ("closed", "numeric"):
            res = run_cli("diff", "qexp(x)", "primal", method, "--q", "2",
                          "--from", "1.5", "--to", "2", "--points", "2")
            assert (res.returncode, res.stdout) == (1, "")
            assert res.stderr == "qcalc: x = 1.5 is outside the domain of qexp(x)\n"

    @pytest.mark.parametrize("method", ["closed", "numeric"])
    def test_primal_derivative_outside_the_domain_exits_1(self, method):
        res = run_cli("diff", "ln(x)", "primal", method, "--q", "0.5",
                      "--from", "-2", "--to", "-1", "--points", "2")
        assert (res.returncode, res.stdout) == (1, "")
        assert res.stderr == "qcalc: x = -2.0 is outside the domain of ln(x)\n"

    @pytest.mark.parametrize("argv, message", [
        (["x", "primal", "--q", "0.5", "--from", "-2", "--to", "-1"],
         "x = -2.0 sits on the pole of the coordinate chart"),
        (["x", "dual", "--q", "0.5", "--from", "-3", "--to", "-2.5"],
         "F(x) = -3.0 lies in the cutoff region at x = -3.0; the dual derivative is undefined "
         "there"),
    ], ids=["primal-pole", "dual-cutoff"])
    def test_closed_and_numeric_refuse_alike(self, argv, message, capsys):
        for method in ("closed", "numeric"):
            assert cli.main(["diff", *argv[:2], method, *argv[2:], "--points", "2"]) == 1
            assert capsys.readouterr() == ("", f"qcalc: {message}\n"), method


class TestIntegrate:
    def test_primal_qexp_value(self):
        res = run_cli("integrate", "qexp(x)", "primal", "0", "1", "--q", "0.5")
        assert res.returncode == 0
        row = res.stdout.splitlines()[1].split(",")
        assert row[0] == "1.2500000000000000e+00"
        assert row[2] == ""

    def test_dual_and_flawed_disagree(self):
        dual = run_cli("integrate", "1/x", "dual", "1", "2", "--q", "0.5")
        flawed = run_cli("integrate", "1/x", "borges-dual", "1", "2",
                         "--q", "0.5")
        assert dual.returncode == 0 and flawed.returncode == 0
        v_dual = float(dual.stdout.splitlines()[1].split(",")[0])
        v_flawed = float(flawed.stdout.splitlines()[1].split(",")[0])
        assert abs(v_dual - 0.8284271247461901) < 1e-7
        assert abs(v_flawed - (math.log(2.0) + 0.25)) < 1e-8
        assert abs(v_dual - v_flawed) > 0.1

    def test_singularity_error_vs_reflect(self):
        crossing = run_cli("integrate", "qexp(x)", "primal", "0.5", "-3",
                           "--q", "0.5")
        assert crossing.returncode == 1
        assert crossing.stdout == ""
        reflected = run_cli("integrate", "qexp(x)", "primal", "0.5", "-3",
                            "--q", "0.5", "--singularity", "reflect")
        assert reflected.returncode == 0
        row = reflected.stdout.splitlines()[1].split(",")
        assert "ReflectionApplied" in row[2] and "SingularityCrossed" in row[2]


class TestQline:
    def test_tangent_of_deformed_exponential(self):
        res = run_cli("qline", "qexp(x)", "primal", "tangent", "0",
                      "--q", "0.5")
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0] == "field,x,value"
        assert lines[1] == "slope,,1.0000000000000000e+00"
        assert lines[2] == "intercept,,1.0000000000000000e+00"

    def test_secant_recovers_line_parameters(self):
        # a primal q-line expressed through its own evaluations
        res = run_cli("qline", "qexp(x)", "primal", "secant", "0.2", "0.8",
                      "--q", "2", "--from", "0.1", "--to", "0.9",
                      "--points", "5")
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert len(lines) == 1 + 2 + 5
        assert all(line.startswith("curve,") for line in lines[3:])

    def test_reflected_pair_exits_1(self):
        res = run_cli("qline", "qexp(x)", "primal", "secant", "1", "-5",
                      "--q", "0.5")
        assert res.returncode == 1
        assert res.stdout == ""

    def test_a_huge_anchor_does_not_collapse_in_the_chart(self):
        # delta*x overflows at x = 1e308, q = -1, but ln_big_e(1e308) ~ 354.94
        res = run_cli("qline", "x", "primal", "secant", "0.5", "1e308", "--q", "-1",
                      "--from", "0", "--to", "1", "--points", "2")
        assert res.returncode == 0 and res.stderr == ""
        slope = float(res.stdout.splitlines()[1].split(",")[2])
        assert math.isclose(slope, (1e308 - 0.5) / (354.944677911363 - math.log(2.0) / 2.0),
                            rel_tol=1e-14)

    def test_anchor_count_is_validated(self):
        res = run_cli("qline", "x", "primal", "secant", "1", "--q", "1")
        assert res.returncode == 2
        res = run_cli("qline", "x", "primal", "tangent", "1", "2", "--q", "1")
        assert res.returncode == 2


class TestVerify:
    def test_single_q_passes(self):
        res = run_cli("verify", "--q", "0.5")
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0] == "property,max_residual,tolerance,status,detail"
        assert lines[-1] == "OVERALL,,,PASS,"
        assert all(",FAIL," not in line for line in lines[1:-1])

    def test_classical_only_sweep_passes(self):
        res = run_cli("verify", "--q", "1")
        assert res.returncode == 0
        assert "not exercised" in res.stdout

    def test_injected_fault_exits_3(self):
        res = run_cli("verify", "--q", "0.5", "--inject-fault")
        assert res.returncode == 3
        lines = res.stdout.splitlines()
        failing = [line for line in lines if ",FAIL," in line]
        assert any(line.startswith("algebra/identity-table,") for line in failing)
        assert lines[-1] == "OVERALL,,,FAIL,"

    @pytest.mark.parametrize("argv", [(), ("--q", "1"), ("--q", "0.5", "--inject-fault")],
                             ids=["default", "classical", "fault"])
    def test_every_csv_line_has_five_cells(self, argv):
        # cells are not quoted: a comma in a detail would add a cell
        res = run_cli("verify", *argv)
        lines = res.stdout.splitlines()
        assert len(lines) == 33
        assert all(line.count(",") == 4 for line in lines), res.stdout
        detail = {line.split(",")[0]: line.split(",")[4] for line in lines}
        assert " x=" in detail["roundtrip/log-exp"]
        assert " x=" not in detail["int/partition-slope"]


class TestOutput:
    def test_json_schema(self):
        res = run_cli("eval", "qexp(x)", "--q", "0.5", "--format", "json",
                      "--from", "0", "--to", "1", "--points", "3")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert set(doc) == {"meta", "rows"}
        assert doc["meta"]["command"] == "eval"
        assert doc["meta"]["q"] == 0.5
        assert len(doc["rows"]) == 3
        assert list(doc["rows"][0]) == ["x", "value", "flags"]

    def test_json_quotes_non_finite(self):
        # beyond the q>1 pole the deformed exponential maps to +inf
        res = run_cli("eval", "qexp(x)", "--q", "2", "--format", "json",
                      "--from", "1", "--to", "2", "--points", "2")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["rows"][0]["value"] == "inf"

    def test_out_file_matches_stdout(self, tmp_path):
        target = tmp_path / "table.csv"
        direct = run_cli("eval", "sin(x)", "--q", "0.5",
                         "--from", "0", "--to", "1", "--points", "4")
        filed = run_cli("eval", "sin(x)", "--q", "0.5",
                        "--from", "0", "--to", "1", "--points", "4",
                        "--out", str(target))
        assert filed.returncode == 0
        assert filed.stdout == ""
        assert target.read_text(encoding="utf-8") == direct.stdout

    @pytest.mark.parametrize("where", ["directory", "missing-parent"])
    def test_unwritable_out_path_is_a_usage_error(self, tmp_path, where):
        target = tmp_path if where == "directory" else tmp_path / "missing" / "x.csv"
        res = run_cli("eval", "x", "--q", "1", "--from", "0", "--to", "1",
                      "--points", "2", "--out", str(target))
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith(f"qcalc: cannot write {target}: ")
        assert "Traceback" not in res.stderr

    def test_failed_run_creates_no_out_file(self, tmp_path):
        target = tmp_path / "table.csv"
        res = run_cli("eval", "qlog(x)", "--q", "0.5", "--from", "-1",
                      "--to", "1", "--points", "3", "--out", str(target))
        assert res.returncode == 1
        assert not target.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "qexp(x)+sin(x)", "--q", "0.5",
             "--from", "-1", "--to", "2", "--points", "7"),
            ("eval", "qexp(x)", "--q", "2", "--format", "json",
             "--from", "0", "--to", "2", "--points", "5"),
            ("diff", "qlog(x+2)", "dual", "numeric", "--q", "-1",
             "--from", "0", "--to", "1", "--points", "4"),
            ("integrate", "1/x", "dual", "1", "4", "--q", "0.5"),
            ("qline", "qexp(x)", "dual", "tangent", "0.3", "--q", "0.5",
             "--from", "0", "--to", "0.5", "--points", "4"),
            ("verify", "--q", "0.5"),
        ],
        ids=["eval-csv", "eval-json", "diff", "integrate", "qline", "verify"],
    )
    def test_byte_identical_reruns(self, argv):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.returncode == 0
        assert first.returncode == second.returncode
        assert first.stdout == second.stdout

    def test_help_documents_grammar(self):
        res = run_cli("--help")
        assert res.returncode == 0
        assert "expression grammar" in res.stdout
        assert "qexp" in res.stdout
        assert "exit codes" in res.stdout


class TestNumberArguments:
    def test_infinite_integration_bound_is_a_usage_error(self):
        res = run_cli("integrate", "x", "primal", "0", "inf", "--q", "0.5")
        assert res.returncode == 2
        assert res.stdout == ""
        assert "usage:" in res.stderr and "finite" in res.stderr

    def test_nan_q_is_a_usage_error(self):
        res = run_cli("eval", "x", "--q", "nan", "--from", "0", "--to", "1",
                      "--points", "2")
        assert res.returncode == 2
        assert res.stdout == ""
        assert "usage:" in res.stderr and "finite" in res.stderr

    def test_non_finite_grid_anchor_and_tolerance_are_usage_errors(self):
        for argv in (
            ("eval", "x", "--q", "1", "--from", "0", "--to", "inf", "--points", "2"),
            ("qline", "x", "primal", "tangent", "nan", "--q", "0.5"),
            ("integrate", "x", "primal", "0", "1", "--q", "0.5", "--rel-tol", "inf"),
        ):
            res = run_cli(*argv)
            assert res.returncode == 2, argv
            assert "usage:" in res.stderr, argv

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "x", "--q", "1", "--from", "-1e308", "--to", "1e308", "--points", "3"),
            ("eval", "x", "--q", "1", "--from", "0", "--to", "1e308", "--points", "4"),
            ("diff", "x", "primal", "closed", "--q", "1",
             "--from", "0", "--to", "1e308", "--points", "4"),
            ("qline", "x", "primal", "tangent", "0", "--q", "1",
             "--from", "-1e308", "--to", "1e308", "--points", "2"),
        ],
    )
    def test_grid_with_a_non_finite_point_is_a_usage_error(self, argv, capsys):
        # hi - lo, or (hi - lo) * i, overflows although both ends are finite
        assert cli.main(list(argv)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "usage:" in err and "non-finite" in err

    def test_finite_grid_at_the_float_limit_keeps_its_points(self):
        res = run_cli("eval", "x", "--q", "1", "--from", "0", "--to", "1e308",
                      "--points", "3")
        assert res.returncode == 0
        assert [line.split(",")[0] for line in res.stdout.splitlines()[1:]] == [
            "0.0000000000000000e+00", "5.0000000000000001e+307",
            "1.0000000000000000e+308"]

    def test_negative_exponent_notation_integration_bound(self):
        res = run_cli("integrate", "x", "primal", "-1e-05", "1", "--q", "0.5")
        assert res.returncode == 0, res.stderr
        plain = run_cli("integrate", "x", "primal", "-0.00001", "1", "--q", "0.5")
        assert res.stdout == plain.stdout

    def test_negative_exponent_notation_grid_start(self):
        res = run_cli("eval", "x", "--from", "-1e-05", "--to", "1", "--points", "2",
                      "--q", "0.5")
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[1].startswith("-1.0000000000000001e-05,")

    @pytest.mark.parametrize(
        "argv,where,text",
        [
            (("integrate", "x", "primal", "-inf", "1", "--q", "0.5"), "x_lo", "-inf"),
            (("integrate", "x", "dual", "1", "-Infinity", "--q", "0.5"), "x_hi", "-Infinity"),
            (("eval", "x", "--q", "0.5", "--from", "-inf", "--to", "1", "--points", "2"),
             "--from", "-inf"),
            (("diff", "x", "primal", "closed", "--q", "0.5", "--from", "-NaN", "--to", "1",
              "--points", "2"), "--from", "-NaN"),
            (("eval", "x", "--q", "-inf", "--from", "0", "--to", "1", "--points", "2"),
             "--q", "-inf"),
            (("verify", "--q", "-nan"), "--q", "-nan"),
        ],
    )
    def test_negative_non_finite_number_is_read_as_a_value(self, argv, where, text, capsys):
        # argparse would take it for an option name and report a missing argument
        assert cli.main(list(argv)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument {where}: must be a finite number, got '{text}'" in err


class TestEvaluationErrors:
    def test_overflow_names_the_command_and_the_expression(self):
        res = run_cli("eval", "exp(x)", "--q", "1", "--from", "0", "--to", "1000",
                      "--points", "2")
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr == 'qcalc: eval "exp(x)": numeric overflow (math range error)\n'

    def test_a_math_domain_error_names_the_command_and_the_expression(self, capsys):
        # 10*x overflows to inf, and sin(inf) is math's ValueError
        argv = ["eval", "sin(x*10)", "--q", "0.5", "--from", "1e308", "--to", "1.7e308",
                "--points", "2"]
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", 'qcalc: eval "sin(x*10)": math domain error\n')

    def test_infinities_of_both_signs_are_flagged_not_a_traceback(self, capsys):
        # qexp(x)-qexp(-x) at q = 2 is +inf past x = 1 and -inf before x = -1
        argv = ["integrate", "qexp(x)-qexp(-x)", "dual", "-3", "3", "--q", "2"]
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert out == "value,error_estimate,flags\nnan,nan,ToleranceNotMet\n"
        assert err == ""

    @pytest.mark.parametrize("argv, code", [
        # the estimate of a panel this wide is finite: a value flagged ToleranceNotMet
        (["integrate", "sin(x)", "dual", "0.5", "1.7e308", "--q", "1"], 0),
        (["integrate", "sin(x)*cos(x)", "primal", "1e308", "0.5", "--q", "0"], 0),
        (["integrate", "x", "primal", "-1e308", "1e308", "--q", "1"], 0),
        # 1 + delta*x overflows, so the primal chart has no finite u for 1e308
        (["integrate", "sin(x)*cos(x)", "primal", "1e308", "0.5", "--q", "-1"], 1),
    ])
    def test_bounds_near_the_float_limit_give_a_value_or_an_overflow(self, argv, code, capsys):
        assert cli.main(argv) == code
        out, err = capsys.readouterr()
        if code:
            assert out == "" and "numeric overflow" in err
        else:
            assert out.startswith("value,error_estimate,flags\n") and err == ""

    @pytest.mark.parametrize("argv, row", [
        (["integrate", "1e210*exp(x)", "primal", "0", "10", "--q", "1"],
         "2.2025465794806727e+214,3.9735731247702648e+204,"),
        (["integrate", "exp(x)", "dual", "0", "709.7", "--q", "1"],
         "1.6549840276801752e+308,1.1418249168648128e+299,"),
    ])
    def test_a_large_finite_integral_has_a_finite_estimate(self, argv, row, capsys):
        # a panel's estimate min(d, (200 d)^1.5) is d from d = 1 on: no power overflows
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert (out, err) == (f"value,error_estimate,flags\n{row}\n", "")

    def test_an_infinite_estimate_never_converges(self, capsys):
        # the panels' sums overflow to inf: refining on, the integrand overflows
        assert cli.main(["integrate", "exp(x)", "primal", "0", "710", "--q", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "numeric overflow" in err

    @pytest.mark.parametrize("expr", ["\u00b2", "x+\u0661"])  # '²', Arabic-Indic one
    def test_non_ascii_digits_are_parse_errors(self, expr):
        res = run_cli("eval", expr, "--q", "1", "--from", "0", "--to", "1", "--points", "2")
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("qcalc: illegal character")


class TestToleranceArguments:
    @pytest.mark.parametrize("option", ["--abs-tol", "--rel-tol"])
    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_non_positive_tolerance_is_a_usage_error(self, option, value):
        res = run_cli("integrate", "x", "primal", "0", "1", "--q", "0.5", option, value)
        assert res.returncode == 2
        assert res.stdout == ""
        assert "usage:" in res.stderr and "greater than zero" in res.stderr
        assert "Traceback" not in res.stderr


class TestWarnings:
    def test_tolerance_warning_prints_the_message_alone(self):
        res = run_cli("diff", "abs(x-0.3)", "primal", "numeric", "--q", "0.5",
                      "--from", "0", "--to", "0.6", "--points", "3")
        assert res.returncode == 0
        assert res.stdout == (
            "x,derivative,error_estimate\n"
            "0.0000000000000000e+00,-9.9999999999872580e-01,9.9310448753442415e-11\n"
            "2.9999999999999999e-01,1.0660548754473858e-06,1.1004478692496267e-06\n"
            "5.9999999999999998e-01,1.3000000000020482e+00,1.2528444948145534e-10\n"
        )
        assert res.stderr == (
            "qcalc: warning: primal derivative: error estimate 1.100e-06 exceeds "
            "rel_tol=1.0e-08 (value 1.066055e-06)\n"
        )

    @pytest.mark.parametrize("op", ["primal", "dual"])
    def test_a_nan_error_estimate_warns(self, op):
        # x*x is finite at 1.3407807e154 and overflows on the stencil around it
        res = run_cli("diff", "x*x", op, "numeric", "--q", "1", "--from", "1e153",
                      "--to", "1.3407807e154", "--points", "3")
        assert res.returncode == 0
        assert res.stdout.splitlines()[-1] == "1.3407807000000001e+154,nan,nan"
        assert res.stderr == (f"qcalc: warning: {op} derivative: error estimate nan exceeds "
                              "rel_tol=1.0e-08 (value nan)\n")


EVAL = ["eval", "x", "--q", "1", "--from", "0", "--to", "1", "--points", "2"]
DIFF = ["diff", "x", "primal", "closed", "--q", "1", "--from", "0", "--to", "1",
        "--points", "2"]
INTEGRATE = ["integrate", "x", "primal", "0", "1", "--q", "0.5"]
QLINE = ["qline", "x", "primal", "tangent", "0.5", "--q", "1"]
VERIFY = ["verify", "--q", "1"]


class TestOptions:
    """Each command offers exactly the options it reads."""

    def test_option_set_of_each_command(self):
        sub = next(a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        got = {
            name: sorted(opt for action in p._actions for opt in action.option_strings
                         if opt not in ("-h", "--help"))
            for name, p in sub.choices.items()
        }
        grid = ["--format", "--from", "--out", "--points", "--q", "--to"]
        assert got == {
            "eval": grid,
            "diff": sorted(grid + ["--rel-tol"]),
            "integrate": ["--abs-tol", "--format", "--out", "--q", "--rel-tol",
                          "--singularity"],
            "qline": grid,
            "verify": ["--format", "--inject-fault", "--out", "--q"],
        }
        assert sum(map(len, got.values())) == 29

    @pytest.mark.parametrize(
        "base,option",
        [(base, option) for base in (EVAL, QLINE, VERIFY)
         for option in (["--abs-tol", "1e-9"], ["--rel-tol", "1e-9"],
                        ["--singularity", "reflect"])]
        + [(DIFF, ["--abs-tol", "1e-9"]), (DIFF, ["--singularity", "reflect"])],
        ids=lambda v: v[0],
    )
    def test_option_a_command_does_not_read_is_a_usage_error(self, base, option, capsys):
        assert cli.main(base + option) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments" in err

    def test_integrate_reads_all_three(self, capsys):
        argv = ["integrate", "qexp(x)", "primal", "0.5", "-3", "--q", "0.5",
                "--abs-tol", "1e-9", "--rel-tol", "1e-7", "--singularity", "reflect",
                "--format", "json"]
        assert cli.main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        meta = doc["meta"]
        assert (meta["abs_tol"], meta["rel_tol"], meta["singularity"]) == (1e-9, 1e-7, "reflect")
        assert "ReflectionApplied" in doc["rows"][0]["flags"]

    def test_diff_reads_rel_tol(self, capsys):
        # the estimate 1.1e-06 at the kink misses the default 1e-08, not 1e-05
        argv = ["diff", "abs(x-0.3)", "primal", "numeric", "--q", "0.5",
                "--from", "0", "--to", "0.6", "--points", "3", "--format", "json"]
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["meta"]["rel_tol"] == 1e-08
        assert "exceeds rel_tol=1.0e-08" in err
        assert cli.main(argv + ["--rel-tol", "1e-5"]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["meta"]["rel_tol"] == 1e-05
        assert err == ""

    @pytest.mark.parametrize(
        "argv,keys",
        [
            (EVAL, ["command", "q", "format", "expr", "x_from", "x_to", "points"]),
            (DIFF, ["command", "q", "rel_tol", "format", "expr", "mode", "method",
                    "x_from", "x_to", "points"]),
            (INTEGRATE, ["command", "q", "abs_tol", "rel_tol", "singularity", "format",
                         "expr", "mode", "x_lo", "x_hi"]),
            (QLINE, ["command", "q", "format", "expr", "mode", "kind", "anchors",
                     "x_from", "x_to", "points"]),
            (VERIFY, ["command", "q_values", "fault_injected", "format"]),
        ],
        ids=["eval", "diff", "integrate", "qline", "verify"],
    )
    def test_json_meta_keys(self, argv, keys, capsys):
        assert cli.main(argv + ["--format", "json"]) == 0
        assert list(json.loads(capsys.readouterr().out)["meta"]) == keys


class TestUsageLines:
    """Usage errors found after parsing show the subcommand's usage line."""

    @pytest.mark.parametrize(
        "argv,usage,message",
        [
            (["eval", "x", "--q", "1", "--from", "1", "--to", "0", "--points", "2"],
             "usage: qcalc eval ", "--from must be strictly less than --to"),
            (["eval", "x", "--q", "1", "--from", "-1e308", "--to", "1e308", "--points", "3"],
             "usage: qcalc eval ", "overflows to a non-finite point"),
            (["diff", "x", "primal", "closed", "--q", "1"],
             "usage: qcalc diff ", "diff requires --from, --to and --points"),
            (["qline", "x", "primal", "secant", "1", "--q", "1"],
             "usage: qcalc qline ", "secant takes exactly 2 anchor value(s), got 1"),
            (["qline", "x", "primal", "tangent", "1", "2", "--q", "1"],
             "usage: qcalc qline ", "tangent takes exactly 1 anchor value(s), got 2"),
            # rejected before the grid is built: no memory is spent on it
            (["eval", "x", "--q", "1", "--from", "0", "--to", "1",
              "--points", str(cli.MAX_POINTS + 1)],
             "usage: qcalc eval ", f"--points must be at most {cli.MAX_POINTS}"),
            (["diff", "x", "dual", "numeric", "--q", "0.5", "--from", "0", "--to", "1",
              "--points", str(10**20)],
             "usage: qcalc diff ", f"--points must be at most {cli.MAX_POINTS}"),
            (["qline", "x", "primal", "tangent", "1", "--q", "1", "--from", "0", "--to", "1",
              "--points", str(10**20)],
             "usage: qcalc qline ", f"--points must be at most {cli.MAX_POINTS}"),
        ],
    )
    def test_validation_errors_print_the_subcommand_usage(self, argv, usage, message, capsys):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(usage), err
        assert f"qcalc {argv[0]}: error: " in err and message in err

    def test_the_same_holds_for_the_entry_point(self):
        res = run_cli("eval", "x", "--q", "1", "--from", "1", "--to", "0", "--points", "2")
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr.startswith("usage: qcalc eval ")
        res = run_cli("qline", "x", "primal", "secant", "1", "--q", "1")
        assert res.returncode == 2 and res.stderr.startswith("usage: qcalc qline ")


GRID = ["--from", "0", "--to", "1", "--points", "3"]
GRID_META = [("x_from", 0.0), ("x_to", 1.0), ("points", 3)]
NO_GRID_META = [("x_from", None), ("x_to", None), ("points", None)]
SWEEP = [-1.0, 0.0, 0.5, 0.9, 1.0, 1.1, 2.0]
DIFF_HEADER = ["x", "derivative", "error_estimate"]
QUAD_HEADER = ["value", "error_estimate", "flags"]
QLINE_HEADER = ["field", "x", "value"]
VERIFY_HEADER = ["property", "max_residual", "tolerance", "status", "detail"]


def _diff_case(expr, mode, method, tol):
    argv = ["diff", expr, mode, method, "--q", "0.5", *GRID]
    if tol is not None:
        argv += ["--rel-tol", tol]
    meta = [("command", "diff"), ("q", 0.5), ("rel_tol", float(tol or 1e-08)),
            ("format", "json"), ("expr", expr), ("mode", mode), ("method", method), *GRID_META]
    return pytest.param(argv, 0, meta, DIFF_HEADER, id=f"diff-{mode}-{method}")


def _integrate_case(mode, extra, abs_tol, rel_tol, singularity):
    argv = ["integrate", "x", mode, "0", "1", "--q", "0.5", *extra]
    meta = [("command", "integrate"), ("q", 0.5), ("abs_tol", abs_tol), ("rel_tol", rel_tol),
            ("singularity", singularity), ("format", "json"), ("expr", "x"), ("mode", mode),
            ("x_lo", 0.0), ("x_hi", 1.0)]
    return pytest.param(argv, 0, meta, QUAD_HEADER, id=f"integrate-{mode}")


def _qline_case(mode, kind, grid):
    anchors = ["0.5", "1.5"] if kind == "secant" else ["0.5"]
    argv = ["qline", "qexp(x)", mode, kind, *anchors, "--q", "0.5", *(GRID if grid else [])]
    meta = [("command", "qline"), ("q", 0.5), ("format", "json"), ("expr", "qexp(x)"),
            ("mode", mode), ("kind", kind), ("anchors", list(map(float, anchors))),
            *(GRID_META if grid else NO_GRID_META)]
    return pytest.param(argv, 0, meta, QLINE_HEADER,
                        id=f"qline-{mode}-{kind}" + ("-grid" if grid else ""))


def _verify_case(q, fault):
    argv = ["verify", *(["--q", str(q)] if q is not None else []),
            *(["--inject-fault"] if fault else [])]
    meta = [("command", "verify"), ("q_values", SWEEP if q is None else [q]),
            ("fault_injected", fault), ("format", "json")]
    return pytest.param(argv, 3 if fault else 0, meta, VERIFY_HEADER,
                        id="verify" + ("-q" if q is not None else "") + ("-fault" if fault else ""))


META_CASES = [
    pytest.param(["eval", "qexp(x)", "--q", "0.5", *GRID], 0,
                 [("command", "eval"), ("q", 0.5), ("format", "json"), ("expr", "qexp(x)"),
                  *GRID_META],
                 ["x", "value", "flags"], id="eval"),
    _diff_case("qexp(x)", "primal", "closed", None),
    _diff_case("qexp(x)", "primal", "numeric", "1e-05"),
    _diff_case("qlog(x+1)", "dual", "closed", None),
    _diff_case("qlog(x+1)", "dual", "numeric", None),
    _integrate_case("primal", [], 1e-10, 1e-08, "error"),
    _integrate_case("dual", ["--abs-tol", "1e-9"], 1e-09, 1e-08, "error"),
    _integrate_case("borges-dual", ["--rel-tol", "1e-6", "--singularity", "reflect"],
                    1e-10, 1e-06, "reflect"),
    *(_qline_case(mode, kind, grid) for mode in ("primal", "dual")
      for kind in ("secant", "tangent") for grid in (False, True)),
    *(_verify_case(q, fault) for q in (0.5, None) for fault in (False, True)),
]


def _csv_line(values):
    """A CSV line from JSON-decoded cells (non-finite floats arrive quoted)."""
    cells = ("" if v is None else "true" if v is True else "false" if v is False
             else cli.format_float(v) if isinstance(v, float) else str(v) for v in values)
    return ",".join(cells)


class TestMeta:
    """Each command's whole JSON meta, in order, and its row header; CSV and
    JSON carry the same rows."""

    @pytest.mark.parametrize("argv,code,meta,header", META_CASES)
    def test_meta_header_and_rows(self, argv, code, meta, header, capsys):
        assert cli.main(argv + ["--format", "json"]) == code
        doc = json.loads(capsys.readouterr().out)
        assert list(doc["meta"].items()) == meta
        assert doc["rows"] and all(list(row) == header for row in doc["rows"])
        assert cli.main(argv) == code
        csv = capsys.readouterr().out.splitlines()
        assert csv == [",".join(header), *(_csv_line(row.values()) for row in doc["rows"])]


@pytest.mark.parametrize("argv", [
    ["diff", "x", "primal", "numeric", "--q", "-1", "--from", "1e307", "--to", "1e308",
     "--points", "2"],
    ["diff", "exp(x)", "dual", "numeric", "--q", "0.5", "--from", "709.78", "--to", "709.78271",
     "--points", "2"],
    # x + h is inf at the float limit: an overflow, not a nan row
    ["diff", "x", "primal", "numeric", "--q", "1", "--from", "1.7e308", "--to",
     "1.7976931348623157e308", "--points", "2"],
    ["diff", "x", "dual", "numeric", "--q", "-1", "--from", "1.7e308", "--to",
     "1.7976931348623157e308", "--points", "2"],
], ids=["primal", "dual", "primal-float-limit", "dual-float-limit"])
def test_an_overflowing_stencil_is_not_blamed_on_the_domain(argv, capsys):
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("derivative: the difference stencil still overflows after 8 shrinks\n")

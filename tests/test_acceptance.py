"""Acceptance gate: each shipped behavior checked end to end at its stated
tolerance. Every test prints one PASS/FAIL line (visible with -s) and then
asserts, so the whole gate reads as a checklist.
"""

import math
import random
import subprocess
import sys

from qcalc import (
    Deformation,
    EvalFlag,
    RealFunction,
    big_e,
    builtin,
    dual_qderiv_closed,
    dual_qderiv_numeric,
    dual_qint,
    partition_sum_oracle,
    primal_qderiv_closed,
    primal_qderiv_numeric,
    primal_qint,
    primal_qint_riemann,
    q_add,
    q_div,
    q_exp,
    q_log,
    q_mul,
    q_sub,
    slope_duality,
)
from qcalc import funcexpr
from qcalc.funcexpr import parse
from qcalc.qquad import QuadratureConfig, borges_dual_qint, dual_qint_from

Q_SET = [Deformation(q) for q in (-1.0, 0.0, 0.5, 2.0)]

# open-support windows per q, wide enough to stress the operators
GRIDS = {
    -1.0: (-0.45, 2.5),
    0.0: (-0.95, 2.5),
    0.5: (-1.9, 2.5),
    2.0: (-2.0, 0.9),
}

# dual integrals transport the inner error by exp(delta * A)
TIGHT = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-12)

_SKIP = frozenset({EvalFlag.CUTOFF_APPLIED, EvalFlag.POLE_REACHED})


def off_domain(ev):
    return bool(ev.flags & _SKIP)


def grid(lo, hi, n):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def rel(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def report(label, ok):
    print(f"acceptance [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, label


def upper_bound(d):
    if not d.classical and d.delta < 0.0 and -1.0 / d.delta <= 1.25:
        return 0.5
    return 1.0


def test_01_primal_derivative_eigenfunction():
    worst = 0.0
    for d in Q_SET:
        f = builtin("qexp", d)
        lo, hi = GRIDS[d.q]
        for x in grid(lo, hi, 50):
            target = q_exp(x, d)
            if off_domain(target):
                continue
            worst = max(worst, abs(primal_qderiv_numeric(f, x, d) - target.value))
    report("01 primal derivative has the deformed exponential as eigenfunction",
           worst <= 1e-6)


def test_02_dual_derivative_sends_log_to_reciprocal():
    worst = 0.0
    for d in Q_SET:
        f = builtin("qlog", d)
        for x in grid(0.1, 10.0, 50):
            worst = max(worst, abs(dual_qderiv_numeric(f, x, d) - 1.0 / x))
    report("02 dual derivative of the deformed log is 1/x", worst <= 1e-6)


def test_03_numeric_and_closed_derivatives_agree():
    worst = 0.0
    for d in Q_SET:
        lo, hi = GRIDS[d.q]
        primal_set = [
            funcexpr.compile(parse("x^2", d)),
            funcexpr.compile(parse("sin(x)", d)),
            builtin("qexp", d),
        ]
        for f in primal_set:
            for x in grid(lo + 0.05, hi, 20):
                closed = primal_qderiv_closed(f, x, d)
                worst = max(worst, rel(primal_qderiv_numeric(f, x, d), closed))
        dual_set = [
            builtin("qlog", d),
            builtin("identity", d),
            funcexpr.compile(parse("x^3+1", d)),
        ]
        for fn in dual_set:
            for x in grid(-1.5, 2.0, 20):
                if not fn.defined(x) or d.bracket(fn(x)) <= 0.05:
                    continue
                if not d.classical and abs(d.bracket(x)) <= 0.05:
                    continue
                closed = dual_qderiv_closed(fn, x, d)
                worst = max(worst, rel(dual_qderiv_numeric(fn, x, d), closed))
    report("03 limit-quotient and closed-form derivatives agree", worst <= 1e-6)


def test_04_primal_integral_closed_form():
    cases = [
        # oracle: generate_frozen_values.py
        (0.5, 1.0, 1.25),
        (0.0, 1.0, 1.0),
        (0.9, 1.0, 1.5937424601),
        (2.0, 0.5, 1.0),
    ]
    worst = 0.0
    for q, hi, expected in cases:
        d = Deformation(q)
        value = primal_qint(builtin("qexp", d), 0.0, hi, d).value
        worst = max(worst, abs(value - expected))
    report("04 primal integral of the deformed exponential hits closed form",
           worst <= 1e-8)


def test_05_partition_oracle_converges_first_order():
    ok = True
    for d in Q_SET:
        if d.classical:
            continue
        hi = upper_bound(d)
        exact = q_exp(hi, d).value - 1.0
        points = []
        for k in range(3, 13):
            n = 2**k
            err = abs(partition_sum_oracle(0.0, hi, n, d) - exact)
            points.append((math.log2(n), math.log2(err)))
        xs = [p for p, _ in points]
        ys = [e for _, e in points]
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        slope = sum((a - mx) * (b - my) for a, b in zip(xs, ys)) / sum(
            (a - mx) ** 2 for a in xs
        )
        final = 2.0 ** ys[-1]
        ok = ok and abs(slope + 1.0) <= 0.2 and final <= 1e-3
    report("05 geometric-partition sum converges at first order", ok)


def test_06_adaptive_matches_million_step_riemann():
    cases = [
        (builtin("qexp", Deformation(0.5)), 0.0, 1.0, Deformation(0.5)),
        (RealFunction(math.sin), 0.0, 2.0, Deformation(-1.0)),
        (RealFunction(lambda x: x * x), 0.0, 0.9, Deformation(2.0)),
        (RealFunction(lambda x: 1.0 / (x + 2.0)), 0.0, 1.0, Deformation(0.0)),
        (RealFunction(lambda x: math.exp(0.5 * x)), 0.0, 1.5, Deformation(0.5)),
    ]
    worst = 0.0
    for f, lo, hi, d in cases:
        adaptive = primal_qint(f, lo, hi, d).value
        fixed = primal_qint_riemann(f, lo, hi, 10**6, d)
        worst = max(worst, abs(adaptive - fixed))
    report("06 adaptive primal integral matches 10^6-step Riemann sums",
           worst <= 1e-5)


def test_07_dual_integral_recovers_deformed_log():
    worst = 0.0
    for d in Q_SET:
        recip = builtin("recip", d)
        for x in (2.0, 4.0, 10.0):
            value = dual_qint(recip, 1.0, x, d, TIGHT).value
            worst = max(worst, abs(value - q_log(x, d)))
    report("07 dual integral of 1/t recovers the deformed log", worst <= 1e-10)


def test_08_dual_integral_additivity():
    rng = random.Random(20260815)
    worst = 0.0
    for d in Q_SET:
        recip = builtin("recip", d)
        for _ in range(20):
            a = rng.uniform(0.5, 1.5)
            c = rng.uniform(a + 0.1, 2.5)
            b = rng.uniform(c + 0.1, 3.5)
            whole = dual_qint(recip, a, b, d, TIGHT).value
            left = dual_qint(recip, a, c, d, TIGHT).value
            right = dual_qint(recip, c, b, d, TIGHT).value
            worst = max(worst, abs(q_add(left, right, d) - whole))
    report("08 dual integral splits deformed-additively", worst <= 1e-10)


def test_09_fundamental_theorems_round_trip():
    worst = 0.0
    for d in Q_SET:
        f = builtin("qexp", d)
        hi = upper_bound(d)

        def accumulated(x, f=f, d=d):
            return primal_qint(f, 0.0, x, d).value

        big = RealFunction(accumulated, domain=lambda x, d=d: d.bracket(x) > 0.0)
        for x in grid(0.1, hi, 5):
            target = q_exp(x, d)
            if off_domain(target):
                continue
            worst = max(worst, abs(primal_qderiv_numeric(big, x, d) - target.value))

        recip = builtin("recip", d)

        def dual_accumulated(x, recip=recip, d=d):
            return dual_qint(recip, 1.0, x, d, TIGHT).value

        dual_big = RealFunction(dual_accumulated, domain=lambda x: x > 0.0)
        for x in grid(1.2, 3.0, 5):
            worst = max(worst, abs(dual_qderiv_numeric(dual_big, x, d) - 1.0 / x))

        # integral of the dual derivative lands back on the deformed increment
        F = builtin("qlog", d)
        g = RealFunction(
            lambda x, F=F, d=d: dual_qderiv_closed(F, x, d),
            domain=lambda x, F=F, d=d: x > 0.0 and d.bracket(F(x)) > 0.0,
        )
        for x in (1.5, 2.5):
            value = dual_qint(g, 1.0, x, d, TIGHT).value
            worst = max(worst, abs(value - q_sub(q_log(x, d), q_log(1.0, d), d)))
    report("09 fundamental theorems round-trip both operator pairs",
           worst <= 1e-6)


def test_10_value_side_dual_integral_is_genuinely_different():
    d = Deformation(0.5)
    recip = builtin("recip", d)
    flawed = borges_dual_qint(recip, 1.0, 2.0, d)
    composed = dual_qint(recip, 1.0, 2.0, d, TIGHT).value
    gap = abs(flawed - composed)
    # oracle: antiderivative ln(x) - delta/x gives ln 2 + 1/4 on [1, 2]
    value_ok = abs(flawed - (math.log(2.0) + 0.25)) <= 1e-8
    report("10 value-side dual integral disagrees with the composed one",
           gap > 0.1 and value_ok)


def test_11_slope_duality_product_is_one():
    anchors = {
        -1.0: (-0.4, 1.0),
        0.0: (-0.5, 1.0),
        0.5: (-0.5, 1.0),
        2.0: (-0.5, 0.8),
    }
    worst = 0.0
    for d in Q_SET:
        f = builtin("qexp", d)
        finv = builtin("qlog", d)
        lo, hi = anchors[d.q]
        for x0 in grid(lo, hi, 20):
            k_primal, k_dual = slope_duality(f, finv, x0, d)
            worst = max(worst, abs(k_primal * k_dual - 1.0))
    report("11 primal and dual tangent slopes are reciprocal", worst <= 1e-6)


def test_12_deformed_algebra_identity_battery():
    rng = random.Random(1234)
    pos = [(rng.uniform(0.05, 4.0), rng.uniform(0.05, 4.0)) for _ in range(200)]
    arg = [(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in range(200)]
    worst = 0.0
    for d in Q_SET:
        for x, y in pos:
            worst = max(worst, rel(q_log(x * y, d),
                                   q_add(q_log(x, d), q_log(y, d), d)))
            prod = q_mul(x, y, d)
            if not off_domain(prod):
                worst = max(worst, rel(q_log(prod.value, d),
                                       q_log(x, d) + q_log(y, d)))
            worst = max(worst, rel(q_log(x / y, d),
                                   q_sub(q_log(x, d), q_log(y, d), d)))
            quot = q_div(x, y, d)
            if not off_domain(quot):
                worst = max(worst, rel(q_log(quot.value, d),
                                       q_log(x, d) - q_log(y, d)))
        for x, y in arg:
            ex, ey = q_exp(x, d), q_exp(y, d)
            if off_domain(ex) or off_domain(ey):
                continue
            esum = q_exp(q_add(x, y, d), d)
            if not off_domain(esum):
                worst = max(worst, rel(ex.value * ey.value, esum.value))
            prod = q_mul(ex.value, ey.value, d)
            target = q_exp(x + y, d)
            if not off_domain(prod) and not off_domain(target):
                worst = max(worst, rel(prod.value, target.value))
            if d.bracket(y) != 0.0:
                target = q_exp(q_sub(x, y, d), d)
                if not off_domain(target):
                    worst = max(worst, rel(ex.value / ey.value, target.value))
            quot = q_div(ex.value, ey.value, d)
            target = q_exp(x - y, d)
            if not off_domain(quot) and not off_domain(target):
                worst = max(worst, rel(quot.value, target.value))
    report("12 deformed algebra identity table holds off the cutoff",
           worst <= 1e-10)


def test_13_two_sided_exponential_reflection():
    rng = random.Random(977)
    worst = 0.0
    for q in (0.0, 0.5, 2.0):
        d = Deformation(q)
        mirror = -2.0 / d.delta
        count = 0
        while count < 100:
            x = rng.uniform(-4.0, 4.0)
            if abs(d.bracket(x)) < 1e-6:
                continue
            count += 1
            lhs = big_e(x, d)
            worst = max(worst, abs(lhs - big_e(mirror - x, d)) / (1e-300 + lhs))
    report("13 two-sided exponential is symmetric about the pole",
           worst <= 1e-12)


def test_14_near_classical_operators_reduce_to_ordinary_calculus():
    worst = 0.0
    exp_fn = RealFunction(math.exp, derivative=math.exp)
    log_fn = RealFunction(math.log, derivative=lambda x: 1.0 / x,
                          domain=lambda x: x > 0.0)
    for q in (1.0 - 1e-6, 1.0 + 1e-6):
        d = Deformation(q)
        for x in grid(0.1, 10.0, 15):
            worst = max(worst, rel(q_log(x, d), math.log(x)))
        for x in grid(-10.0, 2.0, 15):
            worst = max(worst, rel(q_exp(x, d).value, math.exp(x)))
        for x in grid(-8.0, 8.0, 9):
            for y in (-3.0, 0.7, 5.0):
                worst = max(worst, rel(q_add(x, y, d), x + y))
                worst = max(worst, rel(q_sub(x, y, d), x - y))
        for x in grid(0.2, 8.0, 9):
            for y in (0.4, 1.0, 6.0):
                worst = max(worst, rel(q_mul(x, y, d).value, x * y))
                worst = max(worst, rel(q_div(x, y, d).value, x / y))
        for x in (0.3, 1.7):
            worst = max(worst, rel(primal_qderiv_numeric(exp_fn, x, d),
                                   math.exp(x)))
            worst = max(worst, rel(primal_qderiv_closed(exp_fn, x, d),
                                   d.bracket(x) * math.exp(x)))
            worst = max(worst, rel(dual_qderiv_numeric(log_fn, x + 1.0, d),
                                   1.0 / (x + 1.0)))
        worst = max(worst, rel(primal_qint(exp_fn, 0.0, 1.0, d).value,
                               math.e - 1.0))
        recip = builtin("recip", d)
        worst = max(worst, rel(dual_qint(recip, 1.0, 2.0, d).value,
                               math.log(2.0)))
        worst = max(worst, rel(dual_qint_from(recip, 1.0, 2.0, 0.0, d).value,
                               math.log(2.0)))
    report("14 every operator reduces to ordinary calculus near q = 1",
           worst <= 1e-4)


def test_15_cli_is_deterministic_and_self_verifying():
    def run(*argv):
        return subprocess.run([sys.executable, "-m", "qcalc", *argv],
                              capture_output=True, text=True, timeout=300)

    commands = [
        ("eval", "qexp(x)", "--q", "0.5", "--from", "-1", "--to", "2",
         "--points", "7"),
        ("diff", "qexp(x)", "primal", "numeric", "--q", "0.5",
         "--from", "0", "--to", "1", "--points", "5"),
        ("integrate", "1/x", "dual", "1", "2", "--q", "0.5"),
        ("qline", "qexp(x)", "primal", "tangent", "0", "--q", "0.5",
         "--from", "0", "--to", "1", "--points", "4"),
        ("verify", "--q", "0.5"),
    ]
    ok = True
    for argv in commands:
        first, second = run(*argv), run(*argv)
        ok = ok and first.returncode == 0 and second.returncode == 0
        ok = ok and first.stdout == second.stdout and first.stdout != ""
    clean = run("verify")
    ok = ok and clean.returncode == 0
    faulted = run("verify", "--q", "0.5", "--inject-fault")
    ok = ok and faulted.returncode == 3
    report("15 CLI output is byte-identical and the battery self-verifies", ok)

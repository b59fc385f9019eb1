"""The bracket-power operations against reference copies, bit for bit.

The references below are q_exp, big_e and the deformed products as they
were when each held its own copy of the cutoff rule and read 1 - q and
1/(1 - q) afresh on every call. Every value, flag set and error of the
operations built on the one shared cutoff kernel must equal them exactly.
"""

import math
import struct

import pytest

from qcalc.errors import DomainError
from qcalc.qcore import Deformation, EvalFlag, big_e, q_div, q_exp, q_mul, q_power_n

_Q1 = frozenset({EvalFlag.Q1_BRANCH})
_CUT = frozenset({EvalFlag.CUTOFF_APPLIED})
_POLE = frozenset({EvalFlag.POLE_REACHED})


def reference_bracket_power(b, q):
    delta = 1.0 - q
    if b <= 0.0:
        if delta > 0.0:
            return 0.0, _CUT
        return math.inf, _POLE
    try:
        return b ** (1.0 / delta), frozenset()
    except OverflowError:
        return math.inf, _POLE


def classical(q):
    return abs(1.0 - q) < 1e-12


def reference_q_exp(x, q):
    if classical(q):
        try:
            return math.exp(x), _Q1
        except OverflowError:
            return math.inf, _Q1 | _POLE
    return reference_bracket_power(1.0 + (1.0 - q) * x, q)


def reference_big_e(x, q):
    delta = 1.0 - q
    if classical(q):
        try:
            return math.exp(x)
        except OverflowError:
            return math.inf
    a = abs(1.0 + delta * x)
    if a == 0.0:
        return 0.0 if delta > 0.0 else math.inf
    try:
        return a ** (1.0 / delta)
    except OverflowError:
        return math.inf


def reference_product(op, x, y, q):
    if x <= 0.0 or y <= 0.0:
        raise DomainError
    delta = 1.0 - q
    if op == "mul":
        if classical(q):
            return x * y, _Q1
        return reference_bracket_power(x**delta + y**delta - 1.0, q)
    if op == "div":
        if classical(q):
            return x / y, _Q1
        return reference_bracket_power(x**delta - y**delta + 1.0, q)
    if classical(q):
        return x**y, _Q1
    return reference_bracket_power(y * x**delta - (y - 1.0), q)


def bits(value):
    return "nan" if math.isnan(value) else struct.pack("<d", value)


def outcome(fn, *args):
    """(bits, flags) of a result or (bits, None) of a float, else the error type."""
    try:
        result = fn(*args)
    except (DomainError, OverflowError) as exc:
        return type(exc)
    if isinstance(result, float):
        return bits(result), None
    value, flags = result if isinstance(result, tuple) else (result.value, result.flags)
    return bits(value), flags


Q_VALUES = (-1.0, 0.0, 0.5, 0.9, 1.0, 1.1, 2.0, 1.0 + 1e-13, 1.0 - 1e-13)

# the pole/cutoff -1/(1-q) of every q and its neighbours, overflow, non-finite
POINTS = sorted(
    {-3.0, -2.0, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0, 700.0, -700.0, 1e6, -1e6, 1e308}
    | {s / (1.0 - q) * f for q in Q_VALUES if q != 1.0 for s in (1.0, -1.0)
       for f in (1.0, 1.0 + 1e-15, 1.0 - 1e-15, 2.0)}
) + [math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("q", Q_VALUES)
def test_q_exp_and_big_e_match_the_references(q):
    d = Deformation(q)
    for x in POINTS:
        assert outcome(q_exp, x, d) == outcome(reference_q_exp, x, q), x
        assert outcome(big_e, x, d) == outcome(reference_big_e, x, q), x


@pytest.mark.parametrize("q", Q_VALUES)
def test_deformed_products_match_the_references(q):
    d = Deformation(q)
    args = (0.0, 1e-300, 0.1, 0.5, 1.0, 2.0, 7.5, 1e10, 1e300, math.inf)
    for x in args:
        for y in args:
            assert outcome(q_mul, x, y, d) == outcome(reference_product, "mul", x, y, q)
            assert outcome(q_div, x, y, d) == outcome(reference_product, "div", x, y, q)
        for n in (1, 2, 3, 17):
            want = outcome(reference_product, "pow", x, float(n), q)
            assert outcome(q_power_n, x, n, d) == want, (x, n)

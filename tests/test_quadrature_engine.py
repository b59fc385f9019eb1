"""The adaptive engine against a reference copy, bit for bit.

The reference below is the engine as it was before its totals were kept
as exact running sums: a looped Kronrod panel, and a loop that sums the
whole heap with math.fsum on every iteration. That costs O(n^2) in the
number of subdivisions but is plainly right, so every (value, estimate,
converged) triple of the engine, and every error it raises, must equal
the reference's exactly.
"""

import heapq
import math
import struct

import pytest

from qcalc import Deformation, parse
from qcalc import funcexpr
from qcalc.qquad import QuadratureConfig, _XK, _WK, _WK_CENTER, _WG, _WG_CENTER, _adaptive


def reference_panel(g, a, b):
    c = 0.5 * (a + b)
    hl = 0.5 * (b - a)
    fc = g(c)
    sk = _WK_CENTER * fc
    sg = _WG_CENTER * fc
    for i, x in enumerate(_XK):
        pair = g(c + hl * x) + g(c - hl * x)
        sk += _WK[i] * pair
        if i % 2 == 1:
            sg += _WG[i // 2] * pair
    value = sk * hl
    d = abs(value - sg * hl)
    return value, min(d, (200.0 * d) ** 1.5)


def reference_adaptive(g, a, b, config):
    value, err = reference_panel(g, a, b)
    heap = [(-err, 0, a, b, value, err)]
    order = 1
    for _ in range(config.max_subdivisions):
        total = math.fsum(e[4] for e in heap)
        total_err = math.fsum(e[5] for e in heap)
        if total_err <= max(config.abs_tol, config.rel_tol * abs(total)):
            return total, total_err, True
        _, _, wa, wb, _, _ = heapq.heappop(heap)
        mid = 0.5 * (wa + wb)
        for lo, hi in ((wa, mid), (mid, wb)):
            v, e = reference_panel(g, lo, hi)
            heapq.heappush(heap, (-e, order, lo, hi, v, e))
            order += 1
    total = math.fsum(e[4] for e in heap)
    total_err = math.fsum(e[5] for e in heap)
    converged = total_err <= max(config.abs_tol, config.rel_tol * abs(total))
    return total, total_err, converged


def bits(value):
    return "nan" if math.isnan(value) else struct.pack("<d", value)


def outcome(engine, g, a, b, config):
    """The triple with floats as bits, or (type, message) of the error."""
    try:
        value, err, converged = engine(g, a, b, config)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return bits(value), bits(err), converged


def same_outcome(g, a, b, config):
    got = outcome(_adaptive, g, a, b, config)
    assert got == outcome(reference_adaptive, g, a, b, config)
    return got


# The benchmark's shallow integrands, on intervals from its bands
SMOOTH = ("exp(-x)*sin(3*x)+1", "qexp(x/2)", "1/(x+2)", "x^2*cos(x)-x")
ENDPOINT = ("sqrt(x)*exp(x)", "ln(x)+2", "x*ln(x)")
Q_VALUES = (-1.0, 0.0, 0.5, 0.9, 1.0, 1.1, 2.0)
CONFIGS = (QuadratureConfig(), QuadratureConfig(abs_tol=1e-14, rel_tol=1e-14))


@pytest.mark.parametrize("q", Q_VALUES)
@pytest.mark.parametrize("text", SMOOTH + ENDPOINT)
def test_shallow_integrands_match_the_reference(text, q):
    d = Deformation(q)
    f = funcexpr.compile(parse(text, d)).eval
    a, b = (0.0, 0.75) if text in ENDPOINT else (-0.15, 0.75)

    def weighted(x):  # the primal integrand
        return f(x) / (1.0 + d.delta * x)

    for config in CONFIGS:
        for g in (f, weighted):
            assert same_outcome(g, a, b, config)[0] != "nan"


@pytest.mark.parametrize("text,q", [("sin(40*x)*exp(x)", 0.5), ("cos(30*x)/(x+2)", 2.0)])
def test_budget_integrands_match_the_reference(text, q):
    f = funcexpr.compile(parse(text, Deformation(q))).eval
    config = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300, max_subdivisions=500)
    assert same_outcome(f, -0.15, 0.75, config)[2] is False


def _window(lo, value):
    """sin(40x) with `value` on (lo, lo + 0.004), a window the first dozen or
    more panels miss, so the sums turn non-finite in mid-run."""
    return lambda x: value if lo < x < lo + 0.004 else math.sin(40.0 * x)


@pytest.mark.parametrize("g", [
    _window(0.33, math.inf),  # converges with value inf
    _window(0.34, -math.inf),
    _window(0.77, math.nan),
    lambda x: -0.0,  # an exactly zero sum takes its sign from the heap
    lambda x: 1e300 * math.exp(400.0 * x),  # the first panel's estimate overflows
])
def test_non_finite_and_zero_sums_match_the_reference(g):
    config = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300, max_subdivisions=60)
    same_outcome(g, 0.0, 1.0, config)
    same_outcome(g, 0.0, 1.0, QuadratureConfig())

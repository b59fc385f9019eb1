"""The adaptive engine against a reference copy, bit for bit.

The reference below is the engine as it was before its totals were kept
as exact running sums: a looped Kronrod panel, and a loop that sums the
whole heap with math.fsum on every iteration (and, a rule added since,
stops when that sum is NaN). That costs O(n^2) in the
number of subdivisions but is plainly right, so every (value, estimate,
converged) triple of the engine, and every error it raises, must equal
the reference's exactly.
"""

import heapq
import math
import struct

import pytest

from qcalc import Deformation, RealFunction, parse
from qcalc import funcexpr
from qcalc.qcore import ln_big_e
from qcalc.qquad import (
    QuadratureConfig, _EXACT_SUM_LIMIT, _XK, _WK, _WK_CENTER, _WG, _WG_CENTER, _kronrod, _refine,
)


def reference_panel(g, a, b):
    c = 0.5 * a + 0.5 * b  # halved first, so finite bounds give a finite c and hl
    hl = 0.5 * b - 0.5 * a
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
    # min(d, (200 d)^1.5) is d from d = 1 on, where the power could overflow
    return value, d if d >= 1.0 else min(d, (200.0 * d) ** 1.5)


def fsum_or_nan(values):
    """math.fsum, but NaN where it meets infinities of both signs, as it
    gives where it meets a NaN."""
    try:
        return math.fsum(values)
    except ValueError:
        return math.nan


def met(total, total_err, config):
    """The tolerance test: a non-finite estimate never meets it."""
    return total_err < math.inf and total_err <= max(config.abs_tol, config.rel_tol * abs(total))


def reference_adaptive(g, a, b, config):
    value, err = reference_panel(g, a, b)
    heap = [(-err, 0, a, b, value, err)]
    order = 1
    for _ in range(config.max_subdivisions):
        total = fsum_or_nan(e[4] for e in heap)
        total_err = math.fsum(e[5] for e in heap)
        if met(total, total_err, config):
            return total, total_err, True
        if math.isnan(total):  # no split can mend a NaN total
            return total, total_err, False
        _, _, wa, wb, _, _ = heapq.heappop(heap)
        mid = 0.5 * wa + 0.5 * wb
        for lo, hi in ((wa, mid), (mid, wb)):
            v, e = reference_panel(g, lo, hi)
            heapq.heappush(heap, (-e, order, lo, hi, v, e))
            order += 1
    total = fsum_or_nan(e[4] for e in heap)
    total_err = math.fsum(e[5] for e in heap)
    return total, total_err, met(total, total_err, config)


def bits(value):
    return "nan" if math.isnan(value) else struct.pack("<d", value)


def outcome(engine, g, a, b, config):
    """The triple with floats as bits, or (type, message) of the error."""
    try:
        value, err, converged = engine(g, a, b, config)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return bits(value), bits(err), converged


def engine(g, a, b, config):
    """The engine's value, estimate and convergence for g on [a, b]."""
    return _refine(_kronrod(g, "none", 0.0), a, b, config)[:3]


def same_outcome(g, a, b, config):
    got = outcome(engine, g, a, b, config)
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
    _window(0.33, math.inf),  # an infinite value with a NaN estimate: not converged
    _window(0.34, -math.inf),
    _window(0.77, math.nan),
    lambda x: -0.0,  # an exactly zero sum takes its sign from the heap
    lambda x: 1e300 * math.exp(400.0 * x),  # the first panel's estimate overflows
])
def test_non_finite_and_zero_sums_match_the_reference(g):
    config = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300, max_subdivisions=60)
    same_outcome(g, 0.0, 1.0, config)
    same_outcome(g, 0.0, 1.0, QuadratureConfig())


def _both_infinities(x):
    """+inf to the right of 0.6 and -inf to the left of 0.4, as
    qexp(x)-qexp(-x) is past x = 1 and before x = -1 at q = 2."""
    return math.inf if x > 0.6 else -math.inf if x < 0.4 else math.sin(40.0 * x)


@pytest.mark.parametrize("config", [QuadratureConfig(), QuadratureConfig(1e-300, 1e-300, 60)])
def test_infinities_of_both_signs_total_nan_and_are_flagged(config):
    assert same_outcome(_both_infinities, 0.0, 1.0, config) == ("nan", "nan", False)


@pytest.mark.parametrize("g", [_window(0.77, math.nan), _both_infinities])
def test_a_nan_total_ends_the_run_where_the_reference_ends(g):
    config = QuadratureConfig(1e-300, 1e-300, 400)
    n_panels = _refine(_kronrod(g, "none", 0.0), 0.0, 1.0, config)[3]
    assert n_panels == counted_reference(g, 0.0, 1.0, config) < 2 * config.max_subdivisions


@pytest.mark.parametrize("a, b", [(0.5, 1.7e308), (-1e308, 1e308), (-1.7e308, 1.7e308)])
def test_finite_bounds_give_finite_nodes(a, b):
    nodes = []

    def g(x):
        nodes.append(x)
        return math.sin(x)

    engine(g, a, b, QuadratureConfig(max_subdivisions=5))  # estimates near the limit are finite
    assert len(nodes) >= 15 and all(map(math.isfinite, nodes))


# Runs past the switch from sums over a short heap to running sums. Each
# window below is first hit by a panel on the side of the switch named with
# it, which `test_windows_are_hit_on_their_side_of_the_switch` checks.
LONG = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300, max_subdivisions=400)


def _narrow_window(lo, width, value):
    return lambda x: value if lo < x < lo + width else math.sin(40.0 * x)


def _heap_size_at_first_hit(g):
    """Panels in the reference's heap when a panel first makes the sum of
    |value| + estimate reach _EXACT_SUM_LIMIT, or not finite, or raises (None
    if none does)."""
    value, err = reference_panel(g, 0.0, 1.0)
    heap = [(-err, 0, 0.0, 1.0, value, err)]
    bound, order = abs(value) + err, 1
    for _ in range(LONG.max_subdivisions):
        if not bound < _EXACT_SUM_LIMIT:
            return len(heap)
        _, _, wa, wb, _, _ = heapq.heappop(heap)
        mid = 0.5 * wa + 0.5 * wb
        for lo, hi in ((wa, mid), (mid, wb)):
            try:
                v, e = reference_panel(g, lo, hi)
            except ArithmeticError:
                return len(heap)
            heapq.heappush(heap, (-e, order, lo, hi, v, e))
            order += 1
            bound += abs(v) + e
    return None


WINDOWS = {  # (lo, width, value): hit after the switch?
    (0.33, 0.001, math.inf): True,
    (0.34, 0.001, -math.inf): True,
    (0.33, 0.001, math.nan): True,
    (0.33, 0.001, 1e306): True,  # the bound passes _EXACT_SUM_LIMIT
    (0.5, 0.0001, math.inf): False,  # non-finite before the switch: no running sums
}


@pytest.mark.parametrize("window,after", list(WINDOWS.items()))
def test_windows_are_hit_on_their_side_of_the_switch(window, after):
    from qcalc import qquad

    size = _heap_size_at_first_hit(_narrow_window(*window))
    assert size is not None and (size >= qquad._SHORT_HEAP) is after


def _odd_about_zero(x):
    """sin(40x), but 1 at 0: the first panel on [-1, 1] is not converged,
    and its two halves have opposite values, so the total is exactly zero
    whenever the refinement is symmetric."""
    return 1.0 if x == 0.0 else math.sin(40.0 * x)


@pytest.mark.parametrize("g,a,b", [
    *((_narrow_window(*w), 0.0, 1.0) for w in WINDOWS),
    (_odd_about_zero, -1.0, 1.0),
    (lambda x: -0.0, 0.0, 1.0),
    (lambda x: 1e300 * math.exp(400.0 * x), 0.0, 1.0),  # bound over from the first panel
    (lambda x: math.sin(40.0 * x) * math.exp(x), -0.15, 0.75),
])
def test_runs_past_the_short_heap_switch_match_the_reference(g, a, b):
    for n in (47, 48, 49, 400):
        same_outcome(g, a, b, QuadratureConfig(1e-300, 1e-300, n))


@pytest.mark.parametrize("n", [49, 51, 399])
def test_zero_totals_past_the_switch_fall_back_to_the_heap(n):
    # these odd subdivision counts end on an exactly zero total
    config = QuadratureConfig(1e-300, 1e-300, n)
    assert same_outcome(_odd_about_zero, -1.0, 1.0, config)[0] == bits(0.0)


# ---------------------------------------------------------------------------
# Panel counts of the integrators against a counting reference


def counted_reference(g, a, b, config):
    """reference_adaptive on [min, max] and the panels it computed."""
    calls = []

    def counting(x):
        calls.append(x)
        return g(x)

    if a == b:
        return 0
    reference_adaptive(counting, min(a, b), max(a, b), config)
    assert len(calls) % 15 == 0
    return len(calls) // 15


def in_the_chart(f, d):
    """f at x = chart(u), the primal integrand in u = ln_big_e(x) above the pole."""
    if d.classical:
        return f
    return lambda u: f(math.expm1(d.delta * u) / d.delta)


@pytest.mark.parametrize("q", Q_VALUES)
@pytest.mark.parametrize("text", ["exp(-x)*sin(3*x)+1", "sqrt(x)*exp(x)", "x*ln(x)"])
def test_n_panels_counts_the_panels(text, q):
    from qcalc.qquad import dual_qint, dual_qint_from, primal_qint

    d = Deformation(q)
    f = funcexpr.compile(parse(text, d))
    primal_g = in_the_chart(f.eval, d)
    for a, b in ((0.0, 0.75), (0.75, 0.0), (0.5, 0.5)):
        u_a, u_b = ln_big_e(a, d), ln_big_e(b, d)
        assert primal_qint(f, a, b, d).n_panels == counted_reference(primal_g, u_a, u_b,
                                                                     CONFIGS[0])
        want = counted_reference(f.eval, a, b, CONFIGS[0])
        assert dual_qint(f, a, b, d).n_panels == want
        assert dual_qint_from(f, a, b, 0.25, d).n_panels == want


def test_n_panels_of_a_reflected_integral():
    from qcalc.qquad import IntegralFlag, SingularityMode, primal_qint

    d = Deformation(2.0)  # the pole is at 1
    f = funcexpr.compile(parse("sin(30*x)+1", d))
    config = QuadratureConfig(singularity_mode=SingularityMode.REFLECT)
    res = primal_qint(f, 0.5, 1.25, d, config)
    assert IntegralFlag.REFLECTION_APPLIED in res.flags
    # in the chart of 0.5's side, up to the u of 1.25 (that of its mirror 0.75)
    u_lo, u_hi = ln_big_e(0.5, d), ln_big_e(1.25, d)
    want = counted_reference(in_the_chart(f.eval, d), u_lo, u_hi, config)
    assert res.n_panels == want > 1
    assert primal_qint(f, 1.25, 0.5, d, config).n_panels == want


def test_n_panels_takes_no_part_in_equality_or_hashing():
    from qcalc.qquad import IntegralResult

    a, b = IntegralResult(1.0, 0.5, n_panels=3), IntegralResult(1.0, 0.5, n_panels=7)
    assert a == b and hash(a) == hash(b)
    assert IntegralResult(1.0, 0.5).n_panels == 0


# ---------------------------------------------------------------------------
# Runs that end on their first panel


def _kronrod_only_inf(x):
    """inf at the node x = 0.9957 of [0, 1] alone, which the Gauss rule skips:
    the first panel's value and estimate are both inf."""
    return math.inf if x > 0.995 else 1.0


@pytest.mark.parametrize("g", [
    lambda x: -0.0,  # the total of a -0.0 panel is +0.0
    lambda x: 2.5,
    lambda x: math.nan,
    lambda x: math.inf,
    lambda x: -math.inf,
    _kronrod_only_inf,  # an infinite estimate does not converge
])
@pytest.mark.parametrize("n", [1, 2, 2000])
def test_first_panel_runs_match_the_reference(g, n):
    got = same_outcome(g, 0.0, 1.0, QuadratureConfig(max_subdivisions=n))
    if g(0.5) == 0.0:
        assert got == (bits(0.0), bits(0.0), True)
    if g is _kronrod_only_inf:
        assert got[2] is False


def _same_result(res, value, err, flags, n_panels):
    assert (bits(res.value), bits(res.error_estimate)) == (bits(value), bits(err))
    assert (res.flags, res.n_panels) == (flags, n_panels)


@pytest.mark.parametrize("n", [1, 2000])
def test_one_panel_integrals_match_the_reference(n):
    from qcalc.qcore import q_log_exp_of
    from qcalc.qquad import borges_dual_qint, dual_qint, primal_qint

    d = Deformation(0.5)
    f = funcexpr.compile(parse("x^2*cos(x)-x", d))
    config = QuadratureConfig(max_subdivisions=n)
    a, b = -0.15, 0.75
    value, err, ok = reference_adaptive(in_the_chart(f.eval, d), ln_big_e(a, d), ln_big_e(b, d),
                                        config)
    assert ok and counted_reference(in_the_chart(f.eval, d), ln_big_e(a, d), ln_big_e(b, d),
                                    config) == 1
    _same_result(primal_qint(f, a, b, d, config), value, err, frozenset(), 1)
    _same_result(primal_qint(f, b, a, d, config), -value, err, frozenset(), 1)
    _same_result(primal_qint(f, a, a, d, config), 0.0, 0.0, frozenset(), 0)

    value, err, ok = reference_adaptive(f.eval, a, b, config)
    assert ok
    scale = math.exp(d.delta * value)
    _same_result(dual_qint(f, a, b, d, config), q_log_exp_of(value, d), err * scale,
                 frozenset(), 1)
    _same_result(dual_qint(f, b, a, d, config), q_log_exp_of(-value, d),
                 err * math.exp(-d.delta * value), frozenset(), 1)
    _same_result(dual_qint(f, b, b, d, config), 0.0, 0.0, frozenset(), 0)

    def borges(x):
        y = f.eval(x)
        return (1.0 + d.delta * y) * y

    value = reference_adaptive(borges, a, b, config)[0]
    assert bits(borges_dual_qint(f, a, b, d, config)) == bits(value)
    assert bits(borges_dual_qint(f, b, a, d, config)) == bits(-value)
    assert bits(borges_dual_qint(f, a, a, d, config)) == bits(0.0)


@pytest.mark.parametrize("n", [1, 2000])
def test_reflected_runs_match_the_reference(n):
    from qcalc.qquad import IntegralFlag, SingularityMode, primal_qint

    d = Deformation(2.0)  # the pole is at 1
    reflected = frozenset({IntegralFlag.SINGULARITY_CROSSED, IntegralFlag.REFLECTION_APPLIED})
    u_lo, u_hi = ln_big_e(0.5, d), ln_big_e(1.25, d)
    reflect = SingularityMode.REFLECT
    cases = [("x+1", QuadratureConfig(max_subdivisions=n, singularity_mode=reflect)),
             ("sin(30*x)+1", QuadratureConfig(1e-300, 1e-300, n, reflect))]
    for text, config in cases:
        f = funcexpr.compile(parse(text, d))
        g = in_the_chart(f.eval, d)
        value, err, ok = reference_adaptive(g, u_lo, u_hi, config)
        flags = reflected if ok else reflected | {IntegralFlag.TOLERANCE_NOT_MET}
        panels = counted_reference(g, u_lo, u_hi, config)
        assert panels == 1 if ok else panels == 2 * n + 1
        _same_result(primal_qint(f, 0.5, 1.25, d, config), value, err, flags, panels)
        _same_result(primal_qint(f, 1.25, 0.5, d, config), -value, err, flags, panels)


def test_a_one_panel_integral_makes_its_panel_once_and_calls_it_once():
    from qcalc.qquad import primal_qint

    d = Deformation(0.5)
    g = funcexpr.compile(parse("x^2*cos(x)-x", d)).eval
    nodes = []
    f = RealFunction(eval=lambda x: nodes.append(x) or g(x))  # no tree: g at each node
    for _ in range(3):
        assert primal_qint(f, -0.15, 0.75, d).n_panels == 1
    assert len(nodes) == 3 * 15
    assert len(f.stencils) == 1  # the panel, kept from the first call

"""Deformed integrals: quadrature plus independent cross-checks.

The primal integral is the ordinary integral of f(x(u)) du in the chart
u = ln_big_e(x) (its inverse is funcexpr's CHART_ABOVE or CHART_BELOW text,
on the lower bound's side of the pole); the dual integral applies ``ln_q . exp``
once to the ordinary integral of the integrand. Both ride on one engine that
tries three rules in turn on [a, b], each with the weight and chart fused in:

1. One 15-point Gauss-Kronrod panel. A run whose panel meets the tolerance
   ends there, with that panel's value and estimate; a warm one-panel
   integral costs little more than its panel.
2. A tanh-sinh step sum (Takahasi and Mori's double-exponential rule), with
   steps h = 1, 1/2, ..., 2^-6 over t <= 3.2, whose weights vanish doubly
   exponentially at both ends, so an endpoint singularity costs it a few
   levels. Its nodes are distances from the ends, so none cancels next to a
   singular end. Its estimate is the gap between the last two levels, plus
   a round-off floor 50 eps h hl sum|w f| and the truncated tail, hl |w f|
   of the outermost pair. It returns at the first level that meets the
   tolerance with a finite value and estimate.
3. Deterministic worst-interval-first adaptive refinement, from the first
   panel, when the step sum misses or one of its nodes raises one of
   EVAL_ERRORS. Its results, and the errors it raises, are those of a run
   without the step sum.

The engine's units of work are generated point loops: one Python frame
for the 15 Kronrod nodes of an interval (its text, with the rule, sums and
error estimate, is _panel_text's), and one per level of the step sum (the
text of _steps_text, which evaluates the weighted integrand over a list of
nodes). For a compiled expression each runs the tree's statements at each
node, so it grows with the tree as the tree's own function does;
funcexpr.point_loop compiles it once per tree shape, weight and chart (a
cold cost below 1 ms), and each RealFunction keeps the panel in f.stencils
by weight, chart and delta, and the step sum beside it, made only when a
first panel misses. Any other point function is called at each node by
the same texts. In the adaptive loop, the totals over the heap of panels
are math.fsum over the heap while it is short (below _SHORT_HEAP panels:
cheaper than keeping sums), then exact running sums, which keep a long run
linear in its subdivision count. Results equal those of the looped
reference panel and step sum and of summing the heap on every iteration,
bit for bit.

Cross-check paths that deliberately share no code with that engine:

* :func:`primal_qint_riemann` — a flat midpoint sum;
* :func:`partition_sum_oracle` — the closed geometric-series value of the
  step sum of the deformed exponential over a :class:`GeometricPartition`
  (the partition whose nodes are equally spaced in ``u = ln_big_e(x)``).

:func:`borges_dual_qint` computes the operationally tempting but wrong
value-side integral ``int (1 + delta*f) f dx``; it exists so its failure
to invert the dual derivative can be demonstrated, not for use.
"""

from __future__ import annotations

import heapq
import math
from enum import Enum
from operator import itemgetter, mul

from .errors import EVAL_ERRORS, DomainError, SingularityError
from .funcexpr import CHART_ABOVE, CHART_BELOW, RealFunction, chart_point, indented, point_loop
from .qcore import (
    QUAD_ABS_TOL,
    QUAD_REL_TOL,
    Deformation,
    Record,
    _is_integer,
    ln_big_e,
    q_add,
    q_exp,
    q_log_exp_of,
    q_times_n,
)

__all__ = [
    "SingularityMode",
    "QuadratureConfig",
    "IntegralFlag",
    "IntegralResult",
    "primal_qint",
    "primal_qint_riemann",
    "dual_qint",
    "dual_qint_from",
    "borges_dual_qint",
    "GeometricPartition",
    "partition_sum_oracle",
]


class SingularityMode(Enum):
    """What to do when a primal integration interval crosses the pole."""

    ERROR = "error"
    REFLECT = "reflect"


class IntegralFlag(Enum):
    SINGULARITY_CROSSED = "SingularityCrossed"
    REFLECTION_APPLIED = "ReflectionApplied"
    TOLERANCE_NOT_MET = "ToleranceNotMet"


def _check_steps(n) -> None:
    """Raise DomainError unless n, a number of steps, is an integer of at least 1."""
    if not _is_integer(n):
        raise DomainError(f"the number of steps must be an integer, got n = {n!r}")
    if n < 1:
        raise DomainError(f"need at least one step, got n = {n}")


class QuadratureConfig(Record):
    __slots__ = ("abs_tol", "rel_tol", "max_subdivisions", "singularity_mode")

    def __init__(
        self,
        abs_tol: float = QUAD_ABS_TOL,
        rel_tol: float = QUAD_REL_TOL,
        max_subdivisions: int = 2000,
        singularity_mode: SingularityMode = SingularityMode.ERROR,
    ) -> None:
        if abs_tol <= 0.0 or rel_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if not (math.isfinite(abs_tol) and math.isfinite(rel_tol)):
            raise ValueError(f"tolerances must be finite, got {abs_tol}, {rel_tol}")
        if not _is_integer(max_subdivisions):
            raise ValueError(f"max_subdivisions must be an integer, got {max_subdivisions!r}")
        if max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")
        object.__setattr__(self, "abs_tol", abs_tol)
        object.__setattr__(self, "rel_tol", rel_tol)
        object.__setattr__(self, "max_subdivisions", max_subdivisions)
        object.__setattr__(self, "singularity_mode", singularity_mode)


class IntegralResult(Record):
    """Value, a conservative error estimate, and what happened on the way.

    Unless TOLERANCE_NOT_MET is flagged, error_estimate is finite and at
    most max(abs_tol, rel_tol * |value|) of the config that produced it.
    n_panels counts the 15-point Kronrod panels computed, so it is 1 for a
    result of the tanh-sinh step sum; n_evals counts the integrand's
    evaluations over both rules, a node that raised included (0 when the
    bounds are equal). Neither takes part in equality or hashing.
    """

    __slots__ = ("value", "error_estimate", "flags", "n_panels", "n_evals")
    _compared = __slots__[:3]
    _defaults = {"flags": frozenset(), "n_panels": 0, "n_evals": 0}

    def __float__(self) -> float:
        return self.value


# The flag sets of a primal result; a dual one carries either of the first two
_NO_FLAGS = frozenset()
_NOT_MET = frozenset({IntegralFlag.TOLERANCE_NOT_MET})
_REFLECTED = frozenset({IntegralFlag.SINGULARITY_CROSSED, IntegralFlag.REFLECTION_APPLIED})


_INF, _isfinite = math.inf, math.isfinite


# ---------------------------------------------------------------------------
# The engine's first rule: one Gauss-Kronrod 7/15 panel

# Kronrod abscissae (positive half); every other one is a Gauss-7 node.
_XK = (
    0.99145537112081263921,
    0.94910791234275852453,
    0.86486442335976907279,
    0.74153118559939443986,
    0.58608723546769113029,
    0.40584515137739716691,
    0.20778495500789846760,
)
_WK = (
    0.02293532201052922496,
    0.06309209262997855329,
    0.10479001032225018384,
    0.14065325971552591875,
    0.16900472663926790283,
    0.19035057806478540991,
    0.20443294007529889241,
)
_WK_CENTER = 0.20948214108472782801
_WG = (
    0.12948496616886969327,
    0.27970539148927666790,
    0.38183005050511894495,
)
_WG_CENTER = 0.41795918367346938776
# The integrand weights, as templates over the point value {0}.
_WEIGHTS = {
    "none": "{0}",
    "borges": "(1.0 + delta * {0}) * {0}",  # borges_dual_qint's value-side integrand
}


# A panel, panel(a, b) -> (value, estimate), is one frame that loops over
# the rule's nodes on [a, b] (the centre, then c + hl*x_k and c - hl*x_k
# from the outermost node in; c and hl halve each bound first, so they stay
# finite), runs a tree's statements once per node at x = x_of(node) and
# applies the weight in the same statement, then forms both sums in the
# order of the looped rule. The estimate min(d, (200 d)^1.5) of the gap d
# between them is d from d = 1 on, where the power could overflow.

def _panel_text(lines: list[str], result: str, params: list[str], weight: str, x_of: str) -> str:
    n = len(_XK)
    nodes = ", ".join(["_c"] + [f"_c {s} _hl * {x!r}" for x in _XK for s in "+-"])
    names = ", ".join(["_fc"] + [f"_{s}{k}" for k in range(1, n + 1) for s in "yz"])
    sk = " + ".join([f"{_WK_CENTER!r} * _fc"] + [f"{w!r} * _p{k}" for k, w in enumerate(_WK, 1)])
    sg = " + ".join([f"{_WG_CENTER!r} * _fc"] + [f"{w!r} * _p{2 * k}" for k, w in enumerate(_WG, 1)])
    var, point = chart_point(x_of, lines, weight.format(result))
    head = ["flags = None", "_c = 0.5 * _a + 0.5 * _b", "_hl = 0.5 * _b - 0.5 * _a", "_f = []",
            f"for {var} in ({nodes}):"]
    tail = [f"{names} = _f", *(f"_p{k} = _y{k} + _z{k}" for k in range(1, n + 1)),
            f"_sk = {sk}", f"_sg = {sg}", "_value = _sk * _hl", "_d = abs(_value - _sg * _hl)",
            "return _value, _d if _d >= 1.0 else min(_d, (200.0 * _d) ** 1.5)"]
    body = "".join(indented(3, head) + indented(4, point) + indented(3, tail))
    return (f"def factory({', '.join(params)}):\n"
            f"    def panel_maker(delta):\n"
            f"        def panel(_a, _b):\n{body}        return panel\n"
            f"    return panel_maker\n")


def _kronrod(g, weight: str, delta: float, x_of: str = "{}"):
    """panel(a, b) -> (value, estimate) of g(x_of(u)) times the weight."""
    return point_loop(g, _panel_text, (_WEIGHTS[weight], x_of))(delta)


# ---------------------------------------------------------------------------
# The second rule, after a first panel that misses: a tanh-sinh step sum

# On [-1, 1] the node of t is y = tanh(pi/2 sinh t), of weight dy/dt =
# pi/2 cosh t sech^2(pi/2 sinh t). It lies e = 1 - |y| = 2/(exp(pi sinh |t|) + 1)
# from an end, where sech^2 = e (2 - e), so neither needs 1 - y. Level k has
# step h = 2^-k and adds the t = j h, j odd from level 1 on, up to _TS_T_MAX,
# on both sides; level 0 also has the centre, at e = 1 from a.
_TS_T_MAX = 3.2
_TS_LEVELS = 7  # h = 1 down to 2^-6
_EPS = 2.0**-52
_ts_table: dict[int, tuple] = {}


def _ts_level(k: int) -> tuple[float, tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
    """Level k, built on its first use: its step h, the distances e of its
    nodes from a and from b, t increasing, and their weights in that order.
    Each e and w is correctly rounded: it is computed in 34 decimal digits,
    where float arithmetic would be off by up to 8 ulps."""
    level = _ts_table.get(k)
    if level is None:
        from decimal import Decimal, localcontext

        h = 0.5**k
        es, ws = [], []
        with localcontext() as ctx:
            ctx.prec = 34
            pi = Decimal("3.141592653589793238462643383279502884")
            for j in range(1, int(_TS_T_MAX / h) + 1):
                if k == 0 or j % 2:
                    exp_t = Decimal(j * h).exp()
                    e = 2 / ((pi / 2 * (exp_t - 1 / exp_t)).exp() + 1)
                    es.append(float(e))
                    ws.append(float(pi / 4 * (exp_t + 1 / exp_t) * e * (2 - e)))
        centre = k == 0
        level = _ts_table.setdefault(k, (h, tuple([1.0] * centre + es), tuple(es),
                                         tuple([0.5 * math.pi] * centre + ws + ws)))
    return level


# steps(runs, values) appends to values the weighted integrand at the nodes
# u = s + o*e of each run (s, o, es), at x = x_of(u), in one frame that runs
# a tree's statements once per node; a run from b has o = -hl, and
# b + (-hl)*e is b - hl*e exactly.

def _steps_text(lines: list[str], result: str, params: list[str], weight: str, x_of: str) -> str:
    var, point = chart_point(x_of, lines, weight.format(result))
    head = ["flags = None", "_f = _values", "for _s, _o, _es in _runs:"]
    body = "".join(indented(3, head) + indented(4, ["for _e in _es:"])
                   + indented(5, [f"{var} = _s + _o * _e", *point]))
    return (f"def factory({', '.join(params)}):\n"
            f"    def steps_maker(delta):\n"
            f"        def steps(_runs, _values):\n{body}        return steps\n"
            f"    return steps_maker\n")


def _tanh_sinh(g, weight: str, delta: float, x_of: str = "{}"):
    """steps(runs, values) of g(x_of(u)) times the weight."""
    return point_loop(g, _steps_text, (_WEIGHTS[weight], x_of))(delta)


def _step_sum(steps, a: float, b: float, abs_tol: float, rel_tol: float):
    """The tanh-sinh step sum of steps' integrand on [a, b], a < b, as
    (value, estimate, evaluations) at the first level from 1 on that meets
    the tolerance with a finite value and estimate; (None, None, evaluations)
    when the last level misses, when a level's sums are not finite, and when
    a node raises one of EVAL_ERRORS (that node counted).

    A level's value is h hl times the math.fsum of w f over every node so
    far; its estimate is the gap to the level before, plus the tail the
    rule truncates, h hl |w f| of the outermost pair, plus the round-off
    floor 50 eps h hl sum|w f|, infinite where that sum overflows. The floor
    only adds, so it is summed only where the other two meet the tolerance.
    """
    hl = 0.5 * b - 0.5 * a
    terms = []
    previous = tail = 0.0
    n_evals, e_out = 0, 2.0
    for k in range(_TS_LEVELS):
        h, from_a, from_b, ws = _ts_level(k)
        values = []
        try:
            steps(((a, hl, from_a), (b, -hl, from_b)), values)
        except EVAL_ERRORS:
            return None, None, n_evals + len(values) + 1
        n_evals += len(values)
        new = list(map(mul, ws, values))
        terms += new
        if from_b[-1] < e_out:  # a new outermost pair: the last node from each end
            e_out, tail = from_b[-1], abs(new[len(from_a) - 1]) + abs(new[-1])
        try:
            total = math.fsum(terms)
        except (OverflowError, ValueError):  # a partial sum overflows; inf - inf
            break
        scale = h * hl
        value = scale * total
        if not abs(value) < _INF:  # a total that is not finite stays so
            break
        if k:
            err = abs(value - previous) + scale * tail
            if err <= abs_tol or err <= rel_tol * abs(value):
                try:
                    err += scale * (50.0 * _EPS * math.fsum(map(abs, terms)))
                except OverflowError:
                    err = _INF
                if err <= abs_tol or err <= rel_tol * abs(value):
                    return value, err, n_evals
        previous = value
    return None, None, n_evals


# ---------------------------------------------------------------------------
# The last rule: worst-first adaptive refinement from the first panel

# Past this, a partial sum of the heap's values or estimates, in the order
# math.fsum takes them, could overflow where the exact sum does not.
_EXACT_SUM_LIMIT = 2.0**1000
# Below this many panels in the heap, the totals are math.fsum over the heap:
# two passes in C cost less than the six running-sum updates of an iteration.
# From this size on, running sums (built from the heap once) keep the cost
# of an iteration independent of the heap's size.
_SHORT_HEAP = 48
_value_of, _error_of = itemgetter(4), itemgetter(5)


def _grow(partials: list[float], x: float) -> None:
    """Add x to the exact sum held as non-overlapping partials (Shewchuk's
    algorithm, as in math.fsum); the list is empty when the sum is zero."""
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x] if x else []


def _refine(panel, a: float, b: float, config: QuadratureConfig, value: float, err: float):
    """Worst-first adaptive refinement of [a, b] from its first panel's value
    and estimate, which missed the tolerance; deterministic for a given input.

    Returns the value, its estimate, whether the tolerance was met, and the
    number of panels computed, the first included. The totals are math.fsum
    over the heap while it is short. From _SHORT_HEAP panels on they are
    exact running sums (Shewchuk partials), whose math.fsum equals that over
    the heap; the heap is summed instead while a sum is exactly zero
    (math.fsum takes the sign of a zero from its summands), and for good once
    `bound`, the sum of |value| + estimate over every panel made, reaches
    _EXACT_SUM_LIMIT or is not finite. A non-finite estimate never meets the
    tolerance, and a run whose total turns NaN ends there.
    """
    abs_tol, rel_tol = config.abs_tol, config.rel_tol
    # (-err, insertion order, a, b, value, err)
    heap, bound = [(-err, 0, a, b, value, err)], abs(value) + err
    values = errors = None
    order = 1
    for _ in range(config.max_subdivisions):
        _, _, wa, wb, value, err = heapq.heappop(heap)
        running = values is not None
        if running and bound < _EXACT_SUM_LIMIT:
            _grow(values, -value)
            _grow(errors, -err)
        mid = 0.5 * wa + 0.5 * wb
        for lo, hi in ((wa, mid), (mid, wb)):
            v, e = panel(lo, hi)
            heapq.heappush(heap, (-e, order, lo, hi, v, e))
            order += 1
            bound += abs(v) + e
            if running and bound < _EXACT_SUM_LIMIT:
                _grow(values, v)
                _grow(errors, e)
        if not running and len(heap) >= _SHORT_HEAP and bound < _EXACT_SUM_LIMIT:
            values, errors = [], []
            for entry in heap:
                _grow(values, entry[4])
                _grow(errors, entry[5])
        total, total_err = _totals(heap, values, errors, bound)
        # total_err <= max(abs_tol, rel_tol * |total|) and finite, without max()'s call
        converged = total_err < _INF and (total_err <= abs_tol
                                          or total_err <= rel_tol * abs(total))
        # a NaN total stays NaN whatever is split, so it ends the run unconverged
        if converged or total != total:
            break
    return total, total_err, converged, order


def _totals(heap, values, errors, bound) -> tuple[float, float]:
    """math.fsum of the heap's values and of its error estimates. Values of
    opposite infinite sign total NaN, as a NaN value does."""
    exact = values is not None and bound < _EXACT_SUM_LIMIT
    try:
        total = math.fsum(values) if exact and values else math.fsum(map(_value_of, heap))
    except ValueError:  # -inf + inf
        total = math.nan
    total_err = math.fsum(errors) if exact and errors else math.fsum(map(_error_of, heap))
    return total, total_err


def _unbounded(a: float, b: float) -> DomainError:
    return DomainError(f"integration bounds must be finite, got [{a}, {b}]")


def _integrate(f: RealFunction, a: float, b: float, config: QuadratureConfig,
               weight: str = "none", delta: float = 0.0, x_of: str = "{}"
               ) -> tuple[float, float, bool, int, int]:
    """The engine on f(x_of(u)) times the weight from a to b: the value, its
    estimate, whether the tolerance was met, and the panels and integrand
    evaluations spent. A run whose first panel meets the tolerance, or whose
    first total is NaN, ends there; otherwise the step sum is tried, then
    _refine runs from that panel. Swapped bounds negate the value, a == b
    gives 0 from no panels, and a bound that is not finite raises
    DomainError. The panel is made once per (weight, x_of, delta) and kept in
    f.stencils, and the step sum under ("tanh-sinh", weight, x_of, delta),
    made when a first panel first misses."""
    if not (_isfinite(a) and _isfinite(b)):
        raise _unbounded(a, b)
    if a == b:
        return 0.0, 0.0, True, 0, 0
    lo, hi = (a, b) if a < b else (b, a)
    key = (weight, x_of, delta)
    panel = f.stencils.get(key)
    if panel is None:
        panel = f.stencils[key] = _kronrod(f.eval, weight, delta, x_of)
    value, err = panel(lo, hi)
    # math.fsum of the one-panel heap: a value of -0.0 totals +0.0
    total, n_panels, n_evals = value + 0.0, 1, 15
    abs_tol, rel_tol = config.abs_tol, config.rel_tol
    # err <= max(abs_tol, rel_tol * |total|) and finite, without max()'s call
    converged = err < _INF and (err <= abs_tol or err <= rel_tol * abs(total))
    if not converged and total == total:
        steps_key = ("tanh-sinh", *key)
        steps = f.stencils.get(steps_key)
        if steps is None:
            steps = f.stencils[steps_key] = _tanh_sinh(f.eval, weight, delta, x_of)
        sum_value, sum_err, n_sum = _step_sum(steps, lo, hi, abs_tol, rel_tol)
        n_evals += n_sum
        if sum_value is not None:
            total, err, converged = sum_value, sum_err, True
        else:
            total, err, converged, n_panels = _refine(panel, lo, hi, config, value, err)
            n_evals += 15 * (n_panels - 1)
    return (total if a < b else -total), err, converged, n_panels, n_evals


# ---------------------------------------------------------------------------
# Primal integral

def primal_qint(
    f: RealFunction,
    x_lo: float,
    x_hi: float,
    d: Deformation,
    config: QuadratureConfig = QuadratureConfig(),
) -> IntegralResult:
    """Integral of f against the measure dx / (1 + delta*x).

    Inverts the primal derivative on its support by integrating f(x(u)) du in
    u = ln_big_e(x), on the lower bound's side of the pole. Swapped bounds
    negate the value exactly. If the pole lies strictly inside the interval,
    config.singularity_mode decides: ERROR raises SingularityError; REFLECT
    keeps that side's chart, so it integrates up to x_hi's mirror image
    -2/delta - x_hi (of equal u), and flags it. A pole on a bound raises.
    """
    if d.classical:
        value, err, converged, n_panels, n_evals = _integrate(f, x_lo, x_hi, config)
        return IntegralResult(value, err, _NO_FLAGS if converged else _NOT_MET, n_panels, n_evals)
    delta, pole = d.delta, d.pole
    s_lo, s_hi = 1.0 + delta * x_lo, 1.0 + delta * x_hi  # the brackets
    if s_lo == 0.0 or s_hi == 0.0:
        raise SingularityError(f"integration bound sits on the pole at {pole}")
    flags = _NO_FLAGS
    lo, hi = (x_hi, x_lo) if x_hi < x_lo else (x_lo, x_hi)
    if lo < pole < hi:
        if config.singularity_mode is SingularityMode.ERROR:
            raise SingularityError(f"interval [{lo}, {hi}] crosses the pole at {pole}")
        flags = _REFLECTED
    if not (_isfinite(s_lo) and _isfinite(s_hi)):
        if not (_isfinite(x_lo) and _isfinite(x_hi)):
            raise _unbounded(x_lo, x_hi)
        raise OverflowError(f"1 + delta*x at a bound of [{x_lo}, {x_hi}] is not finite")
    # x(u) on the lower bound's side of the pole
    x_of = CHART_ABOVE if (s_lo if x_lo < x_hi else s_hi) > 0.0 else CHART_BELOW
    value, err, converged, n_panels, n_evals = _integrate(
        f, ln_big_e(x_lo, d), ln_big_e(x_hi, d), config, "none", delta, x_of)
    return IntegralResult(value, err, flags if converged else flags | _NOT_MET, n_panels, n_evals)


def primal_qint_riemann(
    f: RealFunction, x_lo: float, x_hi: float, n: int, d: Deformation
) -> float:
    """Flat n-step midpoint sum for the primal integral. Cross-check only.

    Shares no code with the adaptive engine; O(h^2), so large n is the
    point. No pole handling: the caller keeps the pole outside.
    """
    _check_steps(n)
    h = (x_hi - x_lo) / n
    midpoints = (x_lo + (i + 0.5) * h for i in range(n))
    if d.classical:
        return h * math.fsum(f(x) for x in midpoints)
    return h * math.fsum(f(x) / d.bracket(x) for x in midpoints)


# ---------------------------------------------------------------------------
# Geometric partition of the primal axis

def _bracket_ratio(x_lo: float, x_hi: float, n: int, d: Deformation) -> float:
    """z = (1 + delta*x_hi)/(1 + delta*x_lo) of a geometric partition,
    after checking that one can be laid over [x_lo, x_hi] in n steps."""
    if d.classical:
        raise DomainError("geometric partition needs q != 1")
    _check_steps(n)
    if not x_lo < x_hi:
        raise DomainError("need x_lo < x_hi")
    s_lo, s_hi = d.bracket(x_lo), d.bracket(x_hi)
    if s_lo <= 0.0 or s_hi <= 0.0:
        raise DomainError("both bounds must lie on the support (bracket > 0)")
    return s_hi / s_lo


class GeometricPartition(Record):
    """n+1 nodes from x_lo to x_hi, equally spaced in u = ln_big_e(x).

    Node i is x_lo (+)_q (i (.)_q t) with common deformed step
    t = (z^(1/n) - 1)/delta, z = (1 + delta*x_hi)/(1 + delta*x_lo); the
    brackets 1 + delta*x form a geometric progression along the nodes.
    Requires a non-classical deformation and both bounds on the support.
    """

    __slots__ = ("x_lo", "x_hi", "n", "deformation", "z", "t", "nodes")
    _args = __slots__[:4]

    def __init__(self, x_lo: float, x_hi: float, n: int, deformation: Deformation) -> None:
        d = deformation
        z = _bracket_ratio(x_lo, x_hi, n, d)
        t = q_log_exp_of(math.log(z) / (n * d.delta), d)  # x of the chart step
        nodes = [x_lo]
        for i in range(1, n):
            nodes.append(q_add(x_lo, q_times_n(i, t, d), d))
        nodes.append(x_hi)
        object.__setattr__(self, "x_lo", x_lo)
        object.__setattr__(self, "x_hi", x_hi)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "deformation", deformation)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "nodes", tuple(nodes))


def partition_sum_oracle(
    x_lo: float, x_hi: float, n: int, d: Deformation
) -> float:
    """Step sum of the deformed exponential over the geometric partition.

    Each cell contributes e_q(node_i) * (u_i - u_(i-1)); the brackets are
    geometric, so the whole sum collapses to a closed geometric series —
    no quadrature code involved. Decreases monotonically to
    e_q(x_hi) - e_q(x_lo) at rate O(1/n).
    """
    z, delta = _bracket_ratio(x_lo, x_hi, n, d), d.delta
    du = math.log(z) / (n * delta)
    e_lo = q_exp(x_lo, d).value
    r = z ** (1.0 / (n * delta))  # bracket ratio per cell, in value space
    if r == 1.0:
        return e_lo * du * n
    # sum_{i=1..n} e_lo * r^i * du
    return e_lo * du * r * (r**n - 1.0) / (r - 1.0)


# ---------------------------------------------------------------------------
# Dual integral

def dual_qint(
    f: RealFunction,
    x_lo: float,
    x_hi: float,
    d: Deformation,
    config: QuadratureConfig = QuadratureConfig(),
) -> IntegralResult:
    """ln_q(exp(integral of f)): the inverse of the dual derivative.

    The deformation acts once, on the whole ordinary integral — never
    inside the quadrature. The error estimate is transported through the
    outer map by its derivative, e^(delta * A).
    """
    a_val, a_err, converged, n_panels, n_evals = _integrate(f, x_lo, x_hi, config)
    value = q_log_exp_of(a_val, d)
    try:
        scale = math.exp(d.delta * a_val)
    except OverflowError:
        scale = math.inf
    return IntegralResult(value, a_err * scale, _NO_FLAGS if converged else _NOT_MET, n_panels,
                          n_evals)


def dual_qint_from(
    f: RealFunction,
    x_lo: float,
    x_hi: float,
    start: float,
    d: Deformation,
    config: QuadratureConfig = QuadratureConfig(),
) -> IntegralResult:
    """Dual integral shifted to start at the value ``start`` at x_lo.

    Deformed-adds the start value, so integrating a dual derivative
    reconstructs the original function rather than its (+)_q-class.
    """
    inner = dual_qint(f, x_lo, x_hi, d, config)
    value = q_add(inner.value, start, d)
    return IntegralResult(value, inner.error_estimate * abs(d.bracket(start)), inner.flags,
                          inner.n_panels, inner.n_evals)


def borges_dual_qint(
    f: RealFunction,
    x_lo: float,
    x_hi: float,
    d: Deformation,
    config: QuadratureConfig = QuadratureConfig(),
) -> float:
    """The flawed value-side integral: int (1 + delta*f(x)) f(x) dx.

    Pushing the deformation into the integrand looks like the natural
    inverse of the dual derivative but is not one: already for f = 1/x it
    produces ln x - delta/x + c. Kept as the negative control.
    """
    return _integrate(f, x_lo, x_hi, config, "borges", d.delta)[0]

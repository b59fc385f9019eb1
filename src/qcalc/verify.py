"""Self-check battery: every documented invariant measured as a residual.

``run_battery`` runs each library invariant numerically over a set of
deformation values and returns one :class:`PropertyResult` per property
carrying the worst observed residual, where it occurred, and the tolerance
it must meet.  A property whose preconditions rule out every swept
deformation (for example the reflection symmetry at q = 1) reports residual
0.0 with detail ``"not exercised"`` rather than failing vacuously.

The battery is deterministic: all sampling uses fixed seeds, reseeded at
each q, so repeated runs produce identical results bit for bit.

Each property checks one deformation and yields ``(residual, x)`` per
point, with x None where the check has no abscissa; the driver runs it at
the deformations its row names and keeps the worst point.  One that raises
becomes a failing row.  ``fault_sign`` tests the harness itself
(``--inject-fault``, ``perfbench/selftest.py``): the driver hands it to the
identity table alone, where -1.0 flips one operand's sign and must fail
that property, and only that one, far outside tolerance.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Iterator, Sequence

from . import funcexpr
from .errors import DomainError, ParseError, PoleError
from .funcexpr import RealFunction, builtin, parse, to_text
from .qcore import (
    Deformation,
    EvalFlag,
    ExtendedValue,
    Record,
    big_e,
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
from .qdiff import (
    dual_qderiv_closed,
    dual_qderiv_numeric,
    primal_qderiv_closed,
    primal_qderiv_numeric,
)
from .qgeom import (
    DualQLine,
    PrimalQLine,
    dual_qline_eval,
    dual_qline_through,
    dual_qtangent,
    dual_secant_slope,
    integral_ratio,
    primal_qline_eval,
    primal_qline_through,
    primal_qtangent,
    primal_secant_slope,
    slope_duality,
)
from .qquad import (
    QuadratureConfig,
    borges_dual_qint,
    dual_qint,
    partition_sum_oracle,
    primal_qint,
    primal_qint_riemann,
)

__all__ = ["DEFAULT_Q_SWEEP", "PropertyResult", "run_battery"]

DEFAULT_Q_SWEEP: tuple[float, ...] = (-1.0, 0.0, 0.5, 0.9, 1.0, 1.1, 2.0)

# Dual integrals amplify the inner quadrature error by exp(delta * A); the
# battery checks them at 1e-10, so the inner pass runs tighter than default.
_TIGHT = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-12)

_Points = Iterator[tuple[float, float | None]]


class PropertyResult(Record):
    """Outcome of one invariant check: worst residual vs. its tolerance."""

    __slots__ = ("name", "max_residual", "tolerance", "passed", "detail")
    _defaults = {"detail": ""}


def _rel(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


_SKIP_FLAGS = frozenset({EvalFlag.CUTOFF_APPLIED, EvalFlag.POLE_REACHED})


def _bad(ev: ExtendedValue) -> bool:
    """True when a value left the identities' domain (Q1_BRANCH is benign)."""
    return bool(ev.flags & _SKIP_FLAGS)


def _grid(lo: float, hi: float, n: int) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _support_points(
    d: Deformation, n: int, margin: float = 0.05, lo_cap: float = -2.0,
    hi_cap: float = 2.5,
) -> list[float]:
    """n points with bracket(x) >= margin, inside [lo_cap, hi_cap]."""
    lo, hi = lo_cap, hi_cap
    if not d.classical:
        edge = (margin - 1.0) / d.delta
        if d.delta > 0.0:
            lo = max(lo, edge)
        else:
            hi = min(hi, edge)
    return _grid(lo, hi, n)


# ---------------------------------------------------------------------------
# qcore properties
# ---------------------------------------------------------------------------


def _prop_roundtrip_log_exp(d):
    for x in _grid(0.1, 10.0, 30):
        back = q_exp(q_log(x, d), d)
        if not _bad(back):
            yield _rel(back.value, x), x
    for u in _support_points(d, 30, margin=0.05, lo_cap=-1.5, hi_cap=1.5):
        e = q_exp(u, d)
        if not _bad(e) and e.value > 0.0:
            yield _rel(q_log(e.value, d), u), u


def _prop_identity_table(d, fault_sign):
    rng = random.Random(1021)
    pos = [(rng.uniform(0.05, 4.0), rng.uniform(0.05, 4.0)) for _ in range(60)]
    arg = [(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in range(60)]
    for x, y in pos:
        # fault_sign=-1 corrupts this identity's right-hand side and
        # must be caught: the harness self-test depends on it.
        lhs = q_log(x * y, d)
        rhs = q_add(q_log(x, d), fault_sign * q_log(y, d), d)
        yield _rel(lhs, rhs), x

        prod = q_mul(x, y, d)
        if not _bad(prod):
            yield _rel(q_log(prod.value, d), q_log(x, d) + q_log(y, d)), x
        lhs = q_log(x / y, d)
        rhs = q_sub(q_log(x, d), q_log(y, d), d)
        yield _rel(lhs, rhs), x
        quot = q_div(x, y, d)
        if not _bad(quot):
            yield _rel(q_log(quot.value, d), q_log(x, d) - q_log(y, d)), x
    for x, y in arg:
        ex, ey = q_exp(x, d), q_exp(y, d)
        if _bad(ex) or _bad(ey):
            continue
        esum = q_exp(q_add(x, y, d), d)
        if not _bad(esum):
            yield _rel(ex.value * ey.value, esum.value), x
        prod = q_mul(ex.value, ey.value, d)
        target = q_exp(x + y, d)
        if not _bad(prod) and not _bad(target):
            yield _rel(prod.value, target.value), x
        if d.bracket(y) != 0.0:
            target = q_exp(q_sub(x, y, d), d)
            if not _bad(target):
                yield _rel(ex.value / ey.value, target.value), x
        quot = q_div(ex.value, ey.value, d)
        target = q_exp(x - y, d)
        if not _bad(quot) and not _bad(target):
            yield _rel(quot.value, target.value), x


def _prop_fold_equivalence(d):
    rng = random.Random(733)
    for x in [rng.uniform(0.3, 2.0) for _ in range(8)]:
        acc_mul = x
        acc_add = x
        for n in range(2, 17):
            step = q_mul(acc_mul, x, d)
            if _bad(step):
                break
            acc_mul = step.value
            folded = q_power_n(x, n, d)
            if not _bad(folded):
                yield _rel(folded.value, acc_mul), x
            acc_add = q_add(acc_add, x, d)
            yield _rel(q_times_n(n, x, d), acc_add), x


def _prop_add_sub_inverse(d):
    rng = random.Random(907)
    for x, y in [(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for _ in range(60)]:
        if abs(d.bracket(y)) >= 1e-3:
            yield _rel(q_sub(q_add(x, y, d), y, d), x), x


def _prop_reflection_symmetry(d):
    if d.classical:
        return
    rng = random.Random(211)
    mirror = -2.0 / d.delta
    for _ in range(60):
        x = rng.uniform(-3.0, 3.0)
        if abs(d.bracket(x)) < 1e-6:
            continue
        lhs = big_e(x, d)
        rhs = big_e(mirror - x, d)
        yield abs(lhs - rhs) / max(1e-300, abs(lhs)), x


def _prop_classical_continuity(d):
    exp_fn = RealFunction(math.exp, derivative=math.exp)
    log_fn = RealFunction(
        math.log, derivative=lambda x: 1.0 / x, domain=lambda x: x > 0.0
    )
    for x in _grid(0.1, 10.0, 12):
        yield _rel(q_log(x, d), math.log(x)), x
    for x in _grid(-10.0, 2.0, 12):
        yield _rel(q_exp(x, d).value, math.exp(x)), x
    for x in _grid(-8.0, 8.0, 9):
        for y in (-3.0, 0.7, 5.0):
            yield _rel(q_add(x, y, d), x + y), x
            yield _rel(q_sub(x, y, d), x - y), x
    for x in _grid(0.2, 8.0, 9):
        for y in (0.4, 1.0, 6.0):
            yield _rel(q_mul(x, y, d).value, x * y), x
            yield _rel(q_div(x, y, d).value, x / y), x
    for x in (0.3, 1.7):
        yield _rel(primal_qderiv_numeric(exp_fn, x, d), math.exp(x)), x
        yield _rel(dual_qderiv_numeric(log_fn, x + 1.0, d), 1.0 / (x + 1.0)), x + 1.0
    yield _rel(primal_qint(exp_fn, 0.0, 1.0, d).value, math.e - 1.0), 1.0
    recip = builtin("recip", d)
    yield _rel(dual_qint(recip, 1.0, 2.0, d).value, math.log(2.0)), 2.0


# ---------------------------------------------------------------------------
# funcexpr properties
# ---------------------------------------------------------------------------

_EXPR_ATOMS = ("x", "x", "2", "0.5", "3.25", "1e-2")
_EXPR_CALLS = ("sin", "cos", "exp", "sqrt", "abs", "qexp", "qlog", "ln")


def _gen_expr(rng: random.Random, depth: int) -> str:
    if depth <= 0 or rng.random() < 0.25:
        return rng.choice(_EXPR_ATOMS)
    kind = rng.randrange(4)
    if kind == 0:
        op = rng.choice(("+", "-", "*", "/"))
        return f"{_gen_expr(rng, depth - 1)}{op}{_gen_expr(rng, depth - 1)}"
    if kind == 1:
        inner = _gen_expr(rng, depth - 1)
        # the grammar takes at most one leading '-' per factor
        return f"-({inner})" if inner.startswith("-") else f"-{inner}"
    if kind == 2:
        return f"{rng.choice(_EXPR_CALLS)}({_gen_expr(rng, depth - 1)})"
    return f"({_gen_expr(rng, depth - 1)})^{rng.choice(('2', '3', '0.5'))}"


def _prop_print_parse_roundtrip(d):
    rng = random.Random(5417)
    for _ in range(120):
        tree = parse(_gen_expr(rng, 4), d)
        yield float(parse(to_text(tree), d) != tree), None


_SMOOTH_POOL = (
    "x^2+3*x-1",
    "sin(x)*cos(x)",
    "exp(x/2)",
    "1/(x+2)",
    "sqrt(x+1.5)",
    "qexp(x/3)",
    "qlog(x+2)",
    "x*qexp(x/4)+0.5",
    "sin(x)^2",
    "(x+1)^3",
)


def _prop_derivative_vs_difference(d):
    for text in _SMOOTH_POOL:
        fn = funcexpr.compile(parse(text, d))
        for x in _grid(-0.45, 0.45, 5):
            if not fn.defined(x):
                continue
            h = 1e-5 * max(1.0, abs(x))
            if not (fn.defined(x - h) and fn.defined(x + h)):
                continue
            central = (fn(x + h) - fn(x - h)) / (2.0 * h)
            yield _rel(fn.derivative(x), central), x


def _prop_error_byte_offset(d):
    rng = random.Random(6091)
    for _ in range(60):
        text = _gen_expr(rng, 3)
        pos = rng.randrange(len(text) + 1)
        broken = text[:pos] + "'" + text[pos:]
        byte_pos = len(broken[:pos].encode("utf-8"))
        try:
            parse(broken, d)
        except ParseError as exc:
            yield float(exc.offset > byte_pos), None
        else:
            yield 1.0, None


# ---------------------------------------------------------------------------
# qdiff properties
# ---------------------------------------------------------------------------


def _prop_primal_eigenfunction(d):
    f = builtin("qexp", d)
    for x in _support_points(d, 25, margin=0.05):
        value = q_exp(x, d)
        if not _bad(value):
            yield abs(primal_qderiv_numeric(f, x, d) - value.value), x


def _prop_dual_log_reciprocal(d):
    f = builtin("qlog", d)
    for x in _grid(0.1, 10.0, 15):
        yield abs(dual_qderiv_numeric(f, x, d) - 1.0 / x), x


def _prop_closed_vs_numeric(d):
    primal_set = [
        funcexpr.compile(parse("x^2", d)),
        funcexpr.compile(parse("sin(x)", d)),
        builtin("qexp", d),
    ]
    for f in primal_set:
        for x in _support_points(d, 10, margin=0.1):
            if f.defined(x):
                closed = primal_qderiv_closed(f, x, d)
                yield _rel(primal_qderiv_numeric(f, x, d), closed), x
    cubic = funcexpr.compile(parse("x^3+1", d))
    for fn in (builtin("qlog", d), builtin("identity", d), cubic):
        for x in _grid(0.15, 2.0, 10) + _grid(-1.0, -0.1, 6):
            if not fn.defined(x) or d.bracket(fn(x)) <= 0.05:
                continue
            try:
                closed = dual_qderiv_closed(fn, x, d)
                numeric = dual_qderiv_numeric(fn, x, d)
            except (DomainError, PoleError):
                continue
            yield _rel(numeric, closed), x


def _prop_translation_kernels(d):
    base = funcexpr.compile(parse("sin(x)+2", d))
    qe = builtin("qexp", d)
    for c in (-0.5, 1.0, 2.0):
        shifted = RealFunction(lambda x, c=c: base(x) + c)
        for x in (-0.3, 0.2, 0.6):
            if d.bracket(x) > 0.05:
                yield abs(
                    primal_qderiv_numeric(shifted, x, d)
                    - primal_qderiv_numeric(base, x, d)
                ), x
        if d.bracket(c) <= 0.05:
            continue
        qshift = RealFunction(lambda x, c=c: q_add(qe(x), c, d))
        for x in (-0.3, 0.1, 0.4):
            if not qe.defined(x) or d.bracket(qe(x)) <= 0.05:
                continue
            if d.bracket(q_add(qe(x), c, d)) <= 0.05:
                continue
            yield abs(
                dual_qderiv_numeric(qshift, x, d) - dual_qderiv_numeric(qe, x, d)
            ), x


# ---------------------------------------------------------------------------
# qquad properties
# ---------------------------------------------------------------------------


def _upper_bound(d: Deformation) -> float:
    """Integration endpoint inside the support: 1, or 0.5 when q > 1 pulls
    the boundary at 1/|delta| too close."""
    if not d.classical and d.delta < 0.0 and -1.0 / d.delta <= 1.25:
        return 0.5
    return 1.0


def _prop_primal_closed_form(d):
    hi = _upper_bound(d)
    value = primal_qint(builtin("qexp", d), 0.0, hi, d).value
    yield abs(value - (q_exp(hi, d).value - 1.0)), hi


def _partition_errors(d: Deformation) -> list[tuple[int, float]]:
    hi = _upper_bound(d)
    exact = q_exp(hi, d).value - 1.0
    return [
        (n, abs(partition_sum_oracle(0.0, hi, n, d) - exact))
        for n in [2**k for k in range(3, 13)]
    ]


def _log2_slope(points: list[tuple[int, float]]) -> float:
    xs = [math.log2(n) for n, _ in points]
    ys = [math.log2(e) for _, e in points]
    n = len(xs)
    mx = math.fsum(xs) / n  # fsum: correctly rounded, so alike on every Python
    my = math.fsum(ys) / n
    return math.fsum((a - mx) * (b - my) for a, b in zip(xs, ys)) / math.fsum(
        (a - mx) ** 2 for a in xs
    )


def _prop_partition_slope(d):
    if d.classical:
        return
    errs = _partition_errors(d)
    if any(e == 0.0 for _, e in errs):
        return
    residual = abs(_log2_slope(errs) + 1.0)
    if any(b >= a for (_, a), (_, b) in zip(errs, errs[1:])):
        residual = max(residual, 1.0)
    yield residual, None


def _prop_partition_final_error(d):
    if not d.classical:
        yield _partition_errors(d)[-1][1], None


def _prop_riemann_agreement(d):
    hi = _upper_bound(d)
    for f in (builtin("qexp", d), funcexpr.compile(parse("1/(x+2)", d))):
        adaptive = primal_qint(f, 0.0, hi, d).value
        fixed = primal_qint_riemann(f, 0.0, hi, 20_000, d)
        yield abs(adaptive - fixed), hi


def _prop_dual_recovers_log(d):
    recip = builtin("recip", d)
    for x in (2.0, 4.0, 10.0):
        yield abs(dual_qint(recip, 1.0, x, d, _TIGHT).value - q_log(x, d)), x


def _prop_dual_additivity(d):
    rng = random.Random(3511)
    recip = builtin("recip", d)
    for _ in range(8):
        a = rng.uniform(0.5, 1.5)
        c = rng.uniform(a + 0.1, 2.5)
        b = rng.uniform(c + 0.1, 3.5)
        whole = dual_qint(recip, a, b, d, _TIGHT).value
        left = dual_qint(recip, a, c, d, _TIGHT).value
        right = dual_qint(recip, c, b, d, _TIGHT).value
        yield abs(q_add(left, right, d) - whole), c


def _prop_ftc_primal(d):
    f = builtin("qexp", d)
    big = RealFunction(
        lambda x: primal_qint(f, 0.0, x, d).value,
        domain=lambda x: d.bracket(x) > 0.0,
    )
    for x in _grid(0.1, _upper_bound(d), 4):
        target = q_exp(x, d)
        if not _bad(target):
            yield abs(primal_qderiv_numeric(big, x, d) - target.value), x


def _prop_ftc_dual(d):
    recip = builtin("recip", d)
    big = RealFunction(
        lambda x: dual_qint(recip, 1.0, x, d, _TIGHT).value,
        domain=lambda x: x > 0.0,
    )
    for x in _grid(1.2, 3.0, 4):
        yield abs(dual_qderiv_numeric(big, x, d) - 1.0 / x), x


def _prop_dual_definite_form(d):
    F = builtin("qlog", d)
    g = RealFunction(
        lambda x: dual_qderiv_closed(F, x, d),
        domain=lambda x: x > 0.0 and d.bracket(F(x)) > 0.0,
    )
    for x in (1.5, 2.0, 3.0):
        value = dual_qint(g, 1.0, x, d, _TIGHT).value
        yield abs(value - q_sub(q_log(x, d), q_log(1.0, d), d)), x


def _prop_flawed_dual_value(d):
    if abs(d.q - 0.5) < 1e-12:
        value = borges_dual_qint(builtin("recip", d), 1.0, 2.0, d)
        yield abs(value - (math.log(2.0) + 0.25)), None


def _prop_flawed_dual_gap(d):
    if abs(d.q - 0.5) < 1e-12:
        recip = builtin("recip", d)
        gap = abs(
            borges_dual_qint(recip, 1.0, 2.0, d) - dual_qint(recip, 1.0, 2.0, d).value
        )
        yield max(0.0, 0.1 - gap), None


# ---------------------------------------------------------------------------
# qgeom properties
# ---------------------------------------------------------------------------


def _line_fn(line: PrimalQLine) -> RealFunction:
    return RealFunction(
        lambda x: primal_qline_eval(line, x),
        domain=lambda x: line.q.classical or line.q.bracket(x) != 0.0,
    )


def _prop_constant_slope(d):
    rng = random.Random(8117)
    pts = _support_points(d, 9, margin=0.1)
    for _ in range(10):
        k = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 3.0)
        line = PrimalQLine(d, k, rng.uniform(-2.0, 2.0))
        xi, xj = rng.sample(pts, 2)
        yield _rel(primal_secant_slope(_line_fn(line), xi, xj, d), k), xi

        dline = DualQLine(d, k, rng.uniform(-0.4, 0.4))
        xs = [x for x in pts if d.bracket(dual_qline_eval(dline, x)) > 0.05]
        if len(xs) < 2:
            continue
        dfn = RealFunction(lambda x, L=dline: dual_qline_eval(L, x))
        xi, xj = rng.sample(xs, 2)
        yield _rel(dual_secant_slope(dfn, xi, xj, d), k), xi


def _order_shortfall(secant, k_tan, x0):
    """How far the secants through x0 converge below order 0.9 as the step
    shrinks; no point when fewer than three steps leave an error."""
    errs = [(h, abs(secant(h) - k_tan)) for h in (10.0**-k for k in range(1, 7))]
    errs = [(h, e) for h, e in errs if e > 0.0]
    if len(errs) >= 3:
        order = _log2_slope([(int(1 / h), e) for h, e in errs])
        yield max(0.0, 0.9 - (-order)), x0


def _prop_secant_tangent_order(d):
    f = builtin("qexp", d)
    x0 = 0.2 if d.classical or d.delta > -1.5 else 0.1
    k_tan = primal_qtangent(f, x0, d).k_q
    yield from _order_shortfall(
        lambda h: primal_secant_slope(f, x0, x0 + h, d), k_tan, x0
    )
    g = builtin("qlog", d)
    k_tan = dual_qtangent(g, 2.0, d).k_sup_q
    yield from _order_shortfall(
        lambda h: dual_secant_slope(g, 2.0, 2.0 + h, d), k_tan, 2.0
    )


def _prop_same_curve_identity(d):
    f = builtin("qexp", d)
    pts = _support_points(d, 7, margin=0.2, lo_cap=-0.8, hi_cap=0.9)
    xi, xj = pts[1], pts[-2]
    yi, yj = f(xi), f(xj)
    if yi <= 0.0 or yj <= 0.0:
        return
    pline = primal_qline_through(f, xi, xj, d)
    dline = dual_qline_through(builtin("qlog", d), yi, yj, d)
    yield _rel(pline.k_q * dline.k_sup_q, 1.0), None
    for y in _grid(min(yi, yj), max(yi, yj), 10):
        x_primal = q_log_exp_of((y - pline.c) / pline.k_q, d)
        yield abs(x_primal - dual_qline_eval(dline, y)), y


def _prop_slope_duality(d):
    f = builtin("qexp", d)
    finv = builtin("qlog", d)
    for x0 in _support_points(d, 20, margin=0.1, lo_cap=-0.5, hi_cap=0.9):
        value = q_exp(x0, d)
        if _bad(value) or value.value <= 0.0:
            continue
        k_primal, k_dual = slope_duality(f, finv, x0, d)
        yield abs(k_primal * k_dual - 1.0), x0


def _prop_translation_family(d):
    l1 = DualQLine(d, 0.8, 0.3)
    l2 = DualQLine(d, 0.8, -0.2)
    base = None
    for x in _support_points(d, 20, margin=0.1):
        v1 = dual_qline_eval(l1, x)
        v2 = dual_qline_eval(l2, x)
        if abs(d.bracket(v2)) < 0.05:
            continue
        const = q_sub(v1, v2, d)
        if base is None:
            base = const
        else:
            yield abs(const - base), x


def _prop_integral_ratio(d):
    hi = _upper_bound(d)
    y0, y1 = 1.0, q_exp(hi, d).value
    ratio = integral_ratio(builtin("qexp", d), builtin("recip", d), 0.0, hi, y0, y1, d)
    yield _rel(ratio, (y1 - y0) / q_sub(hi, 0.0, d)), hi


# ---------------------------------------------------------------------------
# CLI formatting property
# ---------------------------------------------------------------------------


def _prop_format_roundtrip(d):
    from .cli import format_float  # deferred: cli imports this module

    samples = [
        0.0, -0.0, 1.0, -1.0, math.pi, 2.25, 1.0 / 3.0, -1e-17,
        5e-324, 1e-308, 1.7976931348623157e308, 123456.7890123,
    ]
    for v in samples:
        back = float(format_float(v))
        yield float(back != v or math.copysign(1.0, back) != math.copysign(1.0, v)), None
    for v, text in ((math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")):
        yield float(format_float(v) != text), None


# ---------------------------------------------------------------------------
# Battery driver
# ---------------------------------------------------------------------------


def _sweep(ds: list[Deformation]) -> list[Deformation]:
    return ds


def _first_q(ds: list[Deformation]) -> list[Deformation]:
    """Checks that do not depend on q run once, at the sweep's first value."""
    return ds[:1]


def _near_one(ds: list[Deformation]) -> list[Deformation]:
    """q = 1 -+ 1e-6, whatever the sweep: the classical limit."""
    return [Deformation(1.0 - 1e-6), Deformation(1.0 + 1e-6)]


_At = Callable[[list[Deformation]], list[Deformation]]

_BATTERY: tuple[tuple[str, float, _At, Callable[..., _Points]], ...] = (
    ("roundtrip/log-exp", 1e-12, _sweep, _prop_roundtrip_log_exp),
    ("algebra/identity-table", 1e-10, _sweep, _prop_identity_table),
    ("algebra/fold-equivalence", 1e-12, _sweep, _prop_fold_equivalence),
    ("algebra/add-sub-inverse", 1e-12, _sweep, _prop_add_sub_inverse),
    ("reflection/big-e-symmetry", 1e-12, _sweep, _prop_reflection_symmetry),
    ("classical-continuity", 1e-4, _near_one, _prop_classical_continuity),
    ("parser/print-parse-roundtrip", 0.0, _first_q, _prop_print_parse_roundtrip),
    ("parser/derivative-vs-central-difference", 1e-4, _sweep,
     _prop_derivative_vs_difference),
    ("parser/error-byte-offset", 0.0, _first_q, _prop_error_byte_offset),
    ("deriv/primal-eigenfunction", 1e-6, _sweep, _prop_primal_eigenfunction),
    ("deriv/dual-sends-log-to-reciprocal", 1e-6, _sweep, _prop_dual_log_reciprocal),
    ("deriv/closed-vs-numeric", 1e-6, _sweep, _prop_closed_vs_numeric),
    ("deriv/translation-kernels", 1e-8, _sweep, _prop_translation_kernels),
    ("int/primal-closed-form", 1e-8, _sweep, _prop_primal_closed_form),
    ("int/partition-slope", 0.2, _sweep, _prop_partition_slope),
    ("int/partition-final-error", 1e-3, _sweep, _prop_partition_final_error),
    ("int/riemann-agreement", 1e-5, _sweep, _prop_riemann_agreement),
    ("int/dual-recovers-log", 1e-10, _sweep, _prop_dual_recovers_log),
    ("int/dual-additivity", 1e-10, _sweep, _prop_dual_additivity),
    ("int/ftc-primal", 1e-6, _sweep, _prop_ftc_primal),
    ("int/ftc-dual", 1e-6, _sweep, _prop_ftc_dual),
    ("int/dual-definite-form", 1e-8, _sweep, _prop_dual_definite_form),
    ("int/flawed-dual-value", 1e-8, _sweep, _prop_flawed_dual_value),
    ("int/flawed-dual-gap", 0.0, _sweep, _prop_flawed_dual_gap),
    ("line/constant-slope", 1e-12, _sweep, _prop_constant_slope),
    ("line/secant-to-tangent-order", 0.0, _sweep, _prop_secant_tangent_order),
    ("line/same-curve-identity", 1e-8, _sweep, _prop_same_curve_identity),
    ("line/slope-duality", 1e-6, _sweep, _prop_slope_duality),
    ("line/translation-family", 1e-8, _sweep, _prop_translation_family),
    ("line/integral-ratio", 1e-6, _sweep, _prop_integral_ratio),
    ("cli/format-roundtrip", 0.0, _first_q, _prop_format_roundtrip),
)


def _worst(points: Iterator[tuple[float, float, float | None]]) -> tuple[float, str]:
    """The worst of a row's (residual, q, x) points, and where it occurred:
    q in full (q = 1 + 1e-6 must not read as 1), x to 6 significant digits.

    The first non-finite residual wins (NaN included, which a comparison
    would pass over); otherwise the largest, on a tie the larger q, then
    the first point.
    """
    worst = None
    for point in points:
        if worst is None or (
            math.isfinite(worst[0])
            and (not math.isfinite(point[0]) or point[:2] > worst[:2])
        ):
            worst = point
    if worst is None:
        return 0.0, "not exercised"
    r, q, x = worst
    return r, f"worst at q={repr(q).removesuffix('.0')}" + ("" if x is None else f" x={x:g}")


def run_battery(
    q_values: Sequence[float] | None = None, fault_sign: float = 1.0
) -> list[PropertyResult]:
    """Evaluate every invariant over the given deformation sweep.

    Args:
        q_values: deformation values to sweep; defaults to DEFAULT_Q_SWEEP.
            Duplicates are dropped, order is preserved.
        fault_sign: 1.0 for a normal run; -1.0 corrupts the identity table,
            the one property that receives it (harness self-test).

    Returns:
        One PropertyResult per property, in battery order, whose detail
        names the q (and x, where the check has one) of the worst residual.
        One that raises fails with residual inf and detail
        ``"error: <message>"``, commas replaced so a CSV row keeps its cells.
    """
    if q_values is None:
        q_values = DEFAULT_Q_SWEEP
    seen: dict[float, None] = {}
    for q in q_values:
        seen.setdefault(float(q))
    ds = [Deformation(q) for q in seen]
    if not ds:
        raise DomainError("verification requires at least one q value")

    results: list[PropertyResult] = []
    for name, tolerance, at, prop in _BATTERY:
        args = (fault_sign,) if prop is _prop_identity_table else ()
        try:
            residual, detail = _worst(
                (r, d.q, x) for d in at(ds) for r, x in prop(d, *args)
            )
        except Exception as exc:  # surface as a failing row, never a crash
            residual, detail = math.inf, f"error: {exc}".replace(",", ";")
        results.append(
            PropertyResult(name, residual, tolerance, residual <= tolerance, detail)
        )
    return results

"""Deformed derivatives, closed-form and numeric.

Two one-parameter generalizations of d/dx, both collapsing to the ordinary
derivative as q -> 1 (delta = 1-q -> 0):

* primal: ``(1 + delta*x) * f'(x)`` — deformation acts on the *argument*
  axis. The deformed exponential is its fixed point.
* dual: ``F'(x) / (1 + delta*F(x))`` — deformation acts on the *value*
  axis. It sends the deformed logarithm to ``1/x``.

The numeric variants never touch ``f.derivative``. The primal one
differences in the transformed coordinate ``u = ln_big_e(x)``, where the
primal derivative is an ordinary d/du; the chart maps the pole to u = +-inf,
so no finite stencil can straddle it. The dual one differences
``ln_big_e(F(x))`` in x. Both refine a central difference with Richardson
extrapolation and carry a step-halving error estimate. The table stops at
level 1 (two central pairs) when that level's estimate meets ``rel_tol``,
and only otherwise evaluates two more pairs for the full three-level table,
as Ridders' method grows its tableau only while it needs to; if the final
estimate misses ``rel_tol`` a :class:`~qcalc.errors.ToleranceWarning` is
emitted. So is one where the estimate is exactly 0 at a break point of f
(``f.break_points()``): there the central pairs straddle the break, and
symmetric ones, as at the kink of ``abs(x-0.3)``, cancel exactly.

A numeric derivative at a point is one call of a function made once per
function, operator and q (kept in ``f.stencils``) from the loop body that
``_point_text`` writes and :func:`~qcalc.funcexpr.point_loop` compiles once
per tree shape: it checks x, finds the centre (u0 = ln_big_e(x) on x's side
of the pole, or x), and runs the shrinking stencils and their Richardson
tables, with a compiled expression's own statements at every point. The
caller's rel_tol is its second argument, for the stop at level 1. Python
keeps only the lookup of that function and the ToleranceWarning.
"""

from __future__ import annotations

import math
import sys
import warnings

from .errors import EVAL_ERRORS, DomainError, MissingDerivativeError, PoleError, ToleranceWarning
from .funcexpr import (CHART_ABOVE, CHART_BELOW, LN_E, LN_E_BELOW, RealFunction, chart_point,
                       indented, point_loop)
from .qcore import DERIV_REL_TOL, Deformation, Record

__all__ = [
    "DerivConfig",
    "primal_qderiv_closed",
    "primal_qderiv_numeric",
    "primal_qderiv_numeric_with_estimate",
    "dual_qderiv_closed",
    "dual_qderiv_numeric",
    "dual_qderiv_numeric_with_estimate",
]

BASE_STEP = math.ulp(1.0) ** (1.0 / 3.0)  # ~6.06e-6, optimal central-diff step
RICHARDSON_LEVELS = 3  # halvings laid above BASE_STEP
_MAX_SHRINKS = 8

# The central quotient over a pair's values {0}, {1} and the step {2}
_QUOTIENT = "({0} - {1}) / (2.0 * {2})"
# the domain's three messages, formatted by the point texts and by slope_at
_OUTSIDE = "x = {x} is outside the domain of {name}"
_POLE = "x = {x} sits on the pole of the coordinate chart"
_CUTOFF = "F(x) = {y} lies in the cutoff region at x = {x}; the dual derivative is undefined there"
# each operator's charts off the classical branch: x_of(u) on x's side of the pole, y_of(F)
_CHARTS = {"primal": (f"{CHART_ABOVE} if _above else {CHART_BELOW}", "{}"), "dual": ("{}", LN_E)}


def _point_text(lines: list[str], result: str, op: str, x_of: str, y_of: str, domain: str) -> tuple:
    """The parameters and body of point_loop's ``maker(delta, _domain, _label)
    -> point``, where ``point(x, rel_tol) -> (value, estimate)`` is the ``op``
    ("primal" or "dual") derivative at x: the classical derivative of
    y_of(f(x_of(u))) at the u of x. It checks x against f's domain: _domain
    at x and before every point ("checked"; an "inline" f has no predicate),
    then f(x), which must evaluate to a finite number. Then it tries central
    differences at x = x_of(c +- h), c the centre, h = h0/2^j,
    j = 0..RICHARDSON_LEVELS; h0 halves after each
    try that raises, up to _MAX_SHRINKS times, and the error then says
    whether the last try overflowed or left the domain. A try evaluates the
    pairs of j = 0, 1 first, and returns entry (1, 1) of its Richardson table,
    entry (j, k) = (j, k-1) + ((j, k-1) - (j-1, k-1)) / (4^k - 1), with the
    estimate |(1, 1) - (0, 0)| if that meets rel_tol * max(1, |(1, 1)|).
    Otherwise it evaluates the pairs of j = 2, 3 and returns the last diagonal
    entry and the gap to the one before as the estimate. The tree's
    statements are written twice: at x, and once in the loop over both
    groups of points."""
    levels, where = RICHARDSON_LEVELS, f"{op} derivative"
    outside = {n: f"raise DomainError({_OUTSIDE!r}.format(x=x, name=_label or {n!r}))"
               for n in "fF"}
    if domain == "checked":
        lines = [f"if not _domain(x): {outside['f']}", *lines]
    name, cause = ("F", "_e") if op == "dual" else ("f", "None")
    head = ["try:", *indented(1, lines or ["pass"]),
            f"except EVAL_ERRORS as _e: {outside[name]} from {cause}",
            f"if not -inf < {result} < inf: {outside[name]}"]
    if op == "dual":
        head.append(f"if 1.0 + delta * {result} <= 0.0: "
                    f"raise DomainError({_CUTOFF!r}.format(y={result}, x=x))")
    head += ["_c = x"] if x_of == "{}" else [
        "_s = 1.0 + delta * x", f"if _s == 0.0: raise PoleError({_POLE!r}.format(x=x))",
        "_above = _s > 0.0", f"_c = {LN_E.format('x')} if _above else {LN_E_BELOW.format('x')}"]
    # on the identity chart, as on the inverse one, a point past the float range overflows
    guard = (['if abs(_c) + _h0 == inf: raise OverflowError("stencil point past the float range")']
             if x_of == "{}" else [])
    var, point = chart_point(x_of, lines, y_of.format(result))

    # entry (j, 0) is the quotient of pair j, at step _k (even j) or _l (odd j)
    def quotient(j: int) -> str:
        return f"_r{j}_0 = {_QUOTIENT.format(f'_y{j}', f'_z{j}', '_l' if j % 2 else '_k')}"

    def entry(j: int, k: int) -> str:
        return (f"_r{j}_{k} = _r{j}_{k - 1} + (_r{j}_{k - 1} - _r{j - 1}_{k - 1})"
                f" / {4.0**k - 1.0!r}")

    level1 = ["_y0, _z0, _y1, _z1 = _f", quotient(0), quotient(1), entry(1, 1),
              "_d = abs(_r1_1 - _r0_0)",
              # _d <= rel_tol * max(1, |_r1_1|), without max()'s call
              "if _d <= rel_tol or _d <= rel_tol * abs(_r1_1): return _r1_1, _d"]
    # the steps h0/2^j, j = 0..3 (RICHARDSON_LEVELS = 3), in two groups (_k,
    # _l = _k/2): the pairs of level 1 first, then the deeper pairs only where
    # level 1 misses rel_tol
    loop = ["for _k in (_h0, _h0 / 4.0):", "    _l = _k / 2.0",
            f"    for {var} in (_c + _k, _c - _k, _c + _l, _c - _l):",
            *indented(2, point), "    if len(_f) == 4:", *indented(2, level1)]
    table = ["_y2, _z2, _y3, _z3 = _f[4:]", quotient(2), quotient(3),
             *(entry(j, k) for j in range(2, levels + 1) for k in range(1, j + 1))]
    last, before = f"_r{levels}_{levels}", f"_r{levels - 1}_{levels - 1}"
    table.append(f"return {last}, abs({last} - {before})")
    shrinks = ", ".join(repr(2.0**a) for a in range(_MAX_SHRINKS + 1))
    # h0 = BASE_STEP * 2^levels * max(1, |_c|), without max()'s call (a NaN _c gives 1)
    body = [*head,
            f"_H = {BASE_STEP * 2.0**levels!r} * (_c if _c > 1.0 else -_c if _c < -1.0 else 1.0)",
            "_error = None", f"for _a in ({shrinks}):", "    _h0 = _H / _a", "    _f = []",
            "    try:", *indented(2, guard + loop + table),
            "    except EVAL_ERRORS as _e:", "        _error = _e",
            f'if isinstance(_error, OverflowError): raise DomainError("{where}: the difference '
            f'stencil still overflows after {_MAX_SHRINKS} shrinks") from _error',
            f'raise DomainError("{where}: no difference stencil fits inside the domain '
            f'after {_MAX_SHRINKS} shrinks") from _error']
    return "delta, _domain, _label", "x, rel_tol", body


class DerivConfig(Record):
    """Acceptance threshold for the numeric derivatives.

    rel_tol is the error-estimate acceptance threshold relative to
    max(1, |result|).
    """

    __slots__ = ("rel_tol",)

    def __init__(self, rel_tol: float = DERIV_REL_TOL) -> None:
        if rel_tol <= 0.0:
            raise ValueError(f"rel_tol must be positive, got {rel_tol}")
        if not math.isfinite(rel_tol):
            raise ValueError(f"rel_tol must be finite, got {rel_tol}")
        object.__setattr__(self, "rel_tol", rel_tol)


def slope_at(F: RealFunction, x: float, d: Deformation, op: str) -> tuple[float, float]:
    """F(x) and the slope of F's op ("primal" or "dual") derivative at x: the
    closed one when F carries a derivative, else the numeric one. x is checked
    as the numeric point function's head checks it, in its order and with its
    errors: x in F's domain, where F(x) is finite, then the pole (primal) or
    the cutoff region (dual). The closed slope evaluates F at x once."""
    try:
        if F.domain is not None and not F.domain(x):
            raise DomainError
        y = F.eval(x)
        if not -math.inf < y < math.inf:
            raise DomainError
    except EVAL_ERRORS:
        name = F.label or ("F" if op == "dual" else "f")
        raise DomainError(_OUTSIDE.format(x=x, name=name)) from None
    s = 1.0 + d.delta * (x if op == "primal" else y)
    if op == "primal" and s == 0.0 and not d.classical:
        raise PoleError(_POLE.format(x=x))
    if op == "dual" and s <= 0.0:
        raise DomainError(_CUTOFF.format(y=y, x=x))
    if F.derivative is not None:
        return y, s * F.derivative(x) if op == "primal" else F.derivative(x) / s
    if op == "primal":
        return y, primal_qderiv_numeric_with_estimate(F, x, d)[0]
    return y, dual_qderiv_numeric_with_estimate(F, x, d)[0]


def primal_qderiv_closed(f: RealFunction, x: float, d: Deformation) -> float:
    """(1 + delta*x) * f'(x) from the attached derivative.

    Raises:
        MissingDerivativeError: if f carries no derivative.
        DomainError, PoleError: as primal_qderiv_numeric at x (see slope_at).
    """
    if f.derivative is None:
        raise MissingDerivativeError(
            f"closed-form deformed derivative needs f.derivative ({f.label or 'unlabeled'})"
        )
    return slope_at(f, x, d, "primal")[1]


def dual_qderiv_closed(F: RealFunction, x: float, d: Deformation) -> float:
    """F'(x) / (1 + delta*F(x)) from the attached derivative.

    Raises:
        MissingDerivativeError: if F carries no derivative.
        DomainError: as dual_qderiv_numeric at x (see slope_at).
    """
    if F.derivative is None:
        raise MissingDerivativeError(
            f"closed-form deformed derivative needs F.derivative ({F.label or 'unlabeled'})"
        )
    return slope_at(F, x, d, "dual")[1]


def _point(f: RealFunction, op: str, d: Deformation):
    """f's point function of op at d (see _point_text), made once and kept in
    f.stencils[op, d.q]."""
    domain = "inline" if f.domain is None else "checked"
    x_of, y_of = ("{}", "{}") if d.classical else _CHARTS[op]
    maker = point_loop(f.eval, _point_text, (op, x_of, y_of, domain))
    point = f.stencils[op, d.q] = maker(d.delta, f.domain, f.label)
    return point


def _warn(where: str, value: float, err: float, config: DerivConfig, x: float) -> None:
    """The ToleranceWarning of a missed rel_tol, or of an estimate of exactly
    0 at a break point of f, whose central pairs straddle it (symmetric
    ones cancel exactly at a kink, and also where f is smooth with slope 0,
    which this does not tell apart), attributed to the first caller outside
    the qcalc package (qgeom's tangents reach here through slope_at)."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__package__") == __package__:
        frame, level = frame.f_back, level + 1
    if err:
        message = (f"{where}: error estimate {err:.3e} exceeds "
                   f"rel_tol={config.rel_tol:.1e} (value {value:.6e})")
    else:
        message = (f"{where}: the central stencil at x = {x!r} straddles a break point of "
                   f"the function, where it may not be differentiable; the error estimate "
                   f"is exactly 0 (value {value:.6e})")
    warnings.warn(ToleranceWarning(message), stacklevel=level)


def primal_qderiv_numeric(
    f: RealFunction, x: float, d: Deformation, config: DerivConfig = DerivConfig()
) -> float:
    """Derivative-free (1 + delta*x) * f'(x).

    Differences f in u = ln_big_e(x), where this operator is the plain
    d/du. The inverse chart keeps every stencil point on x's side of the
    pole. Stencils that leave f's domain shrink by up to 2^8 before giving
    up with DomainError.
    """
    return primal_qderiv_numeric_with_estimate(f, x, d, config)[0]


def primal_qderiv_numeric_with_estimate(
    f: RealFunction, x: float, d: Deformation, config: DerivConfig = DerivConfig()
) -> tuple[float, float]:
    """primal_qderiv_numeric plus its extrapolation-table error estimate."""
    rel_tol = config.rel_tol
    value, err = (f.stencils.get(("primal", d.q)) or _point(f, "primal", d))(x, rel_tol)
    # err <= rel_tol * max(1, |value|), without max()'s call; a NaN estimate
    # warns, and so does an estimate of 0 at a break point
    if not (err <= rel_tol or err <= rel_tol * abs(value)) or not err and x in f.break_points():
        _warn("primal derivative", value, err, config, x)
    return value, err


def dual_qderiv_numeric(
    F: RealFunction, x: float, d: Deformation, config: DerivConfig = DerivConfig()
) -> float:
    """Derivative-free F'(x) / (1 + delta*F(x)).

    Differences ln_big_e(F(x)) in x; the chain rule makes that exactly the
    dual derivative wherever 1 + delta*F > 0.

    Raises:
        DomainError: if F(x) lies in the cutoff region (1 + delta*F <= 0),
            or no shrunken stencil stays inside F's domain.
    """
    return dual_qderiv_numeric_with_estimate(F, x, d, config)[0]


def dual_qderiv_numeric_with_estimate(
    F: RealFunction, x: float, d: Deformation, config: DerivConfig = DerivConfig()
) -> tuple[float, float]:
    """dual_qderiv_numeric plus its extrapolation-table error estimate."""
    rel_tol = config.rel_tol
    value, err = (F.stencils.get(("dual", d.q)) or _point(F, "dual", d))(x, rel_tol)
    # err <= rel_tol * max(1, |value|), without max()'s call; a NaN estimate
    # warns, and so does an estimate of 0 at a break point
    if not (err <= rel_tol or err <= rel_tol * abs(value)) or not err and x in F.break_points():
        _warn("dual derivative", value, err, config, x)
    return value, err

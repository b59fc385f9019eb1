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
extrapolation and carry a step-halving error estimate; if that estimate
misses ``rel_tol`` a :class:`~qcalc.errors.ToleranceWarning` is emitted.

A numeric derivative at a point is one call of a function made once per
function, operator and q (kept in ``f.stencils``) from the text that
``_point_text`` writes and :func:`~qcalc.funcexpr.point_loop` compiles once
per tree shape: it checks x, finds the centre (u0 = ln_big_e(x) on x's side
of the pole, or x), and runs the shrinking stencils and their Richardson
tables, with a compiled expression's own statements at every point. Python
keeps only the lookup of that function and the ToleranceWarning.
"""

from __future__ import annotations

import math
import sys
import warnings

from .errors import MissingDerivativeError, PoleError, ToleranceWarning
from .funcexpr import CHART_ABOVE, CHART_BELOW, RealFunction, chart_point, indented, point_loop
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

# Stencil templates (the dual's check and the quotients) over the pair's values
# {0}, {1} and the step {2}; the primal chart is funcexpr's.
_QUOTIENT = "({0} - {1}) / (2.0 * {2})"
_LOG_QUOTIENT = "(log1p(delta * {0}) / delta - log1p(delta * {1}) / delta) / (2.0 * {2})"
_CUTOFF_CHECK = ("if 1.0 + delta * {0} <= 0.0 or 1.0 + delta * {1} <= 0.0: "
                 'raise DomainError("stencil value in the cutoff region")')
_OUTSIDE = 'raise DomainError(f"x = {{x}} is outside the domain of {{_label or {!r}}}")'


def _point_text(lines: list[str], result: str, params: list[str], op: str, classical: bool,
                domain: str) -> str:
    """``maker(delta, _domain, _label) -> point``, where ``point(x) -> (value,
    estimate)`` is the ``op`` ("primal" or "dual") derivative at x.

    It checks x as f's domain does: by the tree's statements ("inline"), or
    by calling _domain at the primal centre ("called", where f.eval raising
    is the check elsewhere) and also before every point ("checked"). Then it
    tries central differences at x = x_of(c +- h), c the centre, h = h0/2^j,
    j = 0..RICHARDSON_LEVELS, where a dual pair's cutoff check runs before
    the next pair is evaluated; h0 halves after each try that raises, up to
    _MAX_SHRINKS times. A try that fits returns the last diagonal entry of its
    Richardson table, entry (j, k) = (j, k-1) + ((j, k-1) - (j-1, k-1)) /
    (4^k - 1), and the gap to the one before as the estimate."""
    levels, where = RICHARDSON_LEVELS, f"{op} derivative"
    steps = [f"_h{j}" for j in range(levels + 1)]
    if domain == "checked":
        lines = [f"if not _domain(x): {_OUTSIDE.format('f')}", *lines]
    x_of, check, quotient = "{}", "", _QUOTIENT
    centre = ["try:", *(f"    {line}" for line in lines or ["pass"])]
    if op == "dual":
        head = [*centre,
                f"except EVAL_ERRORS as _e: {_OUTSIDE.format('F')} from _e",
                f'if 1.0 + delta * {result} <= 0.0: raise DomainError(f"F(x) = {{{result}}} lies in '
                'the cutoff region at x = {x}; the dual derivative is undefined there")', "_c = x"]
        check, quotient = _CUTOFF_CHECK, _QUOTIENT if classical else _LOG_QUOTIENT
    else:
        head = ([*centre, f"except EVAL_ERRORS: {_OUTSIDE.format('f')} from None"]
                if domain == "inline"
                else [f"if not _domain(x): {_OUTSIDE.format('f')}"])
        head += ["_c = x"] if classical else [
            "_s = 1.0 + delta * x",
            'if _s == 0.0: raise PoleError(f"x = {x} sits on the pole of the coordinate chart")',
            "_above = _s > 0.0", "_c = log1p(delta * x) / delta if _above else log(-_s) / delta"]
        x_of = "{}" if classical else f"{CHART_ABOVE} if _above else {CHART_BELOW}"
    var, point = chart_point(x_of, lines, result)
    if check:
        loop = [f"for _h in ({', '.join(steps)}):", f"    for {var} in (_c + _h, _c - _h):",
                *(f"        {line}" for line in point), f"    {check.format('_f[-2]', '_f[-1]')}"]
    else:
        points = ", ".join(f"_c {s} {h}" for h in steps for s in "+-")
        loop = [f"for {var} in ({points}):", *(f"    {line}" for line in point)]
    table = [f"{', '.join(f'_y{j}, _z{j}' for j in range(levels + 1))} = _f",
             *(f"_r{j}_0 = {quotient.format(f'_y{j}', f'_z{j}', h)}" for j, h in enumerate(steps))]
    for j in range(1, levels + 1):
        table += [f"_r{j}_{k} = _r{j}_{k - 1} + (_r{j}_{k - 1} - _r{j - 1}_{k - 1})"
                  f" / {4.0**k - 1.0!r}" for k in range(1, j + 1)]
    last, before = f"_r{levels}_{levels}", f"_r{levels - 1}_{levels - 1}"
    table.append(f"return {last}, abs({last} - {before})")
    shrinks = ", ".join(repr(2.0**a) for a in range(_MAX_SHRINKS + 1))
    body = ["flags = None", *head, f"_H = {BASE_STEP * 2.0**levels!r} * max(1.0, abs(_c))",
            "_error = None", f"for _a in ({shrinks}):", "    _h0 = _H / _a",
            *(f"    _h{j} = _h0 / {2.0**j!r}" for j in range(1, levels + 1)), "    _f = []",
            "    try:", *(f"        {line}" for line in loop + table),
            "    except EVAL_ERRORS as _e:", "        _error = _e",
            f'raise DomainError("{where}: no difference stencil fits inside the domain '
            f'after {_MAX_SHRINKS} shrinks") from _error']
    return (f"def factory({', '.join(params)}):\n"
            f"    def maker(delta, _domain, _label):\n"
            f"        def point(x):\n{''.join(indented(3, body))}"
            f"        return point\n"
            f"    return maker\n")


class DerivConfig(Record):
    """Acceptance threshold for the numeric derivatives.

    rel_tol is the error-estimate acceptance threshold relative to
    max(1, |result|).
    """

    _fields = ("rel_tol",)

    def __init__(self, rel_tol: float = DERIV_REL_TOL) -> None:
        if rel_tol <= 0.0:
            raise ValueError(f"rel_tol must be positive, got {rel_tol}")
        if not math.isfinite(rel_tol):
            raise ValueError(f"rel_tol must be finite, got {rel_tol}")
        object.__setattr__(self, "rel_tol", rel_tol)


def primal_qderiv_closed(f: RealFunction, x: float, d: Deformation) -> float:
    """(1 + delta*x) * f'(x) from the attached derivative.

    Raises:
        MissingDerivativeError: if f carries no derivative.
    """
    if f.derivative is None:
        raise MissingDerivativeError(
            f"closed-form deformed derivative needs f.derivative ({f.label or 'unlabeled'})"
        )
    return (1.0 + d.delta * x) * f.derivative(x)


def dual_qderiv_closed(F: RealFunction, x: float, d: Deformation) -> float:
    """F'(x) / (1 + delta*F(x)) from the attached derivative.

    Raises:
        MissingDerivativeError: if F carries no derivative.
        PoleError: if 1 + delta*F(x) is zero.
    """
    if F.derivative is None:
        raise MissingDerivativeError(
            f"closed-form deformed derivative needs F.derivative ({F.label or 'unlabeled'})"
        )
    den = 1.0 + d.delta * F.eval(x)
    if den == 0.0:
        raise PoleError(f"1 + delta*F(x) vanishes at x = {x}")
    return F.derivative(x) / den


def _point(f: RealFunction, op: str, d: Deformation):
    """f's point function of op at d (see _point_text), made once and kept in
    f.stencils[op, d.q]."""
    by_evaluation = getattr(f.domain, "by_evaluation", False)
    domain = ("inline" if hasattr(f.eval, "tree") else "called") if by_evaluation else "checked"
    maker = point_loop(f.eval, _point_text, (op, d.classical, domain))
    point = f.stencils[op, d.q] = maker(d.delta, f.domain, f.label)
    return point


def _warn(where: str, value: float, err: float, config: DerivConfig) -> None:
    """The ToleranceWarning of a missed rel_tol, attributed to the first caller
    outside this module."""
    frame, level = sys._getframe(1), 2
    while frame.f_globals is globals():
        frame, level = frame.f_back, level + 1
    message = (f"{where}: error estimate {err:.3e} exceeds "
               f"rel_tol={config.rel_tol:.1e} (value {value:.6e})")
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
    value, err = (f.stencils.get(("primal", d.q)) or _point(f, "primal", d))(x)
    if err > config.rel_tol * max(1.0, abs(value)):
        _warn("primal derivative", value, err, config)
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
    value, err = (F.stencils.get(("dual", d.q)) or _point(F, "dual", d))(x)
    if err > config.rel_tol * max(1.0, abs(value)):
        _warn("dual derivative", value, err, config)
    return value, err

"""Deformed derivatives, closed-form and numeric.

Two one-parameter generalizations of d/dx, both collapsing to the ordinary
derivative as q -> 1 (delta = 1-q -> 0):

* primal: ``(1 + delta*x) * f'(x)`` — deformation acts on the *argument*
  axis. The deformed exponential is its fixed point.
* dual: ``F'(x) / (1 + delta*F(x))`` — deformation acts on the *value*
  axis. It sends the deformed logarithm to ``1/x``.

The numeric variants never touch ``f.derivative``. The primal one
differences in the transformed coordinate ``u = ln_big_e(x)``, where the
primal derivative is an ordinary d/du; the chart maps the pole to u = -inf,
so no finite stencil can straddle it. The dual one differences
``ln_big_e(F(x))`` in x. Both refine a central difference with Richardson
extrapolation and carry a step-halving error estimate; if that estimate
misses ``rel_tol`` a :class:`~qcalc.errors.ToleranceWarning` is emitted.

Each try at a point is one call of a stencil that ``_stencil_text`` writes
from a template (the chart, the dual's cutoff check, the difference
quotient) and :func:`~qcalc.funcexpr.point_loop` compiles: one frame that
runs a compiled expression's own statements at every stencil point.
"""

from __future__ import annotations

import math
import warnings

from .errors import DomainError, MissingDerivativeError, PoleError, ToleranceWarning
from .funcexpr import EVAL_ERRORS, RealFunction, indented, point_loop
from .qcore import DERIV_REL_TOL, Deformation, Record, ln_big_e

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

# Stencil templates. The primal chart inverts ln_big_e on x's side of the
# pole; the dual differences ln_big_e(F) once a pair is out of the cutoff.
_QUOTIENT = "({0} - {1}) / (2.0 * {2})"
_LOG_QUOTIENT = "(log1p(delta * {0}) / delta - log1p(delta * {1}) / delta) / (2.0 * {2})"
_CUTOFF_CHECK = ("if 1.0 + delta * {0} <= 0.0 or 1.0 + delta * {1} <= 0.0: "
                 'raise DomainError("stencil value in the cutoff region")')
_PRIMAL_CLASSICAL = ("{}", "", _QUOTIENT)
_PRIMAL_ABOVE_POLE = ("expm1(delta * {}) / delta", "", _QUOTIENT)
_PRIMAL_BELOW_POLE = ("(-exp(delta * {}) - 1.0) / delta", "", _QUOTIENT)
_DUAL_CLASSICAL = ("{}", _CUTOFF_CHECK, _QUOTIENT)
_DUAL_DEFORMED = ("{}", _CUTOFF_CHECK, _LOG_QUOTIENT)


def _stencil_text(lines: list[str], result: str, params: list[str], chart: str, check: str,
                  quotient: str) -> str:
    """``stencil(u0, h0, delta) -> (value, estimate)``: central differences at
    x = chart(u0 +- h), h = h0/2^j, j = 0..RICHARDSON_LEVELS, where a pair's
    check runs before the next pair is evaluated; then the Richardson table,
    entry (j, k) = (j, k-1) + ((j, k-1) - (j-1, k-1)) / (4^k - 1), and the
    gap between its last two diagonal entries as the estimate. ``chart`` is
    over ``{}`` (``"{}"`` for x itself), ``check`` over the pair's values
    ``{0}``, ``{1}``, and ``quotient`` over those and the step ``{2}``."""
    levels = RICHARDSON_LEVELS
    steps = [f"_h{j}" for j in range(levels + 1)]
    var = "x" if chart == "{}" else "_u"
    point = [*([] if var == "x" else [f"x = {chart.format('_u')}"]), *lines,
             f"_f.append({result})"]
    if check:
        loop = [f"for _h in ({', '.join(steps)}):", f"    for {var} in (_u0 + _h, _u0 - _h):",
                *(f"        {line}" for line in point), f"    {check.format('_f[-2]', '_f[-1]')}"]
    else:
        points = ", ".join(f"_u0 {s} {h}" for h in steps for s in "+-")
        loop = [f"for {var} in ({points}):", *(f"    {line}" for line in point)]
    head = ["flags = None", *(f"_h{j} = _h0 / {2.0**j!r}" for j in range(1, levels + 1)), "_f = []"]
    table = [f"{', '.join(f'_y{j}, _z{j}' for j in range(levels + 1))} = _f",
             *(f"_r{j}_0 = {quotient.format(f'_y{j}', f'_z{j}', h)}" for j, h in enumerate(steps))]
    for j in range(1, levels + 1):
        table += [f"_r{j}_{k} = _r{j}_{k - 1} + (_r{j}_{k - 1} - _r{j - 1}_{k - 1})"
                  f" / {4.0**k - 1.0!r}" for k in range(1, j + 1)]
    last, before = f"_r{levels}_{levels}", f"_r{levels - 1}_{levels - 1}"
    table.append(f"return {last}, abs({last} - {before})")
    return (f"def factory({', '.join(params)}):\n"
            f"    def stencil(_u0, _h0, delta):\n{''.join(indented(2, head + loop + table))}"
            f"    return stencil\n")


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
    return d.bracket(x) * f.derivative(x)


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
    den = d.bracket(F(x))
    if den == 0.0:
        raise PoleError(f"1 + delta*F(x) vanishes at x = {x}")
    return F.derivative(x) / den


def _checked(f: RealFunction):
    """f.eval, raising DomainError outside f's domain (see RealFunction)."""
    if getattr(f.domain, "by_evaluation", False):
        return f.eval

    def checked(x: float) -> float:
        if not f.domain(x):
            raise DomainError(f"x = {x} is outside the domain of {f.label or 'f'}")
        return f.eval(x)

    return checked


def _refine(stencil, centre: float, delta: float, config: DerivConfig, where: str
            ) -> tuple[float, float]:
    """Run the stencil on steps scaled to the differencing coordinate's
    centre, shrinking the whole stencil when it exits the domain."""
    h0 = BASE_STEP * 2.0**RICHARDSON_LEVELS * max(1.0, abs(centre))
    last_error: Exception | None = None
    for attempt in range(_MAX_SHRINKS + 1):
        try:
            value, err = stencil(centre, h0 / (2.0**attempt), delta)
        except EVAL_ERRORS as e:
            last_error = e
            continue
        if err > config.rel_tol * max(1.0, abs(value)):
            message = (f"{where}: error estimate {err:.3e} exceeds "
                       f"rel_tol={config.rel_tol:.1e} (value {value:.6e})")
            warnings.warn(ToleranceWarning(message), stacklevel=4)
        return value, err
    raise DomainError(
        f"{where}: no difference stencil fits inside the domain "
        f"after {_MAX_SHRINKS} shrinks"
    ) from last_error


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
    if not f.domain(x):
        raise DomainError(f"x = {x} is outside the domain of {f.label or 'f'}")
    if d.classical:
        u0, template = x, _PRIMAL_CLASSICAL
    else:
        s = d.bracket(x)
        if s == 0.0:
            raise PoleError(f"x = {x} sits on the pole of the coordinate chart")
        u0 = ln_big_e(x, d)
        template = _PRIMAL_ABOVE_POLE if s > 0.0 else _PRIMAL_BELOW_POLE
    stencil = point_loop(_checked(f), _stencil_text, template)
    return _refine(stencil, u0, d.delta, config, "primal derivative")


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
    F_at = _checked(F)
    try:
        y = F_at(x)
    except EVAL_ERRORS as e:
        raise DomainError(f"x = {x} is outside the domain of {F.label or 'F'}") from e
    if d.bracket(y) <= 0.0:
        raise DomainError(
            f"F(x) = {y} lies in the cutoff region at x = {x}; "
            "the dual derivative is undefined there"
        )

    stencil = point_loop(F_at, _stencil_text, _DUAL_CLASSICAL if d.classical else _DUAL_DEFORMED)
    return _refine(stencil, x, d.delta, config, "dual derivative")

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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import DomainError, MissingDerivativeError, PoleError, ToleranceWarning
from .funcexpr import EVAL_ERRORS, RealFunction
from .qcore import Deformation, ln_big_e

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
# the step divisors 2^j and the extrapolation denominators 4^k - 1
_HALVINGS = tuple(2.0**j for j in range(RICHARDSON_LEVELS + 1))
_DENOMINATORS = tuple(4.0**k - 1.0 for k in range(RICHARDSON_LEVELS + 1))


@dataclass(frozen=True)
class DerivConfig:
    """Acceptance threshold for the numeric derivatives.

    rel_tol is the error-estimate acceptance threshold relative to
    max(1, |result|).
    """

    rel_tol: float = 1e-8

    def __post_init__(self):
        if self.rel_tol <= 0.0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")
        if not math.isfinite(self.rel_tol):
            raise ValueError(f"rel_tol must be finite, got {self.rel_tol}")


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


def _richardson(phi, h0: float) -> tuple[float, float]:
    """Extrapolate central differences phi(h0/2^j) to the h -> 0 limit.

    Returns (value, error_estimate); the estimate is the difference of the
    last two diagonal entries of the extrapolation table.
    """
    row: list[float] = []
    for j, halving in enumerate(_HALVINGS):
        prev_row, row = row, [phi(h0 / halving)]
        for k in range(1, j + 1):
            row.append(row[k - 1] + (row[k - 1] - prev_row[k - 1]) / _DENOMINATORS[k])
    return row[-1], abs(row[-1] - prev_row[-1])


def _checked(f: RealFunction):
    """f.eval, raising DomainError outside f's domain (see RealFunction)."""
    if getattr(f.domain, "by_evaluation", False):
        return f.eval

    def checked(x: float) -> float:
        if not f.domain(x):
            raise DomainError(f"x = {x} is outside the domain of {f.label or 'f'}")
        return f.eval(x)

    return checked


def _refine(phi, centre: float, config: DerivConfig, where: str) -> tuple[float, float]:
    """Run Richardson on steps scaled to the differencing coordinate's
    centre, shrinking the whole stencil when it exits the domain."""
    h0 = BASE_STEP * 2.0**RICHARDSON_LEVELS * max(1.0, abs(centre))
    last_error: Exception | None = None
    for attempt in range(_MAX_SHRINKS + 1):
        try:
            value, err = _richardson(phi, h0 / (2.0**attempt))
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
        u0, x_of = x, lambda u: u
    else:
        s = d.bracket(x)
        if s == 0.0:
            raise PoleError(f"x = {x} sits on the pole of the coordinate chart")
        u0, delta = ln_big_e(x, d), d.delta
        if s > 0.0:
            x_of = lambda u: math.expm1(delta * u) / delta
        else:
            x_of = lambda u: (-math.exp(delta * u) - 1.0) / delta
    f_at = _checked(f)

    def phi(h: float) -> float:
        return (f_at(x_of(u0 + h)) - f_at(x_of(u0 - h))) / (2.0 * h)

    return _refine(phi, u0, config, "primal derivative")


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

    classical, delta = d.classical, d.delta

    def phi(h: float) -> float:
        # ln_big_e(yp, d) - ln_big_e(ym, d) on the support the check ensures
        yp, ym = F_at(x + h), F_at(x - h)
        tp, tm = delta * yp, delta * ym
        if 1.0 + tp <= 0.0 or 1.0 + tm <= 0.0:
            raise DomainError("stencil value in the cutoff region")
        if classical:
            return (yp - ym) / (2.0 * h)
        return (math.log1p(tp) / delta - math.log1p(tm) / delta) / (2.0 * h)

    return _refine(phi, x, config, "dual derivative")

"""Deformed lines, secants, tangents, and the slope/integral dualities.

A primal q-line is straight in the chart ``u = ln_big_e(x)``::

    L(x) = k_q * ln_big_e(x) + c

A dual q-line is the deformed-addition translation family of an ordinary
exponential ramp in the value direction::

    L(x) = q_log_exp_of(k_sup_q * x) (+)_q intercept

Both families have a constant-slope law: the matching secant quotient
between any two admissible points returns the line's own slope. Tangent
constructors take the slope from :mod:`qcalc.qdiff` and anchor the line
at the touch point. ``slope_duality`` exhibits the reciprocity between the
primal slope of a curve and the dual slope of its inverse;
``integral_ratio`` the corresponding ratio of the two integral kinds.
"""

from __future__ import annotations

import math

from .errors import (
    DegenerateSecantError,
    DomainError,
    InverseMismatchError,
    PoleError,
)
from .funcexpr import RealFunction
from .qcore import Deformation, Record, ln_big_e, q_add, q_log_exp_of, q_sub
from .qdiff import slope_at

__all__ = [
    "PrimalQLine",
    "DualQLine",
    "primal_qline_eval",
    "dual_qline_eval",
    "primal_secant_slope",
    "dual_secant_slope",
    "primal_qline_through",
    "dual_qline_through",
    "primal_qtangent",
    "dual_qtangent",
    "slope_duality",
    "integral_ratio",
]

# secant denominators smaller than this (relative) are treated as collapsed;
# mirror-image point pairs collide in the u chart exactly up to rounding
_COLLAPSE = 1e-12


class PrimalQLine(Record):
    """k_q * ln_big_e(x) + c: straight in the primal chart.

    c is the value at x = 0 (the chart fixes u(0) = 0).
    """

    _fields = ("q", "k_q", "c")

    def __init__(self, q: Deformation, k_q: float, c: float) -> None:
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "k_q", k_q)
        object.__setattr__(self, "c", c)


class DualQLine(Record):
    """q_log_exp_of(k_sup_q * x) (+)_q intercept.

    intercept is the value at x = 0. The family is equivalently cut out by
    a multiplicative constant in bracket space; that constant is exposed as
    the ``c`` property (intercept = (c-1)/(1-q)). The intercept is what is
    stored because the c-parameterization degenerates in the classical
    limit, where the family is just the ordinary lines k*x + intercept.
    """

    _fields = ("q", "k_sup_q", "intercept")

    def __init__(self, q: Deformation, k_sup_q: float, intercept: float) -> None:
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "k_sup_q", k_sup_q)
        object.__setattr__(self, "intercept", intercept)

    @property
    def c(self) -> float:
        return 1.0 + self.q.delta * self.intercept


def primal_qline_eval(L: PrimalQLine, x: float) -> float:
    """Value of the primal line; PoleError at the chart pole."""
    return L.k_q * ln_big_e(x, L.q) + L.c


def dual_qline_eval(L: DualQLine, x: float) -> float:
    """Value of the dual line; total in x (OverflowError for huge k*x)."""
    return q_add(q_log_exp_of(L.k_sup_q * x, L.q), L.intercept, L.q)


# ---------------------------------------------------------------------------
# Secant slopes: difference quotients in the deformed charts

def primal_secant_slope(
    F: RealFunction, x_i: float, x_j: float, d: Deformation
) -> float:
    """(F(x_i) - F(x_j)) / (ln_big_e(x_i) - ln_big_e(x_j)).

    Raises:
        DegenerateSecantError: when the chart distance between the points
            collapses — equal points, or a mirror pair straddling the pole
            (both map to one u).
    """
    u_i, u_j = ln_big_e(x_i, d), ln_big_e(x_j, d)
    du = u_i - u_j
    if abs(du) <= _COLLAPSE * max(1.0, abs(u_i), abs(u_j)):
        raise DegenerateSecantError(
            f"x = {x_i} and x = {x_j} collapse in the primal chart (u = {u_i})"
        )
    return (F(x_i) - F(x_j)) / du


def dual_secant_slope(
    F: RealFunction, x_i: float, x_j: float, d: Deformation
) -> float:
    """(ln_big_e(F(x_i)) - ln_big_e(F(x_j))) / (x_i - x_j).

    Raises:
        DegenerateSecantError: if x_i = x_j.
        DomainError: if either value lies in the cutoff region.
    """
    if x_i == x_j:
        raise DegenerateSecantError(f"coincident abscissae x = {x_i}")
    y_i, y_j = F(x_i), F(x_j)
    if d.bracket(y_i) <= 0.0 or d.bracket(y_j) <= 0.0:
        raise DomainError(
            "dual secant needs both values on the support (1 + delta*y > 0)"
        )
    return (ln_big_e(y_i, d) - ln_big_e(y_j, d)) / (x_i - x_j)


# ---------------------------------------------------------------------------
# Interpolating lines and tangents

def _dual_intercept(y0: float, k: float, x0: float, d: Deformation) -> float:
    """y0 (-)_q q_log_exp_of(k*x0): the value at 0 of the dual line of slope
    k through (x0, y0).

    The q_sub denominator 1 + delta*q_log_exp_of(k*x0) equals
    exp(delta*k*x0) exactly; forming it as a sum cancels when the
    exponential is small, so it is computed as the exponential.
    """
    ramp = q_log_exp_of(k * x0, d)
    den = math.exp(d.delta * k * x0)
    if den == 0.0:
        raise PoleError(f"exp(delta*k*x0) underflows for k = {k}, x0 = {x0}")
    return (y0 - ramp) / den


def primal_qline_through(
    F: RealFunction, x_i: float, x_j: float, d: Deformation
) -> PrimalQLine:
    """The primal line through (x_i, F(x_i)) and (x_j, F(x_j))."""
    k = primal_secant_slope(F, x_i, x_j, d)
    c = F(x_i) - k * ln_big_e(x_i, d)
    return PrimalQLine(d, k, c)


def dual_qline_through(
    F: RealFunction, x_i: float, x_j: float, d: Deformation
) -> DualQLine:
    """The dual line through (x_i, F(x_i)) and (x_j, F(x_j))."""
    k = dual_secant_slope(F, x_i, x_j, d)
    return DualQLine(d, k, _dual_intercept(F(x_i), k, x_i, d))


def primal_qtangent(F: RealFunction, x0: float, d: Deformation) -> PrimalQLine:
    """Tangent primal line at x0, anchored at (x0, F(x0)); see qdiff.slope_at."""
    y0, k = slope_at(F, x0, d, "primal")
    return PrimalQLine(d, k, y0 - k * ln_big_e(x0, d))


def dual_qtangent(F: RealFunction, x0: float, d: Deformation) -> DualQLine:
    """Tangent dual line at x0, anchored at (x0, F(x0)); see qdiff.slope_at."""
    y0, k = slope_at(F, x0, d, "dual")
    return DualQLine(d, k, _dual_intercept(y0, k, x0, d))


# ---------------------------------------------------------------------------
# Duality relations

def slope_duality(
    F: RealFunction,
    F_inv: RealFunction,
    x0: float,
    d: Deformation,
) -> tuple[float, float]:
    """Primal slope of y = F(x) at x0 and dual slope of x = F_inv(y) there.

    The two parameterize the same curve, and the returned slopes are
    mutually reciprocal (their product is 1 up to numeric error).

    Raises:
        InverseMismatchError: if F_inv(F(x0)) fails to return x0 to 1e-8.
    """
    y0 = F(x0)
    back = F_inv(y0)
    if abs(back - x0) > 1e-8 * max(1.0, abs(x0)):
        raise InverseMismatchError(
            f"F_inv(F({x0})) = {back}; the functions are not mutual inverses here"
        )
    k_primal = primal_qtangent(F, x0, d).k_q
    k_dual = dual_qtangent(F_inv, y0, d).k_sup_q
    return k_primal, k_dual


def integral_ratio(
    f: RealFunction,
    g: RealFunction,
    x0: float,
    x1: float,
    y0: float,
    y1: float,
    d: Deformation,
    cfg: QuadratureConfig | None = None,
) -> float:
    """primal_qint(f, x0, x1) / dual_qint(g, y0, y1).

    When f is the primal derivative of a curve F with F(x0) = y0,
    F(x1) = y1, and g is the dual derivative of its inverse, the ratio
    equals (y1 - y0) / (x1 (-)_q x0) — the deformed-increment mean slope.
    (It does NOT equal the u-chart secant slope of F; the two denominators
    differ away from the x1 -> x0 limit. oracle: generate_frozen_values.py,
    canonical case = 1.25, u-chart secant = 1.5414396639852699.)

    cfg defaults to QuadratureConfig(). The quadrature layer is imported
    here, so the other q-line functions do not load it.

    Raises:
        DegenerateSecantError: if x1 (-)_q x0 = 0, or the dual integral
            vanishes.
    """
    from .qquad import QuadratureConfig, dual_qint, primal_qint

    if cfg is None:
        cfg = QuadratureConfig()
    if q_sub(x1, x0, d) == 0.0:
        raise DegenerateSecantError(f"deformed increment of ({x0}, {x1}) is zero")
    num = primal_qint(f, x0, x1, d, cfg).value
    den = dual_qint(g, y0, y1, d, cfg).value
    if den == 0.0:
        raise DegenerateSecantError(f"dual integral over ({y0}, {y1}) vanishes")
    return num / den

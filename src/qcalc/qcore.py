"""Deformed (q-)algebra and the q-exponential / q-logarithm pair.

The deformation replaces the ordinary logarithm and exponential with

    ln_q(x) = (x^(1-q) - 1) / (1 - q),          x > 0,
    e_q(x)  = [1 + (1-q) x]_+^(1/(1-q)),        [A]_+ = max(A, 0),

together with the deformed arithmetic (written delta = 1 - q)

    x (+)_q y = x + y + delta*x*y
    x (-)_q y = (x - y) / (1 + delta*y)
    x (*)_q y = [x^delta + y^delta - 1]_+^(1/delta)
    x (/)_q y = [x^delta - y^delta + 1]_+^(1/delta)

under which ln_q and e_q satisfy the familiar log/exp identity table. All
operations take a :class:`Deformation` carrying q. When |1-q| <
:data:`Q1_EPSILON` they take the classical q=1 limit branch (every formula
has a removable singularity there).

Two operations are required to be cancellation-safe and route through
``log1p``/``expm1``: :func:`ln_big_e` and :func:`q_log_exp_of`. Likewise
:func:`q_log` near x = 1 uses the ``expm1(delta*ln x)`` form rather than the
catastrophically cancelling direct power.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .errors import DomainError, PoleError

__all__ = [
    "Deformation",
    "EvalFlag",
    "ExtendedValue",
    "q_log",
    "q_exp",
    "big_e",
    "ln_big_e",
    "q_add",
    "q_sub",
    "q_mul",
    "q_div",
    "q_power_n",
    "q_times_n",
    "q_log_exp_of",
]

Q1_EPSILON = 1e-12  # |1 - q| below this takes the classical branch


@dataclass(frozen=True)
class Deformation:
    """The deformation parameter q with its derived quantities.

    Attributes:
        q: the deformation parameter; q = 1 recovers ordinary calculus.
        delta: 1 - q, the exponent appearing in every deformed formula.
        classical: True when |1 - q| < Q1_EPSILON and the q=1 limit branch
            applies. Branch selection is deterministic.
        inv_delta: 1/(1 - q), the exponent of the bracket powers; NaN on the
            classical branch.

    delta, classical and inv_delta are computed once from q; they take no
    part in the constructor, repr, equality or hashing.
    """

    q: float
    delta: float = field(init=False, repr=False, compare=False)
    classical: bool = field(init=False, repr=False, compare=False)
    inv_delta: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.q):
            raise ValueError(f"q must be finite, got {self.q}")
        delta = 1.0 - self.q
        classical = abs(delta) < Q1_EPSILON
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "classical", classical)
        object.__setattr__(self, "inv_delta", math.nan if classical else 1.0 / delta)

    @property
    def pole(self) -> float:
        """Location -1/(1-q) where 1 + (1-q)x vanishes. NaN on the classical branch."""
        if self.classical:
            return math.nan
        return -1.0 / self.delta

    def bracket(self, x: float) -> float:
        """The recurring linear factor 1 + (1-q)x."""
        return 1.0 + self.delta * x


class EvalFlag(enum.Enum):
    """Diagnostics attached to values produced by cutoff-capable operations."""

    CUTOFF_APPLIED = "CutoffApplied"
    POLE_REACHED = "PoleReached"
    Q1_BRANCH = "Q1Branch"


@dataclass(frozen=True)
class ExtendedValue:
    """A real value (possibly +inf) plus diagnostic flags.

    Invariants: +inf carries ``POLE_REACHED``; ``CUTOFF_APPLIED`` appears only
    when the bracket 1+(1-q)x was nonpositive with a positive exponent
    1/(1-q), in which case the value is exactly 0.
    """

    value: float
    flags: frozenset[EvalFlag] = field(default_factory=frozenset)

    def __float__(self) -> float:
        return self.value

    @property
    def cutoff(self) -> bool:
        return EvalFlag.CUTOFF_APPLIED in self.flags

    @property
    def pole(self) -> bool:
        return EvalFlag.POLE_REACHED in self.flags


_Q1 = frozenset({EvalFlag.Q1_BRANCH})
_CUT = frozenset({EvalFlag.CUTOFF_APPLIED})
_POLE = frozenset({EvalFlag.POLE_REACHED})
_Q1_POLE = _Q1 | _POLE
_NONE: frozenset[EvalFlag] = frozenset()


def q_log(x: float, d: Deformation) -> float:
    """q-logarithm (x^(1-q) - 1)/(1-q).

    Computed as expm1(delta*ln x)/delta, which stays accurate for x near 1
    where the direct power cancels. Classical branch: ln x.

    Raises:
        DomainError: if x <= 0.
    """
    if x <= 0.0:
        raise DomainError(f"q_log requires x > 0, got {x}")
    if d.classical:
        return math.log(x)
    return math.expm1(d.delta * math.log(x)) / d.delta


def _exp_q1(x: float) -> tuple[float, frozenset[EvalFlag]]:
    """exp(x) flagged Q1_BRANCH, +inf with POLE_REACHED past the float range:
    the classical branch of q_exp, as (value, flags)."""
    try:
        return math.exp(x), _Q1
    except OverflowError:
        return math.inf, _Q1_POLE


def _cutoff_power(b: float, d: Deformation) -> tuple[float, frozenset[EvalFlag]]:
    """[b]_+^(1/(1-q)) for a non-classical d, as (value, flags).

    The one copy of the cutoff rule: b <= 0 gives 0 with CUTOFF_APPLIED when
    the exponent is positive (q < 1), +inf with POLE_REACHED when it is
    negative (q > 1); exponent-range overflow also gives +inf, POLE_REACHED.
    """
    if b <= 0.0:
        if d.delta > 0.0:
            return 0.0, _CUT
        return math.inf, _POLE
    try:
        return b ** d.inv_delta, _NONE
    except OverflowError:
        return math.inf, _POLE


def q_exp(x: float, d: Deformation) -> ExtendedValue:
    """q-exponential [1 + (1-q)x]_+^(1/(1-q)), total on the reals.

    Below the cutoff (bracket <= 0): returns 0 with CUTOFF_APPLIED when the
    exponent 1/(1-q) is positive (q < 1), +inf with POLE_REACHED when it is
    negative (q > 1). Exponent-range overflow also maps to +inf with
    POLE_REACHED. Classical branch: exp(x), flagged Q1_BRANCH.
    """
    if d.classical:
        return ExtendedValue(*_exp_q1(x))
    return ExtendedValue(*_cutoff_power(1.0 + d.delta * x, d))


def big_e(x: float, d: Deformation) -> float:
    """Two-sided modulus variant |1 + (1-q)x|^(1/(1-q)).

    Agrees with q_exp wherever the bracket is positive; defined on both sides
    of the pole and symmetric under x -> -2/(1-q) - x. Equals 0 at the pole
    for q < 1 and +inf there for q > 1. Classical branch: exp(x).
    """
    if d.classical:
        return _exp_q1(x)[0]
    return _cutoff_power(abs(1.0 + d.delta * x), d)[0]


def ln_big_e(x: float, d: Deformation) -> float:
    """ln E_q(x) = ln|1 + (1-q)x| / (1-q), the primal transformed coordinate.

    On the open support this is computed via log1p((1-q)x) (cancellation-safe
    near x = 0). Classical branch: x.

    Raises:
        PoleError: at x = -1/(1-q), the logarithmic singularity.
    """
    if d.classical:
        return x
    t = d.delta * x
    s = 1.0 + t
    if s == 0.0:
        raise PoleError(f"ln_big_e undefined at the pole x = {-1.0 / d.delta}")
    if s > 0.0:
        return math.log1p(t) / d.delta
    return math.log(-s) / d.delta


def q_add(x: float, y: float, d: Deformation) -> float:
    """Deformed addition x + y + (1-q)xy. 0 is the identity."""
    return x + y + d.delta * x * y


def q_sub(x: float, y: float, d: Deformation) -> float:
    """Deformed subtraction (x - y)/(1 + (1-q)y), inverse of q_add in y.

    Raises:
        PoleError: when 1 + (1-q)y = 0, where no inverse exists.
    """
    den = d.bracket(y)
    if den == 0.0:
        raise PoleError(f"q_sub undefined: 1 + (1-q)y = 0 for y = {y}")
    return (x - y) / den


def q_mul(x: float, y: float, d: Deformation) -> ExtendedValue:
    """Deformed product [x^(1-q) + y^(1-q) - 1]_+^(1/(1-q)) for x, y > 0.

    Cutoff semantics match q_exp (flagged, not raised). Classical branch: x*y.

    Raises:
        DomainError: on nonpositive arguments.
    """
    if x <= 0.0 or y <= 0.0:
        raise DomainError(f"q_mul requires positive arguments, got ({x}, {y})")
    if d.classical:
        return ExtendedValue(x * y, _Q1)
    return ExtendedValue(*_cutoff_power(x**d.delta + y**d.delta - 1.0, d))


def q_div(x: float, y: float, d: Deformation) -> ExtendedValue:
    """Deformed quotient [x^(1-q) - y^(1-q) + 1]_+^(1/(1-q)) for x, y > 0.

    Raises:
        DomainError: on nonpositive arguments.
    """
    if x <= 0.0 or y <= 0.0:
        raise DomainError(f"q_div requires positive arguments, got ({x}, {y})")
    if d.classical:
        return ExtendedValue(x / y, _Q1)
    return ExtendedValue(*_cutoff_power(x**d.delta - y**d.delta + 1.0, d))


def q_power_n(x: float, n: int, d: Deformation) -> ExtendedValue:
    """n-fold deformed power [n x^(1-q) - (n-1)]_+^(1/(1-q)), n >= 1.

    Equal to folding q_mul n times over x; the closed form is one bracket.

    Raises:
        DomainError: on x <= 0 or n < 1.
    """
    if x <= 0.0:
        raise DomainError(f"q_power_n requires x > 0, got {x}")
    if n < 1:
        raise DomainError(f"q_power_n requires n >= 1, got {n}")
    if d.classical:
        return ExtendedValue(x**n, _Q1)
    return ExtendedValue(*_cutoff_power(n * x**d.delta - (n - 1.0), d))


def q_times_n(n: int, x: float, d: Deformation) -> float:
    """n-fold deformed sum ((1 + (1-q)x)^n - 1)/(1-q), n >= 1.

    Equal to folding q_add n times over x. Uses expm1(n*log1p(delta*x)) on
    the open support for accuracy when the bracket is near 1.

    Raises:
        DomainError: on n < 1.
    """
    if n < 1:
        raise DomainError(f"q_times_n requires n >= 1, got {n}")
    if d.classical:
        return n * x
    t = d.delta * x
    if t > -1.0:
        return math.expm1(n * math.log1p(t)) / d.delta
    return ((1.0 + t) ** n - 1.0) / d.delta


def q_log_exp_of(a: float, d: Deformation) -> float:
    """ln_q(exp(a)) = (e^((1-q)a) - 1)/(1-q), without ever forming exp(a).

    This is the composition the dual q-integral needs; the expm1 form keeps
    it finite for any a whose scaled exponent fits the floating range.
    Classical branch: a.

    Raises:
        OverflowError: when (1-q)*a exceeds the representable exponent range.
    """
    if d.classical:
        return a
    return math.expm1(d.delta * a) / d.delta

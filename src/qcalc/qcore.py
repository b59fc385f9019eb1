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
from operator import attrgetter, index

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

# Tolerance defaults of qdiff.DerivConfig and qquad.QuadratureConfig, kept
# here so that the CLI can show them without importing those layers.
DERIV_REL_TOL = 1e-8
QUAD_ABS_TOL = 1e-10
QUAD_REL_TOL = 1e-8


class Record:
    """Base of qcalc's immutable record classes.

    A subclass lists its storage in ``__slots__``, which it must declare, so
    no record has a ``__dict__``. Its fields, in repr order, are ``_fields``
    (default: those slots). Equality and hashing read ``_compared``, and
    pickling and ``copy.copy`` call the class on ``_args`` (both default to
    the fields). A subclass with fields and without an ``__init__`` of its
    own gets one, generated when its first instance is made, that takes its
    fields, those in ``_defaults`` optional, and sets each slot through its
    member descriptor; one without fields takes no arguments, as ``object``
    does. Records compare as the tuples of their compared fields, only with
    records of the same class, and hash as those tuples; their repr is
    ``Class(field=value, ...)``. Assigning or deleting an attribute raises
    ``FrozenInstanceError``, the error of the standard library's frozen
    records.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__
        if "__slots__" not in own:
            raise TypeError(f"record class {cls.__qualname__} must declare __slots__")
        if "_fields" not in own:
            cls._fields = tuple(own["__slots__"])
        cls._key = staticmethod(_tuple_of(own.get("_compared", cls._fields)))
        cls._argv = staticmethod(_tuple_of(own.get("_args", cls._fields)))
        if "__init__" not in own and cls._fields:
            cls.__init__ = _first_init(cls)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        parts = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({parts})"

    def __reduce__(self):
        return self.__class__, self._argv(self)

    def __setattr__(self, name, value):
        _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        _frozen(f"cannot delete field {name!r}")


def _tuple_of(names: tuple[str, ...]):
    """A function from a record to the tuple of its attributes ``names``."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(*names)
        return lambda self: (get(self),)
    return lambda self: ()


def _first_init(cls):
    """An ``__init__`` that generates the class's own on the first instance,
    puts it in its place and runs it, so importing a record costs no exec."""
    def __init__(self, *args, **kwargs):
        init = cls.__init__ = _generated_init(cls)
        init(self, *args, **kwargs)

    __init__.__qualname__ = f"{cls.__qualname__}.__init__"
    return __init__


def _generated_init(cls):
    """``__init__(self, <fields>)`` for a record class: each field a parameter,
    defaulting to its ``_defaults`` entry, set through its slot's descriptor."""
    scope = {"_defaults": cls._defaults}
    params, body = ["self"], []
    for name in cls._fields:
        scope[f"_set_{name}"] = getattr(cls, name).__set__
        params.append(f"{name}=_defaults[{name!r}]" if name in cls._defaults else name)
        body.append(f"    _set_{name}(self, {name})\n")
    exec(f"def __init__({', '.join(params)}):\n" + "".join(body), scope)
    init = scope["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


def _frozen(message: str):
    # imported here: the error's module is costly to import, and only misuse needs it
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(message)


class Deformation(Record):
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

    __slots__ = ("q", "delta", "classical", "inv_delta")
    _fields = ("q",)

    def __init__(self, q: float) -> None:
        if not math.isfinite(q):
            raise ValueError(f"q must be finite, got {q}")
        delta = 1.0 - q
        classical = abs(delta) < Q1_EPSILON
        object.__setattr__(self, "q", q)
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


class ExtendedValue(Record):
    """A real value (possibly +inf) plus diagnostic flags.

    Invariants: +inf carries ``POLE_REACHED``; ``CUTOFF_APPLIED`` appears only
    when the bracket 1+(1-q)x was nonpositive with a positive exponent
    1/(1-q), in which case the value is exactly 0.
    """

    __slots__ = ("value", "flags")
    _defaults = {"flags": frozenset()}

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

    Computed as q_log_exp_of(ln x), that is expm1(delta*ln x)/delta, which
    stays accurate for x near 1 where the direct power cancels. Classical
    branch: ln x.

    Raises:
        DomainError: if x <= 0.
    """
    if x <= 0.0:
        raise DomainError(f"q_log requires x > 0, got {x}")
    return q_log_exp_of(math.log(x), d)


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
    if math.isinf(t):  # past the float range ln|1 + t| is ln|delta| + ln|x|
        return (math.log(abs(d.delta)) + math.log(abs(x))) / d.delta
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


def _is_integer(n) -> bool:
    """Whether n is a count: an int, or anything else operator.index takes."""
    try:
        index(n)
    except TypeError:
        return False
    return True


def q_power_n(x: float, n: int, d: Deformation) -> ExtendedValue:
    """n-fold deformed power [n x^(1-q) - (n-1)]_+^(1/(1-q)), n >= 1.

    Equal to folding q_mul n times over x; the closed form is one bracket.

    Raises:
        DomainError: on x <= 0, or a count n that is not an integer >= 1.
    """
    if x <= 0.0:
        raise DomainError(f"q_power_n requires x > 0, got {x}")
    if not _is_integer(n):
        raise DomainError(f"q_power_n requires an integer n, got {n!r}")
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
        DomainError: on a count n that is not an integer >= 1.
    """
    if not _is_integer(n):
        raise DomainError(f"q_times_n requires an integer n, got {n!r}")
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
    # the inverse chart, funcexpr's CHART_ABOVE, as a scalar: qcore sits
    # beneath funcexpr and holds no texts, so this form is its own
    if d.classical:
        return a
    return math.expm1(d.delta * a) / d.delta

"""Compiled closures against a reference tree walker, bit for bit.

The reference below is a direct recursive evaluation of the syntax tree:
what ``funcexpr`` did before trees were compiled into closures. Every
value, flag set and error of the compiled forms must equal it exactly.

The one exception is the sign of a NaN. IEEE 754 leaves it unspecified
when both operands are NaNs, and CPython's ``nan * -nan`` already gives
either sign depending on whether the interpreter has specialised the
multiplication yet, so every NaN compares equal to every other here.
"""

import math
import pickle
import struct
import sys

import pytest

from qcalc import Deformation, DomainError, evaluate, evaluate_extended, parse
from qcalc import funcexpr
from qcalc.funcexpr import BinOp, Call, Neg, Num, Var, differentiate
from qcalc.qcore import q_exp, q_log

# The table expressions of the benchmark's tables workload, plus its
# flag-exercising expressions and a few that leave their domain at once.
TABLE_POOL = (
    "x^2+3*x-1",
    "sin(x)*cos(x)",
    "exp(x/2)-1.2",
    "1/(x+3)",
    "sqrt(x+1.5)-1",
    "qexp(x/3)-1",
    "qlog(x+2)",
    "x*qexp(x/4)+sin(x)^2",
    "ln(x+2)*cos(x)",
    "(x+1)^3/(x^2+1)-0.5",
)
# qexp(x) takes every branch of its kernel over POINTS: the cutoff (q < 1), the
# pole (q > 1), bracket-power overflow (1e308 at q = 0.5) and exp overflow
# (1500 at q = 1). qlog(x) meets 0; the rest have checks a constant settles.
EXTRA = ("qexp(x)", "qexp(x)+qexp(-x)", "ln(abs(x))", "x^0.5", "0^x", "(-2)^x",
         "2^-x", "-x^2", "1/x", "qlog(x)", "x/0", "x^-1", "sqrt(-2)+x", "ln(0)*x",
         "x/4+ln(2)")
Q_VALUES = (-1.0, 0.0, 0.5, 0.9, 1.0, 1.1, 2.0)

# the domain edges of the pool (-3, -2, -1.5, 0), qexp cutoffs and poles
# of x/3, x/4 and x at every q, exp overflow, and the non-finite inputs
POINTS = sorted(
    {-3.0, -2.0, -1.5, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.2, 2.0, 3.0}
    | {s * k / (1.0 - q) for q in Q_VALUES if q != 1.0 for k in (1.0, 3.0, 4.0)
       for s in (1.0, -1.0)}
    | {-40.0, 40.0, 1500.0, -1500.0, 1e308}
) + [math.inf, -math.inf, math.nan]


def _safe_pow(base, exponent):
    if base == 0.0 and exponent < 0.0:
        raise DomainError("0 raised to a negative power")
    if base < 0.0 and not exponent.is_integer():
        raise DomainError(f"negative base {base} with non-integer exponent {exponent}")
    return math.pow(base, exponent)


def reference(node, x, flags):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return x
    if isinstance(node, Neg):
        return -reference(node.operand, x, flags)
    if isinstance(node, BinOp):
        a = reference(node.left, x, flags)
        b = reference(node.right, x, flags)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            if b == 0.0:
                raise DomainError("division by zero")
            return a / b
        return _safe_pow(a, b)
    assert isinstance(node, Call)
    v = reference(node.arg, x, flags)
    name = node.func
    if name == "ln":
        if v <= 0.0:
            raise DomainError(f"ln of non-positive value {v}")
        return math.log(v)
    if name == "exp":
        return math.exp(v)
    if name == "sin":
        return math.sin(v)
    if name == "cos":
        return math.cos(v)
    if name == "sqrt":
        if v < 0.0:
            raise DomainError(f"sqrt of negative value {v}")
        return math.sqrt(v)
    if name == "abs":
        return abs(v)
    if name == "qexp":
        ev = q_exp(v, node.deformation)
        if flags is not None:
            flags.update(ev.flags)
        return ev.value
    return q_log(v, node.deformation)


def calls(fn, *args):
    """The code objects of the frames one call of fn(*args) enters, fn's own
    included, after a first call has warmed every cache."""
    fn(*args)
    codes = []
    sys.setprofile(lambda frame, event, arg: codes.append(frame.f_code) if event == "call" else None)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return codes


def bits(value):
    return "nan" if math.isnan(value) else struct.pack("<d", value)


def outcome(fn, *args):
    """(bits, None) for a value, (type, message) for a raised error."""
    try:
        value = fn(*args)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return (bits(value), None) if isinstance(value, float) else (value, None)


def extended_reference(tree, x):
    flags = set()
    value = reference(tree, x, flags)
    return bits(value), frozenset(flags)


def extended_compiled(tree, x):
    ev = evaluate_extended(tree, x)
    return bits(ev.value), ev.flags


@pytest.mark.parametrize("q", Q_VALUES)
@pytest.mark.parametrize("text", TABLE_POOL + EXTRA)
def test_closures_match_the_reference_walker(text, q):
    tree = parse(text, Deformation(q))
    dtree = differentiate(tree)
    f = funcexpr.compile(tree)
    for x in POINTS:
        want = outcome(reference, tree, x, None)
        assert outcome(evaluate, tree, x) == want, x
        assert outcome(f.eval, x) == want, x
        assert f.domain(x) is (want[1] is None), x
        assert outcome(extended_compiled, tree, x) == outcome(extended_reference, tree, x), x
        assert outcome(f.derivative, x) == outcome(reference, dtree, x, None), x


def test_flags_cover_cutoff_pole_and_classical_branch():
    seen = set()
    for q in Q_VALUES:
        tree = parse("qexp(x)+qexp(-x)", Deformation(q))
        for x in POINTS[:-1]:
            seen |= evaluate_extended(tree, x).flags
    assert {flag.value for flag in seen} == {"CutoffApplied", "PoleReached", "Q1Branch"}


@pytest.mark.parametrize("q", Q_VALUES)
@pytest.mark.parametrize("text", ["qexp(x/3)", "qlog(x+2)", "x*qexp(x/4)+sin(x)^2"])
def test_qexp_and_qlog_on_their_normal_branch_enter_no_other_frame(text, q):
    f = parse(text, Deformation(q))._compiled
    for flags in (None, set()):
        assert [code.co_filename for code in calls(f, 0.3, flags)] == ["<qcalc expression>"]


def test_a_tree_is_compiled_once():
    tree = parse("x*qexp(x/4)+sin(x)^2", Deformation(0.5))
    evaluate(tree, 0.1)
    first = funcexpr.compile(tree).eval
    evaluate_extended(tree, 0.2)
    assert funcexpr.compile(tree).eval is first
    assert parse("x*qexp(x/4)+sin(x)^2", Deformation(0.5)) == tree  # eq ignores it


def test_an_evaluated_tree_still_pickles():
    tree = parse("x*qexp(x/4)+sin(x)^2", Deformation(0.5))
    evaluate(tree, 0.1)
    back = pickle.loads(pickle.dumps(tree))
    assert back == tree
    assert evaluate(back, 0.3) == evaluate(tree, 0.3)

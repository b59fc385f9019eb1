"""Independent reference values for the benchmark's checks.

Nothing here imports qcalc. Expressions are read by this module's own
parser for the documented grammar and evaluated in 50-digit mpmath, with
qexp/qlog defined as in ``tests/oracles/generate_frozen_values.py`` plus the
documented cutoff/pole semantics of qexp. Derivatives come from
``mpmath.diff``, integrals from ``mpmath.quad`` split at interior singular
points, and the dual integral is ``qlog(exp(A))`` of the ordinary integral A.
"""

from __future__ import annotations

import math

from mpmath import mp, mpf

mp.dps = 50

CALLS = ("ln", "exp", "sin", "cos", "sqrt", "abs", "qexp", "qlog")

CUTOFF, POLE, Q1 = "CutoffApplied", "PoleReached", "Q1Branch"


class OracleDomainError(ValueError):
    """The expression is undefined at the requested point."""


# ---------------------------------------------------------------------------
# Parser: text -> nested tuples


def _tokens(text):
    out, i, n = [], 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^()":
            out.append(ch)
            i += 1
        elif ch.isdigit() or ch == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            out.append(("num", text[i:j]))
            i = j
        elif ch.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            out.append(("name", text[i:j]))
            i = j
        else:
            raise ValueError(f"oracle cannot read {ch!r} in {text!r}")
    return out


def parse(text):
    """Parse the expression grammar into ('num'|'x'|'neg'|'bin'|'call', ...)."""
    toks = _tokens(text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take():
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def expr():
        node = term()
        while peek() in ("+", "-"):
            node = ("bin", take(), node, term())
        return node

    def term():
        node = factor()
        while peek() in ("*", "/"):
            node = ("bin", take(), node, factor())
        return node

    def factor():
        neg = peek() == "-"
        if neg:
            take()
        node = primary()
        if peek() == "^":
            take()
            node = ("bin", "^", node, factor())
        return ("neg", node) if neg else node

    def primary():
        tok = take()
        if tok == "(":
            node = expr()
            if take() != ")":
                raise ValueError(f"oracle: unbalanced parentheses in {text!r}")
            return node
        if isinstance(tok, tuple) and tok[0] == "num":
            return ("num", tok[1])
        if isinstance(tok, tuple) and tok[1] == "x":
            return ("x",)
        if isinstance(tok, tuple) and tok[1] in CALLS:
            if take() != "(":
                raise ValueError(f"oracle: call without '(' in {text!r}")
            arg = expr()
            if take() != ")":
                raise ValueError(f"oracle: unbalanced call in {text!r}")
            return ("call", tok[1], arg)
        raise ValueError(f"oracle: unexpected token {tok!r} in {text!r}")

    node = expr()
    if pos != len(toks):
        raise ValueError(f"oracle: trailing input in {text!r}")
    return node


# ---------------------------------------------------------------------------
# Evaluation


def classical(q):
    """The documented q = 1 branch rule: |1 - q| < 1e-12."""
    return abs(1.0 - q) < 1e-12


class Evaluation:
    """One evaluation: the value, the qexp flags, and the smallest |bracket|
    any qexp met (how close the point sits to a cutoff or pole)."""

    def __init__(self, q):
        self.d = 1 - mpf(q)
        self.classical = classical(q)
        self.flags = set()
        self.min_bracket = math.inf

    def run(self, node, x):
        kind = node[0]
        if kind == "num":
            return mpf(node[1])
        if kind == "x":
            return x
        if kind == "neg":
            return -self.run(node[1], x)
        if kind == "bin":
            u = self.run(node[2], x)
            v = self.run(node[3], x)
            op = node[1]
            if op == "+":
                return u + v
            if op == "-":
                return u - v
            if op == "*":
                return u * v
            if op == "/":
                if v == 0:
                    raise OracleDomainError("division by zero")
                return u / v
            if u == 0 and v < 0:
                raise OracleDomainError("0 to a negative power")
            if u < 0 and v != mp.nint(v):
                raise OracleDomainError("negative base, fractional power")
            return mp.power(u, v)
        name, v = node[1], self.run(node[2], x)
        if name == "ln":
            if v <= 0:
                raise OracleDomainError("ln of non-positive value")
            return mp.log(v)
        if name == "exp":
            return mp.exp(v)
        if name == "sin":
            return mp.sin(v)
        if name == "cos":
            return mp.cos(v)
        if name == "sqrt":
            if v < 0:
                raise OracleDomainError("sqrt of negative value")
            return mp.sqrt(v)
        if name == "abs":
            return abs(v)
        if name == "qlog":
            return self.qlog(v)
        return self.qexp(v)

    def qlog(self, v):
        if v <= 0:
            raise OracleDomainError("qlog of non-positive value")
        if self.classical:
            return mp.log(v)
        return (mp.power(v, self.d) - 1) / self.d

    def qexp(self, v):
        if self.classical:
            self.flags.add(Q1)
            return mp.exp(v)
        s = 1 + self.d * v
        self.min_bracket = min(self.min_bracket, abs(float(s)))
        if s <= 0:
            if self.d > 0:
                self.flags.add(CUTOFF)
                return mpf(0)
            self.flags.add(POLE)
            return mp.inf
        return mp.power(s, 1 / self.d)


def evaluate(tree, q, x):
    """(value, flags, min_bracket) of the tree at x; OracleDomainError if undefined."""
    ev = Evaluation(q)
    value = ev.run(tree, mpf(x))
    return value, frozenset(ev.flags), ev.min_bracket


def scan(tree, q, x):
    """(float value, flags, min_bracket) for admissibility scans; None where undefined."""
    try:
        v, flags, margin = evaluate(tree, q, x)
    except OracleDomainError:
        return None
    return float(v), flags, margin


def value(tree, q, x):
    return evaluate(tree, q, x)[0]


# ---------------------------------------------------------------------------
# Derived quantities: q-derivatives, tangents, integrals


def delta(q):
    return 1 - mpf(q)


def ln_big_e(x, q):
    if classical(q):
        return mpf(x)
    return mp.log(abs(1 + delta(q) * x)) / delta(q)


def qlog_exp_of(a, q):
    """qlog(exp(a)) = (e^(delta a) - 1)/delta."""
    if classical(q):
        return a
    return mp.expm1(delta(q) * a) / delta(q)


def q_sub(x, y, q):
    if classical(q):
        return x - y
    return (x - y) / (1 + delta(q) * y)


def derivative(tree, q, x):
    """Ordinary f'(x) by mpmath.diff at 50 digits."""
    return mp.diff(lambda t: value(tree, q, t), mpf(x))


def primal_qderiv(tree, q, x):
    return (1 + delta(q) * x) * derivative(tree, q, x)


def dual_qderiv(tree, q, x):
    return derivative(tree, q, x) / (1 + delta(q) * value(tree, q, x))


def primal_tangent(tree, q, x0):
    """(slope, intercept, scale) of the primal tangent line at x0."""
    k = primal_qderiv(tree, q, x0)
    f0 = value(tree, q, x0)
    term = k * ln_big_e(x0, q)
    return k, f0 - term, max(abs(f0), abs(term))


def dual_tangent(tree, q, x0):
    """(slope, intercept, scale) of the dual tangent line at x0."""
    k = dual_qderiv(tree, q, x0)
    f0 = value(tree, q, x0)
    ramp = qlog_exp_of(k * x0, q)
    return k, q_sub(f0, ramp, q), max(abs(f0), abs(ramp))


def dual_line(slope, intercept, q, x):
    """Value of the dual q-line qlog(exp(k x)) (+)_q intercept."""
    a = qlog_exp_of(mpf(slope) * x, q)
    return a + intercept + delta(q) * a * intercept


def primal_line(slope, intercept, q, x):
    return mpf(slope) * ln_big_e(x, q) + intercept


def _quad(fn, lo, hi, splits):
    lo, hi = mpf(lo), mpf(hi)
    pts = [lo] + sorted(mpf(s) for s in splits if lo < s < hi) + [hi]
    return mp.quad(fn, pts)


def integral(tree, q, mode, lo, hi, splits=()):
    """Reference value of an integrate mode, plus the inner ordinary integral.

    primal: int f/(1 + delta x); dual: qlog(exp(int f)); borges-dual:
    int (1 + delta f) f. Returns (value, inner) where inner is the ordinary
    integral the dual form composes (None for the other modes).
    """
    d = delta(q)
    if mode == "primal":
        if classical(q):
            return _quad(lambda t: value(tree, q, t), lo, hi, splits), None
        return _quad(lambda t: value(tree, q, t) / (1 + d * t), lo, hi, splits), None
    if mode == "dual":
        a = _quad(lambda t: value(tree, q, t), lo, hi, splits)
        return qlog_exp_of(a, q), a

    def g(t):
        y = value(tree, q, t)
        return (1 + d * y) * y

    return _quad(g, lo, hi, splits), None

"""Real-valued functions from text: a small expression language.

Grammar (whitespace-insensitive)::

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-'? primary ('^' factor)?      -- '^' right-associative
    primary := NUMBER | 'x' | IDENT '(' expr ')' | '(' expr ')'
    NUMBER  := decimal literal with optional fraction and exponent
    IDENT   := ln | exp | sin | cos | sqrt | abs | qexp | qlog

Exponentiation binds tighter than unary minus on its base: ``-x^2`` is
``-(x^2)``, and ``2^-3`` is legal. ``qexp``/``qlog`` evaluate with the
deformation supplied at parse time. Parse failures carry the UTF-8 byte
offset of the offending input and the set of tokens that would have been
legal there.

:func:`compile` turns a tree into a :class:`RealFunction`: an evaluator, a
symbolically differentiated ordinary derivative, and a domain predicate.
:func:`builtin` provides the same wrapper for a handful of named functions
with exact analytic derivatives.
"""

from __future__ import annotations

import builtins
import math
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from typing import Callable, NoReturn, Optional, Union

from .errors import EVAL_ERRORS, DomainError, ParseError, PoleError, UnknownBuiltinError
from .qcore import (
    Deformation,
    EvalFlag,
    ExtendedValue,
    _cutoff_power,
    _exp_q1,
    big_e,
    ln_big_e,
    q_exp,
    q_log,
)

__all__ = [
    "RealFunction",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "Expr",
    "parse",
    "to_text",
    "compile",
    "builtin",
    "evaluate",
    "evaluate_extended",
    "BUILTIN_NAMES",
    "CALL_NAMES",
]


@dataclass(frozen=True)
class RealFunction:
    """An evaluatable real function of one real variable.

    Attributes:
        eval: the function itself.
        derivative: optional ordinary derivative x -> f'(x).
        domain: predicate, True on the open set where eval is defined; if its
            ``by_evaluation`` is true, exactly where eval raises no EVAL_ERRORS.
        label: human-readable description (expression text for parsed input).
    """

    eval: Callable[[float], float]
    derivative: Optional[Callable[[float], float]] = None
    domain: Callable[[float], bool] = lambda x: True
    label: str = ""

    def __call__(self, x: float) -> float:
        return self.eval(x)


# ---------------------------------------------------------------------------
# Syntax tree


class _Node:
    @cached_property
    def _compiled(self) -> Callable[..., float]:
        """The tree as one generated function (see Evaluation), built on first use."""
        return _generate(self)

    def __getstate__(self):  # generated functions do not pickle; rebuilt on use
        return {k: v for k, v in vars(self).items() if k != "_compiled"}


@dataclass(frozen=True)
class Num(_Node):
    value: float


@dataclass(frozen=True)
class Var(_Node):
    pass


@dataclass(frozen=True)
class Neg(_Node):
    operand: "Expr"


@dataclass(frozen=True)
class BinOp(_Node):
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call(_Node):
    func: str
    arg: "Expr"
    deformation: Optional[Deformation] = None  # bound for qexp/qlog


Expr = Union[Num, Var, Neg, BinOp, Call]

CALL_NAMES = ("ln", "exp", "sin", "cos", "sqrt", "abs", "qexp", "qlog")
_DEFORMED_CALLS = ("qexp", "qlog")


# ---------------------------------------------------------------------------
# Tokenizer / parser

_T_NUM = "number"
_T_IDENT = "identifier"
_T_OP = "operator"
_T_END = "end of input"


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos  # character offset into the source


_DIGITS = frozenset("0123456789")  # ASCII only: str.isdigit() also takes '²', '١'


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append(_Token(_T_OP, ch, i))
            i += 1
            continue
        if ch in _DIGITS or (ch == "." and i + 1 < n and text[i + 1] in _DIGITS):
            start = i
            while i < n and text[i] in _DIGITS:
                i += 1
            if i < n and text[i] == ".":
                i += 1
                while i < n and text[i] in _DIGITS:
                    i += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j] in _DIGITS:
                    i = j
                    while i < n and text[i] in _DIGITS:
                        i += 1
            tokens.append(_Token(_T_NUM, text[start:i], start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token(_T_IDENT, text[start:i], start))
            continue
        raise ParseError(
            f"illegal character {ch!r}",
            _byte_offset(text, i),
            ("number", "'x'", "function name", "'('"),
        )
    tokens.append(_Token(_T_END, "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, d: Deformation):
        self.text = text
        self.d = d
        self.tokens = _tokenize(text)
        self.i = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def _fail(self, expected: tuple[str, ...]) -> NoReturn:
        tok = self.cur
        what = tok.kind if tok.kind == _T_END else f"{tok.text!r}"
        raise ParseError(
            f"unexpected {what}", _byte_offset(self.text, tok.pos), expected
        )

    def _accept_op(self, *ops: str) -> Optional[str]:
        if self.cur.kind == _T_OP and self.cur.text in ops:
            op = self.cur.text
            self.i += 1
            return op
        return None

    def _expect_op(self, op: str):
        if not self._accept_op(op):
            self._fail((f"'{op}'",))

    def parse(self) -> Expr:
        node = self.expr()
        if self.cur.kind != _T_END:
            self._fail(("'+'", "'-'", "'*'", "'/'", "'^'", "end of input"))
        return node

    def expr(self) -> Expr:
        node = self.term()
        while (op := self._accept_op("+", "-")) is not None:
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while (op := self._accept_op("*", "/")) is not None:
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Expr:
        # '-'? primary ('^' factor)?  with '^' binding tighter than the minus
        negated = self._accept_op("-") is not None
        node = self.primary()
        if self._accept_op("^"):
            node = BinOp("^", node, self.factor())
        return Neg(node) if negated else node

    def primary(self) -> Expr:
        tok = self.cur
        if tok.kind == _T_NUM:
            self.i += 1
            return Num(float(tok.text))
        if tok.kind == _T_IDENT:
            if tok.text == "x":
                self.i += 1
                return Var()
            if tok.text not in CALL_NAMES:
                raise ParseError(
                    f"unknown function {tok.text!r}",
                    _byte_offset(self.text, tok.pos),
                    tuple(CALL_NAMES) + ("'x'",),
                )
            name = tok.text
            self.i += 1
            self._expect_op("(")
            arg = self.expr()
            self._expect_op(")")
            d = self.d if name in _DEFORMED_CALLS else None
            return Call(name, arg, d)
        if self._accept_op("("):
            node = self.expr()
            self._expect_op(")")
            return node
        self._fail(("number", "'x'", "function name", "'('"))


def parse(text: str, d: Deformation) -> Expr:
    """Parse expression text; qexp/qlog bind the supplied deformation.

    Raises:
        ParseError: with the UTF-8 byte offset and expected-token set.
    """
    return _Parser(text, d).parse()


# ---------------------------------------------------------------------------
# Pretty printer (minimal parentheses; print -> parse is the identity)

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _render(node: Expr, min_prec: int) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Call):
        return f"{node.func}({_render(node.arg, _PREC_ADD)})"
    if isinstance(node, Neg):
        body = "-" + _render(node.operand, _PREC_POW)
        return f"({body})" if _PREC_NEG < min_prec else body
    assert isinstance(node, BinOp)
    if node.op == "^":
        prec = _PREC_POW
        body = _render(node.left, _PREC_ATOM) + "^" + _render(node.right, _PREC_NEG)
    else:
        prec = _PREC_ADD if node.op in "+-" else _PREC_MUL
        body = _render(node.left, prec) + node.op + _render(node.right, prec + 1)
    return f"({body})" if prec < min_prec else body


def to_text(node: Expr) -> str:
    """Render a tree to expression text that re-parses to the same tree."""
    return _render(node, _PREC_ADD)


# ---------------------------------------------------------------------------
# Evaluation: a tree is compiled once into one straight-line function
# f(x, flags=None); qexp nodes add their diagnostics to flags when it is a
# set. Each operation node gets a local t<i>, assigned in post-order with
# operands left to right, and the check of ln, sqrt, / and ^ is a statement
# just before its operation. Constants and the qexp/qlog kernels are
# parameters of a factory that returns f, so no expression text reaches the
# source, and trees of one shape share one compiled factory.

def _qexp_kernel(d: Deformation) -> Callable[[float, Optional[set]], float]:
    classical, delta = d.classical, d.delta

    def qexp(v, flags):  # q_exp's two branches, without its ExtendedValue
        v, vflags = _exp_q1(v) if classical else _cutoff_power(1.0 + delta * v, d)
        if flags is not None:
            flags.update(vflags)
        return v

    return qexp


def _qlog_kernel(d: Deformation) -> Callable[[float], float]:
    classical, delta = d.classical, d.delta

    def qlog(v):  # q_log with delta bound
        if v <= 0.0:
            raise DomainError(f"q_log requires x > 0, got {v}")
        return math.log(v) if classical else math.expm1(delta * math.log(v)) / delta

    return qlog


_GLOBALS = {"exp": math.exp, "sin": math.sin, "cos": math.cos, "log": math.log,
            "sqrt": math.sqrt, "math_pow": math.pow, "DomainError": DomainError}
# per operator or function: the expression, and the checks (condition,
# message) that precede it, as templates over the operand names
_TEMPLATES = {"+": "{} + {}", "-": "{} - {}", "*": "{} * {}", "/": "{} / {}",
              "^": "math_pow({}, {})", "ln": "log({})", "exp": "exp({})",
              "sin": "sin({})", "cos": "cos({})", "sqrt": "sqrt({})", "abs": "abs({})"}
_CHECKS = {
    "/": (("{1} == 0.0", '"division by zero"'),),
    "^": (("{0} == 0.0 and {1} < 0.0", '"0 raised to a negative power"'),
          ("{0} < 0.0 and not {1}.is_integer()",
           'f"negative base {{{0}}} with non-integer exponent {{{1}}}"')),
    "ln": (("{0} <= 0.0", 'f"ln of non-positive value {{{0}}}"'),),
    "sqrt": (("{0} < 0.0", 'f"sqrt of negative value {{{0}}}"'),),
}


class _Source:
    """The statements of one tree's function and the values its names bind."""

    def __init__(self, root: Expr):
        self.lines: list[str] = []
        self.params: list[str] = []
        self.values: list[object] = []
        self.result = self.emit(root)

    def bind(self, prefix: str, value: object) -> str:
        self.params.append(f"{prefix}{len(self.params)}")
        self.values.append(value)
        return self.params[-1]

    def assign(self, expression: str) -> str:
        name = f"t{len(self.lines)}"
        self.lines.append(f"{name} = {expression}")
        return name

    def emit(self, node: Expr) -> str:
        """Append the statements computing node; return the name of its value."""
        if isinstance(node, Var):
            return "x"
        if isinstance(node, Num):
            return self.bind("c", node.value)
        if isinstance(node, Neg):
            return self.assign(f"-{self.emit(node.operand)}")
        if isinstance(node, BinOp):
            key, operands = node.op, (self.emit(node.left), self.emit(node.right))
        else:
            key, operands = node.func, (self.emit(node.arg),)
            if key == "qexp":
                return self.assign(f"{self.bind('k', _qexp_kernel(node.deformation))}"
                                   f"({operands[0]}, flags)")
            if key == "qlog":
                return self.assign(f"{self.bind('k', _qlog_kernel(node.deformation))}"
                                   f"({operands[0]})")
        template = _TEMPLATES[key]
        for condition, message in _CHECKS.get(key, ()):
            self.lines.append(f"if {condition.format(*operands)}: "
                              f"raise DomainError({message.format(*operands)})")
        return self.assign(template.format(*operands))

    def text(self) -> str:
        body = "".join(f"        {line}\n" for line in self.lines)
        return (f"def factory({', '.join(self.params)}):\n"
                f"    def f(x, flags=None):\n{body}        return {self.result}\n"
                f"    return f\n")


@lru_cache(maxsize=256)
def _factory(source: str) -> Callable[..., Callable[..., float]]:
    scope = dict(_GLOBALS)
    exec(builtins.compile(source, "<qcalc expression>", "exec"), scope)
    return scope["factory"]


def _generate(node: Expr) -> Callable[..., float]:
    source = _Source(node)
    return _factory(source.text())(*source.values)


def evaluate(node: Expr, x: float) -> float:
    """Evaluate the tree at x. Raises DomainError outside the domain."""
    return node._compiled(x)


def evaluate_extended(node: Expr, x: float) -> ExtendedValue:
    """Evaluate collecting cutoff/pole/limit-branch diagnostics."""
    flags: set[EvalFlag] = set()
    value = node._compiled(x, flags)
    return ExtendedValue(value, frozenset(flags))


# ---------------------------------------------------------------------------
# Symbolic differentiation (smart constructors fold the trivial cases)

def _is_num(node: Expr, value: Optional[float] = None) -> bool:
    return isinstance(node, Num) and (value is None or node.value == value)


def _num(v: float) -> Expr:
    # negative constants are represented as Neg(Num) so printed trees re-parse
    # to the identical structure (literals are unsigned in the grammar)
    if v < 0.0:
        return Neg(Num(-v))
    return Num(v)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Num):
        return _num(-a.value) if a.value != 0.0 else Num(0.0)
    if isinstance(a, Neg):
        return a.operand
    return Neg(a)


def _add(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return _num(a.value + b.value)
    return BinOp("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return _neg(b)
    if isinstance(a, Num) and isinstance(b, Num):
        return _num(a.value - b.value)
    return BinOp("-", a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return _num(a.value * b.value)
    return BinOp("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0):
        return Num(0.0)
    if _is_num(b, 1.0):
        return a
    return BinOp("/", a, b)


def _pow(a: Expr, b: Expr) -> Expr:
    if _is_num(b, 0.0):
        return Num(1.0)
    if _is_num(b, 1.0):
        return a
    return BinOp("^", a, b)


def _const_value(node: Expr) -> Optional[float]:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Neg):
        inner = _const_value(node.operand)
        return None if inner is None else -inner
    return None


def differentiate(node: Expr) -> Expr:
    """Symbolic d/dx of the tree; every node kind is closed under it."""
    if isinstance(node, Num):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0)
    if isinstance(node, Neg):
        return _neg(differentiate(node.operand))
    if isinstance(node, BinOp):
        u, v = node.left, node.right
        du, dv = differentiate(u), differentiate(v)
        if node.op == "+":
            return _add(du, dv)
        if node.op == "-":
            return _sub(du, dv)
        if node.op == "*":
            return _add(_mul(du, v), _mul(u, dv))
        if node.op == "/":
            return _div(_sub(_mul(du, v), _mul(u, dv)), _mul(v, v))
        # u^v: power rule for constant exponent, else exponential form
        c = _const_value(v)
        if c is not None:
            return _mul(_mul(_num(c), _pow(u, _num(c - 1.0))), du)
        return _mul(
            _pow(u, v), _add(_mul(dv, Call("ln", u)), _div(_mul(v, du), u))
        )
    assert isinstance(node, Call)
    u, du = node.arg, differentiate(node.arg)
    name = node.func
    if name == "ln":
        return _div(du, u)
    if name == "exp":
        return _mul(Call("exp", u), du)
    if name == "sin":
        return _mul(Call("cos", u), du)
    if name == "cos":
        return _neg(_mul(Call("sin", u), du))
    if name == "sqrt":
        return _div(du, _mul(_num(2.0), Call("sqrt", u)))
    if name == "abs":
        # sign(u) * du away from u = 0
        return _mul(_div(Call("abs", u), u), du)
    d = node.deformation
    if name == "qexp":
        # d/dx e_q(u) = (1 + (1-q)u)^(q/(1-q)) u' = e_q(u)^q u'
        if d.classical:
            return _mul(Call("qexp", u, d), du)
        return _mul(_pow(Call("qexp", u, d), _num(d.q)), du)
    assert name == "qlog"
    # d/dx ln_q(u) = u^(-q) u'
    if d.classical:
        return _div(du, u)
    return _mul(_pow(u, _num(-d.q)), du)


# ---------------------------------------------------------------------------
# Compilation

def compile(ast: Expr) -> RealFunction:  # noqa: A001 - mirrors re.compile
    """Wrap a tree as a RealFunction with a synthesized ordinary derivative.

    The domain predicate reports True exactly where evaluation succeeds
    (``by_evaluation``); the derivative is derived on its first call.
    """
    fn, dast = ast._compiled, cache(lambda: differentiate(ast))

    def domain(x: float) -> bool:
        try:
            fn(x)
        except EVAL_ERRORS:
            return False
        return True

    domain.by_evaluation = True
    return RealFunction(
        eval=fn, derivative=lambda x: evaluate(dast(), x), domain=domain, label=to_text(ast)
    )


def _builtin_qexp(d: Deformation) -> RealFunction:
    def dfn(x: float) -> float:
        if d.classical:
            return math.exp(x)
        s = d.bracket(x)
        if s > 0.0:
            return s ** (d.q / d.delta)
        if d.delta > 0.0:
            return 0.0  # flat on the cutoff region
        raise PoleError("derivative undefined at/beyond the pole for q > 1")

    return RealFunction(eval=lambda x: q_exp(x, d).value, derivative=dfn, label="qexp")


def _builtin_qlog(d: Deformation) -> RealFunction:
    def dfn(x: float) -> float:
        if x <= 0.0:
            raise DomainError(f"qlog derivative requires x > 0, got {x}")
        return x ** (-d.q)

    return RealFunction(
        eval=lambda x: q_log(x, d), derivative=dfn, domain=lambda x: x > 0.0, label="qlog"
    )


def _builtin_big_e(d: Deformation) -> RealFunction:
    def dfn(x: float) -> float:
        if d.classical:
            return math.exp(x)
        s = d.bracket(x)
        if s == 0.0:
            raise PoleError("derivative undefined at the pole")
        sign = 1.0 if s > 0.0 else -1.0
        return sign * abs(s) ** (d.q / d.delta)

    return RealFunction(eval=lambda x: big_e(x, d), derivative=dfn, label="bigE")


def _builtin_ln_big_e(d: Deformation) -> RealFunction:
    def dfn(x: float) -> float:
        s = d.bracket(x)
        if s == 0.0:
            raise PoleError("derivative undefined at the pole")
        return 1.0 / s

    return RealFunction(
        eval=lambda x: ln_big_e(x, d), derivative=dfn,
        domain=lambda x: d.bracket(x) != 0.0, label="lnBigE",
    )


def _builtin_recip(d: Deformation) -> RealFunction:
    def fn(x: float) -> float:
        if x == 0.0:
            raise DomainError("recip undefined at 0")
        return 1.0 / x

    return RealFunction(
        eval=fn,
        derivative=lambda x: -1.0 / (x * x),
        domain=lambda x: x != 0.0,
        label="recip",
    )


def _builtin_identity(d: Deformation) -> RealFunction:
    return RealFunction(eval=lambda x: x, derivative=lambda x: 1.0, label="identity")


_BUILTINS: dict[str, Callable[[Deformation], RealFunction]] = {
    "qexp": _builtin_qexp,
    "qlog": _builtin_qlog,
    "bigE": _builtin_big_e,
    "lnBigE": _builtin_ln_big_e,
    "recip": _builtin_recip,
    "identity": _builtin_identity,
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def builtin(name: str, d: Deformation) -> RealFunction:
    """Named function with exact analytic derivative attached.

    Raises:
        UnknownBuiltinError: if name is not one of BUILTIN_NAMES.
    """
    if name not in _BUILTINS:
        raise UnknownBuiltinError(
            f"unknown builtin {name!r}; expected one of {', '.join(BUILTIN_NAMES)}"
        )
    return _BUILTINS[name](d)

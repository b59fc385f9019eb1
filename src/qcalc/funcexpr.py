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
symbolically differentiated ordinary derivative, and no domain predicate:
it is defined where evaluation succeeds. :func:`builtin` names a handful of
expressions, compiled with their derivatives. :func:`point_loop` compiles a
caller's loop text (qquad's Kronrod panel, qdiff's numeric-derivative point)
over a compiled tree's statements, once per tree and text.
"""

from __future__ import annotations

import builtins
import math
from collections.abc import Callable
from functools import cache, lru_cache

from .errors import EVAL_ERRORS, DomainError, ParseError, PoleError, UnknownBuiltinError
from .qcore import (
    Deformation,
    EvalFlag,
    ExtendedValue,
    Record,
    _Q1,
    _cutoff_power,
    _exp_q1,
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


class RealFunction(Record):
    """An evaluatable real function of one real variable.

    Attributes:
        eval: the function itself.
        derivative: optional ordinary derivative x -> f'(x).
        domain: predicate, True on the open set where eval is defined; None
            (the default) means exactly where eval raises no EVAL_ERRORS.
        label: human-readable description (expression text for parsed input).

    ``stencils`` keeps the point functions made from f on first use:
    qdiff's numeric-derivative points by (operator, q), qquad's Kronrod
    panels by (weight, chart, delta) and its tanh-sinh step sums by
    ("tanh-sinh", weight, chart, delta); it takes no part in equality, and
    a copy or an unpickled f starts with an empty one.
    """

    __slots__ = ("eval", "derivative", "domain", "label", "stencils")
    _fields = ("eval", "derivative", "domain", "label")

    def __init__(
        self,
        eval: Callable[[float], float],  # noqa: A002 - the field's name
        derivative: Callable[[float], float] | None = None,
        domain: Callable[[float], bool] | None = None,
        label: str = "",
    ) -> None:
        object.__setattr__(self, "eval", eval)
        object.__setattr__(self, "derivative", derivative)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "stencils", {})

    def __call__(self, x: float) -> float:
        return self.eval(x)

    def defined(self, x: float) -> bool:
        """Whether x is in f's domain: the predicate's answer, or without one,
        whether eval succeeds at x."""
        if self.domain is not None:
            return self.domain(x)
        try:
            self.eval(x)
        except EVAL_ERRORS:
            return False
        return True


# ---------------------------------------------------------------------------
# Syntax tree


class _Node(Record):
    """Base of the tree nodes. No pass over a tree recurses: ``==``, ``hash``,
    ``repr`` and pickling keep their own stacks, as the passes below do, and
    give the values of the nested frozen dataclasses that the nodes replaced.
    ``_operands`` are the positions in ``_fields`` that hold subtrees."""

    # _compiled: the tree as one generated function (see Evaluation), set by
    # its first evaluation; it is no field, and a pickled or copied tree
    # starts without it
    __slots__ = ("_compiled",)
    _fields = ()
    _operands: tuple[int, ...] = ()

    def __eq__(self, other):
        """Same class and equal fields, compared as tuples compare them (an
        identical value is equal); a pair of subtrees is compared once."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        todo, seen = [(self, other)], set()
        while todo:
            a, b = todo.pop()
            for u, v in zip(a._key(a), b._key(b)):
                if u is v:
                    continue
                if u.__class__ is v.__class__ and isinstance(u, _Node):
                    if (id(u), id(v)) not in seen:
                        seen.add((id(u), id(v)))
                        todo.append((u, v))
                elif not u == v:
                    return False
        return True

    def __hash__(self):
        """The hash of the tuple of fields, each subtree standing in by its hash."""
        return _post_order(self, Record.__hash__, lambda node, *hashes: hash(
            _substituted(node._key(node), node._operands, map(_Hashed, hashes))))

    def __repr__(self):
        out, todo = [], [self]  # todo: nodes to print, and text
        while todo:
            item = todo.pop()
            if not isinstance(item, _Node):
                out.append(item)
                continue
            parts = []
            for name in item._fields:
                value = getattr(item, name)
                parts += (", ", f"{name}=", value if isinstance(value, _Node) else repr(value))
            out.append(f"{item.__class__.__qualname__}(")
            todo += (")", *reversed(parts[1:]))
        return "".join(out)

    def __reduce__(self):
        """Pickle and copy as a flat list: each distinct node once, after its
        operands, as its class and its fields, each operand the index of its
        entry; ``_build`` makes the tree again."""
        entries = []

        def entry(node, *operands):
            fields = _substituted(node._key(node), node._operands, operands)
            entries.append((node.__class__, fields))
            return len(entries) - 1

        _post_order(self, entry, entry)
        return _build, (entries,)


class Num(_Node):
    __slots__ = ("value",)


class Var(_Node):
    __slots__ = ()


class Neg(_Node):
    __slots__ = ("operand",)
    _operands = (0,)


class BinOp(_Node):
    __slots__ = ("op", "left", "right")  # op: one of + - * / ^
    _operands = (1, 2)


class Call(_Node):
    __slots__ = ("func", "arg", "deformation")  # deformation: bound for qexp/qexp'/qlog
    _operands = (1,)
    _defaults = {"deformation": None}


Expr = Num | Var | Neg | BinOp | Call

CALL_NAMES = ("ln", "exp", "sin", "cos", "sqrt", "abs", "qexp", "qlog")
_DEFORMED_CALLS = ("qexp", "qlog")


# ---------------------------------------------------------------------------
# Tokenizer / parser

_T_NUM = "number"
_T_IDENT = "identifier"
_T_OP = "operator"
_T_END = "end of input"

# binding powers of the operators, read by the parser and the printer
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


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

    def _fail(self, expected: tuple[str, ...]):
        """Raise the ParseError of an unexpected token at the cursor."""
        tok = self.cur
        what = tok.kind if tok.kind == _T_END else f"{tok.text!r}"
        raise ParseError(
            f"unexpected {what}", _byte_offset(self.text, tok.pos), expected
        )

    def _accept_op(self, *ops: str) -> str | None:
        if self.cur.kind == _T_OP and self.cur.text in ops:
            op = self.cur.text
            self.i += 1
            return op
        return None

    def _expect_op(self, op: str):
        if not self._accept_op(op):
            self._fail((f"'{op}'",))

    def parse(self) -> Expr:
        """An operator-precedence parse (shunting-yard) over two stacks: one
        of operands, and one of operators with a marker per open parenthesis
        or call. An operator first applies the stacked ones that bind at
        least as tightly (only tighter ones for '^', which groups to the
        right); a ')' or the end of input applies the rest of its group. The
        trees, and the order in which tokens are read and errors raised, are
        those of the grammar's recursive descent, and nesting depth is not
        bounded by the interpreter's recursion limit."""
        operands: list[Expr] = []
        ops: list = []  # _PREC keys, and (call name or None, deformation) markers
        while True:
            if self._accept_op("-"):
                ops.append("neg")
            tok = self.cur
            if tok.kind == _T_IDENT and tok.text != "x":  # a call opens a group
                if tok.text not in CALL_NAMES:
                    raise ParseError(
                        f"unknown function {tok.text!r}",
                        _byte_offset(self.text, tok.pos),
                        tuple(CALL_NAMES) + ("'x'",),
                    )
                self.i += 1
                self._expect_op("(")
                ops.append((tok.text, self.d if tok.text in _DEFORMED_CALLS else None))
                continue
            if self._accept_op("("):
                ops.append((None, None))
                continue
            if tok.kind not in (_T_NUM, _T_IDENT):
                self._fail(("number", "'x'", "function name", "'('"))
            self.i += 1
            operands.append(Var() if tok.kind == _T_IDENT else Num(float(tok.text)))
            while True:  # an operand ended: apply what binds at least as tightly as what follows
                tok = self.cur
                op = tok.text if tok.kind == _T_OP and tok.text in _PREC else None
                least = 0 if op is None else _PREC[op] + (op == "^")  # '^' groups right
                while ops and type(ops[-1]) is str and _PREC[ops[-1]] >= least:
                    top = ops.pop()
                    if top == "neg":
                        operands[-1] = Neg(operands[-1])
                    else:
                        right = operands.pop()
                        operands[-1] = BinOp(top, operands[-1], right)
                if op is not None:
                    self.i += 1
                    ops.append(op)
                    break
                if not ops:
                    if tok.kind != _T_END:
                        self._fail(("'+'", "'-'", "'*'", "'/'", "'^'", "end of input"))
                    return operands[0]
                self._expect_op(")")
                name, d = ops.pop()
                if name is not None:
                    operands[-1] = Call(name, operands[-1], d)


def parse(text: str, d: Deformation) -> Expr:
    """Parse expression text; qexp/qlog bind the supplied deformation.

    Raises:
        ParseError: with the UTF-8 byte offset and expected-token set.
    """
    return _Parser(text, d).parse()


# ---------------------------------------------------------------------------
# Tree passes (the printer, the derivative, the code generator, and a node's
# ==, hash, repr and pickling) keep their own stacks, so a tree's depth is not
# bounded by the recursion limit.

def _post_order(root: Expr, leaf: Callable, combine: Callable):
    """leaf(node) for a node without operands, combine(node, *results) for
    the others; operands left to right, each before its parent.

    A node object met again (derivative trees share their operands' subtrees)
    reuses its first result, so a pass costs the number of distinct nodes,
    which a derivative keeps linear in the size of its tree.
    """
    done: dict[int, object] = {}
    results: list = []
    todo: list = [root]  # nodes to visit, and (node, arity) to combine
    while todo:
        node = todo.pop()
        if type(node) is tuple:
            node, arity = node
            operands = results[-arity:]
            del results[-arity:]
            value = done[id(node)] = combine(node, *operands)
        elif id(node) in done:
            value = done[id(node)]
        elif type(node) is BinOp:
            todo += ((node, 2), node.right, node.left)
            continue
        elif type(node) is Neg:
            todo += ((node, 1), node.operand)
            continue
        elif type(node) is Call:
            todo += ((node, 1), node.arg)
            continue
        else:
            value = done[id(node)] = leaf(node)
        results.append(value)
    return results[0]


def _substituted(values: tuple, at: tuple[int, ...], new) -> tuple:
    """values with those at the positions ``at`` replaced by ``new``, in order."""
    values = list(values)
    for i, value in zip(at, new):
        values[i] = value
    return tuple(values)


class _Hashed:
    """Stands in for a subtree in its parent's field tuple and hashes as the
    subtree does (an int hashes as itself only below 2**61 - 1)."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __hash__(self):
        return self.value


def _build(entries: list) -> Expr:
    """The tree that ``_Node.__reduce__`` wrote as ``entries``."""
    built: list = []
    for cls, values in entries:
        at = cls._operands
        built.append(cls(*_substituted(values, at, [built[values[i]] for i in at])))
    return built[-1]


# ---------------------------------------------------------------------------
# Pretty printer (minimal parentheses; print -> parse is the identity)

_ATOM = 5  # a number, x or a call: binds tighter than any operator in _PREC


def to_text(node: Expr) -> str:
    """Render a tree to expression text that re-parses to the same tree."""
    out: list[str] = []
    todo: list = [(node, 0)]  # (node, least precedence it may show), or text
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, min_prec = item
        if isinstance(node, Num):
            out.append(repr(node.value))
        elif isinstance(node, Var):
            out.append("x")
        elif isinstance(node, Call):
            out.append(f"{node.func}(")
            todo += (")", (node.arg, 0))
        elif isinstance(node, Neg):
            wrap = _PREC["neg"] < min_prec
            out.append("(-" if wrap else "-")
            todo += (")", (node.operand, _PREC["^"])) if wrap else ((node.operand, _PREC["^"]),)
        else:
            prec = _PREC[node.op]
            left, right = (_ATOM, _PREC["neg"]) if node.op == "^" else (prec, prec + 1)
            wrap = prec < min_prec
            if wrap:
                out.append("(")
                todo.append(")")
            todo += ((node.right, right), node.op, (node.left, left))
    return "".join(out)


# ---------------------------------------------------------------------------
# Evaluation: a tree is compiled once into one straight-line function
# f(x, flags=None); qexp nodes add their diagnostics to flags when it is a
# set. Each operation node gets a local t<i>, assigned in post-order with
# operands left to right, and the check of ln, sqrt, qlog, / and ^ is a
# statement just before its operation, left out when a constant operand
# settles it as false (x/4, x^2; not x/0, x^-1, x^0.5). A node object that
# occurs twice (as in derivative trees) is computed once. qexp is the bracket
# power (exp on the classical branch) and calls its kernel only on the cutoff,
# pole and overflow branches (its derivative qexp', which only derivative trees
# hold, writes them inline); qlog is expm1(delta*log(v))/delta. Constants and
# kernels are parameters of a factory that returns f, so no expression text
# reaches the source, and trees of one shape share one compiled factory unless
# a classical qexp or qlog, or a settled check, makes their statements differ.

def _qexp_kernel(d: Deformation) -> Callable[[float, set | None], float]:
    classical, delta = d.classical, d.delta

    def qexp(v, flags):  # q_exp's two branches, without its ExtendedValue
        v, vflags = _exp_q1(v) if classical else _cutoff_power(1.0 + delta * v, d)
        if flags is not None:
            flags.update(vflags)
        return v

    return qexp


# The paper's chart u = ln_E(x) = ln|1 + delta*x| / delta and its inverse, as
# texts over {0} that read delta, one per side of the pole. Past the float range
# the forward maps are (ln|delta| + ln|x|) / delta, as ln_big_e; LN_E, the map on
# the support, raises log1p's ValueError at and beyond the pole.
LN_E = "(log1p(delta * {0}) if delta * {0} < inf else log(abs(delta)) + log(abs({0}))) / delta"
LN_E_BELOW = ("(log(-1.0 - delta * {0}) if delta * {0} > -inf"
              " else log(abs(delta)) + log(abs({0}))) / delta")
CHART_ABOVE, CHART_BELOW = "expm1(delta * {0}) / delta", "(-exp(delta * {0}) - 1.0) / delta"


# expm1, log1p and inf are read by qlog and by the chart texts
_GLOBALS = {"exp": math.exp, "sin": math.sin, "cos": math.cos, "log": math.log,
            "sqrt": math.sqrt, "math_pow": math.pow, "expm1": math.expm1,
            "log1p": math.log1p, "inf": math.inf,
            "DomainError": DomainError, "PoleError": PoleError,
            "EVAL_ERRORS": EVAL_ERRORS, "Q1_BRANCH": _Q1}
# per operator or function: the expression, and the checks (condition,
# message) that precede it, as templates over the operand names; a deformed
# qlog ("qlog_q") is the inverse chart at log of its operand, with its delta
# as a second operand
_TEMPLATES = {"+": "{} + {}", "-": "{} - {}", "*": "{} * {}", "/": "{} / {}",
              "^": "math_pow({}, {})", "ln": "log({})", "exp": "exp({})",
              "sin": "sin({})", "cos": "cos({})", "sqrt": "sqrt({})", "abs": "abs({})",
              "qlog": "log({})",
              "qlog_q": CHART_ABOVE.format("log({0})").replace("delta", "{1}")}
_CHECKS = {
    "/": (("{1} == 0.0", '"division by zero"'),),
    "^": (("{0} == 0.0 and {1} < 0.0", '"0 raised to a negative power"'),
          ("{0} < 0.0 and not {1}.is_integer()",
           'f"negative base {{{0}}} with non-integer exponent {{{1}}}"')),
    "ln": (("{0} <= 0.0", 'f"ln of non-positive value {{{0}}}"'),),
    "sqrt": (("{0} < 0.0", 'f"sqrt of negative value {{{0}}}"'),),
    "qlog": (("{0} <= 0.0", 'f"q_log requires x > 0, got {{{0}}}"'),),
}
_CHECKS["qlog_q"] = _CHECKS["qlog"]
# each clause of the checks: the one operand it reads, and its truth for a value
_SETTLE = {"{0} == 0.0": (0, lambda v: v == 0.0), "{1} == 0.0": (1, lambda v: v == 0.0),
           "{0} < 0.0": (0, lambda v: v < 0.0), "{1} < 0.0": (1, lambda v: v < 0.0),
           "{0} <= 0.0": (0, lambda v: v <= 0.0),
           "not {1}.is_integer()": (1, lambda v: not v.is_integer())}


class _Source:
    """The statements of one tree's function and the values its names bind."""

    def __init__(self, root: Expr):
        self.lines: list[str] = []
        self.bound: dict[str, object] = {}  # the factory's parameters: constants, kernels
        self.result = _post_order(root, self.leaf, self.operation)

    def bind(self, prefix: str, value: object) -> str:
        name = f"{prefix}{len(self.bound)}"
        self.bound[name] = value
        return name

    def assign(self, expression: str) -> str:
        name = f"t{len(self.lines)}"
        self.lines.append(f"{name} = {expression}")
        return name

    def leaf(self, node: Expr) -> str:
        return "x" if isinstance(node, Var) else self.bind("c", node.value)

    def operation(self, node: Expr, *operands: str) -> str:
        """Append the statements of one operation node; return its value's name."""
        if isinstance(node, Neg):  # a negated constant is a constant
            a = operands[0]
            return self.bind("c", -self.bound[a]) if a in self.bound else self.assign(f"-{a}")
        key = node.op if isinstance(node, BinOp) else node.func
        if key in ("qexp", "qexp'"):
            return self.qexp(operands[0], node.deformation, key == "qexp'")
        if key == "qlog" and not node.deformation.classical:
            key, operands = "qlog_q", (*operands, self.bind("c", node.deformation.delta))
        for condition, message in _CHECKS.get(key, ()):
            if not self.never(condition, operands):
                self.lines.append(f"if {condition.format(*operands)}: "
                                  f"raise DomainError({message.format(*operands)})")
        return self.assign(_TEMPLATES[key].format(*operands))

    def never(self, condition: str, operands: tuple[str, ...]) -> bool:
        """True when a clause of the condition reads a constant operand and is false."""
        for clause in condition.split(" and "):
            i, holds = _SETTLE[clause]
            if operands[i] in self.bound and not holds(self.bound[operands[i]]):
                return True
        return False

    def qexp(self, v: str, d: Deformation, slope: bool) -> str:
        """The statements of qexp(v), whose kernel runs only off the normal
        branch, or with slope of qexp'(v): qexp(v)^q on the support, 0 on the
        cutoff region, a PoleError at and beyond the pole, inf on overflow."""
        kernel = "inf" if slope else f"{self.bind('k', _qexp_kernel(d))}({v}, flags)"
        if d.classical:
            value, flagged = f"exp({v})", ["if flags is not None: flags.update(Q1_BRANCH)"]
        else:
            b = self.assign(f"1.0 + {self.bind('c', d.delta)} * {v}")
            power, flagged = f"{b} ** {self.bind('c', d.inv_delta)}", []
            if slope and d.delta < 0.0:
                self.lines.append(f"if not {b} > 0.0: raise PoleError("
                                  '"derivative undefined at/beyond the pole for q > 1")')
            value = (f"math_pow({power}, {self.bind('c', d.q)}) if {b} > 0.0 else 0.0" if slope
                     else f"{power} if {b} > 0.0 else {kernel}")
        name = f"t{len(self.lines)}"
        self.lines += [f"try: {name} = {value}", f"except OverflowError: {name} = {kernel}", *flagged]
        return name

    def text(self) -> str:
        body = "".join(f"        {line}\n" for line in self.lines)
        return (f"def factory({', '.join(self.bound)}):\n"
                f"    def f(x, flags=None):\n{body}        return {self.result}\n"
                f"    return f\n")


@lru_cache(maxsize=256)
def _factory(source: str) -> Callable[..., Callable[..., float]]:
    scope = dict(_GLOBALS)
    exec(builtins.compile(source, "<qcalc expression>", "exec"), scope)
    return scope["factory"]


def _generate(node: Expr) -> Callable[..., float]:
    """The tree's function, kept in its _compiled slot."""
    source = _Source(node)
    f = _factory(source.text())(*source.bound.values())
    f.tree = node  # to generate its panels and stencils from
    f.panels = {}  # (text, args) -> panel maker or stencil; see point_loop
    object.__setattr__(node, "_compiled", f)
    return f


# ---------------------------------------------------------------------------
# Point loops run a tree's statements once per point, with no call frame per
# point. The tree's names are x, flags, t<i> and those of _Source.bind; a
# loop's names start with an underscore, apart from delta, which loops may read.

def point_loop(g: Callable[[float], float], text: Callable[..., str], args: tuple):
    """What the factory of ``text(lines, result, params, *args)`` returns: over
    the tree's statements for a generated g (compiled once per tree shape and
    args, kept in ``g.panels[text, args]``), over ``t0 = g(x)`` for any other g."""
    panels = getattr(g, "panels", None)
    if panels is None:
        return _point_factory(text, args)(g)
    made = panels.get((text, args))
    if made is None:
        source = _Source(g.tree)
        code = text(source.lines, source.result, list(source.bound), *args)
        made = panels[text, args] = _factory(code)(*source.bound.values())
    return made


@lru_cache(maxsize=16)
def _point_factory(text: Callable[..., str], args: tuple) -> Callable:
    return _factory(text(["t0 = g(x)"], "t0", ["g"], *args))


def chart_point(x_of: str, lines: list[str], value: str) -> tuple[str, list[str]]:
    """A point loop's variable and one point's statements: x = x_of(_u) (none
    for x itself, "{}"), the tree's lines, then the append of value to _f."""
    point = [*lines, f"_f.append({value})"]
    return ("x", point) if x_of == "{}" else ("_u", [f"x = {x_of.format('_u')}", *point])


def indented(depth: int, lines) -> list[str]:
    """Lines of a point loop's text, indented ``depth`` levels and ended."""
    return [f"{'    ' * depth}{line}\n" for line in lines]


def evaluate(node: Expr, x: float) -> float:
    """Evaluate the tree at x. Raises DomainError outside the domain."""
    try:
        f = node._compiled
    except AttributeError:
        f = _generate(node)
    return f(x)


def evaluate_extended(node: Expr, x: float) -> ExtendedValue:
    """Evaluate collecting cutoff/pole/limit-branch diagnostics."""
    try:
        f = node._compiled
    except AttributeError:
        f = _generate(node)
    flags: set[EvalFlag] = set()
    value = f(x, flags)
    return ExtendedValue(value, frozenset(flags))


# ---------------------------------------------------------------------------
# Symbolic differentiation (smart constructors fold the trivial cases)

def _is_num(node: Expr, value: float | None = None) -> bool:
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


def _const_value(node: Expr) -> float | None:
    negations = 0
    while isinstance(node, Neg):
        node, negations = node.operand, negations + 1
    if not isinstance(node, Num):
        return None
    return -node.value if negations % 2 else node.value


def differentiate(node: Expr) -> Expr:
    """Symbolic d/dx of the tree; every node kind is closed under it."""
    return _post_order(node, lambda leaf: Num(1.0 if isinstance(leaf, Var) else 0.0),
                       _derivative)


def _derivative(node: Expr, du: Expr, dv: Expr | None = None) -> Expr:
    """d/dx of an operation node, given the derivatives of its operands."""
    if isinstance(node, Neg):
        return _neg(du)
    if isinstance(node, BinOp):
        u, v = node.left, node.right
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
    u = node.arg
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
        # d/dx e_q(u) = qexp'(u) u', where qexp'(u) is e_q(u)^q on the support,
        # 0 on the cutoff region and undefined at and beyond the pole
        return _mul(Call("qexp" if d.classical else "qexp'", u, d), du)
    if name == "qexp'":  # q qexp'(u) / (1 + delta*u): q (1 + delta*u)^((2q-1)/delta), or 0
        bracket = _add(Num(1.0), _mul(_num(d.delta), u))
        return _mul(_div(_mul(_num(d.q), node), bracket), du)
    assert name == "qlog"
    # d/dx ln_q(u) = u^(-q) u'
    if d.classical:
        return _div(du, u)
    return _mul(_pow(u, _num(-d.q)), du)


# ---------------------------------------------------------------------------
# Compilation

def compile(ast: Expr) -> RealFunction:  # noqa: A001 - mirrors re.compile
    """Wrap a tree as a RealFunction with a synthesized ordinary derivative.

    It has no domain predicate: it is defined exactly where evaluation
    succeeds. The derivative is derived on its first call.
    """
    try:
        f = ast._compiled
    except AttributeError:
        f = _generate(ast)
    dast = cache(lambda: _generate(differentiate(ast)))
    return RealFunction(eval=f, derivative=lambda x: dast()(x), label=to_text(ast))


# the builtins, compiled from their text on each call
_TEXTS = {"qexp": "qexp(x)", "qlog": "qlog(x)", "recip": "1/x", "identity": "x"}

BUILTIN_NAMES = tuple(sorted(_TEXTS))


def builtin(name: str, d: Deformation) -> RealFunction:
    """Named function with its analytic derivative attached.

    Raises:
        UnknownBuiltinError: if name is not one of BUILTIN_NAMES.
    """
    if name not in _TEXTS:
        raise UnknownBuiltinError(
            f"unknown builtin {name!r}; expected one of {', '.join(BUILTIN_NAMES)}"
        )
    f = compile(parse(_TEXTS[name], d))
    return RealFunction(f.eval, f.derivative, label=name)

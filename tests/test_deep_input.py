"""Deep expressions: the parser and the tree passes (printer, derivative,
code generator, and a node's ==, hash, repr and pickling) use explicit
stacks, so depth is bounded by memory, not by the interpreter's recursion
limit, and every CLI command that reads an expression answers deep input.

The parser is compared with a recursive-descent reference (the parser as
it was before it kept its own stack) on random token strings: the same
tree, or the same error message, byte offset and expected-token set.
"""

import math

import pytest

from qcalc import Deformation, ParseError, evaluate, funcexpr, parse, to_text
from qcalc.cli import main
from qcalc.funcexpr import BinOp, Call, Neg, Num, Var, differentiate

D = Deformation(0.5)
CHAIN = "+".join(["x"] * 1000)
PARENS = "(" * 250 + "x" + ")" * 250
RECIPROCALS = "(1/" * 1000 + "x" + ")" * 1000


def test_deep_trees_parse_print_and_evaluate():
    for text, x, want in ((CHAIN, 0.5, 500.0), (PARENS, 0.25, 0.25), (RECIPROCALS, 0.5, 0.5),
                          ("+".join(["x"] * 10000), 1.0, 10000.0)):
        tree = parse(text, D)
        assert evaluate(tree, x) == want
        assert parse(to_text(tree), D) == tree
    assert to_text(parse(CHAIN, D)) == CHAIN and to_text(parse(PARENS, D)) == "x"


def test_a_deep_derivative_stays_linear_in_size():
    tree = parse(RECIPROCALS, D)
    dtree = differentiate(tree)
    assert evaluate(dtree, 0.5) == 1.0
    assert len(funcexpr._Source(dtree).lines) < 10 * 1000
    assert funcexpr.compile(tree).derivative(2.0) == 1.0
    assert evaluate(differentiate(parse(CHAIN, D)), 0.5) == 1000.0


def test_negations_nested_in_an_exponent_fold_to_a_constant():
    exponent = Num(3.0)
    for _ in range(1001):
        exponent = Neg(exponent)
    dtree = differentiate(BinOp("^", Var(), exponent))  # power rule: -3 * x^-4
    assert evaluate(dtree, 2.0) == -3.0 * 2.0 ** -4


@pytest.mark.parametrize("text,x", [(CHAIN, 0.5), (PARENS, 0.5)], ids=["chain", "parens"])
@pytest.mark.parametrize("argv", [
    ["eval", "E", "--q", "0.5", "--from", "X", "--to", "1", "--points", "2"],
    ["diff", "E", "primal", "closed", "--q", "0.5", "--from", "X", "--to", "1", "--points", "2"],
    ["diff", "E", "dual", "numeric", "--q", "0.5", "--from", "X", "--to", "1", "--points", "2"],
    ["integrate", "E", "primal", "X", "1", "--q", "0.5"],
    ["integrate", "E", "borges-dual", "X", "1", "--q", "0.5"],
], ids=["eval", "diff-closed", "diff-numeric", "primal", "borges"])
def test_cli_answers_deep_input(text, x, argv, capsys):
    argv = [text if a == "E" else str(x) if a == "X" else a for a in argv]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == "" and "nan" not in out
    row = out.splitlines()[1].split(",")
    if argv[0] == "eval":
        assert float(row[1]) == (500.0 if text == CHAIN else 0.5)


# ---------------------------------------------------------------------------
# The parser against a recursive-descent reference


class RecursiveParser(funcexpr._Parser):
    def parse(self):
        node = self.expr()
        if self.cur.kind != funcexpr._T_END:
            self._fail(("'+'", "'-'", "'*'", "'/'", "'^'", "end of input"))
        return node

    def expr(self):
        node = self.term()
        while (op := self._accept_op("+", "-")) is not None:
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while (op := self._accept_op("*", "/")) is not None:
            node = BinOp(op, node, self.factor())
        return node

    def factor(self):
        negated = self._accept_op("-") is not None
        node = self.primary()
        if self._accept_op("^"):
            node = BinOp("^", node, self.factor())
        return Neg(node) if negated else node

    def primary(self):
        tok = self.cur
        if tok.kind == funcexpr._T_NUM:
            self.i += 1
            return Num(float(tok.text))
        if tok.kind == funcexpr._T_IDENT:
            if tok.text == "x":
                self.i += 1
                return Var()
            if tok.text not in funcexpr.CALL_NAMES:
                raise ParseError(f"unknown function {tok.text!r}",
                                 funcexpr._byte_offset(self.text, tok.pos),
                                 tuple(funcexpr.CALL_NAMES) + ("'x'",))
            name = tok.text
            self.i += 1
            self._expect_op("(")
            arg = self.expr()
            self._expect_op(")")
            return Call(name, arg, self.d if name in ("qexp", "qlog") else None)
        if self._accept_op("("):
            node = self.expr()
            self._expect_op(")")
            return node
        self._fail(("number", "'x'", "function name", "'('"))


def parsed(parser, text):
    try:
        return parser(text, D).parse()
    except ParseError as exc:
        return str(exc), exc.offset, exc.expected


TOKENS = ["x", "2", "0.5", "1e3", "+", "-", "*", "/", "^", "(", ")", " ", "sin", "qexp",
          "qlog", "ln", "foo", "é", "#", ".5"]


@pytest.mark.parametrize("text", [
    "", "x", "-x^2", "2^-3", "2^3^4", "-2^-x^2", "x--x", "--x", "sin x", "sin(x", "(x))",
    "qexp(qlog(x))", "1+2*3-4/5^6", "x^-(x)", "((x)", "x y", "-", "sin()", "foo(x)",
])
def test_parser_matches_the_recursive_reference_on_fixed_input(text):
    assert parsed(funcexpr._Parser, text) == parsed(RecursiveParser, text)


def test_parser_matches_the_recursive_reference_on_random_tokens():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.sampled_from(TOKENS), max_size=16))
    def check(tokens):
        text = "".join(tokens)
        assert parsed(funcexpr._Parser, text) == parsed(RecursiveParser, text)

    check()


def test_to_text_matches_on_negated_and_nested_trees():
    tree = BinOp("^", Neg(Var()), BinOp("^", Num(2.0), Neg(Num(3.0))))
    assert to_text(tree) == "(-x)^2.0^-3.0"
    assert parse(to_text(tree), D) == tree
    assert math.isclose(evaluate(tree, -1.5), (1.5) ** (2.0 ** -3.0))


def grammar_texts():
    """Texts built from the grammar: numbers and x, calls and parentheses
    nested in each other, '-' before any operand (so also after every binary
    operator), '^' chains, and a fifth with one token spliced in or one
    character cut out, to reach the errors of near-valid input."""
    from hypothesis import strategies as st

    def nested(inner):
        return st.one_of(
            st.builds("{}({})".format, st.sampled_from(funcexpr.CALL_NAMES), inner),
            inner.map("({})".format),
            inner.map(lambda t: f"-({t})" if t.startswith("-") else f"-{t}"),
            st.builds("{}{}{}".format, inner, st.sampled_from("+-*/^"), inner),
            st.lists(inner, min_size=2, max_size=5).map("^".join),
        )

    atoms = st.sampled_from(["x", "2", "0.5", "1e3", ".5", "3.25e-2"])
    texts = st.recursive(atoms, nested, max_leaves=24)

    def mutate(text, how, i, token):
        i %= len(text) + 1
        return {"splice": text[:i] + token + text[i:], "cut": text[:i] + text[i + 1:]}.get(how, text)

    return st.builds(mutate, texts, st.sampled_from(["keep"] * 8 + ["splice", "cut"]),
                     st.integers(0, 99), st.sampled_from(TOKENS))


def test_parser_matches_the_recursive_reference_on_grammar_built_input():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(grammar_texts())
    def check(text):
        assert parsed(funcexpr._Parser, text) == parsed(RecursiveParser, text)

    check()

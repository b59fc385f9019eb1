"""The expression code generator: deep trees, the build cache, and the rule
that no expression text reaches the generated source.

Values, flags and errors are compared bit for bit with the reference tree
walker of ``test_compiled_eval``.
"""

import math

import pytest

from qcalc import Deformation, evaluate, funcexpr, parse
from qcalc.funcexpr import BinOp, Call, Neg, Num, Var, differentiate
from test_compiled_eval import (
    POINTS,
    Q_VALUES,
    extended_compiled,
    extended_reference,
    outcome,
    reference,
)

D = Deformation(0.5)


def test_a_900_term_chain_adds_left_to_right():
    tree = parse("+".join(["x"] * 900), D)
    f = funcexpr.compile(tree)
    for x in (0.1, 0.5, -1e300, math.inf):
        want = x
        for _ in range(899):
            want = want + x
        assert outcome(f.eval, x) == outcome(lambda: want)
    assert f.derivative(0.3) == 900.0


def test_180_deep_parentheses():
    tree = parse("(1/" * 180 + "x" + ")" * 180, D)
    for x in (0.5, 0.0, -2.0, math.nan):
        assert outcome(evaluate, tree, x) == outcome(reference, tree, x, None), x
    assert evaluate(parse("(" * 180 + "x" + ")" * 180, D), 0.25) == 0.25


@pytest.mark.parametrize("q", Q_VALUES)
def test_fourth_derivative_matches_the_reference_walker(q):
    tree = parse("x*qexp(x/4)+sin(x)^2", Deformation(q))
    for _ in range(4):
        tree = differentiate(tree)
    for x in POINTS:
        assert outcome(extended_compiled, tree, x) == outcome(extended_reference, tree, x), x


def test_trees_of_one_shape_share_one_compiled_function():
    text = "x*qexp(x/4)+sin(x)^2"
    funcexpr._factory.cache_clear()
    codes = {q: parse(text, Deformation(q))._compiled.__code__ for q in Q_VALUES}
    # one function for every deformed q (the bracket power), one for q = 1 (exp)
    assert len({codes[q] for q in Q_VALUES if q != 1.0} - {codes[1.0]}) == 1
    info = funcexpr._factory.cache_info()
    assert (info.misses, info.hits) == (2, len(Q_VALUES) - 2)
    assert parse("x*qexp(x/4)-sin(x)^2", D)._compiled.__code__ not in codes.values()
    values = {evaluate(parse(text, Deformation(q)), 1.5) for q in Q_VALUES}
    assert len(values) == len(Q_VALUES)


def test_constants_are_bound_not_written_into_the_source():
    a, b = parse("x+0.1", D), parse("x+0.2", D)
    assert a._compiled.__code__ is b._compiled.__code__
    assert (evaluate(a, 1.0), evaluate(b, 1.0)) == (1.1, 1.2)
    assert "0.125" not in funcexpr._Source(parse("x*0.125", D)).text()


@pytest.mark.parametrize("text, checked", [
    ("x/4", False), ("x^2", False), ("sin(x)^2", False), ("2^x", False), ("ln(2)*x", False),
    ("x/0", True), ("x^-1", True), ("x^0.5", True), ("sqrt(-2)*x", True), ("x/x", True),
])
def test_checks_that_constants_settle_as_false_are_left_out(text, checked):
    source = funcexpr._Source(parse(text, D)).text()
    assert ("raise DomainError" in source) is checked, source


def test_each_clause_is_settled_as_its_text_reads():
    clauses = {clause for checks in funcexpr._CHECKS.values() for condition, _ in checks
               for clause in condition.split(" and ")}
    assert set(funcexpr._SETTLE) == clauses
    for clause, (i, holds) in funcexpr._SETTLE.items():
        for v in (0.0, -0.0, 2.0, -2.0, 0.5, -0.5, math.inf, -math.inf, math.nan):
            names = ["other", "other"]
            names[i] = "v"
            assert holds(v) is eval(clause.format(*names), {}, {"v": v}), (clause, v)


def test_non_finite_constants_need_no_special_case():
    tree = BinOp("+", BinOp("*", Num(1e400), Var()), Neg(Num(math.nan)))
    assert evaluate(tree, 2.0) != evaluate(tree, 2.0)  # nan
    assert evaluate(BinOp("-", Var(), Num(-math.inf)), 0.0) == math.inf


@pytest.mark.parametrize("tree", [
    Call("__import__('os').getcwd", Var()),
    BinOp("+x#", Var(), Var()),
])
def test_names_outside_the_grammar_never_reach_the_source(tree):
    with pytest.raises(KeyError):
        evaluate(tree, 1.0)

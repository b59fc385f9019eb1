"""Parser, printer, compiler, and builtin-function tests."""

import math
import random

import pytest

from qcalc import (
    BinOp,
    Call,
    Deformation,
    DomainError,
    EvalFlag,
    Neg,
    Num,
    ParseError,
    PoleError,
    UnknownBuiltinError,
    Var,
    builtin,
    evaluate,
    evaluate_extended,
    parse,
    to_text,
)
from qcalc import funcexpr

D_HALF = Deformation(0.5)


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(1.0, abs(got), abs(want))


def central_diff(f, x: float) -> float:
    h = 1e-5 * max(1.0, abs(x))
    return (f(x + h) - f(x - h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# Point values


class TestPointValues:
    def test_deformed_exponential_expression(self):
        ast = parse("qexp(x)^2 + 3*x", D_HALF)
        # oracle: generate_frozen_values.py -> 8.0625
        assert rel_err(evaluate(ast, 1.0), 8.0625) <= 1e-12

    def test_deformed_log_derivative(self):
        f = funcexpr.compile(parse("qlog(x)", D_HALF))
        # oracle: generate_frozen_values.py -> d/dx ln_q at 4 is 4^-0.5 = 0.5
        assert rel_err(f.derivative(4.0), 0.5) <= 1e-12

    def test_reciprocal_domain(self):
        f = funcexpr.compile(parse("1/x", D_HALF))
        assert f.defined(0.0) is False
        assert f.defined(2.0) is True


# ---------------------------------------------------------------------------
# Grammar and precedence


class TestPrecedence:
    @pytest.mark.parametrize(
        "text,x,want",
        [
            ("2+3*4^2", 0.0, 50.0),
            ("-2^2", 0.0, -4.0),  # exponent binds before the leading minus
            ("(-2)^2", 0.0, 4.0),
            ("2^-3", 0.0, 0.125),
            ("2*-3", 0.0, -6.0),
            ("x^2^3", 2.0, 256.0),  # right-associative
            ("8/4/2", 0.0, 1.0),  # left-associative
            ("(2+3)*4", 0.0, 20.0),
            ("2 - 3 - 4", 0.0, -5.0),
        ],
    )
    def test_numeric(self, text, x, want):
        assert evaluate(parse(text, D_HALF), x) == pytest.approx(want, rel=1e-15)

    def test_whitespace_insensitive(self):
        spaced = parse(" qexp ( x ) ^ 2\t+\n3 * x ", D_HALF)
        compact = parse("qexp(x)^2+3*x", D_HALF)
        assert spaced == compact

    def test_negated_power_structure(self):
        assert parse("-x^2", D_HALF) == Neg(BinOp("^", Var(), Num(2.0)))
        assert parse("(-x)^2", D_HALF) == BinOp("^", Neg(Var()), Num(2.0))

    def test_double_minus_is_rejected(self):
        with pytest.raises(ParseError):
            parse("--x", D_HALF)

    def test_deformation_is_bound_to_calls(self):
        ast = parse("qexp(x)", D_HALF)
        assert ast == Call("qexp", Var(), D_HALF)
        assert parse("sin(x)", D_HALF) == Call("sin", Var(), None)


# ---------------------------------------------------------------------------
# Printer / parser round trips


def gen_tree(rng: random.Random, depth: int):
    kinds = ["num", "var"]
    if depth > 0:
        kinds += ["neg", "add", "sub", "mul", "div", "pow", "call"]
    k = rng.choice(kinds)
    if k == "num":
        if rng.random() < 0.5:
            return Num(float(rng.randrange(10)))
        return Num(round(rng.uniform(0.0, 99.0), 4))
    if k == "var":
        return Var()
    if k == "neg":
        return Neg(gen_tree(rng, depth - 1))
    if k == "pow":
        return BinOp("^", gen_tree(rng, depth - 1), gen_tree(rng, depth - 1))
    if k == "call":
        name = rng.choice(funcexpr.CALL_NAMES)
        d = D_HALF if name in ("qexp", "qlog") else None
        return Call(name, gen_tree(rng, depth - 1), d)
    op = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[k]
    return BinOp(op, gen_tree(rng, depth - 1), gen_tree(rng, depth - 1))


def corpus():
    rng = random.Random(20260815)
    return [gen_tree(rng, 4) for _ in range(120)]


class TestRoundTrip:
    def test_print_parse_is_identity_on_trees(self):
        for tree in corpus():
            text = to_text(tree)
            assert parse(text, D_HALF) == tree, text

    def test_print_parse_print_is_fixpoint(self):
        for tree in corpus():
            text = to_text(tree)
            assert to_text(parse(text, D_HALF)) == text

    def test_gratuitous_parens_normalize(self):
        for text in ["((x))", "(x+1)*2", "- (x ^ 2)", "(((3)))+x"]:
            once = parse(text, D_HALF)
            assert parse(to_text(once), D_HALF) == once

    def test_label_is_printed_form(self):
        ast = parse("qexp(x)^2 + 3*x", D_HALF)
        assert funcexpr.compile(ast).label == to_text(ast)


# ---------------------------------------------------------------------------
# Parse errors: byte offsets and locality


class TestParseErrors:
    def test_unexpected_operator(self):
        with pytest.raises(ParseError) as exc:
            parse("1 + * 2", D_HALF)
        assert exc.value.offset == 4
        assert exc.value.expected

    def test_unknown_function(self):
        with pytest.raises(ParseError) as exc:
            parse("foo(x)", D_HALF)
        assert exc.value.offset == 0

    def test_missing_close_paren(self):
        text = "qexp(x"
        with pytest.raises(ParseError) as exc:
            parse(text, D_HALF)
        assert exc.value.offset == len(text.encode("utf-8"))

    def test_trailing_token(self):
        with pytest.raises(ParseError) as exc:
            parse("x 2", D_HALF)
        assert exc.value.offset == 2

    def test_offset_is_bytes_not_chars(self):
        # 'π' occupies two bytes, so the '$' sits at byte 8, char 7
        with pytest.raises(ParseError) as exc:
            parse("sin(π)*$", D_HALF)
        assert exc.value.offset == 8

    @pytest.mark.parametrize("text,offset", [("\u00b2", 0), ("x+\u0661", 2), ("2e\u00b3", 1)])
    def test_only_ascii_digits_are_digits(self, text, offset):
        # '²' and '³' would crash float(), an Arabic-Indic '١' would read as 1
        with pytest.raises(ParseError) as exc:
            parse(text, D_HALF)
        assert exc.value.offset == offset

    def test_message_mentions_offset(self):
        with pytest.raises(ParseError) as exc:
            parse("1 + * 2", D_HALF)
        assert "byte offset 4" in str(exc.value)

    def test_error_locality_under_injection(self):
        rng = random.Random(4058)
        for tree in corpus():
            text = to_text(tree)
            for _ in range(3):
                k = rng.randrange(len(text) + 1)
                mutated = text[:k] + "$" + text[k:]
                with pytest.raises(ParseError) as exc:
                    parse(mutated, D_HALF)
                injected_at = len(mutated[:k].encode("utf-8"))
                assert 0 <= exc.value.offset <= injected_at, mutated


# ---------------------------------------------------------------------------
# Synthesized derivatives


def gen_smooth(rng: random.Random, depth: int):
    if depth == 0:
        return Var() if rng.random() < 0.7 else Num(float(rng.randrange(1, 4)))
    k = rng.choice(
        ("add", "sub", "mul", "neg", "sin", "cos", "exp", "qexp", "lnsq", "qlogsq", "powint")
    )
    if k in ("add", "sub", "mul"):
        op = {"add": "+", "sub": "-", "mul": "*"}[k]
        return BinOp(op, gen_smooth(rng, depth - 1), gen_smooth(rng, depth - 1))
    if k == "neg":
        return Neg(gen_smooth(rng, depth - 1))
    if k in ("sin", "cos"):
        return Call(k, gen_smooth(rng, depth - 1), None)
    if k == "exp":
        return Call("exp", BinOp("*", Num(0.1), gen_smooth(rng, depth - 1)), None)
    if k == "qexp":
        return Call("qexp", BinOp("*", Num(0.1), gen_smooth(rng, depth - 1)), D_HALF)
    if k in ("lnsq", "qlogsq"):
        u = gen_smooth(rng, depth - 1)
        arg = BinOp("+", Num(2.0), BinOp("*", u, u))
        if k == "lnsq":
            return Call("ln", arg, None)
        return Call("qlog", arg, D_HALF)
    return BinOp("^", gen_smooth(rng, depth - 1), Num(float(rng.randrange(2, 4))))


class TestDerivatives:
    def test_matches_central_difference_on_corpus(self):
        rng = random.Random(917)
        points = [-0.45 + 0.09 * i for i in range(10)]
        for _ in range(40):
            f = funcexpr.compile(gen_smooth(rng, 3))
            for x in points:
                want = central_diff(f.eval, x)
                got = f.derivative(x)
                assert rel_err(got, want) <= 1e-4, (f.label, x)

    @pytest.mark.parametrize(
        "text,x,want",
        [
            ("1/x", 2.0, -0.25),
            ("sqrt(x)", 4.0, 0.25),
            ("abs(x)", -2.0, -1.0),
            ("x^2", 1.0, 2.0),
            ("x^-2", 2.0, -0.25),
        ],
    )
    def test_exact_cases(self, text, x, want):
        f = funcexpr.compile(parse(text, D_HALF))
        assert rel_err(f.derivative(x), want) <= 1e-12

    def test_deformed_exponential_derivative(self):
        f = funcexpr.compile(parse("qexp(x)", D_HALF))
        # (1 + 0.5*1)^(0.5/0.5) = 1.5
        assert rel_err(f.derivative(1.0), 1.5) <= 1e-12

    def test_general_power(self):
        f = funcexpr.compile(parse("x^x", D_HALF))
        x = 1.5
        want = x**x * (math.log(x) + 1.0)
        assert rel_err(f.derivative(x), want) <= 1e-10
        assert rel_err(f.derivative(x), central_diff(f.eval, x)) <= 1e-6

    def test_derivative_flat_on_cutoff_region(self):
        f = funcexpr.compile(parse("qexp(x)", D_HALF))
        assert f.eval(-5.0) == 0.0
        assert f.derivative(-5.0) == 0.0


# ---------------------------------------------------------------------------
# Flagged evaluation


class TestFlaggedEvaluation:
    def test_cutoff_flag_propagates(self):
        ev = evaluate_extended(parse("qexp(x) + 1", D_HALF), -4.0)
        assert ev.value == 1.0
        assert EvalFlag.CUTOFF_APPLIED in ev.flags

    def test_pole_flag_propagates(self):
        ev = evaluate_extended(parse("qexp(x)", Deformation(2.0)), 1.5)
        assert math.isinf(ev.value)
        assert EvalFlag.POLE_REACHED in ev.flags

    def test_limit_branch_flag(self):
        ev = evaluate_extended(parse("qexp(x)", Deformation(1.0)), 0.3)
        assert ev.value == pytest.approx(math.exp(0.3), rel=1e-15)
        assert EvalFlag.Q1_BRANCH in ev.flags

    def test_clean_evaluation_has_no_flags(self):
        ev = evaluate_extended(parse("qexp(x)^2 + 3*x", D_HALF), 1.0)
        assert ev.flags == frozenset()


# ---------------------------------------------------------------------------
# Builtin registry


class TestBuiltins:
    def test_unknown_name(self):
        with pytest.raises(UnknownBuiltinError):
            builtin("nope", D_HALF)

    def test_all_names_construct_and_evaluate(self):
        for name in funcexpr.BUILTIN_NAMES:
            f = builtin(name, D_HALF)
            assert f.label == name
            x = 0.5
            assert math.isfinite(f.eval(x))
            assert math.isfinite(f.derivative(x))

    def test_derivatives_match_central_difference(self):
        for name in funcexpr.BUILTIN_NAMES:
            f = builtin(name, Deformation(0.5))
            for x in (0.25, 0.8, 2.0):
                want = central_diff(f.eval, x)
                assert rel_err(f.derivative(x), want) <= 1e-6, name

    def test_reciprocal_rejects_zero(self):
        with pytest.raises(DomainError):
            builtin("recip", D_HALF).eval(0.0)

    def test_deformed_exponential_pole_derivative(self):
        f = builtin("qexp", Deformation(2.0))
        with pytest.raises(PoleError):
            f.derivative(1.5)


# ---------------------------------------------------------------------------
# Domain predicates


class TestDomains:
    @pytest.mark.parametrize(
        "text,inside,outside",
        [
            ("ln(x-1)", 3.0, 0.5),
            ("sqrt(x)", 4.0, -1.0),
            ("qlog(x)", 2.0, -2.0),
            ("1/(x-2)", 0.0, 2.0),
        ],
    )
    def test_predicate(self, text, inside, outside):
        f = funcexpr.compile(parse(text, D_HALF))
        assert f.defined(inside) is True
        assert f.defined(outside) is False

    def test_evaluate_raises_outside_domain(self):
        with pytest.raises(DomainError):
            evaluate(parse("ln(x)", D_HALF), -1.0)

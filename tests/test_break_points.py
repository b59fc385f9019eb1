"""Break points: the tree names them, and the engine starts or splits there.

``funcexpr.break_points`` finds the zeros of the linear operands of the
operations that break, and ``funcexpr.shifted`` writes a tree in y = x - p
around one of them. An integral with a break point at a bound starts at the
step sum, and one with a break point inside is split there into runs that
each start at the step sum from their break point. Wherever every run ends
at the step sum (no panels), the result's true error, against ``mpmath.quad``
split at the break point, must be at most its estimate, which must meet the
tolerance. As in ``test_step_sum_oracle``, results of the adaptive loop after
a step sum that missed are not checked: their estimates are those of the
engine without the step sum.
"""

import functools
import io
import math
import warnings
from contextlib import redirect_stdout

import pytest

from qcalc import Deformation, ToleranceWarning, cli, funcexpr, parse, qquad
from qcalc.errors import EVAL_ERRORS
from qcalc.funcexpr import BinOp, Call, Num, Var, break_points, shifted
from qcalc.qdiff import dual_qderiv_numeric_with_estimate, primal_qderiv_numeric_with_estimate
from qcalc.qquad import IntegralFlag, QuadratureConfig, dual_qint, primal_qint
from test_quadrature_engine import bits, reference_integral

mp = pytest.importorskip("mpmath")

# ---------------------------------------------------------------------------
# The points of a tree


def _linear(a, b):
    return BinOp("+", BinOp("*", Num(a), Var()), Num(b))


# each breaking operation over an operand, and the value of the operand at its break
BREAKING = {
    "ln": (lambda u, d: Call("ln", u), lambda d: 0.0),
    "sqrt": (lambda u, d: Call("sqrt", u), lambda d: 0.0),
    "abs": (lambda u, d: Call("abs", u), lambda d: 0.0),
    "qlog": (lambda u, d: Call("qlog", u, d), lambda d: 0.0),
    "denominator": (lambda u, d: BinOp("/", Num(1.0), u), lambda d: 0.0),
    "power 0.5": (lambda u, d: BinOp("^", u, Num(0.5)), lambda d: 0.0),
    "power -2": (lambda u, d: BinOp("^", u, Num(-2.0)), lambda d: 0.0),
    "power x": (lambda u, d: BinOp("^", u, Var()), lambda d: 0.0),
    "qexp": (lambda u, d: Call("qexp", u, d), lambda d: -1.0 / d.delta),
}


def test_drawn_linear_operands_break_where_they_reach_their_point():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    magnitude = st.floats(1e-3, 1e3)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(a=st.tuples(magnitude, st.booleans()).map(lambda t: -t[0] if t[1] else t[0]),
           b=st.floats(-1e3, 1e3), op=st.sampled_from(sorted(BREAKING)),
           q=st.sampled_from([0.5, 2.0, -1.0]))
    def check(a, b, op, q):
        d = Deformation(q)
        make, at = BREAKING[op]
        p = (at(d) - b) / a + 0.0
        assert break_points(make(_linear(a, b), d)) == (p,)
        # the same operand folded from (b + x*a) / 1 * abs(-1) breaks at the same point
        folded = BinOp("*", BinOp("/", BinOp("+", Num(b), BinOp("*", Var(), Num(a))), Num(1.0)),
                       Call("abs", Num(-1.0)))
        assert break_points(make(folded, d)) == (p,)
        # a nonlinear operand adds no point, nor does its square's base
        square = BinOp("*", _linear(a, b), _linear(a, b))
        assert break_points(make(square, d)) == ()
        assert break_points(make(Call("sin", _linear(a, b)), d)) == ()

    check()


@pytest.mark.parametrize("text,q,want", [
    ("x^2+3*x-1", 0.5, ()),  # a power of a constant integer of at least 0 breaks nowhere
    ("(x-1)^3*x^0", 0.5, ()),
    ("qexp(x)", 1.0, ()),  # the classical qexp is exp
    ("qexp(x)", 0.5, (-2.0,)),  # the cutoff
    ("qexp(x/2)", 2.0, (2.0,)),  # the pole
    ("ln(abs(x-0.3))", 1.0, (0.3,)),  # abs breaks; ln's operand is not linear
    ("1/(x-x)", 1.0, ()),  # a constant denominator, 0, has no point
    ("ln(2)*x-1+sqrt(4-x*ln(4))", 1.0, (4 / math.log(4),)),
    ("abs(x-0.3)*abs(x-0.6)+1/(x+2)", 1.0, (-2.0, 0.3, 0.6)),
])
def test_named_trees_break_where_they_should(text, q, want):
    assert break_points(parse(text, Deformation(q))) == want


@pytest.mark.parametrize("text,p", [
    ("1/sqrt(abs(x-0.3))", 0.3), ("ln(abs(x-0.3))*x+sin(x)", 0.3), ("x*ln(x)", 0.0),
    ("sqrt(abs(3*x-1))+qexp(x)", 1.0 / 3.0), ("1/(x+2)+x^2", -2.0),
])
def test_a_shifted_tree_is_the_tree_in_the_distance_from_its_point(text, p):
    d = Deformation(0.5)
    tree = parse(text, d)
    f, g = funcexpr.evaluate, funcexpr.compile(shifted(tree, p)).eval
    for x in (p - 0.25, p - 0.01, p + 0.01, p + 0.125, p + 0.5):
        try:
            want = f(tree, x)
        except EVAL_ERRORS:
            continue
        assert g(x - p) == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_the_operand_that_breaks_at_p_is_a_times_the_distance_after_the_shift():
    d = Deformation(1.0)
    g = funcexpr.compile(shifted(parse("1/sqrt(abs(x-0.3))", d), 0.3)).eval
    assert g(2.0**-80) == 2.0**40 and g(-(2.0**-100)) == 2.0**50
    # 0.36*p - 2 is -2.2e-16 in floats at p = 2/0.36, so a*y + (a*p + b) would
    # be negative for y < 6e-16: the operand is 0.36*y
    tree = parse("sqrt(0.36*x-2)", d)
    (p,) = break_points(tree)
    assert 0.36 * p - 2.0 < 0.0
    g = funcexpr.compile(shifted(tree, p)).eval
    assert g(2.0**-80) == math.sqrt(0.36 * 2.0**-80)


def test_break_points_are_found_at_the_first_integral_and_kept():
    d = Deformation(0.5)
    f = funcexpr.compile(parse("sqrt(abs(x-0.3))", d))
    assert f.breaks is None  # compiling finds none
    dual_qint(f, 0.0, 1.0, d)
    assert f.breaks == (0.3,) and f.poles == frozenset()
    assert f.break_points() is f.breaks
    g = funcexpr.compile(parse("qexp(x)", Deformation(2.0)))
    assert g.break_points() == (1.0,) and g.poles == {1.0}


# ---------------------------------------------------------------------------
# Step-sum results at break points against mpmath

P = 0.3
KINKS = {
    "abs(x-0.3)": lambda x: abs(x - P),
    "sqrt(abs(x-0.3))": lambda x: mp.sqrt(abs(x - P)),
    "ln(abs(x-0.3))": lambda x: mp.log(abs(x - P)),
    "1/sqrt(abs(x-0.3))": lambda x: 1 / mp.sqrt(abs(x - P)),
}
REL_TOLS = (1e-6, 1e-8, 1e-10, 1e-13)
ABS_TOL = 1e-300


@functools.lru_cache(maxsize=None)
def kink_truth(text, q, b):
    """The integral of f / (1 + (1-q) x) from 0 to b, split at 0.3, to 40 digits."""
    with mp.workdps(40):
        f, delta = KINKS[text], mp.mpf(1.0 - q)
        return +mp.quad(lambda x: f(x) / (1 + delta * x), [0, mp.mpf(P), mp.mpf(b)])


def _checked(results, scale=lambda res: 1.0):
    """Assert every step-sum result honest: unflagged, its true error at most
    its estimate, and its estimate over scale(res) within the tolerance.
    Return how many there were."""
    returned, under = 0, []
    for res, want, config in results:
        assert math.isfinite(res.value)
        if res.n_panels:
            continue  # some run went on to the adaptive loop
        returned += 1
        true_err = abs(mp.mpf(res.value) - want)
        bound = max(config.abs_tol, config.rel_tol * abs(res.value)) * scale(res)
        if not (true_err <= res.error_estimate <= bound and not res.flags):
            under.append((config.rel_tol, res, float(true_err)))
    assert not under, under
    return returned


@pytest.mark.parametrize("text", KINKS)
@pytest.mark.parametrize("mode,q", [(m, q) for m in ("dual", "primal") for q in (1.0, 0.5, 2.0)])
def test_kinks_inside_split_there_and_bound_their_true_error(text, mode, q):
    d = Deformation(q)
    f = funcexpr.compile(parse(text, d))
    b = 0.9 if (mode, q) == ("primal", 2.0) else 1.0  # the pole of q = 2 is at 1
    results, inner = [], kink_truth(text, 1.0, b)
    for rel_tol in REL_TOLS:
        config = QuadratureConfig(ABS_TOL, rel_tol)
        if mode == "primal":
            res, want = primal_qint(f, 0.0, b, d, config), kink_truth(text, q, b)
        else:
            res = dual_qint(f, 0.0, b, d, config)
            want = inner if d.classical else mp.expm1(mp.mpf(d.delta) * inner) / d.delta
        results.append((res, want, config))

    def scale(res):
        # the dual estimate is the inner integral A's times e^(delta A), and the
        # tolerance is met on A (the estimate is transported after the test)
        return 1.0 if mode == "primal" else math.exp(d.delta * inner) * abs(inner / res.value)

    assert _checked(results, scale) >= 2  # at rel_tol 1e-6 and 1e-8 at least


def test_the_qexp_cutoff_is_a_break_point_of_the_ordinary_integral():
    # qexp(x) at q = 0.5 is (1 + x/2)^2 above its cutoff -2 and 0 below it
    f = funcexpr.compile(parse("qexp(x)", Deformation(0.5)))
    with mp.workdps(40):
        want = +mp.quad(lambda x: (1 + x / 2) ** 2 if x > -2 else 0, [-3, -2, 0])
    results = [(primal_qint(f, -3.0, 0.0, Deformation(1.0), QuadratureConfig(ABS_TOL, tol)),
                want, QuadratureConfig(ABS_TOL, tol)) for tol in REL_TOLS + (1e-12,)]
    assert _checked(results) == len(results)


# ---------------------------------------------------------------------------
# What the split spends, and where it lands


@pytest.mark.parametrize("text,head", [("abs(x-0.3)", 724), ("sqrt(abs(x-0.3))", 844),
                                       ("ln(abs(x-0.3))", 1204)])
def test_kinks_split_at_their_point_cost_two_step_sums(text, head):
    # at the parent of this rule, the whole interval took the first panel, the
    # step sum's 409 nodes and the adaptive loop: `head` evaluations
    d = Deformation(0.5)
    res = dual_qint(funcexpr.compile(parse(text, d)), 0.0, 1.0, d)
    assert not res.flags and (res.n_panels, res.n_evals) == (0, 2 * 51) and res.n_evals < head


@pytest.mark.parametrize("text,a,b", [
    ("abs(x-0.3)", 0.0, 1.0), ("1/sqrt(abs(x-0.3))", 0.0, 1.0), ("ln(abs(x-0.3))", 1.0, 0.0),
    ("1/sqrt(abs(x-0.3))", 0.3, 1.0),  # a break point at a bound that is not 0
    ("ln(x)+2", 0.0, 0.75),  # at the bound 0, on f itself
    ("abs(x-0.3)*abs(x-0.6)+sqrt(x)", 0.0, 1.0),  # two inside: a piece split at its midpoint
    ("sqrt(abs(x-0.3))", -1.0, -0.5),  # none in the interval
    ("1/(x-0.1)+1/(x-0.5)+1/(x-0.9)", 0.0, 1.0),  # runs that diverge share one budget
])
@pytest.mark.parametrize("tol", [1e-8, 1e-13, 1e-300])
def test_split_runs_match_the_reference(text, a, b, tol):
    d = Deformation(1.0)
    tree = parse(text, d)
    f = funcexpr.compile(tree)
    config = QuadratureConfig(tol, tol, max_subdivisions=20)
    breaks = f.break_points()  # as the integrators find them before they split
    got = qquad._split(f, a, b, config)
    lo, hi = min(a, b), max(a, b)

    def shift(p):
        return funcexpr.compile(shifted(tree, p)).eval

    want = reference_integral(f.eval, lo, hi, config, breaks, shift)
    sign = 1.0 if a < b else -1.0
    assert (bits(got[0]), bits(got[1]), *got[2:]) == (bits(sign * want[0]), bits(want[1]),
                                                     *want[2:])


@pytest.mark.parametrize("text", ["1/(x-0.3)", "1/(x-0.1)+1/(x-0.3)+1/(x-0.5)+1/(x-0.7)+1/(x-0.9)"])
@pytest.mark.parametrize("n", [200, 2000])
def test_a_split_spends_one_subdivision_budget(text, n):
    # each run had the whole budget: 1/(x-0.3) made 8002 panels at n = 2000,
    # and the second form 10 runs' worth; a run that totals -inf (as the first
    # does at n = 2000) ends the split
    d = Deformation(0.5)
    config = QuadratureConfig(max_subdivisions=n)
    res = dual_qint(funcexpr.compile(parse(text, d)), 0.0, 1.0, d, config)
    assert res.flags == {IntegralFlag.TOLERANCE_NOT_MET}
    assert 2 * n < res.n_panels <= 2 * n + 10  # a first panel a run, 2 a subdivision
    if n == 2000:  # the first run reaches -inf and is the last
        assert res.n_panels == 2 * n + 1 and math.isnan(res.error_estimate)


def test_a_pole_inside_is_not_split():
    # qexp(x) at q = 2 is inf past its pole 1: the integral diverges, and the
    # run is that of the whole interval, as with no break points
    d = Deformation(2.0)
    f = funcexpr.compile(parse("qexp(x)+1/(x+3)", d))
    config = QuadratureConfig(max_subdivisions=10)
    got = dual_qint(f, 0.5, 1.5, d, config)
    want = qquad._integrate(f, 0.5, 1.5, config)
    assert (got.n_panels, got.n_evals) == want[3:] and got.flags


@pytest.mark.parametrize("mode", ["primal", "dual"])
def test_an_interior_singularity_integrates_from_the_cli(mode):
    # it exited 1 with "division by zero", a node having landed on 0.3
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["integrate", "1/sqrt(abs(x-0.3))", mode, "0", "1", "--q", "0.5"])
    assert code == 0
    value, estimate, flags = out.getvalue().splitlines()[-1].split(",")
    assert flags == ""
    inner = kink_truth("1/sqrt(abs(x-0.3))", 1.0 if mode == "dual" else 0.5, 1.0)
    want = mp.expm1(inner / 2) * 2 if mode == "dual" else inner
    assert abs(float(value) - want) <= float(estimate)


# ---------------------------------------------------------------------------
# A numeric derivative at a break point


@pytest.mark.parametrize("op,q", [(dual_qderiv_numeric_with_estimate, 0.5),
                                  (dual_qderiv_numeric_with_estimate, 1.0),
                                  (primal_qderiv_numeric_with_estimate, 1.0)])
@pytest.mark.parametrize("text", ["abs(x-0.3)", "abs(x-0.3)^2"])
def test_a_zero_estimate_at_a_break_point_warns(op, q, text):
    # the central pairs straddle the kink symmetrically: each quotient is 0.
    # They cancel as exactly where f is smooth with slope 0 at its break point
    # (abs(x-0.3)^2), which the warning does not tell apart: it says only that
    # f may not be differentiable there
    d = Deformation(q)
    f = funcexpr.compile(parse(text, d))
    with pytest.warns(ToleranceWarning, match="straddles a break point of the function, where "
                                              "it may not be differentiable") as caught:
        assert op(f, 0.3, d) == (0.0, 0.0)
    assert len(caught) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert op(f, 0.6, d)[0] > 0.0  # elsewhere, no warning


def test_a_wrapper_has_the_break_points_of_what_it_wraps():
    # a function that declares what it wraps in __wrapped__, as the benchmark's
    # tracer does, breaks where that does; runs are on the wrapper itself, in
    # x, so every evaluation goes through it
    d = Deformation(0.5)
    for text, a, b, shape in (("ln(x)+2", 0.0, 0.75, (0, 51)), ("abs(x-0.3)", 0.0, 1.0, (0, 102))):
        tree = funcexpr.compile(parse(text, d))
        calls = []

        def wrapper(x, g=tree.eval):
            calls.append(x)
            return g(x)

        wrapper.__wrapped__ = tree.eval
        f = funcexpr.RealFunction(wrapper)
        got, want = dual_qint(f, a, b, d), dual_qint(tree, a, b, d)
        assert f.breaks == tree.breaks and (got.n_panels, got.n_evals) == shape
        assert len(calls) == got.n_evals and got.value == pytest.approx(want.value, rel=1e-14)
        assert not any(key[0] == "shifted" for key in f.stencils)

"""Bounded argv fuzz of ``cli.main``, in process.

Command lines are drawn over eval, diff, integrate and qline, with the
benchmark's expressions and malformed ones, numbers at the edges (nan, inf,
a negative exponent, the float limit) and grid sizes on both sides of every
bound. Whatever the input, main returns a documented exit code and never
lets an exception out; no --out is drawn, so nothing is written to disk.
"""

import contextlib
import io

import pytest

from qcalc import cli

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

EXPRESSIONS = (  # the benchmark's tables and integrals pools
    "x^2+3*x-1", "sin(x)*cos(x)", "exp(x/2)-1.2", "1/(x+3)", "sqrt(x+1.5)-1",
    "qexp(x/3)-1", "qlog(x+2)", "x*qexp(x/4)+sin(x)^2", "ln(x+2)*cos(x)",
    "(x+1)^3/(x^2+1)-0.5", "qexp(x)", "qexp(x)+qexp(-x)", "exp(-x)*sin(3*x)+1",
    "qexp(x/2)", "1/(x+2)", "x^2*cos(x)-x", "sqrt(x)*exp(x)", "ln(x)+2", "x*ln(x)",
)
MALFORMED = ("", "x+", "sin(", "x^^2", "qexp(x", "foo(x)", "1e", "x x", "²", ")")
EDGES = ("nan", "inf", "-inf", "-1e-05", "1e308", "-1e308", "1e-300", "x")
Q = ("-1", "0", "0.5", "0.9", "1", "1.1", "2")
POINTS = ("-1", "0", "1", "2", "9", str(cli.MAX_POINTS + 1), str(10**20))


def mostly(good, bad):
    """One of ``good`` four times in five, else one of ``bad``: with every
    field drawn at random, almost no command line would get past parsing."""
    return st.integers(0, 4).flatmap(lambda i: st.sampled_from(bad if i == 0 else good))


LOW, HIGH = mostly(("-1", "-1e-05", "0"), EDGES), mostly(("0.5", "1", "2"), EDGES)


@st.composite
def argv(draw):
    command = draw(st.sampled_from(("eval", "diff", "integrate", "qline")))
    args = [command, draw(mostly(EXPRESSIONS, MALFORMED))]
    if command == "diff":
        args += [draw(st.sampled_from(("primal", "dual"))),
                 draw(st.sampled_from(("numeric", "closed")))]
    elif command == "integrate":
        args += [draw(st.sampled_from(("primal", "dual", "borges-dual"))),
                 *draw(st.permutations([draw(LOW), draw(HIGH)]))]
    elif command == "qline":
        kind = draw(st.sampled_from(("secant", "tangent")))
        n = draw(mostly((2 if kind == "secant" else 1,), (0, 1, 2, 3)))
        args += [draw(st.sampled_from(("primal", "dual"))), kind,
                 *draw(st.lists(mostly(("0.25", "0.75"), EDGES), min_size=n, max_size=n))]
    if command != "integrate":  # all of --from, --to and --points, or some of them
        grid = [["--from", draw(LOW)], ["--to", draw(HIGH)],
                ["--points", draw(mostly(("2", "9"), POINTS))]]
        keep = draw(mostly(((True, True, True),), [(a, b, c) for a in (0, 1) for b in (0, 1)
                                                   for c in (0, 1)]))
        args += [arg for part, kept in zip(grid, keep) if kept for arg in part]
    args += draw(mostly((["--q", draw(mostly(Q, EDGES))],), ([],)))
    args += draw(st.sampled_from(([], ["--format", "json"])))
    return args


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(args=argv())
def test_main_returns_a_documented_exit_code(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    assert code in (0, 1, 2, 3), (args, code)
    assert "Traceback" not in err.getvalue(), args

"""Property tests: generated Kronrod panels against the looped reference
panel of ``test_quadrature_engine``, bit for bit.

A panel fuses a tree's statements, the chart that maps a node u to x (x
itself, or the primal chart on either side of the pole) and the integrand
weight (none, or the Borges value-side integrand) into one function of
(a, b). Over random trees at the 7 battery q values and each (weight,
chart) pair the integrators use, its (value, estimate), or the type and
message of its error, must equal the reference panel applied to the
weighted point function of u.
"""

import math
import pickle

import pytest

from qcalc import Deformation, evaluate, funcexpr, parse, primal_qint, qquad
from test_codegen_properties import TREES, with_deformation
from test_compiled_eval import Q_VALUES, reference
from test_quadrature_engine import bits, reference_panel

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# the shared primal chart above and below the pole
ABOVE, BELOW = funcexpr.CHART_ABOVE, funcexpr.CHART_BELOW
PANELS = (("none", "{}"), ("borges", "{}"), ("none", ABOVE), ("none", BELOW))
INTERVALS = [(0.0, 1.0), (-0.15, 0.75), (-2.0, 3.0), (0.0, 0.0), (1.0, -1.0), (-1e300, 1e300),
             (-0.0, -0.0), (-1.5e308, 1.5e308)]  # a centre of -0.0; a half-length near the limit


def weighted(f, weight, delta, x_of):
    """The point function of u that the integrators' panels compute."""
    chart = {"{}": lambda u: u,
             ABOVE: lambda u: math.expm1(delta * u) / delta,
             BELOW: lambda u: (-math.exp(delta * u) - 1.0) / delta}[x_of]
    if weight == "borges":
        def g(u):
            y = f(chart(u))
            return (1.0 + delta * y) * y
        return g
    return lambda u: f(chart(u))


def panel_outcome(panel, *args):
    try:
        value, estimate = panel(*args)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return bits(value), bits(estimate)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(tree=TREES, drawn=st.lists(st.tuples(st.floats(-10, 10), st.floats(-10, 10)), max_size=2))
def test_generated_panel_matches_the_reference_panel(tree, drawn):
    for q in Q_VALUES:
        d = Deformation(q)
        f = funcexpr.compile(with_deformation(tree, d)).eval
        for weight, x_of in PANELS:
            panel = qquad._kronrod(f, weight, d.delta, x_of)
            g = weighted(f, weight, d.delta, x_of)
            for a, b in INTERVALS + drawn:
                want = panel_outcome(reference_panel, g, a, b)
                assert panel_outcome(panel, a, b) == want, (q, weight, x_of, a, b)


@pytest.mark.parametrize("weight, x_of", PANELS, ids=["none", "borges", "primal", "primal-below"])
def test_hand_built_and_large_integrands_match_the_reference(weight, x_of):
    d = Deformation(0.5)
    big = funcexpr.compile(parse("+".join(["sin(x)*x"] * 200), d)).eval
    cases = [(f, f) for f in (math.exp, lambda x: 1.0 / x, big)]
    # qexp's kernel branches (the cutoff, the pole, bracket-power and exp
    # overflow), qlog outside its domain and settled checks, against the
    # reference walker's q_exp and q_log
    cases += [(funcexpr.compile(tree).eval, lambda x, tree=tree: reference(tree, x, None))
              for q in (0.5, 1.0, 2.0) for tree in (parse(text, Deformation(q))
                                                    for text in ("qexp(x)", "qlog(x)+x/4", "x^-1"))]
    for f, f_reference in cases:
        panel = qquad._kronrod(f, weight, d.delta, x_of)
        for a, b in INTERVALS:
            want = panel_outcome(reference_panel, weighted(f_reference, weight, d.delta, x_of), a, b)
            assert panel_outcome(panel, a, b) == want


def test_trees_of_one_shape_share_one_panel_factory():
    text = "x*qexp(x/4)+sin(x)^2"
    qs = [q for q in Q_VALUES if q != 1.0]  # the chart's delta is not zero
    fs = [funcexpr.compile(parse(text, Deformation(q))).eval for q in qs]
    funcexpr._factory.cache_clear()
    panels = [qquad._kronrod(f, "none", 1.0 - q, ABOVE) for f, q in zip(fs, qs)]
    info = funcexpr._factory.cache_info()
    assert (info.misses, info.hits) == (1, len(qs) - 1)
    assert len({p.__code__ for p in panels}) == 1
    assert len({p(0.1, 0.6) for p in panels}) == len(qs)


def test_a_tree_keeps_one_panel_maker_per_weight():
    f = funcexpr.compile(parse("exp(-x)*sin(3*x)+1", Deformation(0.5))).eval
    assert f.panels == {}  # nothing is kept for a tree that is never integrated
    for delta in (0.5, -1.0, 2.0, 0.25):
        qquad._kronrod(f, "none", delta, ABOVE)
    qquad._kronrod(f, "none", -1.0, BELOW)  # and one per chart
    qquad._kronrod(f, "borges", 0.5)
    assert len(f.panels) == 3
    makers = dict(f.panels)
    qquad._kronrod(f, "none", 3.0, ABOVE)
    assert f.panels == makers  # the same maker objects: nothing regenerated


def test_a_panel_holds_the_statements_of_its_tree_once():
    d = Deformation(0.5)
    fs = [funcexpr.compile(parse("+".join(["sin(x)*x"] * n), d)).eval for n in (1, 100)]
    panels = [qquad._kronrod(f, "none", d.delta, ABOVE) for f in fs]
    size = [[len(g.__code__.co_code) for g in pair] for pair in (fs, panels)]
    # written out at each of the 15 nodes, the statements would grow it about 15-fold
    assert size[1][1] - size[1][0] < 2 * (size[0][1] - size[0][0])


def test_evaluated_and_integrated_trees_pickle():
    d = Deformation(0.5)
    tree = parse("exp(-x)*sin(3*x)+qexp(x/2)", d)
    value = evaluate(tree, 0.3)
    result = primal_qint(funcexpr.compile(tree), 0.0, 0.75, d)
    copy = pickle.loads(pickle.dumps(tree))
    assert copy == tree and evaluate(copy, 0.3) == value
    assert primal_qint(funcexpr.compile(copy), 0.0, 0.75, d) == result

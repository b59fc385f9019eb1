"""Property tests: generated Kronrod panels against the looped reference
panel of ``test_quadrature_engine``, bit for bit.

A panel fuses a tree's statements and the integrand weight (none, the
primal measure, or the Borges value-side integrand) into one function of
(a, b). Over random trees at the 7 battery q values and each weight, its
(value, estimate), or the type and message of its error, must equal the
reference panel applied to the weighted point function.
"""

import math
import pickle

import pytest

from qcalc import Deformation, evaluate, funcexpr, parse, primal_qint, qquad
from test_codegen_properties import TREES, with_deformation
from test_compiled_eval import Q_VALUES
from test_quadrature_engine import bits, reference_panel

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

WEIGHTS = ("none", "primal", "borges")
INTERVALS = [(0.0, 1.0), (-0.15, 0.75), (-2.0, 3.0), (0.0, 0.0), (1.0, -1.0), (-1e300, 1e300),
             (-0.0, -0.0), (-1.5e308, 1.5e308)]  # a centre of -0.0; an infinite half-length


def weighted(f, weight, delta):
    """The point function the integrators built before panels were generated."""
    if weight == "primal":
        return lambda x: f(x) / (1.0 + delta * x)
    if weight == "borges":
        def g(x):
            y = f(x)
            return (1.0 + delta * y) * y
        return g
    return f


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
        for weight in WEIGHTS:
            panel = qquad._kronrod(f, weight, d.delta)
            g = weighted(f, weight, d.delta)
            for a, b in INTERVALS + drawn:
                want = panel_outcome(reference_panel, g, a, b)
                assert panel_outcome(panel, a, b) == want, (q, weight, a, b)


@pytest.mark.parametrize("weight", WEIGHTS)
def test_hand_built_and_large_integrands_match_the_reference(weight):
    d = Deformation(0.5)
    big = funcexpr.compile(parse("+".join(["sin(x)*x"] * 200), d)).eval
    for f in (math.exp, lambda x: 1.0 / x, big):
        panel = qquad._kronrod(f, weight, d.delta)
        for a, b in INTERVALS:
            want = panel_outcome(reference_panel, weighted(f, weight, d.delta), a, b)
            assert panel_outcome(panel, a, b) == want


def test_trees_of_one_shape_share_one_panel_factory():
    text = "x*qexp(x/4)+sin(x)^2"
    fs = [funcexpr.compile(parse(text, Deformation(q))).eval for q in Q_VALUES]
    funcexpr._factory.cache_clear()
    panels = [qquad._kronrod(f, "primal", 1.0 - q) for f, q in zip(fs, Q_VALUES)]
    info = funcexpr._factory.cache_info()
    assert (info.misses, info.hits) == (1, len(Q_VALUES) - 1)
    assert len({p.__code__ for p in panels}) == 1
    assert len({p(0.1, 0.6) for p in panels}) == len(Q_VALUES)


def test_a_tree_keeps_one_panel_maker_per_weight():
    f = funcexpr.compile(parse("exp(-x)*sin(3*x)+1", Deformation(0.5))).eval
    assert f.panels == {}  # nothing is kept for a tree that is never integrated
    for delta in (0.5, -1.0, 2.0, 0.25):
        qquad._kronrod(f, "primal", delta)
    qquad._kronrod(f, "borges", 0.5)
    assert len(f.panels) == 2
    makers = dict(f.panels)
    qquad._kronrod(f, "primal", 3.0)
    assert f.panels == makers  # the same maker objects: nothing regenerated


def test_a_panel_holds_the_statements_of_its_tree_once():
    d = Deformation(0.5)
    fs = [funcexpr.compile(parse("+".join(["sin(x)*x"] * n), d)).eval for n in (1, 100)]
    panels = [qquad._kronrod(f, "primal", d.delta) for f in fs]
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

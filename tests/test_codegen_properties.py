"""Property tests: generated functions of random trees against the
reference tree walker of ``test_compiled_eval``, bit for bit.

Trees are drawn over every node kind, with constants that include 0, an
overflowed literal (1e400 is inf) and negated constants, and are evaluated
at the 7 battery q values, at the edge points of ``test_compiled_eval``
and at drawn x. Value, flag set, and error type and message must match,
for the tree and for its derivative tree, and the domain predicate holds
exactly where the reference raises nothing.
"""

import pytest

from qcalc import Deformation, evaluate, funcexpr
from qcalc.funcexpr import CALL_NAMES, BinOp, Call, Neg, Num, Var, differentiate
from test_compiled_eval import (
    POINTS,
    Q_VALUES,
    extended_compiled,
    extended_reference,
    outcome,
    reference,
)

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

CONSTANTS = st.one_of(st.sampled_from([0.0, 1.0, 2.0, 0.5, 3.0, 1e400]), st.floats())
LEAVES = st.one_of(
    st.just(Var()),
    st.builds(Num, CONSTANTS),
    st.builds(lambda c: Neg(Num(c)), CONSTANTS),
)


def _branches(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(BinOp, st.sampled_from("+-*/^"), children, children),
        st.builds(Call, st.sampled_from(CALL_NAMES), children),
    )


TREES = st.recursive(LEAVES, _branches, max_leaves=10)


def with_deformation(node, d):
    """The tree with d bound to every qexp/qlog node (as the parser does)."""
    if isinstance(node, Neg):
        return Neg(with_deformation(node.operand, d))
    if isinstance(node, BinOp):
        return BinOp(node.op, with_deformation(node.left, d), with_deformation(node.right, d))
    if isinstance(node, Call):
        bound = d if node.func in ("qexp", "qlog") else None
        return Call(node.func, with_deformation(node.arg, d), bound)
    return node


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tree=TREES, drawn=st.lists(st.floats(), max_size=3))
def test_generated_function_matches_the_reference_walker(tree, drawn):
    for q in Q_VALUES:
        bound = with_deformation(tree, Deformation(q))
        f = funcexpr.compile(bound)
        dtree = differentiate(bound)
        for x in POINTS + drawn:
            want = outcome(reference, bound, x, None)
            assert outcome(evaluate, bound, x) == want, x
            assert f.domain(x) is (want[1] is None), x
            assert outcome(extended_compiled, bound, x) == outcome(
                extended_reference, bound, x), x
            assert outcome(f.derivative, x) == outcome(reference, dtree, x, None), x

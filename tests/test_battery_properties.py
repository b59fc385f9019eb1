"""Property tests that widen the verify battery's fixed-seed samples.

The battery checks the q-algebra identity table, q_add/q_sub inversion, the
print -> parse round trip and parse-error byte offsets on samples drawn
from fixed seeds. The same invariants are drawn here by Hypothesis, at the
battery's tolerances and over its q sweep, on inputs no seed picked.
"""

import pytest

from qcalc import Deformation, ParseError, parse, to_text
from qcalc.funcexpr import CALL_NAMES, BinOp, Call, Neg, Num, Var
from qcalc.qcore import EvalFlag, q_add, q_log, q_mul, q_sub
from qcalc.verify import DEFAULT_Q_SWEEP

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

DS = [Deformation(q) for q in DEFAULT_Q_SWEEP]
POSITIVE = st.floats(min_value=0.05, max_value=4.0)
UNIT = st.floats(min_value=-2.0, max_value=2.0)
SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def rel(lhs, rhs):
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def flagged(ev):
    """The value left the identities' domain (the battery skips these)."""
    return EvalFlag.CUTOFF_APPLIED in ev.flags or EvalFlag.POLE_REACHED in ev.flags


@SETTINGS
@given(x=POSITIVE, y=POSITIVE)
def test_log_of_a_product_is_the_q_sum_of_the_logs(x, y):
    for d in DS:
        assert rel(q_log(x * y, d), q_add(q_log(x, d), q_log(y, d), d)) <= 1e-10, d.q


@SETTINGS
@given(x=POSITIVE, y=POSITIVE)
def test_log_of_a_quotient_is_the_q_difference_of_the_logs(x, y):
    for d in DS:
        assert rel(q_log(x / y, d), q_sub(q_log(x, d), q_log(y, d), d)) <= 1e-10, d.q


@SETTINGS
@given(x=POSITIVE, y=POSITIVE)
def test_log_of_the_q_product_is_the_sum_of_the_logs(x, y):
    for d in DS:
        prod = q_mul(x, y, d)
        if not flagged(prod):
            assert rel(q_log(prod.value, d), q_log(x, d) + q_log(y, d)) <= 1e-10, d.q


@SETTINGS
@given(x=UNIT, y=UNIT)
def test_q_sub_inverts_q_add(x, y):
    for d in DS:
        if abs(d.bracket(y)) >= 1e-3:
            assert rel(q_sub(q_add(x, y, d), y, d), x) <= 1e-12, d.q


def parser_trees(d):
    """Trees the parser can produce: constants are non-negative and finite
    (a minus sign is a Neg node), and qexp/qlog carry the deformation."""
    leaves = st.one_of(
        st.just(Var()),
        st.builds(Num, st.floats(min_value=0.0, allow_infinity=False).map(abs)),
    )

    def branches(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(BinOp, st.sampled_from("+-*/^"), children, children),
            st.builds(
                lambda name, arg: Call(name, arg, d if name in ("qexp", "qlog") else None),
                st.sampled_from(CALL_NAMES), children,
            ),
        )

    return st.recursive(leaves, branches, max_leaves=12)


BOUND_TREES = st.one_of(*(parser_trees(d).map(lambda tree, d=d: (d, tree)) for d in DS))


@SETTINGS
@given(bound=BOUND_TREES)
def test_print_then_parse_gives_back_the_tree(bound):
    d, tree = bound
    assert parse(to_text(tree), d) == tree


@SETTINGS
@given(text=st.text())
def test_parse_error_offset_is_a_character_boundary_of_the_utf8_text(text):
    try:
        parse(text, DS[2])
    except ParseError as exc:
        boundaries = {len(text[:i].encode("utf-8")) for i in range(len(text) + 1)}
        assert 0 <= exc.offset <= len(text.encode("utf-8"))
        assert exc.offset in boundaries

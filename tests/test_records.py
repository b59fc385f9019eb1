"""The record classes behave as the frozen dataclasses they replaced.

The dataclass definitions are kept below as the reference; each record is
checked against it for repr, ==, hash, pickling, copy.copy, assignment and
constructor errors. Trees keep those values at any depth: their passes do
not recurse. qcalc itself imports ``dataclasses`` only to raise
``FrozenInstanceError``; the import-pin tests check what a CLI call loads.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import os
import pickle
import subprocess
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Optional

import pytest

import qcalc
from qcalc import funcexpr, qcore, qdiff, qgeom, qquad, verify
from qcalc.qcore import EvalFlag, q_add, q_log_exp_of, q_times_n
from qcalc.qquad import IntegralFlag, SingularityMode

# ---------------------------------------------------------------------------
# Reference: the dataclass definitions of the records

# The records' default domain, so that reference and record reprs and hashes
# of a RealFunction made without one agree.
_DEFAULT_DOMAIN = funcexpr.RealFunction.__init__.__defaults__[1]


@dataclass(frozen=True)
class Deformation:
    q: float
    delta: float = field(init=False, repr=False, compare=False)
    classical: bool = field(init=False, repr=False, compare=False)
    inv_delta: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.q):
            raise ValueError(f"q must be finite, got {self.q}")
        delta = 1.0 - self.q
        classical = abs(delta) < qcore.Q1_EPSILON
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "classical", classical)
        object.__setattr__(self, "inv_delta", math.nan if classical else 1.0 / delta)


@dataclass(frozen=True)
class ExtendedValue:
    value: float
    flags: frozenset = field(default_factory=frozenset)


@dataclass(frozen=True)
class RealFunction:
    eval: Callable[[float], float]
    derivative: Optional[Callable[[float], float]] = None
    domain: Optional[Callable[[float], bool]] = _DEFAULT_DOMAIN
    label: str = ""


class _Node:
    def __getstate__(self):  # as the tree nodes' base had it
        return {k: v for k, v in vars(self).items() if k != "_compiled"}


@dataclass(frozen=True)
class Num(_Node):
    value: float


@dataclass(frozen=True)
class Var(_Node):
    pass


@dataclass(frozen=True)
class Neg(_Node):
    operand: object


@dataclass(frozen=True)
class BinOp(_Node):
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call(_Node):
    func: str
    arg: object
    deformation: Optional[Deformation] = None


@dataclass(frozen=True)
class DerivConfig:
    rel_tol: float = 1e-8

    def __post_init__(self):
        if self.rel_tol <= 0.0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")
        if not math.isfinite(self.rel_tol):
            raise ValueError(f"rel_tol must be finite, got {self.rel_tol}")


@dataclass(frozen=True)
class PrimalQLine:
    q: Deformation
    k_q: float
    c: float


@dataclass(frozen=True)
class DualQLine:
    q: Deformation
    k_sup_q: float
    intercept: float


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 2000
    singularity_mode: SingularityMode = SingularityMode.ERROR

    def __post_init__(self):
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if not (math.isfinite(self.abs_tol) and math.isfinite(self.rel_tol)):
            raise ValueError(f"tolerances must be finite, got {self.abs_tol}, {self.rel_tol}")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float
    flags: frozenset = field(default_factory=frozenset)
    n_panels: int = field(default=0, compare=False)
    n_evals: int = field(default=0, compare=False)


@dataclass(frozen=True)
class GeometricPartition:
    x_lo: float
    x_hi: float
    n: int
    deformation: Deformation
    z: float = field(init=False)
    t: float = field(init=False)
    nodes: tuple = field(init=False)

    def __post_init__(self):
        d = self.deformation
        z = (1.0 + d.delta * self.x_hi) / (1.0 + d.delta * self.x_lo)
        t = q_log_exp_of(math.log(z) / (self.n * d.delta), d)
        nodes = [self.x_lo]
        for i in range(1, self.n):
            nodes.append(q_add(self.x_lo, q_times_n(i, t, d), d))
        nodes.append(self.x_hi)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "nodes", tuple(nodes))


@dataclass(frozen=True)
class PropertyResult:
    name: str
    max_residual: float
    tolerance: float
    passed: bool
    detail: str = ""


NAMES = (
    "Deformation", "ExtendedValue", "RealFunction", "Num", "Var", "Neg", "BinOp",
    "Call", "DerivConfig", "PrimalQLine", "DualQLine", "QuadratureConfig",
    "IntegralResult", "GeometricPartition", "PropertyResult",
)
LAYERS = (qcore, funcexpr, qdiff, qgeom, qquad, verify)
OURS = SimpleNamespace(**{
    name: next(getattr(m, name) for m in LAYERS if name in m.__all__) for name in NAMES
})
REF = SimpleNamespace(**{name: globals()[name] for name in NAMES})

# ---------------------------------------------------------------------------
# Cases: each builds a record from a family of classes, ours or the reference

NAN = float("nan")
_CUT = frozenset({EvalFlag.CUTOFF_APPLIED})


def _positive(x):
    return x > 0.0


def _tree(n):
    return n.BinOp("+", n.Neg(n.Num(2.5)),
                   n.Call("qexp", n.BinOp("*", n.Var(), n.Num(0.5)), n.Deformation(0.5)))


CASES = {
    "Deformation": [
        lambda n: n.Deformation(0.5), lambda n: n.Deformation(q=2.0),
        lambda n: n.Deformation(1.0), lambda n: n.Deformation(-0.0),
        lambda n: n.Deformation(0.0),
    ],
    "ExtendedValue": [
        lambda n: n.ExtendedValue(1.5), lambda n: n.ExtendedValue(0.0, _CUT),
        lambda n: n.ExtendedValue(math.inf, frozenset({EvalFlag.POLE_REACHED})),
        lambda n: n.ExtendedValue(math.nan), lambda n: n.ExtendedValue(NAN),
        lambda n: n.ExtendedValue(value=1.5, flags=frozenset()),
        lambda n: n.ExtendedValue(1, frozenset()),
    ],
    "RealFunction": [
        lambda n: n.RealFunction(math.exp),
        lambda n: n.RealFunction(math.exp, derivative=math.exp),
        lambda n: n.RealFunction(math.log, math.sqrt, _positive, "log"),
        lambda n: n.RealFunction(eval=math.log, domain=_positive, label="log"),
    ],
    "Num": [lambda n: n.Num(2.5), lambda n: n.Num(value=-0.0),
            lambda n: n.Num(0.0), lambda n: n.Num(math.nan)],
    "Var": [lambda n: n.Var()],
    "Neg": [lambda n: n.Neg(n.Var()), lambda n: n.Neg(operand=n.Num(1.0)),
            lambda n: n.Neg(n.Neg(n.Var()))],
    "BinOp": [lambda n: n.BinOp("+", n.Var(), n.Num(1.0)),
              lambda n: n.BinOp(op="^", left=n.Var(), right=n.Num(1.0)),
              _tree],
    "Call": [lambda n: n.Call("sin", n.Var()),
             lambda n: n.Call("qexp", n.Var(), n.Deformation(0.5)),
             lambda n: n.Call(func="qexp", arg=n.Var(), deformation=n.Deformation(2.0))],
    "DerivConfig": [lambda n: n.DerivConfig(), lambda n: n.DerivConfig(1e-5),
                    lambda n: n.DerivConfig(rel_tol=1e-8)],
    "PrimalQLine": [lambda n: n.PrimalQLine(n.Deformation(0.5), 2.0, -1.0),
                    lambda n: n.PrimalQLine(q=n.Deformation(2.0), k_q=NAN, c=0.0)],
    "DualQLine": [lambda n: n.DualQLine(n.Deformation(0.5), 2.0, -1.0),
                  lambda n: n.DualQLine(n.Deformation(1.0), k_sup_q=1.0, intercept=0.5)],
    "QuadratureConfig": [
        lambda n: n.QuadratureConfig(),
        lambda n: n.QuadratureConfig(1e-13, 1e-12),
        lambda n: n.QuadratureConfig(abs_tol=1e-9, rel_tol=1e-7, max_subdivisions=10,
                                     singularity_mode=SingularityMode.REFLECT),
    ],
    "IntegralResult": [
        lambda n: n.IntegralResult(1.25, 1e-12),
        lambda n: n.IntegralResult(1.25, 1e-12, n_panels=7),
        lambda n: n.IntegralResult(1.25, 1e-12, frozenset(), 1, 66),
        lambda n: n.IntegralResult(1.25, 1e-12, frozenset({IntegralFlag.TOLERANCE_NOT_MET}), 3),
        lambda n: n.IntegralResult(value=NAN, error_estimate=0.0, flags=frozenset()),
    ],
    "GeometricPartition": [
        lambda n: n.GeometricPartition(0.0, 1.0, 3, n.Deformation(0.5)),
        lambda n: n.GeometricPartition(x_lo=0.0, x_hi=1.0, n=4, deformation=n.Deformation(0.5)),
        lambda n: n.GeometricPartition(-0.25, 0.5, 5, n.Deformation(2.0)),
    ],
    "PropertyResult": [
        lambda n: n.PropertyResult("a/b", 1e-16, 1e-12, True),
        lambda n: n.PropertyResult("a/b", 1e-16, 1e-12, True, ""),
        lambda n: n.PropertyResult("a/b", NAN, 1e-12, False, detail="q = 0.5"),
    ],
}
assert sorted(CASES) == sorted(NAMES)

PAIRS = [(name, i) for name in NAMES for i in range(len(CASES[name]))]


def _both(name, i):
    make = CASES[name][i]
    return make(OURS), make(REF)


def _slot_state(record):
    """The slots a record has set, by name, leaving out a tree node's
    generated function (records have no instance dict for vars to read)."""
    return {name: getattr(record, name) for cls in type(record).__mro__
            for name in cls.__dict__.get("__slots__", ())
            if name != "_compiled" and hasattr(record, name)}


def _promised_eq(a, b):
    """The records' equality, on a pair of reference instances: the same
    class, and equal tuples of the compared fields (a tuple short-cuts on
    identity, so a record holding the same NaN object equals itself)."""
    def compared(r):
        return tuple(getattr(r, f.name) for f in dataclasses.fields(r) if f.compare)

    return type(a) is type(b) and compared(a) == compared(b)


def _same_state(a, b):
    """The set slots hold equal values, NaN matching NaN."""
    va, vb = _slot_state(a), _slot_state(b)
    return va.keys() == vb.keys() and all(
        va[k] == vb[k] or (isinstance(va[k], float) and math.isnan(va[k])
                           and isinstance(vb[k], float) and math.isnan(vb[k]))
        for k in va
    )


def _outcome(fn, *args):
    """fn(*args), or the type and message of the exception it raised."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the outcome is compared
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# The checks


@pytest.mark.parametrize("name", NAMES)
def test_fields_are_the_dataclass_fields(name):
    ours, ref = getattr(OURS, name), getattr(REF, name)
    fields = dataclasses.fields(ref)
    assert ours._fields == tuple(f.name for f in fields if f.repr)
    record = CASES[name][0](OURS)
    compared = tuple(getattr(record, f.name) for f in fields if f.compare)
    assert ours._key(record) == compared
    assert not dataclasses.is_dataclass(ours)


def test_default_domain_is_none():
    assert _DEFAULT_DOMAIN is None
    f = funcexpr.RealFunction(math.log)
    assert (f.defined(1.0), f.defined(-1.0)) == (True, False)  # where eval succeeds


@pytest.mark.parametrize("name,i", PAIRS)
def test_repr_and_hash(name, i):
    ours, ref = _both(name, i)
    assert repr(ours) == repr(ref)
    assert str(ours) == str(ref)
    assert hash(ours) == hash(ref)
    assert hash(ours) == hash(CASES[name][i](OURS))


@pytest.mark.parametrize("name", NAMES)
def test_equality_matches_across_every_pair_of_cases(name):
    makers = CASES[name]
    another = CASES[NAMES[(NAMES.index(name) + 1) % len(NAMES)]][0]
    for i, make_a in enumerate(makers):
        a_ours, a_ref = make_a(OURS), make_a(REF)
        assert (a_ours == another(OURS)) is _promised_eq(a_ref, another(REF)) is False
        assert (a_ours == a_ours) is _promised_eq(a_ref, a_ref)
        for make_b in makers:
            b_ours, b_ref = make_b(OURS), make_b(REF)
            assert (a_ours == b_ours) is _promised_eq(a_ref, b_ref), (i, b_ref)
            assert (a_ours != b_ours) is not _promised_eq(a_ref, b_ref), (i, b_ref)
        for other in (None, 1.0, "x", object(), a_ours._key(a_ours)):
            assert (a_ours == other) is (a_ref == other)
            assert a_ours.__eq__(other) is a_ref.__eq__(other)
        assert a_ours.__eq__(a_ref) is NotImplemented
        assert a_ref.__eq__(a_ours) is NotImplemented
        assert (a_ours == a_ref) is False


def test_nan_fields_compare_by_identity_as_in_a_tuple():
    v = OURS.ExtendedValue(NAN)
    assert v == OURS.ExtendedValue(NAN)  # the same nan object
    assert v != OURS.ExtendedValue(float("nan"))
    assert v == v


def test_n_panels_is_in_the_repr_but_not_in_equality():
    a = OURS.IntegralResult(1.0, 0.0, n_panels=3, n_evals=45)
    b = OURS.IntegralResult(1.0, 0.0, n_panels=3, n_evals=66)
    c = OURS.IntegralResult(1.0, 0.0, n_panels=9, n_evals=45)
    assert a == b == c and hash(a) == hash(b) == hash(c)
    assert len({repr(a), repr(b), repr(c)}) == 3 and "n_panels=3, n_evals=45" in repr(a)


def test_partition_nodes_take_part_in_equality():
    a = OURS.GeometricPartition(0.0, 1.0, 3, OURS.Deformation(0.5))
    b = OURS.GeometricPartition(0.0, 1.0, 4, OURS.Deformation(0.5))
    assert a != b
    assert OURS.GeometricPartition._key(a)[4:] == (a.z, a.t, a.nodes)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
@pytest.mark.parametrize("name,i", PAIRS)
def test_pickle_round_trip(name, i, protocol):
    ours, ref = _both(name, i)
    got = _outcome(lambda: pickle.loads(pickle.dumps(ours, protocol)))
    want = _outcome(lambda: pickle.loads(pickle.dumps(ref, protocol)))
    assert got[0] == want[0]
    if got[0] == "ok":
        back, ref_back = got[1], want[1]
        assert type(back) is type(ours)
        assert repr(back) == repr(ref_back) == repr(ours)
        # a NaN field comes back as a new object, unequal as in a tuple
        assert (back == ours) is (ref_back == ref)
        assert (hash(back) == hash(ours)) is (hash(ref_back) == hash(ref))
        assert _same_state(back, ours)


def test_pickled_node_drops_and_rebuilds_its_compiled_function():
    tree = funcexpr.parse("x*qexp(x/4)", OURS.Deformation(0.5))
    value = funcexpr.evaluate(tree, 0.5)
    assert hasattr(tree, "_compiled")
    back = pickle.loads(pickle.dumps(tree))
    assert not hasattr(back, "_compiled")
    assert back == tree and funcexpr.evaluate(back, 0.5) == value


@pytest.mark.parametrize("name,i", PAIRS)
def test_copy(name, i):
    ours, ref = _both(name, i)
    dup = copy.copy(ours)
    assert type(dup) is type(ours)
    assert repr(dup) == repr(copy.copy(ref)) == repr(ours)
    assert dup == ours and hash(dup) == hash(ours)
    assert _slot_state(dup) == _slot_state(ours)


def test_stored_attributes_survive_pickling():
    d = OURS.Deformation(0.5)
    for back in (pickle.loads(pickle.dumps(d)), copy.copy(d)):
        assert (back.delta, back.classical, back.inv_delta) == (0.5, False, 2.0)
    p = OURS.GeometricPartition(0.0, 1.0, 3, d)
    back = pickle.loads(pickle.dumps(p))
    assert (back.z, back.t, back.nodes) == (p.z, p.t, p.nodes)


@pytest.mark.parametrize("name,i", PAIRS)
def test_assignment_and_deletion_raise_frozen_instance_error(name, i):
    ours, ref = _both(name, i)
    attrs = [f.name for f in dataclasses.fields(ref)] + ["anything_else", "__dict__"]
    for attr in attrs:
        for op in (lambda o: setattr(o, attr, 1.0), lambda o: delattr(o, attr)):
            got, want = _outcome(op, ours), _outcome(op, ref)
            assert got == want
            assert got[0] is dataclasses.FrozenInstanceError
    assert repr(ours) == repr(ref)


def _init_fields(name):
    return [f for f in dataclasses.fields(getattr(REF, name)) if f.init]


@pytest.mark.parametrize("name", NAMES)
def test_constructor_argument_errors(name):
    ours, ref = getattr(OURS, name), getattr(REF, name)
    fields = _init_fields(name)
    required = [f for f in fields if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING]
    args = [1.0] * len(fields)
    calls = [
        ((), {}),                                    # every required one missing
        (tuple(args) + (1.0,), {}),                  # one positional too many
        ((), {"no_such_field": 1.0}),                # unknown keyword
    ]
    if required:
        calls.append((tuple(args[: len(required) - 1]), {}))  # the last one missing
        calls.append((tuple(args), {required[0].name: 1.0}))  # given twice
    removed = [f.name for f in dataclasses.fields(ref) if not f.init]
    calls.extend(((tuple(args[: len(required)]), {n: 1.0}) for n in removed))
    for args_, kwargs in calls:
        want = _outcome(lambda: ref(*args_, **kwargs))
        got = _outcome(lambda: ours(*args_, **kwargs))
        if want[0] is TypeError:
            assert got[0] is TypeError, (args_, kwargs)
        else:  # a call the reference accepts (all fields optional)
            assert got[0] == want[0], (args_, kwargs)


def test_validation_errors_match():
    for name, args in [("Deformation", (math.nan,)), ("Deformation", (math.inf,)),
                       ("DerivConfig", (0.0,)), ("DerivConfig", (math.inf,)),
                       ("QuadratureConfig", (-1.0,)), ("QuadratureConfig", (math.nan, 1.0)),
                       ("QuadratureConfig", (1e-9, 1e-9, 0))]:
        got = _outcome(getattr(OURS, name), *args)
        want = _outcome(getattr(REF, name), *args)
        assert got == want and got[0] is ValueError, (name, args)


# ---------------------------------------------------------------------------
# Trees: no pass recurses, a shared subtree is walked once, and random trees
# print, hash and compare as the dataclass reference does

DEPTH = {"BinOp": 9999, "Neg": 1000}  # a 10 000-term x+x+..., a 1000-deep -(-(...x...))


def _deep(node, leaf):
    """The deep tree of that node kind, with leaf as its deepest x."""
    t = leaf
    for _ in range(DEPTH[node]):
        t = OURS.BinOp("+", t, OURS.Var()) if node == "BinOp" else OURS.Neg(t)
    return t


class _HashedAs:
    def __init__(self, value):
        self.value = value

    def __hash__(self):
        return self.value


def _nested_tuple_hash(node):
    """The hash of the deep tree as nested tuples of fields, bottom up."""
    h = hash(())  # Var()
    for _ in range(DEPTH[node]):
        if node == "BinOp":
            h = hash(("+", _HashedAs(h), _HashedAs(hash(()))))
        else:
            h = hash((_HashedAs(h),))
    return h


@pytest.mark.parametrize("node", ["BinOp", "Neg"])
def test_deep_trees_hash_and_compare(node):
    a, b, other = _deep(node, OURS.Var()), _deep(node, OURS.Var()), _deep(node, OURS.Num(1.0))
    assert hash(a) == hash(b) == _nested_tuple_hash(node) != hash(other)
    assert a == b and not a != b
    assert a != other and not a == other


@pytest.mark.parametrize("node", ["BinOp", "Neg"])
def test_deep_trees_print(node):
    opening, closing = {"BinOp": ("BinOp(op='+', left=", ", right=Var())"),
                        "Neg": ("Neg(operand=", ")")}[node]
    want = []
    for _ in range(DEPTH[node]):
        want.append(opening)
    want.append("Var()")
    for _ in range(DEPTH[node]):
        want.append(closing)
    assert repr(_deep(node, OURS.Var())) == "".join(want)


@pytest.mark.parametrize("node", ["BinOp", "Neg"])
def test_deep_trees_pickle_and_copy(node):
    tree = _deep(node, OURS.Num(-0.0))
    copies = [pickle.loads(pickle.dumps(tree, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for back in [*copies, copy.copy(tree), copy.deepcopy(tree)]:
        assert back == tree and back is not tree
        assert back != _deep(node, OURS.Num(0.5))
        deepest = back
        while not isinstance(deepest, OURS.Num):
            deepest = deepest.left if node == "BinOp" else deepest.operand
        assert math.copysign(1.0, deepest.value) == -1.0


def _shares_itself(leaf):
    t = leaf
    for _ in range(64):
        t = OURS.BinOp("+", t, t)
    return t


def test_a_tree_that_shares_itself_hashes_compares_and_pickles():
    a, b = _shares_itself(OURS.Var()), _shares_itself(OURS.Var())
    other = _shares_itself(OURS.Num(1.0))
    assert hash(a) == hash(b) != hash(other)
    assert a == b and a != other
    for back in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert back == a and back.left is back.right


def _reference_tree(node):
    """The dataclass reference of a tree, sharing its leaf values."""
    if isinstance(node, OURS.Deformation):
        return REF.Deformation(node.q)
    if not isinstance(node, funcexpr._Node):
        return node
    return getattr(REF, type(node).__name__)(*map(_reference_tree, node._key(node)))


REF_NODES = (Num, Var, Neg, BinOp, Call)


def _promised_tree_eq(a, b):
    """The records' equality on reference trees, at every level (see _promised_eq)."""
    if not (isinstance(a, REF_NODES) and isinstance(b, REF_NODES)):
        return a == b
    fields = [f.name for f in dataclasses.fields(a)]
    return type(a) is type(b) and all(
        u is v or _promised_tree_eq(u, v)
        for u, v in zip((getattr(a, f) for f in fields), (getattr(b, f) for f in fields)))


def _build_again(node):
    """An equal tree of new node objects, holding the same leaf values."""
    if not isinstance(node, funcexpr._Node):
        return node
    return type(node)(*map(_build_again, node._key(node)))


def _random_trees():
    from hypothesis import strategies as st

    values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, NAN]), st.floats())
    leaves = st.one_of(st.builds(OURS.Var), st.builds(OURS.Num, values))
    deformations = st.sampled_from([None, OURS.Deformation(0.5), OURS.Deformation(2.0)])

    def grow(inner):
        return st.one_of(
            st.builds(OURS.Neg, inner),
            st.builds(OURS.BinOp, st.sampled_from("+*^"), inner, inner),
            st.builds(OURS.Call, st.sampled_from(["sin", "qexp"]), inner, deformations),
            inner.map(lambda t: OURS.BinOp("*", t, t)),  # a shared subtree
        )

    return st.recursive(leaves, grow, max_leaves=12)


def test_random_trees_match_the_reference():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_random_trees(), _random_trees())
    def check(a, b):
        ref_a = _reference_tree(a)
        assert repr(a) == repr(ref_a)
        assert hash(a) == hash(ref_a)
        for x in (a, b, _build_again(a)):
            assert (a == x) is _promised_tree_eq(ref_a, _reference_tree(x))
            assert (a != x) is not _promised_tree_eq(ref_a, _reference_tree(x))

    check()


# ---------------------------------------------------------------------------
# Import pins: what the package and a CLI call load

WATCHED = {"dataclasses", "inspect", "json", "qcalc.verify", "qcalc.qquad", "qcalc.qgeom"}

# python -m qcalc, then the exit code and sys.modules written to a file;
# imports nothing that a CLI call does not import itself
_RUN_AS_MAIN = """
import runpy, sys
out, sys.argv = sys.argv[1], ["qcalc", *sys.argv[2:]]
code = None
try:
    runpy.run_module("qcalc", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
with open(out, "w") as fh:
    fh.write("\\n".join([str(code), *sorted(sys.modules)]))
"""


def _at_startup():
    """The modules a bare interpreter has loaded (site hooks may load some
    watched ones, which no qcalc change can avoid)."""
    res = subprocess.run([sys.executable, "-c", "import sys; print(*sys.modules)"],
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return set(res.stdout.split())


def _loaded(tmp_path, argv):
    """Exit code, the modules it loaded beyond a bare interpreter's, and
    stdout of ``python -m qcalc *argv``."""
    out = tmp_path / "modules.txt"
    res = subprocess.run([sys.executable, "-c", _RUN_AS_MAIN, str(out), *argv],
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    code, *modules = out.read_text().split("\n")
    return int(code), set(modules) - _at_startup(), res.stdout


def test_import_qcalc_loads_no_layer():
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, qcalc; print(sorted(m for m in sys.modules if m.startswith('qcalc')))"],
        capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "['qcalc']"


def test_csv_eval_call_loads_only_what_it_runs(tmp_path):
    argv = ["eval", "x*qexp(x)", "--q", "0.5", "--from", "0", "--to", "1", "--points", "2"]
    code, modules, stdout = _loaded(tmp_path, argv)
    assert code == 0 and stdout.startswith("x,value,flags\n")
    assert {"qcalc.cli", "qcalc.qcore", "qcalc.funcexpr"} <= modules
    assert not modules & WATCHED, sorted(modules & WATCHED)
    assert "qcalc.qdiff" not in modules


def test_verify_call_loads_the_battery_but_not_dataclasses_or_json(tmp_path):
    code, modules, stdout = _loaded(tmp_path, ["verify", "--q", "0.5"])
    assert code == 0 and stdout.endswith("OVERALL,,,PASS,\n")
    assert {"qcalc.verify", "qcalc.qquad", "qcalc.qgeom"} <= modules
    assert not modules & {"dataclasses", "inspect", "json"}


@pytest.mark.parametrize("mode", ["primal", "dual"])
def test_qline_tangent_call_does_not_load_the_quadrature_layer(tmp_path, mode):
    argv = ["qline", "x^2+3*x-1", mode, "tangent", "0.5", "--q", "0.5"]
    code, modules, stdout = _loaded(tmp_path, argv)
    assert code == 0 and stdout.startswith("field,x,value\nslope,,")
    assert {"qcalc.qgeom", "qcalc.qdiff"} <= modules
    assert "qcalc.qquad" not in modules


def _loads_typing(module):
    # -S: no site hooks, which may import typing themselves
    code = (f"import sys; sys.path.insert(0, sys.argv[1]); import {module}; "
            "print('typing' in sys.modules)")
    src = os.path.dirname(os.path.dirname(qcalc.__file__))
    res = subprocess.run([sys.executable, "-S", "-c", code, src],
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout.strip() == "True"


def test_funcexpr_imports_no_typing():
    assert not _loads_typing("qcalc.funcexpr")


def test_verify_imports_no_typing():
    assert not _loads_typing("qcalc.verify")

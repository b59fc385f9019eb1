"""Generated derivative stencils against the looped Richardson reference, bit for bit.

The reference below is what ``qdiff`` ran before its stencils were generated:
a ``phi`` closure per derivative (with the chart ``x_of`` for the primal
one), ``_richardson``'s looped extrapolation table, and ``_refine``'s shrink
loop, with one rule added since: a point where f is not finite is outside
f's domain. For every call the generated form must give the same (value,
estimate) bits, the same ``ToleranceWarning`` texts, the same steps tried
(so the same shrinks), or an error of the same type and message, with a
cause of the same type and message.

The one exception is the sign of a NaN (see ``test_compiled_eval``): every
NaN compares equal to every other here.
"""

import math
import re
import warnings

import pytest

from qcalc import Deformation, DomainError, PoleError, RealFunction, ToleranceWarning, builtin
from qcalc import funcexpr, parse, qdiff
from qcalc.errors import EVAL_ERRORS
from qcalc.qcore import ln_big_e
from qcalc.qdiff import DerivConfig, dual_qderiv_numeric, primal_qderiv_numeric
from test_codegen_properties import TREES, with_deformation
from test_compiled_eval import POINTS, Q_VALUES, calls, names
from test_quadrature_engine import bits

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# the battery's q values, and a classical q whose delta is not zero
Q_ALL = Q_VALUES + (1.0 + 1e-13,)
TIGHT = DerivConfig(rel_tol=1e-14)  # warns on most points
# the arguments of qdiff's point text for a compiled expression: operator, the
# chart texts of the input and the value sides, and how the domain is met; both
# sides of the pole share one text
PRIMAL_CLASSICAL, DUAL_CLASSICAL = ("primal", "{}", "{}", "inline"), ("dual", "{}", "{}", "inline")
PRIMAL_DEFORMED = ("primal", *qdiff._CHARTS["primal"], "inline")
DUAL_DEFORMED = ("dual", *qdiff._CHARTS["dual"], "inline")


# ---------------------------------------------------------------------------
# The reference: qdiff's looped stencil. ``steps`` records (centre, h) per try.

def _richardson(phi, h0):
    row = []
    for j in range(qdiff.RICHARDSON_LEVELS + 1):
        prev_row, row = row, [phi(h0 / 2.0**j)]
        for k in range(1, j + 1):
            row.append(row[k - 1] + (row[k - 1] - prev_row[k - 1]) / (4.0**k - 1.0))
    return row[-1], abs(row[-1] - prev_row[-1])


def _checked(f):
    if f.domain is None:
        return f.eval

    def checked(x):
        if not f.domain(x):
            raise DomainError(f"x = {x} is outside the domain of {f.label or 'f'}")
        return f.eval(x)

    return checked


def _refine(phi, centre, config, where, steps, identity):
    h0 = qdiff.BASE_STEP * 2.0**qdiff.RICHARDSON_LEVELS * max(1.0, abs(centre))
    last_error = None
    for attempt in range(qdiff._MAX_SHRINKS + 1):
        steps.append((centre, h0 / (2.0**attempt)))
        try:
            # on the identity chart, an outermost point past the float range overflows
            if identity and abs(centre) + h0 / (2.0**attempt) == math.inf:
                raise OverflowError("stencil point past the float range")
            value, err = _richardson(phi, h0 / (2.0**attempt))
        except EVAL_ERRORS as e:
            last_error = e
            continue
        if not err <= config.rel_tol * max(1.0, abs(value)):
            message = (f"{where}: error estimate {err:.3e} exceeds "
                       f"rel_tol={config.rel_tol:.1e} (value {value:.6e})")
            warnings.warn(ToleranceWarning(message), stacklevel=2)
        return value, err
    if isinstance(last_error, OverflowError):
        raise DomainError(
            f"{where}: the difference stencil still overflows "
            f"after {qdiff._MAX_SHRINKS} shrinks"
        ) from last_error
    raise DomainError(
        f"{where}: no difference stencil fits inside the domain "
        f"after {qdiff._MAX_SHRINKS} shrinks"
    ) from last_error


def _finite_at(f, x):
    """Whether x is in f's domain and f(x) is finite: a non-finite value is
    outside the domain too."""
    try:
        return (f.domain is None or f.domain(x)) and math.isfinite(f.eval(x))
    except EVAL_ERRORS:
        return False


def reference_primal(f, x, d, config, steps):
    if not _finite_at(f, x):
        raise DomainError(f"x = {x} is outside the domain of {f.label or 'f'}")
    if d.classical:
        u0, x_of = x, lambda u: u
    else:
        s = d.bracket(x)
        if s == 0.0:
            raise PoleError(f"x = {x} sits on the pole of the coordinate chart")
        u0, delta = ln_big_e(x, d), d.delta
        if s > 0.0:
            x_of = lambda u: math.expm1(delta * u) / delta  # noqa: E731
        else:
            x_of = lambda u: (-math.exp(delta * u) - 1.0) / delta  # noqa: E731
    f_at = _checked(f)

    def phi(h):
        return (f_at(x_of(u0 + h)) - f_at(x_of(u0 - h))) / (2.0 * h)

    return _refine(phi, u0, config, "primal derivative", steps, d.classical)


def reference_dual(F, x, d, config, steps):
    F_at = _checked(F)
    try:
        y = F_at(x)
    except EVAL_ERRORS as e:
        raise DomainError(f"x = {x} is outside the domain of {F.label or 'F'}") from e
    if not math.isfinite(y):
        raise DomainError(f"x = {x} is outside the domain of {F.label or 'F'}")
    if d.bracket(y) <= 0.0:
        raise DomainError(
            f"F(x) = {y} lies in the cutoff region at x = {x}; "
            "the dual derivative is undefined there"
        )

    def ln_e(y):  # the chart on the support; log1p's ValueError beyond it
        if d.classical:
            return y
        if d.bracket(y) <= 0.0:
            raise ValueError("math domain error")
        return ln_big_e(y, d)

    def phi(h):
        yp = ln_e(F_at(x + h))
        return (yp - ln_e(F_at(x - h))) / (2.0 * h)

    return _refine(phi, x, config, "dual derivative", steps, True)


REFERENCE = {primal_qderiv_numeric: reference_primal, dual_qderiv_numeric: reference_dual}


# ---------------------------------------------------------------------------
# Outcomes

def _error(exc):
    cause = exc.__cause__
    return (type(exc), str(exc)) + ((type(cause), str(cause)) if cause is not None else ())


def _run(call):
    """(result, warning texts): bits of (value, estimate), or the error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value, estimate = call()
        except Exception as exc:  # the type and message are what is compared
            result = _error(exc)
        else:
            result = (bits(value), bits(estimate))
    return result, [(w.category, str(w.message)) for w in caught]


def _recording_text(lines, result, params, *args):
    """qdiff's point text, whose maker takes one more argument, a list that
    each try appends its (centre, h0) to."""
    code = qdiff._point_text(lines, result, params, *args)
    code = code.replace("def maker(delta, _domain, _label):",
                        "def maker(delta, _domain, _label, _steps):")
    return re.sub(r"^( *)_h0 = _H / _a$", r"\g<0>\n\1_steps.append((_c, _h0))", code,
                  flags=re.M)


class _Recording:
    """Record the point-text arguments and the (centre, h0) per try of the
    point functions qdiff makes for f (none are kept in f.stencils)."""

    def __init__(self, f):
        self.f, self.templates, self.steps = f, [], []

    def __enter__(self):
        real = self.real = qdiff.point_loop

        def recording(g, text, args):
            self.templates.append(args)
            maker = real(g, _recording_text, args)
            return lambda delta, domain, label: maker(delta, domain, label, self.steps)

        qdiff.point_loop = recording
        self.f.stencils.clear()
        return self

    def __exit__(self, *exc):
        qdiff.point_loop = self.real
        self.f.stencils.clear()


def compare(op, f, x, d, config=DerivConfig()):
    """Assert op(f, x, d) and its reference agree; return the recorded templates."""
    ref_steps = []
    want = _run(lambda: REFERENCE[op](f, x, d, config, ref_steps))
    with_estimate = getattr(qdiff, f"{op.__name__}_with_estimate")
    with _Recording(f) as rec:
        got = _run(lambda: with_estimate(f, x, d, config))
    assert got == want, (op.__name__, d.q, x)
    assert rec.steps == ref_steps, (op.__name__, d.q, x)
    return rec.templates


OPS = (primal_qderiv_numeric, dual_qderiv_numeric)


# ---------------------------------------------------------------------------
# Random trees

@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(tree=TREES, drawn=st.lists(st.floats(-5.0, 5.0), max_size=2))
def test_generated_stencil_matches_the_reference(tree, drawn):
    for q in Q_ALL:
        d = Deformation(q)
        f = funcexpr.compile(with_deformation(tree, d))
        for x in POINTS[::3] + drawn:
            for op in OPS:
                compare(op, f, x, d)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(tree=TREES, x=st.floats(-3.0, 3.0))
def test_tolerance_warnings_match_the_reference(tree, x):
    for q in (0.5, 1.0, 2.0):
        d = Deformation(q)
        f = funcexpr.compile(with_deformation(tree, d))
        for op in OPS:
            compare(op, f, x, d, TIGHT)


# ---------------------------------------------------------------------------
# The four texts, shrinking stencils, hand-built functions, deep trees

@pytest.mark.parametrize("op, q, x, template", [
    (primal_qderiv_numeric, 1.0, 0.3, PRIMAL_CLASSICAL),
    (primal_qderiv_numeric, 1.0 + 1e-13, 0.3, PRIMAL_CLASSICAL),
    (primal_qderiv_numeric, 0.5, 0.3, PRIMAL_DEFORMED),
    (primal_qderiv_numeric, 0.5, -2.5, PRIMAL_DEFORMED),
    (primal_qderiv_numeric, 2.0, 1.7, PRIMAL_DEFORMED),
    (dual_qderiv_numeric, 1.0, 0.3, DUAL_CLASSICAL),
    (dual_qderiv_numeric, 0.5, 0.3, DUAL_DEFORMED),
    (dual_qderiv_numeric, 2.0, -0.5, DUAL_DEFORMED),
])
@pytest.mark.parametrize("text", ["x*qexp(x/4)+sin(x)^2", "(x+1)^3/(x^2+1)-0.5", "x"])
def test_each_template_matches_the_reference(op, q, x, template, text):
    d = Deformation(q)
    f = funcexpr.compile(parse(text, d))
    assert compare(op, f, x, d) == [template]
    assert compare(op, f, x, d, TIGHT) == [template]


@pytest.mark.parametrize("text, x", [
    ("sqrt(x)", 1e-6), ("sqrt(x)", 3e-5), ("ln(x)", 2e-6), ("sqrt(x-1)", 1.0 + 1e-5),
    ("sqrt(x)", 1e-300), ("ln(x)", 0.0), ("sqrt(x)", 0.0), ("sqrt(-x)", -4e-7),
    ("qlog(x)", 1e-7),
    # qexp's kernel branches: the cutoff at q = 0.5 and -1, the pole at q = 2,
    # bracket-power overflow at q = 0.5, exp overflow at q = 1; qlog(0); checks
    # that a constant operand settles
    ("qexp(x)", -2.0), ("qexp(x)", 1.0), ("qexp(x)", 1e308), ("qexp(x)", 709.75),
    ("qlog(x)", 0.0), ("x/0", 0.3), ("x^-1", 1e-7), ("x^0.5", -1e-7),
])
@pytest.mark.parametrize("q", [1.0, 0.5, 2.0, -1.0])
def test_stencils_shrink_at_domain_edges_as_the_reference(text, x, q):
    d = Deformation(q)
    f = funcexpr.compile(parse(text, d))
    for op in OPS:
        compare(op, f, x, d)


@pytest.mark.parametrize("text", ["x^2+3*x-1", "x*qexp(x/4)+sin(x)^2", "qlog(x+2)"])
@pytest.mark.parametrize("q", [0.5, 1.0])
def test_a_warm_point_is_one_call_into_generated_code(text, q):
    d = Deformation(q)
    f = funcexpr.compile(parse(text, d))
    for op in (qdiff.primal_qderiv_numeric_with_estimate, qdiff.dual_qderiv_numeric_with_estimate):
        codes = calls(op, f, 0.3, d)
        assert len(codes) <= 2, names(codes)


def test_shrinks_and_the_failure_after_eight_are_reproduced():
    d = Deformation(1.0)
    f = funcexpr.compile(parse("sqrt(x)", d))
    ref_steps = []
    with pytest.raises(DomainError, match="after 8 shrinks"):
        reference_primal(f, 1e-300, d, DerivConfig(), ref_steps)
    assert len(ref_steps) == qdiff._MAX_SHRINKS + 1
    compare(primal_qderiv_numeric, f, 1e-300, d)
    ref_steps.clear()
    with pytest.warns(ToleranceWarning):
        reference_primal(f, 1e-6, d, DerivConfig(), ref_steps)
    assert 1 < len(ref_steps) < qdiff._MAX_SHRINKS + 1  # shrunk, then fitted
    compare(primal_qderiv_numeric, f, 1e-6, d)


def test_dual_stencils_that_reach_the_cutoff_region_match_the_reference():
    # 1 + delta*F vanishes at F = 2 for q = 1.5; each F below is just under it
    # at x = 0 and crosses it a step or a few away. In the last, every try
    # reaches the cutoff region at its widest pair, and would fail to
    # evaluate at its narrowest: the cause of the final error is the former.
    d = Deformation(1.5)
    for text in ("2-1e-9+x^2", "2-1e-12+x^2", "2-1e-15+abs(x)",
                 "2-1e-9+1e5*x^2+0*ln(abs(abs(x)-5e-8)-3e-8)"):
        f = funcexpr.compile(parse(text, d))
        for x in (0.0, 1e-9, -1e-9):
            compare(dual_qderiv_numeric, f, x, d)
    with pytest.raises(DomainError) as info:
        dual_qderiv_numeric(f, 0.0, d)
    assert str(info.value.__cause__) == "math domain error"


def test_tolerance_warnings_point_at_the_caller():
    d = Deformation(0.5)
    f = funcexpr.compile(parse("x*qexp(x/4)+sin(x)^2", d))
    with_estimate = (qdiff.primal_qderiv_numeric_with_estimate,
                     qdiff.dual_qderiv_numeric_with_estimate)
    for op in OPS + with_estimate:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            op(f, 0.3, d, TIGHT)
        assert [(w.category, w.filename) for w in caught] == [(ToleranceWarning, __file__)]


def test_a_hand_built_predicate_is_checked_at_every_stencil_point():
    d = Deformation(0.5)
    compiled = funcexpr.compile(parse("x^2", d)).eval
    cases = [
        # a generated eval under a narrower predicate must not be inlined
        RealFunction(eval=compiled, domain=lambda x: x > 0.5, label="x^2 on x > 0.5"),
        RealFunction(eval=lambda x: x * x, domain=lambda x: x > 0.5),
        RealFunction(eval=math.sqrt, domain=lambda x: x >= 0.0, label="sqrt"),
    ]
    for f in cases:
        for x in (0.5 + 1e-9, 0.5 + 1e-6, 0.7, 0.0, 1e-7):
            for op in OPS:
                for q in (1.0, 0.5, 2.0):
                    compare(op, f, x, Deformation(q))


@pytest.mark.parametrize("name", funcexpr.BUILTIN_NAMES)
@pytest.mark.parametrize("q", [-1.0, 0.5, 1.0, 2.0])
def test_builtins_match_the_reference(name, q):
    d = Deformation(q)
    f = builtin(name, d)
    for x in (-2.5, -0.3, 1e-7, 0.4, 1.7, 3.0):
        for op in OPS:
            compare(op, f, x, d)


def test_a_ten_thousand_term_chain_matches_the_reference():
    d = Deformation(0.5)
    f = funcexpr.compile(parse("+".join(["x*sin(x)"] * 5000 + ["x"] * 5000), d))
    for op in OPS:
        compare(op, f, 0.3, d)
    dual_qderiv_numeric(f, 0.3, d)
    point = f.stencils["dual", d.q]
    # the tree's statements are written twice (the check at x, then the loop),
    # not once per stencil point
    assert len(point.__code__.co_code) < 3 * len(f.eval.__code__.co_code)


# ---------------------------------------------------------------------------
# Caching

def test_one_stencil_per_tree_and_template_and_one_compile_per_shape():
    text = "x*qexp(x/4)+sin(x)^2"
    fs = [funcexpr.compile(parse(text, Deformation(q))) for q in (0.5, 0.9, 2.0)]
    funcexpr._factory.cache_clear()
    for f, q in zip(fs, (0.5, 0.9, 2.0)):
        d = Deformation(q)
        for x in (0.1, 0.2, 0.3):
            primal_qderiv_numeric(f, x, d)
            dual_qderiv_numeric(f, x, d)
    info = funcexpr._factory.cache_info()
    assert (info.misses, info.hits) == (2, 4)  # one per text; the other trees share them
    assert [set(f.eval.panels) for f in fs] == [
        {(qdiff._point_text, PRIMAL_DEFORMED), (qdiff._point_text, DUAL_DEFORMED)}] * 3
    assert [set(f.stencils) for f in fs] == [{("primal", q), ("dual", q)} for q in (0.5, 0.9, 2.0)]
    made = dict(fs[0].stencils)
    primal_qderiv_numeric(fs[0], 0.4, Deformation(0.5))
    primal_qderiv_numeric(fs[0], -2.5, Deformation(0.5))  # below the pole
    assert fs[0].stencils == made  # the same point functions: nothing regenerated


def test_a_function_without_a_tree_is_called_at_each_point():
    d = Deformation(0.5)
    seen = []

    def g(x):
        seen.append(x)
        return x * x

    f = RealFunction(eval=g)  # no domain: defined where g succeeds
    compare(primal_qderiv_numeric, f, 0.3, d)
    # reference, then generated: each evaluates g at x, then at every stencil point
    assert len(seen) == 2 * (1 + 2 * (qdiff.RICHARDSON_LEVELS + 1))

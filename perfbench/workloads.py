"""Seeded inputs for the five workloads.

Every input is a plain dict that the worker (or the CLI) receives; the same
seed gives the same dicts. Seeds move grid positions and interval ends; the
set of operations in a round is fixed, so the work per round barely moves
with the seed. Inputs are chosen where the mathematics is defined (domain,
distance from the qexp cutoff/pole, distance from 1 + delta*F = 0); the
admissibility scan uses the oracle's evaluator, never qcalc.
"""

from __future__ import annotations

import functools
import math
import random
from decimal import Decimal

import oracle

Q_SET = (-1.0, 0.0, 0.5, 0.9, 1.0, 1.1, 2.0)

# Smooth expressions for the tables, each with the interval its grids are
# drawn from. Values straddle 0 so that 1 + delta*F > 0 has a sizeable
# solution set at every q (the dual operators need it).
TABLE_POOL = (
    ("x^2+3*x-1", (-0.5, 1.2)),
    ("sin(x)*cos(x)", (-1.0, 1.5)),
    ("exp(x/2)-1.2", (-2.0, 1.0)),
    ("1/(x+3)", (-1.0, 3.0)),
    ("sqrt(x+1.5)-1", (-1.0, 1.5)),
    ("qexp(x/3)-1", (-1.0, 1.5)),
    ("qlog(x+2)", (-1.0, 1.0)),
    ("x*qexp(x/4)+sin(x)^2", (-1.0, 1.0)),
    ("ln(x+2)*cos(x)", (-1.0, 1.5)),
    ("(x+1)^3/(x^2+1)-0.5", (-1.0, 1.0)),
)

# eval-only expressions whose grids cross the qexp cutoff (q < 1) or pole
# (q > 1) at every q in Q_SET, so the flags column is exercised.
FLAG_POOL = ("qexp(x)", "qexp(x)+qexp(-x)")
FLAG_RANGE = (-12.0, 12.0)

TABLE_KINDS = (
    ("eval", None, None),
    ("diff", "primal", "numeric"),
    ("diff", "primal", "closed"),
    ("diff", "dual", "numeric"),
    ("diff", "dual", "closed"),
    ("tangent", "primal", None),
    ("tangent", "dual", None),
)
TABLE_POINTS = 8

# Shallow integrals: smooth integrands on [a, b] around 0, and integrands
# singular at the lower endpoint 0. Upper ends stay below 1, the pole of
# the primal weight at q = 2.
SMOOTH_INTEGRANDS = ("exp(-x)*sin(3*x)+1", "qexp(x/2)", "1/(x+2)", "x^2*cos(x)-x")
ENDPOINT_INTEGRANDS = ("sqrt(x)*exp(x)", "ln(x)+2", "x*ln(x)")
INTEGRAL_MODES = ("primal", "dual", "borges-dual")

# Budget-bound runs: a tolerance no run can meet, so the engine spends its
# whole subdivision budget on every one of them. The integrands oscillate,
# so rounding noise keeps some panel's error estimate above 1e-300 to the
# end; a lone endpoint singularity would instead be bisected until its
# panel underflows and its estimate reads 0, which passes as converged.
BUDGET_SUBDIVISIONS = 2000
BUDGET_TOL = 1e-300
BUDGET_RUNS = (
    ("sin(40*x)*exp(x)", 0.5, "primal", "smooth"),
    ("cos(30*x)/(x+2)", 2.0, "dual", "smooth"),
)

MARGIN = 0.05
_SCAN = 241


def grid(lo, hi, n):
    """The CLI's grid rule: n evenly spaced points, the last one exactly hi."""
    xs = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    xs[-1] = hi
    return xs


# ---------------------------------------------------------------------------
# Admissibility


def _smooth_at(tree, q, x):
    got = oracle.scan(tree, q, x)
    if got is None:
        return None
    v, flags, margin = got
    if oracle.CUTOFF in flags or oracle.POLE in flags or margin < MARGIN:
        return None
    if v != v or abs(v) > 1e6:
        return None
    return v


def admissible(tree, q, x, need):
    """need: 'eval' (defined, away from cutoffs), 'primal' (smooth near x and
    on the chart's support), 'dual' (smooth near x, 1 + delta*F >= MARGIN)
    or 'dual-line' (dual, and the tangent dual line's bracket
    1 + delta*qlog(exp(k*x)) = exp(delta*k*x) at least MARGIN)."""
    if need == "eval":
        got = oracle.scan(tree, q, x)
        return got is not None and got[0] == got[0] and got[2] >= 1e-3
    eta = 1e-3 * max(1.0, abs(x))
    d = 1.0 - q
    values = []
    for t in (x - eta, x, x + eta):
        v = _smooth_at(tree, q, t)
        if v is None:
            return False
        if need == "primal" and not oracle.classical(q) and 1.0 + d * t < MARGIN:
            return False
        if need != "primal" and 1.0 + d * v < MARGIN:
            return False
        values.append(v)
    if need == "dual-line":
        k = (values[2] - values[0]) / (2 * eta) / (1.0 + d * values[1])
        return math.log(MARGIN) <= d * k * x <= 30.0
    return True


@functools.lru_cache(maxsize=None)
def _longest_run(tree, q, lo, hi, need):
    xs = grid(lo, hi, _SCAN)
    best, start = (0, None), None
    for i, x in enumerate(xs + [None]):
        ok = x is not None and admissible(tree, q, x, need)
        if ok and start is None:
            start = i
        elif not ok and start is not None:
            if i - start > best[0]:
                best = (i - start, (xs[start], xs[i - 1]))
            start = None
    if best[1] is None or best[0] < 10:
        raise RuntimeError(f"no admissible interval for {need} of {tree} at q={q}")
    return best[1]


def _pick_grid(rng, tree, q, lo, hi, need, n, fraction=(0.55, 0.85)):
    a, b = _longest_run(tree, q, lo, hi, need)
    for _ in range(50):
        w = (b - a) * rng.uniform(*fraction)
        x0 = a + rng.uniform(0.0, 1.0) * ((b - a) - w)
        x1 = x0 + w
        if all(admissible(tree, q, x, need) for x in grid(x0, x1, n)):
            return x0, x1
    raise RuntimeError(f"no admissible grid for {need} of {tree} at q={q}")


def table_spec(rng, expr, q, kind, mode, method, base=None, n=TABLE_POINTS):
    tree = oracle.parse(expr)
    if expr in FLAG_POOL:
        for _ in range(50):
            lo = FLAG_RANGE[0] + rng.uniform(0.0, 1.5)
            hi = FLAG_RANGE[1] - rng.uniform(0.0, 1.5)
            if all(admissible(tree, q, x, "eval") for x in grid(lo, hi, n)):
                break
        else:
            raise RuntimeError(f"no admissible flag grid for {expr} at q={q}")
    else:
        need = "eval" if kind == "eval" else mode
        if kind == "tangent" and mode == "dual":
            need = "dual-line"
        lo, hi = _pick_grid(rng, tree, q, base[0], base[1], need, n)
    return {"kind": kind, "expr": expr, "q": q, "mode": mode, "method": method,
            "lo": lo, "hi": hi, "n": n, "xs": grid(lo, hi, n)}


def integral_spec(rng, expr, q, mode, shape, abs_tol=1e-10, rel_tol=1e-8,
                  max_subdivisions=2000):
    # Narrow bands: the seed moves the data, while the panel counts of the
    # adaptive runs, and so the work per round, stay nearly the same.
    if shape == "endpoint":
        lo, hi = 0.0, rng.uniform(0.7, 0.8)
    else:
        lo, hi = rng.uniform(-0.2, -0.1), rng.uniform(0.7, 0.8)
    return {"expr": expr, "q": q, "mode": mode, "lo": lo, "hi": hi,
            "abs_tol": abs_tol, "rel_tol": rel_tol,
            "max_subdivisions": max_subdivisions}


# ---------------------------------------------------------------------------
# Workloads


def tables(seed):
    rng = random.Random(f"tables/{seed}")
    specs = []
    for expr, base in TABLE_POOL:
        for q in Q_SET:
            for kind, mode, method in TABLE_KINDS:
                specs.append(table_spec(rng, expr, q, kind, mode, method, base))
    for expr in FLAG_POOL:
        for q in Q_SET:
            specs.append(table_spec(rng, expr, q, "eval", None, None))
    return specs


def integrals(seed):
    rng = random.Random(f"integrals/{seed}")
    specs = []
    pool = [(e, "smooth") for e in SMOOTH_INTEGRANDS]
    pool += [(e, "endpoint") for e in ENDPOINT_INTEGRANDS]
    for expr, shape in pool:
        for q in Q_SET:
            for mode in INTEGRAL_MODES:
                specs.append(integral_spec(rng, expr, q, mode, shape))
    return specs


def budget(seed):
    rng = random.Random(f"budget/{seed}")
    return [
        integral_spec(rng, expr, q, mode, shape, BUDGET_TOL, BUDGET_TOL,
                      BUDGET_SUBDIVISIONS)
        for expr, q, mode, shape in BUDGET_RUNS
    ]


def battery(seed):
    """run_battery() takes no input: every sweep is the default full sweep."""
    return [{"q_values": None}]


def cli(seed):
    """A fixed mix of light commands; the seed picks expressions, q and grids."""
    rng = random.Random(f"cli/{seed}")
    pool = dict(TABLE_POOL)
    names = [e for e, _ in TABLE_POOL]

    def pick():
        expr = rng.choice(names)
        return expr, pool[expr], rng.choice(Q_SET)

    calls = []
    q = rng.choice(Q_SET)
    calls.append(("csv", table_spec(rng, "qexp(x)", q, "eval", None, None, n=9)))
    for fmt, kind, mode, method in (
        ("json", "eval", None, None),
        ("csv", "diff", "primal", "numeric"),
        ("json", "diff", "dual", "closed"),
        ("csv", "diff", "dual", "numeric"),
        ("json", "diff", "primal", "closed"),
    ):
        expr, base, q = pick()
        calls.append((fmt, table_spec(rng, expr, q, kind, mode, method, base, n=9)))
    for fmt, expr, mode, shape in (
        ("csv", rng.choice(ENDPOINT_INTEGRANDS), "primal", "endpoint"),
        ("json", rng.choice(SMOOTH_INTEGRANDS), "dual", "smooth"),
        ("csv", rng.choice(SMOOTH_INTEGRANDS), "borges-dual", "smooth"),
    ):
        spec = integral_spec(rng, expr, rng.choice(Q_SET), mode, shape)
        spec["kind"] = "integrate"
        calls.append((fmt, spec))
    for fmt, mode, points in (("csv", "primal", None), ("json", "dual", 5)):
        expr, base, q = pick()
        spec = table_spec(rng, expr, q, "tangent", mode, None, base, n=3)
        spec.update(anchor=spec["xs"][1], points=points)
        calls.append((fmt, spec))
    return [dict(spec, format=fmt, argv=argv(spec, fmt)) for fmt, spec in calls]


def number(v):
    """Plain decimal text of a float that reads back to the same float.

    The CLI's argument parser takes '-5e-05' for an option name, so
    exponent notation is never used.
    """
    return format(Decimal(repr(v)), "f")


def argv(spec, fmt):
    """The qcalc command line for one CLI operation."""
    kind, expr, q = spec["kind"], spec["expr"], number(spec["q"])
    if kind == "integrate":
        args = ["integrate", expr, spec["mode"], number(spec["lo"]), number(spec["hi"])]
    elif kind == "tangent":
        args = ["qline", expr, spec["mode"], "tangent", number(spec["anchor"])]
        if spec["points"]:
            args += ["--from", number(spec["lo"]), "--to", number(spec["hi"]),
                     "--points", str(spec["points"])]
    else:
        args = [kind, expr] if kind == "eval" else [kind, expr, spec["mode"], spec["method"]]
        args += ["--from", number(spec["lo"]), "--to", number(spec["hi"]),
                 "--points", str(spec["n"])]
    args += ["--q", q]
    if fmt == "json":
        args += ["--format", "json"]
    return args


GENERATORS = {
    "tables": tables,
    "integrals": integrals,
    "budget": budget,
    "battery": battery,
    "cli": cli,
}

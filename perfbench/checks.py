"""Reference values and output checkers.

``reference_*`` computes, from an input dict alone, what a correct output
must be (with the oracle); ``check_*`` compares one output with it and
returns a list of problems, empty when the output is right. The checkers
never compare a true error with a reported error estimate: the estimate is
only required to be a finite non-negative number.
"""

from __future__ import annotations

import csv
import io
import json
import math

from mpmath import mpf

import oracle
import workloads

# Relative agreement required of values the program computes in closed
# form (expression values, closed derivatives, tangent lines), measured
# against max(|reference|, FLOOR) so values near a zero are judged on an
# absolute scale.
CLOSED_TOL = 1e-9
FLOOR = 1e-3
# Default tolerances of the numeric derivative and the quadrature.
DERIV_REL_TOL = 1e-8
QUAD_ABS_TOL, QUAD_REL_TOL = 1e-10, 1e-8
TOLERANCE_NOT_MET = "ToleranceNotMet"


def _close(value, ref, tol, scale=None):
    if ref == mpf("inf"):
        return value == math.inf
    if not math.isfinite(value):
        return False
    s = max(abs(ref), FLOOR) if scale is None else max(scale, abs(ref), FLOOR)
    return abs(mpf(value) - ref) <= tol * s


def _flags(text):
    return frozenset(f for f in text.split("|") if f)


# ---------------------------------------------------------------------------
# Tables: eval / diff / qline tangent


def reference_table(spec):
    tree, q = oracle.parse(spec["expr"]), spec["q"]
    out = []
    for x in spec["xs"]:
        if spec["kind"] == "eval":
            value, flags, _ = oracle.evaluate(tree, q, x)
            out.append((value, flags))
        elif spec["kind"] == "diff":
            op = oracle.primal_qderiv if spec["mode"] == "primal" else oracle.dual_qderiv
            out.append(op(tree, q, x))
        else:
            op = oracle.primal_tangent if spec["mode"] == "primal" else oracle.dual_tangent
            out.append(op(tree, q, x))
    return out


def check_table(spec, rows, ref):
    """rows: eval (x, value, flags); diff (x, value, estimate); tangent
    (x0, slope, intercept)."""
    if len(rows) != len(ref):
        return [f"{len(rows)} rows, expected {len(ref)}"]
    problems = []
    tag = f"{spec['kind']} {spec.get('mode') or ''} {spec.get('method') or ''} {spec['expr']!r} q={spec['q']}"
    for x, row, want in zip(spec["xs"], rows, ref):
        if row[0] != x:
            problems.append(f"{tag}: grid point {row[0]!r}, expected {x!r}")
        if spec["kind"] == "eval":
            value, flags = want
            if not _close(row[1], value, CLOSED_TOL):
                problems.append(f"{tag} x={x!r}: value {row[1]!r}, oracle {float(value)!r}")
            if _flags(row[2]) != flags:
                problems.append(f"{tag} x={x!r}: flags {row[2]!r}, oracle {sorted(flags)}")
        elif spec["kind"] == "diff":
            if spec["method"] == "closed":
                ok = _close(row[1], want, CLOSED_TOL) and row[2] == 0.0
            else:
                ok = (math.isfinite(row[1]) and math.isfinite(row[2]) and row[2] >= 0.0
                      and abs(mpf(row[1]) - want) <= DERIV_REL_TOL * max(1, abs(want)))
            if not ok:
                problems.append(f"{tag} x={x!r}: derivative {row[1]!r} (estimate {row[2]!r}), oracle {float(want)!r}")
        else:
            problems += _check_line(f"{tag} x0={x!r}", row[1], row[2], want)
    return problems


def _check_line(tag, slope, intercept, want):
    k, c, scale = want
    if _close(slope, k, CLOSED_TOL) and _close(intercept, c, CLOSED_TOL, scale):
        return []
    return [f"{tag}: line ({slope!r}, {intercept!r}), oracle ({float(k)!r}, {float(c)!r})"]


# ---------------------------------------------------------------------------
# Integrals: shallow (tolerance met) and budget-bound (tolerance not met)


def reference_integral(spec):
    value, inner = oracle.integral(oracle.parse(spec["expr"]), spec["q"], spec["mode"],
                                   spec["lo"], spec["hi"])
    return value, inner


def integral_bound(spec, ref, abs_tol, rel_tol):
    """max(abs_tol, rel_tol*|ref|); for the dual form the bound on the inner
    integral, carried through qlog(exp(.)) by its slope exp(delta*A)."""
    value, inner = ref
    if inner is None:
        return max(abs_tol, rel_tol * abs(value))
    slope = oracle.mp.exp(oracle.delta(spec["q"]) * inner)
    return max(abs_tol, rel_tol * abs(inner)) * slope


def check_integral(spec, row, ref, budget=False):
    """row: (value, error_estimate, flags)."""
    value, estimate, flags = row
    tag = f"{spec['mode']} {spec['expr']!r} q={spec['q']} [{spec['lo']!r}, {spec['hi']!r}]"
    problems = []
    if budget:
        bound = integral_bound(spec, ref, QUAD_ABS_TOL, QUAD_REL_TOL)
        want_flags = frozenset({TOLERANCE_NOT_MET})
    else:
        bound = integral_bound(spec, ref, spec["abs_tol"], spec["rel_tol"])
        want_flags = frozenset()
    if not (math.isfinite(value) and abs(mpf(value) - ref[0]) <= bound):
        problems.append(f"{tag}: value {value!r}, oracle {float(ref[0])!r}, bound {float(bound):.3g}")
    if not (math.isfinite(estimate) and estimate >= 0.0):
        problems.append(f"{tag}: error estimate {estimate!r}")
    if _flags(flags) != want_flags:
        problems.append(f"{tag}: flags {flags!r}, expected {sorted(want_flags)}")
    return problems


# ---------------------------------------------------------------------------
# Battery


FAULT_ROW = "algebra/identity-table"


def check_battery(rows):
    """rows: (name, residual, tolerance, passed, detail); every row passes."""
    if not rows:
        return ["battery returned no rows"]
    problems = [f"{r[0]}: residual {r[1]!r} > tolerance {r[2]!r} ({r[4]})"
                for r in rows if not r[3]]
    if len({r[0] for r in rows}) != len(rows):
        problems.append("duplicate property names")
    return problems


def check_fault(rows):
    """With fault_sign=-1 exactly the identity-table row fails."""
    failing = sorted(r[0] for r in rows if not r[3])
    if failing != [FAULT_ROW]:
        return [f"fault injection failed {failing}, expected [{FAULT_ROW!r}]"]
    return []


# ---------------------------------------------------------------------------
# CLI


HEADERS = {
    "eval": ["x", "value", "flags"],
    "diff": ["x", "derivative", "error_estimate"],
    "integrate": ["value", "error_estimate", "flags"],
    "tangent": ["field", "x", "value"],
}


def reference_cli(spec):
    if spec["kind"] == "integrate":
        return reference_integral(spec)
    if spec["kind"] == "tangent":
        tree = oracle.parse(spec["expr"])
        op = oracle.primal_tangent if spec["mode"] == "primal" else oracle.dual_tangent
        return op(tree, spec["q"], spec["anchor"])
    return reference_table(spec)


def cell_number(cell):
    return float(cell) if isinstance(cell, str) else cell


def parse_cli(spec, text):
    """(header, rows) of a CSV or JSON table; cells as floats/strings/None."""
    if spec["format"] == "json":
        doc = json.loads(text)
        rows = doc["rows"]
        header = list(rows[0].keys()) if rows else []
        return header, [[r[h] for h in header] for r in rows]
    lines = list(csv.reader(io.StringIO(text)))
    return lines[0], lines[1:]


def cli_rows(spec):
    if spec["kind"] == "integrate":
        return 1
    if spec["kind"] == "tangent":
        return 2 + (spec["points"] or 0)
    return spec["n"]


def check_cli(spec, code, text, ref):
    tag = " ".join(spec["argv"][:2])
    if code != 0:
        return [f"{tag}: exit code {code}"]
    try:
        header, rows = parse_cli(spec, text)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"{tag}: unreadable output ({exc})"]
    kind = spec["kind"]
    if header != HEADERS[kind]:
        return [f"{tag}: header {header}, expected {HEADERS[kind]}"]
    if len(rows) != cli_rows(spec):
        return [f"{tag}: {len(rows)} rows, expected {cli_rows(spec)}"]
    if kind == "integrate":
        value, estimate, flags = rows[0]
        return check_integral(spec, (cell_number(value), cell_number(estimate), flags or ""), ref)
    if kind == "tangent":
        fields = [r[0] for r in rows]
        if fields[:2] != ["slope", "intercept"] or any(f != "curve" for f in fields[2:]):
            return [f"{tag}: fields {fields}"]
        slope, intercept = cell_number(rows[0][2]), cell_number(rows[1][2])
        problems = _check_line(tag, slope, intercept, ref)
        line = oracle.primal_line if spec["mode"] == "primal" else oracle.dual_line
        k, c, _ = ref
        xs = workloads.grid(spec["lo"], spec["hi"], spec["points"]) if spec["points"] else []
        for x, r in zip(xs, rows[2:]):
            want = line(k, c, spec["q"], x)
            if cell_number(r[1]) != x or not _close(cell_number(r[2]), want, CLOSED_TOL, abs(c)):
                problems.append(f"{tag}: curve row {r}, oracle at {x!r} is {float(want)!r}")
        return problems
    cells = []
    for r in rows:
        x, v = cell_number(r[0]), cell_number(r[1])
        third = (r[2] or "") if kind == "eval" else cell_number(r[2])
        cells.append((x, v, third))
    return check_table(spec, cells, ref)

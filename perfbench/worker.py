"""Runs workload operations against qcalc in a process of its own.

Reads one JSON request on stdin and writes one JSON reply on stdout. The
process imports qcalc from ``src/`` of the working directory and nothing
of the oracle, so its set-up time and peak memory are qcalc's own.

Request: ``{"workload", "ops", "seconds", "setup_only"}`` for a plain run,
or ``{"workload", "seconds", "profile": {workload: ops}}`` for a traced run.
A plain run times its set-up (importing qcalc and building the workload's
functions), runs one warm-up round whose outputs are returned for checking,
then whole timed rounds until ``seconds`` have passed; every timed round
must reproduce the warm-up outputs exactly.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from array import array

clock = time.perf_counter


def _flags_cell(flags):
    return "|".join(sorted(f.value for f in flags))


class Functions:
    """Deformations, parsed trees and compiled functions, built once."""

    def __init__(self):
        from qcalc import funcexpr, qcore

        self.funcexpr, self.qcore = funcexpr, qcore
        self._cache = {}

    def get(self, expr, q):
        key = (expr, q)
        if key not in self._cache:
            d = self.qcore.Deformation(q)
            ast = self.funcexpr.parse(expr, d)
            self._cache[key] = (d, ast, self.funcexpr.compile(ast))
        return self._cache[key]


# ---------------------------------------------------------------------------
# Units: (thunk, rows) pairs; a thunk returns the unit's output rows, and
# rows is what a failing unit counts as failed


def tables_units(ops):
    from qcalc import funcexpr, qdiff, qgeom

    fns = Functions()
    units = []
    for spec in ops:
        d, ast, fn = fns.get(spec["expr"], spec["q"])
        xs = spec["xs"]
        kind, primal = spec["kind"], spec["mode"] == "primal"
        if kind == "eval":
            def thunk(ast=ast, xs=xs, ev=funcexpr.evaluate_extended):
                out = []
                for x in xs:
                    r = ev(ast, x)
                    out.append((x, r.value, _flags_cell(r.flags)))
                return out
        elif kind == "diff" and spec["method"] == "numeric":
            op = (qdiff.primal_qderiv_numeric_with_estimate if primal
                  else qdiff.dual_qderiv_numeric_with_estimate)

            def thunk(fn=fn, d=d, xs=xs, op=op):
                return [(x, *op(fn, x, d)) for x in xs]
        elif kind == "diff":
            op = qdiff.primal_qderiv_closed if primal else qdiff.dual_qderiv_closed

            def thunk(fn=fn, d=d, xs=xs, op=op):
                return [(x, op(fn, x, d), 0.0) for x in xs]
        elif primal:
            def thunk(fn=fn, d=d, xs=xs, op=qgeom.primal_qtangent):
                out = []
                for x in xs:
                    line = op(fn, x, d)
                    out.append((x, line.k_q, line.c))
                return out
        else:
            def thunk(fn=fn, d=d, xs=xs, op=qgeom.dual_qtangent):
                out = []
                for x in xs:
                    line = op(fn, x, d)
                    out.append((x, line.k_sup_q, line.intercept))
                return out
        units.append((thunk, len(xs)))
    return units


def integrals_units(ops):
    from qcalc import qquad

    fns = Functions()
    units = []
    for spec in ops:
        d, _, fn = fns.get(spec["expr"], spec["q"])
        cfg = qquad.QuadratureConfig(abs_tol=spec["abs_tol"], rel_tol=spec["rel_tol"],
                                     max_subdivisions=spec["max_subdivisions"])
        lo, hi = spec["lo"], spec["hi"]
        if spec["mode"] == "borges-dual":
            def thunk(fn=fn, d=d, lo=lo, hi=hi, cfg=cfg, op=qquad.borges_dual_qint):
                return [(op(fn, lo, hi, d, cfg), 0.0, "")]
        else:
            op = qquad.primal_qint if spec["mode"] == "primal" else qquad.dual_qint

            def thunk(fn=fn, d=d, lo=lo, hi=hi, cfg=cfg, op=op):
                r = op(fn, lo, hi, d, cfg)
                return [(r.value, r.error_estimate, _flags_cell(r.flags))]
        units.append((thunk, 1))
    return units


def battery_units(ops):
    from qcalc import verify

    def thunk(run=verify.run_battery):
        return [(r.name, r.max_residual, r.tolerance, r.passed, r.detail) for r in run()]

    return [(thunk, 1) for _ in ops]


def cli_units(ops):
    """In-process ``cli.main`` over the CLI mix (traced runs only)."""
    from qcalc import cli

    def make(argv):
        def thunk(main=cli.main):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv)
            return [(code, buf.getvalue())]
        return thunk

    return [(make(spec["argv"]), 1) for spec in ops]


UNITS = {
    "tables": tables_units,
    "integrals": integrals_units,
    "budget": integrals_units,
    "battery": battery_units,
    "cli": cli_units,
}


# ---------------------------------------------------------------------------
# Rounds


class Rounds:
    """Outputs, best unit times and failures of whole rounds over one unit list."""

    def __init__(self, units):
        self.units = units
        self.reference = None
        self.best = array("d", [float("inf")] * len(units))  # fastest timed repeat per unit
        self.round_s = array("d")    # busy time of each timed round
        self.rows = 0
        self.failed_rows = 0
        self.attempted_rows = 0
        self.mismatches = 0
        self.rounds = 0

    def one(self, timed):
        outputs, busy = [], 0.0
        for i, (thunk, rows) in enumerate(self.units):
            t = clock()
            try:
                out = thunk()
            except Exception as exc:  # counted as failed and reported
                out = f"error: {type(exc).__name__}: {exc}"
                self.failed_rows += rows
            else:
                rows = len(out)
            dt = clock() - t
            self.attempted_rows += rows
            outputs.append(out)
            if timed:
                busy += dt
                self.best[i] = min(self.best[i], dt)
                self.rows += rows
        if self.reference is None:
            self.reference = outputs
        elif outputs != self.reference:
            self.mismatches += sum(a != b for a, b in zip(outputs, self.reference))
        if timed:
            self.round_s.append(busy)
            self.rounds += 1

    def run(self, seconds, warmup=True, stop=lambda: False):
        if warmup:
            self.one(timed=False)
        end = clock() + seconds
        while True:
            self.one(timed=True)
            if clock() >= end or stop():
                return self


@contextlib.contextmanager
def tolerance_warnings(record):
    """Silence ToleranceWarning, or record every one of them."""
    from qcalc.errors import ToleranceWarning

    with warnings.catch_warnings(record=record) as caught:
        warnings.simplefilter("always" if record else "ignore", ToleranceWarning)
        yield caught


def spawn_ms(argv, repeats):
    """Median spawn-to-exit time of a child process, in ms."""
    times = []
    for _ in range(repeats):
        t = clock()
        subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
        times.append((clock() - t) * 1e3)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Plain and traced runs


def plain(req, t0):
    import qcalc  # noqa: F401  (the set-up being timed)

    units = UNITS[req["workload"]](req["ops"])
    setup_s = clock() - t0
    _check_origin()
    if req.get("setup_only"):
        return {"setup_s": setup_s}
    extra = {}
    if req["workload"] == "battery":
        from qcalc import verify

        extra["fault_rows"] = [(r.name, r.max_residual, r.tolerance, r.passed, r.detail)
                               for r in verify.run_battery(None, -1.0)]
    with tolerance_warnings(record=False):
        r = Rounds(units).run(req["seconds"])
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return dict(extra, setup_s=setup_s, outputs=r.reference, best=list(r.best),
                rows_per_round=r.rows / r.rounds, attempted_rows=r.attempted_rows,
                failed_rows=r.failed_rows, mismatches=r.mismatches, maxrss_kb=maxrss_kb)


SPAN_CAP = 1_000_000  # spans of the selected workload's segment
ORDER = ("tables", "integrals", "budget", "battery", "cli")


def traced(req):
    import qcalc  # noqa: F401

    from tracer import Tracer

    _check_origin()
    selected, profile = req["workload"], req["profile"]
    with tolerance_warnings(record=False):
        base = Rounds(UNITS[selected](profile[selected])).run(0.0)

    tr = Tracer()
    tr.install()
    segments = {}
    for name in sorted(ORDER, key=lambda n: n == selected):
        lo = len(tr)
        with tolerance_warnings(record=True) as caught:
            rounds = Rounds(UNITS[name](profile[name]))
            if name == selected:
                rounds.run(req["seconds"], warmup=False,
                           stop=lambda lo=lo: len(tr) - lo >= SPAN_CAP)
            else:
                rounds.run(0.0, warmup=False)
        segments[name] = (rounds, tr.summary(lo, len(tr)), len(caught))
    tr.uninstall()

    probes = {
        "interpreter_ms": spawn_ms([sys.executable, "-c", "pass"], 5),
        "import_ms": spawn_ms([sys.executable, "-c", "import qcalc.cli"], 5),
    }
    sel = segments[selected][0]
    overhead = statistics.median(sel.round_s) / statistics.median(base.round_s) - 1.0
    return {
        "per_layer": layer_metrics(segments, probes, overhead, selected),
        "outputs": {n: s[0].reference for n, s in segments.items()},
        "attempted_rows": sum(s[0].attempted_rows for s in segments.values()),
        "failed_rows": sum(s[0].failed_rows for s in segments.values()),
        "mismatches": sum(s[0].mismatches for s in segments.values()),
        "spans": {n: {k: [s[1].count[k], s[1].total[k], s[1].self_ns[k]] for k in s[1].count}
                  for n, s in segments.items()},
    }


QDIFF_NUMERIC = ("qdiff.primal_qderiv_numeric_with_estimate",
                 "qdiff.dual_qderiv_numeric_with_estimate")
QQUAD_INTEGRALS = ("qquad.primal_qint", "qquad.dual_qint", "qquad.borges_dual_qint")
SHARED_LAYERS = ("qquad", "qdiff", "funcexpr", "qcore")


def layer_metrics(segments, probes, overhead, selected):
    """Per-layer figures, each taken from the workload that exercises it."""
    tab_r, tab, tab_warn = segments["tables"]
    _, shallow, _ = segments["integrals"]
    _, deep, _ = segments["budget"]
    _, bat, _ = segments["battery"]
    _, cli, _ = segments["cli"]
    points = tab.calls(*QDIFF_NUMERIC)
    n_shallow = shallow.calls(*QQUAD_INTEGRALS)
    n_deep = deep.calls(*QQUAD_INTEGRALS)
    sweeps = bat.calls("verify.run_battery")
    battery_ns = bat.total["verify.run_battery"]
    m = {
        "qcore.call_ns": tab.layer("qcore") / tab.layer_calls("qcore"),
        "qcore.calls_per_row": tab.layer_calls("qcore") / tab_r.rows,
        "funcexpr.parse_us": cli.mean_ns("funcexpr.parse") / 1e3,
        "funcexpr.compile_us": tab.mean_ns("funcexpr.compile") / 1e3,
        "funcexpr.eval_us": tab.mean_ns("funcexpr.eval") / 1e3,
        "funcexpr.eval_extended_us": tab.mean_ns("funcexpr.evaluate_extended") / 1e3,
        "qdiff.primal_numeric_us": tab.mean_ns(QDIFF_NUMERIC[0]) / 1e3,
        "qdiff.dual_numeric_us": tab.mean_ns(QDIFF_NUMERIC[1]) / 1e3,
        "qdiff.self_us": sum(tab.self_ns[n] for n in QDIFF_NUMERIC) / points / 1e3,
        "qdiff.evals_per_point": tab.children(QDIFF_NUMERIC, "funcexpr.eval") / points,
        "qdiff.domain_calls_per_point": tab.children(QDIFF_NUMERIC, "funcexpr.domain") / points,
        "qdiff.tolerance_warnings": tab_warn / tab_r.rounds,
        "qgeom.tangent_us": tab.mean_ns("qgeom.primal_qtangent", "qgeom.dual_qtangent") / 1e3,
        "qquad.evals_per_integral": shallow.children(QQUAD_INTEGRALS, "funcexpr.eval") / n_shallow,
        "qquad.shallow_self_us": sum(shallow.self_ns[n] for n in QQUAD_INTEGRALS) / n_shallow / 1e3,
        "qquad.budget_evals_per_integral": deep.children(QQUAD_INTEGRALS, "funcexpr.eval") / n_deep,
        "qquad.engine_self_ms": sum(deep.self_ns[n] for n in QQUAD_INTEGRALS) / n_deep / 1e6,
        "qquad.riemann_ms": bat.mean_ns("qquad.primal_qint_riemann") / 1e6,
        "qquad.partition_oracle_us": bat.mean_ns("qquad.partition_sum_oracle") / 1e3,
        "verify.self_s": bat.self_ns["verify.run_battery"] / sweeps / 1e9,
        "cli.import_ms": probes["import_ms"] - probes["interpreter_ms"],
        "cli.interpreter_ms": probes["interpreter_ms"],
        "cli.main_ms": cli.mean_ns("cli.main") / 1e6,
        "trace.overhead_pct": overhead * 100.0,
        "trace.spans": segments[selected][1].spans,
    }
    for layer in SHARED_LAYERS:
        m[f"verify.share_{layer}_pct"] = bat.layer(layer) / battery_ns * 100.0
    return m


def _check_origin():
    import qcalc

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(qcalc.__file__).startswith(src + os.sep):
        raise SystemExit(f"qcalc imported from {qcalc.__file__}, not from {src}")


def main():
    req = json.load(sys.stdin)
    t0 = clock()
    reply = traced(req) if "profile" in req else plain(req, t0)
    json.dump(reply, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

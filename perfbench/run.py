"""One command to measure and check qcalc.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

Run from the repository root. Generates the workload's inputs from the
seed, computes their reference values with the independent oracle
(untimed), runs the workload against ``src/qcalc`` for ``--seconds`` in
whole rounds, checks every output, and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs the traced profile instead and
reports the per-layer metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUPS = 9

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rows_per_s": "1/s",
    "unit_best_p50_ms": "ms",
}
PER_LAYER = {
    "qcore.call_ns": "ns",
    "qcore.calls_per_row": "count",
    "funcexpr.parse_us": "us",
    "funcexpr.compile_us": "us",
    "funcexpr.eval_us": "us",
    "funcexpr.eval_extended_us": "us",
    "qdiff.primal_numeric_us": "us",
    "qdiff.dual_numeric_us": "us",
    "qdiff.self_us": "us",
    "qdiff.evals_per_point": "count",
    "qdiff.domain_calls_per_point": "count",
    "qdiff.tolerance_warnings": "count",
    "qquad.evals_per_integral": "count",
    "qquad.shallow_self_us": "us",
    "qquad.budget_evals_per_integral": "count",
    "qquad.engine_self_ms": "ms",
    "qquad.riemann_ms": "ms",
    "qquad.partition_oracle_us": "us",
    "qgeom.tangent_us": "us",
    "verify.self_s": "s",
    "verify.share_qquad_pct": "%",
    "verify.share_qdiff_pct": "%",
    "verify.share_funcexpr_pct": "%",
    "verify.share_qcore_pct": "%",
    "cli.import_ms": "ms",
    "cli.interpreter_ms": "ms",
    "cli.main_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def call_worker(root, request):
    proc = subprocess.run([sys.executable, WORKER], input=json.dumps(request),
                          capture_output=True, text=True, cwd=root, env=child_env(root))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout)


# ---------------------------------------------------------------------------
# Checking


def references(name, ops):
    if name == "tables":
        return [checks.reference_table(s) for s in ops]
    if name in ("integrals", "budget"):
        return [checks.reference_integral(s) for s in ops]
    if name == "cli":
        return [checks.reference_cli(s) for s in ops]
    return [None for _ in ops]


def check_outputs(name, ops, refs, outputs):
    """Problems with one round of outputs; a unit that raised is one."""
    problems = []
    for spec, ref, out in zip(ops, refs, outputs):
        if isinstance(out, str):
            problems.append(f"{name} {spec.get('expr', '')!r}: {out}")
        elif name == "tables":
            problems += checks.check_table(spec, [tuple(r) for r in out], ref)
        elif name in ("integrals", "budget"):
            problems += checks.check_integral(spec, tuple(out[0]), ref, budget=name == "budget")
        elif name == "battery":
            problems += checks.check_battery(out)
        else:
            code, text = out[0]
            problems += checks.check_cli(spec, code, text, ref)
    return problems


def check_cli_calls(ops, refs, results):
    """Problems with one (exit code, stdout) per CLI call; a non-zero exit is one."""
    problems = []
    for spec, ref, (code, text) in zip(ops, refs, results):
        problems += checks.check_cli(spec, code, text, ref)
    return problems


# ---------------------------------------------------------------------------
# Runs


def timing(best, rows_per_round):
    """Throughput and unit time from each unit's fastest timed repeat.

    On a shared machine the same work runs at speeds ±25% apart from one
    second to the next; the fastest of a unit's repeats is the figure that
    recurs run to run. rows_per_s is one round's rows over the sum of the
    units' best times; unit_best_p50_ms is the median of the best times.
    """
    return {"rows_per_s": rows_per_round / sum(best),
            "unit_best_p50_ms": statistics.median(best) * 1e3}


def run_inprocess(root, name, ops, refs, seconds):
    reply = call_worker(root, {"workload": name, "ops": ops, "seconds": seconds})
    setups = [reply["setup_s"]]
    for _ in range(SETUPS - 1):
        setups.append(call_worker(root, {"workload": name, "ops": ops, "seconds": 0,
                                         "setup_only": True})["setup_s"])
    problems = check_outputs(name, ops, refs, reply["outputs"])
    if name == "battery":
        problems += checks.check_fault(reply["fault_rows"])
    if reply["mismatches"]:
        problems.append(f"{reply['mismatches']} outputs changed between rounds")
    metrics = dict(timing(reply["best"], reply["rows_per_round"]),
                   setup_s=statistics.median(setups), peak_rss_mb=reply["maxrss_kb"] / 1024.0)
    return problems, reply["attempted_rows"], reply["failed_rows"], metrics


def run_cli(root, ops, refs, seconds):
    env = child_env(root)
    setups = []
    for _ in range(SETUPS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import qcalc.cli"], cwd=root, env=env, check=True)
        setups.append(time.perf_counter() - t)

    def call(spec):
        t = time.perf_counter()
        p = subprocess.run([sys.executable, "-m", "qcalc", *spec["argv"]], cwd=root, env=env,
                           capture_output=True, text=True)
        return time.perf_counter() - t, p.returncode, p.stdout

    reference = [call(spec)[1:] for spec in ops]
    best = [float("inf")] * len(ops)
    mismatches, attempted = 0, len(ops)
    end = time.perf_counter() + seconds
    while True:
        for i, (spec, ref) in enumerate(zip(ops, reference)):
            dt, code, text = call(spec)
            best[i] = min(best[i], dt)
            mismatches += (code, text) != ref
            attempted += 1
        if time.perf_counter() >= end:
            break
    failed = sum(code != 0 for code, _ in reference)
    problems = check_cli_calls(ops, refs, reference)
    if mismatches:
        problems.append(f"{mismatches} CLI outputs differ from the first call's bytes")
    rounds = attempted // len(ops)
    rows_per_round = sum(checks.cli_rows(spec) for spec in ops)
    metrics = dict(timing(best, rows_per_round), setup_s=statistics.median(setups),
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
    return problems, attempted, failed * rounds, metrics


def run_traced(root, name, seed, seconds):
    profile = {w: workloads.GENERATORS[w](seed) for w in workloads.GENERATORS}
    reply = call_worker(root, {"workload": name, "seconds": seconds, "profile": profile})
    problems = []
    for w, ops in profile.items():
        problems += check_outputs(w, ops, references(w, ops), reply["outputs"][w])
    if reply["mismatches"]:
        problems.append(f"{reply['mismatches']} outputs changed between rounds")
    spans = {"per_segment_spans": reply["spans"]}
    return problems, reply["attempted_rows"], reply["failed_rows"], reply["per_layer"], spans


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qcalc", "__init__.py")):
        print(f"perfbench: no qcalc sources under {root}/src; run from the repository root",
              file=sys.stderr)
        return 2

    extra = {}
    if args.trace:
        problems, attempted, failed, values, extra = run_traced(
            root, args.workload, args.seed, args.seconds)
        units = PER_LAYER
    else:
        ops = workloads.GENERATORS[args.workload](args.seed)
        refs = references(args.workload, ops)
        if args.workload == "cli":
            problems, attempted, failed, values = run_cli(root, ops, refs, args.seconds)
        else:
            problems, attempted, failed, values = run_inprocess(
                root, args.workload, ops, refs, args.seconds)
        units = END_TO_END

    for line in problems[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    save(root, args, dict(result, problems=problems, **extra))
    print(json.dumps(result))
    return 0 if not problems else 1


def save(root, args, record):
    """Keep the run's result (and, traced, its per-name span totals) on disk."""
    out = os.path.join(root, "perfbench", "out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main())

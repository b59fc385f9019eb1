"""Self-test of the benchmark's checkers.

    python3 perfbench/selftest.py

Run from the repository root. For every workload it produces real outputs
(one round each, untimed, seed 1), requires the checker to accept them,
then requires it to reject slightly wrong copies: one value scaled by
1+1e-6, one flag dropped or added, one row missing, one battery row
failing, one unit that raised, one CLI call that exited non-zero. It also
requires that the battery run with fault_sign=-1.0 fails
``algebra/identity-table`` and no other row, and that an operation qcalc
refuses (ln of a negative number) is rejected both in process and on the
command line. Exits 1 if any checker accepts a wrong output or rejects a
right one.
"""

from __future__ import annotations

import copy
import json
import math
import os
import subprocess
import sys

import checks
import run
import workloads

SCALE = 1.0 + 1e-6
SEED = 1
RAISED = "error: DomainError: raised on purpose"


def _largest(rows, col):
    finite = [i for i, r in enumerate(rows) if isinstance(r[col], float) and math.isfinite(r[col])]
    return max(finite, key=lambda i: abs(rows[i][col]))


def _scaled(rows, col):
    rows = copy.deepcopy(rows)
    i = _largest(rows, col)
    rows[i][col] *= SCALE
    return rows


class Report:
    def __init__(self):
        self.bad = 0

    def expect(self, label, problems, wrong):
        ok = bool(problems) == wrong
        self.bad += not ok
        verdict = "rejected" if problems else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}")


def tables(rep, root, seed):
    ops = workloads.tables(seed)
    out = run.call_worker(root, {"workload": "tables", "ops": ops, "seconds": 0})["outputs"]
    picks = {}
    for i, spec in enumerate(ops):
        picks.setdefault((spec["kind"], spec["method"]), i)
    flagged = next(i for i, spec in enumerate(ops)
                   if spec["kind"] == "eval" and any(r[2] for r in out[i]))
    for (kind, method), i in sorted(picks.items(), key=str):
        spec, rows = ops[i], out[i]
        ref = checks.reference_table(spec)
        label = f"tables {kind} {method or ''}".rstrip()
        rep.expect(f"{label} as produced", checks.check_table(spec, rows, ref), False)
        rep.expect(f"{label}, one value x(1+1e-6)",
                   checks.check_table(spec, _scaled(rows, 1), ref), True)
        if kind == "tangent":
            rep.expect(f"{label}, one intercept x(1+1e-6)",
                       checks.check_table(spec, _scaled(rows, 2), ref), True)
        rep.expect(f"{label}, one row missing", checks.check_table(spec, rows[:-1], ref), True)
    spec, rows = ops[flagged], copy.deepcopy(out[flagged])
    ref = checks.reference_table(spec)
    row = next(r for r in rows if r[2])
    row[2] = "|".join(row[2].split("|")[1:])
    rep.expect("tables eval, one flag dropped", checks.check_table(spec, rows, ref), True)
    refs = [checks.reference_table(s) for s in ops]
    rep.expect("tables round as produced", run.check_outputs("tables", ops, refs, out), False)
    rep.expect("tables round, one unit raised",
               run.check_outputs("tables", ops, refs, [RAISED] + out[1:]), True)
    bad = dict(ops[0], kind="eval", expr="ln(x)", mode=None, method=None, xs=[-2.0, -1.0])
    reply = run.call_worker(root, {"workload": "tables", "ops": [bad], "seconds": 0})
    rep.expect(f"tables eval ln(x) at x<0 ({reply['outputs'][0]!r})",
               run.check_outputs("tables", [bad], [None], reply["outputs"]), True)
    counted = [] if reply["failed_rows"] else ["no failed rows counted"]
    rep.expect(f"tables eval ln(x) at x<0, {reply['failed_rows']} rows counted as failed",
               counted, False)


def integrals(rep, root, seed, name):
    ops = workloads.GENERATORS[name](seed)
    out = run.call_worker(root, {"workload": name, "ops": ops, "seconds": 0})["outputs"]
    budget = name == "budget"
    refs = [checks.reference_integral(s) for s in ops]
    rep.expect(f"{name} as produced", run.check_outputs(name, ops, refs, out), False)
    rep.expect(f"{name}, one unit raised",
               run.check_outputs(name, ops, refs, out[:-1] + [RAISED]), True)
    for mode in workloads.INTEGRAL_MODES:
        idx = [i for i, s in enumerate(ops) if s["mode"] == mode]
        if not idx:
            continue
        i = max(idx, key=lambda k: abs(out[k][0][0]))
        spec, row = ops[i], list(out[i][0])
        scaled = [row[0] * SCALE] + row[1:]
        rep.expect(f"{name} {mode}, value x(1+1e-6)",
                   checks.check_integral(spec, scaled, refs[i], budget), True)
        flags = "" if budget else checks.TOLERANCE_NOT_MET
        rep.expect(f"{name} {mode}, flags {row[2]!r} -> {flags!r}",
                   checks.check_integral(spec, row[:2] + [flags], refs[i], budget), True)


def battery(rep, root, seed):
    ops = workloads.battery(seed)
    reply = run.call_worker(root, {"workload": "battery", "ops": ops, "seconds": 0})
    rows = reply["outputs"][0]
    rep.expect("battery as produced", run.check_outputs("battery", ops, [None], [rows]), False)
    rep.expect("battery, the sweep raised", run.check_outputs("battery", ops, [None], [RAISED]), True)
    broken = copy.deepcopy(rows)
    broken[len(broken) // 2][3] = False
    rep.expect("battery, one row failing", checks.check_battery(broken), True)
    rep.expect("battery with fault_sign=-1.0 fails only the identity table",
               checks.check_fault(reply["fault_rows"]), False)
    rep.expect("fault check on a run where the fault did not show",
               checks.check_fault(rows), True)


def _perturb_cli(spec, text):
    """Scale the largest value cell of a CLI table by 1+1e-6."""
    col = {"eval": 1, "diff": 1, "integrate": 0, "tangent": 2}[spec["kind"]]
    header, rows = checks.parse_cli(spec, text)
    cells = [[checks.cell_number(c) if j == col else c for j, c in enumerate(r)] for r in rows]
    i = _largest(cells, col)
    new = cells[i][col] * SCALE
    if spec["format"] == "json":
        doc = json.loads(text)
        doc["rows"][i][header[col]] = new
        return json.dumps(doc)
    lines = text.splitlines()
    parts = lines[i + 1].split(",")
    parts[col] = format(new, ".16e")
    lines[i + 1] = ",".join(parts)
    return "\n".join(lines) + "\n"


def cli(rep, root, seed):
    ops = workloads.cli(seed)
    env = run.child_env(root)

    def call(argv):
        p = subprocess.run([sys.executable, "-m", "qcalc", *argv], cwd=root,
                           env=env, capture_output=True, text=True)
        return p.returncode, p.stdout

    results = [call(spec["argv"]) for spec in ops]
    refs = [checks.reference_cli(spec) for spec in ops]
    for spec, ref, (code, text) in zip(ops, refs, results):
        label = f"cli {' '.join(spec['argv'][:4])} ({spec['format']})"
        rep.expect(f"{label} as produced", checks.check_cli(spec, code, text, ref), False)
        rep.expect(f"{label}, one value x(1+1e-6)",
                   checks.check_cli(spec, 0, _perturb_cli(spec, text), ref), True)
        if spec["format"] == "csv":
            short = "".join(text.splitlines(keepends=True)[:-1])
            rep.expect(f"{label}, last row missing", checks.check_cli(spec, 0, short, ref), True)
    rep.expect("cli calls as produced", run.check_cli_calls(ops, refs, results), False)
    rep.expect("cli calls, one exit code 1",
               run.check_cli_calls(ops, refs, [(1, results[0][1])] + results[1:]), True)
    spec = ops[0]
    argv = ["eval", "ln(x)"] + spec["argv"][2:]
    argv[argv.index("--from") + 1], argv[argv.index("--to") + 1] = "-2", "-1"
    code, text = call(argv)
    rep.expect(f"cli {' '.join(argv)} (exit {code})",
               run.check_cli_calls([dict(spec, argv=argv)], [refs[0]], [(code, text)]), True)


def main():
    root = os.getcwd()
    rep = Report()
    tables(rep, root, SEED)
    integrals(rep, root, SEED, "integrals")
    integrals(rep, root, SEED, "budget")
    battery(rep, root, SEED)
    cli(rep, root, SEED)
    print(f"{'FAILED' if rep.bad else 'passed'}: {rep.bad} checker expectation(s) not met")
    return 1 if rep.bad else 0


if __name__ == "__main__":
    sys.exit(main())

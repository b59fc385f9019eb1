"""Time the budget-bound integrals at several subdivision budgets.

    python3 perfbench/budget_scan.py

Run from the repository root. Each budget-workload integral (seed 1) is
run with max_subdivisions 500, 1000, 2000 and 4000 and a tolerance no run
can meet; the line per budget gives the median time of one run and the
integrand calls it made.
Time that grows faster than the budget shows the engine's per-subdivision
cost rising with the number of panels.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

import workloads

SEED = 1
BUDGETS = (500, 1000, 2000, 4000)


def main():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from qcalc import Deformation, QuadratureConfig, funcexpr, qquad

    specs = workloads.budget(SEED)
    print("subdivisions,median_ms_per_run,integrand_calls_per_run,ms_per_1000_subdivisions")
    for n in BUDGETS:
        times, calls = [], []
        for spec in specs:
            d = Deformation(spec["q"])
            fn = funcexpr.compile(funcexpr.parse(spec["expr"], d))
            count = [0]

            def counted(x, f=fn.eval):
                count[0] += 1
                return f(x)

            f = funcexpr.RealFunction(eval=counted, label=fn.label)
            cfg = QuadratureConfig(abs_tol=spec["abs_tol"], rel_tol=spec["rel_tol"],
                                   max_subdivisions=n)
            op = qquad.primal_qint if spec["mode"] == "primal" else qquad.dual_qint
            for _ in range(3):
                count[0] = 0
                t = time.perf_counter()
                op(f, spec["lo"], spec["hi"], d, cfg)
                times.append(time.perf_counter() - t)
                calls.append(count[0])
        ms = statistics.median(times) * 1e3
        print(f"{n},{ms:.1f},{statistics.median(calls):.0f},{ms / n * 1000:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Layer report: the traced run's per-layer metrics for every workload.

Usage, from the root of a checkout::

    python3 perfbench/report.py [--seed N] [--seconds S] [--tiny] [--workload NAME ...]

Runs ``perfbench/run.py --trace 1`` once per workload and prints, for each
layer metric the workload exercises, its value and unit and the
end-to-end metric it should move.  For the serving workloads it also
prints the request budget: the layers' self times plus the unattributed
residual (client wall-clock no server span covers), which add up to the
client's wall-clock per request.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.layers import LAYER_METRICS, SPAN_METRICS  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: The per-request budget of a traced serving request, in fold order.
BUDGET = [
    *SPAN_METRICS.values(),
    "trace.solver_self_ms",
    "trace.unattributed_ms",
]


def traced(workload: str, args: argparse.Namespace) -> dict:
    """Per-layer metric values of one traced run."""
    argv = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1",
    ]
    if args.tiny:
        argv.append("--tiny")
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode:
        raise SystemExit(f"{workload}: traced run failed:\n{proc.stderr[-3000:]}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: entry["value"] for name, entry in metrics.items()}


def report(workload: str, values: dict) -> None:
    print(f"== {workload}")
    print(f"   {'metric':40s} {'value':>14s} {'unit':6s} moves")
    for name, (unit, moves, on) in LAYER_METRICS.items():
        if workload in on:
            print(f"   {name:40s} {values[name]:14.4f} {unit:6s} {moves}")
    if workload in LAYER_METRICS["trace.wall_ms"][2]:
        parts = " + ".join(f"{values[m]:.3f}" for m in BUDGET if values[m])
        total = sum(values[m] for m in BUDGET)
        print(
            f"   budget per request: {parts} = {total:.3f} ms "
            f"(client wall {values['trace.wall_ms']:.3f} ms)"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    for workload in args.workload or list(WORKLOADS):
        report(workload, traced(workload, args))
    return 0


if __name__ == "__main__":
    sys.exit(main())

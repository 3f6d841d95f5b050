"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload warm-hits --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.
The lines before it give the run fingerprint (host, versions, load and a
fixed probe loop timed before and after) and each metric by name with
its unit.  A failed correctness check prints the reason to standard
error and exits with status 1 without a result.

``--tiny`` shrinks every list so that a workload finishes in seconds
(used by the benchmark's own tests); its numbers are not comparable.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import common  # noqa: E402

#: Scratch space of a run, inside the checkout (ignored by git).
WORK_DIR = ".perfbench-work"


def parse_args(argv=None) -> argparse.Namespace:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    return parser.parse_args(argv)


def _shm_segments() -> set:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:
        return set()


def run(args: argparse.Namespace) -> dict:
    """Run one workload; returns the result object (raises CheckFailed)."""
    from perfbench.layers import LAYER_METRICS
    from perfbench.workloads import E2E_METRICS, WORKLOADS, Ctx

    work = ROOT / WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    shm_before = _shm_segments()
    print("fingerprint:", json.dumps(common.fingerprint()), flush=True)
    probe_before = common.probe_ms()
    try:
        ctx = Ctx(
            root=ROOT,
            work=work,
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            tiny=args.tiny,
        )
        outcome = WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
        for name in _shm_segments() - shm_before:
            try:
                os.unlink(f"/dev/shm/{name}")
            except OSError:
                pass
    print(
        "probe_ms:",
        json.dumps({"before": probe_before, "after": common.probe_ms(),
                    "loadavg": list(os.getloadavg())}),
    )
    for note in outcome.notes:
        print("note:", note)
    if args.trace:
        wanted = {name: unit for name, (unit, _, _) in LAYER_METRICS.items()}
        measured = {
            name for name, (_, _, on) in LAYER_METRICS.items() if args.workload in on
        }
    else:
        wanted = dict(E2E_METRICS)
        measured = set(wanted)
    missing = measured - set(outcome.metrics)
    if missing:
        raise RuntimeError(f"{args.workload} did not measure {sorted(missing)}")
    metrics = {
        name: {
            "value": float(outcome.metrics[name]) if name in measured else 0.0,
            "unit": unit,
        }
        for name, unit in wanted.items()
    }
    for name, entry in metrics.items():
        print(f"metric: {name} = {entry['value']!r} {entry['unit']}")
    return {
        "correct": True,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    started = time.perf_counter()
    common.become_subreaper()
    try:
        result = run(args)
    except common.CheckFailed as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        common.stop_descendants()
    print(f"run_wall_s: {time.perf_counter() - started:.3f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

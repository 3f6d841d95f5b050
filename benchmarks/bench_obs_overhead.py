"""Observability overhead benchmark: tracing + histograms vs disabled.

Run as a script to (re)record the performance baseline::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py [output.json] [--tiny]

Two workloads, each measured with observability fully active (span
recording enabled, a live trace on every request) and fully disabled
(the ``REPRO_OBS=0`` kill-switch path, untraced client):

* ``server`` -- warm-cache throughput of the in-process daemon, the
  regime where per-request obs cost is largest relative to useful work
  (no solver time to hide behind: every job is a cache hit);
* ``hill_climb`` -- a single-process batched hill-climb solve inside an
  active trace, exercising the solver's phase accumulation
  (``collect``/``track``) on the hot path.

Each configuration is repeated and the **minimum** wall-clock is kept
(interleaved runs, so machine drift hits both configurations equally);
overhead is ``(t_on - t_off) / t_off``.

Asserted when run as a script:

* tracing + histograms add **<= 3%** to warm server throughput and
  **<= 2%** to the batched hill-climb solve (``--tiny`` relaxes both
  bars to 10% -- the smoke grid is too small to resolve single-digit
  percentages above scheduler noise);
* disabling obs restores the baseline: with recording enabled but *no
  active trace* the hill-climb must sit within the same bar of the
  disabled configuration (the idle fast path is one ContextVar read);
* both configurations return byte-identical solutions.
"""

from __future__ import annotations

import json
import platform as _platform
import sys
import tempfile
import time
from pathlib import Path

from repro.algorithms.heuristics import greedy_interval_period, hill_climb
from repro.client import SolveClient
from repro.core.types import Criterion
from repro.generators import small_random_problem
from repro.obs import spans as obs_spans
from repro.server import ServerThread
from repro.strategies import SolveBudget

from bench_neighborhood import build_instance


def _min_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        best = min(best, fn())
    return best


def bench_server(*, tiny: bool) -> dict:
    """Warm-cache daemon throughput, obs on vs off (min over repeats)."""
    n_jobs = 8 if tiny else 40
    repeats = 3 if tiny else 5
    problems = [small_random_problem(7100 + i) for i in range(n_jobs)]
    solver_kwargs = dict(
        strategy="greedy",
        budget=SolveBudget(max_evaluations=500_000, seed=0),
    )

    with tempfile.TemporaryDirectory(prefix="bench-obs-cache-") as tmp:
        with ServerThread(
            executor="thread", concurrency=2, cache=tmp
        ) as server:
            traced = SolveClient(server.url, timeout=60.0, tracing=True)
            untraced = SolveClient(server.url, timeout=60.0, tracing=False)

            # Cold pass populates the cache; warm passes are what we time.
            ids = traced.submit_many(problems, **solver_kwargs)
            assert all(r.ok for r in traced.iter_results(ids, timeout=600))

            def warm_pass(client) -> float:
                t0 = time.perf_counter()
                ids = client.submit_many(problems, **solver_kwargs)
                results = list(client.iter_results(ids, timeout=600))
                elapsed = time.perf_counter() - t0
                assert all(r.source == "cache" for r in results)
                return elapsed

            def on() -> float:
                obs_spans.configure(enabled=True)
                return warm_pass(traced)

            def off() -> float:
                obs_spans.configure(enabled=False)
                try:
                    return warm_pass(untraced)
                finally:
                    obs_spans.configure(enabled=True)

            # Interleave so drift hits both configurations equally.
            t_on, t_off = float("inf"), float("inf")
            for _ in range(repeats):
                t_on = min(t_on, on())
                t_off = min(t_off, off())

    return {
        "n_jobs": n_jobs,
        "repeats": repeats,
        "warm_s_obs_on": round(t_on, 4),
        "warm_s_obs_off": round(t_off, 4),
        "warm_jobs_per_sec_obs_on": round(n_jobs / t_on, 2),
        "warm_jobs_per_sec_obs_off": round(n_jobs / t_off, 2),
        "overhead_pct": round(100.0 * (t_on - t_off) / t_off, 2),
    }


def bench_hill_climb(*, tiny: bool) -> dict:
    """One batched hill-climb solve: traced vs untraced vs disabled."""
    repeats = 8 if tiny else 12
    max_iterations = 8
    problem = build_instance(0, tiny=tiny)
    start = greedy_interval_period(problem).mapping
    problem.evaluation_context()  # build once, outside the clock

    def solve():
        return hill_climb(
            problem,
            start,
            Criterion.PERIOD,
            max_iterations=max_iterations,
        )

    solutions = {}

    def timed(config: str) -> float:
        t0 = time.perf_counter()
        solution = solve()
        elapsed = time.perf_counter() - t0
        solutions.setdefault(config, solution)
        return elapsed

    def disabled() -> float:
        obs_spans.configure(enabled=False)
        try:
            return timed("disabled")
        finally:
            obs_spans.configure(enabled=True)

    def enabled_idle() -> float:
        # Recording on but no ambient trace: the instrumentation's
        # steady-state cost for untraced work.
        return timed("enabled_idle")

    def enabled_traced() -> float:
        with obs_spans.trace_context(obs_spans.new_trace_id()):
            try:
                return timed("enabled_traced")
            finally:
                obs_spans.recorder().clear()

    for fn in (disabled, enabled_idle, enabled_traced):  # warm the paths
        fn()
    t = {"disabled": float("inf"), "enabled_idle": float("inf"),
         "enabled_traced": float("inf")}
    for _ in range(repeats):
        t["disabled"] = min(t["disabled"], disabled())
        t["enabled_idle"] = min(t["enabled_idle"], enabled_idle())
        t["enabled_traced"] = min(t["enabled_traced"], enabled_traced())

    base = t["disabled"]
    sols = list(solutions.values())
    identical = all(
        s.mapping == sols[0].mapping and s.objective == sols[0].objective
        for s in sols
    )
    return {
        "repeats": repeats,
        "max_iterations": max_iterations,
        "n_stages": problem.n_stages_total,
        "solve_s_disabled": round(t["disabled"], 6),
        "solve_s_enabled_idle": round(t["enabled_idle"], 6),
        "solve_s_enabled_traced": round(t["enabled_traced"], 6),
        "overhead_pct_traced": round(
            100.0 * (t["enabled_traced"] - base) / base, 2
        ),
        "overhead_pct_idle": round(
            100.0 * (t["enabled_idle"] - base) / base, 2
        ),
        "solutions_identical": identical,
    }


def run(output: Path, *, tiny: bool = False) -> dict:
    payload = {
        "bench": "obs_overhead",
        "python": _platform.python_version(),
        "machine": _platform.machine(),
        "tiny": tiny,
        "server": bench_server(tiny=tiny),
        "hill_climb": bench_hill_climb(tiny=tiny),
    }
    output.write_text(json.dumps(payload, indent=2))
    print(json.dumps(payload, indent=2))
    return payload


def main() -> int:
    argv = [a for a in sys.argv[1:]]
    tiny = "--tiny" in argv
    argv = [a for a in argv if a != "--tiny"]
    output = (
        Path(argv[0])
        if argv
        else Path(__file__).parent / "BENCH_obs.json"
    )
    payload = run(output, tiny=tiny)
    # The smoke grid cannot resolve single-digit percentages above
    # scheduler noise; relax to a sanity bar there.
    server_bar = 10.0 if tiny else 3.0
    climb_bar = 10.0 if tiny else 2.0
    server = payload["server"]
    climb = payload["hill_climb"]
    assert climb["solutions_identical"], (
        "observability must not change solver results"
    )
    assert server["overhead_pct"] <= server_bar, (
        f"tracing adds {server['overhead_pct']}% to warm server "
        f"throughput (bar: {server_bar}%)"
    )
    assert climb["overhead_pct_traced"] <= climb_bar, (
        f"tracing adds {climb['overhead_pct_traced']}% to the batched "
        f"hill-climb (bar: {climb_bar}%)"
    )
    assert climb["overhead_pct_idle"] <= climb_bar, (
        f"disabled-trace instrumentation adds {climb['overhead_pct_idle']}% "
        f"(bar: {climb_bar}%): the idle fast path must restore the baseline"
    )
    print(
        f"ok: server warm overhead {server['overhead_pct']}%, "
        f"hill-climb traced overhead {climb['overhead_pct_traced']}%, "
        f"idle overhead {climb['overhead_pct_idle']}%"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

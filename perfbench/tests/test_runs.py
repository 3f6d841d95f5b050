"""End-to-end runs of every workload in tiny mode, and the benchmark's
contract with ``BENCHMARK.json``."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.layers import LAYER_METRICS
from perfbench.workloads import E2E_METRICS, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    """Run the benchmark in a session of its own; fail when any process
    of that session outlives it."""
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    stdout, stderr = proc.communicate(timeout=300)
    assert not session_members(proc.pid), stderr[-3000:]
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


def session_members(sid: int) -> list:
    """Pids and command lines of every process in session ``sid``."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            with open(f"/proc/{pid}/cmdline") as handle:
                cmdline = handle.read().replace("\0", " ")
        except OSError:
            continue
        if int(fields[3]) == sid:
            found.append((int(pid), fields[0], cmdline))
    return found


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _, _) in LAYER_METRICS.items()
    }
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert spec["paths"] == ["perfbench"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    if trace == "0":
        expected = dict(E2E_METRICS)
        measured = set(expected)
    else:
        expected = {name: unit for name, (unit, _, _) in LAYER_METRICS.items()}
        measured = {n for n, (_, _, on) in LAYER_METRICS.items() if workload in on}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    for name in measured - {"strategies.budget_exhausted_share", "obs.tracing_overhead_pct"}:
        assert result["metrics"][name]["value"] > 0, name
    assert not list((ROOT / ".perfbench-work").glob(f"{workload}-*"))


def test_warm_hit_layers_add_up_to_the_client_wall():
    proc = _run(ROOT, "--workload", "warm-hits", "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    m = {k: v["value"] for k, v in result["metrics"].items()}
    parts = [
        "trace.client_submit_self_ms", "router.submit_self_ms", "daemon.submit_self_ms",
        "daemon.dedup_lookup_ms", "daemon.queue_wait_ms", "daemon.pool_dispatch_ms",
        "daemon.cache_write_ms", "trace.solver_self_ms", "trace.unattributed_ms",
    ]
    assert sum(m[p] for p in parts) == pytest.approx(m["trace.wall_ms"], rel=1e-9)
    assert m["client.requests_per_job"] == 3.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(
        tmp_path, "--workload", "warm-hits", "--seed", "1", "--seconds", "1", "--trace", "0"
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

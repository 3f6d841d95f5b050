"""Boot a *real* sharded fleet — router process + daemon processes —
and inject faults into it.

:class:`FleetHarness` runs everything out-of-process on ephemeral
ports, exactly as ``repro-pipelines route --spawn N`` would in
production, except the harness owns each daemon's ``Popen`` handle so
tests can do unpleasant things to individual shards:

* :meth:`kill_shard` — ``SIGKILL``, no warning, no cleanup (a crashed
  or OOM-killed daemon);
* :meth:`freeze_shard` / :meth:`thaw_shard` — ``SIGSTOP``/``SIGCONT``
  (a livelocked daemon: connects succeed, responses never come, the
  router's upstream timeout and mark-down/retry path take over);
* :meth:`corrupt_cache_entry` — scribble over one shard's
  content-addressed cache file on disk;
* :meth:`restart_shard` — respawn a killed shard on its *original*
  port with its original cache directory (same ring identity).

The CI ``fleet-smoke`` step drives this module directly (``python -m
tests.fleet.harness``): boot router + 2 shards, submit across both,
SIGKILL one, assert every problem still completes.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence
from urllib.parse import urlsplit

from repro.client import SolveClient
from repro.experiments import cell_key_for_payload
from repro.generators import small_random_problem
from repro.io import problem_to_dict
from repro.server import HashRing, Shard
from repro.server.router import _wait_for_url, terminate_fleet

__all__ = ["FleetHarness", "fleet_smoke"]

#: Solver payload used by the harness helpers (the client's default).
SOLVER = {"objective": "period"}

_BOOTSTRAP = "import sys; from repro.cli import main; sys.exit(main())"


def _repo_src() -> str:
    return str(Path(__file__).resolve().parents[2] / "src")


def _child_env() -> Dict[str, str]:
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = _repo_src() + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


class FleetHarness:
    """A live fleet of ``n_shards`` solve daemons behind a router.

    Usable as a context manager; :meth:`start` blocks until the router
    and every shard have announced their URLs.  All processes are
    terminated on exit, the cache root only when the harness created it.
    """

    def __init__(
        self,
        n_shards: int = 2,
        *,
        cache_root: Optional[Path] = None,
        executor: str = "thread",
        concurrency: int = 2,
        shard_args: Sequence[str] = (),
        router_args: Sequence[str] = (
            "--health-interval", "0.2",
            "--fail-threshold", "2",
            "--upstream-timeout", "5.0",
        ),
        startup_timeout: float = 60.0,
    ) -> None:
        self.n_shards = n_shards
        self._owns_cache_root = cache_root is None
        self.cache_root = Path(
            tempfile.mkdtemp(prefix="fleet-cache-")
            if cache_root is None
            else cache_root
        )
        self.executor = executor
        self.concurrency = concurrency
        self.shard_args = list(shard_args)
        self.router_args = list(router_args)
        self.startup_timeout = startup_timeout
        self.shards: Dict[str, Shard] = {}
        self.router_proc: Optional[subprocess.Popen] = None
        self.url: Optional[str] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "FleetHarness":
        try:
            for i in range(self.n_shards):
                name = f"shard{i}"
                self.shards[name] = self._spawn_shard(name, port=0)
            argv = [
                sys.executable, "-c", _BOOTSTRAP, "route", "--port", "0",
                *self.router_args,
            ]
            for name, shard in self.shards.items():
                argv += ["--shard", f"{name}={shard.url}"]
            self.router_proc = subprocess.Popen(
                argv,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
                env=_child_env(),
            )
            self.url = _wait_for_url(self.router_proc, self.startup_timeout)
        except BaseException:
            self.stop()
            raise
        return self

    def stop(self) -> None:
        if self.router_proc is not None:
            if self.router_proc.poll() is None:
                self.router_proc.terminate()
                try:
                    self.router_proc.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    self.router_proc.kill()
                    self.router_proc.wait(timeout=5.0)
            self.router_proc = None
        terminate_fleet(list(self.shards.values()))
        self.shards.clear()
        if self._owns_cache_root:
            shutil.rmtree(self.cache_root, ignore_errors=True)

    def __enter__(self) -> "FleetHarness":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def _spawn_shard(self, name: str, port: int) -> Shard:
        cache_dir = self.cache_root / name
        cache_dir.mkdir(parents=True, exist_ok=True)
        argv = [
            sys.executable, "-c", _BOOTSTRAP, "serve",
            "--port", str(port),
            "--shard-name", name,
            "--executor", self.executor,
            "--concurrency", str(self.concurrency),
            "--cache-dir", str(cache_dir),
            *self.shard_args,
        ]
        proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=_child_env(),
        )
        url = _wait_for_url(proc, self.startup_timeout)
        return Shard(name=name, url=url, process=proc)

    # ------------------------------------------------------------------
    # clients and key geometry
    # ------------------------------------------------------------------
    def client(self, **kwargs: Any) -> SolveClient:
        assert self.url is not None, "harness not started"
        kwargs.setdefault("timeout", 30.0)
        return SolveClient(self.url, **kwargs)

    def shard_client(self, name: str, **kwargs: Any) -> SolveClient:
        kwargs.setdefault("timeout", 30.0)
        return SolveClient(self.shards[name].url, **kwargs)

    @property
    def ring(self) -> HashRing:
        """A local replica of the router's ring (default vnodes)."""
        return HashRing(sorted(self.shards))

    def key_of(self, problem) -> str:
        return cell_key_for_payload(problem_to_dict(problem), SOLVER)

    def owner_of(self, problem) -> str:
        return self.ring.node_for(self.key_of(problem))

    def seed_owned_by(self, target: str, *, start: int = 0) -> int:
        """First seed >= ``start`` whose problem the ring maps to
        ``target`` (period objective, default solver)."""
        for seed in range(start, start + 500):
            if self.owner_of(small_random_problem(seed)) == target:
                return seed
        raise AssertionError(f"no seed owned by {target}")

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def kill_shard(self, name: str) -> None:
        """SIGKILL one daemon: no shutdown, queue and memo gone."""
        proc = self.shards[name].process
        assert proc is not None
        proc.kill()
        proc.wait(timeout=10.0)

    def freeze_shard(self, name: str) -> None:
        """SIGSTOP one daemon: TCP connects still succeed (kernel
        backlog), responses never come — the slow-failure mode."""
        proc = self.shards[name].process
        assert proc is not None
        proc.send_signal(signal.SIGSTOP)

    def thaw_shard(self, name: str) -> None:
        proc = self.shards[name].process
        assert proc is not None
        proc.send_signal(signal.SIGCONT)

    def restart_shard(self, name: str) -> None:
        """Respawn a dead shard on its original port, with its original
        cache directory — the same ring identity, a cold process."""
        old = self.shards[name]
        assert old.process is not None and old.process.poll() is not None, (
            "restart_shard expects the shard to be dead"
        )
        port = urlsplit(old.url).port
        deadline = time.monotonic() + 30.0
        while True:
            try:
                self.shards[name] = self._spawn_shard(name, port=port)
                return
            except RuntimeError:
                # The old socket can linger briefly; retry the bind.
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.2)

    def cache_path(self, name: str, key: str) -> Path:
        return self.cache_root / name / key[:2] / f"{key}.json"

    def corrupt_cache_entry(self, name: str, key: str) -> Path:
        """Overwrite one shard's cache entry with garbage bytes."""
        path = self.cache_path(name, key)
        assert path.exists(), f"no cache entry for {key} on {name}"
        path.write_text("{ this is not json")
        return path

    # ------------------------------------------------------------------
    # waiting helpers
    # ------------------------------------------------------------------
    def wait_shards_up(self, expected: int, *, timeout: float = 30.0) -> None:
        """Block until the router reports ``expected`` shards up."""
        client = self.client(retries=0)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                if client.healthz().get("shards_up") == expected:
                    return
            except Exception:
                pass
            time.sleep(0.1)
        raise TimeoutError(
            f"router never reported {expected} shards up within {timeout}s"
        )


def fleet_smoke(n_problems: int = 8) -> Dict[str, Any]:
    """CI smoke: boot router + 2 shards, submit across both, SIGKILL
    one shard, assert every problem still completes.  Returns a small
    summary dict (printed as JSON by ``__main__``)."""
    with FleetHarness(2) as fleet:
        client = fleet.client(retries=2)
        seeds = [
            fleet.seed_owned_by("shard0"),
            fleet.seed_owned_by("shard1"),
        ]
        seen = {fleet.owner_of(small_random_problem(s)) for s in seeds}
        assert seen == {"shard0", "shard1"}, seen
        seeds += [s for s in range(n_problems) if s not in seeds]
        problems = [small_random_problem(s) for s in seeds[:n_problems]]
        ids = [client.submit(p)["id"] for p in problems]
        assert any(i.endswith("@shard0") for i in ids)
        assert any(i.endswith("@shard1") for i in ids)
        fleet.kill_shard("shard0")
        # Resubmission is the documented recovery: dedup keeps it
        # idempotent, the ring remaps only the dead shard's keys.
        objectives = []
        for problem in problems:
            result = client.solve(problem, timeout=120)
            assert result.ok, result
            objectives.append(result.solution.objective)
        health = client.healthz()
        assert health["shards_up"] == 1, health
        return {
            "submitted": len(ids),
            "completed": len(objectives),
            "shards_up_after_kill": health["shards_up"],
        }


if __name__ == "__main__":
    print(json.dumps(fleet_smoke(), indent=2))

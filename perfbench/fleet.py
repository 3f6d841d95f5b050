"""A serving fleet in subprocesses: two ``repro.cli serve`` shards behind
one ``repro.cli route`` router, all on ephemeral localhost ports.

The servers never run in the load generator's process, so they do not
share its interpreter lock.  Each child writes its console output to a
log file under the run's scratch directory (a pipe nobody drains could
fill up and stall the child), and the fleet reads the announced URL from
that file.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from . import common

_LISTENING = re.compile(r"listening on (http://\S+)")


def child_env(root: Path, tmp: Path) -> Dict[str, str]:
    """Environment of every program process the benchmark starts: the
    checkout's ``src`` on the path, scratch files inside the checkout,
    fixed hash seed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(tmp)
    return env


@dataclass
class Proc:
    """One spawned server process and its console log."""

    name: str
    popen: subprocess.Popen
    log: Path
    url: Optional[str] = None

    def wait_url(self, deadline: float) -> str:
        """Block until the process announces its URL in its log."""
        while time.monotonic() < deadline:
            match = _LISTENING.search(self.log.read_text(errors="replace"))
            if match:
                self.url = match.group(1)
                return self.url
            if self.popen.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(
            f"{self.name} did not announce its URL; log:\n"
            + self.log.read_text(errors="replace")[-2000:]
        )


@dataclass
class Fleet:
    """Router + shards; :meth:`close` stops them all."""

    root: Path
    workdir: Path
    n_shards: int = 2
    shards: List[Proc] = field(default_factory=list)
    router: Optional[Proc] = None

    def _spawn(self, name: str, args: List[str]) -> Proc:
        log = self.workdir / f"{name}.log"
        with open(log, "w") as handle:
            popen = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", *args],
                stdout=handle,
                stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
                env=child_env(self.root, self.workdir),
                cwd=self.workdir,
            )
        return Proc(name=name, popen=popen, log=log)

    def start(self, timeout: float = 60.0) -> "Fleet":
        """Spawn the shards (concurrently), then the router fronting them;
        return once the router reports every shard up."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        deadline = time.monotonic() + timeout
        for i in range(self.n_shards):
            name = f"shard{i}"
            cache = self.workdir / f"cache-{name}"
            self.shards.append(
                self._spawn(
                    name,
                    [
                        "serve", "--port", "0", "--shard-name", name,
                        "--executor", "process", "--concurrency", "1",
                        "--cache-dir", str(cache),
                    ],
                )
            )
        for shard in self.shards:
            shard.wait_url(deadline)
        router_args = ["route", "--port", "0"]
        for shard in self.shards:
            router_args += ["--shard", f"{shard.name}={shard.url}"]
        self.router = self._spawn("router", router_args)
        self.router.wait_url(deadline)
        self._wait_healthy(deadline)
        return self

    def _wait_healthy(self, deadline: float) -> None:
        from repro.client import ClientError, SolveClient

        client = SolveClient(self.url, timeout=5.0, retries=0, tracing=False)
        while time.monotonic() < deadline:
            try:
                health = client.healthz()
            except ClientError:
                health = {}
            if health.get("shards_up") == self.n_shards:
                return
            time.sleep(0.01)
        raise RuntimeError("router never saw every shard up")

    @property
    def url(self) -> str:
        """Front door (the router)."""
        assert self.router is not None and self.router.url is not None
        return self.router.url

    def pids(self) -> Dict[str, List[int]]:
        """Live program pids by role: router, shard, worker (the shards'
        pool processes and their helpers)."""
        shard_pids = [s.popen.pid for s in self.shards]
        return {
            "router": [self.router.popen.pid] if self.router else [],
            "shard": shard_pids,
            "worker": [w for pid in shard_pids for w in common.descendants(pid)],
        }

    def close(self) -> None:
        """Stop every process (router first), escalating to SIGKILL, and
        reap them all."""
        procs = ([self.router] if self.router else []) + self.shards
        for proc in procs:
            if proc.popen.poll() is None:
                proc.popen.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 10.0
        for proc in procs:
            try:
                proc.popen.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                for pid in common.descendants(proc.popen.pid):
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                proc.popen.kill()
                proc.popen.wait(timeout=10.0)
        self.shards, self.router = [], None

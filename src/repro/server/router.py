"""Shard router: one HTTP front door over a fleet of solve daemons.

The router re-exports the daemon's ``/v1/*`` API unchanged and spreads
work over ``N`` :mod:`repro.server` daemons by **cell key**: every
submission is parsed with the daemon's own validation, its
content-addressed :func:`repro.experiments.cell_key` is computed, and a
consistent-hash ring (:class:`~repro.server.ring.HashRing`) picks the
*owning* shard.  Identical submissions — from any client, through any
router — land on the same shard, so the daemon's in-flight coalescing
and content-addressed cache keep deduplicating fleet-wide exactly as
they do on a single daemon.

Failure semantics
-----------------
* **Health checks.**  A background loop probes every shard's
  ``/v1/healthz``; ``fail_threshold`` consecutive failures mark a shard
  *down* (its keys fall to ring neighbors), the first success marks it
  back *up* (its keys return — consistent hashing remaps only that
  shard's share either way).
* **Bounded retry-to-next-replica.**  A submission that cannot reach
  its owner (connect failure/timeout — the shard is marked down on the
  spot) or is shed by it (HTTP 429) is retried against the next
  distinct shards in ring order, up to ``max_hops`` attempts total.
  Retrying a submit is safe: dedup makes it idempotent.  When every
  candidate sheds, the last ``429`` (``Retry-After`` included) is
  relayed to the client; when none is reachable, the client gets
  ``503``.
* **Job affinity.**  Responses rewrite job ids to ``<id>@<shard>``;
  status/result/cancel requests are routed straight back to the shard
  that owns the job record — statelessly, so a router restart loses
  nothing.
* **Front affinity.**  ``POST /v1/fronts`` routes by a front-level key
  derived from the *instance alone*, so every front (and re-front) of
  the same problem lands on one shard and its sweep cells coalesce with
  each other and with ad-hoc jobs there.  Front ids are rewritten like
  job ids (``<id>@<shard>``, including the embedded cell-job ids), and
  ``GET /v1/fronts/{id}`` routes back by suffix.

``GET /v1/metrics`` aggregates the fleet (per-shard metrics plus summed
job counters) and ``GET /metrics`` renders the same registries as
Prometheus text; ``GET /v1/jobs`` merges the shards' listings.  With
``redirect_results=True`` the router answers result fetches with a
``307`` redirect to the owning shard instead of proxying the payload
bytes through itself.

Transport: the router serves clients on the daemon's own keep-alive
connection loop (:class:`~repro.server.http.HttpFrontEnd`) and forwards
over asyncio streams, keeping up to :data:`POOL_IDLE` idle keep-alive
connections per shard.  A long-poll (``GET /v1/jobs/{id}/result?wait=S``)
is forwarded as is, with the upstream timeout stretched by ``S``.
"""

from __future__ import annotations

import asyncio
import json
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union
from urllib.parse import urlsplit

from .. import __version__
from ..experiments.cache import cell_key
from ..obs import metrics as obs_metrics
from ..obs import spans as obs_spans
from ..obs.export import to_prometheus
from .http import (
    BUSY_ERROR,
    HttpFrontEnd,
    SolveServer,
    _FrontEndThread,
    _Answer,
    _HttpError,
    _parse_body,
    _read_message,
    _serve_until_signalled,
)
from .protocol import parse_front_payload, parse_job_payload
from .ring import DEFAULT_VNODES, HashRing
from .service import SOLVER_COUNTERS, solver_view

__all__ = [
    "RouterThread",
    "Shard",
    "ShardRouter",
    "parse_shard_spec",
    "routed_job_id",
    "run_router",
    "serve_router",
    "spawn_local_fleet",
    "split_job_id",
]

#: Separator between a shard-local job id and the shard name in the ids
#: the router hands out.  ``@`` cannot appear in daemon job ids
#: (``j000001-ab12cd34``) and is legal in a URL path segment.
_ID_SEP = "@"


def routed_job_id(raw_id: str, shard: str) -> str:
    """The fleet-wide job id for a shard-local one."""
    return f"{raw_id}{_ID_SEP}{shard}"


def split_job_id(job_id: str) -> Tuple[str, Optional[str]]:
    """Split a routed job id into ``(shard_local_id, shard_name)``.

    Ids without a shard suffix return ``(id, None)`` — the router
    cannot locate those (it keeps no job table by design).
    """
    raw, sep, shard = job_id.rpartition(_ID_SEP)
    if not sep:
        return job_id, None
    return raw, shard


def parse_shard_spec(spec: str) -> Tuple[str, str]:
    """Parse one ``--shard`` value into ``(name, base_url)``.

    Accepts ``http://host:port`` (named ``host:port``) or an explicit
    ``name=http://host:port``.
    """
    name, sep, url = spec.partition("=")
    if not sep:
        name, url = "", spec
    url = url.rstrip("/")
    parsed = urlsplit(url)
    if parsed.scheme not in ("http", "https") or not parsed.netloc:
        raise ValueError(
            f"shard spec {spec!r}: expected [name=]http://host:port"
        )
    return (name or parsed.netloc), url


@dataclass
class Shard:
    """One routed daemon and its health bookkeeping."""

    name: str
    url: str
    up: bool = True
    consecutive_failures: int = 0
    last_error: Optional[str] = None
    marked_down_at: Optional[float] = None
    #: Local child process when the router spawned this shard itself.
    process: Optional[subprocess.Popen] = field(
        default=None, repr=False, compare=False
    )

    def describe(self) -> Dict[str, Any]:
        """Health view for ``/v1/healthz`` and ``/v1/metrics`` (the
        router adds ``forwarded``)."""
        return {
            "name": self.name,
            "url": self.url,
            "up": self.up,
            "consecutive_failures": self.consecutive_failures,
            "last_error": self.last_error,
        }


class _UpstreamError(Exception):
    """A shard could not be reached (connect failure or timeout)."""


#: Idle keep-alive connections the router keeps per shard.  More may be
#: open at once under load; past this many, a finished one is closed.
POOL_IDLE = 8

_Stream = Tuple[asyncio.StreamReader, asyncio.StreamWriter]


class _ShardConnections:
    """Keep-alive HTTP/1.1 connections from the router to one shard."""

    def __init__(self, url: str) -> None:
        parts = urlsplit(url)
        self._prefix = parts.path.rstrip("/")
        self._netloc = parts.netloc
        self._host = parts.hostname
        self._ssl = parts.scheme == "https"
        self._port = parts.port or (443 if self._ssl else 80)
        self._idle: List[_Stream] = []

    async def request(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        headers: Optional[Dict[str, str]],
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One exchange: ``(status, lower-cased headers, body)``.  A
        pooled connection the shard closed while idle is retried once on
        a fresh one (the shard deduplicates submissions); any exception,
        cancellation included, closes the connection in use."""
        body = body or b""
        extra = "".join(f"{k}: {v}\r\n" for k, v in (headers or {}).items())
        message = (
            f"{method} {self._prefix}{path} HTTP/1.1\r\n"
            f"Host: {self._netloc}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}\r\n"
        ).encode() + body
        while True:
            reused = bool(self._idle)
            if reused:
                reader, writer = self._idle.pop()
            else:
                reader, writer = await asyncio.open_connection(
                    self._host, self._port, ssl=self._ssl or None
                )
            try:
                writer.write(message)
                status_line = await reader.readline()
                if not status_line:
                    raise ConnectionResetError("shard closed the connection")
                version, status, _ = status_line.decode("latin-1").split(" ", 2)
                resp_headers, data = await _read_message(reader)
            except BaseException as exc:
                writer.close()
                if reused and isinstance(exc, ConnectionError):
                    self.close()  # the rest of the idle pool is as old
                    continue
                raise
            if (
                version == "HTTP/1.1"
                and resp_headers.get("connection", "").lower() != "close"
                and len(self._idle) < POOL_IDLE
            ):
                self._idle.append((reader, writer))
            else:
                writer.close()
            return int(status), resp_headers, data

    def close(self) -> None:
        """Close every idle connection."""
        while self._idle:
            self._idle.pop()[1].close()


class ShardRouter(HttpFrontEnd):
    """Routing core + HTTP front end over a fleet of solve daemons.

    Parameters
    ----------
    shards:
        ``(name, base_url)`` pairs (see :func:`parse_shard_spec`).
        Names must be unique; they become the ring's node names and the
        ``@shard`` suffix of fleet job ids.
    vnodes:
        Virtual nodes per shard on the hash ring.
    max_hops:
        Total shards tried per submission (owner + fallbacks) on
        connect failure or 429.
    health_interval:
        Seconds between background health sweeps.
    fail_threshold:
        Consecutive probe/forward failures that mark a shard down.
    upstream_timeout:
        Seconds one forwarded exchange may take (health probes use
        ``min(2.0, upstream_timeout)``; a long-poll adds its ``wait``).
    redirect_results:
        Answer ``GET /v1/jobs/{id}/result`` with a ``307`` to the
        owning shard instead of proxying the payload.
    host / port:
        Listening address (``port=0`` binds an ephemeral port).
    """

    def __init__(
        self,
        shards: Sequence[Tuple[str, str]],
        *,
        vnodes: int = DEFAULT_VNODES,
        max_hops: int = 3,
        health_interval: float = 1.0,
        fail_threshold: int = 2,
        upstream_timeout: float = 10.0,
        redirect_results: bool = False,
        host: str = "127.0.0.1",
        port: int = 8786,
    ) -> None:
        super().__init__(host=host, port=port)
        if not shards:
            raise ValueError("router needs at least one shard")
        names = [name for name, _ in shards]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate shard names: {sorted(names)}")
        if any("|" in name for name in names):
            # Labelled gauges key their series by "|"-joined label values.
            raise ValueError(f"shard names may not contain '|': {sorted(names)}")
        self.shards: Dict[str, Shard] = {
            name: Shard(name=name, url=url.rstrip("/"))
            for name, url in shards
        }
        self.ring = HashRing(names, vnodes=vnodes)
        self.max_hops = max(1, max_hops)
        self.health_interval = health_interval
        self.fail_threshold = max(1, fail_threshold)
        self.upstream_timeout = upstream_timeout
        self.redirect_results = redirect_results
        self._health_task: Optional[asyncio.Task] = None
        #: Connection pools by shard URL, made on first use.
        self._upstreams: Dict[str, _ShardConnections] = {}
        self._started_at = time.time()
        self._started_mono = time.monotonic()
        reg = self.metrics_registry = obs_metrics.MetricsRegistry()
        reg.gauge(
            "build_info", "Router build/identity info.",
            fn=lambda: {f"{__version__}|router": 1}, labelnames=("version", "role"),
        )
        reg.gauge(
            "router_uptime_seconds", "Seconds since the router started.",
            fn=lambda: time.monotonic() - self._started_mono,
        )
        # The JSON ``router`` section lists these in registration order.
        self._c_submitted = reg.counter("router_submitted_total", "Submissions routed.")
        reg.counter(
            "router_forwarded_total", "Requests forwarded to shards (probes excluded).",
            fn=lambda: sum(s["count"] for s in self._h_forward.snapshot()["series"].values()),
        )
        self._c_retries = reg.counter("router_retries_total", "Retries on a next replica.")
        self._c_relayed_429 = reg.counter("router_relayed_429_total", "429s relayed.")
        self._c_markdowns = reg.counter("router_markdowns_total", "Shards marked down.")
        self._c_markups = reg.counter("router_markups_total", "Shards marked back up.")
        self._c_unroutable = reg.counter("router_unroutable_total", "Submissions unroutable.")
        reg.gauge("ring_nodes", "Shards on the hash ring.", fn=lambda: len(self.ring.nodes))
        reg.gauge(
            "shard_up", "Shard health as seen by the router.", labelnames=("shard",),
            fn=lambda: {s.name: int(s.up) for s in self.shards.values()},
        )
        reg.gauge(
            "shard_consecutive_failures", "Consecutive probe/forward failures.",
            labelnames=("shard",),
            fn=lambda: {s.name: s.consecutive_failures for s in self.shards.values()},
        )
        #: The one store of forward counts: a series' count is its
        #: shard's ``forwarded``, their sum the router's.
        self._h_forward = reg.histogram(
            "forward_seconds",
            "Per-hop latency of requests forwarded to a shard daemon.",
            obs_metrics.LATENCY_BUCKETS,
            labelnames=("shard",),
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket and launch the health loop."""
        self._started_at = time.time()
        self._started_mono = time.monotonic()
        await self._listen()
        self._health_task = asyncio.create_task(
            self._health_loop(), name="router-health"
        )

    async def close(self) -> None:
        """Stop accepting connections, close client and shard
        connections; spawned shards are left to the owner (see
        :func:`run_router` for the CLI's teardown)."""
        await self._stop_listening()
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None
        await self._close_connections()
        for upstream in self._upstreams.values():
            upstream.close()

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------
    def _mark_down(self, shard: Shard, error: str) -> None:
        shard.consecutive_failures += 1
        shard.last_error = error
        if shard.up and shard.consecutive_failures >= self.fail_threshold:
            shard.up = False
            shard.marked_down_at = time.time()
            self._c_markdowns.inc()

    def _mark_up(self, shard: Shard) -> None:
        shard.consecutive_failures = 0
        shard.last_error = None
        if not shard.up:
            shard.up = True
            shard.marked_down_at = None
            self._c_markups.inc()

    async def _health_loop(self) -> None:
        while True:
            await self.check_health()
            await asyncio.sleep(self.health_interval)

    async def _probe(self, shard: Shard, timeout: float) -> None:
        try:
            status, _headers, payload = await self._forward(
                shard, "GET", "/v1/healthz", timeout=timeout, count=False
            )
        except _UpstreamError as exc:
            self._mark_down(shard, str(exc))
            return
        # A shard refusing connections past its cap is busy, not dead.
        busy = (
            status == 503
            and isinstance(payload, dict)
            and payload.get("error") == BUSY_ERROR
        )
        if status == 200 or busy:
            self._mark_up(shard)
        else:
            self._mark_down(shard, f"healthz returned HTTP {status}")

    async def check_health(self) -> None:
        """One immediate health sweep (tests use this to avoid waiting
        out ``health_interval``)."""
        probe_timeout = min(2.0, self.upstream_timeout)
        await asyncio.gather(
            *(self._probe(s, probe_timeout) for s in self.shards.values())
        )

    # ------------------------------------------------------------------
    # upstream transport
    # ------------------------------------------------------------------
    async def _forward(
        self,
        shard: Shard,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        *,
        timeout: Optional[float] = None,
        count: bool = True,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, str], Dict[str, Any]]:
        """``(status, lower-cased headers, JSON body)`` of one request to
        ``shard``; :class:`_UpstreamError` when it is unreachable or
        silent past ``timeout`` (default ``upstream_timeout``)."""
        t0 = time.perf_counter()
        upstream = self._upstreams.get(shard.url)
        if upstream is None:
            upstream = self._upstreams[shard.url] = _ShardConnections(shard.url)
        try:
            status, resp_headers, data = await asyncio.wait_for(
                upstream.request(method, path, body, headers),
                self.upstream_timeout if timeout is None else timeout,
            )
        except (OSError, ValueError, _HttpError, asyncio.TimeoutError) as exc:
            raise _UpstreamError(
                f"{method} {shard.url}{path}: {exc or type(exc).__name__}"
            ) from None
        else:
            try:
                payload = json.loads(data.decode() or "{}")
            except (json.JSONDecodeError, UnicodeDecodeError):
                payload = {"error": f"HTTP {status}: undecodable body"}
            return status, resp_headers, payload
        finally:
            # Health probes (count=False) stay out of the hop-latency
            # histogram, and so out of the forward counts — they would
            # flood it with sub-ms samples.
            if count:
                self._h_forward.labels(shard.name).observe(
                    time.perf_counter() - t0
                )

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def candidates_for(self, key: str) -> List[Shard]:
        """Shards to try for a cell key, in ring preference order.

        Up shards first (owner, then fallback replicas), truncated to
        ``max_hops``.  When *every* shard is marked down the full ring
        order is returned anyway — attempting a marked-down shard beats
        refusing service on stale health state.
        """
        ordered = [
            self.shards[name]
            for name in self.ring.nodes_for(key, len(self.shards))
        ]
        up = [s for s in ordered if s.up]
        return (up or ordered)[: self.max_hops]

    def owner_for(self, key: str) -> Shard:
        """The ring owner of a key, health ignored."""
        return self.shards[self.ring.node_for(key)]

    async def _forward_by_key(
        self,
        key: str,
        path: str,
        body: bytes,
        headers: Optional[Dict[str, str]],
        tried: List[str],
        rewrite: Callable[[Dict[str, Any], str], Dict[str, Any]],
    ) -> _Answer:
        """POST a submission to the first of ``key``'s candidate shards
        that takes it, appending every shard tried to ``tried``.

        A connect failure marks the shard down at once and a ``429``
        is remembered; either way the next replica is tried (dedup
        keeps this idempotent).  Accepted answers get ``rewrite``'s id
        rewrite; other statuses pass through.  When every candidate
        shed, the last ``429`` (``Retry-After`` included) is relayed;
        when none was reachable, ``503``."""
        self._c_submitted.inc()
        shed: Optional[Tuple[int, Dict[str, str], Dict[str, Any]]] = None
        for hop, shard in enumerate(self.candidates_for(key)):
            if hop:
                self._c_retries.inc()
            tried.append(shard.name)
            try:
                status, resp_headers, resp = await self._forward(
                    shard, "POST", path, body, headers=headers
                )
            except _UpstreamError as exc:
                shard.consecutive_failures = max(
                    shard.consecutive_failures, self.fail_threshold - 1
                )
                self._mark_down(shard, str(exc))
                continue
            self._mark_up(shard)
            if status == 429:
                shed = (status, resp_headers, resp)
                continue
            if status in (200, 202):
                resp = rewrite(resp, shard.name)
            return status, resp, {}
        if shed is not None:
            self._c_relayed_429.inc()
            status, resp_headers, resp = shed
            out_headers = {}
            if resp_headers.get("retry-after"):
                out_headers["Retry-After"] = resp_headers["retry-after"]
            resp.setdefault("tried", tried)
            return status, resp, out_headers
        self._c_unroutable.inc()
        raise _HttpError(
            503,
            f"no shard reachable for this key (tried {tried})",
            extra={"tried": tried},
        )

    async def _submit(
        self, body: bytes, req_headers: Dict[str, str]
    ) -> _Answer:
        problem, solver, _priority = _parse_body(body, parse_job_payload)
        key = cell_key(problem, solver.to_dict())

        # The router is the client's first hop: it records the
        # ``client.submit`` root span (consuming X-Repro-Client-Send)
        # and forwards only trace id + its own routing span as the
        # parent, so the daemon's spans nest under ``router.submit``.
        trace_id, parent_id = SolveServer._trace_headers(req_headers)
        if trace_id is None:
            return await self._forward_by_key(
                key, "/v1/jobs", body, None, [], self._rewrite_job
            )
        route_span_id = obs_spans.new_span_id()
        fwd_headers = {
            obs_spans.TRACE_HEADER: trace_id,
            obs_spans.PARENT_HEADER: route_span_id,
        }
        route_wall = time.time()
        route_t0 = time.perf_counter()
        routed_to: Optional[str] = None
        tried: List[str] = []
        try:
            answer = await self._forward_by_key(
                key, "/v1/jobs", body, fwd_headers, tried, self._rewrite_job
            )
            if answer[0] != 429:
                routed_to = tried[-1]
            return answer
        finally:
            obs_spans.record_span(
                "router.submit",
                start=route_wall,
                duration=time.perf_counter() - route_t0,
                trace_id=trace_id,
                parent_id=parent_id,
                span_id=route_span_id,
                shard=routed_to,
                tried=",".join(tried),
            )

    async def _submit_front(
        self, body: bytes
    ) -> _Answer:
        problem, _template, _points, _priority = _parse_body(
            body, parse_front_payload
        )
        # Instance-only affinity: every front over the same problem owns
        # the same shard, so sweep cells coalesce across fronts there.
        key = cell_key(problem, {"front": True})
        return await self._forward_by_key(
            key, "/v1/fronts", body, None, [], self._rewrite_front
        )

    def _owner(self, kind: str, routed_id: str) -> Tuple[str, Shard]:
        """``(shard-local id, owning shard)`` of a routed job or front
        id (``kind`` is ``"job"`` or ``"front"``); ``404`` when the id
        names no known shard."""
        raw, shard_name = split_job_id(routed_id)
        if shard_name is None:
            raise _HttpError(
                404,
                f"{kind} id {routed_id!r} carries no shard suffix; the "
                "router only resolves ids it issued (<id>@<shard>)",
            )
        shard = self.shards.get(shard_name)
        if shard is None:
            raise _HttpError(
                404, f"unknown shard {shard_name!r} in {kind} id {routed_id!r}"
            )
        return raw, shard

    async def _owner_request(
        self,
        method: str,
        kind: str,
        routed_id: str,
        suffix: str = "",
        *,
        timeout: Optional[float] = None,
    ) -> _Answer:
        """Forward a request about one job or front to the shard that
        holds it; ``503`` when that shard is unreachable."""
        raw, shard = self._owner(kind, routed_id)
        try:
            status, _headers, resp = await self._forward(
                shard, method, f"/v1/{kind}s/{raw}{suffix}", timeout=timeout
            )
        except _UpstreamError as exc:
            self._mark_down(shard, str(exc))
            raise _HttpError(
                503,
                f"shard {shard.name!r} holding {kind} {routed_id!r} is "
                f"unreachable: {exc}",
            ) from None
        self._mark_up(shard)
        rewrite = self._rewrite_front if kind == "front" else self._rewrite_job
        return status, rewrite(resp, shard.name), {}

    async def _job_request(self, method: str, job_id: str) -> _Answer:
        return await self._owner_request(method, "job", job_id)

    async def _front_request(self, front_id: str) -> _Answer:
        return await self._owner_request("GET", "front", front_id)

    async def _result(self, job_id: str, wait: Optional[float]) -> _Answer:
        suffix = "/result" if wait is None else f"/result?wait={wait}"
        if self.redirect_results:
            raw, shard = self._owner("job", job_id)
            if shard.up:
                location = f"{shard.url}/v1/jobs/{raw}{suffix}"
                return 307, {"location": location}, {"Location": location}
            # Fall through to proxying: a 307 at a down shard would
            # just bounce the client into the same connect failure.
        return await self._owner_request(
            "GET",
            "job",
            job_id,
            suffix,
            timeout=self.upstream_timeout + (wait or 0.0),
        )

    async def _fan_out(
        self, shards: List[Shard], path: str, *, count: bool = False
    ) -> List[Tuple[Shard, Optional[Dict[str, Any]], Optional[str]]]:
        """GET ``path`` from ``shards`` at once: ``(shard, payload,
        error)`` each, ``payload`` ``None`` when the shard is unreachable
        (marked down) or answered other than ``200``."""
        results = await asyncio.gather(
            *(self._forward(s, "GET", path, count=count) for s in shards),
            return_exceptions=True,
        )
        out: List[Tuple[Shard, Optional[Dict[str, Any]], Optional[str]]] = []
        for shard, result in zip(shards, results):
            if isinstance(result, _UpstreamError):
                self._mark_down(shard, str(result))
                out.append((shard, None, str(result)))
            elif isinstance(result, BaseException):
                raise result
            elif result[0] != 200:
                out.append((shard, None, f"HTTP {result[0]}"))
            else:
                out.append((shard, result[2], None))
        return out

    async def _list_jobs(self, query: str) -> Dict[str, Any]:
        suffix = f"?{query}" if query else ""
        jobs: List[Dict[str, Any]] = []
        unavailable: List[str] = []
        up = [s for s in self.shards.values() if s.up]
        for shard, resp, _error in await self._fan_out(
            up, f"/v1/jobs{suffix}", count=True
        ):
            if resp is None:
                unavailable.append(shard.name)
                continue
            for job in resp.get("jobs", []):
                jobs.append(self._rewrite_job(job, shard.name))
        jobs.sort(key=lambda j: j.get("submitted_at") or 0.0, reverse=True)
        payload: Dict[str, Any] = {"jobs": jobs, "count": len(jobs)}
        if unavailable:
            payload["unavailable_shards"] = unavailable
        return payload

    async def _trace(self, trace_id: str) -> Dict[str, Any]:
        """Merged trace view: the router's own spans (client.submit,
        router.submit) plus every up shard's, sorted by start time.
        Span ids embed the recording pid, so the merge needs no
        renumbering — dedup by id guards against double-reporting."""
        spans: List[Dict[str, Any]] = list(
            obs_spans.recorder().spans_for(trace_id)
        )
        seen = {span.get("span_id") for span in spans}
        up = [s for s in self.shards.values() if s.up]
        for _shard, resp, _error in await self._fan_out(
            up, f"/v1/traces/{trace_id}"
        ):
            for span in (resp or {}).get("spans", []):
                if span.get("span_id") in seen:
                    continue
                seen.add(span.get("span_id"))
                spans.append(span)
        if not spans:
            raise _HttpError(
                404, f"no spans recorded for trace {trace_id!r}"
            )
        spans.sort(key=lambda s: (s.get("start") or 0.0, s.get("name", "")))
        return {"trace_id": trace_id, "count": len(spans), "spans": spans}

    def _shard_health(self, forwards: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Every shard's health, ``forwarded`` read off its
        ``forward_seconds`` series (snapshot ``forwards``)."""
        return [
            dict(s.describe(), forwarded=forwards.get(s.name, {}).get("count", 0))
            for s in self.shards.values()
        ]

    async def _scrape(self) -> Tuple[Dict[str, Any], Dict[str, Any], Dict[str, Any]]:
        """Every shard's ``/v1/metrics`` payload (``{"error": ...}`` when
        unavailable or without a ``registry``), then this router's
        registry snapshot and the shards' counters summed by name (the
        solver sums read 0 while no shard answers)."""
        per_shard: Dict[str, Any] = {}
        for shard, resp, error in await self._fan_out(list(self.shards.values()), "/v1/metrics"):
            if resp is not None and not isinstance(resp.get("registry"), dict):
                error = "metrics payload has no registry"
            per_shard[shard.name] = resp if error is None else {"error": error}
        zeros = {
            name: {"type": "counter", "help": help, "value": 0}
            for name, help in SOLVER_COUNTERS
        }
        fleet = obs_metrics.sum_counters(
            [sub["registry"] for sub in per_shard.values() if "registry" in sub] + [zeros]
        )
        return per_shard, self.metrics_registry.to_dict(), fleet

    async def _metrics(self) -> Dict[str, Any]:
        per_shard, snap, fleet = await self._scrape()
        return {
            "version": __version__,
            "role": "router",
            "uptime_s": snap["router_uptime_seconds"]["value"],
            "router": obs_metrics.counter_view(snap, "router_"),
            "ring": self.ring.describe(),
            "shard_health": self._shard_health(snap["forward_seconds"]["series"]),
            "fleet": {
                "jobs": obs_metrics.counter_view(fleet, "jobs_"),
                "solver": solver_view(fleet),
            },
            "shards": per_shard,
            "histograms": obs_metrics.of_kind(snap, "histogram"),
            "registry": snap,
        }

    async def _prometheus(self) -> str:
        per_shard, snap, fleet = await self._scrape()
        fleet = {
            "fleet_" + name: dict(m, help="Fleet-wide: " + m["help"])
            for name, m in fleet.items()
        }
        sources = [(snap, {}), (fleet, {})]
        for name, sub in sorted(per_shard.items()):
            if "registry" in sub:
                # A shard is identified by its label; its own build_info
                # would repeat the router's.
                shard_snap = {k: m for k, m in sub["registry"].items() if k != "build_info"}
                sources.append((shard_snap, {"shard": name}))
        return to_prometheus(sources)

    def _healthz(self) -> Dict[str, Any]:
        up = sum(1 for s in self.shards.values() if s.up)
        return {
            "status": "ok" if up else "degraded",
            "role": "router",
            "version": __version__,
            "uptime_s": time.monotonic() - self._started_mono,
            "shards_up": up,
            "shards_total": len(self.shards),
            "shards": self._shard_health(self._h_forward.snapshot()["series"]),
        }

    @staticmethod
    def _rewrite_job(payload: Dict[str, Any], shard: str) -> Dict[str, Any]:
        """Stamp a shard-local job payload, and the result a born-done
        submission carries inline, with its fleet identity."""
        if isinstance(payload.get("id"), str) and payload["id"]:
            payload["id"] = routed_job_id(payload["id"], shard)
        payload.setdefault("shard", shard)
        if isinstance(payload.get("result"), dict):
            ShardRouter._rewrite_job(payload["result"], shard)
        return payload

    @staticmethod
    def _rewrite_front(payload: Dict[str, Any], shard: str) -> Dict[str, Any]:
        """Stamp a shard-local front payload (front id + embedded cell-job
        ids) with its fleet identity."""
        if isinstance(payload.get("id"), str) and payload["id"]:
            payload["id"] = routed_job_id(payload["id"], shard)
        if isinstance(payload.get("jobs"), list):
            payload["jobs"] = [
                routed_job_id(j, shard) if isinstance(j, str) else j
                for j in payload["jobs"]
            ]
        payload.setdefault("shard", shard)
        return payload


# ----------------------------------------------------------------------
# embedding / entry points
# ----------------------------------------------------------------------
async def serve_router(
    shards: Sequence[Tuple[str, str]],
    *,
    host: str = "127.0.0.1",
    port: int = 8786,
    **router_kwargs: Any,
) -> ShardRouter:
    """Build, start and return a :class:`ShardRouter`."""
    router = ShardRouter(shards, host=host, port=port, **router_kwargs)
    await router.start()
    return router


class RouterThread(_FrontEndThread):
    """Host a :class:`ShardRouter` on a background thread, like
    :class:`~repro.server.http.ServerThread`.  Tests and benchmarks
    embed a live router this way."""

    _role = "router"

    def __init__(
        self,
        shards: Sequence[Tuple[str, str]],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        **router_kwargs: Any,
    ) -> None:
        shards = list(shards)
        super().__init__(
            lambda: serve_router(shards, host=host, port=port, **router_kwargs)
        )

    @property
    def router(self) -> Optional[ShardRouter]:
        """The running :class:`ShardRouter`."""
        return self._front  # type: ignore[return-value]


#: Pattern the daemon prints on startup; the spawner parses the bound
#: (possibly ephemeral) URL out of it.
_LISTENING_RE = re.compile(r"listening on (http://\S+)")


def spawn_local_fleet(
    count: int,
    *,
    cache_dir: Union[str, Path, None] = None,
    executor: str = "process",
    concurrency: int = 2,
    extra_args: Sequence[str] = (),
    startup_timeout: float = 60.0,
) -> List[Shard]:
    """Spawn ``count`` solve daemons on ephemeral ports.

    Each shard is a real child process running ``repro-pipelines serve
    --port 0 --shard-name shard{i}``; with ``cache_dir`` set, shard
    ``i`` caches under ``<cache_dir>/shard{i}`` (per-shard caches — the
    ring, not a shared directory, is what makes dedup fleet-wide).
    Returns :class:`Shard` handles carrying the child processes; the
    caller owns their lifetime (see :func:`run_router`).
    """
    shards: List[Shard] = []
    package_root = str(Path(__file__).resolve().parents[2])
    try:
        for i in range(count):
            name = f"shard{i}"
            argv = [
                sys.executable,
                "-c",
                "import sys; from repro.cli import main; sys.exit(main())",
                "serve",
                "--port",
                "0",
                "--shard-name",
                name,
                "--executor",
                executor,
                "--concurrency",
                str(concurrency),
                *extra_args,
            ]
            if cache_dir is not None:
                shard_cache = Path(cache_dir) / name
                shard_cache.mkdir(parents=True, exist_ok=True)
                argv += ["--cache-dir", str(shard_cache)]
            import os

            env = dict(os.environ)
            env["PYTHONPATH"] = package_root + (
                os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
            )
            env["PYTHONUNBUFFERED"] = "1"
            proc = subprocess.Popen(
                argv,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
                env=env,
            )
            url = _wait_for_url(proc, startup_timeout)
            shards.append(Shard(name=name, url=url, process=proc))
    except BaseException:
        terminate_fleet(shards)
        raise
    return shards


def _wait_for_url(proc: subprocess.Popen, timeout: float) -> str:
    """Read the child's stdout until it announces its bound URL."""
    deadline = time.monotonic() + timeout
    lines: List[str] = []
    assert proc.stdout is not None
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            if proc.poll() is not None:
                break
            time.sleep(0.05)
            continue
        lines.append(line)
        match = _LISTENING_RE.search(line)
        if match:
            return match.group(1)
    raise RuntimeError(
        "spawned daemon did not announce its URL within "
        f"{timeout}s; output so far:\n{''.join(lines)}"
    )


def terminate_fleet(shards: Sequence[Shard]) -> None:
    """Terminate (then kill) every spawned shard process."""
    for shard in shards:
        if shard.process is not None and shard.process.poll() is None:
            shard.process.terminate()
    deadline = time.monotonic() + 10.0
    for shard in shards:
        if shard.process is None:
            continue
        remaining = max(0.1, deadline - time.monotonic())
        try:
            shard.process.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            shard.process.kill()
            shard.process.wait(timeout=5.0)


def run_router(
    shards: Sequence[Tuple[str, str]] = (),
    *,
    host: str = "127.0.0.1",
    port: int = 8786,
    spawn: int = 0,
    cache_dir: Union[str, Path, None] = None,
    executor: str = "process",
    concurrency: int = 2,
    spawn_args: Sequence[str] = (),
    **router_kwargs: Any,
) -> None:
    """Blocking entry point used by ``repro-pipelines route``.

    Fronts the given shard URLs, optionally spawning ``spawn`` local
    daemons first; runs until SIGINT/SIGTERM, then closes the router
    and terminates any spawned shards.
    """
    spawned: List[Shard] = []
    shard_specs = list(shards)
    if spawn:
        spawned = spawn_local_fleet(
            spawn,
            cache_dir=cache_dir,
            executor=executor,
            concurrency=concurrency,
            extra_args=spawn_args,
        )
        shard_specs += [(s.name, s.url) for s in spawned]

    async def _main() -> None:
        router = await serve_router(
            shard_specs, host=host, port=port, **router_kwargs
        )
        for shard in spawned:
            router.shards[shard.name].process = shard.process
        roster = " ".join(f"{n}={u}" for n, u in shard_specs)
        await _serve_until_signalled(
            router,
            f"repro-pipelines shard router v{__version__} "
            f"listening on {router.url} fronting {len(shard_specs)} "
            f"shard(s): {roster}",
            "router shutting down",
        )

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - handler fallback path
        print("router shutting down", flush=True)
    finally:
        terminate_fleet(spawned)

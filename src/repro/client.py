"""HTTP client for the solve-service daemon (:mod:`repro.server`).

:class:`SolveClient` is a small, dependency-free (``http.client``)
client: submit instances, wait for results, stream a fleet of jobs as
they finish.  Each thread keeps one keep-alive connection per server; a
cached cell comes back inline with its submission (one round trip), and
waiting long-polls ``GET /v1/jobs/{id}/result?wait=S`` instead of
sleeping between status polls.  Transient transport failures retry with
exponential backoff — and because the daemon deduplicates submissions by
content (instance + solver configuration), retrying a submit is
*idempotent*: a duplicate simply coalesces onto the original job's cell.

Quickstart::

    from repro.client import SolveClient

    client = SolveClient("http://127.0.0.1:8787")
    result = client.solve(problem, objective="period",
                          strategy="portfolio(greedy,local_search)")
    print(result.solution.objective, result.source)

    job_ids = client.submit_many(problems, objective="latency")
    for result in client.iter_results(job_ids):
        print(result.job_id, result.status)
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union
from urllib.parse import urljoin, urlsplit

from .core.exceptions import ReproError
from .core.problem import ProblemInstance, Solution
from .io import problem_to_dict, solution_from_dict
from .obs import spans as _obs_spans
from .strategies import SolveBudget, SolveTelemetry

#: Upper bound on a single honored ``Retry-After`` sleep; a daemon
#: estimate beyond this is treated as "come back much later", not an
#: instruction to block the caller for minutes.
_RETRY_AFTER_CAP = 30.0

#: Redirect hops followed per request.  The shard router answers result
#: fetches with a ``307`` to the owning shard (``--redirect-results``);
#: one hop is the norm, a few more are tolerated, loops are not.
_MAX_REDIRECTS = 5

__all__ = [
    "ClientError",
    "JobFailedError",
    "RemoteResult",
    "ServerUnavailableError",
    "SolveClient",
]


class ClientError(ReproError):
    """Base error of the solve client."""


class ServerUnavailableError(ClientError):
    """The daemon could not be reached (after retries)."""


class JobFailedError(ClientError):
    """A job finished with ``status="error"`` or was cancelled."""

    def __init__(self, message: str, payload: Optional[Dict[str, Any]] = None):
        super().__init__(message)
        self.payload = payload or {}


@dataclass(frozen=True)
class RemoteResult:
    """Decoded outcome of one remote job.

    ``status`` is the solve status (``"ok"`` / ``"infeasible"`` /
    ``"error"``); ``source`` records how the daemon produced it
    (``"solved"``, ``"cache"`` or ``"coalesced"``).  ``raw`` keeps the
    full wire payload for anything not decoded here.
    """

    job_id: str
    status: str
    source: Optional[str]
    wall_time: float
    solution: Optional[Solution] = None
    telemetry: Optional[SolveTelemetry] = None
    error: Optional[str] = None
    raw: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        """True when the job solved successfully."""
        return self.status == "ok"

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "RemoteResult":
        """Decode a ``GET /v1/jobs/{id}/result`` payload."""
        telemetry_raw = payload.get("telemetry")
        solution_raw = payload.get("solution")
        return cls(
            job_id=str(payload.get("id", "")),
            status=str(payload.get("status") or payload.get("state") or ""),
            source=payload.get("source"),
            wall_time=float(payload.get("wall_time") or 0.0),
            solution=(
                None if solution_raw is None else solution_from_dict(solution_raw)
            ),
            telemetry=(
                None
                if telemetry_raw is None
                else SolveTelemetry.from_dict(telemetry_raw)
            ),
            error=payload.get("error"),
            raw=payload,
        )


class SolveClient:
    """Client for a running solve-service daemon.

    Parameters
    ----------
    base_url:
        ``http://host:port`` of the daemon (no trailing slash needed).
    timeout:
        Per-request socket timeout in seconds.  A long-poll result fetch
        also asks the server to hold it up to this long (the server may
        cap it lower), and its socket timeout is stretched by as much.
    retries:
        Transport-level retries per request (connection refused/reset,
        HTTP 5xx and 429 load-shedding).  A ``503`` whose retry hint says
        when a server at its connection cap frees a slot is waited out
        without spending a retry, within the request's own time budget.  Safe for submissions too:
        the daemon's content-addressed dedup coalesces an accidental
        duplicate.
    backoff:
        Initial retry delay, doubled per attempt up to ``max_backoff``.
        A ``429`` or ``503`` response's ``Retry-After`` hint overrides
        the exponential delay for that attempt (capped at 30s).
    tracing:
        When true (default), every submission carries a fresh
        distributed-trace id (``X-Repro-Trace-Id``) so the server-side
        span tree — router hop, queue wait, solver phases — is
        retrievable with :meth:`trace`.  The id comes back on the job
        view as ``"trace_id"``.
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 10.0,
        retries: int = 3,
        backoff: float = 0.2,
        max_backoff: float = 2.0,
        tracing: bool = True,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.max_backoff = max_backoff
        self.tracing = tracing
        #: Per-thread ``{netloc: HTTPConnection}``: one keep-alive
        #: connection per server and thread.
        self._local = threading.local()

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        headers: Optional[Dict[str, str]] = None,
        *,
        wait: float = 0.0,
    ) -> Dict[str, Any]:
        """One API call: the decoded JSON body of a 2xx answer.  ``wait``
        is how long the server may hold it (a long-poll)."""
        url = f"{self.base_url}{path}"
        body = None if payload is None else json.dumps(payload).encode()
        delay = self.backoff
        last_exc: Optional[BaseException] = None
        # A 503 with a retry hint means a server at its connection cap
        # names when a slot frees: waiting that out spends no retry while
        # it fits in the time this request may take anyway.
        budget_end = time.monotonic() + self.timeout + wait
        attempt = 0
        while True:
            hint: Optional[float] = None
            try:
                status, resp_headers, data = self._exchange(
                    url, method, body, headers, self.timeout + wait
                )
            except (OSError, http.client.HTTPException) as exc:
                last_exc = exc
            else:
                if status < 400:
                    return json.loads(data.decode() or "{}")
                detail = self._error_detail(data)
                last_exc = ClientError(f"HTTP {status}: {detail}")
                if status in (429, 503):
                    hint = self._retry_after(resp_headers, data)
                if (
                    status == 503
                    and hint is not None
                    and time.monotonic() + hint < budget_end
                ):
                    time.sleep(hint)
                    continue
                if (status < 500 and status != 429) or attempt >= self.retries:
                    raise ClientError(
                        f"{method} {path} failed with HTTP {status}: {detail}"
                    )
            if attempt >= self.retries:
                break
            attempt += 1
            if hint is not None:
                # Shed by the daemon's bounded queue (429) or a cap
                # (503): honor the server's hint instead of the
                # exponential delay (dedup makes a resubmit idempotent).
                time.sleep(min(hint, _RETRY_AFTER_CAP))
            else:
                time.sleep(delay)
                delay = min(delay * 2, self.max_backoff)
        raise ServerUnavailableError(
            f"{method} {url} unreachable after {self.retries + 1} attempts: "
            f"{last_exc}"
        )

    def _exchange(
        self,
        url: str,
        method: str,
        body: Optional[bytes],
        headers: Optional[Dict[str, str]],
        timeout: float,
    ) -> Tuple[int, http.client.HTTPMessage, bytes]:
        """Issue one request, following up to ``_MAX_REDIRECTS`` hops.

        ``307``/``308`` (and the legacy ``301``/``302``) re-issue the
        *same* method and body at the ``Location`` target — this is how
        the client transparently follows the shard router's
        redirect-to-owning-shard responses; ``303`` degrades to a GET
        per the RFC.
        """
        for _hop in range(_MAX_REDIRECTS + 1):
            status, resp_headers, data = self._send(
                url, method, body, headers, timeout
            )
            location = resp_headers.get("Location")
            if status in (301, 302, 303, 307, 308) and location:
                url = urljoin(url, location)
                if status == 303:
                    method, body = "GET", None
                continue
            return status, resp_headers, data
        raise ClientError(
            f"{method} {url}: more than {_MAX_REDIRECTS} redirects"
        )

    def _send(
        self,
        url: str,
        method: str,
        body: Optional[bytes],
        headers: Optional[Dict[str, str]],
        timeout: float,
    ) -> Tuple[int, http.client.HTTPMessage, bytes]:
        """One request on this thread's keep-alive connection to the
        URL's server, sent once more on a fresh connection when a reused
        one turns out closed by the server while it sat idle."""
        parts = urlsplit(url)
        connections = self._local.__dict__.setdefault("connections", {})
        conn = connections.get(parts.netloc)
        if conn is None:
            factory = (
                http.client.HTTPSConnection
                if parts.scheme == "https"
                else http.client.HTTPConnection
            )
            conn = connections[parts.netloc] = factory(parts.netloc)
        target = parts.path + (f"?{parts.query}" if parts.query else "")
        headers = {"Content-Type": "application/json", **(headers or {})}
        while True:
            reused = conn.sock is not None
            conn.timeout = timeout
            if reused:
                conn.sock.settimeout(timeout)
            try:
                conn.request(method, target, body=body, headers=headers)
                response = conn.getresponse()
                return response.status, response.headers, response.read()
            except BaseException as exc:
                conn.close()
                if not (reused and isinstance(exc, ConnectionError)):
                    raise

    @staticmethod
    def _error_detail(data: bytes) -> str:
        try:
            return json.loads(data.decode()).get("error", "")
        except Exception:
            return data[:200].decode("latin-1")

    @staticmethod
    def _retry_after(
        headers: http.client.HTTPMessage, data: bytes
    ) -> Optional[float]:
        """The server's wait hint in a 429 or 503: the JSON body's float
        ``retry_after`` when present, else the integer-seconds
        ``Retry-After`` header, else ``None``."""
        try:
            payload = json.loads(data.decode() or "{}")
            if payload.get("retry_after") is not None:
                return max(0.0, float(payload["retry_after"]))
        except Exception:
            pass
        try:
            return max(0.0, float(headers.get("Retry-After")))
        except (TypeError, ValueError):
            return None

    def close(self) -> None:
        """Close the calling thread's keep-alive connections (another
        thread's close when that thread ends)."""
        for conn in self._local.__dict__.pop("connections", {}).values():
            conn.close()

    def __enter__(self) -> "SolveClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        """Daemon liveness, version and concurrency."""
        return self._request("GET", "/v1/healthz")

    def metrics(self) -> Dict[str, Any]:
        """Queue/job/solver counters (``GET /v1/metrics``)."""
        return self._request("GET", "/v1/metrics")

    def trace(self, trace_id: str) -> Dict[str, Any]:
        """Recorded spans of one trace (``GET /v1/traces/{id}``).

        Against a router this returns the merged tree across shards;
        against a daemon, that daemon's spans.  Raises
        :class:`ClientError` (404) when the trace id is unknown.
        """
        return self._request("GET", f"/v1/traces/{trace_id}")

    def _trace_headers(self) -> Optional[Dict[str, str]]:
        """Fresh per-submission trace headers (``None`` when tracing is
        off).  The client's span id rides as the parent so every
        server-side span hangs off the ``client.submit`` root the first
        hop records from the send timestamp."""
        if not self.tracing or not _obs_spans.enabled():
            return None
        return {
            _obs_spans.TRACE_HEADER: _obs_spans.new_trace_id(),
            _obs_spans.PARENT_HEADER: _obs_spans.new_span_id(),
            _obs_spans.CLIENT_SEND_HEADER: repr(time.time()),
        }

    def submit(
        self,
        problem: ProblemInstance,
        *,
        objective: str = "period",
        strategy: Optional[str] = None,
        budget: Union[SolveBudget, Dict[str, Any], None] = None,
        max_period: Optional[float] = None,
        max_latency: Optional[float] = None,
        max_energy: Optional[float] = None,
        priority: int = 0,
    ) -> Dict[str, Any]:
        """Submit one job; returns the job view (``"id"``, ``"state"``).

        Omitting ``strategy`` uses the registry dispatch.
        """
        solver: Dict[str, Any] = {"objective": objective}
        if strategy is not None:
            solver["strategy"] = strategy
        if budget is not None:
            solver["budget"] = (
                budget.to_dict() if isinstance(budget, SolveBudget) else budget
            )
        for key, value in (
            ("max_period", max_period),
            ("max_latency", max_latency),
            ("max_energy", max_energy),
        ):
            if value is not None:
                solver[key] = value
        return self._request(
            "POST",
            "/v1/jobs",
            {
                "problem": problem_to_dict(problem),
                "solver": solver,
                "priority": priority,
            },
            headers=self._trace_headers(),
        )

    def job(self, job_id: str) -> Dict[str, Any]:
        """Status view of one job."""
        return self._request("GET", f"/v1/jobs/{job_id}")

    def jobs(
        self, *, state: Optional[str] = None, limit: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        """List retained jobs, newest first."""
        query = []
        if state is not None:
            query.append(f"state={state}")
        if limit is not None:
            query.append(f"limit={limit}")
        suffix = f"?{'&'.join(query)}" if query else ""
        return self._request("GET", f"/v1/jobs{suffix}")["jobs"]

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job; ``True`` when it was still cancellable."""
        return bool(
            self._request("DELETE", f"/v1/jobs/{job_id}").get("cancelled")
        )

    def result(self, job_id: str) -> RemoteResult:
        """Fetch and decode the result of a *finished* job."""
        return RemoteResult.from_payload(
            self._request("GET", f"/v1/jobs/{job_id}/result")
        )

    # ------------------------------------------------------------------
    # waiting / convenience
    # ------------------------------------------------------------------
    def _long_poll(
        self, job_id: str, deadline: Optional[float]
    ) -> Optional[Dict[str, Any]]:
        """One ``GET /v1/jobs/{id}/result?wait=S`` (S: the time left, at
        most :attr:`timeout`): the result payload, ``None`` if pending."""
        wait = self.timeout
        if deadline is not None:
            wait = min(wait, max(0.0, deadline - time.monotonic()))
        payload = self._request(
            "GET", f"/v1/jobs/{job_id}/result?wait={wait:.3f}", wait=wait
        )
        if payload.get("state") in ("done", "cancelled"):
            return payload
        return None

    @staticmethod
    def _finished(payload: Dict[str, Any]) -> RemoteResult:
        """Decode a finished job's result payload; a cancelled job
        raises :class:`JobFailedError`."""
        if payload.get("state") == "cancelled":
            raise JobFailedError(
                f"job {payload.get('id')} was cancelled", payload
            )
        return RemoteResult.from_payload(payload)

    def wait(
        self, job_id: str, *, timeout: Optional[float] = 60.0
    ) -> RemoteResult:
        """Wait until the job finishes, then return its decoded result.

        Each request long-polls the result for up to :attr:`timeout`
        seconds (or the server's cap, 10 s by default, if lower), so a
        job of ``T`` seconds costs about ``ceil(T / 10)`` requests and
        resolves as soon as it is done.  Raises
        :class:`JobFailedError` when the job was cancelled,
        ``TimeoutError`` past ``timeout``.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            payload = self._long_poll(job_id, deadline)
            if payload is not None:
                return self._finished(payload)
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} not finished within {timeout}s"
                )

    def solve(
        self,
        problem: ProblemInstance,
        *,
        timeout: Optional[float] = 60.0,
        priority: int = 0,
        **solver_kwargs: Any,
    ) -> RemoteResult:
        """Submit one job and wait for its result.

        A job the server answers at once (a cached cell) carries its
        result inline, so it costs this one request.  Raises
        :class:`JobFailedError` on an errored job; infeasible outcomes
        are returned (``result.status == "infeasible"``), like the
        batch service's item statuses.
        """
        view = self.submit(problem, priority=priority, **solver_kwargs)
        if view.get("result") is not None:
            result = self._finished(view["result"])
        else:
            result = self.wait(view["id"], timeout=timeout)
        if result.status == "error":
            raise JobFailedError(
                f"job {result.job_id} failed: {result.error}", result.raw
            )
        return result

    def submit_many(
        self,
        problems: Sequence[ProblemInstance],
        *,
        priority: int = 0,
        **solver_kwargs: Any,
    ) -> List[str]:
        """Submit a fleet of jobs; returns their ids in order."""
        return [
            self.submit(p, priority=priority, **solver_kwargs)["id"]
            for p in problems
        ]

    # ------------------------------------------------------------------
    # anytime fronts
    # ------------------------------------------------------------------
    def submit_front(
        self,
        problem: ProblemInstance,
        *,
        strategy: Optional[str] = None,
        budget: Union[SolveBudget, Dict[str, Any], None] = None,
        points: Optional[int] = None,
        priority: int = 0,
    ) -> Dict[str, Any]:
        """Submit an anytime period/energy front sweep
        (``POST /v1/fronts``); returns the front view (``"id"``,
        ``"state"``, ``"front"``, ``"hypervolume"``, ...).

        The optional solver template (``strategy``/``budget``)
        applies to every sweep cell; by default the daemon
        picks the per-cell dispatch that keeps the finished merge
        byte-identical to the offline exact front.  ``points`` caps the
        number of sweep cells.
        """
        solver: Dict[str, Any] = {}
        if strategy is not None:
            solver["strategy"] = strategy
        if budget is not None:
            solver["budget"] = (
                budget.to_dict() if isinstance(budget, SolveBudget) else budget
            )
        payload: Dict[str, Any] = {"problem": problem_to_dict(problem)}
        if solver:
            payload["solver"] = solver
        if points is not None:
            payload["points"] = points
        if priority:
            payload["priority"] = priority
        return self._request("POST", "/v1/fronts", payload)

    def front(self, front_id: str) -> Dict[str, Any]:
        """Front-so-far view of one sweep (``GET /v1/fronts/{id}``):
        merged front, hypervolume and done/total telemetry."""
        return self._request("GET", f"/v1/fronts/{front_id}")

    @staticmethod
    def _jittered(delay: float) -> float:
        """Uniform jitter in ``[delay/2, delay]`` — a fleet of front
        watchers started together desynchronizes instead of polling the
        daemon (or the shard router) in lockstep."""
        return delay * (0.5 + 0.5 * random.random())

    def iter_front(
        self,
        front_id: str,
        *,
        timeout: Optional[float] = 300.0,
        poll_interval: float = 0.02,
        max_poll_interval: float = 2.0,
    ) -> Iterator[Dict[str, Any]]:
        """Yield front views as the sweep refines, ending when done.

        Every yielded view improved on the previous one (more cells
        done, new points merged, or higher hypervolume); the final view
        has ``state == "done"`` and is always yielded, so consuming the
        iterator to exhaustion leaves you with the finished front.
        Polling backs off with a jittered exponential schedule (from
        ``poll_interval`` doubling to ``max_poll_interval``); progress
        resets the delay.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        delay = poll_interval
        last: Optional[tuple] = None
        while True:
            view = self.front(front_id)
            mark = (view["done"], view["points_merged"], view["hypervolume"])
            progressed = mark != last
            if progressed:
                last = mark
                yield view
            if view["state"] == "done":
                return
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"front {front_id} not finished within {timeout}s "
                    f"({view['done']}/{view['total']} cells)"
                )
            if progressed:
                delay = poll_interval
            else:
                time.sleep(self._jittered(delay))
                delay = min(delay * 2, max_poll_interval)

    def iter_results(
        self,
        job_ids: Sequence[str],
        *,
        timeout: Optional[float] = 300.0,
    ) -> Iterator[RemoteResult]:
        """Yield each job's result, in the given order, as soon as it
        and the jobs before it have finished: the first unfinished job
        is long-polled as in :meth:`wait`.  Cancelled jobs yield a
        ``status="cancelled"`` result rather than raising.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        pending = list(job_ids)
        while pending:
            payload = self._long_poll(pending[0], deadline)
            if payload is not None:
                pending.pop(0)
                yield RemoteResult.from_payload(payload)
            elif deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"{len(pending)} job(s) not finished within {timeout}s"
                )

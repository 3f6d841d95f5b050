"""Stdlib-only asyncio HTTP front end of the solve service.

A deliberately small HTTP/1.1 implementation on ``asyncio.start_server``
(no web framework — the repo's no-new-runtime-deps rule applies to the
daemon too): one request per connection, JSON in, JSON out.

Routes
------
=======  ============================  =======================================
Method   Path                          Meaning
=======  ============================  =======================================
POST     ``/v1/jobs``                  submit a job (``202``; ``200`` when
                                       served from cache immediately; ``429``
                                       + ``Retry-After`` when the bounded
                                       queue sheds the submission)
GET      ``/v1/jobs``                  list retained jobs (``?state=&limit=``)
GET      ``/v1/jobs/{id}``             job status + telemetry
GET      ``/v1/jobs/{id}/result``      solution payload of a finished job
DELETE   ``/v1/jobs/{id}``             cancel a queued job
POST     ``/v1/fronts``                submit an anytime Pareto-front sweep
                                       (``202``; ``200`` when every cell was
                                       answered from cache immediately)
GET      ``/v1/fronts/{id}``           front-so-far + hypervolume +
                                       done/total telemetry
GET      ``/v1/metrics``               queue/job/solver counters (JSON)
GET      ``/metrics``                  the same counters + histograms in
                                       Prometheus text exposition format
GET      ``/v1/traces/{trace_id}``     recorded spans of one distributed
                                       trace (``404`` when none)
GET      ``/v1/healthz``               liveness + version
=======  ============================  =======================================

Tracing: a ``POST /v1/jobs`` carrying ``X-Repro-Trace-Id`` runs its
submission under that trace — the daemon records its own spans
(submit, dedup lookup, queue wait, dispatch, solver phases, cache
write) against it, and ``GET /v1/traces/{trace_id}`` returns them.
``X-Repro-Parent-Id`` parents the daemon's spans onto the caller's
span; ``X-Repro-Client-Send`` (a wall-clock send timestamp) makes the
first server hop record the ``client.submit`` root span, so the tree
includes time spent on the wire.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
import time
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from .. import __version__
from ..obs import spans as obs_spans
from ..obs.export import to_prometheus
from .fronts import FrontStore
from .jobs import JobState
from .protocol import (
    ProtocolError,
    job_to_dict,
    parse_front_payload,
    parse_job_payload,
    result_to_dict,
)
from .service import (
    ServiceClosedError,
    ServiceOverloadedError,
    SolveService,
    UnknownJobError,
)

__all__ = ["ServerThread", "SolveServer", "serve", "run_server"]

#: Largest accepted request body (a problem payload is a few KB; this is
#: headroom, not a promise).
MAX_BODY_BYTES = 32 * 1024 * 1024

_STATUS_PHRASES = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _HttpError(Exception):
    """Internal: abort the request with a status + JSON error body
    (plus optional extra response headers, e.g. ``Retry-After``)."""

    def __init__(
        self,
        status: int,
        message: str,
        *,
        headers: Optional[Dict[str, str]] = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}
        self.extra = extra or {}


class _PlainText(str):
    """Marker type: a route returned pre-rendered plain text (the
    Prometheus exposition endpoint), not a JSON-serializable payload."""


#: Content type of the Prometheus text exposition format, version
#: included (what official scrapers send in ``Accept``).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _response(
    status: int,
    payload: Any,
    headers: Optional[Dict[str, str]] = None,
) -> bytes:
    if isinstance(payload, _PlainText):
        body = payload.encode()
        content_type = PROMETHEUS_CONTENT_TYPE
    else:
        body = json.dumps(payload).encode()
        content_type = "application/json"
    phrase = _STATUS_PHRASES.get(status, "Unknown")
    extra = "".join(
        f"{name}: {value}\r\n" for name, value in (headers or {}).items()
    )
    head = (
        f"HTTP/1.1 {status} {phrase}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extra}"
        f"Connection: close\r\n"
        f"\r\n"
    )
    return head.encode() + body


async def _readline(reader: asyncio.StreamReader) -> bytes:
    try:
        return await reader.readline()
    except ValueError:  # a line past the reader's limit (LimitOverrunError)
        raise _HttpError(400, "request line or header too long") from None


async def _read_request(
    reader: asyncio.StreamReader,
) -> Tuple[str, str, Dict[str, str], bytes]:
    """Parse one HTTP/1.1 request into (method, target, headers, body).

    Every malformed framing raises ``_HttpError(400)``; a body larger
    than :data:`MAX_BODY_BYTES` raises ``_HttpError(413)``."""
    request_line = await _readline(reader)
    if not request_line:
        raise _HttpError(400, "empty request")
    try:
        method, target, _version = request_line.decode("latin-1").split()
    except ValueError:
        raise _HttpError(400, "malformed request line") from None
    headers: Dict[str, str] = {}
    while True:
        line = await _readline(reader)
        if line in (b"\r\n", b"\n", b""):
            break
        if len(headers) > 100:
            raise _HttpError(400, "too many headers")
        try:
            name, _, value = line.decode("latin-1").partition(":")
        except UnicodeDecodeError:
            raise _HttpError(400, "malformed header") from None
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "0") or "0"
    try:
        length = int(raw_length)
    except ValueError:
        length = -1
    if length < 0:
        raise _HttpError(400, f"invalid Content-Length {raw_length!r}")
    if length > MAX_BODY_BYTES:
        raise _HttpError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError:
        raise _HttpError(400, "request body shorter than Content-Length") from None
    return method.upper(), target, headers, body


class SolveServer:
    """The HTTP server wrapping one :class:`SolveService`."""

    def __init__(
        self,
        service: SolveService,
        *,
        host: str = "127.0.0.1",
        port: int = 8787,
    ) -> None:
        self.service = service
        self.fronts = FrontStore(service)
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None

    @property
    def url(self) -> str:
        """Base URL clients should target."""
        return f"http://{self.host}:{self.port}"

    async def start(self) -> None:
        """Start the queue workers and bind the listening socket.

        With ``port=0`` the OS assigns an ephemeral port, reflected in
        :attr:`port` afterwards.
        """
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self, *, drain_queue: bool = False) -> None:
        """Stop accepting connections and shut the queue down
        gracefully (see :meth:`SolveService.shutdown`)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.shutdown(drain_queue=drain_queue)

    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, target, req_headers, body = await _read_request(
                    reader
                )
                status, payload = self._route(
                    method, target, body, req_headers
                )
                headers: Dict[str, str] = {}
            except _HttpError as exc:
                status, payload, headers = (
                    exc.status,
                    {"error": exc.message, **exc.extra},
                    exc.headers,
                )
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            except Exception as exc:  # never leak a traceback to the socket
                status, payload, headers = 500, {
                    "error": f"{type(exc).__name__}: {exc}"
                }, {}
            writer.write(_response(status, payload, headers))
            await writer.drain()
        except (ConnectionError, BrokenPipeError):  # client went away
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover
                pass

    def _route(
        self,
        method: str,
        target: str,
        body: bytes,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        split = urlsplit(target)
        parts = [p for p in split.path.split("/") if p]
        query = parse_qs(split.query)
        if parts == ["metrics"]:
            # Prometheus scrape target: text exposition rendered from
            # the same payload GET /v1/metrics serves as JSON.
            self._expect(method, "GET")
            return 200, _PlainText(to_prometheus(self.service.metrics()))
        if parts[:1] != ["v1"]:
            raise _HttpError(404, f"unknown path {split.path!r}")
        rest = parts[1:]
        if rest == ["healthz"]:
            self._expect(method, "GET")
            return 200, self._healthz()
        if rest == ["metrics"]:
            self._expect(method, "GET")
            return 200, self.service.metrics()
        if len(rest) == 2 and rest[0] == "traces":
            self._expect(method, "GET")
            return 200, self._trace(rest[1])
        if rest == ["jobs"]:
            if method == "POST":
                return self._submit(body, headers or {})
            self._expect(method, "GET")
            return 200, self._list_jobs(query)
        if len(rest) == 2 and rest[0] == "jobs":
            job_id = rest[1]
            if method == "DELETE":
                return self._cancel(job_id)
            self._expect(method, "GET")
            return 200, job_to_dict(self._job(job_id))
        if len(rest) == 3 and rest[:1] == ["jobs"] and rest[2] == "result":
            self._expect(method, "GET")
            return self._result(rest[1])
        if rest == ["fronts"]:
            self._expect(method, "POST")
            return self._submit_front(body)
        if len(rest) == 2 and rest[0] == "fronts":
            self._expect(method, "GET")
            return 200, self._front(rest[1]).to_dict()
        raise _HttpError(404, f"unknown path {split.path!r}")

    @staticmethod
    def _expect(method: str, expected: str) -> None:
        if method != expected:
            raise _HttpError(405, f"method {method} not allowed here")

    def _healthz(self) -> Dict[str, Any]:
        return {
            "status": "ok",
            "version": __version__,
            "shard": self.service.shard,
            "uptime_s": self.service.uptime,
            "concurrency": self.service.concurrency,
        }

    def _job(self, job_id: str):
        try:
            return self.service.job(job_id)
        except UnknownJobError as exc:
            raise _HttpError(404, str(exc)) from None

    def _trace(self, trace_id: str) -> Dict[str, Any]:
        spans = obs_spans.recorder().spans_for(trace_id)
        if not spans:
            raise _HttpError(
                404, f"no spans recorded for trace {trace_id!r}"
            )
        return {
            "trace_id": trace_id,
            "count": len(spans),
            "spans": list(spans),
        }

    @staticmethod
    def _trace_headers(
        headers: Dict[str, str],
    ) -> Tuple[Optional[str], Optional[str]]:
        """Extract (trace_id, parent_id) from request headers and, on
        the first traced server hop, record the ``client.submit`` root
        span from the client's send timestamp.

        The root span reuses the client's span id (sent as
        ``X-Repro-Parent-Id``) so every server-side span already
        parented on it attaches to a recorded node.  A router strips
        ``X-Repro-Client-Send`` when forwarding, so the span is
        recorded exactly once per trace, on the hop the client spoke
        to.
        """
        trace_id = headers.get(obs_spans.TRACE_HEADER.lower())
        if not trace_id:
            return None, None
        parent_id = headers.get(obs_spans.PARENT_HEADER.lower()) or None
        client_send = headers.get(obs_spans.CLIENT_SEND_HEADER.lower())
        if client_send:
            try:
                sent = float(client_send)
            except ValueError:
                sent = None
            if sent is not None:
                now = time.time()
                obs_spans.record_span(
                    "client.submit",
                    start=sent,
                    duration=max(0.0, now - sent),
                    trace_id=trace_id,
                    parent_id=None,
                    span_id=parent_id,
                )
        return trace_id, parent_id

    def _submit(
        self, body: bytes, headers: Dict[str, str]
    ) -> Tuple[int, Dict[str, Any]]:
        try:
            payload = json.loads(body.decode() or "null")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise _HttpError(400, f"invalid JSON body: {exc}") from None
        try:
            problem, solver, priority = parse_job_payload(payload)
        except ProtocolError as exc:
            raise _HttpError(400, str(exc)) from None
        trace_id, parent_id = self._trace_headers(headers)
        try:
            with obs_spans.trace_context(trace_id, parent_id):
                with obs_spans.span(
                    "daemon.submit", shard=self.service.shard
                ):
                    job = self.service.submit(
                        problem, solver, priority=priority
                    )
        except ServiceClosedError as exc:
            raise _HttpError(503, str(exc)) from None
        except ServiceOverloadedError as exc:
            # Shed: nothing was queued.  The header carries the
            # integer-seconds form (HTTP delta-seconds); the JSON body
            # keeps the precise float for richer clients.
            raise _HttpError(
                429,
                str(exc),
                headers={
                    "Retry-After": str(max(1, math.ceil(exc.retry_after)))
                },
                extra={"retry_after": exc.retry_after},
            ) from None
        # 200 when the cache answered instantly, 202 while work is pending.
        return (200 if job.state.finished else 202), job_to_dict(job)

    def _front(self, front_id: str):
        try:
            return self.fronts.front(front_id)
        except UnknownJobError as exc:
            raise _HttpError(404, str(exc)) from None

    def _submit_front(self, body: bytes) -> Tuple[int, Dict[str, Any]]:
        try:
            payload = json.loads(body.decode() or "null")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise _HttpError(400, f"invalid JSON body: {exc}") from None
        try:
            problem, template, points, priority = parse_front_payload(payload)
        except ProtocolError as exc:
            raise _HttpError(400, str(exc)) from None
        try:
            record = self.fronts.submit(
                problem,
                template=template,
                max_points=points,
                priority=priority,
            )
        except ServiceClosedError as exc:
            raise _HttpError(503, str(exc)) from None
        except ServiceOverloadedError as exc:
            raise _HttpError(
                429,
                str(exc),
                headers={
                    "Retry-After": str(max(1, math.ceil(exc.retry_after)))
                },
                extra={"retry_after": exc.retry_after},
            ) from None
        # 200 when every cell was served from cache, 202 while pending.
        return (200 if record.finished else 202), record.to_dict()

    def _list_jobs(self, query: Dict[str, Any]) -> Dict[str, Any]:
        state: Optional[JobState] = None
        if "state" in query:
            try:
                state = JobState(query["state"][0])
            except ValueError:
                raise _HttpError(
                    400,
                    f"unknown state {query['state'][0]!r}; expected one of "
                    f"{[s.value for s in JobState]}",
                ) from None
        limit = None
        if "limit" in query:
            try:
                limit = int(query["limit"][0])
            except ValueError:
                raise _HttpError(400, "'limit' must be an int") from None
        jobs = self.service.jobs(state=state, limit=limit)
        return {"jobs": [job_to_dict(j) for j in jobs], "count": len(jobs)}

    def _cancel(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        job = self._job(job_id)
        cancelled = self.service.cancel(job_id)
        return 200, {
            "id": job.id,
            "cancelled": cancelled,
            "state": job.state.value,
        }

    def _result(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        job = self._job(job_id)
        payload = result_to_dict(job)
        if payload is None:
            raise _HttpError(
                409, f"job {job_id} is {job.state.value}, not finished"
            )
        return 200, payload


async def serve(
    *,
    host: str = "127.0.0.1",
    port: int = 8787,
    service: Optional[SolveService] = None,
    **service_kwargs: Any,
) -> SolveServer:
    """Build, start and return a :class:`SolveServer`.

    Extra keyword arguments construct the :class:`SolveService`
    (``cache=``, ``concurrency=``, ``executor=``, ``runner=``) when one
    is not passed in ready-made.
    """
    if service is None:
        service = SolveService(**service_kwargs)
    server = SolveServer(service, host=host, port=port)
    await server.start()
    return server


def run_server(
    *,
    host: str = "127.0.0.1",
    port: int = 8787,
    **kwargs: Any,
) -> None:
    """Blocking entry point used by ``repro-pipelines serve``: run until
    SIGINT/SIGTERM (or Ctrl-C), then drain in-flight work and exit.

    Signal handlers are installed explicitly on the loop: a daemon
    started in the background of a shell script inherits ``SIG_IGN``
    for SIGINT (and asyncio only overrides the *default* handler), and
    process supervisors stop services with SIGTERM — both must still
    shut down gracefully.
    """
    import signal

    async def _main() -> None:
        server = await serve(host=host, port=port, **kwargs)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        handled = []
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
                handled.append(sig)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-main thread / unsupported platform
        print(
            f"repro-pipelines solve service v{__version__} "
            f"listening on {server.url} "
            f"(concurrency={server.service.concurrency})",
            flush=True,
        )
        try:
            await stop.wait()
            print("shutting down (draining in-flight work)", flush=True)
        finally:
            for sig in handled:
                loop.remove_signal_handler(sig)
            await server.close()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - handler fallback path
        print("shutting down", flush=True)


class ServerThread:
    """Host a :class:`SolveServer` on a background thread.

    The thread runs its own event loop; :meth:`start` blocks until the
    socket is bound (so :attr:`url` is valid), :meth:`stop` drains
    in-flight work and joins the thread.  Usable as a context manager —
    this is how the test suite and :mod:`benchmarks.bench_server` embed
    a live daemon in-process.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        **serve_kwargs: Any,
    ) -> None:
        self._host = host
        self._port = port
        self._serve_kwargs = serve_kwargs
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._startup_error: Optional[BaseException] = None
        self.server: Optional[SolveServer] = None

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        assert self.server is not None, "server not started"
        return self.server.url

    def start(self, timeout: float = 30.0) -> "ServerThread":
        """Launch the thread and wait for the socket to be bound."""
        self._thread = threading.Thread(
            target=self._run, name="solve-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server thread did not start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"server failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Request shutdown (draining in-flight work) and join."""
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            self.server = await serve(
                host=self._host, port=self._port, **self._serve_kwargs
            )
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop.wait()
        await self.server.close()

"""Stdlib-only asyncio HTTP front end of the solve service.

A deliberately small HTTP/1.1 implementation on ``asyncio.start_server``
(no web framework — the repo's no-new-runtime-deps rule applies to the
daemon too): JSON in, JSON out, over the keep-alive connection loop
(:class:`HttpFrontEnd`) the daemon shares with the shard router.

Routes
------
=======  ============================  =======================================
Method   Path                          Meaning
=======  ============================  =======================================
POST     ``/v1/jobs``                  submit a job (``202``; ``200`` and the
                                       ``"result"`` inline when born done;
                                       ``429`` + ``Retry-After`` when the
                                       bounded queue sheds the submission)
GET      ``/v1/jobs``                  list retained jobs (``?state=&limit=``)
GET      ``/v1/jobs/{id}``             job status + telemetry
GET      ``/v1/jobs/{id}/result``      solution payload of a finished job;
                                       ``?wait=S`` long-polls up to S
                                       seconds (capped at
                                       :data:`MAX_WAIT_S`), then answers
                                       ``202`` + the job view (at once
                                       when released to make room)
DELETE   ``/v1/jobs/{id}``             cancel a queued job
POST     ``/v1/fronts``                submit an anytime Pareto-front sweep
                                       (``202``; ``200`` when every cell was
                                       answered from cache immediately)
GET      ``/v1/fronts/{id}``           front-so-far + hypervolume +
                                       done/total telemetry
GET      ``/v1/metrics``               queue/job/solver counters and
                                       histograms (JSON), derived from the
                                       front end's metrics registry
GET      ``/metrics``                  the same registry in Prometheus
                                       text exposition format
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
import contextlib
import json
import math
import threading
import time
from http import HTTPStatus
from typing import Any, Awaitable, Callable, Dict, Iterator, List, NamedTuple, Optional, Set, Tuple
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

__all__ = ["HttpFrontEnd", "ServerThread", "SolveServer", "serve", "run_server"]

#: Largest accepted request body (a problem payload is a few KB; this is
#: headroom, not a promise).
MAX_BODY_BYTES = 32 * 1024 * 1024

#: Seconds a client has, once its request line is in, to send the rest
#: of the request (headers and body); past it the request gets ``408``.
REQUEST_DEADLINE_S = 10.0

#: Seconds a keep-alive connection may sit idle between requests before
#: the server closes it.
IDLE_TIMEOUT_S = 30.0

#: Connections served at once.  One more closes the connection idle
#: longest, else releases the oldest long-poll held
#: :data:`LONG_POLL_MIN_HOLD_S`, else is answered ``503`` and closed.
MAX_CONNECTIONS = 256

#: Cap on ``GET /v1/jobs/{id}/result?wait=S``: the longest one result
#: fetch holds its request open waiting for the job to finish.
MAX_WAIT_S = 10.0

#: Seconds a long-poll keeps its connection before one arriving at
#: :data:`MAX_CONNECTIONS` may release it (answer it at once and close
#: it); one arriving sooner gets ``503`` with the time left as its
#: retry hint.
LONG_POLL_MIN_HOLD_S = 1.0

#: The ``error`` of the ``503`` a connection past :data:`MAX_CONNECTIONS`
#: gets: the server is alive but busy (a router probe must not mark it
#: down for it).
BUSY_ERROR = "too many open connections"

#: Seconds :meth:`HttpFrontEnd._close_connections` lets requests still
#: being served finish their response before cancelling them.
_CLOSE_GRACE_S = 5.0

#: Seconds a connection the server closes after its last response keeps
#: reading (see :func:`_close_after`).
_LINGER_S = 1.0


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
    *,
    keep_alive: bool = False,
) -> bytes:
    if isinstance(payload, _PlainText):
        body = payload.encode()
        content_type = PROMETHEUS_CONTENT_TYPE
    else:
        body = json.dumps(payload).encode()
        content_type = "application/json"
    phrase = HTTPStatus(status).phrase
    extra = "".join(
        f"{name}: {value}\r\n" for name, value in (headers or {}).items()
    )
    if not keep_alive:
        extra += "Connection: close\r\n"
    head = (
        f"HTTP/1.1 {status} {phrase}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extra}"
        f"\r\n"
    )
    return head.encode() + body


async def _readline(reader: asyncio.StreamReader) -> bytes:
    try:
        return await reader.readline()
    except ValueError:  # a line past the reader's limit (LimitOverrunError)
        raise _HttpError(400, "request line or header too long") from None


async def _close_after(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, response: bytes
) -> None:
    """Send a connection's last response and half-close it, then read
    and drop what the client still sends until it closes, for at most
    :data:`_LINGER_S`: closing a socket with unread input resets the
    connection, and the client may lose the response with it."""
    writer.write(response)
    await writer.drain()
    writer.write_eof()
    loop = asyncio.get_running_loop()
    deadline = loop.time() + _LINGER_S
    with contextlib.suppress(asyncio.TimeoutError, ConnectionError):
        while await asyncio.wait_for(reader.read(65536), deadline - loop.time()):
            pass


class _Request(NamedTuple):
    method: str
    target: str
    headers: Dict[str, str]
    body: bytes
    #: False for HTTP/1.0 and for ``Connection: close``.
    keep_alive: bool


async def _read_message(
    reader: asyncio.StreamReader,
) -> Tuple[Dict[str, str], bytes]:
    """Read the headers (names lower-cased) and ``Content-Length`` body
    after a request or status line.  Malformed framing raises
    ``_HttpError(400)``, a body past :data:`MAX_BODY_BYTES` ``413``,
    ``Transfer-Encoding`` (chunked bodies) ``501``."""
    headers: Dict[str, str] = {}
    while True:
        line = await _readline(reader)
        if line in (b"\r\n", b"\n", b""):
            break
        if len(headers) > 100:
            raise _HttpError(400, "too many headers")
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    if "transfer-encoding" in headers:
        raise _HttpError(
            501, "Transfer-Encoding is not supported; send Content-Length"
        )
    raw_length = headers.get("content-length", "0") or "0"
    if not (raw_length.isascii() and raw_length.isdigit()):
        raise _HttpError(400, f"invalid Content-Length {raw_length!r}")
    length = int(raw_length)
    if length > MAX_BODY_BYTES:
        raise _HttpError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError:
        raise _HttpError(400, "request body shorter than Content-Length") from None
    return headers, body


async def _read_request(
    reader: asyncio.StreamReader, request_line: Optional[bytes] = None
) -> _Request:
    """Parse one HTTP/1.x request (after ``request_line`` when the
    caller already read it); errors as in :func:`_read_message`."""
    if request_line is None:
        request_line = await _readline(reader)
    if not request_line:
        raise _HttpError(400, "empty request")
    try:
        method, target, version = request_line.decode("latin-1").split()
    except ValueError:
        raise _HttpError(400, "malformed request line") from None
    headers, body = await _read_message(reader)
    keep_alive = (
        version == "HTTP/1.1"
        and headers.get("connection", "").lower() != "close"
    )
    return _Request(method.upper(), target, headers, body, keep_alive)


#: ``(status, payload, extra response headers)`` of one request.
_Answer = Tuple[int, Any, Dict[str, str]]


def _expect(method: str, expected: str) -> None:
    if method != expected:
        raise _HttpError(405, f"method {method} not allowed here")


def _parse_body(body: bytes, parse: Callable[[Any], Any]) -> Any:
    """Decode a JSON request body and validate it with ``parse`` (a
    :mod:`~repro.server.protocol` parser); any failure is a ``400``."""
    try:
        payload = json.loads(body.decode() or "null")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise _HttpError(400, f"invalid JSON body: {exc}") from None
    try:
        return parse(payload)
    except ProtocolError as exc:
        raise _HttpError(400, str(exc)) from None


@contextlib.contextmanager
def _admission() -> Iterator[None]:
    """Map the service's refusals to HTTP: closing is ``503``, shedding
    ``429`` with ``Retry-After`` (the header carries the integer-seconds
    form, the JSON body the precise float).  Nothing was queued."""
    try:
        yield
    except ServiceClosedError as exc:
        raise _HttpError(503, str(exc)) from None
    except ServiceOverloadedError as exc:
        raise _HttpError(
            429,
            str(exc),
            headers={"Retry-After": str(max(1, math.ceil(exc.retry_after)))},
            extra={"retry_after": exc.retry_after},
        ) from None


def _wait_seconds(query: Dict[str, List[str]]) -> Optional[float]:
    """The ``?wait=S`` of a result fetch, capped at :data:`MAX_WAIT_S`;
    ``None`` when absent, ``400`` unless a non-negative number."""
    if "wait" not in query:
        return None
    try:
        seconds = float(query["wait"][0])
    except ValueError:
        seconds = -1.0
    if not seconds >= 0.0:  # also rejects NaN
        raise _HttpError(
            400, f"'wait' must be a non-negative number, got {query['wait'][0]!r}"
        )
    return min(seconds, MAX_WAIT_S)


class HttpFrontEnd:
    """The HTTP/1.1 keep-alive connection loop and route table of the
    daemon and the router.

    Subclasses implement the handlers :meth:`_route` dispatches to:
    ``_healthz``, ``_metrics``, ``_trace`` and ``_list_jobs`` return a
    payload served with ``200``, ``_prometheus`` the ``/metrics`` text;
    ``_submit``, ``_job_request``, ``_result``, ``_submit_front`` and
    ``_front_request`` return ``(status, payload, headers)``.  Handlers
    raise :class:`_HttpError` for error answers; any other exception is
    a ``500``.  A connection
    is served until the client sends ``Connection: close``, speaks
    HTTP/1.0, idles :data:`IDLE_TIMEOUT_S` or sends a request that
    cannot be framed; a request not whole :data:`REQUEST_DEADLINE_S`
    after its request line gets ``408``.  At :data:`MAX_CONNECTIONS` a
    new connection makes room (:meth:`_admit`) or gets ``503``.
    """

    def __init__(self, *, host: str, port: int) -> None:
        self.host = host
        self.port = port
        #: Requests answered since start (every hop of every connection).
        self.requests_served = 0
        self._server: Optional[asyncio.base_events.Server] = None
        #: Every open connection's task and the stream it reads.
        self._connections: Dict[asyncio.Task, asyncio.StreamReader] = {}
        #: A connection's next request line, read while it held a long-poll.
        self._read_ahead: Dict[asyncio.Task, bytes] = {}
        #: Connections let go to make room: they close after the response
        #: in hand and no longer count against the cap.
        self._evicted: Set[asyncio.Task] = set()
        #: Connections waiting for a request line, idle longest first:
        #: True once they have answered one (only those may be closed to
        #: make room; a new connection's first request is on its way).
        self._idle: Dict[asyncio.Task, bool] = {}
        #: Connections holding a long-poll, oldest first: its start and
        #: the future that releases it.
        self._long_polls: Dict[asyncio.Task, Tuple[float, asyncio.Future]] = {}
        self._closing = False

    @property
    def url(self) -> str:
        """Base URL clients should target."""
        return f"http://{self.host}:{self.port}"

    async def _route(
        self, method: str, target: str, body: bytes, headers: Dict[str, str]
    ) -> _Answer:
        """Dispatch one request of the API (module docstring) to the
        subclass's handlers."""
        split = urlsplit(target)
        parts = [p for p in split.path.split("/") if p]
        if parts == ["metrics"]:
            _expect(method, "GET")
            return 200, _PlainText(await self._prometheus()), {}
        if parts[:1] != ["v1"]:
            raise _HttpError(404, f"unknown path {split.path!r}")
        rest = parts[1:]
        if rest == ["healthz"]:
            _expect(method, "GET")
            return 200, self._healthz(), {}
        if rest == ["metrics"]:
            _expect(method, "GET")
            return 200, await self._metrics(), {}
        if len(rest) == 2 and rest[0] == "traces":
            _expect(method, "GET")
            return 200, await self._trace(rest[1]), {}
        if rest == ["jobs"]:
            if method == "POST":
                return await self._submit(body, headers)
            _expect(method, "GET")
            return 200, await self._list_jobs(split.query), {}
        if len(rest) == 2 and rest[0] == "jobs":
            if method != "DELETE":
                _expect(method, "GET")
            return await self._job_request(method, rest[1])
        if len(rest) == 3 and rest[0] == "jobs" and rest[2] == "result":
            _expect(method, "GET")
            wait = _wait_seconds(parse_qs(split.query))
            if wait:
                return await self._long_poll(rest[1], wait)
            return await self._result(rest[1], wait)
        if rest == ["fronts"]:
            _expect(method, "POST")
            return await self._submit_front(body)
        if len(rest) == 2 and rest[0] == "fronts":
            _expect(method, "GET")
            return await self._front_request(rest[1])
        raise _HttpError(404, f"unknown path {split.path!r}")

    async def _listen(self) -> None:
        """Bind the listening socket (``port=0`` picks an ephemeral one,
        reflected in :attr:`port` afterwards)."""
        self._closing = False
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def _stop_listening(self) -> None:
        """Stop accepting and close every idle connection; one serving a
        request closes after its response."""
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._idle):
            task.cancel()

    async def _close_connections(self) -> None:
        """Give requests still being served :data:`_CLOSE_GRACE_S` to
        answer, cancel the rest, and wait for every connection task."""
        tasks = list(self._connections)
        if not tasks:
            return
        _done, pending = await asyncio.wait(tasks, timeout=_CLOSE_GRACE_S)
        for task in pending:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    def _admit(
        self, task: asyncio.Task, reader: asyncio.StreamReader
    ) -> Optional[bytes]:
        """Count a new connection's ``task`` against
        :data:`MAX_CONNECTIONS`, making room at the cap: close the
        connection idle longest, else release the oldest long-poll once
        it has held :data:`LONG_POLL_MIN_HOLD_S`.  The ``503`` to answer
        when the connection cannot be served (its retry hint is the time
        until the oldest long-poll becomes releasable)."""
        if self._closing:
            return _response(503, {"error": "server is closing"})
        if len(self._connections) - len(self._evicted) >= MAX_CONNECTIONS:
            victim = next((t for t, answered in self._idle.items() if answered), None)
            if victim is not None:
                del self._idle[victim]
                victim.cancel()
            elif self._long_polls:
                victim, (since, release) = next(iter(self._long_polls.items()))
                retry = since + LONG_POLL_MIN_HOLD_S - time.monotonic()
                if retry > 0:
                    return _response(
                        503,
                        {"error": BUSY_ERROR, "retry_after": retry},
                        {"Retry-After": str(math.ceil(retry))},
                    )
                del self._long_polls[victim]
                release.set_result(None)
            else:
                return _response(503, {"error": BUSY_ERROR})
            self._evicted.add(victim)
        self._connections[task] = reader
        return None

    async def _long_poll(self, job_id: str, wait: float) -> _Answer:
        """``_result(job_id, wait)``, which holds the connection up to
        ``wait`` seconds.  The hold ends early when :meth:`_admit`
        releases it, or when the client hangs up or sends its next
        request (read ahead for the connection loop); it then answers
        with the job as it stands (``_result(job_id, 0)``)."""
        task = asyncio.current_task()
        assert task is not None
        released = asyncio.get_running_loop().create_future()
        self._long_polls[task] = (time.monotonic(), released)
        poll = asyncio.ensure_future(self._result(job_id, wait))
        ahead = asyncio.ensure_future(_readline(self._connections[task]))
        try:
            await asyncio.wait(
                (poll, released, ahead), return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            self._long_polls.pop(task, None)
            for pending in (poll, ahead):
                pending.cancel()
            await asyncio.gather(poll, ahead, return_exceptions=True)
        if not ahead.cancelled():
            if ahead.exception() is None and ahead.result():
                self._read_ahead[task] = ahead.result()
            else:  # the client hung up, or sent a line past the limit
                self._evicted.add(task)
        if not poll.cancelled():
            return poll.result()
        return await self._result(job_id, 0.0)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        try:
            refusal = self._admit(task, reader)
            if refusal is not None:
                await _close_after(reader, writer, refusal)
                return
            answered = False
            while True:
                line = self._read_ahead.pop(task, None)
                if line is None:
                    self._idle[task] = answered
                    try:
                        line = await asyncio.wait_for(
                            _readline(reader), IDLE_TIMEOUT_S
                        )
                    except asyncio.TimeoutError:
                        return  # idle past the timeout
                    except _HttpError as exc:
                        await _close_after(
                            reader, writer, _response(exc.status, {"error": exc.message})
                        )
                        return
                self._idle.pop(task, None)
                if not line:
                    return  # the client closed the connection
                keep_alive, status, payload, headers = await self._answer(
                    reader, line
                )
                keep_alive = (
                    keep_alive and not self._closing and task not in self._evicted
                )
                self.requests_served += 1
                response = _response(status, payload, headers, keep_alive=keep_alive)
                if not keep_alive:
                    await _close_after(reader, writer, response)
                    return
                writer.write(response)
                await writer.drain()
                answered = True
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # the client went away
        except asyncio.CancelledError:
            # Only close() and _admit cancel a connection's own task, and
            # nothing awaits it but close(); ending normally keeps Python
            # 3.11's start_server callback from logging the cancellation.
            pass
        finally:
            self._connections.pop(task, None)
            self._idle.pop(task, None)
            self._evicted.discard(task)
            self._read_ahead.pop(task, None)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _answer(
        self, reader: asyncio.StreamReader, line: bytes
    ) -> Tuple[bool, int, Any, Dict[str, str]]:
        """Read and route one request: ``(keep_alive, status, payload,
        headers)``.  A request that could not be framed closes its
        connection."""
        try:
            request = await asyncio.wait_for(
                _read_request(reader, line), REQUEST_DEADLINE_S
            )
        except asyncio.TimeoutError:
            return False, 408, {"error": "request not received in time"}, {}
        except _HttpError as exc:
            return False, exc.status, {"error": exc.message, **exc.extra}, {}
        try:
            status, payload, headers = await self._route(
                request.method, request.target, request.body, request.headers
            )
        except _HttpError as exc:
            status, payload, headers = (
                exc.status,
                {"error": exc.message, **exc.extra},
                exc.headers,
            )
        except Exception as exc:  # never leak a traceback to the socket
            status, payload, headers = 500, {
                "error": f"{type(exc).__name__}: {exc}"
            }, {}
        return request.keep_alive, status, payload, headers


class SolveServer(HttpFrontEnd):
    """The HTTP server wrapping one :class:`SolveService`."""

    def __init__(
        self,
        service: SolveService,
        *,
        host: str = "127.0.0.1",
        port: int = 8787,
    ) -> None:
        super().__init__(host=host, port=port)
        self.service = service
        self.fronts = FrontStore(service)

    async def start(self) -> None:
        """Start the queue workers and bind the listening socket.

        With ``port=0`` the OS assigns an ephemeral port, reflected in
        :attr:`port` afterwards.
        """
        await self.service.start()
        await self._listen()

    async def close(self, *, drain_queue: bool = False) -> None:
        """Stop accepting, close idle connections and shut the queue down
        gracefully (:meth:`SolveService.shutdown`); open long-polls
        answer as their jobs finish or are cancelled."""
        await self._stop_listening()
        await self.service.shutdown(drain_queue=drain_queue)
        await self._close_connections()

    # ------------------------------------------------------------------
    # handlers (dispatched by HttpFrontEnd._route)
    # ------------------------------------------------------------------
    def _healthz(self) -> Dict[str, Any]:
        return {
            "status": "ok",
            "version": __version__,
            "shard": self.service.shard,
            "uptime_s": self.service.uptime,
            "concurrency": self.service.concurrency,
        }

    async def _metrics(self) -> Dict[str, Any]:
        return self.service.metrics()

    async def _prometheus(self) -> str:
        shard = self.service.shard
        labels = {"shard": shard} if shard else {}
        return to_prometheus([(self.service.metrics_registry.to_dict(), labels)])

    def _job(self, job_id: str):
        try:
            return self.service.job(job_id)
        except UnknownJobError as exc:
            raise _HttpError(404, str(exc)) from None

    async def _trace(self, trace_id: str) -> Dict[str, Any]:
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

    async def _submit(self, body: bytes, headers: Dict[str, str]) -> _Answer:
        problem, solver, priority = _parse_body(body, parse_job_payload)
        trace_id, parent_id = self._trace_headers(headers)
        with _admission(), obs_spans.trace_context(trace_id, parent_id):
            with obs_spans.span("daemon.submit", shard=self.service.shard):
                job = self.service.submit(problem, solver, priority=priority)
        view = job_to_dict(job)
        if not job.state.finished:
            return 202, view, {}
        # Born done (a cache hit): answer with the result inline, so the
        # client needs no further request.
        view["result"] = result_to_dict(job)
        return 200, view, {}

    async def _front_request(self, front_id: str) -> _Answer:
        try:
            return 200, self.fronts.front(front_id).to_dict(), {}
        except UnknownJobError as exc:
            raise _HttpError(404, str(exc)) from None

    async def _submit_front(self, body: bytes) -> _Answer:
        problem, template, points, priority = _parse_body(
            body, parse_front_payload
        )
        with _admission():
            record = self.fronts.submit(
                problem,
                template=template,
                max_points=points,
                priority=priority,
            )
        # 200 when every cell was served from cache, 202 while pending.
        return (200 if record.finished else 202), record.to_dict(), {}

    async def _list_jobs(self, raw_query: str) -> Dict[str, Any]:
        query = parse_qs(raw_query)
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

    async def _job_request(self, method: str, job_id: str) -> _Answer:
        job = self._job(job_id)
        if method == "GET":
            return 200, job_to_dict(job), {}
        cancelled = self.service.cancel(job_id)
        return 200, {
            "id": job.id,
            "cancelled": cancelled,
            "state": job.state.value,
        }, {}

    async def _result(self, job_id: str, wait: Optional[float]) -> _Answer:
        """A finished job's result; an unfinished one is ``409``, or with
        ``wait``, ``202`` and its status view after waiting up to
        ``wait`` seconds on its completion event."""
        job = self._job(job_id)
        if wait is not None:
            try:
                await self.service.wait(job_id, timeout=wait)
            except asyncio.TimeoutError:
                return 202, job_to_dict(job), {}
        payload = result_to_dict(job)
        if payload is None:
            raise _HttpError(
                409, f"job {job_id} is {job.state.value}, not finished"
            )
        return 200, payload, {}


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


async def _serve_until_signalled(
    front: "HttpFrontEnd", banner: str, farewell: str
) -> None:
    """Print ``banner``, serve until SIGINT/SIGTERM, print ``farewell``
    and close ``front``.

    Signal handlers are installed explicitly on the loop: a process
    started in the background of a shell script inherits ``SIG_IGN``
    for SIGINT (and asyncio only overrides the *default* handler), and
    process supervisors stop services with SIGTERM — both must still
    shut down gracefully.
    """
    import signal

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    handled = []
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
            handled.append(sig)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-main thread / unsupported platform
    print(banner, flush=True)
    try:
        await stop.wait()
        print(farewell, flush=True)
    finally:
        for sig in handled:
            loop.remove_signal_handler(sig)
        await front.close()


def run_server(
    *,
    host: str = "127.0.0.1",
    port: int = 8787,
    **kwargs: Any,
) -> None:
    """Blocking entry point used by ``repro-pipelines serve``: run until
    SIGINT/SIGTERM (or Ctrl-C), then drain in-flight work and exit."""

    async def _main() -> None:
        server = await serve(host=host, port=port, **kwargs)
        await _serve_until_signalled(
            server,
            f"repro-pipelines solve service v{__version__} "
            f"listening on {server.url} "
            f"(concurrency={server.service.concurrency})",
            "shutting down (draining in-flight work)",
        )

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - handler fallback path
        print("shutting down", flush=True)


class _FrontEndThread:
    """Host an :class:`HttpFrontEnd` on a background thread.

    The thread runs its own event loop; :meth:`start` blocks until the
    socket is bound (so :attr:`url` is valid), :meth:`stop` closes the
    front end and joins the thread.  Usable as a context manager.
    """

    _role = "server"

    def __init__(self, factory: Callable[[], Awaitable["HttpFrontEnd"]]) -> None:
        self._factory = factory
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._startup_error: Optional[BaseException] = None
        self._front: Optional[HttpFrontEnd] = None

    @property
    def url(self) -> str:
        """Base URL of the running front end."""
        assert self._front is not None, f"{self._role} not started"
        return self._front.url

    def start(self, timeout: float = 30.0) -> Any:
        """Launch the thread and wait for the socket to be bound."""
        self._thread = threading.Thread(
            target=self._run, name=f"{self._role}-thread", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError(f"{self._role} thread did not start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"{self._role} failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Request shutdown and join."""
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout)

    def run_sync(self, coro_factory: Callable[[Any], Awaitable[Any]]) -> Any:
        """Run ``coro_factory(front_end)`` on the thread's loop (tests
        use this to reach into a live router or daemon)."""
        assert self._loop is not None and self._front is not None
        future = asyncio.run_coroutine_threadsafe(
            coro_factory(self._front), self._loop
        )
        return future.result(timeout=30.0)

    def __enter__(self) -> Any:
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            self._front = await self._factory()
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop.wait()
        await self._front.close()


class ServerThread(_FrontEndThread):
    """Host a :class:`SolveServer` on a background thread; :meth:`stop`
    drains in-flight work.  This is how the test suite and
    :mod:`benchmarks.bench_server` embed a live daemon in-process."""

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        **serve_kwargs: Any,
    ) -> None:
        super().__init__(
            lambda: serve(host=host, port=port, **serve_kwargs)
        )

    @property
    def server(self) -> Optional[SolveServer]:
        """The running :class:`SolveServer`."""
        return self._front  # type: ignore[return-value]

"""The keep-alive connection loop shared by the daemon and the router.

Raw sockets against an in-process daemon and a router fronting one:
keep-alive and pipelining, ``Connection: close`` and HTTP/1.0, chunked
bodies refused, the per-request read deadline (``408``), the connection
cap (room made by closing an idle connection or releasing a long-poll,
else ``503``), prompt ``close()`` with idle keep-alive clients, and the
long-poll result route (``?wait=S``).
"""

import asyncio
import json
import socket
import threading
import time

import pytest

import repro.server.http as http_module
from repro.client import SolveClient
from repro.experiments.spec import SolverSpec
from repro.generators import small_random_problem
from repro.io import problem_to_dict
from repro.server import RouterThread, ServerThread, serve, serve_router, solve_cell

_REAL_ITEM = solve_cell(small_random_problem(0), SolverSpec(name="t"))

HEALTHZ = b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n"


class GatedRunner:
    """Stub runner that holds every solve until :attr:`gate` opens."""

    def __init__(self):
        self.gate = threading.Event()

    def __call__(self, prob, solver):
        assert self.gate.wait(30), "runner gate never opened"
        return _REAL_ITEM


@pytest.fixture(params=["daemon", "router"])
def front(request):
    """``(url, daemon handle, router handle or None)``: a fresh daemon
    with a gated runner, reached directly or through a router."""
    runner = GatedRunner()
    with ServerThread(executor="thread", concurrency=1, runner=runner) as daemon:
        daemon.runner = runner
        if request.param == "daemon":
            yield daemon.url, daemon, None
            runner.gate.set()
            return
        with RouterThread([("s0", daemon.url)], health_interval=30.0) as rt:
            yield rt.url, daemon, rt
            runner.gate.set()


def connect(url, timeout=10.0):
    host, port = url.rsplit("//", 1)[1].split(":")
    sock = socket.create_connection((host, int(port)), timeout=timeout)
    return sock, sock.makefile("rb")


def read_response(stream):
    """``(status, lower-cased headers, decoded JSON body)`` of one
    response; ``None`` when the server closed the connection first."""
    status_line = stream.readline()
    if not status_line:
        return None
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = stream.readline().decode("latin-1")
        if line in ("\r\n", ""):
            break
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    body = stream.read(int(headers["content-length"]))
    return status, headers, json.loads(body)


def post_job(seed):
    body = json.dumps(
        {"problem": problem_to_dict(small_random_problem(seed))}
    ).encode()
    return (
        b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
        + f"Content-Length: {len(body)}\r\n\r\n".encode()
        + body
    )


def get(path):
    return f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode()


class TestFraming:
    def test_keep_alive_serves_many_requests_on_one_connection(self, front):
        url, _daemon, _rt = front
        sock, stream = connect(url)
        with sock:
            for _ in range(3):
                sock.sendall(HEALTHZ)
                status, headers, body = read_response(stream)
                assert status == 200 and body["status"] == "ok"
                assert "connection" not in headers

    def test_two_pipelined_requests_in_one_packet(self, front):
        url, _daemon, _rt = front
        sock, stream = connect(url)
        with sock:
            sock.sendall(HEALTHZ + get("/v1/jobs/nope@s0"))
            assert read_response(stream)[0] == 200
            assert read_response(stream)[0] == 404
            sock.sendall(HEALTHZ)  # and the connection is still open
            assert read_response(stream)[0] == 200

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
            b"GET /v1/healthz HTTP/1.0\r\n\r\n",
        ],
        ids=["connection-close", "http-1.0"],
    )
    def test_close_requests_close_after_the_response(self, front, request_bytes):
        url, _daemon, _rt = front
        sock, stream = connect(url)
        with sock:
            sock.sendall(request_bytes)
            status, headers, _body = read_response(stream)
            assert status == 200
            assert headers["connection"] == "close"
            assert stream.read() == b""  # EOF: the server closed

    def test_chunked_body_is_refused_and_closed(self, front):
        url, _daemon, _rt = front
        sock, stream = connect(url, timeout=5.0)
        with sock:
            sock.sendall(
                b"POST /v1/jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"2\r\n{}\r\n0\r\n\r\n"
            )
            status, _headers, body = read_response(stream)
            assert status == 501
            assert "Transfer-Encoding" in body["error"]
            assert stream.read() == b""

    def test_slow_body_gets_408_within_the_deadline(self, front, monkeypatch):
        monkeypatch.setattr(http_module, "REQUEST_DEADLINE_S", 0.5)
        url, _daemon, _rt = front
        sock, stream = connect(url)
        with sock:
            t0 = time.monotonic()
            sock.sendall(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 100\r\n\r\n{")
            status, headers, _body = read_response(stream)
            took = time.monotonic() - t0
            assert status == 408
            assert headers["connection"] == "close"
            assert stream.read() == b""
        assert 0.4 <= took < 3.0

    def test_idle_connection_makes_room_at_the_cap(self, front, monkeypatch):
        monkeypatch.setattr(http_module, "MAX_CONNECTIONS", 2)
        url, _daemon, _rt = front
        held = [connect(url) for _ in range(2)]
        try:
            for sock, stream in held:  # both are served, then sit idle
                sock.sendall(HEALTHZ)
                assert read_response(stream)[0] == 200
            sock, stream = connect(url)
            with sock:
                sock.sendall(HEALTHZ)
                assert read_response(stream)[0] == 200
            assert held[0][1].read() == b""  # the oldest idle one was closed
            held[1][0].sendall(HEALTHZ)
            assert read_response(held[1][1])[0] == 200
        finally:
            for sock, _stream in held:
                sock.close()

    def test_connection_over_the_cap_gets_503_when_none_is_idle(
        self, front, monkeypatch
    ):
        monkeypatch.setattr(http_module, "MAX_CONNECTIONS", 2)
        url, _daemon, _rt = front
        held = [connect(url) for _ in range(2)]
        try:
            for sock, _stream in held:  # each is mid-request: busy
                sock.sendall(b"GET /v1/healthz HTTP/1.1\r\n")
            time.sleep(0.2)
            sock, stream = connect(url)
            with sock:
                status, _headers, body = read_response(stream)
                assert status == 503
                assert "retry_after" not in body  # no long-poll to wait for
                assert stream.read() == b""
            for sock, stream in held:  # the held ones are still served
                sock.sendall(b"\r\n")
                assert read_response(stream)[0] == 200
        finally:
            for sock, _stream in held:
                sock.close()

    def test_long_poll_is_released_for_a_new_connection_at_the_cap(
        self, monkeypatch
    ):
        monkeypatch.setattr(http_module, "MAX_CONNECTIONS", 1)
        monkeypatch.setattr(http_module, "LONG_POLL_MIN_HOLD_S", 0.5)
        runner = GatedRunner()
        with ServerThread(executor="thread", concurrency=1, runner=runner) as daemon:
            try:
                self._release_scenario(daemon.url)
            finally:
                runner.gate.set()

    @staticmethod
    def _release_scenario(url):
        sock, stream = connect(url)
        with sock:
            sock.sendall(post_job(605))
            view = read_response(stream)[2]
            t0 = time.monotonic()
            sock.sendall(get(f"/v1/jobs/{view['id']}/result?wait=8"))
            time.sleep(0.1)
            other, other_stream = connect(url)
            with other:
                # Held under the minimum: 503 with the time left as hint.
                status, headers, body = read_response(other_stream)
                assert status == 503
                assert 0 < body["retry_after"] <= 0.5
                assert headers["retry-after"] == "1"
            time.sleep(0.5)
            other, other_stream = connect(url)
            with other:
                other.sendall(HEALTHZ)
                assert read_response(other_stream)[0] == 200
                # The long-poll answered early with the job as it stands
                # and closed its connection to make room.
                status, headers, pending = read_response(stream)
                assert time.monotonic() - t0 < 3.0
                assert status == 202 and pending["id"] == view["id"]
                assert headers["connection"] == "close"
                assert stream.read() == b""

    def test_cap_plus_one_waiters_all_succeed(self, front, monkeypatch):
        monkeypatch.setattr(http_module, "MAX_CONNECTIONS", 2)
        monkeypatch.setattr(http_module, "LONG_POLL_MIN_HOLD_S", 0.2)
        url, daemon, _rt = front
        results, errors = {}, []

        def solve(seed):
            try:
                with SolveClient(url) as client:
                    results[seed] = client.solve(
                        small_random_problem(seed), timeout=60
                    )
            except Exception as exc:  # reported below
                errors.append(exc)

        threads = [threading.Thread(target=solve, args=(620 + i,)) for i in range(3)]
        for thread in threads:
            thread.start()
        time.sleep(1.5)  # every waiter long-polls, one over the cap
        daemon.runner.gate.set()
        for thread in threads:
            thread.join(60)
        assert errors == []
        assert sorted(results) == [620, 621, 622]
        assert all(result.ok for result in results.values())


class TestLongPoll:
    def test_wait_expires_with_202_and_the_job_view(self, front):
        url, _daemon, _rt = front
        sock, stream = connect(url)
        with sock:
            sock.sendall(post_job(600))
            status, _headers, view = read_response(stream)
            assert status == 202
            t0 = time.monotonic()
            sock.sendall(get(f"/v1/jobs/{view['id']}/result?wait=0.3"))
            status, _headers, pending = read_response(stream)
            assert time.monotonic() - t0 >= 0.25
            assert status == 202
            assert pending["id"] == view["id"]
            assert pending["state"] in ("queued", "running")

    def test_wait_answers_as_soon_as_the_job_finishes(self, front):
        url, daemon, _rt = front
        sock, stream = connect(url)
        with sock:
            sock.sendall(post_job(601))
            view = read_response(stream)[2]
            threading.Timer(0.3, daemon.runner.gate.set).start()
            t0 = time.monotonic()
            sock.sendall(get(f"/v1/jobs/{view['id']}/result?wait=8"))
            status, _headers, result = read_response(stream)
            assert status == 200
            assert time.monotonic() - t0 < 5.0
            assert result["id"] == view["id"]
            assert result["state"] == "done" and result["status"] == "ok"

    def test_wait_is_capped(self, front, monkeypatch):
        monkeypatch.setattr(http_module, "MAX_WAIT_S", 0.2)
        url, _daemon, _rt = front
        sock, stream = connect(url)
        with sock:
            sock.sendall(post_job(602))
            view = read_response(stream)[2]
            t0 = time.monotonic()
            sock.sendall(get(f"/v1/jobs/{view['id']}/result?wait=60"))
            assert read_response(stream)[0] == 202
            assert time.monotonic() - t0 < 3.0

    def test_a_request_pipelined_behind_a_long_poll_ends_the_hold(self, front):
        url, _daemon, _rt = front
        sock, stream = connect(url)
        with sock:
            sock.sendall(post_job(606))
            view = read_response(stream)[2]
            t0 = time.monotonic()
            sock.sendall(get(f"/v1/jobs/{view['id']}/result?wait=8") + HEALTHZ)
            status, headers, pending = read_response(stream)
            assert time.monotonic() - t0 < 3.0
            assert status == 202 and pending["id"] == view["id"]
            assert "connection" not in headers
            assert read_response(stream)[0] == 200  # the pipelined one

    def test_a_long_poll_ends_when_its_client_hangs_up(self, front):
        url, daemon, _rt = front

        async def held(server):
            return len(server._long_polls)

        sock, stream = connect(url)
        with sock:
            sock.sendall(post_job(607))
            view = read_response(stream)[2]
            sock.sendall(get(f"/v1/jobs/{view['id']}/result?wait=8"))
            deadline = time.monotonic() + 3.0
            while daemon.run_sync(held) == 0 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert daemon.run_sync(held) == 1
            stream.close()  # the socket closes with its last reference
        # At every hop, the long-poll ends once its client is gone.
        deadline = time.monotonic() + 3.0
        while daemon.run_sync(held) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert daemon.run_sync(held) == 0

    @pytest.mark.parametrize("wait", ["bogus", "-1", "nan"])
    def test_bad_wait_is_400(self, front, wait):
        url, _daemon, _rt = front
        sock, stream = connect(url)
        with sock:
            sock.sendall(post_job(603))
            view = read_response(stream)[2]
            sock.sendall(get(f"/v1/jobs/{view['id']}/result?wait={wait}"))
            status, _headers, body = read_response(stream)
            assert status == 400
            assert "'wait'" in body["error"]

    def test_client_wait_returns_when_the_gate_opens(self, front):
        url, daemon, _rt = front
        with SolveClient(url, retries=0) as client:
            view = client.submit(small_random_problem(604))
            threading.Timer(0.3, daemon.runner.gate.set).start()
            before = daemon.server.requests_served
            result = client.wait(view["id"], timeout=30)
        assert result.ok
        # One long-poll held until the solve finished.
        assert daemon.server.requests_served - before == 1


class TestRequestCounts:
    def test_warm_solve_is_one_request_at_every_hop(self, front):
        url, daemon, rt = front
        daemon.runner.gate.set()
        problem = small_random_problem(610)
        hops = [daemon.server] + ([rt.router] if rt is not None else [])
        entry = hops[-1]
        with SolveClient(url, retries=0) as client:
            cold = entry.requests_served
            assert client.solve(problem, timeout=30).source == "solved"
            # A cold solve: the submit plus one long-poll.
            assert entry.requests_served - cold == 2
            before = [hop.requests_served for hop in hops]
            assert client.solve(problem, timeout=30).source == "cache"
        assert [hop.requests_served - b for hop, b in zip(hops, before)] == [
            1
        ] * len(hops)


class TestRedirectedLongPoll:
    def test_redirect_keeps_the_wait(self):
        with ServerThread(executor="thread", concurrency=1) as daemon:
            with RouterThread(
                [("s0", daemon.url)], redirect_results=True, health_interval=30.0
            ) as rt:
                sock, stream = connect(rt.url)
                with sock:
                    sock.sendall(get("/v1/jobs/j1@s0/result?wait=2"))
                    status, headers, _body = read_response(stream)
                assert status == 307
                assert headers["location"] == f"{daemon.url}/v1/jobs/j1/result?wait=2.0"


async def _open_idle(url, count):
    """``count`` keep-alive connections, each served once, left idle."""
    host, port = url.rsplit("//", 1)[1].split(":")
    streams = []
    for _ in range(count):
        reader, writer = await asyncio.open_connection(host, int(port))
        writer.write(HEALTHZ)
        status_line = await reader.readline()
        assert b" 200 " in status_line
        length = 0
        while (line := await reader.readline()) not in (b"\r\n", b""):
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":")[1])
        await reader.readexactly(length)
        streams.append((reader, writer))
    return streams


class TestClose:
    def test_close_is_prompt_with_idle_keep_alive_clients(self):
        async def scenario():
            daemon = await serve(port=0, executor="thread", concurrency=1)
            router = await serve_router(
                [("s0", daemon.url)], port=0, health_interval=30.0
            )
            clients = await _open_idle(daemon.url, 3) + await _open_idle(
                router.url, 3
            )
            t0 = time.monotonic()
            await router.close()
            router_took = time.monotonic() - t0
            t0 = time.monotonic()
            await daemon.close()
            daemon_took = time.monotonic() - t0
            for reader, writer in clients:  # the servers hung up
                assert await asyncio.wait_for(reader.read(), 2.0) == b""
                writer.close()
            leftover = [
                t for t in asyncio.all_tasks() if t is not asyncio.current_task()
            ]
            return router_took, daemon_took, leftover

        router_took, daemon_took, leftover = asyncio.run(scenario())
        assert router_took < 1.0
        assert daemon_took < 2.0
        assert leftover == []


class TestStaleConnections:
    def test_router_resends_on_a_shard_connection_closed_while_idle(
        self, monkeypatch
    ):
        monkeypatch.setattr(http_module, "IDLE_TIMEOUT_S", 0.2)
        with ServerThread(executor="thread", concurrency=1) as daemon:
            with RouterThread([("s0", daemon.url)], health_interval=30.0) as rt:
                with SolveClient(rt.url, retries=0) as client:
                    assert "error" not in client.metrics()["shards"]["s0"]
                    time.sleep(0.5)  # both hops close their idle connections
                    metrics = client.metrics()
        assert "error" not in metrics["shards"]["s0"]
        (health,) = metrics["shard_health"]
        assert health["up"] and health["consecutive_failures"] == 0

"""HTTP API of the daemon (:mod:`repro.server.http`).

One live in-process server per test class (``ServerThread`` with a
thread executor), driven with raw ``urllib`` so the routes — not the
client — are under test.
"""

import asyncio
import json
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import __version__
from repro.generators import small_random_problem
from repro.io import problem_to_dict
from repro.server import (
    ProtocolError,
    ServerThread,
    parse_front_payload,
    parse_job_payload,
)
from repro.server.http import _HttpError, _read_request


@pytest.fixture(scope="module")
def server():
    with ServerThread(executor="thread", concurrency=2) as handle:
        yield handle


def request(server, method, path, payload=None):
    """Raw HTTP helper returning (status, decoded-JSON body)."""
    body = None if payload is None else json.dumps(payload).encode()
    req = urllib.request.Request(
        f"{server.url}{path}",
        data=body,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


def submission(seed=0, **solver):
    return {
        "problem": problem_to_dict(small_random_problem(seed)),
        "solver": solver or {"objective": "period"},
    }


def wait_done(server, job_id, tries=400):
    import time

    for _ in range(tries):
        status, view = request(server, "GET", f"/v1/jobs/{job_id}")
        assert status == 200
        if view["state"] in ("done", "cancelled"):
            return view
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} never finished")


class TestHealthAndMetrics:
    def test_healthz_reports_version(self, server):
        status, payload = request(server, "GET", "/v1/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        # The version is single-sourced from the package metadata.
        assert payload["version"] == __version__
        assert payload["uptime_s"] >= 0

    def test_metrics_shape(self, server):
        status, payload = request(server, "GET", "/v1/metrics")
        assert status == 200
        assert set(payload["queue"]) == {
            "depth",
            "running",
            "concurrency",
            "max_depth",
            "shed",
        }
        assert payload["queue"]["max_depth"] is None  # unbounded default
        assert "submitted" in payload["jobs"]
        assert "shed" in payload["jobs"]
        assert "evaluations" in payload["solver"]


class TestSubmitAndFetch:
    def test_submit_poll_result_round_trip(self, server):
        status, view = request(server, "POST", "/v1/jobs", submission(100))
        assert status in (200, 202)
        assert view["state"] in ("queued", "running", "done")
        done = wait_done(server, view["id"])
        assert done["status"] == "ok"
        assert done["objective"] > 0
        assert done["telemetry"] is not None
        status, result = request(
            server, "GET", f"/v1/jobs/{view['id']}/result"
        )
        assert status == 200
        assert result["status"] == "ok"
        assert result["solution"]["objective"] == done["objective"]
        assert result["solution"]["mapping"]["assignments"]

    def test_duplicate_submission_is_deduplicated(self, server):
        first = request(server, "POST", "/v1/jobs", submission(101))[1]
        wait_done(server, first["id"])
        status, dup = request(server, "POST", "/v1/jobs", submission(101))
        # Cache hits answer with 200 and a born-done job.
        assert status == 200
        assert dup["state"] == "done"
        assert dup["source"] == "cache"
        assert dup["key"] == first["key"]

    def test_result_conflict_while_pending(self, server):
        # An unsolvable-fast strategy is unnecessary: submit and query
        # the result immediately; if the job already finished, the 200
        # path is covered elsewhere.
        view = request(server, "POST", "/v1/jobs", submission(102))[1]
        status, payload = request(
            server, "GET", f"/v1/jobs/{view['id']}/result"
        )
        assert status in (200, 409)
        if status == 409:
            assert "not finished" in payload["error"]
        wait_done(server, view["id"])

    def test_jobs_listing_and_state_filter(self, server):
        view = request(server, "POST", "/v1/jobs", submission(103))[1]
        wait_done(server, view["id"])
        status, listing = request(server, "GET", "/v1/jobs?state=done&limit=5")
        assert status == 200
        assert 0 < listing["count"] <= 5
        assert all(j["state"] == "done" for j in listing["jobs"])
        assert any(j["id"] == view["id"] for j in listing["jobs"])

    def test_cancel_endpoint(self, server):
        view = request(server, "POST", "/v1/jobs", submission(104))[1]
        status, payload = request(
            server, "DELETE", f"/v1/jobs/{view['id']}"
        )
        assert status == 200
        # Whether cancellation won the race depends on the queue; the
        # contract is the bool plus a consistent final state.
        if payload["cancelled"]:
            assert payload["state"] == "cancelled"
        else:
            assert payload["state"] in ("running", "done")


class TestValidation:
    def test_unknown_path_404(self, server):
        assert request(server, "GET", "/v1/nope")[0] == 404
        assert request(server, "GET", "/nope")[0] == 404

    def test_unknown_job_404(self, server):
        assert request(server, "GET", "/v1/jobs/jxxx")[0] == 404
        assert request(server, "GET", "/v1/jobs/jxxx/result")[0] == 404
        assert request(server, "DELETE", "/v1/jobs/jxxx")[0] == 404

    def test_wrong_method_405(self, server):
        assert request(server, "DELETE", "/v1/healthz")[0] == 405
        assert request(server, "POST", "/v1/metrics", {})[0] == 405

    def test_malformed_json_400(self, server):
        req = urllib.request.Request(
            f"{server.url}/v1/jobs",
            data=b"{not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 400

    def test_missing_problem_400(self, server):
        status, payload = request(server, "POST", "/v1/jobs", {"solver": {}})
        assert status == 400
        assert "problem" in payload["error"]

    def test_bad_solver_named_in_error(self, server):
        status, payload = request(
            server,
            "POST",
            "/v1/jobs",
            submission(105, objective="bogus"),
        )
        assert status == 400
        assert "objective" in payload["error"]
        status, payload = request(
            server,
            "POST",
            "/v1/jobs",
            submission(105, strategy="not-a-strategy"),
        )
        assert status == 400
        assert "strategy" in payload["error"]

    def test_energy_requires_max_period(self, server):
        status, payload = request(
            server, "POST", "/v1/jobs", submission(106, objective="energy")
        )
        assert status == 400
        assert "max_period" in payload["error"]

    def test_bad_state_filter_400(self, server):
        assert request(server, "GET", "/v1/jobs?state=bogus")[0] == 400
        assert request(server, "GET", "/v1/jobs?limit=bogus")[0] == 400

    def test_bad_priority_400(self, server):
        payload = submission(107)
        payload["priority"] = "high"
        assert request(server, "POST", "/v1/jobs", payload)[0] == 400

    def test_unknown_top_level_key_400(self, server):
        payload = submission(108)
        payload["bogus"] = 1
        status, body = request(server, "POST", "/v1/jobs", payload)
        assert status == 400
        assert "bogus" in body["error"]

    def test_stale_engine_key_in_job_400(self, server):
        status, body = request(
            server,
            "POST",
            "/v1/jobs",
            submission(109, objective="period", engine="compiled"),
        )
        assert status == 400
        assert "'engine'" in body["error"]

    def test_stale_engine_key_in_front_400(self, server):
        payload = {
            "problem": problem_to_dict(small_random_problem(110)),
            "solver": {"engine": "compiled"},
        }
        status, body = request(server, "POST", "/v1/fronts", payload)
        assert status == 400
        assert "'engine'" in body["error"]


def read_raw(raw: bytes):
    """Run ``_read_request`` over a stream holding exactly ``raw``."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await _read_request(reader)

    return asyncio.run(go())


class TestRequestFraming:
    @pytest.mark.parametrize(
        "raw",
        [
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: abc\r\n\r\n{}",
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: -5\r\n\r\n{}",
            b"GET /v1/healthz HTTP/1.1\r\nX-Big: "
            + b"a" * 100_000
            + b"\r\n\r\n",
            b"",
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}",
        ],
        ids=[
            "non-numeric-length",
            "negative-length",
            "100kb-header-line",
            "empty",
            "truncated-body",
        ],
    )
    def test_malformed_framing_is_400(self, raw):
        with pytest.raises(_HttpError) as err:
            read_raw(raw)
        assert err.value.status == 400


class TestStrategySubmissions:
    def test_strategy_with_budget_over_http(self, server):
        status, view = request(
            server,
            "POST",
            "/v1/jobs",
            {
                "problem": problem_to_dict(small_random_problem(109)),
                "solver": {
                    "objective": "period",
                    "strategy": "greedy",
                    "budget": {"max_evaluations": 50000, "seed": 0},
                },
            },
        )
        assert status in (200, 202)
        done = wait_done(server, view["id"])
        assert done["status"] == "ok"
        assert done["telemetry"]["strategy"] == "greedy"
        assert done["telemetry"]["evaluations"] > 0


# ----------------------------------------------------------------------
# fuzzing: framing and payload parsing never give a 500 or hang
# ----------------------------------------------------------------------
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

_VALID_JOB = submission(300)
_VALID_FRONT = {
    "problem": problem_to_dict(small_random_problem(301)),
    "points": 5,
}


def _mutate(data, payload):
    """Replace one randomly chosen node of a deep copy of ``payload``
    (the root included) by an arbitrary JSON value."""
    payload = json.loads(json.dumps(payload))
    holder, key = None, None
    node = payload
    while isinstance(node, (dict, list)) and node and data.draw(st.booleans()):
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        holder, key = node, data.draw(st.sampled_from(keys))
        node = node[key]
    value = data.draw(_JSON)
    if holder is None:
        return value
    holder[key] = value
    return payload


_REQUEST_LINES = st.builds(
    lambda method, target, version: f"{method} {target} {version}\r\n".encode(),
    st.sampled_from(["GET", "POST", "DELETE", "PUT", "get", ""]),
    st.sampled_from(["/v1/jobs", "/v1/healthz", "/", "*", "/v1/jobs/x/result?wait=1"]),
    st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/2", "", "HTTP/1.1 extra"]),
)
_HEADER_LINES = st.lists(
    st.one_of(
        st.builds(
            lambda n: f"Content-Length: {n}\r\n".encode(),
            st.one_of(st.integers(-5, 64), st.text(max_size=4)),
        ),
        st.just(b"Transfer-Encoding: chunked\r\n"),
        st.just(b"Connection: close\r\n"),
        st.binary(max_size=30).map(lambda b: b + b"\r\n"),
    ),
    max_size=5,
)


def _read_within(raw: bytes, seconds: float = 5.0):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await asyncio.wait_for(_read_request(reader), seconds)

    return asyncio.run(go())


def _assert_framed_or_client_error(raw: bytes):
    try:
        request = _read_within(raw)
    except _HttpError as exc:
        assert exc.status in (400, 413, 501), exc.status
    else:
        assert isinstance(request.body, bytes)


class TestFramingFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=300))
    def test_arbitrary_bytes(self, raw):
        _assert_framed_or_client_error(raw)

    @settings(max_examples=300, deadline=None)
    @given(_REQUEST_LINES, _HEADER_LINES, st.binary(max_size=80))
    def test_request_shaped_bytes(self, line, headers, body):
        _assert_framed_or_client_error(line + b"".join(headers) + b"\r\n" + body)

    def test_chunked_is_501(self):
        with pytest.raises(_HttpError) as err:
            _read_within(
                b"POST /v1/jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"2\r\n{}\r\n0\r\n\r\n"
            )
        assert err.value.status == 501

    def test_keep_alive_flag(self):
        assert _read_within(b"GET / HTTP/1.1\r\n\r\n").keep_alive
        assert not _read_within(b"GET / HTTP/1.0\r\n\r\n").keep_alive
        assert not _read_within(
            b"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n"
        ).keep_alive


class TestPayloadFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_job_payload_is_parsed_or_protocol_error(self, data):
        try:
            parse_job_payload(_mutate(data, _VALID_JOB))
        except ProtocolError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_front_payload_is_parsed_or_protocol_error(self, data):
        try:
            parse_front_payload(_mutate(data, _VALID_FRONT))
        except ProtocolError:
            pass

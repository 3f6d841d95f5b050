"""Unit tests for the span API: recorder, context, phase accumulation."""

import json
import threading

import pytest

from repro.obs import spans as obs_spans
from repro.obs.spans import (
    SpanRecorder,
    collect,
    current_parent_id,
    current_trace_id,
    new_span_id,
    new_trace_id,
    record_span,
    recorder,
    span,
    trace_context,
    track,
)


@pytest.fixture(autouse=True)
def _clean_context():
    """Every test starts with no ambient trace and leaves none behind
    (every setter is scoped, so a leak is a bug)."""
    assert current_trace_id() is None
    yield
    assert current_trace_id() is None


class TestIds:
    def test_trace_ids_are_unique(self):
        ids = {new_trace_id() for _ in range(200)}
        assert len(ids) == 200
        assert all(t.startswith("t-") for t in ids)

    def test_span_ids_are_unique_across_threads(self):
        out = []
        lock = threading.Lock()

        def worker():
            local = [new_span_id() for _ in range(100)]
            with lock:
                out.extend(local)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(out)) == len(out) == 800


class TestSpanRecorder:
    def test_record_and_query_sorted_by_start(self):
        rec = SpanRecorder(proc="unit")
        rec.record({"trace_id": "t1", "span_id": "b", "start": 2.0})
        rec.record({"trace_id": "t1", "span_id": "a", "start": 1.0})
        rec.record({"trace_id": "t2", "span_id": "c", "start": 0.0})
        found = rec.spans_for("t1")
        assert [s["span_id"] for s in found] == ["a", "b"]
        # the recorder stamps its proc label on spans missing one
        assert all(s["proc"] == "unit" for s in found)
        assert len(rec) == 3

    def test_ring_evicts_oldest(self):
        rec = SpanRecorder(ring_size=4)
        for i in range(10):
            rec.record({"trace_id": "t", "span_id": "s%d" % i, "start": float(i)})
        assert len(rec) == 4
        assert [s["span_id"] for s in rec.spans_for("t")] == [
            "s6", "s7", "s8", "s9",
        ]

    def test_configure_shrinks_ring_in_place(self):
        rec = SpanRecorder(ring_size=10)
        for i in range(10):
            rec.record({"trace_id": "t", "span_id": "s%d" % i, "start": float(i)})
        rec.configure(ring_size=3)
        assert len(rec) == 3

    def test_take_removes_only_that_trace(self):
        rec = SpanRecorder()
        rec.record({"trace_id": "t1", "span_id": "a", "start": 1.0})
        rec.record({"trace_id": "t2", "span_id": "b", "start": 1.0})
        taken = rec.take("t1")
        assert [s["span_id"] for s in taken] == ["a"]
        assert rec.spans_for("t1") == []
        assert [s["span_id"] for s in rec.spans_for("t2")] == ["b"]

    def test_ingest_keeps_foreign_proc_and_skips_junk(self):
        rec = SpanRecorder(proc="parent")
        n = rec.ingest(
            [
                {"trace_id": "t", "span_id": "w", "start": 0.0, "proc": "pool-7"},
                "not-a-span",
                None,
            ]
        )
        assert n == 1
        assert rec.spans_for("t")[0]["proc"] == "pool-7"

    def test_ingest_is_idempotent_per_span_id(self):
        # A fork-started pool worker inherits the parent's ring and
        # ships the inherited spans back on its first result item; the
        # second ingest (and re-ingest of locally recorded spans) must
        # not duplicate the tree.
        rec = SpanRecorder(proc="parent")
        rec.record({"trace_id": "t", "span_id": "local", "start": 0.0})
        shipped = [
            {"trace_id": "t", "span_id": "local", "start": 0.0, "proc": "parent"},
            {"trace_id": "t", "span_id": "w", "start": 1.0, "proc": "pool-7"},
        ]
        assert rec.ingest(shipped) == 1
        assert rec.ingest(shipped) == 0
        assert [s["span_id"] for s in rec.spans_for("t")] == ["local", "w"]

    def test_take_and_eviction_release_span_ids(self):
        rec = SpanRecorder(ring_size=2, proc="parent")
        rec.record({"trace_id": "t", "span_id": "a", "start": 0.0})
        rec.take("t")
        # taken spans may legitimately come back via a later ingest
        assert rec.ingest([{"trace_id": "t", "span_id": "a", "start": 0.0}]) == 1
        # eviction frees the oldest id for re-ingest too
        rec.record({"trace_id": "t", "span_id": "b", "start": 1.0})
        rec.record({"trace_id": "t", "span_id": "c", "start": 2.0})
        assert [s["span_id"] for s in rec.spans_for("t")] == ["b", "c"]
        assert rec.ingest([{"trace_id": "t", "span_id": "a", "start": 0.0}]) == 1

    def test_trace_ids_and_clear(self):
        rec = SpanRecorder()
        rec.record({"trace_id": "t1", "span_id": "a", "start": 0.0})
        rec.record({"trace_id": "t2", "span_id": "b", "start": 0.0})
        assert set(rec.trace_ids()) == {"t1", "t2"}
        rec.clear()
        assert len(rec) == 0

    def test_jsonl_sink_appends_one_object_per_span(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        rec = SpanRecorder()
        rec.configure(jsonl_path=str(path))
        rec.record({"trace_id": "t", "span_id": "a", "start": 0.0})
        rec.record({"trace_id": "t", "span_id": "b", "start": 1.0})
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l["span_id"] for l in lines] == ["a", "b"]


class TestContext:
    def test_no_ambient_trace_by_default(self):
        assert current_trace_id() is None
        assert current_parent_id() is None

    def test_trace_context_scopes_and_restores(self):
        with trace_context("t-x", "s-p"):
            assert current_trace_id() == "t-x"
            assert current_parent_id() == "s-p"
            with trace_context(None):
                # nesting None disables the trace inside the block
                assert current_trace_id() is None
            assert current_trace_id() == "t-x"
        assert current_trace_id() is None


class TestSpan:
    def test_span_noop_without_active_trace(self):
        rec = recorder()
        before = len(rec)
        with span("unit.noop") as s:
            assert s.span_id is None
        assert len(rec) == before

    def test_span_records_and_parents_nested_spans(self):
        tid = new_trace_id()
        with trace_context(tid):
            with span("unit.outer", kind="test") as outer:
                with span("unit.inner") as inner:
                    pass
        spans = recorder().take(tid)
        by_name = {s["name"]: s for s in spans}
        assert set(by_name) == {"unit.outer", "unit.inner"}
        assert by_name["unit.inner"]["parent_id"] == outer.span_id
        assert by_name["unit.outer"]["parent_id"] is None
        assert by_name["unit.outer"]["attrs"] == {"kind": "test"}
        assert by_name["unit.inner"]["span_id"] == inner.span_id
        assert by_name["unit.outer"]["duration"] >= 0.0

    def test_span_marks_error_and_propagates(self):
        tid = new_trace_id()
        with pytest.raises(ValueError):
            with trace_context(tid):
                with span("unit.boom"):
                    raise ValueError("x")
        (recorded,) = recorder().take(tid)
        assert recorded["attrs"]["error"] == "ValueError"

    def test_disabled_flag_suppresses_recording(self, monkeypatch):
        monkeypatch.setattr(obs_spans, "_ENABLED", False)
        assert not obs_spans.enabled()
        tid = new_trace_id()
        with trace_context(tid):
            with span("unit.off") as s:
                assert s.span_id is None
            assert record_span("unit.off2", start=0.0, duration=0.0) is None
        assert recorder().spans_for(tid) == []

    def test_record_span_with_explicit_ids(self):
        tid = new_trace_id()
        sid = record_span(
            "unit.explicit",
            start=123.0,
            duration=0.5,
            trace_id=tid,
            parent_id="s-parent",
            span_id="s-fixed",
            extra=7,
        )
        assert sid == "s-fixed"
        (recorded,) = recorder().take(tid)
        assert recorded["parent_id"] == "s-parent"
        assert recorded["attrs"] == {"extra": 7}

    def test_record_span_without_context_is_noop(self):
        assert record_span("unit.orphan", start=0.0, duration=0.0) is None


class TestCollect:
    def test_track_without_collector_is_shared_noop(self):
        first = track("phase")
        second = track("phase")
        assert first is second  # the shared null tracker: zero alloc
        with first:
            pass

    def test_collect_aggregates_phases_into_child_spans(self):
        tid = new_trace_id()
        with trace_context(tid):
            with collect("unit.solve", engine="x") as acc:
                assert acc == {}
                for _ in range(5):
                    with track("unit.eval"):
                        pass
                with track("unit.accept"):
                    pass
        spans = recorder().take(tid)
        by_name = {s["name"]: s for s in spans}
        assert set(by_name) == {"unit.solve", "unit.eval", "unit.accept"}
        parent = by_name["unit.solve"]
        assert parent["attrs"] == {"engine": "x"}
        eval_span = by_name["unit.eval"]
        assert eval_span["parent_id"] == parent["span_id"]
        assert eval_span["attrs"]["calls"] == 5
        assert eval_span["attrs"]["aggregated"] is True
        assert by_name["unit.accept"]["attrs"]["calls"] == 1

    def test_collect_inactive_yields_none(self):
        with collect("unit.idle") as acc:
            assert acc is None

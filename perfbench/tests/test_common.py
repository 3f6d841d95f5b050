import math

import pytest

from perfbench import common
from perfbench.common import Span, fold_self_times
from perfbench.workloads import Timed, blocks


def test_percentile_interpolates_like_numpy_linear():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert common.percentile(values, 0) == 1.0
    assert common.percentile(values, 50) == 3.0
    assert common.percentile(values, 90) == pytest.approx(4.6)
    assert common.median([1.0, 2.0, 3.0, 4.0]) == 2.5


def test_percentile_refuses_tail_above_p90_and_empty_samples():
    with pytest.raises(ValueError):
        common.percentile([1.0, 2.0], 99)
    with pytest.raises(ValueError):
        common.percentile([], 50)


@pytest.mark.parametrize("n, beyond", [(10, 1), (100, 10), (101, 10), (1400, 140), (1, 0)])
def test_samples_beyond_p90(n, beyond):
    assert common.samples_beyond(n, 90.0) == beyond
    # The count is what it claims: samples strictly above the p90 rank.
    values = list(range(n))
    p90 = common.percentile(values, 90.0)
    assert sum(1 for v in values if v > p90) == beyond


def test_geomean_and_time_to_fraction():
    assert common.geomean([1.0, 4.0, 16.0]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        common.geomean([1.0, 0.0])
    assert common.time_to_fraction([0.3, 0.1, 0.2, 1.0, 0.5, 0.6, 0.7, 0.8, 0.9, 0.4]) == 0.9
    assert common.time_to_fraction([2.0]) == 2.0


def test_blocks_partition_the_list():
    parts = blocks(11, 3)
    assert parts[0][0] == 0 and parts[-1][1] == 11
    assert all(a[1] == b[0] for a, b in zip(parts, parts[1:]))
    assert sorted(hi - lo for lo, hi in parts) == [3, 4, 4]


def test_timed_reports_medians_and_concatenates_blocks():
    timed = Timed(setups=[3.0, 1.0, 2.0])
    timed.block(10, 2.0, [0.1] * 10, [0.2 * i for i in range(1, 11)], [2.0], 100.0)
    timed.block(10, 1.0, [0.05] * 10, [0.1 * i for i in range(1, 11)], [8.0], 120.0)
    timed.block(10, 4.0, [0.2] * 10, [0.4 * i for i in range(1, 11)], [4.0], 110.0)
    notes = []
    m = timed.metrics(notes)
    assert m["setup_s"] == 2.0
    assert m["jobs_per_s"] == 5.0  # block rates 5, 10, 2.5
    assert m["peak_rss_mb"] == 110.0
    assert m["objective_geomean"] == pytest.approx(4.0)
    # 27th of 30 completions: block three (offset 3 s) at 7 x 0.4 s.
    assert m["t90_s"] == pytest.approx(3.0 + 2.8)
    assert m["latency_p50_ms"] == pytest.approx(100.0)  # pooled: blocks < 100
    assert "latency samples=30 in chunks of [10, 10, 10] (pooled beyond p90: 3)" in notes[0]


def test_timed_takes_the_median_of_chunk_percentiles_for_big_chunks():
    timed = Timed(setups=[1.0])
    for scale in (1.0, 2.0, 100.0):  # the last block hit a burst of stalls
        timed.block(100, 1.0, [scale * i / 1000 for i in range(100)], [0.5] * 100, [1.0], 1.0)
    m = timed.metrics([])
    assert m["latency_p90_ms"] == pytest.approx(2.0 * 89.1)
    assert m["latency_p50_ms"] == pytest.approx(2.0 * 49.5)


def test_timed_cuts_a_block_into_chunks_in_completion_order():
    timed = Timed(setups=[1.0])
    # 250 operations completing out of order: 2 chunks of 125; the first
    # 125 completions take 1 s, the rest 4 s (a slow stretch of the host).
    completions = [(i + 1) / 125 if i < 125 else 1.0 + (i - 124) * 4 / 125 for i in range(250)]
    latencies = [0.001 if i < 125 else 0.004 for i in range(250)]
    shuffled = list(range(250))[::-1]
    timed.block(
        250, 5.0,
        [latencies[i] for i in shuffled], [completions[i] for i in shuffled],
        [1.0], 1.0,
    )
    assert timed.rates == pytest.approx([125.0, 125 / 4])
    assert [len(c) for c in timed.latencies] == [125, 125]
    assert timed.latencies[0] == [0.001] * 125


def _sum(parts):
    self_times, unattributed = parts
    return math.fsum(self_times.values()) + unattributed


def test_fold_nested_spans():
    spans = [
        Span("root", 0.0, 10.0, "a", None),
        Span("child", 2.0, 5.0, "b", "a"),
        Span("grandchild", 3.0, 4.0, "c", "b"),
    ]
    self_times, unattributed = fold_self_times(spans, (0.0, 12.0))
    assert self_times == {"root": 7.0, "child": 2.0, "grandchild": 1.0}
    assert unattributed == 2.0


def test_fold_overlapping_children_split_the_overlap_once():
    spans = [
        Span("parent", 0.0, 10.0, "p", None),
        Span("left", 1.0, 6.0, "l", "p"),
        Span("right", 4.0, 8.0, "r", "p"),
    ]
    self_times, unattributed = fold_self_times(spans, (0.0, 10.0))
    # The overlap [4, 6] is charged once, to the later-started sibling.
    assert self_times["parent"] == pytest.approx(3.0)
    assert self_times["left"] == pytest.approx(3.0)
    assert self_times["right"] == pytest.approx(4.0)
    assert unattributed == pytest.approx(0.0)
    assert _sum((self_times, unattributed)) == pytest.approx(10.0)


def test_fold_child_outliving_parent_and_clipping_to_window():
    spans = [
        Span("submit", 1.0, 3.0, "s", None),
        Span("queue", 2.0, 6.0, "q", "s"),  # outlives its parent
        Span("late", 9.0, 20.0, "x", None),  # runs past the window
    ]
    self_times, unattributed = fold_self_times(spans, (0.0, 10.0))
    assert self_times == pytest.approx({"submit": 1.0, "queue": 4.0, "late": 1.0})
    assert unattributed == pytest.approx(4.0)
    assert _sum((self_times, unattributed)) == pytest.approx(10.0)


def test_fold_same_name_spans_accumulate_and_unknown_parent_is_a_root():
    spans = [
        Span("poll", 0.0, 1.0, "a", "missing"),
        Span("poll", 2.0, 3.5, "b", "missing"),
    ]
    self_times, unattributed = fold_self_times(spans, (0.0, 4.0))
    assert self_times == pytest.approx({"poll": 2.5})
    assert unattributed == pytest.approx(1.5)


def test_span_from_trace_payload():
    span = Span.from_dict(
        {
            "name": "router.submit",
            "start": 10.0,
            "duration": 0.5,
            "span_id": "s-1",
            "parent_id": None,
        }
    )
    assert (span.name, span.start, span.end, span.span_id) == ("router.submit", 10.0, 10.5, "s-1")


_ORPHANS = """
import subprocess, sys
from multiprocessing import resource_tracker
from perfbench import common
common.become_subreaper()
resource_tracker.ensure_running()
# A child that leaves a sleeping grandchild behind as an orphan.
subprocess.run([sys.executable, "-c",
                "import subprocess, sys; subprocess.Popen([sys.executable, '-c', "
                "'import time; time.sleep(60)'])"], check=True)
common.stop_descendants(grace=1.0)
"""


def test_stop_descendants_leaves_no_process_of_the_session():
    import os
    import subprocess
    import sys
    from pathlib import Path

    from perfbench.tests.test_runs import session_members

    root = Path(__file__).resolve().parents[2]
    proc = subprocess.Popen(
        [sys.executable, "-c", _ORPHANS], cwd=root, start_new_session=True,
        env={**os.environ, "PYTHONPATH": str(root)},
    )
    assert proc.wait(timeout=30) == 0
    assert session_members(proc.pid) == []

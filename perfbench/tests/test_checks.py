"""Each workload's correctness check accepts a good output and rejects a
broken one."""

from types import SimpleNamespace

import pytest

from perfbench.common import CheckFailed
from perfbench.workloads import (
    canonical,
    check_campaign,
    check_cold_serve,
    check_fronts,
    check_warm_hits,
    warm_problem,
)
from repro.client import RemoteResult
from repro.io import solution_to_dict
from repro.service import solve_one


@pytest.fixture(scope="module")
def solutions():
    return [solve_one(warm_problem(0, i), "period", method="heuristic") for i in range(2)]


def _answer(solution, source="cache"):
    return RemoteResult.from_payload(
        {
            "id": "j@shard0",
            "status": "ok",
            "source": source,
            "wall_time": 0.002,
            "solution": solution_to_dict(solution),
        }
    )


def _warm(solutions, **overrides):
    order = [0, 1, 0]
    fill = [canonical(_answer(s, "solved")) for s in solutions]
    answers = [_answer(solutions[i]) for i in order]
    args = dict(
        answers=answers,
        order=order,
        fill=fill,
        work_before={"shard0": (10, 500)},
        work_after={"shard0": (10, 500)},
    )
    args.update(overrides)
    return args


def test_warm_hits_accepts_cache_answers(solutions):
    check_warm_hits(**_warm(solutions))


def test_warm_hits_rejects_a_hit_that_solved(solutions):
    args = _warm(solutions)
    args["answers"][1] = _answer(solutions[1], source="solved")
    with pytest.raises(CheckFailed, match="answered from 'solved'"):
        check_warm_hits(**args)


def test_warm_hits_rejects_solver_work_during_the_timed_phase(solutions):
    with pytest.raises(CheckFailed, match="solver work grew"):
        check_warm_hits(**_warm(solutions, work_after={"shard0": (11, 537)}))


def test_warm_hits_rejects_a_payload_unlike_the_fill(solutions):
    args = _warm(solutions)
    args["answers"][0] = _answer(solutions[1])
    with pytest.raises(CheckFailed, match="differs from the fill"):
        check_warm_hits(**args)


def test_warm_hits_rejects_a_failed_request(solutions):
    args = _warm(solutions)
    args["answers"][2] = None
    with pytest.raises(CheckFailed, match="failed"):
        check_warm_hits(**args)


def test_cold_serve_compares_with_in_process_solve(solutions):
    good, other = solutions
    check_cold_serve([(0, good, good), (3, other, other)])
    with pytest.raises(CheckFailed):
        check_cold_serve([(0, good, good), (3, good, other)])
    with pytest.raises(CheckFailed):
        check_cold_serve([(0, None, good)])
    with pytest.raises(CheckFailed):
        check_cold_serve([])


def _campaign(objectives, n_ok=None, n_cached=None):
    n = len(objectives)
    result = SimpleNamespace(
        n_cells=n,
        n_ok=n if n_ok is None else n_ok,
        records=[SimpleNamespace(objective=o) for o in objectives],
    )
    rerun = SimpleNamespace(
        n_cells=n,
        n_cached=n if n_cached is None else n_cached,
        n_solved=n - (n if n_cached is None else n_cached),
    )
    return result, rerun


def test_campaign_check():
    result, rerun = _campaign([1.5, 2.5, 3.0])
    check_campaign(result, rerun, [1.5, 2.5, 3.0])
    with pytest.raises(CheckFailed, match="not ok"):
        check_campaign(*_campaign([1.5, 2.5, 3.0], n_ok=2), [1.5, 2.5, 3.0])
    with pytest.raises(CheckFailed, match="rerun solved 1"):
        check_campaign(*_campaign([1.5, 2.5, 3.0], n_cached=2), [1.5, 2.5, 3.0])
    with pytest.raises(CheckFailed, match="solve_batch"):
        check_campaign(result, rerun, [1.5, 2.5, 3.0000001])


def test_front_check():
    fronts = [[(1.0, 9.0), (2.0, 4.0)], [(3.0, 1.0)]]
    check_fronts(fronts, [list(f) for f in fronts])
    with pytest.raises(CheckFailed):
        check_fronts(fronts, [fronts[0], [(3.0, 1.5)]])
    with pytest.raises(CheckFailed):
        check_fronts(fronts, fronts[:1])

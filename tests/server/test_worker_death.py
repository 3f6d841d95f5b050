"""A daemon survives the death of a pool worker.

``SolveService(executor="process")`` runs its cells on the process's
worker pool.  A worker that dies mid-cell (like an OOM kill) must fail
that cell alone: the pool replaces the worker and every later cell
solves normally, with the same objective as an inline solve.
"""

import asyncio
import functools
import os

from repro.experiments.spec import SolverSpec
from repro.generators import small_random_problem
from repro.server import JobState, SolveService, solve_cell

SPEC = SolverSpec(name="t")


def _die_on_first_call(marker, problem, solver):
    """Runner that kills its worker hard on the first call only (the
    marker file records that the death already happened)."""
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return solve_cell(problem, solver)
    os._exit(9)


def test_one_worker_death_fails_only_its_cell(tmp_path):
    problems = [small_random_problem(seed) for seed in range(4)]

    async def scenario():
        service = SolveService(
            executor="process",
            concurrency=1,
            runner=functools.partial(_die_on_first_call, str(tmp_path / "died")),
        )
        # Submitted before start so the first cell is the one that dies.
        jobs = [service.submit(p, SPEC) for p in problems]
        await service.start()
        await service.shutdown(drain_queue=True)
        return jobs

    jobs = asyncio.run(scenario())
    assert all(job.state is JobState.DONE for job in jobs)
    first, *rest = [job.outcome for job in jobs]
    assert first.status == "error"
    assert "WorkerDiedError" in first.error
    for problem, outcome in zip(problems[1:], rest):
        assert outcome.status == "ok", outcome.error
        want = solve_cell(problem, SPEC).solution
        assert outcome.solution.objective == want.objective
        assert outcome.solution.mapping == want.mapping

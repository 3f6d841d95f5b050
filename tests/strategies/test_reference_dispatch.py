"""The four dispatch strategies answer exactly as the method dispatch did.

``registry``, ``auto``, ``exact`` and ``heuristic`` are the only copy of
the solver dispatch left in the library; :mod:`.reference_dispatch`
keeps the dispatch ``method=`` used to run as the oracle.  On every
instance of the grid below, ``solve_one(strategy=name)`` must return the
oracle's mapping, objective, values, solver and optimality flag, or fail
with the oracle's exception class.  The one sanctioned difference: the
oracle's ``auto`` raises the polynomial solver's ``SolverError`` outside
the polynomial cells, which the strategy harness reports as
``StrategyError``.
"""

import itertools

import pytest

from repro.analysis.pareto import front_thresholds
from repro.core.exceptions import SolverError
from repro.core.objectives import Thresholds
from repro.core.types import CommunicationModel, MappingRule, PlatformClass
from repro.generators import small_random_problem
from repro.service import solve_one
from repro.strategies import StrategyError

from .reference_dispatch import reference_dispatch

NAMES = ("registry", "auto", "exact", "heuristic")
OBJECTIVES = ("period", "latency", "energy")
CELLS = list(
    itertools.product(range(6), PlatformClass, MappingRule, CommunicationModel)
)


def _outcome(solve):
    try:
        return solve(), None
    except Exception as exc:  # the class is what is compared
        return None, type(exc)


def _requests(seed, platform_class, rule, model):
    problem = small_random_problem(
        seed,
        platform_class=platform_class,
        rule=rule,
        model=model,
        n_apps=2,
        n_modes=2,
    )
    energy = Thresholds(period=front_thresholds(problem, max_points=5)[2])
    for objective in OBJECTIVES:
        thresholds = energy if objective == "energy" else None
        for name in NAMES:
            yield problem, objective, name, thresholds


def _verdict(problem, objective, name, thresholds):
    """``"ok"``, ``"failed"`` or ``"auto-outside-cell"`` when the two
    paths agree, else a description of the mismatch."""
    want, want_exc = _outcome(
        lambda: reference_dispatch(problem, objective, name, thresholds)
    )
    got, got_exc = _outcome(
        lambda: solve_one(
            problem, objective, strategy=name, thresholds=thresholds
        )
    )
    if want_exc is not None:
        if name == "auto" and want_exc is SolverError:
            want_exc = StrategyError
            verdict = "auto-outside-cell"
        else:
            verdict = "failed"
        if got_exc is not want_exc:
            return f"{objective}/{name}: raised {got_exc}, oracle {want_exc}"
        return verdict
    if got_exc is not None:
        return f"{objective}/{name}: raised {got_exc}, oracle answered"
    for field in ("mapping", "objective", "values", "solver", "optimal"):
        if getattr(got, field) != getattr(want, field):
            return f"{objective}/{name}: {field} differs"
    return "ok"


@pytest.fixture(scope="module")
def verdicts():
    """Every grid cell's verdicts, solved once for the module."""
    return {
        cell: [_verdict(*request) for request in _requests(*cell)]
        for cell in CELLS
    }


@pytest.mark.parametrize(
    "cell",
    CELLS,
    ids=[f"{s}-{c.value}-{r.value}-{m.value}" for s, c, r, m in CELLS],
)
def test_dispatch_strategies_match_the_method_dispatch(verdicts, cell):
    agreed = ("ok", "failed", "auto-outside-cell")
    assert [v for v in verdicts[cell] if v not in agreed] == []


def test_grid_outcome_counts(verdicts):
    """The grid's shape when the method dispatch was removed: 864
    requests, 177 failures, 108 of them ``auto`` outside its cells."""
    flat = [v for cell in CELLS for v in verdicts[cell]]
    assert len(flat) == 864
    assert {v: flat.count(v) for v in set(flat)} == {
        "ok": 687,
        "failed": 69,
        "auto-outside-cell": 108,
    }

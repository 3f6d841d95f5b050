"""Tests for the Tables 1-2 registry and the auto-dispatching facade."""

import pytest

from repro import (
    Application,
    Criterion,
    MappingRule,
    Platform,
    PlatformClass,
    ProblemInstance,
)
from repro.algorithms import minimize_latency, minimize_period
from repro.algorithms.registry import (
    TABLE1,
    TABLE2,
    Complexity,
    ComplexityEntry,
    PlatformCell,
    classify_platform_cell,
    expected_complexity,
    lookup,
)
from repro.generators import special_app_family
from repro.service import solve_one
from repro.strategies import StrategyError


class TestTables:
    def test_table1_covers_all_cells(self):
        # 2 criteria x 2 rules x 4 platform columns.
        assert len(TABLE1) == 16
        combos = {(e.criteria, e.rule, e.cell) for e in TABLE1}
        assert len(combos) == len(TABLE1)

    def test_table1_polynomial_cells_have_solvers(self):
        for e in TABLE1:
            if e.complexity is Complexity.POLYNOMIAL:
                assert e.solver is not None, e

    def test_table2_hard_cells_have_no_polynomial_solver(self):
        for e in TABLE2:
            if e.complexity in (Complexity.NP_COMPLETE, Complexity.NP_HARD):
                assert e.solver is None, e

    def test_paper_headline_claims(self):
        # Table 1: period/interval on special-app is the starred entry.
        e = lookup(
            [Criterion.PERIOD], MappingRule.INTERVAL, PlatformCell.SPECIAL_APP
        )
        assert e.complexity is Complexity.NP_COMPLETE
        assert "5" in e.theorem
        # Table 2: tri-criteria hard even on proc-hom (multi-modal).
        e = lookup(
            [Criterion.PERIOD, Criterion.LATENCY, Criterion.ENERGY],
            MappingRule.ONE_TO_ONE,
            PlatformCell.PROC_HOM,
        )
        assert e.complexity is Complexity.NP_HARD
        assert e.multi_modal_only

    def test_lookup_unknown_raises(self):
        with pytest.raises(KeyError):
            lookup([Criterion.ENERGY], MappingRule.INTERVAL, PlatformCell.PROC_HOM)

    def test_criteria_order_normalized(self):
        a = lookup(
            [Criterion.LATENCY, Criterion.PERIOD],
            MappingRule.INTERVAL,
            PlatformCell.PROC_HOM,
        )
        b = lookup(
            [Criterion.PERIOD, Criterion.LATENCY],
            MappingRule.INTERVAL,
            PlatformCell.PROC_HOM,
        )
        assert a is b


class TestClassification:
    def test_fully_homogeneous(self):
        apps = (Application.from_lists([1], [1]),)
        problem = ProblemInstance(
            apps=apps, platform=Platform.fully_homogeneous(2, [1.0])
        )
        assert classify_platform_cell(problem) is PlatformCell.PROC_HOM

    def test_special_app(self):
        apps = special_app_family(2, 3)
        problem = ProblemInstance(
            apps=apps, platform=Platform.comm_homogeneous([[1.0], [2.0]])
        )
        assert classify_platform_cell(problem) is PlatformCell.SPECIAL_APP

    def test_comm_hom_with_communication(self):
        apps = (Application.from_lists([1, 1], [1, 1]),)
        problem = ProblemInstance(
            apps=apps, platform=Platform.comm_homogeneous([[1.0], [2.0]])
        )
        assert classify_platform_cell(problem) is PlatformCell.PROC_HET_COM_HOM

    def test_fully_heterogeneous(self):
        apps = (Application.from_lists([1], [0]),)
        platform = Platform.fully_heterogeneous([[1.0], [2.0]], {(0, 1): 0.5})
        problem = ProblemInstance(apps=apps, platform=platform)
        assert (
            classify_platform_cell(problem) is PlatformCell.PROC_HET_COM_HET
        )

    def test_expected_complexity(self):
        apps = special_app_family(2, 3)
        problem = ProblemInstance(
            apps=apps, platform=Platform.comm_homogeneous([[1.0], [2.0]])
        )
        e = expected_complexity(problem, [Criterion.PERIOD])
        assert e.complexity is Complexity.NP_COMPLETE


class TestFacade:
    def test_auto_dispatch_interval_period(self):
        apps = (Application.from_lists([2, 2], [1, 1]),)
        problem = ProblemInstance(
            apps=apps, platform=Platform.fully_homogeneous(3, [2.0])
        )
        s = minimize_period(problem)
        assert s.solver.startswith("theorem3")

    def test_auto_dispatch_one_to_one_period(self):
        apps = (Application.from_lists([2, 2], [1, 1]),)
        problem = ProblemInstance(
            apps=apps,
            platform=Platform.comm_homogeneous([[1.0], [2.0], [3.0]]),
            rule=MappingRule.ONE_TO_ONE,
        )
        s = minimize_period(problem)
        assert s.solver.startswith("theorem1")

    def test_exact_method(self):
        apps = (Application.from_lists([2, 2], [1, 1]),)
        problem = ProblemInstance(
            apps=apps, platform=Platform.fully_homogeneous(3, [2.0])
        )
        auto = minimize_period(problem)
        exact = solve_one(problem, "period", strategy="exact")
        assert auto.objective == pytest.approx(exact.objective)

    def test_heuristic_method(self):
        apps = (Application.from_lists([2, 2], [1, 1]),)
        platform = Platform.fully_heterogeneous(
            [[1.0], [2.0], [3.0]], {(0, 1): 0.5, (0, 2): 2.0, (1, 2): 1.0}
        )
        problem = ProblemInstance(apps=apps, platform=platform)
        s = solve_one(problem, "period", strategy="heuristic")
        assert not s.optimal
        problem.check_mapping(s.mapping)

    def test_latency_auto_dispatch(self):
        apps = (Application.from_lists([2, 2], [1, 1]),)
        problem = ProblemInstance(
            apps=apps, platform=Platform.comm_homogeneous([[1.0], [2.0]])
        )
        s = minimize_latency(problem)
        assert s.solver.startswith("theorem12")

    def test_unknown_method(self):
        apps = (Application.from_lists([1], [0]),)
        problem = ProblemInstance(
            apps=apps, platform=Platform.fully_homogeneous(1, [1.0])
        )
        with pytest.raises(StrategyError):
            solve_one(problem, "period", strategy="bogus")

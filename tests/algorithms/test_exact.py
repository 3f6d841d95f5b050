"""Cross-validation of the two exact solvers (brute force vs
branch-and-bound) -- two independent implementations that must agree on
every NP-hard cell of Tables 1 and 2."""

import math
from fractions import Fraction

import pytest

from repro import (
    Application,
    CommunicationModel,
    Criterion,
    InfeasibleProblemError,
    MappingRule,
    Platform,
    PlatformClass,
    ProblemInstance,
    SolverError,
    Thresholds,
)
from repro.algorithms.exact import (
    brute_force_minimize,
    exact_minimize,
    iter_mappings,
)
from repro.algorithms.registry import (
    TABLE1,
    TABLE2,
    Complexity,
    PlatformCell,
    classify_platform_cell,
    lookup,
)
from repro.core.types import IN_ENDPOINT, OUT_ENDPOINT
from repro.generators import small_random_problem

BOTH_MODELS = [CommunicationModel.OVERLAP, CommunicationModel.NO_OVERLAP]


class TestIterMappings:
    def test_counts_single_app(self):
        apps = (Application.from_lists([1, 1], [0, 0]),)
        platform = Platform.fully_homogeneous(3, [1.0])
        problem = ProblemInstance(apps=apps, platform=platform)
        mappings = list(iter_mappings(problem, max_speed_only=True))
        # partitions: {(0,1)}, {(0,0),(1,1)} -> P(3,1) + P(3,2) = 3 + 6 = 9.
        assert len(mappings) == 9

    def test_counts_one_to_one(self):
        apps = (Application.from_lists([1, 1], [0, 0]),)
        platform = Platform.fully_homogeneous(3, [1.0])
        problem = ProblemInstance(
            apps=apps, platform=platform, rule=MappingRule.ONE_TO_ONE
        )
        assert len(list(iter_mappings(problem, max_speed_only=True))) == 6

    def test_speed_enumeration(self):
        apps = (Application.from_lists([1], [0]),)
        platform = Platform.fully_homogeneous(2, [1.0, 2.0])
        problem = ProblemInstance(apps=apps, platform=platform)
        with_speeds = list(iter_mappings(problem, max_speed_only=False))
        only_max = list(iter_mappings(problem, max_speed_only=True))
        assert len(with_speeds) == 2 * len(only_max)

    def test_all_mappings_valid(self):
        problem = small_random_problem(5, n_apps=2, stage_range=(1, 2))
        for m in iter_mappings(problem, max_speed_only=True):
            problem.check_mapping(m)


#: Every cell Tables 1-2 do not call polynomial.
HARD_CELLS = [
    entry
    for entry in (*TABLE1, *TABLE2)
    if entry.complexity is not Complexity.POLYNOMIAL
]
CELL_PLATFORMS = {
    PlatformCell.PROC_HOM: PlatformClass.FULLY_HOMOGENEOUS,
    PlatformCell.SPECIAL_APP: PlatformClass.COMM_HOMOGENEOUS,
    PlatformCell.PROC_HET_COM_HOM: PlatformClass.COMM_HOMOGENEOUS,
    PlatformCell.PROC_HET_COM_HET: PlatformClass.FULLY_HETEROGENEOUS,
}


def cell_id(entry) -> str:
    criteria = "+".join(c.value for c in entry.criteria)
    return f"{criteria}-{entry.rule.value}-{entry.cell.value}"


def cell_instance(entry, seed: int) -> ProblemInstance:
    """A small random instance inside one registry cell: its platform
    class and rule, homogeneous communication-free pipelines for
    ``special-app``, and two-mode processors for the multi-criteria
    (Table 2) rows."""
    problem = small_random_problem(
        seed,
        platform_class=CELL_PLATFORMS[entry.cell],
        rule=entry.rule,
        model=BOTH_MODELS[seed % 2],
        n_apps=1 + seed % 2,
        stage_range=(1, 3),
        n_modes=2 if entry in TABLE2 else 1,
    )
    if entry.cell is PlatformCell.SPECIAL_APP:
        problem = ProblemInstance(
            apps=tuple(
                Application.homogeneous(app.n_stages, work=app.stages[0].work)
                for app in problem.apps
            ),
            platform=problem.platform,
            rule=problem.rule,
            model=problem.model,
        )
    assert classify_platform_cell(problem) is entry.cell
    return problem


def cell_question(entry, problem, seed: int):
    """The ``(criterion, thresholds)`` one cell asks: the single
    criterion of a Table 1 row; for Table 2 rows, energy (or, on the
    period/latency row, one of the two) under bounds a quarter above the
    optima of the others, each bound met by some mapping."""
    if len(entry.criteria) == 1:
        return entry.criteria[0], Thresholds()

    def loose(criterion, thresholds=Thresholds()):
        best = brute_force_minimize(problem, criterion, thresholds)
        return 1.25 * best.objective

    if Criterion.ENERGY not in entry.criteria:
        if seed % 2:
            return Criterion.PERIOD, Thresholds(latency=loose(Criterion.LATENCY))
        return Criterion.LATENCY, Thresholds(period=loose(Criterion.PERIOD))
    thresholds = Thresholds(period=loose(Criterion.PERIOD))
    if Criterion.LATENCY in entry.criteria:
        thresholds = Thresholds(
            period=thresholds.period,
            latency=loose(Criterion.LATENCY, thresholds),
        )
    return Criterion.ENERGY, thresholds


def exact_value(problem, mapping, criterion) -> Fraction:
    """One criterion of a mapping in exact rational arithmetic, every
    input taken at its exact binary value.  Tied optima (interchangeable
    processors, equal interval works) can round differently in the
    solvers' float sums; here they compare equal."""
    platform = problem.platform
    if criterion is Criterion.ENERGY:
        alpha = Fraction(problem.energy_model.alpha)
        return sum(
            Fraction(platform.processor(x.proc).static_energy)
            + Fraction(x.speed) ** alpha
            for x in mapping.assignments
        )
    worst = Fraction(0)
    for a, app in enumerate(problem.apps):
        parts = mapping.for_app(a)
        chain = [IN_ENDPOINT, *(x.proc for x in parts), OUT_ENDPOINT]
        cycles, latency = [], Fraction(0)
        for j, x in enumerate(parts):
            lo, hi = x.interval
            t_in = Fraction(app.input_size(lo)) / Fraction(
                platform.bandwidth(chain[j], x.proc, a)
            )
            t_comp = sum(map(Fraction, app.works[lo : hi + 1])) / Fraction(x.speed)
            t_out = Fraction(app.output_size(hi)) / Fraction(
                platform.bandwidth(x.proc, chain[j + 2], a)
            )
            if problem.model is CommunicationModel.OVERLAP:
                cycles.append(max(t_in, t_comp, t_out))
            else:
                cycles.append(t_in + t_comp + t_out)
            latency += (t_in if j == 0 else 0) + t_comp + t_out
        value = max(cycles) if criterion is Criterion.PERIOD else latency
        worst = max(worst, Fraction(app.weight) * value)
    return worst


class TestHardCellsMatchBruteForce:
    """Conformance: on every cell the registry calls NP-complete or
    NP-hard, branch-and-bound finds exactly the brute-force optimum.

    "Exactly" is taken in rational arithmetic: branch-and-bound
    accumulates its objective in search order, brute force reads the
    evaluation kernel's, and the two float sums can differ in the last
    bit (see ``test_reported_objectives_agree_to_rounding``)."""

    @pytest.mark.parametrize("entry", HARD_CELLS, ids=cell_id)
    def test_exact_equals_brute_force(self, entry):
        for seed in range(4):
            problem = cell_instance(entry, seed)
            criterion, thresholds = cell_question(entry, problem, seed)
            bf = brute_force_minimize(problem, criterion, thresholds)
            bb = exact_minimize(problem, criterion, thresholds)
            assert exact_value(problem, bb.mapping, criterion) == exact_value(
                problem, bf.mapping, criterion
            ), seed
            assert bb.optimal and bf.optimal
            assert math.isclose(bb.objective, bf.objective, rel_tol=1e-12)

    def test_reported_objectives_agree_to_rounding(self):
        """The one-to-one proc-hom tri-criteria cell, seed 3: both
        solvers find an energy optimum of the same rational value, but
        the branch-and-bound objective (summed in placement order) and
        the kernel's (summed in processor order) differ in the last
        bit."""
        entry = lookup(
            (Criterion.PERIOD, Criterion.LATENCY, Criterion.ENERGY),
            MappingRule.ONE_TO_ONE,
            PlatformCell.PROC_HOM,
        )
        problem = cell_instance(entry, 3)
        criterion, thresholds = cell_question(entry, problem, 3)
        bf = brute_force_minimize(problem, criterion, thresholds)
        bb = exact_minimize(problem, criterion, thresholds)
        assert exact_value(problem, bb.mapping, criterion) == exact_value(
            problem, bf.mapping, criterion
        )
        assert bb.objective != bf.objective
        assert bb.objective == pytest.approx(bf.objective, rel=1e-15)

    def test_every_hard_cell_is_covered(self):
        assert len(HARD_CELLS) == 26
        assert {e.cell for e in HARD_CELLS} == set(PlatformCell)
        assert {e.rule for e in HARD_CELLS} == set(MappingRule)


class TestBranchAndBoundBehaviour:
    def test_infeasible_thresholds(self):
        problem = small_random_problem(31)
        with pytest.raises(InfeasibleProblemError):
            exact_minimize(
                problem, Criterion.PERIOD, Thresholds(latency=1e-9)
            )

    def test_node_limit(self):
        problem = small_random_problem(32, n_apps=2, stage_range=(3, 4))
        with pytest.raises(SolverError, match="node limit"):
            exact_minimize(problem, Criterion.PERIOD, node_limit=3)

    def test_solution_is_valid_and_consistent(self):
        problem = small_random_problem(33)
        s = exact_minimize(problem, Criterion.PERIOD)
        problem.check_mapping(s.mapping)
        assert s.objective == pytest.approx(s.values.period)
        assert s.stats["nodes"] >= 1

    def test_symmetry_breaking_reduces_nodes(self):
        problem = small_random_problem(
            34, platform_class=PlatformClass.FULLY_HOMOGENEOUS
        )
        s = exact_minimize(problem, Criterion.PERIOD)
        # With 6+ identical processors, full enumeration would explode;
        # equivalence classes keep it tiny.
        assert s.stats["nodes"] < 20000

    def test_energy_criterion_defaults_to_mode_enumeration(self):
        apps = (Application.from_lists([4], [0]),)
        platform = Platform.fully_homogeneous(1, [1.0, 2.0])
        problem = ProblemInstance(apps=apps, platform=platform)
        s = exact_minimize(problem, Criterion.ENERGY)
        # Cheapest mode wins when no period bound applies.
        assert s.objective == pytest.approx(1.0)

    def test_fix_max_speed_override(self):
        apps = (Application.from_lists([4], [0]),)
        platform = Platform.fully_homogeneous(1, [1.0, 2.0])
        problem = ProblemInstance(apps=apps, platform=platform)
        s = exact_minimize(
            problem, Criterion.ENERGY, fix_max_speed=True
        )
        assert s.objective == pytest.approx(4.0)

"""Campaign spec parsing and validation (``repro.experiments.spec``)."""

import json

import pytest

from repro.core.types import CommunicationModel, MappingRule, PlatformClass
from repro.experiments import (
    CampaignSpec,
    CampaignSpecError,
    ScenarioGrid,
    SolverSpec,
    load_spec,
)
from repro.experiments.cache import solver_digest

MINIMAL = {
    "name": "mini",
    "scenarios": {"platforms": ["fully-homogeneous"]},
    "solvers": [{"name": "registry"}],
}


def spec_dict(**overrides):
    payload = {
        "name": "sweep",
        "scenarios": {
            "platforms": ["fully-homogeneous", "comm-homogeneous"],
            "models": ["overlap", "no-overlap"],
            "seeds": 2,
        },
        "solvers": [
            {"name": "registry", "objective": "period"},
            {"name": "greedy", "objective": "period", "method": "heuristic"},
        ],
    }
    payload.update(overrides)
    return payload


class TestParsing:
    def test_minimal_defaults(self):
        spec = CampaignSpec.from_dict(MINIMAL)
        assert spec.name == "mini"
        assert spec.grid.models == (CommunicationModel.OVERLAP,)
        assert spec.grid.rules == (MappingRule.INTERVAL,)
        assert spec.grid.apps == (2,)
        assert spec.grid.seeds == (0,)
        assert spec.solvers[0].objective == "period"
        assert spec.solvers[0].method == "registry"
        assert spec.n_cells == 1

    def test_cross_product_counts(self):
        spec = CampaignSpec.from_dict(spec_dict())
        assert len(spec.grid) == 2 * 2 * 2
        assert spec.n_cells == 8 * 2
        assert len(spec.scenarios()) == 8
        assert len(spec.cells()) == 16

    def test_seeds_explicit_list(self):
        payload = spec_dict()
        payload["scenarios"]["seeds"] = [3, 7]
        spec = CampaignSpec.from_dict(payload)
        assert spec.grid.seeds == (3, 7)

    def test_scenario_order_deterministic(self):
        spec = CampaignSpec.from_dict(spec_dict())
        assert spec.scenarios() == spec.scenarios()

    def test_to_dict_round_trip(self):
        spec = CampaignSpec.from_dict(spec_dict())
        again = CampaignSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_scenario_problem_is_deterministic(self):
        scenario = CampaignSpec.from_dict(spec_dict()).scenarios()[0]
        from repro.io import problem_to_dict

        assert problem_to_dict(scenario.problem()) == problem_to_dict(
            scenario.problem()
        )

    def test_solver_thresholds(self):
        solver = SolverSpec.from_dict(
            {"name": "e", "objective": "energy", "max_period": 5}
        )
        thresholds = solver.thresholds()
        assert thresholds is not None and thresholds.period == 5.0
        assert SolverSpec.from_dict({"name": "p"}).thresholds() is None


class TestValidationErrors:
    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda d: d.pop("name"), "name"),
            (lambda d: d.pop("scenarios"), "scenarios"),
            (lambda d: d.pop("solvers"), "solvers"),
            (lambda d: d.update(extra=1), "unknown key"),
            (lambda d: d.update(solvers=[]), "must not be empty"),
            (lambda d: d["scenarios"].update(platforms=[]), "must not be empty"),
            (lambda d: d["scenarios"].update(platforms=["mars"]), "invalid value"),
            (lambda d: d["scenarios"].update(bogus=[1]), "unknown key"),
            (lambda d: d["scenarios"].update(seeds=0), ">= 1"),
            (lambda d: d["scenarios"].update(apps=["two"]), "ints"),
            (lambda d: d["scenarios"].update(stage_range=[4, 2]), "stage_range"),
            (lambda d: d["scenarios"].update(models="overlap"), "must be a list"),
        ],
    )
    def test_malformed_spec(self, mutate, fragment):
        payload = spec_dict()
        mutate(payload)
        with pytest.raises(CampaignSpecError) as err:
            CampaignSpec.from_dict(payload)
        assert fragment in str(err.value)

    @pytest.mark.parametrize(
        "solver, fragment",
        [
            ({}, "name"),
            ({"name": ""}, "name"),
            ({"name": "x", "objective": "speed"}, "unknown objective"),
            ({"name": "x", "method": "magic"}, "unknown method"),
            ({"name": "x", "objective": "energy"}, "max_period"),
            ({"name": "x", "max_period": -1}, "positive"),
            ({"name": "x", "max_period": "soon"}, "number"),
            ({"name": "x", "surprise": 1}, "unknown key"),
        ],
    )
    def test_malformed_solver(self, solver, fragment):
        with pytest.raises(CampaignSpecError) as err:
            SolverSpec.from_dict(solver)
        assert fragment in str(err.value)

    def test_duplicate_solver_names(self):
        payload = spec_dict()
        payload["solvers"] = [{"name": "same"}, {"name": "same"}]
        with pytest.raises(CampaignSpecError, match="duplicate"):
            CampaignSpec.from_dict(payload)

    def test_non_mapping_root(self):
        with pytest.raises(CampaignSpecError, match="mapping"):
            CampaignSpec.from_dict(["not", "a", "dict"])  # type: ignore[arg-type]

    def test_grid_requires_platforms(self):
        with pytest.raises(CampaignSpecError, match="platforms"):
            ScenarioGrid.from_dict({})


class TestStrategyAndBudgetKeys:
    def solver(self, **entry):
        entry.setdefault("name", "s")
        return SolverSpec.from_dict(entry)

    def test_strategy_entry_parses(self):
        solver = self.solver(strategy="portfolio(greedy,local_search)")
        assert solver.strategy == "portfolio(greedy,local_search)"
        assert solver.budget is None

    def test_budget_entry_parses(self):
        solver = self.solver(
            strategy="annealing",
            budget={"time_limit": 0.5, "max_evaluations": 100, "seed": 3},
        )
        assert solver.budget.time_limit == 0.5
        assert solver.budget.max_evaluations == 100
        assert solver.budget.seed == 3

    def test_round_trip(self):
        solver = self.solver(
            strategy="portfolio(greedy,annealing)",
            budget={"max_evaluations": 500, "seed": 1},
        )
        assert SolverSpec.from_dict(solver.to_dict()) == solver

    def test_method_and_strategy_both_rejected(self):
        with pytest.raises(CampaignSpecError, match="not both"):
            self.solver(method="heuristic", strategy="annealing")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(CampaignSpecError, match="invalid strategy"):
            self.solver(strategy="quantum_annealing")

    def test_malformed_composite_rejected(self):
        with pytest.raises(CampaignSpecError, match="invalid strategy"):
            self.solver(strategy="portfolio(greedy")

    def test_empty_strategy_rejected(self):
        with pytest.raises(CampaignSpecError, match="non-empty"):
            self.solver(strategy="")

    @pytest.mark.parametrize(
        "budget",
        [
            {"time_limit": -1},
            {"max_evaluations": 0},
            {"seed": "x"},
            {"nonsense": 1},
            "fast",
        ],
    )
    def test_bad_budgets_rejected(self, budget):
        with pytest.raises(CampaignSpecError, match="invalid budget"):
            self.solver(strategy="greedy", budget=budget)

    def test_legacy_entries_unchanged(self):
        """Old method-only entries keep the same dict form (and hence
        the same cache digests)."""
        solver = self.solver(objective="period", method="heuristic")
        assert solver.to_dict() == {
            "name": "s",
            "objective": "period",
            "method": "heuristic",
        }

    def test_engine_omitted_keeps_digest_stable(self):
        """A solver entry's dict form -- and hence its cache digest -- is
        the one recorded before the ``engine`` key was removed, so
        existing caches keep hitting."""
        solver = self.solver(
            name="y",
            strategy="local_search",
            budget={"max_evaluations": 500, "seed": 0},
        )
        assert "engine" not in solver.to_dict()
        assert solver_digest(solver.to_dict()) == (
            "b0bac18c19993cff2c9dd4491b7b0fac21c772324630c14950ff178cae166e92"
        )

    def test_campaign_with_strategy_solver(self):
        payload = spec_dict(
            solvers=[
                {"name": "registry", "objective": "period"},
                {
                    "name": "racer",
                    "objective": "period",
                    "strategy": "portfolio(greedy,local_search)",
                    "budget": {"max_evaluations": 1000, "seed": 0},
                },
            ]
        )
        spec = CampaignSpec.from_dict(payload)
        assert spec.solvers[1].strategy == "portfolio(greedy,local_search)"
        assert CampaignSpec.from_dict(spec.to_dict()) == spec


class TestLoadSpec:
    def test_dict_passthrough(self):
        assert load_spec(MINIMAL).name == "mini"

    def test_json_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_dict()))
        assert load_spec(path).n_cells == 16

    def test_yaml_file(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        path = tmp_path / "spec.yaml"
        path.write_text(yaml.safe_dump(spec_dict()))
        assert load_spec(path).n_cells == 16

    def test_example_spec_parses(self):
        pytest.importorskip("yaml")
        from pathlib import Path

        example = Path(__file__).resolve().parents[2] / "examples" / "campaign_small.yaml"
        spec = load_spec(example)
        assert len(spec.grid.platforms) >= 2
        assert len(spec.grid.models) >= 2
        assert len(spec.solvers) >= 2

    def test_stale_engine_key_rejected(self, tmp_path):
        """``engine`` is no longer a solver key: a campaign that still
        pins one fails through the unknown-key path."""
        pytest.importorskip("yaml")
        path = tmp_path / "spec.yaml"
        path.write_text(
            "name: stale\n"
            "scenarios:\n"
            "  platforms: [fully-homogeneous]\n"
            "solvers:\n"
            "  - name: climb\n"
            "    strategy: local_search\n"
            "    engine: compiled\n"
        )
        with pytest.raises(CampaignSpecError, match=r"unknown key\(s\) \['engine'\]"):
            load_spec(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CampaignSpecError, match="not found"):
            load_spec(tmp_path / "nope.yaml")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CampaignSpecError, match="invalid JSON"):
            load_spec(path)

    def test_platform_enum_values_used_in_docs_exist(self):
        # The spec format documented in docs/campaigns.md names these.
        assert {p.value for p in PlatformClass} >= {
            "fully-homogeneous",
            "comm-homogeneous",
        }

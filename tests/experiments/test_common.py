"""Tests for the experiment infrastructure."""

from __future__ import annotations

import pytest

from repro.engine.rng import RngRegistry
from repro.errors import ConfigurationError
from repro.experiments.common import Experiment, ExperimentResult, ExperimentTable, repeat


class TestExperimentTable:
    def test_render_contains_title_and_cells(self):
        table = ExperimentTable("my title", ["a", "b"], [[1, 2.5]])
        text = table.render()
        assert "my title" in text
        assert "2.5" in text

    def test_render_markdown(self):
        table = ExperimentTable("t", ["a"], [[1]])
        markdown = table.render_markdown()
        assert markdown.startswith("**t**")
        assert "| a |" in markdown


class TestExperimentResult:
    def test_add_table_copies_rows(self):
        result = ExperimentResult(name="x", description="d")
        rows = [[1]]
        result.add_table("t", ["a"], rows)
        rows[0][0] = 99
        assert result.tables[0].rows == [[1]]

    def test_render_includes_notes(self):
        result = ExperimentResult(name="x", description="d", notes=["watch this"])
        assert "watch this" in result.render(plot=False)

    def test_render_markdown_structure(self):
        result = ExperimentResult(name="x", description="d")
        result.add_table("t", ["a"], [[1]])
        markdown = result.render_markdown()
        assert markdown.startswith("### x")


class TestRepeat:
    def test_distinct_streams_per_repetition(self):
        rngs = RngRegistry(0)
        draws = repeat(lambda rng: float(rng.random()), rngs, "r", 5)
        assert len(set(draws)) == 5

    def test_reproducible_across_registries(self):
        first = repeat(lambda rng: float(rng.random()), RngRegistry(7), "r", 3)
        second = repeat(lambda rng: float(rng.random()), RngRegistry(7), "r", 3)
        assert first == second

    def test_zero_repetitions_rejected(self):
        with pytest.raises(ConfigurationError):
            repeat(lambda rng: None, RngRegistry(0), "r", 0)

    def test_matches_manual_loop(self):
        values = repeat(lambda rng: float(rng.random()), RngRegistry(11), "p", 3)
        manual = [float(RngRegistry(11).stream(f"p/{i}").random()) for i in range(3)]
        assert values == manual

    def test_order_independent_of_prior_draws(self):
        # Drawing from unrelated streams first must not perturb results.
        rngs = RngRegistry(11)
        rngs.stream("noise").random(100)
        values = repeat(lambda rng: float(rng.random()), rngs, "p", 3)
        fresh = repeat(lambda rng: float(rng.random()), RngRegistry(11), "p", 3)
        assert values == fresh


class TestExperimentEntry:
    def test_runner_invoked_with_flags(self):
        seen = {}

        def runner(*, quick: bool, seed: int) -> ExperimentResult:
            seen["quick"], seen["seed"] = quick, seed
            return ExperimentResult(name="stub", description="")

        experiment = Experiment(name="stub", artifact="a", description="d", runner=runner)
        result = experiment.run(quick=False, seed=9)
        assert result.name == "stub"
        assert seen == {"quick": False, "seed": 9}

"""Integration tests for the experiment/figure harness entry points."""

import pytest

from repro.sim import experiments as exp
from repro.sim import spec_fragment


class TestExperimentResults:
    def test_comparison_row_shape(self):
        outcome = exp.experiment_k_subsets_stability(n=5, k=2, rounds=4000)
        row = outcome.comparison_row()
        assert set(row) == {"label", "params", "paper", "measured"}
        assert outcome.experiment_id in row["label"]
        assert "[ok]" in row["measured"] or "[MISMATCH]" in row["measured"]

    def test_default_adversary_family_size(self):
        family = exp.default_adversary_family(0.5, 1.0)
        assert len(family) == 6
        family = exp.default_adversary_family(0.5, 1.0, include_stochastic=False)
        assert len(family) == 5
        # Factories produce fresh fragment dicts each call.
        a, b = family[0](), family[0]()
        assert a is not b
        assert a == b == spec_fragment("single-target", rho=0.5, beta=1.0)


class TestFigureHarness:
    def test_figure_latency_vs_rate_quick(self):
        series = exp.figure_latency_vs_rate(
            n=6, k=3, rates=(0.1, 0.3), rounds=1500
        )
        assert set(series) == {"Count-Hop", "Orchestra", "k-Cycle", "k-Clique"}
        for s in series.values():
            assert len(s.points) == 2

    def test_figure_scaling_n_quick(self):
        series = exp.figure_scaling_n(sizes=(4, 5), rho=0.2, rounds_per_station=200)
        for s in series.values():
            assert [int(v) for v in s.values()] == [4, 5]

    def test_figure_energy_usage_quick(self):
        results = exp.figure_energy_usage(n=6, k=2, rho=0.2, rounds=1200)
        assert "Orchestra" in results and "RRW (uncapped)" in results
        assert results["RRW (uncapped)"].summary.energy_per_round == pytest.approx(6.0)
        assert results["Count-Hop"].summary.energy_per_round <= 2.0 + 1e-9

    def test_figure_queue_trajectories_quick(self):
        results = exp.figure_queue_trajectories(n=7, k=3, rounds=4000)
        assert set(results) == {"below threshold", "at threshold", "above impossibility"}
        assert results["below threshold"].stable

    def test_figure_energy_tradeoff_quick(self):
        series = exp.figure_energy_tradeoff(n=8, caps=(2, 3), rounds=3000)
        assert set(series) == {"k-Cycle", "k-Clique"}
        assert all(len(s.points) == 2 for s in series.values())

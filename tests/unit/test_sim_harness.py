"""Unit tests for the simulation harness: runner, sweeps, reporting."""

import pytest

from repro.adversary import SingleTargetAdversary
from repro.algorithms import CountHop, KCycle
from repro.sim import RunResult, run_simulation, spec_fragment, sweep, worst_case_over
from repro.sim.reporting import (
    queue_trajectory_sparkline,
    series_to_csv,
    summaries_table,
    sweep_table,
    write_csv,
)


class TestRunner:
    def test_run_simulation_returns_consistent_result(self):
        result = run_simulation(CountHop(4), SingleTargetAdversary(0.4, 1.0), 1500)
        assert isinstance(result, RunResult)
        assert result.n == 4
        assert result.rounds == 1500
        assert result.summary.rounds == 1500
        assert len(result.collector.energy_series) == 1500
        assert result.summary.injected == result.collector.injected_count

    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError):
            run_simulation(CountHop(4), SingleTargetAdversary(0.4, 1.0), 0)

    def test_rejects_mismatched_adversary_binding(self):
        adversary = SingleTargetAdversary(0.4, 1.0)
        adversary.bind(7)
        with pytest.raises(ValueError, match="bound to n=7"):
            run_simulation(CountHop(4), adversary, 100)

    def test_label_override(self):
        result = run_simulation(
            CountHop(4), SingleTargetAdversary(0.4, 1.0), 200, label="custom"
        )
        assert result.summary.label == "custom"

    def test_trace_recording_toggle(self):
        with_trace = run_simulation(
            CountHop(4), SingleTargetAdversary(0.4, 1.0), 100, record_trace=True
        )
        without = run_simulation(
            CountHop(4), SingleTargetAdversary(0.4, 1.0), 100
        )
        assert with_trace.trace is not None and len(with_trace.trace) == 100
        assert without.trace is None

    def test_worst_case_over_family(self):
        factories = [
            lambda: spec_fragment("single-target", rho=0.5, beta=1.0),
            lambda: spec_fragment("round-robin", rho=0.5, beta=1.0),
        ]
        worst, results = worst_case_over(
            lambda: spec_fragment("count-hop", n=4), factories, 1000
        )
        assert len(results) == 2
        assert worst.latency == max(r.latency for r in results)


class TestSweep:
    def test_sweep_produces_one_point_per_value(self):
        series = sweep(
            "demo",
            "rho",
            [0.1, 0.3],
            lambda rho: spec_fragment("count-hop", n=4),
            lambda rho: spec_fragment("single-target", rho=rho, beta=1.0),
            800,
        )
        assert series.values() == [0.1, 0.3]
        assert len(series.latencies()) == 2
        assert len(series.as_rows()) == 2
        assert all(row["series"] == "demo" for row in series.as_rows())

    def test_sweep_rounds_can_depend_on_value(self):
        series = sweep(
            "demo",
            "n",
            [4, 5],
            lambda n: spec_fragment("k-cycle", n=int(n), k=2),
            lambda n: spec_fragment("single-target", rho=0.1, beta=1.0),
            lambda n: int(100 * n),
        )
        assert series.points[0].result.rounds == 400
        assert series.points[1].result.rounds == 500

    def test_latency_grows_with_rate_for_count_hop(self):
        series = sweep(
            "count-hop",
            "rho",
            [0.2, 0.8],
            lambda rho: spec_fragment("count-hop", n=5),
            lambda rho: spec_fragment("single-target", rho=rho, beta=2.0),
            4000,
        )
        low, high = series.latencies()
        assert high >= low


class TestReporting:
    @pytest.fixture
    def sample_results(self):
        return [
            run_simulation(CountHop(4), SingleTargetAdversary(0.4, 1.0), 500),
            run_simulation(KCycle(5, 2), SingleTargetAdversary(0.1, 1.0), 500),
        ]

    def test_summaries_table(self, sample_results):
        text = summaries_table(sample_results)
        assert "Count-Hop" in text and "k-Cycle" in text
        assert len(text.splitlines()) == 3

    def test_sweep_table_and_csv(self):
        series = sweep(
            "demo",
            "rho",
            [0.1, 0.2],
            lambda rho: spec_fragment("count-hop", n=4),
            lambda rho: spec_fragment("single-target", rho=rho, beta=1.0),
            400,
        )
        text = sweep_table(series)
        assert "series: demo" in text
        csv_text = series_to_csv({"demo": series})
        assert csv_text.startswith("series,")
        assert csv_text.count("\n") >= 3

    def test_write_csv(self, tmp_path):
        series = sweep(
            "demo",
            "rho",
            [0.1],
            lambda rho: spec_fragment("count-hop", n=4),
            lambda rho: spec_fragment("single-target", rho=rho, beta=1.0),
            200,
        )
        path = write_csv({"demo": series}, tmp_path / "figure.csv")
        assert path.exists()
        assert "latency" in path.read_text()

    def test_sparkline(self, sample_results):
        line = queue_trajectory_sparkline(sample_results[0])
        assert "peak" in line
        assert len(line) > 10

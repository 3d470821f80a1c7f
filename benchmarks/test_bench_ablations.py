"""Ablation benchmarks for three design choices of the paper's algorithms.

A1 — *Energy caps vs. the uncapped baselines*: how much latency the energy
     cap costs relative to RRW/MBTF with every station switched on.
A2 — *Orchestra's big-station (move-to-front) rule*: hot-spot traffic at
     rate 1 is exactly the case the baton-to-front mechanism exists for.
A3 — *k-Cycle group size*: the effect of the activity-segment length delta
     (the factor-4 safety margin of equation (2)) on latency.
A4 — *Adversary family width*: worst-of-family vs. single-pattern
     measurements, justifying the harness's use of an adversary family.
"""

from pathlib import Path

import pytest

from repro.adversary import (
    HotspotAdversary,
    SingleSourceSprayAdversary,
    SingleTargetAdversary,
)
from repro.algorithms import CountHop, KCycle, Orchestra
from repro.analysis import bounds
from repro.protocols import MoveBigToFront, RoundRobinWithholding
from repro.sim import run_simulation, spec_fragment, worst_case_over
from repro.sim.experiments import default_adversary_family

RESULTS_DIR = Path(__file__).parent / "results"


def test_a1_energy_cap_cost(run_once, benchmark):
    """Capped algorithms pay latency for energy: quantify against uncapped RRW."""

    def run():
        n, rho, beta, rounds = 8, 0.3, 1.0, 6000
        adversary = lambda: SingleSourceSprayAdversary(rho, beta)
        return {
            "RRW (cap n)": run_simulation(RoundRobinWithholding(n), adversary(), rounds),
            "MBTF (cap n)": run_simulation(MoveBigToFront(n), adversary(), rounds),
            "Orchestra (cap 3)": run_simulation(Orchestra(n), adversary(), rounds),
            "Count-Hop (cap 2)": run_simulation(CountHop(n), adversary(), rounds),
        }

    results = run_once(run)
    lines = [
        f"{name:<20s} latency={r.latency:6d}  E/round={r.summary.energy_per_round:5.2f}"
        for name, r in results.items()
    ]
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "a1_energy_cap_cost.txt").write_text("\n".join(lines) + "\n")
    print("\n" + "\n".join(lines))
    # The uncapped baseline is fastest; the capped algorithms trade latency
    # for a >= 2.5x reduction in energy per round.
    assert results["RRW (cap n)"].latency <= results["Count-Hop (cap 2)"].latency
    assert results["Count-Hop (cap 2)"].summary.energy_per_round <= 2.01
    assert results["RRW (cap n)"].summary.energy_per_round >= 7.9


def test_a2_orchestra_big_station_rule(run_once, benchmark):
    """Hot-spot traffic at rate 1: the move-big-to-front rule keeps queues bounded."""

    def run():
        n, beta, rounds = 6, 2.0, 8000
        hotspot = SingleTargetAdversary(1.0, beta, source=3, destination=1)
        return run_simulation(Orchestra(n), hotspot, rounds)

    result = run_once(run)
    benchmark.extra_info["max_queue"] = result.max_queue
    assert result.stable
    assert result.max_queue <= bounds.orchestra_queue_bound(6, 2.0)


@pytest.mark.parametrize("delta_scale", [1, 2])
def test_a3_k_cycle_activity_segment_length(run_once, benchmark, delta_scale):
    """Stretching the activity segment delta changes latency but not stability."""

    def run():
        n, k, beta, rounds = 9, 3, 1.0, 12000
        rho = 0.5 * bounds.k_cycle_rate_threshold(n, k)
        algorithm = KCycle(n, k)
        algorithm.delta *= delta_scale
        # Rebuild controllers with the stretched delta.
        adversary = SingleSourceSprayAdversary(rho, beta)
        return run_simulation(algorithm, adversary, rounds)

    result = run_once(run)
    benchmark.extra_info["delta_scale"] = delta_scale
    benchmark.extra_info["latency"] = result.latency
    assert result.stable


def test_a4_adversary_family_width(run_once, benchmark):
    """Worst-of-family measurements dominate any single fixed pattern."""

    def run():
        n, rho, beta, rounds = 6, 0.6, 2.0, 6000
        family = default_adversary_family(rho, beta)
        worst, results = worst_case_over(
            lambda: spec_fragment("count-hop", n=n), family, rounds
        )
        single = run_simulation(CountHop(n), SingleTargetAdversary(rho, beta), rounds)
        return worst, single

    worst, single = run_once(run)
    benchmark.extra_info["worst_latency"] = worst.latency
    benchmark.extra_info["single_pattern_latency"] = single.latency
    assert worst.latency >= single.latency

"""Benchmarks T1.1–T1.9: regenerate every row of Table 1 (as ``repro table1 --full``).

Each benchmark runs the corresponding experiment once at its full size,
asserts the paper's qualitative claim (the *shape* check) and reports the
key measured quantities through ``benchmark.extra_info`` so they appear in
``pytest-benchmark``'s JSON output next to the paper's bounds.
"""

import pytest

from repro.sim import experiments as exp


def _record(benchmark, outcome):
    benchmark.extra_info.update(
        {
            "experiment": outcome.experiment_id,
            "params": outcome.params,
            "paper": {k: str(v) for k, v in outcome.paper.items()},
            "measured": {k: str(v) for k, v in outcome.measured.items()},
            "shape_ok": outcome.shape_ok,
        }
    )
    return outcome


def test_t1_1_orchestra_queue_bound(run_once, benchmark):
    """Orchestra sustains injection rate 1 with queues below 2n^3 + beta (cap 3)."""
    outcome = _record(benchmark, run_once(exp.experiment_orchestra_queue, n=6, rounds=6000))
    assert outcome.shape_ok
    assert outcome.measured["max_queue"] <= outcome.paper["queue_bound"]


def test_t1_2_impossibility_energy_cap_2(run_once, benchmark):
    """Theorem 2: no cap-2 algorithm is stable at injection rate 1."""
    outcome = _record(benchmark, run_once(exp.experiment_cap2_impossibility, n=6, rounds=6000))
    assert outcome.shape_ok


def test_t1_3_count_hop_latency(run_once, benchmark):
    """Count-Hop: universal at cap 2, latency ~ 2(n^2+beta)/(1-rho)."""
    outcome = _record(
        benchmark, run_once(exp.experiment_count_hop_latency, n=6, rho=0.5, rounds=8000)
    )
    assert outcome.shape_ok


def test_t1_4_adjust_window_latency(run_once, benchmark):
    """Adjust-Window: plain-packet universal routing at cap 2."""
    outcome = _record(
        benchmark, run_once(exp.experiment_adjust_window_latency, n=4, rho=0.4)
    )
    assert outcome.shape_ok


def test_t1_5_k_cycle_latency(run_once, benchmark):
    """k-Cycle: latency O(n) below injection rate (k-1)/(n-1)."""
    outcome = _record(
        benchmark, run_once(exp.experiment_k_cycle_latency, n=9, k=4, rounds=12000)
    )
    assert outcome.shape_ok


def test_t1_6_impossibility_oblivious(run_once, benchmark):
    """Theorem 6: k-oblivious algorithms diverge above injection rate k/n."""
    outcome = _record(
        benchmark, run_once(exp.experiment_oblivious_impossibility, n=9, k=3, rounds=15000)
    )
    assert outcome.shape_ok


def test_t1_7_k_clique_latency(run_once, benchmark):
    """k-Clique: latency <= 8(n^2/k)(1+beta/2k) below its rate threshold."""
    outcome = _record(
        benchmark, run_once(exp.experiment_k_clique_latency, n=8, k=4, rounds=20000)
    )
    assert outcome.shape_ok


def test_t1_8_k_subsets_stability(run_once, benchmark):
    """k-Subsets: stable at rate k(k-1)/(n(n-1)) with queues below 2 C(n,k)(n^2+beta)."""
    outcome = _record(
        benchmark, run_once(exp.experiment_k_subsets_stability, n=6, k=3, rounds=20000)
    )
    assert outcome.shape_ok


def test_t1_9_impossibility_oblivious_direct(run_once, benchmark):
    """Theorem 9: oblivious direct algorithms diverge above k(k-1)/(n(n-1))."""
    outcome = _record(
        benchmark,
        run_once(exp.experiment_oblivious_direct_impossibility, n=6, k=3, rounds=20000),
    )
    assert outcome.shape_ok


def test_table1_full_regeneration(run_once, benchmark):
    """Regenerate the whole of Table 1 (quick sizes) in one go and print it."""
    table, results = run_once(exp.regenerate_table1, quick=True)
    benchmark.extra_info["table"] = table
    assert len(results) == 9
    assert all(r.shape_ok for r in results)
    print("\n" + table)

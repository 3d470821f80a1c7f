"""Golden regression tests: pin Table 1 rows and the F2 series to disk.

The simulations are deterministic, so small Table 1 rows and the prefix of
the F2 scaling sweep can be pinned against checked-in expected values.
Any change to the engine, the algorithms, the adversaries or the
orchestration layer that shifts a measured number — even by one round of
latency — fails here, which is the safety net that lets the harness be
refactored (e.g. rewired onto the parallel executor) with confidence.

To intentionally re-baseline after a behaviour-changing fix, regenerate
``table1_rows_expected.json``, ``f1_k_clique_rho09_expected.json`` and
``ring_summaries_expected.json`` with the parameters below, copy ``benchmarks/results/f2_scaling_n.csv`` over
``f2_scaling_n_expected.csv``, and save the stdout of ``python -m repro
table1 --full`` as ``table1_full_expected.txt`` (CI diffs against it).
"""

import csv
import json
from pathlib import Path

import pytest

from repro.sim import RunSpec, execute_spec, spec_fragment
from repro.sim import experiments as exp

GOLDEN_DIR = Path(__file__).parent

TABLE1_CASES = {
    "T1.1": lambda: exp.experiment_orchestra_queue(n=4, rounds=800),
    "T1.3": lambda: exp.experiment_count_hop_latency(n=4, rho=0.5, rounds=1000),
    # Adjust-Window picks by destination far below its queue heads.
    "T1.4": lambda: exp.experiment_adjust_window_latency(n=3, rho=0.4),
    "T1.5": lambda: exp.experiment_k_cycle_latency(n=5, k=2, rounds=800),
    # k-Cycle connectors withhold a growing backlog of packets leaving their group.
    "T1.6": lambda: exp.experiment_oblivious_impossibility(n=6, k=2, rounds=8000),
    "T1.8": lambda: exp.experiment_k_subsets_stability(n=4, k=2, rounds=1000),
}


def _assert_measured_equal(measured: dict, expected: dict, context: str) -> None:
    assert set(measured) == set(expected), context
    for key, want in expected.items():
        got = measured[key]
        if isinstance(want, float):
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12), f"{context}: {key}"
        else:
            assert got == want, f"{context}: {key}"


@pytest.mark.parametrize("row", sorted(TABLE1_CASES))
def test_table1_row_matches_golden(row):
    expected = json.loads((GOLDEN_DIR / "table1_rows_expected.json").read_text())
    result = TABLE1_CASES[row]()
    assert result.shape_ok, f"{row} lost its qualitative shape"
    _assert_measured_equal(result.measured, expected[row], row)


def test_table1_row_matches_golden_in_parallel():
    """The parallel executor reproduces the pinned rows bit-identically."""
    expected = json.loads((GOLDEN_DIR / "table1_rows_expected.json").read_text())
    result = exp.experiment_orchestra_queue(n=4, rounds=800, workers=2)
    _assert_measured_equal(result.measured, expected["T1.1"], "T1.1 (workers=2)")


def test_f1_k_clique_backlog_run_matches_golden():
    """F1's k-Clique point at rho=0.9 builds a backlog of thousands of
    packets, so every pick searches the queue by destination."""
    expected = json.loads((GOLDEN_DIR / "f1_k_clique_rho09_expected.json").read_text())
    spec = RunSpec.from_fragments(
        spec_fragment("k-clique", n=8, k=4),
        spec_fragment("spray", rho=0.9, beta=1.0),
        6000,
        label="k-Clique[rho=0.9]",
    )
    _assert_measured_equal(execute_spec(spec).summary.as_dict(), expected, "F1 k-Clique")


#: The always-on token ring: RRW, OF-RRW and MBTF, 3,000 rounds each.
#: Every case runs lowered spans; the MBTF case's low big threshold
#: moves holders to the front of the ring inside them.
RING_CASES = {
    "RRW n=16 random rho=0.9": (
        spec_fragment("rrw", n=16),
        spec_fragment("random", rho=0.9, beta=2.0, seed=9),
    ),
    "OF-RRW n=8 spray rho=0.25": (
        spec_fragment("of-rrw", n=8),
        spec_fragment("spray", rho=0.25, beta=4.0),
    ),
    "OF-RRW n=32 random rho=0.9": (
        spec_fragment("of-rrw", n=32),
        spec_fragment("random", rho=0.9, beta=2.0, seed=9),
    ),
    "MBTF n=8 big_threshold=2 random rho=0.9": (
        spec_fragment("mbtf", n=8, big_threshold=2),
        spec_fragment("random", rho=0.9, beta=2.0, seed=9),
    ),
}


@pytest.mark.parametrize("label", sorted(RING_CASES))
def test_token_ring_summary_matches_golden(label):
    expected = json.loads((GOLDEN_DIR / "ring_summaries_expected.json").read_text())
    algorithm, adversary = RING_CASES[label]
    spec = RunSpec.from_fragments(algorithm, adversary, 3000, label=label)
    _assert_measured_equal(execute_spec(spec).summary.as_dict(), expected[label], label)


def test_f2_scaling_prefix_matches_checked_in_csv():
    """Regenerating the first F2 sizes reproduces the checked-in series.

    The expected file is a snapshot of ``benchmarks/results/f2_scaling_n.csv``
    (sizes 4..10); regenerating the n=4 and n=6 points with the same
    parameters as the benchmark must reproduce those rows exactly.
    """
    with (GOLDEN_DIR / "f2_scaling_n_expected.csv").open() as fh:
        expected_rows = [row for row in csv.DictReader(fh) if row["n"] in ("4", "6")]
    assert expected_rows, "golden CSV lost its n=4/n=6 rows"

    series = exp.figure_scaling_n(sizes=(4, 6), rho=0.25)
    regenerated = {
        (row["series"], str(row["n"])): row
        for s in series.values()
        for row in s.as_rows()
    }
    assert len(regenerated) == len(expected_rows)
    for want in expected_rows:
        got = regenerated[(want["series"], want["n"])]
        context = f"{want['series']} n={want['n']}"
        assert str(got["latency"]) == want["latency"], context
        assert str(got["max_queue"]) == want["max_queue"], context
        assert float(got["energy_per_round"]) == pytest.approx(
            float(want["energy_per_round"]), abs=1e-9
        ), context
        assert str(got["stable"]) == want["stable"], context

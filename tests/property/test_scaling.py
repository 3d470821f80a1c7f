"""Scaling guards: no cost may grow faster than the work it serves.

Each case runs one workload at two sizes and asserts a ratio of counts or
bytes, never of wall time, so it cannot flap on a loaded host.

* Packet ledger: the metrics collector keeps per-packet state only while
  a packet is queued.  Count-Hop against a stable spray adversary keeps a
  bounded backlog (``max_queue`` 38 at both horizons), so quadrupling the
  horizon must leave the ledger — and its pickled bytes — about flat.
  The per-round series still grow with the horizon by design, so the
  guard pins the ledger, not the whole ``RunResult``.
"""

import pickle

import pytest

from repro.sim import RunSpec, execute_spec, spec_fragment

SHORT, LONG = 5_000, 20_000


@pytest.fixture(scope="module")
def count_hop_runs():
    """Count-Hop n=6 against spray at a short and a 4x longer horizon."""
    return {
        rounds: execute_spec(
            RunSpec.from_fragments(
                spec_fragment("count-hop", n=6),
                spec_fragment("spray", rho=0.3, beta=2.0),
                rounds,
            )
        )
        for rounds in (SHORT, LONG)
    }


class TestPacketLedger:
    @pytest.mark.parametrize("rounds", [SHORT, LONG])
    def test_ledger_holds_only_the_backlog(self, count_hop_runs, rounds):
        result = count_hop_runs[rounds]
        collector = result.collector
        assert (
            len(collector.records)
            == collector.pending_count
            <= result.summary.max_queue
        )

    def test_pickled_ledger_stays_flat_when_the_horizon_grows_4x(
        self, count_hop_runs
    ):
        short, long = (
            len(pickle.dumps(count_hop_runs[rounds].collector.records))
            for rounds in (SHORT, LONG)
        )
        assert long <= 1.5 * short, (short, long)

"""Property-based end-to-end tests: system invariants under random traffic.

For randomly drawn (small) systems, adversary types and seeds, short runs
of each algorithm must preserve the global invariants of the model:

* the engine-enforced energy cap is never exceeded (the run completes),
* delivered + queued packets account for every injection (no packet is
  lost or duplicated),
* every recorded delay is non-negative and no packet is delivered before
  it was injected.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary import UniformRandomAdversary
from repro.algorithms import CountHop, KClique, KCycle, Orchestra
from repro.channel.feedback import ChannelOutcome
from repro.protocols import MoveBigToFront
from repro.sim import run_simulation


def _total_queued(result):
    return result.collector.total_queue_series[-1]


ALGORITHM_BUILDERS = [
    lambda n, k: Orchestra(n),
    lambda n, k: CountHop(n),
    lambda n, k: KCycle(n, k),
    lambda n, k: KClique(n, k),
    lambda n, k: MoveBigToFront(n),
]


@given(
    builder_index=st.integers(0, len(ALGORITHM_BUILDERS) - 1),
    n=st.integers(4, 8),
    k=st.integers(2, 3),
    rho=st.floats(0.05, 0.5),
    beta=st.floats(1.0, 3.0),
    seed=st.integers(0, 1000),
)
@settings(max_examples=30, deadline=None)
def test_packet_conservation_and_causality(builder_index, n, k, rho, beta, seed):
    algorithm = ALGORITHM_BUILDERS[builder_index](n, k)
    adversary = UniformRandomAdversary(rho, beta, seed=seed)
    result = run_simulation(algorithm, adversary, 600)

    collector = result.collector
    # Conservation: every injected packet is either delivered or still queued
    # at some station (never lost, never duplicated).
    assert collector.delivered_count + _total_queued(result) == collector.injected_count
    assert len(collector.undelivered_packets()) == collector.pending_count
    assert len(collector.records) == collector.pending_count
    # Causality: delays are non-negative and bounded by the run length.
    assert all(0 <= d <= result.rounds for d in collector.delays)
    # Energy: the recorded maximum respects the algorithm's declared cap
    # (the engine would have raised otherwise).
    assert result.summary.max_energy <= algorithm.energy_cap


@given(
    n=st.integers(4, 7),
    rho=st.floats(0.05, 0.4),
    seed=st.integers(0, 50),
)
@settings(max_examples=20, deadline=None)
def test_trace_outcomes_are_collision_free_for_token_protocols(n, rho, seed):
    """The withholding protocols never cause collisions: only one station may transmit."""
    adversary = UniformRandomAdversary(rho, 2.0, seed=seed)
    result = run_simulation(MoveBigToFront(n), adversary, 400, record_trace=True)
    assert all(e.outcome is not ChannelOutcome.COLLISION for e in result.trace)


@given(
    n=st.integers(4, 7),
    k=st.integers(2, 3),
    rho=st.floats(0.05, 0.3),
    seed=st.integers(0, 50),
)
@settings(max_examples=20, deadline=None)
def test_paper_algorithms_never_collide(n, k, rho, seed):
    """All six paper algorithms coordinate transmissions without collisions."""
    adversary = UniformRandomAdversary(rho, 2.0, seed=seed)
    for builder in (lambda: Orchestra(n), lambda: CountHop(n), lambda: KCycle(n, k)):
        result = run_simulation(builder(), adversary, 300, record_trace=True)
        assert all(e.outcome is not ChannelOutcome.COLLISION for e in result.trace)
        adversary = UniformRandomAdversary(rho, 2.0, seed=seed + 1)

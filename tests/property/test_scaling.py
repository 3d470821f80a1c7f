"""Scaling guards: no cost may grow faster than the work it serves.

Each case runs one workload at two sizes and asserts a ratio or a slope
of counts or bytes, never of wall time, so it cannot flap on a loaded
host.

* Packet ledger: the metrics collector keeps per-packet state only while
  a packet is queued.  Count-Hop against a stable spray adversary keeps a
  bounded backlog (``max_queue`` 38 at both horizons), so quadrupling the
  horizon must leave the ledger — and its pickled bytes — about flat.
  The per-round series still grow with the horizon by design, so the
  guard pins the ledger, not the whole ``RunResult``.
* Controller state: an Orchestra conductor keeps only the schedules of
  its current and next seasons and one teach table, not every packet id
  it ever scheduled.  Against uniform traffic at rho=0.9 the backlog is
  92 and 101 packets at the two horizons, so quadrupling the horizon
  must leave the pickled controllers about flat.
* Per-round memory: a run records each round once, as one entry of the
  collector's total-queue series and one of its energy series, and
  keeps nothing else per round.  On the ledger guard's workload, the
  peak memory traced while a fresh block engine runs 20,000 rounds may
  exceed the peak of a 5,000-round run by less than 24 B a round.  Two
  lists of 8-byte pointers, over-allocated by an eighth, take 18 B a
  round and the delays about 2.5 B: Python 3.11 reads 20.1 B, and a
  third per-round list (a second copy of the awake counts) reads 29.5 B.
* Packet queue: Count-Hop, Adjust-Window, k-Cycle connectors and
  k-Clique pick the oldest packet for a destination (or a set of them),
  usually far below the queue head, then remove it by identity.  Each
  pick-and-remove must cost the same number of Python calls whether 500
  or 2,000 packets sit ahead of it.  ``Packet`` compares as a tuple, in
  C, so the guard's packets come from a subclass whose ``__eq__`` is a
  Python call: a scan that compares packets by value then counts.
* Lowered k-Cycle spans: a forward connector sends only its oldest old
  packet addressed inside its group, usually from below out-of-group
  packets it relays on later.  Its simulated pick keeps a cursor for
  the span, so each extra lowered round must cost the same number of
  Python calls whether 500 or 2,000 such packets sit ahead.  The guard's
  packets read their destination through a Python call, so a pick that
  rescans them counts.
* Service: ``repro serve`` advances a job from each result as it lands,
  so the server's work per landed result must not depend on how many
  specs the job or the server has seen.  Work is counted as Python lines
  executed in ``repro.sim`` on every thread, the job monitor's included.
"""

import itertools
import os
import pickle
import sys
import threading
import time
import tracemalloc

import pytest

import repro.sim
from repro.adversary import SingleSourceSprayAdversary
from repro.adversary.base import InjectionPlan
from repro.adversary.stochastic import UniformRandomAdversary
from repro.channel.block import BlockEngine
from repro.channel.packet import Packet, PacketFactory
from repro.core.queues import PacketQueue
from repro.core.registry import make_algorithm
from repro.sim import (
    FailedResult,
    RunSpec,
    SweepService,
    execute_spec,
    spec_fragment,
    status_record,
)

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


def _pickled_orchestra_controllers(rounds: int) -> int:
    """Pickled bytes of Orchestra n=8's controllers after a block run."""
    algorithm = make_algorithm("orchestra", n=8)
    adversary = UniformRandomAdversary(0.9, 2.0, seed=1, rng_version=2)
    adversary.bind(algorithm.n, PacketFactory())
    controllers = algorithm.build_controllers()
    engine = BlockEngine(controllers, adversary)
    engine.run(rounds)
    assert engine.negotiation()["block_compilation"]
    return len(pickle.dumps(controllers))


class TestControllerState:
    def test_pickled_orchestra_controllers_stay_flat_when_the_horizon_grows_4x(
        self,
    ):
        short, long = (_pickled_orchestra_controllers(r) for r in (SHORT, LONG))
        assert long <= 1.5 * short, (short, long)


#: Bound on traced peak bytes per extra round (see the module docstring).
PER_ROUND_BYTES = 24


def _count_hop_block_engine() -> BlockEngine:
    algorithm = make_algorithm("count-hop", n=6)
    adversary = SingleSourceSprayAdversary(0.3, 2.0)
    adversary.bind(algorithm.n, PacketFactory())
    engine = BlockEngine(algorithm.build_controllers(), adversary)
    assert engine.negotiation()["block_compilation"]
    return engine


def _traced_peak(rounds: int) -> int:
    """Peak bytes traced while a fresh engine runs ``rounds`` rounds."""
    engine = _count_hop_block_engine()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        engine.run(rounds)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


class TestPerRoundMemory:
    def test_traced_peak_grows_by_under_24_bytes_a_round(self):
        # Warm-up: the first run in a process also builds caches and
        # imports that the traced runs must not count.
        _count_hop_block_engine().run(SHORT)
        short, long = (_traced_peak(rounds) for rounds in (SHORT, LONG))
        per_round = (long - short) / (LONG - SHORT)
        assert per_round < PER_ROUND_BYTES, (short, long, per_round)


class _PythonCalls:
    """Counts Python function calls on this thread while active."""

    def __init__(self) -> None:
        self.calls = 0

    def _profile(self, frame, event, arg):
        if event == "call":
            self.calls += 1

    def __enter__(self) -> "_PythonCalls":
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc_info) -> None:
        sys.setprofile(None)


class _CountedPacket(Packet):
    """A packet whose value comparison runs as one Python call."""

    __slots__ = ()

    def __eq__(self, other):
        return tuple.__eq__(self, other)

    __hash__ = Packet.__hash__


PICKS = 100
PICKED = frozenset({1, 2})

#: pick -> (argument, whether the picked packets are new rather than old)
QUEUE_PICKS = {
    "peek_old_for": (1, False),
    "peek_any_for": (1, True),
    "peek_old_in": (PICKED, False),
}


def _calls_per_pick(name: str, backlog: int) -> float:
    """Python calls per ``pick`` + ``remove`` of a packet with ``backlog``
    packets for another destination ahead of it, half of them old."""
    arg, picked_new = QUEUE_PICKS[name]
    queue = PacketQueue()
    ids = itertools.count()

    def packet(destination: int) -> _CountedPacket:
        return _CountedPacket(destination, injected_at=0, origin=0, packet_id=next(ids))

    for _ in range(backlog // 2):
        queue.push(packet(0))
    queue.age_all()
    for _ in range(backlog - backlog // 2):
        queue.push(packet(0))
    for i in range(2 * (PICKS + 1)):
        queue.push(packet(1 + i % 2))
    if not picked_new:
        queue.age_all()
    pick = getattr(queue, name)
    # One untimed pick: a queue indexes its destinations once, on the
    # first destination query, at a cost its pushes already paid for.
    queue.remove(pick(arg))
    with _PythonCalls() as counter:
        for _ in range(PICKS):
            queue.remove(pick(arg))
    return counter.calls / PICKS


class TestQueuePicks:
    @pytest.mark.parametrize("name", sorted(QUEUE_PICKS))
    def test_pick_and_remove_cost_stays_flat_when_the_backlog_grows_4x(self, name):
        small, large = (_calls_per_pick(name, backlog) for backlog in (500, 2_000))
        assert large <= 1.5 * small, (small, large)


class _DestinationCallPacket(Packet):
    """A packet whose destination is read through one Python call."""

    __slots__ = ()

    @property
    def destination(self):
        return tuple.__getitem__(self, 0)


#: Lowered spans of 2 and 6 super-periods of k-Cycle n=8 k=4 (3 x 28 rounds).
SHORT_SPAN, LONG_SPAN = 168, 504


def _calls_per_lowered_round(backlog: int) -> float:
    """Python calls per round that a longer lowered k-Cycle span adds, when
    group 0's forward connector holds ``backlog`` old packets for group 1
    ahead of more than enough old packets for group 0."""
    algorithm = make_algorithm("k-cycle", n=8, k=4)
    controllers = algorithm.build_controllers()
    driver = controllers[0].block_driver
    connector = driver._forward_connector[0]
    queue = controllers[connector].queue
    ids = itertools.count()

    def packet(destination: int) -> _DestinationCallPacket:
        return _DestinationCallPacket(
            destination, injected_at=0, origin=connector, packet_id=next(ids)
        )

    for _ in range(backlog):
        queue.push(packet(5))  # leaves group 0; sent while group 1 is on
    for _ in range(LONG_SPAN):
        queue.push(packet(1))  # the connector's picks while group 0 is on
    queue.age_all()
    plan = InjectionPlan(0, LONG_SPAN, [0] * (LONG_SPAN + 1), [], [])

    def calls(stop: int) -> int:
        with _PythonCalls() as counter:
            segment = driver.lower_segment(0, stop, plan)
        assert segment.stop == stop
        return counter.calls

    return (calls(LONG_SPAN) - calls(SHORT_SPAN)) / (LONG_SPAN - SHORT_SPAN)


class TestLoweredConnectorPicks:
    def test_lowered_round_cost_stays_flat_when_the_backlog_grows_4x(self):
        small, large = (_calls_per_lowered_round(b) for b in (500, 2_000))
        assert large <= 1.5 * small, (small, large)


class _SimLineCounter:
    """Counts line events in ``repro.sim`` on every thread while on."""

    def __init__(self) -> None:
        self.root = os.path.dirname(repro.sim.__file__)
        self.lines = 0
        self.counting = False

    def _global(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(self.root):
            return self._local
        return None

    def _local(self, frame, event, arg):
        if event == "line" and self.counting:
            self.lines += 1
        return self._local

    def __enter__(self) -> "_SimLineCounter":
        threading.settrace(self._global)
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc_info) -> None:
        sys.settrace(None)
        threading.settrace(None)


def _batch(tag: str, count: int) -> list[RunSpec]:
    return [
        RunSpec.from_fragments(
            spec_fragment("k-cycle", n=4, k=2),
            spec_fragment("spray", rho=0.2, beta=1.5),
            100,
            label=f"{tag}{i}",
        )
        for i in range(count)
    ]


def _land_failures(service: SweepService, job, count: int) -> None:
    """Claim and complete ``count`` one-spec shards with a failed status,
    waiting after each until the job has taken it in."""
    for _ in range(count):
        lease = service.queue.claim("w")
        spec = lease.specs[0]
        failure = FailedResult(spec=spec, error="x", error_type="E", attempts=1)
        lease.complete([status_record(spec, failure)])
        deadline = time.monotonic() + 10
        while spec.spec_hash() not in job.state:
            assert time.monotonic() < deadline, "a landed result never reached its job"
            time.sleep(0.001)


def _work_per_result(tmp_path, size: int) -> float:
    """Lines of ``repro.sim`` run per result of a ``size``-spec job, on a
    server that has already seen ``size`` specs."""
    service = SweepService(
        tmp_path / f"cache-{size}", shard_size=1, fallback_after=3600.0, poll=0.005
    )
    try:
        history = service.submit(_batch("history", size))
        _land_failures(service, history, size)
        assert service.wait(history, timeout=30)
        with _SimLineCounter() as counter:
            job = service.submit(_batch("measured", size))
            counter.counting = True
            _land_failures(service, job, size)
            counter.counting = False
        assert service.wait(job, timeout=30)
    finally:
        service.close()
    return counter.lines / size


class TestServiceWorkPerResult:
    def test_work_per_landed_result_stays_flat_when_history_grows_4x(self, tmp_path):
        small, large = (_work_per_result(tmp_path, size) for size in (25, 100))
        assert large <= 1.5 * small, (small, large)

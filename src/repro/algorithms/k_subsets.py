"""k-Subsets: energy-oblivious direct routing with maximum throughput (Section 6).

Fix an enumeration ``A_0, ..., A_{gamma-1}`` of all ``gamma = C(n, k)``
k-element subsets of the stations.  Round ``t`` belongs to *thread*
``t mod gamma``; during thread ``i`` exactly the stations of ``A_i`` are
switched on — a schedule that depends only on ``(n, k, t)``, so the
algorithm is k-energy-oblivious.  Each thread runs its own instance of the
Move-Big-To-Front protocol (MBTF, [17]) over the stations of ``A_i`` with
thread-local queues.

Time is grouped into *phases* of ``gamma`` rounds.  At the beginning of a
phase every station assigns the packets it received during earlier phases
to threads: a packet held at station ``v`` with destination ``w`` may only
go to a thread whose subset contains both ``v`` and ``w``, and the
assignment is kept as balanced as possible across those threads.  Because
the receiver ``w`` is awake in every round of every thread its packet is
assigned to, a heard packet is immediately delivered — the algorithm
routes directly.

The phase machine is globally identical across stations (phase boundaries
depend only on ``(gamma, t)``), so it lives in a shared
:class:`_KSubsetsClock` (a :class:`~repro.core.schedule.WakeOracle`): an
explicit idempotent ``tick(t)`` drives every station's phase-boundary
packet reassignment once per phase, after which ``wakes(t)`` is a pure
subset-membership query and the clock answers the whole awake set as
``subsets[t % gamma]`` — the *ticked* tier of the kernel engine's
capability negotiation, leaving no algorithm on the per-station
``wakes()`` fallback.

Paper bounds (Table 1 / Theorem 8): stable at injection rate exactly
``k(k-1)/(n(n-1))`` with at most ``2 C(n,k) (n^2 + beta)`` queued packets;
by Theorem 9 no k-energy-oblivious direct algorithm is stable above that
rate.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

import numpy as np

from ..channel.feedback import ChannelOutcome, Feedback
from ..channel.message import Message
from ..channel.packet import Packet
from ..channel.station import StationController
from ..core.algorithm import AlgorithmProperties, RoutingAlgorithm
from ..core.blocks import RoundBlockDriver
from ..core.registry import register_algorithm
from ..core.schedule import PeriodicSchedule, WakeOracle, rounds_in_congruence_class
from ..protocols.token_ring import TokenRingReplica

__all__ = ["KSubsets"]

_tuple_new = tuple.__new__

#: Refuse to enumerate more subsets than this; the algorithm is meant for
#: small systems (its latency is at least C(n, k) by design).
MAX_THREADS = 20000


class _KSubsetsClock(WakeOracle):
    """Shared phase clock of one k-Subsets execution.

    The only per-round state transition of k-Subsets is the
    phase-boundary packet reassignment, triggered by the globally known
    quantity ``t // gamma``; :meth:`tick` drives each station's (private)
    reassignment exactly when its stateful ``wakes`` used to.  Awake sets
    are the enumerated subsets themselves — ``itertools.combinations``
    over a sorted range yields ascending tuples, so
    :meth:`awake_stations` is a single list lookup.
    """

    def __init__(self, n: int, subsets: list[tuple[int, ...]]) -> None:
        super().__init__(n)
        self.subsets = subsets
        self.gamma = len(subsets)
        self._last_phase = -1

    def tick(self, round_no: int) -> None:
        phase = round_no // self.gamma
        if phase <= self._last_phase:
            return
        self._last_phase = phase
        for ctrl in self.controllers:
            ctrl._process_phase_boundary(round_no)

    def awake_stations(self, round_no: int) -> tuple[int, ...]:
        return self.subsets[round_no % self.gamma]

    # -- quiescent-span protocol -----------------------------------------
    def advance_span(self, start: int, stop: int) -> None:
        # With every queue (and every ``_unassigned`` buffer) empty, the
        # phase-boundary reassignments inside the span are no-ops, so the
        # clock jumps straight to the last ticked phase.  Controllers'
        # private ``_last_phase_processed`` may lag; the guard in
        # ``_process_phase_boundary`` makes that harmless (the skipped
        # boundaries had nothing to reassign).
        if stop > start:
            phase = (stop - 1) // self.gamma
            if phase > self._last_phase:
                self._last_phase = phase

    def quiescent_awake_counts(self, start: int, stop: int) -> np.ndarray:
        # Every round wakes exactly one k-subset.
        return np.full(stop - start, len(self.subsets[0]), dtype=np.int64)


class _KSubsetsController(StationController):
    """Per-station controller of k-Subsets.

    The phase clock is shared (:class:`_KSubsetsClock`); each station
    keeps only its private thread queues and MBTF replicas.
    """

    # Thread queues shrink only when an own transmission is confirmed
    # heard; phase-boundary reassignment moves packets between internal
    # queues without changing the total, so the queue contract holds.
    ticked_wakes = True

    # Holding no packets the thread's MBTF holder withholds, a silent
    # round only advances that thread's token, and phase-boundary
    # reassignment of an empty queue is a no-op: quiescent spans
    # fast-forward with one congruence count per thread membership.
    silence_invariant = True

    def __init__(
        self,
        station_id: int,
        n: int,
        k: int,
        subsets: list[tuple[int, ...]],
        clock: _KSubsetsClock,
    ) -> None:
        super().__init__(station_id, n)
        self.k = k
        self.subsets = subsets
        self.gamma = len(subsets)
        self.wake_oracle = clock
        self.my_threads = [
            i for i, members in enumerate(subsets) if station_id in members
        ]
        self._my_thread_set = set(self.my_threads)
        self.replicas = {
            i: TokenRingReplica(list(subsets[i])) for i in self.my_threads
        }
        self.thread_queues: dict[int, deque[Packet]] = {
            i: deque() for i in self.my_threads
        }
        self._unassigned: deque[Packet] = deque()
        self._assign_counts: dict[tuple[int, int], int] = {}
        self._threads_for_dest: dict[int, list[int]] = {}
        self._last_phase_processed = -1
        self._in_flight: tuple[int, Packet] | None = None

    # -- phase handling -------------------------------------------------------
    def _threads_containing(self, destination: int) -> list[int]:
        cached = self._threads_for_dest.get(destination)
        if cached is None:
            cached = [
                i for i in self.my_threads if destination in self.subsets[i]
            ]
            self._threads_for_dest[destination] = cached
        return cached

    def _process_phase_boundary(self, round_no: int) -> None:
        phase = round_no // self.gamma
        if phase <= self._last_phase_processed:
            return
        self._last_phase_processed = phase
        phase_start = phase * self.gamma
        # Assign every packet injected before this phase to a thread,
        # keeping the per-(destination, thread) allocation balanced.
        still_waiting: deque[Packet] = deque()
        while self._unassigned:
            packet = self._unassigned.popleft()
            if packet.injected_at >= phase_start:
                still_waiting.append(packet)
                continue
            threads = self._threads_containing(packet.destination)
            best = min(
                threads,
                key=lambda i: (self._assign_counts.get((packet.destination, i), 0), i),
            )
            self._assign_counts[(packet.destination, best)] = (
                self._assign_counts.get((packet.destination, best), 0) + 1
            )
            self.thread_queues[best].append(packet)
        self._unassigned = still_waiting

    # -- StationController interface -------------------------------------------
    def tick(self, round_no: int) -> None:
        self.wake_oracle.tick(round_no)

    def wakes(self, round_no: int) -> bool:
        # Self-tick so the reference engine's per-station loop drives the
        # same phase transitions; after the tick this is a pure query.
        self.wake_oracle.tick(round_no)
        return (round_no % self.gamma) in self._my_thread_set

    def act(self, round_no: int) -> Message | None:
        thread = round_no % self.gamma
        if thread not in self._my_thread_set:
            return None
        replica = self.replicas[thread]
        if replica.holder != self.station_id:
            return None
        queue = self.thread_queues[thread]
        if not queue:
            return None
        packet = queue[0]
        control = {}
        if len(queue) >= self.k:
            control[TokenRingReplica.BIG_FLAG] = True
        self._in_flight = (thread, packet)
        return _tuple_new(Message, (self.station_id, packet, control, None))

    def on_feedback(self, round_no: int, feedback: Feedback) -> None:
        thread = round_no % self.gamma
        if feedback.heard and feedback.message is not None:
            if (
                feedback.message.sender == self.station_id
                and self._in_flight is not None
            ):
                in_thread, packet = self._in_flight
                queue = self.thread_queues.get(in_thread)
                if queue and queue[0] is packet:
                    queue.popleft()
        self._in_flight = None
        replica = self.replicas.get(thread)
        if replica is not None:
            replica.observe(feedback.outcome, feedback.message)

    def advance_silent_span(self, start: int, stop: int) -> None:
        # This station observes exactly the silent rounds of its own
        # threads (thread ``i`` runs in rounds t % gamma == i); each such
        # round advances that thread's MBTF token.
        for thread in self.my_threads:
            rounds = rounds_in_congruence_class(start, stop, self.gamma, thread)
            if rounds:
                self.replicas[thread].advance_silence(rounds)

    def on_inject(self, round_no: int, packet: Packet) -> None:
        self._unassigned.append(packet)

    def queued_packets(self) -> int:
        return len(self._unassigned) + sum(
            len(q) for q in self.thread_queues.values()
        )


class _KSubsetsBlockDriver(RoundBlockDriver):
    """Compiled-round driver for k-Subsets (one shared instance per run).

    Thread ``t % gamma`` runs in round ``t``; only its MBTF holder may
    transmit.  Every awake member observes the round's outcome on its
    replica of that thread (silence advances the token, a heard big-bit
    reorders the list); a heard own transmission pops the sender's thread
    queue head.  Phase-boundary reassignment stays with the shared clock
    (the engine ticks it before asking for the transmitter), so the
    driver reads post-reassignment state.
    """

    def __init__(self, controllers: list[_KSubsetsController]) -> None:
        super().__init__(len(controllers))
        self._controllers = controllers
        self._subsets = controllers[0].subsets
        self._gamma = controllers[0].gamma
        # Per-thread member replica lists, resolved lazily: gamma can be
        # thousands of threads while a short run touches only a few.
        self._thread_replicas: list[list[TokenRingReplica] | None] = (
            [None] * self._gamma
        )

    def _replicas_for(self, thread: int) -> list[TokenRingReplica]:
        replicas = self._thread_replicas[thread]
        if replicas is None:
            replicas = [
                self._controllers[i].replicas[thread]
                for i in self._subsets[thread]
            ]
            self._thread_replicas[thread] = replicas
        return replicas

    def transmitter(self, t: int) -> int:
        return self._replicas_for(t % self._gamma)[0].holder

    def silent_round(self, t: int) -> None:
        for replica in self._replicas_for(t % self._gamma):
            replica.observe(ChannelOutcome.SILENCE, None)

    def heard_round(self, t: int, sender: int, message: Message) -> tuple[int, ...]:
        sender_ctrl = self._controllers[sender]
        if sender_ctrl._in_flight is not None:
            in_thread, packet = sender_ctrl._in_flight
            queue = sender_ctrl.thread_queues.get(in_thread)
            if queue and queue[0] is packet:
                queue.popleft()
            sender_ctrl._in_flight = None
        for replica in self._replicas_for(t % self._gamma):
            replica.observe(ChannelOutcome.HEARD, message)
        return (sender,)


@register_algorithm("k-subsets")
class KSubsets(RoutingAlgorithm):
    """The k-Subsets algorithm of Section 6.

    Parameters
    ----------
    n:
        Number of stations.
    k:
        Energy cap / subset size, ``2 <= k < n``.
    """

    name = "k-Subsets"

    def __init__(self, n: int, k: int) -> None:
        super().__init__(n)
        if not 2 <= k < n:
            raise ValueError(f"subset size k must satisfy 2 <= k < n, got k={k}, n={n}")
        gamma = math.comb(n, k)
        if gamma > MAX_THREADS:
            raise ValueError(
                f"C({n}, {k}) = {gamma} threads is too many to simulate; "
                f"k-Subsets targets small systems (limit {MAX_THREADS})"
            )
        self.k = k
        self.subsets = list(itertools.combinations(range(n), k))

    @property
    def gamma(self) -> int:
        """Number of threads, ``C(n, k)``."""
        return len(self.subsets)

    def build_controllers(self) -> list[_KSubsetsController]:
        clock = _KSubsetsClock(self.n, self.subsets)
        controllers = [
            _KSubsetsController(i, self.n, self.k, self.subsets, clock)
            for i in range(self.n)
        ]
        clock.attach(controllers)
        driver = _KSubsetsBlockDriver(controllers)
        for ctrl in controllers:
            ctrl.block_driver = driver
        return controllers

    def properties(self) -> AlgorithmProperties:
        return AlgorithmProperties(
            name=self.name,
            energy_cap=self.k,
            oblivious=True,
            direct=True,
            plain_packet=False,
        )

    def oblivious_schedule(self) -> PeriodicSchedule:
        return PeriodicSchedule(self.n, [list(s) for s in self.subsets])

    # -- analytical quantities used by tests and the analysis module -----------
    def stability_threshold(self) -> float:
        """The throughput ``k(k-1)/(n(n-1))`` of Theorem 8."""
        return (self.k * (self.k - 1)) / (self.n * (self.n - 1))

    def queue_bound(self, beta: float) -> float:
        """The queue bound ``2 C(n,k) (n^2 + beta)`` of Theorem 8."""
        return 2 * self.gamma * (self.n**2 + beta)

"""k-Clique: energy-oblivious direct plain-packet routing (Section 6).

The stations are partitioned into ``2n/k`` disjoint *half-groups* of size
``k/2`` each; every (unordered) pair of half-groups is a *pair* of ``k``
stations.  The pairs are arranged in a fixed cycle and take turns being
active for **one round at a time**, round-robin — an on/off pattern that
depends only on ``(n, k, t)``, so the algorithm is k-energy-oblivious.

While a pair is active its ``k`` stations run a round-robin-withholding
token: the holder transmits a queued packet whose destination lies inside
the active pair (both endpoints of such a packet are awake, so a heard
packet is immediately delivered — the algorithm routes directly); a silent
round advances the token.

Paper bounds (Table 1 / Theorem 7): bounded latency for injection rates
``rho < k^2 / (n (2n - k))`` and latency at most ``8 (n^2/k)(1 + beta/2k)``
for ``rho <= k^2 / (2 n (2n - k))``.  By Theorem 9 no k-energy-oblivious
direct algorithm is stable for ``rho > k(k-1)/(n(n-1))``.
"""

from __future__ import annotations

import itertools
import math

from ..channel.feedback import ChannelOutcome, Feedback
from ..channel.message import Message
from ..core.algorithm import AlgorithmProperties, RoutingAlgorithm
from ..core.blocks import RoundBlockDriver
from ..core.controller import QueueingController
from ..core.registry import register_algorithm
from ..core.schedule import PeriodicSchedule, rounds_in_congruence_class
from ..protocols.token_ring import TokenRingReplica

__all__ = ["KClique", "half_groups", "clique_pairs"]


def effective_half_group_size(n: int, k: int) -> int:
    """Half-group size actually used; the paper keeps ``k <= 2n/3``."""
    half = max(1, k // 2)
    # Ensure there are at least two half-groups (otherwise no pair exists)
    # and at least three pairs when possible, mirroring the paper's
    # adjustment "if k/2 > n/3 then decrease k".
    while half > 1 and math.ceil(n / half) < 2:
        half -= 1
    return half


def half_groups(n: int, k: int) -> list[list[int]]:
    """Partition ``[0, n)`` into consecutive blocks of size ``k/2`` (last may be short)."""
    half = effective_half_group_size(n, k)
    blocks: list[list[int]] = []
    start = 0
    while start < n:
        blocks.append(list(range(start, min(start + half, n))))
        start += half
    return blocks


def clique_pairs(n: int, k: int) -> list[list[int]]:
    """All unordered pairs of half-groups, each merged into one station set."""
    blocks = half_groups(n, k)
    pairs: list[list[int]] = []
    for a, b in itertools.combinations(range(len(blocks)), 2):
        pairs.append(sorted(blocks[a] + blocks[b]))
    if not pairs:  # degenerate: a single block; the 'pair' is that block
        pairs = [sorted(blocks[0])]
    return pairs


class _KCliqueController(QueueingController):
    """Per-station controller of k-Clique."""

    # wakes() is a pure lookup of the pair rotation (published as the
    # algorithm's PeriodicSchedule), so the kernel may batch awake sets.
    static_wake_schedule = True

    # Holding no packets the token holder withholds, and a silent round
    # only advances the active pair's token: quiescent spans fast-forward
    # with one congruence count per pair membership.
    silence_invariant = True

    def __init__(self, station_id: int, n: int, pairs: list[list[int]]) -> None:
        super().__init__(station_id, n)
        self.pairs = pairs
        self.num_pairs = len(pairs)
        self.my_pairs = [p for p, members in enumerate(pairs) if station_id in members]
        self.replicas = {p: TokenRingReplica(pairs[p]) for p in self.my_pairs}
        self._pair_members = {p: set(pairs[p]) for p in self.my_pairs}

    def active_pair(self, round_no: int) -> int:
        """The pair that is switched on in ``round_no``."""
        return round_no % self.num_pairs

    def wakes(self, round_no: int) -> bool:
        return self.active_pair(round_no) in self.my_pairs

    def act(self, round_no: int) -> Message | None:
        pair = self.active_pair(round_no)
        if pair not in self.my_pairs:
            return None
        replica = self.replicas[pair]
        if replica.holder != self.station_id:
            return None
        packet = self.queue.peek_any_in(self._pair_members[pair])
        if packet is None:
            return None
        return self.transmit(packet)

    def after_feedback(self, round_no: int, feedback: Feedback) -> None:
        pair = self.active_pair(round_no)
        replica = self.replicas.get(pair)
        if replica is not None:
            replica.observe(feedback.outcome)

    def advance_silent_span(self, start: int, stop: int) -> None:
        # This station observes exactly the silent rounds in which one of
        # its pairs is active (pair ``p`` is active when t % num_pairs ==
        # p); each such round advances that pair's token.
        for p in self.my_pairs:
            rounds = rounds_in_congruence_class(start, stop, self.num_pairs, p)
            if rounds:
                self.replicas[p].advance_silence(rounds)


class _KCliqueBlockDriver(RoundBlockDriver):
    """Compiled-round driver for k-Clique (one shared instance per run).

    Pair ``t % num_pairs`` is active in round ``t``; only its token
    holder may transmit.  Silence advances every pair member's replica;
    a heard round only removes the sender's confirmed packet (k-Clique
    routes directly inside the pair, so nothing is adopted, and a heard
    outcome leaves the token in place).
    """

    def __init__(self, controllers: list[_KCliqueController]) -> None:
        super().__init__(len(controllers))
        self._controllers = controllers
        pairs = controllers[0].pairs
        self._num_pairs = len(pairs)
        self._pair_replicas = [
            [controllers[i].replicas[p] for i in members]
            for p, members in enumerate(pairs)
        ]

    def transmitter(self, t: int) -> int:
        return self._pair_replicas[t % self._num_pairs][0].holder

    def silent_round(self, t: int) -> None:
        for replica in self._pair_replicas[t % self._num_pairs]:
            replica.observe(ChannelOutcome.SILENCE)

    def heard_round(self, t: int, sender: int, message: Message) -> tuple[int, ...]:
        sender_ctrl = self._controllers[sender]
        if sender_ctrl._in_flight is not None:
            sender_ctrl.queue.remove(sender_ctrl._in_flight)
            sender_ctrl._in_flight = None
        return (sender,)


@register_algorithm("k-clique")
class KClique(RoutingAlgorithm):
    """The k-Clique algorithm of Section 6.

    Parameters
    ----------
    n:
        Number of stations.
    k:
        Energy cap; the number of stations awake per round is at most
        twice the half-group size, which never exceeds ``k``.
    """

    name = "k-Clique"

    def __init__(self, n: int, k: int) -> None:
        super().__init__(n)
        if not 2 <= k < n:
            raise ValueError(f"energy cap k must satisfy 2 <= k < n, got k={k}, n={n}")
        self.k = k
        self.half = effective_half_group_size(n, k)
        self.pairs = clique_pairs(n, k)

    @property
    def num_pairs(self) -> int:
        """Number of half-group pairs (the schedule period)."""
        return len(self.pairs)

    def build_controllers(self) -> list[_KCliqueController]:
        controllers = [_KCliqueController(i, self.n, self.pairs) for i in range(self.n)]
        driver = _KCliqueBlockDriver(controllers)
        for ctrl in controllers:
            ctrl.block_driver = driver
        return controllers

    def properties(self) -> AlgorithmProperties:
        cap = max(len(pair) for pair in self.pairs)
        return AlgorithmProperties(
            name=self.name,
            energy_cap=cap,
            oblivious=True,
            direct=True,
            plain_packet=True,
        )

    def oblivious_schedule(self) -> PeriodicSchedule:
        return PeriodicSchedule(self.n, [list(pair) for pair in self.pairs])

    # -- analytical quantities used by tests and the analysis module ----------
    def stability_threshold(self) -> float:
        """``1/m`` where ``m`` is the number of pairs (Theorem 7)."""
        return 1.0 / self.num_pairs

    def latency_rate_threshold(self) -> float:
        """Rate below which the closed-form latency bound of Theorem 7 applies."""
        return 1.0 / (2 * self.num_pairs)

    def latency_bound(self, beta: float) -> float:
        """The latency bound ``8 (n^2/k)(1 + beta/(2k))`` of Theorem 7."""
        k = 2 * self.half
        return 8 * (self.n**2 / k) * (1 + beta / (2 * k))

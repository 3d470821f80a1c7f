"""Adaptive and schedule-aware lower-bound adversaries.

These adversaries realise the constructions used in the paper's
impossibility proofs:

* **Theorem 2** (no cap-2 algorithm is stable at rate 1): an adaptive
  adversary that keeps injecting a packet per round while steering traffic
  towards stations the algorithm keeps switched off.
* **Theorem 6** (no k-energy-oblivious algorithm is stable for
  ``rho > k/n``): by double counting, some station is switched on in at
  most a ``k/n`` fraction of rounds; the adversary reads the (public,
  fixed-in-advance) oblivious schedule, finds that station and floods it.
* **Theorem 9** (no k-energy-oblivious *direct* algorithm is stable for
  ``rho > k(k-1)/(n(n-1))``): some ordered pair of stations is jointly
  switched on in at most that fraction of rounds; the adversary floods
  that pair.

Energy-oblivious algorithms publish their schedule through the
:class:`ScheduleLike` protocol (see :mod:`repro.core.schedule`), which the
schedule-aware adversaries consume.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Protocol, Sequence, runtime_checkable

from ..channel.engine import AdversaryView
from .base import Adversary, InjectionDemand, ObliviousAdversary
from .patterns import _cycle_skipping

__all__ = [
    "ScheduleLike",
    "LeastOnStationAdversary",
    "LeastOnPairAdversary",
    "AdaptiveStarvationAdversary",
]


@runtime_checkable
class ScheduleLike(Protocol):
    """Anything that can answer 'is station i switched on in round t?'."""

    def is_awake(self, station: int, round_no: int) -> bool:  # pragma: no cover
        ...


def _periodic_sets(schedule: ScheduleLike) -> tuple[tuple[int, ...], ...] | None:
    """The schedule's finite period of awake sets, if it publishes one."""
    probe = getattr(schedule, "periodic_awake_sets", None)
    if probe is None:
        return None
    return probe()


@lru_cache(maxsize=32)
def _periodic_on_counts(
    period: tuple[tuple[int, ...], ...], n: int, horizon: int
) -> tuple[int, ...]:
    """On-counts over ``[0, horizon)`` for a periodic schedule, cached.

    Keyed by the period itself (plus ``n`` and ``horizon``), so distinct
    schedule instances built from the same spec — e.g. the per-spec
    algorithm reconstructions of a T1.6/T1.9 fan-out — share one table
    per worker process instead of recomputing an O(horizon * n) sweep
    each time.  The periodic structure also collapses the sweep to one
    pass over the period.
    """
    full, rem = divmod(horizon, len(period))
    counts = [0] * n
    for t, awake in enumerate(period):
        weight = full + (1 if t < rem else 0)
        if weight:
            for i in awake:
                counts[i] += weight
    return tuple(counts)


@lru_cache(maxsize=32)
def _periodic_pair_on_counts(
    period: tuple[tuple[int, ...], ...], n: int, horizon: int
) -> dict[tuple[int, int], int]:
    """Co-awake counts per ordered pair for a periodic schedule, cached.

    The returned dict is shared across callers — treat it as read-only.
    """
    full, rem = divmod(horizon, len(period))
    counts: dict[tuple[int, int], int] = {
        (w, z): 0 for w in range(n) for z in range(n) if w != z
    }
    for t, awake in enumerate(period):
        weight = full + (1 if t < rem else 0)
        if not weight:
            continue
        for w in awake:
            for z in awake:
                if w != z:
                    counts[(w, z)] += weight
    return counts


def _on_counts(schedule: ScheduleLike, n: int, horizon: int) -> Sequence[int]:
    """Per-station number of on-rounds over ``[0, horizon)``."""
    period = _periodic_sets(schedule)
    if period:
        return _periodic_on_counts(period, n, horizon)
    counts = [0] * n
    for t in range(horizon):
        for i in range(n):
            if schedule.is_awake(i, t):
                counts[i] += 1
    return counts


def _pair_on_counts(
    schedule: ScheduleLike, n: int, horizon: int
) -> dict[tuple[int, int], int]:
    """Per ordered pair (w, z), number of rounds both are on over ``[0, horizon)``.

    Periodic schedules hit the shared cache; treat the result as
    read-only.
    """
    period = _periodic_sets(schedule)
    if period:
        return _periodic_pair_on_counts(period, n, horizon)
    counts: dict[tuple[int, int], int] = {
        (w, z): 0 for w in range(n) for z in range(n) if w != z
    }
    for t in range(horizon):
        awake = [i for i in range(n) if schedule.is_awake(i, t)]
        for w in awake:
            for z in awake:
                if w != z:
                    counts[(w, z)] += 1
    return counts


class LeastOnStationAdversary(ObliviousAdversary):
    """Theorem 6 adversary: flood the station the oblivious schedule starves.

    Schedule-aware but view-oblivious: the victim is computed once at bind
    time from the *published* schedule, so no execution history is needed.

    Parameters
    ----------
    schedule:
        The algorithm's published oblivious schedule.
    horizon:
        Number of rounds over which to evaluate the schedule (use the
        planned experiment length, or the schedule's period).
    """

    def __init__(
        self, rho: float, beta: float, schedule: ScheduleLike, horizon: int
    ) -> None:
        super().__init__(rho, beta)
        if horizon < 1:
            raise ValueError("horizon must be positive")
        self.schedule = schedule
        self.horizon = horizon
        self.victim: int | None = None
        self._dest_cursor = 0

    def on_bind(self, n: int) -> None:
        counts = _on_counts(self.schedule, n, self.horizon)
        self.victim = min(range(n), key=lambda i: counts[i])

    def demand(
        self, round_no: int, budget: int, view: AdversaryView
    ) -> Sequence[InjectionDemand]:
        assert self.n is not None and self.victim is not None
        demands: list[InjectionDemand] = []
        for _ in range(budget):
            dest = self._dest_cursor % self.n
            self._dest_cursor += 1
            if dest == self.victim:
                dest = self._dest_cursor % self.n
                self._dest_cursor += 1
            demands.append((self.victim, dest))
        return demands

    def _plan_chunk(self, start, stop):
        assert self.n is not None and self.victim is not None
        counts = self.constraint.consume_run(stop - start)
        total = sum(counts)
        if not total:
            return counts, [], []
        destinations, self._dest_cursor = _cycle_skipping(
            self.n, self.victim, self._dest_cursor, total
        )
        return counts, [self.victim] * total, destinations.tolist()


class LeastOnPairAdversary(ObliviousAdversary):
    """Theorem 9 adversary: flood the ordered pair least often jointly awake.

    All packets are injected into station ``w`` with destination ``z``,
    where ``(w, z)`` minimises the number of rounds in which both are
    switched on under the published oblivious schedule.  Against a
    *direct*-routing algorithm only those co-awake rounds can deliver the
    packets.
    """

    def __init__(
        self, rho: float, beta: float, schedule: ScheduleLike, horizon: int
    ) -> None:
        super().__init__(rho, beta)
        if horizon < 1:
            raise ValueError("horizon must be positive")
        self.schedule = schedule
        self.horizon = horizon
        self.pair: tuple[int, int] | None = None

    def on_bind(self, n: int) -> None:
        counts = _pair_on_counts(self.schedule, n, self.horizon)
        self.pair = min(counts, key=lambda p: counts[p])

    def demand(
        self, round_no: int, budget: int, view: AdversaryView
    ) -> Sequence[InjectionDemand]:
        assert self.pair is not None
        source, destination = self.pair
        return [(source, destination)] * budget

    def _plan_chunk(self, start, stop):
        assert self.pair is not None
        counts = self.constraint.consume_run(stop - start)
        total = sum(counts)
        source, destination = self.pair
        return counts, [source] * total, [destination] * total


class AdaptiveStarvationAdversary(Adversary):
    """Theorem 2 style adaptive adversary for energy-cap-2 systems at rate 1.

    With only two stations awake per round, in every round at least
    ``n - 2`` stations are off.  Following the proof of Lemma 1, the
    adversary keeps one packet per round flowing while addressing traffic
    to the station that has been switched on least often so far (ties
    broken by name): whenever that station is off, packets addressed to it
    cannot possibly be delivered, and whenever the algorithm wakes it up to
    drain them, the adversary switches its attention to the currently most
    starved station.  Sources rotate over the remaining stations so no
    single queue can be drained preferentially.
    """

    def __init__(self, rho: float = 1.0, beta: float = 1.0) -> None:
        super().__init__(rho, beta)
        self._source_cursor = 0

    def _most_starved(self, view: AdversaryView) -> int:
        assert self.n is not None
        return view.least_on_station()

    def demand(
        self, round_no: int, budget: int, view: AdversaryView
    ) -> Sequence[InjectionDemand]:
        assert self.n is not None
        if budget == 0:
            # Computing the most starved station is the expensive part of
            # this adversary; at rate rho most rounds have no budget and
            # the victim choice would be discarded anyway.
            return []
        victim = self._most_starved(view)
        demands: list[InjectionDemand] = []
        for _ in range(budget):
            source = self._source_cursor % self.n
            self._source_cursor += 1
            if source == victim:
                source = self._source_cursor % self.n
                self._source_cursor += 1
            demands.append((source, victim))
        return demands

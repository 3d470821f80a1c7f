"""Oblivious on/off schedules and the ticked wake protocol.

A routing algorithm is *energy oblivious* when it decides in advance, for
every station and every round, whether the station is switched on
(Section 2, "Routing algorithms").  Energy-oblivious algorithms in this
library expose their schedule as an :class:`ObliviousSchedule`, which

* lets the engine-side tests verify that the controllers wake exactly
  when the published schedule says they do,
* lets the schedule-aware lower-bound adversaries of
  :mod:`repro.adversary.adaptive` compute the most starved station / pair,
* provides the schedule statistics (per-station on-fractions, pair
  co-scheduling fractions) used in the analysis of Theorems 6 and 9.

Adaptive algorithms have no fixed-in-advance schedule, but the paper's
state-machine algorithms (Count-Hop, Orchestra, Adjust-Window) advance a
stage structure that is *identical at every station*.  A
:class:`WakeOracle` captures that shared structure as one per-run state
machine: an explicit, idempotent :meth:`WakeOracle.tick` performs the
per-round state transition, after which every controller's ``wakes`` is a
pure query and :meth:`WakeOracle.awake_stations` can answer the whole
awake set in one call — the *ticked* tier of the kernel engine's
capability negotiation, between "static schedule" and "per-station
fallback".
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..channel.station import StationController

__all__ = [
    "ObliviousSchedule",
    "PeriodicSchedule",
    "AlwaysOnSchedule",
    "WakeOracle",
    "rounds_in_congruence_class",
]


def rounds_in_congruence_class(
    start: int, stop: int, modulus: int, residue: int
) -> int:
    """Number of rounds ``t`` in ``[start, stop)`` with ``t % modulus == residue``.

    Closed-form O(1) counting used by the quiescent-span fast-forwards:
    a controller that participates in rounds of one congruence class
    (k-Clique's pair rotation, k-Subsets' threads) advances its replicas
    by this many silent observations instead of looping over the span.
    """
    if stop <= start:
        return 0
    residue %= modulus

    def upto(limit: int) -> int:
        return (limit + modulus - 1 - residue) // modulus

    return upto(stop) - upto(start)


class WakeOracle:
    """Shared per-run wake-protocol state machine (the *ticked* tier).

    One oracle instance is created per execution and referenced by every
    controller of the run (``controller.wake_oracle``).  The contract,
    relied on by :class:`~repro.channel.kernel.KernelEngine`:

    * :meth:`tick` advances the protocol state so that round ``round_no``
      lies inside it.  It is **idempotent** for a given round and is
      invoked after the round's injections and before any station acts —
      either explicitly (kernel, once per round) or implicitly (every
      controller's ``wakes`` ticks first, so the reference engine's
      per-station loop drives the same transitions).
    * After ``tick(t)``, every controller's ``wakes(t)`` is a pure query
      and :meth:`awake_stations` returns exactly the stations whose
      ``wakes(t)`` is True, as an ascending tuple of indices.

    The oracle is a *simulation-level* device: per-round transitions it
    performs on behalf of the stations (queue aging at phase boundaries,
    snapshotting, schedule promotion) are exactly the transitions each
    station's own state machine performed when ``wakes`` was stateful, so
    no station gains information it could not legitimately derive.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("wake oracle needs at least one station")
        self.n = n
        self.controllers: "list[StationController]" = []

    def attach(self, controllers: "Sequence[StationController]") -> None:
        """Bind the run's controllers (called once by ``build_controllers``)."""
        self.controllers = list(controllers)

    def tick(self, round_no: int) -> None:
        """Advance shared protocol state to ``round_no`` (idempotent)."""

    def awake_stations(self, round_no: int) -> tuple[int, ...]:
        """Ascending indices of stations awake in ``round_no``.

        Requires ``tick(round_no)`` to have run.  The default loops over
        the attached controllers' (pure) ``wakes``; subclasses override
        with batch awake-set math.
        """
        return tuple(
            i for i, ctrl in enumerate(self.controllers) if ctrl.wakes(round_no)
        )

    # -- quiescent-span protocol (the kernel's fifth negotiation axis) -----
    def advance_span(self, start: int, stop: int) -> None:
        """Advance shared state as if ``tick`` ran for every round in
        ``[start, stop)``.

        Called by the kernel engine when it elides a quiescent span:
        every round in the span was silent with all queues empty, so the
        oracle's transitions over it are a pure function of the round
        window.  The default replays ``tick`` round by round (always
        correct); oracles of silence-invariant algorithms override it
        with an O(1) jump.
        """
        for t in range(start, stop):
            self.tick(t)

    def quiescent_awake_counts(self, start: int, stop: int) -> "np.ndarray | None":
        """Per-round awake counts over a quiescent span, or ``None``.

        Only consulted for spans in which every queue is empty and every
        round is silent, so the counts may assume packet-independent wake
        behaviour.  Returning ``None`` (the default) tells the kernel it
        cannot elide spans on this oracle's run — the ticked tier then
        stays on the per-round loop.
        """
        return None


class ObliviousSchedule(abc.ABC):
    """A fixed-in-advance on/off schedule for ``n`` stations."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("schedule needs at least one station")
        self.n = n

    @abc.abstractmethod
    def is_awake(self, station: int, round_no: int) -> bool:
        """True when ``station`` is switched on in ``round_no``."""

    def awake_set(self, round_no: int) -> frozenset[int]:
        """The set of stations switched on in ``round_no``."""
        return frozenset(i for i in range(self.n) if self.is_awake(i, round_no))

    def periodic_awake_sets(self) -> tuple[tuple[int, ...], ...] | None:
        """One ascending awake tuple per round of the period, if periodic.

        The kernel engine uses this to materialise awake sets in one batch
        (``awake(t) == period[t % len(period)]``) instead of querying
        ``wakes``/``is_awake`` per station per round.  Schedules without a
        finite period return ``None`` and the engine falls back to
        round-by-round wake-up calls.
        """
        return None

    def periodic_awake_counts(self) -> "np.ndarray | None":
        """Per-round awake counts over one period, if periodic.

        Entry ``p`` of the returned int64 array is
        ``len(periodic_awake_sets()[p])``; aperiodic schedules return
        ``None``.  Cached on the instance — the kernel engine's
        vectorised-energy tier and the block engine's lowered segments
        both consume it, so the period scan runs once per schedule
        instead of once per engine construction.
        """
        counts = getattr(self, "_awake_counts_period", None)
        if counts is None:
            period = self.periodic_awake_sets()
            if period is None:
                return None
            counts = np.fromiter(
                (len(s) for s in period), dtype=np.int64, count=len(period)
            )
            self._awake_counts_period = counts
        return counts

    def awake_matrix(self, start: int, stop: int) -> "np.ndarray | None":
        """Boolean awake matrix for rounds ``[start, stop)``, if periodic.

        Row ``r`` of the ``(stop - start, n)`` array is round
        ``start + r``'s on/off pattern: ``matrix[r, i]`` is True iff
        station ``i`` is switched on.  This is the batch export behind
        the block engine's membership tests (one O(1) cell lookup per
        delivery check instead of an awake-tuple scan) — built once from
        the period and tiled by congruence, so the cost is O(period × n)
        regardless of the window length.  Aperiodic schedules return
        ``None``.
        """
        if stop < start:
            raise ValueError("awake matrix window is reversed")
        period = self.periodic_awake_sets()
        if period is None:
            return None
        base = getattr(self, "_awake_matrix_period", None)
        if base is None:
            base = np.zeros((len(period), self.n), dtype=bool)
            for t, awake in enumerate(period):
                if awake:
                    base[t, list(awake)] = True
            self._awake_matrix_period = base
        idx = np.arange(start, stop, dtype=np.int64) % len(period)
        return base[idx]

    def max_awake(self, horizon: int) -> int:
        """Maximum simultaneously-awake stations over ``[0, horizon)``."""
        return max((len(self.awake_set(t)) for t in range(horizon)), default=0)

    def on_fraction(self, station: int, horizon: int) -> float:
        """Fraction of rounds in ``[0, horizon)`` during which ``station`` is on."""
        if horizon <= 0:
            return 0.0
        on = sum(1 for t in range(horizon) if self.is_awake(station, t))
        return on / horizon

    def pair_on_fraction(self, station_a: int, station_b: int, horizon: int) -> float:
        """Fraction of rounds both stations are simultaneously on."""
        if horizon <= 0:
            return 0.0
        on = sum(
            1
            for t in range(horizon)
            if self.is_awake(station_a, t) and self.is_awake(station_b, t)
        )
        return on / horizon

    def min_on_fraction(self, horizon: int) -> tuple[int, float]:
        """The station with the smallest on-fraction, and that fraction."""
        best = min(
            range(self.n), key=lambda i: self.on_fraction(i, horizon)
        )
        return best, self.on_fraction(best, horizon)

    def min_pair_on_fraction(self, horizon: int) -> tuple[tuple[int, int], float]:
        """The ordered pair with the smallest co-awake fraction, and that fraction."""
        best_pair: tuple[int, int] | None = None
        best_value = float("inf")
        for w in range(self.n):
            for z in range(self.n):
                if w == z:
                    continue
                value = self.pair_on_fraction(w, z, horizon)
                if value < best_value:
                    best_value, best_pair = value, (w, z)
        assert best_pair is not None
        return best_pair, best_value


class PeriodicSchedule(ObliviousSchedule):
    """A schedule given by a finite period of awake sets, repeated forever."""

    def __init__(self, n: int, period_awake_sets: Sequence[Sequence[int]]) -> None:
        super().__init__(n)
        if not period_awake_sets:
            raise ValueError("the period must contain at least one round")
        self.period = [frozenset(s) for s in period_awake_sets]
        for t, awake in enumerate(self.period):
            for station in awake:
                if not 0 <= station < n:
                    raise ValueError(
                        f"round {t} of the period wakes unknown station {station}"
                    )

    @property
    def period_length(self) -> int:
        """Number of rounds in one period."""
        return len(self.period)

    def is_awake(self, station: int, round_no: int) -> bool:
        return station in self.period[round_no % len(self.period)]

    def awake_set(self, round_no: int) -> frozenset[int]:
        return self.period[round_no % len(self.period)]

    def periodic_awake_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(sorted(s)) for s in self.period)

    def max_awake(self, horizon: int | None = None) -> int:
        """Maximum awake stations; over the whole period when ``horizon`` is None."""
        sets = self.period if horizon is None else [
            self.awake_set(t) for t in range(horizon)
        ]
        return max((len(s) for s in sets), default=0)


class AlwaysOnSchedule(ObliviousSchedule):
    """Every station is on in every round (the uncapped classical model)."""

    def is_awake(self, station: int, round_no: int) -> bool:
        return True

    def periodic_awake_sets(self) -> tuple[tuple[int, ...], ...]:
        return (tuple(range(self.n)),)

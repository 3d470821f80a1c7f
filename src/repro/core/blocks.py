"""Round-block driver protocol for the compiled block engine.

The token-withholding protocols in this codebase share a structural
property the per-round engines cannot exploit: in every round there is at
most **one** station that may transmit (the replica-agreed token holder),
so collisions are impossible and the channel outcome is decided by a
single ``act`` call.  A :class:`RoundBlockDriver` packages that knowledge
per algorithm: it names the round's sole candidate transmitter and applies
the feedback effects of the round directly to controller state, replacing
the kernel's n-wide ``on_feedback`` fan-out with one or two targeted
mutations.

Algorithms opt in by attaching one shared driver instance to every
controller (``ctrl.block_driver``) from their ``build_controllers``.  The
:class:`~repro.channel.block.BlockEngine` negotiates for the driver at
construction time.  The engine loop then offers it every plan chunk as a
block: an accepted block runs the loop's single-transmitter steps, and
a declined one — or every chunk, when no driver was negotiated — runs
the fan-out steps, where every awake station acts and hears feedback.

Contract (all rounds ``t`` are absolute round numbers):

* Rounds are driven strictly in order within ``[start, stop)`` between a
  ``begin_block``/``end_block`` pair; quiescent spans inside the block
  may be elided, reported through :meth:`advance_span`.
* For each executed round the engine calls :meth:`transmitter`, then the
  candidate's ``act`` (skipped when its queue is provably empty — the
  protocols are silence-invariant, so an empty holder withholds), then
  exactly one of :meth:`silent_round` / :meth:`heard_round`.
* :meth:`heard_round` must leave every awake controller in the state the
  reference engine's ``on_feedback(HEARD)`` fan-out would, and return the
  stations whose queue length may have changed (a superset is fine; the
  engine re-polls exactly those, so an omission silently corrupts queue
  metrics).
* Drivers that can prove a sub-span's outcome sequence in closed form may
  additionally *lower* it: :meth:`~RoundBlockDriver.lower_segment`
  exports the span as a :class:`LoweredSegment` (transmitter ids,
  per-round queue-delta CSR, deliveries, a ``commit`` callback) and the
  engine flushes it with the numpy kernels of :mod:`repro._accel`
  instead of round-at-a-time Python.  Returning ``None`` is always safe —
  the engine falls back to the per-round protocol and probes again later.
  The engine only asks on the cap-safe static wake tier: the token
  ring (RRW, OF-RRW and MBTF) and k-Cycle lower, and the other drivers
  keep the default None.  Both lowerings record their spans through one
  :class:`SegmentBuilder` and resolve their plan indices with
  :func:`resolve_refs`.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..adversary.base import InjectionPlan
    from ..channel.message import Message
    from ..channel.packet import Packet

__all__ = ["LoweredSegment", "RoundBlockDriver", "SegmentBuilder", "resolve_refs"]


@dataclasses.dataclass(slots=True)
class LoweredSegment:
    """Array-lowered execution of rounds ``[start, stop)``.

    A driver that can prove its outcome sequence for a sub-span is
    closed-form (token position, withdrawal order, a fixed phase
    schedule — *including* the span's planned injections, which are
    known ahead of time from the injection plan) exports the whole span
    as arrays; the engine then flushes outcomes, queue series, energy,
    injections and deliveries with vectorised kernels instead of
    running the per-round driver protocol.

    Invariants the engine relies on (and cheaply checks):

    * ``transmitters`` has one entry per round: the heard sender's
      station id, or -1 for a silent round.  Collisions cannot be
      expressed — a driver that cannot rule them out must not lower.
    * The queue-delta CSR (``delta_offsets`` into parallel
      ``delta_stations``/``delta_values``) carries per-station
      queue-length changes per round, **net per station per round**: at
      most one entry per (round, station), because the engine folds the
      CSR into end-of-round totals and per-station running maxima, and
      the per-round path only ever observes end-of-round sizes (an
      arrive-then-transmit round must not surface its intra-round
      spike).
    * ``deliveries`` lists ``(absolute_round, packet_or_plan_index)``
      in round order for every heard packet whose destination is awake;
      a plain ``int`` entry refers to a packet the span itself injects,
      by absolute index into the injection plan's ``sources`` — the
      engine materialises those packets (in plan order, preserving
      packet-id assignment) only after accepting the segment and
      resolves the indices.  Every delivery's destination must be awake
      under the static schedule in its round; the engine checks this
      against the schedule's membership matrix and raises otherwise.
    * ``commit(packets)`` applies all controller/replica state
      mutations of the span in one step; ``packets`` are the span's
      materialised injections ordered by plan index (commit replays the
      arrivals into the right queues alongside removals and aging).
      ``lower_segment`` itself must be pure: a driver returning None
      leaves the same rounds to the per-round path.
    """

    start: int
    stop: int
    transmitters: "np.ndarray"
    delta_stations: "np.ndarray"
    delta_values: "np.ndarray"
    delta_offsets: "np.ndarray"
    deliveries: "list[tuple[int, Packet | int]]"
    commit: "Callable[[list[Packet]], None]"


class SegmentBuilder:
    """The per-round lists a driver's simulation of a span fills.

    Each simulated round appends one ``transmitters`` entry (the heard
    sender, or -1), its net queue changes to ``stations``/``values``
    and the row's end to ``offsets``; each heard packet whose
    destination is awake goes to ``deliveries``.  Hot loops bind the
    lists' ``append`` methods; :meth:`net` adds a change to a row that
    may already hold the station, and :meth:`segment` assembles the
    :class:`LoweredSegment`.
    """

    __slots__ = ("transmitters", "stations", "values", "offsets", "deliveries")

    def __init__(self) -> None:
        self.transmitters: list[int] = []
        self.stations: list[int] = []
        self.values: list[int] = []
        self.offsets: list[int] = [0]
        self.deliveries: list[tuple[int, object]] = []

    def net(self, row_start: int, station: int, value: int) -> None:
        """Add ``value`` to ``station``'s entry in the row from ``row_start``.

        The row keeps one net entry per station (see
        :class:`LoweredSegment`), so a station that already has one there
        gets the sum.
        """
        stations = self.stations
        for k in range(row_start, len(stations)):
            if stations[k] == station:
                self.values[k] += value
                return
        stations.append(station)
        self.values.append(value)

    def segment(
        self, start: int, stop: int, commit: "Callable[[list[Packet]], None]"
    ) -> LoweredSegment:
        """The recorded rounds ``[start, stop)`` as a :class:`LoweredSegment`."""
        return LoweredSegment(
            start=start,
            stop=stop,
            transmitters=np.asarray(self.transmitters, dtype=np.int64),
            delta_stations=np.asarray(self.stations, dtype=np.int64),
            delta_values=np.asarray(self.values, dtype=np.int64),
            delta_offsets=np.asarray(self.offsets, dtype=np.int64),
            deliveries=self.deliveries,
            commit=commit,
        )


def resolve_refs(entries, packets: "list[Packet]", j0: int) -> "list[Packet]":
    """``entries`` as packets: a plan index ``e`` names ``packets[e - j0]``.

    ``packets`` are a span's materialised injections, whose first has
    plan index ``j0``; any other entry is a packet already and stays.
    """
    return [packets[e - j0] if type(e) is int else e for e in entries]


class RoundBlockDriver(abc.ABC):
    """Per-algorithm compiled-round driver (see module docstring)."""

    #: Drivers for silence-invariant protocols (the default) rely on the
    #: engine skipping ``act`` for empty-queue holders.  Restricted
    #: drivers for beaconing algorithms (Count-Hop, Orchestra) set this
    #: False; the engine then calls the named transmitter's ``act``
    #: unconditionally and waives the all-controllers
    #: ``silence_invariant`` eligibility conjunction.
    relies_on_silence_invariant = True

    def __init__(self, n: int) -> None:
        self.n = n
        #: Human-readable reason for the most recent declined block
        #: (surfaced through the negotiation report); reset by the
        #: engine before each ``begin_block``.
        self.decline_reason: str | None = None

    def propose_stop(self, start: int, stop: int) -> int:
        """Propose a block boundary in ``(start, stop]``.

        Restricted drivers align blocks with their phase structure so a
        declined adaptive phase does not drag a compilable neighbour
        down with it.  The default keeps the engine's boundary.
        """
        return stop

    def lower_segment(
        self, start: int, stop: int, plan: "InjectionPlan"
    ) -> "LoweredSegment | None":
        """Lower ``[start, stop)`` to arrays, or None to run per-round.

        ``plan`` is the injection plan covering the span (``plan.start <=
        start`` and ``stop <= plan.stop``): the span's injections are
        known ahead of time, so drivers that can absorb arrivals simulate
        them in closed form (referencing the to-be-created packets by
        plan index, see :class:`LoweredSegment`), and drivers that cannot
        cut the segment before the next planned injection round.

        Implementations may cut early (return a segment with
        ``segment.stop < stop``) but must cover at least one round and
        never exceed ``stop``.  Must be pure until ``commit`` (see
        :class:`LoweredSegment`); returning None is always safe.
        """
        return None

    # -- block lifecycle ------------------------------------------------------
    def begin_block(self, start: int, stop: int) -> bool:
        """Prepare for rounds ``[start, stop)``; False declines the block.

        Declining is always safe: the engine runs the block's rounds
        through the fan-out steps instead and asks again for the next one.
        """
        return True

    def end_block(self, stop: int) -> None:
        """Reconcile any driver-private state back into the controllers.

        ``stop`` is the first round *not* executed; it may be earlier
        than the ``stop`` passed to :meth:`begin_block` when the block
        aborted mid-way (e.g. an energy-cap violation), so drivers that
        keep canonical copies must sync what they have, not assume the
        block completed.
        """

    def advance_span(self, start: int, stop: int) -> None:
        """Observe that quiescent rounds ``[start, stop)`` were elided.

        Controllers are advanced by the engine via ``advance_silent_span``
        as usual; this hook exists for drivers that additionally keep
        canonical state of their own (default: no-op).
        """

    # -- per-round protocol ---------------------------------------------------
    @abc.abstractmethod
    def transmitter(self, t: int) -> int:
        """Station id of round ``t``'s sole candidate transmitter, -1 if none."""

    @abc.abstractmethod
    def silent_round(self, t: int) -> None:
        """Apply the effects of a SILENCE outcome in round ``t``."""

    @abc.abstractmethod
    def heard_round(self, t: int, sender: int, message: "Message") -> tuple[int, ...]:
        """Apply the effects of ``sender``'s message being heard in round ``t``.

        Returns the station ids whose queue length may have changed.
        """

"""Round-synchronous simulation engine for the multiple access channel.

The engine owns the physics of the model in Section 2 of the paper:

* time is divided into rounds; all stations start in round 0;
* in a round, each switched-on station either transmits one message or
  listens; if exactly one station transmits, every switched-on station
  hears the message (including the transmitter); two or more simultaneous
  transmissions collide and nobody hears anything;
* a packet is *delivered* when it is heard on the channel in a round in
  which its destination station is switched on; the destination consumes
  it;
* the energy spent in a round equals the number of switched-on stations;
  an energy cap bounds that number.

The engine is deliberately oblivious to *how* stations decide to act: all
algorithm logic lives in :class:`~repro.channel.station.StationController`
subclasses.  The engine performs correctness bookkeeping (exactly-once
delivery to the right destination), metrics collection and optional
tracing.

:class:`RoundEngine` is the *reference* loop: fully checked, traceable,
with an observable per-round event record.  Its semantics are the oracle
for the capability-negotiated fast loop in
:mod:`repro.channel.kernel`, which produces bit-identical summaries while
skipping the bookkeeping a given run does not need.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .energy import EnergyMonitor
from .events import ExecutionTrace, InjectionEvent, RoundEvent
from .feedback import ChannelOutcome, Feedback
from .message import Message
from .packet import Packet
from .station import StationController

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..adversary.base import Adversary
    from ..metrics.collector import MetricsCollector

__all__ = [
    "AdversaryView",
    "DEFAULT_PLAN_CHUNK",
    "DEFAULT_VIEW_WINDOW",
    "EngineConfig",
    "RoundEngine",
    "ScheduleBackedView",
    "check_message",
    "negotiated_view_window",
    "validate_controllers",
]

#: Default batching granularity (in rounds) of the kernel engine's chunked
#: machinery: injection plans are requested and the schedule-backed view's
#: history ring is refreshed once per this many rounds.
DEFAULT_PLAN_CHUNK = 4096

#: History window the reference engine keeps even for adversaries that
#: declared a smaller (or zero) observation window: short-run debugging and
#: engine-level tests read the view directly, so the checked loop never
#: truncates below this many rounds.  Long runs thereby stay at O(window)
#: memory instead of O(rounds) unless ``EngineConfig(full_history=True)``.
DEFAULT_VIEW_WINDOW = 1024


@dataclass(slots=True)
class AdversaryView:
    """What an (adaptive) adversary may observe about the execution.

    The adversarial model places no restriction on the adversary's
    knowledge — it is a worst-case abstraction — so the view exposes the
    history of awake sets, the channel outcomes and per-station queue
    sizes up to and including the *previous* round.  Injections for round
    ``t`` are decided before the stations of round ``t`` act.

    ``window`` bounds how many completed rounds the histories retain
    (``None`` keeps everything).  Per-station on-round counts are
    maintained incrementally from round 0 whenever the engine feeds the
    view through :meth:`observe_round`, so
    :meth:`station_on_rounds` is exact regardless of the window.
    """

    n: int
    round_no: int = 0
    awake_history: list[tuple[int, ...]] = field(default_factory=list)
    outcome_history: list[ChannelOutcome] = field(default_factory=list)
    queue_sizes: list[int] = field(default_factory=list)
    delivered_total: int = 0
    window: int | None = None
    _on_counts: list[int] | None = field(default=None, init=False)
    _observed_rounds: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.window is not None:
            if self.window < 0:
                raise ValueError("view window must be >= 0 (or None)")
            self.awake_history = deque(self.awake_history, maxlen=self.window)
            self.outcome_history = deque(self.outcome_history, maxlen=self.window)

    # -- engine-facing update ------------------------------------------------
    def observe_round(
        self,
        awake: tuple[int, ...],
        outcome: ChannelOutcome,
        queue_sizes: list[int],
        delivered_total: int,
    ) -> None:
        """Record one completed round (called by the engines, once per round)."""
        self.awake_history.append(awake)
        self.outcome_history.append(outcome)
        self.queue_sizes = queue_sizes
        self.delivered_total = delivered_total
        counts = self._on_counts
        if counts is None:
            counts = self._on_counts = [0] * self.n
        for i in awake:
            counts[i] += 1
        self._observed_rounds += 1

    # -- adversary-facing queries -------------------------------------------
    def last_awake(self) -> tuple[int, ...]:
        """Awake set of the most recent completed round (empty if none)."""
        return self.awake_history[-1] if self.awake_history else ()

    def station_on_rounds(self, station: int) -> int:
        """How many completed rounds ``station`` has spent switched on.

        Exact from round 0 (independent of the history window) when the
        view is engine-maintained; hand-assembled views (tests) fall back
        to counting over whatever history is present.
        """
        if self._observed_rounds:
            assert self._on_counts is not None
            return self._on_counts[station]
        return sum(1 for awake in self.awake_history if station in awake)

    def least_on_station(self) -> int:
        """The station with the fewest on-rounds (ties broken by name).

        Equivalent to minimising ``(station_on_rounds(i), i)`` over all
        stations, but in one pass over the incrementally maintained count
        table instead of ``n`` method calls — the hot query of the
        starvation-style adaptive adversaries.
        """
        counts = self._on_counts
        if self._observed_rounds and counts is not None:
            return counts.index(min(counts))
        return min(range(self.n), key=lambda i: (self.station_on_rounds(i), i))


class ScheduleBackedView(AdversaryView):
    """Adversary view whose awake-derived state comes from the schedule.

    Used by the kernel engine for *windowed* adversaries when the run is
    on the static-schedule fast path: the per-round awake sets are a pure
    function of the published periodic schedule, so none of the per-round
    pushes that derive from them are necessary.  Maintenance becomes

    * **O(1) per round** (:meth:`observe_scheduled`): one outcome push
      and two reference assignments — no awake tuple append, no queue
      snapshot copy, no per-station count loop;
    * **one vectorised add per period**: exact per-station on-counts are
      ``full_periods * period_totals + prefix[pos]`` against the
      schedule's precomputed on-count prefix series
      (:meth:`~repro.core.schedule.ObliviousSchedule.period_on_count_prefix`);
    * **one ring refresh per chunk** (:meth:`flush_window`): the bounded
      ``awake_history`` ring is rebuilt from the period in bulk.

    The query API (:meth:`last_awake`, :meth:`station_on_rounds`,
    :meth:`least_on_station`, ``queue_sizes``, ``delivered_total``,
    ``outcome_history``) is exact after every round — property-tested
    against the incremental :meth:`AdversaryView.observe_round` path.
    Only the raw ``awake_history`` attribute lags at chunk granularity
    between flushes; in-repo adversaries read awake-set history solely
    through the query methods.

    ``queue_sizes`` deliberately aliases the engine's live size list: the
    kernel only mutates it *after* the round's injections are decided, so
    every adversary read observes the end-of-previous-round snapshot the
    reference loop would have copied.
    """

    __slots__ = (
        "_period",
        "_period_len",
        "_prefix",
        "_period_totals",
        "_base_counts",
        "_completed",
        "_flushed",
    )

    def __init__(
        self,
        n: int,
        window: int,
        period: tuple[tuple[int, ...], ...],
        prefix: "np.ndarray",
    ) -> None:
        super().__init__(n=n, window=window)
        if len(prefix) != len(period) + 1:
            raise ValueError("on-count prefix series does not match the period")
        self._period = period
        self._period_len = len(period)
        self._prefix = prefix
        self._period_totals = prefix[-1]
        self._base_counts = np.zeros(n, dtype=np.int64)
        self._completed = 0
        self._flushed = 0

    # -- engine-facing update ----------------------------------------------
    def observe_scheduled(
        self,
        outcome: ChannelOutcome,
        queue_sizes: list[int],
        delivered_total: int,
    ) -> None:
        """Record one completed round whose awake set the schedule implies."""
        self.outcome_history.append(outcome)
        self.queue_sizes = queue_sizes
        self.delivered_total = delivered_total
        completed = self._completed + 1
        self._completed = completed
        if completed % self._period_len == 0:
            self._base_counts += self._period_totals

    def flush_window(self) -> None:
        """Advance the awake-history ring to cover all completed rounds."""
        completed, flushed = self._completed, self._flushed
        if completed == flushed:
            return
        start = flushed
        window = self.window
        if window is not None and completed - flushed > window:
            start = completed - window
        period, period_len = self._period, self._period_len
        self.awake_history.extend(
            period[t % period_len] for t in range(start, completed)
        )
        self._flushed = completed

    # -- adversary-facing queries -------------------------------------------
    def last_awake(self) -> tuple[int, ...]:
        if not self._completed:
            return ()
        return self._period[(self._completed - 1) % self._period_len]

    def station_on_rounds(self, station: int) -> int:
        pos = self._completed % self._period_len
        return int(self._base_counts[station] + self._prefix[pos, station])

    def least_on_station(self) -> int:
        pos = self._completed % self._period_len
        # np.argmin returns the first minimum, matching the (count, name)
        # tie-break of the incremental path.
        return int(np.argmin(self._base_counts + self._prefix[pos]))


def negotiated_view_window(adversary: "Adversary", full_history: bool) -> int | None:
    """The history window an adversary's observation profile asks for.

    ``None`` means unbounded.  Objects without an ``observation_profile``
    capability (duck-typed so the channel layer stays decoupled from the
    adversary package) conservatively get full history.
    """
    if full_history:
        return None
    profile = getattr(adversary, "observation_profile", None)
    if profile is None:
        return None
    return profile().window


@dataclass(slots=True)
class EngineConfig:
    """Configuration knobs of :class:`RoundEngine` (and the kernel loop).

    ``full_history`` overrides the adversary's declared observation
    profile and keeps the unbounded :class:`AdversaryView` histories of
    the original engine — the opt-in for debugging sessions and for
    adversaries written before observation profiles existed.

    ``plan_chunk`` is the kernel loop's batching granularity in rounds:
    how many rounds of injections one ``plan_injections`` call
    materialises, and how often the schedule-backed view's history ring
    is refreshed.  Purely an execution-strategy knob — results are
    bit-identical for every value (property-tested) — exposed for tuning
    and for tests that want many chunk boundaries.  Ignored by the
    reference loop.

    ``quiescence_skip`` enables the kernel loop's quiescent-span fast
    path: when every controller declares ``silence_invariant`` and all
    queues are empty, whole injection-free spans are elided in one step.
    Another execution-strategy knob — results are bit-identical either
    way (property-tested); switching it off recovers the strictly
    per-round kernel loop for comparison benchmarks.  Ignored by the
    reference loop.

    ``lowering`` enables the block engine's segment-lowering tier:
    drivers prove closed-form spans inside compiled blocks, which then
    execute as array kernels.  Results are bit-identical either way
    (property-tested); switching it off recovers the strictly per-round
    compiled steps for comparison benchmarks.  Ignored by the kernel and
    reference loops.
    """

    energy_cap: int | None = None
    enforce_energy_cap: bool = True
    record_trace: bool = False
    check_plain_packet: bool = False
    max_control_bits: int | None = None
    full_history: bool = False
    plan_chunk: int = DEFAULT_PLAN_CHUNK
    quiescence_skip: bool = True
    lowering: bool = True

    def __post_init__(self) -> None:
        # Fail fast on a mistyped option: plan_chunk takes ints (numpy ints
        # too, via operator.index) but not bools, floats or strings, and
        # the switches take only bools, so "no" cannot silently mean True.
        chunk = self.plan_chunk
        if isinstance(chunk, bool):
            raise TypeError(f"plan_chunk must be an integer, got {chunk!r}")
        try:
            self.plan_chunk = operator.index(chunk)
        except TypeError:
            raise TypeError(f"plan_chunk must be an integer, got {chunk!r}") from None
        for name in ("quiescence_skip", "lowering"):
            if not isinstance(getattr(self, name), bool):
                raise TypeError(f"{name} must be a bool, got {getattr(self, name)!r}")
        if self.plan_chunk < 1:
            raise ValueError("plan_chunk must be at least 1 round")


def validate_controllers(
    controllers: Sequence[StationController],
) -> list[StationController]:
    """Shared engine-construction check: one controller per station, in order."""
    if not controllers:
        raise ValueError("at least one station controller is required")
    out = list(controllers)
    for expected, ctrl in enumerate(out):
        if ctrl.station_id != expected:
            raise ValueError(
                f"controller at index {expected} has station_id {ctrl.station_id}"
            )
    return out


def check_message(config: EngineConfig, sender: int, message: Message) -> None:
    """Shared per-transmission discipline checks (both engine loops)."""
    if message.sender != sender:
        raise ValueError(
            f"station {sender} transmitted a message claiming sender {message.sender}"
        )
    if config.check_plain_packet and not message.is_plain_packet:
        raise ValueError(
            f"plain-packet discipline violated by station {sender}: {message!r}"
        )
    if (
        config.max_control_bits is not None
        and message.control_bits() > config.max_control_bits
    ):
        raise ValueError(
            f"station {sender} transmitted {message.control_bits()} control bits, "
            f"limit is {config.max_control_bits}"
        )


class RoundEngine:
    """Drives controllers, an adversary and the metrics collector in rounds.

    Parameters
    ----------
    controllers:
        One controller per station, indexed by station name.
    adversary:
        The packet-injection adversary (already bound to ``n``).
    collector:
        Metrics collector; a fresh default one is created when omitted.
    config:
        Engine configuration (energy cap, tracing, message discipline
        checks).
    """

    def __init__(
        self,
        controllers: Sequence[StationController],
        adversary: "Adversary",
        collector: "MetricsCollector | None" = None,
        config: EngineConfig | None = None,
    ) -> None:
        self.controllers = validate_controllers(controllers)
        self.n = len(self.controllers)
        self.adversary = adversary
        self.config = config or EngineConfig()
        if collector is None:
            from ..metrics.collector import MetricsCollector

            collector = MetricsCollector()
        self.collector = collector
        self.energy = EnergyMonitor(
            cap=self.config.energy_cap, enforce=self.config.enforce_energy_cap
        )
        self.trace = ExecutionTrace() if self.config.record_trace else None
        # The checked loop keeps the view observable for tests/debugging:
        # at least DEFAULT_VIEW_WINDOW rounds of history even when the
        # adversary declared a smaller (or zero) observation window.
        window = negotiated_view_window(adversary, self.config.full_history)
        if window is not None:
            window = max(window, DEFAULT_VIEW_WINDOW)
        self.view = AdversaryView(n=self.n, window=window)
        self.round_no = 0

    # -- main loop ---------------------------------------------------------
    def run(self, rounds: int) -> None:
        """Simulate ``rounds`` further rounds."""
        for _ in range(rounds):
            self.step()

    def step(self) -> RoundEvent:
        """Simulate a single round and return its event record."""
        t = self.round_no
        self.view.round_no = t

        # 1. Adversarial injections (stations receive packets even when off).
        injections = self._inject(t)

        # 2. On/off decisions and energy accounting.  Tick-split
        # controllers (``ticked_wakes``) advance their shared wake oracle
        # inside the first ``wakes`` call of the round and answer purely
        # thereafter, so this per-station loop doubles as the legacy
        # driver of the tick protocol.
        awake = tuple(
            i for i, ctrl in enumerate(self.controllers) if ctrl.wakes(t)
        )
        self.energy.observe(t, len(awake))

        # 3. Awake stations act: transmit or listen.
        transmissions: list[Message] = []
        transmitters: list[int] = []
        for i in awake:
            message = self.controllers[i].act(t)
            if message is None:
                continue
            self._check_message(i, message)
            transmissions.append(message)
            transmitters.append(i)

        # 4. Channel arbitration.
        if not transmissions:
            outcome, heard = ChannelOutcome.SILENCE, None
        elif len(transmissions) == 1:
            outcome, heard = ChannelOutcome.HEARD, transmissions[0]
        else:
            outcome, heard = ChannelOutcome.COLLISION, None

        # 5. Delivery bookkeeping.
        delivered_packet: Packet | None = None
        if (
            outcome is ChannelOutcome.HEARD
            and heard is not None
            and heard.packet is not None
            and heard.packet.destination in awake
        ):
            delivered_packet = heard.packet
            self.collector.record_delivery(
                delivered_packet, heard.packet.destination, t
            )

        # 6. Feedback to awake stations.
        feedback = Feedback(
            round_no=t,
            outcome=outcome,
            message=heard,
            delivered=delivered_packet is not None,
        )
        for i in awake:
            self.controllers[i].on_feedback(t, feedback)

        # 7. Metrics: queue sizes after the round.
        queue_sizes = [ctrl.queued_packets() for ctrl in self.controllers]
        self.collector.record_round(t, queue_sizes, len(awake), outcome)

        # 8. Adversary view update.
        self.view.observe_round(
            awake, outcome, queue_sizes, self.collector.delivered_count
        )

        event = RoundEvent(
            round_no=t,
            awake=awake,
            transmitters=tuple(transmitters),
            outcome=outcome,
            message=heard,
            delivered_packet=delivered_packet,
            injections=tuple(injections),
        )
        if self.trace is not None:
            self.trace.append(event)
        self.round_no += 1
        return event

    # -- helpers -----------------------------------------------------------
    def _inject(self, t: int) -> list[InjectionEvent]:
        events: list[InjectionEvent] = []
        for station, packet in self.adversary.inject(t, self.view):
            if not 0 <= station < self.n:
                raise ValueError(f"adversary injected into unknown station {station}")
            if not 0 <= packet.destination < self.n:
                raise ValueError(
                    f"adversary created packet with unknown destination {packet.destination}"
                )
            self.controllers[station].on_inject(t, packet)
            self.collector.record_injection(packet, t)
            events.append(InjectionEvent(round_no=t, station=station, packet=packet))
        return events

    def _check_message(self, sender: int, message: Message) -> None:
        check_message(self.config, sender, message)

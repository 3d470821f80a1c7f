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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

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
    "EngineConfig",
    "RoundEngine",
    "check_message",
    "validate_controllers",
]

#: Default batching granularity (in rounds) of the kernel engine's chunked
#: machinery: injection plans are requested once per this many rounds.
DEFAULT_PLAN_CHUNK = 4096


class AdversaryView:
    """What the adaptive adversary observes: per-station on-round counts.

    The adversarial model places no restriction on the adversary's
    knowledge, but the paper's one adaptive construction (the cap-2
    impossibility, Theorem 2) reads only how often each station has been
    switched on in the completed rounds.  The engines feed the view once
    per round through :meth:`observe_round`, after the round completes,
    so injections for round ``t`` see the counts of rounds ``[0, t)``.
    """

    __slots__ = ("n", "_on_counts")

    def __init__(self, n: int) -> None:
        self.n = n
        self._on_counts = [0] * n

    # -- engine-facing update ------------------------------------------------
    def observe_round(self, awake: Sequence[int]) -> None:
        """Count one completed round's awake stations (once per round)."""
        counts = self._on_counts
        for i in awake:
            counts[i] += 1

    # -- adversary-facing queries -------------------------------------------
    def station_on_rounds(self, station: int) -> int:
        """How many completed rounds ``station`` has spent switched on."""
        return self._on_counts[station]

    def least_on_station(self) -> int:
        """The station with the fewest on-rounds (ties broken by name)."""
        counts = self._on_counts
        return counts.index(min(counts))


@dataclass(slots=True)
class EngineConfig:
    """Configuration knobs of :class:`RoundEngine` (and the kernel loop).

    ``plan_chunk`` is the kernel loop's batching granularity in rounds:
    how many rounds of injections one ``plan_injections`` call
    materialises (the blocks a driver cuts replay that plan).  Purely
    an execution-strategy knob — results are bit-identical for every
    value (property-tested) — exposed for tuning and for tests that want
    many chunk boundaries.  Ignored by the reference loop.

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
        # Sized up front, as the kernel does, so a run that raises in
        # its first round leaves the same per-station maxima.
        collector.begin_stations(self.n)
        self.energy = EnergyMonitor(
            cap=self.config.energy_cap, enforce=self.config.enforce_energy_cap
        )
        self.trace = ExecutionTrace() if self.config.record_trace else None
        # The checked loop feeds the view every round, whatever the
        # adversary, so tests and debugging can always read it.
        self.view = AdversaryView(self.n)
        self.round_no = 0

    # -- main loop ---------------------------------------------------------
    def run(self, rounds: int) -> None:
        """Simulate ``rounds`` further rounds."""
        for _ in range(rounds):
            self.step()

    def step(self) -> RoundEvent:
        """Simulate a single round and return its event record."""
        t = self.round_no

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
        self.view.observe_round(awake)

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

"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.channel.feedback import Feedback
from repro.channel.message import Message
from repro.channel.packet import Packet, PacketFactory
from repro.channel.station import StationController
from repro.sim import run_simulation


class ScriptedController(StationController):
    """A controller driven by explicit per-round scripts.

    ``awake_rounds`` maps round -> bool (default: awake every round).
    ``transmissions`` maps round -> Message factory or Message.
    Heard feedback, injections and silence are recorded for assertions.
    """

    def __init__(self, station_id: int, n: int, awake_rounds=None, transmissions=None):
        super().__init__(station_id, n)
        self.awake_rounds = awake_rounds
        self.transmissions = dict(transmissions or {})
        self.heard: list[tuple[int, Message]] = []
        self.feedback_log: list[Feedback] = []
        self.injected: list[Packet] = []

    def wakes(self, round_no: int) -> bool:
        if self.awake_rounds is None:
            return True
        if callable(self.awake_rounds):
            return bool(self.awake_rounds(round_no))
        return bool(self.awake_rounds.get(round_no, False))

    def act(self, round_no: int):
        entry = self.transmissions.get(round_no)
        if entry is None:
            return None
        if callable(entry):
            entry = entry(round_no)
        return entry

    def on_feedback(self, round_no: int, feedback: Feedback) -> None:
        self.feedback_log.append(feedback)
        if feedback.heard and feedback.message is not None:
            self.heard.append((round_no, feedback.message))

    def on_inject(self, round_no: int, packet: Packet) -> None:
        self.injected.append(packet)

    def queued_packets(self) -> int:
        return len(self.injected)


@pytest.fixture
def packet_factory() -> PacketFactory:
    return PacketFactory()


@pytest.fixture
def make_packet(packet_factory):
    """Convenience factory: make_packet(destination, injected_at=0, origin=0)."""

    def _make(destination: int, injected_at: int = 0, origin: int = 0) -> Packet:
        return packet_factory.make(destination, injected_at, origin)

    return _make


@pytest.fixture
def scripted_controller_cls():
    return ScriptedController


@pytest.fixture(scope="session")
def execute_with_options():
    """``run(spec, **options)``: execute ``spec`` as
    :func:`repro.sim.execute_spec` does, handing ``options``
    (``plan_chunk``, ``quiescence_skip``, ``lowering``) to the engine's
    :class:`~repro.channel.engine.EngineConfig` through
    :func:`repro.sim.run_simulation`."""

    def run(spec, **options):
        algorithm = spec.build_algorithm()
        return run_simulation(
            algorithm,
            spec.build_adversary(algorithm),
            spec.rounds,
            enforce_energy_cap=spec.enforce_energy_cap,
            energy_cap=spec.energy_cap,
            record_trace=spec.record_trace,
            label=spec.label,
            engine=spec.engine,
            **options,
        )

    return run

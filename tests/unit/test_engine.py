"""Unit tests for the round engine: arbitration, delivery, checks."""

import numpy as np
import pytest

from repro.adversary import NoInjectionAdversary, SingleTargetAdversary
from repro.channel.engine import EngineConfig, RoundEngine
from repro.channel.energy import EnergyCapViolation
from repro.channel.feedback import ChannelOutcome
from repro.channel.message import Message
from repro.channel.packet import PacketFactory
from repro.metrics.collector import MetricsCollector
from repro.sim import RunSpec


def build_engine(controllers, adversary=None, **config_kwargs):
    adversary = adversary or NoInjectionAdversary().bind(len(controllers))
    config = EngineConfig(record_trace=True, **config_kwargs)
    return RoundEngine(controllers, adversary, MetricsCollector(), config)


class TestArbitration:
    def test_silent_round(self, scripted_controller_cls):
        controllers = [scripted_controller_cls(i, 3) for i in range(3)]
        engine = build_engine(controllers)
        event = engine.step()
        assert event.outcome is ChannelOutcome.SILENCE
        for ctrl in controllers:
            assert ctrl.feedback_log[-1].silent

    def test_single_transmission_heard_by_awake_stations(
        self, scripted_controller_cls, make_packet
    ):
        packet = make_packet(destination=2)
        msg = Message(sender=0, packet=packet)
        controllers = [
            scripted_controller_cls(0, 3, transmissions={0: msg}),
            scripted_controller_cls(1, 3, awake_rounds={0: False}),
            scripted_controller_cls(2, 3),
        ]
        engine = build_engine(controllers)
        # The packet was hand-crafted rather than injected by the adversary;
        # register it so the delivery bookkeeping has a matching record.
        engine.collector.record_injection(packet, 0)
        event = engine.step()
        assert event.outcome is ChannelOutcome.HEARD
        assert event.delivered_packet is packet
        # Station 1 was asleep: no feedback at all.
        assert controllers[1].feedback_log == []
        # Transmitter hears its own message.
        assert controllers[0].heard[0][1] is msg
        assert controllers[2].heard[0][1] is msg

    def test_collision_nobody_hears(self, scripted_controller_cls, make_packet):
        msg_a = Message(sender=0, packet=make_packet(2))
        msg_b = Message(sender=1, packet=make_packet(2))
        controllers = [
            scripted_controller_cls(0, 3, transmissions={0: msg_a}),
            scripted_controller_cls(1, 3, transmissions={0: msg_b}),
            scripted_controller_cls(2, 3),
        ]
        engine = build_engine(controllers)
        event = engine.step()
        assert event.outcome is ChannelOutcome.COLLISION
        assert event.delivered_packet is None
        assert all(f.collision for c in controllers for f in c.feedback_log)

    def test_delivery_requires_destination_awake(
        self, scripted_controller_cls, make_packet
    ):
        packet = make_packet(destination=2)
        msg = Message(sender=0, packet=packet)
        controllers = [
            scripted_controller_cls(0, 3, transmissions={0: msg}),
            scripted_controller_cls(1, 3),
            scripted_controller_cls(2, 3, awake_rounds={0: False}),
        ]
        engine = build_engine(controllers)
        event = engine.step()
        assert event.outcome is ChannelOutcome.HEARD
        assert event.delivered_packet is None
        assert engine.collector.delivered_count == 0


class TestEngineChecks:
    def test_controllers_must_be_indexed_by_station(self, scripted_controller_cls):
        controllers = [scripted_controller_cls(1, 2), scripted_controller_cls(0, 2)]
        with pytest.raises(ValueError):
            build_engine(controllers)

    def test_empty_controller_list_rejected(self):
        with pytest.raises(ValueError):
            build_engine([])

    def test_sender_spoofing_rejected(self, scripted_controller_cls, make_packet):
        msg = Message(sender=1, packet=make_packet(2))
        controllers = [
            scripted_controller_cls(0, 3, transmissions={0: msg}),
            scripted_controller_cls(1, 3),
            scripted_controller_cls(2, 3),
        ]
        engine = build_engine(controllers)
        with pytest.raises(ValueError, match="claiming sender"):
            engine.step()

    def test_energy_cap_enforced(self, scripted_controller_cls):
        controllers = [scripted_controller_cls(i, 3) for i in range(3)]
        engine = build_engine(controllers, energy_cap=2, enforce_energy_cap=True)
        with pytest.raises(EnergyCapViolation):
            engine.step()

    def test_energy_cap_recorded_only(self, scripted_controller_cls):
        controllers = [scripted_controller_cls(i, 3) for i in range(3)]
        engine = build_engine(controllers, energy_cap=2, enforce_energy_cap=False)
        engine.step()
        assert engine.energy.violations == 1

    def test_plain_packet_check(self, scripted_controller_cls):
        msg = Message(sender=0, control={"count": 1})
        controllers = [
            scripted_controller_cls(0, 3, transmissions={0: msg}),
            scripted_controller_cls(1, 3),
            scripted_controller_cls(2, 3),
        ]
        engine = build_engine(controllers, check_plain_packet=True)
        with pytest.raises(ValueError, match="plain-packet"):
            engine.step()

    def test_control_bit_limit(self, scripted_controller_cls):
        msg = Message(sender=0, control={"value": 2**40})
        controllers = [
            scripted_controller_cls(0, 3, transmissions={0: msg}),
            scripted_controller_cls(1, 3),
            scripted_controller_cls(2, 3),
        ]
        engine = build_engine(controllers, max_control_bits=8)
        with pytest.raises(ValueError, match="control bits"):
            engine.step()

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("plan_chunk", "64"),
            ("plan_chunk", 64.5),
            ("plan_chunk", True),
            ("quiescence_skip", "no"),
            ("quiescence_skip", None),
            ("lowering", 0),
            ("lowering", "false"),
        ],
    )
    def test_mistyped_options_raise_type_error(self, field, bad, execute_with_options):
        # A mistyped option fails when the config is built, before any
        # round runs, and is not coerced (bool("false") would flip a switch).
        with pytest.raises(TypeError, match=field):
            EngineConfig(**{field: bad})
        spec = RunSpec(
            algorithm="rrw",
            algorithm_params={"n": 3},
            adversary="round-robin",
            adversary_params={"rho": 0.5, "beta": 1.0},
            rounds=10,
        )
        with pytest.raises(TypeError, match=field):
            execute_with_options(spec, **{field: bad})

    def test_plan_chunk_accepts_numpy_ints(self):
        config = EngineConfig(plan_chunk=np.int64(64))
        assert config.plan_chunk == 64 and type(config.plan_chunk) is int
        with pytest.raises(ValueError, match="plan_chunk"):
            EngineConfig(plan_chunk=0)


class TestInjectionPath:
    def test_injections_reach_controller_and_collector(self, scripted_controller_cls):
        controllers = [scripted_controller_cls(i, 3) for i in range(3)]
        adversary = SingleTargetAdversary(rho=1.0, beta=1.0, source=1, destination=2)
        adversary.bind(3, PacketFactory())
        engine = build_engine(controllers, adversary)
        engine.run(5)
        assert len(controllers[1].injected) == engine.collector.injected_count > 0
        assert all(p.destination == 2 for p in controllers[1].injected)

    def test_view_counts_each_station_on_rounds(self, scripted_controller_cls):
        controllers = [
            scripted_controller_cls(0, 2, awake_rounds=lambda t: t % 2 == 0),
            scripted_controller_cls(1, 2),
        ]
        engine = build_engine(controllers)
        engine.run(4)
        assert engine.view.station_on_rounds(0) == 2
        assert engine.view.station_on_rounds(1) == 4

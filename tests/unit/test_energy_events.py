"""Unit tests for energy accounting and execution traces."""

import pytest

from repro.channel.energy import EnergyCapViolation, EnergyMonitor
from repro.channel.events import ExecutionTrace, InjectionEvent, RoundEvent
from repro.channel.feedback import ChannelOutcome
from repro.channel.message import Message
from repro.channel.packet import Packet


class TestEnergyMonitor:
    def test_enforced_cap_raises(self):
        monitor = EnergyMonitor(cap=2, enforce=True)
        monitor.observe(0, 2)
        with pytest.raises(EnergyCapViolation) as excinfo:
            monitor.observe(1, 3)
        assert excinfo.value.round_no == 1
        assert excinfo.value.awake == 3
        assert excinfo.value.cap == 2

    def test_unenforced_cap_counts_violations(self):
        monitor = EnergyMonitor(cap=2, enforce=False)
        monitor.observe(0, 5)
        monitor.observe(1, 1)
        assert monitor.violations == 1

    def test_uncapped_monitor_counts_nothing(self):
        monitor = EnergyMonitor(cap=None)
        for t, awake in enumerate([1, 3, 2]):
            monitor.observe(t, awake)
        assert monitor.violations == 0


def _round_event(t, awake=(), outcome=ChannelOutcome.SILENCE, message=None,
                 delivered=None, injections=()):
    return RoundEvent(
        round_no=t,
        awake=tuple(awake),
        transmitters=tuple(m.sender for m in ([message] if message else [])),
        outcome=outcome,
        message=message,
        delivered_packet=delivered,
        injections=tuple(injections),
    )


class TestExecutionTrace:
    def test_round_queries(self):
        p = Packet(destination=1, injected_at=0, origin=0, packet_id=0)
        msg = Message(sender=0, packet=p)
        light = Message(sender=0, control={"x": 1})
        trace = ExecutionTrace()
        trace.append(_round_event(0))
        trace.append(_round_event(1, awake=(0, 1), outcome=ChannelOutcome.HEARD,
                                  message=msg, delivered=p))
        trace.append(_round_event(2, awake=(0,), outcome=ChannelOutcome.HEARD,
                                  message=light))
        trace.append(_round_event(3, awake=(0, 1, 2), outcome=ChannelOutcome.COLLISION))

        assert len(trace) == 4
        assert trace.silent_rounds() == [0]
        assert trace.collision_rounds() == [3]
        assert trace.light_rounds() == [2]
        assert trace.delivered_packets() == [p]
        assert trace.energy_series() == [0, 2, 1, 3]
        assert trace.awake_sets()[3] == (0, 1, 2)
        assert trace[1].energy == 2

    def test_injections_collected_in_order(self):
        p0 = Packet(destination=1, injected_at=0, origin=0, packet_id=0)
        p1 = Packet(destination=2, injected_at=1, origin=0, packet_id=1)
        trace = ExecutionTrace()
        trace.append(_round_event(0, injections=[InjectionEvent(0, 0, p0)]))
        trace.append(_round_event(1, injections=[InjectionEvent(1, 0, p1)]))
        assert [e.packet for e in trace.injections()] == [p0, p1]

    def test_iteration(self):
        trace = ExecutionTrace()
        trace.append(_round_event(0))
        trace.append(_round_event(1))
        assert [e.round_no for e in trace] == [0, 1]


class TestTraceSerialisation:
    def test_round_trip_preserves_every_event(self):
        import json

        p = Packet(destination=1, injected_at=0, origin=0, packet_id=7)
        msg = Message(sender=0, packet=p, control={"big": True, "count": 3},
                      intended_receiver=1)
        light = Message(sender=2, control={"x": 1})
        trace = ExecutionTrace()
        trace.append(_round_event(0, injections=[InjectionEvent(0, 0, p)]))
        trace.append(_round_event(1, awake=(0, 1), outcome=ChannelOutcome.HEARD,
                                  message=msg, delivered=p))
        trace.append(_round_event(2, awake=(2,), outcome=ChannelOutcome.HEARD,
                                  message=light))
        trace.append(_round_event(3, awake=(0, 1, 2),
                                  outcome=ChannelOutcome.COLLISION))

        # Through actual JSON text, not just plain dicts.
        payload = json.dumps(trace.to_jsonable())
        restored = ExecutionTrace.from_jsonable(json.loads(payload))

        assert len(restored) == len(trace)
        assert restored.rounds == trace.rounds
        assert restored.silent_rounds() == trace.silent_rounds()
        assert restored.collision_rounds() == trace.collision_rounds()
        assert restored.light_rounds() == trace.light_rounds()
        assert restored.delivered_packets() == trace.delivered_packets()
        assert [e.packet for e in restored.injections()] == [p]

    def test_round_trip_of_engine_produced_trace(self):
        import json

        from repro.adversary import SingleTargetAdversary
        from repro.algorithms import KCycle
        from repro.sim import run_simulation

        result = run_simulation(
            KCycle(5, 2), SingleTargetAdversary(0.5, 2.0), 120, record_trace=True
        )
        assert result.trace is not None
        payload = json.dumps(result.trace.to_jsonable())
        restored = ExecutionTrace.from_jsonable(json.loads(payload))
        assert restored.rounds == result.trace.rounds

    def test_empty_trace_round_trip(self):
        restored = ExecutionTrace.from_jsonable(ExecutionTrace().to_jsonable())
        assert len(restored) == 0

"""Unit tests for packets, messages and control-bit accounting."""

import json
import pickle

import pytest

from repro.algorithms import KSubsets
from repro.channel.events import ExecutionTrace, RoundEvent
from repro.channel.feedback import ChannelOutcome
from repro.channel.message import Message, control_bit_cost
from repro.channel.packet import Packet, PacketFactory
from repro.core.controller import QueueingController


class TestPacket:
    def test_fields_are_stored(self):
        p = Packet(destination=3, injected_at=10, origin=1, packet_id=7)
        assert p.destination == 3
        assert p.injected_at == 10
        assert p.origin == 1
        assert p.packet_id == 7
        assert Packet(3, 10, 1, 7) == p and p.content is None

    def test_delay_if_delivered(self):
        p = Packet(destination=1, injected_at=5, origin=0, packet_id=0)
        assert p.delay_if_delivered(12) == 7
        assert p.delay_if_delivered(5) == 0

    @pytest.mark.parametrize(
        "name", ["destination", "injected_at", "origin", "packet_id", "content"]
    )
    def test_packets_are_frozen(self, name):
        p = Packet(destination=1, injected_at=0, origin=0, packet_id=0)
        before = getattr(p, name)
        with pytest.raises(AttributeError):
            setattr(p, name, 2)
        assert getattr(p, name) == before

    def test_module_level_ids_are_unique(self):
        a = Packet(destination=1, injected_at=0, origin=0)
        b = Packet(destination=1, injected_at=0, origin=0)
        assert a.packet_id != b.packet_id

    def test_equals_the_plain_tuple_of_its_fields(self):
        p = Packet(1, 5, 2, 3, "x")
        assert p == (1, 5, 2, 3, "x")
        assert hash(p) == hash((1, 5, 2, 3, "x"))

    def test_value_equal_twin_is_equal_but_distinct(self):
        p = Packet(1, 5, 2, 3, "x")
        twin = Packet(1, 5, 2, 3, "x")
        assert twin == p and hash(twin) == hash(p)
        assert twin is not p
        assert Packet(1, 5, 2, 4, "x") != p

    def test_pickle_round_trip_keeps_type_value_and_hash(self):
        p = Packet(destination=1, injected_at=5, origin=2, packet_id=3, content="x")
        q = pickle.loads(pickle.dumps(p))
        assert type(q) is Packet
        assert q == p and hash(q) == hash(p)

    def test_pickle_round_trip_draws_no_module_id(self):
        p = Packet(destination=1, injected_at=0, origin=0)
        q = pickle.loads(pickle.dumps(p))
        assert q.packet_id == p.packet_id
        assert Packet(destination=1, injected_at=0, origin=0).packet_id == (
            p.packet_id + 1
        )

    def test_instances_have_no_dict(self):
        p = Packet(destination=1, injected_at=0, origin=0, packet_id=0)
        assert not hasattr(p, "__dict__")
        assert not hasattr(PacketFactory().make(1, 0, 0), "__dict__")


class TestPacketFactory:
    def test_ids_are_sequential_from_start(self):
        factory = PacketFactory(start=100)
        p1 = factory.make(1, 0, 0)
        p2 = factory.make(2, 0, 0)
        assert (p1.packet_id, p2.packet_id) == (100, 101)

    def test_created_counter(self):
        factory = PacketFactory()
        for _ in range(5):
            factory.make(1, 0, 0)
        assert factory.created == 5

    def test_positional_and_keyword_make_agree(self):
        factory = PacketFactory(start=10)
        a = factory.make(2, 7, 1)
        b = factory.make(destination=2, injected_at=7, origin=1)
        assert type(a) is Packet and type(b) is Packet
        assert (a.destination, a.injected_at, a.origin, a.content) == (2, 7, 1, None)
        assert (b.destination, b.injected_at, b.origin, b.content) == (2, 7, 1, None)
        assert (a.packet_id, b.packet_id) == (10, 11)
        assert a == Packet(2, 7, 1, 10) and b == Packet(2, 7, 1, 11)
        assert factory.make(2, 7, 1, content="c").content == "c"
        assert factory.created == 3

    def test_two_factories_are_independent(self):
        f1, f2 = PacketFactory(), PacketFactory()
        assert f1.make(1, 0, 0).packet_id == f2.make(1, 0, 0).packet_id

    def test_make_many_equals_make_in_order(self):
        destinations, rounds, origins = [2, 0, 3, 1], [5, 5, 7, 9], [1, 2, 0, 0]
        one_by_one = PacketFactory(start=40)
        expected = [
            one_by_one.make(*triple) for triple in zip(destinations, rounds, origins)
        ]
        batched = PacketFactory(start=40)
        packets = batched.make_many(destinations, rounds, origins)
        assert packets == expected
        assert [type(p) for p in packets] == [Packet] * 4
        assert [p.packet_id for p in packets] == [40, 41, 42, 43]
        assert all(p.content is None for p in packets)
        assert batched.created == one_by_one.created == 4

    def test_make_many_continues_the_id_sequence(self):
        factory = PacketFactory(start=10)
        first = factory.make(1, 0, 0)
        batch = factory.make_many([2, 3], [1, 1], [0, 0])
        after = factory.make(1, 2, 0)
        assert [first.packet_id, *(p.packet_id for p in batch), after.packet_id] == [
            10, 11, 12, 13
        ]
        assert factory.created == 4
        assert factory.make_many([], [], []) == []
        assert factory.created == 4 and factory.make(1, 3, 0).packet_id == 14


class TestControlBitCost:
    def test_none_costs_nothing(self):
        assert control_bit_cost(None) == 0

    def test_bool_costs_one_bit(self):
        assert control_bit_cost(True) == 1
        assert control_bit_cost(False) == 1

    def test_small_int_costs_few_bits(self):
        assert control_bit_cost(0) == 1
        assert control_bit_cost(1) >= 1
        assert control_bit_cost(7) <= 4

    def test_cost_grows_with_magnitude(self):
        assert control_bit_cost(10**6) > control_bit_cost(10)

    def test_tuple_costs_sum(self):
        assert control_bit_cost((3, 4)) == control_bit_cost(3) + control_bit_cost(4)

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            control_bit_cost("text")


class TestMessage:
    def test_light_message(self):
        m = Message(sender=0, packet=None, control={"count": 3})
        assert m.is_light
        assert not m.is_plain_packet
        assert m.control_bits() > 0

    def test_plain_packet_message(self):
        p = Packet(destination=1, injected_at=0, origin=0, packet_id=0)
        m = Message(sender=0, packet=p)
        assert m.is_plain_packet
        assert not m.is_light
        assert m.control_bits() == 0

    def test_packet_with_control_is_not_plain(self):
        p = Packet(destination=1, injected_at=0, origin=0, packet_id=0)
        m = Message(sender=0, packet=p, control={"big": True})
        assert not m.is_plain_packet
        assert not m.is_light

    def test_control_bits_sums_fields(self):
        m = Message(sender=0, control={"a": True, "b": 15})
        assert m.control_bits() == control_bit_cost(True) + control_bit_cost(15)

    @pytest.mark.parametrize(
        "name", ["sender", "packet", "control", "intended_receiver"]
    )
    def test_messages_are_frozen(self, name):
        m = Message(sender=0, packet=None, control={"a": True}, intended_receiver=2)
        before = getattr(m, name)
        with pytest.raises(AttributeError):
            setattr(m, name, 1)
        assert getattr(m, name) is before

    def test_equals_the_plain_tuple_of_its_fields(self):
        p = Packet(1, 5, 2, 3)
        m = Message(sender=0, packet=p, control={"big": True}, intended_receiver=1)
        assert m == (0, p, {"big": True}, 1)
        assert Message(0, p, {"big": True}, 1) == m
        assert Message(sender=4) == (4, None, {}, None)

    def test_instances_have_no_dict(self):
        assert not hasattr(Message(sender=0), "__dict__")

    def test_pickle_round_trip_keeps_type_and_value(self):
        p = Packet(destination=1, injected_at=5, origin=2, packet_id=3)
        m = Message(sender=2, packet=p, control={"count": 3}, intended_receiver=1)
        q = pickle.loads(pickle.dumps(m))
        assert type(q) is Message and type(q.packet) is Packet
        assert q == m

    def test_default_control_is_a_fresh_dict_per_message(self):
        a, b = Message(sender=0), Message(sender=1)
        assert a.control == {} and b.control == {}
        assert a.control is not b.control

    def test_transmit_builds_a_message(self):
        class Sender(QueueingController):
            def wakes(self, round_no):
                return True

            def act(self, round_no):
                return self.transmit(self.queue.peek_any(), intended_receiver=2)

        station = Sender(0, 3)
        p = Packet(destination=2, injected_at=0, origin=0, packet_id=0)
        station.on_inject(0, p)
        m = station.act(0)
        assert type(m) is Message
        assert m == (0, p, {}, 2)
        assert m.is_plain_packet and m.control_bits() == 0
        assert station.transmit(None).control is not m.control

    def test_k_subsets_act_builds_a_message(self):
        controllers = KSubsets(4, 2).build_controllers()
        p = Packet(destination=1, injected_at=0, origin=0, packet_id=0)
        controllers[0].on_inject(0, p)
        # ``wakes`` ticks the shared oracle before each ``act``.
        acts = [
            ctrl.act(t) for t in range(200) for ctrl in controllers if ctrl.wakes(t)
        ]
        sent = [m for m in acts if m is not None]
        assert sent and all(type(m) is Message for m in sent)
        assert sent[0].sender == 0 and sent[0].packet is p

    def test_trace_json_round_trip_restores_messages(self):
        p = Packet(destination=1, injected_at=0, origin=0, packet_id=7)
        trace = ExecutionTrace()
        for round_no, message in enumerate(
            [
                Message(
                    sender=0, packet=p, control={"seq": (1, 2)}, intended_receiver=1
                ),
                Message(sender=2, control={"x": 1}),
            ]
        ):
            trace.append(
                RoundEvent(
                    round_no=round_no,
                    awake=(0, 1, 2),
                    transmitters=(message.sender,),
                    outcome=ChannelOutcome.HEARD,
                    message=message,
                    delivered_packet=None,
                    injections=(),
                )
            )
        payload = json.dumps(trace.to_jsonable())
        restored = ExecutionTrace.from_jsonable(json.loads(payload))
        assert restored.rounds == trace.rounds
        assert [type(e.message) for e in restored.rounds] == [Message, Message]

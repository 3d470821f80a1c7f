"""Unit tests for packets, messages and control-bit accounting."""

import pickle

import pytest

from repro.channel.message import Message, control_bit_cost
from repro.channel.packet import Packet, PacketFactory


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

"""Property-based tests for PacketQueue invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.packet import Packet
from repro.core.queues import PacketQueue


def _packet(i: int, dest: int) -> Packet:
    return Packet(destination=dest, injected_at=0, origin=0, packet_id=i)


DESTINATIONS = 5

operations = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, DESTINATIONS - 1)),
        st.tuples(st.just("push_old"), st.integers(0, DESTINATIONS - 1)),
        st.tuples(st.just("age"), st.just(0)),
        st.tuples(st.just("pop_any"), st.just(0)),
        st.tuples(st.just("pop_old"), st.just(0)),
        st.tuples(st.just("pop_for"), st.integers(0, DESTINATIONS - 1)),
        st.tuples(st.just("remove"), st.integers(0, 10**6)),
        st.tuples(st.just("remove_gone"), st.integers(0, 10**6)),
        st.tuples(st.just("repush"), st.integers(0, 10**6)),
        st.tuples(st.just("repush_old"), st.integers(0, 10**6)),
        st.tuples(st.just("twin"), st.integers(0, 10**6)),
        st.tuples(st.just("peek_for"), st.integers(0, DESTINATIONS - 1)),
        st.tuples(st.just("peek_in"), st.frozensets(st.integers(0, DESTINATIONS - 1))),
    ),
    max_size=120,
)


def _first(store: list[Packet], wanted) -> Packet | None:
    return next((p for p in store if wanted(p.destination)), None)


def _ids(packets) -> list[int]:
    return [id(p) for p in packets]


def _check_against_model(ops, inspect_destinations: bool) -> None:
    """Replay ``ops`` on a queue and on two plain lists (old, new).

    Every returned packet must be the model's by identity, and after
    every operation the order and counts must agree; with
    ``inspect_destinations`` the per-destination counts and
    ``destinations()`` are checked too (which builds the index early).
    """
    queue = PacketQueue()
    old: list[Packet] = []
    new: list[Packet] = []
    removed: list[Packet] = []  # objects out of the queue, free to re-push
    next_id = 0

    def drop(packet: Packet) -> None:
        for store in (old, new):
            for position, queued in enumerate(store):
                if queued is packet:
                    del store[position]
                    removed.append(packet)
                    return
        raise AssertionError("dropped a packet the model does not hold")

    for op, arg in ops:
        live = old + new
        if op in ("push", "push_old", "twin", "repush", "repush_old"):
            if op in ("push", "push_old"):
                packet = _packet(next_id, arg)
                next_id += 1
            elif op == "twin":
                if not live + removed:
                    continue
                original = (live + removed)[arg % len(live + removed)]
                packet = Packet(
                    original.destination,
                    original.injected_at,
                    original.origin,
                    original.packet_id,
                    original.content,
                )
                assert packet == original and packet is not original
            else:
                if not removed:
                    continue
                packet = removed.pop(arg % len(removed))
            if op.endswith("_old"):
                queue.push_old(packet)
                old.append(packet)
            else:
                queue.push(packet)
                new.append(packet)
        elif op == "age":
            queue.age_all()
            old.extend(new)
            new.clear()
        elif op == "pop_any" and live:
            assert queue.pop_any() is live[0]
            drop(live[0])
        elif op == "pop_old" and old:
            head = old[0]
            assert queue.pop_old() is head
            drop(head)
        elif op == "pop_for":
            want = _first(live, arg.__eq__)
            assert queue.pop_any_for(arg) is want
            if want is not None:
                drop(want)
        elif op == "remove" and live:
            target = live[arg % len(live)]
            assert queue.remove(target) is True
            drop(target)
        elif op == "remove_gone" and removed:
            assert queue.remove(removed[arg % len(removed)]) is False
        elif op == "peek_for":
            assert queue.peek_old_for(arg) is _first(old, arg.__eq__)
            assert queue.peek_any_for(arg) is _first(live, arg.__eq__)
        elif op == "peek_in":
            assert queue.peek_old_in(arg) is _first(old, arg.__contains__)
            assert queue.peek_any_in(arg) is _first(live, arg.__contains__)

        assert _ids(queue.old_packets()) == _ids(old)
        assert _ids(queue.new_packets()) == _ids(new)
        assert _ids(queue) == _ids(old + new)
        assert (queue.old_count, queue.new_count) == (len(old), len(new))
        assert len(queue) == queue.size() == len(old) + len(new)
        assert bool(queue) == bool(old or new)
        assert queue.peek_old() is (old[0] if old else None)
        assert queue.peek_any() is ((old + new)[0] if old or new else None)
        if inspect_destinations:
            for d in range(DESTINATIONS):
                assert queue.count_old_for(d) == sum(p.destination == d for p in old)
                assert queue.count_for(d) == sum(
                    p.destination == d for p in old + new
                )
            assert queue.destinations() == {p.destination for p in old + new}
            assert queue.has_old_for(range(DESTINATIONS)) == bool(old)


@given(ops=operations, inspect_destinations=st.booleans())
@settings(max_examples=300, deadline=None)
def test_counts_always_consistent(ops, inspect_destinations):
    """The queue matches a plain-list model under any op mix: pushes,
    aging, pops, removal by identity at any position, re-pushed and
    value-equal distinct packets, and every per-destination peek."""
    _check_against_model(ops, inspect_destinations)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=8, deadline=None)
def test_long_runs_of_deep_removals_match_the_model(seed):
    """Backlogs of a few hundred packets with most removals below the
    head: dead entries pile up, reach the head and get purged."""
    rng = random.Random(seed)
    weighted = (
        ["push"] * 40 + ["remove"] * 30 + ["repush", "repush_old", "twin"] * 2
        + ["push_old", "pop_any", "pop_old", "pop_for", "remove_gone"] * 2
        + ["peek_for", "peek_in"] * 3 + ["age"]
    )
    ops = []
    for _ in range(1500):
        op = rng.choice(weighted)
        if op == "peek_in":
            arg = frozenset(rng.sample(range(DESTINATIONS), rng.randint(1, 3)))
        elif op in ("push", "push_old", "pop_for", "peek_for"):
            arg = rng.randrange(DESTINATIONS)
        else:
            arg = rng.randrange(10**6)
        ops.append((op, arg))
    _check_against_model(ops, inspect_destinations=seed % 2 == 0)


@given(destinations=st.lists(st.integers(0, 5), min_size=1, max_size=60))
@settings(max_examples=100, deadline=None)
def test_per_destination_counts_sum_to_total(destinations):
    queue = PacketQueue()
    for i, dest in enumerate(destinations):
        queue.push(_packet(i, dest))
    assert sum(queue.count_for(d) for d in range(6)) == len(queue)
    queue.age_all()
    assert sum(queue.count_old_for(d) for d in range(6)) == len(queue)


@given(destinations=st.lists(st.integers(0, 5), min_size=1, max_size=60))
@settings(max_examples=100, deadline=None)
def test_aging_preserves_fifo_order(destinations):
    """age_all never reorders packets relative to each other."""
    queue = PacketQueue()
    packets = [_packet(i, dest) for i, dest in enumerate(destinations)]
    for p in packets[: len(packets) // 2]:
        queue.push(p)
    queue.age_all()
    for p in packets[len(packets) // 2 :]:
        queue.push(p)
    queue.age_all()
    drained = [queue.pop_old() for _ in range(len(packets))]
    assert drained == packets


@given(destinations=st.lists(st.integers(0, 3), min_size=1, max_size=40),
       target=st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_peek_matches_subsequent_pop(destinations, target):
    queue = PacketQueue()
    for i, dest in enumerate(destinations):
        queue.push(_packet(i, dest))
    queue.age_all()
    peeked = queue.peek_old_for(target)
    popped = queue.pop_old_for(target)
    assert peeked is popped

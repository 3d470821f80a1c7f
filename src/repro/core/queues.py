"""Station-local packet queues with old/new aging.

Several algorithms in the paper distinguish *old* packets (present before
the current phase / season / window began) from *new* ones (injected
during it) and only route old packets.  :class:`PacketQueue` implements a
FIFO queue with an aging epoch: packets are enqueued as new, and
:meth:`age_all` promotes everything currently queued to old (typically
called at a phase boundary).

Representation and cost
-----------------------
Each of the two stores, old and new, is a plain deque in FIFO order, so
the head operations — :meth:`push`, :meth:`push_old`, :meth:`peek_old`,
:meth:`peek_any`, :meth:`pop_old`, :meth:`pop_any` and :meth:`remove` of
a store's head — are deque operations.  RRW, MBTF and Orchestra route
only from the heads and never need more.

Count-Hop, Adjust-Window, k-Cycle connectors and k-Clique pick the oldest
packet for some destination, which usually sits below the head.  For
them the queue builds a per-destination index on its first destination
query or first removal below a head: per store, a *lane* per destination
holding that destination's live packets in store order, next to their
store-order stamps.  With the index:

* :meth:`peek_old_for`, :meth:`peek_any_for`, :meth:`pop_old_for`,
  :meth:`pop_any_for`, :meth:`count_old_for` and :meth:`count_for` read a
  lane's head or length: O(1), amortised for the pops.
* :meth:`peek_old_in` and :meth:`peek_any_in` return the store head when
  it qualifies, else the lane head with the lowest stamp among the given
  destinations: O(number of destinations).
* :meth:`destinations` and :meth:`has_old_for`: O(distinct destinations).
* :meth:`remove` of a lane's head pops it off the lane and leaves its
  store entry behind as *dead*, counted by ``id(packet)``.  A store drops
  dead entries as they reach its head and purges them all once they
  exceed both 32 and a quarter of its live entries, so dead entries cost
  O(1) amortised and stay a bounded share of memory.
* :meth:`age_all` purges the new store's dead entries, appends it to the
  old store and moves each new lane behind its old lane, re-stamped: O(1)
  amortised per aged packet.

Only removing a packet that is neither at a store's head nor at its
lane's head walks that lane; no algorithm removes like that.  Identity,
never ``Packet.__eq__``, decides which packet an operation touches, so
distinct packets that compare equal stay distinct.  A packet object is
queued at most once at a time; once removed it may be queued again.
"""

from __future__ import annotations

from collections import deque
from typing import Collection, Iterable, Iterator

from ..channel.packet import Packet

__all__ = ["PacketQueue"]

#: Dead entries a store may hold, whatever its size, before a purge.
_PURGE_FLOOR = 32


class _Lanes:
    """Per-destination index over one store of a :class:`PacketQueue`.

    ``packets[d]`` holds the store's live packets for destination ``d`` in
    store order and ``stamps[d]`` their store-order stamps, which increase
    along the store.  ``dead`` counts, per ``id(packet)``, the store
    entries removed through the index but still physically in the store;
    a packet's dead entries always precede its live entry there.
    """

    __slots__ = ("packets", "stamps", "next_stamp", "dead", "dead_count")

    def __init__(self, store: deque[Packet]) -> None:
        self.packets: dict[int, deque[Packet]] = {}
        self.stamps: dict[int, deque[int]] = {}
        self.next_stamp = 0
        self.dead: dict[int, int] = {}
        self.dead_count = 0
        for packet in store:
            self.add(packet)

    def _lane(self, destination: int) -> deque[Packet]:
        lane = self.packets.get(destination)
        if lane is None:
            lane = self.packets[destination] = deque()
            self.stamps[destination] = deque()
        return lane

    def add(self, packet: Packet) -> None:
        """Index ``packet``, just appended to the store."""
        destination = packet.destination
        lane = self.packets.get(destination)
        if lane is None:
            lane = self._lane(destination)
        lane.append(packet)
        self.stamps[destination].append(self.next_stamp)
        self.next_stamp += 1

    def pop_head(self, packet: Packet) -> None:
        """Unindex ``packet``, just popped off the store's head."""
        destination = packet.destination
        self.packets[destination].popleft()
        self.stamps[destination].popleft()

    def drop_dead_heads(self, store: deque[Packet]) -> None:
        """Pop dead entries off the store until its head is live."""
        dead = self.dead
        while store:
            key = id(store[0])
            count = dead.get(key)
            if count is None:
                return
            store.popleft()
            self.dead_count -= 1
            if count == 1:
                del dead[key]
            else:
                dead[key] = count - 1

    def unlink(self, packet: Packet, store: deque[Packet], walk: bool) -> bool:
        """Remove ``packet``, which is not the store's head, leaving a dead entry.

        Only the head of ``packet``'s lane is checked unless ``walk`` is
        set, when the whole lane is searched.  Returns False if
        ``packet`` is not live in this store.
        """
        destination = packet.destination
        lane = self.packets.get(destination)
        if not lane:
            return False
        if lane[0] is packet:
            lane.popleft()
            self.stamps[destination].popleft()
        elif not walk:
            return False
        else:
            for position, queued in enumerate(lane):
                if queued is packet:
                    break
            else:
                return False
            del lane[position]
            del self.stamps[destination][position]
        key = id(packet)
        self.dead[key] = self.dead.get(key, 0) + 1
        self.dead_count += 1
        if (
            self.dead_count > _PURGE_FLOOR
            and 4 * self.dead_count > len(store) - self.dead_count
        ):
            self.purge(store)
        return True

    def live(self, store: deque[Packet]) -> list[Packet]:
        """The store's live packets in order."""
        if not self.dead:
            return list(store)
        dead = dict(self.dead)
        packets = []
        for packet in store:
            key = id(packet)
            count = dead.get(key)
            if count is None:
                packets.append(packet)
            elif count == 1:
                del dead[key]
            else:
                dead[key] = count - 1
        return packets

    def purge(self, store: deque[Packet]) -> None:
        """Rewrite the store without its dead entries."""
        packets = self.live(store)
        store.clear()
        store.extend(packets)
        self.dead.clear()
        self.dead_count = 0

    def oldest(self, destinations: Iterable[int]) -> Packet | None:
        """The lane head with the lowest stamp among ``destinations``."""
        packets, stamps = self.packets, self.stamps
        best = None
        best_stamp = 0
        for destination in destinations:
            lane = packets.get(destination)
            if lane:
                stamp = stamps[destination][0]
                if best is None or stamp < best_stamp:
                    best, best_stamp = lane[0], stamp
        return best

    def absorb(self, aged: _Lanes) -> None:
        """Move ``aged``'s lanes behind ours, re-stamped in our order.

        ``aged`` indexes the new store as it is appended to this (old)
        store; it holds no dead entries and is left empty.
        """
        offset = self.next_stamp
        for destination, moved in aged.packets.items():
            if moved:
                self._lane(destination).extend(moved)
                moved.clear()
                moved_stamps = aged.stamps[destination]
                self.stamps[destination].extend(
                    [offset + stamp for stamp in moved_stamps]
                )
                moved_stamps.clear()
        self.next_stamp = offset + aged.next_stamp
        aged.next_stamp = 0


class PacketQueue:
    """FIFO packet queue with an old/new distinction.

    Packets are kept in injection/adoption order.  ``old`` packets are the
    ones enqueued before the most recent call to :meth:`age_all`; ``new``
    packets are everything enqueued since.  See the module docstring for
    the representation and the cost of each operation.
    """

    def __init__(self) -> None:
        self._old: deque[Packet] = deque()
        self._new: deque[Packet] = deque()
        # Per-destination index over each store, built on demand; while
        # it is None neither store holds dead entries.
        self._old_lanes: _Lanes | None = None
        self._new_lanes: _Lanes | None = None

    def _index(self) -> tuple[_Lanes, _Lanes]:
        """The per-destination index of both stores, built on first use."""
        if self._old_lanes is None:
            self._old_lanes = _Lanes(self._old)
            self._new_lanes = _Lanes(self._new)
        return self._old_lanes, self._new_lanes

    # -- mutation ------------------------------------------------------------
    def push(self, packet: Packet) -> None:
        """Enqueue a packet as *new*."""
        self._new.append(packet)
        if self._new_lanes is not None:
            self._new_lanes.add(packet)

    def push_old(self, packet: Packet) -> None:
        """Enqueue a packet directly as *old* (used by relays mid-phase)."""
        self._old.append(packet)
        if self._old_lanes is not None:
            self._old_lanes.add(packet)

    def age_all(self) -> None:
        """Promote every queued packet to *old* (phase boundary)."""
        new = self._new
        if not new:
            return
        new_lanes = self._new_lanes
        if new_lanes is not None:
            # Dropping the new store's dead entries first keeps every dead
            # entry ahead of its packet's live entry in the old store.
            if new_lanes.dead:
                new_lanes.purge(new)
            self._old_lanes.absorb(new_lanes)
        self._old.extend(new)
        new.clear()

    def pop_old(self) -> Packet:
        """Dequeue the oldest *old* packet."""
        old = self._old
        packet = old.popleft()
        lanes = self._old_lanes
        if lanes is not None:
            lanes.pop_head(packet)
            if lanes.dead:
                lanes.drop_dead_heads(old)
        return packet

    def pop_any(self) -> Packet:
        """Dequeue the overall oldest packet (old first, then new)."""
        if self._old:
            return self.pop_old()
        return self._pop_new()

    def _pop_new(self) -> Packet:
        new = self._new
        packet = new.popleft()
        lanes = self._new_lanes
        if lanes is not None:
            lanes.pop_head(packet)
            if lanes.dead:
                lanes.drop_dead_heads(new)
        return packet

    def pop_old_for(self, destination: int) -> Packet | None:
        """Dequeue the oldest *old* packet addressed to ``destination``."""
        packet = self.peek_old_for(destination)
        if packet is not None:
            self.remove(packet)
        return packet

    def pop_any_for(self, destination: int) -> Packet | None:
        """Dequeue the oldest packet (old or new) addressed to ``destination``."""
        packet = self.peek_any_for(destination)
        if packet is not None:
            self.remove(packet)
        return packet

    def replace(self, old_packets: list[Packet], new_packets: list[Packet]) -> None:
        """Wholesale queue replacement (lowered-segment commits).

        A lowered segment knows the queue's exact post-span contents, so
        its commit swaps them in directly instead of replaying the span's
        pushes, promotions and removals one call at a time — O(backlog)
        rather than O(span traffic).  Any per-destination index is
        dropped, to be rebuilt if a destination query comes.
        """
        self._old = deque(old_packets)
        self._new = deque(new_packets)
        self._old_lanes = self._new_lanes = None

    def remove(self, packet: Packet) -> bool:
        """Remove a specific packet (by identity); returns True if found.

        A store's head is popped; any other packet is unlinked through the
        per-destination index, which this builds on first use.
        """
        old = self._old
        if old and old[0] is packet:
            self.pop_old()
            return True
        new = self._new
        if new and new[0] is packet:
            self._pop_new()
            return True
        old_lanes, new_lanes = self._index()
        return (
            old_lanes.unlink(packet, old, False)
            or new_lanes.unlink(packet, new, False)
            or old_lanes.unlink(packet, old, True)
            or new_lanes.unlink(packet, new, True)
        )

    # -- non-destructive peeks (used with deferred removal on confirmation) ----
    def peek_old(self) -> Packet | None:
        """The oldest *old* packet, without removing it."""
        return self._old[0] if self._old else None

    def peek_any(self) -> Packet | None:
        """The overall oldest packet, without removing it."""
        if self._old:
            return self._old[0]
        return self._new[0] if self._new else None

    def peek_old_for(self, destination: int) -> Packet | None:
        """The oldest *old* packet addressed to ``destination``, without removal."""
        lanes = self._old_lanes
        if lanes is None:
            lanes = self._index()[0]
        lane = lanes.packets.get(destination)
        return lane[0] if lane else None

    def peek_any_for(self, destination: int) -> Packet | None:
        """The oldest packet addressed to ``destination``, without removal."""
        packet = self.peek_old_for(destination)
        if packet is not None:
            return packet
        lane = self._new_lanes.packets.get(destination)
        return lane[0] if lane else None

    def peek_old_in(self, destinations: Collection[int]) -> Packet | None:
        """The oldest *old* packet addressed to any of ``destinations``.

        ``destinations`` should be a set: the head is tested for
        membership before the index is consulted.
        """
        old = self._old
        if not old:
            return None
        head = old[0]
        if head.destination in destinations:
            return head
        return self._index()[0].oldest(destinations)

    def peek_any_in(self, destinations: Collection[int]) -> Packet | None:
        """The oldest packet (old, then new) addressed to any of ``destinations``."""
        packet = self.peek_old_in(destinations)
        if packet is not None:
            return packet
        new = self._new
        if not new:
            return None
        head = new[0]
        if head.destination in destinations:
            return head
        return self._index()[1].oldest(destinations)

    # -- inspection ------------------------------------------------------------
    def size(self) -> int:
        """Total queued packets — one call cheaper than ``len(queue)``.

        The engines poll queue sizes once per awake station per round;
        this direct accessor skips the ``len()``/``__len__`` indirection
        on that hot path while keeping the representation private.
        """
        stored = len(self._old) + len(self._new)
        if self._old_lanes is None:
            return stored
        return stored - self._old_lanes.dead_count - self._new_lanes.dead_count

    __len__ = size

    def __bool__(self) -> bool:
        # A store's head is always live, so a non-empty store holds a packet.
        return bool(self._old) or bool(self._new)

    def __iter__(self) -> Iterator[Packet]:
        yield from self.old_packets()
        yield from self.new_packets()

    @property
    def old_count(self) -> int:
        """Number of *old* packets."""
        lanes = self._old_lanes
        return len(self._old) - (0 if lanes is None else lanes.dead_count)

    @property
    def new_count(self) -> int:
        """Number of *new* packets."""
        lanes = self._new_lanes
        return len(self._new) - (0 if lanes is None else lanes.dead_count)

    def old_packets(self) -> list[Packet]:
        """Snapshot of the old packets in order."""
        lanes = self._old_lanes
        return list(self._old) if lanes is None else lanes.live(self._old)

    def new_packets(self) -> list[Packet]:
        """Snapshot of the new packets in order."""
        lanes = self._new_lanes
        return list(self._new) if lanes is None else lanes.live(self._new)

    def count_old_for(self, destination: int) -> int:
        """Number of old packets addressed to ``destination`` (O(1))."""
        lanes = self._old_lanes
        if lanes is None:
            lanes = self._index()[0]
        return len(lanes.packets.get(destination, ()))

    def count_for(self, destination: int) -> int:
        """Number of packets (old or new) addressed to ``destination`` (O(1))."""
        old_lanes, new_lanes = self._index()
        return len(old_lanes.packets.get(destination, ())) + len(
            new_lanes.packets.get(destination, ())
        )

    def destinations(self) -> set[int]:
        """Set of destinations with at least one queued packet."""
        found: set[int] = set()
        for lanes in self._index():
            found.update(d for d, lane in lanes.packets.items() if lane)
        return found

    def has_old_for(self, destinations: Iterable[int]) -> bool:
        """True when an old packet exists for any of ``destinations``."""
        packets = self._index()[0].packets
        return any(packets.get(d) for d in destinations)

"""Adjust-Window: universal plain-packet routing with energy cap 2 (Section 4.2).

The execution is organised into *time windows* whose size ``L`` doubles
whenever a window fails to deliver all packets that were pending at its
start.  Every window is split into three stages:

* **Gossip** (``n^2`` phases of ``2 + 3*lg L`` rounds): for every ordered
  pair ``(i, j)`` station ``j`` listens for one phase while station ``i``
  — if it is *large*, i.e. holds at least ``4 n lg L`` packets — conveys,
  by *coded transfer* (a packet transmission encodes a 1-bit, a silent
  round a 0-bit), whether its queue exceeds ``L`` plus three numbers: its
  queue size, the number of its packets destined to ``j`` and the number
  destined to stations smaller than ``j``.  Packets transmitted this way
  that are not addressed to ``j`` are adopted by ``j`` (relaying).
* **Main** (the remaining rounds): from the gossiped numbers every
  station locally computes the same global transmission schedule — large
  senders in name order, each sender's packets ordered by destination —
  and wakes exactly in the rounds in which it transmits or receives.  If
  some station reported a queue larger than ``L`` the whole stage is
  dedicated to the smallest-named such station.
* **Auxiliary** (``8 n^3 lg L`` rounds): a round-robin sweep over ordered
  pairs ``(i, j)`` in which ``i`` sends ``j`` one of the packets it holds
  for ``j``; this delivers the packets of *small* stations and the
  packets relayed during Gossip.

Messages never carry control bits (plain-packet discipline); at most one
transmitter and one listener are awake per round, so the energy cap is 2.

The window state machine (start round, current ``L``, derived
:class:`WindowLayout`) is identical at every station — the doubling
decision is computed from gossiped numbers every station learns
identically — so it lives in one shared :class:`_AdjustWindowClock` (a
:class:`~repro.core.schedule.WakeOracle`): ``tick(t)`` advances windows,
``wakes(t)`` is a pure query afterwards, and the clock answers whole
awake sets batch-wise from the stations' Gossip flags, Main-stage slot
plans and Auxiliary pair sweep.  Work that is fixed for a window is done
once per window: the clock sets the absolute rounds at which Main and
Auxiliary begin when the window starts, so every station hook picks its
stage with two compares, and on the window's first Main-stage query it
turns the stations' slot plans into a table of slot breakpoints and the
awake tuple from each on, so a Main round's awake set is one bisect.

Paper bound (Theorem 4): universal — for every injection rate ``rho < 1``
the latency is O((n^3 log^2 n + beta) / (1 - rho)) for sufficiently large
``n``.  At small ``n`` the additive ``n^3 log L`` stage lengths dominate
the constant in front of the bound; ``repro table1`` prints the measured
latency against it.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass

from ..channel.feedback import Feedback
from ..channel.message import Message
from ..channel.packet import Packet
from ..core.algorithm import AlgorithmProperties, RoutingAlgorithm
from ..core.controller import TickedQueueingController
from ..core.registry import register_algorithm
from ..core.schedule import WakeOracle

__all__ = ["AdjustWindow", "WindowLayout", "initial_window_size", "lg"]


def lg(x: int) -> int:
    """The paper's ``lg x = ceil(log2(x + 1))``."""
    if x < 0:
        raise ValueError("lg is defined for non-negative integers")
    return math.ceil(math.log2(x + 1)) if x > 0 else 1


@dataclass(frozen=True, slots=True)
class WindowLayout:
    """Derived stage boundaries of a window of size ``L`` for ``n`` stations."""

    n: int
    L: int
    lgL: int
    phase_len: int
    gossip_len: int
    aux_len: int
    main_len: int
    small_threshold: int
    # Stage boundaries relative to the window start.
    main_start: int
    aux_start: int

    @classmethod
    def for_window(cls, n: int, L: int) -> "WindowLayout":
        lgL = lg(L)
        phase_len = 2 + 3 * lgL
        gossip_len = n * n * phase_len
        aux_len = 8 * n**3 * lgL
        main_len = max(0, L - gossip_len - aux_len)
        return cls(
            n=n,
            L=L,
            lgL=lgL,
            phase_len=phase_len,
            gossip_len=gossip_len,
            aux_len=aux_len,
            main_len=main_len,
            small_threshold=4 * n * lgL,
            main_start=gossip_len,
            aux_start=gossip_len + main_len,
        )


def initial_window_size(n: int) -> int:
    """Smallest power of two ``L`` whose Main stage covers at least half the window."""
    L = 2
    while True:
        layout = WindowLayout.for_window(n, L)
        if layout.main_len >= L // 2:
            return L
        L *= 2


@dataclass(slots=True)
class _GossipRecord:
    """What station ``j`` learned about station ``i`` in the (i, j) gossip phase."""

    large: bool = False
    over_l: bool = False
    bits: list[int] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.bits is None:
            self.bits = []

    def numbers(self, lgL: int) -> tuple[int, int, int]:
        """Decode the three coded-transfer numbers (size, to-me, below-me)."""
        padded = list(self.bits) + [0] * (3 * lgL - len(self.bits))
        values = []
        for block in range(3):
            value = 0
            for bit in padded[block * lgL : (block + 1) * lgL]:
                value = (value << 1) | bit
            values.append(value)
        return values[0], values[1], values[2]


class _AdjustWindowClock(WakeOracle):
    """Shared window state machine of one Adjust-Window execution.

    ``main_at`` and ``aux_at`` are the absolute rounds at which the
    current window's Main and Auxiliary stages begin, set whenever a
    window starts.  The Main-stage awake table (``_main_breaks``, the
    sorted absolute rounds at which some slot interval starts or ends,
    and ``_main_awake``, the ascending awake tuple from each on) is built
    from the stations' slot plans on the window's first Main-stage query
    and dropped at every window boundary.
    """

    def __init__(self, n: int, initial_l: int) -> None:
        super().__init__(n)
        self.window_start = 0
        self.L = initial_l
        self._last_ticked = -1
        self._start_window()

    def _start_window(self) -> None:
        layout = self.layout = WindowLayout.for_window(self.n, self.L)
        self.main_at = self.window_start + layout.main_start
        self.aux_at = self.window_start + layout.aux_start
        self._main_breaks: list[int] | None = None
        self._main_awake: list[tuple[int, ...]] = []

    def tick(self, round_no: int) -> None:
        if round_no <= self._last_ticked:
            return
        self._last_ticked = round_no
        while round_no - self.window_start >= self.L:
            # Every station derived the same doubling decision from the
            # gossiped numbers; force the (idempotent) plan computation in
            # case this run never queried a Main-stage round.
            for ctrl in self.controllers:
                ctrl._build_main_plan()
            double = self.controllers[0]._double_next
            self.window_start += self.L
            if double:
                self.L *= 2
            self._start_window()
            for ctrl in self.controllers:
                ctrl._begin_window_local()

    # -- batch awake-set query -------------------------------------------------
    def _build_main_table(self) -> None:
        main_at = self.main_at
        intervals: list[tuple[int, int, int]] = []
        for station, ctrl in enumerate(self.controllers):
            ctrl._build_main_plan()
            for start, end in (ctrl._my_send_slots, *ctrl._my_recv_slots):
                if end > start:
                    intervals.append((main_at + start, main_at + end, station))
        breaks = sorted({main_at, *(b for lo, hi, _ in intervals for b in (lo, hi))})
        self._main_awake = [
            tuple(sorted({s for lo, hi, s in intervals if lo <= b < hi}))
            for b in breaks
        ]
        self._main_breaks = breaks

    def awake_stations(self, round_no: int) -> tuple[int, ...]:
        controllers = self.controllers
        if round_no < self.main_at:
            phase = (round_no - self.window_start) // self.layout.phase_len
            i, j = divmod(phase, self.n)
            if i == j:
                return ()
            if controllers[i]._i_am_large:
                return (i, j) if i < j else (j, i)
            return (j,)
        if round_no < self.aux_at:
            if self._main_breaks is None:
                self._build_main_table()
            return self._main_awake[bisect_right(self._main_breaks, round_no) - 1]
        i, j = divmod((round_no - self.aux_at) % (self.n * self.n), self.n)
        if i == j:
            return ()
        if controllers[i].queue.peek_any_for(j) is not None:
            return (i, j) if i < j else (j, i)
        return (j,)


class _AdjustWindowController(TickedQueueingController):
    """Per-station controller of Adjust-Window.

    Quiescence holdout: ``silence_invariant`` stays False because silent
    rounds carry information here — a Gossip listener notes a 0-bit into
    the :class:`_GossipRecord` of any station that announced itself large
    earlier in the window, and the Main-stage wake pattern follows from
    window-start queue snapshots.  A span whose queues drained to zero
    mid-window therefore still mutates history-dependent state on
    silence, which no round-window arithmetic can reproduce.
    """

    def __init__(self, station_id: int, n: int, clock: _AdjustWindowClock) -> None:
        super().__init__(station_id, n, clock)
        # Snapshot of this station's own queue at the window start.
        self._snapshot_size = 0
        self._snapshot_for: list[int] = [0] * n
        self._i_am_large = False
        # Gossip knowledge about the other stations.
        self._records: dict[int, _GossipRecord] = {}
        # Derived Main-stage plan (filled lazily right after Gossip ends).
        self._main_plan_ready = False
        self._double_next = False
        self._my_send_slots: tuple[int, int] = (0, 0)  # [start, end) relative to main
        self._my_send_sequence: list[int] = []  # destination per send slot
        self._my_recv_slots: list[tuple[int, int]] = []  # [(start, end)) relative to main
        self._begin_window_local()

    @property
    def clock(self) -> _AdjustWindowClock:
        """The shared window clock (one source of truth: ``wake_oracle``)."""
        return self.wake_oracle

    # -- window bookkeeping --------------------------------------------------------
    def _begin_window_local(self) -> None:
        """Clock callback at a window boundary (runs for every station)."""
        self.queue.age_all()
        self._snapshot_size = self.queue.old_count
        self._snapshot_for = [self.queue.count_old_for(d) for d in range(self.n)]
        self._i_am_large = self._snapshot_size >= self.clock.layout.small_threshold
        self._records = {}
        self._main_plan_ready = False
        self._double_next = False
        self._my_send_slots = (0, 0)
        self._my_send_sequence = []
        self._my_recv_slots = []

    # -- snapshot helpers -----------------------------------------------------------
    def _capped_size(self) -> int:
        return min(self._snapshot_size, self.clock.L)

    def _capped_for(self, dest: int) -> int:
        return min(self._snapshot_for[dest], self.clock.L)

    def _capped_below(self, dest: int) -> int:
        return min(sum(self._snapshot_for[:dest]), self.clock.L)

    # -- gossip ------------------------------------------------------------------------
    def _gossip_phase(self, rel: int) -> tuple[int, int, int]:
        """(i, j, slot) of the gossip phase containing window-relative round ``rel``."""
        phase, slot = divmod(rel, self.clock.layout.phase_len)
        return phase // self.n, phase % self.n, slot

    def _gossip_bit(self, j: int, slot: int) -> int:
        """The coded-transfer bit this (large) station sends in ``slot`` of phase (me, j)."""
        bit_index = slot - 2
        numbers = (self._capped_size(), self._capped_for(j), self._capped_below(j))
        lgL = self.clock.layout.lgL
        block, offset = divmod(bit_index, lgL)
        value = numbers[block]
        shift = lgL - 1 - offset
        return (value >> shift) & 1

    def _coded_transfer_packet(self, j: int) -> Packet | None:
        """The packet used to signal a 1-bit to ``j`` (prefer packets for ``j``)."""
        packet = self.queue.peek_old_for(j)
        if packet is not None:
            return packet
        packet = self.queue.peek_old()
        if packet is not None:
            return packet
        return self.queue.peek_any()

    # -- main-stage plan ------------------------------------------------------------------
    def _record_for(self, station: int) -> tuple[bool, bool, int, int, int]:
        """(large, over_l, size, to_me, below_me) as learned about ``station``."""
        if station == self.station_id:
            return (
                self._i_am_large,
                self._snapshot_size > self.clock.L,
                self._capped_size(),
                0,
                0,
            )
        record = self._records.get(station)
        if record is None or not record.large:
            return (False, False, 0, 0, 0)
        size, to_me, below_me = record.numbers(self.clock.layout.lgL)
        return (True, record.over_l, size, to_me, below_me)

    def _build_main_plan(self) -> None:
        if self._main_plan_ready:
            return
        self._main_plan_ready = True
        info = {s: self._record_for(s) for s in range(self.n)}
        large = [s for s in range(self.n) if info[s][0]]
        over_l = [s for s in range(self.n) if info[s][0] and info[s][1]]
        reported_total = sum(info[s][2] for s in large)
        layout = self.clock.layout
        self._double_next = bool(over_l) or reported_total > layout.main_len

        lm = layout.main_len
        if over_l:
            dedicated = min(over_l)
            if dedicated == self.station_id:
                self._my_send_slots = (0, lm)
                self._my_send_sequence = self._destination_sequence(limit=lm)
            else:
                _, _, _, to_me, below_me = info[dedicated]
                start = min(below_me, lm)
                end = min(below_me + to_me, lm)
                if to_me >= self.clock.L:
                    end = lm
                if end > start:
                    self._my_recv_slots = [(start, end)]
            return

        # Regular schedule: large senders in name order, contiguous blocks.
        block_start: dict[int, int] = {}
        cursor = 0
        for s in large:
            block_start[s] = cursor
            cursor += info[s][2]
        if self.station_id in block_start and self._i_am_large:
            start = min(block_start[self.station_id], lm)
            end = min(block_start[self.station_id] + info[self.station_id][2], lm)
            self._my_send_slots = (start, end)
            self._my_send_sequence = self._destination_sequence(limit=end - start)
        recv: list[tuple[int, int]] = []
        for s in large:
            if s == self.station_id:
                continue
            _, _, _, to_me, below_me = info[s]
            if to_me <= 0:
                continue
            start = min(block_start[s] + below_me, lm)
            end = min(block_start[s] + below_me + to_me, lm)
            if end > start:
                recv.append((start, end))
        self._my_recv_slots = recv

    def _destination_sequence(self, limit: int) -> list[int]:
        """Per-slot destination plan: snapshot packets ordered by destination."""
        sequence: list[int] = []
        for dest in range(self.n):
            sequence.extend([dest] * self._snapshot_for[dest])
            if len(sequence) >= limit:
                break
        return sequence[:limit]

    # -- auxiliary stage -------------------------------------------------------------------
    def _aux_pair(self, offset: int) -> tuple[int, int]:
        """(i, j) of the sweep pair ``offset`` rounds into the Auxiliary stage."""
        return divmod(offset % (self.n * self.n), self.n)

    # -- StationController interface ----------------------------------------------------------
    def wakes(self, round_no: int) -> bool:
        clock = self.clock
        clock.tick(round_no)
        if round_no < clock.main_at:
            i, j, _ = self._gossip_phase(round_no - clock.window_start)
            if i == j:
                return False
            if self.station_id == j:
                return True
            return self.station_id == i and self._i_am_large
        if round_no < clock.aux_at:
            self._build_main_plan()
            slot = round_no - clock.main_at
            send_start, send_end = self._my_send_slots
            if send_start <= slot < send_end:
                return True
            return any(start <= slot < end for start, end in self._my_recv_slots)
        i, j = self._aux_pair(round_no - clock.aux_at)
        if i == j:
            return False
        if self.station_id == j:
            return True
        return self.station_id == i and self.queue.peek_any_for(j) is not None

    def act(self, round_no: int) -> Message | None:
        clock = self.clock
        if round_no < clock.main_at:
            return self._act_gossip(round_no - clock.window_start)
        if round_no < clock.aux_at:
            return self._act_main(round_no - clock.main_at)
        return self._act_aux(round_no - clock.aux_at)

    def _act_gossip(self, rel: int) -> Message | None:
        i, j, slot = self._gossip_phase(rel)
        if self.station_id != i or i == j or not self._i_am_large:
            return None
        send = False
        if slot == 0:
            send = True  # 'I am large'
        elif slot == 1:
            send = self._snapshot_size > self.clock.L
        else:
            send = self._gossip_bit(j, slot) == 1
        if not send:
            return None
        packet = self._coded_transfer_packet(j)
        if packet is None:
            return None
        return self.transmit(packet, intended_receiver=j)

    def _act_main(self, slot: int) -> Message | None:
        self._build_main_plan()
        send_start, send_end = self._my_send_slots
        if not send_start <= slot < send_end:
            return None
        index = slot - send_start
        if index >= len(self._my_send_sequence):
            # No planned receiver is listening in this slot; transmitting
            # would risk losing the packet, so stay silent.
            return None
        planned_dest = self._my_send_sequence[index]
        packet = self.queue.peek_old_for(planned_dest)
        if packet is None:
            # The planned packet was already consumed during Gossip; send
            # any old packet instead — the listening station adopts it.
            packet = self.queue.peek_old()
        if packet is None:
            return None
        return self.transmit(packet, intended_receiver=planned_dest)

    def _act_aux(self, offset: int) -> Message | None:
        i, j = self._aux_pair(offset)
        if self.station_id != i or i == j:
            return None
        packet = self.queue.peek_any_for(j)
        if packet is None:
            return None
        return self.transmit(packet, intended_receiver=j)

    def on_heard(self, round_no: int, message: Message, feedback: Feedback) -> None:
        clock = self.clock
        packet = message.packet
        if round_no < clock.main_at:
            i, j, slot = self._gossip_phase(round_no - clock.window_start)
            if self.station_id == j and message.sender == i:
                record = self._records.setdefault(i, _GossipRecord())
                if slot == 0:
                    record.large = True
                elif slot == 1:
                    record.over_l = True
                else:
                    self._note_bit(record, slot, 1)
                if packet is not None and packet.destination != self.station_id:
                    self.adopt(packet)
            return
        # Main or Auxiliary: a listening station adopts packets not meant for it.
        if (
            packet is not None
            and message.sender != self.station_id
            and packet.destination != self.station_id
            and message.intended_receiver == self.station_id
        ):
            self.adopt(packet)

    def on_silence(self, round_no: int) -> None:
        clock = self.clock
        if round_no >= clock.main_at:
            return
        i, j, slot = self._gossip_phase(round_no - clock.window_start)
        if self.station_id == j and i != j and slot >= 2:
            record = self._records.get(i)
            if record is not None and record.large:
                self._note_bit(record, slot, 0)

    def _note_bit(self, record: _GossipRecord, slot: int, bit: int) -> None:
        bit_index = slot - 2
        while len(record.bits) < bit_index:
            record.bits.append(0)
        if len(record.bits) == bit_index:
            record.bits.append(bit)
        else:
            record.bits[bit_index] = bit


@register_algorithm("adjust-window")
class AdjustWindow(RoutingAlgorithm):
    """The Adjust-Window algorithm of Section 4.2 (plain-packet, cap 2, universal).

    Parameters
    ----------
    n:
        Number of stations.
    initial_window:
        Optional override of the initial window size (must be large enough
        for the Gossip and Auxiliary stages to fit); defaults to the
        paper's choice — the smallest window whose Main stage covers at
        least half of it.
    """

    name = "Adjust-Window"

    def __init__(self, n: int, initial_window: int | None = None) -> None:
        super().__init__(n)
        default = initial_window_size(n)
        if initial_window is None:
            initial_window = default
        # Window sizes index lists and count rounds: ints (numpy ints too,
        # via operator.index) but not bools, floats or strings.
        if isinstance(initial_window, bool):
            raise TypeError(f"initial_window must be an integer, got {initial_window!r}")
        try:
            initial_window = operator.index(initial_window)
        except TypeError:
            raise TypeError(
                f"initial_window must be an integer, got {initial_window!r}"
            ) from None
        if WindowLayout.for_window(n, initial_window).main_len <= 0:
            raise ValueError(
                f"initial_window={initial_window} leaves no room for a Main stage "
                f"(needs at least {default})"
            )
        self.initial_window = initial_window

    def build_controllers(self) -> list[_AdjustWindowController]:
        clock = _AdjustWindowClock(self.n, self.initial_window)
        controllers = [
            _AdjustWindowController(i, self.n, clock) for i in range(self.n)
        ]
        clock.attach(controllers)
        return controllers

    def properties(self) -> AlgorithmProperties:
        return AlgorithmProperties(
            name=self.name,
            energy_cap=2,
            oblivious=False,
            direct=False,
            plain_packet=True,
        )

    # -- analytical quantities used by tests and the analysis module -----------------
    def latency_bound(self, rho: float, beta: float) -> float:
        """The asymptotic latency bound ``(18 n^3 log^2 n + 2 beta)/(1 - rho)``."""
        if rho >= 1:
            return float("inf")
        log_n = math.log2(self.n) if self.n > 1 else 1.0
        return (18 * self.n**3 * log_n**2 + 2 * beta) / (1 - rho)

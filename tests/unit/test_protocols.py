"""Unit tests for the prior-work protocols: token replicas, RRW/OF-RRW, MBTF."""

from repro.adversary import NoInjectionAdversary, SingleTargetAdversary
from repro.channel.feedback import ChannelOutcome
from repro.channel.message import Message
from repro.channel.packet import Packet
from repro.protocols import (
    MoveBigToFront,
    OldFirstRoundRobinWithholding,
    RoundRobinWithholding,
    TokenRingReplica,
)
from repro.sim import run_simulation


class TestTokenRingReplica:
    def test_silence_advances_token(self):
        replica = TokenRingReplica([3, 5, 7])
        assert replica.holder == 3
        replica.observe(ChannelOutcome.SILENCE)
        assert replica.holder == 5

    def test_heard_keeps_token(self):
        replica = TokenRingReplica([3, 5, 7])
        replica.observe(ChannelOutcome.HEARD)
        assert replica.holder == 3

    def test_phase_completes_after_full_cycle(self):
        replica = TokenRingReplica([0, 1, 2])
        completions = [replica.observe(ChannelOutcome.SILENCE) for _ in range(6)]
        assert completions == [False, False, True, False, False, True]
        assert replica.phase_no == 2

    def test_replicas_stay_consistent_across_members(self):
        outcomes = [
            ChannelOutcome.HEARD,
            ChannelOutcome.SILENCE,
            ChannelOutcome.SILENCE,
            ChannelOutcome.HEARD,
            ChannelOutcome.SILENCE,
        ]
        a, b = TokenRingReplica([0, 1, 2]), TokenRingReplica([0, 1, 2])
        for outcome in outcomes:
            a.observe(outcome)
            b.observe(outcome)
        assert a.holder == b.holder
        assert a.phase_no == b.phase_no

    def test_requires_distinct_members(self):
        import pytest

        with pytest.raises(ValueError):
            TokenRingReplica([1, 1])
        with pytest.raises(ValueError):
            TokenRingReplica([])


class TestTokenRingReplicaMoveToFront:
    def _message(self, sender, big=False):
        packet = Packet(destination=(sender + 1) % 4, injected_at=0, origin=sender)
        control = {TokenRingReplica.BIG_FLAG: True} if big else {}
        return Message(sender=sender, packet=packet, control=control)

    def test_silence_advances(self):
        replica = TokenRingReplica([0, 1, 2])
        replica.observe(ChannelOutcome.SILENCE, None)
        assert replica.holder == 1

    def test_plain_message_keeps_holder(self):
        replica = TokenRingReplica([0, 1, 2])
        replica.observe(ChannelOutcome.HEARD, self._message(0))
        assert replica.holder == 0

    def test_big_announcement_moves_to_front(self):
        replica = TokenRingReplica([0, 1, 2])
        replica.observe(ChannelOutcome.SILENCE, None)  # token at 1
        replica.observe(ChannelOutcome.SILENCE, None)  # token at 2
        replica.observe(ChannelOutcome.HEARD, self._message(2, big=True))
        assert replica.members[0] == 2
        assert replica.holder == 2

    def test_unknown_sender_ignored(self):
        replica = TokenRingReplica([0, 1])
        replica.observe(ChannelOutcome.HEARD, self._message(3, big=True))
        assert replica.members == [0, 1]

    def test_move_to_front_ends_no_phase(self):
        replica = TokenRingReplica([0, 1, 2])
        replica.observe(ChannelOutcome.SILENCE)  # token at 1
        replica.observe(ChannelOutcome.HEARD, self._message(1, big=True))
        assert (replica.members, replica.token_pos, replica.phase_no) == ([1, 0, 2], 0, 0)
        completions = [replica.observe(ChannelOutcome.SILENCE) for _ in range(3)]
        assert completions == [False, False, True]
        assert (replica.holder, replica.phase_no) == (1, 1)

    def test_move_to_front_leaves_state_copies_alone(self):
        source = TokenRingReplica([0, 1, 2])
        copy = TokenRingReplica([0, 1, 2])
        copy.copy_from(source)
        source.observe(ChannelOutcome.SILENCE)
        source.observe(ChannelOutcome.HEARD, self._message(1, big=True))
        assert source.members == [1, 0, 2]
        assert (source.token_pos, source.holder) == (0, 1)
        assert copy.members == [0, 1, 2]
        assert (copy.token_pos, copy.holder) == (0, 0)


class TestUncappedBaselines:
    def test_rrw_delivers_everything_under_light_load(self):
        result = run_simulation(
            RoundRobinWithholding(5), SingleTargetAdversary(0.3, 1.0), 2000
        )
        assert result.summary.delivery_ratio > 0.99
        assert result.stable

    def test_of_rrw_delivers_everything_under_light_load(self):
        result = run_simulation(
            OldFirstRoundRobinWithholding(5), SingleTargetAdversary(0.3, 1.0), 2000
        )
        assert result.summary.delivery_ratio > 0.99
        assert result.stable

    def test_mbtf_is_stable_at_rate_one_single_target(self):
        result = run_simulation(
            MoveBigToFront(5), SingleTargetAdversary(1.0, 2.0), 4000
        )
        assert result.stable
        assert result.summary.delivery_ratio > 0.95

    def test_baselines_use_full_energy(self):
        result = run_simulation(
            RoundRobinWithholding(5), NoInjectionAdversary(), 50
        )
        assert result.summary.energy_per_round == 5.0

    def test_quiescent_system_stays_silent(self):
        result = run_simulation(MoveBigToFront(4), NoInjectionAdversary(), 100)
        assert result.summary.injected == 0
        assert result.summary.max_queue == 0

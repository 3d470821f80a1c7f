"""Unit tests for Adjust-Window (Section 4.2)."""

import pytest

from repro.adversary import NoInjectionAdversary, SingleTargetAdversary
from repro.algorithms.adjust_window import (
    AdjustWindow,
    WindowLayout,
    initial_window_size,
    lg,
)
from repro.sim import run_simulation


class TestLg:
    def test_matches_paper_definition(self):
        assert lg(0) == 1
        assert lg(1) == 1
        assert lg(3) == 2
        assert lg(7) == 3
        assert lg(8) == 4

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            lg(-1)


class TestWindowLayout:
    def test_stage_lengths_match_formulas(self):
        n, L = 4, 32768
        layout = WindowLayout.for_window(n, L)
        assert layout.phase_len == 2 + 3 * layout.lgL
        assert layout.gossip_len == n * n * layout.phase_len
        assert layout.aux_len == 8 * n**3 * layout.lgL
        assert layout.main_len == L - layout.gossip_len - layout.aux_len
        assert layout.small_threshold == 4 * n * layout.lgL

    def test_stage_classification(self):
        # Gossip, Main and Auxiliary tile the window in that order.
        layout = WindowLayout.for_window(4, 32768)
        assert layout.main_start == layout.gossip_len
        assert layout.aux_start == layout.main_start + layout.main_len
        assert layout.aux_start + layout.aux_len == layout.L

    def test_initial_window_leaves_half_for_main(self):
        for n in (3, 4, 5, 6):
            L = initial_window_size(n)
            layout = WindowLayout.for_window(n, L)
            assert layout.main_len >= L // 2
            # And the previous power of two would not have been enough.
            smaller = WindowLayout.for_window(n, L // 2)
            assert smaller.main_len < (L // 2) // 2

    def test_initial_window_grows_with_n(self):
        assert initial_window_size(6) >= initial_window_size(3)


class TestAdjustWindowConstruction:
    def test_properties(self):
        props = AdjustWindow(4).properties()
        assert props.energy_cap == 2
        assert props.plain_packet and not props.direct and not props.oblivious

    def test_initial_window_override_validation(self):
        with pytest.raises(ValueError):
            AdjustWindow(4, initial_window=64)
        algo = AdjustWindow(4, initial_window=initial_window_size(4) * 2)
        assert algo.initial_window == initial_window_size(4) * 2

    @pytest.mark.parametrize("bad", [5000.5, True, "8192"])
    def test_initial_window_must_be_an_integer(self, bad):
        # Checked at construction: a float would otherwise fail mid-run,
        # indexing a list, and True would pass for a window of one round.
        with pytest.raises(TypeError, match="initial_window must be an integer"):
            AdjustWindow(3, initial_window=bad)

    def test_initial_window_accepts_integer_likes(self):
        import numpy as np

        algo = AdjustWindow(3, initial_window=np.int64(8192))
        assert algo.initial_window == 8192 and type(algo.initial_window) is int

    def test_latency_bound_helper(self):
        assert AdjustWindow(4).latency_bound(0.5, 2.0) > 0
        assert AdjustWindow(4).latency_bound(1.0, 2.0) == float("inf")


class TestAdjustWindowBehaviour:
    def test_quiescent_run_stays_silent_and_cheap(self):
        algo = AdjustWindow(3)
        result = run_simulation(algo, NoInjectionAdversary(), 2000, record_trace=True)
        assert result.summary.injected == 0
        assert result.summary.max_energy <= 2
        assert all(e.outcome.name != "COLLISION" for e in result.trace)

    def test_plain_packet_discipline(self):
        algo = AdjustWindow(3)
        result = run_simulation(
            algo, SingleTargetAdversary(0.3, 2.0), 3000, record_trace=True
        )
        for event in result.trace:
            if event.message is not None:
                assert event.message.packet is not None
                assert not event.message.control

    def test_energy_cap_two_under_load(self):
        algo = AdjustWindow(3)
        result = run_simulation(algo, SingleTargetAdversary(0.5, 2.0), 5000)
        assert result.summary.max_energy <= 2

    @pytest.mark.slow
    def test_delivers_across_windows(self):
        algo = AdjustWindow(3)
        rounds = 3 * algo.initial_window
        result = run_simulation(algo, SingleTargetAdversary(0.3, 2.0), rounds)
        # Everything injected before the final window must have been delivered.
        assert result.summary.delivered > 0
        assert result.summary.delivery_ratio > 0.5
        assert result.stable

"""Unit tests for the leaky-bucket adversary constraint."""

import pytest

from repro.adversary.leaky_bucket import (
    AdversaryType,
    LeakyBucketConstraint,
    LeakyBucketViolation,
    verify_injection_record,
)


class TestAdversaryType:
    def test_valid_ranges(self):
        t = AdversaryType(rho=0.5, beta=2.0)
        assert t.burstiness == 2
        assert t.window_bound(10) == pytest.approx(7.0)

    def test_rate_one_burstiness(self):
        assert AdversaryType(rho=1.0, beta=1.0).burstiness == 2

    def test_invalid_rho_rejected(self):
        with pytest.raises(ValueError):
            AdversaryType(rho=0.0, beta=1.0)
        with pytest.raises(ValueError):
            AdversaryType(rho=1.5, beta=1.0)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            AdversaryType(rho=0.5, beta=-1.0)

    @pytest.mark.parametrize("beta", [float("nan"), float("inf")])
    def test_non_finite_beta_rejected(self, beta):
        # NaN used to pass and fail later in floor(); inf raised
        # OverflowError there instead of a ValueError here.
        with pytest.raises(ValueError, match="finite"):
            AdversaryType(rho=0.5, beta=beta)

    def test_window_bound_of_empty_interval(self):
        assert AdversaryType(rho=0.5, beta=2.0).window_bound(0) == 0.0


class TestLeakyBucketConstraint:
    def test_first_round_budget_is_burstiness(self):
        c = LeakyBucketConstraint(AdversaryType(rho=0.5, beta=2.0))
        assert c.budget() == 2

    def test_full_rate_sustained_at_rho_one(self):
        c = LeakyBucketConstraint(AdversaryType(rho=1.0, beta=1.0))
        for _ in range(100):
            assert c.budget() >= 1
            c.consume(1)
        assert c.total_injected == 100

    def test_budget_refills_while_idle(self):
        c = LeakyBucketConstraint(AdversaryType(rho=0.25, beta=2.0))
        c.consume(2)  # drain the burst
        assert c.budget() == 0
        for _ in range(4):
            c.consume(0)
        assert c.budget() >= 1

    def test_overconsumption_raises(self):
        c = LeakyBucketConstraint(AdversaryType(rho=0.5, beta=1.0))
        with pytest.raises(LeakyBucketViolation):
            c.consume(5)

    def test_negative_count_rejected(self):
        c = LeakyBucketConstraint(AdversaryType(rho=0.5, beta=1.0))
        with pytest.raises(ValueError):
            c.consume(-1)

    def test_budget_capped_by_burst(self):
        c = LeakyBucketConstraint(AdversaryType(rho=0.5, beta=2.0))
        for _ in range(100):
            c.consume(0)
        # Idling forever cannot accumulate more than the one-round burstiness.
        assert c.budget() == 2

    def test_peek_after_skip(self):
        c = LeakyBucketConstraint(AdversaryType(rho=0.5, beta=2.0))
        c.consume(2)
        # Skipping zero rounds peeks the current budget.
        assert c.peek_after_skip(0) == c.budget()
        assert c.peek_after_skip(2) >= c.budget()
        # Idling long enough refills to the one-round burstiness cap.
        assert c.peek_after_skip(1000) == 2


class TestVerifyInjectionRecord:
    def test_valid_record_passes(self):
        t = AdversaryType(rho=0.5, beta=1.0)
        assert verify_injection_record([1, 0, 1, 0, 1, 0], t)

    def test_violating_record_fails(self):
        t = AdversaryType(rho=0.5, beta=1.0)
        assert not verify_injection_record([2, 2, 2], t, strict=False)
        with pytest.raises(LeakyBucketViolation):
            verify_injection_record([2, 2, 2], t, strict=True)

    def test_online_tracker_agrees_with_reference_check(self):
        t = AdversaryType(rho=0.3, beta=2.0)
        c = LeakyBucketConstraint(t)
        counts = []
        # A greedy adversary injecting its full budget each round is legal.
        for _ in range(50):
            b = c.budget()
            counts.append(b)
            c.consume(b)
        assert verify_injection_record(counts, t)

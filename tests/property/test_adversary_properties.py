"""Property-based tests: every adversary respects its declared (rho, beta) type."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary import (
    AdaptiveStarvationAdversary,
    AlternatingPairAdversary,
    BurstThenIdleAdversary,
    GroupLocalAdversary,
    HotspotAdversary,
    RoundRobinAdversary,
    SaturatingAdversary,
    SingleSourceSprayAdversary,
    SingleTargetAdversary,
    UniformRandomAdversary,
)
from repro.adversary.leaky_bucket import AdversaryType, verify_injection_record
from repro.channel.engine import AdversaryView

rates = st.floats(min_value=0.05, max_value=1.0)
bursts = st.floats(min_value=1.0, max_value=6.0)
sizes = st.integers(min_value=4, max_value=9)


def _drive(adversary, n, rounds):
    adversary.bind(n)
    view = AdversaryView(n=n)
    counts, pairs = [], []
    for t in range(rounds):
        injections = adversary.inject(t, view)
        counts.append(len(injections))
        pairs.extend((s, p.destination) for s, p in injections)
        view.observe_round(range(n))
    return counts, pairs


ADVERSARY_BUILDERS = [
    lambda rho, beta: SingleTargetAdversary(rho, beta),
    lambda rho, beta: SingleSourceSprayAdversary(rho, beta),
    lambda rho, beta: RoundRobinAdversary(rho, beta),
    lambda rho, beta: AlternatingPairAdversary(rho, beta),
    lambda rho, beta: SaturatingAdversary(rho, beta),
    lambda rho, beta: BurstThenIdleAdversary(rho, beta, idle_rounds=5),
    lambda rho, beta: GroupLocalAdversary(rho, beta, group_size=3),
    lambda rho, beta: UniformRandomAdversary(rho, beta, seed=11),
    lambda rho, beta: HotspotAdversary(rho, beta, seed=5),
    lambda rho, beta: AdaptiveStarvationAdversary(rho, beta),
]


@given(
    rho=rates,
    beta=bursts,
    n=sizes,
    builder_index=st.integers(0, len(ADVERSARY_BUILDERS) - 1),
    rounds=st.integers(5, 80),
)
@settings(max_examples=150, deadline=None)
def test_realised_injections_conform_to_declared_type(rho, beta, n, builder_index, rounds):
    adversary = ADVERSARY_BUILDERS[builder_index](rho, beta)
    counts, pairs = _drive(adversary, n, rounds)
    assert verify_injection_record(counts, AdversaryType(rho=rho, beta=beta))
    for source, destination in pairs:
        assert 0 <= source < n
        assert 0 <= destination < n
        assert source != destination


@given(rho=rates, beta=bursts, n=sizes, rounds=st.integers(10, 60))
@settings(max_examples=60, deadline=None)
def test_saturating_adversary_achieves_its_rate(rho, beta, n, rounds):
    """The saturating adversary should come within one burst of the envelope."""
    adversary = SaturatingAdversary(rho, beta)
    counts, _ = _drive(adversary, n, rounds)
    assert sum(counts) >= rho * rounds - 1

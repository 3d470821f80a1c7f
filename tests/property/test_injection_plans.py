"""Property tests for the batched adversary pipeline.

**Batched injection planning** — for every oblivious adversary family,
``plan_injections(start, stop)`` must be packet-for-packet identical to
calling ``inject`` round by round (the oracle): same (source,
destination) pairs in the same per-round order, and the same
leaky-bucket state afterwards.  Chunk boundaries are adversarial
(hypothesis picks the split points), and chunks must compose with
per-round injection in either order.

The view queries the adaptive adversaries read
(:meth:`~repro.channel.engine.AdversaryView.least_on_station`) are
pinned at the end: tie-breaks by station name, on engine-fed and
hand-assembled views.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversary import (
    AlternatingPairAdversary,
    BurstThenIdleAdversary,
    GroupLocalAdversary,
    HotspotAdversary,
    LeastOnPairAdversary,
    LeastOnStationAdversary,
    NoInjectionAdversary,
    RandomWalkAdversary,
    ReplayAdversary,
    RoundRobinAdversary,
    SaturatingAdversary,
    SingleSourceSprayAdversary,
    SingleTargetAdversary,
    UniformRandomAdversary,
)
from repro.channel.engine import AdversaryView
from repro.channel.packet import PacketFactory
from repro.core.registry import make_algorithm

N = 7

# One representative constructor per oblivious family; (rho, beta) are
# filled in by the test.  Schedule-aware families read a published
# periodic schedule; the replay family replays a fixed conforming trace.
_SCHEDULE = make_algorithm("k-cycle", n=N, k=3).oblivious_schedule()
_TRACE_SOURCE = [(t, (t + 1) % N, (t + 3) % N) for t in range(0, 160, 2)]

FAMILIES = {
    "single-target": lambda rho, beta: SingleTargetAdversary(rho, beta),
    "spray": lambda rho, beta: SingleSourceSprayAdversary(rho, beta, source=2),
    # source == n - 1 exercises the cursor wrap in the skip-cycle planner.
    "spray-wrap": lambda rho, beta: SingleSourceSprayAdversary(
        rho, beta, source=N - 1
    ),
    "round-robin": lambda rho, beta: RoundRobinAdversary(rho, beta, offset=3),
    # offset == n makes every raw destination collide with its source,
    # forcing the vectorised clash correction on every injection.
    "round-robin-clash": lambda rho, beta: RoundRobinAdversary(rho, beta, offset=N),
    "alternating-pair": lambda rho, beta: AlternatingPairAdversary(rho, beta),
    "saturating": lambda rho, beta: SaturatingAdversary(1.0, beta, stride=2),
    "bursty": lambda rho, beta: BurstThenIdleAdversary(rho, beta, idle_rounds=3),
    "group-local": lambda rho, beta: GroupLocalAdversary(
        rho, beta, group_start=N - 2, group_size=3
    ),
    "no-injection": lambda rho, beta: NoInjectionAdversary(),
    # The seeded families draw their RNG stream one array draw per block
    # instead of per-round sampling.  Same plan ≡ inject contract — the
    # per-round path slices the identical block cache, so chunks and
    # per-round calls may interleave across block boundaries too.
    "random": lambda rho, beta: UniformRandomAdversary(rho, beta, seed=11),
    "hotspot": lambda rho, beta: HotspotAdversary(rho, beta, seed=5),
    "random-walk": lambda rho, beta: RandomWalkAdversary(rho, beta, seed=23),
    "least-on-station": lambda rho, beta: LeastOnStationAdversary(
        rho, beta, _SCHEDULE, horizon=200
    ),
    "least-on-pair": lambda rho, beta: LeastOnPairAdversary(
        rho, beta, _SCHEDULE, horizon=200
    ),
    "replay": lambda rho, beta: ReplayAdversary(
        max(rho, 0.5), max(beta, 1.0), _make_trace()
    ),
}


def _make_trace():
    from repro.adversary import InjectionTrace

    return InjectionTrace.from_entries(_TRACE_SOURCE)


def _per_round_pairs_via_inject(adversary, rounds):
    view = AdversaryView(n=N)
    out = []
    for t in range(rounds):
        out.append(
            [(s, p.destination) for s, p in adversary.inject(t, view)]
        )
    return out


def _per_round_pairs_via_plans(adversary, rounds, boundaries):
    out = []
    lo = 0
    for hi in sorted(boundaries) + [rounds]:
        if hi <= lo:
            continue
        plan = adversary.plan_injections(lo, hi)
        plan.validate(N)
        assert (plan.start, plan.stop) == (lo, hi)
        for t in range(lo, hi):
            out.append(plan.pairs_for(t))
        lo = hi
    return out


def _constraint_state(adversary):
    constraint = adversary.constraint
    return (
        constraint.budget(),
        constraint.round_no,
        constraint.total_injected,
        constraint.peek_after_skip(5),
    )


@pytest.mark.slow
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    rho=st.sampled_from([0.07, 0.3, 0.55, 0.9, 1.0]),
    beta=st.sampled_from([0.0, 1.0, 2.5, 4.0]),
    rounds=st.integers(min_value=1, max_value=160),
    boundaries=st.lists(
        st.integers(min_value=0, max_value=160), max_size=6
    ),
)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_planned_injections_match_per_round_inject(
    family, rho, beta, rounds, boundaries
):
    build = FAMILIES[family]
    reference = build(rho, beta)
    reference.bind(N, PacketFactory())
    planned = build(rho, beta)
    planned.bind(N, PacketFactory())
    assert planned.plans_injections

    expected = _per_round_pairs_via_inject(reference, rounds)
    got = _per_round_pairs_via_plans(
        planned, rounds, [b for b in boundaries if b < rounds]
    )
    assert got == expected
    assert _constraint_state(planned) == _constraint_state(reference)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_plans_compose_with_per_round_injection(family):
    """Chunks and per-round calls interleave without drifting: internal
    cursors, parities and RNG state must carry across the mode switch."""
    build = FAMILIES[family]
    reference = build(0.7, 2.0)
    reference.bind(N, PacketFactory())
    mixed = build(0.7, 2.0)
    mixed.bind(N, PacketFactory())

    expected = _per_round_pairs_via_inject(reference, 120)

    view = AdversaryView(n=N)
    got = []
    plan = mixed.plan_injections(0, 40)
    got.extend(plan.pairs_for(t) for t in range(40))
    for t in range(40, 75):
        got.append([(s, p.destination) for s, p in mixed.inject(t, view)])
    plan = mixed.plan_injections(75, 120)
    got.extend(plan.pairs_for(t) for t in range(75, 120))

    assert got == expected
    assert _constraint_state(mixed) == _constraint_state(reference)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_plan_array_export_matches_per_round_pairs(family):
    """``as_arrays`` (the compiled block backend's CSR view) and
    ``injection_rounds`` agree with the per-round pair listing."""
    import numpy as np

    adversary = FAMILIES[family](0.6, 2.0)
    adversary.bind(N, PacketFactory())
    start, stop = 5, 133
    plan = adversary.plan_injections(start, stop)
    plan.validate(N)

    offsets, sources, destinations = plan.as_arrays()
    assert offsets.dtype == sources.dtype == destinations.dtype == np.int64
    assert offsets[0] == 0 and offsets[-1] == len(sources)
    expected_rounds = []
    for t in range(start, stop):
        lo, hi = offsets[t - start], offsets[t - start + 1]
        got = list(zip(sources[lo:hi].tolist(), destinations[lo:hi].tolist()))
        assert got == plan.pairs_for(t)
        if got:
            expected_rounds.append(t)
    assert plan.injection_rounds() == expected_rounds
    # Both exports are cached: same objects on repeated calls.
    assert plan.as_arrays() is (offsets, sources, destinations) or plan.as_arrays()[0] is offsets
    assert plan.injection_rounds() is plan.injection_rounds()


def test_plan_cached_exports_raise_after_mutation():
    """The CSR caches are derived from the mutable list fields: a plan
    that is mutated or re-chunked after its first export must raise
    instead of silently serving stale arrays."""
    from repro.adversary import InjectionPlan

    plan = InjectionPlan.from_counts(0, 3, [1, 0, 2], [0, 1, 2], [1, 2, 0])
    plan.as_arrays()
    plan.injection_rounds()

    # Appending pairs (re-chunking in place) invalidates the export.
    plan.sources.append(1)
    plan.destinations.append(0)
    plan.offsets[-1] += 1
    with pytest.raises(RuntimeError, match="mutated after"):
        plan.as_arrays()
    with pytest.raises(RuntimeError, match="mutated after"):
        plan.injection_rounds()

    # Shifting the window is equally structural.
    plan2 = InjectionPlan.from_counts(0, 2, [1, 1], [0, 1], [1, 2])
    plan2.injection_rounds()
    plan2.start += 1
    plan2.stop += 1
    with pytest.raises(RuntimeError, match="mutated after"):
        plan2.injection_rounds()

    # An untouched plan keeps serving its cached views.
    plan3 = InjectionPlan.from_counts(0, 2, [1, 1], [0, 1], [1, 2])
    first = plan3.as_arrays()
    assert plan3.as_arrays() is first
    assert plan3.injection_rounds() == [0, 1]


def test_plan_validate_rejects_malformed_plans():
    from repro.adversary import InjectionPlan

    good = InjectionPlan.from_counts(0, 2, [1, 1], [0, 1], [1, 2])
    good.validate(3)
    with pytest.raises(ValueError, match="outside"):
        InjectionPlan.from_counts(0, 1, [1], [5], [1]).validate(3)
    with pytest.raises(ValueError, match="differ from its source"):
        InjectionPlan.from_counts(0, 1, [1], [2], [2]).validate(3)
    with pytest.raises(ValueError, match="cover the round window"):
        InjectionPlan(0, 3, [0, 1], [0], [1]).validate(3)


# ---------------------------------------------------------------------------
# Adversary view queries
# ---------------------------------------------------------------------------


def test_least_on_station_tie_break_matches_name_order():
    view = AdversaryView(n=4)
    view.observe_round((1, 2))
    view.observe_round((2, 3))
    # Stations 0 has 0 on-rounds; 1 and 3 have one each; 2 has two.
    assert view.least_on_station() == 0
    view.observe_round((0,))
    # Now 0, 1, 3 all have one on-round: the smallest name wins.
    assert view.least_on_station() == 0

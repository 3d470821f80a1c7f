"""Property tests for the tick-split wake protocol.

The four state-machine algorithms (Count-Hop, Orchestra, Adjust-Window,
k-Subsets) now advance their stage/phase structure in a shared
:class:`~repro.core.schedule.WakeOracle`: ``tick(t)`` is the explicit
per-round state transition and ``wakes(t)`` a pure query afterwards.
These tests pin the protocol contract:

* ``tick(t)`` + pure ``wakes(t)`` reproduces the legacy stateful
  ``wakes()`` calling convention round-for-round — re-querying every
  station after the round's first (ticking) pass returns the identical
  awake set, i.e. ``wakes`` has become side-effect-free given the tick;
* the oracle's batch ``awake_stations(t)`` equals the per-station loop
  in every round of a real driven execution (injections, collisions,
  feedback and all);
* the kernel engine negotiates the ticked tier for exactly these
  algorithms.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversary import (
    RoundRobinAdversary,
    SaturatingAdversary,
    SingleSourceSprayAdversary,
    UniformRandomAdversary,
)
from repro.channel.engine import EngineConfig, RoundEngine
from repro.channel.kernel import KernelEngine
from repro.channel.packet import PacketFactory
from repro.core.registry import make_algorithm

ALGORITHMS = [
    ("count-hop", {"n": 5}),
    ("count-hop", {"n": 7}),
    ("orchestra", {"n": 5}),
    ("orchestra", {"n": 8}),
    ("adjust-window", {"n": 3}),
    ("adjust-window", {"n": 4}),
    ("k-subsets", {"n": 5, "k": 2}),
    ("k-subsets", {"n": 6, "k": 3}),
]

ADVERSARIES = {
    "spray": SingleSourceSprayAdversary,
    "round-robin": RoundRobinAdversary,
    "saturating": SaturatingAdversary,
}


def _build(algorithm_key, algorithm_params, adversary_key, rho):
    algorithm = make_algorithm(algorithm_key, **algorithm_params)
    controllers = algorithm.build_controllers()
    adversary = ADVERSARIES[adversary_key](rho, 2.0).bind(
        algorithm.n, PacketFactory()
    )
    return algorithm, controllers, adversary


def _assert_batch_matches_legacy(controllers, adversary, rounds):
    """Drive a full reference execution; in every round the oracle's batch
    awake set and a second pure per-station ``wakes`` pass must equal the
    awake set the engine's legacy (first) per-station pass produced."""
    oracle = controllers[0].wake_oracle
    assert oracle is not None
    assert all(ctrl.wake_oracle is oracle for ctrl in controllers)

    # Probe at wakes-time: the engine calls wakes station by station in
    # step 2 of each round; patching the last station's wakes lets us
    # query the oracle (and re-query every station) after all transitions
    # of the round have run but before any station acts.
    probes = []
    last = controllers[-1]
    legacy_wakes = last.wakes

    def probed_wakes(round_no):
        result = legacy_wakes(round_no)
        # The kernel's calling convention: an explicit (redundant, hence
        # idempotent) tick followed by pure queries.
        controllers[0].tick(round_no)
        oracle.tick(round_no)
        batch = oracle.awake_stations(round_no)
        requery = tuple(
            i
            for i, ctrl in enumerate(controllers)
            if (legacy_wakes if ctrl is last else ctrl.wakes)(round_no)
        )
        probes.append((round_no, batch, requery))
        return result

    last.wakes = probed_wakes
    engine = RoundEngine(
        controllers, adversary, config=EngineConfig(enforce_energy_cap=False)
    )
    for _ in range(rounds):
        event = engine.step()
        round_no, batch, requery = probes[-1]
        assert round_no == event.round_no
        assert batch == event.awake, (
            f"batch awake set diverged in round {round_no}"
        )
        assert requery == event.awake, (
            f"wakes() is not pure after tick in round {round_no}"
        )
    assert len(probes) == rounds


@given(
    config=st.sampled_from(ALGORITHMS),
    adversary_key=st.sampled_from(sorted(ADVERSARIES)),
    rho=st.sampled_from([0.1, 0.5, 0.9]),
    rounds=st.integers(min_value=30, max_value=300),
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_batch_awake_set_and_pure_requery_match_legacy_wakes(
    config, adversary_key, rho, rounds
):
    algorithm_key, algorithm_params = config
    _, controllers, adversary = _build(
        algorithm_key, algorithm_params, adversary_key, rho
    )
    _assert_batch_matches_legacy(controllers, adversary, rounds)


@pytest.mark.parametrize(
    "algorithm_params, rounds",
    [
        # Full window (gossip + main + aux) plus the boundary into the
        # second window, including a possible doubling decision.
        ({"n": 3, "initial_window": 4096}, 4200),
        # Gossip completes at round 800; ~200 Main-stage rounds follow.
        ({"n": 4}, 1000),
    ],
)
def test_adjust_window_batch_matches_legacy_in_every_stage(
    algorithm_params, rounds
):
    """Within 300 rounds the hypothesis probe above only ever sees
    Adjust-Window's Gossip stage; these longer deterministic drives cover
    Main, Auxiliary and the window transition round-for-round."""
    _, controllers, adversary = _build(
        "adjust-window", algorithm_params, "round-robin", 0.6
    )
    _assert_batch_matches_legacy(controllers, adversary, rounds)


@pytest.mark.parametrize(
    "adversary_cls, adversary_kwargs, dedicated",
    [
        # Three large stations share a regular Main schedule in which a
        # receiver listens in two intervals; the window doubles to 8192
        # at round 8192, so a table built for L=4096 must not survive.
        (UniformRandomAdversary, {"seed": 1, "rng_version": 2}, False),
        # One station reports a queue over L: its window's whole Main
        # stage is dedicated to it.
        (SingleSourceSprayAdversary, {}, True),
    ],
)
def test_adjust_window_batch_matches_legacy_in_busy_main_stages(
    adversary_cls, adversary_kwargs, dedicated
):
    """Window 1 snapshots empty queues, so its Main stage is empty; these
    drives reach Main stages with several awake stations, across a
    doubling, and check the clock's per-window awake table round for
    round against every station's own slot plan."""
    algorithm = make_algorithm("adjust-window", n=3, initial_window=4096)
    controllers = algorithm.build_controllers()
    adversary = adversary_cls(0.9, 2.0, **adversary_kwargs).bind(3, PacketFactory())
    clock = controllers[0].wake_oracle
    batch_awake = clock.awake_stations
    seen = {"shared_main_rounds": 0, "two_recv": False, "dedicated": False}

    def recording_awake(round_no):
        awake = batch_awake(round_no)
        layout, rel = clock.layout, round_no - clock.window_start
        if layout.main_start <= rel < layout.aux_start:
            seen["shared_main_rounds"] += len(awake) == 2
            seen["two_recv"] |= any(len(c._my_recv_slots) == 2 for c in controllers)
            seen["dedicated"] |= any(
                c._my_send_slots == (0, layout.main_len) for c in controllers
            )
        return awake

    clock.awake_stations = recording_awake
    _assert_batch_matches_legacy(controllers, adversary, 12_400)
    assert clock.L == 8192 and clock.window_start == 8192
    assert seen["shared_main_rounds"] > 0
    if dedicated:
        assert seen["dedicated"]
    else:
        assert seen["two_recv"]


@pytest.mark.parametrize("algorithm_key, algorithm_params", ALGORITHMS)
def test_kernel_negotiates_ticked_tier(algorithm_key, algorithm_params):
    algorithm, controllers, adversary = _build(
        algorithm_key, algorithm_params, "spray", 0.2
    )
    engine = KernelEngine(
        controllers,
        adversary,
        config=EngineConfig(enforce_energy_cap=False),
        schedule=algorithm.oblivious_schedule(),
    )
    assert engine.negotiation()["ticked_wakes"]
    assert not engine.negotiation()["schedule_fast_path"]
    engine.run(150)
    assert engine.collector.rounds_observed == 150


def test_schedule_published_algorithms_use_the_static_tier_instead():
    """k-Cycle declares a static schedule, so the kernel never needs the
    ticked tier for it; with k-Subsets migrated, no algorithm is left on
    the per-station ``wakes()`` fallback."""
    algorithm, controllers, adversary = _build(
        "k-cycle", {"n": 9, "k": 3}, "spray", 0.2
    )
    engine = KernelEngine(
        controllers,
        adversary,
        config=EngineConfig(enforce_energy_cap=False),
        schedule=algorithm.oblivious_schedule(),
    )
    assert not engine.negotiation()["ticked_wakes"]
    assert engine.negotiation()["schedule_fast_path"]


@pytest.mark.parametrize(
    "algorithm_params, rounds",
    [
        # gamma = C(5, 2) = 10: many phase boundaries, including several
        # with packets pending reassignment.
        ({"n": 5, "k": 2}, 400),
        # gamma = C(6, 3) = 20 with a larger per-phase thread fan-out.
        ({"n": 6, "k": 3}, 300),
    ],
)
def test_k_subsets_batch_matches_legacy_across_phase_boundaries(
    algorithm_params, rounds
):
    """Deterministic long drives over many k-Subsets phases: the shared
    phase clock's batch awake set and post-tick pure ``wakes`` must equal
    the legacy stateful per-station pass in every round."""
    _, controllers, adversary = _build(
        "k-subsets", algorithm_params, "round-robin", 0.6
    )
    _assert_batch_matches_legacy(controllers, adversary, rounds)

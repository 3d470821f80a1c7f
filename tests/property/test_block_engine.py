"""Property tests for the compiled round-block backend.

:class:`~repro.channel.block.BlockEngine` lowers fully negotiated round
blocks — static-schedule or ticked tier, silence-invariant controllers,
planned injections, heard-only polling — to a single-transmitter compiled
loop driven by the run's shared :class:`RoundBlockDriver`.  The contract
pinned here:

* every block-capable algorithm produces bit-identical collector and
  energy state to both the kernel and the checked reference loop;
* anything short of full capability degrades gracefully — whole-run
  fallback for ineligible components, per-block fallback when the driver
  declines a block — and still matches the reference bit for bit;
* resolution (``auto`` → block) and the negotiation report are stable
  introspection surfaces, and the tier counters in it hold exact values.
"""

import pytest

from repro.channel.block import BlockEngine
from repro.channel.engine import EngineConfig
from repro.channel.kernel import KernelEngine
from repro.channel.packet import PacketFactory
from repro.core.registry import make_algorithm
from repro.metrics.collector import MetricsCollector
from repro.sim import RunSpec, execute_spec
from repro.sim.runner import resolve_engine
from repro.sim.specs import make_adversary

#: Algorithms whose build_controllers attaches a shared block driver.
BLOCK_CAPABLE = ["k-cycle", "k-clique", "k-subsets", "rrw", "of-rrw", "mbtf"]

#: Beaconing algorithms with *restricted* drivers: they waive the
#: silence invariant, compile their deterministic phases and decline the
#: adaptive ones per block (Count-Hop's Report substage).
BLOCK_RESTRICTED = [
    ("count-hop", {"n": 6}),
    ("orchestra", {"n": 6}),
]

#: Algorithms without a block driver: whole-run kernel fallback.
BLOCK_HOLDOUTS = [
    ("adjust-window", {"n": 4}),
]


def _collector_state(collector: MetricsCollector) -> tuple:
    return (
        collector.total_queue_series,
        collector.per_station_max_queue,
        collector.energy_series,
        collector.outcome_counts,
        collector.delays,
        collector.rounds_observed,
        collector.injected_count,
        collector.delivered_count,
        sorted(collector.records),
    )


def _params_for(algorithm: str, n: int = 8) -> dict:
    params = {"n": n}
    if algorithm in ("k-cycle", "k-clique", "k-subsets"):
        params["k"] = 3
    return params


def _build_engine(common, engine_cls, plan_chunk=64, lowering=True):
    algorithm = make_algorithm(common["algorithm"], **common["algorithm_params"])
    adversary = make_adversary(common["adversary"], **common["adversary_params"])
    adversary.bind(algorithm.n, PacketFactory())
    return engine_cls(
        algorithm.build_controllers(),
        adversary,
        config=EngineConfig(
            enforce_energy_cap=False, plan_chunk=plan_chunk, lowering=lowering
        ),
        schedule=algorithm.oblivious_schedule(),
    )


@pytest.mark.parametrize("algorithm", BLOCK_CAPABLE)
@pytest.mark.parametrize(
    "adversary, adversary_params",
    [
        ("random", {"rho": 0.35, "beta": 2.0, "seed": 17}),
        ("bursty", {"rho": 0.2, "beta": 4.0, "idle_rounds": 19}),
        ("saturating", {"rho": 1.0, "beta": 2.0}),
    ],
)
def test_block_capable_algorithms_match_kernel_and_reference(
    algorithm, adversary, adversary_params, execute_with_options
):
    common = dict(
        algorithm=algorithm,
        algorithm_params=_params_for(algorithm),
        adversary=adversary,
        adversary_params=adversary_params,
        rounds=400,
        enforce_energy_cap=False,
    )
    block = execute_with_options(RunSpec(engine="block", **common), plan_chunk=97)
    kernel = execute_with_options(RunSpec(engine="kernel", **common), plan_chunk=97)
    reference = execute_spec(RunSpec(engine="reference", **common))

    assert block.negotiation["block_compilation"], algorithm
    assert block.negotiation["blocks_compiled"] > 0
    assert block.negotiation["blocks_fallback"] == 0
    for fast in (block, kernel):
        assert fast.summary.as_dict() == reference.summary.as_dict()
        assert _collector_state(fast.collector) == _collector_state(
            reference.collector
        )
        assert fast.energy.total_station_rounds == reference.energy.total_station_rounds
        assert fast.energy.max_awake == reference.energy.max_awake


@pytest.mark.parametrize("algorithm, params", BLOCK_RESTRICTED)
@pytest.mark.parametrize(
    "adversary, adversary_params",
    [
        ("round-robin", {"rho": 0.4, "beta": 2.0}),
        ("random", {"rho": 0.35, "beta": 2.0, "seed": 23}),
        ("bursty", {"rho": 0.3, "beta": 6.0, "idle_rounds": 37}),
    ],
)
def test_restricted_drivers_match_kernel_and_reference(
    algorithm, params, adversary, adversary_params, execute_with_options
):
    """Count-Hop and Orchestra compile their deterministic phases via
    restricted drivers (silence invariant waived, acts unconditional);
    the mix of compiled and declined blocks crosses their stage/season
    boundaries and must stay bit-identical to the other engines."""
    common = dict(
        algorithm=algorithm,
        algorithm_params=params,
        adversary=adversary,
        adversary_params=adversary_params,
        rounds=600,
        enforce_energy_cap=False,
    )
    block = execute_with_options(RunSpec(engine="block", **common), plan_chunk=97)
    kernel = execute_with_options(RunSpec(engine="kernel", **common), plan_chunk=97)
    reference = execute_spec(RunSpec(engine="reference", **common))

    neg = block.negotiation
    assert neg["block_compilation"], algorithm
    assert neg["blocks_compiled"] > 0
    if algorithm == "count-hop":
        # The adaptive Report substage is declined per block, with the
        # reason string surfaced through the negotiation report.
        assert neg["blocks_fallback"] > 0
        assert any(
            "Report substage" in reason for reason in neg["block_decline_reasons"]
        )
    else:
        # Orchestra has no adaptive phase: every block compiles.
        assert neg["blocks_fallback"] == 0
        assert neg["block_decline_reasons"] == {}
    for fast in (block, kernel):
        assert fast.summary.as_dict() == reference.summary.as_dict()
        assert _collector_state(fast.collector) == _collector_state(
            reference.collector
        )
        assert fast.energy.total_station_rounds == reference.energy.total_station_rounds
        assert fast.energy.max_awake == reference.energy.max_awake


@pytest.mark.parametrize("algorithm, params", BLOCK_HOLDOUTS)
def test_holdout_algorithms_fall_back_whole_run(algorithm, params):
    common = dict(
        algorithm=algorithm,
        algorithm_params=params,
        adversary="round-robin",
        adversary_params={"rho": 0.4, "beta": 2.0},
        rounds=300,
        enforce_energy_cap=False,
    )
    block = execute_spec(RunSpec(engine="block", **common))
    reference = execute_spec(RunSpec(engine="reference", **common))
    assert not block.negotiation["block_compilation"], algorithm
    assert block.negotiation["blocks_compiled"] == 0
    assert block.negotiation["blocks_fallback"] > 0
    assert block.summary.as_dict() == reference.summary.as_dict()
    assert _collector_state(block.collector) == _collector_state(reference.collector)


def test_unplanned_adversary_falls_back_whole_run():
    """adaptive-starvation reads the channel, so no injection plan — the
    block engine must degrade to the kernel loop without compiling."""
    common = dict(
        algorithm="k-cycle",
        algorithm_params={"n": 8, "k": 3},
        adversary="adaptive-starvation",
        adversary_params={"rho": 0.3, "beta": 2.0},
        rounds=300,
        enforce_energy_cap=False,
    )
    block = execute_spec(RunSpec(engine="block", **common))
    reference = execute_spec(RunSpec(engine="reference", **common))
    assert not block.negotiation["block_compilation"]
    assert block.negotiation["blocks_compiled"] == 0
    assert block.summary.as_dict() == reference.summary.as_dict()
    assert _collector_state(block.collector) == _collector_state(reference.collector)


COMMON = dict(
    algorithm="k-cycle",
    algorithm_params={"n": 8, "k": 3},
    adversary="random",
    adversary_params={"rho": 0.3, "beta": 2.0, "seed": 29},
)


def test_mixed_eligible_and_declined_blocks_match_reference():
    """A driver may decline any individual block (begin_block → False);
    declined blocks run through the kernel loop and the mix must still be
    bit-identical.  Decline every other block to interleave the paths."""
    engine = _build_engine(COMMON, BlockEngine, plan_chunk=50)
    assert engine.uses_block_compilation

    driver = engine.controllers[0].block_driver
    original = driver.begin_block
    calls = {"count": 0}

    def alternating(start, stop):
        calls["count"] += 1
        if calls["count"] % 2 == 0:
            return False
        return original(start, stop)

    driver.begin_block = alternating
    engine.run(500)
    assert engine.blocks_compiled > 0
    assert engine.blocks_fallback > 0

    reference = execute_spec(
        RunSpec(engine="reference", rounds=500, enforce_energy_cap=False, **COMMON)
    )
    assert _collector_state(engine.collector) == _collector_state(
        reference.collector
    )
    report = engine.energy.report()
    assert report.total_station_rounds == reference.energy.total_station_rounds
    assert report.max_awake == reference.energy.max_awake
    assert report.rounds == reference.energy.rounds


def test_mid_run_decline_switchover_matches_reference():
    """Compile for a while, then the driver starts declining: the mid-run
    switchover (canonical state written back, kernel loop resumes from
    member state) must leave no seam."""
    engine = _build_engine(COMMON, BlockEngine, plan_chunk=25)
    driver = engine.controllers[0].block_driver
    original = driver.begin_block

    def decline_after_round_200(start, stop):
        if start >= 200:
            return False
        return original(start, stop)

    driver.begin_block = decline_after_round_200
    engine.run(450)
    assert engine.blocks_compiled > 0
    assert engine.blocks_fallback > 0

    reference = execute_spec(
        RunSpec(engine="reference", rounds=450, enforce_energy_cap=False, **COMMON)
    )
    assert _collector_state(engine.collector) == _collector_state(
        reference.collector
    )


@pytest.mark.parametrize("splits", [(123, 377), (1, 499), (250, 249, 1)])
def test_segmented_block_runs_match_single_run(splits):
    """run() may be called repeatedly; segment boundaries land mid-chunk
    and mid-activity-segment and must not disturb the compiled state."""
    segmented = _build_engine(COMMON, BlockEngine, plan_chunk=64)
    for piece in splits:
        segmented.run(piece)
    single = _build_engine(COMMON, BlockEngine, plan_chunk=64)
    single.run(sum(splits))
    assert _collector_state(segmented.collector) == _collector_state(
        single.collector
    )
    assert segmented.energy.report() == single.energy.report()


def test_auto_prefers_block_and_trace_forces_reference():
    assert resolve_engine("auto", record_trace=False) == "block"
    assert resolve_engine("auto", record_trace=True) == "reference"
    assert resolve_engine("kernel", record_trace=False) == "kernel"
    with pytest.raises(ValueError, match="unknown engine"):
        resolve_engine("compiled", record_trace=False)


def test_run_result_reports_engine_and_negotiation():
    result = execute_spec(
        RunSpec(rounds=60, enforce_energy_cap=False, **COMMON)
    )
    assert result.engine_used == "block"
    neg = result.negotiation
    assert neg["engine"] == "BlockEngine"
    for key in (
        "schedule_fast_path",
        "planned_injections",
        "quiescence_skipping",
        "block_compilation",
        "blocks_compiled",
        "blocks_fallback",
    ):
        assert key in neg
    reference = execute_spec(
        RunSpec(engine="reference", rounds=60, enforce_energy_cap=False, **COMMON)
    )
    assert reference.engine_used == "reference"
    assert reference.negotiation is None


def test_block_engine_requires_shared_driver():
    """Controllers with per-station (non-shared) drivers must not
    negotiate block compilation — the driver is one object for the run."""
    engine = _build_engine(COMMON, BlockEngine)
    assert engine.uses_block_compilation
    # Simulate a buggy algorithm attaching distinct drivers.
    algorithm = make_algorithm("k-cycle", n=8, k=3)
    adversary = make_adversary("random", rho=0.3, beta=2.0, seed=29)
    adversary.bind(algorithm.n, PacketFactory())
    controllers = algorithm.build_controllers()
    import copy

    controllers[1].block_driver = copy.copy(controllers[1].block_driver)
    engine = BlockEngine(
        controllers,
        adversary,
        config=EngineConfig(enforce_energy_cap=False),
        schedule=algorithm.oblivious_schedule(),
    )
    assert not engine.uses_block_compilation
    engine.run(50)  # still runs, via the kernel loop
    assert engine.blocks_compiled == 0


# ---------------------------------------------------------------------------
# Segment lowering: array-lowered spans inside compiled blocks
# ---------------------------------------------------------------------------

#: (algorithm, params, adversary, adversary_params) grids on which the
#: always-on token-ring drivers provably lower spans (drain spans and
#: dense arrival absorption) — each case must produce lowered_rounds > 0,
#: so a regression that silently stops lowering fails loudly here.
LOWERING_CASES = [
    ("rrw", {"n": 16}, "bursty", {"rho": 0.5, "beta": 8.0, "idle_rounds": 200}),
    ("rrw", {"n": 32}, "random", {"rho": 0.9, "beta": 2.0, "seed": 9}),
    ("of-rrw", {"n": 32}, "random", {"rho": 0.9, "beta": 2.0, "seed": 9}),
    ("of-rrw", {"n": 8}, "spray", {"rho": 0.25, "beta": 4.0}),
    ("mbtf", {"n": 32}, "random", {"rho": 0.95, "beta": 2.0, "seed": 9}),
    ("mbtf", {"n": 16}, "bursty", {"rho": 0.6, "beta": 8.0, "idle_rounds": 200}),
    # A low big threshold sets the big bit inside lowered spans, so the
    # ring reorders both on drain rounds and on arrival rounds.
    ("mbtf", {"n": 8, "big_threshold": 2}, "random", {"rho": 0.9, "beta": 2.0, "seed": 9}),
    # Threshold 0: every send is big, but a holder with nothing to send
    # sends nothing and so moves nowhere.
    ("mbtf", {"n": 8, "big_threshold": 0}, "random", {"rho": 0.5, "beta": 2.0, "seed": 9}),
]


def _ring_state(engine) -> list:
    """Each controller's replica state and its queue's old/new split."""

    def packets(queued) -> list:
        return [(p.destination, p.injected_at, p.origin) for p in queued]

    return [
        (
            vars(ctrl.replica),
            packets(ctrl.queue.old_packets()),
            packets(ctrl.queue.new_packets()),
        )
        for ctrl in engine.controllers
    ]


def _lowering_common(algorithm, params, adversary, adversary_params):
    return dict(
        algorithm=algorithm,
        algorithm_params=params,
        adversary=adversary,
        adversary_params=adversary_params,
    )


@pytest.mark.parametrize(
    "algorithm, params, adversary, adversary_params", LOWERING_CASES
)
def test_lowered_segments_match_per_round_blocks_and_reference(
    algorithm, params, adversary, adversary_params
):
    """lowered ≡ block ≡ reference: the array-lowered path must be an
    execution detail, invisible in every collected statistic.  The dense
    cases put injections mid-segment (the lowering absorbs them from the
    plan); the bursty cases interleave quiescent-span elision with
    lowered segments inside the same blocks.  Lowered and per-round runs
    must also end with the same replicas and the same queues, split
    into old and new packets."""
    common = _lowering_common(algorithm, params, adversary, adversary_params)
    lowered = _build_engine(common, BlockEngine)
    per_round = _build_engine(common, BlockEngine, lowering=False)
    lowered.run(1500)
    per_round.run(1500)
    assert lowered.lowered_segments > 0, (algorithm, adversary)
    assert lowered.lowered_rounds > 0
    assert per_round.lowered_segments == 0
    assert _collector_state(lowered.collector) == _collector_state(
        per_round.collector
    )
    assert lowered.energy.report() == per_round.energy.report()
    assert _ring_state(lowered) == _ring_state(per_round)

    reference = execute_spec(
        RunSpec(
            engine="reference", rounds=1500, enforce_energy_cap=False, **common
        )
    )
    assert _collector_state(lowered.collector) == _collector_state(
        reference.collector
    )


@pytest.mark.parametrize(
    "algorithm, params, adversary, adversary_params", LOWERING_CASES
)
def test_lowered_ring_state_matches_per_round_at_every_run_boundary(
    algorithm, params, adversary, adversary_params
):
    """run() boundaries cut lowered spans at arbitrary rounds, including
    the round the token reaches a holder that will set the big bit next:
    after every piece the lowered run's replicas and queues must equal
    the per-round run's."""
    common = _lowering_common(algorithm, params, adversary, adversary_params)
    lowered = _build_engine(common, BlockEngine)
    per_round = _build_engine(common, BlockEngine, lowering=False)
    for _ in range(100):
        lowered.run(7)
        per_round.run(7)
        assert _ring_state(lowered) == _ring_state(per_round)
    assert lowered.lowered_rounds > 0, (algorithm, adversary)
    assert _collector_state(lowered.collector) == _collector_state(
        per_round.collector
    )


#: Sparse-traffic grids for the schedule-driven k-family: mostly silent
#: rounds, which these drivers leave to the quiescent-span elision the
#: kernel and block loops share instead of lowering them.
SILENT_SPAN_CASES = [
    (
        "k-cycle",
        {"n": 16, "k": 4},
        "bursty",
        {"rho": 0.05, "beta": 4.0, "idle_rounds": 150},
    ),
    (
        "k-clique",
        {"n": 16, "k": 6},
        "bursty",
        {"rho": 0.03, "beta": 4.0, "idle_rounds": 150},
    ),
    ("k-subsets", {"n": 8, "k": 3}, "random", {"rho": 0.05, "beta": 2.0, "seed": 9}),
]


@pytest.mark.parametrize(
    "algorithm, params, adversary, adversary_params", SILENT_SPAN_CASES
)
def test_k_family_silent_spans_take_the_shared_elision_path(
    algorithm, params, adversary, adversary_params
):
    """With lowering enabled the k-family drivers still lower nothing;
    the block loop elides their silent spans through the kernel's span
    method (plus the driver's ``advance_span`` hook), so block and
    kernel elide the same rounds and match the reference bit for bit."""
    common = _lowering_common(algorithm, params, adversary, adversary_params)
    block = _build_engine(common, BlockEngine)
    kernel = _build_engine(common, KernelEngine)
    block.run(700)
    block.run(800)
    kernel.run(1500)
    assert block.config.lowering
    assert block.lowered_segments == 0
    assert block.quiescent_rounds_elided > 0, (algorithm, adversary)
    assert block.quiescent_rounds_elided == kernel.quiescent_rounds_elided
    assert _collector_state(block.collector) == _collector_state(kernel.collector)
    assert block.energy.report() == kernel.energy.report()

    reference = execute_spec(
        RunSpec(
            engine="reference", rounds=1500, enforce_energy_cap=False, **common
        )
    )
    assert _collector_state(block.collector) == _collector_state(
        reference.collector
    )


def test_lowering_interleaves_with_span_elision():
    """A bursty run alternates quiescent spans (elided) with busy drain
    spans (lowered); both fast paths must engage in the same run."""
    common = _lowering_common(
        "rrw", {"n": 16}, "bursty", {"rho": 0.5, "beta": 8.0, "idle_rounds": 200}
    )
    engine = _build_engine(common, BlockEngine)
    engine.run(2000)
    assert engine.quiescent_rounds_elided > 0
    assert engine.lowered_rounds > 0


def test_dense_lowering_absorbs_mid_segment_injections():
    """At rho ~0.9 nearly every round injects: segments can only exist
    because the driver absorbs planned arrivals, so high coverage here
    proves the mid-segment injection path, not just drain spans."""
    common = _lowering_common(
        "rrw", {"n": 32}, "random", {"rho": 0.9, "beta": 2.0, "seed": 9}
    )
    engine = _build_engine(common, BlockEngine)
    engine.run(1500)
    assert engine.collector.injected_count > 500
    assert engine.lowered_rounds > 1000


def test_lowered_equivalence_on_batched_rng_traffic():
    """Seeded traffic drawn in RNG blocks, consumed through plan-time
    slices by the lowered run and per round by the reference loop, must
    keep lowered-vs-reference equivalence."""
    for algorithm, params in [("rrw", {"n": 16}), ("mbtf", {"n": 16})]:
        common = _lowering_common(
            algorithm,
            params,
            "random",
            {"rho": 0.4, "beta": 2.0, "seed": 31},
        )
        engine = _build_engine(common, BlockEngine)
        engine.run(800)
        assert engine.lowered_rounds > 0, algorithm
        reference = execute_spec(
            RunSpec(
                engine="reference", rounds=800, enforce_energy_cap=False, **common
            )
        )
        assert _collector_state(engine.collector) == _collector_state(
            reference.collector
        ), algorithm


def test_lowering_toggle_is_reported_in_negotiation():
    common = _lowering_common(
        "rrw", {"n": 16}, "random", {"rho": 0.5, "beta": 2.0, "seed": 3}
    )
    engine = _build_engine(common, BlockEngine)
    engine.run(300)
    neg = engine.negotiation()
    assert neg["segment_lowering"] is True
    assert neg["lowered_segments"] == engine.lowered_segments
    assert neg["lowered_rounds"] == engine.lowered_rounds
    off = _build_engine(common, BlockEngine, lowering=False)
    off.run(300)
    assert off.negotiation()["segment_lowering"] is False
    assert off.negotiation()["lowered_rounds"] == 0


_REPORT_DECLINE = (
    "count-hop: Report substage is adaptive (transmissions depend on private "
    "queue counts)"
)


@pytest.mark.parametrize(
    "algorithm, params, adversary, adversary_params, expected",
    [
        (
            "k-cycle",
            {"n": 8, "k": 3},
            "spray",
            {"rho": 0.05, "beta": 2.0},
            dict(blocks_compiled=12, blocks_fallback=0, block_decline_reasons={},
                 lowered_segments=0, lowered_rounds=0, quiescent_rounds_elided=154),
        ),
        (
            "count-hop",
            {"n": 6},
            "round-robin",
            {"rho": 0.4, "beta": 2.0},
            dict(blocks_compiled=56, blocks_fallback=54,
                 block_decline_reasons={_REPORT_DECLINE: 54},
                 lowered_segments=0, lowered_rounds=0, quiescent_rounds_elided=0),
        ),
        (
            "rrw",
            {"n": 8},
            "random",
            {"rho": 0.9, "beta": 2.0, "seed": 9},
            dict(blocks_compiled=12, blocks_fallback=0, block_decline_reasons={},
                 lowered_segments=12, lowered_rounds=1000, quiescent_rounds_elided=0),
        ),
        (
            "adjust-window",
            {"n": 4},
            "round-robin",
            {"rho": 0.4, "beta": 2.0},
            # Ineligible run: one fallback per run() call.
            dict(blocks_compiled=0, blocks_fallback=3, block_decline_reasons={},
                 lowered_segments=0, lowered_rounds=0, quiescent_rounds_elided=0),
        ),
    ],
)
def test_block_and_elision_counters_are_pinned(
    algorithm, params, adversary, adversary_params, expected
):
    """The tier counters perfbench's ``channel.*_share`` metrics are
    computed from, pinned at exact values: block boundaries (plan chunks
    cut by replay and ``propose_stop``), per-run fallback counting,
    decline reasons, lowered spans and elided rounds over three run()
    calls whose boundaries land mid-chunk."""
    common = _lowering_common(algorithm, params, adversary, adversary_params)
    engine = _build_engine(common, BlockEngine, plan_chunk=97)
    for rounds in (250, 301, 449):
        engine.run(rounds)
    neg = engine.negotiation()
    assert {key: neg[key] for key in expected} == expected


# ---------------------------------------------------------------------------
# Batch awake-matrix export
# ---------------------------------------------------------------------------


def test_schedule_awake_matrix_tiles_the_period():
    import numpy as np

    schedule = make_algorithm("k-clique", n=8, k=4).oblivious_schedule()
    period = schedule.periodic_awake_sets()
    matrix = schedule.awake_matrix(0, len(period))
    assert matrix.shape == (len(period), 8)
    assert matrix.dtype == np.bool_
    for t, awake in enumerate(period):
        assert set(np.flatnonzero(matrix[t]).tolist()) == set(awake)
    # Arbitrary windows tile modulo the period.
    window = schedule.awake_matrix(5, 5 + 3 * len(period))
    for row in range(window.shape[0]):
        assert (window[row] == matrix[(5 + row) % len(period)]).all()
    with pytest.raises(ValueError):
        schedule.awake_matrix(10, 5)

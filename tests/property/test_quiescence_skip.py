"""Property tests: the quiescent-span fast path changes no statistic.

The kernel engine's fifth negotiation axis elides whole injection-free
spans when every controller declares ``silence_invariant`` and every
queue is empty.  Nothing may change: for any random spec that mixes
quiescent spans with bursts, the span-skipping kernel must match the
reference loop — and the span-free kernel (``quiescence_skip=False``) —
round for round: outcome counts, energy series, queue series, per-station
maxima, delays and packet bookkeeping.  A run aborted mid-span and
resumed must replay its cached plan remainder rather than re-plan.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.channel.block import BlockEngine
from repro.channel.engine import EngineConfig, RoundEngine
from repro.channel.kernel import KernelEngine
from repro.channel.packet import PacketFactory
from repro.metrics.collector import MetricsCollector
from repro.sim import RunSpec, execute_spec
from repro.sim.specs import make_adversary
from repro.core.registry import make_algorithm

#: Every algorithm whose controllers declare the silence invariant; the
#: strategy below must keep this list in sync with the declarations
#: (asserted per example).
SILENCE_CAPABLE = ["k-cycle", "k-clique", "k-subsets", "rrw", "of-rrw", "mbtf"]


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


@st.composite
def quiescent_spec_strategy(draw) -> dict:
    """A config whose execution mixes quiescent spans with bursts."""
    algorithm = draw(st.sampled_from(SILENCE_CAPABLE))
    n = draw(st.integers(min_value=4, max_value=8))
    params = {"n": n}
    if algorithm in ("k-cycle", "k-clique", "k-subsets"):
        params["k"] = draw(st.integers(min_value=2, max_value=min(4, n - 1)))
    adversary, adversary_params = draw(
        st.sampled_from(
            [
                # Long idle stretches between maximal bursts: the span
                # fast path's bread and butter.
                ("bursty", {"rho": 0.1, "beta": 4.0, "idle_rounds": 37}),
                ("bursty", {"rho": 0.3, "beta": 2.0, "idle_rounds": 11}),
                # Trickle traffic: short spans between single packets.
                ("single-target", {"rho": 0.05, "beta": 1.0}),
                # Stochastic gaps.
                ("random", {"rho": 0.08, "beta": 2.0, "seed": 3}),
                ("hotspot", {"rho": 0.1, "beta": 1.0, "seed": 5}),
                # Fully quiescent run: one span from round 0 to the end.
                ("no-injection", {}),
            ]
        )
    )
    return dict(
        algorithm=algorithm,
        algorithm_params=params,
        adversary=adversary,
        adversary_params=adversary_params,
        rounds=draw(st.integers(min_value=30, max_value=500)),
        enforce_energy_cap=False,
        plan_chunk=draw(st.sampled_from([13, 64, 4096])),
    )


@given(common=quiescent_spec_strategy())
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_span_skipping_kernel_matches_reference_and_per_round_kernel(
    common, execute_with_options
):
    plan_chunk = common.pop("plan_chunk")
    skipping = execute_with_options(
        RunSpec(engine="kernel", **common), plan_chunk=plan_chunk
    )
    per_round = execute_with_options(
        RunSpec(engine="kernel", **common),
        plan_chunk=plan_chunk,
        quiescence_skip=False,
    )
    block = execute_with_options(
        RunSpec(engine="block", **common), plan_chunk=plan_chunk
    )
    reference = execute_spec(RunSpec(engine="reference", **common))

    assert skipping.summary.as_dict() == reference.summary.as_dict()
    assert _collector_state(skipping.collector) == _collector_state(
        reference.collector
    )
    assert _collector_state(skipping.collector) == _collector_state(
        per_round.collector
    )
    # The compiled-block engine elides the same quiescent spans inside
    # its blocks; every algorithm in SILENCE_CAPABLE has a block driver.
    assert block.summary.as_dict() == reference.summary.as_dict()
    assert _collector_state(block.collector) == _collector_state(
        reference.collector
    )


def _build_kernel(common, plan_chunk=64, engine_cls=KernelEngine, **config_kwargs):
    algorithm = make_algorithm(common["algorithm"], **common["algorithm_params"])
    adversary = make_adversary(common["adversary"], **common["adversary_params"])
    adversary.bind(algorithm.n, PacketFactory())
    config = EngineConfig(
        enforce_energy_cap=False, plan_chunk=plan_chunk, **config_kwargs
    )
    return engine_cls(
        algorithm.build_controllers(),
        adversary,
        config=config,
        schedule=algorithm.oblivious_schedule(),
    )


BURSTY_COMMON = dict(
    algorithm="k-cycle",
    algorithm_params={"n": 8, "k": 3},
    adversary="bursty",
    adversary_params={"rho": 0.1, "beta": 6.0, "idle_rounds": 50},
)


def test_negotiation_engages_for_every_declared_algorithm():
    for algorithm in SILENCE_CAPABLE:
        params = {"n": 6}
        if algorithm in ("k-cycle", "k-clique", "k-subsets"):
            params["k"] = 3
        common = dict(
            BURSTY_COMMON, algorithm=algorithm, algorithm_params=params
        )
        engine = _build_kernel(common)
        assert engine.negotiation()["quiescence_skipping"], algorithm
        engine.run(400)
        assert engine.quiescent_rounds_elided > 0, algorithm


def test_holdouts_do_not_negotiate_span_skipping():
    for algorithm, params in [
        ("count-hop", {"n": 6}),
        ("orchestra", {"n": 6}),
        ("adjust-window", {"n": 4}),
    ]:
        common = dict(
            BURSTY_COMMON, algorithm=algorithm, algorithm_params=params
        )
        engine = _build_kernel(common)
        assert not engine.negotiation()["quiescence_skipping"], algorithm
        engine.run(200)
        assert engine.quiescent_rounds_elided == 0, algorithm


def test_quiescence_skip_config_knob_disables_the_fast_path():
    engine = _build_kernel(BURSTY_COMMON, quiescence_skip=False)
    assert not engine.negotiation()["quiescence_skipping"]
    engine.run(300)
    assert engine.quiescent_rounds_elided == 0


@pytest.mark.parametrize("engine_cls", [KernelEngine, BlockEngine])
@pytest.mark.parametrize(
    "splits",
    [
        # Stops landing inside idle stretches (mid-span) and mid-chunk:
        # the second run() must resume from the cached plan remainder.
        (17, 60, 23, 400),
        (1, 1, 1, 497),
        (75, 75, 350),
        (499, 1),
    ],
)
def test_aborted_mid_span_run_resumes_from_plan_remainder(splits, engine_cls):
    reference = execute_spec(
        RunSpec(engine="reference", rounds=500, enforce_energy_cap=False, **BURSTY_COMMON)
    )
    engine = _build_kernel(BURSTY_COMMON, plan_chunk=64, engine_cls=engine_cls)
    assert sum(splits) == 500
    for piece in splits:
        engine.run(piece)
    assert engine.round_no == 500
    assert engine.quiescent_rounds_elided > 0
    assert _collector_state(engine.collector) == _collector_state(
        reference.collector
    )


def _capped_k_subsets(engine_cls):
    """k-Subsets n=8 (3 stations awake per round) under a recorded cap of 2."""
    algorithm = make_algorithm("k-subsets", n=8, k=3)
    adversary = make_adversary("bursty", rho=0.1, beta=6.0, idle_rounds=50)
    adversary.bind(algorithm.n, PacketFactory())
    config = EngineConfig(energy_cap=2, enforce_energy_cap=False, plan_chunk=64)
    controllers = algorithm.build_controllers()
    if engine_cls is RoundEngine:
        return RoundEngine(controllers, adversary, config=config)
    return engine_cls(
        controllers, adversary, config=config, schedule=algorithm.oblivious_schedule()
    )


def test_cap_rejected_span_runs_per_round_on_every_engine():
    """The first quiescent span's batch counts (3 awake) fail the cap of
    2, so elision is rejected for the rest of the run — across run()
    calls — and the per-round path records every round's violation."""
    reference, kernel, block = (
        _capped_k_subsets(cls) for cls in (RoundEngine, KernelEngine, BlockEngine)
    )
    # Negotiation cannot see the cap conflict; only the first probe can.
    assert kernel.negotiation()["quiescence_skipping"]
    assert block.negotiation()["quiescence_skipping"]
    for engine in (reference, kernel, block):
        engine.run(1234)
        engine.run(1766)
    assert reference.energy.violations == 3000
    for engine in (kernel, block):
        assert _collector_state(engine.collector) == _collector_state(
            reference.collector
        )
        assert engine.energy.violations == reference.energy.violations
        assert engine.quiescent_rounds_elided == 0
        assert engine.negotiation()["quiescence_skipping"] is False


def test_exception_mid_chunk_leaves_resumable_state():
    """An abort inside a chunk (factory blows up mid-burst) must leave the
    plan remainder cached so a resumed run replays — not re-plans — the
    rounds whose leaky-bucket budget was already consumed."""

    class Boom(RuntimeError):
        pass

    class ExplodingFactory(PacketFactory):
        """Raises on the first packet of the first burst at round >= 150.

        Detonating on a round's *first* materialisation aborts at a clean
        round boundary (nothing of the failing round was recorded), which
        is the granularity the kernel's resume contract covers.
        """

        def make(self, destination, injected_at, origin, content=None):
            if injected_at >= 150:
                raise Boom()
            return super().make(destination, injected_at, origin, content)

    algorithm = make_algorithm("k-cycle", n=8, k=3)
    adversary = make_adversary("bursty", rho=0.1, beta=6.0, idle_rounds=50)
    exploding = ExplodingFactory()
    adversary.bind(algorithm.n, exploding)
    engine = KernelEngine(
        algorithm.build_controllers(),
        adversary,
        config=EngineConfig(enforce_energy_cap=False, plan_chunk=64),
        schedule=algorithm.oblivious_schedule(),
    )
    with pytest.raises(Boom):
        engine.run(500)
    aborted_at = engine.round_no
    assert 0 < aborted_at < 500
    assert engine.quiescent_rounds_elided > 0
    # Swap in a working factory continuing the id space and finish the
    # horizon: the replayed remainder must line up with an unbroken
    # reference run.
    adversary.factory = PacketFactory(start=exploding.created)
    engine.run(500 - aborted_at)
    reference = execute_spec(
        RunSpec(engine="reference", rounds=500, enforce_energy_cap=False, **BURSTY_COMMON)
    )
    assert engine.collector.total_queue_series == reference.collector.total_queue_series
    assert engine.collector.outcome_counts == reference.collector.outcome_counts
    assert engine.collector.energy_series == reference.collector.energy_series

"""Property tests: the fast loops are bit-identical to the reference loop.

The capability-negotiated kernel (`repro.channel.kernel.KernelEngine`)
skips whatever bookkeeping a run's components declare they do not need —
view maintenance for oblivious adversaries, per-station wake-up calls for
schedule-driven controllers, full queue polling for incremental-metrics
controllers.  The compiled round-block backend
(`repro.channel.block.BlockEngine`) goes further and lowers fully
negotiated blocks to a single-transmitter loop, falling back per block to
the kernel when a capability is missing.  None of that may change a
single statistic: the checked reference loop is the oracle, and for any
random :class:`RunSpec` all three engines must produce identical
summaries, energy reports and packet bookkeeping.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim import RunSpec, execute_spec


def _algorithm_fragments(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    key = draw(
        st.sampled_from(
            [
                "count-hop",
                "orchestra",
                "adjust-window",
                "k-cycle",
                "k-clique",
                "k-subsets",
                "rrw",
                "mbtf",
            ]
        )
    )
    if key in ("k-cycle", "k-clique", "k-subsets"):
        k = draw(st.integers(min_value=2, max_value=max(2, n - 1)))
        return key, {"n": n, "k": k}
    if key == "adjust-window":
        # Keep the derived initial window (and with it the per-example
        # cost) small; the dedicated window-crossing tests below cover
        # window boundaries and doubling.
        return key, {"n": draw(st.integers(min_value=3, max_value=4))}
    return key, {"n": n}


@st.composite
def run_spec_triple_strategy(draw) -> tuple[RunSpec, RunSpec, RunSpec]:
    """One random configuration, spec'd once per engine."""
    algorithm, algorithm_params = _algorithm_fragments(draw)
    adversary = draw(
        st.sampled_from(
            [
                "single-target",
                "spray",
                "round-robin",
                "alternating-pair",
                "bursty",
                "saturating",
                "random",
                "hotspot",
                "adaptive-starvation",
            ]
        )
    )
    params = {
        "rho": draw(
            st.floats(min_value=0.05, max_value=0.9, allow_nan=False).map(
                lambda x: round(x, 3)
            )
        ),
        "beta": float(draw(st.integers(min_value=1, max_value=3))),
    }
    if adversary in ("random", "hotspot"):
        params["seed"] = draw(st.integers(min_value=0, max_value=2**31))
    rounds = draw(st.integers(min_value=20, max_value=300))
    common = dict(
        algorithm=algorithm,
        algorithm_params=algorithm_params,
        adversary=adversary,
        adversary_params=params,
        rounds=rounds,
        enforce_energy_cap=False,
    )
    return (
        RunSpec(engine="block", **common),
        RunSpec(engine="kernel", **common),
        RunSpec(engine="reference", **common),
    )


@given(triple=run_spec_triple_strategy())
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_fast_engines_match_reference_summaries(triple):
    block_spec, kernel_spec, reference_spec = triple
    block = execute_spec(block_spec)
    kernel = execute_spec(kernel_spec)
    reference = execute_spec(reference_spec)

    for fast in (block, kernel):
        assert fast.summary.as_dict() == reference.summary.as_dict()
        assert fast.energy.rounds == reference.energy.rounds
        assert fast.energy.total_station_rounds == reference.energy.total_station_rounds
        assert fast.energy.max_awake == reference.energy.max_awake
        # Fine-grained collector state, not just the condensed summary.
        kc, rc = fast.collector, reference.collector
        assert kc.total_queue_series == rc.total_queue_series
        assert kc.per_station_max_queue == rc.per_station_max_queue
        assert kc.energy_series == rc.energy_series
        assert kc.outcome_counts == rc.outcome_counts
        assert kc.delays == rc.delays
        assert sorted(kc.records) == sorted(rc.records)


@pytest.mark.parametrize("engine", ["kernel", "block"])
@pytest.mark.parametrize(
    "algorithm, algorithm_params, rounds",
    [
        # Crosses the first Adjust-Window boundary (initial_window=4096)
        # and reaches the second window, exercising the shared clock's
        # window transition, doubling decision and plan rebuilds on the
        # kernel's ticked tier.
        ("adjust-window", {"n": 3, "initial_window": 4096}, 9000),
        # Several full Count-Hop phases and Orchestra baton rotations.
        ("count-hop", {"n": 5}, 2000),
        ("orchestra", {"n": 5}, 2000),
        # 40 k-Subsets phases (gamma = C(6,3) = 20): the shared phase
        # clock's ticked tier must reassign packets at every boundary
        # exactly as the legacy stateful per-station wakes() did.
        ("k-subsets", {"n": 6, "k": 3}, 800),
    ],
)
def test_ticked_algorithms_match_reference_across_stage_boundaries(
    algorithm, algorithm_params, rounds, engine
):
    common = dict(
        algorithm=algorithm,
        algorithm_params=algorithm_params,
        adversary="round-robin",
        adversary_params={"rho": 0.4, "beta": 2.0},
        rounds=rounds,
        enforce_energy_cap=False,
    )
    kernel = execute_spec(RunSpec(engine=engine, **common))
    reference = execute_spec(RunSpec(engine="reference", **common))
    assert kernel.summary.as_dict() == reference.summary.as_dict()
    assert (
        kernel.collector.total_queue_series == reference.collector.total_queue_series
    )
    assert kernel.collector.energy_series == reference.collector.energy_series
    assert kernel.collector.delays == reference.collector.delays


@pytest.mark.parametrize("engine", ["kernel", "block"])
@pytest.mark.parametrize("plan_chunk", [1, 7, 64, 4096])
@pytest.mark.parametrize(
    "adversary, adversary_params",
    [
        ("spray", {"rho": 0.3, "beta": 2.0}),
        ("bursty", {"rho": 0.4, "beta": 4.0}),
        ("random", {"rho": 0.5, "beta": 2.0, "seed": 13}),
    ],
)
def test_planned_injection_chunk_boundaries_match_reference(
    adversary, adversary_params, plan_chunk, engine, execute_with_options
):
    """Batched-injection runs are bit-identical to the reference loop for
    every chunking granularity, including degenerate one-round plans and
    chunks that straddle the horizon."""
    common = dict(
        algorithm="k-cycle",
        algorithm_params={"n": 8, "k": 3},
        adversary=adversary,
        adversary_params=adversary_params,
        rounds=333,
        enforce_energy_cap=False,
    )
    kernel = execute_with_options(
        RunSpec(engine=engine, **common), plan_chunk=plan_chunk
    )
    reference = execute_spec(RunSpec(engine="reference", **common))
    assert kernel.summary.as_dict() == reference.summary.as_dict()
    kc, rc = kernel.collector, reference.collector
    assert kc.total_queue_series == rc.total_queue_series
    assert kc.energy_series == rc.energy_series
    assert kc.delays == rc.delays
    assert sorted(kc.records) == sorted(rc.records)


@pytest.mark.parametrize("engine", ["kernel", "block"])
@pytest.mark.parametrize("plan_chunk", [1, 13, 4096])
def test_batched_windowed_view_chunk_boundaries_match_reference(
    plan_chunk, engine, execute_with_options
):
    """The schedule-backed view path (windowed adversary on the static
    schedule tier) is bit-identical to the reference loop at every ring
    flush cadence.  The block engine cannot compile these runs (the
    adversary does not plan injections), so its rows pin the per-block
    kernel fallback."""
    common = dict(
        algorithm="k-cycle",
        algorithm_params={"n": 12, "k": 4},
        adversary="adaptive-starvation",
        adversary_params={"rho": 0.3, "beta": 2.0},
        rounds=400,
        enforce_energy_cap=False,
    )
    kernel = execute_with_options(
        RunSpec(engine=engine, **common), plan_chunk=plan_chunk
    )
    reference = execute_spec(RunSpec(engine="reference", **common))
    assert kernel.summary.as_dict() == reference.summary.as_dict()
    kc, rc = kernel.collector, reference.collector
    assert kc.total_queue_series == rc.total_queue_series
    assert kc.delays == rc.delays
    assert sorted(kc.records) == sorted(rc.records)


@pytest.mark.parametrize("engine", ["kernel", "block"])
def test_fast_engines_reject_trace_recording(engine):
    spec = RunSpec(
        algorithm="k-cycle",
        algorithm_params={"n": 5, "k": 2},
        adversary="spray",
        adversary_params={"rho": 0.2, "beta": 1.0},
        rounds=10,
        record_trace=True,
        engine=engine,
    )
    with pytest.raises(ValueError, match="does not record traces"):
        execute_spec(spec)


def test_auto_engine_with_trace_uses_reference():
    spec = RunSpec(
        algorithm="k-cycle",
        algorithm_params={"n": 5, "k": 2},
        adversary="spray",
        adversary_params={"rho": 0.2, "beta": 1.0},
        rounds=25,
        record_trace=True,
    )
    result = execute_spec(spec)
    assert result.trace is not None
    assert len(result.trace) == 25

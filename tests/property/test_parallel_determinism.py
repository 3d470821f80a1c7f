"""Property tests: parallel execution is bit-identical to the serial path.

The whole point of the spec-based orchestration layer is that a run is a
pure function of its :class:`~repro.sim.specs.RunSpec` — so fanning a
batch out over spawn-started worker processes must return exactly the
summaries the serial fallback computes, for *any* batch.  Hypothesis
generates random batches over the algorithm/adversary registries
(including the seeded stochastic adversaries, whose RNGs are reconstructed
from their spec'd seeds inside each worker).
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim import (
    ExecutorStats,
    FaultPlan,
    ParallelExecutor,
    RunSpec,
    WorkerCrashError,
    execute_spec,
    run_specs,
)

pytestmark = pytest.mark.parallel


def _algorithm_fragments(draw):
    n = draw(st.integers(min_value=3, max_value=6))
    key = draw(st.sampled_from(["count-hop", "orchestra", "k-cycle", "k-subsets"]))
    if key in ("k-cycle", "k-subsets"):
        k = draw(st.integers(min_value=2, max_value=max(2, n - 1)))
        return key, {"n": n, "k": k}
    return key, {"n": n}


@st.composite
def run_spec_strategy(draw) -> RunSpec:
    algorithm, algorithm_params = _algorithm_fragments(draw)
    adversary = draw(
        st.sampled_from(
            ["single-target", "spray", "round-robin", "bursty", "saturating", "random"]
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
    if adversary == "random":
        params["seed"] = draw(st.integers(min_value=0, max_value=2**31))
    return RunSpec(
        algorithm=algorithm,
        algorithm_params=algorithm_params,
        adversary=adversary,
        adversary_params=params,
        rounds=draw(st.integers(min_value=20, max_value=250)),
        enforce_energy_cap=False,
    )


@pytest.fixture(scope="module")
def pool():
    """One shared 2-worker spawn pool for the whole module (startup is slow)."""
    with ParallelExecutor(workers=2) as executor:
        yield executor


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(specs=st.lists(run_spec_strategy(), min_size=1, max_size=4))
def test_parallel_summaries_equal_serial(pool, specs):
    serial = [execute_spec(spec) for spec in specs]
    parallel = pool.run(specs)
    assert [r.summary for r in parallel] == [r.summary for r in serial]
    assert [r.collector.energy_series for r in parallel] == [
        r.collector.energy_series for r in serial
    ]


def test_run_specs_order_preserved(pool):
    specs = [
        RunSpec(
            algorithm="count-hop",
            algorithm_params={"n": 4},
            adversary="single-target",
            adversary_params={"rho": rho, "beta": 1.0},
            rounds=150,
        )
        for rho in (0.1, 0.3, 0.5, 0.7)
    ]
    results = pool.run(specs)
    assert [r.summary.label for r in results] == [
        execute_spec(spec).summary.label for spec in specs
    ]
    # Latency grows with the injection rate, so order mix-ups would show.
    serial = [execute_spec(spec) for spec in specs]
    assert [r.latency for r in results] == [r.latency for r in serial]


def test_stochastic_seeds_reproduce_across_processes(pool):
    spec = RunSpec(
        algorithm="orchestra",
        algorithm_params={"n": 4},
        adversary="random",
        adversary_params={"rho": 0.6, "beta": 2.0, "seed": 1234},
        rounds=300,
    )
    a, b = pool.run([spec, spec])
    assert a.summary == b.summary == execute_spec(spec).summary


GOOD = RunSpec(
    algorithm="count-hop",
    algorithm_params={"n": 4},
    adversary="spray",
    adversary_params={"rho": 0.2, "beta": 1.0},
    rounds=100,
)
# destination == n is out of range: the worker must raise, and the
# executor must surface that error rather than hang or swallow it.
BAD = RunSpec(
    algorithm="count-hop",
    algorithm_params={"n": 4},
    adversary="single-target",
    adversary_params={"rho": 0.2, "beta": 1.0, "source": 3, "destination": 4},
    rounds=100,
)


def test_worker_exception_propagates(pool):
    with pytest.raises(ValueError):
        pool.run([GOOD, BAD, GOOD])


@pytest.mark.parametrize("workers", [1, 2])
def test_fail_fast_neither_retries_nor_quarantines(workers):
    calls = []
    with ParallelExecutor(workers=workers) as executor:
        with pytest.raises(ValueError):
            executor.run(
                [GOOD, BAD, GOOD], progress=lambda d, t: calls.append((d, t))
            )
    assert executor.stats == ExecutorStats()
    if workers == 1:
        assert calls == [(1, 3)]  # the spec after BAD never ran


def test_executor_recovers_after_a_fail_fast_raise():
    specs = [
        RunSpec(
            algorithm="orchestra",
            algorithm_params={"n": 4},
            adversary="round-robin",
            adversary_params={"rho": rho, "beta": 1.0},
            rounds=120,
        )
        for rho in (0.2, 0.4, 0.6)
    ]
    with ParallelExecutor(workers=2) as executor:
        with pytest.raises(ValueError):
            executor.run([GOOD, BAD, GOOD])
        # The raise cancelled or abandoned the dispatches still in flight;
        # none of them may leak into the next batch's results.
        results = executor.run(specs)
    assert [r.summary for r in results] == [execute_spec(s).summary for s in specs]


def test_fail_fast_pool_crash_raises_worker_crash_error():
    # A spec carrying its own kill stamp hard-exits the worker that runs it.
    doomed = dataclasses.replace(
        GOOD, fault_plan=FaultPlan(seed=1, kill_rate=1.0).stamp(0)
    )
    with ParallelExecutor(workers=2) as executor:
        with pytest.raises(WorkerCrashError):
            executor.run([doomed, GOOD])
        assert executor._pool is None  # the broken pool was torn down
        results = executor.run([GOOD, GOOD])
    assert [r.summary for r in results] == [execute_spec(GOOD).summary] * 2


def test_lone_unsupervised_spec_runs_in_process():
    spec = RunSpec(
        algorithm="count-hop",
        algorithm_params={"n": 4},
        adversary="spray",
        adversary_params={"rho": 0.3, "beta": 1.0},
        rounds=100,
    )
    with ParallelExecutor(workers=2) as executor:
        (result,) = executor.run([spec])
        assert executor._pool is None  # one spec is not worth a pool
    assert result.summary == execute_spec(spec).summary


def test_serial_fallback_needs_no_pool():
    spec = RunSpec(
        algorithm="count-hop",
        algorithm_params={"n": 4},
        adversary="spray",
        adversary_params={"rho": 0.3, "beta": 1.0},
        rounds=100,
    )
    with ParallelExecutor(workers=1) as executor:
        results = executor.run([spec, spec])
        assert executor._pool is None  # the serial fallback never spawns
    assert results[0].summary == results[1].summary == execute_spec(spec).summary


def test_run_specs_convenience_wrapper():
    spec = RunSpec(
        algorithm="orchestra",
        algorithm_params={"n": 4},
        adversary="round-robin",
        adversary_params={"rho": 0.4, "beta": 1.0},
        rounds=120,
    )
    (result,) = run_specs([spec])
    assert result.summary == execute_spec(spec).summary

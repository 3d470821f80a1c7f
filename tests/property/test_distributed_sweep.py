"""Property tests: the distributed sweep service ≡ a serial fault-free sweep.

The headline contract of the distributed layer extends the fault-tolerance
discipline across process boundaries: a localhost topology — HTTP server,
multiple worker processes reaching its queue and cache over HTTP, each
with a private spill directory — with fault-injected worker kills (hard
``os._exit`` mid-shard) and forced lease expiries must produce results
*bit-identical* to a serial, fault-free sweep.  Reclaimed (stolen)
shards resume the global fault-coin stream via their takeover count, so
retry budgets are never re-burned, and poison specs quarantine as
structured ``FailedResult`` records.

The CI fault-injection leg sets ``REPRO_FAULT_SEED`` to vary the
schedule across runs; locally the default seed keeps runs reproducible.
The dev box has 1 CPU, so these tests prove correctness by equivalence,
not wall-clock speedup.
"""

import json
import os
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.metrics.summary import RunSummary
from repro.sim import (
    ExecutionPolicy,
    FailedResult,
    FaultPlan,
    LeaseLostError,
    ResultCache,
    RunSpec,
    SweepService,
    WorkQueue,
    execute_spec,
    make_server,
    process_lease,
    run_worker,
    shard_index,
    spec_fragment,
    sweep,
)
from repro.sim.service import fetch_results, submit_batch, wait_for_job
from repro.sim.worker import WorkerStats

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "20190622"))
DEFAULT_SEED = 20190622

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")


def _specs(count=8, rounds=300):
    return [
        RunSpec.from_fragments(
            spec_fragment("k-cycle", n=4, k=2),
            spec_fragment("spray", rho=round(0.1 + 0.05 * i, 3), beta=1.5),
            rounds,
            label=f"d{i}",
        )
        for i in range(count)
    ]


def _poison_spec(rounds=300):
    """Deterministically failing spec: out-of-range destination station."""
    return RunSpec.from_fragments(
        spec_fragment("count-hop", n=4),
        spec_fragment("single-target", rho=0.3, beta=1.0, source=3, destination=99),
        rounds,
        label="poison",
    )


def _baseline(specs):
    return {s.spec_hash(): execute_spec(s).summary for s in specs}


def _spawn_worker(base_url: str, spill_dir: Path, *, extra=()) -> subprocess.Popen:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC_DIR + (os.pathsep + existing if existing else "")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker",
            "--server", base_url,
            "--spill-dir", str(spill_dir),
            "--poll", "0.05",
            "--exit-when-drained",
            "--wait-for-queue", "10",
            *extra,
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


@pytest.mark.parallel
@pytest.mark.slow
class TestLocalhostTopology:
    def test_faulted_multiprocess_topology_matches_serial_fault_free(self, tmp_path):
        """Server + 2 workers under kill and lease-death injection ≡ serial.

        Worker kills are real crashes (``os._exit`` mid-shard, observed
        as exit status 86), abandoned leases expire and are stolen, and
        the poison spec quarantines — while every healthy spec's result
        is bit-identical to the serial fault-free baseline.
        """
        specs = _specs(8)
        poison = _poison_spec()
        baseline = _baseline(specs)

        service = SweepService(
            tmp_path / "queue",
            tmp_path / "cache",
            lease_ttl=1.0,
            shard_size=2,
            fallback_after=30.0,  # workers do the work; no local fallback
            poll=0.05,
        )
        server = make_server(service, "127.0.0.1", 0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        fault_flags = (
            "--fault-seed", str(FAULT_SEED),
            "--fault-kill-rate", "0.4",
            "--fault-lease-rate", "0.4",
            "--fault-budget", "1",
            "--max-retries", "2",
        )
        workers = [
            _spawn_worker(base, tmp_path / f"spill{i}", extra=fault_flags)
            for i in range(2)
        ]
        kills = 0
        try:
            job = submit_batch(
                base, [s.to_dict() for s in specs + [poison]], shard_size=2
            )
            deadline = time.monotonic() + 240
            while time.monotonic() < deadline:
                # Keep two workers alive: injected kills take whole
                # processes down (the crash-recovery under test), so the
                # harness plays the role of a fleet supervisor.
                for i, proc in enumerate(workers):
                    status = proc.poll()
                    if status is not None:
                        if status == 86:
                            kills += 1
                        workers[i] = _spawn_worker(
                            base, tmp_path / f"spill{i}", extra=fault_flags
                        )
                snap = json.loads(
                    urllib.request.urlopen(
                        f"{base}/api/jobs/{job['job']}", timeout=10
                    ).read()
                )
                if snap["complete"]:
                    break
                time.sleep(0.2)
            else:
                pytest.fail("distributed job did not complete in time")
            results = fetch_results(base, job["job"])
        finally:
            for proc in workers:
                proc.terminate()
            for proc in workers:
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()
            service.close()
            server.shutdown()
            server.server_close()

        assert snap["served_locally"] == 0  # the workers did everything
        by_hash = {r["spec_hash"]: r for r in results}
        for spec in specs:
            record = by_hash[spec.spec_hash()]
            assert record["status"] == "done", record
            assert RunSummary(**record["summary"]) == baseline[spec.spec_hash()]
        poisoned = by_hash[poison.spec_hash()]
        assert poisoned["status"] == "failed"
        assert poisoned["error_type"] == "ValueError"
        # max_retries=2 bounds the attempt count wherever the poison
        # shard landed — stolen shards resume, they don't re-burn budget.
        assert poisoned["attempts"] <= 3
        if FAULT_SEED == DEFAULT_SEED:
            # The default schedule provably kills workers mid-shard; a
            # CI-varied seed may legitimately draw a quiet schedule.
            assert kills >= 1

    def test_server_falls_back_to_local_execution_without_workers(self, tmp_path):
        specs = _specs(5)
        baseline = _baseline(specs)
        service = SweepService(
            tmp_path / "queue",
            tmp_path / "cache",
            shard_size=2,
            fallback_after=0.2,
            poll=0.05,
        )
        try:
            job = service.submit([s.to_dict() for s in specs])
            assert service.wait(job, timeout=120)
            assert job.served_locally > 0
            results = service.results(job)
            for spec, record in zip(specs, results):
                assert record["status"] == "done"
                assert RunSummary(**record["summary"]) == baseline[spec.spec_hash()]
        finally:
            service.close()

    def test_restarted_server_on_a_used_queue_dir_completes_new_jobs(self, tmp_path):
        # A restarted server numbers its jobs from job-1 again; none of
        # the first server's shard state may shadow the new job's shards.
        first_specs, second_specs = _specs(4)[:2], _specs(4)[2:]
        for specs in (first_specs, second_specs):
            service = SweepService(
                tmp_path / "queue",
                tmp_path / "cache",
                shard_size=1,
                fallback_after=0.2,
                poll=0.05,
            )
            try:
                job = service.submit([s.to_dict() for s in specs])
                assert job.job_id == "job-1"
                assert service.wait(job, timeout=30), service.queue.counts()
                assert [r["status"] for r in service.results(job)] == ["done"] * 2
            finally:
                service.close()


class TestLeaseRecovery:
    def test_single_worker_survives_its_own_lease_deaths(self, tmp_path):
        """A lone worker that keeps abandoning leases still finishes.

        ``lease_death_rate=1.0`` with ``fault_budget=1`` abandons every
        shard on its first claim; the worker then steals its own expired
        lease (takeover 1 exhausts the budget, so the second attempt is
        clean) and completes the sweep.
        """
        specs = _specs(4)
        baseline = _baseline(specs)
        service = SweepService(
            tmp_path / "queue",
            tmp_path / "cache",
            lease_ttl=0.1,
            fallback_after=60.0,  # the worker does the work
            poll=0.05,
        )
        server = make_server(service, "127.0.0.1", 0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            job = service.submit([s.to_dict() for s in specs], shard_size=2)
            plan = FaultPlan(seed=FAULT_SEED, lease_death_rate=1.0, fault_budget=1)
            stats = run_worker(
                f"http://127.0.0.1:{server.server_address[1]}",
                spill_dir=tmp_path / "spill",
                fault_plan=plan,
                poll=0.05,
                exit_when_drained=True,
            )
            assert service.wait(job, timeout=30)
        finally:
            service.close()
            server.shutdown()
            server.server_close()
        assert stats.lease_deaths == 2  # every shard died once
        assert stats.shards_completed == 2
        assert service.queue.drained()
        assert job.served_locally == 0
        cache = ResultCache(tmp_path / "cache")
        for spec in specs:
            hit = cache.get(spec)
            assert hit is not None
            assert hit.summary == baseline[spec.spec_hash()]

    def test_stolen_shard_resumes_budget_and_cache_hits(self, tmp_path):
        """The thief of an expired lease finishes without re-burning budget.

        The dead owner's kill coin fired on effective attempt 0; the
        thief executes under ``with_offset(takeovers=1)``, which is past
        ``fault_budget=1``, so no coin can fire again — and the spec the
        owner already finished comes back as a cache hit.
        """
        specs = _specs(2)
        cache = ResultCache(tmp_path / "cache")
        queue = WorkQueue(lease_ttl=0.05)
        queue.enqueue(specs, shard_size=2)
        victim = queue.claim("victim")
        # The victim "finished" one spec before dying mid-shard.
        cache.put(specs[0], execute_spec(specs[0]))
        time.sleep(0.1)  # lease expires un-heartbeaten

        plan = FaultPlan(seed=FAULT_SEED, kill_rate=1.0, fault_budget=1)
        thief_cache = ResultCache(tmp_path / "cache")
        lease = queue.claim("thief")
        assert lease is not None and lease.takeovers == 1
        stats = WorkerStats()
        outcome = process_lease(
            lease,
            thief_cache,
            ExecutionPolicy(max_retries=0),  # any re-burned coin would quarantine
            fault_plan=plan,
            stats=stats,
        )
        assert outcome == "completed"
        assert stats.specs_failed == 0
        assert thief_cache.hits >= 1  # the victim's finished spec was reused
        with pytest.raises(LeaseLostError):
            victim.heartbeat()
        assert queue.drained()


class TestShardedSweepUnion:
    def test_sharded_union_is_exactly_the_unsharded_sweep(self, tmp_path):
        algo = lambda rho: spec_fragment("k-cycle", n=4, k=2)  # noqa: E731
        adv = lambda rho: spec_fragment("spray", rho=rho, beta=1.5)  # noqa: E731
        rates = [round(0.1 + 0.1 * i, 2) for i in range(7)]
        full = sweep("union", "rho", rates, algo, adv, 300)

        k = 3
        shard_points: dict[float, object] = {}
        sizes = []
        for index in range(k):
            part = sweep(
                "union", "rho", rates, algo, adv, 300, shard=(index, k)
            )
            sizes.append(len(part.points))
            for point in part.points:
                assert point.value not in shard_points  # disjoint
                shard_points[point.value] = point

        assert sum(sizes) == len(full.points)  # exhaustive
        for point in full.points:
            twin = shard_points[point.value]
            assert twin.result.summary == point.result.summary  # bit-identical

    def test_shard_assignment_matches_shard_index(self):
        algo = lambda rho: spec_fragment("k-cycle", n=4, k=2)  # noqa: E731
        adv = lambda rho: spec_fragment("spray", rho=rho, beta=1.5)  # noqa: E731
        rates = [0.1, 0.2, 0.3, 0.4]
        specs = [
            RunSpec.from_fragments(
                algo(r), adv(r), 300, label=f"union[rho={r}]"
            )
            for r in rates
        ]
        part = sweep("union", "rho", rates, algo, adv, 300, shard=(0, 2))
        expected = [
            r
            for r, s in zip(rates, specs)
            if shard_index(s.spec_hash(), 2) == 0
        ]
        assert part.values() == expected

    def test_sharding_requires_fragments(self):
        from repro.sim.specs import materialize_algorithm, make_adversary

        def algo(rho):
            return materialize_algorithm(spec_fragment("k-cycle", n=4, k=2))

        with pytest.raises(ValueError, match="declarative factories"):
            sweep(
                "live", "rho", [0.2],
                algo,
                lambda rho: make_adversary("spray", rho=rho, beta=1.5),
                200,
                shard=(0, 2),
            )

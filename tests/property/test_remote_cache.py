"""Property tests: the no-shared-filesystem topology ≡ a serial sweep.

Workers reach the server over HTTP alone (``repro worker --server URL``)
and keep no cache: each finished spec's checksummed result rides the
lease heartbeat into the server's cache.  Every RPC goes through the
resilient client (timeouts, deterministic retry/backoff, circuit
breaker, checksummed bodies), and a heartbeat that cannot reach the
server loses the lease, so the next holder recomputes the spec whose
result was in flight.

The headline property extends the fault-tolerance contract across the
*network* fault domain: a localhost topology — HTTP server, two worker
processes with **no shared directories at all** — under injected
network faults (connection refusals, HTTP 500s, torn and corrupted
responses on both sides) and hard worker kills must produce results
bit-identical to a serial, fault-free sweep, and the default schedule
must provably exhaust a request's retries at least once.

The CI leg sets ``REPRO_FAULT_SEED`` to vary the schedule across runs;
locally the default seed keeps runs reproducible (schedule-specific
assertions are gated on it).
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
    FaultPlan,
    RunSpec,
    SweepService,
    execute_spec,
    make_server,
    run_worker,
    spec_fragment,
)
from repro.sim.netclient import RpcPolicy
from repro.sim.service import fetch_results, submit_batch

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "20190622"))
DEFAULT_SEED = 20190622

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")


def _specs(count=8, rounds=300):
    return [
        RunSpec.from_fragments(
            spec_fragment("k-cycle", n=4, k=2),
            spec_fragment("spray", rho=round(0.1 + 0.05 * i, 3), beta=1.5),
            rounds,
            label=f"r{i}",
        )
        for i in range(count)
    ]


def _baseline(specs):
    return {s.spec_hash(): execute_spec(s).summary for s in specs}


def _spawn_remote_worker(base_url: str, *, extra=()) -> subprocess.Popen:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC_DIR + (os.pathsep + existing if existing else "")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker",
            "--server", base_url,
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
class TestRemoteCacheTopology:
    def test_networked_topology_with_faults_matches_serial_fault_free(self, tmp_path):
        """Server + 2 no-shared-filesystem workers under network faults ≡ serial.

        The workers mount *nothing*: shards are claimed over
        ``POST /api/queue/claim`` and results land on
        ``POST /api/queue/heartbeat``.  Network faults are injected on
        both sides (client coins refuse/500, server coins tear and
        corrupt real responses), worker kills are real crashes
        (``os._exit`` mid-shard), and the fault budget is sized so some
        requests exhaust their retries — a lost lease whose in-flight
        spec the next holder recomputes — yet every result is
        bit-identical to the serial baseline.
        """
        specs = _specs(8)
        baseline = _baseline(specs)

        service = SweepService(
            tmp_path / "server-cache",
            lease_ttl=1.0,
            shard_size=2,
            fallback_after=60.0,  # workers do the work; no local fallback
            poll=0.05,
            fault_plan=FaultPlan(
                seed=FAULT_SEED,
                net_torn_rate=0.1,
                net_corrupt_rate=0.05,
                fault_budget=2,
            ),
        )
        server = make_server(service, "127.0.0.1", 0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        fault_flags = (
            "--fault-seed", str(FAULT_SEED),
            "--fault-kill-rate", "0.3",
            "--fault-net-refuse-rate", "0.35",
            "--fault-net-error-rate", "0.1",
            "--fault-budget", "2",
            # max_attempts <= fault_budget lets a heartbeat exhaust its
            # retries, which is exactly what loses a lease mid-shard.
            "--rpc-max-attempts", "2",
            "--rpc-breaker-threshold", "2",
            "--rpc-breaker-reset", "0.2",
        )
        workers = [_spawn_remote_worker(base, extra=fault_flags) for _ in range(2)]
        kills = 0
        try:
            job = submit_batch(base, [s.to_dict() for s in specs], shard_size=2)
            deadline = time.monotonic() + 240
            while time.monotonic() < deadline:
                # Keep two workers alive: injected kills take whole
                # processes down, so the harness plays fleet supervisor.
                for i, proc in enumerate(workers):
                    status = proc.poll()
                    if status is not None:
                        if status == 86:
                            kills += 1
                        workers[i] = _spawn_remote_worker(base, extra=fault_flags)
                snap = json.loads(
                    urllib.request.urlopen(
                        f"{base}/api/jobs/{job['job']}", timeout=10
                    ).read()
                )
                if snap["complete"]:
                    break
                time.sleep(0.2)
            else:
                pytest.fail("remote-cache job did not complete in time")
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

        # The workers' RPC health rides on their lease-complete records
        # and is aggregated onto the job snapshot.
        rpc = snap["rpc"]
        assert rpc.get("requests", 0) > 0
        if FAULT_SEED == DEFAULT_SEED:
            # The default schedule provably exercises the degradation
            # path: at least one request exhausted its retries, and the
            # results are whole all the same.  A CI-varied seed may
            # legitimately draw a quieter schedule.
            assert rpc.get("retries", 0) >= 1
            assert rpc.get("giveups", 0) >= 1
            assert kills >= 1  # and the kill schedule crashed a worker
        assert snap["done"] == snap["total"] and snap["pending"] == 0

    def test_in_process_remote_worker_equivalence_without_faults(self, tmp_path):
        """A clean in-process remote worker reproduces the serial baseline."""
        specs = _specs(4)
        baseline = _baseline(specs)
        service = SweepService(
            tmp_path / "server-cache",
            lease_ttl=5.0,
            shard_size=2,
            fallback_after=60.0,
            poll=0.05,
        )
        server = make_server(service, "127.0.0.1", 0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            job = service.submit([s.to_dict() for s in specs], shard_size=2)
            stats = run_worker(
                server_url=base,
                rpc_policy=RpcPolicy(timeout=5.0),
                exit_when_drained=True,
                wait_for_queue=5.0,
                poll=0.05,
            )
            assert service.wait(job, timeout=60)
            results = service.results(job)
        finally:
            service.close()
            server.shutdown()
            server.server_close()

        assert stats.specs_done == len(specs)
        assert stats.leases_lost == 0 and stats.rpc_giveups == 0
        by_hash = {r["spec_hash"]: r for r in results}
        for spec in specs:
            record = by_hash[spec.spec_hash()]
            assert record["status"] == "done"
            assert RunSummary(**record["summary"]) == baseline[spec.spec_hash()]

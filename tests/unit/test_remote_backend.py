"""Unit tests for the remote cache backend, cache endpoints and remote queue.

Exercises the tentpole surfaces in isolation: the
:class:`RemoteCacheBackend` round-trip against a live ``repro serve``
process, graceful degradation (spill on an unreachable server, spill
reads, reconciliation on recovery), duplicate concurrent PUT
convergence, the server-side quarantine of corrupt entries, the local
quarantine race, the ndjson stream's mid-stream disconnect behaviour,
and the :class:`RemoteWorkQueue` lease protocol (claim / heartbeat /
complete / 410 on a lost lease).
"""

import contextlib
import io
import json
import socket
import threading
import time
import urllib.request
from urllib import error as urlerror

import pytest

from repro.sim import (
    RemoteCacheBackend,
    RemoteWorkQueue,
    ResultCache,
    RunSpec,
    SweepService,
    execute_spec,
    make_server,
    spec_fragment,
)
from repro.sim.netclient import ResilientClient, RpcPolicy
from repro.sim.queue import LeaseLostError, status_record
from repro.sim.service import submit_batch, wait_for_job


def _spec(i=0, rounds=200):
    return RunSpec.from_fragments(
        spec_fragment("k-cycle", n=4, k=2),
        spec_fragment("spray", rho=round(0.2 + 0.1 * i, 2), beta=1.5),
        rounds,
        label=f"u{i}",
    )


def _dead_port() -> int:
    """A localhost port with provably nothing listening on it."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _post_status(url: str, body: bytes) -> int:
    """POST raw JSON bytes; return the HTTP status code."""
    request = urllib.request.Request(
        url, data=body, method="POST", headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status
    except urlerror.HTTPError as exc:
        return exc.code


_FAST = RpcPolicy(
    timeout=5.0, max_attempts=2, backoff_base=0.001, backoff_cap=0.01,
    breaker_threshold=100,
)


@pytest.fixture()
def live_server(tmp_path):
    service = SweepService(
        tmp_path / "queue",
        tmp_path / "server-cache",
        lease_ttl=5.0,
        shard_size=1,
        fallback_after=60.0,
        poll=0.05,
    )
    server = make_server(service, "127.0.0.1", 0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    yield service, base
    service.close()
    server.shutdown()
    server.server_close()


class TestRemoteBackendRoundTrip:
    def test_put_get_bit_identical_through_result_cache(self, tmp_path, live_server):
        service, base = live_server
        spec = _spec()
        result = execute_spec(spec)
        remote = ResultCache(
            backend=RemoteCacheBackend(
                base, policy=_FAST, spill_dir=tmp_path / "spill"
            )
        )
        assert remote.get(spec) is None  # clean miss over the wire
        remote.put(spec, result)
        assert spec in remote
        hit = remote.get(spec)
        assert hit is not None
        assert hit.summary == result.summary
        # The server's own (local) cache holds the same entry.
        assert service.cache.get(spec).summary == result.summary
        # And a second, unrelated client sees it too: no shared filesystem.
        other = ResultCache(
            backend=RemoteCacheBackend(
                base, policy=_FAST, spill_dir=tmp_path / "spill2"
            )
        )
        assert other.get(spec).summary == result.summary

    def test_url_normalisation_accepts_cache_prefix(self, tmp_path, live_server):
        _, base = live_server
        backend = RemoteCacheBackend(f"{base}/api/cache", policy=_FAST)
        assert backend.base_url == f"{base}/api/cache"
        assert RemoteCacheBackend(base, policy=_FAST).base_url == backend.base_url

    def test_bad_key_is_rejected_not_served(self, live_server):
        _, base = live_server
        with pytest.raises(urlerror.HTTPError) as info:
            urllib.request.urlopen(f"{base}/api/cache/not-a-hash", timeout=5)
        assert info.value.code == 400

    def test_server_quarantines_corrupt_entries_on_read(self, tmp_path, live_server):
        service, base = live_server
        spec = _spec()
        remote = ResultCache(
            backend=RemoteCacheBackend(
                base, policy=_FAST, spill_dir=tmp_path / "spill"
            )
        )
        remote.put(spec, execute_spec(spec))
        # Corrupt the server's on-disk payload behind its back.
        payload_path = service.cache.backend.payload_path(spec.spec_hash())
        data = payload_path.read_bytes()
        payload_path.write_bytes(data[: len(data) // 2])
        assert remote.get(spec) is None  # read degrades to a miss
        assert service.cache_counters["quarantined"] >= 1
        assert service.cache.backend.quarantined_entries() >= 1


class TestGracefulDegradation:
    def test_store_spills_when_server_unreachable(self, tmp_path):
        spec = _spec()
        result = execute_spec(spec)
        backend = RemoteCacheBackend(
            f"http://127.0.0.1:{_dead_port()}",
            policy=_FAST,
            spill_dir=tmp_path / "spill",
        )
        cache = ResultCache(backend=backend)
        cache.put(spec, result)  # must not raise
        assert backend.spilled == 1
        assert cache.pending_spill() == {spec.spec_hash()}
        # Reads are served from the spill, bit-identically.
        hit = cache.get(spec)
        assert hit is not None and hit.summary == result.summary
        assert backend.spill_hits == 1
        assert spec in cache  # contains() falls back to the spill too
        stats = cache.rpc_stats()
        assert stats["spilled"] == 1 and stats["spill_pending"] == 1

    def test_unreachable_get_is_a_miss_not_an_error(self, tmp_path):
        backend = RemoteCacheBackend(
            f"http://127.0.0.1:{_dead_port()}",
            policy=_FAST,
            spill_dir=tmp_path / "spill",
        )
        cache = ResultCache(backend=backend)
        assert cache.get(_spec()) is None
        assert backend.degraded_reads == 1
        assert cache.misses == 1

    def test_flush_spill_reconciles_to_recovered_server(self, tmp_path, live_server):
        service, base = live_server
        spec = _spec()
        result = execute_spec(spec)
        # Spill while the server is "down"...
        down = RemoteCacheBackend(
            f"http://127.0.0.1:{_dead_port()}",
            policy=_FAST,
            spill_dir=tmp_path / "spill",
        )
        ResultCache(backend=down).put(spec, result)
        assert down.pending_spill()
        # ...then recover by pointing a backend at the live server with
        # the same spill directory (the worker's respawn path).
        up = RemoteCacheBackend(base, policy=_FAST, spill_dir=tmp_path / "spill")
        flushed = up.flush_spill()
        assert flushed == 1 and up.reconciled == 1
        assert not up.pending_spill()
        assert service.cache.get(spec).summary == result.summary

    def test_successful_store_drains_pending_spill(self, tmp_path, live_server):
        service, base = live_server
        stranded, fresh = _spec(0), _spec(1)
        stranded_result = execute_spec(stranded)
        down = RemoteCacheBackend(
            f"http://127.0.0.1:{_dead_port()}",
            policy=_FAST,
            spill_dir=tmp_path / "spill",
        )
        ResultCache(backend=down).put(stranded, stranded_result)
        up = ResultCache(
            backend=RemoteCacheBackend(
                base, policy=_FAST, spill_dir=tmp_path / "spill"
            )
        )
        up.put(fresh, execute_spec(fresh))  # a store that reaches the server
        assert not up.pending_spill()  # ...sweeps the stranded entry along
        assert service.cache.get(stranded).summary == stranded_result.summary

    def test_circuit_close_hook_triggers_reconciliation(self, tmp_path, live_server):
        service, base = live_server
        spec = _spec()
        result = execute_spec(spec)
        backend = RemoteCacheBackend(base, policy=_FAST, spill_dir=tmp_path / "spill")
        # Park an entry in the spill, open the breaker, then let a probe
        # close it: the on_close hook must drain the spill.
        cache = ResultCache(backend=backend)
        down = RemoteCacheBackend(
            f"http://127.0.0.1:{_dead_port()}",
            policy=_FAST,
            spill_dir=tmp_path / "spill",
        )
        ResultCache(backend=down).put(spec, result)
        assert backend.pending_spill()
        backend.client.breaker.record_failure()
        backend.client.breaker.state = "open"
        backend.client.breaker._opened_at = -1e9  # reset window long elapsed
        assert cache.get(_spec(1)) is None  # the half-open probe succeeds (404)
        assert backend.client.breaker.state == "closed"
        assert not backend.pending_spill()  # on_close reconciled the spill
        assert backend.reconciled == 1
        assert service.cache.get(spec).summary == result.summary


class TestDuplicateConcurrentPut:
    def test_racing_remote_puts_converge_on_one_valid_entry(
        self, tmp_path, live_server
    ):
        service, base = live_server
        spec = _spec()
        result = execute_spec(spec)
        barrier = threading.Barrier(2)
        errors = []

        def put(i):
            cache = ResultCache(
                backend=RemoteCacheBackend(
                    base, policy=_FAST, spill_dir=tmp_path / f"spill{i}"
                )
            )
            barrier.wait()
            try:
                cache.put(spec, result)
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        threads = [threading.Thread(target=put, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert service.cache_counters["puts"] == 2  # both writes accepted
        # One valid, readable entry survives.
        assert service.cache.get(spec).summary == result.summary
        reader = ResultCache(
            backend=RemoteCacheBackend(base, policy=_FAST, spill_dir=tmp_path / "r")
        )
        assert reader.get(spec).summary == result.summary


class TestLocalQuarantineRace:
    def test_racing_quarantines_never_raise(self, tmp_path):
        spec = _spec()
        first = ResultCache(tmp_path / "cache")
        second = ResultCache(tmp_path / "cache")
        first.put(spec, execute_spec(spec))
        payload = first._payload_path(spec)
        payload.write_bytes(payload.read_bytes()[:40])  # corrupt it
        barrier = threading.Barrier(2)
        outcomes = []

        def read(cache):
            barrier.wait()
            outcomes.append(cache.get(spec))  # must not raise, ever

        threads = [
            threading.Thread(target=read, args=(c,)) for c in (first, second)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert outcomes == [None, None]
        # The entry was quarantined exactly once between the two racers.
        assert first.quarantined_entries() == 1
        assert first.quarantined + second.quarantined >= 1

    def test_quarantine_of_vanished_entry_is_a_no_op(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        # Neither payload nor sidecar exists: the loser's rename path.
        cache.backend.quarantine("0" * 64)  # must not raise


class TestStreamDisconnect:
    def test_mid_stream_disconnect_is_quiet_and_harmless(self, live_server):
        service, base = live_server
        specs = [_spec(i) for i in range(2)]
        job = service.submit([s.to_dict() for s in specs])
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            # Open the ndjson stream raw, read one line, hang up.
            host, port = base.replace("http://", "").split(":")
            with socket.create_connection((host, int(port)), timeout=5) as sock:
                sock.sendall(
                    f"GET /api/jobs/{job.job_id}/stream HTTP/1.1\r\n"
                    f"Host: {host}\r\nConnection: close\r\n\r\n".encode()
                )
                sock.recv(1024)  # headers + first snapshot line
            # Give the handler a poll cycle to hit the broken pipe.
            time.sleep(0.3)
            # The service (and later subscribers) are unaffected: local
            # fallback still completes the job.
            service.fallback_after = 0.0
            assert service.wait(job, timeout=120)
        assert "Traceback" not in stderr.getvalue()
        snap = wait_for_job(base, job.job_id, timeout=30)
        assert snap["complete"] is True

    def test_wait_for_job_times_out_cleanly_on_dead_server(self):
        base = f"http://127.0.0.1:{_dead_port()}"
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            wait_for_job(base, "job-1", timeout=1.0, read_timeout=0.5)
        assert time.monotonic() - start < 10  # bounded, not wedged


class TestSubmitBatchStartupRace:
    def test_submit_retries_connection_refused_until_server_up(self, tmp_path):
        spec = _spec()
        port = _dead_port()
        service = SweepService(
            tmp_path / "queue",
            tmp_path / "cache",
            fallback_after=0.1,
            poll=0.05,
        )
        server_box = []

        def start_later():
            time.sleep(0.4)
            server = make_server(service, "127.0.0.1", port)
            server_box.append(server)
            server.serve_forever()

        thread = threading.Thread(target=start_later, daemon=True)
        thread.start()
        try:
            patient = ResilientClient(
                RpcPolicy(
                    timeout=5.0,
                    max_attempts=10,
                    backoff_base=0.1,
                    backoff_cap=0.5,
                    breaker_threshold=100,
                )
            )
            job = submit_batch(
                f"http://127.0.0.1:{port}", [spec.to_dict()], client=patient
            )
            assert job["total"] == 1
        finally:
            deadline = time.monotonic() + 5
            while not server_box and time.monotonic() < deadline:
                time.sleep(0.05)
            service.close()
            if server_box:
                server_box[0].shutdown()
                server_box[0].server_close()


class TestRemoteQueueProtocol:
    def test_claim_heartbeat_complete_lifecycle(self, live_server):
        service, base = live_server
        spec = _spec()
        job = service.submit([spec.to_dict()], shard_size=1)
        queue = RemoteWorkQueue(base, policy=_FAST)
        assert queue.ready()
        lease = queue.claim("unit-worker")
        assert lease is not None
        assert lease.takeovers == 0
        assert [s.spec_hash() for s in lease.specs] == [spec.spec_hash()]
        lease.heartbeat()  # renews without error
        counts = queue.counts()
        assert counts["leased"] == 1
        # Publish the result out-of-band (the worker's cache PUT) and
        # complete the lease.
        result = execute_spec(spec)
        remote_cache = ResultCache(backend=RemoteCacheBackend(base, policy=_FAST))
        remote_cache.put(spec, result)
        assert lease.complete(
            [status_record(spec, result)], extra={"requests": 3}
        )
        assert queue.drained()
        assert service.wait(job, timeout=60)
        assert job.snapshot()["rpc"].get("requests") == 3

    def test_spent_token_returns_410_and_lost_lease(self, live_server):
        service, base = live_server
        spec = _spec()
        service.submit([spec.to_dict()], shard_size=1)
        queue = RemoteWorkQueue(base, policy=_FAST)
        lease = queue.claim("unit-worker")
        result = execute_spec(spec)
        ResultCache(backend=RemoteCacheBackend(base, policy=_FAST)).put(spec, result)
        assert lease.complete([status_record(spec, result)])
        # The token is spent: every further transition reads as lost.
        with pytest.raises(LeaseLostError):
            lease.heartbeat()
        assert lease.lost
        twin = queue.claim("unit-worker")  # nothing left to claim
        assert twin is None

    @pytest.mark.parametrize(
        "ttl",
        ['"abc"', "[1]", "NaN", "Infinity", "-Infinity", "-5", "0", "true",
         "1e300", pytest.param("1" + "0" * 400, id="400-digit-int"), "5"],
    )
    def test_heartbeat_rejects_a_client_ttl(self, live_server, ttl):
        service, base = live_server
        service.submit([_spec().to_dict()], shard_size=1)
        lease = RemoteWorkQueue(base, policy=_FAST).claim("unit-worker")
        # Raw JSON: NaN/Infinity are what Python's json module emits for
        # non-finite floats, so a buggy client can really send them.
        body = f'{{"token": "{lease.token}", "ttl": {ttl}}}'.encode("utf-8")
        assert _post_status(f"{base}/api/queue/heartbeat", body) == 400
        lease.heartbeat()  # the lease is untouched and still live
        assert service.queue.counts()["leased"] == 1

    @pytest.mark.parametrize(
        "statuses",
        ['[{"spec_hash": [1]}]', '[{"spec_hash": {}}]', '[{"status": "done"}]',
         '["done"]', '{"spec_hash": "x"}',
         '[{"spec_hash": "HASH", "status": "failed", "attempts": "abc"}]',
         '[{"spec_hash": "HASH", "status": "failed", "fault_events": 5}]'],
    )
    def test_complete_rejects_malformed_statuses(self, live_server, statuses):
        service, base = live_server
        spec = _spec()
        job = service.submit([spec.to_dict()], shard_size=1)
        lease = RemoteWorkQueue(base, policy=_FAST).claim("unit-worker")
        statuses = statuses.replace("HASH", spec.spec_hash())
        body = f'{{"token": "{lease.token}", "statuses": {statuses}}}'
        assert _post_status(f"{base}/api/queue/complete", body.encode("utf-8")) == 400
        assert service.queue.counts() == {"pending": 0, "leased": 1, "done": 0}
        # Nothing was spent: the owner still completes, and the job with it.
        result = execute_spec(spec)
        ResultCache(backend=RemoteCacheBackend(base, policy=_FAST)).put(spec, result)
        assert lease.complete([status_record(spec, result)])
        assert service.wait(job, timeout=60)

    def test_unreachable_server_degrades_not_lies(self):
        queue = RemoteWorkQueue(f"http://127.0.0.1:{_dead_port()}", policy=_FAST)
        assert queue.claim("w") is None
        assert queue.drained() is False  # never a false "all done"
        assert queue.ready() is False

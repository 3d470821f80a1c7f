"""Unit tests for the serve HTTP endpoints and the remote queue client.

Exercises the worker-facing surfaces in isolation against a live
``repro serve`` process: results riding the lease heartbeat (stored,
checksum-verified, kept for a superseded token, rejected outside the
token's shard), completions checked against their shard, two holders of
a stolen shard converging on one cache entry, the local quarantine race,
the ndjson stream's mid-stream disconnect behaviour, job submission
(startup race, malformed specs), the :class:`RemoteWorkQueue` lease
protocol (claim / heartbeat / complete / 410 on a lost lease), and the
event-driven waits: a stream that ends when the last result lands, and
claims held at the server until work arrives.
"""

import base64
import contextlib
import io
import json
import socket
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib import error as urlerror

import pytest

import repro.sim.service as service_module
from repro.sim import (
    FailedResult,
    FaultPlan,
    RemoteWorkQueue,
    ResultCache,
    RunSpec,
    SweepService,
    execute_spec,
    make_server,
    run_worker,
    spec_fragment,
)
from repro.sim.cache import encode_entry
from repro.sim.netclient import ResilientClient, RpcHttpError, RpcPolicy
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


@contextlib.contextmanager
def _serving(service):
    """Serve ``service`` on an ephemeral localhost port; yield its base URL."""
    server = make_server(service, "127.0.0.1", 0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        service.close()
        server.shutdown()
        server.server_close()


@pytest.fixture()
def live_server(tmp_path):
    service = SweepService(
        tmp_path / "server-cache",
        lease_ttl=5.0,
        shard_size=1,
        fallback_after=60.0,
        poll=0.05,
    )
    with _serving(service) as base:
        yield service, base


def _failed(spec):
    return status_record(
        spec, FailedResult(spec=spec, error="boom", error_type="ValueError", attempts=1)
    )


class TestResultBearingHeartbeat:
    def test_heartbeat_result_lands_bit_identical_in_the_server_cache(self, live_server):
        service, base = live_server
        spec = _spec()
        result = execute_spec(spec)
        job = service.submit([spec.to_dict()], shard_size=1)
        lease = RemoteWorkQueue(base, policy=_FAST).claim("unit-worker")
        lease.heartbeat(spec, result)
        # The job advanced on the heartbeat itself, before any completion.
        assert job.snapshot()["done"] == 1 and service.wait(job, timeout=5)
        assert service.cache.get(spec).summary == result.summary
        # The same bytes a local put writes: layout and payload unchanged.
        payload, _ = encode_entry(spec, result)
        assert service.cache._payload_path(spec).read_bytes() == payload
        assert lease.complete([])
        assert service.queue.drained()

    def test_corrupted_delivery_is_retried_with_clean_bytes(self, live_server):
        service, base = live_server
        spec = _spec()
        service.submit([spec.to_dict()], shard_size=1)
        # Every first attempt of this lease's RPCs flips a request byte;
        # the server's transport checksum rejects it and the retry lands.
        plan = FaultPlan(seed=7, net_corrupt_rate=1.0, fault_budget=1)
        client = ResilientClient(_FAST, fault_plan=plan)
        lease = RemoteWorkQueue(base, client=client).claim("unit-worker")
        assert lease is not None
        lease.heartbeat(spec, execute_spec(spec))
        assert client.stats.retries >= 1
        assert service.cache.get(spec) is not None

    def test_rotten_payload_is_rejected_with_a_checksum_mismatch(self, live_server):
        service, base = live_server
        spec = _spec()
        service.submit([spec.to_dict()], shard_size=1)
        lease = RemoteWorkQueue(base, policy=_FAST).claim("unit-worker")
        payload, sidecar = encode_entry(spec, execute_spec(spec))
        rotten = payload[:-1] + bytes([payload[-1] ^ 0xFF])
        body = json.dumps({
            "token": lease.token, "spec_hash": spec.spec_hash(),
            "payload": base64.b64encode(rotten).decode(),
            "sidecar": sidecar,
        }).encode()
        request = urllib.request.Request(
            f"{base}/api/queue/heartbeat", data=body, method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urlerror.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 400
        assert info.value.headers.get("X-Checksum-Mismatch")
        assert spec not in service.cache
        lease.heartbeat()  # the lease is untouched

    def test_result_outside_the_tokens_shard_is_rejected(self, live_server):
        service, base = live_server
        mine, other = _spec(0), _spec(1)
        service.submit([mine.to_dict()], shard_size=1)
        job = service.submit([other.to_dict()], shard_size=1)
        lease = RemoteWorkQueue(base, policy=_FAST).claim("unit-worker")
        assert [s.spec_hash() for s in lease.specs] == [mine.spec_hash()]
        with pytest.raises(LeaseLostError, match="rejected"):
            lease.heartbeat(other, execute_spec(other))
        assert other not in service.cache and not job.state
        lease.heartbeat()  # still live

    def test_superseded_holder_result_is_kept(self, tmp_path):
        service = SweepService(
            tmp_path / "cache", lease_ttl=0.2, fallback_after=60.0, poll=0.05
        )
        server = make_server(service, "127.0.0.1", 0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            specs = [_spec(0), _spec(1)]
            job = service.submit([s.to_dict() for s in specs], shard_size=2)
            queue = RemoteWorkQueue(base, policy=_FAST)
            victim = queue.claim("victim")
            time.sleep(0.3)
            thief = queue.claim("thief")  # reclaims the lapsed lease
            assert thief is not None and thief.takeovers == 1
            with pytest.raises(LeaseLostError, match="stolen"):
                victim.heartbeat(specs[0], execute_spec(specs[0]))
            assert job.state[specs[0].spec_hash()]["status"] == "done"
            assert service.cache.get(specs[0]) is not None
        finally:
            service.close()
            server.shutdown()
            server.server_close()


class TestStolenShardDuplicateDelivery:
    def test_two_holders_delivering_one_spec_converge_on_one_entry(self, tmp_path):
        # The victim of a steal is slow, not dead: both it and the thief
        # deliver the same spec at once.  The bytes are identical, the
        # renames atomic: one valid entry survives and the job completes.
        service = SweepService(
            tmp_path / "cache", lease_ttl=0.2, fallback_after=60.0, poll=0.05
        )
        server = make_server(service, "127.0.0.1", 0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            spec = _spec()
            result = execute_spec(spec)
            job = service.submit([spec.to_dict()], shard_size=1)
            queue = RemoteWorkQueue(base, policy=_FAST)
            victim = queue.claim("victim")
            time.sleep(0.3)
            thief = queue.claim("thief")
            barrier = threading.Barrier(2)
            errors = []

            def deliver(lease):
                barrier.wait()
                try:
                    lease.heartbeat(spec, result)
                except LeaseLostError as exc:
                    errors.append(exc)  # the superseded victim is told so

            threads = [
                threading.Thread(target=deliver, args=(lease,))
                for lease in (victim, thief)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(errors) == 1
            assert service.wait(job, timeout=5)
            assert thief.complete([])
            assert len(service.cache) == 1
            assert not list(service.cache.root.glob("*.tmp"))
            assert service.cache.get(spec).summary == result.summary
            assert service.cache.quarantined == 0
        finally:
            service.close()
            server.shutdown()
            server.server_close()


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
        cache._quarantine("0" * 64)  # must not raise


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


class TestWaitForJob:
    def test_an_unknown_job_fails_at_once(self, live_server):
        # Jobs live in the server's memory: after a restart the stream
        # answers 404, and waiting out the deadline cannot change that.
        _, base = live_server
        start = time.monotonic()
        with pytest.raises(RpcHttpError, match="job-999"):
            wait_for_job(base, "job-999", timeout=30)
        assert time.monotonic() - start < 1.0


def _claim_in_thread(base, wait):
    """Claim over HTTP with ``wait`` in a thread; the returned dict gets
    the lease and the monotonic time the claim returned."""
    out: dict = {}

    def claim():
        out["lease"] = RemoteWorkQueue(base, policy=_FAST).claim("held", wait=wait)
        out["at"] = time.monotonic()

    thread = threading.Thread(target=claim, daemon=True)
    thread.start()
    time.sleep(0.2)  # let the claim reach its hold at the server
    return thread, out


class _EmptyQueueHandler(BaseHTTPRequestHandler):
    """A server that answers every claim with no lease at once, ignoring
    ``wait`` (as a server from before held claims did)."""

    protocol_version = "HTTP/1.0"

    def log_message(self, fmt, *args):
        pass

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.claims.append((time.monotonic(), json.loads(body)))
        reply = b'{"lease": null}'
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)


class TestEventDrivenWaits:
    def test_the_stream_ends_as_soon_as_the_last_result_lands(self, tmp_path):
        # Snapshots every 5 s: a stream that slept between them would
        # report the finished job up to 5 s after its result landed.
        service = SweepService(tmp_path / "cache", fallback_after=60.0, poll=5.0)
        spec = _spec()
        result = execute_spec(spec)
        with _serving(service) as base:
            job = service.submit([spec.to_dict()])
            streaming, out = threading.Event(), {}

            def follow():
                out["snap"] = wait_for_job(
                    base, job.job_id, timeout=30, on_progress=lambda _: streaming.set()
                )
                out["at"] = time.monotonic()

            thread = threading.Thread(target=follow, daemon=True)
            thread.start()
            assert streaming.wait(10)
            service.queue.claim("w").heartbeat(spec, result)
            landed = time.monotonic()
            thread.join(timeout=30)
        assert out["snap"]["complete"] and out["snap"]["done"] == 1
        assert out["at"] - landed < 1.0

    def test_a_held_claim_answers_soon_after_a_submit(self, live_server):
        service, base = live_server
        thread, out = _claim_in_thread(base, wait=4.0)
        spec = _spec()
        service.submit([spec.to_dict()])
        submitted = time.monotonic()
        thread.join(timeout=10)
        assert out["lease"] is not None and out["lease"].specs == [spec]
        assert out["at"] - submitted < 0.5

    @pytest.mark.parametrize("wait", ['"1"', "true", "-1", "NaN", "Infinity"])
    def test_a_wait_that_is_not_a_finite_non_negative_number_is_a_400(
        self, live_server, wait
    ):
        service, base = live_server
        service.submit([_spec().to_dict()])
        body = f'{{"owner": "w", "wait": {wait}}}'.encode()
        assert _post_status(f"{base}/api/queue/claim", body) == 400
        assert service.queue.counts()["leased"] == 0  # nothing was leased

    def test_a_wait_above_the_cap_is_held_no_longer_than_the_cap(
        self, live_server, monkeypatch
    ):
        _, base = live_server
        monkeypatch.setattr(service_module, "MAX_CLAIM_WAIT", 0.3)
        start = time.monotonic()
        assert _post_status(f"{base}/api/queue/claim", b'{"owner": "w", "wait": 60}') == 200
        assert 0.28 <= time.monotonic() - start < 3.0

    def test_close_releases_a_held_claim_at_once(self, live_server):
        service, base = live_server
        thread, out = _claim_in_thread(base, wait=4.0)
        service.close()
        closed = time.monotonic()
        thread.join(timeout=10)
        assert out["lease"] is None and out["at"] - closed < 0.5

    def test_an_idle_worker_picks_up_a_submitted_job_at_once(self, live_server):
        service, base = live_server
        spec, out = _spec(), {}

        def submit_later():
            time.sleep(0.3)
            out["submitted"] = time.monotonic()
            service.submit([spec.to_dict()])

        submitter = threading.Thread(target=submit_later, daemon=True)
        submitter.start()
        # A 3-s poll: a worker that slept it out between claims would
        # first see the job about 3 s after it was submitted.
        stats = run_worker(base, rpc_policy=_FAST, poll=3.0, max_shards=1)
        submitter.join(timeout=10)
        assert stats.shards_completed == 1
        assert time.monotonic() - out["submitted"] < 1.5

    def test_a_worker_asks_a_dead_server_at_most_once_per_poll(self, monkeypatch):
        calls = []
        claim = RemoteWorkQueue.claim

        def counted(queue, owner, wait=0.0):
            calls.append(wait)
            return claim(queue, owner, wait)

        monkeypatch.setattr(RemoteWorkQueue, "claim", counted)
        stats = run_worker(
            f"http://127.0.0.1:{_dead_port()}", rpc_policy=_FAST, poll=0.1, max_idle=1.0
        )
        assert stats.claims == 0
        assert 1 <= len(calls) <= 11

    def test_a_worker_waits_poll_between_claims_a_server_answers_at_once(self):
        server = ThreadingHTTPServer(("127.0.0.1", 0), _EmptyQueueHandler)
        server.claims = []
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            run_worker(
                f"http://127.0.0.1:{server.server_address[1]}",
                rpc_policy=_FAST,
                poll=0.2,
                max_idle=1.0,
            )
        finally:
            server.shutdown()
            server.server_close()
        times = [at for at, _ in server.claims]
        # The worker asked for a hold of its poll (under half its timeout).
        assert [body["wait"] for _, body in server.claims] == [0.2] * len(times)
        assert 3 <= len(times) <= 7
        assert min(b - a for a, b in zip(times, times[1:])) >= 0.15


class TestServiceOptions:
    @pytest.mark.parametrize(
        "option",
        [
            {"shard_size": 0},
            {"shard_size": True},
            {"shard_size": 2.0},
            {"poll": 0},
            {"poll": float("nan")},
            {"fallback_after": -1.0},
            {"fallback_after": float("nan")},
            {"lease_ttl": float("inf")},
        ],
    )
    def test_a_bad_service_option_is_rejected(self, tmp_path, option):
        with pytest.raises(ValueError):
            SweepService(tmp_path / "cache", **option)

    @pytest.mark.parametrize("shard_size", [0, -2, True, "2"])
    def test_a_job_with_a_bad_shard_size_is_a_400(self, live_server, shard_size):
        # 0 used to read as "the server's default".
        service, base = live_server
        body = json.dumps({"specs": [_spec().to_dict()], "shard_size": shard_size})
        assert _post_status(f"{base}/api/jobs", body.encode()) == 400
        assert not service.jobs

    @pytest.mark.parametrize(
        "option",
        [
            {"poll": -1.0},
            {"poll": float("nan")},
            {"max_idle": float("nan")},
            {"wait_for_queue": float("inf")},
        ],
    )
    def test_a_bad_worker_timing_is_rejected(self, option):
        with pytest.raises(ValueError):
            run_worker(f"http://127.0.0.1:{_dead_port()}", **option)


class TestSubmitBatch:
    @pytest.mark.parametrize("field", ["algorithm", "adversary"])
    @pytest.mark.parametrize("bad", [[1], {"a": 1}, 7])
    def test_non_string_spec_name_is_a_400(self, live_server, field, bad):
        service, base = live_server
        good = _spec().to_dict()
        broken = dict(good, **{field: bad})
        body = json.dumps({"specs": [good, broken]}).encode("utf-8")
        assert _post_status(f"{base}/api/jobs", body) == 400
        assert service.jobs == {}
        assert service.queue.counts() == {"pending": 0, "leased": 0, "done": 0}

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("energy_cap", "3"),
            ("enforce_energy_cap", "false"),
            ("rounds", 2.7),
            ("record_trace", 1),
            ("label", {"x": 1}),
            # Engine options, a fault stamp and misspelt keys are not
            # spec fields at all.
            ("plan_chunk", "64"),
            ("quiescence_skip", "no"),
            ("lowering", 0),
            ("fault_plan", {"seed": 1, "stall_rate": 1.0, "stall_seconds": 2}),
            ("energycap", 2),
        ],
    )
    def test_mistyped_spec_field_is_a_400(self, live_server, field, bad):
        service, base = live_server
        good = _spec().to_dict()
        broken = dict(good, **{field: bad})
        body = json.dumps({"specs": [good, broken]}).encode("utf-8")
        assert _post_status(f"{base}/api/jobs", body) == 400
        assert service.jobs == {}
        assert service.queue.counts() == {"pending": 0, "leased": 0, "done": 0}

    def test_resubmitted_batch_is_answered_from_the_cache(self, live_server):
        service, base = live_server
        specs = [_spec(0), _spec(1)]
        for spec in specs:
            service.cache.put(spec, execute_spec(spec))
        job = submit_batch(base, [s.to_dict() for s in specs])
        assert job["shards"] == []
        assert service.queue.counts() == {"pending": 0, "leased": 0, "done": 0}
        snap = wait_for_job(base, job["job"], timeout=10)
        assert (snap["done"], snap["pending"]) == (2, 0)

    def test_a_spec_held_twice_is_enqueued_once(self, live_server):
        service, base = live_server
        spec = _spec()
        job = service.submit([spec.to_dict(), spec.to_dict()], shard_size=1)
        assert len(job.shard_ids) == 1
        lease = RemoteWorkQueue(base, policy=_FAST).claim("unit-worker")
        assert [s.spec_hash() for s in lease.specs] == [spec.spec_hash()]
        lease.heartbeat(spec, execute_spec(spec))
        assert lease.complete([])
        assert service.wait(job, timeout=5)
        assert job.snapshot()["done"] == 2


    def test_overlapping_jobs_run_a_shared_spec_once(self, live_server):
        # A grid resubmitted while the first job still runs: the spec both
        # jobs hold is leased and executed once, and its one result
        # completes both.
        service, base = live_server
        a, b, c = _spec(0), _spec(1), _spec(2)
        first = service.submit([a.to_dict(), b.to_dict()], shard_size=1)
        second = service.submit([b.to_dict(), c.to_dict()], shard_size=1)
        assert len(second.shard_ids) == 1
        stats = run_worker(base, rpc_policy=_FAST, poll=0.01, exit_when_drained=True)
        assert stats.specs_done == 3
        assert service.wait(first, timeout=10) and service.wait(second, timeout=10)
        summaries = [r["summary"] for r in service.results(second)]
        assert summaries == [execute_spec(s).summary.as_dict() for s in (b, c)]


class TestSubmitBatchStartupRace:
    def test_submit_retries_connection_refused_until_server_up(self, tmp_path):
        spec = _spec()
        port = _dead_port()
        service = SweepService(
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
        # Deliver the result on a heartbeat, then complete the lease.
        lease.heartbeat(spec, execute_spec(spec))
        assert lease.complete([], extra={"requests": 3})
        assert queue.drained()
        assert service.wait(job, timeout=60)
        assert job.snapshot()["rpc"].get("requests") == 3

    def test_spent_token_returns_410_and_lost_lease(self, live_server):
        service, base = live_server
        spec = _spec()
        service.submit([spec.to_dict()], shard_size=1)
        queue = RemoteWorkQueue(base, policy=_FAST)
        lease = queue.claim("unit-worker")
        lease.heartbeat(spec, execute_spec(spec))
        assert lease.complete([])
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
         '[{"spec_hash": "HASH", "status": "failed", "fault_events": 5}]',
         # Done is recorded only where a result is stored, never by a
         # completion's say-so.
         '[{"spec_hash": "HASH", "status": "done", "attempts": 0}]'],
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
        lease.heartbeat(spec, execute_spec(spec))
        assert lease.complete([])
        assert service.wait(job, timeout=60)

    def test_completion_with_another_jobs_spec_is_rejected(self, live_server):
        # job-1's lease completing with a failed status for job-2's spec
        # must neither finish job-2 nor retire job-1's shard.
        service, base = live_server
        mine, other = _spec(0), _spec(1)
        first = service.submit([mine.to_dict()], shard_size=1)
        second = service.submit([other.to_dict()], shard_size=1)
        queue = RemoteWorkQueue(base, policy=_FAST)
        lease = queue.claim("unit-worker")
        assert [s.spec_hash() for s in lease.specs] == [mine.spec_hash()]
        failure = FailedResult(spec=other, error="x", error_type="E", attempts=1)
        assert not lease.complete([status_record(other, failure)])
        assert not second.complete and second.snapshot()["failed"] == 0
        assert not first.complete
        assert service.queue.counts() == {"pending": 1, "leased": 1, "done": 0}

    def test_unreachable_server_degrades_not_lies(self):
        queue = RemoteWorkQueue(f"http://127.0.0.1:{_dead_port()}", policy=_FAST)
        assert queue.claim("w") is None
        assert queue.drained() is False  # never a false "all done"
        assert queue.ready() is False

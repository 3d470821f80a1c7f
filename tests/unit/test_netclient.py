"""Unit tests for the resilient RPC client (:mod:`repro.sim.netclient`).

Covers the deterministic backoff schedule, the circuit-breaker state
machine, retry classification (idempotent vs non-idempotent, decisive
4xx vs retryable 5xx/checksum rejects), torn/corrupt response detection
against a real HTTP server, and the network fault coins on
:class:`~repro.sim.faults.FaultPlan`.
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.sim.faults import NET_FAULT_KINDS, FaultPlan
from repro.sim.netclient import (
    PAYLOAD_CHECKSUM_HEADER,
    CircuitBreaker,
    CircuitOpenError,
    ResilientClient,
    RpcHttpError,
    RpcPolicy,
    RpcResponse,
    RpcStats,
    RpcUnavailableError,
    TornResponseError,
    payload_digest,
)


class TestRpcPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RpcPolicy(timeout=0)
        with pytest.raises(ValueError):
            RpcPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RpcPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RpcPolicy(breaker_threshold=0)
        with pytest.raises(ValueError):
            RpcPolicy(breaker_reset=0)

    @pytest.mark.parametrize("name", ["timeout", "breaker_reset"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_durations_are_rejected(self, name, value):
        # A NaN or infinite timeout used to pass ``timeout <= 0`` and
        # fail only at the first socket call.
        with pytest.raises(ValueError, match=name):
            RpcPolicy(**{name: value})

    def test_backoff_is_deterministic_and_replayable(self):
        policy = RpcPolicy(backoff_base=0.1, backoff_cap=2.0, jitter=0.25, seed=7)
        twin = RpcPolicy(backoff_base=0.1, backoff_cap=2.0, jitter=0.25, seed=7)
        for attempt in range(1, 6):
            assert policy.backoff_delay("k", attempt) == twin.backoff_delay(
                "k", attempt
            )

    def test_backoff_doubles_and_caps(self):
        policy = RpcPolicy(backoff_base=0.1, backoff_cap=0.35, jitter=0.0)
        assert policy.backoff_delay("k", 1) == pytest.approx(0.1)
        assert policy.backoff_delay("k", 2) == pytest.approx(0.2)
        assert policy.backoff_delay("k", 3) == pytest.approx(0.35)  # capped
        assert policy.backoff_delay("k", 9) == pytest.approx(0.35)

    def test_jitter_bounded_and_desynchronises_keys(self):
        policy = RpcPolicy(backoff_base=0.1, backoff_cap=2.0, jitter=0.25, seed=1)
        base = 0.1
        delays = {policy.backoff_delay(f"key{i}", 1) for i in range(16)}
        assert len(delays) > 1  # different keys spread out
        for delay in delays:
            assert base <= delay <= base * 1.25

    def test_attempt_zero_and_zero_base_sleep_nothing(self):
        assert RpcPolicy().backoff_delay("k", 0) == 0.0
        assert RpcPolicy(backoff_base=0.0).backoff_delay("k", 3) == 0.0


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        clock = [0.0]
        breaker = CircuitBreaker(threshold=3, reset=1.0, clock=lambda: clock[0])
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.stats.circuit_opens == 1

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_admits_one_probe_then_closes_on_success(self):
        clock = [0.0]
        breaker = CircuitBreaker(threshold=1, reset=1.0, clock=lambda: clock[0])
        breaker.record_failure()
        assert not breaker.allow()
        clock[0] = 1.5  # reset window elapsed
        assert breaker.allow()  # the probe
        assert breaker.state == "half-open"
        assert not breaker.allow()  # only one probe in flight
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.stats.circuit_closes == 1

    def test_failed_probe_reopens_for_another_window(self):
        clock = [0.0]
        breaker = CircuitBreaker(threshold=1, reset=1.0, clock=lambda: clock[0])
        breaker.record_failure()
        clock[0] = 1.5
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()  # new reset window from the probe failure
        clock[0] = 2.9
        assert breaker.allow()


def _refusing_client(**plan_kwargs):
    """A client whose every attempt is refused by injection (no sockets)."""
    plan = FaultPlan(seed=1, net_refuse_rate=1.0, fault_budget=10_000, **plan_kwargs)
    sleeps = []
    client = ResilientClient(
        RpcPolicy(max_attempts=3, backoff_base=0.05, jitter=0.0, breaker_threshold=100),
        fault_plan=plan,
        sleep=sleeps.append,
    )
    return client, sleeps


class TestResilientClientRetries:
    def test_exhausted_retries_raise_unavailable_with_cause(self):
        client, sleeps = _refusing_client()
        with pytest.raises(RpcUnavailableError) as info:
            client.request("GET", "http://127.0.0.1:1/x", key="k")
        assert isinstance(info.value.__cause__, ConnectionRefusedError)
        assert client.stats.requests == 1
        assert client.stats.retries == 2  # attempts 2 and 3
        assert client.stats.giveups == 1
        assert sleeps == [
            pytest.approx(0.05),
            pytest.approx(0.1),
        ]  # deterministic, no jitter

    def test_breaker_opens_and_fails_fast(self):
        plan = FaultPlan(seed=1, net_refuse_rate=1.0, fault_budget=10_000)
        clock = [0.0]
        client = ResilientClient(
            RpcPolicy(
                max_attempts=1, backoff_base=0.0, breaker_threshold=2, breaker_reset=9.0
            ),
            fault_plan=plan,
            sleep=lambda _: None,
            clock=lambda: clock[0],
        )
        for _ in range(2):
            with pytest.raises(RpcUnavailableError):
                client.request("GET", "http://127.0.0.1:1/x", key="k")
        assert client.breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            client.request("GET", "http://127.0.0.1:1/x", key="k")
        assert client.stats.fast_failures == 1
        assert client.stats.circuit_opens == 1

    def test_non_idempotent_requests_retry_only_refusals(self, monkeypatch):
        client = ResilientClient(
            RpcPolicy(max_attempts=3, backoff_base=0.0, breaker_threshold=100),
            sleep=lambda _: None,
        )
        calls = []

        def attempt(method, url, data, headers, injected, timeout):
            calls.append(1)
            raise TimeoutError("stalled")

        monkeypatch.setattr(client, "_attempt", attempt)
        with pytest.raises(RpcUnavailableError):
            client.request(
                "POST", "http://x/jobs", key="submit", idempotent=False
            )
        assert len(calls) == 1  # a timeout may have been applied: no retry

        calls.clear()

        def refused(method, url, data, headers, injected, timeout):
            calls.append(1)
            raise ConnectionRefusedError("not listening")

        monkeypatch.setattr(client, "_attempt", refused)
        with pytest.raises(RpcUnavailableError):
            client.request(
                "POST", "http://x/jobs", key="submit", idempotent=False
            )
        assert len(calls) == 3  # provably never arrived: safe to retry

    def test_decisive_4xx_raises_immediately_and_heals_breaker(self, monkeypatch):
        client = ResilientClient(
            RpcPolicy(max_attempts=4, backoff_base=0.0, breaker_threshold=1),
            sleep=lambda _: None,
        )
        client.breaker.record_failure()  # open
        client.breaker.state = "closed"  # force through for the test
        calls = []

        def attempt(method, url, data, headers, injected, timeout):
            calls.append(1)
            return RpcResponse(status=404, headers={}, body=b"nope")

        monkeypatch.setattr(client, "_attempt", attempt)
        with pytest.raises(RpcHttpError) as info:
            client.request("GET", "http://x/thing", key="k")
        assert info.value.status == 404
        assert len(calls) == 1  # the server answered: retrying cannot help
        assert client.breaker.state == "closed"

    def test_checksum_reject_is_retried(self, monkeypatch):
        client = ResilientClient(
            RpcPolicy(max_attempts=3, backoff_base=0.0, breaker_threshold=100),
            sleep=lambda _: None,
        )
        calls = []

        def attempt(method, url, data, headers, injected, timeout):
            calls.append(1)
            if len(calls) < 3:
                raise RpcHttpError(400, "request body checksum mismatch")
            return RpcResponse(status=201, headers={}, body=b"{}")

        monkeypatch.setattr(client, "_attempt", attempt)
        resp = client.request("PUT", "http://x/cache/k", data=b"payload", key="k")
        assert resp.status == 201
        assert len(calls) == 3

    def test_ok_statuses_pass_through_unraised(self, monkeypatch):
        client = ResilientClient(sleep=lambda _: None)
        monkeypatch.setattr(
            client,
            "_attempt",
            lambda *a: RpcResponse(status=404, headers={}, body=b""),
        )
        resp = client.request("GET", "http://x/miss", key="k", ok=(200, 404))
        assert resp.status == 404


class _EchoHandler(BaseHTTPRequestHandler):
    """Serves a fixed checksummed JSON body; remembers request checksums."""

    body = json.dumps({"value": 42}).encode("utf-8")

    def log_message(self, fmt, *args):
        pass

    def do_GET(self):
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(self.body)))
        self.send_header(PAYLOAD_CHECKSUM_HEADER, payload_digest(self.body))
        self.end_headers()
        self.wfile.write(self.body)


@pytest.fixture()
def echo_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _EchoHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


class TestWireVerification:
    def test_clean_exchange_verifies_checksum(self, echo_server):
        client = ResilientClient(sleep=lambda _: None)
        assert client.get_json(f"{echo_server}/x", key="k") == {"value": 42}

    def test_injected_torn_body_is_detected_and_retried(self, echo_server):
        plan = FaultPlan(seed=3, net_torn_rate=1.0, fault_budget=1)
        client = ResilientClient(
            RpcPolicy(max_attempts=2, backoff_base=0.0, breaker_threshold=100),
            fault_plan=plan,
            sleep=lambda _: None,
        )
        # Attempt 0 is torn mid-body (detected via Content-Length),
        # attempt 1 is past the fault budget and succeeds.
        assert client.get_json(f"{echo_server}/x", key="k") == {"value": 42}
        assert client.stats.retries == 1
        assert client.stats.failures == 1

    def test_injected_corrupt_body_fails_its_checksum(self, echo_server):
        plan = FaultPlan(seed=3, net_corrupt_rate=1.0, fault_budget=1)
        client = ResilientClient(
            RpcPolicy(max_attempts=2, backoff_base=0.0, breaker_threshold=100),
            fault_plan=plan,
            sleep=lambda _: None,
        )
        assert client.get_json(f"{echo_server}/x", key="k") == {"value": 42}
        assert client.stats.retries == 1

    def test_torn_with_no_retry_budget_surfaces(self, echo_server):
        plan = FaultPlan(seed=3, net_torn_rate=1.0, fault_budget=10)
        client = ResilientClient(
            RpcPolicy(max_attempts=2, backoff_base=0.0, breaker_threshold=100),
            fault_plan=plan,
            sleep=lambda _: None,
        )
        with pytest.raises(RpcUnavailableError) as info:
            client.get_json(f"{echo_server}/x", key="k")
        assert isinstance(info.value.__cause__, TornResponseError)


class TestNetFaultCoins:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(net_refuse_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(net_torn_rate=-0.1)

    def test_net_active_flags_only_network_rates(self):
        assert not FaultPlan(kill_rate=0.5).net_active
        assert FaultPlan(net_http_error_rate=0.1).net_active
        assert not FaultPlan(net_http_error_rate=0.1).active

    def test_coins_are_deterministic_and_budgeted(self):
        plan = FaultPlan(seed=11, net_refuse_rate=1.0, fault_budget=2)
        twin = FaultPlan(seed=11, net_refuse_rate=1.0, fault_budget=2)
        for attempt in range(4):
            assert plan.net_fault("k", attempt) == twin.net_fault("k", attempt)
        assert plan.net_fault("k", 0) == "refuse"
        assert plan.net_fault("k", 2) is None  # past the budget
        assert plan.net_fault("k", 99) is None

    def test_attempt_offset_does_not_shift_net_coins(self):
        base = FaultPlan(seed=11, net_refuse_rate=0.5, fault_budget=4)
        shifted = base.with_offset(2)
        for attempt in range(4):
            assert base.net_fault("k", attempt) == shifted.net_fault("k", attempt)

    def test_round_trips_network_rates(self):
        plan = FaultPlan(
            seed=9,
            net_refuse_rate=0.1,
            net_timeout_rate=0.2,
            net_torn_rate=0.3,
            net_http_error_rate=0.4,
            net_corrupt_rate=0.5,
            stall_seconds=0.25,
            fault_budget=3,
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_every_declared_kind_is_drawable(self):
        for kind in NET_FAULT_KINDS:
            plan = FaultPlan(seed=5, fault_budget=1, **{f"net_{kind}_rate": 1.0})
            assert plan.net_fault("k", 0) == kind


class TestRpcStats:
    def test_as_dict_and_summary(self):
        stats = RpcStats(retries=3, circuit_opens=2, circuit_closes=1, giveups=4)
        d = stats.as_dict()
        assert d["retries"] == 3 and d["circuit_opens"] == 2
        text = stats.summary()
        assert "3 rpc retries" in text
        assert "2 circuit opens/1 closes" in text
        assert "4 rpc giveups" in text
        assert RpcStats().summary() == ""

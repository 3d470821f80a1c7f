"""Resilient HTTP RPC for the distributed sweep service.

The distributed layer treats the *network* as a first-class fault domain,
the same way :mod:`repro.sim.faults` treats workers and
:mod:`repro.sim.queue` treats leases: every failure mode a hostile
network can produce — connection refused, read timeout, torn (truncated)
response, HTTP 500, corrupted body — is survivable, deterministic to
inject, and bounded in the damage it can do.  :class:`ResilientClient`
wraps every HTTP call the sweep clients make (shard claims, lease
heartbeats — which also carry each finished spec's result — completions,
job submission and polling) with:

* **Per-request timeouts** — no call can block forever; a hung server
  reads as a retryable failure, not a wedged client.
* **Bounded retries with deterministic backoff + seeded jitter** — retry
  *n* sleeps ``min(cap, base * 2**(n-1))`` plus a jitter fraction drawn
  from a SHA-256 coin over ``(seed, key, n)``, so two clients hammering
  a recovering server de-synchronise, yet any schedule is replayable.
* **A circuit breaker** — after ``breaker_threshold`` consecutive
  transport failures the circuit *opens* and calls fail fast
  (:class:`CircuitOpenError`) instead of burning timeouts; after
  ``breaker_reset`` seconds one *half-open* probe is allowed through, and
  its success closes the circuit.
* **End-to-end checksums** — requests and responses may carry an
  ``X-Payload-SHA256`` header over the body; both ends verify it, so a
  torn or bit-flipped body is *detected* (and retried), never consumed.
  A response shorter than its ``Content-Length`` is likewise rejected.

Retry safety is classified per request: idempotent requests (heartbeats,
whose resent result lands on the same spec hash as the same bytes;
completions; polls) retry on any transport failure; non-idempotent
requests (job submission) retry only on *connection refused* — the one
failure that proves the request never reached the server — so a
retried submit cannot double-enqueue.

Fault injection rides the same :class:`~repro.sim.faults.FaultPlan` coin
stream as worker kills and cache corruption: when a plan with network
rates is attached, each attempt draws ``net_fault(key, attempt)`` and the
chosen disaster is simulated client-side (refused / timeout / HTTP 500
raised directly; torn / corrupted bodies mutated after a real exchange so
the verification path is exercised for real).  Faults are budgeted per
key, so every retry loop provably converges.
"""

from __future__ import annotations

import hashlib
import http.client
import math
import socket
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping
from urllib import error as urlerror
from urllib import request as urlrequest

from .faults import FaultPlan

__all__ = [
    "CHECKSUM_MISMATCH_HEADER",
    "CircuitBreaker",
    "CircuitOpenError",
    "PAYLOAD_CHECKSUM_HEADER",
    "ResilientClient",
    "RpcError",
    "RpcHttpError",
    "RpcPolicy",
    "RpcResponse",
    "RpcStats",
    "RpcUnavailableError",
    "TornResponseError",
    "payload_digest",
]

#: Header carrying a SHA-256 hex digest of the request/response body.
PAYLOAD_CHECKSUM_HEADER = "X-Payload-SHA256"

#: Header a server sets on a 4xx that means "your body failed checksum
#: verification" — torn in flight, so the client should retry it.
CHECKSUM_MISMATCH_HEADER = "X-Checksum-Mismatch"


def payload_digest(body: bytes) -> str:
    """The hex SHA-256 digest carried in :data:`PAYLOAD_CHECKSUM_HEADER`."""
    return hashlib.sha256(body).hexdigest()


class RpcError(RuntimeError):
    """Base class of every failure surfaced by :class:`ResilientClient`."""


class CircuitOpenError(RpcError):
    """The circuit breaker is open: the call failed fast, nothing was sent."""


class TornResponseError(RpcError):
    """The response body was shorter than promised or failed its checksum."""


class RpcUnavailableError(RpcError):
    """Every attempt failed; the last transport error is chained as cause."""


class RpcHttpError(RpcError):
    """The server answered with an unexpected HTTP status."""

    def __init__(self, status: int, detail: str = "") -> None:
        super().__init__(f"HTTP {status}" + (f": {detail}" if detail else ""))
        self.status = status
        self.detail = detail


@dataclass(frozen=True)
class RpcResponse:
    """One successful exchange: status, response headers, verified body."""

    status: int
    headers: Mapping[str, str]
    body: bytes

    def header(self, name: str, default: str | None = None) -> str | None:
        for key, value in self.headers.items():
            if key.lower() == name.lower():
                return value
        return default


@dataclass(frozen=True)
class RpcPolicy:
    """Timeouts, retry schedule and circuit-breaker tuning for one client.

    ``max_attempts`` bounds the total tries per request (first attempt
    included).  Backoff before retry *n* is deterministic —
    ``min(backoff_cap, backoff_base * 2**(n-1))`` — plus a jitter
    fraction in ``[0, jitter)`` of the delay, drawn from a SHA-256 coin
    over ``(seed, key, n)`` so concurrent clients spread out replayably.
    """

    timeout: float = 10.0
    max_attempts: int = 4
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    jitter: float = 0.25
    seed: int = 0
    breaker_threshold: int = 5
    breaker_reset: float = 1.0

    def __post_init__(self) -> None:
        # Chained compares reject NaN too, which ``x <= 0`` lets through.
        if not 0 < self.timeout < math.inf:
            raise ValueError(f"timeout must be positive and finite, got {self.timeout!r}")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if not (self.backoff_base >= 0 and self.backoff_cap >= 0):
            raise ValueError("backoff must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be at least 1")
        if not 0 < self.breaker_reset < math.inf:
            raise ValueError(
                f"breaker_reset must be positive and finite, got {self.breaker_reset!r}"
            )

    def backoff_delay(self, key: str, attempt: int) -> float:
        """Deterministic delay before retry ``attempt`` (1-based) of ``key``."""
        if attempt <= 0 or self.backoff_base <= 0:
            return 0.0
        delay = min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))
        if self.jitter > 0:
            digest = hashlib.sha256(
                f"{self.seed}:jitter:{key}:{attempt}".encode("utf-8")
            ).digest()
            fraction = int.from_bytes(digest[:8], "big") / 2**64
            delay += delay * self.jitter * fraction
        return delay


@dataclass
class RpcStats:
    """Counters one client accumulates (surfaced on worker/executor stats)."""

    requests: int = 0
    retries: int = 0
    failures: int = 0
    giveups: int = 0
    fast_failures: int = 0
    circuit_opens: int = 0
    circuit_closes: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "requests": self.requests,
            "retries": self.retries,
            "failures": self.failures,
            "giveups": self.giveups,
            "fast_failures": self.fast_failures,
            "circuit_opens": self.circuit_opens,
            "circuit_closes": self.circuit_closes,
        }

    def summary(self) -> str:
        parts = []
        if self.retries:
            parts.append(f"{self.retries} rpc retries")
        if self.circuit_opens:
            parts.append(
                f"{self.circuit_opens} circuit opens"
                + (f"/{self.circuit_closes} closes" if self.circuit_closes else "")
            )
        if self.giveups:
            parts.append(f"{self.giveups} rpc giveups")
        return ", ".join(parts)


class CircuitBreaker:
    """Consecutive-failure circuit breaker with a half-open probe state.

    ``closed`` passes every call.  ``threshold`` consecutive failures
    open the circuit; while open, :meth:`allow` refuses calls until
    ``reset`` seconds have elapsed, then admits exactly one *half-open*
    probe.  A successful probe closes the circuit; a failed probe
    re-opens it for another ``reset`` window.
    """

    def __init__(
        self,
        threshold: int = 5,
        reset: float = 1.0,
        *,
        stats: RpcStats | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError("threshold must be at least 1")
        if not 0 < reset < math.inf:
            raise ValueError(f"reset must be positive and finite, got {reset!r}")
        self.threshold = threshold
        self.reset = reset
        self.stats = stats if stats is not None else RpcStats()
        self._clock = clock
        self.state = "closed"
        self._consecutive = 0
        self._opened_at = 0.0
        self._probing = False

    def allow(self) -> bool:
        """Whether a call may proceed right now (may admit a probe)."""
        if self.state == "closed":
            return True
        if self.state == "open":
            if self._clock() - self._opened_at >= self.reset:
                self.state = "half-open"
                self._probing = True
                return True
            return False
        # half-open: exactly one probe in flight at a time.
        if self._probing:
            return False
        self._probing = True
        return True

    def record_success(self) -> None:
        self._consecutive = 0
        self._probing = False
        if self.state != "closed":
            self.state = "closed"
            self.stats.circuit_closes += 1

    def record_failure(self) -> None:
        self._consecutive += 1
        self._probing = False
        if self.state == "half-open" or (
            self.state == "closed" and self._consecutive >= self.threshold
        ):
            if self.state != "open":
                self.stats.circuit_opens += 1
            self.state = "open"
            self._opened_at = self._clock()


def _is_refused(exc: BaseException) -> bool:
    """Did the connection never open?  (Safe to retry even non-idempotently.)"""
    if isinstance(exc, ConnectionRefusedError):
        return True
    if isinstance(exc, urlerror.URLError) and not isinstance(exc, urlerror.HTTPError):
        return _is_refused(exc.reason) if isinstance(exc.reason, BaseException) else False
    return False


def _is_retryable(exc: BaseException) -> bool:
    if isinstance(exc, RpcHttpError):
        return exc.status >= 500
    if isinstance(exc, (TornResponseError, TimeoutError, socket.timeout)):
        return True
    if isinstance(exc, urlerror.HTTPError):  # pragma: no cover - mapped earlier
        return exc.code >= 500
    if isinstance(exc, urlerror.URLError):
        return True
    return isinstance(exc, (OSError, http.client.HTTPException))


class ResilientClient:
    """HTTP client with timeouts, deterministic retries and a breaker.

    One client guards one service (one breaker, one stats block), so a
    dead server fails every queue RPC fast and a recovered one closes
    the circuit for all of them at once.

    Parameters
    ----------
    policy:
        Timeouts / retry / breaker tuning (:class:`RpcPolicy`).
    fault_plan:
        Optional deterministic fault injector.  Each attempt draws
        ``net_fault(f"cli:{key}", n)``: ``refuse``/``timeout``/
        ``http_error`` are raised without touching the network, while
        ``torn``/``corrupt`` mutate the body of a *real* exchange so the
        length/checksum verification path is exercised end to end.
    sleep / clock:
        Injection points for tests (defaults: ``time.sleep`` /
        ``time.monotonic``).
    """

    def __init__(
        self,
        policy: RpcPolicy | None = None,
        *,
        fault_plan: FaultPlan | None = None,
        stats: RpcStats | None = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy if policy is not None else RpcPolicy()
        self.fault_plan = fault_plan
        self.stats = stats if stats is not None else RpcStats()
        self.breaker = CircuitBreaker(
            self.policy.breaker_threshold,
            self.policy.breaker_reset,
            stats=self.stats,
            clock=clock,
        )
        self._sleep = sleep
        #: Per-key attempt clocks for the injection coin stream.
        self._fault_attempts: dict[str, int] = {}

    # -- fault injection -------------------------------------------------------
    def _draw_fault(self, key: str) -> str | None:
        plan = self.fault_plan
        if plan is None or not plan.net_active:
            return None
        attempt = self._fault_attempts.get(key, 0)
        self._fault_attempts[key] = attempt + 1
        return plan.net_fault(f"cli:{key}", attempt)

    # -- the resilient request loop -------------------------------------------
    def request(
        self,
        method: str,
        url: str,
        *,
        data: bytes | None = None,
        headers: Mapping[str, str] | None = None,
        key: str | None = None,
        idempotent: bool = True,
        ok: tuple[int, ...] = (200, 201, 204),
        timeout: float | None = None,
    ) -> RpcResponse:
        """Perform one logical request, retrying transport failures.

        ``key`` names the request for backoff jitter and fault coins
        (defaults to ``METHOD path``).  ``ok`` lists the statuses
        returned as-is (e.g. include 404 for existence probes); any
        other 4xx raises :class:`RpcHttpError` without retrying — except
        a checksum-mismatch reject, which means the request body tore in
        flight and is retried.  5xx and transport errors retry with
        backoff while the budget lasts; non-idempotent requests retry
        only *connection refused* (the request provably never arrived).
        """
        policy = self.policy
        key = key if key is not None else f"{method} {url.split('?', 1)[0]}"
        send_headers = dict(headers or {})
        if data is not None and PAYLOAD_CHECKSUM_HEADER not in send_headers:
            send_headers[PAYLOAD_CHECKSUM_HEADER] = payload_digest(data)
        self.stats.requests += 1

        last_exc: BaseException | None = None
        for attempt in range(policy.max_attempts):
            if not self.breaker.allow():
                self.stats.fast_failures += 1
                raise CircuitOpenError(
                    f"circuit open for {key}; failing fast without a request"
                )
            injected = self._draw_fault(key)
            try:
                response = self._attempt(
                    method, url, data, send_headers, injected,
                    timeout if timeout is not None else policy.timeout,
                )
                if response.status not in ok:
                    raise RpcHttpError(
                        response.status,
                        response.body[:200].decode("utf-8", "replace"),
                    )
            except RpcHttpError as exc:
                if exc.status < 500 and not self._is_checksum_reject(exc):
                    # The server answered decisively: it is alive (the
                    # breaker heals) and retrying cannot help.
                    self.breaker.record_success()
                    raise
                last_exc = exc
            except TornResponseError as exc:
                last_exc = exc
                self.breaker.record_failure()
                self.stats.failures += 1
            except Exception as exc:
                if not _is_retryable(exc):
                    raise
                last_exc = exc
            else:
                self.breaker.record_success()
                return response

            if not isinstance(last_exc, (TornResponseError,)):
                self.breaker.record_failure()
                self.stats.failures += 1
            if not idempotent and not _is_refused(last_exc):
                break
            if attempt + 1 >= policy.max_attempts:
                break
            self.stats.retries += 1
            delay = policy.backoff_delay(key, attempt + 1)
            if delay:
                self._sleep(delay)

        self.stats.giveups += 1
        raise RpcUnavailableError(
            f"{key} failed after {policy.max_attempts} attempt(s): "
            f"{type(last_exc).__name__}: {last_exc}"
        ) from last_exc

    @staticmethod
    def _is_checksum_reject(exc: RpcHttpError) -> bool:
        """A 4xx flagged as "your body failed verification" — torn in
        flight, so retrying with the intact body is correct."""
        return "checksum" in exc.detail.lower()

    def _attempt(
        self,
        method: str,
        url: str,
        data: bytes | None,
        headers: Mapping[str, str],
        injected: str | None,
        timeout: float,
    ) -> RpcResponse:
        """One wire attempt, with the injected disaster (if any) applied."""
        if injected == "refuse":
            raise ConnectionRefusedError("injected connection refusal")
        if injected == "timeout":
            raise TimeoutError("injected request timeout")
        if injected == "http_error":
            raise RpcHttpError(500, "injected server error")
        send = data
        if injected == "corrupt" and data is not None:
            # Flip a request-body byte: the server's checksum verification
            # must reject it and this client must retry with clean bytes.
            send = data[:-1] + bytes([data[-1] ^ 0xFF]) if data else data
        req = urlrequest.Request(url, data=send, headers=dict(headers), method=method)
        try:
            with urlrequest.urlopen(req, timeout=timeout) as resp:
                status = resp.status
                resp_headers = dict(resp.headers.items())
                body = resp.read()
        except urlerror.HTTPError as exc:
            status = exc.code
            resp_headers = dict(exc.headers.items()) if exc.headers else {}
            body = exc.read()
            if status == 400 and resp_headers.get(CHECKSUM_MISMATCH_HEADER):
                raise RpcHttpError(status, "request body checksum mismatch") from exc

        if injected == "torn" and body:
            body = body[: max(0, len(body) // 2)]
        elif injected == "corrupt" and data is None and body:
            body = body[:-1] + bytes([body[-1] ^ 0xFF])

        declared = resp_headers.get("Content-Length")
        if declared is not None and len(body) != int(declared):
            raise TornResponseError(f"torn response: got {len(body)} of {declared} bytes")
        digest = resp_headers.get(PAYLOAD_CHECKSUM_HEADER)
        if digest is not None and payload_digest(body) != digest:
            raise TornResponseError("response body failed its checksum")
        return RpcResponse(status=status, headers=resp_headers, body=body)

    # -- convenience wrappers --------------------------------------------------
    def get_json(self, url: str, **kwargs) -> dict:
        import json

        resp = self.request("GET", url, **kwargs)
        return json.loads(resp.body.decode("utf-8"))

    def post_json(self, url: str, payload: dict, **kwargs) -> dict:
        import json

        body = json.dumps(payload).encode("utf-8")
        resp = self.request(
            "POST",
            url,
            data=body,
            headers={"Content-Type": "application/json"},
            **kwargs,
        )
        return json.loads(resp.body.decode("utf-8")) if resp.body else {}

"""Leaky-bucket admissibility constraint for adversarial packet injection.

An adversary of type ``(rho, beta)`` may inject at most ``rho * t + beta``
packets in *every* contiguous interval of ``t`` rounds (Section 2,
"Dynamic packet generation").  :class:`LeakyBucketConstraint` tracks the
exact remaining slack with an O(1)-per-round recurrence:

Let ``A_t`` be the largest number of packets that may still be injected in
round ``t`` without violating the constraint for *any* interval ending at
``t``.  For the interval consisting of round ``t`` alone the budget is
``rho + beta``; intervals that started earlier have their slack reduced by
past injections and increased by ``rho`` per elapsed round.  Hence

    A_1     = rho + beta
    A_{t+1} = min(A_t - x_t + rho,  rho + beta)

where ``x_t`` is the number of packets injected in round ``t``.  The
integer number of packets injectable in round ``t`` is ``floor(A_t)``,
which for ``t = 1`` equals the paper's burstiness ``floor(rho + beta)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["LeakyBucketConstraint", "LeakyBucketViolation", "AdversaryType"]


class LeakyBucketViolation(RuntimeError):
    """Raised when an injection pattern exceeds the (rho, beta) envelope."""


@dataclass(frozen=True, slots=True)
class AdversaryType:
    """The ``(rho, beta)`` type of a leaky-bucket adversary.

    ``rho`` is the injection rate (``0 < rho <= 1``) and ``beta >= 0`` is
    the burstiness coefficient, a finite number.  The paper assumes
    ``beta >= 1``; we allow ``beta = 0`` for degenerate test scenarios.
    """

    rho: float
    beta: float

    def __post_init__(self) -> None:
        if not 0 < self.rho <= 1:
            raise ValueError(f"injection rate rho must be in (0, 1], got {self.rho}")
        if not 0 <= self.beta < math.inf:  # NaN fails both comparisons
            raise ValueError(
                f"burstiness coefficient beta must be finite and >= 0, got {self.beta}"
            )

    @property
    def burstiness(self) -> int:
        """Maximum number of packets injectable in a single round.

        Uses the same drift guard as :meth:`LeakyBucketConstraint.budget`
        so that a ``rho + beta`` lying one float ulp below an integer
        rounds consistently in both places (``budget() <= burstiness``
        must hold for every representable type).
        """
        return math.floor(self.rho + self.beta + 1e-9)

    def window_bound(self, t: int) -> float:
        """Upper bound on injections in any interval of ``t`` rounds."""
        if t <= 0:
            return 0.0
        return self.rho * t + self.beta

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"(rho={self.rho}, beta={self.beta})"


@dataclass(slots=True)
class LeakyBucketConstraint:
    """Online tracker of the remaining injection slack of a (rho, beta) type.

    Usage: call :meth:`budget` at the beginning of a round to learn how
    many packets may be injected, then :meth:`consume` with the number
    actually injected (which also advances the round).
    """

    adversary_type: AdversaryType
    _slack: float = field(init=False)
    _cap: float = field(init=False)
    _rho: float = field(init=False)
    _round: int = field(init=False, default=0)
    total_injected: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        # Cached scalars: budget()/consume() run once per simulated round.
        self._rho = self.adversary_type.rho
        self._cap = self.adversary_type.rho + self.adversary_type.beta
        self._slack = self._cap

    @property
    def rho(self) -> float:
        return self.adversary_type.rho

    @property
    def beta(self) -> float:
        return self.adversary_type.beta

    @property
    def round_no(self) -> int:
        """The round the constraint currently expects injections for."""
        return self._round

    def budget(self) -> int:
        """Number of packets that may be injected in the current round."""
        # Guard against floating point drift pushing the slack a hair
        # below an integer it mathematically equals.
        return max(0, math.floor(self._slack + 1e-9))

    def consume(self, count: int) -> None:
        """Register ``count`` injections for the current round and advance.

        Raises
        ------
        LeakyBucketViolation
            If ``count`` exceeds the current budget.
        """
        if count < 0:
            raise ValueError("injection count cannot be negative")
        if count > 0 and count > self.budget():
            raise LeakyBucketViolation(
                f"round {self._round}: injecting {count} packets exceeds the "
                f"budget {self.budget()} of adversary type {self.adversary_type}"
            )
        self.total_injected += count
        slack = self._slack - count + self._rho
        cap = self._cap
        self._slack = slack if slack < cap else cap
        self._round += 1

    def peek_after_skip(self, rounds: int) -> int:
        """Budget available after skipping ``rounds`` rounds without injecting."""
        slack = min(self._slack + rounds * self._rho, self._cap)
        return max(0, math.floor(slack + 1e-9))

    def consume_demands(self, demands) -> list[int]:
        """Clip a per-round demand sequence to the envelope and consume it.

        Equivalent to, for each round, ``budget()`` followed by
        ``consume(min(demand, budget))`` — exactly the clipping the
        per-round ``inject()`` path applies to an over-demanding
        adversary — in one call.  The float recurrence is evaluated in
        the same operation order as :meth:`consume`, so a run clipped
        here is bit-identical to the same demands tracked round by
        round.  This is the batch half of the versioned RNG protocol:
        the stochastic families draw raw per-round demand counts in one
        vectorised sweep and clip them against the bucket here.

        Returns the realised per-round injection counts.
        """
        counts = [0] * len(demands)
        slack = self._slack
        rho = self._rho
        cap = self._cap
        total = 0
        for r, demand in enumerate(demands):
            if demand:
                allowed = math.floor(slack + 1e-9)
                if allowed > 0:
                    take = demand if demand < allowed else allowed
                    counts[r] = take
                    total += take
                    slack = slack - take
            slack = slack + rho
            if slack > cap:
                slack = cap
        self._slack = slack
        self._round += len(demands)
        self.total_injected += total
        return counts

    def consume_run(self, rounds: int, active=None) -> list[int]:
        """Consume the full per-round budget for the next ``rounds`` rounds.

        The batch materialisation behind vectorised
        ``Adversary.plan_injections``: equivalent to ``rounds`` iterations
        of :meth:`budget` followed by :meth:`consume` of that whole budget
        (or of 0 on rounds where ``active[r]`` is falsy), in one call.
        The float recurrence is evaluated in the exact same operation
        order as :meth:`consume`, so a run materialised here is
        bit-identical to the same run tracked round by round.

        Returns the per-round injection counts (length ``rounds``).
        """
        if rounds < 0:
            raise ValueError("rounds cannot be negative")
        counts = [0] * rounds
        slack = self._slack
        rho = self._rho
        cap = self._cap
        total = 0
        for r in range(rounds):
            if active is None or active[r]:
                count = math.floor(slack + 1e-9)
                if count > 0:
                    counts[r] = count
                    total += count
                    slack = slack - count
            slack = slack + rho
            if slack > cap:
                slack = cap
        self._slack = slack
        self._round += rounds
        self.total_injected += total
        return counts


def verify_injection_record(
    counts: list[int], adversary_type: AdversaryType, *, strict: bool = True
) -> bool:
    """Check a per-round injection record against the (rho, beta) envelope.

    This is the O(t^2) reference check used by tests to validate the O(1)
    online tracker: for every contiguous interval the number of injections
    must not exceed ``rho * len + beta``.
    """
    prefix = [0]
    for c in counts:
        prefix.append(prefix[-1] + c)
    for start in range(len(counts)):
        for end in range(start + 1, len(counts) + 1):
            injected = prefix[end] - prefix[start]
            bound = adversary_type.window_bound(end - start)
            if injected > bound + 1e-9:
                if strict:
                    raise LeakyBucketViolation(
                        f"interval [{start}, {end}) injected {injected} > bound {bound}"
                    )
                return False
    return True

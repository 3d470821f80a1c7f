"""The energy cap check for the shared channel.

The system's energy expenditure in a round equals the number of stations
that spend the round switched on (Section 2).  The *energy cap* is the
maximum number of stations allowed to be simultaneously on.  The engine
hands each round's awake count to an :class:`EnergyMonitor`, which checks
it against the cap and either raises :class:`EnergyCapViolation` or only
counts the violation, depending on the experiment.  The per-round counts
themselves are recorded once, in the metrics collector's
``energy_series``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["EnergyCapViolation", "EnergyMonitor"]


class EnergyCapViolation(RuntimeError):
    """Raised when more stations are awake in a round than the cap allows."""

    def __init__(self, round_no: int, awake: int, cap: int) -> None:
        super().__init__(
            f"energy cap violated in round {round_no}: {awake} stations awake, cap {cap}"
        )
        self.round_no = round_no
        self.awake = awake
        self.cap = cap


@dataclass(slots=True)
class EnergyMonitor:
    """Checks each round's awake count against the energy cap.

    Parameters
    ----------
    cap:
        The energy cap ``k``; ``None`` means uncapped (nothing to check).
    enforce:
        When True, exceeding the cap raises :class:`EnergyCapViolation`.
        Experiments that only *measure* energy set this to False, and
        the monitor then only counts the rounds that broke the cap.
    """

    cap: int | None = None
    enforce: bool = True
    violations: int = 0

    def observe(self, round_no: int, awake_count: int) -> None:
        """Check the number of awake stations in ``round_no`` against the cap."""
        if self.cap is not None and awake_count > self.cap:
            self.violations += 1
            if self.enforce:
                raise EnergyCapViolation(round_no, awake_count, self.cap)

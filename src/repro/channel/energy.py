"""Energy accounting for the shared channel.

The system's energy expenditure in a round equals the number of stations
that spend the round switched on (Section 2).  The *energy cap* is the
maximum number of stations allowed to be simultaneously on.  The engine
feeds the per-round awake-set into an :class:`EnergyMonitor`, which either
enforces the cap (raising :class:`EnergyCapViolation`) or merely records
usage, depending on the experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["EnergyCapViolation", "EnergyMonitor", "EnergyReport"]


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
class EnergyReport:
    """Summary of energy use over a finished run."""

    rounds: int
    total_station_rounds: int
    max_awake: int
    cap: int | None

    @property
    def average_awake(self) -> float:
        """Average number of awake stations per round."""
        if self.rounds == 0:
            return 0.0
        return self.total_station_rounds / self.rounds

    def energy_per_round(self) -> float:
        """Alias for :attr:`average_awake`, in units of 'station-rounds'."""
        return self.average_awake


@dataclass(slots=True)
class EnergyMonitor:
    """Tracks per-round energy use and optionally enforces the cap.

    Parameters
    ----------
    cap:
        The energy cap ``k``; ``None`` means uncapped (record only).
    enforce:
        When True, exceeding the cap raises :class:`EnergyCapViolation`.
        Experiments that only *measure* energy set this to False.
    """

    cap: int | None = None
    enforce: bool = True
    per_round: list[int] = field(default_factory=list)
    total_station_rounds: int = 0
    max_awake: int = 0
    violations: int = 0

    def observe(self, round_no: int, awake_count: int) -> None:
        """Record the number of awake stations in ``round_no``."""
        self.per_round.append(awake_count)
        self.total_station_rounds += awake_count
        if awake_count > self.max_awake:
            self.max_awake = awake_count
        if self.cap is not None and awake_count > self.cap:
            self.violations += 1
            if self.enforce:
                raise EnergyCapViolation(round_no, awake_count, self.cap)

    def report(self) -> EnergyReport:
        """Produce an :class:`EnergyReport` for the rounds observed so far."""
        return EnergyReport(
            rounds=len(self.per_round),
            total_station_rounds=self.total_station_rounds,
            max_awake=self.max_awake,
            cap=self.cap,
        )

"""Vectorised numpy kernels of the plan scan and the lowered-segment flush.

The engine loop (:mod:`repro.channel.kernel`) calls these instead of
per-element Python: :func:`injection_round_indices` backs the injection
plans' quiescent-span probes, and the other three flush a
:class:`~repro.core.blocks.LoweredSegment` in bulk.
``tests/unit/test_accel_parity.py`` pins each kernel against a scalar
loop over randomised segment inputs.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "injection_round_indices",
    "segment_round_totals",
    "per_station_flow",
    "count_transmitting",
]


def injection_round_indices(offsets: np.ndarray) -> np.ndarray:
    """Relative round indices of an injection plan that carry injections.

    ``offsets`` is an injection plan's CSR-style offset array
    (``len == rounds + 1``); round ``r`` carries injections iff
    ``offsets[r + 1] > offsets[r]``.  This is the scan behind the
    engine loop's quiescent-span probes.
    """
    return np.flatnonzero(offsets[1:] > offsets[:-1])


def segment_round_totals(
    delta_offsets: np.ndarray, delta_values: np.ndarray, initial_total: int
) -> np.ndarray:
    """End-of-round total queue lengths of a lowered segment.

    ``delta_offsets``/``delta_values`` are the segment's queue-delta CSR
    (one row per round); the result is the running total starting from
    ``initial_total``, one entry per round — exactly the slice the engine
    loop appends to ``MetricsCollector.total_queue_series``.
    """
    # Row sums via prefix-sum differences: ``np.add.reduceat`` returns
    # ``operand[idx]`` for empty CSR rows, which silent rounds hit
    # constantly, so the cumsum-diff form is the correct vectorisation.
    prefix = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(delta_values, dtype=np.int64))
    )
    per_round = prefix[delta_offsets[1:]] - prefix[delta_offsets[:-1]]
    return np.cumsum(per_round, dtype=np.int64) + initial_total


def per_station_flow(
    delta_stations: np.ndarray, delta_values: np.ndarray, base_sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fold a lowered segment's queue-delta CSR into per-station flows.

    Starting from ``base_sizes`` (length-n int64, the queue sizes at
    segment start), returns ``(sizes, peaks)``: the per-station sizes
    after applying every delta in order, and the running per-station
    maxima along the way (initialised at the base, so ``peaks >=
    base_sizes`` elementwise).  Because the CSR carries at most one net
    entry per station per round, the entry-level running values are
    exactly the end-of-round sizes the per-round steps poll — which is
    what makes the peaks usable for ``per_station_max_queue``.
    """
    sizes = base_sizes.copy()
    peaks = base_sizes.copy()
    m = delta_stations.shape[0]
    if m == 0:
        return sizes, peaks
    # Group the entries by station with a stable sort (preserving the
    # chronological order within each station), take within-group running
    # sums, and reduce each group to its last value (final size) and its
    # maximum (peak).  ``np.bincount(weights=...)`` promotes to float64
    # and a global cumsum/cummax would leak across groups, hence the
    # segmented form.
    order = np.argsort(delta_stations, kind="stable")
    stations = delta_stations[order]
    cumulative = np.cumsum(delta_values[order], dtype=np.int64)
    starts = np.flatnonzero(
        np.concatenate((np.ones(1, dtype=bool), stations[1:] != stations[:-1]))
    )
    group_lengths = np.diff(np.concatenate((starts, np.asarray([m]))))
    group_base = np.concatenate(
        (np.zeros(1, dtype=np.int64), cumulative[starts[1:] - 1])
    )
    running = cumulative - np.repeat(group_base, group_lengths) + base_sizes[stations]
    touched = stations[starts]
    # reduceat is safe here: every group is non-empty by construction.
    group_peaks = np.maximum.reduceat(running, starts)
    sizes[touched] = running[starts + group_lengths - 1]
    peaks[touched] = np.maximum(base_sizes[touched], group_peaks)
    return sizes, peaks


def count_transmitting(transmitters: np.ndarray) -> int:
    """Number of heard rounds in a lowered segment's transmitter array."""
    return int(np.count_nonzero(transmitters >= 0))

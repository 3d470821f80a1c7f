"""Bit-parity of the _accel numpy kernels with scalar-loop oracles.

Every kernel in :mod:`repro._accel` is a vectorised numpy expression;
the engine loop's lowered-segment results depend on it being exact.
This suite pins each kernel against a plain per-element loop over
randomised segment inputs — including empty rounds, empty segments, and
mixed-sign deltas (the injection-absorbing lowering contract produces
positive *and* negative per-station entries).
"""

import numpy as np
import pytest

from repro import _accel

# -- scalar oracles -------------------------------------------------------------


def _injection_round_indices_loop(offsets):
    out = np.empty(offsets.shape[0] - 1, dtype=np.int64)
    m = 0
    for r in range(offsets.shape[0] - 1):
        if offsets[r + 1] > offsets[r]:
            out[m] = r
            m += 1
    return out[:m]


def _segment_round_totals_loop(delta_offsets, delta_values, initial_total):
    rounds = delta_offsets.shape[0] - 1
    out = np.empty(rounds, dtype=np.int64)
    total = initial_total
    for r in range(rounds):
        for k in range(delta_offsets[r], delta_offsets[r + 1]):
            total += delta_values[k]
        out[r] = total
    return out


def _per_station_flow_loop(delta_stations, delta_values, base_sizes):
    sizes = base_sizes.copy()
    peaks = base_sizes.copy()
    for k in range(delta_stations.shape[0]):
        s = delta_stations[k]
        sizes[s] += delta_values[k]
        if sizes[s] > peaks[s]:
            peaks[s] = sizes[s]
    return sizes, peaks


def _count_transmitting_loop(transmitters):
    m = 0
    for k in range(transmitters.shape[0]):
        if transmitters[k] >= 0:
            m += 1
    return m


# -- parity ---------------------------------------------------------------------


def _random_delta_csr(rng, rounds, n):
    """A random queue-delta CSR: per-round entries, net per station."""
    stations = []
    values = []
    offsets = [0]
    for _ in range(rounds):
        touched = rng.choice(
            n, size=rng.integers(0, min(n, 4) + 1), replace=False
        )
        for s in touched:
            stations.append(int(s))
            values.append(int(rng.integers(-3, 4)))
        offsets.append(len(stations))
    return (
        np.asarray(offsets, dtype=np.int64),
        np.asarray(stations, dtype=np.int64),
        np.asarray(values, dtype=np.int64),
    )


@pytest.mark.parametrize("seed", range(8))
def test_injection_round_indices_parity(seed):
    rng = np.random.default_rng(seed)
    rounds = int(rng.integers(0, 200))
    counts = rng.integers(0, 3, size=rounds)
    offsets = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64))
    )
    oracle = _injection_round_indices_loop(offsets)
    fast = _accel.injection_round_indices(offsets)
    assert oracle.dtype == fast.dtype == np.int64
    assert oracle.tolist() == fast.tolist()


def test_injection_round_indices_edges():
    offsets = np.array([0, 0, 2, 2, 3, 3], dtype=np.int64)
    assert _accel.injection_round_indices(offsets).tolist() == [1, 3]
    empty = np.array([0], dtype=np.int64)
    assert _accel.injection_round_indices(empty).tolist() == []


@pytest.mark.parametrize("seed", range(8))
def test_segment_round_totals_parity(seed):
    rng = np.random.default_rng(100 + seed)
    rounds = int(rng.integers(1, 120))
    offsets, _, values = _random_delta_csr(rng, rounds, n=9)
    initial = int(rng.integers(0, 50))
    oracle = _segment_round_totals_loop(offsets, values, np.int64(initial))
    fast = _accel.segment_round_totals(offsets, values, initial)
    assert oracle.shape == fast.shape == (rounds,)
    assert oracle.tolist() == fast.tolist()


def test_segment_round_totals_empty_segment():
    offsets = np.zeros(1, dtype=np.int64)
    values = np.zeros(0, dtype=np.int64)
    assert _segment_round_totals_loop(offsets, values, np.int64(7)).tolist() == []
    assert _accel.segment_round_totals(offsets, values, 7).tolist() == []


@pytest.mark.parametrize("seed", range(8))
def test_per_station_flow_parity(seed):
    rng = np.random.default_rng(200 + seed)
    n = int(rng.integers(2, 12))
    rounds = int(rng.integers(1, 120))
    _, stations, values = _random_delta_csr(rng, rounds, n)
    base = rng.integers(0, 20, size=n).astype(np.int64)
    oracle_sizes, oracle_peaks = _per_station_flow_loop(stations, values, base.copy())
    sizes, peaks = _accel.per_station_flow(stations, values, base.copy())
    assert oracle_sizes.tolist() == sizes.tolist()
    assert oracle_peaks.tolist() == peaks.tolist()
    # Peaks never undershoot the base sizes.
    assert (peaks >= base).all()


def test_per_station_flow_empty_deltas():
    base = np.asarray([3, 0, 5], dtype=np.int64)
    empty = np.zeros(0, dtype=np.int64)
    for impl in (_per_station_flow_loop, _accel.per_station_flow):
        sizes, peaks = impl(empty, empty, base.copy())
        assert sizes.tolist() == base.tolist()
        assert peaks.tolist() == base.tolist()


@pytest.mark.parametrize("seed", range(8))
def test_count_transmitting_parity(seed):
    rng = np.random.default_rng(300 + seed)
    rounds = int(rng.integers(0, 300))
    transmitters = rng.integers(-1, 6, size=rounds).astype(np.int64)
    fast = _accel.count_transmitting(transmitters)
    assert type(fast) is int
    assert fast == _count_transmitting_loop(transmitters) == int(
        (transmitters >= 0).sum()
    )

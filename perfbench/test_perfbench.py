"""Tests of the benchmark's own helpers (not of the library)."""

from __future__ import annotations

import cProfile
import json
import pstats
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import calib, check, layers, run
from perfbench.workloads import Outcome

ROOT = Path(__file__).resolve().parent.parent


# -- normalisation ----------------------------------------------------------------
def test_normalised_seconds_rescales_to_reference_speed():
    assert calib.normalised_seconds(2.0, 0.9, ref_ms=0.45) == pytest.approx(1.0)
    assert calib.normalised_seconds(2.0, 0.45, ref_ms=0.45) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        calib.normalised_seconds(1.0, 0.0)


def test_window_median_uses_samples_inside_or_the_nearest():
    samples = [(t / 10, 1.0 if t < 50 else 3.0) for t in range(100)]
    assert calib.window_median(samples, 0.0, 4.0, min_samples=5) == 1.0
    assert calib.window_median(samples, 6.0, 9.0, min_samples=5) == 3.0
    # An interval too short to hold five samples widens around its centre.
    assert calib.window_median(samples, 2.0, 2.05, min_samples=5) == 1.0
    with pytest.raises(ValueError):
        calib.window_median([], 0.0, 1.0)


def test_normalised_interval_follows_drift_within_the_interval():
    ref = calib.REF_CALIB_MS
    # The vCPU runs at reference speed for 2 s, then at half speed for 2 s.
    samples = [(t / 100, ref if t < 200 else 2 * ref) for t in range(400)]
    assert calib.normalised_interval(samples, 0.0, 2.0) == pytest.approx(2.0)
    assert calib.normalised_interval(samples, 2.0, 4.0) == pytest.approx(1.0)
    assert calib.normalised_interval(samples, 0.0, 4.0) == pytest.approx(3.0, rel=0.05)


def test_sampler_records_samples_and_round_trips(tmp_path):
    with calib.Sampler(period=0.005) as sampler:
        total = 0
        for i in range(3_000_000):
            total += i
    assert sampler.samples and all(ms > 0 for _, ms in sampler.samples)
    sampler.dump(tmp_path / "s.json")
    assert calib.Sampler.load(tmp_path / "s.json").samples == sampler.samples


# -- layer attribution ------------------------------------------------------------
QUEUES = ("/x/src/repro/core/queues.py", 142, "remove")
CHANNEL = ("/x/src/repro/channel/kernel.py", 10, "run")
DEQUE_REMOVE = ("~", 0, "<method 'remove' of 'collections.deque' objects>")
EQ = ("<string>", 2, "__eq__")
SORT = ("~", 0, "<built-in method builtins.sorted>")


def _entry(tt, callers):
    nc = sum(v[1] for v in callers.values()) or 1
    return (nc, nc, tt, tt, callers)


SYNTHETIC = {
    QUEUES: _entry(1.0, {}),
    CHANNEL: _entry(0.5, {}),
    DEQUE_REMOVE: _entry(2.0, {QUEUES: (10, 10, 2.0, 5.0)}),
    EQ: _entry(3.0, {DEQUE_REMOVE: (490, 490, 3.0, 3.0)}),
    # One builtin called from two layers: its time splits by call site.
    SORT: _entry(4.0, {QUEUES: (1, 1, 1.0, 1.0), CHANNEL: (3, 3, 3.0, 3.0)}),
}


def test_layer_of_maps_modules_to_layers():
    assert layers.layer_of("/a/src/repro/core/queues.py") == "core.queues"
    assert layers.layer_of("/a/src/repro/core/controller.py") == "algorithms"
    assert layers.layer_of("/a/src/repro/protocols/rrw.py") == "algorithms"
    assert layers.layer_of("/a/src/repro/_accel.py") == "channel"
    assert layers.layer_of("/a/src/repro/sim/cache.py") == "sim.cache"
    assert layers.layer_of("/a/src/repro/sim/worker.py") == "sim.service"
    assert layers.layer_of("/a/src/repro/sim/netclient.py") == "sim.netclient"
    assert layers.layer_of("/a/src/repro/sim/experiments.py") == "sim.executor"
    assert layers.layer_of("/a/src/repro/cli.py") == "other"
    # A checkout that itself lives under a directory named repro.
    assert layers.layer_of("/home/repro/src/repro/adversary/base.py") == "adversary"
    assert layers.layer_of("/a/perfbench/calib.py") == "other"
    assert layers.layer_of("~") is None
    assert layers.layer_of("/usr/lib/python3.11/pickle.py") is None


def test_builtins_and_generated_code_are_charged_to_the_calling_module():
    busy = layers.attribute(SYNTHETIC)
    assert busy["core.queues"] == pytest.approx(1.0 + 2.0 + 3.0 + 1.0)
    assert busy["channel"] == pytest.approx(0.5 + 3.0)
    assert busy["other"] == 0.0
    assert sum(busy.values()) == pytest.approx(sum(e[2] for e in SYNTHETIC.values()))


def test_packet_compares_counts_eq_calls_made_by_deque_methods():
    assert layers.packet_compares(SYNTHETIC) == (490, 10)


def test_attribution_of_a_real_profile():
    from repro.channel.packet import Packet
    from repro.core.queues import PacketQueue

    queue = PacketQueue()
    packets = [Packet(destination=i % 3, injected_at=i, origin=0) for i in range(200)]
    profile = cProfile.Profile()
    profile.enable()
    for packet in packets:
        queue.push(packet)
    profile.disable()
    busy = layers.attribute(pstats.Stats(profile).stats)
    # deque.append and the counter dict updates are builtins called from
    # core/queues.py: none of their time may leak to another layer.
    assert busy["core.queues"] > 0
    assert all(v == 0.0 for k, v in busy.items() if k not in ("core.queues", "other"))


# -- digest check -----------------------------------------------------------------
SUMMARY = {"label": "a", "rounds": 10, "injected": 3, "mean_delay": 1.5, "stable": True}


def test_digest_ignores_the_label_but_not_the_results():
    relabelled = dict(SUMMARY, label="b")
    changed = dict(SUMMARY, injected=4)
    assert check.run_item("k", SUMMARY).digest == check.run_item("k", relabelled).digest
    assert check.run_item("k", SUMMARY).digest != check.run_item("k", changed).digest


def test_tally_checks_every_pass_against_the_first_or_a_record():
    good = [check.run_item("x", SUMMARY), check.Item("t", "abc", runs=5)]
    bad = [check.run_item("x", dict(SUMMARY, stable=False)), check.Item("t", "abc", runs=5)]
    out = Outcome()
    reference = out.tally(good, None)
    assert out.failed == 0 and out.attempted == 6
    out.tally(bad, reference)
    assert out.failed == 1 and out.attempted == 12 and out.errors
    recorded = Outcome()
    recorded.tally(good, {"x": "0" * 16, "t": "abc"})
    assert recorded.failed == 1
    failing = Outcome()
    failing.tally([check.Item("f", "failed")], None)
    assert failing.failed == 1


def test_expected_digests_cover_default_and_held_out_seed():
    data = json.loads(check.EXPECTED.read_text())
    for workload in ("paper", "long-horizon", "sweep-service"):
        assert {"1", "2"} <= set(data[workload])
    # The service runs the F1 grid: its results must equal the in-process ones.
    for key, value in data["sweep-service"]["1"].items():
        assert data["paper"]["1"][key] == value


# -- metric names and units -------------------------------------------------------
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_metrics_run_py_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(
        run.PER_LAYER
    )
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in bench["end_to_end"] + bench["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_every_layer_has_a_busy_time():
    per_layer = {name for name, _, _ in run.PER_LAYER}
    assert all(f"{layer}.busy_s" in per_layer for layer in layers.LAYERS)


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

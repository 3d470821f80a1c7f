"""The benchmark's three workloads.

Every workload drives the library only through its public entry points
and hands it specs generated from the workload seed.  A *pass* is the
unit of work ``wall_s`` reports: passes repeat until ``--seconds`` have
elapsed, and ``wall_s`` is the median normalised pass time.

* ``paper`` — quick Table 1 (``regenerate_table1``) plus F1–F3 at the
  sizes of ``benchmarks/test_bench_figures.py``, serial, no cache.
* ``long-horizon`` — five 100k-round specs run like ``repro sweep
  --cache``: cold (cache miss, ``execute_spec``, ``ResultCache.put`` into a
  fresh directory), then warm (every spec a hit).

  Passes of these two run one at a time, each in a fresh interpreter.
* ``sweep-service`` — ``repro serve`` plus one ``repro worker --server``
  (remote cache, no shared mount) run the 28-spec F1 grid as one job; one
  client, one job in flight.
"""

from __future__ import annotations

import cProfile
import json
import pickle
import pstats
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from . import layers
from .calib import Sampler, normalised_interval
from .check import Item, digest, load_expected, mismatches, run_item, summary_payload

ROOT = Path(__file__).resolve().parent.parent
LAUNCH = Path(__file__).with_name("launch.py")

#: Seed whose digests (and those of one held-out seed) ``expected.json`` records.
DEFAULT_SEED = 1

F1_CURVES = (
    ("Count-Hop", "count-hop", {}),
    ("Orchestra", "orchestra", {}),
    ("k-Cycle", "k-cycle", {"k": 4}),
    ("k-Clique", "k-clique", {"k": 4}),
)
F1_RATES = (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9)
LONG_ROUNDS = 100_000


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    #: Scratch directory inside the checkout, deleted after the run.
    work: Path
    #: In-process calibration samples (SIGPROF, main thread).
    sampler: Sampler
    #: ``perf_counter`` value by which the run must stop starting work.
    deadline: float


@dataclass
class Outcome:
    """What a workload measured; ``run.py`` turns it into metrics."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    wall_s: list[float] = field(default_factory=list)
    raw_s: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    setup_raw_s: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    result_bytes: int = 0
    #: Calibration samples taken where the timed work ran (empty when
    #: that is this process; ``run.py`` then uses its own sampler's).
    calib_samples: list = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    #: Digests every pass was checked against (the first pass's when no
    #: record exists for the seed).
    reference: dict[str, str] = field(default_factory=dict)

    def tally(self, items: list[Item], reference: dict[str, str] | None) -> dict[str, str]:
        """Check one pass's items; returns the reference later passes use."""
        self.attempted += sum(item.runs for item in items)
        if reference is None:
            # A failed run never becomes the reference, so it is flagged below.
            reference = {item.key: item.digest for item in items if item.digest != "failed"}
        self.reference = reference
        for item in mismatches(items, reference):
            self.failed += item.runs
            self.errors.append(f"{item.key}: digest {item.digest} != {reference.get(item.key)}")
        return reference

    def fail(self, runs: int, message: str) -> None:
        self.attempted += runs
        self.failed += runs
        self.errors.append(message)


def _reference(workload: str, seed: int, seeded: bool) -> dict[str, str] | None:
    """Recorded digests; unseeded workloads share the default seed's."""
    found = load_expected(workload, seed)
    if found is None and not seeded:
        found = load_expected(workload, DEFAULT_SEED)
    return found


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0


def _launch_cmd(calib: Path, profile: Path | None, args: list[str]) -> list[str]:
    cmd = [sys.executable, str(LAUNCH), "--calib", str(calib)]
    if profile is not None:
        cmd += ["--profile", str(profile)]
    return cmd + ["--", *args]


def time_cli_startup(ctx: Context, out: Outcome, repeats: int = 7) -> None:
    """Set-up of the in-process workloads: ``repro list`` in a fresh
    interpreter (start-up plus library import), median of ``repeats``."""
    for i in range(repeats):
        calib = ctx.work / f"startup{i}.calib.json"
        start = time.perf_counter()
        subprocess.run(
            _launch_cmd(calib, None, ["list"]), cwd=ROOT, check=True,
            stdout=subprocess.DEVNULL, timeout=60,
        )
        stop = time.perf_counter()
        out.setup_raw_s.append(stop - start)
        out.setup_s.append(normalised_interval(Sampler.load(calib).samples, start, stop))


# -- result accounting ----------------------------------------------------------
def result_fields_bytes(results) -> dict[str, int]:
    """Pickled bytes of ``RunResult``s, split by field: collector
    ``records``, ``delays``, queue and energy series, and the rest."""
    total = records = delays = series = 0
    for r in results:
        c = r.collector
        total += len(pickle.dumps(r))
        records += len(pickle.dumps(c.records))
        delays += len(pickle.dumps(c.delays))
        series += len(pickle.dumps(c.total_queue_series)) + len(pickle.dumps(c.energy_series))
    return {
        "metrics.records_bytes": records,
        "metrics.delays_bytes": delays,
        "metrics.series_bytes": series,
        "metrics.other_bytes": total - records - delays - series,
    }


def result_counts(results) -> dict[str, float]:
    """Counts from public results: injected packets and engine tier shares."""
    injected = rounds = compiled = fallback = lowered = elided = 0
    for r in results:
        injected += r.summary.injected
        rounds += r.rounds
        neg = r.negotiation or {}
        compiled += neg.get("blocks_compiled", 0)
        fallback += neg.get("blocks_fallback", 0)
        lowered += neg.get("lowered_rounds", 0)
        elided += neg.get("quiescent_rounds_elided", 0)
    blocks = compiled + fallback
    return {
        "adversary.packets": injected,
        "channel.compiled_block_share": compiled / blocks if blocks else 0.0,
        "channel.lowered_round_share": lowered / rounds if rounds else 0.0,
        "channel.elided_round_share": elided / rounds if rounds else 0.0,
    }


def profile_layers(stats: dict, traced_raw: float, untraced_raw: float,
                   untraced_s: float) -> dict[str, float]:
    """Per-layer busy seconds, ``trace.overhead`` and the queue-scan counts.

    The profiler slows the calibration loop as well as the work, so the
    traced interval cannot be normalised; ``trace.overhead`` is the raw
    ratio, and a layer's busy time is its profiled self time rescaled by
    ``untraced_s / traced_raw`` (reference seconds of the untraced run).
    """
    busy = layers.attribute(stats)
    compares, removes = layers.packet_compares(stats)
    scale = untraced_s / traced_raw
    metrics = {f"{layer}.busy_s": seconds * scale for layer, seconds in busy.items()}
    metrics["trace.overhead"] = traced_raw / untraced_raw
    metrics["core.queues.packet_compares"] = compares
    metrics["core.queues.compares_per_remove"] = compares / removes if removes else 0.0
    return metrics


def _profiled(fn):
    """Run ``fn()`` under cProfile; returns ``(value, stats dict)``."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        value = fn()
    finally:
        profile.disable()
    return value, pstats.Stats(profile).stats


# -- paper ------------------------------------------------------------------------
def _paper_pass():
    """Quick Table 1 plus F1–F3; returns ``(items, results)``."""
    from repro.sim import experiments as exp

    _table, experiments = exp.regenerate_table1(quick=True)
    items = [
        Item(
            f"T1/{e.experiment_id}",
            digest({"shape_ok": e.shape_ok,
                    "runs": [summary_payload(r.summary) for r in e.runs]}),
            len(e.runs),
        )
        for e in experiments
    ]
    results = [r for e in experiments for r in e.runs]
    figures = (
        ("F1", exp.figure_latency_vs_rate,
         dict(n=8, k=4, rates=F1_RATES, rounds=6000)),
        ("F2", exp.figure_scaling_n, dict(sizes=(4, 6, 8, 10), rho=0.25)),
        ("F3", exp.figure_energy_tradeoff, dict(n=12, caps=(2, 3, 4, 6), rounds=15000)),
    )
    for name, fn, kwargs in figures:
        for curve, series in fn(**kwargs).items():
            for point in series.points:
                key = f"{name}/{curve}/{point.value}"
                if point.failed:
                    items.append(Item(key, "failed"))
                else:
                    items.append(run_item(key, point.result.summary))
                    results.append(point.result)
    return items, results


def _more_passes(ctx: Context, phase_start: float) -> bool:
    """Start another pass?  One when tracing, else until ``--seconds``."""
    now = time.perf_counter()
    return not ctx.trace and now - phase_start < ctx.seconds and now < ctx.deadline


def record_pass(workload: str, seed: int, path: Path) -> None:
    """Child side of :func:`_fresh_passes` (``launch.py --pass``): run one
    pass and write its interval, digests, spans, result bytes, cache hits
    and peak RSS to ``path``."""
    spans: list = []
    errors: list[str] = []
    hits = misses = 0
    start = time.perf_counter()
    if workload == "paper":
        items, results = _paper_pass()
    else:
        cache_dir = path.with_suffix(".cache")
        items, results, cache, errors = _long_pass(long_horizon_specs(seed), cache_dir, spans)
    stop = time.perf_counter()
    if workload == "paper":
        result_bytes = sum(len(pickle.dumps(r)) for r in results)
    else:
        result_bytes = sum(p.stat().st_size for p in cache_dir.glob("*.pkl"))
        hits, misses = cache.hits, cache.misses
    record = {
        "start": start,
        "stop": stop,
        "items": [[item.key, item.digest, item.runs] for item in items],
        "errors": errors,
        "spans": spans,
        "hits": hits,
        "misses": misses,
        "result_bytes": result_bytes,
        "peak_rss_mb": _self_rss_mb(),
    }
    path.write_text(json.dumps(record), encoding="utf-8")


def _fresh_passes(ctx: Context, out: Outcome, workload: str, runs: int):
    """Time passes of ``workload`` until ``--seconds`` have elapsed (one
    when tracing), each in a fresh interpreter.

    A fresh interpreter starts every pass from the cold library state
    (first imports, empty schedule caches) that a user's ``repro`` run
    starts from, so passes are alike however many fit in a run.  Returns
    the last pass's record and the digests the passes were checked
    against.
    """
    reference = _reference(workload, ctx.seed, seeded=workload == "long-horizon")
    record: dict = {}
    phase_start = time.perf_counter()
    while True:
        calib = ctx.work / f"pass{len(out.wall_s)}.calib.json"
        path = ctx.work / f"pass{len(out.wall_s)}.json"
        proc = subprocess.run(
            [sys.executable, str(LAUNCH), "--calib", str(calib), "--pass", workload,
             "--seed", str(ctx.seed), "--out", str(path)],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            out.fail(runs, f"{workload} pass exited {proc.returncode}: {proc.stderr[-2000:]}")
            break
        record = json.loads(path.read_text(encoding="utf-8"))
        start, stop = record["start"], record["stop"]
        samples = Sampler.load(calib).samples
        out.raw_s.append(stop - start)
        out.wall_s.append(normalised_interval(samples, start, stop))
        out.calib_samples.extend(samples)
        for message in record["errors"]:
            out.fail(0, message)
        reference = out.tally([Item(*item) for item in record["items"]], reference)
        out.result_bytes = record["result_bytes"]
        out.peak_rss_mb = max(out.peak_rss_mb, record["peak_rss_mb"])
        if not _more_passes(ctx, phase_start):
            break
    return record, reference


def paper(ctx: Context) -> Outcome:
    out = Outcome()
    time_cli_startup(ctx, out)
    _, reference = _fresh_passes(ctx, out, "paper", runs=91)
    if ctx.trace and not out.failed:
        # The traced pass runs in this process, which has run no pass yet.
        start = time.perf_counter()
        (items, results), stats = _profiled(_paper_pass)
        stop = time.perf_counter()
        out.tally(items, reference)
        out.layers.update(result_counts(results))
        out.layers.update(result_fields_bytes(results))
        out.layers.update(profile_layers(stats, stop - start, out.raw_s[0], out.wall_s[0]))
    return out


# -- long-horizon -----------------------------------------------------------------
def long_horizon_specs(seed: int):
    """RRW and MBTF at n=64 (dense ``random``), Orchestra and Count-Hop at
    n=16 (``random``), k-Cycle at n=64 (``spray``); 100k rounds each."""
    from repro.sim import RunSpec, spec_fragment

    def rand(rho: float) -> dict:
        return spec_fragment("random", rho=rho, beta=2.0, seed=seed)

    return [
        RunSpec.from_fragments(spec_fragment("rrw", n=64), rand(0.9), LONG_ROUNDS),
        RunSpec.from_fragments(spec_fragment("mbtf", n=64), rand(0.9), LONG_ROUNDS),
        RunSpec.from_fragments(spec_fragment("orchestra", n=16), rand(0.9), LONG_ROUNDS),
        RunSpec.from_fragments(spec_fragment("count-hop", n=16), rand(0.5), LONG_ROUNDS),
        RunSpec.from_fragments(
            spec_fragment("k-cycle", n=64, k=8),
            spec_fragment("spray", rho=0.06, beta=2.0),
            LONG_ROUNDS,
        ),
    ]


def _long_pass(specs, cache_dir: Path, spans: list):
    """Cold then warm over a fresh cache; returns
    ``(items, results, cache, errors)``."""
    from repro.sim import ResultCache, execute_spec

    cache = ResultCache(cache_dir)

    def timed(name, fn, *args):
        start = time.perf_counter()
        value = fn(*args)
        spans.append((name, start, time.perf_counter()))
        return value

    items, results, errors = [], [], []
    for spec in specs:
        if timed("get", cache.get, spec) is not None:
            errors.append(f"{spec.algorithm}: cold read hit a fresh cache")
        result = timed("execute", execute_spec, spec)
        timed("put", cache.put, spec, result)
        items.append(run_item(f"LH/{spec.algorithm}", result.summary))
        results.append(result)
    for spec, cold in zip(specs, results):
        warm = timed("get", cache.get, spec)
        if warm is None or warm.summary != cold.summary:
            errors.append(f"{spec.algorithm}: warm read differs from the cold run")
    return items, results, cache, errors


def long_horizon(ctx: Context) -> Outcome:
    out = Outcome()
    time_cli_startup(ctx, out)
    record, reference = _fresh_passes(ctx, out, "long-horizon", runs=5)
    if ctx.trace and not out.failed:
        for op in ("put", "get"):
            out.layers[f"sim.cache.{op}_s"] = sum(
                normalised_interval(out.calib_samples, a, b)
                for name, a, b in record["spans"] if name == op
            )
        out.layers["sim.cache.hit_ratio"] = record["hits"] / max(
            1, record["hits"] + record["misses"]
        )
        # The traced pass runs in this process, which has run no pass yet.
        specs = long_horizon_specs(ctx.seed)
        start = time.perf_counter()
        (items, results, _cache, errors), stats = _profiled(
            lambda: _long_pass(specs, ctx.work / "cache-traced", [])
        )
        stop = time.perf_counter()
        for message in errors:
            out.fail(0, message)
        out.tally(items, reference)
        out.layers.update(result_counts(results))
        out.layers.update(result_fields_bytes(results))
        out.layers.update(profile_layers(stats, stop - start, out.raw_s[0], out.wall_s[0]))
    return out


# -- sweep-service ----------------------------------------------------------------
def f1_specs(tag: str):
    """The F1 grid of ``figure_latency_vs_rate(n=8, k=4)``; ``tag`` suffixes
    every label, so each job's specs have their own cache keys."""
    from repro.sim import RunSpec, spec_fragment

    return [
        RunSpec.from_fragments(
            spec_fragment(key, n=8, **extra),
            spec_fragment("spray", rho=rho, beta=1.0),
            6000,
            label=f"{name}[rho={rho}]{tag}",
        )
        for name, key, extra in F1_CURVES
        for rho in F1_RATES
    ]


def f1_key(spec) -> str:
    return f"F1/{spec.label.split('[')[0]}/{spec.adversary_params['rho']}"


class Service:
    """``repro serve`` plus one ``repro worker --server`` in a private dir.

    Both inherit the benchmark's single-vCPU affinity, publish results to
    the server's cache over HTTP (the worker has no shared mount) and run
    under ``perfbench/launch.py``, which records calibration samples and,
    with ``profile=True``, per-thread profiles.
    """

    def __init__(self, root: Path, *, profile: bool = False) -> None:
        self.root = root
        self.profile = profile
        self.procs: dict[str, subprocess.Popen] = {}
        self.url = ""
        root.mkdir(parents=True)

    def _spawn(self, name: str, args: list[str]) -> None:
        profile = self.root / f"{name}.prof" if self.profile else None
        cmd = _launch_cmd(self.root / f"{name}.calib.json", profile, args)
        with open(self.root / f"{name}.log", "wb") as log:
            self.procs[name] = subprocess.Popen(
                cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT
            )

    def start(self, timeout: float = 60.0) -> None:
        self._spawn("serve", [
            "serve", "--queue-dir", str(self.root / "queue"),
            "--cache-dir", str(self.root / "cache"), "--port", "0",
            "--fallback-after", "600",
        ])
        log = self.root / "serve.log"
        deadline = time.monotonic() + timeout
        while not self.url:
            if self.procs["serve"].poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"repro serve did not start: {log.read_text()[-2000:]}")
            for line in log.read_text(errors="replace").splitlines():
                if "listening on " in line:
                    self.url = line.split("listening on ", 1)[1].strip()
            time.sleep(0.01)
        self._spawn("worker", [
            "worker", "--server", self.url, "--spill-dir", str(self.root / "spill"),
            "--poll", "0.05", "--owner", "bench-worker",
        ])

    def peak_rss_mb(self) -> float:
        return sum(_vm_hwm_mb(p.pid) for p in self.procs.values())

    def stop(self) -> None:
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
        for proc in self.procs.values():
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def clear_profiles(self, settle: float = 0.3) -> None:
        """Restart every child's profiles here (``SIGUSR1``), so they cover
        only the work that follows."""
        for proc in self.procs.values():
            proc.send_signal(signal.SIGUSR1)
        time.sleep(settle)

    def samples(self, name: str = "worker") -> list:
        return Sampler.load(self.root / f"{name}.calib.json").samples

    def cache(self):
        from repro.sim import ResultCache

        return ResultCache(self.root / "cache")


@dataclass
class JobRecord:
    spans: list
    job: dict
    snapshot: dict
    records: list


def run_job(url: str, specs, *, timeout: float = 90.0) -> JobRecord:
    """Submit one batch, wait for it, fetch its records (spanned calls)."""
    from repro.sim.service import fetch_results, submit_batch, wait_for_job

    spans = []
    start = time.perf_counter()
    job = submit_batch(url, [s.to_dict() for s in specs])
    spans.append(("submit", start, time.perf_counter()))
    start = time.perf_counter()
    wait_for_job(url, job["job"], timeout=timeout)
    spans.append(("wait", start, time.perf_counter()))
    start = time.perf_counter()
    records = fetch_results(url, job["job"])
    spans.append(("fetch", start, time.perf_counter()))
    return JobRecord(spans, job, {}, records)


def _job_snapshot(url: str, job_id: str) -> dict:
    from repro.sim import ResilientClient

    return ResilientClient().get_json(f"{url}/api/jobs/{job_id}", key=f"jobs/{job_id}")


def _check_job(out: Outcome, specs, record: JobRecord, reference) -> dict[str, str]:
    items = []
    for spec, rec in zip(specs, record.records):
        if rec.get("status") != "done":
            out.fail(1, f"{spec.label}: service record {rec.get('status')}")
            continue
        items.append(run_item(f1_key(spec), rec["summary"]))
    if len(record.records) != len(specs):
        out.fail(len(specs) - len(record.records), "service returned too few records")
    if record.snapshot.get("served_locally"):
        out.fail(0, f"{record.job['job']}: {record.snapshot['served_locally']} shards "
                    "served locally by the server")
    return out.tally(items, reference)


def _merged_stats(sources) -> dict:
    """One ``pstats`` dict from profile files and/or ``Profile`` objects."""
    merged = pstats.Stats(sources[0])
    for source in sources[1:]:
        merged.add(source)
    return merged.stats


def sweep_service(ctx: Context) -> Outcome:
    out = Outcome()
    reference = _reference("sweep-service", ctx.seed, seeded=False)
    services: list[Service] = []
    setups = []
    try:
        # Set-up: start serve + worker and run one single-spec job, a few times.
        cycles = 1 if ctx.trace else 5
        for i in range(cycles):
            svc = Service(ctx.work / f"setup{i}")
            services.append(svc)
            start = time.perf_counter()
            svc.start()
            run_job(svc.url, f1_specs(f"@{ctx.seed}.setup{i}")[:1])
            setups.append((svc, start, time.perf_counter()))
            if i + 1 < cycles:
                svc.stop()
        # Warm-up job, then the timed closed loop of F1 jobs.
        specs = f1_specs(f"@{ctx.seed}.warm")
        warm = run_job(svc.url, specs)
        warm.snapshot = _job_snapshot(svc.url, warm.job["job"])
        reference = _check_job(out, specs, warm, reference)
        jobs: list[tuple[list, JobRecord]] = []
        phase_start = time.perf_counter()
        while True:
            specs = f1_specs(f"@{ctx.seed}.{len(jobs)}")
            record = run_job(svc.url, specs)
            jobs.append((specs, record))
            stop = time.perf_counter()
            record.snapshot = _job_snapshot(svc.url, record.job["job"])
            reference = _check_job(out, specs, record, reference)
            if ctx.trace and len(jobs) >= 2:
                break
            if stop - phase_start >= ctx.seconds or stop >= ctx.deadline:
                break
        out.peak_rss_mb = svc.peak_rss_mb()
        first_specs = jobs[0][0]
        cached = [svc.cache().get(spec) for spec in first_specs]
        out.result_bytes = sum(
            (svc.root / "cache" / f"{spec.spec_hash()}.pkl").stat().st_size
            for spec in first_specs
        )
        svc.stop()
        for setup_svc, start, stop in setups:
            out.setup_raw_s.append(stop - start)
            out.setup_s.append(normalised_interval(setup_svc.samples(), start, stop))
        samples = svc.samples()
        out.calib_samples.extend(samples)
        for _specs, record in jobs:
            start, stop = record.spans[0][1], record.spans[-1][2]
            out.raw_s.append(stop - start)
            out.wall_s.append(normalised_interval(samples, start, stop))
        if ctx.trace and not out.failed:
            _service_layers(ctx, out, warm, jobs, cached, samples, reference)
    finally:
        for svc in services:
            svc.stop()
    return out


def _service_layers(ctx, out, warm, jobs, cached, samples, reference) -> None:
    """Per-layer metrics of ``sweep-service`` (trace mode)."""
    from repro.sim import execute_spec

    out.layers.update(result_counts(cached))
    out.layers.update(result_fields_bytes(cached))
    for name in ("submit", "wait", "fetch"):
        out.layers[f"sim.service.{name}_s"] = median(
            normalised_interval(samples, a, b)
            for _specs, record in jobs for span, a, b in record.spans if span == name
        )
    first = jobs[0][1]
    out.layers["sim.queue.shards"] = len(first.job.get("shards", []))
    out.layers["sim.service.served_locally"] = sum(
        r.snapshot.get("served_locally", 0) for r in [warm] + [r for _s, r in jobs]
    )
    rpc = first.snapshot.get("rpc", {})
    out.layers["sim.netclient.requests"] = rpc.get("requests", 0)
    out.layers["sim.netclient.retries"] = rpc.get("retries", 0)
    before, after = warm.snapshot.get("cache", {}), first.snapshot.get("cache", {})
    delta = {k: after.get(k, 0) - before.get(k, 0) for k in after}
    out.layers["sim.cache.remote_puts"] = delta.get("puts", 0)
    out.layers["sim.cache.remote_gets"] = delta.get("gets", 0)
    out.layers["sim.cache.hit_ratio"] = delta.get("get_hits", 0) / max(1, delta.get("gets", 0))

    # Per-spec distribution overhead: job time minus the same specs in-process.
    specs = f1_specs(f"@{ctx.seed}.inproc")
    start = time.perf_counter()
    for spec in specs:
        execute_spec(spec)
    inproc = ctx.sampler.normalise(start, time.perf_counter())
    job_s = median(out.wall_s)
    out.layers["sim.service.overhead_per_spec_ms"] = (job_s - inproc) / len(specs) * 1e3

    # Traced job: serve and worker under per-thread profilers, and the
    # client's own calls under a thread-time profiler.
    svc = Service(ctx.work / "traced", profile=True)
    try:
        svc.start()
        run_job(svc.url, f1_specs(f"@{ctx.seed}.traced-probe")[:1])
        svc.clear_profiles()
        specs = f1_specs(f"@{ctx.seed}.traced")
        client = cProfile.Profile(time.thread_time)
        client.enable()
        try:
            record = run_job(svc.url, specs)
        finally:
            client.disable()
    finally:
        svc.stop()
    out.tally([run_item(f1_key(s), r["summary"]) for s, r in zip(specs, record.records)
               if r.get("status") == "done"], reference)
    traced_raw = record.spans[-1][2] - record.spans[0][1]
    stats = _merged_stats(
        [str(svc.root / f"{name}.prof") for name in ("serve", "worker")] + [client]
    )
    out.layers.update(profile_layers(stats, traced_raw, median(out.raw_s), job_s))

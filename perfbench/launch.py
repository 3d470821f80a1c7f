"""Run one ``repro`` CLI command with calibration sampling, optionally profiled.

Usage::

    python3 perfbench/launch.py --calib SAMPLES.json [--profile OUT.prof] -- serve ...
    python3 perfbench/launch.py --calib SAMPLES.json --pass paper --seed 1 --out OUT.json

The command runs through ``repro.cli.main`` exactly as ``python -m repro``
would; ``--pass`` instead runs one pass of the ``paper`` or
``long-horizon`` workload in this fresh interpreter, as a user's run
would.  A :class:`~perfbench.calib.Sampler` times the calibration loop
every 20 ms of this process's CPU time; the samples are written to
``--calib`` when the command returns or on ``SIGINT``, which then ends
the process at once (how ``serve`` and ``worker`` are stopped).  With
``--profile``, every thread runs under its
own ``cProfile`` profiler timed by thread CPU time, so blocking reads,
``select`` and ``sleep`` do not count as busy time; ``SIGUSR1`` clears
the profiles collected so far, and the merged statistics are written to
``--profile`` on exit.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import signal
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.calib import Sampler  # noqa: E402


class ThreadProfiles:
    """One ``cProfile.Profile`` per thread, merged on :meth:`dump`."""

    def __init__(self) -> None:
        self.profiles: list[cProfile.Profile] = []
        self._lock = threading.Lock()

    def _new(self) -> cProfile.Profile:
        profile = cProfile.Profile(time.thread_time)
        with self._lock:
            self.profiles.append(profile)
        return profile

    def _thread_hook(self, frame, event, arg) -> None:
        sys.setprofile(None)
        self._new().enable()

    def start(self) -> None:
        threading.setprofile(self._thread_hook)
        self._new().enable()
        signal.signal(signal.SIGUSR1, self._clear)

    def _clear(self, signum, frame) -> None:
        # Runs in the main thread holding the GIL, so no profiler is
        # mid-callback in another thread.
        with self._lock:
            for profile in self.profiles:
                profile.clear()

    def dump(self, path: str) -> None:
        threading.setprofile(None)
        merged = None
        with self._lock:
            profiles = list(self.profiles)
        for profile in profiles:
            profile.disable()
            try:
                stats = pstats.Stats(profile)
            except TypeError:  # a thread that made no profiled call
                continue
            if merged is None:
                merged = stats
            else:
                merged.add(stats)
        if merged is not None:
            merged.dump_stats(path)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--calib", required=True)
    parser.add_argument("--profile", default=None)
    parser.add_argument("--pass", dest="workload", default=None,
                        choices=("paper", "long-horizon"),
                        help="run one pass of this workload instead of a repro "
                        "command, writing its timing and digests to --out")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=None)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    sampler = Sampler().start()
    profiles = ThreadProfiles() if args.profile else None

    def finish() -> None:
        sampler.stop()
        if profiles is not None:
            profiles.dump(args.profile)
        sampler.dump(args.calib)

    def stop_now(signum, frame) -> None:
        # A KeyboardInterrupt raised here could land in a finaliser, which
        # would swallow it and keep a daemon running: write the results
        # and leave at once instead.
        finish()
        os._exit(0)

    signal.signal(signal.SIGINT, stop_now)
    if profiles is not None:
        profiles.start()
    if args.workload:
        from perfbench.workloads import record_pass

        record_pass(args.workload, args.seed, Path(args.out))
        code = 0
    else:
        from repro.cli import main as repro_main

        code = repro_main(command)
    finish()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_algorithm_and_n(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--n", "5"])

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--algorithm", "nope", "--n", "5"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "orchestra" in out and "k-cycle" in out and "spray" in out

    def test_run_stable_configuration_returns_zero(self, capsys):
        code = main(
            [
                "run",
                "--algorithm", "count-hop",
                "--n", "5",
                "--rho", "0.4",
                "--rounds", "2000",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "STABLE" in out

    def test_run_matches_run_simulation_with_the_same_defaults(self, capsys):
        from repro.adversary import SingleSourceSprayAdversary
        from repro.algorithms import CountHop
        from repro.sim import run_simulation

        assert main(["run", "--algorithm", "count-hop", "--n", "5", "--rounds", "800"]) == 0
        rows = capsys.readouterr().out.splitlines()
        # Defaults: spray adversary at rho=0.5, beta=2.0, energy cap enforced.
        direct = run_simulation(CountHop(5), SingleSourceSprayAdversary(0.5, 2.0), 800)
        assert rows[-1] == direct.summary.format_row()

    def test_run_unstable_configuration_returns_two(self):
        code = main(
            [
                "run",
                "--algorithm", "k-clique",
                "--n", "6",
                "--k", "2",
                "--adversary", "single-target",
                "--rho", "0.9",
                "--rounds", "4000",
            ]
        )
        assert code == 2

    def test_run_negotiation_reports_decline_reasons(self, capsys):
        """--negotiation surfaces *why* blocks were declined, one line
        per driver reason, not just the fallback count."""
        code = main(
            [
                "run",
                "--algorithm", "count-hop",
                "--n", "6",
                "--rho", "0.4",
                "--rounds", "1500",
                "--negotiation",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "block_decline_reasons:" in out
        assert "Report substage is adaptive" in out
        # Reasons are prefixed with their occurrence count.
        assert any(
            line.strip()[0].isdigit() and "x " in line
            for line in out.splitlines()
            if "Report substage" in line
        )

    def test_run_oblivious_algorithm_requires_k(self):
        with pytest.raises(SystemExit):
            main(["run", "--algorithm", "k-cycle", "--n", "9", "--rounds", "100"])

    def test_sweep(self, capsys):
        code = main(
            [
                "sweep",
                "--algorithm", "count-hop",
                "--n", "5",
                "--rates", "0.2,0.5",
                "--rounds", "1500",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "series: count-hop" in out
        assert out.count("stable") + out.count("UNSTABLE") >= 2

    @pytest.mark.parallel
    def test_sweep_parallel_matches_serial(self, capsys):
        argv = [
            "sweep",
            "--algorithm", "count-hop",
            "--n", "4",
            "--rates", "0.2,0.4,0.6",
            "--rounds", "600",
        ]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out

    def test_sweep_with_cache_dir_reuses_runs(self, capsys, tmp_path):
        argv = [
            "sweep",
            "--algorithm", "count-hop",
            "--n", "4",
            "--rates", "0.3",
            "--rounds", "500",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert len(list(tmp_path.glob("*.pkl"))) == 1
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_sweep_fault_tolerant_flags_match_plain_run(self, capsys, tmp_path):
        base = [
            "sweep",
            "--algorithm", "count-hop",
            "--n", "4",
            "--rates", "0.2,0.5",
            "--rounds", "500",
        ]
        assert main(base) == 0
        plain = capsys.readouterr().out
        manifest_path = tmp_path / "manifest.json"
        assert main(
            base
            + [
                "--max-retries", "2",
                "--spec-timeout", "120",
                "--manifest", str(manifest_path),
            ]
        ) == 0
        assert capsys.readouterr().out == plain  # supervision changes nothing
        manifest = json.loads(manifest_path.read_text())
        assert len(manifest["entries"]) == 2
        assert all(e["status"] == "done" for e in manifest["entries"].values())

    def test_sweep_resume_requires_manifest(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(
                [
                    "sweep",
                    "--algorithm", "count-hop",
                    "--n", "4",
                    "--rates", "0.2",
                    "--resume",
                ]
            )
        assert info.value.code == 2
        assert "--resume requires --manifest" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--algorithm", "k-cycle", "--n", "4", "--k", "9"],
            ["run", "--algorithm", "k-cycle", "--n", "4", "--k", "2", "--rho", "1.5"],
            ["run", "--algorithm", "k-cycle", "--n", "4", "--k", "2", "--rounds", "0"],
            ["run", "--algorithm", "k-cycle", "--n", "4", "--k", "2", "--beta", "nan"],
            ["run", "--algorithm", "k-cycle", "--n", "4", "--k", "2", "--beta", "inf"],
            ["run", "--algorithm", "k-cycle", "--n", "4"],
            ["sweep", "--algorithm", "k-cycle", "--n", "4", "--k", "2",
             "--rates", "0.1,abc", "--rounds", "100"],
            ["sweep", "--algorithm", "k-cycle", "--n", "4", "--k", "2",
             "--rates", ",", "--rounds", "100"],
            ["sweep", "--algorithm", "k-cycle", "--n", "4", "--k", "2",
             "--rates", "0.1,1.5", "--rounds", "100"],
            ["sweep", "--algorithm", "k-cycle", "--n", "4", "--rates", "0.1",
             "--rounds", "100"],
            ["sweep", "--algorithm", "k-cycle", "--n", "4", "--k", "2",
             "--rates", "0.1", "--rounds", "100", "--resume"],
        ],
    )
    def test_bad_model_parameters_exit_2_with_usage(self, argv, capsys):
        # Each used to print a traceback (exit 1), exit 1 without a usage
        # line, or (an empty rate list) print an empty table and exit 0.
        with pytest.raises(SystemExit) as info:
            main(argv)
        err = capsys.readouterr().err
        assert info.value.code == 2
        assert "usage:" in err and "Traceback" not in err

    def test_sweep_resume_skips_quarantined_points(self, capsys, tmp_path):
        manifest_path = tmp_path / "manifest.json"
        argv = [
            "sweep",
            "--algorithm", "count-hop",
            "--n", "4",
            "--rates", "0.3",
            "--rounds", "400",
            "--adversary", "single-target",
            "--max-retries", "0",
            "--manifest", str(manifest_path),
        ]
        # Pre-record the sweep's only point as failed, as an interrupted
        # fault-tolerant run would have; --resume must surface it as a
        # FAILED row (exit 3) without re-executing.
        from repro.cli import _adversary_fragment, _algorithm_fragment
        from repro.sim import FailedResult, SweepManifest
        from repro.sim.specs import RunSpec

        spec = RunSpec.from_fragments(
            _algorithm_fragment("count-hop", 4, None),
            _adversary_fragment("single-target", 0.3, 2.0, None),
            400,
            label="count-hop[rho=0.3]",
        )
        manifest = SweepManifest(manifest_path)
        manifest.record_failed(
            spec,
            FailedResult(
                spec=spec, error="boom", error_type="TransientFault", attempts=1
            ),
        )
        assert main(argv + ["--resume"]) == 3
        captured = capsys.readouterr()
        assert "FAILED after 1 attempt(s): TransientFault: boom" in captured.out
        assert "1 point(s) quarantined" in captured.err

    def test_sweep_help_documents_fault_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        out = capsys.readouterr().out
        for flag in ("--max-retries", "--spec-timeout", "--manifest", "--resume"):
            assert flag in out

    def test_run_seed_changes_stochastic_traffic(self, capsys):
        def run_with_seed(seed):
            code = main(
                [
                    "run",
                    "--algorithm", "count-hop",
                    "--n", "5",
                    "--adversary", "random",
                    "--rho", "0.5",
                    "--rounds", "800",
                    "--seed", seed,
                ]
            )
            assert code == 0
            return capsys.readouterr().out

        assert "seed=3" in run_with_seed("3")
        assert run_with_seed("3") == run_with_seed("3")
        assert run_with_seed("3") != run_with_seed("4")

    def test_list_includes_registry_adversaries(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("hotspot", "random-walk", "group-local", "saturating"):
            assert name in out


class TestDistributedCommands:
    def test_worker_requires_server(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker"])
        with pytest.raises(SystemExit):  # the shared-directory mode is gone
            build_parser().parse_args(["worker", "--queue-dir", "q"])

    def test_serve_queue_dir_is_optional_and_still_accepted(self):
        assert build_parser().parse_args(["serve"]).queue_dir is None
        args = build_parser().parse_args(["serve", "--queue-dir", "q"])
        assert args.queue_dir == "q"

    @pytest.mark.parametrize(
        "argv",
        [
            ["worker", "--server", "http://127.0.0.1:1", "--poll", "-1"],
            ["worker", "--server", "http://127.0.0.1:1", "--poll", "nan"],
            ["worker", "--server", "http://127.0.0.1:1", "--rpc-timeout", "nan"],
            ["worker", "--server", "http://127.0.0.1:1", "--rpc-timeout", "inf"],
            ["worker", "--server", "http://127.0.0.1:1", "--rpc-breaker-reset", "nan"],
            ["worker", "--server", "http://127.0.0.1:1", "--max-idle", "-2"],
            ["serve", "--lease-ttl", "0"],
            ["serve", "--lease-ttl", "nan"],
            ["serve", "--fallback-after", "nan"],
            ["serve", "--shard-size", "0"],
            ["submit", "--server", "http://127.0.0.1:1", "--algorithm", "k-cycle",
             "--n", "4", "--k", "2", "--shard-size", "0"],
            ["submit", "--server", "http://127.0.0.1:1", "--algorithm", "k-cycle",
             "--n", "4", "--k", "2", "--timeout", "nan"],
            ["worker", "--server", "http://127.0.0.1:1", "--fault-stall-seconds", "nan"],
            ["worker", "--server", "http://127.0.0.1:1", "--fault-stall-seconds", "-1"],
            ["serve", "--fault-stall-seconds", "inf"],
            ["sweep", "--algorithm", "k-cycle", "--n", "4", "--k", "2",
             "--rates", "0.1", "--rounds", "200", "--spec-timeout", "nan"],
            ["sweep", "--algorithm", "k-cycle", "--n", "4", "--k", "2",
             "--rates", "0.1", "--rounds", "200", "--spec-timeout", "inf"],
            ["sweep", "--algorithm", "k-cycle", "--n", "4", "--k", "2",
             "--rates", "0.1", "--rounds", "200", "--spec-timeout", "0"],
            # Retry budgets, fault budgets and fault rates: each used to
            # pass the parser and exit 1 with the library's ValueError.
            ["sweep", "--algorithm", "k-cycle", "--n", "4", "--k", "2",
             "--rates", "0.1", "--rounds", "200", "--max-retries", "-1"],
            ["worker", "--server", "http://127.0.0.1:1", "--max-retries", "-1"],
            ["worker", "--server", "http://127.0.0.1:1", "--fault-budget", "-3"],
            ["serve", "--fault-budget", "-1"],
            ["worker", "--server", "http://127.0.0.1:1", "--fault-kill-rate", "nan"],
            ["worker", "--server", "http://127.0.0.1:1", "--fault-kill-rate", "1.5"],
            ["worker", "--server", "http://127.0.0.1:1", "--fault-lease-rate", "-0.1"],
            ["worker", "--server", "http://127.0.0.1:1",
             "--fault-transient-rate", "inf"],
            ["worker", "--server", "http://127.0.0.1:1",
             "--fault-net-refuse-rate", "nan"],
            ["serve", "--fault-net-timeout-rate", "2"],
            ["serve", "--fault-net-torn-rate", "-1"],
            ["serve", "--fault-net-error-rate", "inf"],
            ["worker", "--server", "http://127.0.0.1:1",
             "--fault-net-corrupt-rate", "nan"],
        ],
    )
    def test_bad_service_timing_or_sizing_exits_2_with_usage(self, argv, capsys):
        # Each used to crash later with a traceback, or (a NaN TTL or
        # fallback) to switch work stealing or the fallback off silently.
        # The parser alone is exercised, so a regression cannot boot a
        # server that blocks the test.
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(argv)
        err = capsys.readouterr().err
        assert info.value.code == 2
        assert "usage:" in err and "Traceback" not in err

    def test_fault_and_retry_bounds_are_accepted(self):
        args = build_parser().parse_args(
            ["worker", "--server", "http://127.0.0.1:1", "--max-retries", "0",
             "--fault-budget", "0", "--fault-kill-rate", "1",
             "--fault-net-torn-rate", "0"]
        )
        assert (args.max_retries, args.fault_budget) == (0, 0)
        assert (args.fault_kill_rate, args.fault_net_torn_rate) == (1.0, 0.0)

    def test_submit_requires_server(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["submit", "--algorithm", "k-cycle", "--n", "4", "--k", "2"]
            )

    def test_worker_drains_an_enqueued_sweep(self, capsys, tmp_path, monkeypatch):
        import threading

        from repro.sim import (
            ResultCache, RunSpec, SweepService, make_server, spec_fragment,
        )

        # The real CLI marks its whole process a disposable worker (so
        # kill coins os._exit it); running in-process here, that flag
        # would leak into every later test in this pytest process.
        monkeypatch.setattr("repro.cli.mark_worker_process", lambda: None)
        service = SweepService(
            tmp_path / "cache", lease_ttl=5.0, fallback_after=60.0, poll=0.05,
        )
        server = make_server(service, "127.0.0.1", 0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        specs = [
            RunSpec.from_fragments(
                spec_fragment("k-cycle", n=4, k=2),
                spec_fragment("spray", rho=0.2, beta=1.5),
                300,
            )
        ]
        try:
            service.submit(specs, shard_size=1)
            code = main(
                ["worker",
                 "--server", f"http://127.0.0.1:{server.server_address[1]}",
                 "--spill-dir", str(tmp_path / "spill"),
                 "--poll", "0.05", "--exit-when-drained"]
            )
        finally:
            service.close()
            server.shutdown()
            server.server_close()
        assert code == 0
        assert "1/1 shards" in capsys.readouterr().err
        assert service.queue.drained()
        assert ResultCache(tmp_path / "cache").get(specs[0]) is not None
        assert not (tmp_path / "spill").exists()  # accepted and ignored

    def test_submit_to_a_dead_server_fails_without_a_traceback(self, capsys):
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]  # nothing listens here
        with pytest.raises(SystemExit) as info:
            main(["submit", "--server", f"http://127.0.0.1:{port}",
                  "--algorithm", "k-cycle", "--n", "4", "--k", "2",
                  "--rates", "0.1", "--rounds", "300"])
        assert str(info.value).startswith("submit failed: ")

    def test_submit_fails_fast_when_the_server_forgot_the_job(
        self, tmp_path, monkeypatch
    ):
        import threading
        import time

        from repro.sim import SweepService, make_server

        # The server restarted between the submit and the wait: it
        # answers the job's stream with 404.
        monkeypatch.setattr(
            "repro.sim.service.submit_batch", lambda *a, **k: {"job": "job-999"}
        )
        service = SweepService(tmp_path / "cache", poll=0.05)
        server = make_server(service, "127.0.0.1", 0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        start = time.monotonic()
        try:
            with pytest.raises(SystemExit) as info:
                main(["submit",
                      "--server", f"http://127.0.0.1:{server.server_address[1]}",
                      "--algorithm", "k-cycle", "--n", "4", "--k", "2",
                      "--rates", "0.1", "--rounds", "300", "--timeout", "30"])
        finally:
            service.close()
            server.shutdown()
            server.server_close()
        assert str(info.value).startswith("submit failed: ")
        assert "job-999" in str(info.value)
        assert time.monotonic() - start < 5.0

    def test_submit_round_trips_through_a_live_server(self, capsys, tmp_path):
        import threading

        from repro.sim import SweepService, make_server

        service = SweepService(
            tmp_path / "cache", shard_size=2, fallback_after=0.2, poll=0.05,
        )
        server = make_server(service, "127.0.0.1", 0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            code = main(
                ["submit",
                 "--server", f"http://127.0.0.1:{server.server_address[1]}",
                 "--algorithm", "k-cycle", "--n", "4", "--k", "2",
                 "--rates", "0.1,0.3", "--rounds", "300"]
            )
        finally:
            service.close()
            server.shutdown()
            server.server_close()
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("STABLE") + out.count("UNSTABLE") == 2

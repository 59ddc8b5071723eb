"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "hmmer"])
        assert args.cores == 4
        assert args.fabric == "f2"

    def test_run_overrides(self):
        args = build_parser().parse_args(
            ["run", "mcf", "--cores", "6", "--fabric", "axi"])
        assert args.cores == 6
        assert args.fabric == "axi"

    def test_bad_fabric_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "mcf", "--fabric", "pcie"])

    def test_figure_choices(self):
        args = build_parser().parse_args(["figure", "tab3"])
        assert args.name == "tab3"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "swaptions" in out and "mcf" in out

    def test_run_small(self, capsys):
        code = main(["run", "hmmer", "--instructions", "3000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "slowdown" in out
        assert "all verified    : True" in out

    def test_inject_small(self, capsys):
        code = main(["inject", "dedup", "--instructions", "4000",
                     "--trials", "1", "--rate", "0.05"])
        out = capsys.readouterr().out
        assert code == 0
        assert "injections" in out

    def test_figure_tab3(self, capsys):
        assert main(["figure", "tab3"]) == 0
        assert "25.8%" in capsys.readouterr().out


class TestBatch:
    def test_batch_parses(self):
        args = build_parser().parse_args(["batch", "-", "--keep-going"])
        assert args.command == "batch" and args.keep_going

    def test_batch_runs_commands_in_one_process(self, tmp_path, capsys):
        script = tmp_path / "cmds.txt"
        script.write_text(
            "# comment lines and blanks are skipped\n"
            "\n"
            "list\n"
            "repro run hmmer --instructions 2000\n")
        assert main(["batch", str(script)]) == 0
        out = capsys.readouterr().out
        assert "swaptions" in out          # from `list`
        assert "slowdown" in out           # from `run`
        assert "2 command(s), 0 failed" in out

    def test_batch_stops_on_failure_without_keep_going(self, tmp_path,
                                                       capsys):
        script = tmp_path / "cmds.txt"
        script.write_text("definitely-not-a-command\nlist\n")
        assert main(["batch", str(script)]) == 1
        out = capsys.readouterr().out
        assert "swaptions" not in out      # second line never ran

    def test_batch_keep_going_runs_rest(self, tmp_path, capsys):
        script = tmp_path / "cmds.txt"
        script.write_text("definitely-not-a-command\nlist\n")
        assert main(["batch", str(script), "--keep-going"]) == 1
        out = capsys.readouterr().out
        assert "swaptions" in out
        assert "1 failed" in out

    def test_batch_malformed_line_is_counted_failure(self, tmp_path,
                                                     capsys):
        """An unbalanced quote must be a per-line failure (honouring
        --keep-going), never an uncaught shlex traceback."""
        script = tmp_path / "cmds.txt"
        script.write_text('run swaptions --note "oops\nlist\n')
        assert main(["batch", str(script), "--keep-going"]) == 1
        out = capsys.readouterr().out
        assert "swaptions" in out  # the good line still ran
        assert "1 failed" in out

    def test_batch_handler_exception_is_counted_failure(self, tmp_path,
                                                        capsys):
        """A command whose handler raises (e.g. unknown workload ->
        ConfigError) fails that line only; --keep-going proceeds."""
        script = tmp_path / "cmds.txt"
        script.write_text("run nosuchworkload --instructions 100\nlist\n")
        assert main(["batch", str(script), "--keep-going"]) == 1
        out = capsys.readouterr().out
        assert "swaptions" in out  # `list` still ran
        assert "2 command(s), 1 failed" in out

    def test_batch_rejects_nesting(self, tmp_path):
        inner = tmp_path / "inner.txt"
        inner.write_text("list\n")
        outer = tmp_path / "outer.txt"
        outer.write_text(f"batch {inner}\n")
        assert main(["batch", str(outer)]) == 1

    def test_batch_missing_file(self, capsys):
        assert main(["batch", "/no/such/command/file"]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestWatchCommand:
    def test_watch_parses(self):
        args = build_parser().parse_args(
            ["watch", "r.jsonl", "--once", "--interval", "0.5"])
        assert args.command == "watch"
        assert args.once and args.interval == 0.5

    def test_watch_once_on_finished_campaign(self, tmp_path, capsys):
        """campaign --out publishes status.json; watch --once reads it."""
        out = tmp_path / "results.jsonl"
        assert main(["campaign", "--workloads", "hmmer", "--seeds", "0",
                     "--instructions", "2000", "--out", str(out)]) == 0
        assert (tmp_path / "results.jsonl.status.json").exists()
        capsys.readouterr()
        assert main(["watch", "--once", str(out)]) == 0
        view = capsys.readouterr().out
        assert "finished" in view
        assert "points    : 2/2" in view
        assert "instrs" in view

    def test_watch_once_in_flight_sharded_campaign(self, tmp_path):
        """The acceptance path: a sharded campaign is *running* in
        another process while `repro watch --once` renders its live
        percentiles/throughput/shard table from status.json."""
        import os
        import subprocess
        import sys
        import time

        import repro
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = (src_dir + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else src_dir)
        out = tmp_path / "inflight.jsonl"
        status = tmp_path / "inflight.jsonl.status.json"
        argv = [sys.executable, "-m", "repro", "campaign",
                "--workloads", "hmmer,dedup", "--seeds", "0,1",
                "--task", "inject", "--trials", "4",
                "--instructions", "4000", "--jobs", "2",
                "--out", str(out)]
        proc = subprocess.Popen(argv, env=env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 60.0
            while not status.exists() and time.monotonic() < deadline:
                if proc.poll() is not None:
                    break
                time.sleep(0.05)
            assert status.exists(), "campaign never published status.json"
            watched = subprocess.run(
                [sys.executable, "-m", "repro", "watch", "--once",
                 str(out)],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                timeout=60.0)
            assert watched.returncode == 0, watched.stderr.decode()
            view = watched.stdout.decode()
            assert "campaign cli —" in view
            assert "points    :" in view
            assert "rate      :" in view
        finally:
            assert proc.wait(timeout=120.0) == 0

    def test_watch_missing_path_fails(self, tmp_path, capsys):
        assert main(["watch", "--once", "--wait", "0",
                     str(tmp_path / "absent.jsonl")]) == 2
        assert "watch:" in capsys.readouterr().err


class TestBenchTrend:
    def test_trend_flags_parse(self):
        args = build_parser().parse_args(["bench", "--trend"])
        assert args.trend and args.history.endswith("BENCH_history.jsonl")

    def test_trend_empty_history(self, tmp_path, capsys):
        assert main(["bench", "--trend", "--history",
                     str(tmp_path / "none.jsonl")]) == 0
        assert "no history" in capsys.readouterr().out

    def test_trend_renders_recorded_runs(self, tmp_path, capsys):
        from repro.perf.history import append_history

        history = tmp_path / "hist.jsonl"
        for meek in (2.0, 2.2, 1.9):
            result = {"workloads": {"hmmer": {"meek": {
                          "instrs_per_s": 100_000.0 * meek}}},
                      "kernels": {"meek_speedup": meek,
                                  "vanilla_speedup": 2.4},
                      "config": {"instructions": 20_000, "cores": 4}}
            append_history(result, path=str(history), sha="abc1234")
        assert main(["bench", "--trend", "--history", str(history)]) == 0
        out = capsys.readouterr().out
        assert "kernels/meek_speedup" in out
        assert "hmmer/meek/instrs_per_s" in out
        assert "+" in out or "-" in out  # the change column rendered

    def test_trend_reports_insufficient_history(self, tmp_path, capsys):
        """Too few runs for the slope check is said out loud, never
        reported as a passing check."""
        from repro.perf.history import append_history

        history = tmp_path / "hist.jsonl"
        result = {"workloads": {"hmmer": {"meek": {"instrs_per_s": 1e5}}},
                  "config": {"instructions": 20_000, "cores": 4}}
        for runs in (1, 2, 3, 4):
            append_history(result, path=str(history), sha="abc1234")
            assert main(["bench", "--trend", "--history",
                         str(history)]) == 0
            out = capsys.readouterr().out
            if runs < 4:
                assert f"insufficient history: {runs} < 4 runs" in out
                assert "trend check   : OK" not in out
            else:
                assert "insufficient history" not in out
                assert "trend check   : OK" in out

    def test_trend_series_keyed_by_bench_config(self, tmp_path, capsys):
        """Records from different batch-kernel configs form separate
        series: a lane-count change is a new series, not a slope."""
        from repro.perf.history import (append_history, load_history,
                                        metric_series, trend_violations)

        history = tmp_path / "hist.jsonl"
        for lanes, speedup in ((64, 2.2),) * 4 + ((32, 1.4),) * 4:
            result = {"kernels": {"meek_speedup": 2.0},
                      "batch_kernel": {"workload": "swaptions",
                                       "instructions": 20_000,
                                       "rate": 0.0005, "lanes": lanes,
                                       "batch_speedup": speedup},
                      "config": {"instructions": 20_000, "cores": 4}}
            append_history(result, path=str(history), sha="abc1234")
        records = load_history(str(history))
        series = metric_series(records)
        speedups = {label: values for label, values in series.items()
                    if label.startswith("batch_kernel/batch_speedup")}
        assert sorted(speedups.values()) == [[1.4] * 4, [2.2] * 4]
        assert all("lanes=" in label for label in speedups)
        # The config-independent metric still forms one series.
        assert series["kernels/meek_speedup"] == [2.0] * 8
        assert trend_violations(records) == []
        assert main(["bench", "--trend", "--history", str(history)]) == 0
        out = capsys.readouterr().out
        assert "lanes=64" in out and "lanes=32" in out
        assert "trend check   : OK" in out


# -- the serve family: serve / submit / queue / cancel / watch-by-rid ------


class TestServeParser:
    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "--jobs", "4", "--state-dir", "/tmp/sd",
             "--socket", "/tmp/sd/s.sock", "--events", "ev.jsonl"])
        assert args.command == "serve"
        assert args.jobs == 4 and not args.stop
        assert args.state_dir == "/tmp/sd"

    def test_serve_stop_flag(self):
        args = build_parser().parse_args(["serve", "--stop"])
        assert args.stop

    def test_submit_shares_campaign_grid_flags(self):
        args = build_parser().parse_args(
            ["submit", "--workloads", "dedup,hmmer", "--seeds", "0,1",
             "--cores", "2,4", "--priority", "5", "--detach",
             "--jobs", "2"])
        assert args.command == "submit"
        assert args.workloads == ["dedup", "hmmer"]
        assert args.cores == [2, 4]
        assert args.priority == 5 and args.detach

    def test_submit_defaults(self):
        args = build_parser().parse_args(["submit", "--spec", "s.json"])
        assert args.priority == 0
        assert not args.detach
        assert args.socket is None and args.state_dir is None

    def test_queue_parses(self):
        args = build_parser().parse_args(["queue", "--socket", "/tmp/x"])
        assert args.command == "queue" and args.socket == "/tmp/x"

    def test_cancel_rid_and_modes(self):
        args = build_parser().parse_args(["cancel", "7", "--pause"])
        assert args.rid == 7 and args.pause and not args.requeue
        with pytest.raises(SystemExit):  # mutually exclusive
            build_parser().parse_args(["cancel", "7", "--pause",
                                       "--requeue"])

    def test_watch_takes_serve_flags(self):
        args = build_parser().parse_args(
            ["watch", "3", "--state-dir", "/tmp/sd", "--once"])
        assert args.path == "3" and args.state_dir == "/tmp/sd"

    def test_batch_rejects_serve_line(self, tmp_path, capsys):
        script = tmp_path / "cmds.txt"
        script.write_text("serve --jobs 2\nlist\n")
        assert main(["batch", str(script), "--keep-going"]) == 1
        out = capsys.readouterr()
        assert "start the master outside the batch" in out.err
        assert "swaptions" in out.out  # the rest of the batch still ran

    def test_batch_jobs_flag_parses(self):
        args = build_parser().parse_args(["batch", "x.txt",
                                          "--jobs", "4"])
        assert args.jobs == 4

    def test_batch_jobs_fans_out_and_replays_in_order(self, tmp_path,
                                                      capsys):
        script = tmp_path / "cmds.txt"
        script.write_text("# comment\nlist\nlist\n")
        assert main(["batch", str(script), "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("swaptions") >= 2
        assert "2 command(s), 0 failed" in out

    def test_batch_jobs_counts_failures(self, tmp_path, capsys):
        script = tmp_path / "cmds.txt"
        script.write_text("list\nrun nosuchworkload\n")
        assert main(["batch", str(script), "--jobs", "2"]) == 1
        out = capsys.readouterr()
        assert "1 failed" in out.out

    def test_batch_jobs_blocks_runner_lines(self, tmp_path, capsys):
        script = tmp_path / "cmds.txt"
        script.write_text("runner --connect 127.0.0.1:9\n")
        assert main(["batch", str(script), "--jobs", "2"]) == 1
        assert "cannot run inside a batch" in capsys.readouterr().err

    def test_runner_parser_requires_connect(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["runner"])
        args = build_parser().parse_args(
            ["runner", "--connect", "host:7100", "--name", "r1",
             "--max-chunks", "3", "--idle-exit", "5"])
        assert args.connect == "host:7100" and args.name == "r1"
        assert args.max_chunks == 3 and args.idle_exit == 5.0

    def test_runner_without_master_fails_cleanly(self, capsys):
        code = main(["runner", "--connect", "127.0.0.1:1",
                     "--no-reconnect"])
        assert code == 2
        assert "runner:" in capsys.readouterr().err

    def test_campaign_runner_flags_parse(self):
        args = build_parser().parse_args(
            ["campaign", "--workloads", "dedup", "--runners", "7100",
             "--min-runners", "2", "--runner-wait", "5"])
        assert args.runners == "7100"
        assert args.min_runners == 2 and args.runner_wait == 5.0


class TestEventsSummarize:
    def _log(self, tmp_path):
        from repro.obs.events import EventLog

        path = str(tmp_path / "events.jsonl")
        log = EventLog(path)
        log.emit("campaign_start", campaign="c", points=2, pending=2,
                 resumed=0)
        log.emit("chunk_lease", worker=0, chunk=0, points=2)
        log.emit("point_complete", worker=0, point_id="p/slow",
                 ok=True, elapsed_s=0.5)
        log.emit("point_complete", worker=0, point_id="p/fast",
                 ok=False, elapsed_s=0.1)
        log.emit("campaign_end", campaign="c", dur_s=0.7, failed=1)
        return path

    def test_summarize_reports_all_sections(self, tmp_path, capsys):
        path = self._log(tmp_path)
        assert main(["events", "summarize", path]) == 0
        out = capsys.readouterr().out
        assert "wall time by phase" in out
        assert "campaigns" in out and "shards and runners" in out
        assert "chunks    : 1 lease(s), 2 point(s)" in out
        assert "p/slow" in out and "FAIL" in out

    def test_top_limits_the_slowest_table(self, tmp_path, capsys):
        path = self._log(tmp_path)
        assert main(["events", "summarize", path, "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert "slowest 1 point(s)" in out
        assert "p/fast" not in out  # only the slowest survives

    def test_empty_log_fails_cleanly(self, tmp_path, capsys):
        empty = tmp_path / "none.jsonl"
        empty.write_text("")
        assert main(["events", "summarize", str(empty)]) == 2
        assert "no events" in capsys.readouterr().err


class TestServeCommands:
    @pytest.fixture()
    def serve_env(self, monkeypatch):
        import tempfile

        from repro.perf.service import ExecutionService
        from repro.serve.master import Master

        state_dir = tempfile.mkdtemp(prefix="sc", dir="/tmp")
        monkeypatch.setenv("REPRO_SERVE_DIR", state_dir)
        monkeypatch.delenv("REPRO_SERVE_SOCKET", raising=False)
        master = Master(state_dir=state_dir, service=ExecutionService())
        master.start()
        yield master
        master.stop()

    def spec_file(self, tmp_path, n=3):
        import json

        from repro.campaign import task

        @task("cli_serve_echo")
        def _cli_serve_echo(point, campaign_name=""):
            return {"value": point.seed + 1}

        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "name": "cli-serve", "points": [
                {"task": "cli_serve_echo", "workload": "w",
                 "instructions": 100, "seed": seed}
                for seed in range(n)]}))
        return str(path)

    def test_submit_streams_rows_and_summary(self, serve_env, tmp_path,
                                             capsys):
        assert main(["submit", "--spec",
                     self.spec_file(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "submitted run 1: cli-serve (3 points" in out
        assert "3/3 ok" in out

    def test_submit_detach_just_prints_rid(self, serve_env, tmp_path,
                                           capsys):
        assert main(["submit", "--detach", "--spec",
                     self.spec_file(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "submitted run 1" in out
        assert "ok" not in out  # no summary: we did not wait

    def test_queue_lists_runs_after_submit(self, serve_env, tmp_path,
                                           capsys):
        assert main(["submit", "--spec", self.spec_file(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["queue"]) == 0
        out = capsys.readouterr().out
        assert "cli-serve" in out and "done" in out
        assert "master pid" in out

    def test_cancel_finished_run_is_bad_state(self, serve_env, tmp_path,
                                              capsys):
        assert main(["submit", "--spec", self.spec_file(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["cancel", "1"]) == 2
        assert "bad_state" in capsys.readouterr().err

    def test_cancel_unknown_rid_not_found(self, serve_env, capsys):
        assert main(["cancel", "99"]) == 2
        assert "not_found" in capsys.readouterr().err

    def test_watch_rid_live_over_socket(self, serve_env, tmp_path,
                                        capsys):
        assert main(["submit", "--spec", self.spec_file(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["watch", "1", "--once"]) == 0
        view = capsys.readouterr().out
        assert "run 1" in view and "cli-serve" in view

    def test_watch_rid_falls_back_to_store_after_master_dies(
            self, serve_env, tmp_path, capsys):
        assert main(["submit", "--spec", self.spec_file(tmp_path)]) == 0
        serve_env.stop()                     # master gone; store remains
        capsys.readouterr()
        assert main(["watch", "1", "--once", "--wait", "2"]) == 0
        view = capsys.readouterr().out
        assert "cli-serve" in view
        assert "points    : 3/3" in view

    def test_watch_unknown_rid_fails_cleanly(self, serve_env, capsys):
        assert main(["watch", "42", "--once", "--wait", "0"]) == 2
        assert "42" in capsys.readouterr().err

    def test_submit_without_master_fails_cleanly(self, monkeypatch,
                                                 tmp_path, capsys):
        import tempfile

        monkeypatch.setenv("REPRO_SERVE_DIR",
                           tempfile.mkdtemp(prefix="nm", dir="/tmp"))
        monkeypatch.delenv("REPRO_SERVE_SOCKET", raising=False)
        assert main(["submit", "--spec",
                     self.spec_file(tmp_path)]) == 2
        assert "no master" in capsys.readouterr().err

    def test_serve_stop_without_master_fails_cleanly(self, monkeypatch,
                                                     capsys):
        import tempfile

        monkeypatch.setenv("REPRO_SERVE_DIR",
                           tempfile.mkdtemp(prefix="nm", dir="/tmp"))
        monkeypatch.delenv("REPRO_SERVE_SOCKET", raising=False)
        assert main(["serve", "--stop"]) == 2
        assert "cannot stop" in capsys.readouterr().err

    def test_serve_stop_shuts_down_live_master(self, serve_env, capsys):
        assert main(["serve", "--stop"]) == 0
        out = capsys.readouterr().out
        assert "shutdown requested" in out
        import time

        deadline = time.monotonic() + 10.0
        while (not serve_env._shutdown.is_set()
               and time.monotonic() < deadline):
            time.sleep(0.02)
        assert serve_env._shutdown.is_set()

    def test_submit_bad_spec_is_rejected_before_rid(self, serve_env,
                                                    tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert main(["submit", "--spec", str(bad)]) == 2
        assert "bad spec" in capsys.readouterr().err
        assert serve_env.scheduler.counter.value == 0


class TestWatchAbortedState:
    def test_watch_treats_aborted_as_terminal(self, tmp_path):
        import io

        from repro.obs.live import LiveStatus
        from repro.obs.watch import watch

        status = tmp_path / "status.json"
        live = LiveStatus("abandoned", total=5, path=str(status))
        live.publish(force=True)
        live.aborted()
        stream = io.StringIO()
        # not --once: the loop must still return because "aborted"
        # is terminal (a hang here is the regression)
        assert watch(str(status), interval_s=0.01, once=False,
                     stream=stream, max_wait_s=1.0) == 0
        assert "aborted" in stream.getvalue()

    def test_render_snapshot_shows_rid(self):
        from repro.obs.watch import render_snapshot

        view = render_snapshot({"campaign": "c", "state": "running",
                                "rid": 9, "points": {"total": 4},
                                "updated_unix": 0.0}, now_unix=1.0)
        assert view.splitlines()[0].startswith("run 9 · campaign c")

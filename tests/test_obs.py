"""Tests for the observability layer (repro.obs)."""

import json
import os
import threading
import time

import pytest

from repro.campaign import (CampaignPoint, CampaignSpec, PointResult,
                            ProgressReporter, ResultStore, run_campaign,
                            task)
from repro.obs.events import (EventLog, event_log, events_enabled,
                              install_event_log, read_events,
                              reset_event_log)
from repro.obs.live import (LiveStatus, load_status, snapshot_from_store,
                            status_path_for)
from repro.obs.metrics import (P2Estimator, Quantile, RateWindow,
                               exact_percentile)
from repro.obs.watch import render_snapshot, resolve_status_source, watch

numpy = pytest.importorskip("numpy")


@pytest.fixture(autouse=True)
def _clean_obs_globals(monkeypatch):
    """Each test gets a disabled event log."""
    monkeypatch.delenv("REPRO_EVENTS", raising=False)
    reset_event_log()
    yield
    reset_event_log()


# -- P² quantile estimator ------------------------------------------------

def _adversarial_distributions():
    rng = numpy.random.default_rng(1234)
    n = 20_000
    return {
        "uniform": rng.uniform(0.0, 1000.0, n),
        "normal": rng.normal(50.0, 10.0, n),
        "lognormal_heavy_tail": rng.lognormal(3.0, 2.0, n),
        "exponential": rng.exponential(100.0, n),
        "sorted_ascending": numpy.sort(rng.uniform(0.0, 1.0, n)),
        "sorted_descending": numpy.sort(rng.uniform(0.0, 1.0, n))[::-1],
        "bimodal": numpy.concatenate(
            [rng.normal(10.0, 1.0, n // 2),
             rng.normal(1000.0, 5.0, n // 2)]),
        "few_distinct_values": rng.integers(0, 5, n).astype(float),
        "with_outliers": numpy.concatenate(
            [rng.normal(100.0, 5.0, n - 20),
             rng.uniform(1e6, 1e7, 20)]),
    }


class TestP2Estimator:
    @pytest.mark.parametrize("fraction", [0.5, 0.95, 0.99])
    @pytest.mark.parametrize("name",
                             sorted(_adversarial_distributions()))
    def test_tracks_exact_percentile_within_rank_tolerance(self, name,
                                                           fraction):
        """The P² estimate must land within ±5 *rank* points of the
        exact percentile (plus a small value epsilon for distributions
        whose mass collapses the rank interval to a single point)."""
        data = _adversarial_distributions()[name]
        estimator = P2Estimator(fraction)
        for value in data:
            estimator.observe(value)
        got = estimator.value()
        low_rank = max(0.0, fraction - 0.05) * 100.0
        high_rank = min(100.0, (fraction + 0.05) * 100.0)
        low, high = numpy.percentile(data, [low_rank, high_rank])
        epsilon = 1e-9 + 1e-3 * (float(data.max()) - float(data.min()))
        assert low - epsilon <= got <= high + epsilon, (
            f"{name} p{fraction * 100:.0f}: estimate {got} outside "
            f"[{low}, {high}] (exact "
            f"{numpy.percentile(data, fraction * 100)})")

    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    def test_exact_below_five_observations(self, count):
        rng = numpy.random.default_rng(count)
        data = rng.uniform(-50.0, 50.0, count)
        for fraction in (0.5, 0.95, 0.99):
            estimator = P2Estimator(fraction)
            for value in data:
                estimator.observe(value)
            expected = numpy.percentile(data, fraction * 100.0)
            assert estimator.value() == pytest.approx(expected)

    def test_exactly_five_observations_initializes_markers(self):
        estimator = P2Estimator(0.5)
        for value in (5.0, 1.0, 4.0, 2.0, 3.0):
            estimator.observe(value)
        assert estimator.value() == pytest.approx(3.0)

    def test_empty_returns_none(self):
        assert P2Estimator(0.5).value() is None

    def test_constant_stream(self):
        estimator = P2Estimator(0.95)
        for _ in range(1000):
            estimator.observe(7.0)
        assert estimator.value() == pytest.approx(7.0)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            P2Estimator(0.0)
        with pytest.raises(ValueError):
            P2Estimator(1.0)

    def test_exact_percentile_matches_numpy(self):
        rng = numpy.random.default_rng(7)
        data = sorted(rng.uniform(0, 100, 41))
        for fraction in (0.0, 0.25, 0.5, 0.9, 0.95, 1.0):
            assert exact_percentile(data, fraction) == pytest.approx(
                numpy.percentile(data, fraction * 100.0))


class TestQuantile:
    def test_snapshot_fields(self):
        quantile = Quantile()
        quantile.observe_many([10.0, 20.0, 30.0, 40.0])
        snap = quantile.snapshot()
        assert snap["count"] == 4
        assert snap["min"] == 10.0
        assert snap["max"] == 40.0
        assert snap["mean"] == pytest.approx(25.0)
        assert set(snap) >= {"p50", "p95", "p99"}

    def test_empty_snapshot_is_count_only(self):
        assert Quantile().snapshot() == {"count": 0}


class TestRateWindow:
    def test_window_rate_tracks_current_pace_not_lifetime(self):
        clock = FakeClock()
        window = RateWindow(window_s=10.0, clock=clock)
        # 50 events/s for 5 seconds, then 1 event/s for 30 seconds:
        for _ in range(250):
            window.tick()
            clock.advance(0.02)
        for _ in range(30):
            window.tick()
            clock.advance(1.0)
        rate = window.rate()
        lifetime = 280 / 35.0
        assert rate == pytest.approx(1.0, rel=0.35)
        assert rate < lifetime / 2  # nowhere near the stale average

    def test_empty_window_is_zero(self):
        assert RateWindow().rate() == 0.0


class FakeClock:
    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# -- event log ------------------------------------------------------------

class TestEventLog:
    def test_disabled_by_default(self):
        assert not events_enabled()
        event_log().emit("ignored")  # must be a no-op, not a crash

    def test_emit_and_read(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = EventLog(path)
        log.emit("alpha", worker=3)
        log.emit("beta", ok=True)
        log.close()
        events = read_events(path)
        assert [e["event"] for e in events] == ["alpha", "beta"]
        assert events[0]["worker"] == 3
        assert events[0]["t"] <= events[1]["t"]  # monotonic clock
        assert all("pid" in e and "wall" in e for e in events)

    def test_install_enables_via_environment(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        install_event_log(path)
        assert events_enabled()
        assert os.environ["REPRO_EVENTS"] == path
        event_log().emit("hello")
        assert read_events(path)[0]["event"] == "hello"

    def test_span_emits_start_end_with_duration(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = EventLog(path)
        with log.span("work", name="x"):
            pass
        start, end = read_events(path)
        assert start["event"] == "work_start"
        assert end["event"] == "work_end"
        assert end["dur_s"] >= 0.0

    def test_corrupt_lines_skipped(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"event": "good"}\n')
            handle.write('{"event": "trunc\n')
            handle.write("not json at all\n")
        assert [e["event"] for e in read_events(path)] == ["good"]

    def test_unwritable_path_never_raises(self):
        log = EventLog("/nonexistent-root-dir/nope/events.jsonl")
        log.emit("dropped")  # must degrade silently
        log.close()


# -- live status ----------------------------------------------------------

def _point_result(index, worker=0, ok=True, latencies=(), injections=0,
                  detected=0, instructions=1000):
    metrics = {}
    if ok:
        metrics = {"instructions": instructions, "cycles": instructions * 2,
                   "injections": injections, "detected": detected,
                   "latencies_ns": list(latencies)}
    return PointResult(point_id=f"p{index}", index=index, ok=ok,
                       metrics=metrics, worker=worker)


class TestLiveStatus:
    def test_aggregates_points(self, tmp_path):
        path = str(tmp_path / "status.json")
        live = LiveStatus("camp", total=3, path=path, jobs=2,
                          publish_interval_s=0.0)
        live.begin()
        live.point(_point_result(0, worker=0, latencies=[100.0, 200.0],
                                 injections=2, detected=2))
        live.point(_point_result(1, worker=1, latencies=[300.0],
                                 injections=1, detected=1))
        live.point(_point_result(2, worker=1, ok=False))
        live.finish()
        snap = load_status(path)
        assert snap["state"] == "finished"
        assert snap["points"] == {"total": 3, "completed": 3, "failed": 1,
                                  "resumed": 0, "corrupt_rows_skipped": 0}
        assert snap["detection"] == {"injections": 3, "detected": 3,
                                     "rate": 1.0}
        assert snap["latency_ns"]["count"] == 3
        assert snap["latency_ns"]["min"] == 100.0
        assert snap["latency_ns"]["max"] == 300.0
        assert snap["totals"]["instructions"] == 2000  # failed adds none
        assert snap["shards"]["0"]["points"] == 1
        assert snap["shards"]["1"]["points"] == 2
        assert snap["shards"]["1"]["failed"] == 1

    def test_begin_publishes_immediately(self, tmp_path):
        path = str(tmp_path / "status.json")
        live = LiveStatus("camp", total=10, path=path)
        live.begin(resumed=4, corrupt_rows_skipped=1)
        snap = load_status(path)
        assert snap["state"] == "running"
        assert snap["points"]["resumed"] == 4
        assert snap["points"]["corrupt_rows_skipped"] == 1

    def test_publish_throttles_but_finish_forces(self, tmp_path):
        path = str(tmp_path / "status.json")
        live = LiveStatus("camp", total=5, path=path,
                          publish_interval_s=3600.0)
        live.begin()
        for i in range(5):
            live.point(_point_result(i))
        # Mid-run points were throttled behind the huge interval:
        assert load_status(path)["points"]["completed"] == 0
        live.finish()
        assert load_status(path)["points"]["completed"] == 5

    def test_publish_failure_is_swallowed(self):
        live = LiveStatus("camp", total=1,
                          path="/nonexistent-root-dir/x/status.json",
                          publish_interval_s=0.0)
        live.begin()
        live.point(_point_result(0))  # must not raise
        live.finish()

    def test_atomic_publication_under_concurrent_reader(self, tmp_path):
        """A reader hammering the status file must never observe a
        torn or half-written snapshot — every successful read parses
        and carries the full schema."""
        path = str(tmp_path / "status.json")
        live = LiveStatus("camp", total=100_000, path=path,
                          publish_interval_s=0.0)
        stop = threading.Event()
        torn = []
        reads = [0]

        def reader():
            while not stop.is_set():
                try:
                    with open(path, "r", encoding="utf-8") as handle:
                        text = handle.read()
                except FileNotFoundError:
                    continue
                reads[0] += 1
                try:
                    snap = json.loads(text)
                except ValueError:
                    torn.append(text)
                    continue
                if not ("points" in snap and "throughput" in snap
                        and "shards" in snap):
                    torn.append(text)

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 2.0
        index = 0
        while time.monotonic() < deadline:
            live.point(_point_result(index, worker=index % 4,
                                     latencies=[float(index)]))
            index += 1
        stop.set()
        for thread in threads:
            thread.join()
        assert not torn, f"reader saw torn snapshots: {torn[:2]}"
        assert reads[0] > 100  # the race was actually exercised
        assert index > 100

    def test_status_path_for(self):
        assert status_path_for("r.jsonl") == "r.jsonl.status.json"


class TestSnapshotFromStore:
    def test_replays_rows(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        with ResultStore(path=path) as store:
            store.append(_point_result(0, latencies=[5.0], injections=1,
                                       detected=1))
            store.append(_point_result(1, ok=False))
        snap = snapshot_from_store(path)
        assert snap["state"] == "store"
        assert snap["points"]["completed"] == 2
        assert snap["points"]["failed"] == 1
        assert snap["detection"]["injections"] == 1
        assert snap["throughput"]["points_per_s"] is None
        render_snapshot(snap)  # and it renders


# -- executor integration -------------------------------------------------

@task("obs-test-task")
def _obs_test_task(point, campaign_name=""):
    if point.params.get("fail"):
        raise RuntimeError("requested failure")
    return {"instructions": 100, "cycles": 200,
            "injections": 2, "detected": 1, "latencies_ns": [40.0, 60.0]}


def _spec(n, fail_at=()):
    return CampaignSpec(
        name="obs-spec",
        points=[CampaignPoint(task="obs-test-task", workload="w",
                              instructions=100, seed=0,
                              params={"trial": i,
                                      "fail": i in fail_at})
                for i in range(n)])


class TestExecutorIntegration:
    def test_run_campaign_publishes_live_status(self, tmp_path):
        status = str(tmp_path / "status.json")
        live = LiveStatus("obs-spec", total=4, path=status,
                          publish_interval_s=0.0)
        result = run_campaign(_spec(4, fail_at=(2,)), jobs=1, live=live)
        snap = load_status(status)
        assert snap["state"] == "finished"
        assert snap["points"]["completed"] == 4
        assert snap["points"]["failed"] == 1
        assert snap["latency_ns"]["count"] == 6
        assert snap["detection"]["injections"] == 6
        assert not result.all_ok

    def test_events_cover_campaign_lifecycle(self, tmp_path):
        events_path = str(tmp_path / "events.jsonl")
        install_event_log(events_path)
        run_campaign(_spec(3), jobs=1)
        names = [e["event"] for e in read_events(events_path)]
        assert names.count("point_complete") == 3
        assert "campaign_start" in names and "campaign_end" in names
        start = next(e for e in read_events(events_path)
                     if e["event"] == "campaign_start")
        assert start["points"] == 3 and start["campaign"] == "obs-spec"

    def test_sharded_campaign_emits_worker_events(self, tmp_path):
        events_path = str(tmp_path / "events.jsonl")
        install_event_log(events_path)
        run_campaign(_spec(6), jobs=2)
        names = [e["event"] for e in read_events(events_path)]
        assert names.count("shard_spawn") == 2
        assert names.count("point_complete") == 6
        assert "chunk_lease" in names
        assert "worker_heartbeat" in names
        assert "pool_close" in names

    def test_corrupt_resume_rows_counted_and_surfaced(self, tmp_path):
        from repro.campaign import format_summary

        store_path = str(tmp_path / "results.jsonl")
        spec = _spec(3)
        with ResultStore(path=store_path) as store:
            run_campaign(spec, jobs=1, store=store)
        # Damage two rows: one truncated JSON, one wrong shape.
        with open(store_path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        lines[0] = lines[0][: len(lines[0]) // 2] + "\n"
        lines.append('{"not": "a result row"}\n')
        with open(store_path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        with pytest.warns(RuntimeWarning):
            result = run_campaign(spec, jobs=1, resume_from=store_path)
        assert result.corrupt_rows_skipped == 2
        assert result.all_ok  # damaged points simply re-ran
        summary = format_summary(
            spec, result.results,
            corrupt_rows_skipped=result.corrupt_rows_skipped)
        assert "corrupt store rows skipped on resume: 2" in summary

    def test_clean_resume_reports_zero_corrupt_rows(self, tmp_path):
        store_path = str(tmp_path / "results.jsonl")
        spec = _spec(2)
        with ResultStore(path=store_path) as store:
            run_campaign(spec, jobs=1, store=store)
        result = run_campaign(spec, jobs=1, resume_from=store_path)
        assert result.corrupt_rows_skipped == 0
        from repro.campaign import format_summary
        summary = format_summary(spec, result.results)
        assert "corrupt" not in summary


# -- progress reporter ----------------------------------------------------

class TestProgressReporter:
    def test_rate_is_windowed_not_lifetime(self, capsys):
        import io

        clock = FakeClock()
        stream = io.StringIO()
        reporter = ProgressReporter(total=300, label="t", stream=stream,
                                    min_interval_s=0.0, rate_window_s=10.0,
                                    clock=clock)
        # 50 pts/s for 5s, then a long tail at 1 pt/s:
        for i in range(250):
            reporter(_point_result(i))
            clock.advance(0.02)
        for i in range(30):
            reporter(_point_result(250 + i))
            clock.advance(1.0)
        last = stream.getvalue().strip().splitlines()[-1]
        rate = float(last.split(" pts/s")[0].rsplit(" ", 1)[-1])
        assert rate < 4.0, f"stale lifetime-average rate shown: {last}"

    def test_uses_monotonic_clock_by_default(self):
        import io

        reporter = ProgressReporter(total=1, stream=io.StringIO())
        assert reporter._clock is time.monotonic


# -- watch ----------------------------------------------------------------

class TestWatch:
    def _publish(self, tmp_path, state="running"):
        path = str(tmp_path / "results.jsonl.status.json")
        live = LiveStatus("camp", total=2, path=path,
                          publish_interval_s=0.0)
        live.begin()
        live.point(_point_result(0, latencies=[100.0], injections=1,
                                 detected=1))
        if state == "finished":
            live.point(_point_result(1))
            live.finish()
        else:
            live.publish(force=True)
        return path

    def test_resolve_status_file(self, tmp_path):
        path = self._publish(tmp_path)
        assert resolve_status_source(path) == ("status", path)

    def test_resolve_store_prefers_sibling_status(self, tmp_path):
        status = self._publish(tmp_path)
        store = str(tmp_path / "results.jsonl")
        with ResultStore(path=store) as handle:
            handle.append(_point_result(0))
        assert resolve_status_source(store) == ("status", status)

    def test_resolve_directory_picks_snapshot(self, tmp_path):
        path = self._publish(tmp_path)
        assert resolve_status_source(str(tmp_path)) == ("status", path)

    def test_resolve_missing_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            resolve_status_source(str(tmp_path / "absent.jsonl"))

    def test_watch_once_renders_running_snapshot(self, tmp_path, capsys):
        import io

        path = self._publish(tmp_path)
        stream = io.StringIO()
        assert watch(path, once=True, stream=stream) == 0
        out = stream.getvalue()
        assert "campaign camp — running" in out
        assert "points    : 1/2" in out
        assert "p50" in out and "shard" in out

    def test_watch_follows_until_finished(self, tmp_path):
        import io

        path = self._publish(tmp_path, state="finished")
        stream = io.StringIO()
        assert watch(path, interval_s=0.01, stream=stream) == 0
        assert "finished" in stream.getvalue()

    def test_watch_missing_path_exits_2(self, tmp_path, capsys):
        import io

        code = watch(str(tmp_path / "absent"), once=True,
                     stream=io.StringIO(), max_wait_s=0.0)
        assert code == 2

    def test_render_marks_stale_snapshots(self, tmp_path):
        path = self._publish(tmp_path)
        snap = load_status(path)
        text = render_snapshot(snap, now_unix=snap["updated_unix"] + 120.0)
        assert "[STALE]" in text

"""Tests for live telemetry: registry, exposition, heartbeats, store."""

from __future__ import annotations

import io
import json
import queue
import time
import urllib.request

import pytest

from repro.bench.gate import GateReport, MetricDelta, attach_history
from repro.common.params import digest
from repro.exec import ParallelExecutor, SerialExecutor
from repro.exec.job import Job, JobError
from repro.exec.plan import ExperimentPlan
from repro.obs.heartbeat import (BeatSpec, Heartbeat, HeartbeatMonitor,
                                 HeartbeatPulse, LiveStatus,
                                 open_beat_channel)
from repro.obs.metrics import (METRICS_SCHEMA, NULL_METRICS, MetricsRegistry,
                               MetricsServer, NullMetrics, SnapshotLog,
                               fold_plan, fold_result, render_prometheus)
from repro.obs.store import MetricsStore, format_runs, format_trend
from repro.sim import run_workload

FAST = dict(accesses=600, warmup=200)


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #

class TestRegistry:
    def test_counter_accumulates_per_label_set(self):
        reg = MetricsRegistry()
        c = reg.counter("hits", "hit count")
        c.inc(mmu="baseline")
        c.inc(3, mmu="baseline")
        c.inc(mmu="hybrid")
        assert c.get(mmu="baseline") == 4
        assert c.get(mmu="hybrid") == 1
        assert c.get(mmu="never") == 0

    def test_gauge_overwrites(self):
        reg = MetricsRegistry()
        g = reg.gauge("ipc")
        g.set(0.5, job="a")
        g.set(0.7, job="a")
        assert g.get(job="a") == 0.7

    def test_family_constructors_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        c.inc(a="1", b="2")
        c.inc(b="2", a="1")
        assert c.get(a="1", b="2") == 2

    def test_snapshot_sorted_and_deterministic(self):
        def build(order):
            reg = MetricsRegistry()
            for name in order:
                reg.counter(name).inc(name=name)
            return reg
        a = build(["zeta", "alpha"])
        b = build(["alpha", "zeta"])
        assert (json.dumps(a.snapshot(), sort_keys=True)
                == json.dumps(b.snapshot(), sort_keys=True))
        assert list(a.snapshot()) == ["alpha", "zeta"]

    def test_reset_and_remove(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.counter("b").inc()
        reg.remove("a")
        assert list(reg.snapshot()) == ["b"]
        reg.remove("missing")          # no-op, no raise
        reg.reset()
        assert reg.snapshot() == {}

    def test_histogram_family(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        h.observe(5, stage="l1")
        h.observe(9, stage="l1")
        snap = reg.snapshot()["lat"]
        assert snap["kind"] == "histogram"
        assert snap["series"][0]["histogram"]["count"] == 2

    def test_null_metrics_is_inert(self):
        null = NullMetrics()
        assert not null.enabled
        assert NULL_METRICS.counter("x") is NULL_METRICS
        null.counter("x").inc(5, a="b")
        null.gauge("y").set(1.0)
        null.histogram("z").observe(3)
        null.remove("x")
        assert null.snapshot() == {}


# --------------------------------------------------------------------- #
# Prometheus exposition
# --------------------------------------------------------------------- #

class TestPrometheus:
    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""

    def test_counter_rendering(self):
        reg = MetricsRegistry()
        reg.counter("repro_hits_total", "hits").inc(7, mmu="baseline")
        text = render_prometheus(reg)
        assert "# HELP repro_hits_total hits" in text
        assert "# TYPE repro_hits_total counter" in text
        assert 'repro_hits_total{mmu="baseline"} 7' in text
        assert text.endswith("\n")

    def test_label_value_escaping(self):
        reg = MetricsRegistry()
        reg.counter("x").inc(**{"path": 'a\\b"c\nd'})
        text = render_prometheus(reg)
        assert 'path="a\\\\b\\"c\\nd"' in text
        assert "\n\n" not in text          # the newline was escaped

    def test_help_escaping(self):
        reg = MetricsRegistry()
        reg.counter("x", "line1\nline2")
        assert "# HELP x line1\\nline2" in render_prometheus(reg)

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in (1, 2, 3, 5, 100):
            h.observe(v)
        text = render_prometheus(reg)
        lines = [ln for ln in text.splitlines() if ln.startswith("lat_")]
        bucket_counts = [int(ln.rsplit(" ", 1)[1]) for ln in lines
                        if ln.startswith("lat_bucket")]
        # Cumulative: never decreasing, ends at the total count.
        assert bucket_counts == sorted(bucket_counts)
        assert 'le="+Inf"} 5' in text
        assert "lat_sum 111" in text
        assert "lat_count 5" in text

    def test_float_values_round_trip(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(0.1)
        line = [ln for ln in render_prometheus(reg).splitlines()
                if ln.startswith("g ")][0]
        assert float(line.split(" ")[1]) == 0.1


# --------------------------------------------------------------------- #
# Snapshot log + HTTP endpoint
# --------------------------------------------------------------------- #

class TestSnapshotLog:
    def test_appends_schema_stable_lines(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        reg = MetricsRegistry()
        reg.counter("x").inc()
        with SnapshotLog(path) as log:
            log.append(reg, ts=1.0)
            reg.counter("x").inc()
            log.append(reg, ts=2.0)
            assert log.appended == 2
        docs = [json.loads(line) for line in path.read_text().splitlines()]
        assert [d["ts"] for d in docs] == [1.0, 2.0]
        assert all(d["schema"] == METRICS_SCHEMA for d in docs)
        assert docs[-1]["metrics"]["x"]["series"][0]["value"] == 2

    def test_append_mode_preserves_existing_lines(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        path.write_text('{"old": true}\n')
        with SnapshotLog(path) as log:
            log.append(MetricsRegistry(), ts=1.0)
        assert len(path.read_text().splitlines()) == 2


class TestMetricsServer:
    def test_scrape_text_and_json(self):
        reg = MetricsRegistry()
        reg.counter("repro_up", "liveness").inc()
        with MetricsServer(reg, port=0) as server:
            base = f"http://{server.host}:{server.port}"
            with urllib.request.urlopen(f"{base}/metrics") as resp:
                body = resp.read().decode("utf-8")
                assert resp.headers["Content-Type"].startswith("text/plain")
            assert body == render_prometheus(reg)
            with urllib.request.urlopen(f"{base}/metrics.json") as resp:
                doc = json.loads(resp.read())
            assert doc["repro_up"]["series"][0]["value"] == 1

    def test_unknown_path_is_404(self):
        with MetricsServer(MetricsRegistry(), port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    f"http://{server.host}:{server.port}/nope")
            assert err.value.code == 404

    def test_scrape_sees_live_updates(self):
        reg = MetricsRegistry()
        with MetricsServer(reg, port=0) as server:
            url = f"http://{server.host}:{server.port}/metrics"
            assert urllib.request.urlopen(url).read() == b""
            reg.counter("x").inc()
            assert b"x 1" in urllib.request.urlopen(url).read()


# --------------------------------------------------------------------- #
# Deterministic folds
# --------------------------------------------------------------------- #

class TestFold:
    def test_fold_result_exports_stats_and_stages(self):
        result = run_workload("gups", "hybrid_segments", **FAST)
        reg = MetricsRegistry()
        fold_result(reg, result, "fp")
        labels = dict(workload=result.workload, mmu=result.mmu)
        assert (reg.counter("repro_accesses_total").get(**labels)
                == result.accesses)
        assert reg.gauge("repro_ipc").get(job="fp", **labels) == result.ipc
        snap = reg.snapshot()
        stat_rows = snap["repro_stat_total"]["series"]
        groups = {row["labels"]["group"] for row in stat_rows}
        assert {g for g, counters in result.stats.items()
                if counters} <= groups
        assert sum(row["value"] for row
                   in snap["repro_stage_cycles_total"]["series"]) \
            == sum(result.cycle_breakdown.values())

    def test_fold_plan_statuses(self):
        jobs = [Job(workload="gups", mmu="baseline", seed=1, **FAST),
                Job(workload="gups", mmu="hybrid_tlb", seed=1, **FAST)]
        results = {j.fingerprint(): run_workload(
            "gups", j.mmu, seed=1, **FAST) for j in jobs}
        bad = Job(workload="gups", mmu="ideal", seed=1, **FAST)
        outcomes = dict(results)
        outcomes[bad.fingerprint()] = JobError(
            fingerprint=bad.fingerprint(), workload="gups", mmu="ideal",
            error_type="RuntimeError", message="boom", traceback="")
        reg = MetricsRegistry()
        fold_plan(reg, jobs + [bad], outcomes,
                  cached=[jobs[0].fingerprint()])
        totals = reg.counter("repro_jobs_total")
        assert totals.get(status="cached") == 1
        assert totals.get(status="ran") == 1
        assert totals.get(status="error") == 1

    def test_final_snapshot_identical_serial_vs_parallel(self):
        """The metric-identity guarantee: the end-of-plan registry is a
        pure function of the outcomes, byte-identical however the jobs
        were scheduled — heartbeats and live gauges included."""
        def jobs():
            return [Job(workload="gups", mmu=m, seed=1, **FAST)
                    for m in ("baseline", "hybrid_tlb", "hybrid_segments")]

        rendered = {}
        for label, executor, parallel in (
                ("serial", SerialExecutor(), False),
                ("parallel", ParallelExecutor(workers=4), True)):
            reg = MetricsRegistry()
            channel, manager = open_beat_channel(parallel)
            monitor = HeartbeatMonitor(channel, registry=reg).start()
            try:
                ExperimentPlan(jobs()).run(
                    executor=executor, metrics=reg,
                    beat=BeatSpec(queue=channel, every=100))
            finally:
                monitor.stop()
                if manager is not None:
                    manager.shutdown()
            assert monitor.beats_seen > 0
            rendered[label] = (
                json.dumps(reg.snapshot(), sort_keys=True),
                render_prometheus(reg))
        assert rendered["serial"][0] == rendered["parallel"][0]
        assert rendered["serial"][1] == rendered["parallel"][1]

    def test_monitor_stop_wipes_live_gauges(self):
        channel = queue.Queue()
        reg = MetricsRegistry()
        monitor = HeartbeatMonitor(channel, registry=reg)
        monitor.ingest(Heartbeat(job="f", workload="w", mmu="m", done=10,
                                 total=100, instructions=20, cycles=40.0,
                                 wall_s=0.1))
        assert "repro_worker_accesses" in reg.snapshot()
        monitor.stop()
        assert reg.snapshot() == {}
        assert monitor.statuses["f"].done == 10     # table survives


# --------------------------------------------------------------------- #
# Heartbeats
# --------------------------------------------------------------------- #

class TestHeartbeat:
    def test_simulator_emits_pulses(self):
        channel = queue.Queue()
        job = Job(workload="gups", mmu="baseline", seed=1, **FAST)
        spec = BeatSpec(queue=channel, every=100)
        from repro.exec.executors import run_job
        result = run_job(job, beat=spec)
        beats = []
        while not channel.empty():
            beats.append(channel.get_nowait())
        assert len(beats) == FAST["accesses"] // 100 + 1   # + final beat
        assert [b.done for b in beats[:-1]] == [100, 200, 300, 400, 500, 600]
        assert all(b.total == FAST["accesses"] for b in beats[:-1])
        final = beats[-1]
        assert final.final and final.ok
        assert final.done == result.accesses
        assert final.instructions == result.instructions

    def test_failed_job_emits_final_not_ok_beat(self):
        channel = queue.Queue()
        job = Job(workload="gups", mmu="no_such_mmu", seed=1, **FAST)
        from repro.exec.executors import run_job
        outcome = run_job(job, beat=BeatSpec(queue=channel, every=100))
        assert isinstance(outcome, JobError)
        final = None
        while not channel.empty():
            final = channel.get_nowait()
        assert final is not None and final.final and not final.ok

    def test_pulse_never_raises_on_closed_channel(self):
        class Broken:
            def put_nowait(self, item):
                raise OSError("closed")
        pulse = HeartbeatPulse(Broken(),
                               Job(workload="gups", mmu="baseline", **FAST))
        pulse(100, 600, 200, 400.0)
        pulse.finish(600, 1200, 2400.0)

    def test_staleness_pure_logic(self):
        monitor = HeartbeatMonitor(queue.Queue(), stale_after=30.0)
        beat = Heartbeat(job="f", workload="w", mmu="m", done=1, total=10,
                        instructions=2, cycles=4.0, wall_s=0.1)
        monitor.ingest(beat, now=100.0)
        assert monitor.check_stale(now=120.0) == []
        found = monitor.check_stale(now=131.0)
        assert [f.status.job for f in found] == ["f"]
        assert found[0].silent_s == pytest.approx(31.0)
        # Flagged once per silence episode.
        assert monitor.check_stale(now=200.0) == []
        # A fresh beat un-stales; renewed silence re-trips.
        monitor.ingest(beat, now=210.0)
        assert not monitor.statuses["f"].stale
        assert len(monitor.check_stale(now=250.0)) == 1

    def test_final_beat_never_goes_stale(self):
        monitor = HeartbeatMonitor(queue.Queue(), stale_after=1.0)
        monitor.ingest(Heartbeat(job="f", workload="w", mmu="m", done=10,
                                 total=10, instructions=1, cycles=1.0,
                                 wall_s=0.1, final=True), now=0.0)
        assert monitor.check_stale(now=1000.0) == []

    def test_stalled_worker_detected_live(self):
        """A worker that beats once and then goes silent is flagged by
        the monitor thread within a few stale periods."""
        channel = queue.Queue()
        findings = []
        monitor = HeartbeatMonitor(channel, stale_after=0.1,
                                   on_stale=findings.append, poll_s=0.02)
        monitor.start()
        try:
            channel.put(Heartbeat(job="stuck", workload="w", mmu="m",
                                  done=5, total=100, instructions=10,
                                  cycles=20.0, wall_s=0.05))
            deadline = time.monotonic() + 5.0
            while not findings and time.monotonic() < deadline:
                time.sleep(0.02)
        finally:
            monitor.stop()
        assert findings and findings[0].status.job == "stuck"
        assert monitor.statuses["stuck"].stale

    def test_throughput_and_running(self):
        monitor = HeartbeatMonitor(queue.Queue(), clock=lambda: 0.0)
        monitor._started_at = 0.0
        monitor.ingest(Heartbeat(job="a", workload="w", mmu="m", done=300,
                                 total=600, instructions=1, cycles=1.0,
                                 wall_s=1.0), now=1.0)
        monitor.ingest(Heartbeat(job="b", workload="w", mmu="m", done=600,
                                 total=600, instructions=1, cycles=1.0,
                                 wall_s=2.0, final=True), now=2.0)
        assert monitor.throughput(now=2.0) == pytest.approx(450.0)
        assert [s.job for s in monitor.running()] == ["a"]

    def test_open_beat_channel_serial_is_plain_queue(self):
        channel, manager = open_beat_channel(parallel=False)
        assert manager is None
        assert isinstance(channel, queue.Queue)


class TestLiveStatus:
    def test_line_contents(self):
        stream = io.StringIO()
        live = LiveStatus(stream=stream)
        live.job_done(1, 4, "ok")
        live.job_done(2, 4, "cached")
        live.job_done(3, 4, "error")
        monitor = HeartbeatMonitor(queue.Queue(), clock=lambda: 2.0)
        monitor._started_at = 0.0
        monitor.ingest(Heartbeat(job="a", workload="w", mmu="m", done=500,
                                 total=1000, instructions=1, cycles=1.0,
                                 wall_s=1.0), now=1.0)
        monitor.statuses["a"].stale = True
        line = live.line(monitor)
        assert "jobs 3/4" in line
        assert "1 cached" in line and "1 failed" in line
        assert "1 running" in line and "1 STALE" in line
        assert "acc/s" in line

    def test_update_rewrites_in_place_and_finish_latches(self):
        stream = io.StringIO()
        live = LiveStatus(stream=stream)
        live.job_done(1, 2, "ok")
        live.update()
        live.finish()
        text = stream.getvalue()
        assert text.startswith("\r")
        assert text.endswith("\n")
        live.update()                       # latched: no further writes
        assert stream.getvalue() == text

    def test_disabled_never_writes(self):
        stream = io.StringIO()
        live = LiveStatus(stream=stream, enabled=False)
        live.update()
        live.finish()
        assert stream.getvalue() == ""


# --------------------------------------------------------------------- #
# Cross-run store
# --------------------------------------------------------------------- #

def _result_doc(mmu="hybrid_segments", seed=1):
    return run_workload("gups", mmu, seed=seed, **FAST).to_json_dict()


class TestStore:
    def test_ingest_result_and_query(self, tmp_path):
        doc = _result_doc()
        with MetricsStore(tmp_path / "db.sqlite") as store:
            keys = store.ingest(doc, source="test")
            assert len(keys) == 1
            rows = store.query()
            assert len(rows) == 1
            assert rows[0].run_key == keys[0]
            metrics = rows[0].metrics
            for name in ("ipc", "cycles", "llc_miss_rate", "instructions",
                         "accesses"):
                assert metrics[name] == doc[name]
            assert "tlb_bypass_rate" in metrics

    def test_reingest_is_idempotent(self, tmp_path):
        doc = _result_doc()
        with MetricsStore(tmp_path / "db.sqlite") as store:
            first = store.ingest(doc)
            second = store.ingest(doc)
            assert first == second
            assert len(store) == 1

    def test_run_key_depends_on_identity(self):
        assert digest({"seed": 1}) != digest({"seed": 2})
        assert digest({"a": 1, "b": 2}) == digest({"b": 2, "a": 1})

    def test_ingest_compare_document(self, tmp_path):
        doc = {"schema": "repro.compare/v1",
               "results": {"baseline": _result_doc("baseline"),
                           "hybrid_tlb": _result_doc("hybrid_tlb")}}
        with MetricsStore(tmp_path / "db.sqlite") as store:
            assert len(store.ingest(doc)) == 2
            assert len(store.query(mmu="baseline")) == 1

    def test_ingest_bench_baseline(self, tmp_path):
        doc = {"schema": "repro.bench/v2",
               "meta": {"generated_unix": 1_700_000_000.0},
               "benchmarks": [{"name": "b1", "workload": "gups",
                               "mmu": "hybrid_segments", "fingerprint": "f1",
                               "seconds": 1.5, "metrics": {"ipc": 0.5}}]}
        with MetricsStore(tmp_path / "db.sqlite") as store:
            assert store.ingest(doc) == ["f1"]
            row = store.query()[0]
            assert row.metrics == {"ipc": 0.5, "seconds": 1.5}

    def test_unknown_schema_rejected(self, tmp_path):
        with MetricsStore(tmp_path / "db.sqlite") as store:
            with pytest.raises(ValueError, match="cannot ingest"):
                store.ingest({"schema": "repro.nope/v9"})

    def test_result_without_manifest_rejected(self, tmp_path):
        doc = _result_doc()
        doc.pop("manifest", None)
        with MetricsStore(tmp_path / "db.sqlite") as store:
            with pytest.raises(ValueError, match="manifest"):
                store.ingest(doc)

    def test_trend_and_metric_history(self, tmp_path):
        with MetricsStore(tmp_path / "db.sqlite") as store:
            for seed in (1, 2, 3):
                store.ingest(_result_doc(seed=seed))
            history = store.trend("ipc", workload="gups")
            assert len(history) == 3
            values = store.metric_history("gups", history[0][0].mmu,
                                          "ipc", limit=2)
            assert len(values) == 2
            assert values == [v for _, v in history[-2:]]
            assert "ipc" in store.metric_names()

    def test_format_helpers(self, tmp_path):
        with MetricsStore(tmp_path / "db.sqlite") as store:
            store.ingest(_result_doc())
            table = format_runs(store.query(), metric="ipc")
            assert "| run |" in table and "gups" in table
            trend = format_trend(store.trend("ipc"), "ipc")
            assert trend.startswith("ipc:")
        assert format_runs([]) == "(no runs recorded)"
        assert "no history" in format_trend([], "ipc")

    def test_trend_order_independent_of_ingest_order(self, tmp_path):
        """Trend rows follow started-at (then config), not ingest time."""
        docs = []
        for day, seed in enumerate((1, 2, 3), start=1):
            doc = _result_doc(seed=seed)
            doc["manifest"]["started_at"] = f"2026-08-0{day}T00:00:00"
            docs.append(doc)
        orders = []
        for tag, sequence in (("fwd", docs), ("rev", list(reversed(docs)))):
            with MetricsStore(tmp_path / f"{tag}.sqlite") as store:
                for doc in sequence:
                    store.ingest(doc)
                history = store.trend("ipc")
            orders.append([run.run_key for run, _ in history])
            stamps = [run.started_at for run, _ in history]
            assert stamps == sorted(stamps)
        assert orders[0] == orders[1]

    def test_format_trend_single_point_draws_flat_spark(self, tmp_path):
        from repro.sim.report import spark_line

        with MetricsStore(tmp_path / "db.sqlite") as store:
            store.ingest(_result_doc())
            trend = format_trend(store.trend("ipc"), "ipc")
        assert "n=1" in trend
        assert spark_line([1.0]) in trend   # mid-height block, not bottom


class TestAttachHistory:
    def test_attaches_matching_history(self):
        class FakeStore:
            def metric_history(self, workload, mmu, metric, limit=5):
                assert (workload, mmu) == ("gups", "hybrid_segments")
                return [0.5, 0.6] if metric == "ipc" else []

        report = GateReport(threshold_pct=10.0, seconds_threshold_pct=None)
        report.deltas = [
            MetricDelta(benchmark="b1", metric="ipc", baseline=0.5,
                        current=0.6, change_pct=20.0, regressed=False,
                        improved=True, gated=True),
            MetricDelta(benchmark="b1", metric="cycles", baseline=1.0,
                        current=1.0, change_pct=0.0, regressed=False,
                        improved=False, gated=True)]
        current = {"benchmarks": [{"name": "b1", "workload": "gups",
                                   "mmu": "hybrid_segments"}]}
        attach_history(report, current, FakeStore())
        assert report.deltas[0].history == [0.5, 0.6]
        assert report.deltas[1].history is None
        markdown = report.to_markdown()
        assert "history" in markdown and "0.5→0.6" in markdown
        doc = report.to_json_dict()
        assert doc["deltas"][0]["history"] == [0.5, 0.6]

    def test_markdown_without_history_has_no_column(self):
        report = GateReport(threshold_pct=10.0, seconds_threshold_pct=None)
        report.deltas = [
            MetricDelta(benchmark="b1", metric="ipc", baseline=0.5,
                        current=0.5, change_pct=0.0, regressed=False,
                        improved=False, gated=True)]
        assert "history" not in report.to_markdown()


# --------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------- #

CLI_FAST = ["--accesses", "600", "--warmup", "200"]


class TestCliTelemetry:
    def test_version_flag(self, capsys):
        from repro import __version__
        from repro.cli import main
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_run_with_live_telemetry(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "metrics.jsonl"
        assert main(["run", "gups", "hybrid_segments", "--live",
                     "--metrics-port", "0", "--metrics-out", str(out)]
                    + CLI_FAST) == 0
        captured = capsys.readouterr()
        assert "serving /metrics on http://127.0.0.1:" in captured.err
        assert "1 ran, 0 cached, 0 failed" in captured.err
        lines = out.read_text().splitlines()
        doc = json.loads(lines[-1])
        assert doc["schema"] == METRICS_SCHEMA
        assert "repro_jobs_total" in doc["metrics"]
        # Live worker gauges never survive into the final snapshot.
        assert "repro_worker_accesses" not in doc["metrics"]

    def test_progress_distinguishes_ran_and_cached(self, tmp_path, capsys):
        from repro.cli import main
        cmd = ["run", "gups", "baseline",
               "--cache-dir", str(tmp_path / "cache")] + CLI_FAST
        assert main(cmd) == 0
        first = capsys.readouterr().err
        assert "gups/baseline ran" in first
        assert "1 ran, 0 cached, 0 failed" in first
        assert main(cmd) == 0
        second = capsys.readouterr().err
        assert "gups/baseline cached" in second
        assert "0 ran, 1 cached, 0 failed" in second

    def test_db_roundtrip(self, tmp_path, capsys):
        from repro.cli import main
        doc_path = tmp_path / "run.json"
        db_path = tmp_path / "hist.sqlite"
        assert main(["run", "gups", "hybrid_segments", "--json"]
                    + CLI_FAST) == 0
        doc_path.write_text(capsys.readouterr().out)
        assert main(["db", "ingest", "--db", str(db_path),
                     str(doc_path)]) == 0
        assert "ingested 1 run(s)" in capsys.readouterr().out
        assert main(["db", "query", "--db", str(db_path),
                     "--metric", "ipc"]) == 0
        assert "gups" in capsys.readouterr().out
        assert main(["db", "trend", "--db", str(db_path),
                     "--metric", "ipc"]) == 0
        assert capsys.readouterr().out.startswith("ipc:")

    def test_db_ingest_bad_file_fails(self, tmp_path, capsys):
        from repro.cli import main
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["db", "ingest", "--db", str(tmp_path / "db.sqlite"),
                     str(bad)]) == 1
        assert "bad.json" in capsys.readouterr().err

    @pytest.mark.parametrize("drop", ["ipc", "seed"])
    def test_db_ingest_missing_key_fails(self, tmp_path, capsys, drop):
        """A result document without a required key (``ipc``, or its
        manifest's ``seed``) is reported, not stored as zeros."""
        from repro.cli import main
        doc = _result_doc()
        del (doc["manifest"] if drop == "seed" else doc)[drop]
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        db_path = tmp_path / "db.sqlite"
        assert main(["db", "ingest", "--db", str(db_path), str(path)]) == 1
        err = capsys.readouterr().err
        assert f"repro: {path}: " in err and drop in err
        with MetricsStore(db_path) as store:
            assert len(store) == 0

    def test_db_trend_requires_metric(self, tmp_path):
        from repro.cli import main
        with pytest.raises(SystemExit, match="--metric"):
            main(["db", "trend", "--db", str(tmp_path / "db.sqlite")])

    def test_bench_check_db_accrues_history(self, tmp_path, capsys):
        from repro.cli import main
        baseline = tmp_path / "baseline.json"
        db_path = tmp_path / "hist.sqlite"
        assert main(["bench", "record", "--out", str(baseline),
                     "--accesses", "600", "--warmup", "200"]) == 0
        capsys.readouterr()
        assert main(["bench", "check", "--baseline", str(baseline),
                     "--db", str(db_path)]) == 0
        capsys.readouterr()
        # Second check: the first check's ingest is now history.
        assert main(["bench", "check", "--baseline", str(baseline),
                     "--db", str(db_path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"]
        assert any(d.get("history") for d in report["deltas"])


class TestRegistryConcurrency:
    """Writers hammer labeled series while a scraper renders: totals must
    come out exact and every individual scrape internally consistent
    (the torn-read pin for :meth:`MetricFamily.series` histogram copies).
    """

    WRITERS = 8
    OPS = 2_000

    def test_hammered_registry_keeps_exact_totals_and_clean_scrapes(self):
        import re
        import threading

        registry = MetricsRegistry()
        counter = registry.counter("repro_stress_total", "stress counter")
        hist = registry.histogram("repro_stress_ms", "stress histogram")
        stop = threading.Event()
        scrapes: list[str] = []
        errors: list[BaseException] = []

        def scraper() -> None:
            try:
                while not stop.is_set():
                    scrapes.append(render_prometheus(registry))
                    json.dumps(registry.snapshot())   # must never tear
            except BaseException as exc:              # pragma: no cover
                errors.append(exc)

        def writer(tid: int) -> None:
            try:
                for i in range(self.OPS):
                    counter.inc(thread=str(tid))      # per-thread series
                    counter.inc(amount=2)             # one contended series
                    hist.observe(i % 512)
            except BaseException as exc:              # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(tid,))
                   for tid in range(self.WRITERS)]
        scrape_thread = threading.Thread(target=scraper)
        scrape_thread.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        stop.set()
        scrape_thread.join(timeout=30)

        assert not errors, errors[:3]
        assert scrapes, "scraper never ran"
        # Exact totals: not one increment lost or double-counted.
        assert counter.get() == 2 * self.WRITERS * self.OPS
        for tid in range(self.WRITERS):
            assert counter.get(thread=str(tid)) == self.OPS
        (_, snapshot), = hist.series()
        assert snapshot.count == self.WRITERS * self.OPS
        assert snapshot.total == self.WRITERS * sum(i % 512
                                                    for i in range(self.OPS))
        # Every mid-run scrape is internally consistent: the +Inf bucket
        # equals _count, and buckets are cumulative (monotone).
        bucket_re = re.compile(
            r'repro_stress_ms_bucket\{le="([^"]+)"\} (\d+)')
        count_re = re.compile(r"repro_stress_ms_count (\d+)")
        checked = 0
        for text in scrapes:
            count = count_re.search(text)
            if count is None:
                continue                 # scraped before first observe
            buckets = bucket_re.findall(text)
            assert buckets[-1][0] == "+Inf"
            assert buckets[-1][1] == count.group(1)
            values = [int(value) for _, value in buckets]
            assert values == sorted(values)
            checked += 1
        assert checked > 0

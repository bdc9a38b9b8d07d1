"""Tests for offline trace analytics (repro.obs.traceview) and the
parallel-safe capture path that feeds it (TraceSpec shards, plan-level
aggregation, the `repro trace view` / `repro profile --sizes` CLI)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.common.params import SystemConfig
from repro.exec import ExperimentPlan, Job, ParallelExecutor, SerialExecutor
from repro.obs.aggregate import aggregate_results
from repro.obs.tracer import Tracer, TraceSpec
from repro.obs.traceview import (
    PHASES,
    TRACE_SCHEMA,
    AccessRecord,
    TraceView,
    combine_summaries,
    read_trace,
)
from repro.sim import run_workload
from repro.sim.sweep import grid_jobs

FAST = dict(accesses=600, warmup=200)


def _mark(label="run_start", **detail):
    event = {"seq": -1, "stage": "mark", "cycles": 0, "label": label}
    event.update(detail)
    return event


def _stage(seq, stage, cycles):
    return {"seq": seq, "stage": stage, "cycles": cycles}


def _access(seq, *, front=0, cache=4, delayed=0, dram=0, hit="l1",
            timed=True, va=0x1000, is_write=False):
    total = front + cache + delayed + dram
    return {"seq": seq, "stage": "access", "cycles": total,
            "core": 0, "asid": 1, "va": va, "is_write": is_write,
            "hit_level": hit, "timed": timed,
            "front_cycles": front, "cache_cycles": cache,
            "delayed_cycles": delayed, "dram_cycles": dram}


def _write_jsonl(path, events):
    path.write_text("".join(json.dumps(e) + "\n" for e in events))
    return path


class TestTraceViewSynthetic:
    def test_access_reconstruction(self):
        view = TraceView()
        view.feed(_mark(workload="w", mmu="m"))
        view.feed(_stage(0, "filter_probe", 0))
        view.feed(_stage(0, "cache", 4))
        view.feed(_access(0, cache=4, hit="l1"))
        view.finish()
        assert len(view.runs) == 1
        run = view.runs[0]
        assert run.label == "w/m"
        assert run.accesses == 1 and run.timed_accesses == 1
        assert run.total_cycles == 4
        assert run.attribution() == {"front": 0, "cache": 4,
                                     "delayed": 0, "dram": 0}
        assert run.hit_levels == {"l1": 1}
        assert run.stage_events == {"filter_probe": 1, "cache": 1}
        # The slowest record carries its raw stage events.
        assert [s["stage"] for s in run.slowest[0].stages] == \
            ["filter_probe", "cache"]

    def test_run_splitting_on_marks(self):
        view = TraceView()
        view.feed(_mark(mmu="a"))
        view.feed(_access(0, cache=4))
        view.feed(_mark(mmu="b"))
        view.feed(_access(0, cache=8, dram=200, hit="memory"))
        view.feed(_access(1, cache=4))
        view.finish()
        assert [r.detail.get("mmu") for r in view.runs] == ["a", "b"]
        assert [r.accesses for r in view.runs] == [1, 2]
        assert view.runs[1].total_cycles == 212
        overall = view.overall()
        assert overall.accesses == 3
        assert overall.total_cycles == 216

    def test_headerless_stream_gets_implicit_run(self):
        view = TraceView()
        view.feed(_stage(0, "cache", 4))
        view.feed(_access(0, cache=4))
        view.finish()
        assert len(view.runs) == 1
        assert view.runs[0].accesses == 1

    def test_orphan_shard_fallback_via_read_trace(self, tmp_path):
        """A shard torn at the front (first line not a run_start) opens
        an implicit, unlabeled run; a later mark closes it normally."""
        path = _write_jsonl(tmp_path / "torn.jsonl", [
            _stage(0, "cache", 4), _access(0, cache=4),   # orphan events
            _mark(workload="gups", mmu="hybrid"),         # then a real run
            _access(1, cache=6),
        ])
        view = read_trace(path)
        assert len(view.runs) == 2
        implicit, labeled = view.runs
        assert implicit.detail == {}
        assert implicit.label == "?/?"
        assert implicit.accesses == 1
        assert labeled.label.startswith("gups/hybrid")
        assert labeled.accesses == 1
        # The orphan events still count in the overall merge.
        assert view.overall().accesses == 2

    def test_untimed_accesses_counted_separately(self):
        view = TraceView()
        view.feed(_access(0, cache=4, timed=False))
        view.feed(_access(1, cache=4, timed=True))
        view.finish()
        run = view.runs[0]
        assert run.accesses == 2 and run.timed_accesses == 1

    def test_top_n_slowest_ranked(self):
        view = TraceView(top_n=2)
        view.feed(_mark())
        for seq, dram in enumerate((10, 500, 30, 200)):
            view.feed(_access(seq, dram=dram, va=seq))
        view.finish()
        slowest = view.runs[0].slowest
        assert [r.total_cycles for r in slowest] == [504, 204]

    def test_stage_histograms_bucket_latencies(self):
        view = TraceView()
        view.feed(_mark())
        for seq, cycles in enumerate((4, 5, 300)):
            view.feed(_stage(seq, "cache", cycles))
            view.feed(_access(seq, cache=cycles))
        view.finish()
        snap = view.runs[0].stage_histograms["cache"].snapshot()
        assert snap["count"] == 3
        assert {(b["lo"], b["count"]) for b in snap["buckets"]} == \
            {(4, 2), (256, 1)}

    def test_malformed_lines_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        lines = [json.dumps(_mark()), "{torn line", json.dumps(_access(0)),
                 json.dumps([1, 2, 3]), ""]
        path.write_text("\n".join(lines) + "\n")
        view = read_trace(path)
        assert view.skipped_lines == 2
        assert view.runs[0].accesses == 1

    def test_combine_summaries_merges_histograms(self):
        views = []
        for cycles in (4, 1000):
            v = TraceView()
            v.feed(_mark())
            v.feed(_stage(0, "cache", cycles))
            v.feed(_access(0, cache=cycles))
            views.append(v.finish())
        combined = combine_summaries(
            [v.runs[0] for v in views], top_n=10)
        assert combined.accesses == 2
        snap = combined.stage_histograms["cache"].snapshot()
        assert snap["count"] == 2
        assert combined.slowest[0].total_cycles == 1000

    def test_combine_summaries_sums_counters_and_reranks(self):
        views = []
        for hit, cycles in (("l1", 4), ("memory", 900), ("memory", 700)):
            v = TraceView()
            v.feed(_mark())
            v.feed(_access(0, cache=cycles, hit=hit))
            views.append(v.finish())
        combined = combine_summaries([v.runs[0] for v in views], top_n=2)
        assert combined.accesses == 3
        assert combined.total_cycles == 4 + 900 + 700
        assert combined.hit_levels == {"l1": 1, "memory": 2}
        assert combined.detail["runs"] == 3
        # Slowest list is the re-ranked union, truncated to top_n.
        assert [r.total_cycles for r in combined.slowest] == [900, 700]

    def test_combine_summaries_empty_is_zeroed(self):
        combined = combine_summaries([])
        assert combined.accesses == 0
        assert combined.detail == {"label": "overall", "runs": 0}
        assert combined.slowest == []

    def test_json_document_shape(self, tmp_path):
        path = _write_jsonl(tmp_path / "t.jsonl",
                            [_mark(workload="w"), _access(0)])
        view = read_trace(path)
        doc = json.loads(json.dumps(view.to_json_dict([path])))
        assert doc["schema"] == TRACE_SCHEMA
        assert doc["events"] == 2
        assert len(doc["runs"]) == 1
        assert doc["overall"]["accesses"] == 1
        assert set(doc["runs"][0]["cycle_attribution"]) == \
            {p.removesuffix("_cycles") for p in PHASES}

    def test_access_record_defaults(self):
        record = AccessRecord.from_events({"seq": 3}, [])
        assert record.seq == 3 and record.total_cycles == 0
        assert record.hit_level is None and record.timed


class TestTraceViewEndToEnd:
    def test_recorded_run_reconstructs(self, tmp_path):
        path = tmp_path / "run.jsonl"
        tracer = Tracer(sink=path)
        job = Job("stream", "hybrid_tlb", seed=42, **FAST)
        result = ExperimentPlan([job]).run(tracer=tracer).result(job)
        tracer.close()
        view = read_trace(path)
        assert len(view.runs) == 1
        run = view.runs[0]
        assert run.detail["workload"] == "stream"
        assert run.detail["mmu"] == "hybrid_tlb"
        # Every access (timed + warm-up) was sampled and reconstructed.
        assert run.accesses == FAST["accesses"] + FAST["warmup"]
        assert run.timed_accesses == FAST["accesses"]
        # The trace's timed hit mix matches the simulator's counters
        # in total, and the stage histograms saw every cache probe.
        assert sum(run.hit_levels.values()) == run.accesses
        assert run.stage_histograms["cache"].count >= run.accesses
        assert run.slowest[0].total_cycles >= run.slowest[-1].total_cycles
        assert result.accesses == FAST["accesses"]

    def test_sharded_parallel_equals_serial(self, tmp_path):
        sizes = [512, 1024, 2048, 4096]

        def capture(directory, workers):
            directory.mkdir()
            spec = TraceSpec(base=directory / "t.jsonl", sample_every=2)
            executor = ParallelExecutor(workers=workers) if workers > 1 \
                else SerialExecutor()
            jobs = grid_jobs("stream", "hybrid_tlb",
                             {"delayed_tlb.entries": sizes}, SystemConfig(),
                             seed=42, interval=None, **FAST)
            try:
                ExperimentPlan(jobs).run(executor=executor, trace_spec=spec)
            finally:
                executor.close()
            return spec.shards()

        serial = capture(tmp_path / "serial", workers=1)
        parallel = capture(tmp_path / "parallel", workers=3)
        assert [p.name for p in serial] == [p.name for p in parallel]
        # Shard contents are byte-identical: same jobs, same events.
        for a, b in zip(serial, parallel):
            assert a.read_text() == b.read_text()
        merged = read_trace(parallel)
        assert len(merged.runs) == len(sizes)
        overall = merged.overall()
        assert overall.accesses == len(sizes) * (
            FAST["accesses"] + FAST["warmup"]) // 2


class TestProfileAggregate:
    def test_single_result_aggregate_is_lossless(self):
        result = run_workload("stream", "hybrid_tlb", seed=42, interval=100,
                              **FAST)
        aggregate = aggregate_results([result])
        assert aggregate.points == 1
        assert aggregate.cycles == result.cycles
        assert aggregate.ipc == pytest.approx(result.ipc)
        assert aggregate.cycle_breakdown == result.cycle_breakdown
        assert aggregate.histograms == result.histograms
        assert [w["cycles"] for w in aggregate.intervals] == \
            [w["cycles"] for w in result.intervals]
        assert all(w["point"] == 0 for w in aggregate.intervals)

    def test_multi_result_sums_and_merges(self):
        a = run_workload("stream", "baseline", seed=42, interval=200, **FAST)
        b = run_workload("stream", "hybrid_tlb", seed=42, interval=200,
                         **FAST)
        aggregate = aggregate_results([a, b])
        assert aggregate.points == 2
        assert aggregate.cycles == a.cycles + b.cycles
        assert aggregate.instructions == a.instructions + b.instructions
        for name, snap in aggregate.histograms.items():
            parts = [r.histograms.get(name, {"count": 0}).get("count", 0)
                     for r in (a, b)]
            assert snap["count"] == sum(parts)
        # Intervals concatenate in plan order and are re-indexed.
        assert [w["index"] for w in aggregate.intervals] == \
            list(range(len(a.intervals) + len(b.intervals)))
        assert [w["point"] for w in aggregate.intervals] == \
            [0] * len(a.intervals) + [1] * len(b.intervals)


EIGHT_SIZES = "128,256,512,1024,2048,4096,8192,16384"


class TestCli:
    def _profile_json(self, capsys, extra):
        code = main(["profile", "stream", "hybrid_tlb",
                     "--accesses", "600", "--warmup", "200",
                     "--sizes", EIGHT_SIZES, "--json"] + extra)
        assert code == 0
        return json.loads(capsys.readouterr().out)

    def test_profile_sizes_parallel_identical_to_serial(self, capsys):
        """ISSUE 4 acceptance: an 8-point --sizes profile on 4 workers
        renders per-stage histograms identical to the serial run."""
        serial = self._profile_json(capsys, [])
        parallel = self._profile_json(capsys, ["--workers", "4"])
        assert serial["schema"] == "repro.profile/v1"
        assert serial["aggregate"]["points"] == 8
        assert parallel["aggregate"]["histograms"] == \
            serial["aggregate"]["histograms"]
        assert parallel == serial

    def test_trace_view_text_and_json(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert main(["run", "stream", "hybrid_tlb", "--accesses", "600",
                     "--warmup", "200", "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["trace", "view", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "stream/hybrid_tlb" in out
        assert "cycle attribution by phase" in out
        assert "slowest" in out
        assert main(["trace", "view", str(trace), "--json",
                     "--top", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == TRACE_SCHEMA
        assert len(doc["overall"]["slowest"]) == 3

    def test_trace_view_missing_file(self):
        with pytest.raises(SystemExit, match="cannot read trace"):
            main(["trace", "view", "/no/such/trace.jsonl"])

    def test_trace_workload_is_analyze(self, capsys):
        assert main(["trace", "workload", "stream",
                     "--accesses", "600"]) == 0
        assert "distinct pages" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", [
        ["--warmup", "100"], ["--json"], ["--interval", "10"],
        ["--trace-out", "t.jsonl"], ["--sample-every", "2"]])
    def test_trace_workload_rejects_simulation_flags(self, flag, capsys):
        """``trace workload`` simulates nothing, so the flags of the
        simulation commands are argparse errors, not silently ignored."""
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "workload", "stream", "--accesses", "600"]
                 + flag)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

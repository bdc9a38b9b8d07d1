"""Tests for the observability layer (repro.obs) and its wiring."""

from __future__ import annotations

import json
import math
import time

import pytest

from repro.common.params import SystemConfig
from repro.common.stats import StatGroup, derive_ratios
from repro.exec import ExperimentPlan, Job
from repro.obs import Histogram, IntervalRecorder, RunManifest, Tracer
from repro.obs.manifest import config_fingerprint
from repro.obs.tracer import NULL_TRACER
from repro.sim import build_mmu, lay_out, run_workload
from repro.sim.report import histogram_chart, horizontal_bars
from repro.sim.simulator import Simulator, outcome_blocks
from repro.osmodel.kernel import Kernel
from repro.timing.model import TimingModel

FAST = dict(accesses=600, warmup=200)


def traced_run(tracer, workload, mmu, **fields):
    """One job run through a plan that records into ``tracer``."""
    job = Job(workload, mmu, **fields)
    return ExperimentPlan([job]).run(tracer=tracer).result(job)


# --------------------------------------------------------------------- #
# Histogram
# --------------------------------------------------------------------- #

class TestHistogram:
    def test_bucket_boundaries(self):
        h = Histogram("t")
        for v in (0, 1, 2, 3, 4, 7, 8):
            h.record(v)
        # value 0 -> bucket 0; 1 -> [1,1]; 2,3 -> [2,3]; 4,7 -> [4,7]; 8 -> [8,15]
        assert h.counts[0] == 1
        assert h.counts[1] == 1
        assert h.counts[2] == 2
        assert h.counts[3] == 2
        assert h.counts[4] == 1
        assert Histogram.bucket_bounds(0) == (0, 0)
        assert Histogram.bucket_bounds(1) == (1, 1)
        assert Histogram.bucket_bounds(3) == (4, 7)

    def test_power_of_two_lands_in_new_bucket(self):
        h = Histogram("t")
        h.record(1024)
        lo, hi = Histogram.bucket_bounds(11)
        assert lo == 1024 and hi == 2047
        assert h.counts[11] == 1

    def test_count_total_mean(self):
        h = Histogram("t")
        for v in (2, 4, 6):
            h.record(v)
        assert h.count == 3
        assert h.total == 12
        assert h.mean() == 4.0

    def test_negative_clamps_to_zero_bucket(self):
        h = Histogram("t")
        h.record(-5)
        assert h.counts[0] == 1
        assert h.total == 0

    def test_percentile(self):
        h = Histogram("t")
        for _ in range(99):
            h.record(4)          # bucket [4, 7]
        h.record(1000)           # bucket [512, 1023]
        assert h.percentile(50) == 7
        assert h.percentile(100) == 1023

    def test_snapshot_lists_only_nonempty_buckets(self):
        h = Histogram("t")
        h.record(5)
        snap = h.snapshot()
        assert snap["count"] == 1
        assert snap["buckets"] == [{"lo": 4, "hi": 7, "count": 1}]

    def test_merge(self):
        a, b = Histogram("a"), Histogram("b")
        a.record(3)
        b.record(3)
        b.record(100)
        a.merge(b)
        assert a.count == 3
        assert a.counts[2] == 2

    def test_merge_disjoint_buckets(self):
        a, b = Histogram("a"), Histogram("b")
        a.record(1)              # bucket [1, 1]
        b.record(1000)           # bucket [512, 1023]
        a.merge(b)
        assert a.count == 2
        assert a.total == 1001
        assert a.counts[1] == 1 and a.counts[10] == 1
        # b is untouched by the merge.
        assert b.count == 1 and b.counts[10] == 1

    def test_merge_self_doubles(self):
        h = Histogram("t")
        for v in (3, 7, 200):
            h.record(v)
        h.merge(h)
        assert h.count == 6
        assert h.total == 2 * (3 + 7 + 200)
        assert h.counts[2] == 2 and h.counts[3] == 2 and h.counts[8] == 2

    def test_merge_empty_into_full(self):
        full, empty = Histogram("full"), Histogram("empty")
        full.record(42)
        before = full.snapshot()
        full.merge(empty)
        assert full.snapshot() == before

    def test_percentile_empty(self):
        h = Histogram("t")
        assert h.percentile(0) == 0
        assert h.percentile(50) == 0
        assert h.percentile(100) == 0

    def test_percentile_bounds(self):
        h = Histogram("t")
        h.record(1)              # [1, 1]
        h.record(1000)           # [512, 1023]
        # p=0 clamps to the first non-empty bucket, p=100 to the last;
        # out-of-range p behaves like the nearest bound.
        assert h.percentile(0) == 1
        assert h.percentile(100) == 1023
        assert h.percentile(-5) == h.percentile(0)
        assert h.percentile(250) == h.percentile(100)

    def test_from_snapshot_round_trip(self):
        h = Histogram("t")
        for v in (0, 1, 5, 5, 300, 70_000):
            h.record(v)
        rebuilt = Histogram.from_snapshot("t", h.snapshot())
        assert rebuilt.snapshot() == h.snapshot()
        assert rebuilt.counts == h.counts

    def test_from_snapshot_empty(self):
        rebuilt = Histogram.from_snapshot("t", Histogram("t").snapshot())
        assert rebuilt.count == 0 and rebuilt.total == 0

    def test_chart_renders(self):
        h = Histogram("t")
        for v in (4, 5, 6, 300):
            h.record(v)
        out = histogram_chart(h.snapshot())
        assert "[4, 7]" in out and "#" in out and "n=4" in out
        assert histogram_chart(Histogram("e").snapshot()) == "(empty histogram)"


# --------------------------------------------------------------------- #
# Tracer
# --------------------------------------------------------------------- #

class TestTracer:
    def test_null_tracer_never_records(self):
        assert NULL_TRACER.active is False
        assert NULL_TRACER.begin_access(0, 1, 0x1000, False) is False
        assert NULL_TRACER.recording is False

    def test_sampling(self):
        t = Tracer(sample_every=3)
        sampled = [t.begin_access(0, 1, i, False) for i in range(9)]
        assert sampled == [True, False, False] * 3
        assert t.accesses_seen == 9
        assert t.accesses_sampled == 3

    def test_ring_buffer_bounded(self):
        t = Tracer(buffer_size=4)
        for i in range(10):
            t.begin_access(0, 1, i, False)
            t.stage("cache", cycles=1)
        assert len(t.events) == 4
        assert t.events_emitted == 10

    def test_stage_events_share_seq(self):
        t = Tracer()
        t.begin_access(0, 7, 0x2000, True)
        t.stage("filter_probe", cycles=0, candidate=False)
        t.stage("cache", cycles=8, hit_level="l2")
        events = list(t.events)
        assert [e.stage for e in events] == ["filter_probe", "cache"]
        assert {e.seq for e in events} == {0}
        assert events[1].detail["hit_level"] == "l2"

    def test_jsonl_sink(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with Tracer(sink=path) as t:
            t.mark("run_start", workload="w")
            t.begin_access(0, 1, 0x1000, False)
            t.stage("cache", cycles=4, hit_level="l1")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert first["stage"] == "mark" and first["label"] == "run_start"
        assert second["stage"] == "cache" and second["hit_level"] == "l1"

    def test_simulation_emits_pipeline_stages(self):
        tracer = Tracer()
        traced_run(tracer, "stream", "hybrid_tlb", seed=42, **FAST)
        stages = {e.stage for e in tracer.events}
        assert {"filter_probe", "cache", "access"} <= stages
        # An LLC miss must have gone through the delayed TLB.
        assert "delayed_tlb" in stages
        closing = [e for e in tracer.events if e.stage == "access"]
        assert closing and all("hit_level" in e.detail for e in closing)

    def test_segment_walk_events(self):
        tracer = Tracer()
        traced_run(tracer, "stream", "hybrid_segments", seed=42, **FAST)
        stages = {e.stage for e in tracer.events}
        assert "segment_walk" in stages

    def test_close_is_idempotent(self, tmp_path):
        t = Tracer(sink=tmp_path / "t.jsonl")
        t.mark("run_start")
        with t:
            pass                 # __exit__ closes once...
        t.close()                # ...and an explicit second close is a no-op
        assert t.closed


class TestTracerParity:
    def test_results_identical_with_and_without_tracing(self):
        base = run_workload("stream", "hybrid_tlb", seed=42, interval=100,
                            **FAST)
        traced = traced_run(Tracer(sample_every=2), "stream", "hybrid_tlb",
                            seed=42, interval=100, **FAST)
        assert traced.instructions == base.instructions
        assert traced.accesses == base.accesses
        assert traced.cycles == base.cycles
        assert traced.ipc == base.ipc
        assert traced.cycle_breakdown == base.cycle_breakdown
        assert traced.stats == base.stats
        assert traced.histograms == base.histograms
        assert traced.intervals == base.intervals
        assert traced.manifest.identity() == base.manifest.identity()


# --------------------------------------------------------------------- #
# Interval snapshots
# --------------------------------------------------------------------- #

class TestIntervals:
    @pytest.mark.parametrize("accesses,interval", [(600, 200), (600, 250),
                                                   (100, 7)])
    def test_snapshot_count_is_ceil(self, accesses, interval):
        result = run_workload("stream", "hybrid_tlb", accesses=accesses,
                              warmup=100, seed=42, interval=interval)
        assert len(result.intervals) == math.ceil(accesses / interval)
        assert sum(s["accesses"] for s in result.intervals) == accesses

    def test_window_deltas_sum_to_aggregate(self):
        result = run_workload("stream", "baseline", seed=42, interval=100,
                              **FAST)
        assert len(result.intervals) == 6
        # Warm-up accesses are excluded from windows, so summed over the
        # windows every counter equals its delta over the timed phase:
        # what the same run reports when it zeroes its counters after
        # warm-up.
        timed = Job(workload="stream", mmu="baseline", seed=42,
                    reset_stats_after_warmup=True, **FAST).run()
        sums = {}
        for window in result.intervals:
            for group, deltas in window["counters"].items():
                group_sums = sums.setdefault(group, {})
                for name, delta in deltas.items():
                    group_sums[name] = group_sums.get(name, 0) + delta
        expected = {}
        for group, counters in timed.stats.items():
            nonzero = {name: value for name, value in counters.items()
                       if isinstance(value, int) and value}
            if nonzero:
                expected[group] = nonzero
        assert sums == expected

    def test_no_interval_means_no_snapshots(self):
        result = run_workload("stream", "baseline", seed=42, **FAST)
        assert result.intervals == []
        assert result.interval is None

    def test_recorder_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            IntervalRecorder(object(), object(), 0)

    def test_series_missing_group_or_counter_is_zeroes(self):
        class _Registry:
            def snapshot(self):
                return {"cache": {"hits": 0}}

        class _Acct:
            instructions = 0

        class _Timing:
            acct = _Acct()

            def total_cycles(self):
                return 0

        recorder = IntervalRecorder(_Registry(), _Timing(), 2)
        for _ in range(2):
            recorder.advance(2)
        recorder.finish()
        assert len(recorder.snapshots) == 2
        # A group or counter that never appeared yields an all-zero
        # series of the right length, not a KeyError.
        assert recorder.series("no_such_group", "hits") == [0, 0]
        assert recorder.series("cache", "no_such_counter") == [0, 0]


class _FakeTiming:
    """Mutable stand-in for TimingModel, driven tick by tick."""

    class _Acct:
        instructions = 0

    def __init__(self):
        self.acct = self._Acct()
        self.cycles = 0

    def total_cycles(self):
        return self.cycles


class _FakeRegistry:
    def __init__(self):
        self.counters = {"g": {"c": 0}}

    def snapshot(self):
        return {"g": dict(self.counters["g"])}


class TestIntervalCoarsening:
    """The recorder keeps every window: it never merges them."""

    def test_no_bound_means_no_coarsening(self):
        registry, timing = _FakeRegistry(), _FakeTiming()
        recorder = IntervalRecorder(registry, timing, 1)
        for _ in range(50):
            timing.acct.instructions += 1
            timing.cycles += 2
            registry.counters["g"]["c"] += 3
            recorder.advance(1)
        recorder.finish()
        assert len(recorder.snapshots) == 50
        assert recorder.interval == 1

    def test_advance_fills_windows_in_parts(self):
        registry, timing = _FakeRegistry(), _FakeTiming()
        recorder = IntervalRecorder(registry, timing, 5)
        for step in (2, 3, 5, 4):
            registry.counters["g"]["c"] += step
            recorder.advance(step)
        recorder.finish()
        assert [s["accesses"] for s in recorder.snapshots] == [5, 5, 4]
        assert recorder.series("g", "c") == [5, 5, 4]

    def test_advance_rejects_an_overrun_window(self):
        recorder = IntervalRecorder(_FakeRegistry(), _FakeTiming(), 5)
        recorder.advance(3)
        with pytest.raises(ValueError, match="overrun"):
            recorder.advance(3)


# --------------------------------------------------------------------- #
# Manifests
# --------------------------------------------------------------------- #

class TestManifest:
    def test_attached_to_results(self):
        result = run_workload("stream", "baseline", seed=42, **FAST)
        m = result.manifest
        assert isinstance(m, RunManifest)
        assert m.workload == "stream"
        assert m.seed == 42
        assert m.accesses == FAST["accesses"]
        assert m.package_version

    def test_identity_deterministic_for_fixed_seed(self):
        a = run_workload("stream", "hybrid_tlb", seed=42, **FAST)
        b = run_workload("stream", "hybrid_tlb", seed=42, **FAST)
        assert a.manifest.identity() == b.manifest.identity()
        # ... and the simulated outcomes match, as the identity promises.
        assert a.cycles == b.cycles and a.stats == b.stats

    def test_config_hash_tracks_parameters(self):
        base = SystemConfig()
        assert config_fingerprint(base) == config_fingerprint(SystemConfig())
        bigger = base.with_llc_size(8 * 1024 * 1024)
        assert config_fingerprint(base) != config_fingerprint(bigger)

    def test_json_round_trip(self):
        result = run_workload("stream", "baseline", seed=42, **FAST)
        doc = json.loads(json.dumps(result.to_json_dict()))
        assert doc["schema"] == "repro.result/v1"
        assert doc["manifest"]["config_hash"] == result.manifest.config_hash
        assert doc["cycle_breakdown"]
        assert "stats" in doc and "intervals" in doc


# --------------------------------------------------------------------- #
# Derived ratios / report fixes (satellites)
# --------------------------------------------------------------------- #

class TestDerivedRatios:
    def test_hit_rate_added_when_pair_exists(self):
        g = StatGroup("g")
        g.add("hits", 3)
        g.add("misses", 1)
        snap = g.snapshot_with_ratios()
        assert snap["hit_rate"] == 0.75
        assert snap["hits"] == 3

    def test_prefixed_pairs(self):
        snap = derive_ratios({"walk_cache_hits": 1, "walk_cache_misses": 3})
        assert snap["walk_cache_hit_rate"] == 0.25

    def test_no_ratio_without_pair_or_samples(self):
        assert "hit_rate" not in derive_ratios({"hits": 5})
        assert "hit_rate" not in derive_ratios({"hits": 0, "misses": 0})


class TestHorizontalBarsNegative:
    def test_negative_clamps_and_annotates(self):
        out = horizontal_bars({"up": 2.0, "down": -1.0}, width=10)
        down = [line for line in out.splitlines() if line.startswith("down")][0]
        assert "#" not in down
        assert "<0" in down

    def test_positive_rows_unchanged(self):
        out = horizontal_bars({"a": 1.0, "b": 2.0}, width=10)
        assert out.splitlines()[1].count("#") == 10


# --------------------------------------------------------------------- #
# Disabled-path overhead guard
# --------------------------------------------------------------------- #

def _fresh_system(accesses, warmup, seed=42):
    config = SystemConfig()
    kernel = Kernel(config)
    workload = lay_out("stream", kernel, seed=seed)
    mmu = build_mmu("hybrid_tlb", kernel, config)
    return mmu, workload


def _bare_loop(accesses, warmup):
    """The model work alone, in the simulator's blocks: the warm-up
    blocks, then each timed block accounted, with no observability
    around them."""
    mmu, workload = _fresh_system(accesses, warmup)
    timing = TimingModel(mmu.config.core, mlp=workload.spec.mlp)
    start = time.process_time()
    refs = workload.references(warmup + accesses, seed=42)
    for _outcomes in outcome_blocks(mmu.access, refs, warmup):
        pass
    for outcomes in outcome_blocks(mmu.access, refs, accesses):
        timing.account(outcomes, 1 + workload.spec.gap)
    return time.process_time() - start


def _instrumented_loop(accesses, warmup):
    mmu, workload = _fresh_system(accesses, warmup)
    sim = Simulator(mmu)
    start = time.process_time()
    sim.run(workload, accesses, warmup=warmup, seed=42)
    return time.process_time() - start


@pytest.mark.perf
def test_disabled_tracer_overhead_under_5_percent():
    """With tracing off, Simulator.run must stay within 5% of the bare
    loop: the same blocks of draws, accesses and accounting, without the
    manifest, the windows, the pulses or the tracer hooks."""
    accesses, warmup = 6000, 1000
    # Both loops are timed in CPU seconds of this process, so time the
    # host gives other tenants is not counted as plumbing.  Interleave
    # them so transient machine load hits both, alternating which runs
    # first each round to cancel order bias, and keep the minimum of
    # each: min-of-N converges to the true floor.
    # Stop as soon as the floors demonstrate compliance — more rounds
    # can only lower the minima, never overturn a pass.
    bare = instrumented = float("inf")
    for round_no in range(16):
        loops = [_bare_loop, _instrumented_loop]
        if round_no % 2:
            loops.reverse()
        for loop in loops:
            t = loop(accesses, warmup)
            if loop is _bare_loop:
                bare = min(bare, t)
            else:
                instrumented = min(instrumented, t)
        if round_no >= 4 and instrumented <= bare * 1.05:
            break
    assert instrumented <= bare * 1.05, (
        f"observability plumbing costs {instrumented / bare - 1:.1%} "
        f"with tracing disabled (bare={bare:.4f}s, sim={instrumented:.4f}s)")

"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands:

* ``workloads``  — list the calibrated workload catalog;
* ``configs``    — list MMU configurations (proposed + baselines + prior);
* ``run``        — simulate one (workload, configuration) point;
* ``compare``    — one workload across several configurations;
* ``sweep``      — delayed-TLB size sweep (Figure 4 style);
* ``profile``    — per-stage cycle attribution and latency histograms,
  for one point or an aggregated ``--sizes`` sweep;
* ``trace``      — the trace-analysis surface: ``trace view`` analyzes
  recorded JSONL event traces offline, ``trace workload`` profiles a
  workload's address stream (it simulates nothing, so it takes only
  ``--accesses``, ``--seed`` and ``--llc-mb``);
* ``bench``      — benchmark baselines: ``record`` / ``check`` (the
  regression gate);
* ``db``         — the cross-run metrics store: ``ingest`` recorded
  JSON documents into a SQLite history, ``query`` and ``trend`` it;
* ``report``     — the self-contained HTML report: ``report build``
  folds recorded JSON documents (+ optional trace shards and a ``--db``
  history) into one static page with the paper-fidelity scorecard,
  ``report bench`` renders a ``repro.bench.report/v1`` gate report;
* ``serve``      — the long-lived simulation service: accepts
  ``repro.job/v1`` submissions over HTTP, coalesces duplicate in-flight
  requests by fingerprint, serves cache hits from ``--cache-dir``, and
  applies admission control on a bounded queue; SIGTERM drains
  in-flight jobs before exit (see ``docs/serving.md``);
* ``experiments``— map paper artifacts to their benchmark modules.

``run``/``compare``/``sweep``/``profile`` and ``bench record|check``
each build their frozen jobs from the flags and hand them to one plan
runner, :func:`_run_plan`, which owns the run's lifecycle: telemetry,
tracing, executor, cache and progress are set up from the flags a
command has and torn down when the plan ends.
``run``/``compare``/``sweep``/``profile`` share the observability flags:
``--json`` (schema-stable document), ``--interval N`` (windowed stat
time series), ``--trace-out FILE`` (JSONL pipeline events) and
``--sample-every N`` (trace sampling).  See ``docs/observability.md``.

``run``/``compare``/``sweep``/``profile`` additionally take the
execution-engine flags: ``--workers N`` fans the independent simulation
points across a process pool, and ``--cache-dir DIR`` reuses
fingerprint-keyed results from earlier invocations so only changed
points are re-simulated.  With ``--workers N`` a ``--trace-out BASE``
becomes a family of per-job shards (``BASE.<fingerprint>.jsonl``, each
opened inside its worker); ``repro trace view BASE.*.jsonl`` merges
them.  See ``docs/execution.md``.

Live telemetry (``docs/observability.md``, "Live telemetry"): the same
four subcommands take ``--live`` (in-place stderr status line fed by
worker heartbeats: jobs done, throughput, ETA, stale workers),
``--metrics-port N`` (a stdlib HTTP ``/metrics`` endpoint in Prometheus
text format for the duration of the run; port 0 binds an ephemeral
port, printed to stderr) and ``--metrics-out FILE`` (JSONL registry
snapshots, appended periodically and once more after the deterministic
end-of-plan fold).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Iterable, List, Optional

from repro import __version__
from repro.common.params import SystemConfig
from repro.common.stats import mpki
from repro.obs.tracer import Tracer, TraceSpec
from repro.sim import MMU_CONFIGS, PRIOR_CONFIGS
from repro.sim.report import (
    breakdown_chart,
    cycle_attribution,
    histogram_chart,
    horizontal_bars,
    markdown_table,
    series_table,
)
from repro.sim.results import COMPARE_SCHEMA, SWEEP_SCHEMA, ComparisonRow
from repro.workloads import all_specs, names

# Each subcommand imports its own tools (engine, telemetry, trace
# analytics, store, reports, server), so a command loads only what it runs.
if TYPE_CHECKING:
    from repro.exec import Job, ResultCache
    from repro.exec.plan import PlanResults
    from repro.obs.heartbeat import (BeatSpec, HeartbeatMonitor, LiveStatus,
                                     StaleWorker)
    from repro.obs.metrics import MetricsRegistry, MetricsServer, SnapshotLog

EXPERIMENTS = (
    ("Table I", "benchmarks/test_table1_sharing.py",
     "r/w shared area and access ratios"),
    ("Table II", "benchmarks/test_table2_synonym_filter.py",
     "synonym-filter false positives, TLB access/miss reduction"),
    ("Figure 4", "benchmarks/test_fig4_delayed_tlb_mpki.py",
     "delayed-TLB MPKI vs. size"),
    ("Table III", "benchmarks/test_table3_segments.py",
     "segments, RMM MPKI, utilization"),
    ("Figure 7", "benchmarks/test_fig7_index_cache.py",
     "index-cache size sensitivity"),
    ("Figure 9", "benchmarks/test_fig9_native_performance.py",
     "native performance"),
    ("Figure 10*", "benchmarks/test_fig10_virtualization.py",
     "virtualized performance"),
    ("Figure 11*", "benchmarks/test_fig11_energy.py",
     "translation energy"),
    ("Ablations", "benchmarks/test_ablations.py",
     "filter granularity, SC size, allocation policy"),
    ("Prior schemes", "benchmarks/test_prior_schemes.py",
     "direct segment / RMM / Enigma comparison"),
)


def _system_config(args) -> SystemConfig:
    """The machine the flags describe."""
    config = SystemConfig()
    try:
        if getattr(args, "llc_mb", None):
            config = config.with_llc_size(args.llc_mb * 1024 * 1024)
        if getattr(args, "delayed_entries", None):
            config = config.with_delayed_tlb_entries(args.delayed_entries)
    except ValueError as exc:
        raise SystemExit(f"repro: cannot build that machine: {exc}")
    return config


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _trace_setup(args):
    """``(tracer, trace_spec)`` from the ``--trace-out`` family of flags.

    Serial execution records into one shared stream (byte-identical to
    the historical behavior); with ``--workers N > 1`` each job gets its
    own shard, ``<out>.<fingerprint>.jsonl``, opened inside the worker.
    """
    trace_out = getattr(args, "trace_out", None)
    if not trace_out:
        return None, None
    sample_every = args.sample_every
    if args.workers > 1:
        return None, TraceSpec(base=trace_out, sample_every=sample_every)
    try:
        return Tracer(sample_every=sample_every, sink=trace_out), None
    except OSError as exc:
        raise SystemExit(f"repro: cannot open trace sink {trace_out!r}: {exc}")


def _finish_trace(tracer: Optional[Tracer],
                  trace_spec: Optional[TraceSpec]) -> None:
    """Close a shared tracer / report where the shards landed."""
    if tracer is not None:
        tracer.close()
    if trace_spec is not None:
        shards = trace_spec.shards()
        print(f"repro: {len(shards)} trace shard(s) at "
              f"{trace_spec.base}.<fingerprint>.jsonl "
              f"(merge with: repro trace view {trace_spec.base}.*.jsonl)",
              file=sys.stderr)


def _executor(args):
    """Engine executor from ``--workers`` (serial unless N > 1); the
    command closes it when it ends, joining any pool workers."""
    from repro.exec import ParallelExecutor, SerialExecutor

    workers = getattr(args, "workers", None) or 1
    if workers > 1:
        return ParallelExecutor(workers=workers)
    return SerialExecutor()


def _cache(args) -> Optional[ResultCache]:
    from repro.exec import ResultCache

    cache_dir = getattr(args, "cache_dir", None)
    return ResultCache(cache_dir) if cache_dir else None


class _ProgressReporter:
    """Stderr progress lines plus a final one-line summary.

    Per-job lines say what actually happened — ``ran`` (simulated),
    ``cached`` (reused) or ``error`` — and once the last job resolves a
    single summary line totals them.  Under ``--live`` the in-place
    status line replaces the per-job lines and the summary is deferred
    to telemetry teardown (after the live line's terminal newline).
    """

    _LABELS = {"ok": "ran", "cached": "cached", "error": "error"}

    def __init__(self, live: Optional[LiveStatus] = None) -> None:
        self.ran = 0
        self.cached = 0
        self.failed = 0
        self._live = live
        self._summarized = False

    def __call__(self, done, total, job, status) -> None:
        if status == "cached":
            self.cached += 1
        elif status == "error":
            self.failed += 1
        else:
            self.ran += 1
        if self._live is not None:
            self._live.job_done(done, total, status)
            self._live.update()
        else:
            print(f"[{done}/{total}] {job.workload_name}/{job.mmu} "
                  f"{self._LABELS.get(status, status)}", file=sys.stderr)
            if done == total:
                self.summarize()

    def summarize(self) -> None:
        if self._summarized:
            return
        self._summarized = True
        print(f"repro: {self.ran} ran, {self.cached} cached, "
              f"{self.failed} failed", file=sys.stderr)


def _progress(args, telemetry: "Optional[_Telemetry]" = None):
    """Progress callback — engine flags or live telemetry turn it on;
    the default serial path stays byte-identical with ``None``."""
    live = telemetry.live_status if telemetry is not None else None
    if live is None \
            and (getattr(args, "workers", None) or 1) <= 1 \
            and not getattr(args, "cache_dir", None):
        return None
    reporter = _ProgressReporter(live=live)
    if telemetry is not None:
        telemetry.reporter = reporter
    return reporter


class _Telemetry:
    """One lifecycle for ``--live`` / ``--metrics-port`` / ``--metrics-out``.

    Inert (every attribute ``None``) unless one of the flags is set.
    When active it owns the metrics registry, the heartbeat channel
    (manager included under ``--workers``), the monitor thread, the
    optional ``/metrics`` server and the optional JSONL snapshot log;
    :meth:`finish` tears all of it down in the right order and appends
    the final post-fold snapshot so the log always ends on the
    deterministic end-of-plan state.
    """

    def __init__(self, args) -> None:
        self.registry: Optional[MetricsRegistry] = None
        self.beat: Optional[BeatSpec] = None
        self.live_status: Optional[LiveStatus] = None
        self.reporter: Optional[_ProgressReporter] = None
        self._monitor: Optional[HeartbeatMonitor] = None
        self._manager = None
        self._server: Optional[MetricsServer] = None
        self._log: Optional[SnapshotLog] = None
        live = getattr(args, "live", False)
        port = getattr(args, "metrics_port", None)
        out = getattr(args, "metrics_out", None)
        self.active = live or port is not None or bool(out)
        if not self.active:
            return
        from repro.obs.heartbeat import (BeatSpec, HeartbeatMonitor,
                                         LiveStatus, open_beat_channel)
        from repro.obs.metrics import (MetricsRegistry, MetricsServer,
                                       SnapshotLog)

        self.registry = MetricsRegistry()
        queue, self._manager = open_beat_channel(parallel=args.workers > 1)
        self.beat = BeatSpec(queue=queue)
        if live:
            self.live_status = LiveStatus()
        if out:
            try:
                self._log = SnapshotLog(out)
            except OSError as exc:
                raise SystemExit(
                    f"repro: cannot open metrics log {out!r}: {exc}")
        self._monitor = HeartbeatMonitor(
            queue, registry=self.registry, on_stale=self._report_stale,
            live=self.live_status, snapshot_log=self._log)
        if port is not None:
            try:
                self._server = MetricsServer(self.registry,
                                             port=port).start()
            except OSError as exc:
                raise SystemExit(
                    f"repro: cannot serve /metrics on port {port}: {exc}")
            print(f"repro: serving /metrics on "
                  f"http://{self._server.host}:{self._server.port}/metrics",
                  file=sys.stderr)
        self._monitor.start()

    def _report_stale(self, finding: StaleWorker) -> None:
        status = finding.status
        print(f"\nrepro: stale worker: {status.workload}/{status.mmu} "
              f"({status.job[:12]}, pid {status.pid}) silent for "
              f"{finding.silent_s:.0f}s at "
              f"{status.done}/{status.total} accesses", file=sys.stderr)

    def finish(self) -> None:
        """Stop the monitor, close the channel, flush the final state."""
        if not self.active:
            return
        if self._monitor is not None:
            self._monitor.stop()
        if self.live_status is not None:
            self.live_status.finish(self._monitor)
        if self.reporter is not None and self.live_status is not None:
            self.reporter.summarize()
        if self._log is not None:
            self._log.append(self.registry)
            print(f"repro: {self._log.appended} metrics snapshot(s) "
                  f"appended", file=sys.stderr)
            self._log.close()
        if self._server is not None:
            self._server.close()
        if self._manager is not None:
            self._manager.shutdown()


def _write_report_out(args, *docs, label: str) -> None:
    """``--report-out FILE``: fold this command's documents into a
    self-contained HTML report (see ``repro report build``)."""
    out = getattr(args, "report_out", None)
    if not out:
        return
    from repro.report import ReportBundle, build_report

    bundle = ReportBundle()
    for doc in docs:
        bundle.add_doc(doc, source=label)
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(build_report(bundle))
    except OSError as exc:
        raise SystemExit(f"repro: cannot write report {out!r}: {exc}")
    print(f"repro: HTML report written to {out}", file=sys.stderr)


def _json_interval(args) -> Optional[int]:
    """Interval for machine-readable output: explicit flag, or a tenth
    of the timed window so ``--json`` documents always carry a series."""
    if getattr(args, "interval", None):
        return args.interval
    if getattr(args, "json", False):
        return max(1, args.accesses // 10)
    return None


def cmd_workloads(_args) -> None:
    rows = []
    for s in all_specs():
        sharing = (f"{s.sharing.processes}p/"
                   f"{100 * s.sharing.area_fraction:.0f}%area"
                   if s.sharing else "-")
        patterns = "+".join(m.kind for m in s.patterns)
        rows.append([s.name, f"{s.footprint_bytes // (1 << 20)}MB", patterns,
                     f"{s.mem_ratio:.2f}", f"{s.mlp:.1f}", sharing])
    print(markdown_table(
        ["workload", "footprint", "patterns", "mem ratio", "MLP", "sharing"],
        rows))


def cmd_configs(_args) -> None:
    descriptions = {
        "baseline": "conventional two-level TLBs, physical caches",
        "ideal": "no-TLB-miss upper bound",
        "hybrid_tlb": "hybrid virtual caching + delayed TLB",
        "hybrid_segments": "hybrid + many-segment translation (with SC)",
        "hybrid_segments_nosc": "many-segment without the segment cache",
        "direct_segment": "one range + paging (Basu et al.)",
        "rmm": "32 core-side ranges (Karakostas et al.)",
        "enigma": "intermediate addresses + delayed page TLB (Zhang et al.)",
        "baseline_thp": "conventional MMU + transparent 2 MB huge pages",
    }
    rows = [[name, descriptions.get(name, "")]
            for name in MMU_CONFIGS + PRIOR_CONFIGS]
    print(markdown_table(["configuration", "description"], rows))


def _job(args, mmu: str, interval: Optional[int]) -> Job:
    """One point of a simulation command, from its flags."""
    from repro.exec import Job

    return Job(workload=args.workload, mmu=mmu, config=_system_config(args),
               accesses=args.accesses, warmup=args.warmup, seed=args.seed,
               interval=interval)


#: The field ``sweep`` and ``profile --sizes`` sweep, and the tag of each
#: point's ``run_start`` trace mark.
SWEEP_FIELD = "delayed_tlb.entries"


def _sweep_jobs(args, mmu: str, sizes: List[int],
                interval: Optional[int]) -> List[Job]:
    """One point per delayed-TLB size of a sweeping command."""
    from repro.sim.sweep import grid_jobs

    base = _system_config(args)
    try:
        return grid_jobs(args.workload, mmu, {SWEEP_FIELD: sizes}, base,
                         args.accesses, args.warmup, args.seed, interval)
    except ValueError as exc:
        raise SystemExit(f"repro: cannot build that machine: {exc}")


def _run_plan(args, jobs: Iterable[Job]) -> PlanResults:
    """Run one command's jobs: the single run lifecycle.

    Telemetry, the shared tracer or shard spec, the executor, the cache
    and progress come from the flags (a flag a command lacks reads as
    unset); the executor, the trace and the telemetry are closed, in
    that order, however the plan ends.
    """
    from repro.exec import ExperimentPlan

    telemetry = _Telemetry(args)
    tracer, trace_spec = _trace_setup(args)
    executor = _executor(args)
    try:
        return ExperimentPlan(jobs).run(
            executor=executor, cache=_cache(args), tracer=tracer,
            progress=_progress(args, telemetry), trace_spec=trace_spec,
            metrics=telemetry.registry, beat=telemetry.beat)
    finally:
        executor.close()
        _finish_trace(tracer, trace_spec)
        telemetry.finish()


def cmd_run(args) -> None:
    job = _job(args, args.config, _json_interval(args))
    result = _run_plan(args, [job]).result(job)
    doc = result.to_json_dict()
    doc["config"] = args.config
    _write_report_out(args, doc, label=f"run {args.workload}/{args.config}")
    if args.json:
        print(json.dumps(doc, indent=2))
        return
    print(f"workload={result.workload} config={result.mmu}")
    print(f"instructions={result.instructions} accesses={result.accesses}")
    print(f"cycles={result.cycles:.0f} ipc={result.ipc:.4f} "
          f"llc_miss_rate={result.llc_miss_rate():.3f}")
    hybrid = result.group("hybrid")
    if hybrid:
        total = hybrid.get("accesses", 0)
        bypass = hybrid.get("tlb_bypasses", 0)
        print(f"tlb_bypass_rate={bypass / total:.3f}" if total else "")
    delayed = result.group("delayed_tlb")
    if delayed:
        print(f"delayed_tlb_mpki={mpki(delayed.get('misses', 0), result.instructions):.2f}")


def cmd_compare(args) -> None:
    configs = args.configs.split(",") if args.configs else list(MMU_CONFIGS)
    jobs = {name: _job(args, name, _json_interval(args)) for name in configs}
    outcomes = _run_plan(args, jobs.values())
    results = {name: outcomes.result(job) for name, job in jobs.items()}
    normalized = ComparisonRow(args.workload, results).normalized(configs[0])
    doc = {"schema": COMPARE_SCHEMA,
           "workload": args.workload,
           "normalized_to": configs[0],
           "speedups": normalized,
           "results": {name: r.to_json_dict()
                       for name, r in results.items()}}
    _write_report_out(args, doc, label=f"compare {args.workload}")
    if args.json:
        print(json.dumps(doc, indent=2))
        return
    print(f"{args.workload}: performance normalized to {configs[0]}")
    print(horizontal_bars(normalized, reference=1.0))


def cmd_sweep(args) -> None:
    sizes = [int(s) for s in args.sizes.split(",")]
    jobs = _sweep_jobs(args, "hybrid_tlb", sizes, _json_interval(args))
    outcomes = _run_plan(args, jobs)
    results = [outcomes.result(job) for job in jobs]
    mpkis = [r.tlb_mpki() for r in results]
    doc = {"schema": SWEEP_SCHEMA,
           "workload": args.workload,
           "sizes": sizes,
           "delayed_tlb_mpki": mpkis,
           "results": [r.to_json_dict() for r in results]}
    _write_report_out(args, doc, label=f"sweep {args.workload}")
    if args.json:
        print(json.dumps(doc, indent=2))
        return
    series = {args.workload: mpkis}
    print("delayed-TLB MPKI by entry count")
    print(series_table(series, [str(s) for s in sizes]))


def cmd_profile(args) -> None:
    """Per-stage cycle attribution + latency histograms.

    Without ``--sizes`` this profiles one (workload, config) point.  With
    ``--sizes A,B,...`` it sweeps ``delayed_tlb.entries`` across those
    values (optionally on ``--workers N`` processes) and renders the
    plan-level aggregate — per-stage histograms merged across every
    point, cycle breakdowns summed — which is identical however the
    points were scheduled.
    """
    interval = args.interval or max(1, args.accesses // 10)
    if args.sizes:
        _profile_sweep(args, interval)
        return
    job = _job(args, args.config, interval)
    result = _run_plan(args, [job]).result(job)
    if args.json:
        doc = result.to_json_dict()
        doc["config"] = args.config
        print(json.dumps(doc, indent=2))
        return
    manifest = result.manifest
    print(f"workload={result.workload} config={args.config} "
          f"seed={manifest.seed if manifest else args.seed}")
    if manifest:
        print(f"config_hash={manifest.config_hash} "
              f"repro={manifest.package_version} "
              f"duration={manifest.duration_s:.2f}s")
    print(f"instructions={result.instructions} accesses={result.accesses} "
          f"ipc={result.ipc:.4f}")
    print()
    print("cycle attribution by pipeline stage")
    print(cycle_attribution(result.cycle_breakdown))
    print()
    print(breakdown_chart(result.cycle_breakdown))
    for name in sorted(result.histograms):
        snap = result.histograms[name]
        if not snap.get("count"):
            continue
        print()
        print(f"histogram: {name}")
        print(histogram_chart(snap))
    if result.intervals:
        print()
        print("per-interval IPC "
              f"({result.interval} accesses per window)")
        ipcs = [s["ipc"] for s in result.intervals]
        print(series_table({"ipc": ipcs},
                           [str(s["index"]) for s in result.intervals],
                           fmt="{:8.3f}", first_header="window"))


def _profile_sweep(args, interval: int) -> None:
    """``profile --sizes``: aggregated sweep over delayed-TLB entries."""
    from repro.obs.aggregate import PROFILE_SCHEMA, aggregate_results

    sizes = [int(s) for s in args.sizes.split(",")]
    jobs = _sweep_jobs(args, args.config, sizes, interval)
    outcomes = _run_plan(args, jobs)
    by_size = {size: outcomes.result(job) for size, job in zip(sizes, jobs)}
    results = [by_size[size] for size in sizes]
    aggregate = aggregate_results(results)
    if args.json:
        print(json.dumps({
            "schema": PROFILE_SCHEMA,
            "workload": args.workload,
            "config": args.config,
            "param": SWEEP_FIELD,
            "sizes": sizes,
            "points": [{"size": size,
                        "ipc": by_size[size].ipc,
                        "cycles": by_size[size].cycles}
                       for size in sizes],
            "aggregate": aggregate.to_json_dict(),
        }, indent=2))
        return
    print(f"workload={args.workload} config={args.config} "
          f"{SWEEP_FIELD}={args.sizes} seed={args.seed}")
    print(f"points={aggregate.points} "
          f"instructions={aggregate.instructions} "
          f"accesses={aggregate.accesses} ipc={aggregate.ipc:.4f}")
    print()
    print("per-point IPC")
    print(series_table({"ipc": [by_size[size].ipc for size in sizes]},
                       [str(size) for size in sizes],
                       fmt="{:8.3f}", first_header="entries"))
    print()
    print("aggregate cycle attribution by pipeline stage")
    print(cycle_attribution(aggregate.cycle_breakdown))
    print()
    print(breakdown_chart(aggregate.cycle_breakdown))
    for name in sorted(aggregate.histograms):
        snap = aggregate.histograms[name]
        if not snap.get("count"):
            continue
        print()
        print(f"histogram: {name} (merged across {aggregate.points} points)")
        print(histogram_chart(snap))


def _trace_workload(args) -> None:
    """``repro trace workload``: profile a workload's address stream."""
    from repro.osmodel import Kernel
    from repro.sim import lay_out
    from repro.workloads.analysis import analyze

    kernel = Kernel(_system_config(args))
    workload = lay_out(args.workload, kernel, seed=args.seed)
    profile = analyze(workload.trace(args.accesses))
    print(f"workload={args.workload} accesses={profile.accesses}")
    print(f"distinct pages={profile.distinct_pages} "
          f"blocks={profile.distinct_blocks} "
          f"write_fraction={profile.write_fraction:.2f}")
    print("page-popularity coverage (≈ perfect-TLB hit-rate bound):")
    for entries, share in profile.page_coverage:
        print(f"  top {entries:>6} pages -> {100 * share:5.1f}% of accesses")


def _render_run_summary(summary, heading: str) -> None:
    """Text rendering of one traceview :class:`RunSummary`."""
    print(heading)
    print(f"accesses={summary.accesses} timed={summary.timed_accesses} "
          f"total_cycles={summary.total_cycles}")
    attribution = summary.attribution()
    if any(attribution.values()):
        print()
        print("cycle attribution by phase")
        print(cycle_attribution(attribution))
    if summary.hit_levels:
        print()
        print("hit-level mix")
        total = sum(summary.hit_levels.values())
        print(horizontal_bars(
            {level: count / total
             for level, count in sorted(summary.hit_levels.items())},
            fmt="{:6.3f}"))
    for name in sorted(summary.stage_histograms):
        snap = summary.stage_histograms[name].snapshot()
        if not snap.get("count"):
            continue
        print()
        print(f"stage latency histogram: {name}")
        print(histogram_chart(snap))
    if summary.slowest:
        print()
        print(f"slowest {len(summary.slowest)} accesses")
        rows = [[record.seq, f"0x{record.va:x}",
                 "w" if record.is_write else "r",
                 record.hit_level or "-", record.total_cycles,
                 " ".join(f"{phase}={cycles}" for phase, cycles
                          in record.phase_cycles.items() if cycles)]
                for record in summary.slowest]
        print(markdown_table(
            ["seq", "va", "rw", "hit", "cycles", "phases"], rows))


def cmd_trace(args) -> Optional[int]:
    """``repro trace view|workload`` — the trace-analysis surface."""
    if args.trace_command == "workload":
        return _trace_workload(args)
    from repro.obs.traceview import read_trace

    try:
        view = read_trace(args.files, top_n=args.top)
    except OSError as exc:
        raise SystemExit(f"repro: cannot read trace: {exc}")
    if args.json:
        print(json.dumps(view.to_json_dict(args.files), indent=2))
        return None
    print(f"files={len(args.files)} events={view.events_seen} "
          f"runs={len(view.runs)}"
          + (f" skipped_lines={view.skipped_lines}"
             if view.skipped_lines else ""))
    for index, run in enumerate(view.runs):
        print()
        _render_run_summary(run, f"run {index}: {run.label}")
    if len(view.runs) > 1:
        print()
        _render_run_summary(view.overall(),
                            f"overall ({len(view.runs)} runs combined)")
    return None


def cmd_bench(args) -> Optional[int]:
    """``repro bench record|check`` — the regression gate."""
    from repro import bench

    if args.bench_command == "record":
        jobs = bench.suite_jobs(
            accesses=(args.accesses if args.accesses is not None
                      else bench.DEFAULT_ACCESSES),
            warmup=(args.warmup if args.warmup is not None
                    else bench.DEFAULT_WARMUP),
            seed=args.seed if args.seed is not None else bench.DEFAULT_SEED)
        entries = bench.run_suite(
            jobs, _run_plan(args, (job for _, job in jobs)))
        doc = bench.make_baseline(entries)
        path = bench.save_baseline(doc, args.out)
        print(f"recorded {len(entries)} benchmark(s) -> {path}")
        for entry in entries:
            metrics = " ".join(f"{k}={v:.6g}"
                               for k, v in sorted(entry["metrics"].items()))
            print(f"  {entry['name']}: {metrics}")
        return None

    # check
    try:
        baseline = bench.load_baseline(args.baseline)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"repro: cannot load baseline: {exc}")
    if args.current:
        try:
            current = bench.load_baseline(args.current)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"repro: cannot load current document: {exc}")
    else:
        jobs = bench.jobs_from_baseline(baseline)
        if not jobs:
            raise SystemExit(
                "repro: baseline has no re-runnable benchmarks (no job "
                "parameters recorded); pass --current to compare against "
                "a pre-recorded document")
        entries = bench.run_suite(
            jobs, _run_plan(args, (job for _, job in jobs)))
        current = bench.make_baseline(entries)
    report = bench.compare_baselines(
        baseline, current, threshold_pct=args.threshold,
        seconds_threshold_pct=args.seconds_threshold)
    if getattr(args, "db", None):
        from repro.obs.store import MetricsStore

        with MetricsStore(args.db) as store:
            # History first (prior runs only), then record this run.
            bench.attach_history(report, current, store)
            store.ingest(current, source="bench check")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(report.to_markdown() + "\n")
    _write_report_out(args, report.to_json_dict(), current,
                      label="bench check")
    if args.json_report:
        with open(args.json_report, "w", encoding="utf-8") as handle:
            json.dump(report.to_json_dict(), handle, indent=2)
            handle.write("\n")
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        print(report.to_markdown())
    return 0 if report.ok else 1


def cmd_db(args) -> Optional[int]:
    """``repro db ingest|query|trend`` — the cross-run metrics store."""
    from repro.obs.store import MetricsStore, format_runs, format_trend

    with MetricsStore(args.db) as store:
        if args.db_command == "ingest":
            status = 0
            total = 0
            for path in args.files:
                try:
                    with open(path, encoding="utf-8") as handle:
                        doc = json.load(handle)
                    keys = store.ingest(doc, source=path)
                except (OSError, ValueError, json.JSONDecodeError) as exc:
                    print(f"repro: {path}: {exc}", file=sys.stderr)
                    status = 1
                    continue
                total += len(keys)
                print(f"{path}: {len(keys)} run(s)")
            print(f"ingested {total} run(s) -> {args.db} "
                  f"({len(store)} total)")
            return status

        if args.db_command == "query":
            rows = store.query(workload=args.workload, mmu=args.mmu,
                               metric=args.metric)
            if args.json:
                print(json.dumps([{
                    "run_key": r.run_key, "workload": r.workload,
                    "mmu": r.mmu, "package_version": r.package_version,
                    "started_at": r.started_at, "source": r.source,
                    "metrics": r.metrics} for r in rows], indent=2))
            else:
                print(format_runs(rows, metric=args.metric))
            return None

        # trend
        if args.metric is None:
            names_known = store.metric_names()
            raise SystemExit("repro: db trend needs --metric; recorded: "
                             + (", ".join(names_known) or "(none)"))
        history = store.trend(args.metric, workload=args.workload,
                              mmu=args.mmu, limit=args.limit)
        if args.json:
            print(json.dumps([{
                "run_key": run.run_key, "workload": run.workload,
                "mmu": run.mmu, "value": value,
                "started_at": run.started_at} for run, value in history],
                indent=2))
        else:
            print(format_trend(history, args.metric))
        return None


def cmd_report(args) -> Optional[int]:
    """``repro report build|bench`` — the HTML report generator."""
    from repro.bench.gate import GATE_REPORT_SCHEMA
    from repro.report import (build_bench_report_page, build_report,
                              load_bundle)

    if args.report_command == "bench":
        try:
            with open(args.file, encoding="utf-8") as handle:
                doc = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(f"repro: cannot read gate report: {exc}")
        if doc.get("schema") != GATE_REPORT_SCHEMA:
            raise SystemExit(
                f"repro: expected a {GATE_REPORT_SCHEMA} document, "
                f"got {doc.get('schema')!r}")
        page = build_bench_report_page(doc, source=args.file)
        return _emit_report(page, args.out)

    # build
    try:
        bundle = load_bundle(args.files, trace_paths=args.trace or (),
                             db_path=args.db)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise SystemExit(f"repro: cannot build report: {exc}")
    if not len(bundle) and not bundle.history:
        print("repro: warning: no inputs — the report will carry an "
              "all-no-data scorecard", file=sys.stderr)
    page = build_report(bundle, title=args.title)
    return _emit_report(page, args.out)


def _emit_report(page: str, out: Optional[str]) -> Optional[int]:
    if not out:
        print(page, end="")
        return None
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(page)
    except OSError as exc:
        raise SystemExit(f"repro: cannot write report {out!r}: {exc}")
    print(f"repro: HTML report written to {out}", file=sys.stderr)
    return None


def cmd_serve(args) -> int:
    """``repro serve`` — the long-lived simulation service."""
    import signal
    import threading

    from repro.serve import JobService, ServeServer

    # Handle the signals before the banner says the server is up, so a
    # SIGTERM sent right after it drains instead of killing the process.
    stop = threading.Event()

    def _on_signal(signum, _frame) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    service = JobService(cache=_cache(args), executor=_executor(args),
                         max_queue=args.max_queue,
                         job_timeout=args.timeout)
    try:
        server = ServeServer(service, host=args.host,
                             port=args.port).start()
    except OSError as exc:
        service.close()
        raise SystemExit(
            f"repro: cannot serve on {args.host}:{args.port}: {exc}")
    print(f"repro: serving jobs on {server.url}/jobs "
          f"(workers={args.workers}, max-queue={args.max_queue}"
          + (f", cache={args.cache_dir}" if args.cache_dir else "")
          + ")", file=sys.stderr, flush=True)
    try:
        while not stop.is_set():
            stop.wait(0.5)
    finally:
        print("repro: draining (no new submissions)...", file=sys.stderr,
              flush=True)
        drained = service.drain(timeout=args.drain_timeout)
        server.close()
        service.close()
        counts = service.counts()
        print(f"repro: {'drained' if drained else 'drain timed out'}: "
              f"{counts['done']} done, {counts['error']} failed",
              file=sys.stderr, flush=True)
    return 0 if drained else 1


def cmd_experiments(_args) -> None:
    print(markdown_table(["artifact", "benchmark", "what it shows"],
                         EXPERIMENTS))
    print("\nRun them with: pytest benchmarks/ --benchmark-only -s")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hybrid virtual caching (ISCA 2016) reproduction")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list the workload catalog")
    sub.add_parser("configs", help="list MMU configurations")
    sub.add_parser("experiments", help="map paper artifacts to benchmarks")

    def add_workload(p):
        p.add_argument("workload", choices=names())
        p.add_argument("--accesses", type=int, default=30_000)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--llc-mb", type=int, dest="llc_mb",
                       help="override LLC size (MiB)")

    def add_common(p):
        add_workload(p)
        p.add_argument("--warmup", type=int, default=10_000)
        p.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON instead of text")
        p.add_argument("--interval", type=_positive_int,
                       help="record stat snapshots every N timed accesses")
        p.add_argument("--trace-out", dest="trace_out", metavar="FILE",
                       help="write per-access pipeline events (JSONL)")
        p.add_argument("--sample-every", type=_positive_int,
                       dest="sample_every", default=1, metavar="N",
                       help="trace every Nth access (default: 1)")

    def add_exec(p):
        p.add_argument("--workers", type=_positive_int, default=1,
                       metavar="N",
                       help="run independent points on N processes "
                            "(default: 1, serial)")
        p.add_argument("--cache-dir", dest="cache_dir", metavar="DIR",
                       help="reuse fingerprint-keyed results from DIR; "
                            "only changed points are re-simulated")

    def add_report_out(p):
        p.add_argument("--report-out", dest="report_out", metavar="FILE",
                       help="also write a self-contained HTML report of "
                            "this command's results (scorecard included)")

    def add_telemetry(p):
        p.add_argument("--live", action="store_true",
                       help="in-place stderr status line fed by worker "
                            "heartbeats (throughput, ETA, stale workers)")
        p.add_argument("--metrics-port", type=int, dest="metrics_port",
                       metavar="PORT",
                       help="serve Prometheus text format on "
                            "http://127.0.0.1:PORT/metrics for the "
                            "duration of the run (0 = ephemeral port)")
        p.add_argument("--metrics-out", dest="metrics_out", metavar="FILE",
                       help="append JSONL registry snapshots to FILE "
                            "(last line = deterministic end-of-plan state)")

    run_parser = sub.add_parser("run", help="simulate one configuration")
    add_common(run_parser)
    add_exec(run_parser)
    add_telemetry(run_parser)
    add_report_out(run_parser)
    run_parser.add_argument("config",
                            choices=MMU_CONFIGS + PRIOR_CONFIGS)
    run_parser.add_argument("--delayed-entries", type=int,
                            dest="delayed_entries")

    profile_parser = sub.add_parser(
        "profile", help="per-stage cycle attribution + latency histograms",
        description="Per-stage cycle attribution table, latency histograms "
                    "and per-interval IPC for one (workload, config) point, "
                    "or the merged aggregate of a --sizes sweep.")
    add_common(profile_parser)
    add_exec(profile_parser)
    add_telemetry(profile_parser)
    profile_parser.add_argument("config",
                                choices=MMU_CONFIGS + PRIOR_CONFIGS)
    profile_parser.add_argument("--delayed-entries", type=int,
                                dest="delayed_entries")
    profile_parser.add_argument(
        "--sizes", metavar="A,B,...",
        help="sweep delayed_tlb.entries across these values and render "
             "the aggregated profile (merged histograms, summed cycles)")

    compare_parser = sub.add_parser("compare",
                                    help="compare configurations")
    add_common(compare_parser)
    add_exec(compare_parser)
    add_telemetry(compare_parser)
    add_report_out(compare_parser)
    compare_parser.add_argument("--configs",
                                help="comma-separated configuration names")

    sweep_parser = sub.add_parser("sweep", help="delayed-TLB size sweep")
    add_common(sweep_parser)
    add_exec(sweep_parser)
    add_telemetry(sweep_parser)
    add_report_out(sweep_parser)
    sweep_parser.add_argument("--sizes", default="1024,4096,16384,65536")

    trace_parser = sub.add_parser(
        "trace", help="trace analytics: view recorded JSONL, profile "
                      "a workload's address stream")
    trace_sub = trace_parser.add_subparsers(dest="trace_command",
                                            required=True)
    view_parser = trace_sub.add_parser(
        "view", help="analyze recorded --trace-out JSONL files",
        description="Stream one or many JSONL trace files (a single "
                    "--trace-out stream or the BASE.<fingerprint>.jsonl "
                    "shards of a parallel run), split on run_start marks "
                    "and report per-run cycle attribution, stage latency "
                    "histograms, hit-level mix and the slowest accesses.")
    view_parser.add_argument("files", nargs="+", metavar="TRACE",
                             help="JSONL trace file(s); shell globs of "
                                  "shard families work as-is")
    view_parser.add_argument("--top", type=_positive_int, default=5,
                             metavar="N",
                             help="slowest accesses to keep (default: 5)")
    view_parser.add_argument("--json", action="store_true",
                             help="emit the repro.trace/v1 document")
    workload_parser = trace_sub.add_parser(
        "workload", help="profile a workload's address stream")
    add_workload(workload_parser)

    bench_parser = sub.add_parser(
        "bench", help="benchmark baselines and the regression gate")
    bench_sub = bench_parser.add_subparsers(dest="bench_command",
                                            required=True)
    record_parser = bench_sub.add_parser(
        "record", help="run the canonical suite and write a baseline",
        description="Run the canonical model-metric suite and write a "
                    "repro.bench/v2 baseline document; every entry is "
                    "self-describing so `bench check` can re-run it.")
    record_parser.add_argument("--out", required=True, metavar="FILE",
                               help="baseline JSON to write")
    record_parser.add_argument("--accesses", type=int, default=None)
    record_parser.add_argument("--warmup", type=int, default=None)
    record_parser.add_argument("--seed", type=int, default=None)
    add_exec(record_parser)
    check_parser = bench_sub.add_parser(
        "check", help="re-run the suite and gate against a baseline",
        description="Re-run the benchmarks a baseline describes (or load "
                    "--current) and compare metric by metric; exits "
                    "non-zero when any gated metric regressed past the "
                    "threshold.")
    check_parser.add_argument("--baseline", required=True, metavar="FILE")
    check_parser.add_argument("--current", metavar="FILE",
                              help="compare this pre-recorded document "
                                   "instead of re-running the suite")
    check_parser.add_argument("--threshold", type=float, default=10.0,
                              metavar="PCT",
                              help="model-metric regression threshold in "
                                   "percent (default: 10)")
    check_parser.add_argument("--seconds-threshold", type=float,
                              default=None, dest="seconds_threshold",
                              metavar="PCT",
                              help="also gate wall-clock seconds at this "
                                   "threshold (default: report only)")
    check_parser.add_argument("--report", metavar="FILE",
                              help="write the markdown report here")
    check_parser.add_argument("--json-report", dest="json_report",
                              metavar="FILE",
                              help="write the repro.bench.report/v1 "
                                   "JSON document here")
    check_parser.add_argument("--json", action="store_true",
                              help="print the JSON report to stdout "
                                   "instead of markdown")
    check_parser.add_argument("--db", metavar="FILE",
                              help="cross-run metrics store: annotate the "
                                   "report with each metric's recorded "
                                   "history, then ingest this run")
    add_exec(check_parser)
    add_report_out(check_parser)

    db_parser = sub.add_parser(
        "db", help="cross-run metrics store: ingest, query, trend")
    db_sub = db_parser.add_subparsers(dest="db_command", required=True)
    ingest_parser = db_sub.add_parser(
        "ingest", help="ingest recorded JSON documents into the store",
        description="Ingest repro.result/v1, repro.compare/v1, "
                    "repro.sweep/v1 or repro.bench/v2 documents; "
                    "re-ingesting the same run upserts (run keys are "
                    "deterministic).")
    ingest_parser.add_argument("--db", required=True, metavar="FILE",
                               help="SQLite store (created if missing)")
    ingest_parser.add_argument("files", nargs="+", metavar="JSON")
    query_parser = db_sub.add_parser(
        "query", help="list ingested runs and their metrics")
    query_parser.add_argument("--db", required=True, metavar="FILE")
    query_parser.add_argument("--workload", help="filter by workload")
    query_parser.add_argument("--mmu", help="filter by MMU configuration")
    query_parser.add_argument("--metric", metavar="NAME",
                              help="show only this metric (drops runs "
                                   "that never recorded it)")
    query_parser.add_argument("--json", action="store_true")
    trend_parser = db_sub.add_parser(
        "trend", help="one metric's history across ingested runs")
    trend_parser.add_argument("--db", required=True, metavar="FILE")
    trend_parser.add_argument("--metric", metavar="NAME",
                              help="metric name (see `db query`)")
    trend_parser.add_argument("--workload", help="filter by workload")
    trend_parser.add_argument("--mmu", help="filter by MMU configuration")
    trend_parser.add_argument("--limit", type=_positive_int, default=None,
                              metavar="N",
                              help="only the last N runs")
    trend_parser.add_argument("--json", action="store_true")

    serve_parser = sub.add_parser(
        "serve", help="long-lived simulation service over HTTP",
        description="Accept repro.job/v1 submissions on POST /jobs, "
                    "coalesce duplicate in-flight requests by job "
                    "fingerprint, serve cache hits from --cache-dir, "
                    "and run misses in batches on the execution engine "
                    "behind a bounded queue (429 + Retry-After when "
                    "full). GET /jobs/<fingerprint> polls status and "
                    "results; /healthz and /metrics are mounted on the "
                    "same port. SIGTERM drains in-flight jobs before "
                    "exit.")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8787,
                              help="listen port (0 = ephemeral, printed "
                                   "to stderr; default: 8787)")
    serve_parser.add_argument("--workers", type=_positive_int, default=1,
                              metavar="N",
                              help="fan each batch across N processes "
                                   "(default: 1, in-thread)")
    serve_parser.add_argument("--cache-dir", dest="cache_dir",
                              metavar="DIR",
                              help="serve repeated jobs from this "
                                   "fingerprint-keyed result cache and "
                                   "store new results into it")
    serve_parser.add_argument("--max-queue", type=_positive_int,
                              dest="max_queue", default=16, metavar="N",
                              help="bounded admission queue size "
                                   "(default: 16)")
    serve_parser.add_argument("--timeout", type=float, default=None,
                              metavar="S",
                              help="per-job wall-clock timeout in "
                                   "seconds (default: none)")
    serve_parser.add_argument("--drain-timeout", type=float,
                              dest="drain_timeout", default=60.0,
                              metavar="S",
                              help="max seconds to wait for in-flight "
                                   "jobs on SIGTERM (default: 60)")

    report_parser = sub.add_parser(
        "report", help="self-contained HTML reports with the "
                       "paper-fidelity scorecard")
    report_sub = report_parser.add_subparsers(dest="report_command",
                                              required=True)
    build_parser_ = report_sub.add_parser(
        "build", help="fold recorded JSON documents into one HTML page",
        description="Fold result/compare/sweep/profile/bench/fidelity "
                    "JSON documents (plus optional JSONL trace shards "
                    "and a --db history) into one self-contained static "
                    "HTML report: inline CSS, inline SVG charts, zero "
                    "external requests, byte-identical for identical "
                    "inputs.")
    build_parser_.add_argument("files", nargs="*", metavar="JSON",
                               help="recorded machine-readable documents "
                                    "(dispatched on their schema key)")
    build_parser_.add_argument("--trace", nargs="+", metavar="FILE",
                               help="JSONL trace shards to analyze into "
                                    "a trace-analytics section")
    build_parser_.add_argument("--db", metavar="FILE",
                               help="metrics store: add cross-run "
                                    "sparkline history")
    build_parser_.add_argument("--out", metavar="FILE",
                               help="write the page here (default: "
                                    "stdout)")
    build_parser_.add_argument("--title",
                               default="Hybrid virtual caching — "
                                       "reproduction report")
    bench_report_parser = report_sub.add_parser(
        "bench", help="render a repro.bench.report/v1 gate report as "
                      "HTML")
    bench_report_parser.add_argument("file", metavar="REPORT.json",
                                     help="a --json-report document from "
                                          "`repro bench check`")
    bench_report_parser.add_argument("--out", metavar="FILE",
                                     help="write the page here "
                                          "(default: stdout)")
    return parser


HANDLERS = {
    "workloads": cmd_workloads,
    "configs": cmd_configs,
    "run": cmd_run,
    "compare": cmd_compare,
    "sweep": cmd_sweep,
    "profile": cmd_profile,
    "trace": cmd_trace,
    "bench": cmd_bench,
    "db": cmd_db,
    "report": cmd_report,
    "serve": cmd_serve,
    "experiments": cmd_experiments,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return HANDLERS[args.command](args) or 0


if __name__ == "__main__":
    raise SystemExit(main())

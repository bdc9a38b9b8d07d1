"""Tests for the job-based execution engine (``repro.exec``).

Covers the frozen Job/fingerprint model, plan-level deduplication,
serial/parallel executor equivalence (bit-identical results), per-job
error capture, the fingerprint-keyed on-disk result cache (including a
warm rerun performing zero new simulations), and schema stability of
the ``repro.result/v1`` / ``repro.compare/v1`` / ``repro.sweep/v1``
JSON documents the cache and the CLI rely on.
"""

import dataclasses
import json
import multiprocessing
import os
import pickle
import signal
import threading
import time

import pytest

from repro.cli import main
from repro.common.params import CoreConfig, SystemConfig
from repro.exec import (
    ExperimentPlan,
    Job,
    JobError,
    JobFailedError,
    ParallelExecutor,
    ResultCache,
    SerialExecutor,
    result_document,
)
from repro.obs.manifest import config_fingerprint
from repro.obs.tracer import Tracer
from repro.sim import run_workload
from repro.sim.results import RESULT_SCHEMA, SimulationResult
from repro.sim.sweep import grid_jobs

FAST = dict(accesses=800, warmup=200)

GRID_8 = {
    "delayed_tlb.entries": [512, 1024],
    "llc.size_bytes": [1 << 20, 2 << 20],
    "cores": [1, 2],
}


def stream_grid(grid: dict) -> list:
    """The jobs of a hybrid_tlb sweep of ``stream`` over ``grid``."""
    return grid_jobs("stream", "hybrid_tlb", grid, SystemConfig(),
                     seed=42, interval=None, **FAST)


def identity_view(result: SimulationResult) -> dict:
    """``to_json_dict`` with the manifest's environment fields stripped
    (host, wall-clock, duration) — the deterministic subset."""
    doc = result.to_json_dict()
    doc["manifest"] = result.manifest.identity() if result.manifest else None
    return doc


# --------------------------------------------------------------------- #
# Job: fingerprints
# --------------------------------------------------------------------- #

class TestJobFingerprint:
    def test_equal_inputs_equal_fingerprints(self):
        a = Job("stream", "baseline", **FAST)
        b = Job("stream", "baseline", **FAST)
        assert a.fingerprint() == b.fingerprint()

    def test_tags_do_not_change_the_fingerprint(self):
        a = Job("stream", "baseline", tags=(("column", "x"),), **FAST)
        b = Job("stream", "baseline", **FAST)
        assert a.fingerprint() == b.fingerprint()

    @pytest.mark.parametrize("override", [
        dict(workload="gups"),
        dict(mmu="hybrid_tlb"),
        dict(config=SystemConfig().with_delayed_tlb_entries(512)),
        dict(accesses=801),
        dict(warmup=201),
        dict(seed=7),
        dict(interval=100),
        dict(reset_stats_after_warmup=True),
    ])
    def test_every_deterministic_input_is_keyed(self, override):
        base = Job("stream", "baseline", **FAST)
        params = dict(workload="stream", mmu="baseline", **FAST)
        params.update(override)
        assert Job(**params).fingerprint() != base.fingerprint()

    def test_identity_matches_manifest_identity(self):
        """The job's fingerprint inputs agree with the manifest the run
        actually produces (same workload/mmu/config-hash/counts)."""
        job = Job("stream", "baseline", **FAST)
        result = job.run()
        manifest_identity = result.manifest.identity()
        job_identity = job.identity()
        for key in manifest_identity:
            assert job_identity[key] == manifest_identity[key], key

    @pytest.mark.parametrize("int_first", [True, False])
    def test_equal_configs_that_encode_differently_stay_distinct(self,
                                                                 int_first):
        """``base_cpi=1`` and ``base_cpi=1.0`` compare and hash equal but
        encode differently; whichever is hashed first, neither borrows
        the other's fingerprint."""
        as_int = SystemConfig(core=CoreConfig(base_cpi=1))
        as_float = SystemConfig(core=CoreConfig(base_cpi=1.0))
        assert as_int == as_float and hash(as_int) == hash(as_float)
        order = (as_int, as_float) if int_first else (as_float, as_int)
        hashes = [config_fingerprint(config) for config in order]
        jobs = [Job("stream", "baseline", config=config, **FAST)
                for config in order]
        assert hashes[0] != hashes[1]
        assert jobs[0] == jobs[1]
        assert jobs[0].fingerprint() != jobs[1].fingerprint()
        # Each matches what a fresh copy of its config hashes to.
        assert hashes == [config_fingerprint(dataclasses.replace(config))
                          for config in order]

    def test_mutating_the_identity_changes_nothing(self):
        job = Job("stream", "baseline", **FAST)
        fingerprint = job.fingerprint()
        identity = job.identity()
        expected = dict(identity)
        identity["seed"] = 7
        identity["extra"] = "x"
        assert job.identity() == expected
        assert job.fingerprint() == fingerprint

    @pytest.mark.parametrize("hashed_before", [False, True])
    def test_pickled_job_keeps_its_fingerprint(self, hashed_before):
        job = Job("stream", "hybrid_tlb",
                  config=SystemConfig().with_delayed_tlb_entries(512),
                  **FAST)
        expected = Job("stream", "hybrid_tlb",
                       config=SystemConfig().with_delayed_tlb_entries(512),
                       **FAST).fingerprint()
        if hashed_before:
            job.fingerprint()
        back = pickle.loads(pickle.dumps(job))
        assert back == job
        assert back.fingerprint() == expected
        assert back.identity() == job.identity()

    def test_explicit_config_is_serialized_once_per_object(self,
                                                           monkeypatch):
        """Jobs that share one config object, and the manifest a pickled
        copy of one records (as a pool worker does), reuse its hash."""
        serialized = []
        asdict = dataclasses.asdict

        def counting_asdict(obj, *args, **kwargs):
            if isinstance(obj, SystemConfig):
                serialized.append(obj)
            return asdict(obj, *args, **kwargs)

        monkeypatch.setattr(dataclasses, "asdict", counting_asdict)
        config = SystemConfig().with_delayed_tlb_entries(512)
        jobs = [Job("stream", mmu, config=config, **FAST)
                for mmu in ("baseline", "hybrid_tlb", "hybrid_segments")]
        hashes = {job.identity()["config_hash"] for job in jobs}
        result = pickle.loads(pickle.dumps(jobs[1])).run()
        assert hashes == {result.manifest.config_hash}
        assert serialized == [config]


# --------------------------------------------------------------------- #
# Plans: dedup + error capture
# --------------------------------------------------------------------- #

class TestExperimentPlan:
    def test_duplicate_fingerprints_collapse(self):
        plan = ExperimentPlan()
        fp1 = plan.add(Job("stream", "baseline", **FAST))
        fp2 = plan.add(Job("stream", "baseline", **FAST))
        assert fp1 == fp2
        assert len(plan) == 1
        assert plan.duplicates == 1

    def test_dedup_executes_once_and_serves_both_lookups(self):
        executor = SerialExecutor()
        a = Job("stream", "baseline", **FAST)
        b = Job("stream", "baseline", **FAST)
        plan = ExperimentPlan([a, b])
        results = plan.run(executor=executor)
        assert executor.submitted == 1
        assert results.result(a) is results.result(b)

    def test_failed_job_does_not_kill_the_plan(self):
        plan = ExperimentPlan([
            Job("stream", "baseline", **FAST),
            Job("stream", "no_such_mmu", **FAST),
        ])
        results = plan.run()
        assert len(results.results()) == 1
        (error,) = results.errors()
        assert isinstance(error, JobError)
        assert error.error_type == "ValueError"
        assert "no_such_mmu" in error.message
        assert "Traceback" in error.traceback

    def test_result_raises_for_failed_job(self):
        bad = Job("stream", "no_such_mmu", **FAST)
        results = ExperimentPlan([bad]).run()
        with pytest.raises(JobFailedError, match="no_such_mmu"):
            results.result(bad)

    def test_progress_callback_sees_every_job(self):
        seen = []
        plan = ExperimentPlan([
            Job("stream", "baseline", **FAST),
            Job("stream", "no_such_mmu", **FAST),
        ])
        plan.run(progress=lambda done, total, job, status:
                 seen.append((done, total, status)))
        assert seen == [(1, 2, "ok"), (2, 2, "error")]

    def test_single_submission_path_emits_run_start_marks(self):
        tracer = Tracer()
        plan = ExperimentPlan([
            Job("stream", "baseline",
                tags=(("delayed_tlb.entries", 512),), **FAST)])
        plan.run(tracer=tracer)
        marks = [e for e in tracer.events if e.stage == "mark"]
        assert marks and marks[0].detail["label"] == "run_start"
        assert marks[0].detail["workload"] == "stream"
        assert marks[0].detail["delayed_tlb.entries"] == 512


# --------------------------------------------------------------------- #
# Executors: parallel == serial
# --------------------------------------------------------------------- #

class TestParallelDeterminism:
    def test_parallel_matches_serial_on_8_point_grid(self):
        jobs = stream_grid(GRID_8)
        serial = ExperimentPlan(jobs).run(executor=SerialExecutor())
        pool = ParallelExecutor(workers=4)
        try:
            parallel = ExperimentPlan(jobs).run(executor=pool)
        finally:
            pool.close()
        assert len(jobs) == len(serial) == len(parallel) == 8
        for job in jobs:
            assert (identity_view(serial.result(job))
                    == identity_view(parallel.result(job)))

    def test_parallel_captures_errors_in_order(self):
        jobs = [Job("stream", "baseline", **FAST),
                Job("stream", "no_such_mmu", **FAST),
                Job("stream", "ideal", **FAST)]
        outcomes = ParallelExecutor(workers=2).run(jobs)
        assert isinstance(outcomes[0], SimulationResult)
        assert isinstance(outcomes[1], JobError)
        assert isinstance(outcomes[2], SimulationResult)
        assert outcomes[0].mmu == "baseline"
        assert outcomes[2].mmu == "ideal"

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            ParallelExecutor(workers=0)

    def test_live_tracer_rejected(self, tmp_path):
        """A live tracer's open sink cannot reach pool workers, so a
        pool handed one would record only its run_start marks; it must
        ask for a TraceSpec instead."""
        executor = ParallelExecutor(workers=2)
        try:
            with Tracer(sink=tmp_path / "t.jsonl") as tracer, \
                    pytest.raises(ValueError, match="TraceSpec"):
                executor.run([Job("stream", "baseline", **FAST)],
                             tracer=tracer)
        finally:
            executor.close()
        assert (tmp_path / "t.jsonl").read_text() == ""


def child_pids():
    return {child.pid for child in multiprocessing.active_children()}


def new_worker_pids(before, timeout=30.0):
    """Pids of multiprocessing children started since ``before`` (a pid
    set), waiting until at least one exists."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        pids = child_pids() - before
        if pids:
            return pids
        time.sleep(0.01)
    raise AssertionError("no pool worker appeared")


def wait_reaped(pid, timeout=30.0):
    """Wait until ``pid`` is gone, not even a zombie: its parent (the
    pool's manager thread here) has reaped it."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)
    raise AssertionError(f"process {pid} was never reaped")


class TestKeptPool:
    """One pool across ``run`` calls: reuse, replacement, shutdown."""

    def test_repeated_jobs_across_runs_match_serial(self):
        first = [Job("stream", "hybrid_tlb", seed=seed, **FAST)
                 for seed in (1, 2, 3)]
        second = [Job("gups", "baseline", **FAST), first[1],
                  Job("stream", "hybrid_segments", **FAST), first[0]]
        executor = ParallelExecutor(workers=2)
        try:
            parallel = executor.run(first) + executor.run(second)
        finally:
            executor.close()
        serial = SerialExecutor().run(first + second)
        assert [identity_view(p) for p in parallel] == \
            [identity_view(s) for s in serial]

    def test_worker_killed_mid_job_fails_batch_then_fresh_pool(self):
        before = child_pids()
        executor = ParallelExecutor(workers=1)
        # The deadline only bounds the test if the kill never lands.
        slow = Job("gups", "hybrid_tlb", accesses=2_000_000, warmup=100)
        queued = Job("stream", "baseline", **FAST)
        killed = []

        def kill_worker():
            for pid in new_worker_pids(before):
                time.sleep(0.3)
                os.kill(pid, signal.SIGKILL)
                killed.append(pid)

        killer = threading.Thread(target=kill_worker)
        killer.start()
        try:
            outcomes = executor.run([slow, queued], timeout=60.0)
            killer.join(timeout=60)
            assert not killer.is_alive() and killed
            for outcome in outcomes:
                assert isinstance(outcome, JobError)
                assert outcome.error_type == "BrokenProcessPool"
            after = executor.run([queued])
            assert not set(killed) & child_pids()
        finally:
            executor.close()
        assert identity_view(after[0]) == \
            identity_view(SerialExecutor().run([queued])[0])

    def test_worker_killed_while_idle_does_not_fail_next_run(self):
        before = child_pids()
        executor = ParallelExecutor(workers=2)
        job = Job("stream", "baseline", **FAST)
        try:
            executor.run([job])
            workers = new_worker_pids(before)
            for pid in workers:
                os.kill(pid, signal.SIGKILL)
            for pid in workers:
                wait_reaped(pid)
            outcomes = executor.run([job, Job("gups", "ideal", **FAST)])
        finally:
            executor.close()
        assert all(isinstance(o, SimulationResult) for o in outcomes)
        assert identity_view(outcomes[0]) == \
            identity_view(SerialExecutor().run([job])[0])

    def test_one_pool_serves_every_run_until_close(self):
        before = child_pids()
        executor = ParallelExecutor(workers=1)
        executor.run([Job("stream", "baseline", **FAST)])
        workers = new_worker_pids(before)
        executor.run([Job("gups", "ideal", **FAST)])
        assert child_pids() - before == workers     # no worker restarted
        executor.close()
        for pid in workers:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)                 # joined, not a zombie
        executor.close()
        SerialExecutor().close()


# --------------------------------------------------------------------- #
# Result cache
# --------------------------------------------------------------------- #

class TestResultCache:
    def test_warm_rerun_performs_zero_new_simulations(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = stream_grid({"delayed_tlb.entries": [512, 1024]})
        cold = SerialExecutor()
        first = ExperimentPlan(jobs).run(executor=cold, cache=cache)
        assert cold.submitted == 2

        warm = SerialExecutor()
        second = ExperimentPlan(jobs).run(executor=warm, cache=cache)
        assert warm.submitted == 0          # every point served from disk
        assert cache.hits == 2
        for job in jobs:
            assert (first.result(job).to_json_dict()
                    == second.result(job).to_json_dict())

    def test_changed_point_is_the_only_resimulation(self, tmp_path):
        cache = ResultCache(tmp_path)
        ExperimentPlan(stream_grid({"delayed_tlb.entries": [512, 1024]})).run(
            executor=SerialExecutor(), cache=cache)
        grown = SerialExecutor()
        results = ExperimentPlan([
            Job("stream", "hybrid_tlb",
                config=SystemConfig().with_delayed_tlb_entries(entries),
                **FAST)
            for entries in (512, 1024, 2048)]).run(executor=grown,
                                                   cache=cache)
        assert grown.submitted == 1         # only the new 2048 point
        assert len(results.results()) == 3

    def test_corrupt_entry_is_a_miss_not_an_error(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = Job("stream", "baseline", **FAST)
        cache.store(job, job.run())
        cache.path(job).write_text("{ not json")
        assert cache.load(job) is None

    def test_wrong_schema_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = Job("stream", "baseline", **FAST)
        cache.path(job).write_text(json.dumps({"schema": "bogus/v9"}))
        assert cache.load(job) is None

    def test_entry_without_a_fingerprint_is_a_miss(self, tmp_path):
        """A bare ``repro run --json`` document saved at another job's
        path is not that job's result."""
        cache = ResultCache(tmp_path)
        job = Job("gups", "hybrid_tlb", **FAST)
        other = Job("stream", "baseline", **FAST)
        cache.path(job).write_text(json.dumps(other.run().to_json_dict()))
        assert cache.load(job) is None
        assert cache.misses == 1 and cache.hits == 0

    def test_entry_with_a_foreign_fingerprint_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = Job("gups", "hybrid_tlb", **FAST)
        other = Job("stream", "baseline", **FAST)
        cache.path(job).write_text(
            json.dumps(result_document(other, other.run())))
        assert cache.load(job) is None
        assert cache.misses == 1 and cache.hits == 0

    @pytest.mark.parametrize("drop", ["ipc", "host"])
    def test_entry_missing_a_key_is_a_miss(self, tmp_path, drop):
        """An entry under the job's fingerprint that lacks a result key
        (``ipc``) or a manifest field (``host``) is a miss."""
        cache = ResultCache(tmp_path)
        job = Job("stream", "baseline", **FAST)
        doc = json.loads(cache.store(job, job.run()))
        del (doc["manifest"] if drop == "host" else doc)[drop]
        cache.path(job).write_text(json.dumps(doc))
        assert cache.load(job) is None
        assert cache.misses == 1 and cache.hits == 0

    def test_entry_is_a_result_v1_document_with_identity(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = Job("stream", "baseline", **FAST)
        text = cache.store(job, job.run())
        assert cache.path(job).read_text() == text   # what store returns
        doc = json.loads(text)
        assert doc["schema"] == RESULT_SCHEMA
        assert doc["fingerprint"] == job.fingerprint()
        assert doc["identity"] == json.loads(
            json.dumps(job.identity()))     # JSON-clean
        assert cache.load(job) is not None

    def test_errors_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        bad = Job("stream", "no_such_mmu", **FAST)
        ExperimentPlan([bad]).run(cache=cache)
        assert not cache.path(bad).exists()


# --------------------------------------------------------------------- #
# SimulationResult JSON round trip
# --------------------------------------------------------------------- #

class TestResultRoundTrip:
    def test_from_json_dict_inverts_to_json_dict(self):
        result = run_workload("stream", "hybrid_tlb", seed=42, interval=200,
                              **FAST)
        rebuilt = SimulationResult.from_json_dict(result.to_json_dict())
        assert rebuilt.cycles == result.cycles
        assert rebuilt.ipc == result.ipc
        assert rebuilt.stats == result.stats
        assert rebuilt.to_json_dict() == result.to_json_dict()

    def test_round_trip_through_json_text(self):
        result = run_workload("stream", "baseline", seed=42, **FAST)
        text = json.dumps(result.to_json_dict())
        rebuilt = SimulationResult.from_json_dict(json.loads(text))
        assert rebuilt.to_json_dict() == result.to_json_dict()
        assert rebuilt.manifest.identity() == result.manifest.identity()

    def test_wrong_schema_rejected(self):
        with pytest.raises(ValueError, match="repro.result/v1"):
            SimulationResult.from_json_dict({"schema": "nope"})


# --------------------------------------------------------------------- #
# Schema stability goldens
# --------------------------------------------------------------------- #

RESULT_V1_FIELDS = {
    "schema": str, "workload": str, "mmu": str, "instructions": int,
    "accesses": int, "cycles": float, "ipc": float, "llc_miss_rate": float,
    "cycle_breakdown": dict, "stats": dict, "histograms": dict,
    "manifest": dict, "interval": (int, type(None)), "intervals": list,
}

MANIFEST_V1_FIELDS = {
    "workload": str, "mmu": str, "config_hash": str, "seed": int,
    "accesses": int, "warmup": int, "package_version": str,
    "python_version": str, "host": str, "started_at": str,
    "duration_s": float, "schema": str,
}


def check_fields(doc, fields):
    assert set(doc) == set(fields), (
        f"schema drift: {set(doc) ^ set(fields)}")
    for key, types in fields.items():
        assert isinstance(doc[key], types), (key, type(doc[key]))


class TestSchemaStability:
    """Pin the persisted document layouts so the result cache and any
    external consumer can't be broken silently.  Adding a field requires
    updating these goldens (and is allowed under the same version);
    removing or retyping one means bumping the schema tag."""

    def test_result_v1_layout(self):
        doc = run_workload("stream", "baseline", seed=42, interval=200,
                           **FAST).to_json_dict()
        assert doc["schema"] == "repro.result/v1"
        check_fields(doc, RESULT_V1_FIELDS)
        check_fields(doc["manifest"], MANIFEST_V1_FIELDS)
        window = doc["intervals"][0]
        assert {"index", "accesses", "cycles", "instructions", "ipc",
                "counters"} <= set(window)

    def test_compare_v1_layout(self, capsys):
        main(["compare", "stream", "--accesses", "600", "--warmup", "200",
              "--configs", "baseline,hybrid_tlb", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"schema", "workload", "normalized_to",
                            "speedups", "results"}
        assert doc["schema"] == "repro.compare/v1"
        assert doc["normalized_to"] == "baseline"
        assert set(doc["speedups"]) == {"baseline", "hybrid_tlb"}
        assert all(isinstance(v, float) for v in doc["speedups"].values())
        for result_doc in doc["results"].values():
            check_fields(result_doc, RESULT_V1_FIELDS)

    def test_sweep_v1_layout(self, capsys):
        main(["sweep", "stream", "--accesses", "600", "--warmup", "200",
              "--sizes", "512,1024", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"schema", "workload", "sizes",
                            "delayed_tlb_mpki", "results"}
        assert doc["schema"] == "repro.sweep/v1"
        assert doc["sizes"] == [512, 1024]
        assert len(doc["delayed_tlb_mpki"]) == 2
        assert all(isinstance(v, float) for v in doc["delayed_tlb_mpki"])
        for result_doc in doc["results"]:
            check_fields(result_doc, RESULT_V1_FIELDS)


# --------------------------------------------------------------------- #
# CLI engine flags
# --------------------------------------------------------------------- #

class TestCliEngineFlags:
    def test_cache_dir_reuses_results(self, tmp_path, capsys):
        argv = ["run", "stream", "baseline", "--accesses", "600",
                "--warmup", "200", "--json", "--cache-dir", str(tmp_path)]
        main(argv)
        first = json.loads(capsys.readouterr().out)
        assert len(list(tmp_path.glob("*.json"))) == 1
        main(argv)
        captured = capsys.readouterr()
        second = json.loads(captured.out)
        assert first == second
        assert "cached" in captured.err

    def test_workers_flag_parses_and_runs(self, capsys):
        main(["compare", "stream", "--accesses", "600", "--warmup", "200",
              "--configs", "baseline,ideal", "--workers", "2"])
        captured = capsys.readouterr()
        assert "normalized to baseline" in captured.out
        assert "[2/2]" in captured.err

    def test_workers_shard_trace_out(self, tmp_path, capsys):
        """--trace-out with --workers shards per job instead of rejecting."""
        base = tmp_path / "t.jsonl"
        assert main(["sweep", "stream", "--accesses", "600", "--warmup",
                     "200", "--sizes", "1024,4096", "--workers", "2",
                     "--trace-out", str(base)]) == 0
        captured = capsys.readouterr()
        assert "2 trace shard(s)" in captured.err
        shards = sorted(tmp_path.glob("t.jsonl.*.jsonl"))
        assert len(shards) == 2
        for shard in shards:
            first = json.loads(shard.read_text().splitlines()[0])
            assert first["stage"] == "mark"
            assert first["label"] == "run_start"


# --------------------------------------------------------------------- #
# Job wire format + timeouts (the serving layer's engine hooks)
# --------------------------------------------------------------------- #

class TestJobWireFormat:
    def test_round_trip_preserves_fingerprint(self):
        job = Job("stream", "hybrid_tlb",
                  config=SystemConfig().with_delayed_tlb_entries(512),
                  interval=250, tags=(("size", 4),), **FAST)
        doc = job.to_json_dict()
        assert doc["schema"] == "repro.job/v1"
        back = Job.from_json_dict(json.loads(json.dumps(doc)))
        assert back == job
        assert back.fingerprint() == job.fingerprint()

    def test_document_shape_is_stable(self):
        doc = Job("stream", "baseline", interval=100,
                  **FAST).to_json_dict()
        check_fields(doc, {
            "schema": str,
            "workload": str,
            "mmu": str,
            "config": (dict, type(None)),
            "accesses": int,
            "warmup": int,
            "seed": int,
            "interval": (int, type(None)),
            "reset_stats_after_warmup": bool,
            "tags": list,
        })

    def test_wrong_schema_rejected(self):
        with pytest.raises(ValueError, match="repro.job/v1"):
            Job.from_json_dict({"schema": "bogus/v9"})

    def test_non_string_workload_rejected(self):
        with pytest.raises(TypeError, match="catalog name"):
            Job.from_json_dict({"schema": "repro.job/v1",
                                "workload": 7, "mmu": "baseline"})

    @pytest.mark.parametrize("field, value", [
        ("accesses", True), ("accesses", 600.0),
        ("warmup", False), ("warmup", 1.5),
        ("seed", True), ("seed", 1.5),
        ("interval", True), ("interval", 2.5),
    ])
    def test_bool_or_float_integer_field_rejected(self, field, value):
        doc = Job("stream", "baseline", interval=100, **FAST).to_json_dict()
        doc[field] = value
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            Job.from_json_dict(doc)

    @pytest.mark.parametrize("field, value, minimum", [
        ("accesses", -5, 0), ("warmup", -1, 0),
        ("interval", 0, 1), ("interval", -3, 1),
    ])
    def test_out_of_range_integer_field_rejected(self, field, value,
                                                 minimum):
        doc = Job("stream", "baseline", **FAST).to_json_dict()
        doc[field] = value
        with pytest.raises(ValueError, match=f"{field} must be >= {minimum}"):
            Job.from_json_dict(doc)

    def test_zero_accesses_and_null_interval_accepted(self):
        doc = Job("stream", "baseline", accesses=0, warmup=0).to_json_dict()
        assert doc["interval"] is None
        assert Job.from_json_dict(doc) == Job("stream", "baseline",
                                              accesses=0, warmup=0)

    def test_adhoc_spec_jobs_have_no_wire_form(self):
        from repro.workloads import spec as catalog_spec

        adhoc = dataclasses.replace(catalog_spec("stream"), name="adhoc")
        with pytest.raises(ValueError, match="WorkloadSpec"):
            Job(adhoc, "baseline", **FAST).to_json_dict()


class TestCancellation:
    def test_timeout_yields_cancelled_joberror(self):
        from repro.exec import run_job

        outcome = run_job(Job("stream", "baseline",
                              accesses=10_000_000, warmup=100),
                          timeout=0.05)
        assert isinstance(outcome, JobError)
        assert outcome.error_type == "JobCancelled"
        assert "deadline" in outcome.message

    def test_untimed_job_still_completes(self):
        from repro.exec import run_job

        outcome = run_job(Job("stream", "baseline", **FAST), timeout=60.0)
        assert isinstance(outcome, SimulationResult)

    def test_parallel_executor_applies_per_job_deadline(self):
        jobs = [Job("stream", "baseline", accesses=10_000_000,
                    warmup=100, seed=seed) for seed in (1, 2)]
        outcomes = {}
        ParallelExecutor(workers=2).run(
            jobs, on_done=lambda job, out:
            outcomes.__setitem__(job.fingerprint(), out), timeout=0.05)
        assert len(outcomes) == 2
        for outcome in outcomes.values():
            assert isinstance(outcome, JobError)
            assert outcome.error_type == "JobCancelled"


class TestCacheConcurrentWriters:
    def test_interleaved_writers_never_truncate_an_entry(self, tmp_path):
        """Same-fingerprint stores racing from several threads (exactly
        what coalescing-adjacent service workers do) must leave one
        complete JSON document and no temp droppings."""
        import threading

        cache = ResultCache(tmp_path)
        job = Job("stream", "baseline", **FAST)
        result = job.run()
        expected = json.loads(json.dumps(result.to_json_dict()))

        writers = 4
        rounds = 25
        barrier = threading.Barrier(writers + 1)
        errors = []

        def write() -> None:
            try:
                barrier.wait(timeout=30)
                for _ in range(rounds):
                    cache.store(job, result)
            except BaseException as exc:     # pragma: no cover
                errors.append(exc)

        def read() -> None:
            try:
                barrier.wait(timeout=30)
                for _ in range(rounds * 2):
                    loaded = cache.load(job)
                    if loaded is not None:   # never torn/partial
                        assert loaded.to_json_dict() == expected
            except BaseException as exc:     # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=write) for _ in range(writers)]
        threads.append(threading.Thread(target=read))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors[:3]
        final = cache.load(job)
        assert final is not None
        assert final.to_json_dict() == expected
        leftovers = [p for p in tmp_path.iterdir()
                     if p.name != cache.path(job).name]
        assert leftovers == []               # no .tmp files left behind

"""End-to-end tests for the simulation service (``repro.serve``).

Every HTTP test runs against a real ``ThreadingHTTPServer`` on an
ephemeral port.  The load-bearing pins:

* N concurrent identical submissions execute exactly **one** simulation
  and every client receives byte-identical ``repro.result/v1`` bodies;
* a cache-warm resubmission (fresh service, same ``--cache-dir``)
  performs **zero** simulations;
* a full queue answers 429 with ``Retry-After`` (admission control);
* SIGTERM drains in-flight jobs before the process exits (subprocess);
* ``/metrics`` exposes parseable Prometheus text with the
  ``repro_serve_*`` families.
"""

import dataclasses
import functools
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from http.client import HTTPConnection
from pathlib import Path

import pytest

from repro.common.params import SystemConfig
from repro.exec import Job, ParallelExecutor, ResultCache, SerialExecutor
from repro.serve import (ERROR_SCHEMA, HEALTH_SCHEMA, STATUS_SCHEMA,
                         JobService, QueueFullError, ServeServer,
                         ServiceDrainingError)

FAST_JOB = dict(accesses=2_000, warmup=200)


def make_job(**overrides):
    params = dict(workload="gups", mmu="hybrid_tlb", **FAST_JOB)
    params.update(overrides)
    return Job(**params)


def http(base, path, data=None, method=None):
    """``(status, body_bytes)`` — HTTPError codes returned, not raised."""
    req = urllib.request.Request(
        base + path, data=data,
        method=method or ("POST" if data is not None else "GET"))
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, resp.read(), dict(resp.headers)
    except urllib.error.HTTPError as err:
        return err.code, err.read(), dict(err.headers)


def post_job(base, job):
    status, body, headers = http(
        base, "/jobs", data=json.dumps(job.to_json_dict()).encode())
    return status, json.loads(body), headers


def wait_terminal(base, fingerprint, timeout=120):
    """Poll ``GET /jobs/<fp>`` until done (200) or failed (500)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, body, _ = http(base, f"/jobs/{fingerprint}")
        if status in (200, 500):
            return status, body
        assert status == 202, f"unexpected status {status}"
        time.sleep(0.02)
    raise AssertionError(f"job {fingerprint} never finished")


def child_pids(pid):
    """Pids whose parent is ``pid`` (what ``pgrep -P`` lists)."""
    children = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:                      # the process has just exited
            continue
        if int(fields[1]) == pid:
            children.add(int(stat.parent.name))
    return children


def alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestSubmissionApi:
    def test_submit_poll_result_roundtrip(self, tmp_path):
        executor = SerialExecutor()
        service = JobService(cache=ResultCache(tmp_path),
                             executor=executor)
        with ServeServer(service) as server:
            try:
                job = make_job()
                status, doc, _ = post_job(server.url, job)
                assert status == 202
                assert doc["schema"] == STATUS_SCHEMA
                assert doc["disposition"] == "accepted"
                assert doc["fingerprint"] == job.fingerprint()
                assert doc["location"] == f"/jobs/{job.fingerprint()}"
                status, body = wait_terminal(server.url, job.fingerprint())
                assert status == 200
                result = json.loads(body)
                assert result["schema"] == "repro.result/v1"
                assert result["workload"] == "gups"
                assert result["fingerprint"] == job.fingerprint()
                assert result["identity"] == job.identity()
                # The served body is the exact cache-entry encoding.
                entry = tmp_path / f"{job.fingerprint()}.json"
                assert entry.read_bytes() == body
            finally:
                service.close()

    def test_malformed_submissions_rejected(self):
        service = JobService(start=False)
        with ServeServer(service) as server:
            try:
                for payload in (b"not json",
                                b'{"schema": "nope"}',
                                b'{"schema": "repro.job/v1"}'):
                    status, _, _ = http(server.url, "/jobs", data=payload)
                    assert status == 400, payload
                bad_names = make_job(workload="no_such_workload")
                status, doc, _ = post_job(server.url, bad_names)
                assert status == 400 and "workload" in doc["error"]
                bad_mmu = make_job(mmu="no_such_mmu")
                status, doc, _ = post_job(server.url, bad_mmu)
                assert status == 400 and "mmu" in doc["error"]
            finally:
                service.close()

    def test_bad_integer_fields_answer_400_with_a_reason(self):
        service = JobService(start=False)
        with ServeServer(service) as server:
            try:
                for field, value in (("seed", 1.5), ("accesses", True),
                                     ("accesses", -5), ("warmup", -1),
                                     ("interval", 0)):
                    doc = make_job().to_json_dict()
                    doc[field] = value
                    status, body, _ = http(server.url, "/jobs",
                                           data=json.dumps(doc).encode())
                    assert status == 400, (field, value)
                    assert field in json.loads(body)["error"]
                assert service.counts()["queued"] == 0
            finally:
                service.close()

    @pytest.mark.parametrize("config, field", [
        ({"l1_tlb": {"entries": 64, "ways": 0, "latency": 1}}, "ways"),
        ({"l1": {"size_bytes": 32768, "ways": 0, "latency": 4}}, "ways"),
        ({"cores": 0}, "cores"),
        ({"l1": 5}, "l1"),
        ({"cores": "2"}, "cores"),
        ({"cores": True}, "cores"),
        ({"l1": {"size_bytes": 32768, "ways": 4, "latency": -3}},
         "latency"),
    ])
    def test_malformed_config_answers_400_naming_the_field(self, config,
                                                           field):
        service = JobService(start=False)
        with ServeServer(service) as server:
            try:
                doc = make_job().to_json_dict()
                doc["config"] = config
                status, body, _ = http(server.url, "/jobs",
                                       data=json.dumps(doc).encode())
                assert status == 400
                assert field in json.loads(body)["error"]
                assert service.counts()["queued"] == 0
                status, _, _ = http(server.url, "/healthz")
                assert status == 200
            finally:
                service.close()

    def test_oversized_body_rejected(self):
        service = JobService(start=False)
        with ServeServer(service) as server:
            try:
                blob = b"x" * ((1 << 20) + 1)
                status, _, _ = http(server.url, "/jobs", data=blob)
                assert status == 413
            finally:
                service.close()

    def test_unknown_routes_and_fingerprints_404(self):
        service = JobService(start=False)
        with ServeServer(service) as server:
            try:
                assert http(server.url, "/nope")[0] == 404
                assert http(server.url, "/jobs/ffffffffffffffff")[0] == 404
                assert http(server.url, "/nope", data=b"{}")[0] == 404
            finally:
                service.close()

    def test_healthz_reports_ok_then_draining(self):
        service = JobService(start=False)
        with ServeServer(service) as server:
            try:
                status, body, _ = http(server.url, "/healthz")
                doc = json.loads(body)
                assert status == 200
                assert doc["schema"] == HEALTH_SCHEMA
                assert doc["status"] == "ok"
                assert doc["queue_capacity"] == service.max_queue
                service.begin_drain()
                status, body, _ = http(server.url, "/healthz")
                assert status == 503
                assert json.loads(body)["status"] == "draining"
            finally:
                service.close()

    def test_keep_alive_requests_do_not_stall(self):
        """Headers and body go out in two writes; without TCP_NODELAY
        the second waits on the client's delayed ACK (~40 ms each)."""
        service = JobService(start=False)
        with ServeServer(service) as server:
            conn = HTTPConnection(server.host, server.port, timeout=30)
            try:
                conn.request("GET", "/healthz")
                conn.getresponse().read()
                started = time.perf_counter()
                for _ in range(10):
                    conn.request("GET", "/healthz")
                    response = conn.getresponse()
                    response.read()
                    assert response.status == 200
                elapsed = time.perf_counter() - started
            finally:
                conn.close()
                service.close()
        assert elapsed < 0.15, f"10 keep-alive requests took {elapsed:.3f}s"

    def test_jobs_listing(self):
        service = JobService(start=False)
        with ServeServer(service) as server:
            try:
                post_job(server.url, make_job())
                post_job(server.url, make_job(seed=7))
                status, body, _ = http(server.url, "/jobs")
                doc = json.loads(body)
                assert status == 200
                assert doc["schema"] == "repro.serve.jobs/v1"
                assert len(doc["jobs"]) == 2
                assert {j["status"] for j in doc["jobs"]} == {"queued"}
            finally:
                service.close()


class TestCoalescing:
    def test_duplicate_submissions_coalesce_deterministically(self):
        """With the dispatcher parked, a duplicate submission must join
        the queued record, never enqueue a second execution."""
        service = JobService(start=False)
        try:
            job = make_job()
            record1, disposition1 = service.submit(job)
            record2, disposition2 = service.submit(make_job())
            assert disposition1 == "accepted"
            assert disposition2 == "coalesced"
            assert record1 is record2
            assert record1.coalesced == 1
            assert service._queue.qsize() == 1
        finally:
            service.close()

    def test_100_concurrent_identical_submissions_run_one_simulation(self):
        """The acceptance pin: 100 concurrent clients, one simulation,
        byte-identical result bodies for every client."""
        executor = SerialExecutor()
        service = JobService(executor=executor, max_queue=4)
        clients = 100
        job = make_job(accesses=40_000, warmup=2_000)
        with ServeServer(service) as server:
            try:
                barrier = threading.Barrier(clients)
                bodies = [None] * clients
                failures = []

                def client(index):
                    try:
                        barrier.wait(timeout=30)
                        status, doc, _ = post_job(server.url, job)
                        assert status in (200, 202), status
                        code, body = wait_terminal(server.url,
                                                   doc["fingerprint"])
                        assert code == 200, code
                        bodies[index] = body
                    except Exception as exc:  # pragma: no cover - fail path
                        failures.append(exc)

                threads = [threading.Thread(target=client, args=(i,))
                           for i in range(clients)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=180)
                assert not failures, failures[:3]
                assert executor.submitted == 1       # exactly one simulation
                assert all(body is not None for body in bodies)
                assert len(set(bodies)) == 1         # byte-identical
                result = json.loads(bodies[0])
                assert result["schema"] == "repro.result/v1"
                submissions = service.registry.counter(
                    "repro_serve_submissions_total", "")
                accepted = submissions.get(disposition="accepted")
                coalesced = submissions.get(disposition="coalesced")
                replayed = submissions.get(disposition="replayed")
                assert accepted == 1
                assert coalesced + replayed == clients - 1
                assert coalesced >= 1                # the coalescing pin
            finally:
                service.close()


class TestCacheIntegration:
    def test_cache_warm_resubmission_runs_zero_simulations(self, tmp_path):
        job = make_job()
        first_exec = SerialExecutor()
        service = JobService(cache=ResultCache(tmp_path),
                             executor=first_exec)
        with ServeServer(service) as server:
            try:
                _, doc, _ = post_job(server.url, job)
                _, first_body = wait_terminal(server.url,
                                              doc["fingerprint"])
            finally:
                service.drain(timeout=60)
                service.close()
        assert first_exec.submitted == 1

        # Fresh service process-equivalent: same cache dir, new executor.
        second_exec = SerialExecutor()
        service = JobService(cache=ResultCache(tmp_path),
                             executor=second_exec)
        with ServeServer(service) as server:
            try:
                status, doc, _ = post_job(server.url, job)
                assert status == 200                  # answered immediately
                assert doc["disposition"] == "cached"
                code, body = wait_terminal(server.url, job.fingerprint())
                assert code == 200
                assert body == first_body             # byte-identical
                assert second_exec.submitted == 0     # zero simulations
                hits = service.registry.counter(
                    "repro_serve_cache_hits_total", "")
                assert hits.get() == 1
            finally:
                service.close()


class TestFixedCosts:
    def test_default_config_is_hashed_at_most_once(self, tmp_path,
                                                   monkeypatch):
        """A first-time job, a cache hit and a replay, each submitted as
        a fresh ``Job`` the way the HTTP layer builds them, serialize
        and hash the default ``SystemConfig`` at most once between them
        (13 times when every identity rebuilt it), and build each job's
        identity once."""
        serialized = []
        asdict = dataclasses.asdict

        def counting_asdict(obj, *args, **kwargs):
            if isinstance(obj, SystemConfig):
                serialized.append(obj)
            return asdict(obj, *args, **kwargs)

        monkeypatch.setattr(dataclasses, "asdict", counting_asdict)
        built = []
        build_identity = Job._identity.func

        def counting_identity(job):
            built.append(job)
            return build_identity(job)

        identity = functools.cached_property(counting_identity)
        identity.__set_name__(Job, "_identity")
        monkeypatch.setattr(Job, "_identity", identity)

        submitted = []

        def submit(service):
            submitted.append(make_job())
            record, disposition = service.submit(submitted[-1])
            assert record.done.wait(60) and record.status == "done"
            return disposition

        dispositions = []
        for submissions in (1, 2):          # a fresh service, one cache
            service = JobService(cache=ResultCache(tmp_path),
                                 executor=SerialExecutor())
            try:
                dispositions += [submit(service) for _ in range(submissions)]
            finally:
                service.drain(timeout=60)
                service.close()
        assert dispositions == ["accepted", "cached", "replayed"]
        assert len(serialized) <= 1
        assert [id(job) for job in built] == [id(job) for job in submitted]


class TestAdmissionControl:
    def test_full_queue_returns_429_with_retry_after(self):
        service = JobService(start=False, max_queue=2)
        with ServeServer(service) as server:
            try:
                for seed in (1, 2):
                    status, _, _ = post_job(server.url, make_job(seed=seed))
                    assert status == 202
                status, doc, headers = post_job(server.url,
                                                make_job(seed=3))
                assert status == 429
                assert "full" in doc["error"]
                assert int(headers["Retry-After"]) >= 1
                with pytest.raises(QueueFullError):
                    service.submit(make_job(seed=4))
            finally:
                service.close()

    def test_duplicates_never_consume_queue_slots(self):
        service = JobService(start=False, max_queue=1)
        try:
            service.submit(make_job())
            for _ in range(5):                        # all coalesce
                _, disposition = service.submit(make_job())
                assert disposition == "coalesced"
            with pytest.raises(QueueFullError):
                service.submit(make_job(seed=9))
        finally:
            service.close()

    def test_draining_rejects_submissions_with_503(self):
        service = JobService(start=False)
        with ServeServer(service) as server:
            try:
                service.begin_drain()
                status, doc, headers = post_job(server.url, make_job())
                assert status == 503
                assert "Retry-After" in headers
                with pytest.raises(ServiceDrainingError):
                    service.submit(make_job())
            finally:
                service.close()


class TestExecutionPaths:
    def test_batching_drains_queue_into_one_executor_call(self):
        executor = SerialExecutor()
        service = JobService(executor=executor, batch_max=8, start=False)
        try:
            fingerprints = []
            for seed in (1, 2, 3):
                record, _ = service.submit(make_job(seed=seed))
                fingerprints.append(record.fingerprint)
            service.start()
            for fingerprint in fingerprints:
                assert service.record(fingerprint).done.wait(timeout=120)
            assert executor.submitted == 3
            batches = service.registry.counter(
                "repro_serve_batches_total", "")
            assert batches.get() == 1                 # one batch of three
        finally:
            service.close()

    def test_job_timeout_surfaces_as_cancelled_error(self):
        service = JobService(job_timeout=0.05)
        with ServeServer(service) as server:
            try:
                job = make_job(accesses=2_000_000, warmup=100)
                _, doc, _ = post_job(server.url, job)
                status, body = wait_terminal(server.url,
                                             doc["fingerprint"])
                assert status == 500
                error = json.loads(body)
                assert error["schema"] == ERROR_SCHEMA
                assert error["error"]["error_type"] == "JobCancelled"
                jobs_total = service.registry.counter(
                    "repro_serve_jobs_total", "")
                assert jobs_total.get(status="error") == 1
            finally:
                service.close()

    def test_drain_joins_the_kept_pool(self):
        before = child_pids(os.getpid())
        service = JobService(executor=ParallelExecutor(workers=2))
        try:
            for seed in (1, 2):                 # two batches, one pool
                record, _ = service.submit(make_job(seed=seed))
                assert record.done.wait(timeout=120)
                assert record.status == "done"
            workers = child_pids(os.getpid()) - before
            assert workers
            assert service.drain(timeout=60)
            assert not [pid for pid in workers if alive(pid)]
        finally:
            service.close()

    def test_close_fails_queued_records_instead_of_hanging(self):
        service = JobService(start=False)
        record, _ = service.submit(make_job())
        service.close()
        assert record.done.is_set()
        assert record.status == "error"
        assert json.loads(record.body)["error"]["error_type"] == \
            "ServiceStopped"


class TestMetricsEndpoint:
    LINE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? "
                      r"[-+0-9.eEinfa]+$")

    def test_exposition_parses_and_carries_serve_families(self):
        executor = SerialExecutor()
        service = JobService(executor=executor, max_queue=1)
        with ServeServer(service) as server:
            try:
                _, doc, _ = post_job(server.url, make_job())
                wait_terminal(server.url, doc["fingerprint"])
                status, body, headers = http(server.url, "/metrics")
                assert status == 200
                assert headers["Content-Type"].startswith("text/plain")
                text = body.decode()
                for line in text.splitlines():
                    if line.startswith("#"):
                        assert line.startswith(("# HELP", "# TYPE"))
                    else:
                        assert self.LINE.match(line), line
                for family, kind in (
                        ("repro_serve_submissions_total", "counter"),
                        ("repro_serve_jobs_total", "counter"),
                        ("repro_serve_queue_depth", "gauge"),
                        ("repro_serve_in_flight", "gauge"),
                        ("repro_serve_queue_wait_ms", "histogram"),
                        ("repro_serve_job_ms", "histogram"),
                        ("repro_serve_encode_ms", "histogram"),
                        ("repro_serve_http_requests_total", "counter")):
                    assert f"# TYPE {family} {kind}" in text
                assert ('repro_serve_jobs_total{status="done"} 1'
                        in text)
                # Histogram invariant: +Inf bucket equals _count.
                for family in ("repro_serve_queue_wait_ms",
                               "repro_serve_job_ms", "repro_serve_encode_ms"):
                    inf = re.search(rf'{family}_bucket\{{le="\+Inf"\}} '
                                    r'(\d+)', text)
                    count = re.search(rf"{family}_count (\d+)", text)
                    assert inf.group(1) == count.group(1) == "1", family
                status, body, _ = http(server.url, "/metrics.json")
                assert status == 200
                assert "repro_serve_jobs_total" in json.loads(body)
            finally:
                service.close()


class TestSigtermDrain:
    @pytest.mark.slow
    @pytest.mark.parametrize("workers", [1, 2])
    def test_sigterm_drains_in_flight_jobs(self, tmp_path, workers):
        """Real process, real signal: SIGTERM right after a submission
        must still produce the job's cache entry before a clean exit,
        and a pool's workers must be joined, not left behind."""
        env = dict(os.environ)
        src = str(Path(__file__).parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(workers),
             "--cache-dir", str(tmp_path), "--drain-timeout", "120"],
            stderr=subprocess.PIPE, text=True, env=env)
        try:
            url = None
            for line in proc.stderr:
                found = re.search(r"serving jobs on (http://\S+)/jobs",
                                  line)
                if found:
                    url = found.group(1)
                    break
            assert url, "service never reported its URL"
            job = make_job(accesses=8_000, warmup=1_000)
            status, doc, _ = post_job(url, job)
            assert status == 202
            workers_seen = set()
            deadline = time.monotonic() + 30
            while workers > 1 and not workers_seen:
                assert time.monotonic() < deadline, "no pool worker started"
                workers_seen = child_pids(proc.pid)
                time.sleep(0.01)
            proc.send_signal(signal.SIGTERM)
            stderr = proc.stderr.read()
            assert proc.wait(timeout=120) == 0
            assert "drained" in stderr
            assert not [pid for pid in workers_seen if alive(pid)]
            entry = tmp_path / f"{job.fingerprint()}.json"
            assert entry.exists(), "in-flight job was not drained"
            saved = json.loads(entry.read_text())
            assert saved["schema"] == "repro.result/v1"
            assert saved["fingerprint"] == job.fingerprint()
        finally:
            if proc.poll() is None:              # pragma: no cover
                proc.kill()
                proc.wait(timeout=30)

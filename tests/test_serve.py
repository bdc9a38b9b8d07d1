"""End-to-end tests for the simulation service (``repro.serve``).

Every HTTP test runs against a real listener (one selector loop
thread) on an ephemeral port.  The load-bearing pins:

* N concurrent identical submissions execute exactly **one** simulation
  and every client receives byte-identical ``repro.result/v1`` bodies;
* a cache-warm resubmission (fresh service, same ``--cache-dir``)
  performs **zero** simulations;
* a full queue answers 429 with ``Retry-After`` (admission control);
* SIGTERM drains in-flight jobs before the process exits (subprocess);
* ``/metrics`` exposes parseable Prometheus text with the
  ``repro_serve_*`` families;
* the transport keeps a kept-alive connection in step, answers
  pipelined requests in order, is never held up by a stalled client and
  goes on serving the others when one client's request fails.
"""

import contextlib
import dataclasses
import functools
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from http.client import HTTPConnection
from pathlib import Path

import pytest

from repro.common.httpd import HttpListener
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


@contextlib.contextmanager
def raw_connection(server):
    """A plain socket to ``server`` and a buffered reader over it."""
    sock = socket.create_connection((server.host, server.port), timeout=10)
    reader = sock.makefile("rb")
    try:
        yield sock, reader
    finally:
        reader.close()
        sock.close()


def read_response(reader):
    """``(status, headers, body)`` of the next response on ``reader``;
    header names are lower-cased."""
    status = int(reader.readline().split()[1])
    headers = {}
    while True:
        line = reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, reader.read(int(headers.get("content-length",
                                                        0)))


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
        # Geometries only the built structures used to reject, mid-run.
        ({"l1": {"size_bytes": 768, "ways": 4, "latency": 4}},
         "size_bytes"),
        ({"l1_tlb": {"entries": 48, "ways": 4, "latency": 1}}, "entries"),
        ({"synonym_filter": {"bits": 1000}}, "bits"),
        ({"segments": {"index_cache_size": 100}}, "index_cache_size"),
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
                assert doc["batch_max"] == 8
                service.begin_drain()
                status, body, _ = http(server.url, "/healthz")
                assert status == 503
                assert json.loads(body)["status"] == "draining"
            finally:
                service.close()

    def test_keep_alive_requests_do_not_stall(self):
        """No kept-alive response may wait on the client's delayed ACK
        (~40 ms each): each goes out in one send, with TCP_NODELAY."""
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

    @pytest.mark.parametrize("path, length, code", [
        ("/nope", None, 404),
        ("/jobs", "x", 400),
    ])
    def test_post_answered_early_keeps_the_connection_in_step(
            self, path, length, code):
        """A POST answered without its job (unknown route, unreadable
        Content-Length) must not leave its body on the connection for
        the next request to trip over."""
        service = JobService(start=False)
        body = json.dumps(make_job().to_json_dict()).encode()
        with ServeServer(service) as server:
            conn = HTTPConnection(server.host, server.port, timeout=30)
            try:
                conn.putrequest("POST", path)
                conn.putheader("Content-Length", length or str(len(body)))
                conn.endheaders(body)
                response = conn.getresponse()
                assert response.status == code
                assert "error" in json.loads(response.read())
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["schema"] == HEALTH_SCHEMA
                assert service.counts()["queued"] == 0
            finally:
                conn.close()
                service.close()

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


class TestTransport:
    """The listener itself, driven over plain sockets."""

    def test_stalled_clients_do_not_delay_another(self):
        service = JobService(start=False)
        with ServeServer(service) as server, \
                raw_connection(server) as (half, _), \
                raw_connection(server) as (idle, idle_reader):
            try:
                half.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n")
                idle.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
                assert read_response(idle_reader)[0] == 200
                started = time.perf_counter()
                status, _, _ = http(server.url, "/healthz")
                elapsed = time.perf_counter() - started
            finally:
                service.close()
        assert status == 200
        assert elapsed < 1.0, f"/healthz took {elapsed:.3f}s"

    def test_pipelined_requests_answer_in_order(self):
        service = JobService(start=False)
        body = json.dumps(make_job().to_json_dict()).encode()
        with ServeServer(service) as server, \
                raw_connection(server) as (sock, reader):
            try:
                sock.sendall(b"POST /jobs HTTP/1.1\r\nContent-Length: %d"
                             b"\r\n\r\n%sGET /healthz HTTP/1.1\r\n\r\n"
                             % (len(body), body))
                status, _, reply = read_response(reader)
                assert status == 202
                assert json.loads(reply)["disposition"] == "accepted"
                status, _, reply = read_response(reader)
                assert status == 200
                assert json.loads(reply)["queued"] == 1
            finally:
                service.close()

    def test_expect_100_continue(self):
        service = JobService(start=False)
        body = json.dumps(make_job().to_json_dict()).encode()
        with ServeServer(service) as server, \
                raw_connection(server) as (sock, reader):
            try:
                sock.sendall(b"POST /jobs HTTP/1.1\r\nExpect: 100-continue"
                             b"\r\nContent-Length: %d\r\n\r\n" % len(body))
                assert read_response(reader) == (100, {}, b"")
                sock.sendall(body)
                status, _, reply = read_response(reader)
                assert status == 202
                assert json.loads(reply)["disposition"] == "accepted"
            finally:
                service.close()

    @pytest.mark.parametrize("request_bytes, code", [
        # A head that reaches 64 KiB without its blank line.
        (b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * (64 * 1024 - 23), 431),
        (b"garbage\r\n\r\n", 400),
        (b"DELETE /jobs HTTP/1.1\r\n\r\n", 501),
        # int() refuses a number over 4,300 digits.
        (b"POST /jobs HTTP/1.1\r\nContent-Length: " + b"9" * 5000
         + b"\r\n\r\n", 400),
    ], ids=["head-over-64k", "bad-request-line", "unsupported-method",
            "content-length-over-4300-digits"])
    def test_protocol_errors_answer_json(self, request_bytes, code):
        service = JobService(start=False)
        with ServeServer(service) as server:
            try:
                with raw_connection(server) as (sock, reader):
                    sock.sendall(request_bytes)
                    status, headers, body = read_response(reader)
                # The listener goes on serving other clients.
                health, _, _ = http(server.url, "/healthz")
            finally:
                service.close()
        assert status == code
        assert headers["content-type"] == "application/json"
        assert set(json.loads(body)) == {"error"}
        assert health == 200

    def test_a_failure_serving_one_client_hangs_up_only_that_client(self):
        def route(method, target, body):
            if target == "/broken":        # a body that is not bytes
                return 200, "text", "text/plain", None
            return 200, b"ok", "text/plain", None

        with HttpListener(route) as listener:
            with raw_connection(listener) as (sock, reader):
                sock.sendall(b"GET /broken HTTP/1.1\r\n\r\n")
                assert reader.read() == b""
            with raw_connection(listener) as (sock, reader):
                sock.sendall(b"GET /fine HTTP/1.1\r\n\r\n")
                assert read_response(reader)[::2] == (200, b"ok")

    def test_head_split_across_segments(self):
        """The search for a head's blank line resumes where the last one
        stopped, including when the blank line itself is split."""
        service = JobService(start=False)
        with ServeServer(service) as server, \
                raw_connection(server) as (sock, reader):
            try:
                for piece in (b"GET /hea", b"lthz HTTP/1.1\r\nHost: x\r",
                              b"\n\r", b"\n"):
                    sock.sendall(piece)
                    time.sleep(0.02)
                status, _, body = read_response(reader)
            finally:
                service.close()
        assert status == 200
        assert json.loads(body)["schema"] == HEALTH_SCHEMA

    def test_http10_closes_unless_asked_to_keep_alive(self):
        service = JobService(start=False)
        with ServeServer(service) as server:
            try:
                with raw_connection(server) as (sock, reader):
                    sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
                    status, headers, _ = read_response(reader)
                    assert status == 200
                    assert headers["connection"] == "close"
                    assert reader.read() == b""
                with raw_connection(server) as (sock, reader):
                    for _ in range(2):
                        sock.sendall(b"GET /healthz HTTP/1.0\r\n"
                                     b"Connection: keep-alive\r\n\r\n")
                        status, headers, _ = read_response(reader)
                        assert status == 200
                        assert "connection" not in headers
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
                assert headers["Retry-After"] == "1"
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
                assert headers["Retry-After"] == "1"
                with pytest.raises(ServiceDrainingError):
                    service.submit(make_job())
            finally:
                service.close()


class TestExecutionPaths:
    def test_batching_drains_queue_into_one_executor_call(self):
        executor = SerialExecutor()
        service = JobService(executor=executor, start=False)
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

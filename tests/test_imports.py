"""``import repro`` loads the simulator and nothing else.

Each check runs in a fresh interpreter, so a module some earlier test
imported cannot hide a regression.  The names perfbench wraps from
outside the package must also stay defined where it looks for them.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Modules no simulation needs: ``import repro`` plus one run must not
#: load any of them.
TOOLS = (
    "sqlite3", "http.server",
    "repro.obs.store", "repro.obs.heartbeat", "repro.obs.metrics",
    "repro.obs.traceview", "repro.obs.aggregate",
    "repro.report", "repro.serve", "repro.bench", "repro.cli",
    "repro.cache.coherence", "repro.sim.scheduler", "repro.sim.sweep",
    "repro.workloads.analysis", "repro.workloads.tracefile",
)


def _fresh(code: str):
    """Run ``code`` in a new interpreter; its stdout is one JSON value."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_import_and_one_run_load_no_tool():
    loaded = _fresh(
        "import json, sys\n"
        "import repro\n"
        "repro.run_workload('stream', 'hybrid_segments', accesses=200, warmup=0)\n"
        f"print(json.dumps([m for m in {TOOLS!r} if m in sys.modules]))\n")
    assert loaded == []


def test_served_job_imports_nothing_new():
    """``repro serve`` has imported ``repro.cli`` and ``repro.serve``
    before its pool forks, so the job a worker runs must find every
    module it needs already loaded: no worker compiles the simulator."""
    new = _fresh(
        "import json, sys\n"
        "import repro.cli, repro.serve\n"
        "from repro.exec import Job, run_job\n"
        "before = set(sys.modules)\n"
        "run_job(Job('gups', 'hybrid_tlb', accesses=200, warmup=0))\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    assert new == []


def test_serve_and_metrics_server_load_no_stdlib_http_stack():
    """The listener parses HTTP itself: neither the service nor a
    ``/metrics`` endpoint pulls in ``http.server`` and what it imports."""
    loaded = _fresh(
        "import json, sys\n"
        "import repro.serve\n"
        "from repro.obs.metrics import MetricsRegistry, MetricsServer\n"
        "MetricsServer(MetricsRegistry()).start().close()\n"
        "print(json.dumps([m for m in ('http.server', 'http.client', "
        "'email.parser') if m in sys.modules]))\n")
    assert loaded == []


def test_perfbench_entry_points_resolve():
    """Every name in perfbench/spans.py's ENTRY_POINTS and COUNTED
    resolves the way ``spans._patch`` resolves it: a method through its
    own class's ``__dict__``, a function as a module attribute.  A rename
    otherwise surfaces only when a traced benchmark run crashes."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for _layer, module_name, qualname in spans.ENTRY_POINTS + spans.COUNTED:
        module = importlib.import_module(module_name)
        if "." in qualname:
            class_name, attr = qualname.split(".")
            found = attr in vars(getattr(module, class_name, object))
        else:
            found = callable(getattr(module, qualname, None))
        if not found:
            missing.append(f"{module_name}.{qualname}")
    assert not missing

"""repro — a reproduction of "Efficient Synonym Filtering and Scalable
Delayed Translation for Hybrid Virtual Caching" (Park, Heo, Huh — ISCA 2016).

Public API tour
---------------

* :mod:`repro.filters`   — the Bloom-filter synonym detector.
* :mod:`repro.core`      — MMU front-ends: the hybrid design and baselines.
* :mod:`repro.segtrans`  — many-segment delayed translation hardware.
* :mod:`repro.osmodel`   — the OS substrate (frames, page tables, segments).
* :mod:`repro.workloads` — calibrated synthetic workload generators.
* :mod:`repro.sim`       — one-call experiment drivers.
* :mod:`repro.exec`      — job-based execution engine (plans, parallel
  executors, fingerprint-keyed result caching).
* :mod:`repro.energy`    — translation-energy accounting.
* :mod:`repro.virt`      — virtualization (2-D translation) support.

Quick start::

    from repro.sim import compare_configs
    row = compare_configs("gups", accesses=50_000)
    print(row.normalized())   # speedups over the physical baseline

``import repro`` loads the simulator and nothing else: the datapath
(filter, TLBs and walker, caches, delayed translation, timing), the OS
model, the workload generators and the one-call drivers.  The execution
engine loads when a point first runs; the observability tools, reports,
the server, ``repro.bench``, the CLI subcommands and the prior-scheme
MMUs load when first used (see ``docs/api.md``).
"""

# Set before the imports below: ``repro.obs.manifest`` reads it while
# this package is still loading.
__version__ = "1.0.0"

from repro.common.params import SystemConfig
from repro.core import ConventionalMmu, HybridMmu, IdealMmu
from repro.filters import SynonymFilter
from repro.osmodel import Kernel
from repro.sim import Simulator, compare_configs, run_workload
from repro.workloads import WorkloadSpec, spec

__all__ = [
    "SystemConfig",
    "ConventionalMmu",
    "HybridMmu",
    "IdealMmu",
    "SynonymFilter",
    "Kernel",
    "Simulator",
    "compare_configs",
    "run_workload",
    "WorkloadSpec",
    "spec",
    "__version__",
]

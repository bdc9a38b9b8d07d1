"""Tests for the multiprogramming scheduler and context-switch modeling."""

import dataclasses

import pytest

from repro.common.params import SystemConfig
from repro.core import ConventionalMmu, HybridMmu
from repro.osmodel import Kernel
from repro.sim import lay_out
from repro.sim.scheduler import ScheduledSimulator, SwitchCosts


def build_system(mmu_cls, n_workloads=3, cores=1, **kw):
    config = dataclasses.replace(SystemConfig(), cores=cores)
    kernel = Kernel(config)
    names = ("omnetpp", "astar", "stream", "cactus")[:n_workloads]
    workloads = [lay_out(name, kernel, seed=5 + i)
                 for i, name in enumerate(names)]
    mmu = mmu_cls(kernel, config, **kw)
    return ScheduledSimulator(mmu, workloads, quantum=500, **{}), workloads


class TestScheduledSimulator:
    def test_all_workloads_complete(self):
        sim, workloads = build_system(HybridMmu, n_workloads=3)
        result = sim.run(accesses_per_workload=1500)
        assert set(result.per_workload) == {w.spec.name for w in workloads}
        for r in result.per_workload.values():
            assert r.accesses == 1500

    def test_context_switches_counted(self):
        sim, _w = build_system(HybridMmu, n_workloads=3, cores=1)
        result = sim.run(accesses_per_workload=1500)
        # 3 workloads × 3 quanta each on one core: every quantum after
        # the first is a switch.
        assert result.context_switches == 8
        assert result.switch_cycles > 0

    def test_more_cores_fewer_switches(self):
        one_core, _ = build_system(HybridMmu, n_workloads=3, cores=1)
        r1 = one_core.run(accesses_per_workload=1000)
        three_cores, _ = build_system(HybridMmu, n_workloads=3, cores=3)
        r3 = three_cores.run(accesses_per_workload=1000)
        assert r3.context_switches == 0
        assert r3.context_switches < r1.context_switches

    def test_hybrid_pays_filter_load(self):
        costs = SwitchCosts()
        hybrid, _ = build_system(HybridMmu, n_workloads=2, cores=1)
        conventional, _ = build_system(ConventionalMmu, n_workloads=2, cores=1)
        rh = hybrid.run(accesses_per_workload=1000)
        rc = conventional.run(accesses_per_workload=1000)
        assert rh.context_switches == rc.context_switches
        per_switch_h = rh.switch_cycles / rh.context_switches
        per_switch_c = rc.switch_cycles / rc.context_switches
        assert per_switch_h == per_switch_c + costs.filter_load

    def test_aggregate_ipc_positive(self):
        sim, _w = build_system(HybridMmu, n_workloads=2)
        result = sim.run(accesses_per_workload=800)
        assert 0 < result.aggregate_ipc() < 4

    def test_empty_workloads_rejected(self):
        config = SystemConfig()
        kernel = Kernel(config)
        mmu = HybridMmu(kernel, config)
        with pytest.raises(ValueError):
            ScheduledSimulator(mmu, [])

    @pytest.mark.parametrize("quantum", [0, -3])
    def test_quantum_below_one_rejected(self, quantum):
        config = SystemConfig()
        kernel = Kernel(config)
        workload = lay_out("stream", kernel, seed=1)
        with pytest.raises(ValueError, match="quantum"):
            ScheduledSimulator(HybridMmu(kernel, config), [workload],
                               quantum=quantum)

    def test_filters_survive_switches(self):
        """Per-process filter state must be intact after many switches."""
        config = dataclasses.replace(SystemConfig(), cores=1)
        kernel = Kernel(config)
        w1 = lay_out("postgres", kernel, seed=1)
        w2 = lay_out("omnetpp", kernel, seed=2)
        mmu = HybridMmu(kernel, config, delayed="tlb")
        sim = ScheduledSimulator(mmu, [w1, w2], quantum=300)
        sim.run(accesses_per_workload=1200)
        shared = w1.shared_vmas[w1.processes[0].asid]
        assert w1.processes[0].synonym_filter.is_synonym_candidate(
            shared.vbase)

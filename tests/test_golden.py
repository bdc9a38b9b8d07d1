"""Golden result documents: the model's output contract.

Every point of a small grid — four workloads under every MMU
configuration, native and virtualized — is simulated and its
``repro.result/v1`` document encoded exactly as the result cache stores
it (:func:`~repro.exec.cache.encode_document`), minus the manifest
fields that describe the host and the clock.  The SHA-256 of those bytes
is pinned, so any change to a counter (its value or its position), a
histogram, a cycle count or an interval fails here.

The grid covers a uniformly random walk-heavy workload (gups), two
multi-process synonym workloads (ferret, postgres), a multi-request
eager-segment layout (mcf, which transparent huge pages change) and two
cache-friendly workloads where hits dominate and the synonym filters
never fire (stream, speccpu_private).  Three more points run postgres on
four cores that share a 64 KB LLC, under the baseline and both hybrid
engines: only there do writes invalidate remote private copies and LLC
evictions back-invalidate blocks held by several cores.

The observer paths are pinned too: the JSONL events of a sampled trace
(warm-up accesses close with ``timed: false``), the calls a pulse
receives beside interval windows and that run's document, the document
of a run that resets its counters after warm-up, and a two-workload
time-sliced schedule under a hybrid and the baseline MMU.  Longer runs
pin the same paths where the warm-up, the windows, the pulses and the
schedule's slices end inside one of the simulator's blocks of
references (``repro.sim.simulator.BLOCK``, 256), and other block sizes
must give the same bytes.

A change that moves the model on purpose re-records only the entries it
names and states the model reason in its commit.  Print the current
digests with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json

import pytest

from repro.common.params import SystemConfig
from repro.exec import Job, encode_document
from repro.obs import Tracer
from repro.osmodel import Kernel
from repro.sim import Simulator
from repro.sim.runner import MMU_CONFIGS, PRIOR_CONFIGS, build_mmu, lay_out
from repro.sim.scheduler import ScheduledSimulator
from repro.virt import Hypervisor, VirtConventionalMmu, VirtHybridMmu

ACCESSES = 400
WARMUP = 100
SEED = 42

#: Manifest fields that describe the host and the clock, not the model.
VOLATILE_MANIFEST_FIELDS = ("host", "started_at", "duration_s",
                            "python_version")

WORKLOADS = ("gups", "ferret", "mcf", "postgres", "stream",
             "speccpu_private")
VIRT_MMUS = ("virt_baseline", "virt_hybrid_tlb", "virt_hybrid_segments")
MMUS = MMU_CONFIGS + PRIOR_CONFIGS + VIRT_MMUS

#: The multi-core points: postgres on four cores sharing a 64 KB LLC.
MULTICORE_WORKLOAD = "postgres"
MULTICORE_MMUS = ("baseline", "hybrid_tlb", "hybrid_segments")
MULTICORE_CONFIG = SystemConfig(cores=4).with_llc_size(64 * 1024)

GOLDEN = {
    "gups/baseline": "623f7aa95959eec6d851a582bebfa22c3c94c5113818a56651b26a26b100b48f",
    "gups/ideal": "e139213597a903ac6b740e706501283a3deda0535b51a3d6f48d9bc11be841b6",
    "gups/hybrid_tlb": "e0ace482ebbeaa092884fa52a40a69a02bafc43db5fcd60b7f83cdc7c19e874c",
    "gups/hybrid_segments": "a466655bfa86ce656393bbc4e7db5c9cf4c894618c06e77b5e4fd080dbc81715",
    "gups/hybrid_segments_nosc": "bf0d0e7a7322c4e57c0fbaa06028c048d00f66c8afc8601e1efe58a5b3fff92e",
    "gups/direct_segment": "29b6e3560910f83e9f9db6847f62f21d5f413bb3dcf863b180dcbd77f22592ad",
    "gups/rmm": "7a69aa1d11623eb6c65c0c2ba7ec3535df09a01b6f84d26cac02630ffd075dc9",
    "gups/enigma": "6155fb60ac236b5fc97d381fc335983cd3e2f50eca565c7f58d7f2ea0c9918e0",
    "gups/baseline_thp": "82166b6c982e6592f427bf2f310d237de19f3f57d1fc84127fee1ba38641fe32",
    "gups/virt_baseline": "ffc4b80963fb343dba4a7d99e3d4d7831aeb6e62de91a75cc0aa5d982af653fb",
    "gups/virt_hybrid_tlb": "f6a362444a54f327b6991e0d63a4fb8dad63109158ff88c4ec7d3a1a18bc39f4",
    "gups/virt_hybrid_segments": "40aa7a1ad89026f06a0b380738490556ae269d46d548b1afa24f3783ee4f4ba9",
    "ferret/baseline": "722f2c313163599cb4c782843d5f670ed4285b02e543cb46b69f9e3281cc3d8c",
    "ferret/ideal": "05de0013816e9a3a856529187b4bfb39a4a4b51d06bde62164f02b0bf34f245a",
    "ferret/hybrid_tlb": "8a0bd085330041076eee8026ce00f20eaac3558a640e4925a334ec87704249b8",
    "ferret/hybrid_segments": "4c5472cd905694a0440bb12fe79cfc2da115f8af158b41a551ae1f38ddfd7de7",
    "ferret/hybrid_segments_nosc": "edee35e0c6bee88a68004ed998aedb8c171b387bed103a550399b0c5b9507325",
    "ferret/direct_segment": "81fe82077af3fefadce40ad5648796b5cee7da2341c589da6fd9663ee2aa68fe",
    "ferret/rmm": "6c97210e4e6386098f5fbc491c53e443bdb4fdb799572275dec48d1d1148ec11",
    "ferret/enigma": "98fe3bb7ed7b817681882b1772bffacccc67751d84573ec7f75311d71dd7f2d1",
    "ferret/baseline_thp": "98fd852ff7ce5590c82da96cf16edcba8b769c84be6aa98d8b014623295bf7ab",
    "ferret/virt_baseline": "6ac02410d292132d9d1fd35f44afaa837bd718b789cc8ca29ec04c49f3a319bd",
    "ferret/virt_hybrid_tlb": "e576cdb8d3ca3925c43de2969eef71b7c181cb2efda4b2c49013e9374f75ae03",
    "ferret/virt_hybrid_segments": "70a2ffe3dfe9d1e0b54f5aa1bbd798eca29898e845563de3e4bfbf4f869426d1",
    "mcf/baseline": "c3521b16f11f839468c9b361ad6da92548ff5d7954121dff60f2e38dfca36472",
    "mcf/ideal": "39ce9a11d5e4d24e21f9af3fa224f9725199669225ba0f051d85d18c436a2a00",
    "mcf/hybrid_tlb": "fd8166672a7105ec7332a8d70e0109e3b8682f16f584d65b1dd785cb0842946b",
    "mcf/hybrid_segments": "0f8c6bcc6bd2a9b2478889ede3eaad22ba98494aa37ffdade43d9b445d0986bb",
    "mcf/hybrid_segments_nosc": "cb51f5f5e8dc9af551bc6bdfa5ab8381f95550fd764c47a9a3d9050eb6827be8",
    "mcf/direct_segment": "c17dccd2b734c0d46a147ce2d7cc77f306eace9f72d12712998db89be51c0932",
    "mcf/rmm": "63fdb9a88a9cc32f299df817ba55a21a4a72ee7d0fcc287f3f2006dbf2075dbc",
    "mcf/enigma": "d6b2608cb2229fc063363359d21f34e3e33176fdb678c8f7367fe600ce3f98c0",
    "mcf/baseline_thp": "f62dc9166d129e09c6b9e3fc9dddf447e79d141f71d9bbc83a4a36bb5339d321",
    "mcf/virt_baseline": "231b2a5e5895bdad0fe9ae06ad2c61782ad8672498d9d9a3a23adb9ee8f52a06",
    "mcf/virt_hybrid_tlb": "8efc998d9a69d33aeb957689158c5fcd7fcb1e51214099ae382ece5a0fa42237",
    "mcf/virt_hybrid_segments": "d1553eaaca515fe3992cadb4dafae859343b26b376b497c03f52b330ca79061e",
    "postgres/baseline": "a1dcd98d03411a4eb9322800105dca8261b87576e365b9532afa24fd8938afa7",
    "postgres/ideal": "f53c49e6573fc802f23e7ce47591535a698bcb9618ad0906df18a35c97f87e24",
    "postgres/hybrid_tlb": "41b0e6369e16329a7ee6a21a85a9733ab70d97226a9deec1fec87e47baf7a870",
    "postgres/hybrid_segments": "66d7de6fcfd91267b3d42da2506345512c81a24c1420591e0d98bf446d21079c",
    "postgres/hybrid_segments_nosc": "5d0a29c3fffa5885c4345338775a63ac0e3557554d8ec95b636e07c922868325",
    "postgres/direct_segment": "857504105768fab1a51085739248ba3410a559c26ac7581ed3543662e335bd42",
    "postgres/rmm": "fe22317b17d6f2788da54b0133ccb525196c2f43ffb5856d17e19fe43abcd240",
    "postgres/enigma": "cb62932f9f752a61887a3a0c821ca2fa22f9b91ba0b71118c1dea3c95876756d",
    "postgres/baseline_thp": "3ba7a1ff69483beec0e9d011921972f7f6495460acc609a806c3cbab9f320088",
    "postgres/virt_baseline": "7dadd9fb30b33a4d7b7f152f4bef4f157f0287dac39e76a6f969a6cf6bdf4baf",
    "postgres/virt_hybrid_tlb": "d0d67fbb7194ee3f7e64b0a5a7b8a2bbfdb0270c6f50797c70a997bcc18b7999",
    "postgres/virt_hybrid_segments": "2240ce86060fbeb73d405ca1fd9065da36ed6c8538e2b0028b2cdc59cf82a91c",
    "stream/baseline": "df291f75d8fadc9a0509e8949e4a13a8f6dbd8559befa80c31ee261f7cd6bf87",
    "stream/ideal": "09ff152fb9398c783c0b453bcc50acf1345dcf99555cd8e3fe51a1d0ffc2935a",
    "stream/hybrid_tlb": "a291f4dd6d6c8026c7c9ac751330b0128f71821fc6487f157b2eaddc0c84e0e8",
    "stream/hybrid_segments": "99511dedead0feff285dca8c99c91c53b1e38a1346da53a1ad688b7979e87af3",
    "stream/hybrid_segments_nosc": "f98b92b5be2349f7c3fb250418db36a7293c235fed23cbedc0d0072570e01930",
    "stream/direct_segment": "d95e5f5196decd595b142de4af5900cfbec99b93bbac64465669df640772f4b8",
    "stream/rmm": "4c1bc775dc57011c0924e2424b6e15050a2058ff04e520fd91f03d4bf5c9d88f",
    "stream/enigma": "6544a200096d2568787910ad8ab3674ac3987c06b19273961d9f18aaa38cc903",
    "stream/baseline_thp": "774b91c81297d5ef79c3a105622e81728952796ed2076c45f10dfd4136db5743",
    "stream/virt_baseline": "1e1456c7f3a39c65cac63f88c807f9ef71e2b0ecb3a400fc88bfa166b5d8003c",
    "stream/virt_hybrid_tlb": "8f42e581a67658cd497b7ab1ff21b5e11ff1cfcabc5b97ec0626c9ba6c8db892",
    "stream/virt_hybrid_segments": "a5cc7937689b4bf2f9f4543bf6e4828b11484dc696b3ff4eaaf11bc341a56518",
    "speccpu_private/baseline": "5d1837e1a599b9e14ad3665a6f44d3a495266e8c069b1cf5bd01f3abf435525c",
    "speccpu_private/ideal": "c01143e503e7622fab6c5a8ed7e1373d5abe6bc48bfd88285a032541f0234954",
    "speccpu_private/hybrid_tlb": "05e6c9713dc1b6335c2dc089c6fb781ed3a5ade952fb7f32e4d07905ff18c632",
    "speccpu_private/hybrid_segments": "cad4ae75a1634479fb9d294de9d838445e9e4e4f03a728daae9a676387e8ae5d",
    "speccpu_private/hybrid_segments_nosc": "b8ffc193b7d58d2ba4093abd7d409a2d1ff7043cb018d5b89dd45b8080caa2b8",
    "speccpu_private/direct_segment": "e121ba361d8090a9e69c90914a6a0bdf576541886de79caf174a05b914851958",
    "speccpu_private/rmm": "0d452c0cdf003d66e3808d2c584c93783c208bc4b6896bd94fb10536e40efaff",
    "speccpu_private/enigma": "2289e145e39d1f17249989f24bd1ed0c554108d59e53d6a3d3c6795f882bffec",
    "speccpu_private/baseline_thp": "0a73cd2f3eab1553475c3b4ff7eef13497017f0d99c5a33fa39c2dcd4dd7725c",
    "speccpu_private/virt_baseline": "1d7e7e4595714d184e18853d73de4bf2cce2d6a3ac61c944bb05508a6103c871",
    "speccpu_private/virt_hybrid_tlb": "02e0a806c178067c1d0a84f018754c56980ccff932941bcb6a7d7cb3196972c6",
    "speccpu_private/virt_hybrid_segments": "1ac6438a5a998511c8ba5b93e1932f1d147ca91822f19b5937af9d5b30d9c170",
}

GOLDEN_MULTICORE = {
    "baseline": "fcfc5ad017658258a89b45c31e63223613e242e8dc4813bc1b8043190b77821e",
    "hybrid_tlb": "d077b714e287a171ef76786f9b906024ab1bbaf8ecb8340ec5675a577447b38b",
    "hybrid_segments": "49f641d4faaca0c18d14652abc1d68c4384c90533c1d282f1e9a3dff5e35fd6c",
}


#: Sampled traces: every ``TRACE_SAMPLE_EVERY``-th access, warm-up included.
TRACE_SAMPLE_EVERY = 7
GOLDEN_TRACE = {
    "stream/hybrid_segments": "3316b79028839cdea420065c1a336dcd6ac14f8f86446bea23ca46a944f64194",
    "gups/baseline": "f24d0babb1ef62174cdd2f5863a60709cef21070b363604d09042cf4d2bb05fe",
}

#: A pulse every ``PULSE_EVERY`` timed accesses beside windows of
#: ``PULSE_INTERVAL``: its ``(done, total, instructions, cycles)`` calls
#: and the run's document.
PULSE_POINT = "stream/hybrid_segments"
PULSE_EVERY = 70
PULSE_INTERVAL = 150
GOLDEN_PULSE_CALLS = [
    (70, 400, 140, 453.0), (140, 400, 280, 932.0), (210, 400, 420, 1386.0),
    (280, 400, 560, 1839.0), (350, 400, 700, 2212.0)]
GOLDEN_PULSE_DOCUMENT = "74cd2d250699d70c300c745188c5cd5a280ae2ec833297ba068bc67d9e001b00"

#: Counters zeroed once warm-up completes.
RESET_POINT = "gups/hybrid_tlb"
GOLDEN_RESET_DOCUMENT = "6f4db1bb3b27fc89d36e435f12261d986c9f0f82561a49c60170260f7e6df818"

#: Two workloads time-sliced on one core.
SCHEDULE_WORKLOADS = ("postgres", "omnetpp")
SCHEDULE_ACCESSES = 400
SCHEDULE_QUANTUM = 150
GOLDEN_SCHEDULE = {
    "hybrid_segments": "7cddbf33c9a93c06c1e798ee68fd61eb8f5685b8c42cb96cfcc9420d9fdd5b62",
    "baseline": "7fffdee7c8e0747b91fe76cff943dafde9b79c390b7cfdf7a3c27b52337bcaf0",
}

#: Runs of several 256-reference blocks whose boundaries fall inside a
#: block: a sampled trace, windows of ``MULTIBLOCK_INTERVAL`` and a
#: pulse every ``MULTIBLOCK_PULSE_EVERY`` timed accesses; their events,
#: pulse calls and document.
MULTIBLOCK_WARMUP = 2 * 256 + 50
MULTIBLOCK_ACCESSES = 4 * 256 + 100
MULTIBLOCK_INTERVAL = 300
MULTIBLOCK_PULSE_EVERY = 200
GOLDEN_MULTIBLOCK = {
    "stream/hybrid_segments": "19ef257a109404181f340b259c53c86b341b518b5eda014c58c8a0b3f7073e76",
    "gups/baseline": "b5372cae3361674651096e02b9b0e3e970cd74821d5a6d1b342a988b228d3e09",
}

#: The two-workload schedule over ``MULTIBLOCK_ACCESSES`` each, in
#: slices of ``MULTIBLOCK_QUANTUM``.
MULTIBLOCK_QUANTUM = 700
GOLDEN_MULTIBLOCK_SCHEDULE = {
    "hybrid_segments": "410790bd810c20851d73ba469c077ab0485991c6d42881a229416fbdb6ddde60",
    "baseline": "7e93bbe9c4409ee0e380e9d30a88483cf04ffce16f082f5c3abb99103606f007",
}


def virt_system(workload: str, mmu: str):
    """``(laid_out, vm, system)``: a ``virt_*`` MMU on a fresh VM."""
    hypervisor = Hypervisor()
    vm = hypervisor.create_vm(f"vm-{workload}")
    laid_out = lay_out(workload, vm.guest_kernel, seed=SEED)
    if mmu == "virt_baseline":
        system = VirtConventionalMmu(hypervisor, vm)
    else:
        system = VirtHybridMmu(hypervisor, vm,
                               delayed=mmu[len("virt_hybrid_"):])
    return laid_out, vm, system


def simulate(workload: str, mmu: str, config: SystemConfig | None = None):
    """One grid point on a fresh system (a fresh VM for ``virt_*``)."""
    if mmu not in VIRT_MMUS:
        return Job(workload=workload, mmu=mmu, config=config,
                   accesses=ACCESSES, warmup=WARMUP, seed=SEED).run()
    laid_out, _vm, system = virt_system(workload, mmu)
    return Simulator(system).run(laid_out, ACCESSES, warmup=WARMUP,
                                 seed=SEED)


def document_digest(result) -> str:
    """SHA-256 of the encoded document without its volatile fields."""
    doc = result.to_json_dict()
    for field in VOLATILE_MANIFEST_FIELDS:
        doc["manifest"].pop(field)
    return hashlib.sha256(encode_document(doc).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("point", sorted(GOLDEN))
def test_document_bytes_unchanged(point):
    workload, mmu = point.split("/")
    assert document_digest(simulate(workload, mmu)) == GOLDEN[point]


@pytest.mark.parametrize("mmu", sorted(GOLDEN_MULTICORE))
def test_multicore_document_bytes_unchanged(mmu):
    result = simulate(MULTICORE_WORKLOAD, mmu, MULTICORE_CONFIG)
    assert document_digest(result) == GOLDEN_MULTICORE[mmu]


def _job(point: str, **fields) -> Job:
    workload, mmu = point.split("/")
    return Job(workload=workload, mmu=mmu, accesses=ACCESSES,
               warmup=WARMUP, seed=SEED, **fields)


def trace_digest(point: str) -> str:
    """SHA-256 of the JSONL events of one sampled, traced run."""
    sink = io.StringIO()
    _job(point).run(tracer=Tracer(sample_every=TRACE_SAMPLE_EVERY,
                                  sink=sink))
    return hashlib.sha256(sink.getvalue().encode("utf-8")).hexdigest()


class _RecordingPulse:
    def __init__(self, every: int = PULSE_EVERY) -> None:
        self.every = every
        self.calls = []

    def __call__(self, done, total, instructions, cycles) -> None:
        self.calls.append((done, total, instructions, cycles))


def pulsed_run():
    """``(pulse calls, document digest)`` of the pulsed, windowed run."""
    pulse = _RecordingPulse()
    result = _job(PULSE_POINT, interval=PULSE_INTERVAL).run(pulse=pulse)
    return pulse.calls, document_digest(result)


def reset_digest() -> str:
    return document_digest(
        _job(RESET_POINT, reset_stats_after_warmup=True).run())


def multiblock_digest(point: str) -> str:
    """SHA-256 of a multi-block run's trace events, pulse calls and
    document."""
    workload, mmu = point.split("/")
    sink = io.StringIO()
    pulse = _RecordingPulse(MULTIBLOCK_PULSE_EVERY)
    result = Job(workload=workload, mmu=mmu, accesses=MULTIBLOCK_ACCESSES,
                 warmup=MULTIBLOCK_WARMUP, seed=SEED,
                 interval=MULTIBLOCK_INTERVAL).run(
        tracer=Tracer(sample_every=TRACE_SAMPLE_EVERY, sink=sink),
        pulse=pulse)
    doc = [sink.getvalue(), pulse.calls, document_digest(result)]
    return hashlib.sha256(json.dumps(doc).encode("utf-8")).hexdigest()


def schedule_digest(mmu: str, accesses: int = SCHEDULE_ACCESSES,
                    quantum: int = SCHEDULE_QUANTUM) -> str:
    """SHA-256 of a two-workload schedule's per-workload totals."""
    config = dataclasses.replace(SystemConfig(), cores=1)
    kernel = Kernel(config)
    workloads = [lay_out(name, kernel, seed=SEED + i)
                 for i, name in enumerate(SCHEDULE_WORKLOADS)]
    result = ScheduledSimulator(build_mmu(mmu, kernel, config), workloads,
                                quantum=quantum).run(accesses)
    doc = {
        "per_workload": {
            name: [r.instructions, r.accesses, r.cycles, r.cycle_breakdown]
            for name, r in result.per_workload.items()},
        "context_switches": result.context_switches,
        "total_cycles": result.total_cycles,
    }
    return hashlib.sha256(json.dumps(doc).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("point", sorted(GOLDEN_TRACE))
def test_trace_events_unchanged(point):
    assert trace_digest(point) == GOLDEN_TRACE[point]


def test_pulse_calls_and_windows_unchanged():
    calls, digest = pulsed_run()
    assert calls == GOLDEN_PULSE_CALLS
    assert digest == GOLDEN_PULSE_DOCUMENT


def test_reset_after_warmup_document_unchanged():
    assert reset_digest() == GOLDEN_RESET_DOCUMENT


@pytest.mark.parametrize("mmu", sorted(GOLDEN_SCHEDULE))
def test_schedule_unchanged(mmu):
    assert schedule_digest(mmu) == GOLDEN_SCHEDULE[mmu]


@pytest.mark.parametrize("point", sorted(GOLDEN_MULTIBLOCK))
def test_multiblock_run_unchanged(point):
    assert multiblock_digest(point) == GOLDEN_MULTIBLOCK[point]


@pytest.mark.parametrize("mmu", sorted(GOLDEN_MULTIBLOCK_SCHEDULE))
def test_multiblock_schedule_unchanged(mmu):
    assert (schedule_digest(mmu, MULTIBLOCK_ACCESSES, MULTIBLOCK_QUANTUM)
            == GOLDEN_MULTIBLOCK_SCHEDULE[mmu])


def test_block_size_leaves_documents_unchanged(monkeypatch):
    """A block only groups the stages' work: blocks of 1, 7 and 4096
    references give the default's events, pulse calls, document and
    schedule."""
    def digests():
        return (multiblock_digest("stream/hybrid_segments"),
                schedule_digest("hybrid_segments", MULTIBLOCK_ACCESSES,
                                MULTIBLOCK_QUANTUM))

    default = digests()
    for block in (1, 7, 4096):
        monkeypatch.setattr("repro.sim.simulator.BLOCK", block)
        assert digests() == default, f"BLOCK = {block}"


def test_grid_covers_every_mmu():
    assert {point.split("/")[1] for point in GOLDEN} == set(MMUS)
    assert set(GOLDEN_MULTICORE) == set(MULTICORE_MMUS)


if __name__ == "__main__":
    for workload in WORKLOADS:
        for mmu in MMUS:
            digest = document_digest(simulate(workload, mmu))
            print(f'    "{workload}/{mmu}": "{digest}",')
    print()
    for mmu in MULTICORE_MMUS:
        digest = document_digest(
            simulate(MULTICORE_WORKLOAD, mmu, MULTICORE_CONFIG))
        print(f'    "{mmu}": "{digest}",')
    print()
    for point in GOLDEN_TRACE:
        print(f'    "{point}": "{trace_digest(point)}",')
    calls, digest = pulsed_run()
    print()
    print(f"GOLDEN_PULSE_CALLS = {calls!r}")
    print(f'GOLDEN_PULSE_DOCUMENT = "{digest}"')
    print(f'GOLDEN_RESET_DOCUMENT = "{reset_digest()}"')
    print()
    for mmu in GOLDEN_SCHEDULE:
        print(f'    "{mmu}": "{schedule_digest(mmu)}",')
    print()
    for point in GOLDEN_MULTIBLOCK:
        print(f'    "{point}": "{multiblock_digest(point)}",')
    print()
    for mmu in GOLDEN_MULTIBLOCK_SCHEDULE:
        digest = schedule_digest(mmu, MULTIBLOCK_ACCESSES, MULTIBLOCK_QUANTUM)
        print(f'    "{mmu}": "{digest}",')

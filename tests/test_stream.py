"""The reference stream: every catalog workload's trace, pinned.

A workload's trace is part of the model contract: every document is a
function of it.  The SHA-256 of 3,000 records of every catalog workload
at two seeds is pinned, and each per-access draw of :mod:`repro.workloads`
is checked against the ``random.Random`` call it stands for
(``randrange``, ``choices``, and the Zipf sampler's original binary
search), so a faster generator must make exactly the same draws.  Print
the current digests with::

    PYTHONPATH=src python tests/test_stream.py
"""

from __future__ import annotations

import hashlib
import itertools
import math

import pytest

from repro.common.params import SystemConfig
from repro.common.rng import make_rng, zipf_sampler, zipf_table
from repro.osmodel import Kernel
from repro.sim.runner import lay_out
from repro.workloads import build_pattern, names
from repro.workloads.spec import LaidOutWorkload, PatternMix, WorkloadSpec

RECORDS = 3000
SEEDS = (42, 7)

STREAM_GOLDEN = {
    "gups/42": "764abdac1d2b1ec99540f299b7a94be67ca7f9d2ddeb20d69ea5afc9d6e08413",
    "gups/7": "9a0d57033b749d684e823f5dda24f0462a7b0bf6de846a61d0ae62a917707708",
    "milc/42": "52c2d21ab759a54068a912fc4a5f180137a12f06b4297d008e97116b27bf714b",
    "milc/7": "028a5121e80295e69b1757737edc01da77cdea80749310e845c8d72d5842b880",
    "mcf/42": "fc7070b8b826907d90bf89a045e9dd9e8cdecf5570df06fea945d04f06109f77",
    "mcf/7": "12a2b015a0e9c80fc05c91c4c4193cfd22f95e87ad5a73726229c1ed38e6a037",
    "xalancbmk/42": "b0df878c1005f57372ea891bd43d3dc6e3abbefd3bc34e6225e9f85aba2d8f1f",
    "xalancbmk/7": "ad19068744537ca918401f7592815ee28f7c9e88f7dbcd7848c7ad84e0f6f010",
    "tigr/42": "7bee3b9c85f709198865932140c2c6629401c4ef1a4d871e496dc5891806ed50",
    "tigr/7": "aed45b605dc2613fb4d6ee11a5373d82caff609010ebba2e794e55e3d5866667",
    "omnetpp/42": "0952ac285df66f92f8bee7a688874bc14e07d3eb26486ee7d5da3a08b5b3770e",
    "omnetpp/7": "bc82dba098267771958b606511be695ba76fce852ae52d52798dd3151e244ea4",
    "soplex/42": "82320da58a4bca1ac49eb99ef87d0bd53182352024f58c7ad4577c3cdd4dff7f",
    "soplex/7": "ef2a7d70aee5c3bc330431726e0b075e11bb3f4307a47d52d521575712f036e5",
    "astar/42": "189ea33b5b4fdacb51e2390c5896d6e8b94bdbbdcb45a7b2149df2c939b2193f",
    "astar/7": "507a504e6fb756123bad73657bfa478203ed73084ae0c7c2c204ee1020475fe7",
    "cactus/42": "d3978ddb9a58ad07bb76022773d1be89c463e50fa9fe494690e0c04b6b542254",
    "cactus/7": "874b50f1bc142bbf01c759a255adc262e29b2ebbe15e7fbb219fbed0892137f2",
    "gemsfdtd/42": "abe930880daca1c8d379fb6e22e86302b802a4d9115f87b27102dc8488c4b44f",
    "gemsfdtd/7": "a2c6ff92a5b972cb594dcdd7e5719ae057794cd6476a047ba996ef439ce673c1",
    "canneal/42": "ad2b98287576b630cb1d74b3e8f0d79b3bc68c79ab243b8c3e491d86a3746386",
    "canneal/7": "a91bfac882283c524497c20e5f206de6d72c3b5b143e0a39cb52030ac3301fd5",
    "stream/42": "2c8d47b8b3832d4eb73b85ff530e4fd6d65ec5f82d79cb524736e06a7d85610f",
    "stream/7": "333a103c835d6eb2beb65b0b9781ba26ae96dcae640207f18076268467fdf2fa",
    "mummer/42": "b93599284f9750bbe2f14310940b7505bf39b44d631d5ffe9f3c8ff624081586",
    "mummer/7": "015542d5d4799c5c1a70599a34b31d0b9a32a2571012a926a95fac6e39cd7473",
    "memcached/42": "6ba4dc70f05c9e7f28901d3057b8e232365a52149b22438330b79eee42528e35",
    "memcached/7": "695dd28f30ab73bde8c97202ed88523a041b39bf4e49d2ff388c4317adbf692f",
    "npb_cg/42": "e0dd2f12736c13c856158dc3313ca7706b526f4a1b9114c128ba963912e00d23",
    "npb_cg/7": "1a1430531744da8d3e75684287f741c2ff4fe017c53b52fd10bc686e0a56e5e1",
    "graph500/42": "a9cf1c98b147b5ed669b1eba4d757912050dc86f24373124d576fe7537dd8d24",
    "graph500/7": "fd1a81c1b93ee015184e246f1c6cbd352bb5535b88c76ab5d42e95d131e8476c",
    "bzip2/42": "ee641780b56fe813567605b9ee4c1dbc2ae44c073b007c78cace7d8532ac4c8d",
    "bzip2/7": "d3af630ff428d0b521a545e878e3e06d60e8070ffa3b14dcccaf1b8131de3aee",
    "gcc/42": "0aaf1d244dd0e8efb246f25505580958c4fc7f1b78272f26df1d9ae3d7480b9e",
    "gcc/7": "76941738a3e7dc922b8263d233c586f5d8ef12cd7d56c59a279c2769988db971",
    "libquantum/42": "d72909e15c83edd1f466c161155f1693158fa2daff789ead574879285b21a909",
    "libquantum/7": "ec7dd94e9be3cd54fe9112e8204881b1fe8c16132a81d52b41ed4845296271e4",
    "lbm/42": "84acd305382f99343fa8d052fd8e95c4dc2d1097f54e316da036cf4946f6d4d0",
    "lbm/7": "5ce79d9e3413613ee3c0d5174fee3dad5027bd8b1b74e72b92c0d85dc7b0abb4",
    "sphinx3/42": "e2ce91fd66951638ff2d87ab46ccc462f1db1e5fdc00e90aa901e56c802b6a91",
    "sphinx3/7": "09eb4c91b510a6799c1d3cbc2499df155cf873979d37571e910f2aef752bc638",
    "ferret/42": "02c472ca116c633344db5e920972f083861d417e3a1f00240f463aefbc2b2074",
    "ferret/7": "342a2c137df08482bf7889f5fabb9a57dc08bb8983f6db161e34415725aa127e",
    "postgres/42": "3f61df47fc8431ed6e208ab6acae2e7128ef8de293119b3639aa27e251fc1a08",
    "postgres/7": "1c15f42aed0079dd3dbc3f33f7ac21822ceb2c2a8ad2afcf3ff1f57b2e891223",
    "specjbb/42": "f5a01c04a1269649b5282f2743c7e48d323ae3db96fb91fbe6b9507cec740672",
    "specjbb/7": "f8f989573680b835a4e57b64a104e5c8ce7bcba939585c38ffbe7909f1d7fde9",
    "firefox/42": "73c27cc48be94ee6eda76d23bbcff873ceb3949263908aad53727ea755c4f0bd",
    "firefox/7": "2d137068c8a49a8e70513f1d3ed86c34c16218727b8bc9fec16d2c42be8a2f55",
    "apache/42": "e8554c20eb982d40a08e3b3a8ad323daf999b3c5079a72d0ce77161b6c916c49",
    "apache/7": "0e7aeb2f99d561b4bfe4428f461a1484dc306d864a48ab9ca2efb83f0cf309d7",
    "speccpu_private/42": "e4f1dcdffafde51aae036a90833eebc00144eb795ed60d6a5ddaa46ace0e3206",
    "speccpu_private/7": "ed501d7f00ada4d0221347af8013b3cffb0490fe8878d4d0cb99d88864a58742",
}


def stream_digest(workload: str, seed: int) -> str:
    """SHA-256 over ``(asid, core, va, is_write, gap)`` of every record."""
    laid_out = lay_out(workload, Kernel(SystemConfig()), seed=seed)
    digest = hashlib.sha256()
    for r in laid_out.trace(RECORDS, seed):
        digest.update(f"{r.asid},{r.core},{r.va},{int(r.is_write)},{r.gap}\n"
                      .encode())
    return digest.hexdigest()


@pytest.mark.parametrize("point", sorted(STREAM_GOLDEN))
def test_stream_unchanged(point):
    workload, seed = point.split("/")
    assert stream_digest(workload, int(seed)) == STREAM_GOLDEN[point]


def test_golden_covers_catalog():
    assert set(STREAM_GOLDEN) == {f"{name}/{seed}"
                                  for name in names() for seed in SEEDS}


# ---------------------------------------------------------------------- #
# Draw-for-draw equivalence with the stdlib calls
# ---------------------------------------------------------------------- #

def reference_zipf_sampler(rng, n, theta=0.8):
    """The sampler as first written: a hand-rolled binary search."""
    weights = [1.0 / ((rank + 1) ** theta) for rank in range(n)]
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)

    def sample():
        u = rng.random()
        lo, hi = 0, n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cumulative[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return lo

    return sample, cumulative


class ScriptedRandom:
    """Returns the given ``random()`` values in order."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


class TestZipfSampler:
    @pytest.mark.parametrize("n", [1, 2, 7, 64, 1000])
    @pytest.mark.parametrize("theta", [0.3, 0.8, 1.2])
    def test_matches_binary_search(self, n, theta):
        sample = zipf_sampler(make_rng(n), n, theta)
        reference, _ = reference_zipf_sampler(make_rng(n), n, theta)
        assert [sample() for _ in range(2000)] == \
            [reference() for _ in range(2000)]

    @pytest.mark.parametrize("n", [1, 3, 64])
    def test_ties_and_clamp(self, n):
        """Exact cumulative weights, their neighbours, 0 and values past
        the last weight pick the same rank as the binary search."""
        _, cumulative = reference_zipf_sampler(None, n, 0.8)
        values = [0.0, 1.0, 2.0, math.nextafter(1.0, 0.0)]
        for c in cumulative:
            values += [c, math.nextafter(c, 0.0), math.nextafter(c, 2.0)]
        sample = zipf_sampler(ScriptedRandom(values), n, 0.8)
        reference, _ = reference_zipf_sampler(ScriptedRandom(values), n, 0.8)
        assert [sample() for _ in values] == [reference() for _ in values]

    @pytest.mark.parametrize("n, theta", [
        (1, 0.8), (64, 1.2), (6144, 0.8), (100, 1), (100, 1.0),
        ((1 << 16) + 1, 0.6)])    # the last is past the memo's bound
    def test_table_is_the_reference_and_immutable(self, n, theta):
        _, cumulative = reference_zipf_sampler(None, n, theta)
        table = zipf_table(n, theta)
        assert type(table) is tuple
        assert table == tuple(cumulative)
        assert (zipf_table(n, theta) is table) == (n <= 1 << 16)
        with pytest.raises(TypeError):
            table[0] = 0.5


class TestPatternDraws:
    @pytest.mark.parametrize("length,touch", [
        (8, 1.0),              # below the 64-byte floor
        (64, 1.0),
        (4096, 1.0),
        (1 << 20, 1.0),
        (1 << 28, 1.0),
        (3 * 4096 + 8, 1.0),
        (1 << 20, 0.3),
    ])
    def test_random_offsets_are_randrange(self, length, touch):
        limit = max(64, int(length * touch))
        gen = build_pattern("random", make_rng(5), length,
                            touch_fraction=touch)
        reference = make_rng(5)
        assert [gen() for _ in range(3000)] == \
            [reference.randrange(0, limit) & ~0x7 for _ in range(3000)]

    @pytest.mark.parametrize("length,lines_per_page", [
        (4096, 0),             # one page: nothing to shuffle
        (64 * 4096, 0), (1 << 22, 2),
        (100 * 4096, 0),       # not a power of two: the shuffle rejects
        (6144 * 4096, 2)])     # speccpu_private's geometry
    def test_zipf_intra_page_word_is_randrange(self, length, lines_per_page):
        rng = make_rng(9)
        pages = length // 4096
        sample, _ = reference_zipf_sampler(rng, pages, 0.8)
        line_pool = min(lines_per_page, 64) if lines_per_page else 64
        sample_line, _ = reference_zipf_sampler(rng, line_pool, 1.2)
        permutation = list(range(pages))
        rng.shuffle(permutation)

        def reference():
            page = permutation[sample()]
            line = (sample_line() + page) % 64
            return page * 4096 + line * 64 + (rng.randrange(0, 64) & ~0x7)

        gen = build_pattern("zipf", make_rng(9), length,
                            lines_per_page=lines_per_page)
        assert [gen() for _ in range(3000)] == \
            [reference() for _ in range(3000)]


def equivalence_spec(**overrides) -> WorkloadSpec:
    fields = dict(name="eq", footprint_bytes=8 << 20,
                  patterns=(PatternMix("random", 1.0),),
                  local_fraction=0.2, hot_fraction=0.4,
                  hot_bytes=3 * 4096 + 8)
    fields.update(overrides)
    return WorkloadSpec(**fields)


def reference_trace(workload: LaidOutWorkload, accesses: int, seed: int):
    """One process's stream, drawn with ``randrange`` and ``choices``."""
    spec = workload.spec
    (process,) = workload.processes
    (vma,) = workload.private_vmas[process.asid]
    stack = workload.stack_vmas[process.asid]
    rng = make_rng(seed, f"{spec.name}-access")
    pattern_fns = [
        build_pattern(mix.kind, make_rng(seed, f"{spec.name}-{process.asid}-{i}"),
                      vma.length, touch_fraction=spec.touch_fraction,
                      **mix.param_dict())
        for i, mix in enumerate(spec.patterns)]
    cum_weights = list(itertools.accumulate(m.weight for m in spec.patterns))
    touched = int(vma.length * spec.touch_fraction)
    hot_bytes = min(spec.hot_bytes, max(4096, touched))
    hot_start = 0
    if vma.length > hot_bytes and touched - hot_bytes > 0:
        hot_rng = make_rng(seed, f"{spec.name}-hot-{process.asid}")
        hot_start = hot_rng.randrange(0, touched - hot_bytes) >> 12 << 12
    cursor = 0
    out = []
    for _ in range(accesses):
        if rng.random() < spec.local_fraction:
            va = stack.vbase + cursor
            cursor = (cursor + 8) % stack.length
        elif spec.hot_fraction and rng.random() < spec.hot_fraction:
            offset = hot_start + (rng.randrange(0, hot_bytes) & ~0x7)
            va = vma.vbase + min(offset, vma.length - 8)
        else:
            pattern = rng.choices(pattern_fns, cum_weights=cum_weights)[0]
            va = vma.vbase + min(pattern(), vma.length - 8)
        out.append((process.asid, workload.cores[0], va,
                    rng.random() < spec.write_fraction, spec.gap))
    return out


class TestTraceDraws:
    @pytest.mark.parametrize("overrides", [
        {},
        {"hot_fraction": 0.0},
        {"hot_bytes": 256 * 1024, "touch_fraction": 0.6},
        {"patterns": (PatternMix("sequential", 0.5), PatternMix("random", 0.3),
                      PatternMix("zipf", 0.15, (("theta", 0.9),)),
                      PatternMix("chase", 0.05))},
        {"patterns": (PatternMix("strided", 1.0, (("stride", 4160),)),
                      PatternMix("random", 3.0))},
    ], ids=["one-pattern", "no-hot-window", "hot-window-pow2",
            "four-patterns", "two-patterns"])
    def test_trace_matches_stdlib_draws(self, overrides):
        workload = LaidOutWorkload(equivalence_spec(**overrides),
                                   Kernel(SystemConfig()), seed=11)
        stream = [(r.asid, r.core, r.va, r.is_write, r.gap)
                  for r in workload.trace(4000)]
        assert stream == reference_trace(workload, 4000, 11)


if __name__ == "__main__":
    for name in names():
        for seed in SEEDS:
            print(f'    "{name}/{seed}": "{stream_digest(name, seed)}",')

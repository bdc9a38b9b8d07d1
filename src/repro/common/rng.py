"""Deterministic random-number helpers.

Every stochastic component (workload generators, fragmentation injection,
worst-case index-cache traffic) takes an explicit seed so that experiments
are reproducible run-to-run.  We use ``random.Random`` instances rather
than the module-level functions so independent components never perturb
each other's streams.
"""

from __future__ import annotations

import random
import zlib
from bisect import bisect_left


def make_rng(seed: int, stream: str = "") -> random.Random:
    """Return an independent ``random.Random`` derived from (seed, stream).

    The ``stream`` label decorrelates multiple generators sharing one
    user-facing seed (e.g. a workload's layout RNG vs. its access RNG).
    The derivation must not use ``hash()``: string hashing is randomized
    per process (PYTHONHASHSEED), which would make the same (seed,
    stream) produce different traces across runs.
    """
    if stream:
        seed = (seed << 32) ^ zlib.crc32(stream.encode())
    return random.Random(seed)


def zipf_sampler(rng: random.Random, n: int, theta: float = 0.8):
    """Return a callable sampling Zipf-distributed ranks in ``[0, n)``.

    Uses the standard inverse-CDF construction over precomputed cumulative
    weights; ``theta`` is the skew (0 = uniform, ~1 = strongly skewed).
    Hot-ranked items model the hot-page behaviour of server workloads.
    """
    if n <= 0:
        raise ValueError("zipf_sampler needs n >= 1")
    weights = [1.0 / ((rank + 1) ** theta) for rank in range(n)]
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)

    draw = rng.random
    last = n - 1

    def sample() -> int:
        # The first rank whose cumulative weight reaches the draw, clamped
        # to n - 1.
        return bisect_left(cumulative, draw(), 0, last)

    return sample

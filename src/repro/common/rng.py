"""Deterministic random-number helpers.

Every stochastic component (workload generators, fragmentation injection,
worst-case index-cache traffic) takes an explicit seed so that experiments
are reproducible run-to-run.  We use ``random.Random`` instances rather
than the module-level functions so independent components never perturb
each other's streams.
"""

from __future__ import annotations

import functools
import itertools
import random
import zlib
from bisect import bisect_left
from typing import Tuple


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


#: Geometries the Zipf memo keeps, and the largest table it keeps: at
#: most 16 tables of 65,536 floats (about 2 MiB each).  The whole
#: catalog uses 25 geometries of at most 47,595 entries (mcf).
_ZIPF_MEMO_TABLES = 16
_ZIPF_MEMO_MAX_ENTRIES = 1 << 16


def zipf_table(n: int, theta: float) -> Tuple[float, ...]:
    """The cumulative weights of a Zipf(``theta``) distribution over
    ``n`` ranks, normalized so the last is (about) 1.

    The table depends only on ``(n, theta)``, so one is built per
    geometry and shared as an immutable tuple: a process that traces one
    geometry again (every job after the first in a pool worker, and each
    process of a multi-process workload) reuses it.
    """
    if n <= _ZIPF_MEMO_MAX_ENTRIES:
        return _memo_zipf_table(n, theta)
    return _build_zipf_table(n, theta)


def _build_zipf_table(n: int, theta: float) -> Tuple[float, ...]:
    weights = [1.0 / ((rank + 1) ** theta) for rank in range(n)]
    total = sum(weights)
    return tuple(itertools.accumulate(w / total for w in weights))


# typed, so the memo stays exact: theta=4 and theta=4.0 compare equal
# but take different pow paths (exact int, rounded float).
_memo_zipf_table = functools.lru_cache(maxsize=_ZIPF_MEMO_TABLES,
                                       typed=True)(_build_zipf_table)


def zipf_sampler(rng: random.Random, n: int, theta: float = 0.8):
    """Return a callable sampling Zipf-distributed ranks in ``[0, n)``.

    Uses the standard inverse-CDF construction over precomputed cumulative
    weights (:func:`zipf_table`); ``theta`` is the skew (0 = uniform, ~1 =
    strongly skewed).  Hot-ranked items model the hot-page behaviour of
    server workloads.
    """
    if n <= 0:
        raise ValueError("zipf_sampler needs n >= 1")
    cumulative = zipf_table(n, theta)
    draw = rng.random
    last = n - 1

    def sample() -> int:
        # The first rank whose cumulative weight reaches the draw, clamped
        # to n - 1.
        return bisect_left(cumulative, draw(), 0, last)

    return sample

"""Access-pattern primitives for synthetic workload generation.

Each primitive produces byte offsets into a region of a given length; a
workload mixes several primitives by weight (see ``spec.py``).  The
primitives cover the address-stream families the paper's workloads span:

* ``sequential``   — streaming with a fixed stride (stream, GemsFDTD);
* ``strided``      — large-stride sweeps that defeat spatial locality in
  the caches but keep page locality moderate (soplex, cactus);
* ``random``       — uniform random over the region (GUPS, canneal);
* ``zipf_pages``   — Zipf-distributed page popularity with uniform intra-
  page offsets (server workloads: memcached, xalancbmk, omnetpp);
* ``chase``        — dependent random jumps (mcf-style pointer chasing;
  the address statistics match ``random`` but the workload's MLP is 1).

All primitives confine themselves to the first ``touch_fraction`` of the
region, which is how eager-allocation under-utilization (Table III's
Usage column) is modeled.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.common.rng import zipf_sampler

OffsetGenerator = Callable[[], int]


def sequential_offsets(rng: random.Random, length: int, stride: int = 8,
                       touch_fraction: float = 1.0) -> OffsetGenerator:
    """Streaming sweep; wraps at the touched prefix.

    The default stride is one word (8 B) — eight consecutive accesses per
    cache line, as a real array sweep produces.
    """
    limit = max(stride, int(length * touch_fraction))
    cursor = rng.randrange(0, limit) // stride * stride

    def nxt() -> int:
        nonlocal cursor
        offset = cursor
        cursor = (offset + stride) % limit
        return offset

    return nxt


def strided_offsets(rng: random.Random, length: int, stride: int = 4096 + 64,
                    touch_fraction: float = 1.0) -> OffsetGenerator:
    """Large-stride sweep (column-walk style)."""
    return sequential_offsets(rng, length, stride, touch_fraction)


def random_offsets(rng: random.Random, length: int,
                   touch_fraction: float = 1.0) -> OffsetGenerator:
    """Uniform random word-aligned offsets."""
    limit = max(64, int(length * touch_fraction))
    getrandbits = rng.getrandbits
    bits = limit.bit_length()

    def nxt() -> int:
        r = getrandbits(bits)  # rng.randrange(0, limit), draw for draw
        while r >= limit:
            r = getrandbits(bits)
        return r & ~0x7

    return nxt


def zipf_page_offsets(rng: random.Random, length: int, theta: float = 0.8,
                      page_size: int = 4096, line_theta: float = 1.2,
                      lines_per_page: int = 0,
                      touch_fraction: float = 1.0) -> OffsetGenerator:
    """Zipf page popularity with Zipf-skewed lines inside each page.

    Pages are visited through a fixed random permutation so the *popular*
    pages are scattered across the region (otherwise rank 0..k would be
    physically clustered, which overstates segment/TLB locality).

    Within a page, visits concentrate on a few hot lines (object headers,
    frequently-read fields) — ``line_theta`` controls the skew.  This
    intra-page reuse is what lets the LLC cover a page's traffic even
    when the page itself has fallen out of TLB reach, the regime behind
    the paper's "cached data needs no translation" results.
    """
    pages = max(1, int(length * touch_fraction) // page_size)
    sample = zipf_sampler(rng, pages, theta)
    total_lines = max(1, page_size // 64)
    # lines_per_page > 0 restricts each page to that many resident lines
    # (an object header / hot fields); 0 means Zipf over the whole page.
    line_pool = min(lines_per_page, total_lines) if lines_per_page else total_lines
    sample_line = zipf_sampler(rng, line_pool, line_theta)
    getrandbits = rng.getrandbits
    permutation = list(range(pages))
    for i in range(pages - 1, 0, -1):
        # rng.shuffle(permutation), draw for draw: j = randrange(i + 1).
        bits = (i + 1).bit_length()
        j = getrandbits(bits)
        while j > i:
            j = getrandbits(bits)
        permutation[i], permutation[j] = permutation[j], permutation[i]
    word_bits = (64).bit_length()

    def nxt() -> int:
        page = permutation[sample()]
        # Rotate the hot-line ranking per page so hot lines differ
        # between pages (no artificial set-conflict alignment).
        line = (sample_line() + page) % total_lines
        r = getrandbits(word_bits)  # rng.randrange(0, 64), draw for draw
        while r >= 64:
            r = getrandbits(word_bits)
        return page * page_size + line * 64 + (r & ~0x7)

    return nxt


def chase_offsets(rng: random.Random, length: int,
                  touch_fraction: float = 1.0) -> OffsetGenerator:
    """Dependent random jumps (pointer chasing).

    Uses a multiplicative-congruential walk over the touched slots so the
    sequence is deterministic and aperiodic-ish without materializing a
    permutation for very large regions.
    """
    slots = max(1, int(length * touch_fraction) // 64)
    position = rng.randrange(0, slots)
    multiplier = 6364136223846793005
    increment = rng.randrange(1, 2 ** 31) | 1

    def nxt() -> int:
        nonlocal position
        position = (position * multiplier + increment) % slots
        return position * 64

    return nxt


PATTERN_BUILDERS = {
    "sequential": sequential_offsets,
    "strided": strided_offsets,
    "random": random_offsets,
    "zipf": zipf_page_offsets,
    "chase": chase_offsets,
}


def build_pattern(kind: str, rng: random.Random, length: int,
                  touch_fraction: float = 1.0, **params) -> OffsetGenerator:
    """Instantiate a pattern primitive by name."""
    try:
        builder = PATTERN_BUILDERS[kind]
    except KeyError:
        raise ValueError(f"unknown pattern kind {kind!r}") from None
    return builder(rng, length, touch_fraction=touch_fraction, **params)

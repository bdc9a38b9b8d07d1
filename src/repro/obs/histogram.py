"""Log2-bucketed histograms for latency / depth / occupancy distributions.

Bucket ``0`` holds the value ``0``; bucket ``i >= 1`` holds the half-open
power-of-two range ``[2^(i-1), 2^i)`` — i.e. a value lands in bucket
``value.bit_length()``.  Recording is one ``bit_length`` plus a list
increment, cheap enough to leave enabled on the per-access path.

Latency distributions are heavy-tailed (an L1 hit is 4 cycles, a full
2-D virtualized walk is hundreds), so geometric buckets give constant
relative resolution where linear buckets would either saturate or blur
the tail the paper's delayed-translation argument is about.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Enough buckets for any 64-bit cycle count.
NUM_BUCKETS = 66


class Histogram:
    """Fixed-geometry log2 histogram of non-negative integer samples."""

    __slots__ = ("name", "counts", "count", "total")

    def __init__(self, name: str) -> None:
        self.name = name
        self.counts: List[int] = [0] * NUM_BUCKETS
        self.count = 0
        self.total = 0

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def record(self, value: int) -> None:
        """Record one sample (negatives clamp to the zero bucket)."""
        self.counts[value.bit_length() if value > 0 else 0] += 1
        self.count += 1
        self.total += value if value > 0 else 0

    def record_repeated(self, value: int, times: int) -> None:
        """Record ``times`` samples of ``value`` at once."""
        self.counts[value.bit_length() if value > 0 else 0] += times
        self.count += times
        self.total += value * times if value > 0 else 0

    def merge(self, other: "Histogram") -> None:
        """Accumulate another histogram's samples into this one."""
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.total += other.total

    def copy(self) -> "Histogram":
        """An independent clone — how the metrics registry hands a
        consistent histogram to readers without holding its lock while
        they render."""
        clone = Histogram(self.name)
        clone.counts = list(self.counts)
        clone.count = self.count
        clone.total = self.total
        return clone

    @classmethod
    def from_snapshot(cls, name: str,
                      snapshot: Dict[str, object]) -> "Histogram":
        """Rebuild a histogram from a :meth:`snapshot` dict.

        Snapshots keep the full per-bucket counts and the exact
        ``count``/``total``, so this is lossless:
        ``from_snapshot(n, h.snapshot()).snapshot() == h.snapshot()``.
        That is what lets per-job histograms persisted in
        ``repro.result/v1`` documents be merged across a parallel plan.
        """
        h = cls(name)
        for bucket in snapshot.get("buckets", ()):      # type: ignore[union-attr]
            lo = bucket["lo"]
            h.counts[lo.bit_length()] = bucket["count"]
        h.count = int(snapshot.get("count", 0))         # type: ignore[arg-type]
        h.total = int(snapshot.get("total", 0))         # type: ignore[arg-type]
        return h

    # ------------------------------------------------------------------ #
    # Derived statistics
    # ------------------------------------------------------------------ #

    @staticmethod
    def bucket_bounds(index: int) -> Tuple[int, int]:
        """Inclusive ``(lo, hi)`` value bounds of bucket ``index``."""
        if index <= 0:
            return (0, 0)
        return (1 << (index - 1), (1 << index) - 1)

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> int:
        """Upper bound of the bucket containing the ``p``-th percentile."""
        if not self.count:
            return 0
        threshold = self.count * min(max(p, 0.0), 100.0) / 100.0
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= threshold and c:
                return self.bucket_bounds(i)[1]
        return self.bucket_bounds(NUM_BUCKETS - 1)[1]

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready summary: only non-empty buckets are listed."""
        buckets = []
        for i, c in enumerate(self.counts):
            if not c:
                continue
            lo, hi = self.bucket_bounds(i)
            buckets.append({"lo": lo, "hi": hi, "count": c})
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean(),
            "p50": self.percentile(50),
            "p99": self.percentile(99),
            "buckets": buckets,
        }

    def __repr__(self) -> str:
        return (f"Histogram({self.name!r}: n={self.count}, "
                f"mean={self.mean():.1f}, p99={self.percentile(99)})")

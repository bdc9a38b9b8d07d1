"""Configuration dataclasses for the simulated machine.

Defaults reproduce Table IV of the paper plus the structure parameters
given in the running text (Sections III-B, IV-C, VI-A):

* out-of-order x86 core at 3.4 GHz — folded into the analytic cycle model,
* 32 KB 4-way L1 (2/4 cycles), 256 KB 8-way L2 (6 cycles),
  2 MB 16-way shared LLC (27 cycles), 64 B blocks,
* baseline TLBs: 64-entry 4-way L1 (1 cycle), 1024-entry 8-way L2
  (7 cycles),
* synonym TLB: 64-entry 4-way single level,
* delayed TLB: 1024 entries 8-way by default (swept 1K–64K in Figure 4),
* synonym filter: two 1K-bit Bloom filters (16 MB and 32 KB granularity),
* many-segment translation: 2048-entry segment table (7 cycles), 32 KB
  8-way index cache (3 cycles), 128-entry 2 MB segment cache,
  20 cycles end-to-end on the segment-cache-miss path,
* DDR3-1600-like DRAM.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import typing
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping


def _at_least(config: Any, minimum: int, *names: str) -> None:
    """Reject any of ``config``'s fields ``names`` that is below
    ``minimum`` (or NaN), with a ``ValueError`` naming the field."""
    for name in names:
        value = getattr(config, name)
        if not value >= minimum:
            raise ValueError(f"{name} must be >= {minimum}, got {value!r}")


def _power_of_two_sets(sets: int, geometry: str) -> None:
    """Reject a set count that is not a power of two: the structures
    index a set by masking the key's low bits."""
    if sets & (sets - 1):
        raise ValueError(f"{geometry} gives {sets} sets; the set count "
                         f"must be a power of two")


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and access latency of one cache level."""

    size_bytes: int
    ways: int
    latency: int
    block_size: int = 64

    @property
    def sets(self) -> int:
        return self.size_bytes // (self.ways * self.block_size)

    def __post_init__(self) -> None:
        _at_least(self, 1, "size_bytes", "ways", "block_size")
        _at_least(self, 0, "latency")
        if self.size_bytes % (self.ways * self.block_size):
            raise ValueError(
                f"size_bytes {self.size_bytes} not divisible into "
                f"{self.ways}-way sets of {self.block_size} B blocks"
            )
        _power_of_two_sets(self.sets, f"size_bytes {self.size_bytes} in "
                           f"{self.ways}-way sets of {self.block_size} B "
                           f"blocks")


@dataclass(frozen=True)
class TlbConfig:
    """Geometry and access latency of one TLB level."""

    entries: int
    ways: int
    latency: int

    @property
    def sets(self) -> int:
        return self.entries // self.ways

    def __post_init__(self) -> None:
        _at_least(self, 1, "entries", "ways")
        _at_least(self, 0, "latency")
        if self.entries % self.ways:
            raise ValueError(f"{self.entries} entries not divisible by {self.ways} ways")
        _power_of_two_sets(self.sets, f"entries {self.entries} in "
                           f"{self.ways}-way sets")


@dataclass(frozen=True)
class SynonymFilterConfig:
    """The paper's dual-granularity Bloom synonym filter (Section III-B)."""

    bits: int = 1024
    fine_grain_shift: int = 15    # 32 KB regions
    coarse_grain_shift: int = 24  # 16 MB regions
    # The filter probe overlaps with the L1 access for non-synonyms, so it
    # exposes no latency on the common path (Section III-A).
    latency: int = 0

    def __post_init__(self) -> None:
        _at_least(self, 1, "bits")
        _at_least(self, 0, "fine_grain_shift", "coarse_grain_shift",
                  "latency")
        if self.bits & (self.bits - 1):
            raise ValueError(f"bits must be a power of two, got {self.bits}")


@dataclass(frozen=True)
class SegmentTranslationConfig:
    """Many-segment delayed translation (Section IV-C)."""

    segment_table_entries: int = 2048
    segment_table_latency: int = 7
    index_cache_size: int = 32 * 1024
    index_cache_ways: int = 8
    index_cache_latency: int = 3
    index_tree_fanout: int = 7       # 6 keys + 7 children per 64 B node
    segment_cache_entries: int = 128
    segment_cache_grain_shift: int = 21  # 2 MB regions
    segment_cache_latency: int = 2
    # Paper: four index-cache reads + segment table ~= 19, modeled as 20.
    full_walk_latency: int = 20

    def __post_init__(self) -> None:
        _at_least(self, 1, "segment_table_entries", "index_cache_size",
                  "index_cache_ways", "index_tree_fanout",
                  "segment_cache_entries")
        _at_least(self, 0, "segment_table_latency", "index_cache_latency",
                  "segment_cache_grain_shift", "segment_cache_latency",
                  "full_walk_latency")
        try:
            self.index_cache_geometry()
        except ValueError as exc:
            raise ValueError(f"index_cache_size {self.index_cache_size} "
                             f"makes no index cache: {exc}") from None

    def index_cache_geometry(self) -> CacheConfig:
        """The index cache as a cache level of 64 B node blocks:
        ``index_cache_size`` in ``index_cache_ways`` ways, halved until
        one set fits, so the tiny sweep points (Figure 7 goes down to
        128 B) still build."""
        size = self.index_cache_size
        ways = self.index_cache_ways
        while size // (ways * 64) < 1 and ways > 1:
            ways //= 2
        return CacheConfig(size, ways, self.index_cache_latency)


@dataclass(frozen=True)
class DramConfig:
    """DDR3-1600-like timing, expressed in 3.4 GHz core cycles."""

    channels: int = 1
    banks: int = 8
    row_bytes: int = 8192
    row_hit_cycles: int = 75      # ~22 ns
    row_miss_cycles: int = 175    # ~52 ns (precharge + activate + CAS)
    queue_penalty_cycles: int = 10

    def __post_init__(self) -> None:
        _at_least(self, 1, "channels", "banks", "row_bytes")
        _at_least(self, 0, "row_hit_cycles", "row_miss_cycles",
                  "queue_penalty_cycles")


@dataclass(frozen=True)
class CoreConfig:
    """Analytic core model: issue-limited base CPI plus memory stalls."""

    frequency_ghz: float = 3.4
    base_cpi: float = 0.4          # 5-issue/4-commit OoO core, compute-bound floor
    # Fraction of a cache-miss penalty exposed after overlap; per-workload
    # memory-level parallelism divides the raw penalty.
    default_mlp: float = 1.0

    def __post_init__(self) -> None:
        _at_least(self, 0, "base_cpi")


@dataclass(frozen=True)
class WalkerConfig:
    """Page-walk cost model for native and nested (2-D) walks."""

    levels: int = 4
    # Latency per page-table level access when it misses the page-walk
    # cache and must reach memory through the hierarchy is computed by the
    # simulator; this is the fixed per-level overhead (walker state machine).
    per_level_overhead: int = 2
    walk_cache_entries: int = 32   # caches upper-level PTEs (skips 2 levels)
    nested_levels: int = 4         # host page-table levels for 2-D walks

    def __post_init__(self) -> None:
        _at_least(self, 1, "levels", "walk_cache_entries", "nested_levels")
        _at_least(self, 0, "per_level_overhead")


@dataclass(frozen=True)
class SystemConfig:
    """Full simulated-system configuration (Table IV defaults)."""

    cores: int = 1
    l1: CacheConfig = field(default_factory=lambda: CacheConfig(32 * 1024, 4, 4))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(256 * 1024, 8, 6))
    llc: CacheConfig = field(default_factory=lambda: CacheConfig(2 * 1024 * 1024, 16, 27))
    l1_tlb: TlbConfig = field(default_factory=lambda: TlbConfig(64, 4, 1))
    l2_tlb: TlbConfig = field(default_factory=lambda: TlbConfig(1024, 8, 7))
    synonym_tlb: TlbConfig = field(default_factory=lambda: TlbConfig(64, 4, 1))
    delayed_tlb: TlbConfig = field(default_factory=lambda: TlbConfig(1024, 8, 7))
    synonym_filter: SynonymFilterConfig = field(default_factory=SynonymFilterConfig)
    segments: SegmentTranslationConfig = field(default_factory=SegmentTranslationConfig)
    dram: DramConfig = field(default_factory=DramConfig)
    core: CoreConfig = field(default_factory=CoreConfig)
    walker: WalkerConfig = field(default_factory=WalkerConfig)
    physical_memory_bytes: int = 4 * 1024 ** 3

    def __post_init__(self) -> None:
        _at_least(self, 1, "cores", "physical_memory_bytes")

    # A frozen config never changes, so its fingerprint is computed on
    # first use and kept on the instance, as a ``Job`` keeps its
    # identity (``cached_property`` writes the instance dict directly;
    # fields, equality and hashing never see it, and a pickle carries it
    # to a pool worker).  Never shared between equal configs:
    # ``CoreConfig(base_cpi=1)`` equals ``CoreConfig(base_cpi=1.0)`` but
    # encodes, and so hashes, differently.

    @functools.cached_property
    def _fingerprint(self) -> str:
        return digest(dataclasses.asdict(self))

    def with_llc_size(self, size_bytes: int) -> "SystemConfig":
        """Return a copy with a different shared-LLC capacity."""
        return replace(self, llc=replace(self.llc, size_bytes=size_bytes))

    def with_delayed_tlb_entries(self, entries: int) -> "SystemConfig":
        """Return a copy with a different delayed-TLB capacity (Figure 4 sweep)."""
        return replace(self, delayed_tlb=replace(self.delayed_tlb, entries=entries))

    def to_dict(self) -> Dict[str, Any]:
        """Nested plain-dict view (the JSON wire format of a config)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "SystemConfig":
        """Inverse of :meth:`to_dict` — see :func:`config_from_dict`."""
        return config_from_dict(doc)


def config_fingerprint(config: Any) -> str:
    """:func:`digest` of a (nested, frozen) config dataclass, or of a
    plain JSON-representable value.  A :class:`SystemConfig` is hashed
    once per object."""
    if isinstance(config, SystemConfig):
        return config._fingerprint
    if dataclasses.is_dataclass(config):
        return digest(dataclasses.asdict(config))
    return digest(config)


def digest(payload: Any) -> str:
    """The package's one stable short hash: the first 16 hex digits of
    the SHA-256 of ``payload``'s sorted-key JSON.  Config hashes, job
    fingerprints (cache keys) and the metrics store's run keys are all
    this digest, so equal inputs get equal keys everywhere."""
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _dataclass_from_dict(cls: type, doc: Any, path: str = "") -> Any:
    """Rebuild one (possibly nested) config dataclass from plain dicts.

    Field types are resolved through ``typing.get_type_hints`` because
    this module uses postponed annotations; unknown keys are ignored and
    missing keys fall back to the field default, so older documents load
    against newer configs (same forward-compatibility contract as
    ``RunManifest.from_dict``).  Values are checked, never coerced: a
    non-object where a nested config belongs, a bool, float or string in
    an integer field, and a non-number in a float field are each a
    ``ValueError`` naming the field, prefixed with the ``path`` of the
    nested config it sits in, as is whatever the config's own
    ``__post_init__`` rejects.
    """
    if not isinstance(doc, Mapping):
        raise ValueError(f"{path or 'config'} must be an object, "
                         f"got {doc!r}")
    prefix = f"{path}: " if path else ""
    hints = typing.get_type_hints(cls)
    kwargs: Dict[str, Any] = {}
    for f in dataclasses.fields(cls):
        if f.name not in doc:
            continue
        value = doc[f.name]
        field_type = hints[f.name]
        if dataclasses.is_dataclass(field_type):
            value = _dataclass_from_dict(
                field_type, value, f"{path}.{f.name}" if path else f.name)
        elif field_type is int and type(value) is not int:
            raise ValueError(
                f"{prefix}{f.name} must be an integer, got {value!r}")
        elif field_type is float and type(value) not in (int, float):
            raise ValueError(
                f"{prefix}{f.name} must be a number, got {value!r}")
        kwargs[f.name] = value
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{prefix}{exc}") from exc


def config_from_dict(doc: Mapping[str, Any]) -> SystemConfig:
    """Rebuild a :class:`SystemConfig` from ``dataclasses.asdict`` output.

    Exact inverse for JSON-representable fields (everything here is
    ints/floats), so ``config_fingerprint(config_from_dict(c.to_dict()))
    == config_fingerprint(c)`` — which is what keeps job fingerprints
    stable across the ``repro.job/v1`` wire format.  A malformed document
    raises ``ValueError`` naming the field (see
    :func:`_dataclass_from_dict`).
    """
    return _dataclass_from_dict(SystemConfig, doc)

"""Virtually/physically addressed cache hierarchy with extended tags."""

from repro.cache.coherence import (
    CoherenceEngine,
    CoherenceViolation,
    DirectoryEntry,
)
from repro.cache.hierarchy import CacheAccessResult, CacheHierarchy
from repro.cache.line import (
    CacheLine,
    PERM_READ,
    PERM_RW,
    PERM_WRITE,
    STATE_EXCLUSIVE,
    STATE_INVALID,
    STATE_MODIFIED,
    STATE_SHARED,
)
from repro.cache.setassoc import SetAssociativeCache

__all__ = [
    "CoherenceEngine",
    "CoherenceViolation",
    "DirectoryEntry",
    "CacheAccessResult",
    "CacheHierarchy",
    "CacheLine",
    "PERM_READ",
    "PERM_RW",
    "PERM_WRITE",
    "STATE_EXCLUSIVE",
    "STATE_INVALID",
    "STATE_MODIFIED",
    "STATE_SHARED",
    "SetAssociativeCache",
]

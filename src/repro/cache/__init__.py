"""Virtually/physically addressed cache hierarchy with extended tags.

The directory-MESI checker (:mod:`repro.cache.coherence`) is imported by
module path; the simulator does not use it.
"""

from repro.cache.hierarchy import CacheHierarchy
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

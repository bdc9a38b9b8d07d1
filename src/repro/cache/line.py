"""Cache line metadata with the paper's extended tags (Section III-A, Fig. 2).

Each tag entry carries, beyond the block name:

* a **synonym bit** — distinguishes physically addressed (synonym) lines
  from ASID+VA (non-synonym) lines.  In this model the bit is implied by
  the block key's namespace flag;
* **permission bits** (2) — checked on every access to a non-synonym line,
  since no TLB stands between the core and the data.  A write to a r/o
  line is a permission fault that the OS handles (e.g. copy-on-write for
  content-shared pages, Section III-D);
* a **coherence state** (MESI) — the paper's single-name-per-block rule
  makes ordinary coherence sufficient; no reverse maps are needed.

A resident line is stored as one small int beside its key: the dirty bit
(bit 0), the permissions (bits 1-2) and the MESI state (bits 3-4).  A
resident line is never Invalid, so its value lies in 8-31 and CPython
hands out a cached int for it: filling, hitting and evicting lines
allocates nothing.  :class:`CacheLine` unpacks one value into a read-only
snapshot for tests and inspection.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.address import is_physical_key

STATE_INVALID = 0
STATE_SHARED = 1
STATE_EXCLUSIVE = 2
STATE_MODIFIED = 3

PERM_READ = 0x1
PERM_WRITE = 0x2
PERM_RW = PERM_READ | PERM_WRITE

#: Field layout of a packed line.
DIRTY = 0x1
PERM_SHIFT = 1
PERM_MASK = PERM_RW << PERM_SHIFT
STATE_SHIFT = 3
#: The state field of a packed line in each resident state.
SHARED = STATE_SHARED << STATE_SHIFT
EXCLUSIVE = STATE_EXCLUSIVE << STATE_SHIFT
MODIFIED = STATE_MODIFIED << STATE_SHIFT


def pack_line(dirty: bool, permissions: int, state: int) -> int:
    """One line's metadata as the int a cache set stores."""
    return state << STATE_SHIFT | permissions << PERM_SHIFT | dirty


@dataclass(frozen=True, slots=True)
class CacheLine:
    """Snapshot of one resident block: name, dirtiness, permissions, state."""

    key: int
    dirty: bool = False
    permissions: int = PERM_RW
    state: int = STATE_EXCLUSIVE

    @classmethod
    def unpack(cls, key: int, meta: int) -> "CacheLine":
        """The snapshot of the line stored as ``meta`` under ``key``."""
        return cls(key, bool(meta & DIRTY), (meta & PERM_MASK) >> PERM_SHIFT,
                   meta >> STATE_SHIFT)

    @property
    def is_synonym(self) -> bool:
        """The synonym tag bit: True for physically addressed lines."""
        return is_physical_key(self.key)

"""Directory-based MESI coherence protocol engine.

The paper's synonym argument is a *coherence* argument: because every
physical block has exactly one name in the hierarchy (ASID+VA or PA),
the ordinary hardware coherence protocol keeps synonym data coherent
with no reverse maps, extra tags, or self-invalidation (Section III-A).
This module implements that ordinary protocol precisely — a home
directory per block plus per-core MESI caches exchanging an explicit
message vocabulary — so the claim can be tested against the protocol
itself rather than the simplified copy-set bookkeeping the performance
model uses.

Protocol summary (directory MESI, invalidation-based):

* ``GetS``  — read request.  Directory forwards from the owner (if M)
  or supplies data; requester ends Shared (or Exclusive if sole).
* ``GetM``  — write request.  Directory invalidates sharers / recalls
  the owner; requester ends Modified.
* ``PutM``  — owner write-back on eviction; directory becomes clean.
* ``Inv`` / ``Fwd-GetS`` / ``Fwd-GetM`` — directory-to-cache traffic.

The engine is functional (message counting, state machines) and
deliberately decoupled from the timing model: the hierarchy in
``repro.cache.hierarchy`` approximates its effects cheaply during
performance runs, while tests drive this engine directly to verify the
invariants (SWMR, data-value coherence via version numbers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.common.stats import StatGroup

STATE_I = "I"
STATE_S = "S"
STATE_E = "E"
STATE_M = "M"

MSG_GETS = "GetS"
MSG_GETM = "GetM"
MSG_PUTM = "PutM"
MSG_PUTS = "PutS"
MSG_INV = "Inv"
MSG_FWD_GETS = "Fwd-GetS"
MSG_FWD_GETM = "Fwd-GetM"
MSG_DATA = "Data"
MSG_INV_ACK = "Inv-Ack"


class CoherenceViolation(Exception):
    """An invariant (e.g. single-writer/multiple-reader) was broken."""


@dataclass
class DirectoryEntry:
    """Home-node state for one block."""

    owner: Optional[int] = None        # core holding M/E, if any
    sharers: Set[int] = field(default_factory=set)
    version: int = 0                   # abstract data version (for tests)

    @property
    def state(self) -> str:
        if self.owner is not None:
            return STATE_M
        if self.sharers:
            return STATE_S
        return STATE_I


@dataclass
class CoherentLine:
    """One block in a core's cache."""

    state: str = STATE_I
    version: int = 0


class CoherenceEngine:
    """A directory plus N core-side caches, driven by load/store/evict."""

    def __init__(self, cores: int) -> None:
        if cores < 1:
            raise ValueError("at least one core required")
        self.cores = cores
        self.stats = StatGroup("coherence")
        self._directory: Dict[int, DirectoryEntry] = {}
        self._caches: List[Dict[int, CoherentLine]] = [dict() for _ in range(cores)]

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _entry(self, block: int) -> DirectoryEntry:
        if block not in self._directory:
            self._directory[block] = DirectoryEntry()
        return self._directory[block]

    def _line(self, core: int, block: int) -> CoherentLine:
        cache = self._caches[core]
        if block not in cache:
            cache[block] = CoherentLine()
        return cache[block]

    def _send(self, msg_type: str, core: int, block: int) -> None:
        self.stats.add(f"msg_{msg_type}")
        self.stats.add("messages")

    # ------------------------------------------------------------------ #
    # Core-visible operations
    # ------------------------------------------------------------------ #

    def load(self, core: int, block: int) -> int:
        """Read a block; returns the data version observed."""
        self.stats.add("loads")
        line = self._line(core, block)
        if line.state in (STATE_M, STATE_E, STATE_S):
            self.stats.add("load_hits")
            return line.version
        entry = self._entry(block)
        self._send(MSG_GETS, core, block)
        if entry.owner is not None:
            # Forward from the M/E owner, who downgrades to Shared.
            owner_line = self._line(entry.owner, block)
            self._send(MSG_FWD_GETS, entry.owner, block)
            entry.version = owner_line.version
            owner_line.state = STATE_S
            entry.sharers.add(entry.owner)
            entry.owner = None
        self._send(MSG_DATA, core, block)
        if entry.sharers:
            line.state = STATE_S
            entry.sharers.add(core)
        else:
            # Sole copy: Exclusive, tracked as the directory's owner.
            line.state = STATE_E
            entry.owner = core
        line.version = entry.version
        return line.version

    def store(self, core: int, block: int) -> int:
        """Write a block; returns the new data version."""
        self.stats.add("stores")
        line = self._line(core, block)
        entry = self._entry(block)
        if line.state == STATE_M:
            self.stats.add("store_hits")
            line.version += 1
            return line.version
        if line.state == STATE_E:
            # Silent E->M upgrade; the directory already records us as
            # the owner, so no traffic is needed.
            assert entry.owner == core
            self.stats.add("silent_upgrades")
            line.state = STATE_M
            line.version += 1
            return line.version
        self._send(MSG_GETM, core, block)
        if entry.owner is not None and entry.owner != core:
            owner_line = self._line(entry.owner, block)
            self._send(MSG_FWD_GETM, entry.owner, block)
            entry.version = owner_line.version
            owner_line.state = STATE_I
            entry.owner = None
        for sharer in list(entry.sharers):
            if sharer != core:
                self._send(MSG_INV, sharer, block)
                self._line(sharer, block).state = STATE_I
                self._send(MSG_INV_ACK, core, block)
        base_version = max(entry.version, line.version)
        entry.sharers.clear()
        entry.owner = core
        line.state = STATE_M
        line.version = base_version + 1
        self._send(MSG_DATA, core, block)
        return line.version

    def evict(self, core: int, block: int) -> None:
        """Drop a block from a core's cache (capacity/conflict victim)."""
        cache = self._caches[core]
        line = cache.get(block)
        if line is None or line.state == STATE_I:
            return
        entry = self._entry(block)
        if line.state == STATE_M:
            self._send(MSG_PUTM, core, block)
            entry.version = line.version
            entry.owner = None
            self.stats.add("writebacks")
        elif line.state == STATE_E:
            # Clean exclusive copy: tell the home it is gone.
            self._send(MSG_PUTS, core, block)
            entry.version = max(entry.version, line.version)
            if entry.owner == core:
                entry.owner = None
        else:
            self._send(MSG_PUTS, core, block)
            entry.sharers.discard(core)
        del cache[block]

    # ------------------------------------------------------------------ #
    # Invariants & inspection
    # ------------------------------------------------------------------ #

    def state_of(self, core: int, block: int) -> str:
        line = self._caches[core].get(block)
        return line.state if line else STATE_I

    def directory_state(self, block: int) -> str:
        return self._entry(block).state

    def check_invariants(self) -> None:
        """Raise :class:`CoherenceViolation` on any broken invariant.

        * SWMR: at most one M/E copy; no S copies coexist with an M copy.
        * Directory accuracy: owner/sharer lists match cache states.
        * Version coherence: every S copy holds the latest version.
        """
        blocks = set(self._directory)
        for cache in self._caches:
            blocks.update(cache)
        for block in blocks:
            entry = self._entry(block)
            owners = [c for c in range(self.cores)
                      if self.state_of(c, block) in (STATE_M, STATE_E)]
            sharers = [c for c in range(self.cores)
                       if self.state_of(c, block) == STATE_S]
            if len(owners) > 1:
                raise CoherenceViolation(
                    f"block {block:#x}: multiple owners {owners}")
            if owners and sharers:
                raise CoherenceViolation(
                    f"block {block:#x}: owner {owners} with sharers {sharers}")
            if owners and self.state_of(owners[0], block) == STATE_M:
                if entry.owner != owners[0]:
                    raise CoherenceViolation(
                        f"block {block:#x}: directory owner {entry.owner} "
                        f"but cache owner {owners[0]}")
            for sharer in sharers:
                if sharer not in entry.sharers:
                    raise CoherenceViolation(
                        f"block {block:#x}: sharer {sharer} unknown to "
                        f"the directory")
                line = self._caches[sharer][block]
                latest = self._latest_version(block)
                if line.version != latest:
                    raise CoherenceViolation(
                        f"block {block:#x}: sharer {sharer} holds stale "
                        f"version {line.version} != {latest}")

    def _latest_version(self, block: int) -> int:
        entry = self._entry(block)
        latest = entry.version
        for cache in self._caches:
            line = cache.get(block)
            if line and line.state != STATE_I:
                latest = max(latest, line.version)
        return latest

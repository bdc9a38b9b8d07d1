"""Low-overhead pipeline tracer with sampling and a JSONL sink.

Instrumentation sites test ``tracer.recording`` (a plain attribute) before
building any event, so the disabled path — :data:`NULL_TRACER`, whose
``active``/``recording`` are always ``False`` — costs one attribute fetch
and one branch per site.  A :class:`Tracer` samples whole accesses: every
``sample_every``-th access records all of its stage events; the rest
record nothing.

Events land in a bounded ring buffer (oldest dropped first) and, when a
sink is configured, are also streamed as JSON Lines — one event object
per line — so a run can be post-processed without holding the trace in
memory.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Deque, List, Optional, Union

from repro.obs.events import STAGE_ACCESS, STAGE_MARK, TraceEvent


class NullTracer:
    """The disabled tracer: every probe site sees ``recording == False``."""

    active = False
    recording = False

    def begin_access(self, core: int, asid: int, va: int,
                     is_write: bool) -> bool:
        return False

    def stage(self, stage: str, cycles: int = 0, **detail: Any) -> None:
        return None

    def end_access(self, outcome: Any, timed: bool = True) -> None:
        return None

    def mark(self, label: str, **detail: Any) -> None:
        return None

    def close(self) -> None:
        return None


#: Shared do-nothing tracer installed on every structure by default.
NULL_TRACER = NullTracer()


class Tracer:
    """Collects typed pipeline events for sampled accesses."""

    active = True

    def __init__(self, sample_every: int = 1, buffer_size: int = 65536,
                 sink: Union[str, Path, IO[str], None] = None) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sample_every = sample_every
        self.events: Deque[TraceEvent] = deque(maxlen=buffer_size)
        self.recording = False
        self.closed = False
        self._seq = -1
        self._sampled = 0
        self._emitted = 0
        self._sink: Optional[IO[str]] = None
        self._owns_sink = False
        if sink is not None:
            if isinstance(sink, (str, Path)):
                self._sink = open(sink, "w", encoding="utf-8")
                self._owns_sink = True
            else:
                self._sink = sink

    # ------------------------------------------------------------------ #
    # Emission protocol
    # ------------------------------------------------------------------ #

    def begin_access(self, core: int, asid: int, va: int,
                     is_write: bool) -> bool:
        """Open the next access; returns True when it is sampled."""
        self._seq += 1
        self.recording = self._seq % self.sample_every == 0
        if self.recording:
            self._sampled += 1
            self._pending = {"core": core, "asid": asid, "va": va,
                             "is_write": is_write}
        return self.recording

    def stage(self, stage: str, cycles: int = 0, **detail: Any) -> None:
        """Record one pipeline-stage event of the current sampled access."""
        if not self.recording:
            return
        self._emit(TraceEvent(self._seq, stage, cycles, detail))

    def end_access(self, outcome: Any, timed: bool = True) -> None:
        """Close the current access with its phase-decomposed summary.

        ``outcome`` is the ``mmu.access`` tuple ``(front_cycles,
        cache_cycles, delayed_cycles, dram_cycles, hit_level,
        translated_pa)``.
        """
        if not self.recording:
            return
        front, cache, delayed, dram, hit_level, _pa = outcome
        detail = dict(self._pending)
        detail.update(
            hit_level=hit_level,
            front_cycles=front,
            cache_cycles=cache,
            delayed_cycles=delayed,
            dram_cycles=dram,
            timed=timed,
        )
        total = front + cache + delayed + dram
        self._emit(TraceEvent(self._seq, STAGE_ACCESS, total, detail))
        self.recording = False

    def mark(self, label: str, **detail: Any) -> None:
        """Out-of-band annotation (e.g. a run boundary in a shared sink)."""
        d = {"label": label}
        d.update(detail)
        self._emit(TraceEvent(-1, STAGE_MARK, 0, d))

    def _emit(self, event: TraceEvent) -> None:
        self._emitted += 1
        self.events.append(event)
        if self._sink is not None:
            self._sink.write(json.dumps(event.to_dict()) + "\n")

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #

    @property
    def accesses_seen(self) -> int:
        return self._seq + 1

    @property
    def accesses_sampled(self) -> int:
        return self._sampled

    @property
    def events_emitted(self) -> int:
        """Total emitted events, including ones the ring buffer dropped."""
        return self._emitted

    def close(self) -> None:
        """Flush and (when owned) close the sink.  Idempotent: the
        ``with``-statement ``__exit__`` and an explicit call may both
        run without a double-close reaching the underlying file."""
        if self.closed:
            return
        self.closed = True
        if self._sink is not None:
            self._sink.flush()
            if self._owns_sink:
                self._sink.close()
            self._sink = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


@dataclass(frozen=True)
class TraceSpec:
    """Picklable recipe for *sharded* trace capture.

    A live :class:`Tracer` holds an open file handle and cannot cross a
    process boundary, so parallel execution ships this value object
    instead: each worker calls :meth:`open` with its job's fingerprint
    and records into its own shard — ``<base>.<fingerprint>.jsonl`` —
    with no cross-process coordination.  Every shard starts with a
    ``run_start`` mark (the executor emits it), so a shard is a complete,
    self-describing single-run trace and any set of shards can be fed
    together to :mod:`repro.obs.traceview`.
    """

    base: Union[str, Path]
    sample_every: int = 1
    buffer_size: int = 65536

    def shard_path(self, key: str) -> Path:
        """Where the shard for ``key`` (a job fingerprint) lands."""
        return Path(f"{self.base}.{key}.jsonl")

    def open(self, key: str) -> Tracer:
        """Open a fresh tracer writing the shard for ``key``."""
        return Tracer(sample_every=self.sample_every,
                      buffer_size=self.buffer_size,
                      sink=self.shard_path(key))

    def shards(self) -> List[Path]:
        """Existing shard files for this spec's base path, sorted."""
        base = Path(self.base)
        return sorted(base.parent.glob(f"{base.name}.*.jsonl"))

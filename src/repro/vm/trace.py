"""Ground-truth execution tracing.

The tracer records what *actually* happened during a VM run — every
instruction, its memory reads/writes, and synchronization operations.
RES never sees this (requirement 1 of the paper: no runtime recording);
tests and benchmarks use it as the oracle that synthesized suffixes are
compared against, and the root-cause detectors reuse the same event
shapes when analyzing *replayed* suffixes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.vm.state import PC


@dataclass(frozen=True)
class MemAccess:
    addr: int
    value: int


@dataclass
class TraceEvent:
    """One executed instruction and its observable effects."""

    step: int
    tid: int
    pc: PC
    line: int = 0
    reads: Tuple[MemAccess, ...] = ()
    writes: Tuple[MemAccess, ...] = ()
    lock_acquired: Optional[int] = None
    lock_released: Optional[int] = None
    locks_held: Tuple[int, ...] = ()
    input_value: Optional[int] = None
    output_value: Optional[int] = None

    def touches(self, addr: int) -> bool:
        return any(a.addr == addr for a in self.reads + self.writes)


class ExecutionTrace:
    """Append-only log of trace events for one run.

    The VM records each step as one plain tuple in :attr:`rows`, and
    :class:`TraceEvent` objects are built only when something reads
    :attr:`events` (root-cause analysis, the debugger, tests).  Replay
    runs traced, once per emitted suffix (and in the debugger and the
    fuzz oracle; the search's compatibility checks are solver calls),
    and most verified suffixes' traces are never read, so recording a
    step costs one tuple append.
    """

    def __init__(self):
        #: ``(step, tid, pc, line, reads, writes, lock_acquired,
        #: lock_released, locks_held, input_value, output_value)`` per
        #: step, with reads and writes as ``(addr, value)`` pairs
        self.rows: List[tuple] = []
        self._events: List[TraceEvent] = []

    @property
    def events(self) -> List[TraceEvent]:
        events = self._events
        rows = self.rows
        if len(events) < len(rows):
            for row in rows[len(events):]:
                (step, tid, pc, line, reads, writes, lock_acq,
                 lock_rel, locks_held, input_v, output_v) = row
                events.append(TraceEvent(
                    step=step, tid=tid, pc=pc, line=line,
                    reads=tuple(MemAccess(a, v) for a, v in reads),
                    writes=tuple(MemAccess(a, v) for a, v in writes),
                    lock_acquired=lock_acq, lock_released=lock_rel,
                    locks_held=locks_held, input_value=input_v,
                    output_value=output_v))
        return events

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.events)

    def last_writer_of(self, addr: int) -> Optional[TraceEvent]:
        for event in reversed(self.events):
            if any(w.addr == addr for w in event.writes):
                return event
        return None

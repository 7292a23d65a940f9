"""Ground-truth execution tracing.

The tracer records what *actually* happened during a VM run — every
instruction, its memory reads/writes, and synchronization operations.
RES never sees this (requirement 1 of the paper: no runtime recording);
tests and benchmarks use it as the oracle that synthesized suffixes are
compared against, and the root-cause detectors reuse the same event
shapes when analyzing *replayed* suffixes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass
class ExecutionTrace:
    """Append-only log of trace events for one run."""

    events: List[TraceEvent] = field(default_factory=list)

    def append(self, event: TraceEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def last_writer_of(self, addr: int) -> Optional[TraceEvent]:
        for event in reversed(self.events):
            if any(w.addr == addr for w in event.writes):
                return event
        return None

    def suffix(self, length: int) -> List[TraceEvent]:
        return self.events[-length:] if length > 0 else []

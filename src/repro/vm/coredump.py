"""Coredumps: the snapshot of a failed execution that RES consumes.

A coredump is "a free by-product of a failed execution" (paper §2.1):
full memory image, per-thread register files and call stacks, the lock
table, the trap that killed the program, and the cheap post-crash
breadcrumbs (LBR contents, tail of the output/error log).

It deliberately does NOT contain the inputs the program consumed or the
schedule it ran — reconstructing those is RES's whole job.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

from repro.ir.instructions import Reg, WORD_MASK
from repro.vm.state import Frame, PC, Thread, ThreadStatus


class TrapKind(Enum):
    ASSERT_FAIL = "assert-fail"
    OUT_OF_BOUNDS = "out-of-bounds"
    USE_AFTER_FREE = "use-after-free"
    DIV_BY_ZERO = "div-by-zero"
    DEADLOCK = "deadlock"
    ABORT = "abort"
    DOUBLE_FREE = "double-free"
    INVALID_FREE = "invalid-free"
    UNLOCK_NOT_HELD = "unlock-not-held"
    INVALID_JOIN = "invalid-join"


@dataclass(frozen=True)
class Trap:
    """What killed the program, and where."""

    kind: TrapKind
    tid: int
    pc: PC
    message: str = ""
    fault_addr: Optional[int] = None

    def __repr__(self) -> str:
        extra = f" addr={self.fault_addr:#x}" if self.fault_addr is not None else ""
        return f"<trap {self.kind.value} tid={self.tid} at {self.pc}{extra} {self.message!r}>"


@dataclass
class ThreadDump:
    """Frozen state of one thread at crash time."""

    tid: int
    frames: List[Frame]
    status: ThreadStatus
    blocked_on: Optional[int]
    held_locks: List[int]
    start_function: str = ""
    return_value: int = 0

    @property
    def pc(self) -> Optional[PC]:
        return self.frames[-1].pc if self.frames else None

    def call_stack(self) -> List[PC]:
        return [frame.pc for frame in self.frames]

    @classmethod
    def from_thread(cls, thread: Thread) -> "ThreadDump":
        return cls(
            tid=thread.tid,
            frames=[frame.copy() for frame in thread.frames],
            status=thread.status,
            blocked_on=thread.blocked_on,
            held_locks=list(thread.held_locks),
            start_function=thread.start_function,
            return_value=thread.return_value,
        )


@dataclass
class Coredump:
    """Everything a production system collects after a crash."""

    module_name: str
    trap: Trap
    memory: Dict[int, int]
    threads: Dict[int, ThreadDump]
    lock_owners: Dict[int, int] = field(default_factory=dict)
    lbr: List[Tuple[PC, PC]] = field(default_factory=list)
    log_tail: List[Tuple[int, int, PC]] = field(default_factory=list)
    #: heap allocator state (base → (size, freed)), part of process state
    heap: Dict[int, Tuple[int, bool]] = field(default_factory=dict)
    stack_tops: Dict[int, int] = field(default_factory=dict)
    #: whether the producing VM enforced memory-region checks (needed so
    #: a replay runs under identical semantics)
    bounds_checked: bool = True

    @property
    def failing_thread(self) -> ThreadDump:
        return self.threads[self.trap.tid]

    def read(self, addr: int) -> int:
        return self.memory.get(addr, 0)

    def call_stack_signature(self, depth: int = 8) -> Tuple[str, ...]:
        """WER-style bucketing key: top frames of the failing stack."""
        stack = self.failing_thread.call_stack()
        top_first = list(reversed(stack))[:depth]
        return tuple(f"{pc.function}:{pc.block}" for pc in top_first)

    def fingerprint(self) -> str:
        """Stable content hash of the whole dump (module, trap, memory,
        threads, breadcrumbs).  Two reports with equal fingerprints are
        byte-identical crashes, so a triage verdict for one is valid for
        the other — the dedup key of the batch triage service.  The hash
        is computed over the key-sorted JSON form, so it is invariant
        under dict insertion order and survives a to_json/from_json
        round trip."""
        canonical = json.dumps(json.loads(self.to_json()),
                               sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        def pc_to_list(pc: PC) -> List:
            return [pc.function, pc.block, pc.index]

        payload = {
            "module": self.module_name,
            "trap": {
                "kind": self.trap.kind.value,
                "tid": self.trap.tid,
                "pc": pc_to_list(self.trap.pc),
                "message": self.trap.message,
                "fault_addr": self.trap.fault_addr,
            },
            "bounds_checked": self.bounds_checked,
            "memory": {str(addr): value for addr, value in self.memory.items()},
            "lock_owners": {str(a): t for a, t in self.lock_owners.items()},
            "heap": {str(b): [s, f] for b, (s, f) in self.heap.items()},
            "stack_tops": {str(t): v for t, v in self.stack_tops.items()},
            "lbr": [[pc_to_list(src), pc_to_list(dst)] for src, dst in self.lbr],
            "log_tail": [[tid, val, pc_to_list(pc)] for tid, val, pc in self.log_tail],
            "threads": {
                str(tid): {
                    "status": dump.status.value,
                    "blocked_on": dump.blocked_on,
                    "held_locks": dump.held_locks,
                    "start_function": dump.start_function,
                    "return_value": dump.return_value,
                    "frames": [
                        {
                            "function": fr.function,
                            "block": fr.block,
                            "index": fr.index,
                            "regs": {reg.name: val for reg, val in fr.regs.items()},
                            "frame_base": fr.frame_base,
                            "frame_words": fr.frame_words,
                            "ret_dst": fr.ret_dst.name if fr.ret_dst else None,
                        }
                        for fr in dump.frames
                    ],
                }
                for tid, dump in self.threads.items()
            },
        }
        return json.dumps(payload, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "Coredump":
        """Load a serialized dump.  Memory words and register values
        are canonicalized into [0, 2^64) as they are read, so a dump
        that spells a word -2 and one that spells it 2^64 - 2 load as
        the same dump, with one fingerprint."""
        payload = json.loads(text)

        def pc_from_list(raw: List) -> PC:
            return PC(raw[0], raw[1], raw[2])

        threads: Dict[int, ThreadDump] = {}
        for tid_str, tdata in payload["threads"].items():
            frames = [
                Frame(
                    function=fr["function"],
                    block=fr["block"],
                    index=fr["index"],
                    regs={Reg(name): val & WORD_MASK
                          for name, val in fr["regs"].items()},
                    frame_base=fr["frame_base"],
                    frame_words=fr["frame_words"],
                    ret_dst=Reg(fr["ret_dst"]) if fr["ret_dst"] else None,
                )
                for fr in tdata["frames"]
            ]
            threads[int(tid_str)] = ThreadDump(
                tid=int(tid_str),
                frames=frames,
                status=ThreadStatus(tdata["status"]),
                blocked_on=tdata["blocked_on"],
                held_locks=list(tdata["held_locks"]),
                start_function=tdata.get("start_function", ""),
                return_value=tdata.get("return_value", 0),
            )
        trap_data = payload["trap"]
        return cls(
            module_name=payload["module"],
            trap=Trap(
                kind=TrapKind(trap_data["kind"]),
                tid=trap_data["tid"],
                pc=pc_from_list(trap_data["pc"]),
                message=trap_data["message"],
                fault_addr=trap_data["fault_addr"],
            ),
            memory={int(a): v & WORD_MASK
                    for a, v in payload["memory"].items()},
            threads=threads,
            lock_owners={int(a): t for a, t in payload["lock_owners"].items()},
            heap={int(b): (s, f) for b, (s, f) in payload["heap"].items()},
            stack_tops={int(t): v for t, v in payload["stack_tops"].items()},
            lbr=[(pc_from_list(s), pc_from_list(d)) for s, d in payload["lbr"]],
            log_tail=[(t, v, pc_from_list(p)) for t, v, p in payload["log_tail"]],
            bounds_checked=payload.get("bounds_checked", True),
        )

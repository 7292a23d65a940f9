"""Backward-step units and candidate enumeration.

The paper describes RES as navigating the CFG backward "one basic block
at a time" (§2.3).  Reconstructing thread schedules, which the paper
leaves open ("we omit our preliminary ideas on how to reconstruct
thread schedules"), requires finer units: the VM only preempts at
*shared-effect* instructions (loads, stores, locks, I/O), so execution
decomposes into **segments** — maximal instruction runs between
preemption points.  RES walks backward one segment at a time; within a
basic block with no shared-effect instructions a segment *is* the whole
block, so this is the paper's design refined just enough to make
schedule reconstruction exact.

Segment boundaries before instruction ``k`` of a block:

* ``k == 0`` (block start),
* instruction ``k`` has a shared effect (VM preemption point),
* instruction ``k-1`` is a call (control re-enters the frame there).

Hence a call or a terminator always *ends* its segment, which keeps
segments straight-line: all search-level forking (predecessor choice,
thread choice) lives in the search, none inside segment execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List

from repro.ir.cfg import CFG
from repro.ir.instructions import (
    CallInst,
    RetInst,
    SHARED_EFFECT_INSTRS,
)
from repro.ir.module import BasicBlock, Module
from repro.core.snapshot import SymbolicSnapshot


class SegmentKind(Enum):
    #: Plain run of instructions inside one block (may end at a
    #: preemption boundary or with a Br/CBr terminator).
    NORMAL = "normal"
    #: Ends with the coredump's trapping instruction (executes and traps).
    TRAP = "trap"
    #: Ends with a CallInst that pushes the frame above (S_post's top).
    ENTER_CALL = "enter-call"
    #: Runs in a re-materialized frame and ends with its Ret.
    RETURN = "return"


@dataclass(frozen=True)
class Segment:
    """One backward-step unit: instructions ``[lo, hi)`` of one block."""

    tid: int
    function: str
    block: str
    lo: int
    hi: int
    kind: SegmentKind
    #: frame index (depth in the thread's frame list at S_pre time) the
    #: segment executes in.
    depth: int

    @property
    def length(self) -> int:
        return self.hi - self.lo

    def __repr__(self) -> str:
        return (f"<seg t{self.tid} {self.function}:{self.block}"
                f"[{self.lo}:{self.hi}] {self.kind.value}>")


def boundaries(block: BasicBlock,
               atomic_fns: frozenset = frozenset()) -> List[int]:
    """Sorted preemption-point indices within a block.

    Calls to ``atomic_fns`` do not create an after-call boundary: the
    whole call is re-executed inline by the segment executor (the §6
    hard-construct fallback), so backward navigation never stops inside.

    The result is a pure function of the (immutable-once-compiled)
    block, so it is memoized on the block per atomic set — candidate
    enumeration and segment widening query it for every expansion.
    Callers must not mutate the returned list.
    """
    cache = getattr(block, "_boundary_cache", None)
    if cache is None:
        cache = {}
        block._boundary_cache = cache  # type: ignore[attr-defined]
    points = cache.get(atomic_fns)
    if points is not None:
        return points
    points = [0]
    for k, instr in enumerate(block.instrs):
        if k > 0 and isinstance(instr, SHARED_EFFECT_INSTRS):
            points.append(k)
        if k > 0 and isinstance(block.instrs[k - 1], CallInst) \
                and block.instrs[k - 1].callee not in atomic_fns:
            points.append(k)
    points = sorted(set(points))
    cache[atomic_fns] = points
    return points


def prev_boundary(block: BasicBlock, index: int,
                  atomic_fns: frozenset = frozenset()) -> int:
    """Largest boundary strictly below ``index`` (0 when index is 0)."""
    best = 0
    for point in boundaries(block, atomic_fns):
        if point < index:
            best = max(best, point)
    return best


def boundary_at_or_below(block: BasicBlock, index: int,
                         atomic_fns: frozenset = frozenset()) -> int:
    best = 0
    for point in boundaries(block, atomic_fns):
        if point <= index:
            best = max(best, point)
    return best


class CandidateEnumerator:
    """Enumerates the segments that could have executed immediately
    before a snapshot — the predecessor hypotheses of §2.3, generalized
    to threads."""

    def __init__(self, module: Module, atomic_fns: frozenset = frozenset()):
        self.module = module
        self.atomic_fns = atomic_fns
        self._cfgs: Dict[str, CFG] = {}

    @classmethod
    def for_module(cls, module: Module,
                   atomic_fns: frozenset = frozenset()
                   ) -> "CandidateEnumerator":
        """Shared per-module enumerator (CFGs and boundary tables are a
        pure function of the module, so every synthesizer for the same
        program reuses one instance instead of rebuilding them)."""
        cache = getattr(module, "_candidate_enum_cache", None)
        if cache is None:
            cache = {}
            module._candidate_enum_cache = cache  # type: ignore[attr-defined]
        inst = cache.get(atomic_fns)
        if inst is None:
            inst = cls(module, atomic_fns)
            cache[atomic_fns] = inst
        return inst

    def _cfg(self, function: str) -> CFG:
        if function not in self._cfgs:
            self._cfgs[function] = CFG(self.module.function(function))
        return self._cfgs[function]

    # ------------------------------------------------------------------

    def candidates(self, snapshot: SymbolicSnapshot) -> List[Segment]:
        """All candidate previous segments across all threads.

        While the trap is pending, the set is the single forced segment
        that ends in the trapping instruction — nothing can have
        executed between it and the dump.
        """
        if snapshot.trap_pending:
            return [self.trap_segment(snapshot)]
        out: List[Segment] = []
        for tid in sorted(snapshot.threads):
            out.extend(self.thread_candidates(snapshot, tid))
        return out

    def trap_segment(self, snapshot: SymbolicSnapshot) -> Segment:
        trap = snapshot.coredump.trap
        thread = snapshot.threads[trap.tid]
        frame = thread.top
        func = self.module.function(frame.function)
        block = func.block(frame.block)
        from repro.vm.coredump import TrapKind

        if trap.kind is TrapKind.DEADLOCK:
            # The blocking instruction never executed; the last thing
            # that ran ends just before it.
            hi = frame.index
        else:
            hi = frame.index + 1
        lo = boundary_at_or_below(block, max(0, hi - 1), self.atomic_fns)
        if hi == 0:
            lo = 0
        kind = SegmentKind.NORMAL if trap.kind is TrapKind.DEADLOCK \
            else SegmentKind.TRAP
        return Segment(tid=trap.tid, function=frame.function, block=frame.block,
                       lo=lo, hi=hi, kind=kind, depth=len(thread.frames) - 1)

    # ------------------------------------------------------------------

    def thread_candidates(self, snapshot: SymbolicSnapshot,
                          tid: int) -> List[Segment]:
        thread = snapshot.threads[tid]
        if thread.at_boundary:
            return []
        if not thread.frames:
            # The thread finished before the dump: the previous step is
            # its root function returning (depth 0, no caller).
            if not thread.start_function:
                return []
            return self._return_segments(tid, thread.start_function, 0)
        frame = thread.top
        func = self.module.function(frame.function)
        block = func.block(frame.block)
        depth = len(thread.frames) - 1

        if frame.index > 0:
            prev_instr = block.instrs[frame.index - 1]
            if isinstance(prev_instr, CallInst) \
                    and prev_instr.callee not in self.atomic_fns:
                # Returned-from-call landing: the previous segment is a
                # Ret segment of the (now popped) callee.
                return self._return_segments(tid, prev_instr.callee, depth + 1)
            lo = prev_boundary(block, frame.index, self.atomic_fns)
            return [Segment(tid=tid, function=frame.function, block=frame.block,
                            lo=lo, hi=frame.index, kind=SegmentKind.NORMAL,
                            depth=depth)]

        # frame.index == 0
        if frame.block != func.entry:
            out: List[Segment] = []
            for pred in self._cfg(frame.function).predecessors(frame.block):
                pred_block = func.block(pred)
                hi = len(pred_block.instrs)
                lo = prev_boundary(pred_block, hi, self.atomic_fns)
                out.append(Segment(tid=tid, function=frame.function, block=pred,
                                   lo=lo, hi=hi, kind=SegmentKind.NORMAL,
                                   depth=depth))
            return out

        # At function entry: the previous step is the caller's call.
        if depth >= 1:
            caller = thread.frames[depth - 1]
            caller_func = self.module.function(caller.function)
            caller_block = caller_func.block(caller.block)
            call_idx = caller.index - 1
            if call_idx < 0 or not isinstance(caller_block.instrs[call_idx], CallInst):
                return []  # malformed; treat as boundary
            lo = prev_boundary(caller_block, call_idx + 1, self.atomic_fns)
            return [Segment(tid=tid, function=caller.function, block=caller.block,
                            lo=lo, hi=call_idx + 1, kind=SegmentKind.ENTER_CALL,
                            depth=depth - 1)]
        # Thread start: backward boundary (spawn-site navigation is out
        # of scope; the suffix simply cannot extend past thread birth).
        return []

    def _return_segments(self, tid: int, callee: str, depth: int) -> List[Segment]:
        func = self.module.function(callee)
        out: List[Segment] = []
        for label, block in func.blocks.items():
            term = block.instrs[-1]
            if isinstance(term, RetInst):
                hi = len(block.instrs)
                lo = prev_boundary(block, hi, self.atomic_fns)
                out.append(Segment(tid=tid, function=callee, block=label,
                                   lo=lo, hi=hi, kind=SegmentKind.RETURN,
                                   depth=depth))
        return out

"""The concrete virtual machine: a multithreaded IR interpreter.

The VM executes IR modules under a pluggable scheduler with sequential
consistency (the memory model RES assumes, paper §4).  Guest failures
become :class:`~repro.vm.coredump.Coredump` objects — exactly the input
RES consumes — and never host exceptions.

The VM exposes two driving modes:

* :meth:`VM.run` — scheduler-driven execution (production runs).
* :meth:`VM.step_thread` — externally driven single stepping, for
  callers that control interleaving precisely (the suffix replayer and
  the debugger, both on :class:`~repro.vm.bytecode_vm.BytecodeVM`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import VMError
from repro.ir.instructions import (
    AbortInst,
    AllocInst,
    AssertInst,
    BinInst,
    BrInst,
    CallInst,
    CBrInst,
    CmpInst,
    ConstInst,
    FrameAddrInst,
    FreeInst,
    GAddrInst,
    HaltInst,
    Imm,
    InputInst,
    Instr,
    JoinInst,
    LoadInst,
    LockInst,
    MovInst,
    Operand,
    OutputInst,
    Reg,
    RetInst,
    SHARED_EFFECT_INSTRS,
    SpawnInst,
    StoreInst,
    UnlockInst,
    to_signed,
    to_unsigned,
)
from repro.ir.module import Module
from repro.vm.coredump import Coredump, ThreadDump, Trap, TrapKind
from repro.vm.lbr import LastBranchRecord, LBRMode
from repro.vm.memory import AccessError, Memory
from repro.vm.scheduler import RandomPreemptScheduler, Scheduler
from repro.vm.state import Frame, PC, Thread, ThreadStatus
from repro.vm.trace import ExecutionTrace, MemAccess, TraceEvent

#: How many output-log entries a coredump retains (the "error log tail").
LOG_TAIL_WORDS = 64


class RunStatus(Enum):
    EXITED = "exited"
    TRAPPED = "trapped"
    BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass
class RunResult:
    status: RunStatus
    steps: int
    exit_code: int = 0
    coredump: Optional[Coredump] = None
    trace: Optional[ExecutionTrace] = None
    outputs: List[int] = field(default_factory=list)

    @property
    def trapped(self) -> bool:
        return self.status is RunStatus.TRAPPED


class _TrapSignal(Exception):
    """Internal: unwinds the interpreter to the coredump builder."""

    def __init__(self, kind: TrapKind, message: str = "",
                 fault_addr: Optional[int] = None):
        self.kind = kind
        self.message = message
        self.fault_addr = fault_addr
        super().__init__(message)


class _ExitSignal(Exception):
    """Internal: orderly program exit (halt, or main returned)."""

    def __init__(self, code: int):
        self.code = code
        super().__init__(str(code))


def _shared_effect(instr: Instr) -> bool:
    return isinstance(instr, SHARED_EFFECT_INSTRS)


class VM:
    """A multithreaded interpreter for one IR module.

    Args:
        module: the program to run.
        inputs: values returned by successive ``input`` instructions;
            when exhausted, further inputs read 0.
        scheduler: interleaving policy; defaults to a seeded random
            preemptive scheduler.
        record_trace: capture a ground-truth :class:`ExecutionTrace`
            (tests only — RES never sees it).
        check_bounds: when False, stray loads/stores silently corrupt
            memory instead of trapping (Figure 1's overflow scenario).
        lbr_depth: size of the simulated Last Branch Record (0 disables).
        lbr_mode: plain or CFG-filtered LBR (paper's extension).
        alu_fault: optional hook ``(pc, op, correct) -> result`` used to
            model CPU computation errors (§3.2).
        start_main: create thread 0 at ``main``; pass False to build the
            thread set by hand (replay).
    """

    def __init__(
        self,
        module: Module,
        inputs: Iterable[int] = (),
        scheduler: Optional[Scheduler] = None,
        record_trace: bool = False,
        check_bounds: bool = True,
        lbr_depth: int = 16,
        lbr_mode: LBRMode = LBRMode.ALL,
        alu_fault: Optional[Callable[[PC, str, int], int]] = None,
        start_main: bool = True,
    ):
        self.module = module
        self.memory = Memory(module, check_bounds=check_bounds)
        self.inputs: List[int] = [to_unsigned(v) for v in inputs]
        self.input_cursor = 0
        self.scheduler = scheduler or RandomPreemptScheduler(seed=0)
        self.trace = ExecutionTrace() if record_trace else None
        self.lbr = LastBranchRecord(depth=lbr_depth, mode=lbr_mode)
        self.alu_fault = alu_fault
        self.threads: Dict[int, Thread] = {}
        self.lock_owners: Dict[int, int] = {}
        self.lock_waiters: Dict[int, List[int]] = {}
        self.outputs: List[int] = []
        self.log: List[Tuple[int, int, PC]] = []
        self.steps = 0
        self.next_tid = 0
        self.exit_code: Optional[int] = None
        self._trap: Optional[Trap] = None
        if start_main:
            if "main" not in module.functions:
                raise VMError("module has no main function")
            self.spawn_thread("main", [])

    # ------------------------------------------------------------------
    # Thread construction
    # ------------------------------------------------------------------

    def spawn_thread(self, func_name: str, args: Sequence[int]) -> int:
        """Create a new runnable thread entering ``func_name``."""
        func = self.module.function(func_name)
        if len(args) != len(func.params):
            raise VMError(f"{func_name} expects {len(func.params)} args")
        tid = self.next_tid
        self.next_tid += 1
        frame = self._make_frame(tid, func_name, ret_dst=None)
        for param, value in zip(func.params, args):
            frame.regs[param] = to_unsigned(value)
        self.threads[tid] = Thread(tid=tid, frames=[frame],
                                   start_function=func_name)
        return tid

    def _make_frame(self, tid: int, func_name: str,
                    ret_dst: Optional[Reg]) -> Frame:
        func = self.module.function(func_name)
        base = 0
        if func.frame_words:
            base = self.memory.stack_push(tid, func.frame_words)
        return Frame(
            function=func_name,
            block=func.entry,
            index=0,
            frame_base=base,
            frame_words=func.frame_words,
            ret_dst=ret_dst,
        )

    # ------------------------------------------------------------------
    # Operand evaluation
    # ------------------------------------------------------------------

    def _value(self, frame: Frame, op: Operand) -> int:
        if isinstance(op, Imm):
            return op.value
        try:
            return frame.regs[op]
        except KeyError:
            raise VMError(
                f"read of undefined register {op!r} in {frame.function}:{frame.block}"
            ) from None

    # ------------------------------------------------------------------
    # Scheduling loop
    # ------------------------------------------------------------------

    def wake_threads(self) -> None:
        """Unblock threads whose wait condition is now satisfied."""
        for thread in self.threads.values():
            if thread.status is ThreadStatus.BLOCKED_LOCK:
                if self.lock_owners.get(thread.blocked_on) is None:
                    thread.status = ThreadStatus.RUNNABLE
                    thread.blocked_on = None
            elif thread.status is ThreadStatus.BLOCKED_JOIN:
                target = self.threads.get(thread.blocked_on)
                if target is None or target.status is ThreadStatus.FINISHED:
                    thread.status = ThreadStatus.RUNNABLE
                    thread.blocked_on = None

    def runnable_tids(self) -> List[int]:
        return sorted(
            t.tid for t in self.threads.values()
            if t.status is ThreadStatus.RUNNABLE
        )

    def run(self, max_steps: int = 1_000_000) -> RunResult:
        """Scheduler-driven execution until exit, trap, or budget."""
        current: Optional[int] = None
        while self.steps < max_steps:
            self.wake_threads()
            runnable = self.runnable_tids()
            if not runnable:
                if all(t.status is ThreadStatus.FINISHED for t in self.threads.values()):
                    return self._exited(0)
                return self._trapped_deadlock()
            shared = False
            if current in runnable:
                thread = self.threads[current]
                instr = self._current_instr(thread)
                shared = _shared_effect(instr)
            current = self.scheduler.at_preemption_point(runnable, current, shared)
            result = self.step_thread(current)
            if result is not None:
                return result
        return RunResult(
            status=RunStatus.BUDGET_EXHAUSTED, steps=self.steps,
            trace=self.trace, outputs=list(self.outputs),
        )

    def _current_instr(self, thread: Thread) -> Instr:
        frame = thread.top
        block = self.module.function(frame.function).block(frame.block)
        return block.instrs[frame.index]

    # ------------------------------------------------------------------
    # Single-step execution (also the replayer's entry point)
    # ------------------------------------------------------------------

    def step_thread(self, tid: int) -> Optional[RunResult]:
        """Execute one instruction of thread ``tid``.

        Returns a terminal :class:`RunResult` if the program exited or
        trapped, else None.  Blocked threads re-execute their blocking
        instruction when stepped; callers should consult
        :meth:`runnable_tids` first.
        """
        thread = self.threads[tid]
        if thread.status is not ThreadStatus.RUNNABLE:
            return None
        frame = thread.top
        instr = self._current_instr(thread)
        self._event_reads: List[MemAccess] = []
        self._event_writes: List[MemAccess] = []
        self._event_lock_acq: Optional[int] = None
        self._event_lock_rel: Optional[int] = None
        self._event_input: Optional[int] = None
        self._event_output: Optional[int] = None
        pc = frame.pc
        try:
            self._execute(thread, frame, instr)
        except _TrapSignal as trap:
            self._trap = Trap(kind=trap.kind, tid=tid, pc=pc,
                              message=trap.message, fault_addr=trap.fault_addr)
            self.steps += 1
            self._record_event(tid, pc, instr)
            return self._trapped(self._trap)
        except _ExitSignal as exit_signal:
            self.steps += 1
            self._record_event(tid, pc, instr)
            return self._exited(exit_signal.code)
        self.steps += 1
        self._record_event(tid, pc, instr)
        return None

    def _record_event(self, tid: int, pc: PC, instr: Instr) -> None:
        if self.trace is None:
            return
        thread = self.threads[tid]
        self.trace.append(TraceEvent(
            step=self.steps,
            tid=tid,
            pc=pc,
            line=instr.line,
            reads=tuple(self._event_reads),
            writes=tuple(self._event_writes),
            lock_acquired=self._event_lock_acq,
            lock_released=self._event_lock_rel,
            locks_held=tuple(thread.held_locks),
            input_value=self._event_input,
            output_value=self._event_output,
        ))

    # ------------------------------------------------------------------
    # Memory helpers (trap on access errors)
    # ------------------------------------------------------------------

    def _mem_read(self, addr: int) -> int:
        value, error = self.memory.read(addr)
        if error is AccessError.OUT_OF_BOUNDS:
            raise _TrapSignal(TrapKind.OUT_OF_BOUNDS, f"load from {addr:#x}", addr)
        if error is AccessError.USE_AFTER_FREE:
            raise _TrapSignal(TrapKind.USE_AFTER_FREE, f"load from freed {addr:#x}", addr)
        self._event_reads.append(MemAccess(addr, value))
        return value

    def _mem_write(self, addr: int, value: int) -> None:
        error = self.memory.write(addr, value)
        if error is AccessError.OUT_OF_BOUNDS:
            raise _TrapSignal(TrapKind.OUT_OF_BOUNDS, f"store to {addr:#x}", addr)
        if error is AccessError.USE_AFTER_FREE:
            raise _TrapSignal(TrapKind.USE_AFTER_FREE, f"store to freed {addr:#x}", addr)
        self._event_writes.append(MemAccess(addr, to_unsigned(value)))

    # ------------------------------------------------------------------
    # Instruction execution
    # ------------------------------------------------------------------

    def _execute(self, thread: Thread, frame: Frame, instr: Instr) -> None:
        if isinstance(instr, ConstInst):
            frame.regs[instr.dst] = instr.value
        elif isinstance(instr, GAddrInst):
            layout = self.module.layout()
            if instr.name not in layout:
                raise VMError(f"unknown global {instr.name!r}")
            frame.regs[instr.dst] = layout[instr.name]
        elif isinstance(instr, FrameAddrInst):
            frame.regs[instr.dst] = frame.frame_base + instr.offset
        elif isinstance(instr, MovInst):
            frame.regs[instr.dst] = self._value(frame, instr.src)
        elif isinstance(instr, BinInst):
            frame.regs[instr.dst] = self._binop(frame, instr)
        elif isinstance(instr, CmpInst):
            frame.regs[instr.dst] = self._cmpop(frame, instr)
        elif isinstance(instr, LoadInst):
            addr = self._value(frame, instr.addr)
            frame.regs[instr.dst] = self._mem_read(addr)
        elif isinstance(instr, StoreInst):
            addr = self._value(frame, instr.addr)
            self._mem_write(addr, self._value(frame, instr.value))
        elif isinstance(instr, AllocInst):
            size = self._value(frame, instr.size)
            frame.regs[instr.dst] = self.memory.heap_alloc(size)
        elif isinstance(instr, FreeInst):
            addr = self._value(frame, instr.addr)
            error = self.memory.heap_free(addr)
            if error == "double-free":
                raise _TrapSignal(TrapKind.DOUBLE_FREE, f"double free of {addr:#x}", addr)
            if error == "invalid-free":
                raise _TrapSignal(TrapKind.INVALID_FREE, f"free of {addr:#x}", addr)
        elif isinstance(instr, CallInst):
            self._do_call(thread, frame, instr)
            return  # frame/index bookkeeping handled inside
        elif isinstance(instr, InputInst):
            frame.regs[instr.dst] = self._next_input()
        elif isinstance(instr, OutputInst):
            value = self._value(frame, instr.value)
            self.outputs.append(value)
            self.log.append((thread.tid, value, frame.pc))
            if len(self.log) > LOG_TAIL_WORDS:
                self.log.pop(0)
            self._event_output = value
        elif isinstance(instr, SpawnInst):
            args = [self._value(frame, a) for a in instr.args]
            frame.regs[instr.dst] = self.spawn_thread(instr.callee, args)
        elif isinstance(instr, JoinInst):
            target_tid = self._value(frame, instr.tid)
            target = self.threads.get(target_tid)
            if target is None or target_tid == thread.tid:
                raise _TrapSignal(TrapKind.INVALID_JOIN, f"join {target_tid}")
            if target.status is not ThreadStatus.FINISHED:
                thread.status = ThreadStatus.BLOCKED_JOIN
                thread.blocked_on = target_tid
                return  # do not advance; re-execute when woken
        elif isinstance(instr, LockInst):
            if not self._do_lock(thread, frame, instr):
                return  # blocked; do not advance
        elif isinstance(instr, UnlockInst):
            self._do_unlock(thread, frame, instr)
        elif isinstance(instr, AssertInst):
            if self._value(frame, instr.cond) == 0:
                raise _TrapSignal(TrapKind.ASSERT_FAIL, instr.message)
        elif isinstance(instr, BrInst):
            self._jump(thread, frame, instr.target, inferable=True)
            return
        elif isinstance(instr, CBrInst):
            cond = self._value(frame, instr.cond)
            target = instr.then_target if cond != 0 else instr.else_target
            self._jump(thread, frame, target, inferable=False)
            return
        elif isinstance(instr, RetInst):
            self._do_ret(thread, frame, instr)
            return
        elif isinstance(instr, HaltInst):
            raise _ExitSignal(self._value(frame, instr.code))
        elif isinstance(instr, AbortInst):
            raise _TrapSignal(TrapKind.ABORT, instr.message)
        else:  # pragma: no cover
            raise VMError(f"unknown instruction {instr!r}")
        frame.index += 1

    def _binop(self, frame: Frame, instr: BinInst) -> int:
        a = self._value(frame, instr.a)
        b = self._value(frame, instr.b)
        op = instr.op
        if op == "add":
            result = a + b
        elif op == "sub":
            result = a - b
        elif op == "mul":
            result = a * b
        elif op in ("udiv", "urem"):
            if b == 0:
                raise _TrapSignal(TrapKind.DIV_BY_ZERO, "unsigned division by zero")
            result = a // b if op == "udiv" else a % b
        elif op in ("sdiv", "srem"):
            if b == 0:
                raise _TrapSignal(TrapKind.DIV_BY_ZERO, "signed division by zero")
            sa, sb = to_signed(a), to_signed(b)
            quotient = abs(sa) // abs(sb)
            if (sa < 0) != (sb < 0):
                quotient = -quotient
            result = quotient if op == "sdiv" else sa - quotient * sb
        elif op == "and":
            result = a & b
        elif op == "or":
            result = a | b
        elif op == "xor":
            result = a ^ b
        elif op == "shl":
            result = a << (b % 64)
        elif op == "lshr":
            result = a >> (b % 64)
        elif op == "ashr":
            result = to_signed(a) >> (b % 64)
        else:  # pragma: no cover
            raise VMError(f"unknown binary op {op!r}")
        result = to_unsigned(result)
        if self.alu_fault is not None:
            result = to_unsigned(self.alu_fault(frame.pc, op, result))
        return result

    def _cmpop(self, frame: Frame, instr: CmpInst) -> int:
        a = self._value(frame, instr.a)
        b = self._value(frame, instr.b)
        op = instr.op
        if op in ("slt", "sle", "sgt", "sge"):
            a, b = to_signed(a), to_signed(b)
        result = {
            "eq": a == b, "ne": a != b,
            "ult": a < b, "ule": a <= b, "ugt": a > b, "uge": a >= b,
            "slt": a < b, "sle": a <= b, "sgt": a > b, "sge": a >= b,
        }[op]
        return 1 if result else 0

    def _next_input(self) -> int:
        if self.input_cursor < len(self.inputs):
            value = self.inputs[self.input_cursor]
            self.input_cursor += 1
        else:
            value = 0
        self._event_input = value
        return value

    # -- control transfers ---------------------------------------------------

    def _jump(self, thread: Thread, frame: Frame, target: str, inferable: bool) -> None:
        src = frame.pc
        block = self.module.function(frame.function).block(frame.block)
        single_succ = len(block.successors()) == 1
        frame.block = target
        frame.index = 0
        self.lbr.record(src, frame.pc, inferable=inferable and single_succ)

    def _do_call(self, thread: Thread, frame: Frame, instr: CallInst) -> None:
        args = [self._value(frame, a) for a in instr.args]
        src = frame.pc
        frame.index += 1  # return continues after the call
        callee = self._make_frame(thread.tid, instr.callee, ret_dst=instr.dst)
        func = self.module.function(instr.callee)
        for param, value in zip(func.params, args):
            callee.regs[param] = value
        thread.frames.append(callee)
        self.lbr.record(src, callee.pc, inferable=True)

    def _do_ret(self, thread: Thread, frame: Frame, instr: RetInst) -> None:
        value = self._value(frame, instr.value) if instr.value is not None else 0
        src = frame.pc
        if frame.frame_words:
            self.memory.stack_pop(thread.tid, frame.frame_words)
        thread.frames.pop()
        if not thread.frames:
            thread.status = ThreadStatus.FINISHED
            thread.return_value = value
            # Like pthreads, locks held by an exiting thread stay held; a
            # resulting wedge surfaces naturally as a deadlock coredump.
            if thread.tid == 0:
                raise _ExitSignal(value)
            return
        caller = thread.top
        ret_dst = frame.ret_dst
        if ret_dst is not None:
            caller.regs[ret_dst] = value
        self.lbr.record(src, caller.pc, inferable=True)

    # -- synchronization ---------------------------------------------------------

    def _do_lock(self, thread: Thread, frame: Frame, instr: LockInst) -> bool:
        """Returns True if acquired (advance), False if blocked."""
        addr = self._value(frame, instr.addr)
        owner = self.lock_owners.get(addr)
        if owner is None:
            self.lock_owners[addr] = thread.tid
            thread.held_locks.append(addr)
            self._mem_write(addr, 1)
            self._event_lock_acq = addr
            return True
        if owner == thread.tid:
            raise _TrapSignal(TrapKind.DEADLOCK, f"relock of {addr:#x}", addr)
        thread.status = ThreadStatus.BLOCKED_LOCK
        thread.blocked_on = addr
        return False

    def _do_unlock(self, thread: Thread, frame: Frame, instr: UnlockInst) -> None:
        addr = self._value(frame, instr.addr)
        if self.lock_owners.get(addr) != thread.tid:
            raise _TrapSignal(TrapKind.UNLOCK_NOT_HELD, f"unlock of {addr:#x}", addr)
        del self.lock_owners[addr]
        thread.held_locks.remove(addr)
        self._mem_write(addr, 0)
        self._event_lock_rel = addr

    # ------------------------------------------------------------------
    # Terminal states
    # ------------------------------------------------------------------

    def _exited(self, code: int) -> RunResult:
        self.exit_code = code
        return RunResult(
            status=RunStatus.EXITED, steps=self.steps, exit_code=code,
            trace=self.trace, outputs=list(self.outputs),
        )

    def _trapped_deadlock(self) -> RunResult:
        blocked = [t for t in self.threads.values()
                   if t.status in (ThreadStatus.BLOCKED_LOCK, ThreadStatus.BLOCKED_JOIN)]
        victim = min(blocked, key=lambda t: t.tid)
        trap = Trap(kind=TrapKind.DEADLOCK, tid=victim.tid, pc=victim.top.pc,
                    message="all threads blocked",
                    fault_addr=victim.blocked_on)
        return self._trapped(trap)

    def _trapped(self, trap: Trap) -> RunResult:
        return RunResult(
            status=RunStatus.TRAPPED, steps=self.steps,
            coredump=self.capture_coredump(trap),
            trace=self.trace, outputs=list(self.outputs),
        )

    def capture_coredump(self, trap: Trap) -> Coredump:
        """Snapshot the whole guest state (what production ships to devs)."""
        return Coredump(
            module_name=self.module.name,
            trap=trap,
            memory=self.memory.snapshot(),
            threads={tid: ThreadDump.from_thread(t) for tid, t in self.threads.items()},
            lock_owners=dict(self.lock_owners),
            lbr=self.lbr.contents(),
            log_tail=list(self.log),
            heap={a.base: (a.size, a.freed) for a in self.memory.allocations.values()},
            stack_tops=dict(self.memory.stack_tops),
            bounds_checked=self.memory.check_bounds,
        )

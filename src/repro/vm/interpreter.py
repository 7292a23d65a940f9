"""The concrete virtual machine: a multithreaded dispatch loop over
compiled bytecode.

The VM compiles an IR module once (`ir/bytecode.py`, memoized per
module object) and executes it under a pluggable scheduler with
sequential consistency (the memory model RES assumes, paper §4).
Guest failures become :class:`~repro.vm.coredump.Coredump` objects —
exactly the input RES consumes — and never host exceptions.  One VM
produces every coredump, replays every suffix against it, and drives
the reverse debugger, so "the replay matches the coredump" compares the
machine with itself.

Three driving modes share one dispatch loop (:meth:`VM._leg`):

* :meth:`VM.run` — scheduler-driven execution (production runs); the
  scheduler is consulted before every instruction.
* :meth:`VM.step_thread` — externally driven single stepping (the
  debugger).
* :meth:`VM.run_leg` — ``count`` consecutive steps of one thread
  without per-step method dispatch (batched replay legs).  It returns
  the terminal trap without capturing a coredump: the replayer verifies
  the live machine.

Registers live in slot frames (:class:`BFrame`): a register is a list
index and the undefined-register check is an ``is None`` test.  Traced
runs append each step as a plain tuple row; :class:`TraceEvent` objects
are only built when something reads the trace.  The layout idiom (slot
frames over an immutable compiled program) follows the Converge pypyvm
dispatch-loop design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import VMError
from repro.ir.bytecode import (
    BFunc,
    BytecodeProgram,
    OP_ABORT,
    OP_ALLOC,
    OP_ASSERT,
    OP_BIN_BASE,
    OP_BR,
    OP_CALL,
    OP_CBR,
    OP_CMP_BASE,
    OP_CONST,
    OP_FRAMEADDR,
    OP_FREE,
    OP_GADDR,
    OP_HALT,
    OP_INPUT,
    OP_JOIN,
    OP_LOAD,
    OP_LOCK,
    OP_MOV,
    OP_OUTPUT,
    OP_RET,
    OP_SPAWN,
    OP_STORE,
    OP_UNLOCK,
    compile_program,
)
from repro.ir.instructions import Reg, WORD_MASK, to_unsigned
from repro.ir.module import Module
from repro.vm.coredump import Coredump, ThreadDump, Trap, TrapKind
from repro.vm.lbr import LastBranchRecord, LBRMode
from repro.vm.memory import AccessError, Memory
from repro.vm.scheduler import RandomPreemptScheduler, Scheduler
from repro.vm.state import Frame, PC, Thread, ThreadStatus
from repro.vm.trace import ExecutionTrace

#: How many output-log entries a coredump retains (the "error log tail").
LOG_TAIL_WORDS = 64

(OP_ADD, OP_SUB, OP_MUL, OP_UDIV, OP_SDIV, OP_UREM, OP_SREM,
 OP_AND, OP_OR, OP_XOR, OP_SHL, OP_LSHR, OP_ASHR) = range(
    OP_BIN_BASE, OP_CMP_BASE)
(OP_EQ, OP_NE, OP_ULT, OP_ULE, OP_UGT, OP_UGE,
 OP_SLT, OP_SLE, OP_SGT, OP_SGE) = range(OP_CMP_BASE, OP_LOAD)

_SIGN_BIT = 1 << 63
_TWO_POW_64 = 1 << 64


class RunStatus(Enum):
    EXITED = "exited"
    TRAPPED = "trapped"
    BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass
class RunResult:
    status: RunStatus
    steps: int
    exit_code: int = 0
    #: the whole guest state at the trap; captured by :meth:`VM.run`
    #: and :meth:`VM.step_thread`, never by :meth:`VM.run_leg`
    coredump: Optional[Coredump] = None
    trace: Optional[ExecutionTrace] = None
    outputs: List[int] = field(default_factory=list)
    #: what killed the program; set on every TRAPPED result
    trap: Optional[Trap] = None

    @property
    def trapped(self) -> bool:
        return self.status is RunStatus.TRAPPED


class _TrapSignal(Exception):
    """Internal: unwinds the dispatch loop to the coredump builder."""

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


class BFrame:
    """A slot-based activation record.  It reads like a coredump
    :class:`~repro.vm.state.Frame` where the rest of the system looks
    (``pc``, ``regs``, ``copy``) and :meth:`copy` turns it into one.
    """

    __slots__ = ("bfunc", "ip", "slots", "frame_base", "ret_dst",
                 "ret_slot")

    def __init__(self, bfunc: BFunc, ip: int, slots: List[Optional[int]],
                 frame_base: int, ret_dst: Optional[Reg], ret_slot: int):
        self.bfunc = bfunc
        self.ip = ip
        self.slots = slots
        self.frame_base = frame_base
        self.ret_dst = ret_dst
        self.ret_slot = ret_slot

    @property
    def function(self) -> str:
        return self.bfunc.name

    @property
    def block(self) -> str:
        return self.bfunc.pcs[self.ip].block

    @property
    def index(self) -> int:
        return self.bfunc.pcs[self.ip].index

    @property
    def frame_words(self) -> int:
        return self.bfunc.frame_words

    @property
    def pc(self) -> PC:
        return self.bfunc.pcs[self.ip]

    @property
    def regs(self) -> Dict[Reg, int]:
        """Defined registers in slot order."""
        slot_regs = self.bfunc.slot_regs
        return {slot_regs[i]: value
                for i, value in enumerate(self.slots) if value is not None}

    def copy(self) -> Frame:
        """Materialize as a coredump frame."""
        pc = self.bfunc.pcs[self.ip]
        return Frame(
            function=pc.function,
            block=pc.block,
            index=pc.index,
            regs=self.regs,
            frame_base=self.frame_base,
            frame_words=self.bfunc.frame_words,
            ret_dst=self.ret_dst,
        )


class VM:
    """A multithreaded VM for one IR module.

    Args:
        module: the program to run.
        inputs: values returned by successive ``input`` instructions;
            when exhausted, further inputs read 0.
        scheduler: interleaving policy; defaults to a seeded random
            preemptive scheduler.
        record_trace: capture a ground-truth :class:`ExecutionTrace`
            (tests, root-cause analysis of replays, the debugger — RES
            never sees a production trace).
        check_bounds: when False, stray loads/stores silently corrupt
            memory instead of trapping (Figure 1's overflow scenario).
        lbr_depth: size of the simulated Last Branch Record (0 disables).
        lbr_mode: plain or CFG-filtered LBR (paper's extension).
        alu_fault: optional hook ``(pc, op, correct) -> result`` used to
            model CPU computation errors (§3.2).
        start_main: create thread 0 at ``main``; pass False to build the
            thread set by hand (replay).
        program: the module's compiled form, when the caller already
            holds it; by default the memoized compile of ``module``.
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
        program: Optional[BytecodeProgram] = None,
    ):
        self.module = module
        self.program = program if program is not None \
            else compile_program(module)
        self.memory = Memory(module, self.program.global_image,
                             check_bounds=check_bounds)
        self.inputs: List[int] = [to_unsigned(v) for v in inputs]
        self.input_cursor = 0
        self.scheduler = scheduler or RandomPreemptScheduler(seed=0)
        self.trace = ExecutionTrace() if record_trace else None
        self.lbr = LastBranchRecord(depth=lbr_depth, mode=lbr_mode)
        self.alu_fault = alu_fault
        self.threads: Dict[int, Thread] = {}
        self.lock_owners: Dict[int, int] = {}
        self.outputs: List[int] = []
        self.log: List[Tuple[int, int, PC]] = []
        self.steps = 0
        self.next_tid = 0
        self.exit_code: Optional[int] = None
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
        bfunc = self.program.funcs[func_name]
        base = 0
        if bfunc.frame_words:
            base = self.memory.stack_push(tid, bfunc.frame_words)
        frame = BFrame(bfunc, bfunc.entry_ip, [None] * bfunc.nslots,
                       base, None, -1)
        for slot, value in zip(bfunc.param_slots, args):
            frame.slots[slot] = to_unsigned(value)
        self.threads[tid] = Thread(tid=tid, frames=[frame],
                                   start_function=func_name)
        return tid

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
        """Scheduler-driven execution until exit, trap, or budget.

        The scheduler sees every instruction boundary, told whether the
        current thread's next instruction has a shared effect (the flag
        the compiler precomputed in ``BFunc.shared``).
        """
        threads = self.threads
        current: Optional[int] = None
        while self.steps < max_steps:
            self.wake_threads()
            runnable = self.runnable_tids()
            if not runnable:
                if all(t.status is ThreadStatus.FINISHED
                       for t in threads.values()):
                    return self._exited(0)
                return self._captured(self._trapped_deadlock())
            shared = False
            if current in runnable:
                frame = threads[current].frames[-1]
                shared = frame.bfunc.shared[frame.ip]
            current = self.scheduler.at_preemption_point(runnable, current,
                                                         shared)
            result = self.step_thread(current)
            if result is not None:
                return result
        return RunResult(
            status=RunStatus.BUDGET_EXHAUSTED, steps=self.steps,
            trace=self.trace, outputs=list(self.outputs),
        )

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------

    def step_thread(self, tid: int) -> Optional[RunResult]:
        """Execute one instruction of thread ``tid``.

        Returns a terminal :class:`RunResult` if the program exited or
        trapped (a trap with its coredump), else None.  A thread that
        is not runnable does not step; callers should consult
        :meth:`runnable_tids` first.
        """
        thread = self.threads[tid]
        if thread.status is not ThreadStatus.RUNNABLE:
            return None
        return self._captured(self._leg(thread, 1)[1])

    def run_leg(self, tid: int, count: int) -> Tuple[int, Optional[RunResult]]:
        """Drive up to ``count`` consecutive steps of one runnable
        thread (the replayer's batched entry point).  Returns the
        number of steps executed and a terminal result if the program
        exited or trapped.  Stops early when the thread blocks or
        finishes; the caller inspects ``thread.status``.

        A trapped result carries its ``trap`` but no coredump: the
        replayer checks the machine itself, and the dump would be a
        full copy of it that nothing reads.
        """
        return self._leg(self.threads[tid], count)

    def _undef(self, bfunc: BFunc, ip: int, slot: int) -> None:
        pc = bfunc.pcs[ip]
        reg = bfunc.slot_regs[slot]
        raise VMError(
            f"read of undefined register {reg!r} in {pc.function}:{pc.block}"
        )

    def _leg(self, thread: Thread, count: int):
        tid = thread.tid
        memory = self.memory
        threads = self.threads
        lock_owners = self.lock_owners
        raw = self.trace.rows if self.trace is not None else None
        lbr = self.lbr
        lbr_on = lbr.enabled
        alu = self.alu_fault
        frame = thread.frames[-1]
        bfunc = frame.bfunc
        code = bfunc.code
        pcs = bfunc.pcs
        flines = bfunc.lines
        slots = frame.slots
        ip = frame.ip
        steps = self.steps
        executed = 0
        MASK = WORD_MASK
        pc = pcs[ip]
        line = 0
        ev_reads: tuple = ()
        ev_writes: tuple = ()
        ev_la = ev_lr = ev_in = ev_out = None
        try:
            while True:
                op = code[ip]
                opcode = op[0]
                pc = pcs[ip]
                line = flines[ip]
                ev_reads = ()
                ev_writes = ()
                ev_la = ev_lr = ev_in = ev_out = None
                stop = False
                if opcode == OP_CONST:
                    slots[op[1]] = op[2]
                    ip += 1
                elif opcode == OP_MOV:
                    if op[2]:
                        value = slots[op[3]]
                        if value is None:
                            self._undef(bfunc, ip, op[3])
                    else:
                        value = op[3]
                    slots[op[1]] = value
                    ip += 1
                elif OP_CMP_BASE <= opcode < OP_LOAD:
                    if op[2]:
                        a = slots[op[3]]
                        if a is None:
                            self._undef(bfunc, ip, op[3])
                    else:
                        a = op[3]
                    if op[4]:
                        b = slots[op[5]]
                        if b is None:
                            self._undef(bfunc, ip, op[5])
                    else:
                        b = op[5]
                    if opcode >= OP_SLT:
                        if a >= _SIGN_BIT:
                            a -= _TWO_POW_64
                        if b >= _SIGN_BIT:
                            b -= _TWO_POW_64
                        if opcode == OP_SLT:
                            r = a < b
                        elif opcode == OP_SLE:
                            r = a <= b
                        elif opcode == OP_SGT:
                            r = a > b
                        else:
                            r = a >= b
                    elif opcode == OP_EQ:
                        r = a == b
                    elif opcode == OP_NE:
                        r = a != b
                    elif opcode == OP_ULT:
                        r = a < b
                    elif opcode == OP_ULE:
                        r = a <= b
                    elif opcode == OP_UGT:
                        r = a > b
                    else:
                        r = a >= b
                    slots[op[1]] = 1 if r else 0
                    ip += 1
                elif opcode < OP_CMP_BASE and opcode >= OP_BIN_BASE:
                    if op[2]:
                        a = slots[op[3]]
                        if a is None:
                            self._undef(bfunc, ip, op[3])
                    else:
                        a = op[3]
                    if op[4]:
                        b = slots[op[5]]
                        if b is None:
                            self._undef(bfunc, ip, op[5])
                    else:
                        b = op[5]
                    # Operands are canonical words, so and/or/xor/lshr
                    # and the divisions stay in [0, 2^64) unmasked.
                    if opcode == OP_ADD:
                        result = (a + b) & MASK
                    elif opcode == OP_SUB:
                        result = (a - b) & MASK
                    elif opcode == OP_MUL:
                        result = (a * b) & MASK
                    elif opcode == OP_AND:
                        result = a & b
                    elif opcode == OP_OR:
                        result = a | b
                    elif opcode == OP_XOR:
                        result = a ^ b
                    elif opcode == OP_SHL:
                        result = (a << (b % 64)) & MASK
                    elif opcode == OP_LSHR:
                        result = a >> (b % 64)
                    elif opcode == OP_ASHR:
                        sa = a - _TWO_POW_64 if a >= _SIGN_BIT else a
                        result = (sa >> (b % 64)) & MASK
                    elif opcode == OP_UDIV or opcode == OP_UREM:
                        if b == 0:
                            raise _TrapSignal(TrapKind.DIV_BY_ZERO,
                                              "unsigned division by zero")
                        result = a // b if opcode == OP_UDIV else a % b
                    else:  # sdiv / srem
                        if b == 0:
                            raise _TrapSignal(TrapKind.DIV_BY_ZERO,
                                              "signed division by zero")
                        sa = a - _TWO_POW_64 if a >= _SIGN_BIT else a
                        sb = b - _TWO_POW_64 if b >= _SIGN_BIT else b
                        quotient = abs(sa) // abs(sb)
                        if (sa < 0) != (sb < 0):
                            quotient = -quotient
                        result = (quotient if opcode == OP_SDIV
                                  else sa - quotient * sb) & MASK
                    if alu is not None:
                        result = alu(pc, op[6], result) & MASK
                    slots[op[1]] = result
                    ip += 1
                elif opcode == OP_CBR:
                    if op[1]:
                        cond = slots[op[2]]
                        if cond is None:
                            self._undef(bfunc, ip, op[2])
                    else:
                        cond = op[2]
                    target = op[3] if cond != 0 else op[4]
                    if lbr_on:
                        lbr.record(pc, pcs[target], inferable=False)
                    ip = target
                elif opcode == OP_BR:
                    if lbr_on:
                        lbr.record(pc, pcs[op[1]], inferable=op[2])
                    ip = op[1]
                elif opcode == OP_LOAD:
                    if op[2]:
                        addr = slots[op[3]]
                        if addr is None:
                            self._undef(bfunc, ip, op[3])
                    else:
                        addr = op[3]
                    value, error = memory.read(addr)
                    if error is not None:
                        if error is AccessError.OUT_OF_BOUNDS:
                            raise _TrapSignal(TrapKind.OUT_OF_BOUNDS,
                                              f"load from {addr:#x}", addr)
                        raise _TrapSignal(TrapKind.USE_AFTER_FREE,
                                          f"load from freed {addr:#x}", addr)
                    if raw is not None:
                        ev_reads = ((addr, value),)
                    slots[op[1]] = value
                    ip += 1
                elif opcode == OP_STORE:
                    if op[1]:
                        addr = slots[op[2]]
                        if addr is None:
                            self._undef(bfunc, ip, op[2])
                    else:
                        addr = op[2]
                    if op[3]:
                        value = slots[op[4]]
                        if value is None:
                            self._undef(bfunc, ip, op[4])
                    else:
                        value = op[4]
                    error = memory.write(addr, value)
                    if error is not None:
                        if error is AccessError.OUT_OF_BOUNDS:
                            raise _TrapSignal(TrapKind.OUT_OF_BOUNDS,
                                              f"store to {addr:#x}", addr)
                        raise _TrapSignal(TrapKind.USE_AFTER_FREE,
                                          f"store to freed {addr:#x}", addr)
                    if raw is not None:
                        ev_writes = ((addr, value & MASK),)
                    ip += 1
                elif opcode == OP_CALL:
                    callee = op[1]
                    if callee is None:
                        self.module.function(op[2])  # raises IRError
                        raise VMError(f"call to uncompiled function "
                                      f"{op[2]!r}")  # pragma: no cover
                    args = op[5]
                    values = []
                    for mode, operand in args:
                        if mode:
                            value = slots[operand]
                            if value is None:
                                self._undef(bfunc, ip, operand)
                            values.append(value)
                        else:
                            values.append(operand)
                    frame.ip = ip + 1  # return continues after the call
                    base = 0
                    if callee.frame_words:
                        base = memory.stack_push(tid, callee.frame_words)
                    new_slots: List[Optional[int]] = [None] * callee.nslots
                    for slot, value in zip(callee.param_slots, values):
                        new_slots[slot] = value
                    new_frame = BFrame(callee, callee.entry_ip, new_slots,
                                       base, op[4], op[3])
                    thread.frames.append(new_frame)
                    if lbr_on:
                        lbr.record(pc, callee.pcs[callee.entry_ip],
                                   inferable=True)
                    frame = new_frame
                    bfunc = callee
                    code = bfunc.code
                    pcs = bfunc.pcs
                    flines = bfunc.lines
                    slots = new_slots
                    ip = bfunc.entry_ip
                elif opcode == OP_RET:
                    if op[1]:
                        if op[2]:
                            value = slots[op[3]]
                            if value is None:
                                self._undef(bfunc, ip, op[3])
                        else:
                            value = op[3]
                    else:
                        value = 0
                    if bfunc.frame_words:
                        memory.stack_pop(tid, bfunc.frame_words)
                    frames = thread.frames
                    frames.pop()
                    if not frames:
                        thread.status = ThreadStatus.FINISHED
                        thread.return_value = value
                        # Like pthreads, locks held by an exiting
                        # thread stay held (wedges surface as deadlock
                        # coredumps).
                        if tid == 0:
                            raise _ExitSignal(value)
                        stop = True
                    else:
                        caller = frames[-1]
                        if frame.ret_slot >= 0:
                            caller.slots[frame.ret_slot] = value
                        if lbr_on:
                            lbr.record(pc, caller.bfunc.pcs[caller.ip],
                                       inferable=True)
                        frame = caller
                        bfunc = frame.bfunc
                        code = bfunc.code
                        pcs = bfunc.pcs
                        flines = bfunc.lines
                        slots = frame.slots
                        ip = frame.ip
                elif opcode == OP_ASSERT:
                    if op[1]:
                        cond = slots[op[2]]
                        if cond is None:
                            self._undef(bfunc, ip, op[2])
                    else:
                        cond = op[2]
                    if cond == 0:
                        raise _TrapSignal(TrapKind.ASSERT_FAIL, op[3])
                    ip += 1
                elif opcode == OP_FRAMEADDR:
                    slots[op[1]] = frame.frame_base + op[2]
                    ip += 1
                elif opcode == OP_GADDR:
                    if op[2] is None:
                        raise VMError(f"unknown global {op[3]!r}")
                    slots[op[1]] = op[2]
                    ip += 1
                elif opcode == OP_ALLOC:
                    if op[2]:
                        size = slots[op[3]]
                        if size is None:
                            self._undef(bfunc, ip, op[3])
                    else:
                        size = op[3]
                    slots[op[1]] = memory.heap_alloc(size)
                    ip += 1
                elif opcode == OP_FREE:
                    if op[1]:
                        addr = slots[op[2]]
                        if addr is None:
                            self._undef(bfunc, ip, op[2])
                    else:
                        addr = op[2]
                    error = memory.heap_free(addr)
                    if error == "double-free":
                        raise _TrapSignal(TrapKind.DOUBLE_FREE,
                                          f"double free of {addr:#x}", addr)
                    if error == "invalid-free":
                        raise _TrapSignal(TrapKind.INVALID_FREE,
                                          f"free of {addr:#x}", addr)
                    ip += 1
                elif opcode == OP_INPUT:
                    cursor = self.input_cursor
                    if cursor < len(self.inputs):
                        value = self.inputs[cursor]
                        self.input_cursor = cursor + 1
                    else:
                        value = 0
                    ev_in = value
                    slots[op[1]] = value
                    ip += 1
                elif opcode == OP_OUTPUT:
                    if op[1]:
                        value = slots[op[2]]
                        if value is None:
                            self._undef(bfunc, ip, op[2])
                    else:
                        value = op[2]
                    self.outputs.append(value)
                    log = self.log
                    log.append((tid, value, pc))
                    if len(log) > LOG_TAIL_WORDS:
                        log.pop(0)
                    ev_out = value
                    ip += 1
                elif opcode == OP_SPAWN:
                    values = []
                    for mode, operand in op[3]:
                        if mode:
                            value = slots[operand]
                            if value is None:
                                self._undef(bfunc, ip, operand)
                            values.append(value)
                        else:
                            values.append(operand)
                    slots[op[1]] = self.spawn_thread(op[2], values)
                    ip += 1
                elif opcode == OP_JOIN:
                    if op[1]:
                        target_tid = slots[op[2]]
                        if target_tid is None:
                            self._undef(bfunc, ip, op[2])
                    else:
                        target_tid = op[2]
                    target = threads.get(target_tid)
                    if target is None or target_tid == tid:
                        raise _TrapSignal(TrapKind.INVALID_JOIN,
                                          f"join {target_tid}")
                    if target.status is not ThreadStatus.FINISHED:
                        thread.status = ThreadStatus.BLOCKED_JOIN
                        thread.blocked_on = target_tid
                        stop = True  # do not advance; re-execute when woken
                    else:
                        ip += 1
                elif opcode == OP_LOCK:
                    if op[1]:
                        addr = slots[op[2]]
                        if addr is None:
                            self._undef(bfunc, ip, op[2])
                    else:
                        addr = op[2]
                    owner = lock_owners.get(addr)
                    if owner is None:
                        lock_owners[addr] = tid
                        thread.held_locks.append(addr)
                        error = memory.write(addr, 1)
                        if error is not None:
                            if error is AccessError.OUT_OF_BOUNDS:
                                raise _TrapSignal(TrapKind.OUT_OF_BOUNDS,
                                                  f"store to {addr:#x}", addr)
                            raise _TrapSignal(TrapKind.USE_AFTER_FREE,
                                              f"store to freed {addr:#x}",
                                              addr)
                        if raw is not None:
                            ev_writes = ((addr, 1),)
                        ev_la = addr
                        ip += 1
                    elif owner == tid:
                        raise _TrapSignal(TrapKind.DEADLOCK,
                                          f"relock of {addr:#x}", addr)
                    else:
                        thread.status = ThreadStatus.BLOCKED_LOCK
                        thread.blocked_on = addr
                        stop = True  # blocked; do not advance
                elif opcode == OP_UNLOCK:
                    if op[1]:
                        addr = slots[op[2]]
                        if addr is None:
                            self._undef(bfunc, ip, op[2])
                    else:
                        addr = op[2]
                    if lock_owners.get(addr) != tid:
                        raise _TrapSignal(TrapKind.UNLOCK_NOT_HELD,
                                          f"unlock of {addr:#x}", addr)
                    del lock_owners[addr]
                    thread.held_locks.remove(addr)
                    error = memory.write(addr, 0)
                    if error is not None:
                        if error is AccessError.OUT_OF_BOUNDS:
                            raise _TrapSignal(TrapKind.OUT_OF_BOUNDS,
                                              f"store to {addr:#x}", addr)
                        raise _TrapSignal(TrapKind.USE_AFTER_FREE,
                                          f"store to freed {addr:#x}", addr)
                    if raw is not None:
                        ev_writes = ((addr, 0),)
                    ev_lr = addr
                    ip += 1
                elif opcode == OP_HALT:
                    if op[1]:
                        value = slots[op[2]]
                        if value is None:
                            self._undef(bfunc, ip, op[2])
                    else:
                        value = op[2]
                    raise _ExitSignal(value)
                elif opcode == OP_ABORT:
                    raise _TrapSignal(TrapKind.ABORT, op[1])
                else:  # pragma: no cover
                    raise VMError(f"unknown opcode {opcode}")
                steps += 1
                executed += 1
                if raw is not None:
                    held = thread.held_locks
                    raw.append((steps, tid, pc, line, ev_reads, ev_writes,
                                ev_la, ev_lr,
                                tuple(held) if held else (),
                                ev_in, ev_out))
                if stop or executed >= count:
                    break
        except _TrapSignal as signal:
            frame.ip = ip
            trap = Trap(kind=signal.kind, tid=tid, pc=pc,
                        message=signal.message, fault_addr=signal.fault_addr)
            steps += 1
            self.steps = steps
            if raw is not None:
                held = thread.held_locks
                raw.append((steps, tid, pc, line, ev_reads, ev_writes,
                            ev_la, ev_lr, tuple(held) if held else (),
                            ev_in, ev_out))
            return executed + 1, self._trapped(trap)
        except _ExitSignal as exit_signal:
            frame.ip = ip
            steps += 1
            self.steps = steps
            if raw is not None:
                held = thread.held_locks
                raw.append((steps, tid, pc, line, ev_reads, ev_writes,
                            ev_la, ev_lr, tuple(held) if held else (),
                            ev_in, ev_out))
            return executed + 1, self._exited(exit_signal.code)
        frame.ip = ip
        self.steps = steps
        return executed, None

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
            status=RunStatus.TRAPPED, steps=self.steps, trap=trap,
            trace=self.trace, outputs=list(self.outputs),
        )

    def _captured(self, result: Optional[RunResult]) -> Optional[RunResult]:
        """``result``, with the coredump of its trap attached."""
        if result is not None and result.trap is not None:
            result.coredump = self.capture_coredump(result.trap)
        return result

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

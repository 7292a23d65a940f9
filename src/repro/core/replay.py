"""Deterministic replay of synthesized suffixes (paper §2.1).

"To replay a suffix in a debugger like gdb, a special environment is
slipped underneath the debugger to instantiate M_i and replay T_i; to
the developer it looks as if the program deterministically runs into
the same failure."

The replayer is that special environment: it solves the suffix's
constraint set to concrete values, instantiates a VM mid-execution
(memory image, thread frames, allocator and lock state), drives the
schedule leg by leg, and finally verifies that the machine lands
*exactly* on the coredump — trap, memory image, and failing-thread
registers.  Verification is also RES's false-positive filter: "any
execution suffix must match the full coredump exactly" (§6), so it runs
once per emitted suffix.  It reads the machine it drove (the terminal
trap, the VM's memory words, the failing thread's slot frames) and
captures no second coredump to compare.  A failed replay names the
class of its first mismatch (:attr:`ReplayReport.failure`), which the
search counts per class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.ir.bytecode import compile_program
from repro.ir.module import Module
from repro.symex.expr import Const, evaluate_compiled
from repro.symex.solver import Solver
from repro.vm.scheduler import RandomPreemptScheduler
from repro.vm.coredump import Coredump, Trap, TrapKind
from repro.vm.interpreter import BFrame, RunResult, VM
from repro.vm.memory import Allocation
from repro.vm.state import Thread, ThreadStatus
from repro.vm.trace import ExecutionTrace
from repro.core.suffix import ExecutionSuffix


@dataclass
class ReplayReport:
    """Outcome of replaying one suffix against its coredump."""

    ok: bool
    mismatches: List[str] = field(default_factory=list)
    inputs: List[int] = field(default_factory=list)
    model: Optional[Dict[str, int]] = None
    trace: Optional[ExecutionTrace] = None
    vm: Optional[VM] = None
    #: why a failed replay failed, named by its first mismatch: the
    #: solver found no model (``materialize``); the schedule could not
    #: be driven as written, or ended without the expected trap or lock
    #: wait (``schedule``); or the end state differs from the coredump
    #: in the ``trap``, a ``memory`` word, the failing thread's
    #: ``frame`` count or positions, or a ``register``
    failure: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def _schedule_failure(message: str) -> ReplayReport:
    return ReplayReport(ok=False, mismatches=[message], failure="schedule")


class SuffixReplayer:
    """Materializes and replays :class:`ExecutionSuffix` objects."""

    def __init__(self, module: Module, solver: Optional[Solver] = None):
        self.module = module
        self.solver = solver or Solver()
        self._program = compile_program(module)
        # Replay drives the schedule itself, so the VM's scheduler is
        # never consulted; sharing one instance skips a per-replay
        # Mersenne-twister seeding.
        self._scheduler = RandomPreemptScheduler(seed=0)

    # ------------------------------------------------------------------

    def replay(self, suffix: ExecutionSuffix,
               presolved=None) -> ReplayReport:
        """Solve, instantiate, drive, verify.  The report is ``ok`` when
        the driven machine *is* the coredump; otherwise ``mismatches``
        lists what differs and ``failure`` names the first one's class.

        ``presolved`` short-circuits the constraint solve with a
        :class:`~repro.symex.solver.SolveResult` the backward search
        already computed for exactly this suffix's conjunction — the
        emit path then costs only instantiation + drive + verify
        instead of re-solving a suffix-deep constraint set per emitted
        suffix.
        """
        result = presolved if presolved is not None \
            else self.solver.solve(suffix.constraints)
        if not result.is_sat or result.model is None:
            return ReplayReport(ok=False, mismatches=[
                f"cannot materialize suffix: solver says {result.status.value}"
            ], failure="materialize")
        model = result.model
        vm = self._instantiate(suffix, model)
        inputs = list(vm.inputs)
        report = self._drive(vm, suffix)
        report.model = model
        report.inputs = inputs
        report.trace = vm.trace
        report.vm = vm
        return report

    # ------------------------------------------------------------------
    # Instantiation: build the M_i state inside a fresh VM
    # ------------------------------------------------------------------

    def _instantiate(self, suffix: ExecutionSuffix,
                     model: Dict[str, int]) -> VM:
        coredump = suffix.coredump
        snapshot = suffix.snapshot
        inputs = [self._eval(sym, model) for sym in suffix.input_syms()]
        vm = VM(
            self.module,
            inputs=inputs,
            scheduler=self._scheduler,
            record_trace=True,
            check_bounds=coredump.bounds_checked,
            lbr_depth=0,
            start_main=False,
            program=self._program,
        )
        # Memory: the coredump image patched with the reconstructed
        # pre-state expressions, evaluated under the model.
        words = dict(coredump.memory)
        for addr, expr in snapshot.memory.items():
            words[addr] = self._eval(expr, model)
        vm.memory.words = words

        # Allocator: suffix-born allocations do not exist yet; suffix
        # frees have not happened yet.
        suffix_allocs = suffix.alloc_bases()
        vm.memory.allocations = {}
        for base, (size, _freed) in coredump.heap.items():
            if base in suffix_allocs:
                continue
            freed = not snapshot.live_at_start.get(base, True)
            vm.memory.allocations[base] = Allocation(base=base, size=size,
                                                     freed=freed)
        vm.memory.heap_cursor = snapshot.heap_cursor()
        vm.memory.stack_tops = dict(snapshot.stack_tops)

        # Locks held at suffix start.
        vm.lock_owners = dict(snapshot.lock_owners)

        # Threads: registers are evaluated under the model straight into
        # slot frames.  The 1:1 bytecode↔IR mapping makes a mid-block
        # position exact: ``ip = block_start[block] + index``.
        eval_ = self._eval
        funcs = self._program.funcs
        for tid, snap_thread in snapshot.threads.items():
            bframes: List[BFrame] = []
            prev_bfunc = None
            for f in snap_thread.frames:
                bfunc = funcs[f.function]
                ip = bfunc.block_start[f.block] + f.index
                slots: List[Optional[int]] = [None] * bfunc.nslots
                reg_slots = bfunc.reg_slots
                for reg, expr in f.regs.items():
                    slots[reg_slots[reg.name]] = expr.value \
                        if type(expr) is Const else eval_(expr, model)
                ret_slot = -1
                if f.ret_dst is not None and prev_bfunc is not None:
                    ret_slot = prev_bfunc.reg_slots[f.ret_dst.name]
                bframes.append(BFrame(bfunc, ip, slots, f.frame_base,
                                      f.ret_dst, ret_slot))
                prev_bfunc = bfunc
            status = ThreadStatus.RUNNABLE if bframes \
                else ThreadStatus.FINISHED
            held = [addr for addr, owner in snapshot.lock_owners.items()
                    if owner == tid]
            vm.threads[tid] = Thread(tid=tid, frames=bframes, status=status,
                                     held_locks=held,
                                     start_function=snap_thread.start_function)
            vm.next_tid = max(vm.next_tid, tid + 1)
        return vm

    @staticmethod
    def _eval(expr, model: Dict[str, int]) -> int:
        # Snapshot expressions recur across candidate suffixes sharing a
        # search lineage; the compiled evaluator caches on the (interned)
        # node, so repeat evaluations skip the tree walk entirely.
        value = evaluate_compiled(expr, model)
        return value if value is not None else 0

    # ------------------------------------------------------------------
    # Driving the schedule
    # ------------------------------------------------------------------

    def _drive(self, vm: VM, suffix: ExecutionSuffix) -> ReplayReport:
        """Drive the schedule: one :meth:`VM.run_leg` call per
        schedule leg, which runs the leg's steps of one thread without
        per-step dispatch.

        Only the driven thread executes within a leg, so waking other
        threads between its steps could not change what it does (waking
        never alters lock ownership or FINISHED-ness), and the driven
        thread stays RUNNABLE until the blocked/finished checks below
        fire.  A thread that blocks did not execute its instruction:
        the schedule is not realizable.
        """
        terminal: Optional[RunResult] = None
        # Adjacent legs of the same thread merge into one ``run_leg``
        # call: between them only a wake and a status re-check could
        # happen, and neither can change the thread's progress (no other
        # thread executed, so no lock was released and nothing
        # finished).  A failure at a merged boundary still fails — it
        # just surfaces as a mid-leg stop.
        legs: List[Tuple[int, int]] = []
        for tid, count in suffix.schedule():
            if count <= 0:
                continue
            if legs and legs[-1][0] == tid:
                legs[-1] = (tid, legs[-1][1] + count)
            else:
                legs.append((tid, count))
        for leg_idx, (tid, count) in enumerate(legs):
            if terminal is not None:
                return _schedule_failure(
                    "program ended before the schedule did")
            vm.wake_threads()
            thread = vm.threads.get(tid)
            if thread is None or thread.status is not ThreadStatus.RUNNABLE:
                return _schedule_failure(
                    f"thread {tid} not runnable at leg {leg_idx}")
            executed, terminal = vm.run_leg(tid, count)
            if thread.status in (ThreadStatus.BLOCKED_LOCK,
                                 ThreadStatus.BLOCKED_JOIN):
                before = thread.top.pc if thread.frames else None
                return _schedule_failure(
                    f"thread {tid} blocked mid-suffix at {before}")
            if thread.status is ThreadStatus.FINISHED \
                    and terminal is None and executed < count:
                return _schedule_failure(
                    f"thread {tid} finished with its leg unfinished")
            if terminal is not None and executed < count:
                return _schedule_failure(
                    "program ended before the schedule did")
        return self._finish_drive(vm, suffix, terminal)

    def _finish_drive(self, vm: VM, suffix: ExecutionSuffix,
                      terminal: Optional[RunResult]) -> ReplayReport:
        coredump = suffix.coredump
        if coredump.trap.kind is TrapKind.DEADLOCK:
            return self._verify_deadlock(vm, suffix)

        if terminal is None or terminal.trap is None:
            return _schedule_failure("suffix did not end in a trap")
        return self._verify(vm, terminal.trap, coredump)

    def _verify_deadlock(self, vm: VM,
                         suffix: ExecutionSuffix) -> ReplayReport:
        coredump = suffix.coredump
        tid = coredump.trap.tid
        vm.wake_threads()
        thread = vm.threads[tid]
        if thread.status is ThreadStatus.RUNNABLE:
            vm.run_leg(tid, 1)
        if thread.status is not ThreadStatus.BLOCKED_LOCK:
            return _schedule_failure(
                "failing thread did not block on its lock")
        if coredump.trap.fault_addr is not None \
                and thread.blocked_on != coredump.trap.fault_addr:
            return _schedule_failure("failing thread blocked on the wrong lock")
        return self._verify(vm, coredump.trap, coredump, check_trap=False)

    # ------------------------------------------------------------------
    # Verification: the replayed end state must *be* the coredump
    # ------------------------------------------------------------------

    @staticmethod
    def _verify(vm: VM, trap: Trap, expected: Coredump,
                check_trap: bool = True) -> ReplayReport:
        """Compare the live machine, stopped at ``trap``, with
        ``expected``: the trap, every memory word, and the failing
        thread's frame positions and registers.  A mismatch reads as it
        would against a coredump captured from ``vm`` — a register the
        frame leaves undefined (or its function lacks) reads ``None``.
        """
        mismatches: List[str] = []
        failure: Optional[str] = None
        if check_trap:
            want = expected.trap
            if trap.kind is not want.kind or trap.tid != want.tid \
                    or trap.pc != want.pc or trap.fault_addr != want.fault_addr:
                mismatches.append(
                    f"trap mismatch: got {trap!r}, want {want!r}")
                failure = "trap"

        # Partial dumps (minidumps) can only be matched on the words they
        # retain; a full coredump is matched exactly, everywhere.  Equal
        # dicts match without a per-word walk; otherwise an absent word
        # reads 0, so only differing values are mismatches.
        words = vm.memory.words
        want_words = expected.memory
        available = getattr(expected, "available", None)
        if available is not None or words != want_words:
            for addr in set(words) | set(want_words):
                if available is not None and not available(addr):
                    continue
                got_word = words.get(addr, 0)
                want_word = want_words.get(addr, 0)
                if got_word != want_word:
                    mismatches.append(
                        f"memory mismatch at {addr:#x}: got {got_word}, "
                        f"want {want_word}")
                    failure = failure or "memory"
                    if len(mismatches) > 20:
                        mismatches.append("... (more mismatches suppressed)")
                        break

        want_thread = expected.threads[expected.trap.tid]
        got_thread = vm.threads.get(expected.trap.tid)
        if got_thread is None:
            mismatches.append("failing thread missing from replay")
            failure = failure or "frame"
        elif len(got_thread.frames) != len(want_thread.frames):
            mismatches.append(
                f"failing thread has {len(got_thread.frames)} frames, "
                f"want {len(want_thread.frames)}")
            failure = failure or "frame"
        else:
            for depth, (got_frame, want_frame) in enumerate(
                    zip(got_thread.frames, want_thread.frames)):
                bfunc = got_frame.bfunc
                pc = bfunc.pcs[got_frame.ip]
                if pc.function != want_frame.function \
                        or pc.block != want_frame.block \
                        or pc.index != want_frame.index:
                    mismatches.append(
                        f"frame {depth} position mismatch: "
                        f"{pc} vs {want_frame.pc}")
                    failure = failure or "frame"
                    continue
                reg_slots = bfunc.reg_slots
                slots = got_frame.slots
                for reg, want_val in want_frame.regs.items():
                    slot = reg_slots.get(reg.name)
                    got_val = slots[slot] if slot is not None else None
                    if got_val != want_val:
                        mismatches.append(
                            f"frame {depth} register {reg!r}: "
                            f"got {got_val}, want {want_val}")
                        failure = failure or "register"
        return ReplayReport(ok=not mismatches, mismatches=mismatches,
                            failure=failure)

"""Symbolic execution of one segment against a snapshot (paper §2.4).

This module implements the paper's reconstruction rule exactly:

    "if S_post is the program state after executing B, then we can
    obtain S_pre from S_post by simply replacing every memory location
    overwritten by B with an unconstrained symbolic value ... When
    encountering a memory read instruction in B ... if that memory
    location will not be subsequently overwritten by an instruction in
    B, then RES knows exactly what value the read should return: the
    value is taken directly from S_post.  If, however, that memory
    location will be overwritten somewhere in the remaining part of B,
    then RES cannot know what value resided there, so it returns from
    the read an unconstrained symbolic value."

"Will be overwritten later" is not knowable up front (store addresses
are computed), so we run a small fixpoint: execute the segment with
reads provisionally returning S_post values, detect reads that preceded
an in-segment write to the same address, force those reads to fresh
symbols, and re-execute.  Segments are straight-line (see
``segments.py``), so the fixpoint converges in at most one iteration
per distinct conflicting address.

The executor also performs the §2.4 compatibility check ``S' ⊇ S_post``:
every register and memory word the segment computes is bound by an
equality constraint to its S_post value, and the solver prunes the
candidate if the conjunction is unsatisfiable (Figure 1's Pred2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.errors import SynthesisError
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
    SpawnInst,
    StoreInst,
    UnlockInst,
)
from repro.ir.module import Module
from repro.symex.expr import (
    Const,
    Expr,
    Sym,
    bin_expr,
    free_syms,
    negate_bool,
    truth_of,
)
from repro.symex.solver import Solver
from repro.vm.coredump import TrapKind
from repro.vm.state import PC
from repro.core.segments import Segment, SegmentKind
from repro.core.snapshot import SnapFrame, SymbolicSnapshot


@dataclass
class OverflowFinding:
    """A store that left its provenance object (Figure 1's bug class)."""

    object_kind: str  # "global" | "heap" | "frame"
    object_name: str
    store_addr: int
    pc: PC


@dataclass
class SegmentResult:
    """Outcome of reverse-synthesizing one segment."""

    segment: Segment
    feasible: bool
    reason: str = ""
    snapshot: Optional[SymbolicSnapshot] = None  # S_pre on success
    new_constraints: List[Expr] = field(default_factory=list)
    input_syms: List[Sym] = field(default_factory=list)  # forward order
    outputs: List[Tuple[Expr, PC]] = field(default_factory=list)
    write_addrs: Set[int] = field(default_factory=set)
    read_addrs: Set[int] = field(default_factory=set)
    alloc_bases: List[int] = field(default_factory=list)
    free_bases: List[int] = field(default_factory=list)
    lock_events: List[Tuple[str, int]] = field(default_factory=list)
    instr_count: int = 0
    tainted_store_addr: bool = False
    overflow: Optional[OverflowFinding] = None
    solver_nodes: int = 0


class _Prune(Exception):
    """Internal: abandon this candidate with a reason."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


@dataclass
class _Attempt:
    """One fixpoint iteration's working state."""

    cur_regs: Dict[Reg, Expr] = field(default_factory=dict)
    pre_regs: Dict[Reg, Expr] = field(default_factory=dict)
    seg_mem: Dict[int, Expr] = field(default_factory=dict)
    first_write: Dict[int, int] = field(default_factory=dict)
    pre_reads: Dict[int, int] = field(default_factory=dict)
    constraints: List[Expr] = field(default_factory=list)
    input_syms: List[Sym] = field(default_factory=list)
    outputs: List[Tuple[Expr, PC]] = field(default_factory=list)
    read_addrs: Set[int] = field(default_factory=set)
    alloc_bases: List[int] = field(default_factory=list)
    free_bases: List[int] = field(default_factory=list)
    lock_events: List[Tuple[str, int]] = field(default_factory=list)
    prov: Dict[Reg, FrozenSet[str]] = field(default_factory=dict)
    tainted_store: bool = False
    overflow: Optional[OverflowFinding] = None
    instr_count: int = 0
    caller_dst_written: Optional[Tuple[int, Reg]] = None  # (depth, reg)
    op_counter: int = 0


class SegmentExecutor:
    """Reverse-synthesizes segments: builds S_pre, checks S' ⊇ S_post."""

    def __init__(self, module: Module, solver: Optional[Solver] = None,
                 atomic_calls: FrozenSet[str] = frozenset(),
                 max_fixpoint: int = 16, atomic_budget: int = 50_000,
                 incremental: bool = True):
        self.module = module
        self.solver = solver or Solver()
        self.atomic_calls = atomic_calls
        self.max_fixpoint = max_fixpoint
        self.atomic_budget = atomic_budget
        #: incremental mode: COW child snapshots + per-node solver
        #: contexts + the delta-verdict cache (RESConfig.incremental)
        self.incremental = incremental
        self._layout = module.layout()

    # ------------------------------------------------------------------

    def _context(self, snapshot: SymbolicSnapshot):
        """The snapshot's solver context, built lazily on first use."""
        ctx = snapshot.solver_ctx
        if ctx is None:
            ctx = self.solver.context_for(snapshot.constraints)
            snapshot.solver_ctx = ctx
        return ctx

    def execute(self, snapshot: SymbolicSnapshot,
                segment: Segment) -> SegmentResult:
        if self.incremental:
            self._context(snapshot)  # materialize before children share it
        child = snapshot.child(cow=self.incremental)
        force_fresh: Dict[int, Sym] = {}
        attempt: Optional[_Attempt] = None
        try:
            for _ in range(self.max_fixpoint):
                attempt = self._run(snapshot, child, segment, force_fresh)
                conflicts = [
                    addr for addr in attempt.pre_reads
                    if addr in attempt.first_write and addr not in force_fresh
                ]
                if not conflicts:
                    break
                for addr in conflicts:
                    force_fresh[addr] = child.fresh(f"pre_{addr:x}_")
            else:
                raise _Prune("fixpoint-divergence")
        except _Prune as prune:
            return SegmentResult(segment=segment, feasible=False,
                                 reason=prune.reason)

        assert attempt is not None
        lock_pre = self._check_locks(snapshot, segment, attempt)
        if lock_pre is None:
            return SegmentResult(segment=segment, feasible=False,
                                 reason="lock state inconsistent with segment")
        new_constraints = self._compatibility(snapshot, child, segment,
                                              attempt, force_fresh)
        child_ctx = None
        if self.incremental:
            verdict, child_ctx = self.solver.solve_extended(
                self._context(snapshot), tuple(new_constraints))
        else:
            verdict = self.solver.solve(
                list(child.constraints) + new_constraints)
        if verdict.is_unsat:
            return SegmentResult(segment=segment, feasible=False,
                                 reason="incompatible (S' does not cover S_post)",
                                 new_constraints=new_constraints,
                                 solver_nodes=verdict.nodes_explored)

        self._build_pre_state(snapshot, child, segment, attempt, force_fresh,
                              new_constraints, lock_pre, child_ctx)
        return SegmentResult(
            segment=segment, feasible=True, snapshot=child,
            new_constraints=new_constraints,
            input_syms=attempt.input_syms,
            outputs=attempt.outputs,
            write_addrs=set(attempt.first_write),
            read_addrs=attempt.read_addrs,
            alloc_bases=attempt.alloc_bases,
            free_bases=attempt.free_bases,
            lock_events=attempt.lock_events,
            instr_count=attempt.instr_count,
            tainted_store_addr=attempt.tainted_store,
            overflow=attempt.overflow,
            solver_nodes=verdict.nodes_explored,
        )

    # ------------------------------------------------------------------
    # Frame setup
    # ------------------------------------------------------------------

    def _setup_regs(self, snapshot: SymbolicSnapshot, child: SymbolicSnapshot,
                    segment: Segment,
                    attempt: _Attempt) -> Tuple[Dict[Reg, Expr], SnapFrame]:
        thread = snapshot.threads[segment.tid]
        block = self.module.function(segment.function).block(segment.block)

        if segment.kind is SegmentKind.RETURN:
            # Re-materialized callee frame: nothing about it is known.
            ret_dst = None
            if segment.depth > 0:
                caller = thread.frames[segment.depth - 1]
                caller_block = self.module.function(caller.function).block(caller.block)
                call_instr = caller_block.instrs[caller.index - 1]
                if not isinstance(call_instr, CallInst):
                    raise _Prune("return-segment without matching call site")
                ret_dst = call_instr.dst
            func = self.module.function(segment.function)
            post_frame = SnapFrame(
                function=segment.function, block=segment.block, index=segment.hi,
                regs={},
                frame_base=snapshot.stack_tops.get(segment.tid,
                                                   _stack_base(segment.tid)),
                frame_words=func.frame_words, ret_dst=ret_dst,
            )
        else:
            post_frame = thread.frames[segment.depth]

        defs: List[Reg] = []
        last = segment.hi - 1
        for k in range(segment.lo, segment.hi):
            instr = block.instrs[k]
            if k == last and segment.kind in (SegmentKind.TRAP,
                                              SegmentKind.ENTER_CALL):
                continue  # the trapping/entering instruction never committed
            defs.extend(instr.defs())

        pre_regs = dict(post_frame.regs)
        for reg in defs:
            pre_regs[reg] = child.fresh(f"r_{reg.name}_")
        attempt.cur_regs = dict(pre_regs)
        attempt.pre_regs = pre_regs
        return pre_regs, post_frame

    # ------------------------------------------------------------------
    # One fixpoint iteration
    # ------------------------------------------------------------------

    def _run(self, snapshot: SymbolicSnapshot, child: SymbolicSnapshot,
             segment: Segment, force_fresh: Dict[int, Sym]) -> _Attempt:
        attempt = _Attempt()
        pre_regs, post_frame = self._setup_regs(snapshot, child, segment, attempt)
        block = self.module.function(segment.function).block(segment.block)
        thread = snapshot.threads[segment.tid]
        last = segment.hi - 1

        # Pre-compute alloc bases: segments are straight-line, so the
        # number of allocations is static; they must be the most recent
        # ones in the coredump's allocator history.
        alloc_count = sum(
            1 for k in range(segment.lo, segment.hi)
            if isinstance(block.instrs[k], AllocInst)
            and not (k == last and segment.kind is SegmentKind.TRAP)
        )
        if alloc_count > len(snapshot.remaining_allocs):
            raise _Prune("more allocations than the coredump records")
        alloc_plan = [base for base, _ in
                      snapshot.remaining_allocs[len(snapshot.remaining_allocs)
                                                - alloc_count:]]

        ctx = _ExecContext(
            executor=self, snapshot=snapshot, child=child, segment=segment,
            attempt=attempt, force_fresh=force_fresh, frame=post_frame,
            alloc_plan=alloc_plan,
        )
        for k in range(segment.lo, segment.hi):
            instr = block.instrs[k]
            is_final = k == last
            if is_final and segment.kind is SegmentKind.TRAP:
                ctx.exec_trap_instr(instr)
            elif is_final and segment.kind is SegmentKind.ENTER_CALL:
                ctx.exec_enter_call(instr, thread)
            elif is_final and segment.kind is SegmentKind.RETURN:
                ctx.exec_return(instr, thread)
            elif instr.is_terminator():
                ctx.exec_terminator(instr, post_frame, snapshot, thread, segment)
            else:
                ctx.exec_normal(instr)
            attempt.instr_count += 1
        return attempt

    # ------------------------------------------------------------------
    # Lock-state consistency
    # ------------------------------------------------------------------

    def _check_locks(self, snapshot: SymbolicSnapshot, segment: Segment,
                     attempt: _Attempt) -> Optional[Dict[int, Optional[int]]]:
        """Replay the segment's lock events against the snapshot.

        Forward legality: a ``lock`` needs the mutex free, an ``unlock``
        needs the running thread to own it.  Returns the required
        *pre*-segment ownership per touched lock (None = free), or None
        if the segment contradicts the snapshot's (S_post) ownership.
        """
        tid = segment.tid
        current: Dict[int, Optional[int]] = {}
        pre_required: Dict[int, Optional[int]] = {}
        for event, addr in attempt.lock_events:
            if addr not in current:
                # First event fixes what the pre-state must have been.
                pre_required[addr] = None if event == "lock" else tid
                current[addr] = tid if event == "lock" else None
                continue
            if event == "lock":
                if current[addr] is not None:
                    return None  # relock / still owned: cannot have run
                current[addr] = tid
            else:
                if current[addr] != tid:
                    return None
                current[addr] = None
        for addr, owner_after in current.items():
            if snapshot.lock_owners.get(addr) != owner_after:
                return None
        return pre_required

    # ------------------------------------------------------------------
    # Compatibility constraints: S' ⊇ S_post
    # ------------------------------------------------------------------

    def _compatibility(self, snapshot: SymbolicSnapshot,
                       child: SymbolicSnapshot, segment: Segment,
                       attempt: _Attempt,
                       force_fresh: Dict[int, Sym]) -> List[Expr]:
        constraints = list(attempt.constraints)
        thread = snapshot.threads[segment.tid]
        if segment.kind is not SegmentKind.RETURN:
            post_frame = thread.frames[segment.depth]
            for reg, pre_value in attempt.pre_regs.items():
                if not isinstance(pre_value, Sym):
                    continue
                final = attempt.cur_regs.get(reg)
                post = post_frame.regs.get(reg)
                if final is None or post is None or final == post:
                    continue
                constraints.append(bin_expr("eq", final, post))
        # Memory: every word the segment wrote must match its S_post value.
        for addr in attempt.first_write:
            final_value = attempt.seg_mem.get(addr)
            if final_value is None:
                continue
            post_value = snapshot.memory.read(addr)
            if final_value == post_value:
                continue
            constraints.append(bin_expr("eq", final_value, post_value))
        return constraints

    # ------------------------------------------------------------------
    # S_pre construction
    # ------------------------------------------------------------------

    def _build_pre_state(self, snapshot: SymbolicSnapshot,
                         child: SymbolicSnapshot, segment: Segment,
                         attempt: _Attempt, force_fresh: Dict[int, Sym],
                         new_constraints: List[Expr],
                         lock_pre: Dict[int, Optional[int]],
                         child_ctx=None) -> None:
        thread = child.thread_for_write(segment.tid)

        if segment.kind is SegmentKind.ENTER_CALL:
            callee = thread.frames.pop()
            child.set_stack_top(
                segment.tid,
                child.stack_tops.get(segment.tid, _stack_base(segment.tid))
                - callee.frame_words)
        elif segment.kind is SegmentKind.RETURN:
            func = self.module.function(segment.function)
            ret_dst = None
            if segment.depth > 0:
                caller = thread.frames[segment.depth - 1]
                caller_block = self.module.function(caller.function).block(
                    caller.block)
                call_instr = caller_block.instrs[caller.index - 1]
                if isinstance(call_instr, CallInst):
                    ret_dst = call_instr.dst
            old_top = child.stack_tops.get(segment.tid, _stack_base(segment.tid))
            remat = SnapFrame(
                function=segment.function, block=segment.block, index=segment.lo,
                regs={}, frame_base=old_top, frame_words=func.frame_words,
                ret_dst=ret_dst,
            )
            child.set_stack_top(segment.tid, old_top + func.frame_words)
            thread.frames.append(remat)
            if attempt.caller_dst_written is not None:
                depth, reg = attempt.caller_dst_written
                thread.frames[depth].regs[reg] = child.fresh(f"r_{reg.name}_")

        frame = thread.frames[segment.depth]
        frame.function = segment.function
        frame.block = segment.block
        frame.index = segment.lo
        frame.regs = dict(attempt.pre_regs)

        # Havoc every overwritten memory word (paper §2.4): its pre-value
        # is the forced-fresh symbol if the segment read it first, else a
        # brand new unconstrained symbol.
        for addr in attempt.first_write:
            pre = force_fresh.get(addr)
            if pre is None:
                pre = child.fresh(f"m_{addr:x}_")
            child.memory.write(addr, pre)

        # Rewind allocator and liveness bookkeeping.
        if attempt.alloc_bases:
            consumed = set(attempt.alloc_bases)
            child.set_remaining_allocs(
                (b, s) for b, s in child.remaining_allocs if b not in consumed)
        for base in attempt.free_bases:
            child.set_live_at_start(base, True)

        # Rewind lock ownership to the segment's required pre-state.
        for addr, owner in lock_pre.items():
            child.set_lock_owner(addr, owner)

        child.append_constraints(new_constraints, solver_ctx=child_ctx)
        child.input_sym_names = (tuple(s.name for s in attempt.input_syms)
                                 + child.input_sym_names)
        if segment.kind is SegmentKind.TRAP:
            child.trap_pending = False
        if snapshot.trap_pending and segment.kind is SegmentKind.NORMAL:
            # Deadlock coredumps take a NORMAL first segment.
            child.trap_pending = False


def _stack_base(tid: int) -> int:
    from repro.ir.module import STACK_WINDOW, STACKS_BASE

    return STACKS_BASE + tid * STACK_WINDOW


# ----------------------------------------------------------------------
# Instruction-level execution context
# ----------------------------------------------------------------------


class _ExecContext:
    """Executes the instructions of one segment under S_pre hypotheses."""

    def __init__(self, executor: SegmentExecutor, snapshot: SymbolicSnapshot,
                 child: SymbolicSnapshot, segment: Segment, attempt: _Attempt,
                 force_fresh: Dict[int, Sym], frame: SnapFrame,
                 alloc_plan: List[int]):
        self.executor = executor
        self.module = executor.module
        self.solver = executor.solver
        self.snapshot = snapshot
        self.child = child
        self.segment = segment
        self.attempt = attempt
        self.force_fresh = force_fresh
        self.frame = frame
        self.alloc_plan = list(alloc_plan)
        self.pc = PC(segment.function, segment.block, segment.lo)

    # -- values ------------------------------------------------------------

    def value(self, op: Operand) -> Expr:
        if isinstance(op, Imm):
            return Const(op.value)
        regs = self.attempt.cur_regs
        if op not in regs:
            # Reading a register unknown at S_post: it must have held
            # *some* value — a fresh unconstrained symbol, recorded in
            # S_pre so the hypothesis stays consistent.
            fresh = self.child.fresh(f"r_{op.name}_")
            regs[op] = fresh
            self.attempt.pre_regs[op] = fresh
        return regs[op]

    def provenance(self, op: Operand) -> FrozenSet[str]:
        if isinstance(op, Reg):
            return self.attempt.prov.get(op, frozenset())
        return frozenset()

    def set_reg(self, reg: Reg, value: Expr,
                prov: FrozenSet[str] = frozenset()) -> None:
        self.attempt.cur_regs[reg] = value
        self.attempt.prov[reg] = prov

    # -- memory -------------------------------------------------------------

    def concretize_addr(self, expr: Expr, what: str,
                        value_hint: Optional[Expr] = None) -> int:
        if isinstance(expr, Const):
            return expr.value
        if self.executor.incremental:
            value, unique = self.solver.unique_value_extended(
                self.snapshot.solver_ctx, tuple(self.attempt.constraints),
                expr)
        else:
            constraints = (list(self.child.constraints)
                           + self.attempt.constraints)
            value, unique = self.solver.unique_value(constraints, expr)
        if value is None:
            raise _Prune(f"unsolvable symbolic {what} address")
        if not unique:
            pinned = self._value_guided_address(expr, value_hint)
            if pinned is None:
                raise _Prune(f"ambiguous symbolic {what} address")
            value = pinned
        # Pin the address so replay stays deterministic.
        self.attempt.constraints.append(bin_expr("eq", expr, Const(value)))
        return value

    def _probe_feasible(self, probe_delta: List[Expr]) -> bool:
        """Is ``snapshot constraints + attempt constraints + probe`` not
        provably UNSAT?"""
        delta = tuple(self.attempt.constraints) + tuple(probe_delta)
        if self.executor.incremental:
            result, _ = self.solver.solve_extended(
                self.snapshot.solver_ctx, delta, want_context=False)
            return not result.is_unsat
        constraints = list(self.child.constraints) + list(delta)
        return not self.solver.solve(constraints).is_unsat

    def _value_guided_address(self, addr_expr: Expr,
                              value_hint: Optional[Expr]) -> Optional[int]:
        """Resolve an under-constrained store address via the coredump.

        The paper omits symbolic-pointer handling; our rule: the store's
        final value must survive into S_post unless overwritten, so the
        plausible targets are exactly the S_post words holding that
        value.  If precisely one such address is feasible for the
        address expression, the coredump has disambiguated the pointer.
        """
        if value_hint is None or not isinstance(value_hint, Const):
            return None
        want = value_hint.value
        candidates: List[int] = []
        overlay = set(self.snapshot.memory.overlay)
        for addr, word in self.snapshot.coredump.memory.items():
            if word != want or addr in overlay:
                continue
            if self._probe_feasible([bin_expr("eq", addr_expr, Const(addr))]):
                candidates.append(addr)
                if len(candidates) > 1:
                    return None
        return candidates[0] if len(candidates) == 1 else None

    def mem_read(self, addr: int) -> Expr:
        self.attempt.read_addrs.add(addr)
        if addr in self.attempt.seg_mem:
            return self.attempt.seg_mem[addr]
        if addr in self.force_fresh:
            self.attempt.pre_reads.setdefault(addr, self.attempt.op_counter)
            return self.force_fresh[addr]
        # Provisional: value taken directly from S_post (paper §2.4);
        # the fixpoint re-runs with a fresh symbol if a later write to
        # this address invalidates the assumption.
        self.attempt.pre_reads.setdefault(addr, self.attempt.op_counter)
        return self.snapshot.memory.read(addr)

    def mem_write(self, addr: int, value: Expr) -> None:
        self.attempt.first_write.setdefault(addr, self.attempt.op_counter)
        self.attempt.seg_mem[addr] = value
        self.attempt.op_counter += 1

    # -- taint / overflow bookkeeping -----------------------------------------

    def _note_store(self, addr_expr: Expr, addr: int,
                    prov: FrozenSet[str]) -> None:
        taint_sources = set(self.child.input_sym_names)
        taint_sources.update(s.name for s in self.attempt.input_syms)
        if free_syms(addr_expr) & taint_sources:
            self.attempt.tainted_store = True
        layout = self.executor._layout
        for tag in prov:
            kind, _, name = tag.partition(":")
            if kind == "g" and name in self.module.globals:
                base = layout[name]
                size = self.module.globals[name].size
                if not base <= addr < base + size:
                    self.attempt.overflow = OverflowFinding(
                        "global", name, addr, self.pc)
            elif kind == "h":
                base = int(name)
                size = dict(self.snapshot.remaining_allocs).get(base)
                if size is None:
                    size = self.snapshot.coredump.heap.get(base, (0, False))[0]
                if size and not base <= addr < base + size:
                    self.attempt.overflow = OverflowFinding(
                        "heap", name, addr, self.pc)

    # -- normal instructions -------------------------------------------------

    def _n_const(self, instr) -> None:
        self.set_reg(instr.dst, Const(instr.value))

    def _n_gaddr(self, instr) -> None:
        self.set_reg(instr.dst, Const(self.executor._layout[instr.name]),
                     frozenset([f"g:{instr.name}"]))

    def _n_frameaddr(self, instr) -> None:
        self.set_reg(instr.dst, Const(self.frame.frame_base + instr.offset),
                     frozenset([f"f:{self.segment.function}"]))

    def _n_mov(self, instr) -> None:
        self.set_reg(instr.dst, self.value(instr.src),
                     self.provenance(instr.src))

    def _n_bin(self, instr) -> None:
        a, b = self.value(instr.a), self.value(instr.b)
        if instr.op in ("udiv", "sdiv", "urem", "srem"):
            if isinstance(b, Const) and b.value == 0:
                raise _Prune("division by zero mid-segment")
            if not isinstance(b, Const):
                self.attempt.constraints.append(
                    bin_expr("ne", b, Const(0)))
        self.set_reg(instr.dst, bin_expr(instr.op, a, b),
                     self.provenance(instr.a) | self.provenance(instr.b))

    def _n_cmp(self, instr) -> None:
        self.set_reg(instr.dst,
                     bin_expr(instr.op, self.value(instr.a),
                              self.value(instr.b)))

    def _n_load(self, instr) -> None:
        addr_expr = self.value(instr.addr)
        addr = self.concretize_addr(addr_expr, "load")
        self.set_reg(instr.dst, self.mem_read(addr))

    def _n_store(self, instr) -> None:
        addr_expr = self.value(instr.addr)
        stored = self.value(instr.value)
        addr = self.concretize_addr(addr_expr, "store", value_hint=stored)
        self._note_store(addr_expr, addr, self.provenance(instr.addr))
        self.mem_write(addr, stored)

    def _n_alloc(self, instr) -> None:
        if not self.alloc_plan:
            raise _Prune("allocation with no coredump allocation left")
        base = self.alloc_plan.pop(0)
        size_expr = self.value(instr.size)
        recorded = dict(self.snapshot.remaining_allocs).get(base)
        if isinstance(size_expr, Const) and recorded is not None \
                and size_expr.value != recorded:
            raise _Prune("allocation size mismatch vs coredump")
        if not isinstance(size_expr, Const) and recorded is not None:
            self.attempt.constraints.append(
                bin_expr("eq", size_expr, Const(recorded)))
        self.attempt.alloc_bases.append(base)
        # Fresh allocations are zeroed by the VM.
        if recorded:
            for off in range(recorded):
                self.mem_write(base + off, Const(0))
        self.set_reg(instr.dst, Const(base), frozenset([f"h:{base}"]))

    def _n_free(self, instr) -> None:
        addr = self.concretize_addr(self.value(instr.addr), "free")
        self.attempt.free_bases.append(addr)

    def _n_input(self, instr) -> None:
        sym = self.child.fresh("in")
        self.attempt.input_syms.append(sym)
        self.set_reg(instr.dst, sym, frozenset(["in"]))

    def _n_output(self, instr) -> None:
        self.attempt.outputs.append((self.value(instr.value), self.pc))

    def _n_lock(self, instr) -> None:
        addr = self.concretize_addr(self.value(instr.addr), "lock")
        self.attempt.lock_events.append(("lock", addr))
        self.mem_write(addr, Const(1))

    def _n_unlock(self, instr) -> None:
        addr = self.concretize_addr(self.value(instr.addr), "unlock")
        self.attempt.lock_events.append(("unlock", addr))
        self.mem_write(addr, Const(0))

    def _n_assert(self, instr) -> None:
        cond = self.value(instr.cond)
        if isinstance(cond, Const) and cond.value == 0:
            raise _Prune("assert provably fails mid-segment")
        if not isinstance(cond, Const):
            self.attempt.constraints.append(truth_of(cond))

    def _n_call(self, instr) -> None:
        if instr.callee in self.executor.atomic_calls:
            self._exec_atomic_call(instr)
        else:
            raise _Prune("call mid-segment (should end the segment)")

    def exec_normal(self, instr: Instr) -> None:
        """Dispatch one non-final, non-terminator instruction through
        :data:`_NORMAL_HANDLERS` (one lookup on the instruction type)."""
        handler = _NORMAL_HANDLERS.get(type(instr))
        if handler is None:
            if isinstance(instr, (SpawnInst, JoinInst)):
                # spawn/join inside a suffix is a search boundary: the
                # thread set is fixed by the coredump in this reproduction.
                raise _Prune(
                    f"{type(instr).__name__} inside suffix unsupported")
            raise _Prune(f"unsupported instruction {instr!r}")
        handler(self, instr)
        self.attempt.op_counter += 1
        self.pc = PC(self.pc.function, self.pc.block, self.pc.index + 1)

    # -- final-instruction variants ----------------------------------------------

    def exec_trap_instr(self, instr: Instr) -> None:
        """The coredump's trapping instruction: evaluate, constrain, no commit."""
        trap = self.snapshot.coredump.trap
        if isinstance(instr, AssertInst):
            if trap.kind is not TrapKind.ASSERT_FAIL:
                raise _Prune("trap kind mismatch (assert)")
            cond = self.value(instr.cond)
            if isinstance(cond, Const) and cond.value != 0:
                raise _Prune("assert provably passes; cannot be the trap")
            if not isinstance(cond, Const):
                self.attempt.constraints.append(negate_bool(truth_of(cond)))
        elif isinstance(instr, (LoadInst, StoreInst)):
            if trap.kind not in (TrapKind.OUT_OF_BOUNDS, TrapKind.USE_AFTER_FREE):
                raise _Prune("trap kind mismatch (memory)")
            addr_expr = self.value(instr.addr)
            if trap.fault_addr is not None:
                self.attempt.constraints.append(
                    bin_expr("eq", addr_expr, Const(trap.fault_addr)))
        elif isinstance(instr, BinInst) and instr.op in ("udiv", "sdiv",
                                                         "urem", "srem"):
            if trap.kind is not TrapKind.DIV_BY_ZERO:
                raise _Prune("trap kind mismatch (div)")
            self.attempt.constraints.append(
                bin_expr("eq", self.value(instr.b), Const(0)))
        elif isinstance(instr, AbortInst):
            if trap.kind is not TrapKind.ABORT:
                raise _Prune("trap kind mismatch (abort)")
        elif isinstance(instr, FreeInst):
            if trap.kind not in (TrapKind.DOUBLE_FREE, TrapKind.INVALID_FREE):
                raise _Prune("trap kind mismatch (free)")
            addr_expr = self.value(instr.addr)
            if trap.fault_addr is not None:
                self.attempt.constraints.append(
                    bin_expr("eq", addr_expr, Const(trap.fault_addr)))
        elif isinstance(instr, (LockInst, UnlockInst)):
            if trap.kind not in (TrapKind.DEADLOCK, TrapKind.UNLOCK_NOT_HELD):
                raise _Prune("trap kind mismatch (sync)")
            addr_expr = self.value(instr.addr)
            if trap.fault_addr is not None:
                self.attempt.constraints.append(
                    bin_expr("eq", addr_expr, Const(trap.fault_addr)))
        else:
            raise _Prune(f"unsupported trapping instruction {instr!r}")
        self.attempt.op_counter += 1

    def exec_enter_call(self, instr: Instr, thread) -> None:
        if not isinstance(instr, CallInst):
            raise _Prune("enter-call segment does not end in a call")
        callee_frame = thread.frames[self.segment.depth + 1]
        func = self.module.function(instr.callee)
        if callee_frame.function != instr.callee:
            raise _Prune("call target does not match the S_post frame")
        for param, arg in zip(func.params, instr.args):
            arg_expr = self.value(arg)
            post_val = callee_frame.regs.get(param)
            if post_val is not None and post_val != arg_expr:
                self.attempt.constraints.append(
                    bin_expr("eq", arg_expr, post_val))
        self.attempt.op_counter += 1

    def exec_return(self, instr: Instr, thread) -> None:
        if not isinstance(instr, RetInst):
            raise _Prune("return segment does not end in ret")
        value = self.value(instr.value) if instr.value is not None else Const(0)
        if self.segment.depth == 0:
            # Root return: the value became the thread's recorded result.
            snap_thread = self.snapshot.threads[self.segment.tid]
            post_val = Const(snap_thread.return_value)
            if value != post_val:
                self.attempt.constraints.append(bin_expr("eq", value, post_val))
            self.attempt.op_counter += 1
            return
        caller_depth = self.segment.depth - 1
        caller = thread.frames[caller_depth]
        caller_block = self.module.function(caller.function).block(caller.block)
        call_instr = caller_block.instrs[caller.index - 1]
        if not isinstance(call_instr, CallInst):
            raise _Prune("return segment with no call site")
        if call_instr.dst is not None:
            post_val = caller.regs.get(call_instr.dst)
            if post_val is not None and post_val != value:
                self.attempt.constraints.append(bin_expr("eq", value, post_val))
            self.attempt.caller_dst_written = (caller_depth, call_instr.dst)
        self.attempt.op_counter += 1

    def exec_terminator(self, instr: Instr, post_frame: SnapFrame,
                        snapshot: SymbolicSnapshot, thread,
                        segment: Segment) -> None:
        required = thread.frames[segment.depth].block
        if isinstance(instr, BrInst):
            if instr.target != required:
                raise _Prune("branch target mismatch")
        elif isinstance(instr, CBrInst):
            cond = self.value(instr.cond)
            if instr.then_target == required and instr.else_target == required:
                pass
            elif instr.then_target == required:
                if isinstance(cond, Const):
                    if cond.value == 0:
                        raise _Prune("branch provably not taken")
                else:
                    self.attempt.constraints.append(truth_of(cond))
            elif instr.else_target == required:
                if isinstance(cond, Const):
                    if cond.value != 0:
                        raise _Prune("branch provably taken")
                else:
                    self.attempt.constraints.append(negate_bool(truth_of(cond)))
            else:
                raise _Prune("neither branch target matches")
        elif isinstance(instr, (RetInst, HaltInst, AbortInst)):
            raise _Prune("terminator cannot precede the S_post position")
        else:
            raise _Prune(f"unsupported terminator {instr!r}")
        self.attempt.op_counter += 1

    # -- atomic (re-executed) calls: the §6 hard-construct fallback ------------

    def _exec_atomic_call(self, instr: CallInst) -> None:
        """Execute a whole call concretely (hash-function re-execution).

        The paper (§6): "the inputs to the hash function may still be on
        the stack and RES could re-execute the function instead of
        reverse-analyzing it."  We require every value the callee touches
        to be concrete; otherwise the candidate is pruned — which is
        exactly the "hard construct" failure mode the ablation measures.
        """
        args: List[int] = []
        for arg in instr.args:
            expr = self.value(arg)
            if not isinstance(expr, Const):
                raise _Prune("hard-construct: symbolic input to atomic call")
            args.append(expr.value)
        result = self._run_concrete_function(instr.callee, args)
        if instr.dst is not None:
            self.set_reg(instr.dst, Const(result))

    def _run_concrete_function(self, name: str, args: List[int]) -> int:
        from repro.symex.expr import apply_op

        func = self.module.function(name)
        regs: Dict[Reg, int] = {p: a for p, a in zip(func.params, args)}
        if func.frame_words:
            raise _Prune("hard-construct: atomic callee uses frame memory")
        label, idx = func.entry, 0
        steps = 0
        while steps < self.executor.atomic_budget:
            steps += 1
            self.attempt.instr_count += 1
            block = func.block(label)
            instr = block.instrs[idx]
            if isinstance(instr, ConstInst):
                regs[instr.dst] = instr.value
            elif isinstance(instr, MovInst):
                regs[instr.dst] = self._concrete_val(regs, instr.src)
            elif isinstance(instr, (BinInst, CmpInst)):
                a = self._concrete_val(regs, instr.a)
                b = self._concrete_val(regs, instr.b)
                value = apply_op(instr.op, a, b)
                if value is None:
                    raise _Prune("hard-construct: division by zero")
                regs[instr.dst] = value
            elif isinstance(instr, LoadInst):
                addr = self._concrete_val(regs, instr.addr)
                loaded = self.mem_read(addr)
                if not isinstance(loaded, Const):
                    raise _Prune("hard-construct: symbolic memory in atomic call")
                regs[instr.dst] = loaded.value
            elif isinstance(instr, StoreInst):
                addr = self._concrete_val(regs, instr.addr)
                self.mem_write(addr, Const(self._concrete_val(regs, instr.value)))
            elif isinstance(instr, BrInst):
                label, idx = instr.target, 0
                continue
            elif isinstance(instr, CBrInst):
                cond = self._concrete_val(regs, instr.cond)
                label = instr.then_target if cond else instr.else_target
                idx = 0
                continue
            elif isinstance(instr, RetInst):
                if instr.value is None:
                    return 0
                return self._concrete_val(regs, instr.value)
            elif isinstance(instr, AssertInst):
                if self._concrete_val(regs, instr.cond) == 0:
                    raise _Prune("hard-construct: assert fails in atomic call")
            else:
                raise _Prune(f"hard-construct: {type(instr).__name__} in atomic call")
            idx += 1
        raise _Prune("hard-construct: atomic call budget exhausted")

    @staticmethod
    def _concrete_val(regs: Dict[Reg, int], op: Operand) -> int:
        if isinstance(op, Imm):
            return op.value
        if op not in regs:
            raise _Prune("hard-construct: unknown register in atomic call")
        return regs[op]


#: dispatch table for :meth:`_ExecContext.exec_normal`, keyed by IR
#: instruction type: one handler per instruction that can run inside a
#: segment.  Terminators and spawn/join have none.
_NORMAL_HANDLERS = {
    ConstInst: _ExecContext._n_const,
    GAddrInst: _ExecContext._n_gaddr,
    FrameAddrInst: _ExecContext._n_frameaddr,
    MovInst: _ExecContext._n_mov,
    BinInst: _ExecContext._n_bin,
    CmpInst: _ExecContext._n_cmp,
    LoadInst: _ExecContext._n_load,
    StoreInst: _ExecContext._n_store,
    AllocInst: _ExecContext._n_alloc,
    FreeInst: _ExecContext._n_free,
    InputInst: _ExecContext._n_input,
    OutputInst: _ExecContext._n_output,
    LockInst: _ExecContext._n_lock,
    UnlockInst: _ExecContext._n_unlock,
    AssertInst: _ExecContext._n_assert,
    CallInst: _ExecContext._n_call,
}

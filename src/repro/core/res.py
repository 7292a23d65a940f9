"""Reverse Execution Synthesis — the paper's contribution (§2).

The synthesizer starts from the coredump (the base case: S_post := C),
repeatedly enumerates candidate previous segments (CFG predecessors,
interprocedural steps via the dumped call stacks, and context switches
to other threads), reverse-synthesizes each candidate with the segment
executor, prunes hypotheses whose compatibility constraints are
unsatisfiable, and extends the suffix otherwise.

It is an *anytime* algorithm, exactly as §2.1 describes: "RES continues
building up suffixes by moving backward through the execution until the
user stops it."  :meth:`ReverseExecutionSynthesizer.suffixes` is a
generator of replay-verified suffixes of increasing length; callers
stop consuming when the suffix contains what they need (a root cause, a
triage signature, ...).  If the backward search exhausts *all*
hypotheses without finding any feasible suffix, the coredump is
inconsistent with the program — the §3.2 hardware-error signal.

Breadcrumb support (§2.4): when enabled, candidates whose control
transfer contradicts the coredump's Last Branch Record are discarded
before any symbolic execution, and output instructions are bound to the
error-log tail, shrinking both the search space and the solution space.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.errors import SynthesisError
from repro.ir.instructions import BrInst, CallInst, CBrInst
from repro.ir.module import Module
from repro.symex.expr import Const, Expr, bin_expr
from repro.symex.solver import Solver
from repro.vm.coredump import Coredump
from repro.vm.lbr import LBRMode
from repro.vm.state import PC
from repro.core.replay import ReplayReport, SuffixReplayer
from repro.core.segments import (
    CandidateEnumerator,
    Segment,
    SegmentKind,
    prev_boundary,
)
from repro.core.slice_exec import SegmentExecutor, SegmentResult
from repro.core.snapshot import SymbolicSnapshot
from repro.core.static_filter import WriterIndexFilter
from repro.core.suffix import ExecutionSuffix, SuffixStep


@dataclass
class RESConfig:
    """Tuning knobs of the backward search."""

    #: maximum suffix length in segments (backward steps)
    max_depth: int = 64
    #: maximum search nodes expanded before giving up
    max_nodes: int = 20_000
    #: replay-verify candidates before emitting them (§6's exactness filter)
    verify: bool = True
    #: use the coredump's Last Branch Record to prune candidates (§2.4)
    use_lbr: bool = False
    #: LBR recording mode of the producing VM (must match to be sound)
    lbr_mode: LBRMode = LBRMode.ALL
    #: bind suffix outputs to the coredump's error-log tail (§2.4)
    use_log: bool = False
    #: functions re-executed concretely instead of reverse-analyzed (§6)
    atomic_calls: FrozenSet[str] = frozenset()
    #: statically refute candidates whose constant stores contradict the
    #: snapshot before symbolically executing them (Figure 1's
    #: "determines statically which predecessors are possible")
    use_writer_index: bool = False
    #: incremental hot path: copy-on-write child snapshots, per-node
    #: solver contexts extended with only each candidate's delta
    #: constraints, a search-wide solver verdict cache, and model reuse
    #: on the replay path.  Disable to run the original from-scratch
    #: pipeline (the A/B baseline for the throughput benchmark).  Chained
    #: and flat solves agree by construction, so identical suffixes and
    #: prune counters from both modes check that the chaining machinery
    #: (snapshots, caches, model reuse) is exact.
    incremental: bool = True


@dataclass
class SynthesisStats:
    """Search effort counters (consumed by the benchmarks)."""

    nodes_expanded: int = 0
    candidates_generated: int = 0
    candidates_executed: int = 0
    pruned_by_lbr: int = 0
    pruned_by_writer_index: int = 0
    pruned_structural: int = 0
    pruned_incompatible: int = 0
    feasible_extensions: int = 0
    replays_attempted: int = 0
    replays_failed: int = 0
    #: failed replays per class of their first mismatch
    #: (``ReplayReport.failure``); classes that never failed are absent
    replays_failed_by_class: Dict[str, int] = field(default_factory=dict)
    suffixes_emitted: int = 0
    exhausted: bool = False
    first_step_infeasible: bool = False
    #: nodes whose every thread reached its start: full start-to-crash
    #: reconstructions ("RES would eventually either reconstruct a full
    #: start-to-finish execution path, or conclude that no such path
    #: exists", §2.1)
    complete_reconstructions: int = 0
    #: nodes that hit the depth horizon while still consistent
    max_depth_hits: int = 0
    #: solver effort (incremental-mode observability): total solve
    #: queries issued by this synthesizer and how many were answered
    #: from the shared verdict cache without a search
    solver_calls: int = 0
    solver_cache_hits: int = 0
    #: per-phase wall-clock seconds (candidate enumeration + static
    #: filters, symbolic segment execution, replay verification)
    time_enumerate: float = 0.0
    time_execute: float = 0.0
    time_replay: float = 0.0

    def phase_times(self) -> dict:
        """The drive's per-phase wall-clock split, keyed by the span
        names the flight recorder (``repro.obs``) emits.  A snapshot —
        callers get plain floats, never a live view of the counters."""
        return {
            "enumerate": self.time_enumerate,
            "execute": self.time_execute,
            "replay": self.time_replay,
        }


@dataclass
class SynthesizedSuffix:
    """A replay-verified suffix — RES's deliverable."""

    suffix: ExecutionSuffix
    report: ReplayReport

    @property
    def depth(self) -> int:
        return self.suffix.depth


@dataclass
class _Node:
    snapshot: SymbolicSnapshot
    #: steps in backward order (steps[0] is the latest segment)
    steps_backward: List[SuffixStep]
    lbr_cursor: int = 0
    log_cursor: int = 0

    @property
    def depth(self) -> int:
        return len(self.steps_backward)


class ReverseExecutionSynthesizer:
    """The RES engine for one ``(program, coredump)`` pair."""

    def __init__(self, module: Module, coredump: Coredump,
                 config: Optional[RESConfig] = None,
                 solver: Optional[Solver] = None):
        if coredump.module_name != module.name:
            raise SynthesisError(
                f"coredump is for module {coredump.module_name!r}, "
                f"not {module.name!r}")
        self.module = module
        self.coredump = coredump
        self.config = config or RESConfig()
        self.solver = solver or Solver()
        self.enumerator = CandidateEnumerator.for_module(
            module, atomic_fns=self.config.atomic_calls)
        self.executor = SegmentExecutor(
            module, solver=self.solver,
            atomic_calls=self.config.atomic_calls,
            incremental=self.config.incremental)
        self.replayer = SuffixReplayer(module, solver=self.solver)
        self.writer_index = WriterIndexFilter.for_module(module) \
            if self.config.use_writer_index else None
        self.stats = SynthesisStats()
        # The solver may be shared/injected: report only this
        # synthesizer's share of its counters.
        self._solver_calls_base = self.solver.stat_calls
        self._solver_hits_base = self.solver.stat_cache_hits

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def suffixes(self) -> Iterator[SynthesizedSuffix]:
        """Anytime stream of verified suffixes, shortest first."""
        root = _Node(snapshot=SymbolicSnapshot.initial(self.module,
                                                       self.coredump),
                     steps_backward=[])
        queue: Deque[_Node] = deque([root])
        try:
            while queue:
                if self.stats.nodes_expanded >= self.config.max_nodes:
                    return
                node = queue.popleft()
                if node.depth >= self.config.max_depth:
                    self.stats.max_depth_hits += 1
                    continue
                self.stats.nodes_expanded += 1
                children = self._expand(node)
                if not children and node.depth == 0:
                    self.stats.first_step_infeasible = True
                for child in children:
                    emitted = self._maybe_emit(child)
                    if emitted is not None:
                        yield emitted
                    queue.append(child)
            self.stats.exhausted = True
        finally:
            self._sync_solver_stats()

    def _sync_solver_stats(self) -> None:
        self.stats.solver_calls = self.solver.stat_calls \
            - self._solver_calls_base
        self.stats.solver_cache_hits = self.solver.stat_cache_hits \
            - self._solver_hits_base

    def export_solver_cache(self) -> dict:
        """JSON-safe snapshot of the solver's residual-component cache.

        Component verdicts are pure functions of their keys, so a
        snapshot taken after one search can prime another synthesizer
        over the same module (a warm triage worker, a resumed session)
        without any possibility of changing what that search finds —
        the warm-start contract the differential fuzzer's
        ``cache-primed`` oracle enforces."""
        return self.solver.export_component_cache()

    def prime_solver_cache(self, snapshot: Optional[dict]) -> int:
        """Adopt a previously exported component-cache snapshot into
        this synthesizer's solver; returns rows adopted (0 on None or
        mismatched solver caps — never a partial import)."""
        if not snapshot:
            return 0
        return self.solver.import_component_cache(snapshot)

    def synthesize(self, min_depth: int = 1,
                   max_suffixes: int = 1) -> List[SynthesizedSuffix]:
        """Collect up to ``max_suffixes`` verified suffixes of depth ≥
        ``min_depth`` (convenience wrapper over :meth:`suffixes`)."""
        found: List[SynthesizedSuffix] = []
        for item in self.suffixes():
            if item.depth >= min_depth:
                found.append(item)
                if len(found) >= max_suffixes:
                    break
        return found

    def build_suffix(self, node_steps_backward: List[SuffixStep],
                     snapshot: SymbolicSnapshot) -> ExecutionSuffix:
        return ExecutionSuffix(
            coredump=self.coredump,
            snapshot=snapshot,
            steps=list(reversed(node_steps_backward)),
            constraints=list(snapshot.constraints),
        )

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------

    def _expand(self, node: _Node) -> List[_Node]:
        children: List[_Node] = []
        phase_start = time.perf_counter()
        candidates = self.enumerator.candidates(node.snapshot)
        if not candidates and node.depth > 0:
            # Every thread is at its start: a full reconstruction.
            self.stats.complete_reconstructions += 1
        self.stats.candidates_generated += len(candidates)
        for segment in candidates:
            if self.writer_index is not None \
                    and self.writer_index.refutes(node.snapshot, segment):
                self.stats.pruned_by_writer_index += 1
                continue
            lbr_advance = 0
            if self.config.use_lbr:
                verdict, lbr_advance = self._lbr_filter(node, segment)
                if not verdict:
                    self.stats.pruned_by_lbr += 1
                    continue
            self.stats.candidates_executed += 1
            self.stats.time_enumerate += time.perf_counter() - phase_start
            result = self._execute_extending(node.snapshot, segment)
            phase_start = time.perf_counter()
            if not result.feasible:
                if "incompatible" in result.reason:
                    self.stats.pruned_incompatible += 1
                else:
                    self.stats.pruned_structural += 1
                continue
            child = _Node(
                snapshot=result.snapshot,
                steps_backward=node.steps_backward
                + [SuffixStep.from_result(result)],
                lbr_cursor=node.lbr_cursor + lbr_advance,
                log_cursor=node.log_cursor,
            )
            if self.config.use_log:
                if not self._bind_log(child, result):
                    self.stats.pruned_structural += 1
                    continue
            self.stats.feasible_extensions += 1
            children.append(child)
        self.stats.time_enumerate += time.perf_counter() - phase_start
        return children

    def _execute_extending(self, snapshot: SymbolicSnapshot,
                           segment: Segment) -> SegmentResult:
        """Execute a segment, widening it backward on address ambiguity.

        A minimal (boundary-to-boundary) segment can start *after* the
        instructions that computed a pointer it dereferences, leaving
        the address unconstrained.  Because RES synthesizes *some*
        feasible execution rather than the original one, it may choose a
        schedule with no preemption inside the block: extend the segment
        to the previous boundary and retry.  Extension stops at block
        start and at call-landing boundaries (frame structure changes).
        """
        phase_start = time.perf_counter()
        try:
            while True:
                result = self.executor.execute(snapshot, segment)
                if result.feasible or "symbolic" not in result.reason:
                    return result
                if segment.lo == 0:
                    return result
                block = self.module.function(segment.function).block(
                    segment.block)
                prev_instr = block.instrs[segment.lo - 1]
                if isinstance(prev_instr, CallInst) \
                        and prev_instr.callee not in self.config.atomic_calls:
                    return result  # cannot extend across a call landing
                new_lo = prev_boundary(block, segment.lo,
                                       self.config.atomic_calls)
                if new_lo >= segment.lo:
                    return result
                segment = replace(segment, lo=new_lo)
        finally:
            self.stats.time_execute += time.perf_counter() - phase_start

    # ------------------------------------------------------------------
    # Breadcrumbs
    # ------------------------------------------------------------------

    def _segment_transfer(self, segment: Segment) -> Optional[Tuple[PC, PC, bool]]:
        """The control transfer a segment would have put in the LBR,
        as ``(src, dst, inferable)``; None if it records none."""
        func = self.module.function(segment.function)
        block = func.block(segment.block)
        if segment.kind is SegmentKind.TRAP:
            return None
        if segment.kind is SegmentKind.ENTER_CALL:
            call_idx = segment.hi - 1
            callee = block.instrs[call_idx].callee  # type: ignore[attr-defined]
            entry = self.module.function(callee).entry
            return (PC(segment.function, segment.block, call_idx),
                    PC(callee, entry, 0), True)
        if segment.kind is SegmentKind.RETURN:
            # dst is the caller landing; src is the ret instruction.
            return None  # matched via the caller position instead
        if segment.hi == len(block.instrs):
            term = block.instrs[-1]
            if isinstance(term, BrInst):
                inferable = len(block.successors()) == 1
                return (PC(segment.function, segment.block, segment.hi - 1),
                        None, inferable)  # dst filled by caller
            if isinstance(term, CBrInst):
                return (PC(segment.function, segment.block, segment.hi - 1),
                        None, False)
        return None

    def _lbr_filter(self, node: _Node, segment: Segment) -> Tuple[bool, int]:
        """Check the candidate against the next-unconsumed LBR entry.

        Returns ``(keep, entries_consumed)``.  Once the ring is fully
        consumed, older segments are unconstrained.
        """
        lbr = self.coredump.lbr
        transfer = self._segment_transfer(segment)
        if transfer is None:
            return True, 0
        src, _dst, inferable = transfer
        if self.config.lbr_mode is LBRMode.FILTER_TRIVIAL and inferable:
            return True, 0  # this transfer was never recorded
        idx = len(lbr) - 1 - node.lbr_cursor
        if idx < 0:
            return True, 0  # ring exhausted: no evidence either way
        recorded_src, recorded_dst = lbr[idx]
        if recorded_src != src:
            return False, 0
        # Destination must be where the snapshot currently stands.
        snap_thread = node.snapshot.threads[segment.tid]
        dst_frame = snap_thread.frames[min(segment.depth,
                                           len(snap_thread.frames) - 1)]
        if segment.kind is SegmentKind.ENTER_CALL:
            expected_dst = PC(snap_thread.top.function, snap_thread.top.block, 0)
        else:
            expected_dst = PC(dst_frame.function, dst_frame.block, 0)
        if recorded_dst != expected_dst:
            return False, 0
        return True, 1

    def _bind_log(self, child: _Node, result: SegmentResult) -> bool:
        """Bind the segment's outputs to the error-log tail (backward).

        The bindings are collected first and appended through the
        snapshot's constraint API only once the whole tail matches:
        the child snapshot structurally shares state with its parent
        and siblings, so in-place mutation of its constraint list
        would corrupt every node sharing it (and would leak partial
        bindings from rejected candidates).
        """
        tail = self.coredump.log_tail
        bound: List[Expr] = []
        cursor = child.log_cursor
        for expr, pc in reversed(result.outputs):
            idx = len(tail) - 1 - cursor
            if idx < 0:
                break  # older than the retained log: unconstrained
            tid, value, logged_pc = tail[idx]
            if tid != result.segment.tid or logged_pc != pc:
                return False
            bound.append(bin_expr("eq", expr, Const(value)))
            cursor += 1
        child.log_cursor = cursor
        if bound:
            ctx = child.snapshot.solver_ctx
            if self.config.incremental and ctx is not None:
                child.snapshot.append_constraints(
                    bound, solver_ctx=self.solver.extend_context(ctx, bound))
            else:
                child.snapshot.append_constraints(bound)
        return True

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------

    def _maybe_emit(self, node: _Node) -> Optional[SynthesizedSuffix]:
        suffix = self.build_suffix(node.steps_backward, node.snapshot)
        if not self.config.verify:
            self.stats.suffixes_emitted += 1
            return SynthesizedSuffix(suffix=suffix,
                                     report=ReplayReport(ok=False, mismatches=[
                                         "verification disabled"]))
        self.stats.replays_attempted += 1
        # The compatibility check that admitted this node already solved
        # exactly this conjunction, reaching the verdict a flat solve
        # would: replay takes it whatever it is (a suffix admitted on
        # UNKNOWN fails replay without a suffix-deep re-solve).
        presolved = None
        if self.config.incremental:
            ctx = node.snapshot.solver_ctx
            if ctx is not None and ctx.result is not None \
                    and len(ctx.constraints) == len(suffix.constraints):
                presolved = ctx.result
        phase_start = time.perf_counter()
        report = self.replayer.replay(suffix, presolved=presolved)
        self.stats.time_replay += time.perf_counter() - phase_start
        if not report.ok:
            self.stats.replays_failed += 1
            by_class = self.stats.replays_failed_by_class
            by_class[report.failure] = by_class.get(report.failure, 0) + 1
            return None
        self.stats.suffixes_emitted += 1
        return SynthesizedSuffix(suffix=suffix, report=report)

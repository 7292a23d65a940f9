"""Segment/boundary unit behaviour (the schedule-exact refinement)."""

import pytest

from repro.ir.instructions import (
    CallInst,
    JoinInst,
    LoadInst,
    SpawnInst,
    StoreInst,
)
from repro.minic import compile_source
from repro.vm import RunStatus, VM
from repro.core import CandidateEnumerator, SegmentKind, SymbolicSnapshot
from repro.core.segments import Segment, boundaries, prev_boundary


def block_of(src, func="main", label="entry"):
    module = compile_source(src)
    return module, module.function(func).block(label)


def test_shared_effect_instructions_open_boundaries():
    module, block = block_of("""
global int g;
func main() {
    int a = 1;
    g = a;
    int b = g;
    return b;
}
""")
    points = boundaries(block)
    store_idx = next(i for i, ins in enumerate(block.instrs)
                     if isinstance(ins, StoreInst))
    load_idx = next(i for i, ins in enumerate(block.instrs)
                    if isinstance(ins, LoadInst))
    assert store_idx in points
    assert load_idx in points
    assert 0 in points


def test_call_landing_creates_boundary():
    module, block = block_of("""
func callee(int a) { return a; }
func main() {
    int r = callee(1);
    return r;
}
""")
    call_idx = next(i for i, ins in enumerate(block.instrs)
                    if isinstance(ins, CallInst))
    assert call_idx + 1 in boundaries(block)


def test_atomic_call_suppresses_landing_boundary():
    module, block = block_of("""
func callee(int a) { return a; }
func main() {
    int r = callee(1);
    return r;
}
""")
    call_idx = next(i for i, ins in enumerate(block.instrs)
                    if isinstance(ins, CallInst))
    plain = boundaries(block)
    atomic = boundaries(block, frozenset({"callee"}))
    assert call_idx + 1 in plain
    assert call_idx + 1 not in atomic


def test_prev_boundary_is_strictly_below():
    module, block = block_of("""
global int g;
func main() {
    g = 1;
    g = 2;
    return 0;
}
""")
    points = boundaries(block)
    for point in points:
        assert prev_boundary(block, point) < point or point == 0


def crash_snapshot(src, inputs=()):
    module = compile_source(src)
    result = VM(module, inputs=list(inputs)).run()
    assert result.status is RunStatus.TRAPPED
    return module, SymbolicSnapshot.initial(module, result.coredump)


def test_candidates_for_merge_block_cover_all_preds():
    module, snap = crash_snapshot("""
global int g;
func main() {
    int v = input();
    if (v) { g = 1; } else { g = 2; }
    assert(g == 3, "always");
    return 0;
}
""", inputs=[1])
    enum = CandidateEnumerator(module)
    trap = enum.trap_segment(snap)
    from repro.core.slice_exec import SegmentExecutor

    result = SegmentExecutor(module).execute(snap, trap)
    assert result.feasible
    result.snapshot.trap_pending = False
    # walk back until we sit at the merge block's start
    inner = result.snapshot
    enumr = CandidateEnumerator(module)
    for _ in range(8):
        cands = enumr.candidates(inner)
        top = inner.threads[0].top
        if top.index == 0 and len(cands) >= 2:
            assert {c.block for c in cands} == {"then1", "else2"}
            return
        assert cands, "ran out of candidates before reaching the merge"
        step = SegmentExecutor(module).execute(inner, cands[0])
        assert step.feasible
        inner = step.snapshot
    pytest.fail("never reached the merge block")


def test_finished_thread_yields_root_return_candidates():
    module, snap = crash_snapshot("""
global int flag;
func worker(int u) { flag = 1; return 0; }
func main() {
    int t = spawn worker(0);
    int w = 0;
    while (flag == 0) { w = w + 1; }
    assert(flag == 2, "boom");
    return 0;
}
""")
    enum = CandidateEnumerator(module)
    snap.trap_pending = False
    worker_thread = snap.threads[1]
    if not worker_thread.frames:  # worker finished before the dump
        cands = enum.thread_candidates(snap, 1)
        assert cands
        assert all(c.kind is SegmentKind.RETURN for c in cands)
        assert all(c.function == "worker" for c in cands)


def test_dispatch_table_has_one_handler_per_segment_instruction():
    """The symbolic executor dispatches on the IR instruction type: one
    handler for every instruction a segment can run, i.e. every
    ``Instr`` subclass except terminators and spawn/join."""
    from repro.core import slice_exec
    from repro.ir import instructions

    thread_ops = (instructions.SpawnInst, instructions.JoinInst)
    runnable = {cls for cls in vars(instructions).values()
                if isinstance(cls, type)
                and issubclass(cls, instructions.Instr)
                and cls is not instructions.Instr
                and not cls.__new__(cls).is_terminator()
                and cls not in thread_ops}
    assert instructions.StoreInst in runnable
    assert set(slice_exec._NORMAL_HANDLERS) == runnable


@pytest.mark.parametrize("kind", [SpawnInst, JoinInst])
def test_spawn_or_join_reaching_the_dispatcher_prunes(kind):
    module, snap = crash_snapshot("""
global int flag;
func worker(int u) { flag = 1; return 0; }
func main() {
    int t = spawn worker(0);
    join(t);
    assert(flag == 2, "boom");
    return 0;
}
""")
    from repro.core.slice_exec import SegmentExecutor

    block = module.function("main").block("entry")
    index = next(i for i, ins in enumerate(block.instrs)
                 if isinstance(ins, kind))
    segment = Segment(tid=0, function="main", block="entry", lo=index,
                      hi=index + 1, kind=SegmentKind.NORMAL, depth=0)
    result = SegmentExecutor(module).execute(snap, segment)
    assert not result.feasible
    assert result.reason == f"{kind.__name__} inside suffix unsupported"

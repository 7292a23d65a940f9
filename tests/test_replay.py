"""Replayer unit behaviour: materialization, schedule driving, verification."""

import pytest

from repro.minic import compile_source
from repro.vm import RunStatus, VM
from repro.core import RESConfig, ReverseExecutionSynthesizer
from repro.core.replay import SuffixReplayer
from repro.symex import Const, Sym, bin_expr


SIMPLE = """
global int g;
func main() {
    int v = input();
    g = v + 1;
    assert(g == 0, "boom");
    return 0;
}
"""


def synthesize_one(src=SIMPLE, inputs=(41,), depth=12):
    module = compile_source(src)
    result = VM(module, inputs=list(inputs)).run()
    assert result.status is RunStatus.TRAPPED
    res = ReverseExecutionSynthesizer(module, result.coredump,
                                      RESConfig(max_depth=depth))
    deepest = None
    for s in res.suffixes():
        deepest = s
    assert deepest is not None
    return module, result.coredump, deepest


def test_replay_is_idempotent():
    module, dump, deepest = synthesize_one()
    replayer = SuffixReplayer(module)
    first = replayer.replay(deepest.suffix)
    second = replayer.replay(deepest.suffix)
    assert first.ok and second.ok
    assert first.inputs == second.inputs


def test_replay_report_carries_trace_and_model():
    module, dump, deepest = synthesize_one()
    report = SuffixReplayer(module).replay(deepest.suffix)
    assert report.trace is not None and len(report.trace) > 0
    assert report.model is not None


def test_replay_detects_poisoned_constraints():
    """If the suffix's constraint set is made unsatisfiable, replay
    refuses to materialize rather than producing garbage."""
    module, dump, deepest = synthesize_one()
    poisoned = deepest.suffix
    poisoned.constraints = poisoned.constraints + [
        bin_expr("eq", Const(1), Const(2))
    ]
    report = SuffixReplayer(module).replay(poisoned)
    assert not report.ok
    assert any("materialize" in m for m in report.mismatches)


def test_replay_detects_corrupted_coredump_memory():
    """Tampering with the coredump after synthesis must break the
    word-for-word verification."""
    module, dump, deepest = synthesize_one()
    layout = module.layout()
    dump.memory[layout["g"]] ^= 1 << 7
    report = SuffixReplayer(module).replay(deepest.suffix)
    assert not report.ok
    assert any("memory mismatch" in m or "register" in m or "trap" in m
               for m in report.mismatches)


def test_replay_verifies_failing_thread_registers():
    module, dump, deepest = synthesize_one()
    frame = dump.failing_thread.frames[0]
    victim = next(iter(frame.regs))
    frame.regs[victim] = frame.regs[victim] + 1
    report = SuffixReplayer(module).replay(deepest.suffix)
    # either the register check or (if the register feeds memory) the
    # memory check must catch it
    assert not report.ok


def test_replay_heap_state_reconstruction():
    src = """
global int sink;
func main() {
    int p = malloc(3);
    p[0] = 7;
    p[1] = 8;
    sink = p[0] + p[1];
    assert(sink == 0, "boom");
    return 0;
}
"""
    module, dump, deepest = synthesize_one(src=src, inputs=(), depth=20)
    report = SuffixReplayer(module).replay(deepest.suffix)
    assert report.ok


def test_replay_verifies_suffixes_through_a_negative_initializer():
    """The dump holds the canonical word of ``g = -2`` and so does every
    replay, so the suffixes RES finds verify instead of failing on
    registers that are equal modulo 2^64."""
    module = compile_source("""
global int g = -2;
func main() {
    int v = input();
    int w = g | 0;
    if (v > 3) {
        w = w ^ v;
    }
    assert(w == 0, "w is not zero");
    return 0;
}
""")
    result = VM(module, inputs=[1]).run()
    assert result.status is RunStatus.TRAPPED
    res = ReverseExecutionSynthesizer(module, result.coredump,
                                      RESConfig(max_depth=12))
    suffixes = list(res.suffixes())
    assert suffixes
    assert res.stats.replays_attempted > 0
    assert res.stats.replays_failed == 0

"""Replayer unit behaviour: materialization, schedule driving, verification."""

import copy
import dataclasses

import pytest

from repro.ir.instructions import Reg
from repro.ir.module import HEAP_BASE
from repro.minic import compile_source
from repro.vm import RunStatus, VM
from repro.vm.coredump import TrapKind
from repro.vm.minidump import minidump_of
from repro.vm.state import PC
from repro.core import RESConfig, ReverseExecutionSynthesizer
from repro.core.replay import ReplayReport, SuffixReplayer
from repro.fuzz.triage_corpus import build_labeled_corpus
from repro.symex import Const, Sym, bin_expr
from repro.workloads import (DEADLOCK_ABBA, MINIDUMP_BLINDSPOT, REGISTRY,
                             TRIAGE_PROGRAM)


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


# ---------------------------------------------------------------------------
# The live check against the capture-and-compare reference
# ---------------------------------------------------------------------------

def reference_verify(replayed, expected, check_trap=True):
    """Verification as a comparison of two coredumps: ``replayed`` is
    captured from the VM that drove the suffix.  The replayer reads
    that VM directly instead; both must report the same mismatches."""
    mismatches = []
    if check_trap:
        got, want = replayed.trap, expected.trap
        if got.kind is not want.kind or got.tid != want.tid \
                or got.pc != want.pc or got.fault_addr != want.fault_addr:
            mismatches.append(f"trap mismatch: got {got!r}, want {want!r}")
    available = getattr(expected, "available", None)
    for addr in set(replayed.memory) | set(expected.memory):
        if available is not None and not available(addr):
            continue
        got_word = replayed.memory.get(addr, 0)
        want_word = expected.memory.get(addr, 0)
        if got_word != want_word:
            mismatches.append(
                f"memory mismatch at {addr:#x}: got {got_word}, "
                f"want {want_word}")
            if len(mismatches) > 20:
                mismatches.append("... (more mismatches suppressed)")
                break
    want_thread = expected.threads[expected.trap.tid]
    got_thread = replayed.threads.get(expected.trap.tid)
    if got_thread is None:
        mismatches.append("failing thread missing from replay")
    elif len(got_thread.frames) != len(want_thread.frames):
        mismatches.append(
            f"failing thread has {len(got_thread.frames)} frames, "
            f"want {len(want_thread.frames)}")
    else:
        for depth, (got_frame, want_frame) in enumerate(
                zip(got_thread.frames, want_thread.frames)):
            if (got_frame.function, got_frame.block, got_frame.index) != \
                    (want_frame.function, want_frame.block, want_frame.index):
                mismatches.append(
                    f"frame {depth} position mismatch: "
                    f"{got_frame.pc} vs {want_frame.pc}")
                continue
            for reg, want_val in want_frame.regs.items():
                got_val = got_frame.regs.get(reg)
                if got_val != want_val:
                    mismatches.append(
                        f"frame {depth} register {reg!r}: "
                        f"got {got_val}, want {want_val}")
    return ReplayReport(ok=not mismatches, mismatches=mismatches)


def _mismatch_class(message):
    """The failure class a reference mismatch message belongs to."""
    if message.startswith("trap mismatch"):
        return "trap"
    if message.startswith("memory mismatch"):
        return "memory"
    if " register " in message:
        return "register"
    return "frame"


#: the replayer's own check, kept before any test patches it
live_verify = SuffixReplayer._verify


def assert_matches_reference(vm, trap, expected, check_trap=True):
    live = live_verify(vm, trap, expected, check_trap=check_trap)
    ref = reference_verify(vm.capture_coredump(trap), expected,
                           check_trap=check_trap)
    assert (live.ok, live.mismatches) == (ref.ok, ref.mismatches)
    assert live.failure == (_mismatch_class(ref.mismatches[0])
                            if ref.mismatches else None)
    return live


@pytest.fixture
def cross_checked(monkeypatch):
    """Every verification the replayer runs is also checked against the
    reference; the list collects each check's ``check_trap``."""
    checked = []

    def both(vm, trap, expected, check_trap=True):
        checked.append(check_trap)
        return assert_matches_reference(vm, trap, expected, check_trap)

    monkeypatch.setattr(SuffixReplayer, "_verify", staticmethod(both))
    return checked


def _exhaust(module, dump):
    res = ReverseExecutionSynthesizer(module, dump,
                                      RESConfig(max_depth=8, max_nodes=300))
    return sum(1 for _ in res.suffixes())


def test_live_check_equals_reference_on_the_fuzz_corpus(cross_checked):
    corpus = build_labeled_corpus(range(9000, 9056), duplicates=1)
    emitted = 0
    for entry in corpus.entries:
        module = corpus.programs[entry.program_key].compile()
        emitted += _exhaust(module, entry.report.coredump)
    assert len(corpus.entries) > 40
    assert emitted > 1000
    assert len(cross_checked) >= emitted


def test_live_check_equals_reference_on_every_workload(cross_checked):
    for name in REGISTRY.names():
        workload = REGISTRY.get(name)
        dump = workload.trigger()
        assert _exhaust(workload.module, dump) > 0, name
    assert False in cross_checked  # deadlock_abba: no trap to compare


def test_live_check_equals_reference_on_a_minidump(cross_checked):
    mini = minidump_of(MINIDUMP_BLINDSPOT.trigger())
    assert _exhaust(MINIDUMP_BLINDSPOT.module, mini) > 0
    assert cross_checked


def _fuzz_program(seed):
    corpus = build_labeled_corpus([seed])
    entry = corpus.entries[0]
    return corpus.programs[entry.program_key].compile(), entry.report.coredump


#: mutation subjects: a three-frame failing thread, and a two-frame one
#: whose dump's address set does not iterate in sorted order (so the
#: order of memory mismatches is pinned too)
SUBJECTS = {
    "triage_corpus": lambda: (TRIAGE_PROGRAM.module,
                              TRIAGE_PROGRAM.trigger()),
    "fuzz-9014": lambda: _fuzz_program(9014),
    "deadlock_abba": lambda: (DEADLOCK_ABBA.module,
                              DEADLOCK_ABBA.trigger()),
}


def _verified_replay(subject):
    """A factory of verified replays of ``subject``'s deepest suffix
    (each call returns a fresh VM left at the trap), and the dump."""
    module, dump = SUBJECTS[subject]()
    res = ReverseExecutionSynthesizer(module, dump,
                                      RESConfig(max_depth=8, max_nodes=300))
    suffix = list(res.suffixes())[-1].suffix
    replayer = SuffixReplayer(module)

    def fresh():
        report = replayer.replay(suffix)
        assert report.ok
        return report.vm

    return fresh, dump


def _failing_frames(vm, dump):
    return vm.threads[dump.trap.tid].frames


def _set_reg(frame, reg, value):
    frame.slots[frame.bfunc.reg_slots[reg.name]] = value


MUTATIONS = {
    "flip-memory-word": lambda vm, dump: vm.memory.words.__setitem__(
        min(dump.memory), dump.memory[min(dump.memory)] ^ 1),
    "flip-every-word": lambda vm, dump: vm.memory.words.update(
        {addr: word ^ 1 for addr, word in dump.memory.items()}),
    "new-nonzero-word": lambda vm, dump: vm.memory.words.__setitem__(
        max(dump.memory) + 7, 5),
    "new-zero-word": lambda vm, dump: vm.memory.words.__setitem__(
        max(dump.memory) + 7, 0),
    "undefine-register": lambda vm, dump: _set_reg(
        _failing_frames(vm, dump)[-1],
        next(iter(dump.failing_thread.frames[-1].regs)), None),
    "outer-frame-register": lambda vm, dump: _set_reg(
        _failing_frames(vm, dump)[0],
        next(iter(dump.failing_thread.frames[0].regs)),
        (next(iter(dump.failing_thread.frames[0].regs.values())) + 1)
        % (1 << 64)),
    "move-ip": lambda vm, dump: setattr(
        _failing_frames(vm, dump)[-1], "ip",
        (_failing_frames(vm, dump)[-1].ip + 1)
        % len(_failing_frames(vm, dump)[-1].bfunc.pcs)),
    "move-outer-ip": lambda vm, dump: setattr(
        _failing_frames(vm, dump)[0], "ip",
        _failing_frames(vm, dump)[0].ip - 1),
    "pop-frame": lambda vm, dump: _failing_frames(vm, dump).pop(),
    "register-the-function-lacks": lambda vm, dump:
        dump.failing_thread.frames[-1].regs.__setitem__(Reg("absent"), 0),
    "drop-failing-thread": lambda vm, dump: vm.threads.pop(dump.trap.tid),
}


@pytest.mark.parametrize("subject", ["triage_corpus", "fuzz-9014"])
@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_live_check_equals_reference_after_mutation(subject, mutation):
    fresh, dump = _verified_replay(subject)
    assert len(dump.failing_thread.frames) >= 2
    vm = fresh()
    assert_matches_reference(vm, dump.trap, dump)  # verifies as is
    MUTATIONS[mutation](vm, dump)
    live = assert_matches_reference(vm, dump.trap, dump)
    assert live.ok is (mutation == "new-zero-word")


def test_memory_mismatches_keep_the_reference_order_and_cap():
    fresh, dump = _verified_replay("fuzz-9014")
    vm = fresh()
    MUTATIONS["flip-every-word"](vm, dump)
    live = assert_matches_reference(vm, dump.trap, dump)
    assert live.mismatches[-1] == "... (more mismatches suppressed)"
    # The dump's heap words do not iterate in address order.
    vm = fresh()
    heap = [addr for addr in set(dump.memory) if addr >= HEAP_BASE]
    assert len(heap) > 1 and heap != sorted(heap)
    for addr in heap:
        vm.memory.words[addr] ^= 1
    live = assert_matches_reference(vm, dump.trap, dump)
    assert len(live.mismatches) == len(heap)


@pytest.mark.parametrize("field_name", ["kind", "tid", "pc", "fault_addr"])
def test_live_check_equals_reference_on_a_wrong_trap(field_name):
    fresh, dump = _verified_replay("triage_corpus")
    other = {"kind": TrapKind.ABORT, "tid": dump.trap.tid + 1,
             "pc": PC("main", "nowhere", 0), "fault_addr": 0x1234}
    trap = dataclasses.replace(dump.trap, **{field_name: other[field_name]})
    live = assert_matches_reference(fresh(), trap, dump)
    assert live.failure == "trap"


def test_live_check_equals_reference_without_the_trap_check():
    fresh, dump = _verified_replay("deadlock_abba")
    vm = fresh()
    assert_matches_reference(vm, dump.trap, dump, check_trap=False)
    vm.memory.words[min(dump.memory)] ^= 1
    live = assert_matches_reference(vm, dump.trap, dump, check_trap=False)
    assert live.failure == "memory"


def test_replay_sees_a_dump_mutated_between_two_replays():
    module, dump, deepest = synthesize_one()
    replayer = SuffixReplayer(module)
    assert replayer.replay(deepest.suffix).ok
    frame = dump.failing_thread.frames[-1]
    victim = next(iter(frame.regs))
    frame.regs[victim] = frame.regs[victim] + 1
    second = replayer.replay(deepest.suffix)
    assert not second.ok
    assert second.failure == "register"


def test_failed_replays_name_their_class():
    module, dump, deepest = synthesize_one()
    frame = dump.failing_thread.frames[-1]
    victim = next(iter(frame.regs))
    frame.regs[victim] += 1
    assert SuffixReplayer(module).replay(deepest.suffix).failure == "register"
    frame.regs[victim] -= 1
    dump.memory[module.layout()["g"]] ^= 1 << 7
    assert SuffixReplayer(module).replay(deepest.suffix).failure == "memory"
    dump.memory[module.layout()["g"]] ^= 1 << 7
    assert SuffixReplayer(module).replay(deepest.suffix).ok


def test_search_counts_failed_replays_by_class(monkeypatch):
    """Tampered register, tampered memory word and poisoned constraints:
    every replay of the search fails, each under its own class."""
    module, dump, _ = synthesize_one()
    tampered_register = copy.deepcopy(dump)
    frame = tampered_register.failing_thread.frames[-1]
    victim = next(iter(frame.regs))
    frame.regs[victim] += 1
    tampered_memory = copy.deepcopy(dump)
    tampered_memory.memory[module.layout()["g"]] ^= 1 << 7
    replay = SuffixReplayer.replay

    def search():
        res = ReverseExecutionSynthesizer(module, dump,
                                          RESConfig(max_depth=12))
        assert not list(res.suffixes())
        assert res.stats.replays_failed == res.stats.replays_attempted > 0
        return res.stats.replays_failed_by_class, res.stats.replays_failed

    for tampered, failure in ((tampered_register, "register"),
                              (tampered_memory, "memory")):
        monkeypatch.setattr(
            SuffixReplayer, "_verify",
            staticmethod(lambda vm, trap, expected, check_trap=True,
                         tampered=tampered:
                         live_verify(vm, trap, tampered, check_trap)))
        by_class, failed = search()
        assert by_class == {failure: failed}
    monkeypatch.setattr(SuffixReplayer, "_verify", staticmethod(live_verify))

    def poisoned(self, suffix, presolved=None):
        suffix.constraints = suffix.constraints + [
            bin_expr("eq", Const(1), Const(2))]
        return replay(self, suffix)

    monkeypatch.setattr(SuffixReplayer, "replay", poisoned)
    by_class, failed = search()
    assert by_class == {"materialize": failed}

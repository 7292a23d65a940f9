"""Concrete VM semantics: arithmetic, memory, threads, traps, coredumps."""

import json

import pytest

from repro.minic import compile_source
from repro.vm import (
    Coredump,
    RandomPreemptScheduler,
    RoundRobinScheduler,
    RunStatus,
    TrapKind,
    VM,
)


def run_main(body, inputs=(), check_bounds=True, globals_decl=""):
    src = f"{globals_decl}\nfunc main() {{ {body} }}"
    module = compile_source(src)
    vm = VM(module, inputs=list(inputs), check_bounds=check_bounds,
            record_trace=True)
    return vm.run(), module, vm


def test_arithmetic_and_output():
    result, _, _ = run_main("output(2 + 3 * 4); output(10 / 3); output(10 % 3); return 0;")
    assert result.status is RunStatus.EXITED
    assert result.outputs == [14, 3, 1]


def test_signed_division_truncates_toward_zero():
    result, _, _ = run_main("output(-7 / 2); return 0;")
    # -3 as an unsigned 64-bit word
    assert result.outputs == [(1 << 64) - 3]


def test_comparison_signedness():
    result, _, _ = run_main("output(-1 < 1); output(0 - 1 > 5); return 0;")
    assert result.outputs == [1, 0]


def test_wraparound():
    result, _, _ = run_main("int big = 1 << 63; output(big + big); return 0;")
    assert result.outputs == [0]


def test_division_by_zero_traps():
    result, _, _ = run_main("int z = input(); output(1 / z); return 0;", inputs=[0])
    assert result.trapped
    assert result.coredump.trap.kind is TrapKind.DIV_BY_ZERO


def test_assert_failure_traps_with_message():
    result, _, _ = run_main('assert(1 == 2, "nope"); return 0;')
    assert result.coredump.trap.kind is TrapKind.ASSERT_FAIL
    assert result.coredump.trap.message == "nope"


def test_abort_traps():
    result, _, _ = run_main('abort("bye");')
    assert result.coredump.trap.kind is TrapKind.ABORT


def test_halt_exits_with_code():
    result, _, _ = run_main("halt(7);")
    assert result.status is RunStatus.EXITED
    assert result.exit_code == 7


def test_global_out_of_bounds_traps():
    result, _, _ = run_main("buf[9] = 1; return 0;",
                            globals_decl="global int buf[4];")
    assert result.coredump.trap.kind is TrapKind.OUT_OF_BOUNDS
    assert result.coredump.trap.fault_addr is not None


def test_unchecked_mode_corrupts_silently():
    result, module, vm = run_main(
        "buf[4] = 99; output(canary); return 0;",
        globals_decl="global int buf[4];\nglobal int canary = 7;",
        check_bounds=False)
    assert result.status is RunStatus.EXITED
    assert result.outputs == [99]  # the overflow clobbered the canary


def test_heap_alloc_free_and_uaf():
    result, _, _ = run_main(
        "int p = malloc(2); *p = 1; free(p); output(*p); return 0;")
    assert result.coredump.trap.kind is TrapKind.USE_AFTER_FREE


def test_double_free_traps():
    result, _, _ = run_main("int p = malloc(1); free(p); free(p); return 0;")
    assert result.coredump.trap.kind is TrapKind.DOUBLE_FREE


def test_heap_guard_word_traps():
    result, _, _ = run_main("int p = malloc(2); p[2] = 5; return 0;")
    assert result.coredump.trap.kind is TrapKind.OUT_OF_BOUNDS


def test_inputs_consumed_in_order_then_zero():
    result, _, _ = run_main(
        "output(input()); output(input()); output(input()); return 0;",
        inputs=[5, 6])
    assert result.outputs == [5, 6, 0]


def test_call_and_return_value():
    src = """
func twice(int a) { return a * 2; }
func main() { output(twice(21)); return 0; }
"""
    vm = VM(compile_source(src))
    result = vm.run()
    assert result.outputs == [42]


def test_recursion():
    src = """
func fact(int n) {
    if (n <= 1) { return 1; }
    return n * fact(n - 1);
}
func main() { output(fact(6)); return 0; }
"""
    assert VM(compile_source(src)).run().outputs == [720]


def test_threads_join_and_locks():
    src = """
global int counter;
global int mtx;
func worker(int n) {
    int i = 0;
    while (i < n) {
        lock(&mtx);
        counter = counter + 1;
        unlock(&mtx);
        i = i + 1;
    }
    return 0;
}
func main() {
    int a = spawn worker(30);
    int b = spawn worker(30);
    join(a);
    join(b);
    output(counter);
    return 0;
}
"""
    module = compile_source(src)
    for seed in range(5):
        vm = VM(module, scheduler=RandomPreemptScheduler(seed=seed,
                                                         preempt_prob=0.5))
        result = vm.run()
        assert result.status is RunStatus.EXITED
        assert result.outputs == [60]


def test_unsynchronized_counter_loses_updates_under_some_schedule():
    src = """
global int counter;
func worker(int n) {
    int i = 0;
    while (i < n) {
        int old = counter;
        counter = old + 1;
        i = i + 1;
    }
    return 0;
}
func main() {
    int a = spawn worker(40);
    int b = spawn worker(40);
    join(a);
    join(b);
    output(counter);
    return 0;
}
"""
    module = compile_source(src)
    results = set()
    for seed in range(10):
        vm = VM(module, scheduler=RandomPreemptScheduler(seed=seed,
                                                         preempt_prob=0.5))
        results.add(vm.run().outputs[0])
    assert any(value < 80 for value in results), "no lost update observed"


def test_deadlock_detected():
    src = """
global int a;
global int b;
func t(int u) { lock(&b); lock(&a); unlock(&a); unlock(&b); return 0; }
func main() {
    int w = spawn t(0);
    lock(&a);
    lock(&b);
    unlock(&b);
    unlock(&a);
    join(w);
    return 0;
}
"""
    module = compile_source(src)
    kinds = set()
    for seed in range(40):
        vm = VM(module, scheduler=RandomPreemptScheduler(seed=seed,
                                                         preempt_prob=0.5))
        result = vm.run()
        if result.trapped:
            kinds.add(result.coredump.trap.kind)
    assert TrapKind.DEADLOCK in kinds


def test_self_relock_traps():
    result, _, _ = run_main("lock(&m); lock(&m); return 0;",
                            globals_decl="global int m;")
    assert result.coredump.trap.kind is TrapKind.DEADLOCK


def test_unlock_not_held_traps():
    result, _, _ = run_main("unlock(&m); return 0;",
                            globals_decl="global int m;")
    assert result.coredump.trap.kind is TrapKind.UNLOCK_NOT_HELD


def test_coredump_contains_full_state():
    result, module, _ = run_main(
        'int x = 5; g = x + 1; assert(g == 99, "bad"); return 0;',
        globals_decl="global int g;")
    dump = result.coredump
    layout = module.layout()
    assert dump.read(layout["g"]) == 6
    main_frame = dump.failing_thread.frames[0]
    assert main_frame.function == "main"
    assert dump.trap.pc.function == "main"


def test_coredump_json_roundtrip():
    result, _, _ = run_main('assert(0, "x"); return 0;')
    dump = result.coredump
    clone = Coredump.from_json(dump.to_json())
    assert clone.trap == dump.trap
    assert clone.memory == dump.memory
    assert clone.threads.keys() == dump.threads.keys()
    assert clone.bounds_checked == dump.bounds_checked
    for tid in dump.threads:
        assert clone.threads[tid].frames == dump.threads[tid].frames


NEGATIVE_GLOBAL = """
global int g = -2;
func main() {
    int v = g | 0;
    assert(v == 0, "g is not zero");
    return 0;
}
"""


def test_negative_initializer_is_a_canonical_word():
    """``global int g = -2;`` is the word 2^64 - 2 from the start, in
    memory and in every register that reads it."""
    module = compile_source(NEGATIVE_GLOBAL)
    dump = VM(module).run().coredump
    word = (1 << 64) - 2
    assert dump.memory[module.layout()["g"]] == word
    v = module.function("main").var_regs["v"]
    assert dump.failing_thread.frames[-1].regs[v] == word


def test_coredump_loads_both_spellings_of_a_word_as_one_dump():
    """A submitted dump may spell a word -2 or 2^64 - 2; both load as
    the canonical word, so they are one dump with one fingerprint."""
    module = compile_source(NEGATIVE_GLOBAL)
    payload = json.loads(VM(module).run().coredump.to_json())
    addr = str(module.layout()["g"])
    reg = module.function("main").var_regs["v"].name
    spellings = []
    for value in (-2, (1 << 64) - 2):
        payload["memory"][addr] = value
        payload["threads"]["0"]["frames"][-1]["regs"][reg] = value
        spellings.append(Coredump.from_json(json.dumps(payload)))
    negative, canonical = spellings
    assert negative.memory == canonical.memory
    assert negative.memory[int(addr)] == (1 << 64) - 2
    assert negative.threads[0].frames == canonical.threads[0].frames
    assert negative.fingerprint() == canonical.fingerprint()


def test_trace_records_reads_and_writes():
    result, module, _ = run_main(
        "g = 3; output(g); return 0;", globals_decl="global int g;")
    layout = module.layout()
    writes = [e for e in result.trace if any(w.addr == layout["g"]
                                             for w in e.writes)]
    reads = [e for e in result.trace if any(r.addr == layout["g"]
                                            for r in e.reads)]
    assert writes and reads


def test_round_robin_scheduler_is_deterministic():
    src = """
global int g;
func w(int n) { g = g + n; return 0; }
func main() {
    int a = spawn w(1);
    int b = spawn w(2);
    join(a);
    join(b);
    output(g);
    return 0;
}
"""
    module = compile_source(src)
    outs = {VM(module, scheduler=RoundRobinScheduler(quantum=3)).run().outputs[0]
            for _ in range(3)}
    assert len(outs) == 1


def test_budget_exhaustion():
    result, _, _ = run_main("while (1) { } return 0;")
    # infinite loop: run() must stop at the budget
    assert result.status is RunStatus.BUDGET_EXHAUSTED

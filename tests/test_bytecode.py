"""VM suite: compiler round trips, golden VM behaviour, interning
canonicity, and the solver's range-memo regression.

One VM (`vm/interpreter.py`) runs the compiled form of a module
(`ir/bytecode.py`): it produces every coredump, replays every suffix,
and drives the debugger.  Its observable behaviour — status, steps,
outputs, every trace event, and the coredump (trap, memory, registers,
LBR, log tail) — is pinned by golden digests, plus the
expression-interning invariants the symbolic side's caches depend on.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.fuzz.generator import generate_program
from repro.ir.bytecode import (
    compile_module,
    compile_program,
    disassemble,
    program_signature,
)
from repro.minic import compile_source
from repro.symex.expr import (
    ALL_OPS,
    BinExpr,
    Const,
    Sym,
    bin_expr,
    evaluate,
    evaluate_compiled,
)
from repro.symex.solver import Solver
from repro.vm import LBRMode, RandomPreemptScheduler, VM
from repro.workloads import REGISTRY
from repro.workloads.hwfaults import alu_miscompute


# ---------------------------------------------------------------------------
# Compiler: deterministic output, stable across recompilation
# ---------------------------------------------------------------------------

COMPILE_WORKLOADS = ["figure1_overflow", "atomicity_readcheck", "div_by_zero",
                "double_free", "race_counter", "branch_chain"]


@pytest.mark.parametrize("name", COMPILE_WORKLOADS)
def test_recompilation_is_a_fixpoint(name):
    """Compile → disassemble → recompile → disassemble must agree:
    the compiled form is a deterministic function of the module."""
    module = REGISTRY.get(name).module
    first = compile_module(module)
    second = compile_module(module)
    assert program_signature(first) == program_signature(second)
    assert disassemble(first) == disassemble(second)
    # the cached accessor hands back a program with the same signature
    assert program_signature(compile_program(module)) \
        == program_signature(first)


def test_disassembly_names_every_function():
    module = REGISTRY.get("figure1_overflow").module
    text = disassemble(compile_program(module))
    for name in module.functions:
        assert f"func {name}" in text


# ---------------------------------------------------------------------------
# Golden behaviour: the one VM reproduces the recorded digests exactly
# ---------------------------------------------------------------------------

# How these were made: every digest was recorded from the tree-walking
# interpreter this VM replaced, with global initializer words already
# canonical (masked to 64 bits), before that interpreter was deleted.
# At the time, the dispatch loop reproduced all of them.  The digests
# hold under any PYTHONHASHSEED.  A change that moves one changes what
# programs observably do; re-record only a change meant to do that.

_SCHED_SEEDS = range(8)
_LBR_CONFIGS = ((16, LBRMode.ALL), (4, LBRMode.FILTER_TRIVIAL))
_FUZZ_SEEDS = {"campaign": range(0, 200), "triage": range(9000, 9056),
               "intake": range(9100, 9220)}

#: per registry workload: seeds 0-7 x both LBR configs, traced
_WORKLOAD_GOLDENS = {
    "atomicity_readcheck": "bb617cfed8da6ec786f727d97ca91fe392eecf12777137e183ad90352c4d2450",
    "branch_chain": "2704422f941a69040ebc904f36514e303c6697d406256fb7f49c0c70bcfefb9d",
    "deadlock_abba": "02c57e4a8d677db014e5fd8f2ff8199787018cddd836fd9289b91f7e92142598",
    "div_by_zero": "46392801d215a58a2ec0f3ce10d66775b4f2943b5be1b009033f54d01266099e",
    "double_free": "e571e898093220c456fde0526791750781648036e05a0f5f9e67f61e30e22627",
    "figure1_overflow": "95635c82b37712616e43a7a13865dc61458ef4d8fdac8df72f7640496ebb3fd9",
    "hash_guard": "3aa54d9cde5845eab6ba04663a901b3497d781c00d21ce9752908bb03e3a9c44",
    "hash_guard_dead": "64ce17741c36970dae0c4ef0f55989cb267851e09446c9a48bc5cfbde61ea651",
    "hw_canary": "22a9f986440ef7c34adcc33a5371cc1445380b883ed6858fa7d7179cc6224ff1",
    "locked_counter": "e241ee403d6a47a896a6f8f859457cf2f4a6fb22f1bd710122c87dfe3b729f91",
    "minidump_blindspot": "6e8968b835f01dedb088518df4a56b33b57e7ea01109fafa0a8f29d9a98ca483",
    "race_counter": "526e86196e83c2236efb824e3e764c2e954141de4c5f2f8d7054cdc01ca62b0b",
    "race_flag": "12c2ab5ba65a9e262107c8e62b9714544ede7cee7d1a51bded7a0d5ecdfa2548",
    "tainted_overflow": "5e6f6735f4b6ae2c00e468b8d39b7875afa8dde410c3e7e23a85d599a4f7ef24",
    "triage_corpus": "dd521711d9180053cd0bc180086c73b8483093a998e5e669934c935d7912df05",
    "untainted_overflow": "76fbb9d9f4f209c569f065a205f29a95c33253384df7926c881f17189dbbd30e",
    "use_after_free": "0f5b916add6ffa96c4f742d56207cd52cd3530b420694c1f25fa0180ae50a8b7",
    "writer_tag": "b3a8fc93eb4c32a73c3d3596add940a65c4327a3ddab307f663491595784edc1",
}

#: per fuzz seed range: every armed program's run
_FUZZ_GOLDENS = {
    "campaign": "7aefeb3d2349264fb43dd96f4d09dce0a05ded71a924c32f9ea224faa7b2cdb8",
    "triage": "d042cbfb64e49d5c52c44e62ce3162a336171a4c9c19838ca7e6695553a519bb",
    "intake": "62083153f5ed71b4f7f31fd018cff9bb321103229a6ba0f34e89077f014c6047",
}

#: fingerprint of the online ALU-fault dump (the ``alu_fault`` hook)
_ALU_FAULT_GOLDEN = (
    "f4c6474a62e881d20308f5be71b604c13301772f4be1b9025069bb5eb067c3e6")


def _event_row(event):
    return (event.step, event.tid, event.pc.function, event.pc.block,
            event.pc.index, event.line,
            tuple((a.addr, a.value) for a in event.reads),
            tuple((a.addr, a.value) for a in event.writes),
            event.lock_acquired, event.lock_released,
            tuple(event.locks_held), event.input_value, event.output_value)


def _fingerprint(result):
    return result.coredump.fingerprint() if result.coredump else "-"


def test_workload_goldens_cover_the_registry():
    assert sorted(_WORKLOAD_GOLDENS) == sorted(REGISTRY.names())


@pytest.mark.parametrize("name", sorted(_WORKLOAD_GOLDENS))
def test_vm_matches_workload_golden(name):
    """Status, steps, outputs, every trace event and the dump."""
    workload = REGISTRY.get(name)
    digest = hashlib.sha256()
    for seed in _SCHED_SEEDS:
        for depth, mode in _LBR_CONFIGS:
            vm = VM(workload.module, inputs=list(workload.inputs),
                    scheduler=RandomPreemptScheduler(
                        seed=seed, preempt_prob=workload.preempt_prob),
                    check_bounds=workload.check_bounds, lbr_depth=depth,
                    lbr_mode=mode, record_trace=True)
            result = vm.run()
            digest.update(repr((seed, depth, mode.value,
                                result.status.value, result.steps,
                                result.exit_code,
                                result.outputs)).encode())
            for event in vm.trace.events:
                digest.update(repr(_event_row(event)).encode())
            digest.update(_fingerprint(result).encode())
    assert digest.hexdigest() == _WORKLOAD_GOLDENS[name]


@pytest.mark.parametrize("corpus", sorted(_FUZZ_GOLDENS))
def test_vm_matches_fuzz_golden(corpus):
    """The generated programs, including the calibration run that arms
    each one; negative global initializers are common here."""
    digest = hashlib.sha256()
    for seed in _FUZZ_SEEDS[corpus]:
        try:
            gen = generate_program(seed)
        except ReproError:
            digest.update(repr((seed, "gen-error")).encode())
            continue
        result = VM(gen.module, inputs=gen.inputs,
                    scheduler=gen.make_scheduler(),
                    lbr_depth=16).run(max_steps=500_000)
        digest.update(repr((seed, result.status.value, result.steps,
                            result.outputs,
                            _fingerprint(result))).encode())
    assert digest.hexdigest() == _FUZZ_GOLDENS[corpus]


def test_vm_matches_alu_fault_golden():
    assert alu_miscompute().coredump.fingerprint() == _ALU_FAULT_GOLDEN


# ---------------------------------------------------------------------------
# Interning: structurally-equal exprs are the same object
# ---------------------------------------------------------------------------

_ALL_OPS = sorted(ALL_OPS)


def _expr_strategy():
    leaves = st.one_of(
        st.integers(min_value=0, max_value=(1 << 64) - 1).map(Const),
        st.sampled_from(["a", "b", "c"]).map(Sym),
    )
    return st.recursive(
        leaves,
        lambda children: st.tuples(st.sampled_from(_ALL_OPS), children,
                                   children)
        .map(lambda t: bin_expr(t[0], t[1], t[2])),
        max_leaves=12,
    )


@settings(max_examples=120, deadline=None)
@given(_expr_strategy())
def test_interned_exprs_are_canonical(expr):
    """Rebuilding an expression from its own structure yields the very
    same object — the invariant every id()-keyed cache relies on."""
    def rebuild(e):
        if isinstance(e, Const):
            return Const(e.value)
        if isinstance(e, Sym):
            return Sym(e.name)
        return bin_expr(e.op, rebuild(e.a), rebuild(e.b))

    assert rebuild(expr) is expr


@settings(max_examples=120, deadline=None)
@given(_expr_strategy(),
       st.fixed_dictionaries({n: st.integers(min_value=0,
                                             max_value=(1 << 64) - 1)
                              for n in ("a", "b", "c")}))
def test_compiled_evaluator_matches_tree_walk(expr, model):
    assert evaluate_compiled(expr, model) == evaluate(expr, model)


# ---------------------------------------------------------------------------
# Range memo: repeated queries must hit, not re-walk
# ---------------------------------------------------------------------------

def test_range_memo_hits_grow_on_repeated_queries():
    """`expr_range` results are memoized by interned-expr identity; a
    context re-solved with the same residual must answer range queries
    from the memo (stat_range_hits strictly grows) and agree with the
    first verdict."""
    x, y = Sym("x"), Sym("y")
    constraints = (
        bin_expr("ult", x, Const(10)),
        bin_expr("eq", bin_expr("add", x, y), Const(12)),
        bin_expr("ult", y, Const(50)),
    )
    solver = Solver()
    ctx = solver.context_for(constraints)
    delta = (bin_expr("ne", x, Const(3)),)
    first, child = solver.solve_extended(ctx, delta)
    baseline = solver.stat_range_hits

    # Same structural delta against the same context: the verdict comes
    # from the delta cache, and any range work left re-uses the memo.
    again, _ = solver.solve_extended(ctx, delta, want_context=False)
    assert again.status is first.status

    # A sibling delta over the same interned sub-exprs must *hit* the
    # persistent range cache rather than re-walking the shared DAG.
    sibling = (bin_expr("ne", x, Const(4)),)
    solver.solve_extended(ctx, sibling, want_context=False)
    assert solver.stat_range_hits > baseline

"""Bytecode engine A/B suite: compiler round trips, VM equivalence,
interning canonicity, and the solver's range-memo regression.

The bytecode path (`ir/bytecode.py` + `vm/bytecode_vm.py`) is the
engine suffix replay runs on, and the tree-walking interpreter is its
reference: every observable — outputs, trap, coredump, trace event
stream — must be byte-identical between the two.  These tests pin that
contract at two layers (compiler and VM) plus the expression-interning
invariants the symbolic side's caches depend on.
"""

import pytest
from hypothesis import given, settings, strategies as st

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
from repro.vm import VM, RandomPreemptScheduler
from repro.vm.bytecode_vm import BytecodeVM
from repro.workloads import REGISTRY


# ---------------------------------------------------------------------------
# Compiler: deterministic output, stable across recompilation
# ---------------------------------------------------------------------------

AB_WORKLOADS = ["figure1_overflow", "atomicity_readcheck", "div_by_zero",
                "double_free", "race_counter", "branch_chain"]


@pytest.mark.parametrize("name", AB_WORKLOADS)
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
# Whole-VM A/B: the dispatch loop is observationally identical
# ---------------------------------------------------------------------------

def _run_both(module, inputs, seed=0, check_bounds=True):
    tree = VM(module, inputs=list(inputs),
              scheduler=RandomPreemptScheduler(seed=seed),
              check_bounds=check_bounds, record_trace=True)
    tree_result = tree.run()
    fast = BytecodeVM(module, inputs=list(inputs),
                      scheduler=RandomPreemptScheduler(seed=seed),
                      check_bounds=check_bounds, record_trace=True)
    fast_result = fast.run()
    return tree, tree_result, fast, fast_result


@pytest.mark.parametrize("name", AB_WORKLOADS)
def test_bytecode_vm_matches_tree_vm(name):
    workload = REGISTRY.get(name)
    tree, tr, fast, fr = _run_both(workload.module, workload.inputs,
                                   check_bounds=workload.check_bounds)
    assert fr.status is tr.status
    assert fr.outputs == tr.outputs
    assert list(fast.trace.events) == list(tree.trace.events)
    if tr.trapped:
        assert fr.trapped
        assert fr.coredump.to_json() == tr.coredump.to_json()


def test_bytecode_vm_matches_on_schedule_dependent_program():
    """Same scheduler seed ⇒ same interleaving ⇒ same lost update."""
    module = REGISTRY.get("race_counter").module
    for seed in range(12):
        _, tr, _, fr = _run_both(module, (), seed=seed)
        assert fr.status is tr.status
        assert fr.outputs == tr.outputs


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

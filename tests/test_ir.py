"""IR container, call graph, verifier, and printer tests."""

import pytest

from repro.errors import IRError
from repro.ir import (
    BasicBlock,
    BrInst,
    CBrInst,
    CallGraph,
    ConstInst,
    Function,
    GlobalVar,
    Imm,
    Module,
    Reg,
    RetInst,
    collect_problems,
    format_module,
    to_signed,
    to_unsigned,
    verify_module,
)
from repro.minic import compile_source


def diamond_function():
    func = Function(name="main")
    entry = func.add_block("entry")
    entry.instrs = [ConstInst(Reg("c"), 1), CBrInst(Reg("c"), "left", "right")]
    left = func.add_block("left")
    left.instrs = [BrInst("exit")]
    right = func.add_block("right")
    right.instrs = [BrInst("exit")]
    exit_block = func.add_block("exit")
    exit_block.instrs = [RetInst(Imm(0))]
    return func


def test_word_conversions():
    assert to_unsigned(-1) == (1 << 64) - 1
    assert to_signed((1 << 64) - 1) == -1
    assert to_signed(5) == 5
    assert to_unsigned(1 << 64) == 0


def test_block_successors():
    func = diamond_function()
    assert set(func.block("entry").successors()) == {"left", "right"}
    assert func.block("exit").successors() == ()


def test_predecessors():
    func = diamond_function()
    preds = func.predecessors()
    assert sorted(preds["exit"]) == ["left", "right"]
    assert preds["entry"] == []


def test_duplicate_block_rejected():
    func = Function(name="f")
    func.add_block("entry")
    with pytest.raises(IRError):
        func.add_block("entry")


def test_module_layout_and_global_at():
    module = Module(name="m")
    module.add_global(GlobalVar("a", size=2, init=[7, 8]))
    module.add_global(GlobalVar("b", size=1))
    layout = module.layout()
    assert layout["b"] == layout["a"] + 2
    assert module.global_at(layout["a"] + 1) == ("a", 1)
    assert module.global_at(layout["b"] + 5) is None
    mem = module.initial_global_memory()
    assert mem[layout["a"]] == 7 and mem[layout["a"] + 1] == 8
    assert mem[layout["b"]] == 0


def test_verify_detects_missing_terminator():
    module = Module(name="m")
    func = Function(name="main")
    block = func.add_block("entry")
    block.instrs = [ConstInst(Reg("x"), 1)]
    module.add_function(func)
    problems = collect_problems(module)
    assert any("terminator" in p for p in problems)


def test_verify_detects_branch_to_unknown_block():
    module = Module(name="m")
    func = Function(name="main")
    block = func.add_block("entry")
    block.instrs = [BrInst("nowhere")]
    module.add_function(func)
    assert any("unknown block" in p for p in collect_problems(module))


def test_verify_detects_unknown_callee_and_arity():
    module = compile_source("""
func callee(int a) { return a; }
func main() { callee(1); return 0; }
""")
    # sanity: compiled modules verify
    verify_module(module)


def test_callgraph():
    module = compile_source("""
func leaf(int a) { return a; }
func mid(int a) { return leaf(a); }
func main() { return mid(1); }
""")
    graph = CallGraph(module)
    sites = graph.call_sites_of("leaf")
    assert len(sites) == 1 and sites[0][0] == "mid"


def test_printer_round_includes_all_blocks():
    module = compile_source("""
global int g = 4;
func main() {
    if (g) { g = 1; } else { g = 2; }
    return 0;
}
""")
    text = format_module(module)
    assert "func @main" in text
    assert "global @g" in text
    for label in module.function("main").blocks:
        assert f"{label}:" in text

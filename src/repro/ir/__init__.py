"""Intermediate representation: instruction set, modules, CFG analyses."""

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
    WORD_BITS,
    WORD_MASK,
    to_signed,
    to_unsigned,
)
from repro.ir.module import (
    BasicBlock,
    Function,
    GlobalVar,
    GLOBALS_BASE,
    HEAP_BASE,
    Module,
    STACK_WINDOW,
    STACKS_BASE,
)
from repro.ir.cfg import CFG, CallGraph
from repro.ir.printer import format_function, format_module
from repro.ir.verify import collect_problems, verify_module

__all__ = [
    "AbortInst", "AllocInst", "AssertInst", "BasicBlock", "BinInst", "BrInst",
    "CFG", "CallGraph", "CallInst", "CBrInst", "CmpInst", "ConstInst",
    "FrameAddrInst", "FreeInst", "Function", "GAddrInst", "GLOBALS_BASE",
    "GlobalVar", "HEAP_BASE", "HaltInst", "Imm", "InputInst", "Instr",
    "JoinInst", "LoadInst", "LockInst", "Module", "MovInst", "Operand",
    "OutputInst", "Reg", "RetInst", "STACKS_BASE", "STACK_WINDOW",
    "SpawnInst", "StoreInst", "UnlockInst", "WORD_BITS", "WORD_MASK",
    "collect_problems", "format_function", "format_module", "to_signed",
    "to_unsigned", "verify_module",
]

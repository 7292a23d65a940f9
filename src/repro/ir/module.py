"""Containers of the IR: basic blocks, functions, globals, modules.

A :class:`Module` is the unit RES analyzes: it owns the functions (and
therefore the CFG the backward search navigates) and the global memory
layout, which fixes the addresses that appear in coredumps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import IRError
from repro.ir.instructions import Instr, Reg, WORD_MASK

#: First address of the global data segment.
GLOBALS_BASE = 0x1000
#: First address of the heap segment.
HEAP_BASE = 0x100000
#: First address of the stack segment; each thread gets a disjoint window.
STACKS_BASE = 0x10000000
#: Size in words of one thread's stack window.
STACK_WINDOW = 0x10000


@dataclass(frozen=True)
class PC:
    """A program counter: function, block label, instruction index."""

    function: str
    block: str
    index: int

    def __repr__(self) -> str:
        return f"{self.function}:{self.block}[{self.index}]"


@dataclass
class BasicBlock:
    """A straight-line run of instructions ending in a terminator."""

    label: str
    instrs: List[Instr] = field(default_factory=list)

    @property
    def terminator(self) -> Instr:
        if not self.instrs or not self.instrs[-1].is_terminator():
            raise IRError(f"block {self.label} has no terminator")
        return self.instrs[-1]

    def successors(self) -> Tuple[str, ...]:
        """Labels of intra-function successor blocks."""
        from repro.ir.instructions import BrInst, CBrInst

        term = self.terminator
        if isinstance(term, BrInst):
            return (term.target,)
        if isinstance(term, CBrInst):
            if term.then_target == term.else_target:
                return (term.then_target,)
            return (term.then_target, term.else_target)
        return ()

    def __repr__(self) -> str:
        return f"<block {self.label}: {len(self.instrs)} instrs>"


@dataclass
class Function:
    """An IR function: parameters, blocks, and debug metadata.

    Attributes:
        params: registers that receive the arguments, in order.
        blocks: label → block; ``entry`` must exist.
        frame_words: words of stack frame needed for address-taken
            locals and local arrays (laid out by the compiler).
        var_regs: debug info — source variable name → register.
        frame_vars: debug info — source variable name → frame offset.
    """

    name: str
    params: List[Reg] = field(default_factory=list)
    blocks: Dict[str, BasicBlock] = field(default_factory=dict)
    entry: str = "entry"
    frame_words: int = 0
    var_regs: Dict[str, Reg] = field(default_factory=dict)
    frame_vars: Dict[str, int] = field(default_factory=dict)

    def block(self, label: str) -> BasicBlock:
        try:
            return self.blocks[label]
        except KeyError:
            raise IRError(f"function {self.name} has no block {label!r}") from None

    def add_block(self, label: str) -> BasicBlock:
        if label in self.blocks:
            raise IRError(f"duplicate block {label!r} in function {self.name}")
        block = BasicBlock(label)
        self.blocks[label] = block
        return block

    def predecessors(self) -> Dict[str, List[str]]:
        """Label → labels of predecessor blocks (the map RES walks)."""
        preds: Dict[str, List[str]] = {label: [] for label in self.blocks}
        for label, block in self.blocks.items():
            for succ in block.successors():
                if succ not in preds:
                    raise IRError(
                        f"{self.name}:{label} branches to unknown block {succ!r}"
                    )
                preds[succ].append(label)
        return preds

    def iter_instrs(self) -> Iterator[Tuple[str, int, Instr]]:
        """Yield ``(label, index, instr)`` over the whole function."""
        for label, block in self.blocks.items():
            for idx, instr in enumerate(block.instrs):
                yield label, idx, instr

    def __repr__(self) -> str:
        return f"<function {self.name}({len(self.params)} params, {len(self.blocks)} blocks)>"


@dataclass
class GlobalVar:
    """A module-level variable occupying ``size`` consecutive words."""

    name: str
    size: int = 1
    init: Optional[List[int]] = None

    def initial_words(self) -> List[int]:
        """The initializer as canonical machine words in [0, 2^64):
        ``global int g = -2;`` starts as the word 2^64 - 2, exactly as
        if the program had stored -2 there."""
        words = [word & WORD_MASK for word in self.init or ()]
        if len(words) > self.size:
            raise IRError(f"global {self.name}: initializer longer than size")
        return words + [0] * (self.size - len(words))


@dataclass
class Module:
    """A complete IR program: functions plus global data layout."""

    name: str = "module"
    functions: Dict[str, Function] = field(default_factory=dict)
    globals: Dict[str, GlobalVar] = field(default_factory=dict)

    def function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise IRError(f"module has no function {name!r}") from None

    def add_function(self, func: Function) -> Function:
        if func.name in self.functions:
            raise IRError(f"duplicate function {func.name!r}")
        self.functions[func.name] = func
        return func

    def add_global(self, gvar: GlobalVar) -> GlobalVar:
        if gvar.name in self.globals:
            raise IRError(f"duplicate global {gvar.name!r}")
        self.globals[gvar.name] = gvar
        return gvar

    def layout(self) -> Dict[str, int]:
        """Assign each global a base address; deterministic in insertion order."""
        addresses: Dict[str, int] = {}
        cursor = GLOBALS_BASE
        for name, gvar in self.globals.items():
            addresses[name] = cursor
            cursor += gvar.size
        return addresses

    def global_end(self) -> int:
        return GLOBALS_BASE + sum(g.size for g in self.globals.values())

    def global_at(self, addr: int) -> Optional[Tuple[str, int]]:
        """Map an address back to ``(global name, offset)`` if it is global data."""
        layout = self.layout()
        for name, base in layout.items():
            if base <= addr < base + self.globals[name].size:
                return name, addr - base
        return None

    def initial_global_memory(self) -> Dict[int, int]:
        """Address → initial word for the whole global segment."""
        memory: Dict[int, int] = {}
        layout = self.layout()
        for name, gvar in self.globals.items():
            base = layout[name]
            for offset, word in enumerate(gvar.initial_words()):
                memory[base + offset] = word
        return memory

    def __repr__(self) -> str:
        return (
            f"<module {self.name}: {len(self.functions)} functions, "
            f"{len(self.globals)} globals>"
        )

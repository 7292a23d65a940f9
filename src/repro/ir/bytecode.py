"""Bytecode compiler for IR modules: the form the VM executes.

Dispatching on dataclass instruction *types* and reading operands
through dicts keyed by :class:`Reg` would dominate every layer above
the VM — coredump production, RES replay verification, fuzz campaigns,
triage.  So this module compiles a :class:`~repro.ir.module.Module`
once into a dense register/slot form, and the VM's dispatch loop
(`vm/interpreter.py`) executes only that:

* every virtual register of a function becomes an integer **slot** in
  a flat frame array (no dict lookups on the hot path);
* every instruction becomes one tuple ``(opcode:int, ...operands)``
  with operands pre-decoded — immediates are inlined, register
  operands are slot indices, branch targets are absolute instruction
  pointers, global addresses are resolved against the module layout,
  and call targets are direct references to the callee's
  :class:`BFunc`;
* the mapping is strictly 1:1 with the IR (op ``i`` of a block is IR
  instruction ``i``), so a bytecode instruction pointer converts to a
  source :class:`~repro.ir.module.PC` by table lookup — which is what
  lets the replayer start snapshot threads mid-block;
* per-instruction facts the scheduler and the LBR need are computed
  here once: ``BFunc.shared`` (the instruction has a shared effect, so
  it is a preemption point) and each branch's "inferable" LBR flag.

The layout idiom (slot frames over an immutable compiled program)
follows the Converge pypyvm dispatch-loop design.

`disassemble` renders the compiled form for debugging; it is exposed
as the ``res disasm`` CLI subcommand.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.errors import IRError
from repro.ir.instructions import (
    AbortInst,
    AllocInst,
    AssertInst,
    BINARY_OPS,
    BinInst,
    BrInst,
    CallInst,
    CBrInst,
    CmpInst,
    COMPARE_OPS,
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
    SHARED_EFFECT_INSTRS,
    SpawnInst,
    StoreInst,
    UnlockInst,
)
from repro.ir.module import Function, Module, PC

# ---------------------------------------------------------------------------
# Opcodes
# ---------------------------------------------------------------------------

OP_CONST = 0
OP_GADDR = 1
OP_FRAMEADDR = 2
OP_MOV = 3

#: Binary ops occupy [OP_BIN_BASE, OP_BIN_BASE + len(BINARY_OPS)).
OP_BIN_BASE = 4
#: Compare ops occupy [OP_CMP_BASE, OP_CMP_BASE + len(COMPARE_OPS)).
OP_CMP_BASE = OP_BIN_BASE + len(BINARY_OPS)  # 17

OP_LOAD = OP_CMP_BASE + len(COMPARE_OPS)  # 27
OP_STORE = OP_LOAD + 1
OP_ALLOC = OP_STORE + 1
OP_FREE = OP_ALLOC + 1
OP_CALL = OP_FREE + 1
OP_INPUT = OP_CALL + 1
OP_OUTPUT = OP_INPUT + 1
OP_SPAWN = OP_OUTPUT + 1
OP_JOIN = OP_SPAWN + 1
OP_LOCK = OP_JOIN + 1
OP_UNLOCK = OP_LOCK + 1
OP_ASSERT = OP_UNLOCK + 1
OP_BR = OP_ASSERT + 1
OP_CBR = OP_BR + 1
OP_RET = OP_CBR + 1
OP_HALT = OP_RET + 1
OP_ABORT = OP_HALT + 1

NUM_OPCODES = OP_ABORT + 1

#: Mnemonic per opcode (disassembly and ALU-fault hooks).
OPNAMES: Tuple[str, ...] = (
    ("const", "gaddr", "frameaddr", "mov")
    + BINARY_OPS
    + tuple("cmp." + op for op in COMPARE_OPS)
    + ("load", "store", "alloc", "free", "call", "input", "output",
       "spawn", "join", "lock", "unlock", "assert", "br", "cbr",
       "ret", "halt", "abort")
)
assert len(OPNAMES) == NUM_OPCODES

#: Operand mode tags: a (mode, value) pair is a slot index when mode
#: is SLOT and an inline immediate when mode is IMM.
IMM = 0
SLOT = 1


class BFunc:
    """One compiled function: flat code plus slot/PC metadata.

    ``code[i]`` executes the IR instruction at source location
    ``pcs[i]``, which is a preemption point when ``shared[i]``;
    ``block_start[label] + index`` converts an IR position into an
    instruction pointer.  ``reg_slots`` maps a register's *name* to its
    slot: a ``str`` caches its hash, while hashing the :class:`Reg`
    dataclass is a Python-level call per lookup, and the replayer looks
    up every register of every snapshot frame.
    """

    __slots__ = (
        "name", "nslots", "slot_regs", "reg_slots", "param_slots",
        "frame_words", "entry_ip", "block_start", "code", "pcs",
        "lines", "shared",
    )

    def __init__(self, name: str, slot_regs: Tuple[Reg, ...],
                 param_slots: Tuple[int, ...], frame_words: int,
                 entry_ip: int, block_start: Dict[str, int]):
        self.name = name
        self.slot_regs = slot_regs
        self.nslots = len(slot_regs)
        self.reg_slots = {reg.name: i for i, reg in enumerate(slot_regs)}
        self.param_slots = param_slots
        self.frame_words = frame_words
        self.entry_ip = entry_ip
        self.block_start = block_start
        self.code: List[tuple] = []
        self.pcs: Tuple[PC, ...] = ()
        self.lines: Tuple[int, ...] = ()
        self.shared: Tuple[bool, ...] = ()


class BytecodeProgram:
    """A fully compiled module: one :class:`BFunc` per IR function,
    plus the module's initial global segment (address → word), which
    every VM of the program copies instead of re-walking the
    initializers."""

    __slots__ = ("module", "funcs", "global_image")

    def __init__(self, module: Module, funcs: Dict[str, BFunc]):
        self.module = module
        self.funcs = funcs
        self.global_image: Dict[int, int] = module.initial_global_memory()


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

def _assign_slots(func: Function) -> Tuple[Reg, ...]:
    """Slot order: parameters first, then registers by first appearance."""
    seen: "OrderedDict[Reg, None]" = OrderedDict()
    for param in func.params:
        seen.setdefault(param, None)
    for block in func.blocks.values():
        for instr in block.instrs:
            for reg in instr.defs():
                seen.setdefault(reg, None)
            for operand in instr.uses():
                if isinstance(operand, Reg):
                    seen.setdefault(operand, None)
    return tuple(seen)


def _operand(reg_slots: Dict[str, int], op: Operand) -> Tuple[int, int]:
    if isinstance(op, Imm):
        return (IMM, op.value)
    return (SLOT, reg_slots[op.name])


def compile_module(module: Module) -> BytecodeProgram:
    """Compile every function of ``module`` (uncached; see
    :func:`compile_program` for the memoized entry point)."""
    funcs: Dict[str, BFunc] = {}
    # Pass 1: slot assignment and block layout, so pass 2 can resolve
    # forward branches and calls to not-yet-compiled functions.
    for name, func in module.functions.items():
        block_start: Dict[str, int] = {}
        ip = 0
        for label, block in func.blocks.items():
            block_start[label] = ip
            ip += len(block.instrs)
        if func.entry not in block_start:
            raise IRError(f"function {name} has no entry block "
                          f"{func.entry!r}")
        slot_regs = _assign_slots(func)
        param_slots = tuple(range(len(func.params)))
        funcs[name] = BFunc(name, slot_regs, param_slots,
                            func.frame_words, block_start[func.entry],
                            block_start)
    layout = module.layout()
    for name, func in module.functions.items():
        _compile_function(module, func, funcs, layout)
    return BytecodeProgram(module, funcs)


def _compile_function(module: Module, func: Function,
                      funcs: Dict[str, BFunc], layout: Dict[str, int]) -> None:
    bfunc = funcs[func.name]
    slots = bfunc.reg_slots
    start = bfunc.block_start
    code: List[tuple] = []
    pcs: List[PC] = []
    instrs: List[Instr] = []
    for label, block in func.blocks.items():
        single_succ = len(block.successors()) == 1
        for index, instr in enumerate(block.instrs):
            pcs.append(PC(func.name, label, index))
            instrs.append(instr)
            code.append(_compile_instr(func, instr, slots, start, funcs,
                                       layout, single_succ))
    bfunc.code = code
    bfunc.pcs = tuple(pcs)
    bfunc.lines = tuple(instr.line for instr in instrs)
    bfunc.shared = tuple(isinstance(instr, SHARED_EFFECT_INSTRS)
                         for instr in instrs)


def _target_ip(func: Function, start: Dict[str, int], label: str) -> int:
    if label not in start:
        raise IRError(f"function {func.name} branches to unknown block "
                      f"{label!r}")
    return start[label]


def _compile_instr(func: Function, instr: Instr, slots: Dict[str, int],
                   start: Dict[str, int], funcs: Dict[str, BFunc],
                   layout: Dict[str, int], single_succ: bool) -> tuple:
    if isinstance(instr, ConstInst):
        return (OP_CONST, slots[instr.dst.name], instr.value)
    if isinstance(instr, GAddrInst):
        # Unknown globals stay a *runtime* error: an unreachable bad
        # gaddr must not poison the whole program.
        return (OP_GADDR, slots[instr.dst.name], layout.get(instr.name),
                instr.name)
    if isinstance(instr, FrameAddrInst):
        return (OP_FRAMEADDR, slots[instr.dst.name], instr.offset)
    if isinstance(instr, MovInst):
        mode, value = _operand(slots, instr.src)
        return (OP_MOV, slots[instr.dst.name], mode, value)
    if isinstance(instr, BinInst):
        am, av = _operand(slots, instr.a)
        bm, bv = _operand(slots, instr.b)
        return (OP_BIN_BASE + BINARY_OPS.index(instr.op),
                slots[instr.dst.name], am, av, bm, bv, instr.op)
    if isinstance(instr, CmpInst):
        am, av = _operand(slots, instr.a)
        bm, bv = _operand(slots, instr.b)
        return (OP_CMP_BASE + COMPARE_OPS.index(instr.op),
                slots[instr.dst.name], am, av, bm, bv, instr.op)
    if isinstance(instr, LoadInst):
        am, av = _operand(slots, instr.addr)
        return (OP_LOAD, slots[instr.dst.name], am, av)
    if isinstance(instr, StoreInst):
        am, av = _operand(slots, instr.addr)
        vm, vv = _operand(slots, instr.value)
        return (OP_STORE, am, av, vm, vv)
    if isinstance(instr, AllocInst):
        sm, sv = _operand(slots, instr.size)
        return (OP_ALLOC, slots[instr.dst.name], sm, sv)
    if isinstance(instr, FreeInst):
        am, av = _operand(slots, instr.addr)
        return (OP_FREE, am, av)
    if isinstance(instr, CallInst):
        args = tuple(_operand(slots, a) for a in instr.args)
        ret_slot = slots[instr.dst.name] if instr.dst is not None else -1
        # Unknown callees also stay a runtime error.
        return (OP_CALL, funcs.get(instr.callee), instr.callee,
                ret_slot, instr.dst, args)
    if isinstance(instr, InputInst):
        return (OP_INPUT, slots[instr.dst.name])
    if isinstance(instr, OutputInst):
        vm, vv = _operand(slots, instr.value)
        return (OP_OUTPUT, vm, vv)
    if isinstance(instr, SpawnInst):
        args = tuple(_operand(slots, a) for a in instr.args)
        return (OP_SPAWN, slots[instr.dst.name], instr.callee, args)
    if isinstance(instr, JoinInst):
        tm, tv = _operand(slots, instr.tid)
        return (OP_JOIN, tm, tv)
    if isinstance(instr, LockInst):
        am, av = _operand(slots, instr.addr)
        return (OP_LOCK, am, av)
    if isinstance(instr, UnlockInst):
        am, av = _operand(slots, instr.addr)
        return (OP_UNLOCK, am, av)
    if isinstance(instr, AssertInst):
        cm, cv = _operand(slots, instr.cond)
        return (OP_ASSERT, cm, cv, instr.message)
    if isinstance(instr, BrInst):
        # The LBR "inferable" flag is a compile-time constant of the
        # edge: unconditional branch out of a single-successor block.
        return (OP_BR, _target_ip(func, start, instr.target), single_succ)
    if isinstance(instr, CBrInst):
        cm, cv = _operand(slots, instr.cond)
        return (OP_CBR, cm, cv,
                _target_ip(func, start, instr.then_target),
                _target_ip(func, start, instr.else_target))
    if isinstance(instr, RetInst):
        if instr.value is None:
            return (OP_RET, 0, IMM, 0)
        vm, vv = _operand(slots, instr.value)
        return (OP_RET, 1, vm, vv)
    if isinstance(instr, HaltInst):
        cm, cv = _operand(slots, instr.code)
        return (OP_HALT, cm, cv)
    if isinstance(instr, AbortInst):
        return (OP_ABORT, instr.message)
    raise IRError(f"cannot compile unknown instruction {instr!r}")


# ---------------------------------------------------------------------------
# Program cache
# ---------------------------------------------------------------------------

#: id(module) -> (module, program).  The module reference pins the id,
#: so a recycled id can never alias a different module: entries whose
#: stored module is not the queried object are recompiled.
_PROGRAM_CACHE: "OrderedDict[int, Tuple[Module, BytecodeProgram]]" = OrderedDict()
_PROGRAM_CACHE_CAP = 32


def compile_program(module: Module) -> BytecodeProgram:
    """Memoized :func:`compile_module` (keyed by module identity)."""
    key = id(module)
    hit = _PROGRAM_CACHE.get(key)
    if hit is not None and hit[0] is module:
        _PROGRAM_CACHE.move_to_end(key)
        return hit[1]
    program = compile_module(module)
    _PROGRAM_CACHE[key] = (module, program)
    _PROGRAM_CACHE.move_to_end(key)
    while len(_PROGRAM_CACHE) > _PROGRAM_CACHE_CAP:
        _PROGRAM_CACHE.popitem(last=False)
    return program


# ---------------------------------------------------------------------------
# Disassembly
# ---------------------------------------------------------------------------

def _fmt_operand(bfunc: BFunc, mode: int, value: int) -> str:
    if mode == SLOT:
        return f"s{value}({bfunc.slot_regs[value]!r})"
    return f"#{value}"


def _fmt_args(bfunc: BFunc, args: Tuple[Tuple[int, int], ...]) -> str:
    return ", ".join(_fmt_operand(bfunc, m, v) for m, v in args)


def _disasm_op(bfunc: BFunc, op: tuple) -> str:
    opcode = op[0]
    name = OPNAMES[opcode]
    if opcode == OP_CONST:
        return f"{name:10s} s{op[1]}({bfunc.slot_regs[op[1]]!r}), #{op[2]}"
    if opcode == OP_GADDR:
        addr = "?" if op[2] is None else f"{op[2]:#x}"
        return f"{name:10s} s{op[1]}({bfunc.slot_regs[op[1]]!r}), {addr} ({op[3]})"
    if opcode == OP_FRAMEADDR:
        return f"{name:10s} s{op[1]}({bfunc.slot_regs[op[1]]!r}), fp+{op[2]}"
    if opcode == OP_MOV:
        return (f"{name:10s} s{op[1]}({bfunc.slot_regs[op[1]]!r}), "
                f"{_fmt_operand(bfunc, op[2], op[3])}")
    if OP_BIN_BASE <= opcode < OP_LOAD:
        return (f"{name:10s} s{op[1]}({bfunc.slot_regs[op[1]]!r}), "
                f"{_fmt_operand(bfunc, op[2], op[3])}, "
                f"{_fmt_operand(bfunc, op[4], op[5])}")
    if opcode == OP_LOAD:
        return (f"{name:10s} s{op[1]}({bfunc.slot_regs[op[1]]!r}), "
                f"[{_fmt_operand(bfunc, op[2], op[3])}]")
    if opcode == OP_STORE:
        return (f"{name:10s} [{_fmt_operand(bfunc, op[1], op[2])}], "
                f"{_fmt_operand(bfunc, op[3], op[4])}")
    if opcode == OP_ALLOC:
        return (f"{name:10s} s{op[1]}({bfunc.slot_regs[op[1]]!r}), "
                f"{_fmt_operand(bfunc, op[2], op[3])}")
    if opcode == OP_FREE:
        return f"{name:10s} {_fmt_operand(bfunc, op[1], op[2])}"
    if opcode == OP_CALL:
        dst = (f"s{op[3]}({bfunc.slot_regs[op[3]]!r}) = "
               if op[3] >= 0 else "")
        return f"{name:10s} {dst}@{op[2]}({_fmt_args(bfunc, op[5])})"
    if opcode == OP_INPUT:
        return f"{name:10s} s{op[1]}({bfunc.slot_regs[op[1]]!r})"
    if opcode == OP_OUTPUT:
        return f"{name:10s} {_fmt_operand(bfunc, op[1], op[2])}"
    if opcode == OP_SPAWN:
        return (f"{name:10s} s{op[1]}({bfunc.slot_regs[op[1]]!r}), "
                f"@{op[2]}({_fmt_args(bfunc, op[3])})")
    if opcode in (OP_JOIN, OP_LOCK, OP_UNLOCK, OP_HALT):
        return f"{name:10s} {_fmt_operand(bfunc, op[1], op[2])}"
    if opcode == OP_ASSERT:
        return (f"{name:10s} {_fmt_operand(bfunc, op[1], op[2])}, "
                f"{op[3]!r}")
    if opcode == OP_BR:
        flag = " !lbr" if op[2] else ""
        return f"{name:10s} @{op[1]:04d}{flag}"
    if opcode == OP_CBR:
        return (f"{name:10s} {_fmt_operand(bfunc, op[1], op[2])}, "
                f"@{op[3]:04d}, @{op[4]:04d}")
    if opcode == OP_RET:
        if not op[1]:
            return name
        return f"{name:10s} {_fmt_operand(bfunc, op[2], op[3])}"
    if opcode == OP_ABORT:
        return f"{name:10s} {op[1]!r}"
    raise IRError(f"cannot disassemble opcode {opcode}")  # pragma: no cover


def disassemble(program: BytecodeProgram) -> str:
    """Human-readable listing: opcode, operands, and source PC map."""
    lines: List[str] = [f"; bytecode for module {program.module.name!r}"]
    for name, bfunc in program.funcs.items():
        params = ", ".join(
            f"s{slot}({bfunc.slot_regs[slot]!r})"
            for slot in bfunc.param_slots)
        lines.append("")
        lines.append(f"func {name}  slots={bfunc.nslots}  "
                     f"frame_words={bfunc.frame_words}  params=[{params}]")
        starts = {ip: label for label, ip in bfunc.block_start.items()}
        for ip, op in enumerate(bfunc.code):
            label = starts.get(ip)
            if label is not None:
                lines.append(f"  {label}:")
            pc = bfunc.pcs[ip]
            line = bfunc.lines[ip]
            src = f"; {pc!r}" + (f"  line {line}" if line else "")
            lines.append(f"    {ip:04d}  {_disasm_op(bfunc, op):44s} {src}")
    return "\n".join(lines) + "\n"


def program_signature(program: BytecodeProgram) -> tuple:
    """Structural identity of a compiled program (tests: recompiling
    the same module must be a fixpoint).  Callee references are
    flattened to names so the signature is comparable across compiles.
    """
    funcs = []
    for name, bfunc in sorted(program.funcs.items()):
        code = []
        for op in bfunc.code:
            if op[0] == OP_CALL:
                code.append((op[0], op[2], op[3],
                             op[4].name if op[4] is not None else None,
                             op[5]))
            else:
                code.append(op)
        funcs.append((
            name,
            tuple(reg.name for reg in bfunc.slot_regs),
            bfunc.param_slots,
            bfunc.frame_words,
            bfunc.entry_ip,
            tuple(sorted(bfunc.block_start.items())),
            tuple(code),
            bfunc.pcs,
            bfunc.lines,
        ))
    return tuple(funcs)

"""Instruction set of the RES intermediate representation.

The IR is a load/store register machine shaped like LLVM's: functions
hold basic blocks, blocks hold instructions, and the last instruction of
every block is a *terminator* (branch, return, halt or abort).  Values
are 64-bit machine words; signedness is a property of the operation, not
the value, exactly as in LLVM.

Reverse execution synthesis only needs two static facts about an
instruction, and both are first-class here:

* which virtual registers it *defines* (:meth:`Instr.defs`), used to
  havoc registers when building symbolic snapshots, and
* which operands it *uses* (:meth:`Instr.uses`), used by the static
  slicing baseline.

Memory effects cannot be computed statically (store addresses are
runtime values); they are discovered dynamically by the symbolic
executor, which is the heart of the paper's §2.4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

WORD_BITS = 64
WORD_MASK = (1 << WORD_BITS) - 1
WORD_SIGN_BIT = 1 << (WORD_BITS - 1)


def to_unsigned(value: int) -> int:
    """Normalize a Python int to its 64-bit unsigned representation."""
    return value & WORD_MASK


def to_signed(value: int) -> int:
    """Interpret a 64-bit word as a signed two's-complement integer."""
    value &= WORD_MASK
    if value & WORD_SIGN_BIT:
        return value - (1 << WORD_BITS)
    return value


@dataclass(frozen=True)
class Reg:
    """A virtual register operand, local to one function activation."""

    name: str

    def __repr__(self) -> str:
        return f"%{self.name}"


@dataclass(frozen=True)
class Imm:
    """An immediate 64-bit constant operand."""

    value: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", to_unsigned(self.value))

    def __repr__(self) -> str:
        return str(to_signed(self.value)) if self.value & WORD_SIGN_BIT else str(self.value)


Operand = Union[Reg, Imm]

#: Binary arithmetic/bitwise operation mnemonics.
BINARY_OPS = (
    "add", "sub", "mul",
    "udiv", "sdiv", "urem", "srem",
    "and", "or", "xor",
    "shl", "lshr", "ashr",
)

#: Comparison mnemonics; results are 0 or 1.
COMPARE_OPS = ("eq", "ne", "ult", "ule", "ugt", "uge", "slt", "sle", "sgt", "sge")


class Instr:
    """Base class for all IR instructions.

    Attributes:
        line: source line in the originating MiniC program (0 = unknown),
            carried through compilation so the debugger can map suffix
            steps back to source.
    """

    line: int = 0

    def defs(self) -> Tuple[Reg, ...]:
        """Registers written by this instruction."""
        return ()

    def uses(self) -> Tuple[Operand, ...]:
        """Operands read by this instruction."""
        return ()

    def is_terminator(self) -> bool:
        return False


def _fmt(op: Optional[Operand]) -> str:
    return repr(op) if op is not None else "_"


@dataclass
class ConstInst(Instr):
    """``dst = value`` — materialize an immediate."""

    dst: Reg
    value: int
    line: int = 0

    def __post_init__(self) -> None:
        self.value = to_unsigned(self.value)

    def defs(self):
        return (self.dst,)

    def __repr__(self):
        return f"{self.dst!r} = const {self.value}"


@dataclass
class GAddrInst(Instr):
    """``dst = &global`` — address of a module global."""

    dst: Reg
    name: str
    line: int = 0

    def defs(self):
        return (self.dst,)

    def __repr__(self):
        return f"{self.dst!r} = gaddr @{self.name}"


@dataclass
class FrameAddrInst(Instr):
    """``dst = fp + offset`` — address of a stack-frame slot.

    Used for address-taken locals and local arrays; ``fp`` is the frame
    pointer installed by the VM when the function was entered.
    """

    dst: Reg
    offset: int
    line: int = 0

    def defs(self):
        return (self.dst,)

    def __repr__(self):
        return f"{self.dst!r} = frameaddr {self.offset}"


@dataclass
class MovInst(Instr):
    """``dst = src`` — register/immediate copy."""

    dst: Reg
    src: Operand
    line: int = 0

    def defs(self):
        return (self.dst,)

    def uses(self):
        return (self.src,)

    def __repr__(self):
        return f"{self.dst!r} = mov {_fmt(self.src)}"


@dataclass
class BinInst(Instr):
    """``dst = a <op> b`` for ``op`` in :data:`BINARY_OPS`."""

    op: str
    dst: Reg
    a: Operand
    b: Operand
    line: int = 0

    def __post_init__(self) -> None:
        if self.op not in BINARY_OPS:
            raise ValueError(f"unknown binary op {self.op!r}")

    def defs(self):
        return (self.dst,)

    def uses(self):
        return (self.a, self.b)

    def __repr__(self):
        return f"{self.dst!r} = {self.op} {_fmt(self.a)}, {_fmt(self.b)}"


@dataclass
class CmpInst(Instr):
    """``dst = (a <op> b) ? 1 : 0`` for ``op`` in :data:`COMPARE_OPS`."""

    op: str
    dst: Reg
    a: Operand
    b: Operand
    line: int = 0

    def __post_init__(self) -> None:
        if self.op not in COMPARE_OPS:
            raise ValueError(f"unknown compare op {self.op!r}")

    def defs(self):
        return (self.dst,)

    def uses(self):
        return (self.a, self.b)

    def __repr__(self):
        return f"{self.dst!r} = cmp {self.op} {_fmt(self.a)}, {_fmt(self.b)}"


@dataclass
class LoadInst(Instr):
    """``dst = mem[addr]`` — word-addressed load."""

    dst: Reg
    addr: Operand
    line: int = 0

    def defs(self):
        return (self.dst,)

    def uses(self):
        return (self.addr,)

    def __repr__(self):
        return f"{self.dst!r} = load {_fmt(self.addr)}"


@dataclass
class StoreInst(Instr):
    """``mem[addr] = value`` — word-addressed store."""

    addr: Operand
    value: Operand
    line: int = 0

    def uses(self):
        return (self.addr, self.value)

    def __repr__(self):
        return f"store {_fmt(self.addr)}, {_fmt(self.value)}"


@dataclass
class AllocInst(Instr):
    """``dst = malloc(size)`` — allocate ``size`` words on the heap."""

    dst: Reg
    size: Operand
    line: int = 0

    def defs(self):
        return (self.dst,)

    def uses(self):
        return (self.size,)

    def __repr__(self):
        return f"{self.dst!r} = alloc {_fmt(self.size)}"


@dataclass
class FreeInst(Instr):
    """``free(addr)`` — release a heap allocation."""

    addr: Operand
    line: int = 0

    def uses(self):
        return (self.addr,)

    def __repr__(self):
        return f"free {_fmt(self.addr)}"


@dataclass
class CallInst(Instr):
    """``dst = callee(args...)`` — direct call; ``dst`` optional."""

    dst: Optional[Reg]
    callee: str
    args: List[Operand] = field(default_factory=list)
    line: int = 0

    def defs(self):
        return (self.dst,) if self.dst is not None else ()

    def uses(self):
        return tuple(self.args)

    def __repr__(self):
        args = ", ".join(_fmt(a) for a in self.args)
        head = f"{self.dst!r} = " if self.dst is not None else ""
        return f"{head}call @{self.callee}({args})"


@dataclass
class InputInst(Instr):
    """``dst = input()`` — read one word of external input.

    Models every source of nondeterministic program input (network
    packets, disk reads, ...): the paper hands these to the program as
    unconstrained symbolic values during snapshot execution.
    """

    dst: Reg
    line: int = 0

    def defs(self):
        return (self.dst,)

    def __repr__(self):
        return f"{self.dst!r} = input"


@dataclass
class OutputInst(Instr):
    """``output(value)`` — append a word to the program's output log.

    The output log doubles as the "error log" breadcrumb source of §2.4.
    """

    value: Operand
    line: int = 0

    def uses(self):
        return (self.value,)

    def __repr__(self):
        return f"output {_fmt(self.value)}"


@dataclass
class SpawnInst(Instr):
    """``dst = spawn callee(args...)`` — start a thread, yields its tid."""

    dst: Reg
    callee: str
    args: List[Operand] = field(default_factory=list)
    line: int = 0

    def defs(self):
        return (self.dst,)

    def uses(self):
        return tuple(self.args)

    def __repr__(self):
        args = ", ".join(_fmt(a) for a in self.args)
        return f"{self.dst!r} = spawn @{self.callee}({args})"


@dataclass
class JoinInst(Instr):
    """``join(tid)`` — block until thread ``tid`` finishes."""

    tid: Operand
    line: int = 0

    def uses(self):
        return (self.tid,)

    def __repr__(self):
        return f"join {_fmt(self.tid)}"


@dataclass
class LockInst(Instr):
    """``lock(addr)`` — acquire the mutex that lives at ``addr``."""

    addr: Operand
    line: int = 0

    def uses(self):
        return (self.addr,)

    def __repr__(self):
        return f"lock {_fmt(self.addr)}"


@dataclass
class UnlockInst(Instr):
    """``unlock(addr)`` — release the mutex that lives at ``addr``."""

    addr: Operand
    line: int = 0

    def uses(self):
        return (self.addr,)

    def __repr__(self):
        return f"unlock {_fmt(self.addr)}"


@dataclass
class AssertInst(Instr):
    """``assert(cond, message)`` — trap with ``ASSERT_FAIL`` if cond == 0."""

    cond: Operand
    message: str = ""
    line: int = 0

    def uses(self):
        return (self.cond,)

    def __repr__(self):
        return f"assert {_fmt(self.cond)}, {self.message!r}"


@dataclass
class BrInst(Instr):
    """Unconditional branch terminator."""

    target: str
    line: int = 0

    def is_terminator(self):
        return True

    def __repr__(self):
        return f"br {self.target}"


@dataclass
class CBrInst(Instr):
    """Conditional branch terminator: nonzero → then, zero → else."""

    cond: Operand
    then_target: str
    else_target: str
    line: int = 0

    def uses(self):
        return (self.cond,)

    def is_terminator(self):
        return True

    def __repr__(self):
        return f"cbr {_fmt(self.cond)}, {self.then_target}, {self.else_target}"


@dataclass
class RetInst(Instr):
    """Return terminator; ``value`` optional."""

    value: Optional[Operand] = None
    line: int = 0

    def uses(self):
        return (self.value,) if self.value is not None else ()

    def is_terminator(self):
        return True

    def __repr__(self):
        return f"ret {_fmt(self.value)}" if self.value is not None else "ret"


@dataclass
class HaltInst(Instr):
    """Terminator: orderly exit of the whole program (C ``exit``)."""

    code: Operand = Imm(0)
    line: int = 0

    def uses(self):
        return (self.code,)

    def is_terminator(self):
        return True

    def __repr__(self):
        return f"halt {_fmt(self.code)}"


@dataclass
class AbortInst(Instr):
    """Terminator: deliberate crash (C ``abort``); traps with ABORT."""

    message: str = ""
    line: int = 0

    def is_terminator(self):
        return True

    def __repr__(self):
        return f"abort {self.message!r}"


#: Instructions whose execution can be observed outside the thread
#: (memory, synchronization, I/O) — used to decide preemption points.
SHARED_EFFECT_INSTRS = (
    LoadInst, StoreInst, AllocInst, FreeInst,
    LockInst, UnlockInst, InputInst, OutputInst,
    SpawnInst, JoinInst,
)

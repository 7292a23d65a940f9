"""Thread and frame state of the virtual machine.

A live thread's frames are the VM's slot frames
(:class:`~repro.vm.interpreter.BFrame`); :class:`Frame` is the form a
frame takes in a coredump.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from repro.ir.instructions import Reg
from repro.ir.module import PC


@dataclass
class Frame:
    """One activation record, as a coredump holds it.

    Attributes:
        function: function name.
        block: current basic-block label.
        index: index of the *next* instruction to execute in the block.
        regs: virtual register file of this activation.
        frame_base: base address of the frame's stack slots (0 if none).
        frame_words: number of stack words reserved.
        ret_dst: caller register that receives this call's return value.
    """

    function: str
    block: str
    index: int
    regs: Dict[Reg, int] = field(default_factory=dict)
    frame_base: int = 0
    frame_words: int = 0
    ret_dst: Optional[Reg] = None

    @property
    def pc(self) -> PC:
        return PC(self.function, self.block, self.index)


class ThreadStatus(Enum):
    RUNNABLE = "runnable"
    BLOCKED_LOCK = "blocked-lock"
    BLOCKED_JOIN = "blocked-join"
    FINISHED = "finished"


@dataclass
class Thread:
    """A guest thread: a stack of slot frames (innermost last) plus
    scheduling status."""

    tid: int
    frames: List = field(default_factory=list)
    status: ThreadStatus = ThreadStatus.RUNNABLE
    blocked_on: Optional[int] = None  # lock address or joined tid
    held_locks: List[int] = field(default_factory=list)
    return_value: int = 0
    start_function: str = ""

    @property
    def top(self):
        return self.frames[-1]

    @property
    def pc(self) -> Optional[PC]:
        if not self.frames:
            return None
        return self.top.pc

"""A gdb-like reverse debugger over synthesized suffixes (paper §3.3).

"RES enables several debugging aids on top of traditional debuggers
like gdb: synthesizing the execution suffix, reconstructing past state
(the symbolic snapshots), and the ability to do reverse debugging
without the need to record the execution."

The debugger replays the suffix deterministically inside a fresh VM.
Reverse stepping re-executes from the suffix start to the requested
position — the standard implementation of reverse debugging over a
deterministic substrate.  Source-level variable inspection uses the
debug info the MiniC compiler threads into the IR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ReplayError
from repro.ir.module import Module
from repro.vm.interpreter import VM
from repro.vm.state import PC
from repro.core.replay import SuffixReplayer
from repro.core.res import SynthesizedSuffix


@dataclass(frozen=True)
class Breakpoint:
    function: str
    block: Optional[str] = None
    line: Optional[int] = None

    def matches(self, module: Module, pc: PC) -> bool:
        if pc.function != self.function:
            return False
        if self.block is not None and pc.block != self.block:
            return False
        if self.line is not None:
            instr = module.function(pc.function).block(pc.block).instrs[pc.index]
            if instr.line != self.line:
                return False
        return True


@dataclass
class Watchpoint:
    """Stops execution when a memory word changes (gdb's ``watch``)."""

    addr: int
    label: str
    last_value: int = 0

    def describe_hit(self, new_value: int) -> str:
        return (f"watchpoint {self.label} ({self.addr:#x}): "
                f"{self.last_value} -> {new_value}")


class ReverseDebugger:
    """Interactive stepping over one verified suffix."""

    def __init__(self, module: Module, synthesized: SynthesizedSuffix):
        self.module = module
        self.synthesized = synthesized
        self.suffix = synthesized.suffix
        self._replayer = SuffixReplayer(module)
        model = synthesized.report.model
        if model is None:
            raise ReplayError("suffix has no model; replay it first")
        self._model = model
        #: flattened schedule: the thread that executes each instruction
        self._tids: List[int] = []
        for tid, count in self.suffix.schedule():
            self._tids.extend([tid] * count)
        self.breakpoints: List[Breakpoint] = []
        self.watchpoints: List[Watchpoint] = []
        #: description of the most recent watchpoint hit, if any
        self.last_watch_hit: Optional[str] = None
        self._position = 0
        self._vm = self._fresh_vm()

    # ------------------------------------------------------------------
    # Machinery
    # ------------------------------------------------------------------

    def _fresh_vm(self) -> VM:
        return self._replayer._instantiate(self.suffix, self._model)

    @property
    def position(self) -> int:
        """Instructions executed so far within the suffix."""
        return self._position

    @property
    def total_steps(self) -> int:
        return len(self._tids)

    @property
    def at_end(self) -> bool:
        return self._position >= len(self._tids)

    def current_thread(self) -> int:
        idx = min(self._position, len(self._tids) - 1)
        return self._tids[idx]

    def current_pc(self) -> Optional[PC]:
        thread = self._vm.threads[self.current_thread()]
        return thread.top.pc if thread.frames else None

    # ------------------------------------------------------------------
    # Commands
    # ------------------------------------------------------------------

    def add_breakpoint(self, function: str, block: Optional[str] = None,
                       line: Optional[int] = None) -> Breakpoint:
        bp = Breakpoint(function, block, line)
        self.breakpoints.append(bp)
        return bp

    def add_watchpoint(self, target) -> Watchpoint:
        """Watch a global (by name) or a raw address for changes."""
        if isinstance(target, int):
            addr, label = target, f"{target:#x}"
        else:
            layout = self.module.layout()
            if target not in layout:
                raise ReplayError(f"unknown global {target!r}")
            addr, label = layout[target], target
        wp = Watchpoint(addr=addr, label=label,
                        last_value=self._vm.memory.peek(addr))
        self.watchpoints.append(wp)
        return wp

    def _watch_hit(self) -> Optional[str]:
        """Check watchpoints against current memory; record the change."""
        for wp in self.watchpoints:
            now = self._vm.memory.peek(wp.addr)
            if now != wp.last_value:
                hit = wp.describe_hit(now)
                wp.last_value = now
                self.last_watch_hit = hit
                return hit
        return None

    def step(self, count: int = 1) -> Optional[PC]:
        """Execute ``count`` instructions forward; returns the new PC."""
        for _ in range(count):
            if self.at_end:
                break
            tid = self._tids[self._position]
            self._vm.wake_threads()
            self._vm.step_thread(tid)
            self._position += 1
        return self.current_pc()

    def reverse_step(self, count: int = 1) -> Optional[PC]:
        """Step backward by re-executing from the suffix start."""
        target = max(0, self._position - count)
        self._vm = self._fresh_vm()
        self._position = 0
        pc = self.step(target) if target else self.current_pc()
        for wp in self.watchpoints:
            wp.last_value = self._vm.memory.peek(wp.addr)
        return pc

    def continue_(self) -> Optional[PC]:
        """Run until a breakpoint fires, a watched word changes, or the
        failure is reached."""
        self.last_watch_hit = None
        while not self.at_end:
            self.step(1)
            if self._watch_hit() is not None:
                return self.current_pc()
            pc = self.current_pc()
            if pc is not None and any(
                    bp.matches(self.module, pc) for bp in self.breakpoints):
                return pc
        return self.current_pc()

    def run_to_failure(self) -> Optional[PC]:
        while not self.at_end:
            self.step(1)
        return self.current_pc()

    def backtrace(self, tid: Optional[int] = None) -> List[PC]:
        thread = self._vm.threads[tid if tid is not None
                                  else self.current_thread()]
        return [frame.pc for frame in thread.frames]

    def info_threads(self) -> Dict[int, Tuple[str, Optional[PC]]]:
        out: Dict[int, Tuple[str, Optional[PC]]] = {}
        for tid, thread in sorted(self._vm.threads.items()):
            pc = thread.top.pc if thread.frames else None
            out[tid] = (thread.status.value, pc)
        return out

    def print_var(self, name: str, tid: Optional[int] = None) -> Optional[int]:
        """Source-level variable read via compiler debug info."""
        thread = self._vm.threads[tid if tid is not None
                                  else self.current_thread()]
        if not thread.frames:
            return None
        frame = thread.top
        func = self.module.function(frame.function)
        if name in func.var_regs:
            return frame.regs.get(func.var_regs[name])
        if name in func.frame_vars:
            return self._vm.memory.peek(frame.frame_base
                                        + func.frame_vars[name])
        if name in self.module.globals:
            return self._vm.memory.peek(self.module.layout()[name])
        return None

    # ------------------------------------------------------------------
    # Focus aids (§3.3: "automatically focuses developers' attention on
    # the recently read or written state")
    # ------------------------------------------------------------------

    def focus_read_set(self) -> Set[int]:
        return self.suffix.read_set()

    def focus_write_set(self) -> Set[int]:
        return self.suffix.write_set()

    def source_line(self) -> int:
        pc = self.current_pc()
        if pc is None:
            return 0
        block = self.module.function(pc.function).block(pc.block)
        if pc.index >= len(block.instrs):
            return 0
        return block.instrs[pc.index].line

    def test_hypothesis(self, function: str, predicate) -> List[Tuple[int, PC]]:
        """§3.3's hypothesis testing: "what was the program state when
        the program was executing at program counter X?"

        Re-runs the suffix, calling ``predicate(debugger)`` at every
        step where control is in ``function``; returns the positions
        (step index, PC) where the predicate held.
        """
        saved = self._position
        self._vm = self._fresh_vm()
        self._position = 0
        hits: List[Tuple[int, PC]] = []
        while not self.at_end:
            pc = self.current_pc()
            if pc is not None and pc.function == function and predicate(self):
                hits.append((self._position, pc))
            self.step(1)
        self.reverse_step(self._position - saved)
        return hits

"""Guest memory: flat word-addressed space with region tracking.

Layout (word addresses):

* ``[GLOBALS_BASE, globals end)`` — module globals.
* ``[HEAP_BASE, ...)`` — heap; a non-reusing bump allocator (like a
  debugging allocator) so freed addresses stay invalid forever, which
  makes use-after-free detectable with no shadow memory.
* ``[STACKS_BASE + tid * STACK_WINDOW, ...)`` — per-thread stacks for
  frame slots (address-taken locals, local arrays).

Accesses outside any live region trap: that is how the VM turns guest
bugs (overflows, UAF) into coredumps instead of silent corruption.
Region checks can be relaxed per-region (``checked=False``) so workloads
can *corrupt memory silently* — the paper's overflow scenario (Figure 1)
writes out of bounds without an immediate crash.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional, Tuple

from repro.ir.instructions import to_unsigned
from repro.ir.module import HEAP_BASE, Module, STACK_WINDOW, STACKS_BASE


class AccessError(Enum):
    """Why a memory access is invalid."""

    OUT_OF_BOUNDS = "out-of-bounds"
    USE_AFTER_FREE = "use-after-free"


@dataclass
class Allocation:
    base: int
    size: int
    freed: bool = False


class Memory:
    """Sparse guest memory plus allocator and region metadata."""

    def __init__(self, module: Module, image: Dict[int, int],
                 check_bounds: bool = True):
        """``image`` is the module's initial global segment
        (``BytecodeProgram.global_image``, built once per compile); the
        memory starts as a copy of it."""
        self.module = module
        self.check_bounds = check_bounds
        self.words: Dict[int, int] = dict(image)
        self.globals_lo = min(image) if image else 0
        self.globals_hi = module.global_end()
        self.heap_cursor = HEAP_BASE
        self.allocations: Dict[int, Allocation] = {}
        #: tid → stack pointer (next free word in that thread's window).
        self.stack_tops: Dict[int, int] = {}

    # -- allocator -------------------------------------------------------

    def heap_alloc(self, size: int) -> int:
        """Allocate ``size`` words; one guard word separates allocations."""
        size = max(1, size)
        base = self.heap_cursor
        self.heap_cursor += size + 1
        self.allocations[base] = Allocation(base=base, size=size)
        for offset in range(size):
            self.words[base + offset] = 0
        return base

    def heap_free(self, addr: int) -> Optional[str]:
        """Free an allocation; returns an error string on misuse."""
        alloc = self.allocations.get(addr)
        if alloc is None:
            return "invalid-free"
        if alloc.freed:
            return "double-free"
        alloc.freed = True
        return None

    def allocation_at(self, addr: int) -> Optional[Allocation]:
        for alloc in self.allocations.values():
            if alloc.base <= addr < alloc.base + alloc.size:
                return alloc
        return None

    # -- stacks ------------------------------------------------------------

    def stack_base(self, tid: int) -> int:
        return STACKS_BASE + tid * STACK_WINDOW

    def stack_push(self, tid: int, words: int) -> int:
        """Reserve a frame of ``words`` words; returns the frame base."""
        top = self.stack_tops.get(tid, self.stack_base(tid))
        self.stack_tops[tid] = top + words
        for offset in range(words):
            self.words[top + offset] = 0
        return top

    def stack_pop(self, tid: int, words: int) -> None:
        self.stack_tops[tid] = self.stack_tops.get(tid, self.stack_base(tid)) - words

    # -- access checking -----------------------------------------------------

    def classify(self, addr: int) -> Optional[AccessError]:
        """Return why ``addr`` is invalid, or None if it is a legal access."""
        if self.globals_lo <= addr < self.globals_hi:
            return None
        if HEAP_BASE <= addr < self.heap_cursor:
            alloc = self.allocation_at(addr)
            if alloc is None:
                return AccessError.OUT_OF_BOUNDS  # guard word between allocations
            if alloc.freed:
                return AccessError.USE_AFTER_FREE
            return None
        if addr >= STACKS_BASE:
            tid = (addr - STACKS_BASE) // STACK_WINDOW
            top = self.stack_tops.get(tid)
            if top is not None and self.stack_base(tid) <= addr < top:
                return None
            return AccessError.OUT_OF_BOUNDS
        return AccessError.OUT_OF_BOUNDS

    # -- reads and writes ------------------------------------------------------

    def read(self, addr: int) -> Tuple[int, Optional[AccessError]]:
        error = self.classify(addr) if self.check_bounds else None
        return self.words.get(addr, 0), error

    def write(self, addr: int, value: int) -> Optional[AccessError]:
        error = self.classify(addr) if self.check_bounds else None
        if error is None or not self.check_bounds:
            self.words[addr] = to_unsigned(value)
        return error

    def peek(self, addr: int) -> int:
        """Read without access checking (host-side inspection)."""
        return self.words.get(addr, 0)

    def snapshot(self) -> Dict[int, int]:
        """Copy of all words (the memory part of a coredump)."""
        return dict(self.words)

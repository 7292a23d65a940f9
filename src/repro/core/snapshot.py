"""Symbolic snapshots — the paper's central data structure (§2.3).

A symbolic snapshot is "a hypothesis of how program state may have
looked" at a point *before* the coredump: "an image of P's memory state
in which some locations do not have concrete values, but rather have
stand-ins for any possible value".

Concretely, a snapshot is:

* a :class:`~repro.symex.memory.SymMemory` whose base is the coredump
  (concrete) and whose overlay holds the reconstructed pre-state
  expressions for every location the suffix-so-far overwrites, and
* per-thread frame stacks whose register files map registers to
  expressions (concrete coredump values at depth 0 of the search,
  progressively more symbolic as RES walks backward), and
* the accumulated path/compatibility constraints, plus concrete
  allocator and stack bookkeeping needed to rebuild a replayable state.

Snapshots are immutable from the search's point of view: each backward
step builds a new one (`SymbolicSnapshot.child`).

Derivation is copy-on-write: ``child()`` shares the parent's memory
overlay (layered), thread objects, bookkeeping dicts, and constraint
tuple, and copies a piece only when the segment executor first mutates
it through the ``set_*`` / ``thread_for_write`` / ``append_constraints``
APIs below.  That makes spawning a search node O(delta) in the
backward step instead of O(accumulated state) — the difference between
per-node cost that is flat and per-node cost that grows with suffix
depth.  ``child(cow=False)`` keeps the original eager deep copy for
A/B-testing the optimization (``RESConfig.incremental``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.ir.instructions import Reg
from repro.ir.module import HEAP_BASE, Module
from repro.symex.expr import Const, Expr, Sym
from repro.symex.memory import SymMemory
from repro.vm.coredump import Coredump
from repro.vm.state import PC, ThreadStatus

#: snapshot fields guarded by copy-on-write ownership tracking
_COW_FIELDS = ("stack_tops", "remaining_allocs", "live_at_start",
               "lock_owners")


@dataclass
class SnapFrame:
    """One activation in a snapshot; mirrors the VM's Frame but symbolic."""

    function: str
    block: str
    index: int  # resume point: next instruction to execute on replay
    regs: Dict[Reg, Expr]
    frame_base: int
    frame_words: int
    ret_dst: Optional[Reg] = None

    @property
    def pc(self) -> PC:
        return PC(self.function, self.block, self.index)

    def copy(self) -> "SnapFrame":
        return SnapFrame(self.function, self.block, self.index,
                         dict(self.regs), self.frame_base, self.frame_words,
                         self.ret_dst)


@dataclass
class SnapThread:
    """A thread's reconstructed stack plus navigation bookkeeping."""

    tid: int
    frames: List[SnapFrame]
    coredump_status: ThreadStatus
    #: True once backward navigation hit the thread's start (no further
    #: candidates for this thread).
    at_boundary: bool = False
    #: function the thread was spawned with (navigating backward past a
    #: thread's final ``ret`` re-materializes a root frame of this).
    start_function: str = ""
    #: value the thread returned with, if it finished before the dump.
    return_value: int = 0

    @property
    def top(self) -> SnapFrame:
        return self.frames[-1]

    def copy(self) -> "SnapThread":
        return SnapThread(self.tid, [f.copy() for f in self.frames],
                          self.coredump_status, self.at_boundary,
                          self.start_function, self.return_value)


class SymbolicSnapshot:
    """Program state hypothesis at the current backward-search horizon."""

    def __init__(
        self,
        module: Module,
        coredump: Coredump,
        memory: SymMemory,
        threads: Dict[int, SnapThread],
        constraints: Iterable[Expr],
        stack_tops: Dict[int, int],
        remaining_allocs: List[Tuple[int, int]],
        live_at_start: Dict[int, bool],
        lock_owners: Dict[int, int],
        fresh_counter: int = 0,
        trap_pending: bool = True,
        input_sym_names: Optional[Iterable[str]] = None,
    ):
        self.module = module
        self.coredump = coredump
        self.memory = memory
        self.threads = threads
        #: accumulated path/compatibility constraints; an immutable
        #: tuple so structural sharing between search nodes is safe —
        #: grow it only through :meth:`append_constraints`.
        self.constraints: Tuple[Expr, ...] = tuple(constraints)
        self.stack_tops = stack_tops
        #: coredump allocations not (yet) attributed to the suffix, as
        #: ``(base, size)`` sorted by base; suffix allocations are always
        #: the most recent ones, i.e. the tail of this list.
        self.remaining_allocs = remaining_allocs
        #: allocation base → liveness at the snapshot point (True = not
        #: yet freed); starts as the coredump's freed flags inverted and
        #: is rewound as the suffix absorbs ``free`` operations.
        self.live_at_start = live_at_start
        #: lock address → owner tid at the snapshot point.
        self.lock_owners = lock_owners
        self._fresh_counter = fresh_counter
        #: True until the failing thread's trap segment has been absorbed
        #: (the first backward step is forced to be that segment).
        self.trap_pending = trap_pending
        #: names of program-input symbols introduced so far (for taint).
        self.input_sym_names: Tuple[str, ...] = tuple(input_sym_names or ())
        #: incremental solver context whose conjunction is exactly
        #: ``self.constraints`` (set by the segment executor; None means
        #: the executor rebuilds it lazily).
        self.solver_ctx = None
        # Freshly-constructed snapshots own all their containers; COW
        # children reset these after construction.
        self._owned = set(_COW_FIELDS)
        self._owned_threads = set(threads)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def initial(cls, module: Module, coredump: Coredump) -> "SymbolicSnapshot":
        """The base case of the recursion: S_post := the coredump (§2.4)."""
        threads: Dict[int, SnapThread] = {}
        for tid, dump in coredump.threads.items():
            frames = [
                SnapFrame(
                    function=fr.function,
                    block=fr.block,
                    index=fr.index,
                    regs={reg: Const(value) for reg, value in fr.regs.items()},
                    frame_base=fr.frame_base,
                    frame_words=fr.frame_words,
                    ret_dst=fr.ret_dst,
                )
                for fr in dump.frames
            ]
            threads[tid] = SnapThread(
                tid=tid, frames=frames, coredump_status=dump.status,
                at_boundary=not frames and not dump.start_function,
                start_function=dump.start_function,
                return_value=dump.return_value,
            )
        allocs = sorted((base, size) for base, (size, _) in coredump.heap.items())
        live = {base: not freed for base, (size, freed) in coredump.heap.items()}
        # Partial dumps (minidumps, §1) expose an `available` predicate;
        # words outside it become unconstrained unknowns instead of
        # trusted concrete values.
        known = getattr(coredump, "available", None)

        def base_read(addr: int) -> int:
            return coredump.memory.get(addr, 0)

        return cls(
            module=module,
            coredump=coredump,
            memory=SymMemory(base=base_read, known=known),
            threads=threads,
            constraints=(),
            stack_tops=dict(coredump.stack_tops),
            remaining_allocs=allocs,
            live_at_start=live,
            lock_owners=dict(coredump.lock_owners),
            trap_pending=True,
        )

    # ------------------------------------------------------------------
    # Fresh symbols
    # ------------------------------------------------------------------

    def fresh(self, prefix: str) -> Sym:
        self._fresh_counter += 1
        return Sym(f"{prefix}{self._fresh_counter}")

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------

    def child(self, cow: bool = True) -> "SymbolicSnapshot":
        """Working copy for one backward step.

        With ``cow`` (the default) the child structurally shares every
        container with its parent and copies only what it mutates; with
        ``cow=False`` it eagerly deep-copies the whole state (the
        original behavior, kept as the A/B baseline).
        """
        if cow:
            clone = SymbolicSnapshot(
                module=self.module,
                coredump=self.coredump,
                memory=self.memory.copy(cow=True),
                threads=dict(self.threads),
                constraints=self.constraints,
                stack_tops=self.stack_tops,
                remaining_allocs=self.remaining_allocs,
                live_at_start=self.live_at_start,
                lock_owners=self.lock_owners,
                fresh_counter=self._fresh_counter,
                trap_pending=self.trap_pending,
                input_sym_names=self.input_sym_names,
            )
            clone._owned = set()
            clone._owned_threads = set()
            return clone
        return SymbolicSnapshot(
            module=self.module,
            coredump=self.coredump,
            memory=self.memory.copy(cow=False),
            threads={tid: t.copy() for tid, t in self.threads.items()},
            constraints=self.constraints,
            stack_tops=dict(self.stack_tops),
            remaining_allocs=list(self.remaining_allocs),
            live_at_start=dict(self.live_at_start),
            lock_owners=dict(self.lock_owners),
            fresh_counter=self._fresh_counter,
            trap_pending=self.trap_pending,
            input_sym_names=self.input_sym_names,
        )

    # ------------------------------------------------------------------
    # Mutation API (copy-on-write)
    # ------------------------------------------------------------------

    def _own(self, name: str):
        """Return the named container, copying it first if still shared."""
        if name not in self._owned:
            current = getattr(self, name)
            setattr(self, name,
                    dict(current) if isinstance(current, dict)
                    else list(current))
            self._owned.add(name)
        return getattr(self, name)

    def thread_for_write(self, tid: int) -> SnapThread:
        """The thread object, privately copied on first mutation."""
        if tid not in self._owned_threads:
            self.threads[tid] = self.threads[tid].copy()
            self._owned_threads.add(tid)
        return self.threads[tid]

    def set_stack_top(self, tid: int, top: int) -> None:
        self._own("stack_tops")[tid] = top

    def set_remaining_allocs(self, allocs: Iterable[Tuple[int, int]]) -> None:
        self.remaining_allocs = list(allocs)
        self._owned.add("remaining_allocs")

    def set_live_at_start(self, base: int, live: bool) -> None:
        self._own("live_at_start")[base] = live

    def set_lock_owner(self, addr: int, owner: Optional[int]) -> None:
        owners = self._own("lock_owners")
        if owner is None:
            owners.pop(addr, None)
        else:
            owners[addr] = owner

    def append_constraints(self, exprs: Iterable[Expr],
                           solver_ctx=None) -> None:
        """Grow the constraint conjunction (the only sanctioned way).

        ``solver_ctx``, when provided, must be an incremental context
        for exactly the extended conjunction; otherwise any stale
        context is dropped and rebuilt lazily by the executor.
        """
        self.constraints = self.constraints + tuple(exprs)
        self.solver_ctx = solver_ctx

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def heap_cursor(self) -> int:
        """Bump-allocator cursor implied by the remaining allocations."""
        if not self.remaining_allocs:
            return HEAP_BASE
        base, size = self.remaining_allocs[-1]
        return base + size + 1

    def describe(self) -> str:
        lines = [f"<snapshot: {len(self.constraints)} constraints, "
                 f"{len(self.memory.overlay)} symbolic words>"]
        for tid, thread in sorted(self.threads.items()):
            pcs = " / ".join(str(f.pc) for f in thread.frames) or "(finished)"
            lines.append(f"  t{tid}: {pcs}{' [boundary]' if thread.at_boundary else ''}")
        return "\n".join(lines)

"""Symbolic memory: an expression overlay above a concrete base image.

Used in two roles:

* by the forward symbolic VM (baseline), where the base is the
  program's initial memory, and
* by RES snapshots, where the base is the coredump and the overlay
  holds reconstructed pre-state expressions.

When the base image is *partial* (a minidump, §1), a ``known``
predicate marks which addresses the base actually contains; reads of
unknown words materialize a fresh, unconstrained symbolic value that is
memoized so every later read observes the same unknown.

The overlay is a persistent chain of layers: ``copy()`` (the RES
``child()`` hot path) creates an empty layer over the parent instead of
duplicating the whole overlay, so deriving a child snapshot is O(1) and
writes are copy-on-write by construction.  A child's writes land in its
own layer and are invisible to the parent and to sibling copies.  Reads
walk the chain parent-ward; chains are flattened once they grow deeper
than ``_MAX_CHAIN`` so the walk stays O(1) amortized.

The one parent-side mutation — memoizing a minidump unknown — is safe
under sharing because the materialized symbol's name is a pure function
of the address: every layer that materializes it produces the same
``Sym``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.symex.expr import Const, Expr, Sym

#: longest layer chain tolerated before ``copy`` flattens it
_MAX_CHAIN = 12


class SymMemory:
    """Word-addressed map ``addr → Expr`` over a concrete base."""

    def __init__(self, base: Optional[Callable[[int], int]] = None,
                 known: Optional[Callable[[int], bool]] = None):
        self._local: Dict[int, Expr] = {}
        self._parent: Optional["SymMemory"] = None
        self._depth = 0
        self._base = base
        self._known = known

    @property
    def overlay(self) -> Dict[int, Expr]:
        """Merged view of the whole layer chain (local layer wins)."""
        if self._parent is None:
            return self._local
        merged = dict(self._parent.overlay)
        merged.update(self._local)
        return merged

    def read(self, addr: int) -> Expr:
        node: Optional[SymMemory] = self
        while node is not None:
            value = node._local.get(addr)
            if value is not None:
                return value
            node = node._parent
        if self._base is not None:
            if self._known is None or self._known(addr):
                return Const(self._base(addr))
            # Partial base (minidump): the word was never captured.
            unknown = Sym(f"md_{addr:x}")
            self._local[addr] = unknown
            return unknown
        return Const(0)

    def has_overlay(self, addr: int) -> bool:
        node: Optional[SymMemory] = self
        while node is not None:
            if addr in node._local:
                return True
            node = node._parent
        return False

    def write(self, addr: int, value: Expr) -> None:
        self._local[addr] = value

    def items(self) -> Iterator[Tuple[int, Expr]]:
        return iter(self.overlay.items())

    def __len__(self) -> int:
        return len(self.overlay)

    def copy(self, cow: bool = True) -> "SymMemory":
        clone = SymMemory(self._base, self._known)
        if cow and self._depth < _MAX_CHAIN:
            clone._parent = self
            clone._depth = self._depth + 1
        else:
            clone._local = dict(self.overlay)
        return clone

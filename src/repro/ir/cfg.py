"""Control-flow and call graphs for the backward baselines.

Backward navigation walks the CFG against its edges (paper §2.3), so
the artifacts here are a function's predecessor map and the module's
direct call sites; the static slicer and the weakest-precondition
baseline walk them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.ir.instructions import CallInst, Instr, SpawnInst
from repro.ir.module import Function, Module


@dataclass
class CFG:
    """Predecessor view of one function, with caching."""

    function: Function

    def __post_init__(self) -> None:
        self._preds = self.function.predecessors()

    def predecessors(self, label: str) -> List[str]:
        return list(self._preds[label])


class CallGraph:
    """Module-level direct call/spawn graph.

    Backward interprocedural navigation over *completed* calls needs the
    set of call sites that can precede a function's entry; live frames
    use the coredump call stack instead, which is precise (DESIGN §5.4).
    """

    def __init__(self, module: Module):
        self.module = module
        self._callers: Dict[str, List[Tuple[str, str, int]]] = {
            name: [] for name in module.functions
        }
        for fname, func in module.functions.items():
            for label, idx, instr in func.iter_instrs():
                callee = _callee_of(instr)
                if callee is None:
                    continue
                if callee in self._callers:
                    self._callers[callee].append((fname, label, idx))

    def call_sites_of(self, callee: str) -> List[Tuple[str, str, int]]:
        """``(function, block, index)`` of every direct call/spawn of ``callee``."""
        return list(self._callers.get(callee, []))


def _callee_of(instr: Instr) -> Optional[str]:
    if isinstance(instr, (CallInst, SpawnInst)):
        return instr.callee
    return None

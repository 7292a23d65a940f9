"""The concrete execution substrate: VM, memory, scheduling, coredumps."""

from repro.vm.coredump import Coredump, ThreadDump, Trap, TrapKind
from repro.vm.faults import (
    ALUFaultInjector,
    InjectedFault,
    flip_bit,
    random_bit_flips,
    stray_dma_write,
)
from repro.vm.interpreter import RunResult, RunStatus, VM
from repro.vm.lbr import LastBranchRecord, LBRMode
from repro.vm.memory import AccessError, Allocation, Memory
from repro.vm.minidump import MiniDump, minidump_of
from repro.vm.scheduler import (
    RandomPreemptScheduler,
    RoundRobinScheduler,
    Scheduler,
)
from repro.vm.state import Frame, PC, Thread, ThreadStatus
from repro.vm.trace import ExecutionTrace, MemAccess, TraceEvent

__all__ = [
    "AccessError", "Allocation", "ALUFaultInjector", "Coredump",
    "ExecutionTrace", "Frame", "InjectedFault",
    "LastBranchRecord", "LBRMode", "MemAccess", "Memory", "MiniDump",
    "PC", "minidump_of",
    "RandomPreemptScheduler", "RoundRobinScheduler", "RunResult",
    "RunStatus", "Scheduler", "Thread", "ThreadDump", "ThreadStatus",
    "Trap", "TrapKind", "TraceEvent", "VM", "flip_bit",
    "random_bit_flips", "stray_dma_write",
]

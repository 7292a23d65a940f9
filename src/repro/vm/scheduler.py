"""Thread schedulers for the VM.

The VM asks the scheduler which runnable thread executes the next
instruction.  Production runs use the seeded preemptive scheduler
(deterministic per seed, but adversarial enough to expose races);
replay drives the VM directly and bypasses scheduling entirely.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence


class Scheduler:
    """Interface: pick the next thread to run."""

    def pick(self, runnable: Sequence[int], current: Optional[int]) -> int:
        raise NotImplementedError

    def at_preemption_point(self, runnable: Sequence[int], current: Optional[int],
                            shared_effect: bool) -> int:
        """Called by the VM before each instruction.

        ``shared_effect`` is True when the *next* instruction of the
        current thread touches shared state (memory, locks, I/O) —
        the only points where interleaving is observable under
        sequential consistency.
        """
        raise NotImplementedError


class RoundRobinScheduler(Scheduler):
    """Run each thread for ``quantum`` shared-effect instructions."""

    def __init__(self, quantum: int = 10):
        if quantum < 1:
            raise ValueError("quantum must be >= 1")
        self.quantum = quantum
        self._used = 0

    def pick(self, runnable: Sequence[int], current: Optional[int]) -> int:
        if current in runnable:
            after = [t for t in runnable if t > current]
            chosen = after[0] if after else runnable[0]
        else:
            chosen = runnable[0]
        self._used = 0
        return chosen

    def at_preemption_point(self, runnable, current, shared_effect):
        if current not in runnable:
            return self.pick(runnable, current)
        if shared_effect:
            self._used += 1
            if self._used >= self.quantum:
                return self.pick(runnable, current)
        return current


class RandomPreemptScheduler(Scheduler):
    """Seeded random preemption at shared-effect instructions.

    With probability ``preempt_prob`` the VM switches to a uniformly
    random runnable thread before a shared-effect instruction.  The same
    seed always yields the same schedule, so buggy interleavings found
    by a seed sweep are reproducible in tests.
    """

    def __init__(self, seed: int = 0, preempt_prob: float = 0.3):
        if not 0.0 <= preempt_prob <= 1.0:
            raise ValueError("preempt_prob must be in [0, 1]")
        self.rng = random.Random(seed)
        self.preempt_prob = preempt_prob

    def pick(self, runnable: Sequence[int], current: Optional[int]) -> int:
        return self.rng.choice(list(runnable))

    def at_preemption_point(self, runnable, current, shared_effect):
        if current not in runnable:
            return self.pick(runnable, current)
        if shared_effect and len(runnable) > 1 and self.rng.random() < self.preempt_prob:
            return self.pick(runnable, current)
        return current


"""The cross-oracles a generated failure is checked against.

Four independent ways of asking "did RES get this right?":

1. **Incremental vs. naive** — the two ``RESConfig.incremental`` modes
   must emit byte-identical suffixes (fingerprints cover the schedule,
   per-step effects, and the constraint set) and identical behavioral
   prune counters.  A chained solve reaches the verdict of a flat solve
   of the same conjunction by construction (the solver asserts in
   sequence order), so what this checks is that the chaining machinery
   is exact: copy-on-write snapshots, preamble and resolved-binding
   reuse, the component and delta caches, and replay's model reuse.
2. **Replay feasibility** — every emitted suffix must replay on the
   concrete interpreter through a *fresh* replayer (fresh solver, no
   model reuse), independently re-verifying the paper's feasibility
   guarantee.
3. **Weakest-precondition consistency** — when RES proves the failing
   assert reachable, the WP baseline's path disjunction for the crash
   function must contain at least one satisfiable precondition
   (checked only where WP is precise: loop-free crash function, no
   lost-precision paths, untruncated enumeration).
4. **Forward-synthesis agreement** (optional, expensive) — the ESD-style
   forward searcher is run for the record; it cannot prove absence
   within a budget, so disagreement is logged but never a divergence.

``suffix_fingerprint`` / ``behavioral_counters`` are the canonical
byte-exact comparison helpers; the P1 throughput benchmark imports them
from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core import RESConfig, ReverseExecutionSynthesizer, SuffixReplayer
from repro.core.fingerprints import (  # canonical home since PR 4;
    NON_BEHAVIORAL_STATS,             # re-exported for existing callers
    behavioral_counters,
    suffix_fingerprint,
)
from repro.ir.module import Module
from repro.vm.coredump import Coredump, TrapKind
from repro.symex.solver import Solver


def collect_suffixes(module: Module, coredump: Coredump, config: RESConfig,
                     max_suffixes: int, solver: Optional[Solver] = None):
    """Up to ``max_suffixes`` suffixes plus the final search stats.

    Both engines of a differential pair stop at the same emission count,
    so partial collection keeps the counter comparison exact (the search
    is deterministic).
    """
    res = ReverseExecutionSynthesizer(module, coredump, config,
                                      solver=solver)
    collected = []
    gen = res.suffixes()
    try:
        for item in gen:
            collected.append(item)
            if len(collected) >= max_suffixes:
                break
    finally:
        gen.close()
    return collected, res.stats


@dataclass
class OracleReport:
    """Everything the campaign records about one program's checks."""

    suffixes_emitted: int = 0
    replays_checked: int = 0
    wp_checked: bool = False
    wp_paths: int = 0
    forward_checked: bool = False
    forward_found: Optional[bool] = None
    divergences: List[Tuple[str, str]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Oracle 1: incremental vs. naive
# ---------------------------------------------------------------------------

def compare_incremental(module: Module, coredump: Coredump,
                        config_kwargs: Dict, max_suffixes: int,
                        tamper_naive: bool = False,
                        check_cache: bool = False):
    """Run both engines; returns ``(incremental_suffixes, divergences)``.

    ``tamper_naive`` is the campaign's force-divergence test hook: it
    corrupts the naive fingerprint list so every suffix-emitting program
    reports a mismatch, exercising the artifact + shrink pipeline.

    ``check_cache`` adds the PR-4 warm-start oracle: the incremental
    engine's residual-component cache is exported, pushed through a full
    JSON round trip, imported into a *fresh* solver, and the search is
    re-run primed — the warm run must produce byte-identical suffix
    fingerprints and behavioral counters (a cached component verdict is
    a pure function of its key, so any difference is a real bug in the
    export/import or cache-keying layer).
    """
    import json as _json

    incr_solver = Solver()
    incr, incr_stats = collect_suffixes(
        module, coredump, RESConfig(incremental=True, **config_kwargs),
        max_suffixes, solver=incr_solver)
    naive, naive_stats = collect_suffixes(
        module, coredump, RESConfig(incremental=False, **config_kwargs),
        max_suffixes)

    incr_fp = [suffix_fingerprint(s) for s in incr]
    naive_fp = [suffix_fingerprint(s) for s in naive]
    if tamper_naive and naive_fp:
        naive_fp.append(("forced-divergence-sentinel",))

    divergences: List[Tuple[str, str]] = []
    if incr_fp != naive_fp:
        first = next((i for i, (a, b) in enumerate(zip(incr_fp, naive_fp))
                      if a != b), min(len(incr_fp), len(naive_fp)))
        divergences.append((
            "incremental-vs-naive",
            f"suffix streams differ (incremental {len(incr_fp)} vs naive "
            f"{len(naive_fp)} suffixes, first mismatch at index {first})"))
    else:
        incr_counters = behavioral_counters(incr_stats)
        naive_counters = behavioral_counters(naive_stats)
        if incr_counters != naive_counters:
            diff = sorted(key for key in incr_counters
                          if incr_counters[key] != naive_counters.get(key))
            divergences.append((
                "incremental-vs-naive",
                f"prune counters differ: {diff}"))

    if check_cache:
        snapshot = _json.loads(_json.dumps(
            incr_solver.export_component_cache()))
        primed_solver = Solver()
        primed_solver.import_component_cache(snapshot)
        primed, primed_stats = collect_suffixes(
            module, coredump, RESConfig(incremental=True, **config_kwargs),
            max_suffixes, solver=primed_solver)
        primed_fp = [suffix_fingerprint(s) for s in primed]
        if primed_fp != incr_fp:
            first = next(
                (i for i, (a, b) in enumerate(zip(incr_fp, primed_fp))
                 if a != b), min(len(incr_fp), len(primed_fp)))
            divergences.append((
                "cache-primed",
                f"warm-start suffix streams differ (cold {len(incr_fp)} vs "
                f"primed {len(primed_fp)} suffixes, first mismatch at "
                f"index {first})"))
        else:
            cold_counters = behavioral_counters(incr_stats)
            primed_counters = behavioral_counters(primed_stats)
            if cold_counters != primed_counters:
                diff = sorted(key for key in cold_counters
                              if cold_counters[key]
                              != primed_counters.get(key))
                divergences.append((
                    "cache-primed",
                    f"warm-start prune counters differ: {diff}"))
    return incr, divergences


# ---------------------------------------------------------------------------
# Oracle 2: independent replay feasibility
# ---------------------------------------------------------------------------

def check_replay_feasibility(module: Module, suffixes,
                             limit: int) -> Tuple[int, List[Tuple[str, str]]]:
    """Re-replay emitted suffixes through a fresh replayer (fresh solver,
    no model reuse); returns ``(checked, divergences)``."""
    divergences: List[Tuple[str, str]] = []
    checked = 0
    for item in suffixes[:limit]:
        checked += 1
        report = SuffixReplayer(module).replay(item.suffix)
        if not report.ok:
            divergences.append((
                "replay-infeasible",
                f"depth-{item.depth} suffix failed independent replay: "
                f"{'; '.join(report.mismatches[:3])}"))
    return checked, divergences


# ---------------------------------------------------------------------------
# Oracle 3: weakest-precondition consistency
# ---------------------------------------------------------------------------

def _loop_free(func) -> bool:
    """True if the function's CFG has no cycle (WP's precise fragment)."""
    colors: Dict[str, int] = {}

    def visit(label: str) -> bool:
        colors[label] = 1
        for succ in func.block(label).successors():
            state = colors.get(succ, 0)
            if state == 1:
                return False
            if state == 0 and not visit(succ):
                return False
        colors[label] = 2
        return True

    return visit(func.entry)


def check_wp_consistency(module: Module, coredump: Coredump,
                         suffixes_emitted: int,
                         max_paths: int = 64):
    """If RES proved the failing assert reachable, WP's path disjunction
    must contain a satisfiable precondition.

    Returns ``(checked, n_paths, divergences)``.  The check is skipped —
    not failed — wherever WP is allowed to be imprecise: non-assert
    traps, cyclic crash functions, lost-precision paths, or a truncated
    path enumeration.
    """
    from repro.baselines.wp import WeakestPrecondition

    trap = coredump.trap
    if trap.kind is not TrapKind.ASSERT_FAIL or suffixes_emitted == 0:
        return False, 0, []
    func = module.function(trap.pc.function)
    if not _loop_free(func):
        return False, 0, []
    wp = WeakestPrecondition(module)
    results = wp.failure_precondition(trap.pc.function, trap.pc.block,
                                      trap.pc.index, max_paths=max_paths)
    if not results or len(results) >= max_paths \
            or any(r.lost_precision for r in results):
        return False, len(results), []
    if wp.feasible_paths(results):
        return True, len(results), []
    return True, len(results), [(
        "wp-inconsistent",
        f"RES emitted {suffixes_emitted} suffixes but all "
        f"{len(results)} WP failure paths of {trap.pc.function} are "
        f"unsatisfiable")]


# ---------------------------------------------------------------------------
# Oracle 4 (optional): forward-synthesis agreement
# ---------------------------------------------------------------------------

def check_forward_agreement(module: Module, coredump: Coredump,
                            max_instructions: int = 200_000,
                            max_paths: int = 2_000) -> Optional[bool]:
    """Run the ESD-style forward searcher for the record.

    Returns whether it found a matching execution, or None when it gave
    up on budget.  Never a divergence: forward synthesis legitimately
    loses on symbolic addresses, so "not found" proves nothing.
    """
    from repro.baselines.forward_synthesis import ForwardSynthesizer

    result = ForwardSynthesizer(module, coredump,
                                max_instructions=max_instructions,
                                max_paths=max_paths).synthesize()
    if result.budget_exhausted and not result.found:
        return None
    return result.found

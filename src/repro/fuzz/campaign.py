"""The differential fuzzing campaign engine.

One campaign = ``count`` programs generated from consecutive seeds
(``seed .. seed + count - 1``).  Each program is compiled, run to its
armed trap in the concrete VM, its coredump captured (optionally
corrupted through the hardware-fault hooks), and the failure pushed
through the cross-oracles in :mod:`repro.fuzz.oracles`.  Divergences
are written out as reproducible JSON artifacts keyed by the program
seed — ``res fuzz --seed <program_seed> --count 1`` replays exactly
that program — and can be minimized in-place by the AST shrinker.

``--jobs N`` fans the per-program work out over a multiprocessing pool;
each program is fully independent, so the only serial phases are
artifact writing and shrinking (both parent-side).
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.ioutil import atomic_write_json
from repro.ir.module import GLOBALS_BASE, HEAP_BASE
from repro.minic import compile_source
from repro.vm.coredump import TrapKind
from repro.vm.faults import ALUFaultInjector, flip_bit
from repro.vm.interpreter import RunStatus, VM
from repro.vm.scheduler import RandomPreemptScheduler
from repro.fuzz.generator import GenConfig, generate_program
from repro.fuzz.oracles import (
    OracleReport,
    check_forward_agreement,
    check_replay_feasibility,
    check_wp_consistency,
    compare_incremental,
)
from repro.fuzz.shrink import ShrinkResult, shrink_program

#: VM step budget for one armed run (generated loops are tiny; this is
#: a backstop against generator bugs, not a tuning knob)
_RUN_BUDGET = 500_000


@dataclass
class CampaignConfig:
    """Everything a campaign needs; must stay picklable for ``--jobs``."""

    seed: int = 0
    count: int = 200
    jobs: int = 1
    #: RES search budget per oracle run (kept small: differential
    #: coverage scales with program count, not per-program depth)
    max_depth: int = 8
    max_nodes: int = 300
    max_suffixes: int = 12
    max_replay_checks: int = 6
    threads_prob: float = 0.25
    #: post-hoc coredump bit flips (DRAM model); flipped dumps only
    #: check incremental-vs-naive agreement — RES finding them
    #: infeasible is the expected §3.2 outcome, not a divergence
    hw_fault_prob: float = 0.05
    #: online ALU miscompute during the producing run (§3.2)
    alu_fault_prob: float = 0.03
    check_forward: bool = False
    #: PR-4 warm-start oracle: re-run the incremental engine on a fresh
    #: solver primed from a JSON round trip of the first run's exported
    #: residual-component cache; the primed run must be byte-identical.
    #: On by default — the cache layer is a live divergence surface.
    check_cache: bool = True
    #: test hook: corrupt the naive oracle's fingerprints so every
    #: suffix-emitting program diverges (exercises artifacts + shrink)
    force_divergence: bool = False
    shrink: bool = False
    shrink_budget: int = 400
    artifact_dir: str = "fuzz-artifacts"

    def gen_config(self) -> GenConfig:
        return GenConfig(threads_prob=self.threads_prob)


@dataclass
class ProgramVerdict:
    """Outcome of fuzzing one program seed."""

    seed: int
    status: str                    # "ok" | "no-trap" | "gen-error"
    arm_kind: str = ""
    trap_kind: str = ""
    uses_threads: bool = False
    hw_faulted: bool = False
    alu_faulted: bool = False
    oracle_flags: Dict[str, bool] = field(default_factory=dict)
    suffixes_emitted: int = 0
    replays_checked: int = 0
    wp_checked: bool = False
    forward_found: Optional[bool] = None
    divergences: List[Tuple[str, str]] = field(default_factory=list)
    source: str = ""
    inputs: List[int] = field(default_factory=list)
    sched_seed: int = 0
    preempt_prob: float = 0.3
    seconds: float = 0.0

    @property
    def divergent(self) -> bool:
        return bool(self.divergences)


@dataclass
class CampaignResult:
    config: CampaignConfig
    verdicts: List[ProgramVerdict]
    artifacts: List[str] = field(default_factory=list)
    elapsed: float = 0.0
    #: the campaign was cut short (Ctrl-C); verdicts hold the programs
    #: that finished before the interrupt, and are still summarized
    interrupted: bool = False

    @property
    def divergent(self) -> List[ProgramVerdict]:
        return [v for v in self.verdicts if v.divergent]

    def summary(self) -> Dict[str, int]:
        out: Dict[str, int] = {
            "programs": len(self.verdicts),
            "trapped": sum(1 for v in self.verdicts if v.status == "ok"),
            "no_trap": sum(1 for v in self.verdicts
                           if v.status == "no-trap"),
            "gen_errors": sum(1 for v in self.verdicts
                              if v.status == "gen-error"),
            "threaded": sum(1 for v in self.verdicts if v.uses_threads),
            "hw_faulted": sum(1 for v in self.verdicts if v.hw_faulted),
            "alu_faulted": sum(1 for v in self.verdicts if v.alu_faulted),
            "suffixes": sum(v.suffixes_emitted for v in self.verdicts),
            "replays_checked": sum(v.replays_checked
                                   for v in self.verdicts),
            "wp_checked": sum(1 for v in self.verdicts if v.wp_checked),
            "divergent": len(self.divergent),
        }
        return out


def _campaign_rng(program_seed: int) -> random.Random:
    # Decorrelated from the generator's rng (which consumes the raw
    # seed): campaign-level draws must not disturb program shape.
    return random.Random(program_seed * 2654435761 + 17)


def _draw_oracle_flags(rng: random.Random) -> Dict[str, bool]:
    return {
        "use_lbr": rng.random() < 0.3,
        "use_log": rng.random() < 0.3,
        "use_writer_index": rng.random() < 0.5,
    }


def _oracle_kwargs(flags: Dict[str, bool],
                   config: CampaignConfig) -> Dict:
    return dict(max_depth=config.max_depth, max_nodes=config.max_nodes,
                **flags)


def _run_oracles(module, dump, flags: Dict[str, bool],
                 config: CampaignConfig,
                 gate_function: Optional[str],
                 hw_faulted: bool) -> OracleReport:
    report = OracleReport()
    kwargs = _oracle_kwargs(flags, config)
    suffixes, divergences = compare_incremental(
        module, dump, kwargs, config.max_suffixes,
        tamper_naive=config.force_divergence,
        check_cache=config.check_cache)
    report.suffixes_emitted = len(suffixes)
    report.divergences.extend(divergences)

    if not hw_faulted:
        # Corrupted dumps only check incremental-vs-naive agreement:
        # what RES makes of an inconsistent dump is the §3.2 question,
        # not a feasibility contract the extra oracles may enforce.
        # A dump the VM produced is the end of a real execution, so
        # some suffix of it must replay onto the dump exactly.
        if not suffixes:
            report.divergences.append((
                "no-suffix",
                f"no suffix verified within max_depth={config.max_depth}, "
                f"max_nodes={config.max_nodes}"))
        report.replays_checked, replay_div = check_replay_feasibility(
            module, suffixes, config.max_replay_checks)
        report.divergences.extend(replay_div)

    if gate_function is not None and not hw_faulted \
            and dump.trap.pc.function == gate_function:
        report.wp_checked, report.wp_paths, wp_div = check_wp_consistency(
            module, dump, report.suffixes_emitted)
        report.divergences.extend(wp_div)

    if config.check_forward and not hw_faulted:
        report.forward_checked = True
        report.forward_found = check_forward_agreement(module, dump)
    return report


def fuzz_one(program_seed: int, config: CampaignConfig) -> ProgramVerdict:
    """Generate, crash, and cross-check one program."""
    start = time.perf_counter()
    try:
        gen = generate_program(program_seed, config.gen_config())
    except ReproError as exc:
        return ProgramVerdict(
            seed=program_seed, status="gen-error",
            divergences=[("generator", str(exc))],
            seconds=time.perf_counter() - start)

    verdict = ProgramVerdict(
        seed=program_seed, status="ok", arm_kind=gen.arm_kind,
        uses_threads=gen.uses_threads, source=gen.source,
        inputs=list(gen.inputs), sched_seed=gen.sched_seed,
        preempt_prob=gen.gen_config.get("preempt_prob", 0.3))
    rng = _campaign_rng(program_seed)
    verdict.oracle_flags = _draw_oracle_flags(rng)
    alu = rng.random() < config.alu_fault_prob
    hw = not alu and rng.random() < config.hw_fault_prob

    injector = None
    if alu:
        verdict.alu_faulted = True
        injector = ALUFaultInjector(op="add",
                                    fire_at=rng.randint(1, 40),
                                    xor_mask=1 << rng.randrange(8))
    try:
        module = gen.module
    except ReproError as exc:
        verdict.status = "gen-error"
        verdict.divergences.append(("generator", str(exc)))
        verdict.seconds = time.perf_counter() - start
        return verdict

    vm = VM(module, inputs=gen.inputs, scheduler=gen.make_scheduler(),
            lbr_depth=16, alu_fault=injector)
    result = vm.run(max_steps=_RUN_BUDGET)

    if result.status is not RunStatus.TRAPPED or result.coredump is None:
        verdict.status = "no-trap"
        if not alu:  # an ALU fault is allowed to defuse the armed failure
            verdict.divergences.append((
                "trap-mismatch",
                f"armed program ended {result.status.value} instead of "
                f"trapping {gen.expected_trap.value}"))
        verdict.seconds = time.perf_counter() - start
        return verdict

    dump = result.coredump
    verdict.trap_kind = dump.trap.kind.value
    if not alu and dump.trap.kind is not gen.expected_trap:
        verdict.divergences.append((
            "trap-mismatch",
            f"armed for {gen.expected_trap.value} but trapped "
            f"{dump.trap.kind.value} at {dump.trap.pc}"))
        verdict.seconds = time.perf_counter() - start
        return verdict

    if hw:
        candidates = sorted(a for a in dump.memory
                            if GLOBALS_BASE <= a < HEAP_BASE)
        if candidates:
            flip_bit(dump, rng.choice(candidates), rng.randrange(16))
            verdict.hw_faulted = True

    report = _run_oracles(module, dump, verdict.oracle_flags, config,
                          gen.gate_function,
                          verdict.hw_faulted or verdict.alu_faulted)
    verdict.suffixes_emitted = report.suffixes_emitted
    verdict.replays_checked = report.replays_checked
    verdict.wp_checked = report.wp_checked
    verdict.forward_found = report.forward_found
    verdict.divergences.extend(report.divergences)
    verdict.seconds = time.perf_counter() - start
    return verdict


def _pool_worker(args: Tuple[int, CampaignConfig]) -> ProgramVerdict:
    return fuzz_one(*args)


# ---------------------------------------------------------------------------
# Shrinking divergent programs
# ---------------------------------------------------------------------------

def divergence_predicate(verdict: ProgramVerdict, config: CampaignConfig):
    """Predicate closure for the shrinker: does ``source`` still show
    (any of) the verdict's divergence kinds under the same oracle
    configuration?  Fault injection is *not* re-applied: a divergence
    that only manifests on a corrupted dump is reported unshrunk."""
    kinds = {kind for kind, _ in verdict.divergences}
    kwargs = _oracle_kwargs(verdict.oracle_flags, config)

    def predicate(source: str) -> bool:
        try:
            module = compile_source(source, name=f"shrink_{verdict.seed}")
        except ReproError:
            return False
        vm = VM(module, inputs=verdict.inputs,
                scheduler=RandomPreemptScheduler(
                    seed=verdict.sched_seed,
                    preempt_prob=verdict.preempt_prob),
                lbr_depth=16)
        result = vm.run(max_steps=_RUN_BUDGET)
        if result.status is not RunStatus.TRAPPED \
                or result.coredump is None:
            return False
        dump = result.coredump
        suffixes, divergences = compare_incremental(
            module, dump, kwargs, config.max_suffixes,
            tamper_naive=config.force_divergence,
            check_cache=config.check_cache and "cache-primed" in kinds)
        found_kinds = {kind for kind, _ in divergences}
        if found_kinds & kinds & {"incremental-vs-naive", "cache-primed"} \
                or (divergences and config.force_divergence):
            return True
        if "replay-infeasible" in kinds:
            _, replay_div = check_replay_feasibility(
                module, suffixes, config.max_replay_checks)
            if replay_div:
                return True
        if "wp-inconsistent" in kinds \
                and dump.trap.kind is TrapKind.ASSERT_FAIL:
            _, _, wp_div = check_wp_consistency(module, dump,
                                                len(suffixes))
            if wp_div:
                return True
        return False

    return predicate


_SHRINKABLE_KINDS = ("incremental-vs-naive", "cache-primed",
                     "replay-infeasible", "wp-inconsistent")


def shrink_verdict(verdict: ProgramVerdict,
                   config: CampaignConfig) -> Optional[ShrinkResult]:
    """Minimize a divergent program; None when its divergence kind
    cannot be re-checked from source alone (generator/fault cases)."""
    if not verdict.source or not any(
            kind in _SHRINKABLE_KINDS
            for kind, _ in verdict.divergences):
        return None
    predicate = divergence_predicate(verdict, config)
    if not predicate(verdict.source):
        return None  # not reproducible without the injected fault
    return shrink_program(verdict.source, predicate,
                          max_tests=config.shrink_budget)


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------

def reproduce_command(program_seed: int, config: CampaignConfig) -> str:
    """The exact ``res fuzz`` invocation that re-runs one program under
    this campaign's generator shape and oracle budgets (every flag that
    differs from the CLI default is carried along)."""
    defaults = CampaignConfig()
    flags = [f"--seed {program_seed}", "--count 1"]
    for field_name, flag in (("max_depth", "--max-depth"),
                             ("max_nodes", "--max-nodes"),
                             ("max_suffixes", "--max-suffixes"),
                             ("threads_prob", "--threads-prob"),
                             ("hw_fault_prob", "--hw-fault-prob"),
                             ("alu_fault_prob", "--alu-fault-prob")):
        value = getattr(config, field_name)
        if value != getattr(defaults, field_name):
            flags.append(f"{flag} {value}")
    if config.check_forward:
        flags.append("--check-forward")
    if not config.check_cache:
        flags.append("--no-check-cache")
    if config.force_divergence:
        flags.append("--force-divergence")
    return "res fuzz " + " ".join(flags)


def write_artifact(verdict: ProgramVerdict, config: CampaignConfig,
                   shrunk: Optional[ShrinkResult] = None) -> str:
    """One JSON artifact per divergent program, reproducible by seed.

    Written atomically (temp file + ``os.replace``): an interrupted
    campaign must never leave a truncated artifact behind — a partial
    JSON would fail to parse, and with it the divergence repro."""
    directory = Path(config.artifact_dir)
    kind = verdict.divergences[0][0] if verdict.divergences else "unknown"
    path = directory / f"div-{verdict.seed}-{kind}.json"
    payload = {
        "program_seed": verdict.seed,
        "reproduce": reproduce_command(verdict.seed, config),
        "campaign_config": asdict(config),
        "oracle_flags": verdict.oracle_flags,
        "divergences": [list(d) for d in verdict.divergences],
        "status": verdict.status,
        "arm_kind": verdict.arm_kind,
        "trap_kind": verdict.trap_kind,
        "inputs": verdict.inputs,
        "sched_seed": verdict.sched_seed,
        "hw_faulted": verdict.hw_faulted,
        "alu_faulted": verdict.alu_faulted,
        "source": verdict.source,
    }
    if shrunk is not None:
        payload["shrunk_source"] = shrunk.source
        payload["shrunk_lines"] = shrunk.lines
        payload["shrink_tests"] = shrunk.tests_run
    return atomic_write_json(path, payload, indent=2, sort_keys=False)


# ---------------------------------------------------------------------------
# The campaign driver
# ---------------------------------------------------------------------------

def run_campaign(config: CampaignConfig,
                 progress=None) -> CampaignResult:
    """Run the full campaign; ``progress`` is an optional callable
    invoked with each :class:`ProgramVerdict` as it lands.

    Ctrl-C is a first-class outcome, not a crash: the worker pool is
    terminated (no zombie workers), the verdicts that already landed are
    kept, their divergences still get (atomic) artifacts, and the
    result comes back flagged ``interrupted`` so callers can summarize
    the partial run."""
    start = time.perf_counter()
    seeds = [config.seed + i for i in range(config.count)]
    verdicts: List[ProgramVerdict] = []
    interrupted = False
    if config.jobs > 1:
        import multiprocessing as mp

        pool = mp.Pool(config.jobs)
        try:
            for verdict in pool.imap_unordered(
                    _pool_worker, [(s, config) for s in seeds],
                    chunksize=max(1, len(seeds) // (config.jobs * 8))):
                verdicts.append(verdict)
                if progress is not None:
                    progress(verdict)
            pool.close()
        except KeyboardInterrupt:
            interrupted = True
            pool.terminate()
        except BaseException:
            # Any other error still must not leak live workers (and a
            # join() on a running pool would raise, masking the cause).
            pool.terminate()
            raise
        finally:
            pool.join()
        verdicts.sort(key=lambda v: v.seed)
    else:
        try:
            for seed in seeds:
                verdict = fuzz_one(seed, config)
                verdicts.append(verdict)
                if progress is not None:
                    progress(verdict)
        except KeyboardInterrupt:
            interrupted = True

    result = CampaignResult(config=config, verdicts=verdicts,
                            interrupted=interrupted)
    for verdict in result.divergent:
        shrunk = shrink_verdict(verdict, config) if config.shrink else None
        result.artifacts.append(write_artifact(verdict, config, shrunk))
    result.elapsed = time.perf_counter() - start
    return result

"""Batch triage service: sharded, multiprocess triage over coredump
corpora (paper §3.1 at production scale).

The single-report :class:`repro.core.triage.TriageEngine` answers "what
bucket does this coredump belong to?".  This module answers the same
question for a *corpus* under report traffic, with three scaling layers
stacked on top of the engine:

* **dedup by coredump fingerprint** — production report streams are
  dominated by duplicate crashes (that is why bucketing exists at all);
  reports whose :meth:`repro.vm.coredump.Coredump.fingerprint` matches
  an already-triaged report short-circuit to the cached verdict and
  never touch RES;
* **sharding by program** — unique reports are grouped by the program
  they crash, and groups are fanned across worker processes.  Within a
  worker every report of the same program reuses one compiled module
  and one :class:`TriageEngine`, so the per-module RES caches
  (candidate enumerator, writer index, block boundaries, solver verdict
  cache) are shared across reports instead of rebuilt per report;
* **anytime streaming + a persistent report store** — finished groups
  are streamed to a ``progress`` callback as they land, and the JSON
  report store on disk is atomically rewritten as results accumulate,
  so an operator can watch buckets fill while the batch is running and
  an interrupted run leaves a readable partial store behind;
* **warm start (PR 4)** — with a ``cache_dir``, every synthesized
  verdict is durably appended to a cross-run
  :class:`repro.core.rescache.ResultCache` as it lands, and the next
  run short-circuits any report whose strict cache key (module ×
  coredump × config × schema fingerprints) is unchanged — only new or
  invalidated reports re-pay the backward search.  Exported
  residual-component solver caches ride along per module, so even the
  recomputed reports start on a primed solver.  ``warm_from`` names
  additional read-only cache directories consulted on a miss.

Determinism contract: for the same corpus and budgets, the sharded run
buckets **byte-identically** to the serial run (``jobs=1``), to a
plain per-report ``TriageEngine.triage`` sweep, and to a warm run over
any cache state — parallelism and caching are execution strategies,
never a semantic change.  Enforced by ``tests/test_triage.py``,
``benchmarks/test_p3_triage_throughput.py``, and
``benchmarks/test_p4_warm_triage.py``; :func:`verdict_view` is the
canonical "semantic subset" two report stores are compared by (it
excludes only wall-clock and cache-provenance fields, which describe
the run, not the verdicts).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro import faultinject
from repro import obs
from repro.errors import ReproError
from repro.ioutil import atomic_write_json
from repro.minic import compile_source
from repro.core.bucketing import BucketRefinement, refine
from repro.symex.solver import Solver
from repro.vm.coredump import Coredump
from repro.core.res import RESConfig
from repro.core.rescache import (
    CacheChain,
    CachedVerdict,
    CacheKey,
    module_fingerprint,
    res_config_fingerprint,
)
from repro.core.triage import (
    BugReport,
    TriageAnnotation,
    TriageEngine,
    TriageResult,
    bucket_accuracy,
    misbucketed_fraction,
    synthesize_result,
)


@dataclass(frozen=True)
class ProgramSpec:
    """Picklable handle for a program a corpus crashes.

    Workers compile the source themselves (a :class:`Module` carries
    per-module caches and closures that must not cross process
    boundaries); compiling once per worker is exactly what lets those
    caches be shared across every report of the same program.
    """

    key: str
    source: str
    name: str = ""

    def compile(self):
        return compile_source(self.source, name=self.name or self.key)

    def module_fp(self) -> str:
        """The warm-start cache identity of this program (source +
        resolved module name — the same name :meth:`compile` uses)."""
        return module_fingerprint(self.source, self.name or self.key)


@dataclass
class CorpusEntry:
    """One incoming report plus the program it crashes."""

    report: BugReport
    program_key: str


@dataclass
class TriageCorpus:
    """A corpus of bug reports over one or more programs."""

    programs: Dict[str, ProgramSpec]
    entries: List[CorpusEntry]

    def __post_init__(self) -> None:
        for entry in self.entries:
            if entry.program_key not in self.programs:
                raise ReproError(
                    f"corpus entry {entry.report.report_id!r} references "
                    f"unknown program {entry.program_key!r}")

    @property
    def reports(self) -> List[BugReport]:
        return [entry.report for entry in self.entries]

    def labeled_count(self) -> int:
        return sum(1 for e in self.entries
                   if e.report.true_cause is not None)

    # -- persistence --------------------------------------------------------

    def save(self, directory: str) -> str:
        """Write the corpus as a directory of coredump JSONs plus a
        manifest (the on-disk interchange format of ``res triage``)."""
        root = Path(directory)
        (root / "cores").mkdir(parents=True, exist_ok=True)
        (root / "programs").mkdir(parents=True, exist_ok=True)
        manifest = {"programs": {}, "entries": []}
        for key, spec in sorted(self.programs.items()):
            rel = f"programs/{key}.minic"
            (root / rel).write_text(spec.source)
            manifest["programs"][key] = {"name": spec.name or key,
                                         "file": rel}
        for entry in self.entries:
            rel = f"cores/{entry.report.report_id}.json"
            (root / rel).write_text(entry.report.coredump.to_json())
            manifest["entries"].append({
                "report_id": entry.report.report_id,
                "program": entry.program_key,
                "true_cause": entry.report.true_cause,
                "core": rel,
            })
        atomic_write_json(root / "manifest.json", manifest)
        return str(root / "manifest.json")

    @classmethod
    def load(cls, directory: str) -> "TriageCorpus":
        """Load a saved corpus; every way the directory can be damaged
        (missing, corrupt manifest, missing member file, malformed
        coredump JSON) surfaces as a one-line :class:`ReproError`, so
        CLI users get a diagnostic instead of a traceback."""
        root = Path(directory)
        if not root.is_dir():
            raise ReproError(f"corpus directory not found: {root}")
        manifest_path = root / "manifest.json"
        if not manifest_path.exists():
            raise ReproError(f"no corpus manifest at {manifest_path}")
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, ValueError) as exc:
            raise ReproError(
                f"corrupt corpus manifest {manifest_path}: {exc}") from exc
        try:
            programs = {
                key: ProgramSpec(key=key, name=meta["name"],
                                 source=(root / meta["file"]).read_text())
                for key, meta in manifest["programs"].items()
            }
        except OSError as exc:
            raise ReproError(
                f"corpus {root} references a missing program file: "
                f"{exc}") from exc
        except (KeyError, TypeError, AttributeError) as exc:
            raise ReproError(
                f"corrupt corpus manifest {manifest_path}: {exc}") from exc
        entries = []
        try:
            items = list(manifest["entries"])
        except (KeyError, TypeError) as exc:
            raise ReproError(
                f"corrupt corpus manifest {manifest_path}: {exc}") from exc
        for item in items:
            try:
                report_id = item["report_id"]
                core_rel = item["core"]
                true_cause = item["true_cause"]
                program_key = item["program"]
            except (KeyError, TypeError) as exc:
                # A bad manifest row must not be blamed on a (possibly
                # perfectly valid) coredump file.
                raise ReproError(
                    f"corrupt corpus manifest {manifest_path}: "
                    f"{exc}") from exc
            try:
                core_text = (root / core_rel).read_text()
            except OSError as exc:
                raise ReproError(
                    f"corpus {root} references a missing coredump: "
                    f"{exc}") from exc
            try:
                coredump = Coredump.from_json(core_text)
            except (KeyError, ValueError, TypeError) as exc:
                raise ReproError(
                    f"malformed coredump {root / core_rel}: {exc}") from exc
            entries.append(CorpusEntry(
                report=BugReport(report_id=report_id, coredump=coredump,
                                 true_cause=true_cause),
                program_key=program_key))
        return cls(programs=programs, entries=entries)


@dataclass
class TriageServiceConfig:
    """Tuning knobs of a batch triage run; must stay picklable.

    ``annotations`` ride along to the workers, so with ``jobs > 1``
    their matchers must be picklable (module-level functions).
    """

    jobs: int = 1
    max_depth: int = 8
    max_nodes: int = 300
    stack_depth: int = 8
    incremental: bool = True
    annotations: Optional[List[TriageAnnotation]] = None
    #: engine drive budgets (part of the warm-start cache key)
    max_suffixes: int = 128
    taint_suffixes: int = 8
    #: persistent JSON report store (None disables the store)
    store_path: Optional[str] = None
    #: rewrite the store every N finished groups (anytime visibility
    #: vs. fsync traffic)
    flush_every: int = 4
    #: cross-run result cache directory: verdicts are read from it
    #: before any search runs and appended to it as results land
    cache_dir: Optional[str] = None
    #: additional *read-only* cache directories consulted on a miss
    #: (e.g. a shared baseline cache); never written
    warm_from: Tuple[str, ...] = ()
    #: refuse to run any backward search: every representative must be
    #: a warm cache hit (``res triage --rebucket`` — prove that a
    #: bucket-policy change re-buckets all cached history for free)
    rebucket_only: bool = False

    def res_config(self) -> RESConfig:
        return RESConfig(max_depth=self.max_depth,
                         max_nodes=self.max_nodes,
                         incremental=self.incremental)

    def cache_chain(self) -> CacheChain:
        return CacheChain.open(self.cache_dir, tuple(self.warm_from))

    def config_fingerprint(self) -> str:
        """Must match :meth:`TriageEngine.config_fingerprint` for the
        engines this config builds — the solver caps come from a
        default-constructed :class:`Solver`, exactly as the workers
        construct theirs."""
        solver = Solver()
        return res_config_fingerprint(
            self.res_config(),
            max_suffixes=self.max_suffixes,
            taint_suffixes=self.taint_suffixes,
            solver_max_enum=solver.max_enum,
            solver_max_nodes=solver.max_nodes)


@dataclass
class TriagedReport:
    """One service verdict: the engine result plus service metadata."""

    result: TriageResult
    program_key: str
    fingerprint: str
    seconds: float = 0.0
    #: report_id of the representative this verdict was copied from
    #: (None when this report was actually triaged)
    dedup_of: Optional[str] = None
    #: verdict came from the cross-run result cache (no search ran)
    cached: bool = False


@dataclass
class TriageServiceResult:
    """Everything a batch run produced, in corpus order."""

    reports: List[TriagedReport]
    elapsed: float = 0.0
    triaged: int = 0
    dedup_hits: int = 0
    #: reports short-circuited by the cross-run result cache
    cache_hits: int = 0
    interrupted: bool = False

    @property
    def results(self) -> List[TriageResult]:
        return [r.result for r in self.reports]

    def buckets(self) -> Dict[Hashable, List[str]]:
        out: Dict[Hashable, List[str]] = {}
        for item in self.reports:
            out.setdefault(item.result.bucket, []).append(
                item.result.report_id)
        return out

    def throughput(self) -> float:
        return len(self.reports) / self.elapsed if self.elapsed else 0.0


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

#: per-process state: compiled modules and engines, keyed by program
#: (populated lazily, shared across every group the worker processes)
_WORKER: Dict[str, object] = {}


def _init_worker(programs: Dict[str, ProgramSpec],
                 config: TriageServiceConfig) -> None:
    _WORKER["programs"] = programs
    _WORKER["config"] = config
    _WORKER["engines"] = {}


def build_engine(spec: ProgramSpec, config: TriageServiceConfig,
                 chain: Optional[CacheChain] = None) -> TriageEngine:
    """Compile ``spec`` and build the one engine every report of that
    program rides — the single construction path shared by the batch
    workers and the streaming (daemon) sessions, so the two cannot
    drift apart."""
    engine = TriageEngine(spec.compile(), config.res_config(),
                          annotations=config.annotations,
                          stack_depth=config.stack_depth,
                          max_suffixes=config.max_suffixes,
                          taint_suffixes=config.taint_suffixes)
    if chain is not None and chain.enabled:
        # Warm workers start primed: a prior run's exported
        # residual-component cache is exact (pure function of its
        # key), so priming can speed the search up but never
        # change a verdict.
        engine.import_solver_cache(
            chain.load_solver_cache(spec.module_fp()))
    return engine


def _worker_engine(program_key: str) -> TriageEngine:
    engines: Dict[str, TriageEngine] = _WORKER["engines"]  # type: ignore
    engine = engines.get(program_key)
    if engine is None:
        config: TriageServiceConfig = _WORKER["config"]  # type: ignore
        spec: ProgramSpec = _WORKER["programs"][program_key]  # type: ignore
        engine = build_engine(spec, config, config.cache_chain())
        engines[program_key] = engine
    return engine


#: per-item extras riding back with each verdict (cache-row material)
_GroupItem = Tuple[int, TriageResult, float, dict]


def _triage_group(group: Tuple[str, List[Tuple[int, BugReport]]]
                  ) -> Tuple[str, List[_GroupItem], Optional[dict]]:
    """Triage one (program, reports) group; runs inside a worker (or
    inline for ``jobs=1`` — same code path, so serial and sharded runs
    cannot diverge).  Returns the program key, the per-report verdicts
    (with drive stats + suffix digests for the result cache), and —
    when a cache is configured — the engine's exported solver cache."""
    program_key, items = group
    config: TriageServiceConfig = _WORKER["config"]  # type: ignore
    engine = _worker_engine(program_key)
    out: List[_GroupItem] = []
    for index, report in items:
        started = time.perf_counter()
        result = engine.triage_one(report)
        out.append((index, result, time.perf_counter() - started,
                    {"stats": engine.last_stats,
                     "suffixes": engine.last_suffix_digests}))
    solver_export = None
    if config.cache_dir is not None:
        solver_export = engine.export_solver_cache()
    return program_key, out, solver_export


# ---------------------------------------------------------------------------
# The service driver
# ---------------------------------------------------------------------------

def triage_corpus(corpus: TriageCorpus,
                  config: Optional[TriageServiceConfig] = None,
                  progress: Optional[Callable[[List[TriagedReport]],
                                              None]] = None
                  ) -> TriageServiceResult:
    """Triage a whole corpus: dedup, shard, stream, persist.

    ``progress`` is invoked with each finished group's verdicts (plus,
    at the end, the dedup copies) as they land — the anytime interface.
    """
    config = config or TriageServiceConfig()
    started = time.perf_counter()
    store = TriageStore(config) if config.store_path else None
    chain = config.cache_chain()
    config_fp = config.config_fingerprint() if chain.enabled else ""
    module_fps: Dict[str, str] = {
        key: spec.module_fp() for key, spec in corpus.programs.items()
    } if chain.enabled else {}

    # 1. Fingerprint + dedup: the first occurrence of each
    #    (program, fingerprint) pair is the representative; later
    #    occurrences short-circuit to its verdict.
    fingerprints: List[str] = [
        entry.report.coredump.fingerprint() for entry in corpus.entries]
    representative: Dict[Tuple[str, str], int] = {}
    duplicate_of: Dict[int, int] = {}
    for index, entry in enumerate(corpus.entries):
        key = (entry.program_key, fingerprints[index])
        if key in representative:
            duplicate_of[index] = representative[key]
        else:
            representative[key] = index

    # 2. Warm start: representatives whose strict cache key is
    #    unchanged take their verdict straight from the cross-run
    #    cache — the bucket mapping is re-derived from the cached
    #    cause (so current annotations apply), and no module is even
    #    compiled for fully-cached programs.  Any fingerprint
    #    mismatch is a miss and the report is recomputed below.
    cached_slots: Dict[int, TriagedReport] = {}
    if chain.enabled:
        for index in representative.values():
            entry = corpus.entries[index]
            cache_key = CacheKey(module_fp=module_fps[entry.program_key],
                                 coredump_fp=fingerprints[index],
                                 config_fp=config_fp)
            hit = chain.lookup(cache_key)
            if hit is None:
                continue
            result = synthesize_result(entry.report, hit.cause,
                                       hit.exploitable,
                                       annotations=config.annotations,
                                       stack_depth=config.stack_depth)
            cached_slots[index] = TriagedReport(
                result=result, program_key=entry.program_key,
                fingerprint=fingerprints[index], seconds=0.0,
                cached=True)

    if config.rebucket_only:
        if not chain.enabled:
            raise ReproError(
                "--rebucket needs a result cache (--cache-dir or "
                "--warm-from): it re-derives buckets from cached "
                "verdicts and never searches")
        missing = [corpus.entries[index].report.report_id
                   for index in sorted(representative.values())
                   if index not in cached_slots]
        if missing:
            shown = ", ".join(missing[:5])
            more = f" (+{len(missing) - 5} more)" if len(missing) > 5 \
                else ""
            raise ReproError(
                f"--rebucket: {len(missing)} report(s) have no cached "
                f"verdict and would need a search: {shown}{more}")

    # 3. Shard: group unique, uncached reports by program
    #    (first-appearance order), so each group rides one engine and
    #    its module caches.  Large groups are then split into chunks —
    #    otherwise a single-program corpus (the common production
    #    shape) would serialize on one worker and make ``jobs`` a
    #    silent no-op.
    groups: Dict[str, List[Tuple[int, BugReport]]] = {}
    for index, entry in enumerate(corpus.entries):
        if index in duplicate_of or index in cached_slots:
            continue
        groups.setdefault(entry.program_key, []).append(
            (index, entry.report))
    work: List[Tuple[str, List[Tuple[int, BugReport]]]] = []
    if config.jobs > 1:
        unique_total = sum(len(items) for items in groups.values())
        chunk = max(1, -(-unique_total // (config.jobs * 4)))
        for key, items in groups.items():
            for lo in range(0, len(items), chunk):
                work.append((key, items[lo:lo + chunk]))
    else:
        work = list(groups.items())

    # 4. Fan out (or run inline through the identical group function).
    slots: List[Optional[TriagedReport]] = [None] * len(corpus.entries)
    finished_groups = 0
    interrupted = False
    solver_exports: Dict[str, Optional[dict]] = {}

    for index, item in cached_slots.items():
        slots[index] = item
    if cached_slots and progress is not None:
        progress([cached_slots[index] for index in sorted(cached_slots)])

    def land(group_result: Tuple[str, List[_GroupItem],
                                 Optional[dict]]) -> None:
        nonlocal finished_groups
        program_key, group_out, solver_export = group_result
        landed: List[TriagedReport] = []
        for index, result, seconds, extras in group_out:
            entry = corpus.entries[index]
            item = TriagedReport(result=result,
                                 program_key=entry.program_key,
                                 fingerprint=fingerprints[index],
                                 seconds=seconds)
            slots[index] = item
            landed.append(item)
            if chain.primary is not None:
                # Durable append as results land: an interrupted run
                # leaves a valid partial cache a resumed run
                # warm-starts from.
                chain.put(
                    CacheKey(module_fp=module_fps[entry.program_key],
                             coredump_fp=fingerprints[index],
                             config_fp=config_fp),
                    CachedVerdict(cause=result.cause,
                                  exploitable=result.exploitable,
                                  seconds=seconds,
                                  suffix_digests=tuple(
                                      extras.get("suffixes", ())),
                                  stats=extras.get("stats")))
        if solver_export is not None:
            solver_exports[program_key] = _merge_solver_snapshots(
                solver_exports.get(program_key), solver_export)
        finished_groups += 1
        if progress is not None:
            progress(landed)
        if store is not None and finished_groups % config.flush_every == 0:
            store.flush(_partial_result(slots, corpus, started),
                        corpus, complete=False)

    if config.jobs > 1 and len(work) > 1:
        import multiprocessing as mp

        pool = mp.Pool(config.jobs, initializer=_init_worker,
                       initargs=(corpus.programs, config))
        try:
            for group_out in pool.imap_unordered(_triage_group, work):
                land(group_out)
            pool.close()
        except KeyboardInterrupt:
            interrupted = True
            pool.terminate()
        except BaseException:
            # Errors from workers, the progress callback, or a store
            # flush must not leak live workers (and a join() on a
            # running pool would raise, masking the cause).
            pool.terminate()
            raise
        finally:
            pool.join()
    else:
        _init_worker(corpus.programs, config)
        try:
            for group in work:
                land(_triage_group(group))
        except KeyboardInterrupt:
            interrupted = True
        finally:
            _WORKER.clear()

    # 5. Resolve duplicates against their representative's verdict.
    copies: List[TriagedReport] = []
    for index, rep_index in sorted(duplicate_of.items()):
        rep = slots[rep_index]
        if rep is None:
            continue  # representative never landed (interrupted run)
        entry = corpus.entries[index]
        result = rep.result
        slots[index] = TriagedReport(
            result=TriageResult(report_id=entry.report.report_id,
                                bucket=result.bucket,
                                cause=result.cause,
                                used_fallback=result.used_fallback,
                                exploitable=result.exploitable),
            program_key=entry.program_key,
            fingerprint=fingerprints[index],
            seconds=0.0,
            dedup_of=result.report_id)
        copies.append(slots[index])
    if copies and progress is not None:
        progress(copies)

    # 6. Persist the per-module solver caches so the next run's
    #    workers start primed even for reports it must recompute.
    #    Merged into the sidecar on disk, as a streaming session does
    #    (a daemon sharing the cache may have added rows since the
    #    engines loaded it), and best-effort: a sidecar that cannot be
    #    written warns, and the final store below still lands.
    if chain.primary is not None:
        for program_key, snapshot in solver_exports.items():
            if snapshot:
                chain.update_solver_cache_safe(
                    module_fps[program_key],
                    lambda current, snapshot=snapshot:
                        _merge_solver_snapshots(current, snapshot))

    result = _partial_result(slots, corpus, started)
    result.interrupted = interrupted
    if store is not None:
        store.flush(result, corpus, complete=not interrupted)
    return result


def _merge_solver_snapshots(base: Optional[dict],
                            extra: Optional[dict]) -> Optional[dict]:
    """Union two exported component-cache snapshots (chunks of one
    program may land from different workers).  First row per key wins;
    snapshots with different solver caps never merge."""
    if not base:
        return extra
    if not extra:
        return base
    if base.get("caps") != extra.get("caps"):
        return base
    seen = {json.dumps(row[:2], sort_keys=True) for row in base["rows"]}
    merged = list(base["rows"])
    for row in extra.get("rows", []):
        key = json.dumps(row[:2], sort_keys=True)
        if key not in seen:
            seen.add(key)
            merged.append(row)
    return {"caps": base["caps"], "rows": merged}


# ---------------------------------------------------------------------------
# Streaming (one-report-at-a-time) entry point
# ---------------------------------------------------------------------------

class StreamingTriage:
    """Incremental triage session for a long-lived process.

    The batch entry point (:func:`triage_corpus`) wants the whole corpus
    up front; the crash-intake daemon gets reports one HTTP request at a
    time and must answer each without restarting the world.  A
    ``StreamingTriage`` holds exactly the state one batch pool worker
    holds — compiled modules and warm engines keyed by program — plus
    the cross-run cache chain, and triages single reports through the
    *same* verdict path the batch run uses (:func:`build_engine`,
    :meth:`TriageEngine.triage_one`, :func:`synthesize_result`, strict
    cache-key lookup before any compile).  That sharing is the
    determinism argument: a daemon's verdict for a submission is
    byte-identical under :func:`verdict_view` to a batch ``res triage``
    over the same corpus, because there is no daemon-only verdict code.

    Not thread-safe: engines mutate per-module caches during a drive.
    Each daemon worker owns one session; the :class:`CacheChain` behind
    them may be shared (``ResultCache`` serializes itself).
    """

    def __init__(self, config: Optional[TriageServiceConfig] = None,
                 chain: Optional[CacheChain] = None):
        self.config = config or TriageServiceConfig()
        self.chain = chain if chain is not None \
            else self.config.cache_chain()
        self.config_fp = self.config.config_fingerprint() \
            if self.chain.enabled else ""
        self._engines: Dict[str, TriageEngine] = {}
        self._specs: Dict[str, ProgramSpec] = {}
        #: programs whose engine drove since its last solver-cache
        #: flush (a warm hit touches no engine, so it leaves none here)
        self._drove: set = set()
        #: per-phase timings of the last *traced* :meth:`triage_one`
        #: call: ``(phase name, seconds, attrs-or-None)`` tuples —
        #: plain picklable data, because they cross the workerpool
        #: pipe; the daemon mints the actual spans.  Empty when the
        #: last call was untraced (the zero-cost default).
        self.last_phases: list = []

    def _engine(self, spec: ProgramSpec) -> TriageEngine:
        engine = self._engines.get(spec.key)
        if engine is None:
            engine = build_engine(spec, self.config, self.chain)
            self._engines[spec.key] = engine
            self._specs[spec.key] = spec
        return engine

    def triage_one(self, spec: ProgramSpec, report: BugReport,
                   fingerprint: Optional[str] = None,
                   bypass_cache: bool = False,
                   trace: Optional[str] = None) -> TriagedReport:
        """Triage one report of ``spec``: warm cache short-circuit
        first (no compile on a hit), engine drive + durable cache
        append otherwise.  ``bypass_cache`` forces a fresh drive — the
        verdict is still *written* to the cache afterwards, so a forced
        recompute refreshes the cached row instead of ignoring it.
        ``trace`` (a trace id) asks for per-phase timings in
        :attr:`last_phases`; when None — the default — no clock is
        read beyond the existing ``seconds`` measurement."""
        fingerprint = fingerprint or report.coredump.fingerprint()
        traced = trace is not None and obs.enabled()
        if traced:
            self.last_phases = []
        cache_key = None
        if self.chain.enabled:
            cache_key = CacheKey(module_fp=spec.module_fp(),
                                 coredump_fp=fingerprint,
                                 config_fp=self.config_fp)
            lookup_started = time.perf_counter() if traced else 0.0
            hit = None if bypass_cache else self.chain.lookup(cache_key)
            if hit is not None:
                result = synthesize_result(
                    report, hit.cause, hit.exploitable,
                    annotations=self.config.annotations,
                    stack_depth=self.config.stack_depth)
                if traced:
                    self.last_phases = [(
                        "warm-hit",
                        time.perf_counter() - lookup_started,
                        hit.hit_attrs())]
                return TriagedReport(result=result, program_key=spec.key,
                                     fingerprint=fingerprint,
                                     seconds=0.0, cached=True)
        fi = faultinject.active()
        if fi is not None:
            # The "slow/hung/failing solver" site: fires on cache
            # misses only (a warm hit never calls the solver), right
            # where a drive would start.
            fi.check("solver.call")
        engine_started = time.perf_counter() if traced else 0.0
        engine = self._engine(spec)
        self._drove.add(spec.key)
        started = time.perf_counter()
        result = engine.triage_one(report)
        seconds = time.perf_counter() - started
        if cache_key is not None and self.chain.primary is not None:
            self.chain.put(
                cache_key,
                CachedVerdict(cause=result.cause,
                              exploitable=result.exploitable,
                              seconds=seconds,
                              suffix_digests=engine.last_suffix_digests,
                              stats=engine.last_stats))
        if traced:
            self.last_phases = self._drive_phases(
                engine, started - engine_started)
        return TriagedReport(result=result, program_key=spec.key,
                             fingerprint=fingerprint, seconds=seconds)

    @staticmethod
    def _drive_phases(engine: TriageEngine, compile_seconds: float
                      ) -> list:
        """The last drive as ``(phase, seconds, attrs)`` tuples in
        execution order.  "compile" is the engine build/lookup (near
        zero for a warm engine — the span shows the cache working);
        solver effort rides the enumerate phase, which is where the
        calls are issued."""
        stats = engine.last_stats or {}
        phases = [("compile", compile_seconds, None)]
        timed = engine.last_phase_times
        for name in ("enumerate", "execute", "replay", "bucket"):
            if name not in timed:
                continue
            attrs = None
            if name == "enumerate":
                attrs = {"solver_calls": stats.get("solver_calls", 0),
                         "solver_cache_hits":
                             stats.get("solver_cache_hits", 0)}
            phases.append((name, timed[name], attrs))
        return phases

    def flush_solver_caches(self) -> int:
        """Persist the exported residual-component cache of every
        engine that drove since its last flush (merged with what is
        already on disk, first row per key wins) so the next process
        starts primed; returns the number of modules written.  The
        merge is an atomic read-modify-write on the cache
        (``update_solver_cache``), so concurrent sessions flushing the
        same module cannot drop each other's rows."""
        if self.chain.primary is None:
            return 0
        drove, self._drove = self._drove, set()
        written = 0
        for key, engine in self._engines.items():
            if key not in drove:
                continue
            snapshot = engine.export_solver_cache()
            if not snapshot.get("rows"):
                continue
            self.chain.update_solver_cache_safe(
                self._specs[key].module_fp(),
                lambda current, snapshot=snapshot:
                    _merge_solver_snapshots(current, snapshot))
            written += 1
        return written


def _partial_result(slots: Sequence[Optional[TriagedReport]],
                    corpus: TriageCorpus,
                    started: float) -> TriageServiceResult:
    reports = [item for item in slots if item is not None]
    return TriageServiceResult(
        reports=reports,
        elapsed=time.perf_counter() - started,
        triaged=sum(1 for r in reports
                    if r.dedup_of is None and not r.cached),
        dedup_hits=sum(1 for r in reports if r.dedup_of is not None),
        cache_hits=sum(1 for r in reports if r.cached),
    )


# ---------------------------------------------------------------------------
# The persistent report store
# ---------------------------------------------------------------------------

class TriageStore:
    """Serializes a service run into the on-disk JSON report store
    (shared by the batch driver and the intake daemon)."""

    def __init__(self, config: TriageServiceConfig):
        self.path = Path(config.store_path)
        self.config = config

    def flush(self, result: TriageServiceResult, corpus: TriageCorpus,
              complete: bool) -> None:
        atomic_write_json(self.path,
                          store_payload(result, corpus, self.config,
                                        complete=complete))


def refined_results(reports: Sequence[TriagedReport]
                    ) -> Tuple[List[TriageResult], BucketRefinement]:
    """Run the split/merge refinement pass over service verdicts and
    return results re-bucketed to their refined (family) buckets, plus
    the refinement itself.  The raw per-engine leaf buckets stay on the
    original :class:`TriageResult` rows untouched — refinement is a
    view over the verdict set, not a mutation of it."""
    refinement = refine(reports)
    refined = [
        TriageResult(
            report_id=item.result.report_id,
            bucket=refinement.bucket_of(item.result.report_id,
                                        item.result.bucket),
            cause=item.result.cause,
            used_fallback=item.result.used_fallback,
            exploitable=item.result.exploitable)
        for item in reports
    ]
    return refined, refinement


def store_payload(result: TriageServiceResult, corpus: TriageCorpus,
                  config: TriageServiceConfig, complete: bool) -> dict:
    """The report-store document: refined buckets → report ids,
    per-report rows (refined + raw leaf bucket), the bucket hierarchy,
    accuracy vs. ground truth (labeled subset only), and timing."""
    refined, refinement = refined_results(result.reports)
    refined_by_id = {res.report_id: res for res in refined}
    buckets: Dict[str, List[str]] = {}
    for res in refined:
        buckets.setdefault(repr(res.bucket), []).append(res.report_id)
    rows = [
        {
            "report_id": item.result.report_id,
            "program": item.program_key,
            "bucket": repr(refined_by_id[item.result.report_id].bucket),
            "raw_bucket": repr(item.result.bucket),
            "cause_kind": item.result.cause.kind
            if item.result.cause else None,
            "used_fallback": item.result.used_fallback,
            "exploitable": item.result.exploitable,
            "fingerprint": item.fingerprint,
            "seconds": round(item.seconds, 4),
            "dedup_of": item.dedup_of,
            "cached": item.cached,
        }
        for item in result.reports
    ]
    payload = {
        "complete": complete,
        "interrupted": result.interrupted,
        "config": {
            "jobs": config.jobs,
            "max_depth": config.max_depth,
            "max_nodes": config.max_nodes,
            "stack_depth": config.stack_depth,
            "incremental": config.incremental,
        },
        "corpus": {
            "entries": len(corpus.entries),
            "programs": len(corpus.programs),
            "labeled": corpus.labeled_count(),
        },
        "buckets": buckets,
        "results": rows,
        "timing": {
            "elapsed": round(result.elapsed, 4),
            "triaged": result.triaged,
            "dedup_hits": result.dedup_hits,
            "cache_hits": result.cache_hits,
            "reports_per_sec": round(result.throughput(), 3),
        },
        "bucketing": {
            "hierarchy": refinement.hierarchy,
            "stats": refinement.stats,
        },
    }
    if corpus.labeled_count() >= 2 and result.reports:
        done_ids = {r.result.report_id for r in result.reports}
        reports = [e.report for e in corpus.entries
                   if e.report.report_id in done_ids]
        # Accuracy is scored on the *refined* buckets (they are what
        # the store files reports under) with dedup children excluded
        # from pair counting — a filed duplicate copies its
        # representative's verdict verbatim, so its pairs would
        # double-count the representative.
        dedup_children = {r.result.report_id for r in result.reports
                          if r.dedup_of is not None}
        payload["accuracy"] = {
            "bucket_accuracy": round(
                bucket_accuracy(refined, reports,
                                exclude=dedup_children), 4),
            "misbucketed_fraction": round(
                misbucketed_fraction(refined, reports), 4),
        }
    return payload


#: per-row fields that describe the *run* (wall clock, cache
#: provenance), not the verdict — excluded from the equivalence view
_RUN_ONLY_ROW_FIELDS = ("seconds", "cached")


def verdict_view(payload: dict) -> dict:
    """The semantic subset of a report store two runs are compared by.

    Cold, warm, and sharded-warm runs over the same corpus must be
    **byte-identical** under this view (``json.dumps(view,
    sort_keys=True)``): buckets, every per-report row, and the accuracy
    metrics.  Excluded are exactly the fields that measure the run
    rather than the verdicts — per-row wall clock and cache provenance,
    the ``timing`` section, and the execution-strategy part of the
    config (``jobs``).
    """
    rows = [{key: value for key, value in row.items()
             if key not in _RUN_ONLY_ROW_FIELDS}
            for row in payload.get("results", [])]
    config = {key: value
              for key, value in payload.get("config", {}).items()
              if key != "jobs"}
    return {
        "buckets": payload.get("buckets", {}),
        "results": rows,
        "accuracy": payload.get("accuracy"),
        "corpus": payload.get("corpus"),
        "config": config,
        "bucketing": payload.get("bucketing"),
    }

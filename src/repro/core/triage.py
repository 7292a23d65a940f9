"""Root-cause-based triage of bug reports (paper §3.1).

"RES can process incoming bug reports and triage them based on the
execution suffix and the likely root cause. ... a naive triaging
technique that only looks at the call stack in the coredump would
classify these failures in different buckets, while RES could improve
accuracy by triaging based on the root cause."

The triage engine consumes a corpus of coredumps, runs RES + root-cause
analysis on each, and buckets by root-cause signature.  Reports RES
cannot explain fall back to call-stack bucketing (graceful degradation,
like WER).  Developer annotations (§3.1's human-feedback loop) override
the automatic signature for known causes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.ir.module import Module
from repro.symex.solver import Solver
from repro.vm.coredump import Coredump
from repro.core.bucketing import static_evidence
from repro.core.fingerprints import suffix_digest
from repro.core.res import RESConfig, ReverseExecutionSynthesizer
from repro.core.rootcause import RootCause, analyze


@dataclass
class BugReport:
    """One incoming report: a coredump plus opaque identity."""

    report_id: str
    coredump: Coredump
    #: ground-truth label, if known (benchmarks only — triage never reads it)
    true_cause: Optional[str] = None


@dataclass
class TriageResult:
    report_id: str
    bucket: Hashable
    cause: Optional[RootCause]
    used_fallback: bool
    exploitable: bool = False


@dataclass
class TriageAnnotation:
    """Developer feedback: map a matched cause to a named bucket."""

    name: str
    matcher: Callable[[RootCause], bool]


def synthesize_result(report: BugReport, cause: Optional[RootCause],
                      exploitable: bool,
                      annotations: Optional[List[TriageAnnotation]] = None,
                      stack_depth: int = 8) -> TriageResult:
    """Map a (cause, exploitable) drive outcome to a bucketed result.

    This is the *whole* cause→bucket policy — annotation overrides,
    signature bucketing, WER-style stack fallback — factored out of the
    engine so the warm-start path (:mod:`repro.core.rescache`) can
    reconstruct a byte-identical :class:`TriageResult` from a cached
    cause without compiling the module or running any search.  It also
    means annotations and stack depth deliberately stay *out* of the
    cache key: changing them re-buckets cached verdicts exactly like
    cold ones.
    """
    if cause is not None:
        for annotation in (annotations or []):
            if annotation.matcher(cause):
                return TriageResult(report.report_id,
                                    bucket=("annotated", annotation.name),
                                    cause=cause, used_fallback=False,
                                    exploitable=exploitable)
        return TriageResult(report.report_id, bucket=cause.signature(),
                            cause=cause, used_fallback=False,
                            exploitable=exploitable)
    # Graceful degradation: WER-style stack signature, qualified by the
    # trap site so the refinement pass can attach it to a matching
    # cause family without re-parsing the coredump.  An empty or
    # truncated stack gets a per-fingerprint bucket: the old bare
    # ``("stack", ())`` co-bucketed every unexplained empty-stack crash
    # in one mega-bucket.
    trap = report.coredump.trap
    stack_sig = report.coredump.call_stack_signature(stack_depth)
    tail: Hashable = stack_sig if stack_sig \
        else ("fingerprint", report.coredump.fingerprint())
    return TriageResult(
        report.report_id,
        bucket=("stack", trap.kind.value, trap.pc.function, tail),
        cause=None, used_fallback=True, exploitable=exploitable)


class TriageEngine:
    """Buckets bug reports by RES-derived root cause."""

    def __init__(self, module: Module, config: Optional[RESConfig] = None,
                 annotations: Optional[List[TriageAnnotation]] = None,
                 stack_depth: int = 8, max_suffixes: int = 128,
                 taint_suffixes: int = 8, solver: Optional[Solver] = None):
        self.module = module
        self.config = config or RESConfig(max_depth=24, max_nodes=4000)
        self.annotations = annotations or []
        self.stack_depth = stack_depth
        #: suffix budget while hunting the root cause
        self.max_suffixes = max_suffixes
        #: extra suffixes consumed after the cause settles, hunting
        #: taint evidence only (a strong cause often appears before the
        #: tainted input enters the horizon — stopping there made
        #: ``exploitable`` a dead flag for memory-safety traps)
        self.taint_suffixes = taint_suffixes
        #: one solver shared across every report this engine triages —
        #: its exact caches (delta verdicts, residual components) are
        #: sound across reports of the same module, and its component
        #: cache is what warm-start export/import persists across runs
        self.solver = solver or Solver()
        #: observability of the last :meth:`triage_one` drive, consumed
        #: by the result cache (rescache rows are auditable against a
        #: cold recompute via the suffix digests)
        self.last_stats: Optional[dict] = None
        self.last_suffix_digests: tuple = ()
        #: per-phase wall-clock split of the last drive, for the
        #: flight recorder.  Deliberately NOT part of ``last_stats``:
        #: that dict is journaled into rescache rows, which must stay
        #: deterministic — wall-clock floats belong in spans, not in
        #: the auditable cache record.
        self.last_phase_times: dict = {}

    def _drive(self, report: BugReport
               ) -> Tuple[Optional[RootCause], bool]:
        """One backward search serving both signals: the root cause
        (identical stopping rule to :func:`find_root_cause`, so buckets
        are unchanged) and the §3.1 exploitability flag (the same taint
        evidence ``classify_with_res`` uses, scanned across up to
        ``taint_suffixes`` additional suffixes once the cause settles).
        """
        from repro.core.exploitability import suffix_has_tainted_store

        synthesizer = ReverseExecutionSynthesizer(
            self.module, report.coredump, self.config, solver=self.solver)
        evidence = static_evidence(self.module, report.coredump)
        cause: Optional[RootCause] = None
        weak: Optional[RootCause] = None
        exploitable = False
        kept = 0
        extra = 0
        digests = []
        gen = synthesizer.suffixes()
        try:
            for item in gen:
                kept += 1
                digests.append(suffix_digest(item))
                if not exploitable and (
                        item.suffix.has_tainted_store()
                        or suffix_has_tainted_store(self.module,
                                                    item.suffix)):
                    exploitable = True
                if cause is None:
                    primary = analyze(item, evidence=evidence).primary
                    if primary is not None \
                            and primary.kind != "assert-state":
                        cause = primary
                    elif primary is not None and weak is None:
                        weak = primary
                    if cause is None and kept >= self.max_suffixes:
                        break
                else:
                    extra += 1
                if cause is not None and (exploitable
                                          or extra >= self.taint_suffixes):
                    break
        finally:
            gen.close()
        self.last_suffix_digests = tuple(digests)
        self.last_phase_times = synthesizer.stats.phase_times()
        self.last_stats = {
            "nodes_expanded": synthesizer.stats.nodes_expanded,
            "candidates_executed": synthesizer.stats.candidates_executed,
            "suffixes_emitted": synthesizer.stats.suffixes_emitted,
            "solver_calls": synthesizer.stats.solver_calls,
            "solver_cache_hits": synthesizer.stats.solver_cache_hits,
        }
        if cause is None:
            cause = weak
        if cause is None and kept:
            trap = report.coredump.trap
            cause = RootCause(kind="assert-state",
                              description="assertion failed; no writer "
                                          "inside the reconstructed horizon",
                              pcs=(trap.pc,), threads=(trap.tid,),
                              evidence=evidence)
        return cause, exploitable

    def triage_one(self, report: BugReport) -> TriageResult:
        cause, exploitable = self._drive(report)
        started = time.perf_counter()
        result = synthesize_result(report, cause, exploitable,
                                   annotations=self.annotations,
                                   stack_depth=self.stack_depth)
        self.last_phase_times["bucket"] = time.perf_counter() - started
        return result

    def triage(self, reports: List[BugReport]) -> List[TriageResult]:
        return [self.triage_one(r) for r in reports]

    # ------------------------------------------------------------------
    # Warm-start support (persistent cross-run caches, PR 4)
    # ------------------------------------------------------------------

    def config_fingerprint(self) -> str:
        """Fingerprint of every knob a drive verdict depends on: the
        full RESConfig plus the drive budgets and the solver caps.
        (Annotations and ``stack_depth`` are deliberately excluded —
        see :func:`synthesize_result`.)"""
        from repro.core.rescache import res_config_fingerprint

        return res_config_fingerprint(
            self.config,
            max_suffixes=self.max_suffixes,
            taint_suffixes=self.taint_suffixes,
            solver_max_enum=self.solver.max_enum,
            solver_max_nodes=self.solver.max_nodes)

    def export_solver_cache(self) -> dict:
        """JSON-safe snapshot of the engine solver's residual-component
        cache (see :meth:`Solver.export_component_cache`)."""
        return self.solver.export_component_cache()

    def import_solver_cache(self, snapshot: Optional[dict]) -> int:
        """Prime the engine solver from an exported snapshot; returns
        the number of rows adopted (0 on None/mismatched caps)."""
        if not snapshot:
            return 0
        return self.solver.import_component_cache(snapshot)


class BucketAgreement:
    """Contingency counts behind the two §3.1 accuracy metrics.

    A report enters with its bucket and its true cause.  Every labeled
    report counts toward :meth:`misbucketed_fraction`; the ``paired``
    ones also count toward :meth:`bucket_accuracy`.  Adding or removing
    a report costs O(1), so a store that re-buckets a few reports per
    write re-scores in O(changes) instead of re-counting O(k²) pairs.
    Both metrics come out of exact integer counts, so they equal the
    pair-by-pair and report-by-report definitions to the last bit.
    """

    def __init__(self) -> None:
        #: true cause -> bucket -> labeled reports
        self._by_cause: Dict[str, Dict[Hashable, int]] = {}
        self._labeled = 0
        #: paired reports per bucket, per cause, per (bucket, cause)
        self._paired = 0
        self._per_bucket: Dict[Hashable, int] = {}
        self._per_cause: Dict[str, int] = {}
        self._per_cell: Dict[Tuple[Hashable, str], int] = {}
        #: report pairs sharing a bucket, a cause, and both
        self._same_bucket = 0
        self._same_cause = 0
        self._same_both = 0

    def add(self, bucket: Hashable, cause: str, paired: bool = True) -> None:
        counts = self._by_cause.setdefault(cause, {})
        counts[bucket] = counts.get(bucket, 0) + 1
        self._labeled += 1
        if paired:
            self._paired += 1
            self._same_bucket += _bump(self._per_bucket, bucket, 1)
            self._same_cause += _bump(self._per_cause, cause, 1)
            self._same_both += _bump(self._per_cell, (bucket, cause), 1)

    def remove(self, bucket: Hashable, cause: str,
               paired: bool = True) -> None:
        _bump(self._by_cause[cause], bucket, -1)
        if not self._by_cause[cause]:
            del self._by_cause[cause]
        self._labeled -= 1
        if paired:
            self._paired -= 1
            self._same_bucket -= _bump(self._per_bucket, bucket, -1)
            self._same_cause -= _bump(self._per_cause, cause, -1)
            self._same_both -= _bump(self._per_cell, (bucket, cause), -1)

    def bucket_accuracy(self) -> float:
        """The Rand index over the paired reports (1.0 below two)."""
        if self._paired < 2:
            return 1.0
        total = self._paired * (self._paired - 1) // 2
        # A pair agrees when it shares both bucket and cause, or
        # neither: total - same_bucket - same_cause + same_both pairs
        # share neither.
        agree = (total - self._same_bucket - self._same_cause
                 + 2 * self._same_both)
        return agree / total

    def misbucketed_fraction(self) -> float:
        """Labeled reports outside their true cause's majority bucket."""
        if not self._labeled:
            return 0.0
        # Majority election with a stable tie-break: ``max(...,
        # key=get)`` alone resolves ties by dict insertion order, i.e.
        # by whichever shard happened to land first — the same corpus
        # could score differently across orderings.  Ties break by
        # (count, bucket repr).
        wrong = 0
        for counts in self._by_cause.values():
            majority = min(counts, key=lambda b: (-counts[b], repr(b)))
            wrong += sum(counts.values()) - counts[majority]
        return wrong / self._labeled


def _bump(counts: Dict, key: Hashable, delta: int) -> int:
    """Add ``delta`` (+1 or -1) to ``counts[key]``, dropping zeros;
    returns how many pairs the moved report forms with the others under
    that key."""
    before = counts.get(key, 0)
    after = before + delta
    if after:
        counts[key] = after
    else:
        del counts[key]
    return before if delta > 0 else after


def bucket_accuracy(results: List[TriageResult],
                    reports: List[BugReport],
                    exclude: Optional[set] = None) -> float:
    """Fraction of report pairs bucketed consistently with ground truth.

    Pair-counting accuracy (Rand index): for every pair of reports,
    "same bucket" should equal "same true cause".  This is the metric
    WER-style bucketing gets wrong for up to 37% of reports (§3.1).
    Counted from bucket x cause contingency counts
    (:class:`BucketAgreement`), not pair by pair.

    Unlabeled reports (``true_cause=None``) carry no ground truth, so
    they contribute no pairs: counting them would treat two unknowns as
    having the *same* cause (``None == None``) and inflate accuracy.

    ``exclude`` names report ids to drop from pair counting — the
    service passes its dedup children (``dedup_of`` set): a filed
    duplicate copies its representative's verdict verbatim, so counting
    the pair would double-count the representative's (in)correctness as
    independent evidence.
    """
    truth = {r.report_id: r.true_cause for r in reports}
    exclude = exclude or set()
    counts = BucketAgreement()
    for res in results:
        cause = truth.get(res.report_id)
        if cause is not None and res.report_id not in exclude:
            counts.add(res.bucket, cause)
    return counts.bucket_accuracy()


def misbucketed_fraction(results: List[TriageResult],
                         reports: List[BugReport]) -> float:
    """Fraction of labeled reports not bucketed with the majority of
    their true cause — the paper's "WER can incorrectly bucket up to
    37%" figure.

    Unlabeled reports are excluded from both the majority-bucket map
    and the numerator/denominator: lumping every ``true_cause=None``
    report into one pseudo-cause would elect a bogus majority bucket
    and skew the fraction both ways.
    """
    truth = {r.report_id: r.true_cause for r in reports}
    counts = BucketAgreement()
    for res in results:
        cause = truth.get(res.report_id)
        if cause is not None:
            counts.add(res.bucket, cause, paired=False)
    return counts.misbucketed_fraction()

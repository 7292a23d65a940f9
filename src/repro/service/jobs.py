"""The intake job model and the durable job journal.

Every submission the daemon accepts becomes an :class:`IntakeJob`, and
every state change that must survive a crash is appended to the
:class:`JobJournal` — a durable :class:`repro.ioutil.SegmentedLog`, like
the result cache's rows: a dying process tears at most the final line,
which replay never reads, and replay skips any other damaged row (torn,
garbage, or not UTF-8) with a warning.  The row kinds:

* ``submit`` — the *admission row*: everything needed to re-run the
  job (program source, coredump, fingerprint, priority).  Journaled
  before the daemon acknowledges the submission, so an accepted job is
  never lost.  A duplicate's payloads equal to its representative's are
  written as ``core_ref`` / ``program_ref`` references to that row.
* ``done`` / ``failed`` / ``quarantined`` — the *settle row* of a job
  whose admission row is already journaled.  A ``done`` row stores the
  synthesized *cause* (plus exploitability and provenance), not the
  bucket: on replay the bucket is re-derived through
  :func:`repro.core.triage.synthesize_result`, the same policy the
  warm-start cache uses, so annotation changes re-bucket historical
  verdicts exactly like fresh ones.
* ``settled`` — one settled job whole: its admission row plus its
  settle fields (``kind`` names the settle).  A job settled at
  admission — an instant duplicate — is journaled as this one row, and
  compaction collapses every other settled job into it.  The dump
  rule: it keeps its coredump (inline or as ``core_ref``) only where
  replay reads it — for a ``done`` verdict without a cause, whose
  stack-fallback bucket is re-derived from it, or, in compaction, while
  a job replay reads a dump for resolves its own through this one.

Each row kind has one encoder, and the journal one reader
(:meth:`JobJournal._read`): replay rebuilds the daemon's whole world
from it — settled jobs become the historical dedup store, unsettled
jobs (queued *or* in-flight at the time of death — an interrupted drive
leaves no partial state worth keeping) are re-admitted to the queue.

Fleet extensions (PR 9):

* **per-node segments** — a fleet node journals to
  ``journal-<node>.jsonl`` and prefixes its job ids with the node name
  (``n1-j000004``), so N nodes sharing one spool never contend on a
  file or collide on an identity, and any node can rebuild fleet-wide
  settled state by replaying every segment (its own fully, its peers'
  settled rows as read-only shadows).  A reference only ever names a
  row of the same node's journal.
* **rotation + compaction** — an active journal above the configured
  size is rotated to a closed ``*.seg-NNNNNN`` file; closed segments
  are compacted from the same reading replay builds its jobs from, so
  compaction keeps exactly what replay reads, and a row is dropped
  only once its job's merged row is durable: a crash anywhere in
  rotate/compact leaves at worst a duplicate row (replay is keyed by
  job id), never a lost one.
* **global order** — jobs across nodes merge deterministically by
  :attr:`IntakeJob.order_key` (submission wall-clock, node, seq);
  journaled timestamps carry microsecond precision so the merged
  order is the true arrival order, and single-node order degrades to
  plain seq order exactly as before.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import ReproError
from repro.ioutil import SegmentedLog
from repro.vm.coredump import Coredump
from repro.core.rescache import cause_from_obj, cause_to_obj
from repro.core.triage import BugReport, TriageResult, synthesize_result
from repro.core.triage_service import (
    ProgramSpec,
    TriagedReport,
    TriageServiceConfig,
)

JOURNAL_FILE = "jobs.jsonl"

#: journal format version; bump on any incompatible row change (old
#: rows are then skipped on replay — a cold queue, never a wrong one)
JOURNAL_SCHEMA = 1


def journal_file_for(node_id: Optional[str]) -> str:
    """The journal filename for one fleet node (legacy single-node
    daemons keep the historical ``jobs.jsonl``)."""
    return f"journal-{node_id}.jsonl" if node_id else JOURNAL_FILE


def node_of(job_id: str) -> str:
    """The fleet node a job id belongs to ('' for legacy ids)."""
    head, sep, tail = job_id.rpartition("-")
    return head if sep else ""


class JobState(Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    #: poison job: it killed enough workers (or outlived the watchdog
    #: enough times) that running it again would keep crash-looping the
    #: fleet.  Settled — with diagnostics instead of a verdict — so the
    #: queue drains past it and an operator can inspect and resubmit.
    QUARANTINED = "quarantined"


@dataclass
class IntakeJob:
    """One accepted submission, from intake to settled verdict."""

    job_id: str
    #: submission order; also the report-store row order, so a drained
    #: daemon store lines up row-for-row with a batch run over the same
    #: submissions
    seq: int
    report_id: str
    program: ProgramSpec
    #: the coredump as a parsed JSON object (the wire/journal form);
    #: None only for settled jobs replayed from ``settled`` rows whose
    #: journaled settle made the dump redundant
    core_obj: Optional[dict]
    fingerprint: str
    #: 0 = never-seen fingerprint (head of the queue), 1 = re-submission
    priority: int
    true_cause: Optional[str] = None
    submitted_at: float = 0.0
    #: operator asked for a fresh drive: skip the warm-cache
    #: short-circuit and replace the historical representative
    force: bool = False
    state: JobState = JobState.QUEUED
    verdict: Optional[TriagedReport] = None
    #: report_id of the representative whose verdict this job received
    dedup_of: Optional[str] = None
    error: Optional[str] = None
    finished_at: Optional[float] = None
    #: re-admitted from a prior life's journal: its submitted_at is old
    #: wall clock, so its settle latency must stay out of the metrics
    #: window (it would poison p50/p95 and the Retry-After estimate)
    resumed: bool = False
    #: times a worker claimed this job (drives started, not finished)
    attempts: int = 0
    #: workers this job killed (injected or real crash mid-drive) or
    #: hung past the watchdog — the quarantine trigger
    worker_crashes: int = 0
    #: earliest monotonic time a retry may be claimed (backoff delay)
    not_before: float = 0.0
    #: claim token, bumped on every claim and on watchdog reaping: a
    #: settle attempt carrying a stale token (its worker was reaped and
    #: the job re-queued meanwhile) is discarded instead of racing the
    #: retry's own settle
    claim: int = 0
    #: flight-recorder trace id (PR 10); None for unsampled jobs.
    #: Journaled with the submit row so a SIGKILL'd daemon's replay
    #: re-emits the *same* trace — deterministic span ids make the
    #: re-emission converge instead of duplicating.
    trace_id: Optional[str] = None
    _dump: Optional[Coredump] = field(default=None, repr=False)
    _dedup_key: Optional[tuple] = field(default=None, repr=False)
    #: wall-clock of the last (re-)enqueue, feeding the ``queue-N``
    #: span; transient — never journaled
    _obs_enqueued: float = field(default=0.0, repr=False)
    #: wall-clock of the last claim, feeding the ``attempt-N`` span;
    #: transient — never journaled
    _obs_claimed: float = field(default=0.0, repr=False)

    def coredump(self) -> Coredump:
        if self._dump is None:
            self._dump = Coredump.from_json(json.dumps(self.core_obj))
        return self._dump

    def bug_report(self, require_coredump: bool = True) -> BugReport:
        """The report this job files.  ``require_coredump=False`` skips
        the (possibly ~100 KB) JSON parse and leaves ``coredump`` None
        — legal only for consumers that provably never dereference it
        (store assembly and settled-verdict re-bucketing read ids,
        labels, and the journaled cause; the WER stack fallback is the
        one path that needs the dump, and it only runs when the cause
        is None).  A dump already parsed is always attached."""
        if require_coredump or self._dump is not None:
            dump = self.coredump()
        else:
            dump = None
        return BugReport(report_id=self.report_id,
                         coredump=dump,
                         true_cause=self.true_cause)

    @property
    def settled(self) -> bool:
        return self.state in (JobState.DONE, JobState.FAILED,
                              JobState.QUARANTINED)

    @property
    def dedup_key(self) -> tuple:
        """The admission identity: (module fingerprint, coredump
        fingerprint).  The module fingerprint (source + name, same
        identity the rescache keys on) — not the bare program key —
        because a re-submitted crash of an *edited* program must
        recompute, never echo the stale verdict, and two clients whose
        source files happen to share a stem must not cross-contaminate.
        Within one corpus a key maps to one source, so this is exactly
        the batch service's (program, fingerprint) dedup there."""
        if self._dedup_key is None:
            self._dedup_key = (self.program.module_fp(), self.fingerprint)
        return self._dedup_key

    def latency(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    @property
    def order_key(self) -> tuple:
        """Deterministic fleet-wide ordering: submission wall-clock
        first (journaled at microsecond precision), then node, then
        seq.  On a single node submitted_at is monotone with seq and
        ties break by seq, so this is exactly the old per-seq order;
        across nodes it merges segments into true arrival order,
        identically on every replayer."""
        return (self.submitted_at, node_of(self.job_id), self.seq)

    def status_payload(self) -> dict:
        """The ``GET /jobs/<id>`` document."""
        payload = {
            "job_id": self.job_id,
            "report_id": self.report_id,
            "program": self.program.key,
            "fingerprint": self.fingerprint,
            "priority": self.priority,
            "state": self.state.value,
            "submitted_at": round(self.submitted_at, 3),
        }
        if self.dedup_of is not None:
            payload["dedup_of"] = self.dedup_of
        if self.trace_id is not None:
            payload["trace_id"] = self.trace_id
        if self.error is not None:
            payload["error"] = self.error
        if self.attempts > 1 or self.worker_crashes > 0:
            # Retry diagnostics only when there is a story to tell —
            # the common first-try-done payload stays byte-stable.
            payload["attempts"] = self.attempts
            payload["worker_crashes"] = self.worker_crashes
        if self.verdict is not None:
            result = self.verdict.result
            payload["verdict"] = {
                "bucket": repr(result.bucket),
                "cause_kind": result.cause.kind if result.cause else None,
                "cause_description": result.cause.description
                if result.cause else None,
                "used_fallback": result.used_fallback,
                "exploitable": result.exploitable,
                "cached": self.verdict.cached,
                "seconds": round(self.verdict.seconds, 4),
            }
            if self.latency() is not None:
                payload["latency_seconds"] = round(self.latency(), 4)
        return payload


def _submit_row(job: IntakeJob, ref: Optional[IntakeJob] = None) -> dict:
    """The admission row of ``job``: everything needed to re-run it.

    Production intake is dedup-dominated (that is why bucketing
    exists), so journaling the full program + coredump for every
    duplicate would grow the journal by ~100 KB per re-report of the
    same crash.  When ``job`` duplicates ``ref``, a job of the same
    node's journal, the payloads it shares with ``ref`` are written as
    references to ``ref``'s row instead: the coredump when it is
    ``ref``'s very object, the program when it is equal.  Replay
    resolves each reference to ``ref``'s own object, so nothing is lost.
    """
    row = {
        "schema": JOURNAL_SCHEMA,
        "event": "submit",
        "job_id": job.job_id,
        "seq": job.seq,
        "report_id": job.report_id,
        "fingerprint": job.fingerprint,
        "priority": job.priority,
        "true_cause": job.true_cause,
        "force": job.force,
        # Microsecond precision: the fleet's merge-on-replay order
        # key is (submitted_at, node, seq), so the journaled clock
        # must resolve distinct arrivals (3dp collapsed ~kHz intake
        # into ties, which per-node seq can no longer break alone).
        "submitted_at": round(job.submitted_at, 6),
    }
    if job.trace_id is not None:
        # Additive and optional: unsampled jobs keep the row shape
        # from before tracing, and old journals replay unchanged.
        row["trace"] = job.trace_id
    local = ref is not None and node_of(ref.job_id) == node_of(job.job_id)
    if local and ref.core_obj is job.core_obj:
        row["core_ref"] = ref.job_id
    else:
        row["core"] = job.core_obj
    if local and ref.program == job.program:
        row["program_ref"] = ref.job_id
    else:
        row["program"] = {"key": job.program.key,
                          "source": job.program.source,
                          "name": job.program.name}
    return row


def _settle_fields(job: IntakeJob) -> dict:
    """What settling ``job`` journals, chosen by its state: a ``done``
    verdict's cause (not its bucket — replay re-derives that under the
    current annotations), exploitability and provenance; a ``failed`` or
    ``quarantined`` job's diagnostics."""
    if job.state is JobState.DONE:
        verdict = job.verdict
        result = verdict.result if verdict else None
        return {
            "cause": cause_to_obj(result.cause) if result else None,
            "exploitable": result.exploitable if result else False,
            "cached": verdict.cached if verdict else False,
            "seconds": round(verdict.seconds, 6) if verdict else 0.0,
            "dedup_of": job.dedup_of,
        }
    if job.state is JobState.QUARANTINED:
        # An additive kind under the same schema: an older reader
        # re-queues the job (treating it as unsettled) — safe, merely
        # un-quarantined until it crash-loops again.
        return {"error": job.error or "quarantined",
                "attempts": job.attempts,
                "worker_crashes": job.worker_crashes}
    return {"error": job.error or "triage failed"}


def _reads_dump(job: IntakeJob) -> bool:
    """Whether replay reads ``job``'s own coredump: to drive it while it
    is unsettled, and for a ``done`` verdict without a cause, whose
    stack-fallback bucket is re-derived from the dump."""
    if job.state is JobState.DONE:
        return job.verdict is None or job.verdict.result.cause is None
    return not job.settled


def _whole_row(job: IntakeJob, ref: Optional[IntakeJob],
               keep_dump: bool) -> dict:
    """``job`` journaled in one row: its admission row while unsettled;
    once settled, the ``settled`` row — the admission row plus the
    settle fields — which keeps the dump (inline or as ``core_ref``)
    only with ``keep_dump``."""
    row = _submit_row(job, ref)
    if job.settled:
        if not keep_dump:
            row.pop("core", None)
            row.pop("core_ref", None)
        row.update(_settle_fields(job), event="settled",
                   kind=job.state.value)
    return row


def _admitted(row: dict, jobs: Dict[str, IntakeJob]) -> IntakeJob:
    """The job an admission row journals, its references resolved to
    the objects of the ``jobs`` built before it — so duplicates of one
    crash share one parsed coredump in memory too.  A damaged row
    raises ``KeyError``, ``TypeError`` or ``ValueError``."""
    if "program_ref" in row:
        program = jobs[row["program_ref"]].program
    else:
        raw = row["program"]
        program = ProgramSpec(key=raw["key"], source=raw["source"],
                              name=raw.get("name", ""))
    if "core_ref" in row:
        core_obj = jobs[row["core_ref"]].core_obj
    elif row.get("event") == "settled":
        core_obj = row.get("core")  # absent where replay never reads it
    else:
        core_obj = row["core"]
    return IntakeJob(
        job_id=row["job_id"],
        seq=int(row["seq"]),
        report_id=row["report_id"],
        program=program,
        core_obj=core_obj,
        fingerprint=row["fingerprint"],
        priority=int(row["priority"]),
        true_cause=row.get("true_cause"),
        force=bool(row.get("force", False)),
        submitted_at=float(row.get("submitted_at", 0.0)),
        trace_id=row.get("trace"),
    )


def _settle(job: IntakeJob, row: dict,
            config: Optional[TriageServiceConfig]) -> None:
    """Settle ``job`` by its settle row (``event`` names the kind).  All
    or nothing: a damaged row raises before the job is touched.  With
    ``config`` a ``done`` verdict is bucketed under its annotations;
    without one the bucket stays None."""
    kind = row["event"]
    if kind == "done":
        cause = cause_from_obj(row["cause"])
        exploitable = bool(row["exploitable"])
        if config is None:
            result = TriageResult(job.report_id, None, cause,
                                  cause is None, exploitable)
        else:
            # The stack-fallback bucket is the only consumer of the
            # coredump; with a journaled cause the parse (per
            # historical crash, on every restart) is waste.
            result = synthesize_result(
                job.bug_report(require_coredump=cause is None),
                cause, exploitable, annotations=config.annotations,
                stack_depth=config.stack_depth)
        job.verdict = TriagedReport(
            result=result, program_key=job.program.key,
            fingerprint=job.fingerprint,
            seconds=float(row.get("seconds", 0.0)),
            dedup_of=row.get("dedup_of"),
            cached=bool(row.get("cached", False)))
        job.dedup_of = row.get("dedup_of")
        job.state = JobState.DONE
    elif kind == "quarantined":
        attempts = int(row.get("attempts", 0))
        crashes = int(row.get("worker_crashes", 0))
        job.attempts, job.worker_crashes = attempts, crashes
        job.error = row.get("error", "quarantined")
        job.state = JobState.QUARANTINED
    else:
        job.error = row.get("error", "triage failed")
        job.state = JobState.FAILED
    job.finished_at = job.submitted_at


@dataclass
class _Reading:
    """One pass over every file of a journal (:meth:`JobJournal._read`)."""

    #: each file's rows, closed segments first and the active file last
    files: List[Tuple[Path, List[dict]]]
    #: every job replay rebuilds, in seq order
    jobs: List[IntakeJob]
    #: job id → its admission row
    admission: Dict[str, dict]
    #: job id → index in ``files`` of the file holding its admission row
    home: Dict[str, int]


class JobJournal:
    """Durable append-only journal of intake events.

    Each append is fsynced before the daemon acts on it — the "journal
    first, acknowledge second" rule is what makes a 202 response a
    promise that survives SIGKILL.  HTTP threads and workers journal
    concurrently; the log serializes their appends.
    """

    def __init__(self, path: Union[str, Path], rotate_bytes: int = 0):
        self.log = SegmentedLog(path)
        #: the active file (closed segments sit beside it)
        self.path = self.log.path
        #: rotate the active file to a closed segment above this many
        #: bytes (0 disables rotation — the legacy single-file journal)
        self.rotate_bytes = int(rotate_bytes)

    def _rows(self, path: Path) -> List[dict]:
        """This journal's rows in one of its files.  A torn final line
        is the crash contract and goes unread; damage beyond it is
        skipped with a warning.  ``OSError`` propagates."""
        chunk = self.log.read(path)
        if chunk.skipped:
            warnings.warn(f"journal: skipped {chunk.skipped} corrupt "
                          f"mid-file row(s) in {path}", RuntimeWarning,
                          stacklevel=4)
        return [row for row in chunk.rows
                if row.get("schema") == JOURNAL_SCHEMA]

    # -- segments ------------------------------------------------------------

    def compact_segments(self) -> dict:
        """Collapse every *closed* segment to one row per job.

        Compaction writes from the reading replay builds its jobs from,
        so it keeps exactly what replay reads.  Each job whose admission
        row lies in a closed segment is written there once, at that
        row's place: settled, as its ``settled`` row, keeping the dump
        only where replay reads it (the job's own, or another's that
        resolves its dump through this one); unsettled, as its admission
        row with references inline.  Its other rows in that segment and
        in later ones are dropped — replay reads them through the merged
        row now.

        Only closed segments are touched (the active file has live
        writers).  They are rewritten oldest first, each atomically, so
        a row is dropped only after its job's merged row is durable: a
        crash anywhere costs duplicate rows, never lost ones.  For the
        same reason a row *ahead* of its job's admission row (a settle
        that overtook a duplicate's admission) is kept as it is, as is
        every row of a job admitted in the active file.
        """
        stats = {"segments": 0, "rows_before": 0, "rows_after": 0,
                 "bytes_before": 0, "bytes_after": 0}
        if not self.log.segments():
            return stats
        reading = self._read()
        by_id = {job.job_id: job for job in reading.jobs}
        # The dump rule: every job whose dump replay reads, and every
        # job its dump resolves through.
        needed = set()
        for job in reading.jobs:
            job_id = job.job_id if _reads_dump(job) else None
            while job_id is not None and job_id not in needed:
                needed.add(job_id)
                job_id = reading.admission[job_id].get("core_ref")
        active = len(reading.files) - 1
        for index, (path, rows) in enumerate(reading.files[:active]):
            stats["rows_before"] += len(rows)
            try:
                stats["bytes_before"] += path.stat().st_size
            except OSError:
                pass
            out: List[dict] = []
            for row in rows:
                job_id = row.get("job_id")
                if not isinstance(job_id, str):
                    continue  # replay skips it too
                home = reading.home.get(job_id, active)
                if index < home:
                    out.append(row)
                elif row is reading.admission[job_id] and job_id in by_id:
                    job = by_id[job_id]
                    ref = by_id.get(row.get("core_ref")
                                    or row.get("program_ref")) \
                        if job.settled else None
                    out.append(_whole_row(job, ref, job_id in needed))
            stats["bytes_after"] += self.log.rewrite(path, out)
            stats["segments"] += 1
            stats["rows_after"] += len(out)
        return stats

    # -- writers -------------------------------------------------------------

    def record_submit(self, job: IntakeJob,
                      dedup_ref: Optional[IntakeJob] = None) -> None:
        """Journal the admission row of a job that stays unsettled for
        now, by reference to ``dedup_ref``'s row where it duplicates
        that job."""
        self.log.append([_submit_row(job, dedup_ref)])

    def record_done(self, jobs: List[IntakeJob],
                    dedup_ref: Optional[IntakeJob] = None) -> None:
        """Journal one event's settled jobs in one append.

        Each job's admission row is already journaled, and it gets the
        settle row of its state's kind.  With ``dedup_ref`` the jobs
        were settled at admission instead, as instant duplicates of
        ``dedup_ref``: each is journaled whole, as the one ``settled``
        row compaction would have written, by reference to
        ``dedup_ref``'s row."""
        if dedup_ref is None:
            rows = [{"schema": JOURNAL_SCHEMA, "event": job.state.value,
                     "job_id": job.job_id, **_settle_fields(job)}
                    for job in jobs]
        else:
            rows = [_whole_row(job, dedup_ref, _reads_dump(job))
                    for job in jobs]
        self.log.append(rows)

    # -- the reader ----------------------------------------------------------

    def _read(self, config: Optional[TriageServiceConfig] = None
              ) -> _Reading:
        """Read every file of the journal once, and rebuild its jobs.

        A job's admission row is its last ``submit`` or ``settled`` row;
        its settle row is its last ``done``/``failed``/``quarantined``
        row, else the settle fields of its first ``settled`` row (which
        plays both parts).  Jobs are built in *seq* order, after every
        row is read: rows are journaled outside the daemon's admission
        lock, so a duplicate's row (which references its representative)
        may legitimately hit the file before the representative's own
        row — seq order restores the dependency direction (a
        representative always has the lower seq).  Settled jobs carry
        their verdict or diagnostics; unsettled ones come back
        ``QUEUED`` and ``resumed``, whatever state they died in.  A
        damaged admission row drops its job, a damaged settle row leaves
        its job unsettled: losing the row being written at the moment of
        death is the contract, silently corrupting a settled verdict is
        not.
        """
        files: List[Tuple[Path, List[dict]]] = []
        for path in self.log.files():
            try:
                files.append((path, self._rows(path)))
            except OSError as exc:
                # An unreadable journal is NOT an empty one: starting
                # over would drop every acknowledged job and re-issue
                # seq/job identities the file already assigned — on the
                # next restart, old settle rows could pair with new
                # submit rows and attach a past crash's verdict to a
                # different coredump.  Refuse to run instead.
                raise ReproError(
                    f"intake journal {path} exists but is unreadable "
                    f"({exc}); refusing to start with a blank history"
                ) from exc
        admission: Dict[str, dict] = {}
        home: Dict[str, int] = {}
        settles: Dict[str, dict] = {}
        for index, (_, rows) in enumerate(files):
            for row in rows:
                job_id = row.get("job_id")
                if not isinstance(job_id, str):
                    continue
                event = row.get("event")
                if event in ("submit", "settled"):
                    admission[job_id] = row
                    home[job_id] = index
                    if event == "settled":
                        settles.setdefault(job_id,
                                           dict(row, event=row.get("kind")))
                elif event in ("done", "failed", "quarantined"):
                    settles[job_id] = row
        jobs: Dict[str, IntakeJob] = {}
        for row in sorted(admission.values(),
                          key=lambda r: r.get("seq") or 0):
            try:
                job = _admitted(row, jobs)
            except (KeyError, TypeError, ValueError):
                continue  # damaged row: recompute rather than guess
            jobs[job.job_id] = job
        for job in jobs.values():
            settle = settles.get(job.job_id)
            if settle is not None:
                try:
                    _settle(job, settle, config)
                except (KeyError, TypeError, ValueError):
                    pass  # damaged settle row: the job replays as queued
            if not job.settled:
                job.resumed = True
        return _Reading(files, list(jobs.values()), admission, home)

    def replay(self, config: TriageServiceConfig) -> List[IntakeJob]:
        """Reconstruct every journaled job, in submission order.

        Settled jobs carry a rebuilt verdict (bucket re-derived from
        the journaled cause under the *current* annotations, like a
        warm cache hit); unsettled jobs come back ``QUEUED``.  Torn or
        alien-schema rows are skipped (see :meth:`_read`).
        """
        return self._read(config).jobs


def next_ids(jobs: List[IntakeJob]) -> int:
    """The first unused sequence number after a replay."""
    return max((job.seq for job in jobs), default=-1) + 1


def make_job_id(seq: int, node_id: Optional[str] = None) -> str:
    """Node-prefixed in fleet mode so ids are fleet-unique and any
    node can route a ``GET /jobs/<id>`` to the id's owner."""
    return f"{node_id}-j{seq:06d}" if node_id else f"j{seq:06d}"


def default_report_id(seq: int, node_id: Optional[str] = None) -> str:
    return f"{node_id}-r{seq:06d}" if node_id else f"r{seq:06d}"


def now() -> float:
    return time.time()

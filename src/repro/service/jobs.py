"""The intake job model and the durable job journal.

Every submission the daemon accepts becomes an :class:`IntakeJob`, and
every state change that must survive a crash is appended to the
:class:`JobJournal` — a durable :class:`repro.ioutil.SegmentedLog`, like
the result cache's rows: a dying process tears at most the final line,
which replay never reads, and replay skips any other damaged row (torn,
garbage, or not UTF-8) with a warning.  Two row kinds matter:

* ``submit`` — carries *everything needed to re-run the job*: the
  program source, the full coredump, the fingerprint, the priority.
  Journaled before the daemon acknowledges the submission, so an
  accepted job is never lost.
* ``done`` / ``failed`` — settles a job.  A ``done`` row stores the
  synthesized *cause* (plus exploitability and provenance), not the
  bucket: on replay the bucket is re-derived through
  :func:`repro.core.triage.synthesize_result`, the same policy the
  warm-start cache uses, so annotation changes re-bucket historical
  verdicts exactly like fresh ones.

Replaying the journal therefore reconstructs the daemon's whole world:
settled jobs become the historical dedup store, unsettled jobs (queued
*or* in-flight at the time of death — an interrupted drive leaves no
partial state worth keeping) are re-admitted to the queue.

Fleet extensions (PR 9):

* **per-node segments** — a fleet node journals to
  ``journal-<node>.jsonl`` and prefixes its job ids with the node name
  (``n1-j000004``), so N nodes sharing one spool never contend on a
  file or collide on an identity, and any node can rebuild fleet-wide
  settled state by replaying every segment (its own fully, its peers'
  settled rows as read-only shadows).
* **rotation + compaction** — an active journal above the configured
  size is rotated to a closed ``*.seg-NNNNNN`` file; closed segments
  are compacted by collapsing each settled job's submit+settle rows
  into one ``settled`` row that drops the (possibly ~100 KB) coredump
  whenever the journaled cause makes it redundant.  Replay is keyed by
  job id and idempotent, so a crash anywhere in rotate/compact leaves
  at worst a duplicate row, never a lost one.
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
from typing import Dict, List, Optional, Union

from repro.errors import ReproError
from repro.ioutil import SegmentedLog
from repro.vm.coredump import Coredump
from repro.core.rescache import cause_from_obj, cause_to_obj
from repro.core.triage import BugReport, synthesize_result
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
    #: None only for settled jobs replayed from compacted rows whose
    #: journaled cause made the dump redundant
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


class JobJournal:
    """Durable append-only journal of intake events.

    Each row is fsynced before the daemon acts on it — the "journal
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

    def _append(self, row: dict) -> None:
        self.log.append([dict(row, schema=JOURNAL_SCHEMA)])

    def _rows(self, path: Path) -> List[dict]:
        """This journal's rows in one of its files.  A torn final line
        is the crash contract and goes unread; damage beyond it is
        skipped with a warning.  ``OSError`` propagates."""
        chunk = self.log.read(path)
        if chunk.skipped:
            warnings.warn(f"journal: skipped {chunk.skipped} corrupt "
                          f"mid-file row(s) in {path}", RuntimeWarning,
                          stacklevel=3)
        return [row for row in chunk.rows
                if row.get("schema") == JOURNAL_SCHEMA]

    # -- segments ------------------------------------------------------------

    def compact_segments(self) -> dict:
        """Collapse settled jobs in every *closed* segment.

        For each job that is settled anywhere in the journal, its
        submit row in a closed segment is rewritten as one ``settled``
        row carrying the merged submit + settle fields — with the
        coredump dropped whenever the journaled cause makes replay's
        stack fallback unreachable (done-with-cause, failed, and
        quarantined jobs never read it).  Unsettled jobs keep a full
        submit row with ``core_ref``/``program_ref`` materialized
        inline, because the referent's own row may be collapsed away.

        Only closed segments are touched (the active file has live
        writers), each rewrite is atomic, and replay keys rows by job
        id — so a crash between writing a compacted segment and any
        later step costs duplicate rows, never lost ones.
        """
        stats = {"segments": 0, "rows_before": 0, "rows_after": 0,
                 "bytes_before": 0, "bytes_after": 0}
        segments = self.log.segments()
        if not segments:
            return stats
        files = {path: self._rows(path) for path in self.log.files()}
        settles: Dict[str, dict] = {}
        for rows in files.values():
            for row in rows:
                job_id = row.get("job_id")
                if not isinstance(job_id, str):
                    continue
                event = row.get("event")
                if event in ("done", "failed", "quarantined"):
                    settles[job_id] = dict(row, event=event)
                elif event == "settled":
                    settles[job_id] = dict(row, event=row.get("kind"))
        for path in segments:
            rows = files[path]
            stats["rows_before"] += len(rows)
            try:
                stats["bytes_before"] += path.stat().st_size
            except OSError:
                pass
            submits: Dict[str, dict] = {}
            order: List[str] = []
            for row in rows:
                job_id = row.get("job_id")
                if not isinstance(job_id, str):
                    continue
                if row.get("event") in ("submit", "settled") \
                        and job_id not in submits:
                    submits[job_id] = row
                    order.append(job_id)
            out: List[dict] = []
            for job_id in order:
                row = submits[job_id]
                materialized = self._materialize(row, submits, settles)
                if materialized is None:
                    continue  # damaged beyond repair: replay skips too
                settle = settles.get(job_id)
                if settle is None:
                    out.append(materialized)  # still in flight somewhere
                    continue
                out.append(self._settled_row(materialized, settle))
            stats["bytes_after"] += self.log.rewrite(path, out)
            stats["segments"] += 1
            stats["rows_after"] += len(out)
        return stats

    @staticmethod
    def _materialize(row: dict, submits: Dict[str, dict],
                     settles: Dict[str, dict]) -> Optional[dict]:
        """A submit/settled row with refs resolved inline (compacted
        rows must stand alone — their referent may collapse away)."""
        row = dict(row)
        ref_id = row.pop("program_ref", None)
        if "program" not in row and ref_id is not None:
            ref = submits.get(ref_id)
            if ref is None or "program" not in ref:
                return None
            row["program"] = ref["program"]
        ref_id = row.pop("core_ref", None)
        if "core" not in row and ref_id is not None:
            ref = submits.get(ref_id)
            if ref is not None and "core" in ref:
                row["core"] = ref["core"]
            else:
                # The referent's dump was dropped by an earlier compact
                # pass: legal only because every such referent settled
                # with a cause, and a duplicate of it settles the same
                # way — so this job's replay never needs the dump
                # either (it must itself be settled to have lost its
                # ref target).
                settle = settles.get(row.get("job_id", ""))
                if settle is None or (settle.get("event") == "done"
                                      and settle.get("cause") is None):
                    return None
                row["core"] = None
        return row

    @staticmethod
    def _settled_row(submit: dict, settle: dict) -> dict:
        """Merge one settled job into a single standalone row."""
        kind = settle.get("event")
        row = {
            "schema": JOURNAL_SCHEMA,
            "event": "settled",
            "kind": kind,
            "job_id": submit["job_id"],
            "seq": submit.get("seq"),
            "report_id": submit.get("report_id"),
            "fingerprint": submit.get("fingerprint"),
            "priority": submit.get("priority"),
            "true_cause": submit.get("true_cause"),
            "force": submit.get("force", False),
            "submitted_at": submit.get("submitted_at", 0.0),
            "program": submit.get("program"),
        }
        if submit.get("trace") is not None:
            row["trace"] = submit["trace"]
        if kind == "done":
            row.update({
                "cause": settle.get("cause"),
                "exploitable": settle.get("exploitable", False),
                "cached": settle.get("cached", False),
                "seconds": settle.get("seconds", 0.0),
                "dedup_of": settle.get("dedup_of"),
            })
            if settle.get("cause") is None:
                # Fallback verdict: replay re-derives the bucket from
                # the coredump's stack — the one settled shape that
                # still needs the dump.
                row["core"] = submit.get("core")
        else:
            row.update({
                "error": settle.get("error"),
                "attempts": settle.get("attempts", 0),
                "worker_crashes": settle.get("worker_crashes", 0),
            })
        return row

    # -- writers -------------------------------------------------------------

    def record_submit(self, job: IntakeJob,
                      dedup_ref: Optional[IntakeJob] = None) -> None:
        """Journal one accepted submission.

        Production intake is dedup-dominated (that is why bucketing
        exists), so journaling the full program + coredump for every
        duplicate would grow the journal by ~100 KB per re-report of
        the same crash.  When the submission duplicates an
        already-journaled job (``dedup_ref``), equal payloads are
        written as references to that job's row instead — replay
        resolves them, and equal fingerprints guarantee equal canonical
        coredump JSON, so nothing is lost.
        """
        row = {
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
            # Additive and optional: unsampled jobs keep the exact
            # pre-PR-10 row shape, and old journals replay unchanged.
            row["trace"] = job.trace_id
        if dedup_ref is not None \
                and dedup_ref.fingerprint == job.fingerprint:
            row["core_ref"] = dedup_ref.job_id
        else:
            row["core"] = job.core_obj
        if dedup_ref is not None and dedup_ref.program == job.program:
            row["program_ref"] = dedup_ref.job_id
        else:
            row["program"] = {"key": job.program.key,
                              "source": job.program.source,
                              "name": job.program.name}
        self._append(row)

    def record_done(self, job: IntakeJob) -> None:
        verdict = job.verdict
        result = verdict.result if verdict else None
        self._append({
            "event": "done",
            "job_id": job.job_id,
            "cause": cause_to_obj(result.cause) if result else None,
            "exploitable": result.exploitable if result else False,
            "cached": verdict.cached if verdict else False,
            "seconds": round(verdict.seconds, 6) if verdict else 0.0,
            "dedup_of": job.dedup_of,
        })

    def record_failed(self, job: IntakeJob) -> None:
        self._append({
            "event": "failed",
            "job_id": job.job_id,
            "error": job.error or "triage failed",
        })

    def record_quarantined(self, job: IntakeJob) -> None:
        """Settle a poison job durably.  An additive row kind under the
        same schema: old journals replay unchanged, and a journal with
        quarantine rows replayed by an *older* reader would re-queue
        the job (treating it as unsettled) — safe, merely un-quarantined
        until it crash-loops again."""
        self._append({
            "event": "quarantined",
            "job_id": job.job_id,
            "error": job.error or "quarantined",
            "attempts": job.attempts,
            "worker_crashes": job.worker_crashes,
        })

    # -- replay --------------------------------------------------------------

    def replay(self, config: TriageServiceConfig) -> List[IntakeJob]:
        """Reconstruct every journaled job, in submission order.

        Settled jobs carry a rebuilt verdict (bucket re-derived from
        the journaled cause under the *current* annotations, like a
        warm cache hit); unsettled jobs come back ``QUEUED`` whatever
        state they died in.  Torn or alien-schema rows are skipped —
        losing the row being written at the moment of death is the
        contract, silently corrupting a settled verdict is not.
        """
        # Two-pass replay: gather rows first, then build jobs in *seq*
        # order and apply settle events last.  Rows are journaled
        # outside the daemon's admission lock, so a duplicate's submit
        # row (which references its representative via ``core_ref`` /
        # ``program_ref``) may legitimately hit the file before the
        # representative's own row — seq order restores the dependency
        # direction (a representative always has the lower seq).
        submits: Dict[str, dict] = {}
        settles: Dict[str, dict] = {}
        rows: List[dict] = []
        for path in self.log.files():
            try:
                rows.extend(self._rows(path))
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
        for row in rows:
            event = row.get("event")
            job_id = row.get("job_id")
            if not isinstance(job_id, str):
                continue
            if event == "submit":
                submits[job_id] = row
            elif event == "settled":
                # A compacted submit+settle pair: one standalone row
                # plays both parts (idempotent against any surviving
                # uncompacted settle row for the same job).
                submits[job_id] = row
                settles.setdefault(job_id,
                                   dict(row, event=row.get("kind")))
            elif event in ("done", "failed", "quarantined"):
                settles[job_id] = row

        jobs: Dict[str, IntakeJob] = {}
        ordered: List[IntakeJob] = []
        for row in sorted(submits.values(),
                          key=lambda r: r.get("seq") or 0):
            try:
                if "program_ref" in row:
                    program = jobs[row["program_ref"]].program
                else:
                    raw = row["program"]
                    program = ProgramSpec(key=raw["key"],
                                          source=raw["source"],
                                          name=raw.get("name", ""))
                if "core_ref" in row:
                    # Shared reference on purpose: duplicates of one
                    # crash share one parsed coredump in memory too.
                    core_obj = jobs[row["core_ref"]].core_obj
                elif row.get("event") == "settled":
                    # Compaction drops the dump when the journaled
                    # cause makes it unreachable on replay.
                    core_obj = row.get("core")
                else:
                    core_obj = row["core"]
                job = IntakeJob(
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
            except (KeyError, TypeError, ValueError):
                continue  # damaged row: recompute rather than guess
            jobs[job.job_id] = job
            ordered.append(job)

        for job_id, row in settles.items():
            job = jobs.get(job_id)
            if job is None:
                continue
            try:
                if row["event"] == "done":
                    cause = cause_from_obj(row["cause"])
                    # The stack-fallback bucket is the only consumer of
                    # the coredump; with a journaled cause the parse
                    # (per historical crash, on every restart) is waste.
                    report = job.bug_report(
                        require_coredump=cause is None)
                    result = synthesize_result(
                        report, cause,
                        bool(row["exploitable"]),
                        annotations=config.annotations,
                        stack_depth=config.stack_depth)
                    job.verdict = TriagedReport(
                        result=result,
                        program_key=job.program.key,
                        fingerprint=job.fingerprint,
                        seconds=float(row.get("seconds", 0.0)),
                        dedup_of=row.get("dedup_of"),
                        cached=bool(row.get("cached", False)))
                    job.dedup_of = row.get("dedup_of")
                    job.state = JobState.DONE
                    job.finished_at = job.submitted_at
                elif row["event"] == "quarantined":
                    job.state = JobState.QUARANTINED
                    job.error = row.get("error", "quarantined")
                    job.attempts = int(row.get("attempts", 0))
                    job.worker_crashes = int(row.get("worker_crashes", 0))
                    job.finished_at = job.submitted_at
                else:
                    job.state = JobState.FAILED
                    job.error = row.get("error", "triage failed")
                    job.finished_at = job.submitted_at
            except (KeyError, TypeError, ValueError):
                continue  # damaged settle row: job replays as queued
        for job in ordered:
            if not job.settled:
                job.state = JobState.QUEUED
                job.resumed = True
        return ordered


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

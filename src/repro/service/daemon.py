"""The crash-intake triage daemon: admission, queue, workers, metrics.

This is the paper's §3.1 vision running as a *service*: deployed
software streams coredumps in, the daemon answers with root-cause
buckets.  Four layers, all built on the batch machinery of PRs 3–4:

* **admission** — every submission is fingerprinted
  (:meth:`Coredump.fingerprint`) and deduped against the live queue
  *and* the historical store (every verdict this daemon has ever
  journaled).  A known crash gets its verdict back instantly,
  WER-style, without touching a worker; a crash currently in flight
  attaches to the representative job and settles the moment it does.
* **durable priority queue** — accepted jobs are journaled before they
  are acknowledged (:class:`repro.service.jobs.JobJournal`), so a
  SIGKILLed daemon restarts and resumes every unsettled job.
  Never-seen fingerprints are scheduled ahead of re-submissions, and a
  bounded queue pushes back (HTTP 429 + Retry-After) instead of
  accepting work it cannot promise.
* **warm worker processes** — each worker slot drives a forked worker
  *process* (``worker_mode="process"``; see
  :mod:`repro.service.workerpool`) holding a
  :class:`repro.core.triage_service.StreamingTriage` session: the same
  per-program engines, the same strict rescache lookup, the same
  verdict synthesis as a batch ``res triage`` run — now off the GIL,
  so cold intake scales with cores.  Verdicts are byte-identical under
  :func:`repro.core.triage_service.verdict_view` to a batch run over
  the same submissions — enforced by ``tests/test_service.py`` and
  ``tests/test_fleet.py``.
* **observability** — ``healthz`` and Prometheus-style ``metrics``
  (queue depth, in-flight, verdicts/s, warm-hit rate, p50/p95
  submit→verdict latency), plus the standard JSON report store.  The
  monitor thread is its only writer while the daemon runs: it rewrites
  the store once :data:`STORE_FLUSH_EVERY` jobs have settled since the
  last write, and :meth:`TriageDaemon.shutdown` writes it a last time
  after every worker and the monitor have stopped.  Settling a job
  never touches the store.

**Fleet mode** (``--node-id`` + ``--peers``) composes N such daemons
into one logical service: every member builds the same consistent-hash
ring (:mod:`repro.service.ring`) over the coredump fingerprint, so each
crash has exactly one *owning* node; misrouted new work is answered
with a 307 redirect to its owner, every member journals to its own
``journal-<node>.jsonl`` segments in the shared spool, and the monitor
tails the peers' segments to adopt their settled verdicts as *shadow*
jobs — the shared dedup tier that lets a crash settled anywhere answer
instantly everywhere, and the deterministic merge
(``(submitted_at, node, seq)``) that makes any member's report store
converge on the same fleet-wide document.
"""

from __future__ import annotations

import heapq
import json
import random
import threading
import time
import urllib.request
import warnings
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import faultinject
from repro import obs
from repro.errors import ReproError
from repro.faultinject import WorkerCrashError
from repro.vm.coredump import Coredump
from repro.core.triage import TriageResult
from repro.core.triage_service import (
    ProgramSpec,
    StoreView,
    TriagedReport,
    TriageServiceConfig,
    TriageStore,
)
from repro.service import workerpool
from repro.service.jobs import (
    IntakeJob,
    JobJournal,
    JobState,
    default_report_id,
    journal_file_for,
    make_job_id,
    next_ids,
    now,
)
from repro.service.ring import HashRing

#: the monitor rewrites the report store once this many jobs have
#: settled since its last write (the shutdown write always runs, so
#: the store never misses verdicts — this only trades mid-run
#: visibility against rewrite traffic, which grows with history)
STORE_FLUSH_EVERY = 8
#: submit→verdict latency samples kept for the p50/p95 gauges
LATENCY_WINDOW = 512
#: ceiling of the jittered retry backoff (seconds)
RETRY_BACKOFF_CAP = 2.0
#: how often the monitor tails peer journal segments (seconds)
FLEET_SYNC_INTERVAL = 0.25


@dataclass
class DaemonConfig:
    """Tuning knobs of the intake daemon (wraps the batch config)."""

    #: the batch-service config: budgets, store path, cache dirs — the
    #: daemon inherits the whole verdict contract from it
    service: TriageServiceConfig = field(default_factory=TriageServiceConfig)
    #: spool directory holding the durable job journal
    spool_dir: str = "res-spool"
    #: worker threads (0 is legal and means "accept but never triage" —
    #: used by backpressure and resume tests)
    workers: int = 2
    #: bounded queue: submissions beyond this many queued jobs are
    #: refused with 429 + Retry-After (dedup attachments are free and
    #: exempt — they consume no worker)
    max_queue: int = 64
    #: drive attempts per job before it settles as failed (covers
    #: transient triage errors; worker deaths are counted separately)
    max_attempts: int = 3
    #: workers one job may kill (crash or watchdog reap) before it is
    #: quarantined instead of re-queued — the poison-job fuse
    quarantine_after: int = 2
    #: jittered exponential retry backoff: base * 2^(attempt-1),
    #: clamped to RETRY_BACKOFF_CAP, scaled by a uniform jitter in
    #: [0.5, 1.0]
    retry_backoff_base: float = 0.05
    #: reap a drive that has run longer than this many seconds
    #: (0 disables the watchdog — a legitimate deep drive is slow)
    watchdog_timeout: float = 0.0
    #: monitor thread cadence: delayed-retry promotion, watchdog
    #: checks, and dead-worker respawn all happen on this period
    monitor_interval: float = 0.05
    #: reject coredump JSON above this size at admission (a structured
    #: 400, not a worker OOM); generous — real dumps are ~100 KB
    max_core_bytes: int = 8 * 1024 * 1024
    #: seed for the backoff jitter (None = nondeterministic)
    backoff_seed: Optional[int] = None
    #: worker executor mode: ``"process"`` (default) forks one worker
    #: process per slot — cold verdicts are pure Python compute, and
    #: the GIL serializes threads; ``"thread"`` keeps the in-thread
    #: drive as the measured baseline and the no-fork fallback
    worker_mode: str = "process"
    #: fleet identity: a non-empty node id opts into fleet mode — the
    #: journal becomes ``journal-<node>.jsonl`` and job/report ids get
    #: a node prefix, so merged replay is collision-free by name
    node_id: Optional[str] = None
    #: fleet membership: node id → base URL, *including this node* —
    #: every member builds the same consistent-hash ring from it
    peers: Dict[str, str] = field(default_factory=dict)
    #: rotate the active journal segment once it exceeds this many MiB
    #: (0 disables); closed segments are compacted in the background
    journal_rotate_mb: float = 0.0

    @property
    def journal_path(self) -> Path:
        return Path(self.spool_dir) / journal_file_for(self.node_id)

    @property
    def spans_path(self) -> Path:
        """The per-node span ring (``spans-<node>.jsonl``; legacy
        single-node daemons use ``spans-node.jsonl``)."""
        return Path(self.spool_dir) / f"spans-{self.node_id or 'node'}.jsonl"


class DaemonMetrics:
    """Counter/gauge state behind ``GET /metrics`` (Prometheus text)."""

    def __init__(self):
        self.lock = threading.Lock()
        self.started_at = now()
        self.submitted_total = 0
        self.verdicts_total = 0      # settled by a worker or warm cache
        self.dedup_total = 0         # settled by admission/attachment
        self.warm_hits_total = 0     # verdicts served from rescache
        self.failed_total = 0
        self.rejected_total = 0      # 429 backpressure refusals
        self.malformed_total = 0     # 400 parse/size rejections
        self.redirects_total = 0     # 307 fleet owner redirects
        self.retries_total = 0       # re-queued drives (error or crash)
        self.quarantined_total = 0   # poison jobs settled as quarantined
        self.worker_restarts_total = 0  # workers respawned by the monitor
        self.journal_errors_total = 0   # failed journal appends
        self.rebucket_passes_total = 0  # background bucket refinements
        self.latencies = deque(maxlen=LATENCY_WINDOW)
        #: worker-drive settles only (no instant dedups): the sample
        #: the Retry-After estimate needs — near-zero dedup settles
        #: would otherwise swamp the window and predict a seconds-long
        #: cold queue drains in milliseconds
        self.drive_latencies = deque(maxlen=LATENCY_WINDOW)
        #: flight-recorder per-phase latency windows, keyed by
        #: (phase, priority class) — populated only for sampled jobs,
        #: so the sampling-off daemon never touches this dict
        self.phase_latencies: Dict[Tuple[str, str], deque] = {}

    def bump(self, name: str, amount: int = 1) -> None:
        """Locked increment for callers outside the daemon's condition
        variable (HTTP handler threads counting malformed bodies)."""
        with self.lock:
            setattr(self, name, getattr(self, name) + amount)

    def observe_latency(self, seconds: Optional[float],
                        drive: bool = False) -> None:
        if seconds is None:
            return
        with self.lock:
            self.latencies.append(seconds)
            if drive:
                self.drive_latencies.append(seconds)

    def observe_phase(self, phase: str, priority: object,
                      seconds: float) -> None:
        """Fold one sampled phase duration into its (phase, priority)
        latency window — the source of the ``/metrics`` per-phase
        p50/p95 summaries."""
        with self.lock:
            key = (str(phase), str(priority))
            window = self.phase_latencies.get(key)
            if window is None:
                window = deque(maxlen=LATENCY_WINDOW)
                self.phase_latencies[key] = window
            window.append(float(seconds))

    def phase_quantiles(self) -> Dict[Tuple[str, str],
                                      Tuple[float, float]]:
        """(p50, p95) per (phase, priority class), for ``/metrics``."""
        with self.lock:
            return {key: (self._quantile(list(window), 0.50),
                          self._quantile(list(window), 0.95))
                    for key, window in self.phase_latencies.items()}

    @staticmethod
    def _quantile(samples: List[float], q: float) -> float:
        if not samples:
            return 0.0
        ordered = sorted(samples)
        index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
        return ordered[index]

    def snapshot(self) -> dict:
        with self.lock:
            samples = list(self.latencies)
            drive_samples = list(self.drive_latencies)
            uptime = max(now() - self.started_at, 1e-9)
            settled = self.verdicts_total + self.dedup_total
            return {
                "submitted_total": self.submitted_total,
                "verdicts_total": self.verdicts_total,
                "dedup_total": self.dedup_total,
                "warm_hits_total": self.warm_hits_total,
                "failed_total": self.failed_total,
                "rejected_total": self.rejected_total,
                "malformed_total": self.malformed_total,
                "redirects_total": self.redirects_total,
                "retries_total": self.retries_total,
                "quarantined_total": self.quarantined_total,
                "worker_restarts_total": self.worker_restarts_total,
                "journal_errors_total": self.journal_errors_total,
                "rebucket_passes_total": self.rebucket_passes_total,
                "uptime_seconds": round(uptime, 3),
                "verdicts_per_second": round(settled / uptime, 3),
                "warm_hit_rate": round(
                    self.warm_hits_total / self.verdicts_total, 4)
                if self.verdicts_total else 0.0,
                "latency_p50": round(self._quantile(samples, 0.50), 4),
                "latency_p95": round(self._quantile(samples, 0.95), 4),
                "drive_latency_p50": round(
                    self._quantile(drive_samples, 0.50), 4),
            }


class TriageDaemon:
    """The always-on intake service; one instance per spool directory.

    Thread model: HTTP handler threads call :meth:`submit` and the
    read-only query methods; ``workers`` proxy threads run
    :meth:`_worker_loop`, each driving its executor (a forked worker
    process by default — the drive compute happens there, off the
    GIL).  All shared daemon state lives behind one condition
    variable.  Engines never cross threads or processes — each
    executor owns its session — and the rescache files they share are
    flock-serialized for multi-process appenders.
    """

    def __init__(self, config: Optional[DaemonConfig] = None):
        self.config = config or DaemonConfig()
        self.service_config = self.config.service
        self.journal = JobJournal(
            self.config.journal_path,
            rotate_bytes=int(self.config.journal_rotate_mb * 1024 * 1024))
        #: the admission ring: every fleet member builds the identical
        #: ring from the peers map, so ownership needs no coordination
        members = set(self.config.peers)
        if self.config.node_id:
            members.add(self.config.node_id)
        self._ring = HashRing(members) if self.config.node_id else None
        #: one shared cache chain: ResultCache is thread-safe, and
        #: sharing it means a verdict cached by worker A is a warm hit
        #: for worker B within the same daemon lifetime
        self.chain = self.service_config.cache_chain()
        self.metrics = DaemonMetrics()
        #: flight-recorder sink — construction is cheap (a Path and a
        #: lock); nothing is written unless a sampled job emits spans
        self._span_ring = obs.SpanRing(self.config.spans_path)
        #: the settled DONE verdicts as the report-store document, in
        #: submission order: the store writes it, ``GET /buckets``
        #: reads it.  Lock order: _flush_lock, then the view's lock,
        #: then _cv; nothing takes the view's lock while holding _cv.
        self._view = StoreView(self.service_config)
        self._store = TriageStore(self.service_config, self._view) \
            if self.service_config.store_path else None

        self._cv = threading.Condition()
        self._jobs: Dict[str, IntakeJob] = {}
        self._by_seq: List[IntakeJob] = []
        #: settled jobs in settle order (append-only, so a (list, len)
        #: pair snapshotted under the lock can be read outside it) plus
        #: live counters — queries and store writes must stay O(1)
        #: under the lock however long the daemon has been running
        self._settled_list: List[IntakeJob] = []
        self._unsettled = 0
        self._running = 0
        self._heap: List[Tuple[int, int, str]] = []  # (priority, seq, id)
        #: retries waiting out their backoff; the monitor promotes them
        #: into the heap once ``job.not_before`` passes
        self._delayed: List[IntakeJob] = []
        #: worker name -> (job, claim token, monotonic start) for every
        #: in-flight drive — the watchdog's view of the world
        self._running_jobs: Dict[str, tuple] = {}
        #: workers reaped by the watchdog: their thread is still alive
        #: (parked in a hung drive) but no longer counts, claims, or
        #: settles; it exits at the next loop turn (a process-mode
        #: proxy unblocks immediately — its child is SIGKILLed)
        self._abandoned: set = set()
        #: worker name → live executor (the watchdog's kill switch)
        self._executors: Dict[str, object] = {}
        self._worker_seq = 0
        self._monitor: Optional[threading.Thread] = None
        self._backoff_rng = random.Random(self.config.backoff_seed)
        #: last journal append outcome — the degraded-healthz signal
        self._disk_ok = True
        #: settle rows whose append failed — the job is already settled
        #: in memory, so nothing upstream retries; the monitor
        #: re-appends these until the spool heals (FIFO, so
        #: representative-before-duplicate order survives the retry)
        self._journal_backlog: List[tuple] = []
        #: jobs whose done rows are parked above: their verdicts stay
        #: unpublished (no instant dedup, dependents keep waiting)
        #: until the rows are durable
        self._publish_backlog: List[IntakeJob] = []
        self._quarantined_count = 0
        self._pending_by_key: Dict[tuple, str] = {}
        self._done_by_key: Dict[tuple, str] = {}
        self._dependents: Dict[str, List[str]] = {}
        self._seen_fingerprints: set = set()
        self._next_seq = 0
        #: serializes store writes, each snapshotting the settled
        #: history inside it — so writes land in snapshot order and the
        #: store on disk only moves forward.  Nothing takes _flush_lock
        #: while holding the view's lock or _cv.
        self._flush_lock = threading.Lock()
        #: settled-list length at the last store write (failed writes
        #: included: a failing disk is retried at the next flush point,
        #: not on every monitor tick)
        self._flushed_count = 0
        #: settled-list length folded into the view (under its lock)
        self._folded = 0
        #: peer verdicts adopted as shadow jobs (never driven here)
        self._shadow_ids: set = set()
        #: peer → last seen combined journal size (the tail cursor)
        self._peer_sizes: Dict[str, int] = {}
        self._fleet_last_sync = -1e9
        self._stop = False
        self._drain_on_stop = False
        self._interrupted = False
        self._threads: List[threading.Thread] = []
        self._shutdown_event = threading.Event()
        #: unsettled jobs re-admitted from the journal at construction
        self.resumed_jobs = 0

        self._resume_from_journal()
        # A restart rebuilds the fleet-wide dedup tier too: peer
        # segments replay into shadow jobs before the first submission.
        self._fleet_sync(force=True)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        if self.config.workers > 0 and self.config.worker_mode == "process":
            # Worker processes inherit the fault injector by fork; its
            # counters move to a shared flock'd file first, so the
            # seeded schedule stays deterministic across processes and
            # child-fired faults show up in this daemon's metrics.
            faultinject.share_state(
                Path(self.config.spool_dir) / "fault-state.json")
        with self._cv:
            for __ in range(self.config.workers):
                self._spawn_worker_locked()
        if self.config.workers > 0:
            self._monitor = threading.Thread(target=self._monitor_loop,
                                             name="triage-monitor",
                                             daemon=True)
            self._monitor.start()

    def _spawn_worker_locked(self, restart: bool = False) -> None:
        self._worker_seq += 1
        name = f"triage-worker-{self._worker_seq}"
        thread = threading.Thread(target=self._worker_loop, args=(name,),
                                  name=name, daemon=True)
        self._threads.append(thread)
        if restart:
            self.metrics.worker_restarts_total += 1
        thread.start()

    def shutdown(self, drain: bool = False,
                 interrupted: Optional[bool] = None,
                 timeout: Optional[float] = None) -> None:
        """Stop the worker pool and flush the report store.

        ``drain=True`` finishes the queue first (clean administrative
        stop); ``drain=False`` stops after the in-flight jobs only —
        the SIGTERM path, leaving queued work journaled for the next
        daemon life.  Either way no worker thread survives this call,
        and the last store write runs after the workers and the
        monitor have stopped, so the store on disk reflects everything
        settled.  The ``interrupted`` store flag defaults to auto: it
        is derived *after* the workers stop, so a stop that caught the
        daemon fully settled is not mislabeled as a partial run.
        """
        with self._cv:
            self._stop = True
            self._drain_on_stop = drain
            self._cv.notify_all()
        for thread in list(self._threads):
            if thread.name in self._abandoned:
                continue  # parked in a hung drive; daemon thread, let die
            thread.join(timeout=timeout)
        if self._monitor is not None:
            self._monitor.join(timeout=timeout)
        self._threads = [t for t in self._threads if t.is_alive()]
        with self._cv:
            if interrupted is None:
                interrupted = self._unsettled > 0
            self._interrupted = self._interrupted or bool(interrupted)
        self.flush_store()
        self._shutdown_event.set()

    def request_shutdown(self) -> None:
        """Async shutdown signal (the ``POST /shutdown`` endpoint)."""
        self._shutdown_event.set()

    def wait_for_shutdown_request(self, poll: float = 0.2) -> None:
        while not self._shutdown_event.wait(timeout=poll):
            pass

    def wait_idle(self, timeout: float = 60.0) -> bool:
        """Block until no job is queued or running (test/bench helper)."""
        deadline = time.monotonic() + timeout
        with self._cv:
            while time.monotonic() < deadline:
                # The unsettled counter covers heap entries, running
                # drives, and dependents awaiting their representative;
                # a settled job still in the pending map is mid
                # _complete phase 2 (its verdict is journaled but not
                # yet dedup-visible).
                busy = self._unsettled > 0 or any(
                    self._jobs[job_id].settled
                    for job_id in self._pending_by_key.values())
                if not busy:
                    return True
                self._cv.wait(timeout=0.05)
        return False

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------

    def _resume_from_journal(self) -> None:
        """Rebuild the world from the journal: settled jobs become the
        historical dedup store, unsettled jobs re-enter admission (so a
        job whose representative settled in a prior life dedups
        instantly instead of recomputing)."""
        replayed = self.journal.replay(self.service_config)
        self._next_seq = next_ids(replayed)
        resumed: List[IntakeJob] = []
        for job in replayed:
            self._jobs[job.job_id] = job
            self._by_seq.append(job)
            self._seen_fingerprints.add(job.fingerprint)
            if job.settled:
                self._settled_list.append(job)
                if job.state is JobState.QUARANTINED:
                    self._quarantined_count += 1
            else:
                self._unsettled += 1
            if job.state is JobState.DONE:
                if job.force:
                    # Mirror _complete: a completed forced recompute is
                    # the representative, even across restarts (jobs
                    # replay in seq order, so the newest force wins).
                    self._done_by_key[job.dedup_key] = job.job_id
                else:
                    self._done_by_key.setdefault(job.dedup_key,
                                                 job.job_id)
            elif job.state is JobState.QUEUED:
                resumed.append(job)
        self.resumed_jobs = len(resumed)
        journal: List[tuple] = []
        with self._cv:
            for job in resumed:
                # A forced job re-admits as forced: the acknowledged
                # recompute must run, not settle as a duplicate of the
                # verdict it was sent to replace.
                self._admit_locked(job, journal_submit=False,
                                   dedup=not job.force,
                                   journal=journal)
        try:
            self._drain_journal(journal)
        except OSError as exc:
            # These are dedup bookkeeping rows (duplicates re-settled
            # against a prior life's representative); their submit rows
            # are already durable, so the next replay simply re-dedups
            # them.  A transient spool error must not abort the resume
            # — the daemon exists to get the journaled work done.
            warnings.warn(f"resume: journal append failed ({exc}); "
                          f"dedup rows will be rebuilt on next replay",
                          RuntimeWarning)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def submit(self, program: dict, coredump: object,
               report_id: Optional[str] = None,
               true_cause: Optional[str] = None,
               priority: Optional[int] = None,
               force: bool = False,
               trace_id: Optional[str] = None) -> Tuple[int, dict]:
        """Admit one submission; returns ``(http_status, payload)``.

        * 200 — known crash, verdict attached (``dedup_of``);
        * 202 — accepted and journaled (queued or attached pending);
        * 400 — malformed program/coredump;
        * 429 — queue full, ``retry_after_seconds`` attached.

        Raises ``OSError`` (HTTP 503) when the journal cannot make a
        202 acknowledgment durable — an un-acknowledged submission is
        safely retryable; a 202 that would not survive SIGKILL is a
        lie.  A 200 instant dedup under the same disk trouble still
        answers (the verdict is already computed and durable from its
        representative); only its bookkeeping row is lost, which replay
        self-heals by re-deduping the job.

        ``trace_id`` is the client's flight-recorder context (the
        ``X-Res-Trace`` header).  It only takes effect when this
        daemon samples (``RES_TRACE_SAMPLE``); with sampling off it is
        dropped here — one ``None`` check per submission — so nothing
        downstream ever sees it.
        """
        tracer = obs.active()
        if tracer is None:
            trace_id = None
        else:
            if trace_id is None:
                # No client context: the daemon mints one, so traces
                # exist for bare-curl submitters too.
                trace_id = obs.new_trace_id()
            if not tracer.sampled(trace_id):
                trace_id = None
        received = now() if trace_id is not None else 0.0
        try:
            spec, core_obj, dump = self._parse_submission(program, coredump)
        except ReproError as exc:
            self.metrics.bump("malformed_total")
            return 400, {"error": str(exc)}
        fingerprint = dump.fingerprint()

        journal: List[tuple] = []
        spans: List[dict] = []
        with self._cv:
            status, payload, job = self._submit_locked(
                spec, core_obj, dump, fingerprint, report_id,
                true_cause, priority, force, journal,
                trace_id=trace_id, received=received, spans=spans)
        if trace_id is not None:
            if status in (200, 202, 307):
                payload = dict(payload, trace_id=trace_id)
            self._span_ring.append(spans)
        # Journal-before-acknowledge, but *after* releasing the
        # admission lock: the fsync must not serialize other
        # submissions and the workers (the out-of-order-tolerant
        # two-pass replay makes this safe).
        try:
            self._drain_journal(journal)
        except OSError as exc:
            if status == 202 and job is not None:
                # The attached duplicate's own submit row never became
                # durable: unwind the half-admitted job and let the
                # HTTP layer answer 503 — acknowledging it would break
                # the no-acknowledged-job-is-ever-lost invariant.
                with self._cv:
                    self._unwind_locked(job)
                raise
            warnings.warn(
                f"intake journal unavailable ({exc}); instant-dedup "
                f"answer served read-only, bookkeeping row lost",
                RuntimeWarning)
        return status, payload

    def _submit_locked(self, spec: ProgramSpec, core_obj: dict,
                       dump: Coredump, fingerprint: str,
                       report_id: Optional[str],
                       true_cause: Optional[str], priority: Optional[int],
                       force: bool,
                       journal: List[tuple],
                       trace_id: Optional[str] = None,
                       received: float = 0.0,
                       spans: Optional[List[dict]] = None
                       ) -> Tuple[int, dict, object]:
        # Source-exact admission identity (see IntakeJob.dedup_key): an
        # edited program is a different key, so it recomputes.
        key = (spec.module_fp(), fingerprint)
        if not force:
            done_id = self._done_by_key.get(key)
            if done_id is not None:
                # The shared dedup tier answers *before* ownership is
                # consulted: a crash settled by any fleet node (adopted
                # here as a shadow) answers instantly everywhere.
                job = self._settle_as_duplicate(
                    spec, core_obj, fingerprint, report_id,
                    true_cause, self._jobs[done_id], journal,
                    trace_id=trace_id, received=received, spans=spans)
                return 200, job.status_payload(), job
        if self._ring is not None:
            owner = self._ring.owner(fingerprint)
            if owner != self.config.node_id:
                # Misrouted new work: redirect to the owning node so
                # each fingerprint has exactly one representative
                # journal.  Forced recomputes always route — the
                # owner's verdict is the one being replaced.
                self.metrics.redirects_total += 1
                if trace_id is not None and spans is not None:
                    # The non-owner's contribution to the trace: one
                    # redirect span, qualified by node name so each
                    # hop of a misrouted submission is distinct.
                    spans.append(obs.make_span(
                        trace_id, "redirect", received,
                        now() - received,
                        parent=obs.span_id(trace_id, "job"),
                        node=self._node_name(),
                        attrs={"owner": owner},
                        qualifier=self._node_name()))
                return 307, {
                    "error": "crash is owned by another fleet node",
                    "fingerprint": fingerprint,
                    "owner": owner,
                    "owner_url": self.config.peers.get(owner, ""),
                }, None
        if not force:
            pending_id = self._pending_by_key.get(key)
            if pending_id is not None:
                representative = self._jobs[pending_id]
                if representative.fingerprint == fingerprint:
                    core_obj = representative.core_obj
                job = self._new_job(spec, core_obj, fingerprint,
                                    report_id, true_cause, priority=1,
                                    dump=dump)
                journal.append(("submit", job, representative))
                self._dependents.setdefault(pending_id, []).append(
                    job.job_id)
                job.dedup_of = representative.report_id
                if trace_id is not None:
                    job.trace_id = trace_id
                    self._admit_span(job, received, spans,
                                     attached_to=pending_id)
                payload = job.status_payload()
                payload["attached_to"] = pending_id
                return 202, payload, job
        if len(self._heap) >= self.config.max_queue:
            self.metrics.rejected_total += 1
            return 429, {
                "error": "intake queue full",
                "queue_depth": len(self._heap),
                "retry_after_seconds": self._retry_after_locked(),
            }, None
        job_priority = priority if priority is not None else (
            0 if fingerprint not in self._seen_fingerprints else 1)
        job = self._new_job(spec, core_obj, fingerprint,
                            report_id, true_cause, job_priority,
                            dump=dump)
        job.force = force  # carries through to the worker's drive
        if trace_id is not None:
            job.trace_id = trace_id
            job._obs_enqueued = now()
            self._admit_span(job, received, spans)
        # Dedup already ran above (or was forced off), so admit
        # without re-checking.
        self._admit_locked(job, dedup=False, journal=journal)
        return 202, job.status_payload(), job

    def _unwind_locked(self, job: IntakeJob) -> None:
        """Remove a job whose acknowledgment failed to become durable
        (attached-duplicate path; the representative path unwinds inside
        :meth:`_admit_locked`).  The submitter saw 503, so the retryable
        submission must leave no phantom behind."""
        self._jobs.pop(job.job_id, None)
        if job in self._by_seq:
            self._by_seq.remove(job)
        self._unsettled -= 1
        self.metrics.submitted_total -= 1
        for deps in self._dependents.values():
            if job.job_id in deps:
                deps.remove(job.job_id)

    def _parse_submission(self, program: dict, coredump: object
                          ) -> Tuple[ProgramSpec, dict, Coredump]:
        if not isinstance(program, dict) or not program.get("key") \
                or not program.get("source"):
            raise ReproError(
                "program must be an object with 'key' and 'source'")
        spec = ProgramSpec(key=str(program["key"]),
                           source=str(program["source"]),
                           name=str(program.get("name", "")))
        # One conversion each way, not three: a dict submission is
        # adopted as the journal/wire form directly (HTTP hands us a
        # per-request parse we own), a string submission is parsed once.
        if isinstance(coredump, str):
            text = coredump
            try:
                core_obj = json.loads(text)
            except ValueError as exc:
                raise ReproError(f"malformed coredump: {exc}") from exc
        elif isinstance(coredump, dict):
            text = json.dumps(coredump)
            core_obj = coredump
        else:
            raise ReproError("coredump must be a JSON object or string")
        if len(text) > self.config.max_core_bytes:
            raise ReproError(
                f"oversized coredump: {len(text)} bytes "
                f"(limit {self.config.max_core_bytes})")
        try:
            dump = Coredump.from_json(text)
        except Exception as exc:  # noqa: BLE001 - untrusted-input boundary
            # Bit-flipped or truncated dumps surface arbitrary errors
            # from deep inside the parser (AttributeError on a list
            # where a dict belonged, IndexError, ...) — every one of
            # them is "malformed submission", none may reach a worker
            # or kill the handler thread.
            raise ReproError(
                f"malformed coredump: {type(exc).__name__}: {exc}"
            ) from exc
        return spec, core_obj, dump

    def _new_job(self, spec: ProgramSpec, core_obj: dict,
                 fingerprint: str, report_id: Optional[str],
                 true_cause: Optional[str], priority: int,
                 dump: Optional[Coredump] = None) -> IntakeJob:
        seq = self._next_seq
        self._next_seq += 1
        node = self.config.node_id
        # submitted_at is rounded to the journal's microsecond grain up
        # front, so in-memory fleet merge order matches replayed order.
        job = IntakeJob(job_id=make_job_id(seq, node), seq=seq,
                        report_id=report_id or default_report_id(seq,
                                                                 node),
                        program=spec, core_obj=core_obj,
                        fingerprint=fingerprint, priority=priority,
                        true_cause=true_cause,
                        submitted_at=round(now(), 6))
        if dump is not None:
            # The admission parse is the job's parse — don't re-parse
            # the same 100 KB JSON when the worker picks it up.
            job._dump = dump
        self._jobs[job.job_id] = job
        self._by_seq.append(job)
        self._unsettled += 1
        self.metrics.submitted_total += 1
        return job

    def _admit_locked(self, job: IntakeJob, journal_submit: bool = True,
                      dedup: bool = True,
                      journal: Optional[List[tuple]] = None) -> None:
        """Queue an unsettled job.  With ``dedup`` the historical and
        live stores are consulted first (the resume path re-runs full
        admission: a job whose representative settled in a prior life
        must not recompute).

        A *representative* submit row is journaled synchronously, under
        the lock: the moment this job lands in the pending map it can
        be referenced by duplicates' ``core_ref``/``program_ref`` rows
        from other threads, and a referent must never hit the disk
        after its referrer — a SIGKILL in that window would make replay
        drop an acknowledged duplicate.  Duplicates themselves (the
        dedup-dominated bulk of the traffic) and all settle rows are
        journaled via ``journal`` after the lock is released.
        """
        if journal_submit:
            try:
                self.journal.record_submit(job)
            except OSError:
                # No row, no job: a half-admitted phantom (registered
                # but never heap-pushed) would wedge wait_idle and pin
                # every future store flush at complete=false.  Unwind
                # the registration and let the submitter see the error
                # — an unacknowledged submission is safely retryable.
                self._jobs.pop(job.job_id, None)
                if job in self._by_seq:
                    self._by_seq.remove(job)
                self._unsettled -= 1
                self.metrics.submitted_total -= 1
                self._note_disk(False)
                raise
            self._note_disk(True)
        if dedup:
            done_id = self._done_by_key.get(job.dedup_key)
            if done_id is not None:
                self._settle_duplicate_locked(job, self._jobs[done_id],
                                              journal)
                return
            pending_id = self._pending_by_key.get(job.dedup_key)
            if pending_id is not None and pending_id != job.job_id:
                job.dedup_of = self._jobs[pending_id].report_id
                self._dependents.setdefault(pending_id, []).append(
                    job.job_id)
                return
        self._seen_fingerprints.add(job.fingerprint)
        # setdefault: a forced re-submission must not steal the pending
        # marker (and its dependents) from the live representative.
        self._pending_by_key.setdefault(job.dedup_key, job.job_id)
        heapq.heappush(self._heap, (job.priority, job.seq, job.job_id))
        self._cv.notify()

    def _settle_as_duplicate(self, spec: ProgramSpec, core_obj: dict,
                             fingerprint: str, report_id: Optional[str],
                             true_cause: Optional[str],
                             representative: IntakeJob,
                             journal: List[tuple],
                             trace_id: Optional[str] = None,
                             received: float = 0.0,
                             spans: Optional[List[dict]] = None
                             ) -> IntakeJob:
        """Historical dedup: settle the job instantly (the WER-style
        answer).  The duplicate shares the representative's parsed
        coredump in memory and journals by reference, so re-reports of
        a known crash cost bytes, not megabytes.  Shadow (peer-settled)
        representatives live in *another* node's journal: the duplicate
        journals its own core instead of a dangling cross-node ref —
        and a compacted shadow may carry no core at all."""
        if representative.fingerprint == fingerprint \
                and representative.core_obj is not None:
            core_obj = representative.core_obj
        job = self._new_job(spec, core_obj, fingerprint, report_id,
                            true_cause, priority=1)
        if trace_id is not None:
            job.trace_id = trace_id
            self._admit_span(job, received, spans)
        ref = None if representative.job_id in self._shadow_ids \
            else representative
        journal.append(("submit", job, ref))
        self._settle_duplicate_locked(job, representative, journal)
        return job

    def _settle_duplicate_locked(self, job: IntakeJob,
                                 representative: IntakeJob,
                                 journal: Optional[List[tuple]]) -> None:
        rep_result = representative.verdict.result
        job.dedup_of = representative.report_id
        job.verdict = TriagedReport(
            result=TriageResult(report_id=job.report_id,
                                bucket=rep_result.bucket,
                                cause=rep_result.cause,
                                used_fallback=rep_result.used_fallback,
                                exploitable=rep_result.exploitable),
            program_key=job.program.key,
            fingerprint=job.fingerprint,
            seconds=0.0,
            dedup_of=representative.report_id)
        job.state = JobState.DONE
        job.finished_at = now()
        job._dump = None  # settled: nothing reads the parsed dump again
        self._unsettled -= 1
        self._settled_list.append(job)
        if journal is not None:
            journal.append(("done", job, None))
        self.metrics.dedup_total += 1
        if not job.resumed:
            self.metrics.observe_latency(job.latency())
        self._settle_spans_locked(job, dedup=True)

    def _note_disk(self, ok: bool) -> None:
        """Track journal-append health (the degraded-healthz signal).
        A bare attribute write: reads race benignly and the GIL keeps
        it atomic."""
        if not ok:
            self.metrics.bump("journal_errors_total")
        self._disk_ok = ok

    def _drain_journal(self, entries: List[tuple]) -> None:
        """Write collected journal rows (outside the admission lock;
        the journal serializes itself and replay tolerates cross-thread
        row interleavings)."""
        try:
            for kind, job, ref in entries:
                if kind == "submit":
                    self.journal.record_submit(job, dedup_ref=ref)
                elif kind == "done":
                    self.journal.record_done(job)
                elif kind == "quarantined":
                    self.journal.record_quarantined(job)
                else:
                    self.journal.record_failed(job)
        except OSError:
            self._note_disk(False)
            raise
        if entries:
            self._note_disk(True)

    def _drain_or_backlog(self, entries: List[tuple]) -> bool:
        """Write settle rows now, or park them for the monitor to
        retry.  Settle rows differ from submit rows: the job is already
        settled in memory, so no client retry will ever re-write them —
        a dropped row stays invisible until a cold replay loses the
        verdict.  Parked rows keep arrival order (later settles queue
        behind an existing backlog instead of overtaking it)."""
        if not entries:
            return True
        with self._cv:
            if self._journal_backlog:
                self._journal_backlog.extend(entries)
                return False
        try:
            self._drain_journal(entries)
        except OSError as exc:
            warnings.warn(f"intake daemon: settle journal append failed "
                          f"({exc}); {len(entries)} row(s) parked for "
                          f"retry", RuntimeWarning)
            with self._cv:
                self._journal_backlog.extend(entries)
            return False
        return True

    def _retry_journal_backlog(self) -> None:
        """Monitor duty: re-append parked settle rows; once the backlog
        drains, publish the verdicts whose phase 2 was deferred (a
        partial first append may leave duplicate rows behind — replay
        keys rows by job id, so duplicates are free and lost rows are
        not)."""
        with self._cv:
            entries = list(self._journal_backlog)
        if entries:
            try:
                self._drain_journal(entries)
            except OSError:
                return  # spool still unhappy; next tick retries
            with self._cv:
                del self._journal_backlog[:len(entries)]
                if self._journal_backlog:
                    return  # new rows parked mid-retry
        with self._cv:
            publish, self._publish_backlog = self._publish_backlog, []
        for job in publish:
            self._publish_verdict(job)

    def _retry_after_locked(self) -> int:
        """Honest backpressure: the queue's expected drain time under
        the recent per-*drive* latency (instant dedups excluded — the
        queue holds drives), clamped to something a client can act on."""
        snapshot = self.metrics.snapshot()
        per_drive = snapshot["drive_latency_p50"] \
            or snapshot["latency_p50"] or 1.0
        workers = max(self.config.workers, 1)
        estimate = len(self._heap) * per_drive / workers
        return max(1, min(60, int(estimate + 0.999)))

    # ------------------------------------------------------------------
    # Flight recorder (PR 10): span emission
    # ------------------------------------------------------------------

    def _node_name(self) -> str:
        return self.config.node_id or "node"

    def _admit_span(self, job: IntakeJob, received: float,
                    spans: Optional[List[dict]],
                    attached_to: Optional[str] = None) -> None:
        """The ``admit`` span: HTTP receipt → journaled/registered.
        Appended to the caller's batch (written after the admission
        lock drops)."""
        if spans is None:
            return
        attrs: dict = {"job_id": job.job_id, "priority": job.priority}
        if attached_to is not None:
            attrs["attached_to"] = attached_to
        spans.append(obs.make_span(
            job.trace_id, "admit", received or job.submitted_at,
            now() - (received or job.submitted_at),
            parent=obs.span_id(job.trace_id, "job"),
            node=self._node_name(), attrs=attrs))

    def _root_spans(self, job: IntakeJob) -> List[dict]:
        """The root ``job`` span, minted at settle (its id is
        deterministic, so children emitted earlier already point at
        it — a trace killed mid-flight has a dangling parent only
        until the replayed job settles and re-emits this span)."""
        finished = job.finished_at or now()
        attrs: dict = {"state": job.state.value,
                       "priority": job.priority,
                       "attempts": job.attempts,
                       "report_id": job.report_id}
        if job.dedup_of is not None:
            attrs["dedup_of"] = job.dedup_of
        if job.error:
            attrs["error"] = str(job.error)[:200]
        if job.verdict is not None and job.verdict.cached:
            attrs["cached"] = True
        return [obs.make_span(
            job.trace_id, "job", job.submitted_at,
            finished - job.submitted_at, parent=None,
            node=self._node_name(), attrs=attrs)]

    def _settle_spans_locked(self, job: IntakeJob,
                             dedup: bool = False) -> None:
        """Emit the settle-side spans for one job (no-op when the job
        is unsampled).  Runs under the admission lock like the journal
        appends it mirrors; the ring's append is small, buffered, and
        swallows I/O errors."""
        if job.trace_id is None:
            return
        spans = self._root_spans(job)
        if dedup:
            spans.append(obs.make_span(
                job.trace_id, "dedup", job.finished_at or now(), 0.0,
                parent=obs.span_id(job.trace_id, "job"),
                node=self._node_name(),
                attrs={"dedup_of": job.dedup_of}))
        self._span_ring.append(spans)

    def _queue_span(self, job: IntakeJob, claimed_at: float) -> None:
        """The ``queue-N`` span: (re-)enqueue → claim N."""
        enqueued = job._obs_enqueued or job.submitted_at
        wait = max(0.0, claimed_at - enqueued)
        self._span_ring.append([obs.make_span(
            job.trace_id, f"queue-{job.attempts}", enqueued, wait,
            parent=obs.span_id(job.trace_id, "job"),
            node=self._node_name(),
            attrs={"priority": job.priority})])
        self.metrics.observe_phase("queue", job.priority, wait)

    def _record_attempt(self, job: IntakeJob, phases: list,
                        outcome: str, worker: str,
                        error: Optional[str] = None) -> None:
        """Mint the ``attempt-N`` span and its drive-phase children
        from the executor's timings, and feed the per-phase latency
        histograms.  Every claim records an attempt span — including
        crashes and retries, so a quarantined job's trace shows each
        worker it killed."""
        trace_id = job.trace_id
        if trace_id is None:
            return
        attempt = job.attempts
        started = job._obs_claimed or now()
        finished = now()
        attempt_name = f"attempt-{attempt}"
        attempt_sid = obs.span_id(trace_id, attempt_name)
        attrs: dict = {"outcome": outcome, "worker": worker}
        if error:
            attrs["error"] = error[:200]
        spans = [obs.make_span(
            trace_id, attempt_name, started, finished - started,
            parent=obs.span_id(trace_id, "job"),
            node=self._node_name(), attrs=attrs)]
        # Phase children are laid out sequentially from the claim
        # time by measured duration — the waterfall's x-positions are
        # an ordering aid; the durations are the measurement.
        cursor = started
        for entry in phases or ():
            try:
                phase, seconds, phase_attrs = entry
                seconds = max(0.0, float(seconds))
            except (TypeError, ValueError):
                continue
            spans.append(obs.make_span(
                trace_id, f"{phase}-{attempt}", cursor, seconds,
                parent=attempt_sid, node=self._node_name(),
                attrs=phase_attrs
                if isinstance(phase_attrs, dict) else None))
            cursor += seconds
            self.metrics.observe_phase(phase, job.priority, seconds)
        self.metrics.observe_phase("attempt", job.priority,
                                   finished - started)
        self._span_ring.append(spans)

    def trace_payload(self, job_or_trace_id: str,
                      local_only: bool = False) -> Optional[dict]:
        """The ``GET /trace/<id>`` document: every span of one trace,
        cross-node stitched.  The id may be a job id (resolved through
        this node's job table, shadows included) or a raw trace id —
        the form peers use when stitching, since a job id resolves
        only on nodes that know the job.  ``local_only`` stops the
        recursion: peers answer from their own ring without fanning
        out again."""
        with self._cv:
            job = self._jobs.get(job_or_trace_id)
            trace_id = job.trace_id if job is not None else None
            state = job.state.value if job is not None else None
        if job is not None and trace_id is None:
            # A known but unsampled job: answer the shape, not a 404 —
            # the CLI renders "not sampled" instead of "not found".
            return {"job_id": job_or_trace_id, "trace_id": None,
                    "state": state, "spans": []}
        if trace_id is None:
            trace_id = job_or_trace_id
        by_id: Dict[str, dict] = {
            span["span"]: span
            for span in self._span_ring.read(trace_id)
            if isinstance(span.get("span"), str)}
        if not local_only:
            for peer, base in sorted(self.config.peers.items()):
                if peer == self.config.node_id or not base:
                    continue
                for span in self._peer_spans(base, trace_id):
                    sid = span.get("span")
                    if isinstance(sid, str):
                        by_id.setdefault(sid, span)
        spans = sorted(by_id.values(),
                       key=lambda s: (s.get("start") or 0.0,
                                      s.get("name") or ""))
        if job is None and not spans and not local_only:
            return None  # unknown id anywhere: a real 404
        payload: dict = {"trace_id": trace_id, "spans": spans}
        if job is not None:
            payload["job_id"] = job_or_trace_id
            payload["state"] = state
        return payload

    @staticmethod
    def _peer_spans(base_url: str, trace_id: str) -> List[dict]:
        """One peer's local view of a trace; best-effort (a down peer
        costs its spans, never the request)."""
        url = f"{base_url.rstrip('/')}/trace/{trace_id}?local=1"
        try:
            with urllib.request.urlopen(url, timeout=2.0) as response:
                document = json.loads(response.read().decode("utf-8"))
        except (OSError, ValueError):
            return []
        spans = document.get("spans") if isinstance(document, dict) \
            else None
        return [span for span in spans or []
                if isinstance(span, dict)]

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------

    def _worker_loop(self, name: Optional[str] = None) -> None:
        """One worker slot: a proxy thread driving its executor — by
        default a forked worker process holding the warm triage session
        (``worker_mode="process"``), optionally the in-thread drive.
        The claim/release protocol runs here, on the proxy, whatever
        the executor is, which is how the PR 6 self-healing contract
        survives the process boundary unchanged."""
        name = name or threading.current_thread().name
        executor = workerpool.create_executor(
            self.config.worker_mode, self.service_config,
            chain=self.chain)
        with self._cv:
            self._executors[name] = executor
        fi = faultinject.active()
        try:
            while True:
                with self._cv:
                    claimed = self._claim_locked(name)
                if claimed is None:
                    return
                job, claim = claimed
                if job.trace_id is not None:
                    claimed_at = now()
                    self._queue_span(job, claimed_at)
                    job._obs_claimed = claimed_at
                try:
                    if fi is not None:
                        # The worker-death site: decided daemon-side,
                        # *before* dispatch — the window where an
                        # acknowledged job is claimed but has produced
                        # nothing — so the seeded schedule and the
                        # metrics are executor-mode independent.
                        fi.check("worker.task")
                    triaged = executor.run(
                        job.program, job.bug_report(),
                        fingerprint=job.fingerprint,
                        bypass_cache=job.force,
                        trace=job.trace_id)
                except KeyboardInterrupt:
                    raise
                except WorkerCrashError as exc:
                    # Simulated worker death: kill the worker process
                    # to make it a real one (thread mode has nothing
                    # to kill), do the bookkeeping (requeue or
                    # quarantine), then the slot dies — the monitor
                    # respawns a replacement, exactly the
                    # crash-looping-fleet scenario quarantine bounds.
                    executor.kill()
                    self._record_attempt(job, [], outcome="worker-crash",
                                         worker=name, error=str(exc))
                    self._worker_died(name, job, claim, str(exc))
                    return
                except workerpool.WorkerProcessDied as exc:
                    # The worker process vanished mid-drive (SIGKILL,
                    # OOM, watchdog reap, injected in-drive death):
                    # same bookkeeping, same respawn path.
                    self._record_attempt(job, [], outcome="worker-crash",
                                         worker=name, error=str(exc))
                    self._worker_died(name, job, claim, str(exc))
                    return
                except workerpool.TriageTaskError as exc:
                    # A drive error, already rendered "Type: message"
                    # by the executor boundary — retried on the normal
                    # attempt budget, not counted as a worker loss.
                    self._record_attempt(job, [], outcome="error",
                                         worker=name, error=str(exc))
                    self._settle_safely(
                        self._retry_or_fail, job, name, claim, str(exc))
                    continue
                except Exception as exc:  # noqa: BLE001 - worker boundary
                    self._record_attempt(job, [], outcome="error",
                                         worker=name,
                                         error=f"{type(exc).__name__}: "
                                               f"{exc}")
                    self._settle_safely(
                        self._retry_or_fail, job, name, claim,
                        f"{type(exc).__name__}: {exc}")
                    continue
                self._record_attempt(job, executor.last_phases
                                     if job.trace_id is not None else [],
                                     outcome="ok", worker=name)
                self._settle_safely(self._complete, job, name, claim,
                                    triaged)
        finally:
            with self._cv:
                if self._executors.get(name) is executor:
                    self._executors.pop(name)
            executor.close()

    def _claim_locked(self, name: str) -> Optional[Tuple[IntakeJob, int]]:
        """Block until a job is claimable; None means "exit the loop".
        Under a draining stop workers stay alive until *everything*
        settles — a retry waiting out its backoff still needs a worker
        when the monitor promotes it."""
        while True:
            if name in self._abandoned:
                return None
            if self._stop:
                if not self._drain_on_stop:
                    return None
                if self._unsettled == 0:
                    return None
            if self._heap:
                __, __, job_id = heapq.heappop(self._heap)
                job = self._jobs.get(job_id)
                if job is None or job.state is not JobState.QUEUED:
                    continue  # settled/quarantined while queued
                job.state = JobState.RUNNING
                job.attempts += 1
                job.claim += 1
                self._running += 1
                self._running_jobs[name] = (job, job.claim,
                                            time.monotonic())
                return job, job.claim
            self._cv.wait(timeout=0.5)

    def _release_locked(self, name: str, job: IntakeJob,
                        claim: int) -> bool:
        """Validate-and-release an in-flight claim.  False means the
        claim is stale — the watchdog reaped this worker and the job
        was re-queued (or already settled by its retry); the caller
        must discard its outcome instead of double-settling."""
        entry = self._running_jobs.get(name)
        if entry is None or entry[0] is not job or entry[1] != claim \
                or job.claim != claim or job.state is not JobState.RUNNING:
            return False
        self._running_jobs.pop(name)
        self._running -= 1
        return True

    def _backoff_locked(self, attempt: int) -> float:
        """Jittered exponential backoff for the ``attempt``-th retry:
        ``base * 2^(attempt-1)`` clamped to the cap, scaled by a
        uniform factor in [0.5, 1.0] so synchronized failures do not
        re-queue in lockstep."""
        window = min(RETRY_BACKOFF_CAP,
                     self.config.retry_backoff_base
                     * (2 ** max(0, attempt - 1)))
        return window * (0.5 + 0.5 * self._backoff_rng.random())

    def _requeue_locked(self, job: IntakeJob) -> None:
        job.state = JobState.QUEUED
        self.metrics.retries_total += 1
        if job.trace_id is not None:
            job._obs_enqueued = now()  # queue-N+1 measures from here
        delay = self._backoff_locked(job.attempts)
        if delay <= 0:
            heapq.heappush(self._heap, (job.priority, job.seq,
                                        job.job_id))
            self._cv.notify()
        else:
            job.not_before = time.monotonic() + delay
            self._delayed.append(job)

    def _settle_unverdicted_locked(self, job: IntakeJob, state: JobState,
                                   error: str,
                                   journal: List[tuple]) -> None:
        """Settle a job and its attached duplicates as ``FAILED`` (out
        of attempts) or ``QUARANTINED`` (a poison job): diagnostics
        instead of a verdict, one journal row of that kind each.  The
        key's pending marker is freed, so a later re-submission of the
        same crash gets a fresh chance — quarantine is a fuse, not a
        verdict cache."""
        if self._pending_by_key.get(job.dedup_key) == job.job_id:
            self._pending_by_key.pop(job.dedup_key)
        settling = [(job, error)] + [
            (self._jobs[dep_id],
             f"representative {job.job_id} {state.value}")
            for dep_id in self._dependents.pop(job.job_id, ())]
        for target, target_error in settling:
            target.state = state
            target.error = target_error
            target.finished_at = now()
            target._dump = None
            self._unsettled -= 1
            self._settled_list.append(target)
            journal.append((state.value, target, None))
            if state is JobState.QUARANTINED:
                self._quarantined_count += 1
                self.metrics.quarantined_total += 1
            else:
                self.metrics.failed_total += 1
            self._settle_spans_locked(target)

    def _worker_died(self, name: str, job: IntakeJob, claim: int,
                     reason: str) -> None:
        """A worker died mid-drive (injected crash today; the pattern
        holds for any abrupt worker loss).  Count it against the job —
        re-queue with backoff, or quarantine once it has killed
        ``quarantine_after`` workers."""
        journal: List[tuple] = []
        with self._cv:
            if self._release_locked(name, job, claim):
                job.worker_crashes += 1
                if job.worker_crashes >= self.config.quarantine_after:
                    self._settle_unverdicted_locked(
                        job, JobState.QUARANTINED,
                        f"quarantined: killed {job.worker_crashes} "
                        f"worker(s); last: {reason}", journal)
                else:
                    self._requeue_locked(job)
            self._cv.notify_all()
        self._drain_or_backlog(journal)

    def _retry_or_fail(self, job: IntakeJob, name: str, claim: int,
                       error: str) -> None:
        """A drive raised: re-queue with backoff while attempts remain,
        settle as failed (dependents included) when they run out."""
        journal: List[tuple] = []
        with self._cv:
            if not self._release_locked(name, job, claim):
                return
            if job.attempts < self.config.max_attempts:
                self._requeue_locked(job)
            else:
                self._settle_unverdicted_locked(
                    job, JobState.FAILED,
                    f"{error} (after {job.attempts} attempts)", journal)
            self._cv.notify_all()
        self._drain_or_backlog(journal)

    def _settle_safely(self, settle, *args) -> None:
        """Settling touches the journal (never the report store — the
        monitor writes that); transient I/O trouble there (ENOSPC on
        the spool volume, say) must cost at most this one job's
        durability — never the worker thread, or the daemon would
        silently stop triaging while healthz still looked alive."""
        try:
            settle(*args)
        except Exception as exc:  # noqa: BLE001 - worker boundary
            warnings.warn(f"intake daemon: settling hit "
                          f"{type(exc).__name__}: {exc}; worker continues",
                          RuntimeWarning)

    # ------------------------------------------------------------------
    # Monitor: delayed-retry promotion, watchdog, worker respawn,
    # store writes
    # ------------------------------------------------------------------

    def _monitor_loop(self) -> None:
        while True:
            journal: List[tuple] = []
            with self._cv:
                stopping = self._stop and (not self._drain_on_stop
                                           or self._unsettled == 0)
                if not stopping:
                    self._promote_due_locked()
                    self._watchdog_locked(journal)
                    self._respawn_locked()
            self._drain_or_backlog(journal)
            # Parked settle rows outlive everything else: flush them
            # even on the way out, or a drain shutdown could strand
            # settled-in-memory verdicts off-disk.
            self._retry_journal_backlog()
            if stopping:
                return
            self._maintenance_rebucket()
            self._journal_maintenance()
            self._fleet_sync()
            self._flush_store_if_due()
            with self._cv:
                self._cv.wait(timeout=self.config.monitor_interval)

    def _promote_due_locked(self) -> None:
        """Move delayed retries whose backoff has elapsed into the
        claimable heap."""
        if not self._delayed:
            return
        now_m = time.monotonic()
        still: List[IntakeJob] = []
        promoted = False
        for job in self._delayed:
            if job.state is not JobState.QUEUED:
                continue  # settled (quarantined/unwound) while waiting
            if job.not_before <= now_m:
                heapq.heappush(self._heap, (job.priority, job.seq,
                                            job.job_id))
                promoted = True
            else:
                still.append(job)
        self._delayed = still
        if promoted:
            self._cv.notify_all()

    def _watchdog_locked(self, journal: List[tuple]) -> None:
        """Reap drives that exceeded the watchdog timeout: abandon the
        hung worker thread (it can be parked in a hung solver call —
        nothing can interrupt it, so it is written off and replaced),
        invalidate its claim, and count a worker loss against the job.
        A process-mode drive is *killable*: SIGKILL the worker process
        and the proxy unblocks on pipe EOF (its claim is already stale,
        so the death is discarded) instead of parking forever."""
        timeout = self.config.watchdog_timeout
        if timeout <= 0:
            return
        now_m = time.monotonic()
        for name, (job, claim, started) in list(
                self._running_jobs.items()):
            if now_m - started <= timeout:
                continue
            self._abandoned.add(name)
            self._running_jobs.pop(name, None)
            self._running -= 1
            executor = self._executors.get(name)
            if executor is not None:
                executor.kill()
            if job.claim == claim and job.state is JobState.RUNNING:
                job.claim += 1  # the hung drive's settle is stale now
                job.worker_crashes += 1
                if job.worker_crashes >= self.config.quarantine_after:
                    self._settle_unverdicted_locked(
                        job, JobState.QUARANTINED,
                        f"quarantined: hung past the {timeout:.1f}s "
                        f"watchdog {job.worker_crashes} time(s)", journal)
                else:
                    self._requeue_locked(job)
            self._cv.notify_all()

    def _respawn_locked(self) -> None:
        """Keep the pool at strength: prune dead threads, count the
        live non-abandoned workers, and spawn replacements.  Respawn
        continues under a *draining* stop — the queue cannot finish
        without workers — and halts under a hard stop."""
        pruned: List[threading.Thread] = []
        for thread in self._threads:
            if thread.is_alive():
                pruned.append(thread)
            else:
                self._abandoned.discard(thread.name)
        self._threads = pruned
        if self._stop and not (self._drain_on_stop and self._unsettled):
            return
        alive = sum(1 for t in self._threads
                    if t.name not in self._abandoned)
        while alive < self.config.workers:
            self._spawn_worker_locked(restart=True)
            alive += 1

    def _complete(self, job: IntakeJob, name: str, claim: int,
                  triaged: TriagedReport) -> None:
        # Phase 1: settle in memory and journal the done rows.  The
        # verdict is NOT yet registered for instant dedup — an instant
        # duplicate journals a done row of its own, and that row must
        # never hit the disk before the representative's (a SIGKILL
        # between them would make replay settle the duplicate and
        # re-queue the representative, which would then dedup against
        # its own duplicate — inverting `dedup_of` vs the batch run).
        # The pending-map entry stays in place meanwhile, so same-key
        # submissions attach as dependents and settle in phase 2.
        journal: List[tuple] = []
        with self._cv:
            if not self._release_locked(name, job, claim):
                return  # reaped mid-drive: the retry owns this job now
            job.verdict = triaged
            job.state = JobState.DONE
            job.finished_at = now()
            self._unsettled -= 1
            self._settled_list.append(job)
            journal.append(("done", job, None))
            self.metrics.verdicts_total += 1
            if triaged.cached:
                self.metrics.warm_hits_total += 1
            if not job.resumed:
                self.metrics.observe_latency(job.latency(), drive=True)
            for dep_id in self._dependents.pop(job.job_id, ()):
                self._settle_duplicate_locked(self._jobs[dep_id], job,
                                              journal)
            self._settle_spans_locked(job)
            self._cv.notify_all()
        if not self._drain_or_backlog(journal):
            # The done rows are parked, not durable: defer phase 2 (the
            # monitor publishes once the backlog drains).  Exposing the
            # verdict now would let a duplicate's done row reach disk
            # before its representative's.
            with self._cv:
                self._publish_backlog.append(job)
            return
        self._publish_verdict(job)

    def _publish_verdict(self, job: IntakeJob) -> None:
        # Phase 2: the done row is durable — expose the verdict to
        # instant dedup and settle any dependents that attached while
        # phase 1's rows were being written.
        journal: List[tuple] = []
        with self._cv:
            if job.force:
                # A forced recompute is the *new* truth for this key:
                # later dedups copy it, not the verdict it re-checked.
                self._done_by_key[job.dedup_key] = job.job_id
            else:
                self._done_by_key.setdefault(job.dedup_key, job.job_id)
            if self._pending_by_key.get(job.dedup_key) == job.job_id:
                self._pending_by_key.pop(job.dedup_key)
            for dep_id in self._dependents.pop(job.job_id, ()):
                self._settle_duplicate_locked(self._jobs[dep_id], job,
                                              journal)
            # The verdict row is durable and the job will never be
            # driven again: drop the parsed ~100 KB dump (the compact
            # core_obj stays — journal refs and replay rebuild from
            # it), so resident memory tracks in-flight work, not the
            # daemon's lifetime submission count.
            job._dump = None
            self._cv.notify_all()
        self._drain_or_backlog(journal)

    # ------------------------------------------------------------------
    # The report store (same document as batch `res triage --store`)
    # ------------------------------------------------------------------

    def _flush_store_if_due(self) -> None:
        """Monitor duty: rewrite the store once STORE_FLUSH_EVERY jobs
        have settled since the last write.  The monitor is the store's
        only writer while the daemon runs, so no settle path — an
        instant dedup's HTTP handler included — ever waits on it."""
        if self._store is None or len(self._settled_list) \
                - self._flushed_count < STORE_FLUSH_EVERY:
            return
        try:
            self.flush_store()
        except Exception as exc:  # noqa: BLE001 - monitor boundary
            warnings.warn(f"intake daemon: store write hit "
                          f"{type(exc).__name__}: {exc}", RuntimeWarning)

    def flush_store(self) -> None:
        """Write the report store from the settled history so far.

        Inside ``_flush_lock`` and the view's lock, one ``_cv``
        snapshot reads the settled count and the ``complete`` /
        ``interrupted`` flags; the jobs settled since the last fold go
        into the view, and the store is written from it.  Concurrent
        callers therefore write in snapshot order, and the store on
        disk only moves forward.  The write re-encodes only the rows
        added or re-bucketed since the previous one (see
        :class:`StoreView`), and it runs outside ``_cv``, without
        stalling admission or the workers."""
        if self._store is None:
            return
        with self._flush_lock, self._view.lock:
            complete, interrupted = self._fold_settled_locked()
            self._flushed_count = self._folded
            try:
                self._store.flush(
                    complete=complete, interrupted=interrupted,
                    elapsed=max(now() - self.metrics.started_at, 1e-9))
            except OSError as exc:
                # The store is a derived artifact — every row in it is
                # rebuilt from the journal on replay — so a failed write
                # costs visibility, not verdicts.  Raising here would kill
                # the monitor thread.
                warnings.warn(f"report store flush failed ({exc}); "
                              f"retrying at the next flush point",
                              RuntimeWarning)

    def _fold_settled_locked(self) -> Tuple[bool, bool]:
        """Fold every job settled since the last fold into the view —
        each verdict exactly once, whether it settled here, replayed
        from this node's journal, or arrived from a peer's segments —
        and return the store's ``(complete, interrupted)`` flags, read
        in the same ``_cv`` snapshot as the settled count.  The caller
        holds the view's lock."""
        with self._cv:
            settled, count = self._settled_list, len(self._settled_list)
            complete = not self._unsettled and not self._interrupted
            interrupted = self._interrupted
        if count > self._folded:
            # Store rows are in submission order (the batch-run
            # equivalence contract) while the settled list is in settle
            # order: each row goes in at its order key.  A fleet's
            # submission order is the deterministic merge order
            # (submitted_at, node, seq), plain seq order on one node, so
            # any member's store converges on the same document.
            for job in settled[self._folded:count]:
                # Advance first: a fold that raises midway must not
                # re-add the rows before it on the next pass.
                self._folded += 1
                if job.state is JobState.DONE and job.verdict is not None:
                    self._view.add(job.order_key, job.verdict,
                                   job.true_cause)
            self.metrics.bump("rebucket_passes_total")
        return complete, interrupted

    # ------------------------------------------------------------------
    # Queries (HTTP read side)
    # ------------------------------------------------------------------

    def job_payload(self, job_id: str) -> Optional[dict]:
        with self._cv:
            job = self._jobs.get(job_id)
            return job.status_payload() if job else None

    def buckets_payload(self) -> dict:
        """The refined bucket view over the settled history, read from
        the store's view after folding in what settled since the last
        fold — O(new verdicts) plus a copy of the id lists, never a
        re-bucketing of the history."""
        with self._view.lock:
            self._fold_settled_locked()
            return self._view.buckets_payload()

    def _maintenance_rebucket(self) -> None:
        """Monitor-tick maintenance: fold verdicts settled since the
        last fold into the view, so a store write or ``GET /buckets``
        finds them already there.  Best-effort, like every monitor
        duty."""
        try:
            with self._view.lock:
                self._fold_settled_locked()
        except Exception as exc:  # noqa: BLE001 - monitor boundary
            warnings.warn(f"intake daemon: background rebucket hit "
                          f"{type(exc).__name__}: {exc}", RuntimeWarning)

    def _journal_maintenance(self) -> None:
        """Bound the spool: rotate the active journal segment once it
        crosses ``--journal-rotate-mb``, then compact the closed
        segments (each settled job's submit+settle rows merge into one
        row, and replay-redundant coredump bodies drop).  Best-effort;
        a failed rotation or compaction retries next tick."""
        if not self.journal.rotate_bytes:
            return
        try:
            if self.journal.log.rotate(self.journal.rotate_bytes) is not None:
                self.journal.compact_segments()
        except Exception as exc:  # noqa: BLE001 - monitor boundary
            warnings.warn(f"intake daemon: journal maintenance hit "
                          f"{type(exc).__name__}: {exc}", RuntimeWarning)

    # ------------------------------------------------------------------
    # Fleet: peer-segment sync (the shared dedup tier)
    # ------------------------------------------------------------------

    def _fleet_sync(self, force: bool = False) -> None:
        """Tail the peers' journal segments in the shared spool and
        adopt their settled verdicts as *shadow* jobs: dedup-visible,
        store-visible, never driven and never re-journaled here.  This
        is the shared dedup tier — a crash settled by any node answers
        instantly on every node — and, at restart, the deterministic
        merge-on-replay: any member rebuilds the fleet-wide settled
        state from the union of segments.  Size-gated (one ``stat`` per
        peer file per interval) and idempotent: replays re-run until
        the segment sizes settle, and known job ids are skipped."""
        if self._ring is None:
            return
        now_m = time.monotonic()
        if not force and now_m - self._fleet_last_sync \
                < FLEET_SYNC_INTERVAL:
            return
        self._fleet_last_sync = now_m
        spool = Path(self.config.spool_dir)
        for peer in self._ring.nodes:
            if peer == self.config.node_id:
                continue
            peer_journal = JobJournal(spool / journal_file_for(peer))
            try:
                size = sum(path.stat().st_size
                           for path in peer_journal.log.files()
                           if path.exists())
            except OSError:
                continue
            if size == self._peer_sizes.get(peer):
                continue
            try:
                replayed = peer_journal.replay(self.service_config)
            except (ReproError, OSError):
                continue  # mid-rotation read; the next tick retries
            self._peer_sizes[peer] = size
            self._adopt_shadows(replayed)

    def _adopt_shadows(self, replayed: List[IntakeJob]) -> None:
        """Register a peer's settled jobs under this node's dedup and
        store views.  Unsettled peer jobs are skipped (their owner is
        driving them); they adopt once a later sync sees the settle."""
        adopted = False
        with self._cv:
            for job in replayed:
                if not job.settled or job.job_id in self._jobs:
                    continue
                job.resumed = True
                job._dump = None
                self._jobs[job.job_id] = job
                self._by_seq.append(job)
                self._shadow_ids.add(job.job_id)
                self._seen_fingerprints.add(job.fingerprint)
                self._settled_list.append(job)
                if job.state is JobState.QUARANTINED:
                    self._quarantined_count += 1
                if job.state is JobState.DONE \
                        and job.verdict is not None:
                    if job.force:
                        # Jobs replay in seq order, so the peer's
                        # newest forced recompute wins — mirroring
                        # _complete phase 2 on the owner itself.
                        self._done_by_key[job.dedup_key] = job.job_id
                    else:
                        self._done_by_key.setdefault(job.dedup_key,
                                                     job.job_id)
                adopted = True
            if adopted:
                self._cv.notify_all()

    def report_payload(self, fingerprint: str) -> dict:
        with self._cv:
            settled, count = self._settled_list, len(self._settled_list)
        matching = sorted((job for job in settled[:count]
                           if job.fingerprint == fingerprint),
                          key=lambda job: job.order_key)
        return {"fingerprint": fingerprint,
                "reports": [job.status_payload() for job in matching]}

    def healthz(self) -> dict:
        """Liveness + degradation.  ``degraded`` means the daemon still
        answers — instant dedup against the historical store is pure
        in-memory reads — but its write side is impaired: workers are
        down (pool below strength, pending respawn or respawn-disabled)
        or the spool disk rejected the last journal append.  Read-only
        service from historical dedup is exactly what keeps working in
        that state, so clients can keep querying and submitting known
        crashes while new work is refused or delayed."""
        with self._cv:
            alive = sum(1 for thread in self._threads
                        if thread.is_alive()
                        and thread.name not in self._abandoned)
            disk_ok = self._disk_ok
            degraded = (not disk_ok) or (
                self._threads and alive < self.config.workers)
            if self._stop:
                status = "draining"
            elif degraded:
                status = "degraded"
            else:
                status = "ok"
            return {
                "status": status,
                "node_id": self.config.node_id,
                "queue_depth": len(self._heap),
                "delayed_retries": len(self._delayed),
                "in_flight": self._running,
                "workers": self.config.workers,
                "workers_alive": alive,
                "disk": "ok" if disk_ok else "unhealthy",
                "quarantined": self._quarantined_count,
                "jobs": len(self._jobs),
                "uptime_seconds": round(
                    now() - self.metrics.started_at, 3),
            }

    def quarantine_payload(self) -> dict:
        """Every quarantined job with its diagnostics (the operator's
        drain-and-inspect view behind ``res status --quarantine``)."""
        with self._cv:
            settled, count = self._settled_list, len(self._settled_list)
        rows = sorted((job.status_payload() for job in settled[:count]
                       if job.state is JobState.QUARANTINED),
                      key=lambda row: row["job_id"])
        return {"quarantined": rows}

    def metrics_text(self) -> str:
        """The ``GET /metrics`` exposition (Prometheus text format).

        Every family carries ``# HELP`` and ``# TYPE`` lines, and
        families are emitted in sorted-by-name order — two scrapes of
        an idle daemon are byte-identical, so operators can diff them
        and dashboards can rely on the layout.
        """
        health = self.healthz()
        snapshot = self.metrics.snapshot()
        # (family, kind, help, [sample lines]) — assembled unsorted,
        # emitted sorted by family name.
        families: List[tuple] = []

        def family(name: str, kind: str, help_text: str,
                   samples) -> None:
            families.append((f"res_intake_{name}", kind, help_text,
                             samples))

        def scalar(name: str, kind: str, help_text: str, value) -> None:
            family(name, kind, help_text,
                   [f"res_intake_{name} {value}"])

        scalar("submitted_total", "counter",
               "Submissions accepted for triage (202s).",
               snapshot["submitted_total"])
        scalar("verdicts_total", "counter",
               "Jobs settled with a triage verdict.",
               snapshot["verdicts_total"])
        scalar("dedup_total", "counter",
               "Submissions settled by duplicate suppression.",
               snapshot["dedup_total"])
        scalar("warm_hits_total", "counter",
               "Verdicts served from the warm result cache.",
               snapshot["warm_hits_total"])
        scalar("failed_total", "counter",
               "Jobs settled as failed after exhausting attempts.",
               snapshot["failed_total"])
        scalar("rejected_total", "counter",
               "Submissions rejected at admission (backpressure).",
               snapshot["rejected_total"])
        scalar("malformed_total", "counter",
               "Submissions rejected as malformed.",
               snapshot["malformed_total"])
        scalar("redirects_total", "counter",
               "Submissions redirected to their owning fleet node.",
               snapshot["redirects_total"])
        scalar("retries_total", "counter",
               "Drive attempts re-queued after an error or crash.",
               snapshot["retries_total"])
        scalar("quarantined_total", "counter",
               "Jobs quarantined as poison inputs.",
               snapshot["quarantined_total"])
        scalar("worker_restarts_total", "counter",
               "Worker slots respawned after a loss.",
               snapshot["worker_restarts_total"])
        scalar("journal_errors_total", "counter",
               "Journal writes that failed and were backlogged.",
               snapshot["journal_errors_total"])
        scalar("rebucket_passes_total", "counter",
               "Historical re-bucketing passes completed.",
               snapshot["rebucket_passes_total"])
        scalar("injected_faults_total", "counter",
               "Faults fired by the fault-injection harness.",
               faultinject.injected_total())
        scalar("degraded", "gauge",
               "1 when the daemon is degraded, 0 when healthy.",
               1 if health["status"] == "degraded" else 0)
        scalar("queue_depth", "gauge",
               "Jobs queued and waiting for a worker.",
               health["queue_depth"])
        scalar("in_flight", "gauge",
               "Jobs claimed by a worker right now.",
               health["in_flight"])
        scalar("verdicts_per_second", "gauge",
               "Verdict throughput over the daemon's uptime.",
               snapshot["verdicts_per_second"])
        scalar("warm_hit_rate", "gauge",
               "Fraction of verdicts served from the warm cache.",
               snapshot["warm_hit_rate"])
        scalar("uptime_seconds", "gauge",
               "Seconds since the daemon started.",
               snapshot["uptime_seconds"])
        family("latency_seconds", "summary",
               "Submit-to-settle latency of driven jobs.",
               ['res_intake_latency_seconds{quantile="0.5"} '
                f"{snapshot['latency_p50']}",
                'res_intake_latency_seconds{quantile="0.95"} '
                f"{snapshot['latency_p95']}"])
        phase_samples = []
        for (phase, priority), (p50, p95) in sorted(
                self.metrics.phase_quantiles().items()):
            for quantile, value in (("0.5", p50), ("0.95", p95)):
                phase_samples.append(
                    'res_intake_phase_latency_seconds{'
                    f'phase="{phase}",priority="{priority}",'
                    f'quantile="{quantile}"}} {round(value, 6)}')
        if phase_samples:
            family("phase_latency_seconds", "summary",
                   "Per-phase latency of traced jobs, by priority.",
                   phase_samples)
        store = self._store
        for name, help_text, value in (
                ("writes_total", "Report-store rewrites, failed ones "
                 "included.", store.writes if store else 0),
                ("write_seconds_total", "Seconds spent rendering and "
                 "writing the report store.",
                 round(store.write_seconds, 6) if store else 0.0),
                ("rows_encoded_total", "Report-store rows encoded by "
                 "rewrites (new or re-bucketed rows).",
                 self._view.rows_encoded)):
            families.append((f"res_store_{name}", "counter", help_text,
                             [f"res_store_{name} {value}"]))
        lines = []
        for name, kind, help_text, samples in sorted(families):
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            lines.extend(samples)
        return "\n".join(lines) + "\n"

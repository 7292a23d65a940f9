"""Worker executors: the daemon's drive engine, out of the GIL.

Cold verdicts are pure Python compute, and one GIL means one core, so
each daemon worker slot owns a :class:`ProcessExecutor`: a forked
worker *process* that holds the warm
:class:`~repro.core.triage_service.StreamingTriage` session.

The daemon's self-healing contract survives the process boundary
unchanged because the *proxy thread* (the daemon-side half of each
worker slot) still runs the PR 6 claim/release protocol:

* **claim tokens** — claimed in the daemon before dispatch; a stale
  settle (watchdog reaped the drive meanwhile) is discarded exactly
  as before.
* **crash retry / quarantine** — a worker process dying mid-drive
  (SIGKILL, OOM, injected ``worker.task`` crash) surfaces as
  :class:`WorkerProcessDied` on the proxy's pipe; the daemon counts a
  worker loss against the job and requeues or quarantines it.
* **watchdog** — a hung drive is now *killable*: the daemon SIGKILLs
  the worker process, the proxy unblocks on pipe EOF, and a fresh
  process replaces it.  (Threads could only be abandoned.)
* **fault injection** — ``worker.task`` is decided daemon-side before
  dispatch, so injected worker deaths are observable in the daemon's
  metrics; sites inside the drive (``solver.call``) fire in the child,
  coordinated through the injector's shared cross-process counters.

Wire protocol (one duplex pipe per worker, pickled tuples):

    parent -> child   ("task", program, report, fingerprint, bypass,
                       trace)
    child  -> parent  ("ok", TriagedReport)
                      | ("ok", TriagedReport, phases)   traced task
                      | ("error", "Type: msg")
    parent -> child   ("stop",)

``trace`` is the job's trace id (None when the flight recorder is not
sampling — the overwhelmingly common case); a traced task's reply
carries the drive's per-phase timings as plain
``(phase, seconds, attrs)`` tuples, which the proxy exposes on
:attr:`last_phases` for the daemon to mint spans from.  Both pipe
ends run the same code image (fork), so the tuple extension needs no
version negotiation.

A child that dies mid-task closes the pipe; the proxy sees
EOF/EPIPE and reports :class:`WorkerProcessDied`.  Anything the child
can serialize an answer for is an ``("error", ...)`` reply instead —
those are drive errors, retried by the daemon's normal attempt
budget, not worker losses.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
from typing import Optional

from repro import faultinject
from repro.core.triage import BugReport
from repro.core.triage_service import (
    ProgramSpec,
    StreamingTriage,
    TriagedReport,
    TriageServiceConfig,
)


#: parent-side pipe ends of every live worker, registered before the
#: fork so each child can close the copies it inherits.  Without this,
#: a child holds (a) its own worker's parent end and (b) the parent
#: ends of every earlier-forked sibling — so no pipe ever reaches EOF
#: from the child's side, and a SIGKILLed daemon leaves its workers
#: parked in ``recv()`` forever (each pinning a warm triage session;
#: a few chaos runs of that starves the whole box).
_parent_ends: set = set()
_parent_ends_lock = threading.Lock()


def _shed_inherited_parent_ends() -> None:
    """First act of every forked child: drop the parent-side pipe ends
    it inherited.  Runs single-threaded (fresh fork), so the registry
    is read without its lock — the lock may have been held by another
    parent thread at fork time and would deadlock here."""
    for conn in list(_parent_ends):
        try:
            conn.close()
        except OSError:
            pass
    _parent_ends.clear()


def _close_inherited_fds(keep: int) -> None:
    """Second act: close every other inherited descriptor (std streams
    and this worker's own pipe excepted).  The blanket sweep is the
    point — a fork can race any parent thread mid-I/O, and an
    inherited journal / fault-state / result-cache descriptor whose
    ``flock`` was held at fork time stays locked until *this child*
    closes its copy (the lock lives on the shared open file
    description, not the parent's fd).  A worker that parks on its
    pipe while holding such a lock wedges every later locker in every
    process.  The daemon's listening socket is swept up too, so a
    worker that outlives a killed daemon can never squat on its port."""
    os.closerange(3, keep)
    os.closerange(keep + 1, 1 << 20)


class WorkerProcessDied(RuntimeError):
    """The worker process vanished mid-drive (killed, crashed, OOMed).
    The daemon treats it like PR 6's injected worker death: count a
    worker loss against the job, requeue or quarantine, respawn."""


class TriageTaskError(RuntimeError):
    """A drive raised inside the worker; ``str()`` carries the child's
    ``"ExcType: message"`` rendering for the retry/quarantine
    diagnostics."""


def _child_main(conn, config: TriageServiceConfig) -> None:
    """Worker-process entry: a warm StreamingTriage session answering
    tasks until the pipe closes.  Forked from a daemon thread, so the
    first act is shedding inherited parent state we must not share:
    the injector's in-process lock (another daemon thread may have
    held it at fork time) gets replaced; the session and cache chain
    are built fresh — only the flock-guarded files are shared."""
    _shed_inherited_parent_ends()
    _close_inherited_fds(conn.fileno())
    fi = faultinject.active()
    if fi is not None:
        fi._lock = threading.Lock()
    session = StreamingTriage(config)
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError, KeyboardInterrupt):
                break
            if not msg or msg[0] == "stop":
                break
            __, program, report, fingerprint, bypass, trace = msg
            try:
                triaged = session.triage_one(
                    program, report, fingerprint=fingerprint,
                    bypass_cache=bypass, trace=trace)
            except KeyboardInterrupt:
                break
            except faultinject.WorkerCrashError:
                # An injected in-drive death must be a *real* death —
                # the daemon's pipe-EOF path is the thing under test.
                os._exit(1)
            except BaseException as exc:  # noqa: BLE001 - child boundary
                try:
                    conn.send(("error", f"{type(exc).__name__}: {exc}"))
                except (OSError, ValueError):
                    break
                continue
            try:
                if trace is not None:
                    conn.send(("ok", triaged,
                               list(session.last_phases)))
                else:
                    conn.send(("ok", triaged))
            except (OSError, ValueError):
                break
            # After the reply, not before: solver snapshots are a
            # warm-start optimization, never worth a verdict's latency.
            session.flush_solver_caches()
    finally:
        try:
            session.flush_solver_caches()
        except Exception:  # noqa: BLE001 - exiting anyway
            pass
        try:
            conn.close()
        except OSError:
            pass


class ProcessExecutor:
    """One forked worker process behind a duplex pipe."""

    def __init__(self, config: TriageServiceConfig):
        ctx = mp.get_context("fork")
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self._conn = parent_conn
        with _parent_ends_lock:
            _parent_ends.add(parent_conn)
        self._proc = ctx.Process(target=_child_main,
                                 args=(child_conn, config),
                                 daemon=True)
        self._proc.start()
        child_conn.close()  # the child's end lives in the child only
        #: per-phase timings of the last traced task, relayed from the
        #: child's reply; [] for untraced tasks
        self.last_phases: list = []

    @property
    def alive(self) -> bool:
        return self._proc.is_alive()

    @property
    def pid(self) -> Optional[int]:
        return self._proc.pid

    def run(self, program: ProgramSpec, report: BugReport,
            fingerprint: Optional[str] = None,
            bypass_cache: bool = False,
            trace: Optional[str] = None) -> TriagedReport:
        self.last_phases = []
        try:
            self._conn.send(("task", program, report, fingerprint,
                             bypass_cache, trace))
            reply = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerProcessDied(
                f"worker process pid={self._proc.pid} died mid-drive "
                f"({type(exc).__name__})") from exc
        if not isinstance(reply, tuple) or len(reply) not in (2, 3):
            raise WorkerProcessDied(
                f"worker process pid={self._proc.pid} sent a garbled "
                f"reply")
        status, payload = reply[0], reply[1]
        if status == "ok":
            if len(reply) == 3 and isinstance(reply[2], list):
                self.last_phases = reply[2]
            return payload
        raise TriageTaskError(str(payload))

    def _unregister(self) -> None:
        with _parent_ends_lock:
            _parent_ends.discard(self._conn)

    def kill(self) -> None:
        """SIGKILL the worker (watchdog reap, injected death).  The
        proxy's pending ``recv`` unblocks with EOF."""
        self._unregister()
        try:
            self._proc.kill()
        except (OSError, AttributeError):
            pass

    def close(self) -> None:
        """Polite stop, escalating to SIGKILL: shutdown must never
        hang behind a wedged child."""
        self._unregister()
        try:
            self._conn.send(("stop",))
        except (OSError, ValueError):
            pass
        try:
            self._conn.close()
        except OSError:
            pass
        self._proc.join(timeout=5.0)
        if self._proc.is_alive():
            self.kill()
            self._proc.join(timeout=1.0)

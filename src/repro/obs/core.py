"""Flight recorder: zero-dependency tracing for the triage fleet.

The daemon answers *what* happened (verdicts, counters); this module
answers *where the time went*.  Every sampled job carries one trace id
from ``res submit`` through admission, queue wait, worker claim, the
drive's internal phases, to settle — across the workerpool pipe, across
fleet 307 redirects (the :data:`TRACE_HEADER` HTTP header), and across
SIGKILL (the trace id rides the job journal, and span ids are
*deterministic*, so a replayed attempt re-emits the same span rather
than a duplicate).

Design constraints, in order (same contract as ``repro.faultinject``):

* **Zero cost when sampling is off.**  Every instrumented call site
  does one module-global check (:func:`active` returning ``None``) and
  nothing else.  The environment is read once, lazily, on the first
  call; a daemon that never sets ``RES_TRACE_SAMPLE`` pays one global
  read per site.
* **Deterministic identity.**  A span's id is a hash of
  ``(trace id, span name, qualifier)`` — no RNG, no clock, no process
  state.  Two processes (or two lives of one process, either side of a
  SIGKILL) that emit "the same" span produce the same id, so readers
  dedup by id instead of guessing.
* **Bounded on disk.**  Spans land in a per-node JSONL ring
  (:class:`SpanRing`), a non-durable :class:`repro.ioutil.SegmentedLog`
  (the journal's log, without the fsync and the fault site) whose
  rotation also prunes: the ring keeps at most ``max_segments`` closed
  segments and deletes the oldest, so tracing a long-lived daemon
  costs a fixed disk budget, not an unbounded log.  Reads skip damaged
  lines silently.

The span model (one JSON object per line)::

    {"trace": <trace id>, "span": <16-hex id>, "parent": <id|null>,
     "name": "attempt-1", "start": <epoch s>, "dur": <s>,
     "node": "n1", "attrs": {...}}

Span names within one job's trace: the root ``job`` span
(submit → settle), ``admit`` / ``redirect`` / ``dedup`` for intake,
``queue-N`` (wait before claim N), ``attempt-N`` (claim N → settle),
and the drive phases as children of their attempt: ``compile-N``,
``enumerate-N``, ``execute-N``, ``replay-N``, ``bucket-N``, or
``warm-hit-N`` when the result cache short-circuited the drive.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro import ioutil

#: environment variable holding the sampling rate — a float in
#: ``[0, 1]``; unset, empty, or 0 disables tracing entirely
SAMPLE_ENV = "RES_TRACE_SAMPLE"

#: HTTP header that carries the trace id across fleet hops (client
#: submit, 307 re-POSTs, peer trace stitching)
TRACE_HEADER = "X-Res-Trace"


def new_trace_id() -> str:
    """A fresh trace id for one logical submission (the client mints
    it once and reuses it across 307 re-POSTs and submit retries, so
    every hop of one report correlates)."""
    return uuid.uuid4().hex


def span_id(trace_id: str, name: str, qualifier: str = "") -> str:
    """Deterministic span identity: hash of (trace, name, qualifier).

    No RNG and no clock on purpose — a SIGKILL'd daemon whose journal
    replay re-runs a job emits the *same* span ids the first life did,
    so the ring converges instead of accumulating orphan duplicates.
    ``qualifier`` disambiguates same-named spans from different fleet
    nodes (e.g. the redirect span of each non-owner hop).
    """
    raw = f"{trace_id}:{name}:{qualifier}".encode()
    return hashlib.sha256(raw).hexdigest()[:16]


def make_span(trace_id: str, name: str, start: float, duration: float,
              parent: Optional[str] = None, node: str = "",
              attrs: Optional[dict] = None,
              qualifier: str = "") -> dict:
    """One finished span, ready for the ring (plain JSON types only —
    spans also cross the workerpool pickle pipe)."""
    span = {
        "trace": trace_id,
        "span": span_id(trace_id, name, qualifier),
        "parent": parent,
        "name": name,
        "start": round(float(start), 6),
        "dur": round(max(0.0, float(duration)), 6),
        "node": node,
    }
    if attrs:
        span["attrs"] = attrs
    return span


class Tracer:
    """One activated sampling decision.

    Sampling is per *trace*, not per span: a deterministic hash draw on
    the trace id against ``rate``, so every node and every worker of a
    fleet agrees on whether a given submission is traced without any
    coordination — the id itself is the coin flip.
    """

    def __init__(self, rate: float = 1.0):
        self.rate = max(0.0, min(1.0, float(rate)))

    def sampled(self, trace_id: Optional[str]) -> bool:
        if not trace_id or self.rate <= 0.0:
            return False
        if self.rate >= 1.0:
            return True
        digest = hashlib.sha256(trace_id.encode()).digest()
        draw = int.from_bytes(digest[:8], "big") / 2.0 ** 64
        return draw < self.rate


class SpanRing:
    """Bounded per-node JSONL span sink.

    Rotation is the job journal's (active file rotated to a closed
    ``.seg-NNNNNN`` above ``rotate_bytes``) with one extra rule the
    journal must not have: segments beyond ``max_segments`` are
    *deleted*, oldest first.  The journal is a durability record; the
    ring is telemetry — losing the oldest spans is the design, losing
    an acknowledged job never is.  Appends are best-effort and swallow
    ``OSError`` for the same reason: tracing must never be a failure
    source for the daemon.
    """

    def __init__(self, path, rotate_bytes: int = 1 << 20,
                 max_segments: int = 8):
        #: not durable: no fsync, and outside the append fault site
        self.log = ioutil.SegmentedLog(path, durable=False)
        self.path = self.log.path
        self.rotate_bytes = int(rotate_bytes)
        self.max_segments = max(1, int(max_segments))

    def append(self, spans: List[dict]) -> None:
        """Append finished spans (one JSON line each).  No fsync on
        purpose — a SIGKILL may tear the final line, and replay's
        deterministic span ids re-emit whatever the tear lost.  The
        next append heals the tear, so the first span of the new life
        is not glued onto it."""
        if not spans:
            return
        try:
            self.log.append(spans)
        except OSError:
            return
        if self.log.rotate(self.rotate_bytes) is None:
            return
        for old in self.log.segments()[:-self.max_segments]:
            try:
                old.unlink()
            except OSError:
                break

    def read(self, trace_id: Optional[str] = None) -> List[dict]:
        """Every span in the ring, oldest segment first, optionally
        filtered to one trace.  Duplicate span ids keep the *last*
        write — a journal replay legitimately re-emits a span under
        the same deterministic id, and the re-emission is the truth
        of the attempt that actually settled."""
        by_id: Dict[str, dict] = {}
        for path in self.log.files():
            try:
                spans = self.log.read(path).rows
            except OSError:
                continue
            for span in spans:
                if trace_id is not None and span.get("trace") != trace_id:
                    continue
                sid = span.get("span")
                if isinstance(sid, str):
                    by_id[sid] = span
        return sorted(by_id.values(),
                      key=lambda s: (s.get("start") or 0.0,
                                     s.get("name") or ""))


# ---------------------------------------------------------------------------
# Activation (module-global; one check per instrumented call)
# ---------------------------------------------------------------------------

_UNRESOLVED = object()
_tracer: object = _UNRESOLVED
_tracer_lock = threading.Lock()


def _from_env() -> Optional[Tracer]:
    raw = os.environ.get(SAMPLE_ENV)
    if not raw:
        return None
    try:
        rate = float(raw)
    except ValueError:
        return None
    return Tracer(rate) if rate > 0.0 else None


def active() -> Optional[Tracer]:
    """The process's tracer, or None.  The environment is resolved
    once, on first call — after that this is a single global read, the
    entire sampling-off cost at every instrumented site."""
    global _tracer
    if _tracer is _UNRESOLVED:
        with _tracer_lock:
            if _tracer is _UNRESOLVED:
                _tracer = _from_env()
    return _tracer  # type: ignore[return-value]


def enabled() -> bool:
    return active() is not None


def activate(rate: float = 1.0) -> Tracer:
    """Programmatic activation (tests).  Replaces any current tracer;
    forked workers inherit the resolved state through the fork."""
    global _tracer
    tracer = Tracer(rate)
    with _tracer_lock:
        _tracer = tracer
    return tracer


def deactivate() -> None:
    global _tracer
    with _tracer_lock:
        _tracer = None


@contextmanager
def sampling(rate: float = 1.0) -> Iterator[Tracer]:
    """``with sampling() as tracer:`` — activate for the block only."""
    tracer = activate(rate)
    try:
        yield tracer
    finally:
        deactivate()


def now() -> float:
    return time.time()

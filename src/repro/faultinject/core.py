"""Deterministic, seedable fault injection for the intake stack.

The paper's premise is that production failures are inevitable; this
module makes them *schedulable*, so the self-healing machinery in the
daemon (retry/backoff, quarantine, watchdog reaping, degraded mode)
can be exercised deterministically in tests and hammered with
randomized schedules in the chaos suite.

Design constraints, in order:

* **Zero cost when disabled.**  Every instrumented call site does one
  module-global check (``active()`` returning ``None``) and nothing
  else.  No environment reads, no RNG draws, no logging on the hot
  path of a production daemon.
* **Deterministic.**  A :class:`FaultPlan` carries one seed; each site
  gets its own ``random.Random`` derived from ``(seed, site)``, so
  adding instrumentation to one site never perturbs the schedule of
  another, and replaying the same plan over the same call sequence
  injects the same faults.
* **Reproducible.**  Every injected fault is appended to a JSONL
  fault log (``RES_FAULT_LOG``) — a failing chaos run dumps exactly
  which faults fired, at which call index, against which path.

Activation is either programmatic (:func:`activate` /
:func:`injected`, used by tests in-process) or via environment for
subprocess daemons: ``RES_FAULT_SPEC`` holds the plan as inline JSON
(or a path to a JSON file), ``RES_FAULT_LOG`` the fault-log path.
The environment is read once, lazily, on the first ``active()`` call.

A plan is ``{"seed": int, "sites": {site: rule, ...}}`` where a rule
is ``{"prob": float, "at": [call indices], "kinds": [...],
"max": int?, "path_contains": str?, "delay": s, "hang": s}``.
Instrumented sites and the kinds they honor:

========================  =============================================
site                      kinds
========================  =============================================
``ioutil.append_line``    ``enospc`` (fail before writing), ``torn``
                          (write a prefix, then fail — the crash-mid-
                          append case), ``fsync`` (data written, fsync
                          "fails"); decided once per append to a
                          durable ``SegmentedLog`` (the job journal,
                          the result cache), never for the span ring
``ioutil.atomic_write``   ``enospc``, ``interrupt`` (die between the
                          temp-file write and the rename)
``worker.task``           ``crash`` (:class:`WorkerCrashError` — the
                          worker thread dies mid-job)
``solver.call``           ``error``, ``delay``, ``hang`` (cooperative
                          sleep long enough to trip the watchdog)
``http.body``             ``truncate``, ``bitflip``, ``garbage``
                          (corrupt-on-the-wire submissions)
========================  =============================================
"""

from __future__ import annotations

import errno
import fcntl
import hashlib
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

import random

#: environment variable holding the fault plan (inline JSON or a path)
SPEC_ENV = "RES_FAULT_SPEC"
#: environment variable holding the fault-log path (JSONL, appended)
LOG_ENV = "RES_FAULT_LOG"


class InjectedFaultError(RuntimeError):
    """A generic injected failure (the ``error`` kind)."""


class WorkerCrashError(InjectedFaultError):
    """Injected worker death: the worker thread must not survive the
    job that raised this.  The daemon treats it exactly like a worker
    process dying mid-drive — bookkeeping first, then the thread is
    allowed to die and the monitor respawns a replacement."""


@dataclass
class SiteRule:
    """When and what to inject at one instrumented site."""

    #: independent per-call probability of injecting
    prob: float = 0.0
    #: explicit (0-based) call indices that always inject
    at: Tuple[int, ...] = ()
    #: fault kinds to draw from (uniformly) when a call fires
    kinds: Tuple[str, ...] = ("error",)
    #: cap on total injections at this site (None = unbounded)
    max: Optional[int] = None
    #: only calls whose path contains this substring are considered
    path_contains: Optional[str] = None
    #: sleep for the ``delay`` kind (seconds)
    delay: float = 0.05
    #: sleep for the ``hang`` kind (seconds; cooperative, chunked)
    hang: float = 5.0

    @classmethod
    def from_obj(cls, obj: dict) -> "SiteRule":
        return cls(
            prob=float(obj.get("prob", 0.0)),
            at=tuple(int(i) for i in obj.get("at", ())),
            kinds=tuple(str(k) for k in obj.get("kinds", ("error",))),
            max=None if obj.get("max") is None else int(obj["max"]),
            path_contains=obj.get("path_contains"),
            delay=float(obj.get("delay", 0.05)),
            hang=float(obj.get("hang", 5.0)),
        )


@dataclass
class _SiteState:
    rng: random.Random
    calls: int = 0
    injected: int = 0


class FaultInjector:
    """One activated fault plan; thread-safe (daemon workers and HTTP
    handler threads hit sites concurrently)."""

    def __init__(self, plan: dict, log_path: Optional[str] = None):
        self.seed = int(plan.get("seed", 0))
        self.rules: Dict[str, SiteRule] = {
            str(site): SiteRule.from_obj(rule or {})
            for site, rule in (plan.get("sites") or {}).items()
        }
        self.log_path = Path(log_path) if log_path else None
        # Optional cross-process counter file: when set (daemon worker
        # pools), per-site (calls, injected) live in a flock-guarded
        # JSON file shared by the daemon and its forked workers, so a
        # respawned worker continues the schedule instead of replaying
        # call index 0 — ``{"at": [0], "max": 1}`` fires once per plan,
        # not once per process.
        self.state_path: Optional[Path] = (
            Path(str(plan["state_path"])) if plan.get("state_path") else None)
        self._lock = threading.Lock()
        # Per-site RNG seeded from (seed, site): schedules at different
        # sites are independent, so instrumenting a new site never
        # shifts an existing plan's faults.
        self._states: Dict[str, _SiteState] = {
            site: _SiteState(rng=random.Random(f"{self.seed}:{site}"))
            for site in self.rules
        }
        self.injected_total = 0
        self.by_site: Dict[str, int] = {site: 0 for site in self.rules}
        if self.log_path is not None:
            self._log({"event": "plan", "seed": self.seed,
                       "sites": sorted(self.rules)})

    # -- decision ------------------------------------------------------------

    def decide(self, site: str, path: Optional[object] = None
               ) -> Optional[str]:
        """Should a fault fire at this call?  Returns the kind or None.

        Call counting happens after the path filter, so ``at`` indices
        address the matching calls only (e.g. "the 3rd append to the
        job journal", regardless of interleaved cache appends).
        """
        rule = self.rules.get(site)
        if rule is None:
            return None
        with self._lock:
            if rule.path_contains is not None and (
                    path is None or rule.path_contains not in str(path)):
                return None
            if self.state_path is not None:
                decided = self._shared_step(site, rule)
                if decided is None:
                    return None
                index, kind = decided
            else:
                state = self._states[site]
                index = state.calls
                state.calls += 1
                fire = index in rule.at or (
                    rule.prob > 0.0 and state.rng.random() < rule.prob)
                if not fire:
                    return None
                if rule.max is not None and state.injected >= rule.max:
                    return None
                state.injected += 1
                kind = rule.kinds[0] if len(rule.kinds) == 1 \
                    else state.rng.choice(rule.kinds)
            self.injected_total += 1
            self.by_site[site] = self.by_site.get(site, 0) + 1
        self._log({"event": "fault", "site": site, "kind": kind,
                   "call": index,
                   "path": str(path) if path is not None else None,
                   "t": round(time.time(), 3)})
        return kind

    # -- shared (cross-process) counters -------------------------------------

    def share_state(self, path) -> None:
        """Move this injector's per-site counters into a flock-guarded
        file so forked worker processes and the daemon advance one
        schedule together.  Draws become hash-derived from
        ``(seed, site, call-index)`` — same independence guarantees,
        but any process can compute call N's draw without replaying
        calls 0..N-1 through a sequential RNG."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            self.state_path = path

    def _shared_step(self, site: str, rule: SiteRule
                     ) -> Optional[Tuple[int, str]]:
        """One call-counting + fire decision against the shared file.
        Returns ``(call index, kind)`` when a fault fires, else None.
        Falls back to the in-memory state on any filesystem error —
        the injector must never itself be a failure source."""
        try:
            with self._locked_state() as counters:
                calls, injected = counters.get(site, [0, 0])
                index = int(calls)
                counters[site] = [index + 1, int(injected)]
                digest = hashlib.sha256(
                    f"{self.seed}:{site}:{index}".encode()).digest()
                draw = int.from_bytes(digest[:8], "big") / 2.0 ** 64
                fire = index in rule.at or (
                    rule.prob > 0.0 and draw < rule.prob)
                if not fire:
                    return None
                if rule.max is not None and int(injected) >= rule.max:
                    return None
                counters[site] = [index + 1, int(injected) + 1]
                kind = rule.kinds[0] if len(rule.kinds) == 1 \
                    else rule.kinds[int.from_bytes(digest[8:12], "big")
                                    % len(rule.kinds)]
                return index, kind
        except OSError:
            state = self._states[site]
            index = state.calls
            state.calls += 1
            if index not in rule.at:
                return None
            if rule.max is not None and state.injected >= rule.max:
                return None
            state.injected += 1
            return index, rule.kinds[0]

    @contextmanager
    def _locked_state(self) -> Iterator[dict]:
        """Exclusive read-modify-write of the shared counter file.
        Raw ``os`` I/O on purpose: routing through ioutil would let the
        injector inject faults into its own bookkeeping."""
        fd = os.open(str(self.state_path),
                     os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            raw = b""
            while True:
                chunk = os.read(fd, 65536)
                if not chunk:
                    break
                raw += chunk
            try:
                counters = json.loads(raw.decode()) if raw.strip() else {}
            except (ValueError, UnicodeDecodeError):
                counters = {}
            yield counters
            payload = json.dumps(counters, sort_keys=True).encode()
            os.lseek(fd, 0, os.SEEK_SET)
            os.ftruncate(fd, 0)
            os.write(fd, payload)
        finally:
            os.close(fd)  # releases the flock

    def check(self, site: str) -> None:
        """Decide-and-act for execution sites (``worker.task``,
        ``solver.call``): raise or sleep according to the drawn kind."""
        kind = self.decide(site)
        if kind is None:
            return
        rule = self.rules[site]
        if kind == "crash":
            raise WorkerCrashError(f"injected worker death at {site}")
        if kind == "error":
            raise InjectedFaultError(f"injected fault at {site}")
        if kind == "enospc":
            raise OSError(errno.ENOSPC,
                          f"injected ENOSPC at {site}")
        if kind == "delay":
            time.sleep(rule.delay)
            return
        if kind == "hang":
            # Cooperative hang: sleeps in small chunks so an abandoned
            # worker thread parks cheaply instead of pinning a core,
            # and test teardown is never held hostage by one long sleep.
            deadline = time.monotonic() + rule.hang
            while time.monotonic() < deadline:
                time.sleep(min(0.05, deadline - time.monotonic()))
            return
        raise InjectedFaultError(f"injected fault ({kind}) at {site}")

    def corrupt(self, site: str, data: bytes) -> bytes:
        """Decide-and-act for wire sites: return ``data``, possibly
        mutated (truncated / bit-flipped / prefixed with garbage)."""
        kind = self.decide(site, path=f"<{len(data)} bytes>")
        if kind is None or not data:
            return data
        with self._lock:
            rng = self._states[site].rng
            if kind == "truncate":
                return data[:rng.randrange(len(data))]
            if kind == "bitflip":
                offset = rng.randrange(len(data))
                mutated = bytearray(data)
                mutated[offset] ^= 1 << rng.randrange(8)
                return bytes(mutated)
            if kind == "garbage":
                return bytes(rng.randrange(256)
                             for _ in range(16)) + data
        return data

    # -- reproduction --------------------------------------------------------

    def _log(self, row: dict) -> None:
        if self.log_path is None:
            return
        try:
            self.log_path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.log_path, "a") as handle:
                handle.write(json.dumps(row, sort_keys=True) + "\n")
        except OSError:
            pass  # the log is a reproduction aid, never a failure source

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return dict(self.by_site, total=self.injected_total)

    def shared_injected_total(self) -> Optional[int]:
        """Fleet-wide injected count from the shared state file, or
        None when not sharing (or the file is unreadable).  Lockless
        read on purpose — a torn read just falls back to local."""
        if self.state_path is None:
            return None
        try:
            raw = self.state_path.read_text()
            counters = json.loads(raw) if raw.strip() else {}
            return sum(int(pair[1]) for pair in counters.values())
        except (OSError, ValueError, IndexError, TypeError):
            return None


# ---------------------------------------------------------------------------
# Activation (module-global; one check per instrumented call)
# ---------------------------------------------------------------------------

_UNRESOLVED = object()
_injector: object = _UNRESOLVED
_injector_lock = threading.Lock()


def _from_env() -> Optional[FaultInjector]:
    spec = os.environ.get(SPEC_ENV)
    if not spec:
        return None
    text = spec if spec.lstrip().startswith("{") \
        else Path(spec).read_text()
    return FaultInjector(json.loads(text),
                         log_path=os.environ.get(LOG_ENV))


def active() -> Optional[FaultInjector]:
    """The process's injector, or None.  The environment is resolved
    once, on first call — after that this is a single global read, the
    entire disabled-mode cost at every instrumented site."""
    global _injector
    if _injector is _UNRESOLVED:
        with _injector_lock:
            if _injector is _UNRESOLVED:
                _injector = _from_env()
    return _injector  # type: ignore[return-value]


def activate(plan: dict, log_path: Optional[str] = None) -> FaultInjector:
    """Programmatic activation (tests).  Replaces any current plan."""
    global _injector
    injector = FaultInjector(plan, log_path=log_path)
    with _injector_lock:
        _injector = injector
    return injector


def deactivate() -> None:
    global _injector
    with _injector_lock:
        _injector = None


@contextmanager
def injected(plan: dict,
             log_path: Optional[str] = None) -> Iterator[FaultInjector]:
    """``with injected({...}) as fi:`` — activate for the block only."""
    injector = activate(plan, log_path=log_path)
    try:
        yield injector
    finally:
        deactivate()


def injected_total() -> int:
    """Total faults injected so far (0 when disabled).  With a shared
    counter file the total spans every participating process — faults
    fired inside forked workers count in the daemon's metrics."""
    injector = active()
    if injector is None:
        return 0
    shared = injector.shared_injected_total()
    return shared if shared is not None else injector.injected_total


def share_state(path) -> None:
    """Adopt a shared cross-process counter file for the active plan
    (no-op when injection is off or a state file is already set).
    Called by the daemon before it forks its worker pool; the children
    inherit ``state_path`` through the fork."""
    injector = active()
    if injector is not None and injector.state_path is None:
        injector.share_state(path)

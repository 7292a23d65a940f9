"""Client helpers for the intake daemon (``res submit`` / ``res
status`` / ``res watch``).

Everything speaks the daemon's JSON API over stdlib ``urllib`` — no
dependencies — and raises :class:`ServiceClientError` (a
:class:`ReproError`) on transport or protocol failures so the CLI's
one-line-diagnostic contract holds for network problems too.

``watch_directory`` is the §3.1 deployment shim: point it at a
directory that crashing software drops coredumps into and it forwards
anything new to the daemon.  Two layouts are understood: a saved triage
corpus (``manifest.json`` — programs and labels ride along) and a flat
directory of coredump JSONs paired with one ``--source``/``--workload``
program.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.errors import ReproError


class ServiceClientError(ReproError):
    """Transport/protocol failure talking to the intake daemon."""


class ServiceUnreachableError(ServiceClientError):
    """The daemon itself cannot be reached (connection-level failure).

    Distinguished from per-submission failures so a long-running
    forwarder can keep skipping one bad coredump file but must stop
    (and report) when the whole service is down.
    """


class ServiceRetryableError(ServiceClientError):
    """The daemon answered but cannot take the submission right now
    (503 — spool disk trouble).  The submission itself is fine, so a
    retrying client treats this like a connection failure, not like a
    malformed file."""


#: submissions the daemon settled or accepted (anything else is an error)
_OK_STATUSES = (200, 202, 429)

#: owning-node redirect chain cap: a correct fleet answers in one hop
#: (submit node → owner); anything longer is a misconfigured ring.
_MAX_REDIRECT_HOPS = 3


class FleetTargets:
    """Round-robin rotation over fleet node base URLs.

    ``next_order()`` returns every URL starting at the rotation
    cursor, then advances the cursor — so consecutive submissions
    spread their *first* attempt across the fleet while keeping the
    remaining nodes as in-order failover candidates.
    """

    def __init__(self, urls: List[str]):
        seen: List[str] = []
        for url in urls:
            base = url.rstrip("/")
            if base and base not in seen:
                seen.append(base)
        if not seen:
            raise ServiceClientError("no daemon URL configured")
        self.urls = seen
        self._cursor = 0

    def next_order(self) -> List[str]:
        start = self._cursor % len(self.urls)
        self._cursor += 1
        return self.urls[start:] + self.urls[:start]


class RetryPolicy:
    """Jittered exponential backoff for daemon-side trouble.

    One policy instance carries the RNG and the knobs; ``delay(n)`` is
    the sleep before retry ``n`` (0-based): ``base * 2^n`` clamped to
    ``cap``, scaled by a uniform factor in [0.5, 1.0] so a fleet of
    forwarders that all saw the same daemon restart does not stampede
    back in lockstep.  A server-suggested floor (429 Retry-After) is
    honored by raising the window to it before jittering.
    """

    def __init__(self, max_retries: int = 5, backoff_base: float = 0.2,
                 backoff_cap: float = 10.0,
                 timeout: Optional[float] = None,
                 seed: Optional[int] = None):
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.timeout = timeout
        self.rng = random.Random(seed)

    def delay(self, retry: int, suggested: Optional[float] = None) -> float:
        window = self.backoff_base * (2 ** max(0, retry))
        if suggested is not None:
            window = max(window, float(suggested))
        window = min(self.backoff_cap, window)
        return window * (0.5 + 0.5 * self.rng.random())


def submit_with_retries(base_url: str, program: Dict[str, str],
                        coredump_json: str,
                        report_id: Optional[str] = None,
                        true_cause: Optional[str] = None,
                        force: bool = False,
                        policy: Optional[RetryPolicy] = None,
                        notify: Optional[Callable[[str, int, dict],
                                                  None]] = None
                        ) -> Tuple[int, dict]:
    """:func:`submit_report` under the retry contract of
    :func:`submit_fleet_with_retries`: a one-node fleet."""
    status, body, __ = submit_fleet_with_retries(
        FleetTargets([base_url]), program, coredump_json,
        report_id=report_id, true_cause=true_cause, force=force,
        policy=policy, notify=notify)
    return status, body


def submit_fleet_with_retries(targets: FleetTargets,
                              program: Dict[str, str],
                              coredump_json: str,
                              report_id: Optional[str] = None,
                              true_cause: Optional[str] = None,
                              force: bool = False,
                              policy: Optional[RetryPolicy] = None,
                              notify: Optional[Callable[[str, int, dict],
                                                        None]] = None
                              ) -> Tuple[int, dict, str]:
    """:func:`submit_fleet` that survives daemon restarts and
    transient refusals; returns ``(status, body, url)`` with the URL of
    the node that answered.

    Retries (with jittered exponential backoff, up to
    ``policy.max_retries`` and ``policy.timeout`` seconds overall) on:
    connection failures (the daemon is restarting — exactly when an
    unattended forwarder must not die), 503 (spool disk trouble), and
    429 (queue full, honoring the suggested Retry-After as the backoff
    floor).  A 400 is never retried: the submission itself is bad.
    Returns the final answer; exhausted retries re-raise the last
    transport error (or return the final 429)."""
    policy = policy or RetryPolicy()
    deadline = time.monotonic() + policy.timeout \
        if policy.timeout is not None else None

    def out_of_budget(retry: int) -> bool:
        if retry >= policy.max_retries:
            return True
        return deadline is not None and time.monotonic() >= deadline

    trace_id = obs.new_trace_id()  # one trace across every retry
    retry = 0
    while True:
        suggested = None
        try:
            status, body, url = submit_fleet(
                targets, program, coredump_json, report_id=report_id,
                true_cause=true_cause, force=force, trace_id=trace_id)
            if status != 429:
                return status, body, url
            if out_of_budget(retry):
                return status, body, url
            suggested = float(body.get("retry_after_seconds", 1.0))
        except (ServiceUnreachableError, ServiceRetryableError) as exc:
            if out_of_budget(retry):
                raise
            if notify is not None:
                notify("retry", 0, {"error": str(exc), "retry": retry})
        time.sleep(policy.delay(retry, suggested=suggested))
        retry += 1


def _request(url: str, method: str = "GET",
             payload: Optional[dict] = None,
             timeout: float = 30.0,
             trace_id: Optional[str] = None) -> Tuple[int, dict]:
    data = None
    headers = {"Accept": "application/json"}
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    if trace_id is not None:
        headers[obs.TRACE_HEADER] = trace_id
    try:
        request = urllib.request.Request(url, data=data, headers=headers,
                                         method=method)
    except ValueError as exc:
        raise ServiceClientError(f"invalid daemon URL {url}: {exc}") from exc
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(
                response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        try:
            body = json.loads(exc.read().decode("utf-8"))
        except (ValueError, OSError):
            body = {"error": f"HTTP {exc.code}"}
        return exc.code, body
    except urllib.error.URLError as exc:
        raise ServiceUnreachableError(
            f"cannot reach intake daemon at {url}: {exc.reason}") from exc
    except (OSError, ValueError) as exc:
        raise ServiceClientError(
            f"bad response from intake daemon at {url}: {exc}") from exc


def _submission_payload(program: Dict[str, str], coredump_json: str,
                        report_id: Optional[str],
                        true_cause: Optional[str],
                        force: bool) -> dict:
    try:
        core_obj = json.loads(coredump_json)
    except ValueError as exc:
        raise ServiceClientError(
            f"submission refused: coredump is not JSON: {exc}") from exc
    payload = {
        "program": program,
        "coredump": core_obj,
        "force": force,
    }
    if report_id is not None:
        payload["report_id"] = report_id
    if true_cause is not None:
        payload["true_cause"] = true_cause
    return payload


def _submit_payload(base_url: str, payload: dict,
                    timeout: float,
                    trace_id: Optional[str] = None
                    ) -> Tuple[int, dict, str]:
    """POST one submission, transparently following the fleet's
    owning-node redirect (307 + ``owner_url``).  Returns
    ``(status, body, url)`` where ``url`` is the node that actually
    answered — that is where ``GET /jobs/<id>`` should be polled.

    ``trace_id`` rides the ``X-Res-Trace`` header on *every* hop, so a
    redirected submission is one trace: the first node's redirect span
    and the owner's admission span share the id."""
    base = base_url.rstrip("/")
    hops = 0
    while True:
        status, body = _request(f"{base}/jobs", method="POST",
                                payload=payload, timeout=timeout,
                                trace_id=trace_id)
        if status == 307:
            owner_url = str(body.get("owner_url") or "").rstrip("/")
            if owner_url and owner_url != base \
                    and hops < _MAX_REDIRECT_HOPS:
                base = owner_url
                hops += 1
                continue
            raise ServiceClientError(
                f"submission refused (307): "
                f"{body.get('error', 'owned by another fleet node')} "
                f"(owner: {body.get('owner', 'unknown')})")
        break
    if status == 503:
        raise ServiceRetryableError(
            f"submission deferred (503): "
            f"{body.get('error', 'service unavailable')}")
    if status not in _OK_STATUSES:
        raise ServiceClientError(
            f"submission refused ({status}): "
            f"{body.get('error', 'unknown error')}")
    return status, body, base


def submit_report(base_url: str, program: Dict[str, str],
                  coredump_json: str,
                  report_id: Optional[str] = None,
                  true_cause: Optional[str] = None,
                  force: bool = False,
                  timeout: float = 30.0,
                  trace_id: Optional[str] = None) -> Tuple[int, dict]:
    """POST one submission; returns ``(http_status, payload)``.

    :func:`submit_fleet` over a one-node fleet: the owning-node
    redirect is followed transparently, so the caller sees the owner's
    answer no matter which node it picked.  A trace id is minted per
    call (or passed in) and sent as ``X-Res-Trace``; the daemon
    decides whether to record it."""
    status, body, __ = submit_fleet(
        FleetTargets([base_url]), program, coredump_json,
        report_id=report_id, true_cause=true_cause, force=force,
        timeout=timeout, trace_id=trace_id)
    return status, body


def submit_fleet(targets: FleetTargets, program: Dict[str, str],
                 coredump_json: str,
                 report_id: Optional[str] = None,
                 true_cause: Optional[str] = None,
                 force: bool = False,
                 timeout: float = 30.0,
                 trace_id: Optional[str] = None) -> Tuple[int, dict, str]:
    """Submit to a fleet: round-robin the first attempt across nodes,
    fail over to the remaining nodes when one is unreachable, and
    follow the owning-node redirect.  Returns ``(status, body, url)``
    with the URL of the node that answered.  One trace id covers every
    failover attempt — the submission is one logical event."""
    last_exc: Optional[ServiceUnreachableError] = None
    payload = _submission_payload(program, coredump_json, report_id,
                                  true_cause, force)
    if trace_id is None:
        trace_id = obs.new_trace_id()
    for base in targets.next_order():
        try:
            return _submit_payload(base, payload, timeout,
                                   trace_id=trace_id)
        except ServiceUnreachableError as exc:
            # This node is down — but any node can accept (or redirect)
            # a submission, so the fleet is only down when all are.
            last_exc = exc
    assert last_exc is not None
    raise last_exc


def get_job(base_url: str, job_id: str, timeout: float = 30.0) -> dict:
    base = base_url.rstrip("/")
    status, body = 404, {}
    for __ in range(_MAX_REDIRECT_HOPS + 1):
        status, body = _request(f"{base}/jobs/{job_id}",
                                timeout=timeout)
        owner_url = str(body.get("owner_url") or "").rstrip("/")
        if status == 307 and owner_url and owner_url != base:
            base = owner_url  # the minting node owns the live status
            continue
        break
    if status != 200:
        raise ServiceClientError(
            f"job {job_id}: {body.get('error', f'HTTP {status}')}")
    return body


def get_health(base_url: str, timeout: float = 30.0) -> dict:
    status, body = _request(f"{base_url.rstrip('/')}/healthz",
                            timeout=timeout)
    if status != 200:
        raise ServiceClientError(f"healthz returned HTTP {status}")
    return body


def get_quarantine(base_url: str, timeout: float = 30.0) -> list:
    """Every quarantined (poison) job with its diagnostics."""
    status, body = _request(f"{base_url.rstrip('/')}/quarantine",
                            timeout=timeout)
    if status != 200:
        raise ServiceClientError(f"quarantine returned HTTP {status}")
    return body.get("quarantined", [])


def get_buckets(base_url: str, timeout: float = 30.0) -> dict:
    """The refined bucket hierarchy over the daemon's settled history."""
    status, body = _request(f"{base_url.rstrip('/')}/buckets",
                            timeout=timeout)
    if status != 200:
        raise ServiceClientError(f"buckets returned HTTP {status}")
    return body


def get_trace(base_url: str, job_or_trace_id: str,
              timeout: float = 30.0) -> dict:
    """Flight-recorder spans for a job id (or raw trace id).  The
    answering node merges peer spans, so any fleet node can be asked."""
    status, body = _request(
        f"{base_url.rstrip('/')}/trace/{job_or_trace_id}",
        timeout=timeout)
    if status != 200:
        raise ServiceClientError(
            f"trace {job_or_trace_id}: "
            f"{body.get('error', f'HTTP {status}')}")
    return body


def get_metrics_text(base_url: str, timeout: float = 30.0) -> str:
    url = f"{base_url.rstrip('/')}/metrics"
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.read().decode("utf-8")
    except (urllib.error.URLError, OSError) as exc:
        raise ServiceUnreachableError(
            f"cannot reach intake daemon at {url}: {exc}") from exc


def wait_for_job(base_url: str, job_id: str, timeout: float = 120.0,
                 poll: float = 0.2) -> dict:
    """Poll until the job settles (done/failed) or ``timeout`` passes."""
    deadline = time.monotonic() + timeout
    while True:
        payload = get_job(base_url, job_id)
        if payload.get("state") in ("done", "failed", "quarantined"):
            return payload
        if time.monotonic() >= deadline:
            raise ServiceClientError(
                f"timed out after {timeout:.0f}s waiting for job {job_id} "
                f"(state: {payload.get('state')})")
        time.sleep(poll)


# ---------------------------------------------------------------------------
# Directory intake (res watch)
# ---------------------------------------------------------------------------

def _corpus_submissions(directory: Path,
                        skip: frozenset) -> List[dict]:
    """Submissions for a saved triage-corpus directory (manifest.json).

    Reads the manifest each scan but opens program/coredump files only
    for entries not in ``skip`` — a steady-state watch loop over an
    already-forwarded corpus must not re-read megabytes of coredumps
    every poll just to discard them.
    """
    manifest_path = directory / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text())
        sources: Dict[str, Dict[str, str]] = {}
        out = []
        for item in manifest["entries"]:
            marker = f"corpus:{item['report_id']}"
            if marker in skip:
                continue
            key = item["program"]
            try:
                if key not in sources:
                    meta = manifest["programs"][key]
                    sources[key] = {
                        "key": key,
                        "source": (directory / meta["file"]).read_text(),
                        "name": meta["name"],
                    }
                core_json = (directory / item["core"]).read_text()
            except OSError:
                # A member file vanished or is mid-write: skip it this
                # scan (unmarked, so a later scan retries) rather than
                # killing the forwarder.
                continue
            out.append({
                "marker": marker,
                "program": sources[key],
                "coredump_json": core_json,
                "report_id": item["report_id"],
                "true_cause": item["true_cause"],
            })
        return out
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ServiceClientError(
            f"unreadable corpus directory {directory}: {exc}") from exc


def _flat_submissions(directory: Path, program: Dict[str, str],
                      skip: frozenset) -> List[dict]:
    """Submissions for a flat directory of coredump JSON files."""
    out = []
    for path in sorted(directory.glob("*.json")):
        marker = f"file:{path.name}"
        if marker in skip:
            continue
        try:
            core_json = path.read_text()
        except OSError:
            continue  # rotated/mid-write file: retried next scan
        out.append({
            "marker": marker,
            "program": program,
            "coredump_json": core_json,
            "report_id": path.stem,
            "true_cause": None,
        })
    return out


def scan_directory(directory: str,
                   program: Optional[Dict[str, str]] = None,
                   skip: frozenset = frozenset()) -> List[dict]:
    """One intake scan: corpus layout when a manifest is present, flat
    coredump files otherwise (``program`` required for the latter).
    Entries whose marker is in ``skip`` are not even read."""
    root = Path(directory)
    if not root.is_dir():
        raise ServiceClientError(f"watch directory not found: {root}")
    if (root / "manifest.json").exists():
        return _corpus_submissions(root, skip)
    if program is None:
        raise ServiceClientError(
            f"{root} has no manifest.json; supply the program with "
            "--source or --workload")
    return _flat_submissions(root, program, skip)


def watch_directory(directory: str, base_url: str,
                    program: Optional[Dict[str, str]] = None,
                    interval: float = 2.0,
                    once: bool = False,
                    notify: Optional[Callable[[str, int, dict],
                                              None]] = None,
                    stop: Optional[Callable[[], bool]] = None,
                    policy: Optional[RetryPolicy] = None) -> int:
    """Forward new coredumps in ``directory`` to the daemon until
    ``stop()`` (or forever; exactly one scan with ``once``, even if the
    daemon pushes back).  Returns the number of submissions forwarded.
    A 429 leaves the file unmarked, so the next scan retries it after
    a jittered exponential backoff floored at the daemon's suggestion.

    One damaged file (truncated, mid-write, refused by the daemon)
    must not kill an unattended forwarder or block the valid coredumps
    behind it: per-item failures are reported through ``notify`` with
    status 0 and the scan continues; the file stays unmarked, so a
    dump that was simply still being written succeeds on a later scan.

    A daemon outage (connection refused — a restart, a deploy) is
    survived the same way: the forwarder backs off (jittered
    exponential under ``policy``) and re-tries, raising
    :class:`ServiceUnreachableError` only after
    ``policy.max_retries`` *consecutive* failed scans.
    """
    policy = policy or RetryPolicy(max_retries=10,
                                   backoff_base=max(interval, 0.1),
                                   backoff_cap=60.0)
    submitted: set = set()
    forwarded = 0
    throttle_streak = 0  # consecutive scans ended by 429
    down_streak = 0      # consecutive scans ended by unreachability
    while True:
        backoff = None
        try:
            items = scan_directory(directory, program,
                                   skip=frozenset(submitted))
        except ServiceClientError as exc:
            # Transient directory trouble (mid-write manifest, perms
            # flap): a long-running forwarder reports it and retries on
            # the next scan; a one-shot scan surfaces it.
            if once:
                raise
            if notify is not None:
                notify("scan", 0, {"error": str(exc)})
            items = []
        for item in items:
            try:
                status, body = submit_report(
                    base_url, item["program"], item["coredump_json"],
                    report_id=item["report_id"],
                    true_cause=item["true_cause"])
            except (ServiceUnreachableError, ServiceRetryableError) as exc:
                # The service (or its spool disk) is down, not the
                # file.  A daemon mid-restart must not kill the
                # forwarder: back off and rescan, give up only after
                # max_retries consecutive down scans (or immediately
                # in --once mode, whose caller owns the retry loop).
                down_streak += 1
                if once or down_streak > policy.max_retries:
                    raise
                if notify is not None:
                    notify("daemon", 0, {"error": str(exc),
                                         "retry": down_streak})
                backoff = policy.delay(down_streak - 1)
                break
            except ServiceClientError as exc:
                if notify is not None:
                    notify(item["marker"], 0, {"error": str(exc)})
                continue  # skip the damaged file, keep forwarding
            down_streak = 0
            if status == 429:
                # Queue full: stop this scan, retry after a jittered
                # exponential backoff floored at the daemon's honest
                # drain estimate (fixed backoff re-synchronizes every
                # forwarder onto the same retry tick).
                throttle_streak += 1
                backoff = policy.delay(
                    throttle_streak - 1,
                    suggested=float(body.get("retry_after_seconds",
                                             interval)))
                break
            throttle_streak = 0
            submitted.add(item["marker"])
            forwarded += 1
            if notify is not None:
                notify(item["marker"], status, body)
        if once:
            return forwarded
        if stop is not None and stop():
            return forwarded
        time.sleep(backoff if backoff is not None else interval)

"""Fault injection and the self-healing intake daemon.

Two layers of proof that no acknowledged job is ever lost:

* **unit** (unmarked, tier-1): each fault site and each self-healing
  mechanism in isolation — deterministic injector schedules, worker
  death → retry → verdict, poison-job quarantine (with journal
  persistence), watchdog reaping of hung drives, ENOSPC-safe
  journaling (503, never a corrupt journal), degraded-mode read-only
  dedup, malformed/corrupt-on-the-wire submissions, and client-side
  retry across daemon restarts.
* **chaos** (``@pytest.mark.chaos``, ``make chaos-smoke``): a live
  ``res serve`` subprocess hammered with a seeded random fault
  schedule *plus* SIGKILL, restarted twice, and then verified: every
  202-acknowledged job settles (verdict or quarantine), every settled
  verdict is semantically identical to a fault-free batch run, and the
  journal replays clean end to end.  A failing seed dumps its fault
  schedule, fault log, and journal tail for exact reproduction.
"""

import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

import repro
from repro import faultinject
from repro.faultinject import FaultInjector, WorkerCrashError
from repro.faultinject import core as faultinject_core
from repro.core.triage_service import TriageServiceConfig, triage_corpus
from repro.fuzz.triage_corpus import build_labeled_corpus
from repro.service import DaemonConfig, TriageDaemon, start_http_server
from repro.service.client import (
    RetryPolicy,
    ServiceClientError,
    get_job,
    submit_report,
    submit_with_retries,
    watch_directory,
)
from repro.service.jobs import JobJournal
from repro.workloads import FIGURE1_OVERFLOW

SRC_DIR = Path(repro.__file__).resolve().parents[1]

#: the chaos matrix: every seed must hold the no-lost-jobs invariant
CHAOS_SEEDS = (101, 202, 303, 404, 505)
#: one more seed, run with a journal that rotates every few rows so the
#: monitor compacts closed segments under the same faults
COMPACTING_SEED = 606


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    """Fault plans are process-global state; a test that died mid-plan
    must not inject faults into its neighbours."""
    yield
    faultinject.deactivate()


def _service_config(**kwargs):
    defaults = dict(max_depth=8, max_nodes=300)
    defaults.update(kwargs)
    return TriageServiceConfig(**defaults)


def _daemon(tmp_path, workers=1, store=False, **kwargs):
    service = _service_config(
        store_path=str(tmp_path / "daemon-store.json") if store else None)
    kwargs.setdefault("monitor_interval", 0.02)
    kwargs.setdefault("retry_backoff_base", 0.01)
    kwargs.setdefault("backoff_seed", 0)
    config = DaemonConfig(service=service,
                          spool_dir=str(tmp_path / "spool"),
                          workers=workers, **kwargs)
    return TriageDaemon(config)


def _figure1_submission():
    dump = FIGURE1_OVERFLOW.trigger()
    program = {"key": "figure1_overflow",
               "source": FIGURE1_OVERFLOW.source,
               "name": "figure1_overflow"}
    return program, dump.to_json()


# ---------------------------------------------------------------------------
# The injector itself: determinism, env activation, reproduction log
# ---------------------------------------------------------------------------

def test_injector_schedule_is_deterministic():
    plan = {"seed": 42, "sites": {"solver.call": {"prob": 0.3,
                                                  "kinds": ["error",
                                                            "delay"]}}}
    first = FaultInjector(plan)
    second = FaultInjector(plan)
    schedule = [first.decide("solver.call") for __ in range(200)]
    assert schedule == [second.decide("solver.call") for __ in range(200)]
    fired = [kind for kind in schedule if kind is not None]
    assert fired and set(fired) <= {"error", "delay"}
    assert first.counters()["total"] == len(fired)


def test_injector_sites_are_independent():
    """Instrumenting a new site must never shift an existing plan's
    schedule — per-site RNGs are derived from (seed, site)."""
    base = {"prob": 0.3, "kinds": ["error"]}
    alone = FaultInjector({"seed": 42, "sites": {"solver.call": base}})
    paired = FaultInjector({"seed": 42, "sites": {
        "solver.call": base,
        "worker.task": {"prob": 0.5, "kinds": ["crash"]}}})
    schedule = []
    for __ in range(200):
        paired.decide("worker.task")  # interleaved draws at another site
        schedule.append(paired.decide("solver.call"))
    assert schedule == [alone.decide("solver.call") for __ in range(200)]


def test_injector_max_caps_total_injections():
    fi = FaultInjector({"seed": 1, "sites": {"worker.task":
                                             {"prob": 1.0, "max": 3,
                                              "kinds": ["crash"]}}})
    fired = [fi.decide("worker.task") for __ in range(10)]
    assert fired.count("crash") == 3 and fired[3:] == [None] * 7


def test_env_activation_and_fault_log(tmp_path, monkeypatch):
    """The subprocess path: RES_FAULT_SPEC (file or inline JSON) +
    RES_FAULT_LOG, resolved once on first active() call."""
    spec = {"seed": 5, "sites": {"worker.task": {"prob": 1.0,
                                                 "kinds": ["crash"]}}}
    spec_path = tmp_path / "faults.json"
    spec_path.write_text(json.dumps(spec))
    log_path = tmp_path / "fault-log.jsonl"
    monkeypatch.setenv(faultinject.SPEC_ENV, str(spec_path))
    monkeypatch.setenv(faultinject.LOG_ENV, str(log_path))
    monkeypatch.setattr(faultinject_core, "_injector",
                        faultinject_core._UNRESOLVED)
    fi = faultinject.active()
    assert fi is not None and fi.seed == 5
    with pytest.raises(WorkerCrashError):
        fi.check("worker.task")
    rows = [json.loads(line)
            for line in log_path.read_text().splitlines()]
    assert rows[0]["event"] == "plan" and rows[0]["seed"] == 5
    assert rows[1]["event"] == "fault"
    assert rows[1]["site"] == "worker.task"
    assert rows[1]["kind"] == "crash" and rows[1]["call"] == 0
    # Inline-JSON form of the same variable.
    monkeypatch.setenv(faultinject.SPEC_ENV, json.dumps(spec))
    monkeypatch.delenv(faultinject.LOG_ENV)
    monkeypatch.setattr(faultinject_core, "_injector",
                        faultinject_core._UNRESOLVED)
    assert faultinject.active().rules["worker.task"].prob == 1.0


def test_disabled_injection_is_inert(tmp_path):
    """No plan → no faults, no counters, no metrics noise: the
    zero-cost-when-disabled contract the acceptance gate measures."""
    assert faultinject.active() is None
    assert faultinject.injected_total() == 0
    daemon = _daemon(tmp_path, workers=1)
    daemon.start()
    program, core = _figure1_submission()
    status, body = daemon.submit(program, core, report_id="calm")
    assert status == 202
    assert daemon.wait_idle(60)
    daemon.shutdown(drain=True)
    metrics = daemon.metrics_text()
    assert "res_intake_injected_faults_total 0" in metrics
    assert "res_intake_retries_total 0" in metrics
    assert "res_intake_quarantined_total 0" in metrics
    assert "res_intake_worker_restarts_total 0" in metrics
    assert "res_intake_degraded 0" in metrics
    assert daemon.job_payload(body["job_id"])["state"] == "done"


# ---------------------------------------------------------------------------
# Self-healing: crash-tolerant workers, quarantine, watchdog
# ---------------------------------------------------------------------------

def test_worker_crash_is_retried_to_verdict(tmp_path):
    """A worker dying mid-job costs one backoff, never the job: the
    monitor respawns the pool and the retry settles normally."""
    with faultinject.injected({"seed": 1, "sites": {
            "worker.task": {"at": [0], "kinds": ["crash"], "max": 1}}}):
        daemon = _daemon(tmp_path, workers=1)
        daemon.start()
        program, core = _figure1_submission()
        status, body = daemon.submit(program, core, report_id="bumpy")
        assert status == 202
        assert daemon.wait_idle(60)
        daemon.shutdown(drain=True)
        metrics = daemon.metrics_text()
        assert "res_intake_injected_faults_total 1" in metrics
    payload = daemon.job_payload(body["job_id"])
    assert payload["state"] == "done"
    assert payload["attempts"] == 2
    assert payload["worker_crashes"] == 1
    snapshot = daemon.metrics.snapshot()
    assert snapshot["retries_total"] == 1
    assert snapshot["worker_restarts_total"] >= 1


def test_traced_retry_records_every_attempt(tmp_path):
    """The flight recorder must not flatter a bumpy job: a traced job
    whose first worker died shows attempt-1 as a worker-crash AND
    attempt-2 as the settle — every attempt, not just the last."""
    from repro import obs

    with faultinject.injected({"seed": 1, "sites": {
            "worker.task": {"at": [0], "kinds": ["crash"], "max": 1}}}):
        obs.activate(1.0)
        try:
            daemon = _daemon(tmp_path, workers=1)
            daemon.start()
            program, core = _figure1_submission()
            status, body = daemon.submit(program, core,
                                         report_id="bumpy-traced")
            assert status == 202 and body.get("trace_id")
            assert daemon.wait_idle(60)
            daemon.shutdown(drain=True)
        finally:
            obs.deactivate()
    assert daemon.job_payload(body["job_id"])["attempts"] == 2
    spans = daemon.trace_payload(body["job_id"])["spans"]
    by_name = {span["name"]: span for span in spans}
    assert by_name["attempt-1"]["attrs"]["outcome"] == "worker-crash"
    assert "error" in by_name["attempt-1"]["attrs"]
    assert by_name["attempt-2"]["attrs"]["outcome"] == "ok"
    # Each attempt waited in the queue once: two queue spans.
    assert "queue-1" in by_name and "queue-2" in by_name
    assert by_name["job"]["attrs"]["state"] == "done"
    assert by_name["job"]["attrs"]["attempts"] == 2


def test_quarantined_trace_shows_every_attempt(tmp_path):
    """A poison job's trace ends at quarantine with one attempt span
    per worker it killed — the operator's post-mortem of the fuse."""
    from repro import obs

    program, core = _figure1_submission()
    with faultinject.injected({"seed": 2, "sites": {
            "worker.task": {"prob": 1.0, "kinds": ["crash"]}}}):
        obs.activate(1.0)
        try:
            daemon = _daemon(tmp_path, workers=1, quarantine_after=2)
            daemon.start()
            status, body = daemon.submit(program, core,
                                         report_id="poison-traced")
            assert status == 202
            assert daemon.wait_idle(60)
            daemon.shutdown()
        finally:
            obs.deactivate()
    assert daemon.job_payload(body["job_id"])["state"] == "quarantined"
    spans = daemon.trace_payload(body["job_id"])["spans"]
    by_name = {span["name"]: span for span in spans}
    assert by_name["attempt-1"]["attrs"]["outcome"] == "worker-crash"
    assert by_name["attempt-2"]["attrs"]["outcome"] == "worker-crash"
    root = by_name["job"]
    assert root["attrs"]["state"] == "quarantined"
    assert "error" in root["attrs"]


def test_poison_job_quarantined_with_dependents(tmp_path):
    """A job that kills every worker that touches it must settle as
    quarantined — with diagnostics — instead of crash-looping the
    fleet, and must take its attached duplicates with it."""
    program, core = _figure1_submission()
    with faultinject.injected({"seed": 2, "sites": {
            "worker.task": {"prob": 1.0, "kinds": ["crash"]}}}):
        daemon = _daemon(tmp_path, workers=1, quarantine_after=2)
        status, rep = daemon.submit(program, core, report_id="poison")
        assert status == 202
        status, dup = daemon.submit(program, core, report_id="tagalong")
        assert status == 202 and dup["attached_to"] == rep["job_id"]
        daemon.start()
        assert daemon.wait_idle(60), "quarantine must settle the queue"
        daemon.shutdown()
    payload = daemon.job_payload(rep["job_id"])
    assert payload["state"] == "quarantined"
    assert "killed 2 worker" in payload["error"]
    assert payload["worker_crashes"] == 2
    dependent = daemon.job_payload(dup["job_id"])
    assert dependent["state"] == "quarantined"
    assert "representative" in dependent["error"]
    assert daemon.metrics.snapshot()["quarantined_total"] == 2
    rows = daemon.quarantine_payload()["quarantined"]
    assert [row["job_id"] for row in rows] == [rep["job_id"],
                                               dup["job_id"]]

    # Quarantine is durable: a restart replays it settled, not queued.
    second = TriageDaemon(daemon.config)
    health = second.healthz()
    assert health["quarantined"] == 2 and health["queue_depth"] == 0
    assert second.resumed_jobs == 0
    # ... but it is a fuse, not a verdict: with the fault gone, a fresh
    # submission of the same crash drives and completes.
    second.start()
    status, fresh = second.submit(program, core, report_id="fresh")
    assert status == 202 and "dedup_of" not in fresh
    assert second.wait_idle(60)
    second.shutdown(drain=True)
    assert second.job_payload(fresh["job_id"])["state"] == "done"


def test_watchdog_reaps_hung_drive(tmp_path):
    """A drive parked in a hung solver call is written off by the
    watchdog: the worker is abandoned and replaced, the job re-queued,
    and its stale settle (when the hang finally returns) discarded."""
    with faultinject.injected({"seed": 3, "sites": {
            "solver.call": {"at": [0], "kinds": ["hang"], "hang": 2.0,
                            "max": 1}}}):
        daemon = _daemon(tmp_path, workers=1, watchdog_timeout=0.3)
        daemon.start()
        program, core = _figure1_submission()
        status, body = daemon.submit(program, core, report_id="stuck")
        assert status == 202
        assert daemon.wait_idle(60)
        daemon.shutdown(drain=True)
    payload = daemon.job_payload(body["job_id"])
    assert payload["state"] == "done"
    assert payload["worker_crashes"] == 1  # the reap counted
    assert daemon.metrics.snapshot()["worker_restarts_total"] >= 1


# ---------------------------------------------------------------------------
# Disk trouble: ENOSPC-safe journaling, degraded read-only mode
# ---------------------------------------------------------------------------

def test_enospc_journal_refuses_submission_then_recovers(tmp_path):
    """A 202 that would not survive SIGKILL is a lie: when the journal
    cannot append, the submission is refused (OSError → HTTP 503) with
    no phantom job behind it, healthz turns degraded, and the first
    successful append heals the signal."""
    daemon = _daemon(tmp_path, workers=0)
    program, core = _figure1_submission()
    with faultinject.injected({"seed": 4, "sites": {
            "ioutil.append_line": {"prob": 1.0, "kinds": ["enospc"],
                                   "max": 1,
                                   "path_contains": "jobs.jsonl"}}}):
        with pytest.raises(OSError):
            daemon.submit(program, core, report_id="refused")
        health = daemon.healthz()
        assert health["disk"] == "unhealthy"
        assert health["status"] == "degraded"
        assert "res_intake_degraded 1" in daemon.metrics_text()
        snapshot = daemon.metrics.snapshot()
        assert snapshot["journal_errors_total"] == 1
        assert snapshot["submitted_total"] == 0  # no phantom admitted
        assert daemon.healthz()["queue_depth"] == 0
        # Disk back (the fault plan's max=1 is spent): same submission
        # is accepted, journaled, and the degraded signal clears.
        status, body = daemon.submit(program, core, report_id="kept")
        assert status == 202
    assert daemon.healthz()["disk"] == "ok"
    daemon.shutdown()
    resumed = TriageDaemon(daemon.config)
    assert resumed.resumed_jobs == 1  # the refused one left no trace


def test_degraded_disk_serves_instant_dedup_read_only(tmp_path):
    """With the spool disk gone, known crashes still get their verdict:
    the answer is computed and durable from the representative, so only
    the duplicate's bookkeeping row is lost (replay self-heals it)."""
    daemon = _daemon(tmp_path, workers=1)
    daemon.start()
    program, core = _figure1_submission()
    status, first = daemon.submit(program, core, report_id="rep")
    assert status == 202
    assert daemon.wait_idle(60)
    with faultinject.injected({"seed": 5, "sites": {
            "ioutil.append_line": {"prob": 1.0, "kinds": ["enospc"],
                                   "path_contains": "jobs.jsonl"}}}):
        with pytest.warns(RuntimeWarning, match="read-only"):
            status, body = daemon.submit(program, core,
                                         report_id="while-down")
        assert status == 200
        assert body["state"] == "done" and body["dedup_of"] == "rep"
        assert body["verdict"]["bucket"]
        assert daemon.healthz()["disk"] == "unhealthy"
    daemon.shutdown()


# ---------------------------------------------------------------------------
# Malformed and corrupt-on-the-wire submissions
# ---------------------------------------------------------------------------

def test_fuzzed_submission_bytes_never_reach_a_worker(tmp_path):
    """Byte-level truncations and bitflips of a real coredump must
    produce a structured 400 (or parse back to a valid dump and be
    accepted) — never an unhandled exception, never a worker claim."""
    daemon = _daemon(tmp_path, workers=0)
    program, core = _figure1_submission()
    accepted = rejected = 0
    for cut in (1, len(core) // 3, len(core) // 2, len(core) - 3):
        status, body = daemon.submit(program, core[:cut],
                                     report_id=f"cut{cut}")
        assert status == 400, "a truncated JSON can never parse"
        assert body["error"], "the one-line diagnostic contract"
        rejected += 1
    rng = random.Random(1234)
    for index in range(25):
        pos = rng.randrange(len(core))
        flipped = (core[:pos]
                   + chr(ord(core[pos]) ^ (1 << rng.randrange(7)))
                   + core[pos + 1:])
        status, body = daemon.submit(program, flipped,
                                     report_id=f"flip{index}")
        assert status in (200, 202, 400), (status, body)
        if status == 400:
            assert body["error"]
            rejected += 1
        else:
            accepted += 1
    assert rejected > 4, "bitflips must trip the parser sometimes"
    snapshot = daemon.metrics.snapshot()
    assert snapshot["malformed_total"] == rejected
    assert snapshot["submitted_total"] == accepted
    # The daemon is unharmed: a clean submission still lands.
    status, __ = daemon.submit(program, core, report_id="still-alive")
    assert status in (200, 202)
    daemon.shutdown()


def test_oversized_coredump_rejected_at_admission(tmp_path):
    daemon = _daemon(tmp_path, workers=0, max_core_bytes=64)
    program, core = _figure1_submission()
    assert len(core) > 64
    status, body = daemon.submit(program, core, report_id="huge")
    assert status == 400 and "oversized" in body["error"]
    assert daemon.metrics.snapshot()["malformed_total"] == 1
    daemon.shutdown()


def test_wire_corruption_rejected_never_acknowledged(tmp_path):
    """Corrupt-on-the-wire submissions (the http.body fault site) come
    back 400 + rejected metric; the moment the wire heals, the same
    submission is accepted."""
    daemon = _daemon(tmp_path, workers=0)
    server = start_http_server(daemon)
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    program, core = _figure1_submission()
    try:
        with faultinject.injected({"seed": 6, "sites": {
                "http.body": {"prob": 1.0, "max": 3,
                              "kinds": ["garbage", "truncate"]}}}):
            for index in range(3):
                with pytest.raises(ServiceClientError, match="refused"):
                    submit_report(base, program, core,
                                  report_id=f"wire{index}")
            status, body = submit_report(base, program, core,
                                         report_id="healed")
            assert status == 202, body
        assert daemon.metrics.snapshot()["malformed_total"] == 3
        assert daemon.metrics.snapshot()["submitted_total"] == 1
    finally:
        server.shutdown()
        daemon.shutdown()


# ---------------------------------------------------------------------------
# Client-side resilience: retries across restarts and outages
# ---------------------------------------------------------------------------

def _free_port() -> int:
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def test_submit_with_retries_survives_daemon_restart(tmp_path):
    """Connection refused mid-restart is backoff-and-retry, not fatal:
    the submission lands once the daemon is back."""
    daemon = _daemon(tmp_path, workers=1)
    daemon.start()
    port = _free_port()
    base = f"http://127.0.0.1:{port}"
    box = {}

    def bring_up():
        time.sleep(0.5)
        box["server"] = start_http_server(daemon, port=port)

    thread = threading.Thread(target=bring_up, daemon=True)
    thread.start()
    retries = []
    program, core = _figure1_submission()
    try:
        status, body = submit_with_retries(
            base, program, core, report_id="patient",
            policy=RetryPolicy(max_retries=20, backoff_base=0.1,
                               backoff_cap=0.5, seed=0, timeout=20.0),
            notify=lambda marker, st, info: retries.append(info))
        assert status == 202, body
        assert retries, "the pre-restart refusals must have been retried"
        assert daemon.wait_idle(60)
    finally:
        thread.join(timeout=5)
        if "server" in box:
            box["server"].shutdown()
        daemon.shutdown()


def test_watch_survives_daemon_outage(tmp_path):
    """`res watch` (not --once) rides out a daemon outage: jittered
    backoff, notify-visible retries, and forwarding resumes when the
    daemon returns."""
    program, core = _figure1_submission()
    intake = tmp_path / "intake"
    intake.mkdir()
    (intake / "crash-a.json").write_text(core)
    daemon = _daemon(tmp_path, workers=1)
    daemon.start()
    port = _free_port()
    base = f"http://127.0.0.1:{port}"
    box = {}

    def bring_up():
        time.sleep(0.5)
        box["server"] = start_http_server(daemon, port=port)

    thread = threading.Thread(target=bring_up, daemon=True)
    thread.start()
    events = []
    try:
        forwarded = watch_directory(
            str(intake), base, program=program, interval=0.05,
            notify=lambda marker, st, body: events.append((marker, st)),
            stop=lambda: any(st in (200, 202) for __, st in events),
            policy=RetryPolicy(max_retries=40, backoff_base=0.05,
                               backoff_cap=0.2, seed=0))
        assert forwarded == 1
        assert any(marker == "daemon" for marker, __ in events), \
            "the outage must surface as retried 'daemon' notifications"
    finally:
        thread.join(timeout=5)
        if "server" in box:
            box["server"].shutdown()
        daemon.shutdown()


# ---------------------------------------------------------------------------
# The chaos suite: live daemon + random fault schedule + SIGKILL
# ---------------------------------------------------------------------------

def _chaos_spec(seed: int) -> dict:
    """A seed's randomized fault schedule.  Kinds are chosen so that a
    fault can delay, kill, or refuse — but never legitimately *change*
    — a verdict: the fault-free reference comparison stays exact."""
    return {
        "seed": seed,
        "sites": {
            "worker.task": {"prob": 0.25, "kinds": ["crash"], "max": 3},
            "solver.call": {"prob": 0.2, "kinds": ["delay", "hang"],
                            "delay": 0.05, "hang": 1.2, "max": 2},
            "ioutil.append_line": {"prob": 0.15, "max": 4,
                                   "kinds": ["enospc", "torn", "fsync"]},
            "ioutil.atomic_write": {"prob": 0.15, "max": 2,
                                    "kinds": ["enospc", "interrupt"]},
        },
    }


@pytest.fixture(scope="module")
def corpus():
    built = build_labeled_corpus(range(9001, 9005), duplicates=2,
                                 shuffle_seed=3)
    assert len(built.entries) == 8 and len(built.programs) == 4
    return built


@pytest.fixture(scope="module")
def reference(corpus):
    """The fault-free truth: report_id → semantic verdict from a batch
    run (the same fields verdict_view compares runs by)."""
    result = triage_corpus(corpus, _service_config())
    return {
        item.result.report_id: {
            "bucket": repr(item.result.bucket),
            "cause_kind": item.result.cause.kind
            if item.result.cause else None,
            "used_fallback": item.result.used_fallback,
            "exploitable": item.result.exploitable,
        }
        for item in result.reports
    }


def _spawn_chaos_serve(cwd, fault_env=None, serve_args=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH",
                                                            "")
    env.pop(faultinject.SPEC_ENV, None)
    env.pop(faultinject.LOG_ENV, None)
    if fault_env:
        env.update(fault_env)
    stderr = open(Path(cwd) / "serve-err.log", "a")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--spool", "spool", "--store", "store.json",
         "--cache-dir", "cache", "--max-depth", "8", "--max-nodes",
         "300", "--workers", "2", "--max-attempts", "4",
         "--quarantine-after", "2", "--watchdog-timeout", "1.0",
         "--retry-backoff", "0.02", *serve_args],
        cwd=str(cwd), env=env, stdout=subprocess.PIPE, stderr=stderr,
        text=True)
    stderr.close()  # the child owns the descriptor now
    banner = proc.stdout.readline().strip()
    assert "listening on" in banner, f"daemon failed to start: {banner!r}"
    return proc, banner.split()[3]


def _wait_settled(base_url, timeout):
    deadline = time.monotonic() + timeout
    health = {}
    while time.monotonic() < deadline:
        health = json.loads(
            urllib.request.urlopen(base_url + "/healthz").read())
        if health["queue_depth"] == 0 and health["in_flight"] == 0 \
                and health["delayed_retries"] == 0:
            return True
        time.sleep(0.1)
    return False


def _diagnostics(tmp_path, seed):
    """Everything needed to replay a failing seed by hand."""
    parts = [f"\n--- chaos seed {seed} diagnostics ---",
             f"fault spec: {json.dumps(_chaos_spec(seed))}"]
    for name in ("fault-log.jsonl", "serve-err.log"):
        path = tmp_path / name
        if path.exists():
            parts.append(f"--- {name} ---\n{path.read_text()[-4000:]}")
    journal = tmp_path / "spool" / "jobs.jsonl"
    if journal.exists():
        lines = journal.read_text().splitlines()
        parts.append(f"--- spool/jobs.jsonl (last 30 of {len(lines)}) "
                     f"---\n" + "\n".join(lines[-30:]))
    return "\n".join(parts)


@pytest.mark.chaos
@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_chaos_no_acknowledged_job_is_lost(tmp_path, corpus, reference,
                                           seed):
    """The tentpole invariant, against a live daemon under fire:

    * every 202-acknowledged job settles — verdict or quarantine —
      across two SIGKILLs and a restart;
    * every settled verdict is semantically identical to the fault-free
      batch reference (faults may delay or kill work, never bend it);
    * the journal replays clean end to end, acknowledged jobs included.
    """
    _hold_under_fire(tmp_path, corpus, reference, seed)


@pytest.mark.chaos
def test_chaos_compacting_journal_loses_no_job(tmp_path, corpus, reference):
    """The same invariant while the journal rotates at 4 KB, so the
    monitor compacts closed segments under worker crashes, disk faults
    and SIGKILL."""
    _hold_under_fire(tmp_path, corpus, reference, COMPACTING_SEED,
                     ("--journal-rotate-mb", "0.004"))
    segments = JobJournal(tmp_path / "spool" / "jobs.jsonl").log.segments()
    assert segments, "the journal never rotated, so nothing was compacted"


def _hold_under_fire(tmp_path, corpus, reference, seed, serve_args=()):
    spec_path = tmp_path / "faults.json"
    spec_path.write_text(json.dumps(_chaos_spec(seed)))
    fault_env = {faultinject.SPEC_ENV: str(spec_path),
                 faultinject.LOG_ENV: str(tmp_path / "fault-log.jsonl")}
    rng = random.Random(seed)
    acked = []  # (report_id, job_id) for every 202 acknowledgment

    def push(base, entries):
        for entry in entries:
            spec = corpus.programs[entry.program_key]
            status, body = submit_with_retries(
                base,
                {"key": spec.key, "source": spec.source,
                 "name": spec.name},
                entry.report.coredump.to_json(),
                report_id=entry.report.report_id,
                true_cause=entry.report.true_cause,
                policy=RetryPolicy(max_retries=10, backoff_base=0.05,
                                   backoff_cap=1.0, seed=seed,
                                   timeout=30.0))
            assert status in (200, 202), (status, body)
            if status == 200:
                check_verdict(entry.report.report_id, body["verdict"])
            else:
                acked.append((entry.report.report_id, body["job_id"]))

    def check_verdict(report_id, verdict):
        expected = reference[report_id]
        got = {key: verdict[key] for key in expected}
        assert got == expected, (f"verdict for {report_id} diverged "
                                 f"under faults: {got} != {expected}")

    proc = None
    try:
        # Life 1: faults on; accept some traffic, then die mid-flight.
        proc, base = _spawn_chaos_serve(tmp_path, fault_env, serve_args)
        push(base, corpus.entries[:4])
        time.sleep(rng.uniform(0.2, 1.0))
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)

        # Life 2: faults still on; the rest of the traffic, a bounded
        # settle window, another SIGKILL.
        proc, base = _spawn_chaos_serve(tmp_path, fault_env, serve_args)
        push(base, corpus.entries[4:])
        _wait_settled(base, timeout=10.0)  # best effort under fire
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)

        # Life 3: faults off.  Everything acknowledged must settle.
        proc, base = _spawn_chaos_serve(tmp_path, serve_args=serve_args)
        assert _wait_settled(base, timeout=120.0), \
            "the queue never drained after the faults were lifted"
        for report_id, job_id in acked:
            payload = get_job(base, job_id)
            assert payload["state"] in ("done", "quarantined"), \
                (f"acknowledged job {job_id} ({report_id}) ended "
                 f"{payload['state']}: {payload.get('error')}")
            if payload["state"] == "done":
                check_verdict(report_id, payload["verdict"])
        request = urllib.request.Request(
            base + "/shutdown", data=json.dumps({"drain": True}).encode(),
            headers={"Content-Type": "application/json"}, method="POST")
        urllib.request.urlopen(request).read()
        assert proc.wait(timeout=60) == 0

        # Zero journal corruption: the full history replays without
        # error and still contains every acknowledged job.
        replayed = JobJournal(tmp_path / "spool" / "jobs.jsonl").replay(
            _service_config())
        replayed_ids = {job.job_id for job in replayed}
        for report_id, job_id in acked:
            assert job_id in replayed_ids, \
                f"acknowledged job {job_id} ({report_id}) fell out " \
                f"of the journal"
    except AssertionError as exc:
        raise AssertionError(str(exc) + _diagnostics(tmp_path, seed)) \
            from exc
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)

"""Tests for the crash-intake triage daemon (``src/repro/service/``).

The load-bearing guarantees, in the order the ISSUE states them:

* **equivalence** — a drained daemon's report store is byte-identical
  under :func:`repro.core.triage_service.verdict_view` to a batch
  ``res triage`` run over the same submissions, cold *and* warm;
* **dedup** — a second submission of a known fingerprint settles
  instantly with ``dedup_of`` and never touches a worker;
* **backpressure** — a full queue answers 429 with a Retry-After;
* **durability** — a SIGKILLed daemon restarts from its journal and
  resumes every unsettled job (subprocess test, no mercy given);
* **graceful shutdown** — SIGTERM flushes the store, flags it
  interrupted, and leaves no worker behind.
"""

import errno
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.core.triage_service import (
    TriageServiceConfig,
    TriageStore,
    store_payload,
    triage_corpus,
    verdict_view,
)
from repro.fuzz.triage_corpus import build_labeled_corpus
from repro.service import DaemonConfig, TriageDaemon, start_http_server
from repro.service.client import (
    ServiceClientError,
    get_job,
    scan_directory,
    submit_report,
    wait_for_job,
    watch_directory,
)
from repro.service.jobs import JobJournal
from repro.workloads import FIGURE1_OVERFLOW

SRC_DIR = Path(repro.__file__).resolve().parents[1]

#: the standard small-but-real corpus: 4 armed fuzz programs, each
#: crash filed twice, shuffled like traffic (8 reports, 4 dedup hits)
CORPUS_SEEDS = range(9001, 9005)


@pytest.fixture(scope="module")
def corpus():
    built = build_labeled_corpus(CORPUS_SEEDS, duplicates=2,
                                 shuffle_seed=3)
    assert len(built.entries) == 8 and len(built.programs) == 4
    return built


def _service_config(tmp_path=None, **kwargs):
    defaults = dict(max_depth=8, max_nodes=300)
    defaults.update(kwargs)
    return TriageServiceConfig(**defaults)


def _daemon(tmp_path, workers=2, store=True, **kwargs):
    service_kwargs = {k: kwargs.pop(k) for k in
                      ("cache_dir", "warm_from") if k in kwargs}
    service = _service_config(
        store_path=str(tmp_path / "daemon-store.json") if store else None,
        **service_kwargs)
    config = DaemonConfig(service=service,
                          spool_dir=str(tmp_path / "spool"),
                          workers=workers, **kwargs)
    return TriageDaemon(config)


def _submit_corpus(daemon, corpus):
    """Submit every corpus entry in order (the daemon-side mirror of a
    batch run's corpus order); returns the per-entry responses."""
    responses = []
    for entry in corpus.entries:
        spec = corpus.programs[entry.program_key]
        status, body = daemon.submit(
            {"key": spec.key, "source": spec.source, "name": spec.name},
            entry.report.coredump.to_json(),
            report_id=entry.report.report_id,
            true_cause=entry.report.true_cause)
        assert status in (200, 202), body
        responses.append((status, body))
    return responses


def _batch_view(corpus, config):
    result = triage_corpus(corpus, config)
    return json.dumps(
        verdict_view(store_payload(result, corpus, config, complete=True)),
        sort_keys=True)


def _daemon_view(tmp_path):
    payload = json.loads((tmp_path / "daemon-store.json").read_text())
    assert payload["complete"] is True
    return json.dumps(verdict_view(payload), sort_keys=True)


# ---------------------------------------------------------------------------
# Equivalence: daemon == batch, cold and warm
# ---------------------------------------------------------------------------

def test_daemon_verdicts_equal_batch_cold(tmp_path, corpus):
    daemon = _daemon(tmp_path, workers=2)
    daemon.start()
    _submit_corpus(daemon, corpus)
    assert daemon.wait_idle(120)
    daemon.shutdown(drain=True)
    assert _daemon_view(tmp_path) == _batch_view(corpus, _service_config())


def test_daemon_verdicts_equal_batch_warm(tmp_path, corpus):
    # A prior batch run populates the cross-run cache ...
    cache_dir = str(tmp_path / "rescache")
    triage_corpus(corpus, _service_config(cache_dir=cache_dir))
    # ... so the daemon's workers answer everything from warm hits,
    # and the verdicts must still match a cold batch run exactly.
    daemon = _daemon(tmp_path, workers=2, cache_dir=cache_dir)
    daemon.start()
    _submit_corpus(daemon, corpus)
    assert daemon.wait_idle(120)
    daemon.shutdown(drain=True)
    assert _daemon_view(tmp_path) == _batch_view(corpus, _service_config())
    snapshot = daemon.metrics.snapshot()
    assert snapshot["warm_hits_total"] == snapshot["verdicts_total"] > 0
    assert snapshot["warm_hit_rate"] == 1.0


# ---------------------------------------------------------------------------
# Admission: dedup, priority, backpressure, validation
# ---------------------------------------------------------------------------

def _figure1_submission():
    dump = FIGURE1_OVERFLOW.trigger()
    program = {"key": "figure1_overflow",
               "source": FIGURE1_OVERFLOW.source,
               "name": "figure1_overflow"}
    return program, dump.to_json()


def test_dedup_second_submission_settles_instantly(tmp_path):
    daemon = _daemon(tmp_path, workers=1)
    daemon.start()
    program, core = _figure1_submission()
    status, first = daemon.submit(program, core, report_id="first")
    assert status == 202
    assert daemon.wait_idle(60)
    started = time.perf_counter()
    status, second = daemon.submit(program, core, report_id="second")
    instant = time.perf_counter() - started
    daemon.shutdown()
    assert status == 200  # known crash: verdict attached, WER-style
    assert second["state"] == "done"
    assert second["dedup_of"] == "first"
    assert second["verdict"]["bucket"] == \
        daemon.job_payload(first["job_id"])["verdict"]["bucket"]
    assert instant < 0.5, "dedup answer must not touch a worker"
    assert daemon.metrics.snapshot()["dedup_total"] == 1


def test_dedup_attaches_to_pending_representative(tmp_path):
    # Workers not started yet: the representative stays queued, so the
    # duplicate must attach instead of queueing a second drive.
    daemon = _daemon(tmp_path, workers=1)
    program, core = _figure1_submission()
    status, first = daemon.submit(program, core, report_id="rep")
    assert status == 202
    status, second = daemon.submit(program, core, report_id="dup")
    assert status == 202
    assert second["attached_to"] == first["job_id"]
    assert daemon.healthz()["queue_depth"] == 1  # one drive, two jobs
    daemon.start()
    assert daemon.wait_idle(60)
    daemon.shutdown()
    dup = daemon.job_payload(second["job_id"])
    assert dup["state"] == "done" and dup["dedup_of"] == "rep"
    assert daemon.metrics.snapshot()["verdicts_total"] == 1


def test_priority_new_fingerprints_ahead_of_resubmissions(tmp_path, corpus):
    daemon = _daemon(tmp_path, workers=0, store=False)
    entries = [corpus.entries[index] for index in (0, 1)]
    specs = [corpus.programs[e.program_key] for e in entries]
    core0 = entries[0].report.coredump.to_json()
    core1 = entries[1].report.coredump.to_json()
    program0 = {"key": specs[0].key, "source": specs[0].source}
    program1 = {"key": specs[1].key, "source": specs[1].source}
    daemon.submit(program0, core0, report_id="a")
    # Forced re-submission of a seen fingerprint: deprioritized.
    status, forced = daemon.submit(program0, core0, report_id="a2",
                                   force=True)
    assert status == 202 and forced["priority"] == 1
    # A never-seen fingerprint submitted later still overtakes it.
    status, fresh = daemon.submit(program1, core1, report_id="b")
    assert status == 202 and fresh["priority"] == 0
    order = [daemon._jobs[job_id].report_id
             for __, __, job_id in sorted(daemon._heap)]
    assert order == ["a", "b", "a2"]
    daemon.shutdown()


def test_backpressure_429_with_retry_after(tmp_path, corpus):
    daemon = _daemon(tmp_path, workers=0, store=False, max_queue=2)
    responses = []
    for index, entry in enumerate(corpus.entries[:4]):
        spec = corpus.programs[entry.program_key]
        responses.append(daemon.submit(
            {"key": spec.key, "source": spec.source},
            entry.report.coredump.to_json(),
            report_id=f"r{index}", force=True))
    daemon.shutdown()
    statuses = [status for status, __ in responses]
    assert statuses[:2] == [202, 202]
    assert statuses[2] == 429 and statuses[3] == 429
    refused = responses[2][1]
    assert refused["retry_after_seconds"] >= 1
    assert daemon.metrics.snapshot()["rejected_total"] == 2
    # Refused submissions were never journaled: nothing to resume.
    resumed = TriageDaemon(daemon.config)
    assert resumed.resumed_jobs == 2


def test_submit_rejects_malformed_input(tmp_path):
    daemon = _daemon(tmp_path, workers=0, store=False)
    program, core = _figure1_submission()
    status, body = daemon.submit({"key": "x"}, core)
    assert status == 400 and "program" in body["error"]
    status, body = daemon.submit(program, "{not json")
    assert status == 400 and "malformed coredump" in body["error"]
    status, body = daemon.submit(program, json.dumps({"module": "x"}))
    assert status == 400 and "malformed coredump" in body["error"]
    status, body = daemon.submit(program, 42)
    assert status == 400
    daemon.shutdown()
    assert daemon.metrics.snapshot()["submitted_total"] == 0


# ---------------------------------------------------------------------------
# Durability: journal replay (in-process) and SIGKILL (subprocess)
# ---------------------------------------------------------------------------

def test_journal_replay_resumes_unsettled_jobs(tmp_path, corpus):
    # First life: accept submissions but never triage (workers=0), then
    # vanish without any shutdown — exactly what a crash leaves behind.
    first = _daemon(tmp_path, workers=0)
    _submit_corpus(first, corpus)
    del first

    second = _daemon(tmp_path, workers=2)
    assert second.resumed_jobs == 8  # every unsettled job came back ...
    # ... but only the 4 unique fingerprints queue a drive; the
    # duplicates re-attach to their representative during re-admission.
    assert second.healthz()["queue_depth"] == 4
    second.start()
    assert second.wait_idle(120)
    second.shutdown(drain=True)
    assert _daemon_view(tmp_path) == _batch_view(corpus, _service_config())


def test_dedup_edited_program_recomputes(tmp_path):
    """Admission dedup keys on the module fingerprint: re-submitting a
    crash under the same program *name* but edited source must
    recompute against the new source, never echo the stale verdict."""
    daemon = _daemon(tmp_path, workers=1)
    daemon.start()
    program, core = _figure1_submission()
    status, first = daemon.submit(program, core, report_id="v1")
    assert status == 202
    assert daemon.wait_idle(60)
    edited = dict(program, source=program["source"] + "\n// v2\n")
    status, second = daemon.submit(edited, core, report_id="v2")
    assert status == 202, "edited source must be a fresh drive, not 200"
    assert "dedup_of" not in second
    assert daemon.wait_idle(60)
    daemon.shutdown()
    assert daemon.job_payload(second["job_id"])["state"] == "done"
    assert daemon.metrics.snapshot()["verdicts_total"] == 2
    assert daemon.metrics.snapshot()["dedup_total"] == 0


def test_force_bypasses_warm_cache_and_replaces_representative(tmp_path):
    """--force means a fresh drive: the warm-cache short-circuit is
    skipped and the recomputed verdict becomes the new representative
    for future dedups (and refreshes the cached row)."""
    daemon = _daemon(tmp_path, workers=1,
                     cache_dir=str(tmp_path / "rescache"))
    daemon.start()
    program, core = _figure1_submission()
    status, first = daemon.submit(program, core, report_id="orig")
    assert status == 202
    assert daemon.wait_idle(60)
    status, forced = daemon.submit(program, core, report_id="fresh",
                                   force=True)
    assert status == 202, "force must queue a drive, not dedup"
    assert daemon.wait_idle(60)
    payload = daemon.job_payload(forced["job_id"])
    assert payload["state"] == "done"
    assert payload["verdict"]["cached"] is False, \
        "forced drive must not be served from the warm cache"
    assert payload["verdict"]["bucket"] == \
        daemon.job_payload(first["job_id"])["verdict"]["bucket"]
    # The forced verdict is the new representative for this key.
    status, third = daemon.submit(program, core, report_id="after")
    assert status == 200 and third["dedup_of"] == "fresh"
    daemon.shutdown()


def test_force_survives_journal_resume(tmp_path):
    """A forced recompute acknowledged with 202 must still run after a
    crash: replay re-admits it as forced (no dedup against the stale
    verdict it was sent to replace), and once done it replaces the
    representative across restarts too."""
    cache_dir = str(tmp_path / "rescache")
    first = _daemon(tmp_path, workers=1, cache_dir=cache_dir)
    first.start()
    program, core = _figure1_submission()
    first.submit(program, core, report_id="orig")
    assert first.wait_idle(60)
    first.shutdown()
    # New life, workers never started: the forced job stays queued —
    # the crash window between 202 and the recompute.
    second = _daemon(tmp_path, workers=0, cache_dir=cache_dir)
    status, forced = second.submit(program, core, report_id="fresh",
                                   force=True)
    assert status == 202
    del second  # SIGKILL-equivalent: no shutdown, journal is the truth

    third = _daemon(tmp_path, workers=1, cache_dir=cache_dir)
    assert third.healthz()["queue_depth"] == 1, \
        "the forced job must resume as a drive, not settle as a dedup"
    third.start()
    assert third.wait_idle(60)
    third.shutdown()
    payload = third.job_payload(forced["job_id"])
    assert payload["state"] == "done"
    assert "dedup_of" not in payload
    # And it is now the representative for later submissions.
    status, after = third.submit(program, core, report_id="after")
    assert status == 200 and after["dedup_of"] == "fresh"


def test_journal_dedup_rows_are_references(tmp_path):
    """Dedup-dominated traffic must not grow the journal by a full
    program + coredump per re-report: duplicate submissions journal
    references to the representative's row, and replay resolves them."""
    daemon = _daemon(tmp_path, workers=0, store=False)
    program, core = _figure1_submission()
    daemon.submit(program, core, report_id="rep")
    daemon.submit(program, core, report_id="dup1")  # attaches pending
    daemon.submit(program, core, report_id="dup2")
    daemon.shutdown()
    rows = [json.loads(line)
            for line in daemon.config.journal_path.read_text().splitlines()]
    submits = [row for row in rows if row["event"] == "submit"]
    assert "core" in submits[0] and "program" in submits[0]
    for row in submits[1:]:
        assert row["core_ref"] == "j000000" and "core" not in row
        assert row["program_ref"] == "j000000" and "program" not in row
    replayed = JobJournal(daemon.config.journal_path).replay(
        _service_config())
    assert [job.report_id for job in replayed] == ["rep", "dup1", "dup2"]
    # The duplicates share the representative's parsed coredump.
    assert replayed[1].core_obj is replayed[0].core_obj
    assert replayed[1].program == replayed[0].program


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.02)
    return predicate()


def test_monitor_is_the_only_store_writer_while_running(tmp_path,
                                                        monkeypatch):
    """Settling a job never rewrites the report store: sixteen instant
    duplicates return without a store write on the submitting thread,
    the monitor thread writes the store once eight jobs have settled
    since its last write, and shutdown writes the complete store."""
    writers = []
    flush = TriageStore.flush

    def recording_flush(self, *args, **kwargs):
        writers.append(threading.current_thread().name)
        return flush(self, *args, **kwargs)

    monkeypatch.setattr(TriageStore, "flush", recording_flush)
    daemon = _daemon(tmp_path, workers=1)
    daemon.start()
    program, core = _figure1_submission()
    status, __ = daemon.submit(program, core, report_id="rep")
    assert status == 202
    assert daemon.wait_idle(60)
    for index in range(16):
        status, body = daemon.submit(program, core,
                                     report_id=f"dup-{index}")
        assert status == 200, body
    assert _wait_for(lambda: "triage-monitor" in writers)
    running_writers = list(writers)
    daemon.shutdown(drain=True)
    assert threading.current_thread().name not in running_writers
    payload = json.loads((tmp_path / "daemon-store.json").read_text())
    assert payload["complete"] is True
    assert len(payload["results"]) == 17


def test_failed_store_write_waits_for_the_next_flush_point(tmp_path,
                                                          monkeypatch):
    """A store write that fails warns and leaves the monitor running;
    the monitor does not retry it on every tick, only once eight more
    jobs have settled."""
    writers = []
    flush = TriageStore.flush

    def full_once(self, *args, **kwargs):
        writers.append(threading.current_thread().name)
        if len(writers) == 1:
            raise OSError(errno.ENOSPC, "store volume full")
        return flush(self, *args, **kwargs)

    monkeypatch.setattr(TriageStore, "flush", full_once)
    daemon = _daemon(tmp_path, workers=1)
    daemon.start()
    program, core = _figure1_submission()
    daemon.submit(program, core, report_id="rep")
    assert daemon.wait_idle(60)
    with pytest.warns(RuntimeWarning, match="report store flush failed"):
        for index in range(7):
            daemon.submit(program, core, report_id=f"a-{index}")
        assert _wait_for(lambda: writers)
        time.sleep(0.5)  # ten monitor ticks
    assert writers == ["triage-monitor"]
    for index in range(8):
        daemon.submit(program, core, report_id=f"b-{index}")
    assert _wait_for(lambda: len(writers) == 2)
    assert writers == ["triage-monitor"] * 2
    daemon.shutdown(drain=True)
    payload = json.loads((tmp_path / "daemon-store.json").read_text())
    assert payload["complete"] is True
    assert len(payload["results"]) == 16


def test_http_rejects_non_integer_priority(live_server):
    __, base = live_server
    program, core = _figure1_submission()
    request = urllib.request.Request(
        base + "/jobs",
        data=json.dumps({"program": program,
                         "coredump": json.loads(core),
                         "priority": "high"}).encode(),
        headers={"Content-Type": "application/json"}, method="POST")
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request)
    assert excinfo.value.code == 400
    assert "priority" in json.loads(excinfo.value.read())["error"]


def test_watch_once_returns_despite_backpressure(tmp_path, corpus):
    """`res watch --once` means one scan — a daemon that keeps
    answering 429 must not turn it into an infinite retry loop."""
    daemon = _daemon(tmp_path, workers=0, store=False, max_queue=1)
    server = start_http_server(daemon)
    host, port = server.server_address[:2]
    try:
        corpus_dir = tmp_path / "intake"
        corpus.save(str(corpus_dir))
        forwarded = watch_directory(str(corpus_dir),
                                    f"http://{host}:{port}", once=True)
        # One unique drive fits the queue; its duplicates attach free;
        # the first submission of a second fingerprint hit 429 and
        # ended the scan.
        assert 1 <= forwarded < len(corpus.entries)
    finally:
        server.shutdown()
        daemon.shutdown()


def test_unreadable_journal_refuses_to_start(tmp_path):
    """A journal that exists but cannot be read is not an empty one:
    starting blank would re-issue job identities the file already
    assigned (and replay could later stitch an old verdict onto a new
    coredump).  The daemon must refuse instead."""
    from repro.errors import ReproError

    spool = tmp_path / "spool"
    (spool / "jobs.jsonl").mkdir(parents=True)  # unreadable-as-file
    with pytest.raises(ReproError, match="unreadable"):
        TriageDaemon(DaemonConfig(service=_service_config(),
                                  spool_dir=str(spool)))


def test_journal_tolerates_torn_final_line(tmp_path):
    daemon = _daemon(tmp_path, workers=0, store=False)
    program, core = _figure1_submission()
    daemon.submit(program, core, report_id="kept")
    daemon.shutdown()
    journal_path = daemon.config.journal_path
    with open(journal_path, "ab") as handle:
        handle.write(b'{"event": "submit", "job_id": "torn...')
    jobs = JobJournal(journal_path).replay(_service_config())
    assert [job.report_id for job in jobs] == ["kept"]
    resumed = TriageDaemon(daemon.config)
    assert resumed.resumed_jobs == 1


def test_non_utf8_journal_byte_is_skipped_as_damage(tmp_path):
    """A journal line holding a byte that is not UTF-8 (bit rot) is
    damage to skip with a warning, like any unparseable row — not an
    error that keeps the daemon from starting."""
    daemon = _daemon(tmp_path, workers=0, store=False)
    program, core = _figure1_submission()
    daemon.submit(program, core, report_id="kept")
    daemon.shutdown()
    with open(daemon.config.journal_path, "ab") as handle:
        handle.write(b'{"event": "submit", "job_id": "rot\xff"}\n')
    with pytest.warns(RuntimeWarning, match="corrupt mid-file"):
        resumed = TriageDaemon(daemon.config)
    assert resumed.resumed_jobs == 1


def _spawn_serve(cwd, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--spool", "spool", "--store", "store.json",
         "--max-depth", "8", "--max-nodes", "300", *extra],
        cwd=str(cwd), env=env, stdout=subprocess.PIPE, text=True)
    banner = proc.stdout.readline().strip()
    assert "listening on" in banner, banner
    return proc, banner.split()[3]


def _wait_drained(base_url, timeout=90.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        health = json.loads(
            urllib.request.urlopen(base_url + "/healthz").read())
        if health["queue_depth"] == 0 and health["in_flight"] == 0:
            return health
        time.sleep(0.1)
    raise AssertionError(f"daemon at {base_url} never drained")


def _http_shutdown(proc, base_url, drain=True):
    request = urllib.request.Request(
        base_url + "/shutdown",
        data=json.dumps({"drain": drain}).encode(),
        headers={"Content-Type": "application/json"}, method="POST")
    urllib.request.urlopen(request).read()
    return proc.wait(timeout=60)


def test_journal_resume_after_sigkill(tmp_path):
    """The acceptance gate: SIGKILL mid-queue loses nothing."""
    program, core = _figure1_submission()
    (tmp_path / "core.json").write_text(core)
    # Life 1 accepts but never works (workers=0), then dies hard.
    proc, base = _spawn_serve(tmp_path, "--workers", "0")
    for index in range(3):
        status, body = submit_report(base, program, core,
                                     report_id=f"r{index}")
        assert status == 202, body
    # All three share a fingerprint: one queued drive, two attached.
    health = json.loads(urllib.request.urlopen(base + "/healthz").read())
    assert health["queue_depth"] == 1 and health["jobs"] == 3
    proc.send_signal(signal.SIGKILL)
    proc.wait(timeout=30)

    # Life 2 resumes from the journal and settles everything.
    proc, base = _spawn_serve(tmp_path, "--workers", "2")
    assert "resumed" in proc.stdout.readline()
    _wait_drained(base)
    payloads = [get_job(base, f"j{index:06d}") for index in range(3)]
    assert all(p["state"] == "done" for p in payloads)
    assert payloads[0].get("dedup_of") is None
    assert {p["dedup_of"] for p in payloads[1:]} == {"r0"}
    assert _http_shutdown(proc, base) == 0
    store = json.loads((tmp_path / "store.json").read_text())
    assert store["complete"] is True
    assert len(store["results"]) == 3


# ---------------------------------------------------------------------------
# Graceful shutdown (SIGTERM): daemon and batch triage
# ---------------------------------------------------------------------------

def test_serve_sigterm_flushes_store_and_keeps_queue(tmp_path):
    program, core = _figure1_submission()
    proc, base = _spawn_serve(tmp_path, "--workers", "0")
    for index in range(2):
        submit_report(base, program, core, report_id=f"r{index}")
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=30) == 130
    store = json.loads((tmp_path / "store.json").read_text())
    assert store["complete"] is False
    assert store["interrupted"] is True
    # The queue survived: a fresh daemon resumes the undone drive.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    resumed = TriageDaemon(DaemonConfig(
        service=_service_config(), spool_dir=str(tmp_path / "spool")))
    assert resumed.resumed_jobs == 2
    assert resumed.healthz()["queue_depth"] == 1  # one unique drive


def test_triage_jobs_sigterm_exits_130_with_partial_store(tmp_path):
    """`res triage --jobs N` under SIGTERM: pool terminated, partial
    verdicts kept, store flagged interrupted — the ^C contract, now
    wired to the signal a supervisor actually sends."""
    store = tmp_path / "store.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "triage",
         "--fuzz-count", "40", "--fuzz-duplicates", "1", "--jobs", "2",
         "--max-depth", "8", "--max-nodes", "300",
         "--store", str(store)],
        cwd=str(tmp_path), env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    # Wait for the first streaming store flush (triage is mid-corpus),
    # then pull the plug.
    deadline = time.monotonic() + 180
    while not store.exists() and time.monotonic() < deadline:
        if proc.poll() is not None:
            pytest.fail(f"triage finished before SIGTERM could be sent:"
                        f"\n{proc.communicate()[0]}")
        time.sleep(0.1)
    assert store.exists(), "no streaming store flush within budget"
    proc.send_signal(signal.SIGTERM)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 130, (out, err)
    assert "interrupted" in out
    payload = json.loads(store.read_text())
    assert payload["interrupted"] is True and payload["complete"] is False
    assert payload["results"], "partial verdicts must be kept"


# ---------------------------------------------------------------------------
# HTTP API + clients (in-process server)
# ---------------------------------------------------------------------------

@pytest.fixture()
def live_server(tmp_path):
    daemon = _daemon(tmp_path, workers=2)
    daemon.start()
    server = start_http_server(daemon)
    host, port = server.server_address[:2]
    yield daemon, f"http://{host}:{port}"
    server.shutdown()
    daemon.shutdown(drain=True)


def test_http_submit_status_and_wait(live_server):
    daemon, base = live_server
    program, core = _figure1_submission()
    status, body = submit_report(base, program, core, report_id="via-http")
    assert status in (200, 202)
    settled = wait_for_job(base, body["job_id"], timeout=60)
    assert settled["state"] == "done"
    assert settled["report_id"] == "via-http"
    assert settled["verdict"]["cause_kind"] == "buffer-overflow"
    assert settled["verdict"]["exploitable"] in (False, True)
    assert "latency_seconds" in settled


def test_http_buckets_reports_healthz_metrics_routes(live_server):
    daemon, base = live_server
    program, core = _figure1_submission()
    __, body = submit_report(base, program, core, report_id="one")
    wait_for_job(base, body["job_id"], timeout=60)
    submit_report(base, program, core, report_id="two")

    payload = json.loads(urllib.request.urlopen(base + "/buckets").read())
    [(bucket, ids)] = payload["buckets"].items()
    assert "buffer-overflow" in bucket and ids == ["one", "two"]
    # the refined view rides along: raw leaves, hierarchy, pass stats
    assert sum(len(v) for v in payload["raw_buckets"].values()) == 2
    assert payload["stats"]["reports"] == 2
    assert isinstance(payload["hierarchy"], dict)

    fingerprint = daemon.job_payload("j000000")["fingerprint"]
    reports = json.loads(urllib.request.urlopen(
        base + f"/reports/{fingerprint}").read())["reports"]
    assert [r["report_id"] for r in reports] == ["one", "two"]
    assert reports[1]["dedup_of"] == "one"

    health = json.loads(urllib.request.urlopen(base + "/healthz").read())
    assert health["status"] == "ok" and health["jobs"] == 2

    metrics = urllib.request.urlopen(base + "/metrics").read().decode()
    assert "res_intake_verdicts_total 1" in metrics
    assert "res_intake_dedup_total 1" in metrics
    assert "# TYPE res_intake_rebucket_passes_total counter" in metrics
    assert 'res_intake_latency_seconds{quantile="0.95"}' in metrics
    assert "# TYPE res_intake_queue_depth gauge" in metrics

    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(base + "/jobs/nonesuch")
    assert excinfo.value.code == 404
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(base + "/definitely/not/a/route")
    assert excinfo.value.code == 404


def test_client_error_paths(live_server):
    __, base = live_server
    with pytest.raises(ServiceClientError, match="no such job"):
        get_job(base, "j999999")
    with pytest.raises(ServiceClientError, match="cannot reach"):
        get_job("http://127.0.0.1:1", "j000000")
    program, __ = _figure1_submission()
    with pytest.raises(ServiceClientError, match="refused"):
        submit_report(base, program, "{not json}")


# ---------------------------------------------------------------------------
# res watch: directory intake
# ---------------------------------------------------------------------------

def test_watch_forwards_corpus_directory(live_server, tmp_path, corpus):
    daemon, base = live_server
    corpus_dir = tmp_path / "intake"
    corpus.save(str(corpus_dir))
    forwarded = watch_directory(str(corpus_dir), base, once=True)
    assert forwarded == len(corpus.entries)
    assert daemon.wait_idle(120)
    # Labels rode along: the store-equality accuracy section exists.
    daemon.flush_store()
    payload = json.loads(
        (Path(daemon.service_config.store_path)).read_text())
    assert payload["corpus"]["labeled"] == len(corpus.entries)
    assert "accuracy" in payload


def test_watch_flat_directory_requires_program(tmp_path):
    flat = tmp_path / "flat"
    flat.mkdir()
    (flat / "a.json").write_text(FIGURE1_OVERFLOW.trigger().to_json())
    with pytest.raises(ServiceClientError, match="manifest"):
        scan_directory(str(flat))
    program, __ = _figure1_submission()
    items = scan_directory(str(flat), program)
    assert [item["report_id"] for item in items] == ["a"]
    with pytest.raises(ServiceClientError, match="not found"):
        scan_directory(str(tmp_path / "missing"))


# ---------------------------------------------------------------------------
# Daemon smoke cycle (the CI gate: start, submit 5, drain, clean stop)
# ---------------------------------------------------------------------------

def test_daemon_smoke_cycle(tmp_path):
    program, core = _figure1_submission()
    proc, base = _spawn_serve(tmp_path, "--workers", "2",
                              "--cache-dir", "cache")
    for index in range(5):
        status, body = submit_report(base, program, core,
                                     report_id=f"smoke-{index}")
        assert status in (200, 202), body
    _wait_drained(base)
    metrics = urllib.request.urlopen(base + "/metrics").read().decode()
    assert "res_intake_submitted_total 5" in metrics
    assert proc.poll() is None, "daemon must still be alive"
    assert _http_shutdown(proc, base, drain=True) == 0
    store = json.loads((tmp_path / "store.json").read_text())
    assert store["complete"] is True
    assert len(store["results"]) == 5
    assert sum(1 for row in store["results"]
               if row["dedup_of"] is not None) == 4

"""The intake daemon's job journal: one reader, one encoder per row kind.

* **compaction is invisible to replay** — replay after each segment
  rewrite (a crash point) and after one and two ``compact_segments()``
  passes equals replay before, over random journals in the daemon's
  row vocabulary split across closed segments, and for duplicates
  filed across a rotation in a live daemon;
* **one row per instant duplicate** — a duplicate settled at admission
  is one ``settled`` row in one append, and a completion journals its
  attached duplicates' settle rows in the same append as its own;
* **old journals replay unchanged** — ``tests/data/journal_v1`` was
  written by the earlier writers (a ``submit`` plus a ``done`` row per
  instant duplicate, separate ``failed``/``quarantined`` writers,
  per-segment compaction), and ``replay.json`` beside it is what their
  reader rebuilt from it.
"""

import json
import shutil
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.core.rescache import cause_from_obj, cause_to_obj
from repro.core.rootcause import CauseEvidence, RootCause
from repro.core.triage import TriageResult
from repro.core.triage_service import (
    ProgramSpec,
    TriagedReport,
    TriageServiceConfig,
)
from repro.service import DaemonConfig, TriageDaemon
from repro.service.jobs import (
    IntakeJob,
    JobJournal,
    JobState,
    journal_file_for,
)
from repro.vm.state import PC
from repro.workloads import DIV_BY_ZERO, FIGURE1_OVERFLOW

DATA = Path(__file__).resolve().parent / "data"
CONFIG = TriageServiceConfig(max_depth=8, max_nodes=300)


def _daemon(tmp_path, workers):
    return TriageDaemon(DaemonConfig(service=CONFIG,
                                     spool_dir=str(tmp_path / "spool"),
                                     workers=workers))


def _figure1_submission():
    program = {"key": "figure1_overflow",
               "source": FIGURE1_OVERFLOW.source,
               "name": "figure1_overflow"}
    return program, FIGURE1_OVERFLOW.trigger().to_json()


def _compact(config):
    """Close the active file and compact every closed segment."""
    journal = JobJournal(config.journal_path)
    journal.log.rotate(1)
    return journal.compact_segments()


def _recorded_appends(journal):
    """Record the rows of every append to ``journal`` from now on."""
    appends = []
    append = journal.log.append

    def recording(rows):
        rows = list(rows)
        appends.append(rows)
        append(rows)

    journal.log.append = recording
    return appends


# ---------------------------------------------------------------------------
# Duplicates across a rotation, in a live daemon
# ---------------------------------------------------------------------------

def test_instant_duplicates_filed_after_a_rotation_survive_compaction(
        tmp_path):
    daemon = _daemon(tmp_path, workers=1)
    daemon.start()
    program, core = _figure1_submission()
    status, rep = daemon.submit(program, core, report_id="rep")
    assert status == 202 and daemon.wait_idle(60)
    daemon.journal.log.rotate(1)
    dups = []
    for index in range(3):
        status, dup = daemon.submit(program, core, report_id=f"dup{index}")
        assert status == 200
        dups.append(dup["job_id"])
    daemon.shutdown()
    stats = _compact(daemon.config)
    # The representative's submit + done rows merge; each duplicate is
    # already the one settled row compaction writes.
    assert (stats["rows_before"], stats["rows_after"]) == (5, 4)
    reborn = _daemon(tmp_path, workers=0)
    assert reborn.healthz()["jobs"] == 4
    for job_id in dups:
        payload = reborn.job_payload(job_id)
        assert payload["state"] == "done" and payload["dedup_of"] == "rep"
        assert payload["verdict"]["bucket"] == \
            reborn.job_payload(rep["job_id"])["verdict"]["bucket"]
    reborn.shutdown()


def test_attached_duplicates_of_a_rotated_representative_resume(tmp_path):
    daemon = _daemon(tmp_path, workers=0)
    program, core = _figure1_submission()
    status, rep = daemon.submit(program, core, report_id="rep")
    assert status == 202
    daemon.journal.log.rotate(1)
    for index in range(2):
        status, dup = daemon.submit(program, core, report_id=f"dup{index}")
        assert status == 202 and dup["attached_to"] == rep["job_id"]
    daemon.shutdown()
    _compact(daemon.config)
    reborn = _daemon(tmp_path, workers=0)
    assert reborn.resumed_jobs == 3
    assert reborn.healthz()["queue_depth"] == 1  # one drive, three jobs
    reborn.shutdown()


# ---------------------------------------------------------------------------
# One append per event
# ---------------------------------------------------------------------------

def test_an_instant_duplicate_is_one_row_in_one_append(tmp_path):
    daemon = _daemon(tmp_path, workers=1)
    daemon.start()
    program, core = _figure1_submission()
    status, rep = daemon.submit(program, core, report_id="rep")
    assert status == 202 and daemon.wait_idle(60)
    appends = _recorded_appends(daemon.journal)
    status, dup = daemon.submit(program, core, report_id="dup")
    written = list(appends)
    daemon.shutdown()
    assert status == 200
    assert [len(rows) for rows in written] == [1]
    row = written[0][0]
    assert (row["event"], row["kind"], row["job_id"]) == \
        ("settled", "done", dup["job_id"])
    assert row["program_ref"] == rep["job_id"] and row["dedup_of"] == "rep"
    # The row keeps the dump only where replay reads it: a verdict
    # without a cause re-derives its stack bucket from the dump.
    assert "core" not in row
    assert ("core_ref" in row) == (row["cause"] is None)


def test_an_instant_duplicate_keeps_its_dump_only_for_a_stack_fallback(
        tmp_path):
    journal = JobJournal(tmp_path / "jobs.jsonl")
    program, _ = _figure1_submission()
    dump = FIGURE1_OVERFLOW.trigger()
    jobs = [IntakeJob(job_id=f"j{seq:06d}", seq=seq, report_id=f"r{seq}",
                      program=ProgramSpec(**program), core_obj=dump.to_obj(),
                      fingerprint=dump.fingerprint(), priority=0)
            for seq in range(4)]
    for rep, dup, cause in ((jobs[0], jobs[1], cause_from_obj(CAUSE)),
                            (jobs[2], jobs[3], None)):
        dup.core_obj = rep.core_obj
        journal.record_submit(rep)
        for job in (rep, dup):
            job.state = JobState.DONE
            job.verdict = TriagedReport(
                result=TriageResult(rep.report_id, None, cause, cause is None),
                program_key=job.program.key, fingerprint=job.fingerprint)
        dup.dedup_of = rep.report_id
        journal.record_done([rep])
        journal.record_done([dup], rep)
    rows = [json.loads(line) for line in journal.path.read_text().splitlines()]
    assert [(row["event"], "core" in row, row.get("core_ref"))
            for row in rows] == [
        ("submit", True, None), ("done", False, None),
        ("settled", False, None),
        ("submit", True, None), ("done", False, None),
        ("settled", False, "j000002")]
    # The fallback duplicate's stack bucket is re-derived from the dump
    # its reference resolves to.
    fallback, duplicate = journal.replay(CONFIG)[2:]
    assert duplicate.verdict.result.used_fallback
    assert duplicate.verdict.result.bucket == fallback.verdict.result.bucket
    assert duplicate.verdict.result.bucket[0] == "stack"


def test_a_completion_journals_its_dependents_in_one_append(tmp_path):
    # Workers not started yet: both duplicates attach to the queued
    # representative and settle when it does.
    daemon = _daemon(tmp_path, workers=1)
    program, core = _figure1_submission()
    ids = []
    for report_id in ("rep", "dup0", "dup1"):
        status, body = daemon.submit(program, core, report_id=report_id)
        assert status == 202
        ids.append(body["job_id"])
    appends = _recorded_appends(daemon.journal)
    daemon.start()
    assert daemon.wait_idle(60)
    daemon.shutdown()
    assert [[(row["event"], row["job_id"]) for row in rows]
            for rows in appends] == [[("done", job_id) for job_id in ids]]


def test_a_duplicate_of_a_peer_verdict_references_nothing_of_the_peer(
        tmp_path):
    """A fleet node's instant duplicate of a verdict adopted from a
    peer's journal carries its own program: a reference names only a
    row of the node's own journal."""
    program, core = _figure1_submission()
    dump = FIGURE1_OVERFLOW.trigger()
    peer = IntakeJob(job_id="ghost-j000000", seq=0, report_id="peer",
                     program=ProgramSpec(**program), core_obj=dump.to_obj(),
                     fingerprint=dump.fingerprint(), priority=0)
    ghost = JobJournal(tmp_path / "spool" / journal_file_for("ghost"))
    ghost.record_submit(peer)
    peer.state = JobState.DONE
    peer.verdict = TriagedReport(
        result=TriageResult("peer", None, cause_from_obj(CAUSE), False),
        program_key=peer.program.key, fingerprint=peer.fingerprint)
    ghost.record_done([peer])
    daemon = TriageDaemon(DaemonConfig(
        service=CONFIG, spool_dir=str(tmp_path / "spool"), workers=0,
        node_id="a", peers={"a": "http://127.0.0.1:9",
                            "ghost": "http://127.0.0.1:9"}))
    status, dup = daemon.submit(program, core, report_id="dup")
    daemon.shutdown()
    assert status == 200 and dup["dedup_of"] == "peer"
    [row] = [json.loads(line) for line
             in daemon.config.journal_path.read_text().splitlines()]
    assert row["program"] == program
    assert not {"program_ref", "core_ref", "core"} & set(row)
    [job] = JobJournal(daemon.config.journal_path).replay(CONFIG)
    assert (job.report_id, job.state, job.dedup_of) == \
        ("dup", JobState.DONE, "peer")


# ---------------------------------------------------------------------------
# Journals written by the earlier writers
# ---------------------------------------------------------------------------

def _legacy_view(jobs):
    """The fields ``journal_v1/replay.json`` recorded for each job."""
    return [{
        "job_id": job.job_id, "seq": job.seq, "report_id": job.report_id,
        "state": job.state.value,
        "program": [job.program.key, job.program.name,
                    len(job.program.source)],
        "fingerprint": job.fingerprint, "priority": job.priority,
        "force": job.force, "true_cause": job.true_cause,
        "submitted_at": job.submitted_at, "trace": job.trace_id,
        "bucket": repr(job.verdict.result.bucket) if job.verdict else None,
        "cause_kind": job.verdict.result.cause.kind
        if job.verdict and job.verdict.result.cause else None,
        "exploitable": job.verdict.result.exploitable
        if job.verdict else None,
        "dedup_of": job.dedup_of, "error": job.error,
        "attempts": job.attempts, "worker_crashes": job.worker_crashes,
        "has_core": job.core_obj is not None,
    } for job in jobs]


def test_a_journal_from_the_earlier_writers_replays_unchanged(tmp_path):
    spool = tmp_path / "spool"
    shutil.copytree(DATA / "journal_v1", spool,
                    ignore=shutil.ignore_patterns("replay.json"))
    expected = json.loads((DATA / "journal_v1" / "replay.json").read_text())
    journal = JobJournal(spool / "jobs.jsonl")
    kinds = {json.loads(line)["event"] for path in journal.log.files()
             for line in path.read_text().splitlines()}
    assert kinds == {"submit", "done", "failed", "quarantined", "settled"}
    assert _legacy_view(journal.replay(CONFIG)) == expected
    # Compaction keeps every job, and the dump of each that reads one.
    journal.compact_segments()
    assert _read_dumps(_legacy_view(journal.replay(CONFIG))) \
        == _read_dumps(expected)


def _read_dumps(view):
    """``view`` with ``has_core`` kept only for jobs replay reads a dump
    for: unsettled ones, and ``done`` ones without a cause."""
    return [dict(job, has_core=job["has_core"] if job["state"] == "queued"
                 or (job["state"] == "done" and job["cause_kind"] is None)
                 else None)
            for job in view]


# ---------------------------------------------------------------------------
# Property: compaction is invisible to replay
# ---------------------------------------------------------------------------

WORKLOADS = (FIGURE1_OVERFLOW, DIV_BY_ZERO)
DUMPS = [workload.trigger() for workload in WORKLOADS]
CAUSE = cause_to_obj(RootCause(
    kind="buffer-overflow", description="store past the end of 'buf'",
    addr=4104, threads=(0,), pcs=(PC("main", "loop", 3),),
    object_name="buf",
    evidence=CauseEvidence(trap_kind="assert", crash_fn="main",
                           expr_skeleton="(ult var c)")))


def _settle_fields(kind, ref, index):
    if kind in ("done", "fallback"):
        return {"cause": CAUSE if kind == "done" else None,
                "exploitable": index % 2 == 0, "cached": index % 3 == 0,
                "seconds": 0.125,
                "dedup_of": None if ref is None else f"r{ref:06d}"}
    if kind == "quarantined":
        return {"error": f"quarantined: killed {index} worker(s)",
                "attempts": index, "worker_crashes": index + 1}
    return {"error": f"failed {index}"}


@st.composite
def journals(draw):
    """Random journals in the daemon's row vocabulary: representatives'
    submit rows with inline payloads, duplicates' submit rows by
    reference, settle rows of every kind (duplicated, as a retried
    append leaves them, or ahead of their admission row, as a settle
    can overtake an attached duplicate's row), standalone ``settled``
    rows with and without their dump, and one damaged line — split
    over one to three closed segments and the active file."""
    placed = []  # (position, row)
    workloads = []
    dumped = []  # whether each job's row resolves to a dump
    for index in range(draw(st.integers(1, 8))):
        job_id = f"j{index:06d}"
        workload = draw(st.integers(0, len(WORKLOADS) - 1))
        workloads.append(workload)
        peers = [peer for peer in range(index)
                 if workloads[peer] == workload and dumped[peer]]
        ref = draw(st.sampled_from([None] + peers))
        standalone = draw(st.booleans())
        kind = draw(st.sampled_from(
            ["done", "fallback", "failed", "quarantined"]
            + ([] if standalone else [None])))
        row = {"schema": 1, "event": "submit", "job_id": job_id,
               "seq": index, "report_id": f"r{index:06d}",
               "fingerprint": DUMPS[workload].fingerprint(),
               "priority": 0 if ref is None else 1,
               "true_cause": WORKLOADS[workload].name, "force": False,
               "submitted_at": 1000.0 + index}
        if ref is None:
            row["program"] = {"key": WORKLOADS[workload].name,
                              "source": WORKLOADS[workload].source,
                              "name": WORKLOADS[workload].name}
        else:
            row["program_ref"] = f"j{ref:06d}"
        dumped.append(not standalone or kind == "fallback"
                      or draw(st.booleans()))
        if dumped[-1] and ref is None:
            row["core"] = DUMPS[workload].to_obj()
        elif dumped[-1]:
            row["core_ref"] = f"j{ref:06d}"
        position = 4 * index
        settle = None
        if kind is not None:
            fields = _settle_fields(kind, ref, index)
            event = "done" if kind == "fallback" else kind
            settle = dict(fields, schema=1, event=event, job_id=job_id)
            if standalone:
                row.update(fields, event="settled", kind=event)
        placed.append((position, row))
        if settle is not None and (not standalone or draw(st.booleans())):
            for offset in draw(st.lists(st.sampled_from([-3, 1, 2, 9, 30]),
                                        min_size=1, max_size=2)):
                placed.append((position + offset, settle))
    placed.append((draw(st.integers(-4, 4 * len(workloads) + 30)), None))
    lines = [json.dumps(row) if row is not None else "{damaged"
             for _, row in sorted(placed, key=lambda item: item[0])]
    cuts = sorted(draw(st.lists(st.integers(0, len(lines)), min_size=1,
                                max_size=3)))
    bounds = [0] + cuts + [len(lines)]
    return [lines[start:end] for start, end in zip(bounds, bounds[1:])]


def _replay_view(jobs):
    """Every field replay rebuilds, and the dump of each job that
    reads one."""
    view = []
    for job in jobs:
        verdict = job.verdict
        reads_dump = job.state is JobState.QUEUED or (
            job.state is JobState.DONE and verdict.result.cause is None)
        view.append((
            job.job_id, job.seq, job.report_id, job.state.value,
            job.program, job.fingerprint, job.priority, job.force,
            job.true_cause, job.submitted_at, job.trace_id,
            repr(verdict.result.bucket) if verdict else None,
            verdict.result.exploitable if verdict else None,
            (verdict.seconds, verdict.cached, verdict.dedup_of)
            if verdict else None,
            job.dedup_of, job.error, job.attempts, job.worker_crashes,
            job.finished_at, job.resumed,
            job.core_obj if reads_dump else None))
    return view


@settings(max_examples=150, deadline=None)
@given(journals())
def test_compaction_is_invisible_to_replay(files):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the damaged line
        journal = JobJournal(Path(tmp) / "jobs.jsonl")
        paths = [journal.path.with_name(f"jobs.jsonl.seg-{number:06d}")
                 for number in range(1, len(files))] + [journal.path]
        for path, lines in zip(paths, files):
            path.write_text("".join(line + "\n" for line in lines))
        before = _replay_view(journal.replay(CONFIG))
        rewrite = journal.log.rewrite

        def rewrite_then_crash(path, rows):
            # Each segment is rewritten atomically: a crash after any
            # one of them must leave what replay reads unchanged too.
            written = rewrite(path, rows)
            assert _replay_view(journal.replay(CONFIG)) == before
            return written

        journal.log.rewrite = rewrite_then_crash
        journal.compact_segments()
        assert _replay_view(journal.replay(CONFIG)) == before
        journal.compact_segments()
        assert _replay_view(journal.replay(CONFIG)) == before

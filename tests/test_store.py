"""The report store's incremental writer: :class:`StoreView` renders the
same bytes as the :func:`store_payload` reference after every write,
whatever order verdicts arrive in, and the count-based accuracy metrics
equal their pair-by-pair definitions."""

import json
import sys
import tempfile
import threading
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.rootcause import CauseEvidence, RootCause
from repro.core.triage import (
    BucketAgreement,
    BugReport,
    TriageResult,
    bucket_accuracy,
    misbucketed_fraction,
)
from repro.core.triage_service import (
    CorpusEntry,
    ProgramSpec,
    StoreView,
    TriageCorpus,
    TriagedReport,
    TriageServiceConfig,
    TriageServiceResult,
    TriageStore,
    store_payload,
    triage_corpus,
)
from repro.fuzz.triage_corpus import build_labeled_corpus
from repro.obs.render import parse_metrics
from repro.service.daemon import DaemonConfig, TriageDaemon
from repro.service.jobs import IntakeJob, JobJournal, journal_file_for
from repro.vm.state import PC
from repro.workloads import FIGURE1_OVERFLOW


# ---------------------------------------------------------------------------
# Verdicts: a triaged labeled corpus plus hand-built refinement cases
# ---------------------------------------------------------------------------

def _cause(kind="div-by-zero", trap="div-by-zero", fn="main",
           skel="(sdiv c var)", block="b"):
    return RootCause(kind=kind, description="", pcs=(PC(fn, block, 0),),
                     evidence=CauseEvidence(trap_kind=trap, crash_fn=fn,
                                            expr_skeleton=skel))


def _verdict(rid, program, bucket=None, cause=None, dedup_of=None,
             cached=False):
    bucket = bucket if bucket is not None else cause.signature()
    return TriagedReport(
        result=TriageResult(report_id=rid, bucket=bucket, cause=cause,
                            used_fallback=cause is None),
        program_key=program, fingerprint=f"fp-{rid}",
        seconds=0.00123 * len(rid), dedup_of=dedup_of, cached=cached)


def _hand_built():
    """(verdict, label) pairs that exercise every refinement path:
    family ``F`` merges across programs until ``f3`` (a second leaf
    from program pA) conflicts it; ``fb*`` fall back at F's site and
    attach to F until F conflicts or ``h1`` makes the site ambiguous;
    plus an unattachable per-fingerprint fallback, an annotated bucket,
    a cause without evidence, a dedup child, a cached row and
    unlabeled rows."""
    family = _cause(block="b1")
    site = ("stack", "div-by-zero", "main", ("main:b",))
    return [
        (_verdict("f1", "pA", cause=family), "div"),
        (_verdict("f2", "pB", cause=_cause(block="b2")), "div"),
        (_verdict("f3", "pA", cause=_cause(block="b3")), "div-b3"),
        (_verdict("h1", "pD", cause=_cause(skel="(udiv c in)")), "div"),
        (_verdict("g1", "pA", cause=_cause("buffer-overflow", "oob",
                                           skel="(mem g)")), "oob"),
        (_verdict("g2", "pC", cause=_cause("buffer-overflow", "oob",
                                           skel="(mem g)", block="c")),
         "oob"),
        (_verdict("fb1", "pE", bucket=site), "div"),
        (_verdict("fb2", "pF", bucket=site), None),
        (_verdict("fp1", "pE", bucket=("stack", "div-by-zero", "main",
                                       ("fingerprint", "abc"))), "div"),
        (_verdict("an1", "pB", bucket=("annotated", "known"),
                  cause=family), "div"),
        (_verdict("lg1", "pC", cause=RootCause(
            kind="assert-state", description="", addr=16,
            pcs=(PC("main", "x", 1),))), None),
        (_verdict("d1", "pA", cause=family, dedup_of="f1"), "div"),
        (_verdict("c1", "pG", cause=_cause("buffer-overflow", "oob",
                                           skel="(mem g)", block="d"),
                  cached=True), "oob"),
    ]


@pytest.fixture(scope="module")
def verdicts():
    corpus = build_labeled_corpus(range(9001, 9005), duplicates=2,
                                  shuffle_seed=3)
    result = triage_corpus(corpus, TriageServiceConfig(max_depth=8,
                                                       max_nodes=300))
    labels = {e.report.report_id: e.report.true_cause
              for e in corpus.entries}
    triaged = [(item, labels[item.result.report_id])
               for item in result.reports]
    assert any(item.dedup_of for item, __ in triaged)
    return triaged + _hand_built()


# ---------------------------------------------------------------------------
# (a) every write equals the reference bytes
# ---------------------------------------------------------------------------

_CONFIG = TriageServiceConfig(max_depth=8, max_nodes=300)


def _reference(rows, corpus, complete, interrupted, elapsed):
    """``store_payload`` over ``rows`` ((key, verdict, label), any
    order), encoded the way the store always was."""
    ordered = [item for __, item, __ in sorted(rows, key=lambda r: r[0])]
    if corpus is None:
        corpus = TriageCorpus(
            programs={item.program_key: ProgramSpec(item.program_key, "")
                      for __, item, __ in rows},
            entries=[CorpusEntry(BugReport(item.result.report_id, None,
                                           label), item.program_key)
                     for __, item, label in sorted(rows,
                                                   key=lambda r: r[0])])
    result = TriageServiceResult(
        reports=ordered, elapsed=elapsed,
        triaged=sum(1 for r in ordered
                    if r.dedup_of is None and not r.cached),
        dedup_hits=sum(1 for r in ordered if r.dedup_of is not None),
        cache_hits=sum(1 for r in ordered if r.cached),
        interrupted=interrupted)
    return json.dumps(store_payload(result, corpus, _CONFIG,
                                    complete=complete),
                      indent=1, sort_keys=True) + "\n"


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_every_store_write_equals_the_reference(verdicts, data):
    """Feed verdicts in a random order at random row keys, writing at
    random points with random flags: each written file is byte-identical
    to the reference document over the rows added so far — as a daemon
    store (the rows are the corpus) and as a batch store (scored against
    a fixed corpus, some of it not triaged yet).  A report id filed
    twice switches the view to the reference itself."""
    pool = list(verdicts)
    reused = data.draw(st.booleans(), label="reuse an id")
    if reused:
        # Another report's verdict, filed under an id already in use.
        item, label = pool[data.draw(st.integers(0, len(pool) - 1))]
        other, __ = pool[data.draw(st.integers(0, len(pool) - 1))]
        pool.append((replace(other, result=replace(
            other.result, report_id=item.result.report_id)), label))
    chosen = data.draw(st.lists(st.sampled_from(range(len(pool))),
                                unique=True, min_size=1),
                       label="verdicts, in arrival order")
    keys = data.draw(st.permutations(range(len(pool))), label="row keys")
    batch = data.draw(st.booleans(), label="batch store")
    corpus = None
    if batch:
        corpus = TriageCorpus(
            programs={item.program_key: ProgramSpec(item.program_key, "")
                      for item, __ in pool},
            entries=[CorpusEntry(BugReport(pool[index][0].result.report_id,
                                           None, pool[index][1]),
                                 pool[index][0].program_key)
                     for index in sorted(range(len(pool)),
                                         key=lambda i: keys[i])])
    with tempfile.TemporaryDirectory() as scratch:
        config = replace(_CONFIG, store_path=str(Path(scratch) / "s.json"))
        view = StoreView(config, corpus)
        store = TriageStore(config, view)
        added = []
        for position, index in enumerate(chosen):
            item, label = pool[index]
            view.add(keys[index], item, label)
            added.append((keys[index], item, label))
            last = position == len(chosen) - 1
            if last or data.draw(st.booleans(), label="write here"):
                complete = data.draw(st.booleans(), label="complete")
                interrupted = data.draw(st.booleans(), label="interrupted")
                elapsed = data.draw(st.floats(0.0, 100.0), label="elapsed")
                store.flush(complete=complete, interrupted=interrupted,
                            elapsed=elapsed)
                assert Path(store.path).read_text() == _reference(
                    added, corpus, complete, interrupted, elapsed)
        document = json.loads(Path(store.path).read_text())
    if reused:
        return
    payload = view.buckets_payload()
    assert payload["buckets"] == document["buckets"]
    assert payload["hierarchy"] == document["bucketing"]["hierarchy"]
    assert payload["stats"] == document["bucketing"]["stats"]
    raw = {}
    for row in document["results"]:
        raw.setdefault(row["raw_bucket"], []).append(row["report_id"])
    assert payload["raw_buckets"] == raw


def test_daemon_store_writes_encode_only_new_and_rebucketed_rows(tmp_path):
    """In the daemon, each store write encodes the rows added since the
    previous write plus the rows re-bucketed since then, as
    ``res_store_rows_encoded_total`` counts them — never the history.
    The verdicts settle on a fleet peer that never runs (its journal is
    written here) and arrive through the daemon's peer sync: a family
    across two programs with two stack fallbacks attached at its trap
    site, then a second leaf from one program that conflicts the family
    and detaches the fallbacks, then unrelated reports."""
    dump = FIGURE1_OVERFLOW.trigger()
    trap_kind, crash_fn = dump.trap.kind.value, dump.trap.pc.function
    daemon = TriageDaemon(DaemonConfig(
        service=replace(_CONFIG, store_path=str(tmp_path / "store.json")),
        spool_dir=str(tmp_path / "spool"), workers=0, node_id="a",
        peers={"a": "http://127.0.0.1:9", "ghost": "http://127.0.0.1:9"}))
    ghost = JobJournal(tmp_path / "spool" / journal_file_for("ghost"))
    core_obj = dump.to_obj()

    def settle_on_ghost(seq, program, block=None):
        job = IntakeJob(
            job_id=f"ghost-j{seq:06d}", seq=seq, report_id=f"r{seq}",
            program=ProgramSpec(program, f"// {program}"),
            core_obj=core_obj, fingerprint=f"fp{seq}", priority=0,
            true_cause="overflow", submitted_at=1000.0 + seq)
        cause = None if block is None else _cause(
            "buffer-overflow", trap_kind, crash_fn, "(mem g)", block)
        # The journal keeps the cause; replay re-derives the bucket.
        job.verdict = _verdict(job.report_id, program, bucket=("replay",),
                               cause=cause)
        ghost.record_submit(job)
        ghost.record_done(job)

    def rows_encoded():
        return parse_metrics(daemon.metrics_text())[
            "res_store_rows_encoded_total"]

    steps = [[("pA", "b1"), ("pB", "b2"), ("pC", None), ("pD", None)],
             [("pA", "b3")],
             [("pE", "e1"), ("pF", None)]]
    previous, seq = {}, 0
    for step in steps:
        for program, block in step:
            settle_on_ghost(seq, program, block)
            seq += 1
        encoded = rows_encoded()
        daemon._fleet_sync(force=True)
        daemon.flush_store()
        rows = {row["report_id"]: row["bucket"] for row in json.loads(
            (tmp_path / "store.json").read_text())["results"]}
        assert len(rows) == seq
        rebucketed = {rid for rid in previous if rows[rid] != previous[rid]}
        if len(step) == 1:
            assert rebucketed == {"r0", "r1", "r2", "r3"}
        assert rows_encoded() - encoded == len(step) + len(rebucketed)
        previous = rows
    metrics = parse_metrics(daemon.metrics_text())
    assert metrics["res_store_writes_total"] == len(steps)
    assert metrics["res_store_write_seconds_total"] > 0
    daemon.shutdown()


def test_concurrent_folds_reads_and_writes_lose_no_verdict(tmp_path):
    """Submitters, ``GET /buckets`` readers, store writers, the monitor
    and a worker share the view under a tiny switch interval: every
    settled job lands in the final store exactly once, in submission
    order, and the store equals the reference over the settled jobs."""
    dump = FIGURE1_OVERFLOW.trigger()
    program = {"key": "figure1_overflow", "source": FIGURE1_OVERFLOW.source,
               "name": "figure1_overflow"}
    store_path = tmp_path / "store.json"
    daemon = TriageDaemon(DaemonConfig(
        service=replace(_CONFIG, store_path=str(store_path)),
        spool_dir=str(tmp_path / "spool"), workers=1))
    daemon.start()
    core = dump.to_json()
    assert daemon.submit(program, core, report_id="rep")[0] == 202
    assert daemon.wait_idle(60)
    errors = []

    def loop(body, rounds):
        def run():
            try:
                for index in range(rounds):
                    body(index)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
        return threading.Thread(target=run)

    threads = [loop(lambda i, t=t: daemon.submit(
                   program, core, report_id=f"t{t}-{i}"), 100)
               for t in range(3)]
    threads += [loop(lambda i: daemon.buckets_payload(), 100)
                for __ in range(2)]
    threads += [loop(lambda i: daemon.flush_store(), 30) for __ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert daemon.wait_idle(60)
    daemon.shutdown(drain=True)
    written = json.loads(store_path.read_text())
    done = sorted((job for job in daemon._settled_list
                   if job.verdict is not None), key=lambda job: job.order_key)
    assert [row["report_id"] for row in written["results"]] \
        == [job.report_id for job in done]
    assert len(done) == 301
    reference = json.loads(_reference(
        [(job.order_key, job.verdict, job.true_cause) for job in done],
        None, True, False, 1.0))
    for document in (written, reference):  # wall clock aside
        del document["timing"]["elapsed"], \
            document["timing"]["reports_per_sec"]
    assert written == reference
    assert daemon.buckets_payload()["buckets"] == written["buckets"]


# ---------------------------------------------------------------------------
# (c) count-based accuracy == the pairwise definitions
# ---------------------------------------------------------------------------

def _pairwise_bucket_accuracy(results, reports, exclude=None):
    truth = {r.report_id: r.true_cause for r in reports}
    exclude = exclude or set()
    items = [(res.report_id, res.bucket) for res in results
             if truth.get(res.report_id) is not None
             and res.report_id not in exclude]
    if len(items) < 2:
        return 1.0
    agree = total = 0
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            same_bucket = items[i][1] == items[j][1]
            same_cause = truth[items[i][0]] == truth[items[j][0]]
            total += 1
            if same_bucket == same_cause:
                agree += 1
    return agree / total


def _pairwise_misbucketed_fraction(results, reports):
    truth = {r.report_id: r.true_cause for r in reports}
    labeled = [res for res in results
               if truth.get(res.report_id) is not None]
    by_cause = {}
    for res in labeled:
        counts = by_cause.setdefault(truth[res.report_id], {})
        counts[res.bucket] = counts.get(res.bucket, 0) + 1
    majority = {cause: min(counts, key=lambda b, counts=counts:
                           (-counts[b], repr(b)))
                for cause, counts in by_cause.items()}
    wrong = sum(1 for res in labeled
                if res.bucket != majority[truth[res.report_id]])
    return wrong / len(labeled) if labeled else 0.0


_labelings = st.lists(
    st.tuples(st.sampled_from(["A", "B", "C", ("t", 1), ("t", 2)]),
              st.sampled_from(["x", "y", "z", None]),
              st.booleans()),
    max_size=40)


@settings(max_examples=300, deadline=None)
@given(_labelings)
def test_count_accuracy_equals_pairwise(labeling):
    """Exact float equality on random labelings: few buckets and causes
    make majority ties common, and the ``repr`` tie-break orders the
    tuple buckets differently from the string ones."""
    results = [TriageResult(f"r{i}", bucket, None, False)
               for i, (bucket, __, __) in enumerate(labeling)]
    reports = [BugReport(f"r{i}", None, cause)
               for i, (__, cause, __) in enumerate(labeling)]
    exclude = {f"r{i}" for i, (__, __, dropped) in enumerate(labeling)
               if dropped}
    assert bucket_accuracy(results, reports, exclude) \
        == _pairwise_bucket_accuracy(results, reports, exclude)
    assert misbucketed_fraction(results, reports) \
        == _pairwise_misbucketed_fraction(results, reports)


@settings(max_examples=200, deadline=None)
@given(_labelings, st.randoms(use_true_random=False))
def test_agreement_counts_survive_removal(labeling, rng):
    """Removing reports leaves the counts a fresh count of the rest
    would hold (what the store does when a report changes bucket)."""
    rows = [(bucket, cause, not dropped)
            for bucket, cause, dropped in labeling if cause is not None]
    counts = BucketAgreement()
    for row in rows:
        counts.add(*row)
    kept = list(rows)
    rng.shuffle(kept)
    for row in kept[:rng.randint(0, len(kept))]:
        counts.remove(*row)
        kept.remove(row)
    fresh = BucketAgreement()
    for row in kept:
        fresh.add(*row)
    assert counts.bucket_accuracy() == fresh.bucket_accuracy()
    assert counts.misbucketed_fraction() == fresh.misbucketed_fraction()


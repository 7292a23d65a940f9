"""The report store's incremental writer: :class:`StoreView` renders the
same bytes as a from-scratch reference after every write, whatever
order verdicts arrive in and however often a report id is filed, and
the count-based accuracy metrics equal their pair-by-pair definitions.

The reference is the two-pass split/merge refinement (collect the
families, then assign every row), keyed per row, plus the store
document built row by row from it.  ``tests/test_fleet.py`` checks the
:class:`IncrementalRefiner` against the same refinement."""

import json
import sys
import tempfile
import threading
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bucketing import (
    BucketRefinement,
    _fallback_site,
    _is_annotated,
)
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
    TriageStore,
    triage_corpus,
)
from repro.fuzz.triage_corpus import build_labeled_corpus
from repro.obs.render import parse_metrics
from repro.service.daemon import DaemonConfig, TriageDaemon
from repro.service.jobs import (
    IntakeJob, JobJournal, JobState, journal_file_for)
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
# The reference: two-pass refinement and the document built from it
# ---------------------------------------------------------------------------

_CONFIG = TriageServiceConfig(max_depth=8, max_nodes=300)


def reference_refinement(keyed):
    """Split/merge refinement over ``(key, verdict)`` pairs in two
    passes over all of them: collect the families (and which signature
    leaves each program contributes), then assign every member its
    final bucket.  The assignment is keyed by ``key``; report ids are
    only the listed members of the hierarchy."""
    refinement = BucketRefinement()

    # Pass 1 — collect families from explained, unannotated causes,
    # tracking which signature leaves each *program* contributes.
    families = {}
    for __, item in keyed:
        result = item.result
        if result.cause is None or _is_annotated(result.bucket):
            continue
        fam = result.cause.family()
        if fam is None:
            continue
        entry = families.setdefault(
            fam, {"leaves": set(), "per_program": {}})
        entry["leaves"].add(result.bucket)
        program = getattr(item, "program_key", "")
        entry["per_program"].setdefault(program, set()).add(result.bucket)

    # The merge-safety guard: a family key that fails to separate two
    # causes the signature *did* separate within one program is too
    # coarse for that family — refuse the merge (conflicted family).
    mergeable = {
        fam for fam, entry in families.items()
        if all(len(leaves) <= 1
               for leaves in entry["per_program"].values())
    }
    # Site index for fallback attachment: (trap kind, crashing fn) →
    # the families that trap there.  Conflicted families still count
    # as candidates (they make a site ambiguous) but never adopt.
    by_site = {}
    for fam in families:
        by_site.setdefault((fam[2], fam[3]), set()).add(fam)

    # Pass 2 — assign every member its final bucket.
    merged_leaves = sum(len(families[fam]["leaves"]) - 1
                        for fam in mergeable)
    attached = ambiguous = legacy = 0
    member_ids = {}
    for key, item in keyed:
        result = item.result
        final = result.bucket
        if _is_annotated(result.bucket):
            pass  # developer feedback outranks refinement
        elif result.cause is not None:
            fam = result.cause.family()
            if fam in mergeable:
                final = ("family",) + fam
            elif fam is None:
                legacy += 1  # pre-evidence cause: keep its leaf bucket
        else:
            site = _fallback_site(result.bucket)
            if site is not None and site[2]:
                candidates = by_site.get((site[0], site[1]), ())
                if len(candidates) == 1 \
                        and next(iter(candidates)) in mergeable:
                    final = ("family",) + next(iter(candidates))
                    attached += 1
                elif candidates:
                    ambiguous += 1
        refinement.assignment[key] = final
        member_ids.setdefault(final, []).append(
            (result.report_id, result.bucket))

    # Hierarchy: every merged family bucket with its leaf membership.
    for fam in sorted(mergeable, key=repr):
        members = member_ids.get(("family",) + fam, [])
        leaves = {}
        for report_id, leaf in members:
            leaves.setdefault(repr(leaf), []).append(report_id)
        refinement.hierarchy[repr(("family",) + fam)] = {
            "cause_kind": fam[1],
            "trap_kind": fam[2],
            "function": fam[3],
            "skeleton": fam[4],
            "reports": len(members),
            "leaves": {leaf: sorted(ids)
                       for leaf, ids in sorted(leaves.items())},
        }

    refinement.stats = {
        "families": len(mergeable),
        "conflicted_families": len(families) - len(mergeable),
        "merged_leaves": merged_leaves,
        "attached_fallbacks": attached,
        "ambiguous_fallbacks": ambiguous,
        "legacy_causes": legacy,
        "reports": len(refinement.assignment),
    }
    return refinement


def _reference(rows, corpus, complete, interrupted, elapsed):
    """The store document over ``rows`` ((key, verdict, label), any
    order), built from scratch and encoded the way the store always
    was: rows in key order, each its own member of the refinement, so
    a reused report id is another filing.  A batch store (``corpus``
    given) counts the corpus; a daemon store counts its rows."""
    ordered = sorted(rows, key=lambda row: row[0])
    refinement = reference_refinement(
        [(position, item) for position, (__, item, __) in enumerate(ordered)])
    refined = [refinement.assignment[position]
               for position in range(len(ordered))]
    buckets, results = {}, []
    for (__, item, __), bucket in zip(ordered, refined):
        result = item.result
        buckets.setdefault(repr(bucket), []).append(result.report_id)
        results.append({
            "report_id": result.report_id,
            "program": item.program_key,
            "bucket": repr(bucket),
            "raw_bucket": repr(result.bucket),
            "cause_kind": result.cause.kind if result.cause else None,
            "used_fallback": result.used_fallback,
            "exploitable": result.exploitable,
            "fingerprint": item.fingerprint,
            "seconds": round(item.seconds, 4),
            "dedup_of": item.dedup_of,
            "cached": item.cached,
        })
    if corpus is None:
        counts = {"entries": len(ordered),
                  "programs": len({item.program_key
                                   for __, item, __ in ordered}),
                  "labeled": sum(1 for __, __, label in ordered
                                 if label is not None)}
    else:
        counts = {"entries": len(corpus.entries),
                  "programs": len(corpus.programs),
                  "labeled": corpus.labeled_count()}
    items = [item for __, item, __ in ordered]
    document = {
        "complete": complete,
        "interrupted": interrupted,
        "config": {"jobs": _CONFIG.jobs, "max_depth": _CONFIG.max_depth,
                   "max_nodes": _CONFIG.max_nodes,
                   "stack_depth": _CONFIG.stack_depth,
                   "incremental": _CONFIG.incremental},
        "corpus": counts,
        "buckets": buckets,
        "results": results,
        "timing": {
            "elapsed": round(elapsed, 4),
            "triaged": sum(1 for item in items
                           if item.dedup_of is None and not item.cached),
            "dedup_hits": sum(1 for item in items
                              if item.dedup_of is not None),
            "cache_hits": sum(1 for item in items if item.cached),
            "reports_per_sec": round(
                len(items) / elapsed if elapsed else 0.0, 3),
        },
        "bucketing": {"hierarchy": refinement.hierarchy,
                      "stats": refinement.stats},
    }
    if counts["labeled"] >= 2 and ordered:
        # Scored per row (a position stands in for the report id), on
        # the refined buckets, with dedup children out of pair counting.
        scored = [TriageResult(str(position), bucket, None, False)
                  for position, bucket in enumerate(refined)]
        truth = [BugReport(str(position), None, label)
                 for position, (__, __, label) in enumerate(ordered)]
        children = {str(position) for position, item in enumerate(items)
                    if item.dedup_of is not None}
        document["accuracy"] = {
            "bucket_accuracy": round(
                bucket_accuracy(scored, truth, exclude=children), 4),
            "misbucketed_fraction": round(
                misbucketed_fraction(scored, truth), 4),
        }
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# (a) every write equals the reference bytes
# ---------------------------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_every_store_write_equals_the_reference(verdicts, data):
    """Feed verdicts in a random order at random row keys, writing at
    random points with random flags: each written file is byte-identical
    to the reference document over the rows added so far — as a daemon
    store (the rows are the corpus, and a report id may be filed again)
    and as a batch store (scored against a fixed corpus, some of it not
    triaged yet).  ``GET /buckets`` agrees with the last write."""
    pool = list(verdicts)
    batch = data.draw(st.booleans(), label="batch store")
    refilings = 0 if batch else data.draw(st.integers(0, 3),
                                          label="ids filed again")
    for __ in range(refilings):
        # An id already in use, filed again with its own verdict (a
        # re-submission) or with another report's.
        index = data.draw(st.integers(0, len(pool) - 1))
        other = data.draw(st.one_of(st.just(index),
                                    st.integers(0, len(pool) - 1)))
        (item, label), (again, __) = pool[index], pool[other]
        pool.append((replace(again, result=replace(
            again.result, report_id=item.result.report_id)), label))
    chosen = data.draw(st.lists(st.sampled_from(range(len(pool))),
                                unique=True, min_size=1),
                       label="verdicts, in arrival order")
    keys = data.draw(st.permutations(range(len(pool))), label="row keys")
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
    site, one member and one fallback each filed again under its report
    id, then a second leaf from one program that conflicts the family
    and detaches the fallbacks (every filing moves), then unrelated
    reports."""
    dump = FIGURE1_OVERFLOW.trigger()
    trap_kind, crash_fn = dump.trap.kind.value, dump.trap.pc.function
    daemon = TriageDaemon(DaemonConfig(
        service=replace(_CONFIG, store_path=str(tmp_path / "store.json")),
        spool_dir=str(tmp_path / "spool"), workers=0, node_id="a",
        peers={"a": "http://127.0.0.1:9", "ghost": "http://127.0.0.1:9"}))
    ghost = JobJournal(tmp_path / "spool" / journal_file_for("ghost"))
    core_obj = dump.to_obj()

    def settle_on_ghost(seq, program, block=None, report_id=None):
        job = IntakeJob(
            job_id=f"ghost-j{seq:06d}", seq=seq,
            report_id=report_id or f"r{seq}",
            program=ProgramSpec(program, f"// {program}"),
            core_obj=core_obj, fingerprint=f"fp{seq}", priority=0,
            true_cause="overflow", submitted_at=1000.0 + seq)
        cause = None if block is None else _cause(
            "buffer-overflow", trap_kind, crash_fn, "(mem g)", block)
        # The journal keeps the cause; replay re-derives the bucket.
        job.verdict = _verdict(job.report_id, program, bucket=("replay",),
                               cause=cause)
        ghost.record_submit(job)
        job.state = JobState.DONE
        ghost.record_done([job])

    def rows_encoded():
        return parse_metrics(daemon.metrics_text())[
            "res_store_rows_encoded_total"]

    steps = [[("pA", "b1"), ("pB", "b2"), ("pC", None), ("pD", None),
              ("pA", "b1", "r0"), ("pC", None, "r2")],
             [("pA", "b3")],
             [("pE", "e1"), ("pF", None)]]
    previous, seq = [], 0
    for step in steps:
        for filing in step:
            settle_on_ghost(seq, *filing)
            seq += 1
        encoded = rows_encoded()
        daemon._fleet_sync(force=True)
        daemon.flush_store()
        rows = [(row["report_id"], row["bucket"]) for row in json.loads(
            (tmp_path / "store.json").read_text())["results"]]
        assert len(rows) == seq
        rebucketed = [rows[index][0]
                      for index, row in enumerate(previous)
                      if rows[index] != row]
        if len(step) == 1:
            assert rebucketed == ["r0", "r1", "r2", "r3", "r0", "r2"]
        assert rows_encoded() - encoded == len(step) + len(rebucketed)
        previous = rows
    metrics = parse_metrics(daemon.metrics_text())
    assert metrics["res_store_writes_total"] == len(steps)
    assert metrics["res_store_write_seconds_total"] > 0
    daemon.shutdown()


def test_a_reused_report_id_is_another_filing(tmp_path):
    """Submit ``core-1``, submit it again (an instant duplicate), then
    force a fresh drive of it: the store files ``core-1`` three times,
    each filing its own row under its own refined bucket and equal to
    the per-filing reference, ``GET /buckets`` agrees, and a write with
    nothing new encodes no row."""
    dump = FIGURE1_OVERFLOW.trigger()
    program = {"key": "figure1_overflow", "source": FIGURE1_OVERFLOW.source,
               "name": "figure1_overflow"}
    store_path = tmp_path / "store.json"
    daemon = TriageDaemon(DaemonConfig(
        service=replace(_CONFIG, store_path=str(store_path)),
        spool_dir=str(tmp_path / "spool"), workers=1))
    daemon.start()
    try:
        statuses = []
        for force in (False, False, True):
            statuses.append(daemon.submit(program, dump.to_json(),
                                          report_id="core-1",
                                          true_cause="overflow",
                                          force=force)[0])
            assert daemon.wait_idle(60)
        assert statuses == [202, 200, 202]
        daemon.flush_store()
        encoded = parse_metrics(daemon.metrics_text())[
            "res_store_rows_encoded_total"]
        daemon.flush_store()
        assert parse_metrics(daemon.metrics_text())[
            "res_store_rows_encoded_total"] == encoded
        written = json.loads(store_path.read_text())
        buckets = daemon.buckets_payload()
    finally:
        daemon.shutdown()
    done = sorted((job for job in daemon._settled_list
                   if job.verdict is not None), key=lambda job: job.order_key)
    assert [job.verdict.dedup_of for job in done] == [None, "core-1", None]
    assert [row["report_id"] for row in written["results"]] \
        == ["core-1"] * 3
    (family, ids), = written["buckets"].items()
    assert family.startswith("('family'") and ids == ["core-1"] * 3
    assert list(written["bucketing"]["hierarchy"][family]["leaves"]
                .values()) == [["core-1"] * 3]
    assert written["corpus"]["entries"] == 3
    reference = json.loads(_reference(
        [(job.order_key, job.verdict, job.true_cause) for job in done],
        None, written["complete"], False, 1.0))
    for document in (written, reference):  # wall clock aside
        del document["timing"]["elapsed"], \
            document["timing"]["reports_per_sec"]
    assert written == reference
    assert buckets["buckets"] == written["buckets"]
    assert buckets["hierarchy"] == written["bucketing"]["hierarchy"]
    assert buckets["stats"] == written["bucketing"]["stats"]


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


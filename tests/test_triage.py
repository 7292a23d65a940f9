"""TriageEngine paths, the §3.1 accuracy metrics, and the batch triage
service (dedup, sharding, store, serial-vs-parallel equality)."""

import json

import pytest

from repro.core import RESConfig
from repro.core.triage import (
    BugReport,
    TriageAnnotation,
    TriageEngine,
    TriageResult,
    bucket_accuracy,
    misbucketed_fraction,
)
from repro.core.triage_service import (
    CorpusEntry,
    ProgramSpec,
    TriageCorpus,
    TriageServiceConfig,
    refined_results,
    triage_corpus,
)
from repro.fuzz.triage_corpus import ARM_CAUSE_NAMES, build_labeled_corpus
from repro.workloads import TAINTED_OVERFLOW, TRIAGE_PROGRAM, service_corpus


# ---------------------------------------------------------------------------
# TriageEngine paths
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_corpus():
    return service_corpus(8, seed=3)


def test_annotation_match_bucketing(small_corpus):
    """Developer feedback (§3.1): a matched cause lands in the named
    annotation bucket instead of its raw signature bucket."""
    engine = TriageEngine(
        TRIAGE_PROGRAM.module, RESConfig(max_depth=24, max_nodes=4000),
        annotations=[TriageAnnotation(
            name="known-overflow",
            matcher=lambda cause: any(pc.function == "check"
                                      for pc in cause.pcs))])
    overflow = next(e.report for e in small_corpus.entries
                    if e.report.true_cause == "overflow-into-state")
    result = engine.triage_one(overflow)
    assert result.bucket == ("annotated", "known-overflow")
    assert not result.used_fallback
    assert result.cause is not None
    # the logic-store cause does not match: raw signature bucket
    logic = next(e.report for e in small_corpus.entries
                 if e.report.true_cause == "logic-store")
    other = engine.triage_one(logic)
    assert other.bucket == other.cause.signature()


def test_wer_fallback_on_unexplainable_report(small_corpus):
    """Graceful degradation: when RES cannot explain a report within
    budget, triage falls back to a WER-style stack signature qualified
    by the trap site (so refinement can attach it to a cause family)."""
    report = small_corpus.entries[0].report
    engine = TriageEngine(TRIAGE_PROGRAM.module,
                          RESConfig(max_depth=0, max_nodes=1),
                          stack_depth=5)
    result = engine.triage_one(report)
    assert result.used_fallback
    assert result.cause is None
    trap = report.coredump.trap
    assert result.bucket == (
        "stack", trap.kind.value, trap.pc.function,
        report.coredump.call_stack_signature(5))


def test_empty_stack_fallback_gets_per_fingerprint_bucket(small_corpus):
    """An empty stack signature used to land every unexplained crash in
    one bare ``("stack", ())`` mega-bucket; it must fall back to a
    per-fingerprint bucket instead (stack_depth=0 yields the empty
    signature for any dump)."""
    from repro.core.triage import synthesize_result

    r1 = small_corpus.entries[0].report
    r2 = next(e.report for e in small_corpus.entries
              if e.report.coredump.fingerprint()
              != r1.coredump.fingerprint())
    a = synthesize_result(r1, None, False, stack_depth=0)
    b = synthesize_result(r2, None, False, stack_depth=0)
    assert a.used_fallback and b.used_fallback
    assert a.bucket != b.bucket
    assert a.bucket[0] == "stack"
    assert a.bucket[3] == ("fingerprint", r1.coredump.fingerprint())


def test_exploitable_propagates_to_result():
    """A suffix with a tainted store must mark the triage result
    exploitable (the §3.1 prioritization signal)."""
    dump = TAINTED_OVERFLOW.trigger()
    engine = TriageEngine(TAINTED_OVERFLOW.module,
                          RESConfig(max_depth=12, max_nodes=4000))
    result = engine.triage_one(
        BugReport(report_id="x1", coredump=dump))
    assert result.exploitable


def test_unexploitable_report_not_flagged(small_corpus):
    engine = TriageEngine(TRIAGE_PROGRAM.module,
                          RESConfig(max_depth=24, max_nodes=4000))
    logic = next(e.report for e in small_corpus.entries
                 if e.report.true_cause == "logic-store")
    assert not engine.triage_one(logic).exploitable


# ---------------------------------------------------------------------------
# Accuracy-metric regressions (unlabeled reports must not count)
# ---------------------------------------------------------------------------

def _report(rid, cause):
    return BugReport(report_id=rid, coredump=None, true_cause=cause)


def _result(rid, bucket):
    return TriageResult(report_id=rid, bucket=bucket, cause=None,
                        used_fallback=False)


def test_bucket_accuracy_ignores_unlabeled_pairs():
    """Two unlabeled reports do NOT share a true cause: ``None == None``
    must not count as an agreeing (or disagreeing) pair."""
    reports = [_report("a", "c1"), _report("b", "c1"),
               _report("u1", None), _report("u2", None)]
    # labeled pair bucketed together (correct); unlabeled pair split
    results = [_result("a", "B1"), _result("b", "B1"),
               _result("u1", "B2"), _result("u2", "B3")]
    assert bucket_accuracy(results, reports) == 1.0
    # the old metric scored the same corpus 3/6 by counting None==None
    # pairs as shared-cause and unlabeled-vs-labeled as distinct-cause
    together = [_result("a", "B1"), _result("b", "B1"),
                _result("u1", "B2"), _result("u2", "B2")]
    assert bucket_accuracy(together, reports) == 1.0


def test_bucket_accuracy_all_unlabeled_is_vacuous():
    reports = [_report("u1", None), _report("u2", None)]
    results = [_result("u1", "B1"), _result("u2", "B2")]
    assert bucket_accuracy(results, reports) == 1.0


def test_bucket_accuracy_still_penalizes_labeled_mistakes():
    reports = [_report("a", "c1"), _report("b", "c2"),
               _report("u", None)]
    results = [_result("a", "B1"), _result("b", "B1"),
               _result("u", "B1")]  # merged distinct causes: wrong
    assert bucket_accuracy(results, reports) == 0.0


def test_misbucketed_fraction_excludes_unlabeled():
    """Unlabeled reports must join neither the majority map (they are
    not one shared pseudo-cause) nor the numerator/denominator."""
    reports = [_report("a", "c1"), _report("b", "c1"),
               _report("u1", None), _report("u2", None),
               _report("u3", None)]
    results = [_result("a", "B1"), _result("b", "B1"),
               _result("u1", "B2"), _result("u2", "B3"),
               _result("u3", "B4")]
    assert misbucketed_fraction(results, reports) == 0.0


def test_misbucketed_fraction_counts_labeled_minority():
    reports = [_report(r, "c1") for r in ("a", "b", "c")] \
        + [_report("u", None)]
    results = [_result("a", "B1"), _result("b", "B1"),
               _result("c", "B2"), _result("u", "B9")]
    # 1 of 3 labeled reports off the majority bucket
    assert misbucketed_fraction(results, reports) == pytest.approx(1 / 3)


def test_misbucketed_fraction_all_unlabeled_is_zero():
    reports = [_report("u1", None), _report("u2", None)]
    results = [_result("u1", "B1"), _result("u2", "B2")]
    assert misbucketed_fraction(results, reports) == 0.0


def test_misbucketed_fraction_tie_break_is_order_independent():
    """A deliberate 2-2 majority tie: whichever bucket the iteration
    happens to meet first must NOT decide the election (the old
    ``max(..., key=get)`` resolved ties by dict insertion order, so the
    same corpus could score differently across shard orderings).  Ties
    break by (count, stable bucket repr) — here "A1" < "B2" — and every
    permutation of the result list must agree."""
    import itertools

    reports = [_report(r, "c1") for r in ("a", "b", "c", "d")]
    results = [_result("a", "B2"), _result("b", "B2"),
               _result("c", "A1"), _result("d", "A1")]
    scores = {misbucketed_fraction(list(perm), reports)
              for perm in itertools.permutations(results)}
    assert scores == {0.5}


def test_bucket_accuracy_excludes_dedup_children():
    """A filed duplicate copies its representative's verdict verbatim;
    counting its pairs re-counts the representative's (in)correctness
    as independent evidence.  Here the representative "a" is
    misbucketed with cause c2's report, but its 3 duplicate copies
    pair "correctly" with it and each other (same bucket, same cause)
    — without the exclusion they inflate the score of a triage that
    got 2 of its 3 genuine pairs wrong."""
    reports = [_report("a", "c1"), _report("b", "c1"),
               _report("x", "c2")] \
        + [_report(f"a{i}", "c1") for i in range(3)]
    results = [_result("a", "BAD"), _result("b", "B1"),
               _result("x", "BAD")] \
        + [_result(f"a{i}", "BAD") for i in range(3)]
    dedup_children = {"a0", "a1", "a2"}
    with_copies = bucket_accuracy(results, reports)
    deduped = bucket_accuracy(results, reports, exclude=dedup_children)
    # a-b split (wrong), a-x merged (wrong), b-x split (right) -> 1/3
    assert deduped == pytest.approx(1 / 3)
    assert with_copies == pytest.approx(7 / 15)  # inflated by copies


# ---------------------------------------------------------------------------
# Coredump fingerprints
# ---------------------------------------------------------------------------

def test_fingerprint_stable_across_json_round_trip(small_corpus):
    from repro.vm.coredump import Coredump

    dump = small_corpus.entries[0].report.coredump
    round_tripped = Coredump.from_json(dump.to_json())
    assert dump.fingerprint() == round_tripped.fingerprint()


def test_fingerprint_equals_the_json_round_trip_digest():
    """Hashing the dump's dict directly gives the digest every dedup
    and cache key was built with: sha256 over the key-sorted compact
    JSON of a ``to_json`` round trip — on the labeled fuzz dumps and on
    every registry workload's dump."""
    import hashlib

    from repro.workloads import REGISTRY

    corpus = build_labeled_corpus(list(range(9000, 9056))
                                  + list(range(9100, 9220)))
    dumps = [entry.report.coredump for entry in corpus.entries]
    dumps += [REGISTRY.get(name).trigger() for name in REGISTRY.names()]
    assert len(dumps) > 150
    for dump in dumps:
        canonical = json.dumps(json.loads(dump.to_json()), sort_keys=True,
                               separators=(",", ":"))
        assert dump.fingerprint() \
            == hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def test_fingerprint_distinguishes_dumps(small_corpus):
    dumps = [e.report.coredump for e in small_corpus.entries]
    causes = {e.report.true_cause for e in small_corpus.entries}
    prints = {d.fingerprint() for d in dumps}
    # 2 causes x 2 routes of deterministic runs: >= |causes| distinct
    # dumps, and every repeat of the same (cause, route) collides
    assert len(prints) >= len(causes)
    assert len(prints) < len(dumps)


# ---------------------------------------------------------------------------
# The batch triage service
# ---------------------------------------------------------------------------

def test_service_matches_plain_engine(small_corpus):
    """The service (dedup + groups) must bucket exactly like a plain
    per-report engine sweep."""
    engine = TriageEngine(TRIAGE_PROGRAM.module,
                          RESConfig(max_depth=16, max_nodes=4000))
    plain = engine.triage([e.report for e in small_corpus.entries])
    service = triage_corpus(
        small_corpus, TriageServiceConfig(jobs=1, max_depth=16,
                                          max_nodes=4000))
    assert [r.bucket for r in service.results] == [r.bucket for r in plain]
    assert [r.report_id for r in service.results] \
        == [r.report_id for r in plain]
    assert [r.exploitable for r in service.results] \
        == [r.exploitable for r in plain]


def test_service_dedups_identical_coredumps(small_corpus):
    service = triage_corpus(
        small_corpus, TriageServiceConfig(jobs=1, max_depth=16,
                                          max_nodes=4000))
    assert service.dedup_hits > 0
    assert service.triaged + service.dedup_hits == len(small_corpus.entries)
    for item in service.reports:
        if item.dedup_of is not None:
            assert item.seconds == 0.0
            rep = next(r for r in service.reports
                       if r.result.report_id == item.dedup_of)
            assert rep.dedup_of is None
            assert rep.result.bucket == item.result.bucket
            assert rep.fingerprint == item.fingerprint


def test_serial_and_parallel_buckets_identical_on_mixed_corpus():
    """ISSUE acceptance: parallel triage buckets byte-identically to
    serial triage on a corpus mixing fuzz programs with the synthetic
    §3.1 program."""
    fuzz_part = build_labeled_corpus(range(9100, 9106), duplicates=2,
                                     shuffle_seed=5)
    synth_part = service_corpus(6, seed=2)
    mixed = TriageCorpus(
        programs={**fuzz_part.programs, **synth_part.programs},
        entries=fuzz_part.entries + synth_part.entries)
    serial = triage_corpus(mixed, TriageServiceConfig(jobs=1))
    parallel = triage_corpus(mixed, TriageServiceConfig(jobs=2))
    assert [r.bucket for r in serial.results] \
        == [r.bucket for r in parallel.results]
    assert [r.report_id for r in serial.results] \
        == [r.report_id for r in parallel.results]
    reports = mixed.reports
    assert bucket_accuracy(serial.results, reports) \
        == bucket_accuracy(parallel.results, reports)


def test_single_program_corpus_shards_across_jobs(small_corpus):
    """A one-program corpus (the common production shape) must still
    fan out: groups are chunked, not one-shard-per-program — and the
    chunked run stays byte-identical to serial."""
    serial = triage_corpus(small_corpus,
                           TriageServiceConfig(jobs=1, max_depth=16,
                                               max_nodes=4000))
    parallel = triage_corpus(small_corpus,
                             TriageServiceConfig(jobs=2, max_depth=16,
                                                 max_nodes=4000))
    assert [r.bucket for r in serial.results] \
        == [r.bucket for r in parallel.results]
    assert [r.report_id for r in serial.results] \
        == [r.report_id for r in parallel.results]


def test_pool_error_propagates_without_leaking_workers(small_corpus):
    """A failing progress callback must surface its own error (not a
    masked pool shutdown error) and leave no live workers behind."""
    import multiprocessing as mp

    before = {p.pid for p in mp.active_children()}

    def exploding_progress(landed):
        raise RuntimeError("progress died")

    with pytest.raises(RuntimeError, match="progress died"):
        triage_corpus(small_corpus,
                      TriageServiceConfig(jobs=2, max_depth=16,
                                          max_nodes=4000),
                      progress=exploding_progress)
    leaked = [p for p in mp.active_children() if p.pid not in before]
    assert not leaked, f"zombie triage workers: {leaked}"


def test_service_streams_anytime_results(small_corpus):
    seen = []
    triage_corpus(small_corpus,
                  TriageServiceConfig(jobs=1, max_depth=16,
                                      max_nodes=4000),
                  progress=lambda landed: seen.append(len(landed)))
    # every report lands through the stream exactly once
    assert sum(seen) == len(small_corpus.entries)


def test_report_store_is_written_and_complete(small_corpus, tmp_path):
    store = tmp_path / "store.json"
    service = triage_corpus(
        small_corpus,
        TriageServiceConfig(jobs=1, max_depth=16, max_nodes=4000,
                            store_path=str(store)))
    payload = json.loads(store.read_text())
    assert payload["complete"] is True
    assert payload["timing"]["dedup_hits"] == service.dedup_hits
    assert sum(len(ids) for ids in payload["buckets"].values()) \
        == len(small_corpus.entries)
    assert len(payload["results"]) == len(small_corpus.entries)
    # stored accuracy is scored on the refined buckets, with dedup
    # children excluded from pair counting
    refined, refinement = refined_results(service.reports)
    dedup_children = {r.result.report_id for r in service.reports
                     if r.dedup_of is not None}
    assert payload["accuracy"]["bucket_accuracy"] == round(
        bucket_accuracy(refined, small_corpus.reports,
                        exclude=dedup_children), 4)
    assert payload["bucketing"]["stats"] == refinement.stats
    # every row carries both the refined and the raw leaf bucket
    assert all("raw_bucket" in row for row in payload["results"])
    # no stray temp files from the atomic writes
    assert [p.name for p in tmp_path.iterdir()] == ["store.json"]


def test_corpus_save_load_round_trip(tmp_path):
    corpus = build_labeled_corpus(range(9100, 9103), duplicates=2,
                                  shuffle_seed=0)
    corpus.save(str(tmp_path / "corpus"))
    loaded = TriageCorpus.load(str(tmp_path / "corpus"))
    assert {k for k in loaded.programs} == {k for k in corpus.programs}
    assert [e.report.report_id for e in loaded.entries] \
        == [e.report.report_id for e in corpus.entries]
    assert [e.report.true_cause for e in loaded.entries] \
        == [e.report.true_cause for e in corpus.entries]
    a = triage_corpus(corpus, TriageServiceConfig(jobs=1))
    b = triage_corpus(loaded, TriageServiceConfig(jobs=1))
    assert [r.bucket for r in a.results] == [r.bucket for r in b.results]


def test_labeled_corpus_causes_follow_arm_kind():
    corpus = build_labeled_corpus(range(9100, 9110))
    causes = {e.report.true_cause for e in corpus.entries}
    assert causes <= set(ARM_CAUSE_NAMES.values())
    assert len(corpus.entries) == len(corpus.programs) > 0


def test_corpus_rejects_unknown_program_key():
    from repro.errors import ReproError

    spec = ProgramSpec(key="p", source="func main() { return 0; }")
    report = BugReport(report_id="r", coredump=None)
    with pytest.raises(ReproError):
        TriageCorpus(programs={spec.key: spec},
                     entries=[CorpusEntry(report=report,
                                          program_key="other")])


# ---------------------------------------------------------------------------
# Warm-start triage (PR 4): cold ≡ warm ≡ sharded warm
# ---------------------------------------------------------------------------

def _mixed_corpus():
    """Fuzz-labeled reports + synthetic reports, with a slice of the
    labels stripped so the accuracy metrics run over a genuinely mixed
    labeled/unlabeled corpus."""
    fuzz_part = build_labeled_corpus(range(9100, 9105), duplicates=2,
                                     shuffle_seed=3)
    synth_part = service_corpus(6, seed=2)
    mixed = TriageCorpus(
        programs={**fuzz_part.programs, **synth_part.programs},
        entries=fuzz_part.entries + synth_part.entries)
    for entry in mixed.entries[::3]:
        entry.report.true_cause = None
    return mixed


def _view(result, corpus, config):
    import json as json_module

    from repro.core.triage_service import store_payload, verdict_view

    return json_module.dumps(
        verdict_view(store_payload(result, corpus, config, complete=True)),
        sort_keys=True)


def test_cold_warm_and_sharded_warm_stores_byte_identical(tmp_path):
    """ISSUE 4 acceptance: on a mixed labeled/unlabeled corpus the
    cold run, the warm run (every unique report cached), and a sharded
    warm run must produce byte-identical buckets, per-report rows, and
    accuracy metrics (the verdict view of the report store)."""
    corpus = _mixed_corpus()
    cache_dir = str(tmp_path / "cache")
    cold_config = TriageServiceConfig(jobs=1, cache_dir=cache_dir)

    cold = triage_corpus(corpus, cold_config)
    assert cold.cache_hits == 0 and cold.triaged > 0
    warm = triage_corpus(corpus, cold_config)
    sharded_warm = triage_corpus(
        corpus, TriageServiceConfig(jobs=2, cache_dir=cache_dir))

    unique = {(e.program_key, e.report.coredump.fingerprint())
              for e in corpus.entries}
    assert warm.triaged == 0
    assert warm.cache_hits == len(unique)
    assert sharded_warm.cache_hits == len(unique)

    cold_view = _view(cold, corpus, cold_config)
    assert _view(warm, corpus, cold_config) == cold_view
    assert _view(sharded_warm, corpus, cold_config) == cold_view

    reports = corpus.reports
    assert bucket_accuracy(warm.results, reports) \
        == bucket_accuracy(cold.results, reports)
    assert misbucketed_fraction(warm.results, reports) \
        == misbucketed_fraction(cold.results, reports)


def test_warm_run_against_no_cache_cold_run_is_identical(tmp_path):
    """The warm path must match a run that never saw a cache at all,
    not just the run that populated it."""
    corpus = _mixed_corpus()
    plain_config = TriageServiceConfig(jobs=1)
    plain = triage_corpus(corpus, plain_config)

    cache_dir = str(tmp_path / "cache")
    caching = TriageServiceConfig(jobs=1, cache_dir=cache_dir)
    triage_corpus(corpus, caching)
    warm = triage_corpus(corpus, caching)
    assert warm.triaged == 0
    assert _view(warm, corpus, plain_config) \
        == _view(plain, corpus, plain_config)


def test_interrupted_warm_run_resumes_from_partial_cache(tmp_path):
    """Ctrl-C mid-run: the verdict rows appended before the interrupt
    must warm-start the resumed run, and the resumed run's store must
    be byte-identical to an uninterrupted cold run."""
    corpus = _mixed_corpus()
    cache_dir = str(tmp_path / "cache")
    store = tmp_path / "store.json"
    config = TriageServiceConfig(jobs=1, cache_dir=cache_dir,
                                 store_path=str(store))

    landed_groups = []

    def interrupt_after_two(landed):
        landed_groups.append(landed)
        if len(landed_groups) == 2:
            raise KeyboardInterrupt

    partial = triage_corpus(corpus, config, progress=interrupt_after_two)
    assert partial.interrupted
    assert 0 < len(partial.reports) < len(corpus.entries)
    # the partial store is valid, parseable, and flagged incomplete
    payload = json.loads(store.read_text())
    assert payload["complete"] is False

    resumed = triage_corpus(corpus, config)
    assert not resumed.interrupted
    assert resumed.cache_hits >= sum(
        1 for batch in landed_groups for item in batch
        if item.dedup_of is None)
    assert len(resumed.reports) == len(corpus.entries)

    reference = triage_corpus(corpus, TriageServiceConfig(jobs=1))
    assert _view(resumed, corpus, config) \
        == _view(reference, corpus, config)


def test_annotation_changes_rebucket_cached_verdicts(tmp_path):
    """Annotations are outside the cache key on purpose: a warm run
    with a new annotation must re-bucket cached causes exactly like a
    cold run would."""
    corpus = service_corpus(6, seed=3)
    cache_dir = str(tmp_path / "cache")
    triage_corpus(corpus, TriageServiceConfig(jobs=1, cache_dir=cache_dir,
                                              max_depth=16,
                                              max_nodes=4000))
    annotation = TriageAnnotation(
        name="known-overflow",
        matcher=_check_function_matcher)
    annotated = TriageServiceConfig(jobs=1, cache_dir=cache_dir,
                                    max_depth=16, max_nodes=4000,
                                    annotations=[annotation])
    warm = triage_corpus(corpus, annotated)
    assert warm.triaged == 0, "annotation change must not invalidate"
    cold = triage_corpus(corpus, TriageServiceConfig(
        jobs=1, max_depth=16, max_nodes=4000, annotations=[annotation]))
    assert [r.bucket for r in warm.results] \
        == [r.bucket for r in cold.results]
    assert any(r.bucket == ("annotated", "known-overflow")
               for r in warm.results)


def _check_function_matcher(cause):
    return any(pc.function == "check" for pc in cause.pcs)


def test_sharded_cold_run_fills_the_cache_like_a_serial_run(tmp_path):
    """A cold ``jobs=2`` run drives in pool workers and appends in the
    driver: one cache row per representative, the same solver sidecars
    as a cold ``jobs=1`` run, and a warm rerun that drives nothing."""
    from repro.core.rescache import ResultCache

    # 9005 and 9012 leave solver sidecars; most fuzz programs leave none.
    corpus = build_labeled_corpus([9000, 9005, 9012, 9101], duplicates=2,
                                  shuffle_seed=5)
    sharded_dir, serial_dir = tmp_path / "sharded", tmp_path / "serial"
    sharded = TriageServiceConfig(jobs=2, cache_dir=str(sharded_dir))
    cold = triage_corpus(corpus, sharded)
    triage_corpus(corpus, TriageServiceConfig(jobs=1,
                                              cache_dir=str(serial_dir)))
    representatives = len(corpus.programs)
    assert cold.triaged == representatives

    assert ResultCache(str(sharded_dir)).stats()["entries"] \
        == representatives

    def sidecars(root):
        return sorted(path.name for path in (root / "solver").glob("*.json"))

    assert sidecars(sharded_dir) and sidecars(sharded_dir) \
        == sidecars(serial_dir)

    warm = triage_corpus(corpus, sharded)
    assert warm.triaged == 0 and warm.cache_hits == representatives
    assert _view(warm, corpus, sharded) == _view(cold, corpus, sharded)


def test_batch_store_writes_follow_store_flush_every(tmp_path,
                                                     monkeypatch):
    """The batch driver rewrites the store once STORE_FLUSH_EVERY
    verdicts have landed since its last write, plus the final write: a
    6-program corpus (six one-report groups) is written exactly once,
    complete."""
    from repro.core import triage_service

    flushes = []
    original = triage_service.TriageStore.flush

    def counted(self, complete, interrupted, elapsed):
        flushes.append(complete)
        original(self, complete, interrupted, elapsed)

    monkeypatch.setattr(triage_service.TriageStore, "flush", counted)
    corpus = build_labeled_corpus(range(9100, 9106))
    store = tmp_path / "store.json"
    triage_corpus(corpus, TriageServiceConfig(store_path=str(store)))
    assert flushes == [True]
    assert triage_service.STORE_FLUSH_EVERY > len(corpus.programs)
    payload = json.loads(store.read_text())
    assert payload["complete"] is True
    assert len(payload["results"]) == 6

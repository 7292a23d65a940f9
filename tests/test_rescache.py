"""The persistent cross-run RES result cache (PR 4).

The stakes: a stale or mis-keyed cached verdict silently corrupts
buckets.  So the tests here are mostly *negative* — every component of
the strict cache key (module source, coredump, config, schema) is
poisoned in turn and the cache must miss, and damaged cache files must
degrade to a cold run with a warning, never a crash and never a wrong
hit.  The positive direction (warm ≡ cold, byte-identical) lives in
``tests/test_triage.py`` and ``benchmarks/test_p4_warm_triage.py``.
"""

import dataclasses
import json
import warnings

import pytest

from repro import faultinject
from repro.core.res import RESConfig
from repro.core.rescache import (
    CACHE_SCHEMA_VERSION,
    CachedVerdict,
    CacheChain,
    CacheKey,
    ResultCache,
    module_fingerprint,
    res_config_fingerprint,
)
from repro.core.rootcause import RootCause
from repro.core.triage import TAINT_SUFFIXES, BugReport, synthesize_result
from repro.core.triage_service import (
    ProgramSpec,
    StreamingTriage,
    TriageServiceConfig,
    triage_corpus,
)
from repro.fuzz.triage_corpus import build_labeled_corpus
from repro.vm.state import PC


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------

def test_module_fingerprint_covers_source_and_name():
    base = module_fingerprint("func main() { return 0; }", "m")
    assert module_fingerprint("func main() { return 1; }", "m") != base
    assert module_fingerprint("func main() { return 0; }", "n") != base
    assert module_fingerprint("func main() { return 0; }", "m") == base


def test_config_fingerprint_covers_every_resconfig_knob():
    """A newly added RESConfig field must change the fingerprint by
    construction (dataclass-field walk), and every existing knob must
    too — a knob outside the key would let a stale verdict pass as
    fresh."""
    base_config = RESConfig(max_depth=8, max_nodes=300)
    base = res_config_fingerprint(base_config)
    for mutation in (
        {"max_depth": 9},
        {"max_nodes": 301},
        {"verify": False},
        {"use_lbr": True},
        {"use_log": True},
        {"use_writer_index": True},
        {"incremental": False},
        {"atomic_calls": frozenset({"helper"})},
    ):
        mutated = dataclasses.replace(base_config, **mutation)
        assert res_config_fingerprint(mutated) != base, mutation
    # driver-level extras (drive budgets, solver caps) are in the key
    assert res_config_fingerprint(base_config, max_suffixes=64) != base
    assert res_config_fingerprint(base_config) == base


def test_default_service_config_fingerprint_is_pinned():
    """The default batch config's cache identity, and the engine it
    builds agrees with it.  A moved value misses every cached verdict,
    so it may move only with a knob that changes verdicts."""
    config = TriageServiceConfig()
    pinned = "7a2ef751e3b5076bacf303f2b989753406ca00ce5e01e46f0117cdb76fdffd28"
    assert config.config_fingerprint() == pinned
    # The reference: every knob of the engine the config builds.
    engine = StreamingTriage(config)._engine(ProgramSpec(
        "p", "func main() { return 0; }"))
    assert res_config_fingerprint(
        engine.config, max_suffixes=engine.max_suffixes,
        taint_suffixes=TAINT_SUFFIXES,
        solver_max_enum=engine.solver.max_enum,
        solver_max_nodes=engine.solver.max_nodes) == pinned


def test_cache_key_digest_depends_on_each_component():
    base = CacheKey("m", "c", "k")
    assert base.digest() == CacheKey("m", "c", "k").digest()
    assert CacheKey("m2", "c", "k").digest() != base.digest()
    assert CacheKey("m", "c2", "k").digest() != base.digest()
    assert CacheKey("m", "c", "k2").digest() != base.digest()
    assert CacheKey("m", "c", "k",
                    schema=CACHE_SCHEMA_VERSION + 1).digest() \
        != base.digest()


# ---------------------------------------------------------------------------
# Round trip
# ---------------------------------------------------------------------------

def _verdict() -> CachedVerdict:
    cause = RootCause(
        kind="buffer-overflow",
        description="store past the end of global 'state'",
        addr=0x1008,
        threads=(0, 2),
        pcs=(PC("check", "entry", 3), PC("main", "loop", 1)),
        object_name="state")
    return CachedVerdict(cause=cause, exploitable=True, seconds=0.25,
                         suffix_digests=("aa" * 8, "bb" * 8),
                         stats={"nodes_expanded": 12})


def test_put_lookup_round_trip_reconstructs_exact_result(tmp_path):
    """The cached cause must rebuild a TriageResult byte-identical to
    the cold one — including the tuple-typed signature bucket."""
    cache = ResultCache(tmp_path / "cache")
    key = CacheKey("m", "c", "k")
    verdict = _verdict()
    cache.put(key, verdict)

    reloaded = ResultCache(tmp_path / "cache")  # fresh process, cold index
    found = reloaded.lookup(key)
    assert found is not None
    assert found.cause == verdict.cause
    assert found.exploitable is True
    assert found.suffix_digests == verdict.suffix_digests
    assert found.stats == {"nodes_expanded": 12}

    report = BugReport(report_id="r1", coredump=None)
    cold = synthesize_result(report, verdict.cause, True)
    warm = synthesize_result(report, found.cause, found.exploitable)
    assert warm == cold
    assert warm.bucket == verdict.cause.signature()
    assert isinstance(warm.bucket, tuple)


def test_any_fingerprint_mismatch_is_a_miss(tmp_path):
    """The poisoned-cache contract: a row keyed for a different module
    / coredump / config / schema must never be returned."""
    cache = ResultCache(tmp_path / "cache")
    cache.put(CacheKey("m", "c", "k"), _verdict())
    assert cache.lookup(CacheKey("m", "c", "k")) is not None
    assert cache.lookup(CacheKey("edited", "c", "k")) is None
    assert cache.lookup(CacheKey("m", "other-dump", "k")) is None
    assert cache.lookup(CacheKey("m", "c", "bumped-depth")) is None
    assert cache.lookup(
        CacheKey("m", "c", "k", schema=CACHE_SCHEMA_VERSION + 1)) is None


def test_forged_row_with_mismatched_fingerprints_is_a_miss(tmp_path):
    """Defense in depth: a row whose stored digest does not match its
    own fingerprints (hand-edited / mis-stitched cache) is dropped."""
    cache = ResultCache(tmp_path / "cache")
    cache.put(CacheKey("m", "c", "k"), _verdict())
    rows_path = cache.rows_path
    row = json.loads(rows_path.read_text())
    row["module_fp"] = "tampered"  # digest no longer matches
    rows_path.write_text(json.dumps(row) + "\n")
    with pytest.warns(RuntimeWarning, match="corrupt row"):
        fresh = ResultCache(tmp_path / "cache")
        assert fresh.lookup(CacheKey("tampered", "c", "k")) is None


# ---------------------------------------------------------------------------
# Damage tolerance
# ---------------------------------------------------------------------------

def test_truncated_final_row_is_skipped_with_warning(tmp_path):
    """A crash mid-append tears at most the final line; the reader must
    keep every complete row and warn about the torn one."""
    cache = ResultCache(tmp_path / "cache")
    cache.put(CacheKey("m1", "c1", "k1"), _verdict())
    cache.put(CacheKey("m2", "c2", "k2"), _verdict())
    text = cache.rows_path.read_text()
    cache.rows_path.write_text(text + text.splitlines()[0][: len(text) // 4])

    with pytest.warns(RuntimeWarning, match="skipped 1 corrupt row"):
        fresh = ResultCache(tmp_path / "cache")
        assert fresh.lookup(CacheKey("m1", "c1", "k1")) is not None
        assert fresh.lookup(CacheKey("m2", "c2", "k2")) is not None


def test_load_during_a_sibling_append_keeps_the_sibling_row(tmp_path):
    """Worker processes share one cache directory, so a fragment after
    the last newline at load time may be a sibling's append still in
    flight.  The loader must leave it unread: once the sibling's newline
    lands, the whole row is a hit here, not a corrupt row parsed from
    its middle."""
    first, second = CacheKey("m1", "c1", "k1"), CacheKey("m2", "c2", "k2")
    writer = ResultCache(tmp_path / "cache")
    writer.put(first, _verdict())
    writer.put(second, _verdict())
    text = writer.rows_path.read_bytes()
    first_end = text.index(b"\n") + 1
    cut = first_end + (len(text) - first_end) // 2  # half the second row
    writer.rows_path.write_bytes(text[:cut])
    # A load cannot tell the fragment from a crash's torn row.
    with pytest.warns(RuntimeWarning, match="skipped 1 corrupt row"):
        reader = ResultCache(tmp_path / "cache")
        assert reader.lookup(first) is not None
    with open(writer.rows_path, "ab") as handle:
        handle.write(text[cut:])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert reader.lookup(second) is not None
        stats = reader.stats()
    assert not caught
    assert (stats["rows"], stats["stale_or_corrupt_rows"]) == (2, 0)


def test_garbage_cache_file_degrades_to_cold_with_warning(tmp_path):
    root = tmp_path / "cache"
    root.mkdir()
    (root / "rescache.jsonl").write_text("\x00\x01 not json at all\n{{{\n")
    with pytest.warns(RuntimeWarning, match="corrupt row"):
        cache = ResultCache(root)
        assert cache.lookup(CacheKey("m", "c", "k")) is None
    # and the cache stays writable afterwards
    with pytest.warns(RuntimeWarning):
        cache2 = ResultCache(root)
        cache2.put(CacheKey("m", "c", "k"), _verdict())
        assert cache2.lookup(CacheKey("m", "c", "k")) is not None


def test_corrupt_solver_sidecar_is_skipped_with_warning(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cache.store_solver_cache("mfp", {"caps": [4096, 200000],
                                     "rows": [[[1], [], ["sat", {}, 0]]]})
    assert cache.load_solver_cache("mfp") is not None
    cache.solver_path("mfp").write_text("{ torn")
    with pytest.warns(RuntimeWarning, match="solver cache"):
        assert cache.load_solver_cache("mfp") is None


# ---------------------------------------------------------------------------
# Maintenance: stats + gc
# ---------------------------------------------------------------------------

def test_gc_compacts_superseded_rows_last_write_wins(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = CacheKey("m", "c", "k")
    first = _verdict()
    second = CachedVerdict(cause=None, exploitable=False, seconds=0.1)
    cache.put(key, first)
    cache.put(key, second)
    cache.put(CacheKey("m2", "c2", "k2"), first)
    stats = cache.stats()
    assert stats["rows"] == 3 and stats["entries"] == 2

    outcome = cache.gc()
    assert outcome["after"]["rows"] == 2
    assert outcome["after"]["entries"] == 2
    # last write won: the surviving row for `key` is the second verdict
    fresh = ResultCache(tmp_path / "cache")
    found = fresh.lookup(key)
    assert found.cause is None and found.exploitable is False


def test_gc_drops_modules_outside_keep_set(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cache.put(CacheKey("keep", "c", "k"), _verdict())
    cache.put(CacheKey("drop", "c", "k"), _verdict())
    cache.store_solver_cache("keep", {"caps": [1, 2], "rows": [[[1], [],
                                                               ["sat", {},
                                                                0]]]})
    cache.store_solver_cache("drop", {"caps": [1, 2], "rows": [[[1], [],
                                                                ["sat", {},
                                                                 0]]]})
    cache.gc(keep_module_fps={"keep"})
    fresh = ResultCache(tmp_path / "cache")
    assert fresh.lookup(CacheKey("keep", "c", "k")) is not None
    assert fresh.lookup(CacheKey("drop", "c", "k")) is None
    assert fresh.solver_path("keep").exists()
    assert not fresh.solver_path("drop").exists()


# ---------------------------------------------------------------------------
# The chain (writable cache + readonly warm-from sources)
# ---------------------------------------------------------------------------

def test_chain_reads_warm_from_but_never_writes_it(tmp_path):
    baseline = ResultCache(tmp_path / "baseline")
    baseline.put(CacheKey("m", "c", "k"), _verdict())

    chain = CacheChain.open(str(tmp_path / "mine"),
                            (str(tmp_path / "baseline"),))
    assert chain.lookup(CacheKey("m", "c", "k")) is not None
    chain.put(CacheKey("m2", "c2", "k2"), _verdict())
    assert (tmp_path / "mine" / "rescache.jsonl").exists()
    # the baseline still holds exactly its original single row
    assert len([l for l in (tmp_path / "baseline" / "rescache.jsonl")
                .read_text().splitlines() if l.strip()]) == 1
    # readonly caches refuse writes outright
    readonly = ResultCache(tmp_path / "baseline", readonly=True)
    readonly.put(CacheKey("m3", "c3", "k3"), _verdict())
    assert readonly.lookup(CacheKey("m3", "c3", "k3")) is None


# ---------------------------------------------------------------------------
# Solver component-cache export / import
# ---------------------------------------------------------------------------

def test_solver_cache_export_import_round_trip():
    from repro.symex.expr import Const, Sym, bin_expr
    from repro.symex.solver import Solver

    solver = Solver()
    ctx = solver.context_for([])
    # (x & 3) == 1 is beyond binding/domain extraction: it lands in the
    # residual component search, whose verdict gets cached.
    delta = (bin_expr("eq", bin_expr("and", Sym("x"), Const(3)),
                      Const(1)),)
    result, _ = solver.solve_extended(ctx, delta)
    assert result.is_sat
    snapshot = json.loads(json.dumps(solver.export_component_cache()))
    assert snapshot["rows"], "expected at least one component row"

    primed = Solver()
    adopted = primed.import_component_cache(snapshot)
    assert adopted == len(snapshot["rows"])
    # the primed solver answers the identical component from cache
    result2, _ = primed.solve_extended(primed.context_for([]), delta)
    assert result2.status == result.status
    assert result2.model == result.model


def test_solver_cache_import_rejects_mismatched_caps():
    from repro.symex.expr import Const, Sym, bin_expr
    from repro.symex.solver import Solver

    solver = Solver()
    solver.solve_extended(
        solver.context_for([]),
        (bin_expr("eq", bin_expr("and", Sym("x"), Const(3)), Const(1)),))
    snapshot = solver.export_component_cache()
    smaller = Solver(max_enum=8)
    assert smaller.import_component_cache(snapshot) == 0
    assert smaller.import_component_cache({"rows": []}) == 0
    assert smaller.import_component_cache(None) == 0


# ---------------------------------------------------------------------------
# End-to-end poisoning: the service must recompute, never reuse
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_corpus():
    return build_labeled_corpus(range(9000, 9003), duplicates=2,
                                shuffle_seed=1)


def test_edited_program_invalidates_its_cached_verdicts(tmp_path,
                                                        tiny_corpus):
    """Satellite regression: editing a program's source must be a miss
    for every report of that program; untouched programs still hit."""
    import dataclasses as dc

    cache_dir = str(tmp_path / "cache")
    config = TriageServiceConfig(jobs=1, cache_dir=cache_dir)
    cold = triage_corpus(tiny_corpus, config)
    assert cold.cache_hits == 0

    edited_key = tiny_corpus.entries[0].program_key
    programs = dict(tiny_corpus.programs)
    programs[edited_key] = dc.replace(programs[edited_key],
                                      source=programs[edited_key].source
                                      + "\n// edited\n")
    edited = dc.replace(tiny_corpus, programs=programs,
                        entries=list(tiny_corpus.entries))

    warm = triage_corpus(edited, config)
    unique = {(e.program_key, e.report.coredump.fingerprint())
              for e in edited.entries}
    edited_unique = {pair for pair in unique if pair[0] == edited_key}
    assert warm.cache_hits == len(unique) - len(edited_unique)
    assert warm.triaged == len(edited_unique)
    # the recomputed verdicts match the cold ones (the edit was a
    # comment): stale rows were ignored, not reused *and* not wrong
    assert [r.bucket for r in warm.results] \
        == [r.bucket for r in cold.results]


def test_bumped_config_invalidates_every_cached_verdict(tmp_path,
                                                        tiny_corpus):
    cache_dir = str(tmp_path / "cache")
    base = TriageServiceConfig(jobs=1, cache_dir=cache_dir)
    triage_corpus(tiny_corpus, base)

    bumped = TriageServiceConfig(jobs=1, cache_dir=cache_dir,
                                 max_depth=base.max_depth + 4)
    warm = triage_corpus(tiny_corpus, bumped)
    assert warm.cache_hits == 0
    assert warm.triaged == len(tiny_corpus.programs)

    # and the original config still hits everything
    again = triage_corpus(tiny_corpus, base)
    assert again.triaged == 0
    assert again.cache_hits == len(tiny_corpus.programs)


def test_corrupt_cache_file_never_crashes_a_triage_run(tmp_path,
                                                       tiny_corpus):
    cache_dir = tmp_path / "cache"
    config = TriageServiceConfig(jobs=1, cache_dir=str(cache_dir))
    cold = triage_corpus(tiny_corpus, config)
    (cache_dir / "rescache.jsonl").write_text("garbage{{{\n")
    with pytest.warns(RuntimeWarning, match="corrupt row"):
        warm = triage_corpus(tiny_corpus, config)
    assert warm.cache_hits == 0
    assert [r.bucket for r in warm.results] \
        == [r.bucket for r in cold.results]


def test_cached_cause_evidence_round_trips(tmp_path):
    """The evidence half of an enriched signature (PR 7) must survive
    the cache: a reloaded cause signature-matches the original, so a
    warm verdict lands in the same bucket."""
    from repro.core.rootcause import CauseEvidence

    cache = ResultCache(tmp_path / "cache")
    cause = dataclasses.replace(
        _verdict().cause,
        evidence=CauseEvidence(trap_kind="out-of-bounds",
                               crash_fn="main",
                               expr_skeleton="(mem (add var c))",
                               taint_classes=("input",),
                               suffix_shape="d3"))
    cache.put(CacheKey("m", "c", "k"),
              CachedVerdict(cause=cause, exploitable=False, seconds=0.1))
    found = ResultCache(tmp_path / "cache").lookup(CacheKey("m", "c", "k"))
    assert found is not None
    assert found.cause == cause
    assert found.cause.signature() == cause.signature()
    assert found.cause.family() == cause.family()


def test_warm_rebucket_is_byte_identical_on_mixed_corpus(tmp_path):
    """Property (PR 7): re-running verdict synthesis over cached
    rescache rows yields byte-identical buckets — raw and refined —
    to a cold run, on a corpus mixing labeled and unlabeled reports."""
    from repro.core.triage_service import store_payload, verdict_view

    base = build_labeled_corpus(range(9000, 9005), duplicates=2,
                                shuffle_seed=5)
    entries = [
        dataclasses.replace(
            entry,
            report=dataclasses.replace(entry.report, true_cause=None))
        if index % 3 == 0 else entry
        for index, entry in enumerate(base.entries)
    ]
    corpus = dataclasses.replace(base, entries=entries)
    assert any(e.report.true_cause is None for e in corpus.entries)
    assert any(e.report.true_cause is not None for e in corpus.entries)

    config = TriageServiceConfig(jobs=1,
                                 cache_dir=str(tmp_path / "cache"))
    cold = triage_corpus(corpus, config)
    warm = triage_corpus(corpus, config)
    assert warm.triaged == 0
    assert warm.cache_hits > 0

    def view(result):
        return json.dumps(
            verdict_view(store_payload(result, corpus, config,
                                       complete=True)),
            sort_keys=True)

    assert view(warm) == view(cold)
    assert [r.bucket for r in warm.results] \
        == [r.bucket for r in cold.results]


def test_synthesizer_export_prime_round_trip():
    """The RES-level warm-start API: one synthesizer's exported
    component cache primes another over the same module without
    changing what it emits (the fuzz campaign's `cache-primed` oracle
    enforces this at scale; this is the unit-level contract)."""
    from repro.core.fingerprints import suffix_fingerprint
    from repro.core.res import RESConfig, ReverseExecutionSynthesizer
    from repro.workloads import TRIAGE_PROGRAM

    dump = TRIAGE_PROGRAM.trigger()
    config = RESConfig(max_depth=8, max_nodes=300)
    cold = ReverseExecutionSynthesizer(TRIAGE_PROGRAM.module, dump, config)
    cold_fps = [suffix_fingerprint(s) for s in cold.synthesize(
        min_depth=1, max_suffixes=6)]
    snapshot = json.loads(json.dumps(cold.export_solver_cache()))

    primed = ReverseExecutionSynthesizer(TRIAGE_PROGRAM.module, dump,
                                         config)
    assert primed.prime_solver_cache(snapshot) == len(snapshot["rows"])
    assert primed.prime_solver_cache(None) == 0
    warm_fps = [suffix_fingerprint(s) for s in primed.synthesize(
        min_depth=1, max_suffixes=6)]
    assert warm_fps == cold_fps


# ---------------------------------------------------------------------------
# Solver sidecar writes
# ---------------------------------------------------------------------------

def test_unwritable_solver_sidecar_still_lands_the_final_store(tmp_path):
    """A batch run whose sidecar write hits ENOSPC warns and still
    writes its final, complete store (programs 9005 and 9012 leave a
    sidecar; most fuzz programs leave none and cannot show this)."""
    corpus = build_labeled_corpus([9005, 9012], duplicates=2,
                                  shuffle_seed=3)
    store = tmp_path / "store.json"
    config = TriageServiceConfig(max_depth=8, max_nodes=300,
                                 cache_dir=str(tmp_path / "cache"),
                                 store_path=str(store))
    plan = {"seed": 0, "sites": {"ioutil.atomic_write": {
        "prob": 1.0, "kinds": ["enospc"], "path_contains": "/solver/"}}}
    with faultinject.injected(plan), \
            pytest.warns(RuntimeWarning, match="solver cache flush failed"):
        triage_corpus(corpus, config)
    payload = json.loads(store.read_text())
    assert payload["complete"] is True
    assert len(payload["results"]) == 4


def test_session_flushes_only_the_engines_that_drove(tmp_path):
    """A warm hit touches no engine, so the flush after it writes no
    sidecar; the cold drive before it writes its module's."""
    corpus = build_labeled_corpus([9012])
    entry = corpus.entries[0]
    spec = corpus.programs[entry.program_key]
    session = StreamingTriage(TriageServiceConfig(
        max_depth=8, max_nodes=300, cache_dir=str(tmp_path / "cache")))
    assert not session.triage_one(spec, entry.report).cached
    assert session.flush_solver_caches() == 1
    assert session.triage_one(spec, entry.report).cached
    assert session.flush_solver_caches() == 0

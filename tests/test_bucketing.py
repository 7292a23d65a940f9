"""The bucketing subsystem (PR 7): canonical expression skeletons,
static evidence extraction, and the split/merge refinement pass."""

from dataclasses import dataclass

import pytest

from repro.core.bucketing import (
    IncrementalRefiner,
    refine,
    static_evidence,
)
from repro.core.rootcause import CauseEvidence, RootCause
from repro.core.triage import TriageResult
from repro.fuzz.triage_corpus import build_labeled_corpus
from repro.vm.state import PC


# ---------------------------------------------------------------------------
# Evidence extraction
# ---------------------------------------------------------------------------

def test_skeletons_stable_within_class_distinct_across_classes():
    """The same armed failure template compiled into different programs
    must yield byte-identical (trap kind, crashing fn, skeleton)
    triples, while different classes stay distinct — this is the whole
    cross-program merge argument."""
    corpus = build_labeled_corpus(range(9000, 9008), duplicates=1)
    by_class = {}
    for entry in corpus.entries:
        spec = corpus.programs[entry.program_key]
        evidence = static_evidence(spec.compile(), entry.report.coredump)
        assert evidence is not None
        by_class.setdefault(entry.report.true_cause, set()).add(
            (evidence.trap_kind, evidence.crash_fn,
             evidence.expr_skeleton))
    assert len(by_class) >= 2, "corpus degenerated to one class"
    for cause, triples in by_class.items():
        assert len(triples) == 1, \
            f"{cause}: unstable evidence across programs: {triples}"
    all_triples = [next(iter(t)) for t in by_class.values()]
    assert len(set(all_triples)) == len(all_triples), \
        "distinct classes collapsed to one evidence triple"


def test_static_evidence_degrades_to_none_on_garbage():
    assert static_evidence(None, None) is None


# ---------------------------------------------------------------------------
# Split/merge refinement
# ---------------------------------------------------------------------------

@dataclass
class _Item:
    result: TriageResult
    program_key: str = "p"


def _cause(kind="div-by-zero", trap="div-by-zero", fn="main",
           skel="(sdiv c var)", pc_block="b"):
    return RootCause(
        kind=kind, description="",
        pcs=(PC(fn, pc_block, 0),),
        evidence=CauseEvidence(trap_kind=trap, crash_fn=fn,
                               expr_skeleton=skel))


def _explained(rid, cause, program="p"):
    return _Item(TriageResult(report_id=rid, bucket=cause.signature(),
                              cause=cause, used_fallback=False),
                 program_key=program)


def _fallback(rid, trap="div-by-zero", fn="main", tail=("main:b",),
              program="p"):
    return _Item(TriageResult(report_id=rid,
                              bucket=("stack", trap, fn, tail),
                              cause=None, used_fallback=True),
                 program_key=program)


def test_refine_merges_same_family_across_programs():
    a = _explained("a", _cause(pc_block="b1"), program="p1")
    b = _explained("b", _cause(pc_block="b2"), program="p2")
    assert a.result.bucket != b.result.bucket  # distinct raw leaves
    refinement = refine([a, b])
    assert refinement.bucket_of("a", None) == refinement.bucket_of("b", None)
    assert refinement.bucket_of("a", None)[0] == "family"
    assert refinement.stats["families"] == 1
    assert refinement.stats["merged_leaves"] == 1
    assert len(refinement.hierarchy) == 1
    (info,) = refinement.hierarchy.values()
    assert info["reports"] == 2
    assert len(info["leaves"]) == 2


def test_refine_refuses_conflicted_family():
    """Two distinct leaves from the SAME program sharing a family key:
    the evidence is too coarse for that family, the merge is refused
    and both reports keep their raw signature buckets."""
    a = _explained("a", _cause(pc_block="b1"), program="p1")
    b = _explained("b", _cause(pc_block="b2"), program="p1")
    refinement = refine([a, b])
    assert refinement.bucket_of("a", None) == a.result.bucket
    assert refinement.bucket_of("b", None) == b.result.bucket
    assert refinement.stats["families"] == 0
    assert refinement.stats["conflicted_families"] == 1
    assert refinement.hierarchy == {}


def test_refine_attaches_fallback_to_unique_site_family():
    a = _explained("a", _cause(), program="p1")
    fb = _fallback("f", program="p2")
    refinement = refine([a, fb])
    assert refinement.bucket_of("f", None) == refinement.bucket_of("a", None)
    assert refinement.stats["attached_fallbacks"] == 1


def test_refine_leaves_ambiguous_fallback_in_stack_bucket():
    a = _explained("a", _cause(skel="(sdiv c var)"), program="p1")
    b = _explained("b", _cause(skel="(sdiv c (sub var c))"), program="p2")
    fb = _fallback("f", program="p3")
    refinement = refine([a, b, fb])
    assert refinement.bucket_of("f", None) == fb.result.bucket
    assert refinement.stats["ambiguous_fallbacks"] == 1
    assert refinement.stats["attached_fallbacks"] == 0


def test_refine_never_merges_per_fingerprint_fallbacks():
    a = _explained("a", _cause(), program="p1")
    fb = _fallback("f", tail=("fingerprint", "deadbeef"), program="p2")
    refinement = refine([a, fb])
    assert refinement.bucket_of("f", None) == fb.result.bucket
    assert refinement.stats["attached_fallbacks"] == 0


def test_refine_keeps_annotated_buckets():
    cause = _cause()
    item = _Item(TriageResult(report_id="a",
                              bucket=("annotated", "known-div"),
                              cause=cause, used_fallback=False))
    other = _explained("b", _cause(pc_block="b2"), program="p2")
    refinement = refine([item, other])
    assert refinement.bucket_of("a", None) == ("annotated", "known-div")


def test_refine_keeps_legacy_evidence_less_causes():
    cause = RootCause(kind="div-by-zero", description="",
                      pcs=(PC("main", "b", 0),))
    assert cause.family() is None
    item = _Item(TriageResult(report_id="a", bucket=cause.signature(),
                              cause=cause, used_fallback=False))
    refinement = refine([item])
    assert refinement.bucket_of("a", None) == cause.signature()
    assert refinement.stats["legacy_causes"] == 1


def test_refine_is_order_independent():
    items = [
        _explained("a", _cause(pc_block="b1"), program="p1"),
        _explained("b", _cause(pc_block="b2"), program="p2"),
        _fallback("f", program="p3"),
        _explained("c", _cause(kind="buffer-overflow",
                               trap="out-of-bounds",
                               skel="(mem var)", pc_block="b3"),
                   program="p1"),
    ]
    forward = refine(items)
    backward = refine(list(reversed(items)))
    assert forward.assignment == backward.assignment
    assert forward.hierarchy == backward.hierarchy
    assert forward.stats == backward.stats


def test_refiner_members_are_keys_and_an_id_is_a_label():
    """Members are the keys the caller passes: one report id filed
    under two keys is two filings (each assigned, the id listed once
    per filing), while a key added twice — and so a report id repeated
    in :func:`refine` — is refused."""
    a = _explained("a", _cause(pc_block="b1"), program="p1")
    b = _explained("b", _cause(pc_block="b2"), program="p2")
    refiner = IncrementalRefiner()
    for key, item in enumerate([a, b, a]):
        refiner.add(item, key)
    refinement = refiner.refinement()
    assert sorted(refinement.assignment) == [0, 1, 2]
    assert refiner.take_changed() == {0, 1, 2}
    (family, entry), = refinement.hierarchy.items()
    assert {repr(refinement.bucket_of(key, None)) for key in range(3)} \
        == {family}
    assert entry["reports"] == 3
    assert sorted(sum(entry["leaves"].values(), [])) == ["a", "a", "b"]
    assert refinement.stats["reports"] == 3
    with pytest.raises(ValueError, match="added twice"):
        refiner.add(b, 1)
    with pytest.raises(ValueError, match="'a' added twice"):
        refine([a, b, a])

"""Hierarchical crash bucketing: evidence extraction + split/merge
refinement (the bucket-quality program, paper §3.1).

The paper's triage claim is that bucketing by *root cause* beats
WER-style call-stack bucketing, which misfiles up to 37% of reports.
Our own labeled corpora showed the opposite failure mode: the coarse
``RootCause.signature()`` (kind + PC) collapsed distinct causes into
shared buckets *and* kept same-cause reports from different programs
apart — ``misbucketed_fraction`` sat at 0.69.  This module makes
bucketing a first-class, measured subsystem with two layers:

**Evidence extraction** (:func:`static_evidence`): a bounded backward
def-use chase over the crashing function's IR, from the trap site,
producing the *canonical expression skeleton* of the failing condition.
Operands collapse to leaf classes — constants ``c``, globals ``g``,
frame slots ``f``, external input ``in``, named source variables
``var``, function arguments ``arg`` — and commutative operands are
sorted, so the same failure template compiled into different programs
yields byte-identical skeletons while different conditions at the same
PC yield different ones.  The skeleton plus trap kind and crashing
function ride on every :class:`~repro.core.rootcause.RootCause` as
:class:`~repro.core.rootcause.CauseEvidence` (and therefore into the
result cache and the daemon journal: cached verdicts re-bucket exactly
like cold ones).

**Split/merge refinement** (:func:`refine`): a pure, order-independent
pass over a set of triage verdicts.

* *Split* happens at the signature leaves: evidence-enriched signatures
  separate causes the coarse signature co-bucketed.
* *Merge* unifies leaves whose causes agree on the location-free
  :meth:`~repro.core.rootcause.RootCause.family` key — same cause
  kind, trap kind, crashing function, and expression skeleton — into
  one ``("family", ...)`` bucket per root cause, across programs.
  A merge is evidence-driven, so it is refused when the evidence is
  demonstrably too coarse: if any *single program* contributes two
  distinct signature leaves to a family (the per-cause analysis
  separated two causes the family key cannot), the family is
  *conflicted* and its leaves stay apart.
* *Attach* adopts unexplained (stack-fallback) reports into a family
  when exactly one unconflicted family matches their trap kind and
  crashing function; ambiguous sites stay in their stack bucket, and
  empty-stack fallbacks (per-fingerprint buckets) are never merged.

The pass is a function of the verdict set only — no coredumps are
re-parsed — so the batch store writer, the daemon's background
maintenance hook, and ``res buckets`` all derive the identical
hierarchy from the same rows.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.ir import instructions as ir
from repro.core.rootcause import CauseEvidence

#: operators whose operand order is canonicalized by sorting
_COMMUTATIVE = frozenset({"add", "mul", "and", "or", "xor", "eq", "ne"})

#: maximum def-use chase depth; deeper subtrees collapse to ``_`` so
#: per-program expression tails (e.g. a fuzz probe mix) cannot leak
#: program identity into the skeleton
_MAX_DEPTH = 4

#: register-name prefixes the MiniC compiler uses for named source
#: variables and parameters — chase leaves: expanding *into* a named
#: variable's defining expression would make the skeleton depend on
#: program-specific dataflow instead of the failure template
_VAR_PREFIXES = ("v_", "p_")


# ---------------------------------------------------------------------------
# Canonical expression skeletons
# ---------------------------------------------------------------------------

def _def_map(fn) -> Dict[str, List[ir.Instr]]:
    defs: Dict[str, List[ir.Instr]] = {}
    for _label, _idx, instr in fn.iter_instrs():
        for reg in instr.defs():
            defs.setdefault(reg.name, []).append(instr)
    return defs


def _operand_skeleton(fn, defs: Dict[str, List[ir.Instr]],
                      operand, depth: int,
                      seen: frozenset) -> str:
    if operand is None:
        return "_"
    if isinstance(operand, ir.Imm):
        return "c"
    name = operand.name
    if any(param.name == name for param in fn.params):
        return "arg"
    if name.startswith(_VAR_PREFIXES):
        return "var"
    if name in seen:
        return "phi"
    definitions = defs.get(name, [])
    if len(definitions) != 1:
        return "phi" if definitions else "_"
    instr = definitions[0]
    if isinstance(instr, ir.ConstInst):
        return "c"
    if isinstance(instr, ir.GAddrInst):
        return "g"
    if isinstance(instr, ir.FrameAddrInst):
        return "f"
    if isinstance(instr, ir.InputInst):
        return "in"
    if isinstance(instr, ir.AllocInst):
        return "alloc"
    if isinstance(instr, (ir.CallInst, ir.SpawnInst)):
        return "call"
    if isinstance(instr, ir.MovInst):
        # Copies are transparent (and free: a mov chain's length is a
        # compilation artifact, not part of the failing condition).
        return _operand_skeleton(fn, defs, instr.src, depth,
                                 seen | {name})
    if depth >= _MAX_DEPTH:
        return "_"
    if isinstance(instr, ir.LoadInst):
        addr = _operand_skeleton(fn, defs, instr.addr, depth + 1,
                                 seen | {name})
        return f"(ld {addr})"
    if isinstance(instr, (ir.BinInst, ir.CmpInst)):
        a = _operand_skeleton(fn, defs, instr.a, depth + 1, seen | {name})
        b = _operand_skeleton(fn, defs, instr.b, depth + 1, seen | {name})
        if instr.op in _COMMUTATIVE and b < a:
            a, b = b, a
        return f"({instr.op} {a} {b})"
    return "_"


def expr_skeleton(module, coredump) -> str:
    """Canonical skeleton of the failing condition at the trap site,
    or ``""`` when none can be derived.  Never raises: evidence is an
    enrichment, a failure to extract it must not fail triage."""
    try:
        return _expr_skeleton(module, coredump)
    except Exception:  # noqa: BLE001 - any IR surprise degrades to ""
        return ""


def _expr_skeleton(module, coredump) -> str:
    trap = coredump.trap
    fn = module.function(trap.pc.function)
    block = fn.blocks.get(trap.pc.block)
    if block is None or not (0 <= trap.pc.index < len(block.instrs)):
        return ""
    instr = block.instrs[trap.pc.index]
    defs = _def_map(fn)

    def chase(operand, depth: int = 0) -> str:
        return _operand_skeleton(fn, defs, operand, depth, frozenset())

    if isinstance(instr, ir.AssertInst):
        return f"(assert {chase(instr.cond)})"
    if isinstance(instr, ir.AbortInst):
        # An abort has no operands; the failing condition is the guard
        # of whichever conditional branch(es) reach its block.
        guards = sorted(
            chase(blk.instrs[-1].cond)
            for blk in fn.blocks.values()
            if blk.instrs and isinstance(blk.instrs[-1], ir.CBrInst)
            and trap.pc.block in (blk.instrs[-1].then_target,
                                  blk.instrs[-1].else_target))
        return f"(abort {' '.join(guards)})" if guards else "(abort)"
    if isinstance(instr, ir.StoreInst):
        return f"(mem {chase(instr.addr)})"
    if isinstance(instr, ir.LoadInst):
        return f"(mem {chase(instr.addr)})"
    if isinstance(instr, (ir.FreeInst, ir.LockInst, ir.UnlockInst)):
        return f"(mem {chase(instr.addr)})"
    if isinstance(instr, ir.BinInst):
        a, b = chase(instr.a, 1), chase(instr.b, 1)
        if instr.op in _COMMUTATIVE and b < a:
            a, b = b, a
        return f"({instr.op} {a} {b})"
    return ""


def static_evidence(module, coredump) -> Optional[CauseEvidence]:
    """The static half of the bucketing evidence for one coredump:
    trap kind, crashing function, and the failing condition's canonical
    expression skeleton.  The per-suffix dynamic half (taint classes,
    suffix shape) is filled in by :func:`repro.core.rootcause.analyze`.
    Returns None (and thus legacy coarse signatures) only when even the
    trap location is unusable."""
    try:
        trap = coredump.trap
        return CauseEvidence(trap_kind=trap.kind.value,
                             crash_fn=trap.pc.function,
                             expr_skeleton=expr_skeleton(module, coredump))
    except Exception:  # noqa: BLE001 - enrichment must not fail triage
        return None


# ---------------------------------------------------------------------------
# Split/merge refinement over a verdict set
# ---------------------------------------------------------------------------

@dataclass
class BucketRefinement:
    """Outcome of one refinement pass over a set of verdicts."""

    #: report_id → final (refined) bucket
    assignment: Dict[str, Hashable] = field(default_factory=dict)
    #: JSON-safe hierarchy: family bucket repr → details + leaf members
    hierarchy: Dict[str, dict] = field(default_factory=dict)
    #: pass statistics (merged leaves, attached fallbacks, ...)
    stats: Dict[str, int] = field(default_factory=dict)

    def bucket_of(self, report_id: str, default: Hashable) -> Hashable:
        return self.assignment.get(report_id, default)


def _is_annotated(bucket: Hashable) -> bool:
    return (isinstance(bucket, tuple) and len(bucket) >= 1
            and bucket[0] == "annotated")


def _fallback_site(bucket: Hashable) -> Optional[Tuple[str, str, bool]]:
    """Decompose a stack-fallback bucket into (trap kind, crashing
    function, attachable?).  Returns None for non-fallback or legacy
    two-element stack buckets (which carry no site information)."""
    if not (isinstance(bucket, tuple) and len(bucket) == 4
            and bucket[0] == "stack"):
        return None
    tail = bucket[3]
    per_fingerprint = (isinstance(tail, tuple) and len(tail) == 2
                       and tail[0] == "fingerprint")
    return (bucket[1], bucket[2], not per_fingerprint)


def refine(items: Sequence) -> BucketRefinement:
    """Split/merge refinement over triaged reports (anything with a
    ``.result`` carrying ``report_id``/``bucket``/``cause``/
    ``used_fallback`` — :class:`~repro.core.triage_service.TriagedReport`
    and daemon verdicts both qualify).

    Order-independent and pure: the same verdict set yields the same
    assignment whatever order (or process) produced it, which is what
    keeps cold ≡ warm ≡ daemon bucket views byte-identical.
    """
    refinement = BucketRefinement()

    # Pass 1 — collect families from explained, unannotated causes,
    # tracking which signature leaves each *program* contributes.
    families: Dict[Tuple, Dict[str, dict]] = {}
    for item in items:
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
    by_site: Dict[Tuple[str, str], set] = {}
    for fam in families:
        by_site.setdefault((fam[2], fam[3]), set()).add(fam)

    # Pass 2 — assign every report its final bucket.
    merged_leaves = sum(len(families[fam]["leaves"]) - 1
                        for fam in mergeable)
    attached = ambiguous = legacy = 0
    member_ids: Dict[Hashable, List[str]] = {}
    leaf_of: Dict[str, Hashable] = {}
    for item in items:
        result = item.result
        final: Hashable = result.bucket
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
        refinement.assignment[result.report_id] = final
        member_ids.setdefault(final, []).append(result.report_id)
        leaf_of[result.report_id] = result.bucket

    # Hierarchy: every merged family bucket with its leaf membership.
    for fam in sorted(mergeable, key=repr):
        bucket = ("family",) + fam
        ids = member_ids.get(bucket, [])
        leaves: Dict[str, List[str]] = {}
        for report_id in ids:
            leaves.setdefault(repr(leaf_of[report_id]), []).append(report_id)
        refinement.hierarchy[repr(bucket)] = {
            "cause_kind": fam[1],
            "trap_kind": fam[2],
            "function": fam[3],
            "skeleton": fam[4],
            "reports": len(ids),
            "leaves": {leaf: sorted(members)
                       for leaf, members in sorted(leaves.items())},
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


# ---------------------------------------------------------------------------
# Incremental refinement (the daemon's background rebucket engine)
# ---------------------------------------------------------------------------

#: marks a report id the refiner has not assigned yet
_UNASSIGNED = object()


@dataclass
class _Family:
    """Mutable per-family state inside an :class:`IncrementalRefiner`."""

    leaves: set = field(default_factory=set)
    per_program: Dict[str, set] = field(default_factory=dict)
    members: List[str] = field(default_factory=list)
    #: leaf bucket repr -> member report ids, sorted
    by_leaf: Dict[str, List[str]] = field(default_factory=dict)
    conflicted: bool = False
    #: cached JSON hierarchy entry; ``None`` marks it stale.  Entries
    #: are rebuilt by *replacement*, never mutated in place, so a
    #: previously returned hierarchy stays internally consistent.
    entry: Optional[dict] = None


class IncrementalRefiner:
    """:func:`refine`, computed one verdict at a time.

    The report store and ``GET /buckets`` show the refined buckets of
    a verdict set that only grows; re-running the full split/merge pass
    over all history per new verdict is O(history) each time and
    O(history²) over a daemon's life.  This class maintains the exact
    refinement state incrementally: :meth:`add` folds one verdict in —
    O(its family) amortized — and :meth:`refinement` resolves the few
    dirty fallback sites and returns a :class:`BucketRefinement` equal
    (assignment, hierarchy, and stats) to ``refine(all items so far)``
    when report ids are unique.  :meth:`take_changed` then names the
    report ids whose assignment changed, so a caller that keeps derived
    views (the report store's encoded rows) updates only those.

    The equivalence argument mirrors the batch pass's own structure:
    family mergeability is *monotone* (leaf sets only grow, so a family
    can become conflicted but never un-conflict), and a fallback site's
    attachment depends only on its candidate-family set and their
    mergeability — both tracked here, with affected sites re-resolved
    lazily.  An assignment therefore changes only when a family turns
    conflicted (its members revert to their leaves) or when a fallback
    site is re-resolved (its rows attach to or detach from a family).
    ``tests/test_fleet.py`` re-proves equality against :func:`refine`
    over shuffled insertion orders.

    Hierarchy entries are rebuilt by replacement, never mutated, so a
    returned entry stays valid (and a caller may cache its encoding
    keyed on the entry's identity); the assignment dict is live.  Not
    thread-safe — the caller serializes access.
    """

    def __init__(self) -> None:
        self._fams: Dict[Tuple, _Family] = {}
        #: (trap kind, crashing fn) → families trapping there
        self._site_candidates: Dict[Tuple[str, str], set] = {}
        #: (trap kind, crashing fn) → attachable fallback (rid, leaf)
        self._fallback_rows: Dict[Tuple[str, str],
                                  List[Tuple[str, Hashable]]] = {}
        #: the same rows as leaf bucket repr → report ids, sorted
        self._fallback_by_leaf: Dict[Tuple[str, str],
                                     Dict[str, List[str]]] = {}
        #: current attach target per site (a mergeable sole candidate)
        self._site_target: Dict[Tuple[str, str], Optional[Tuple]] = {}
        #: fallback rows of a site already assigned under its target
        self._site_resolved: Dict[Tuple[str, str], int] = {}
        self._site_stats: Dict[Tuple[str, str], Tuple[int, int]] = {}
        self._dirty_sites: set = set()
        self._assignment: Dict[str, Hashable] = {}
        self._leaf_of: Dict[str, Hashable] = {}
        #: report ids whose assignment changed since take_changed()
        self._changed: set = set()
        self._attached = 0
        self._ambiguous = 0
        self._legacy = 0

    def _assign(self, rid: str, bucket: Hashable) -> None:
        if self._assignment.get(rid, _UNASSIGNED) != bucket:
            self._assignment[rid] = bucket
            self._changed.add(rid)

    def add(self, item) -> None:
        """Fold one verdict in (same duck type :func:`refine` takes)."""
        result = item.result
        rid = result.report_id
        bucket = result.bucket
        self._leaf_of[rid] = bucket
        self._assign(rid, bucket)
        if _is_annotated(bucket):
            return  # developer feedback outranks refinement
        if result.cause is not None:
            fam = result.cause.family()
            if fam is None:
                self._legacy += 1
                return
            site = (fam[2], fam[3])
            family = self._fams.get(fam)
            if family is None:
                family = self._fams[fam] = _Family()
                self._site_candidates.setdefault(site, set()).add(fam)
                self._dirty_sites.add(site)
            family.members.append(rid)
            bisect.insort(family.by_leaf.setdefault(repr(bucket), []), rid)
            family.leaves.add(bucket)
            family.entry = None
            program = getattr(item, "program_key", "")
            leaves = family.per_program.setdefault(program, set())
            leaves.add(bucket)
            if not family.conflicted and len(leaves) > 1:
                # The merge-safety guard tripped: this family's merge
                # is refused from now on (monotone — it never untrips).
                family.conflicted = True
                for member in family.members:
                    self._assign(member, self._leaf_of[member])
                self._dirty_sites.add(site)
            elif not family.conflicted:
                self._assign(rid, ("family",) + fam)
            return
        site_info = _fallback_site(bucket)
        if site_info is not None and site_info[2]:
            site = (site_info[0], site_info[1])
            self._fallback_rows.setdefault(site, []).append((rid, bucket))
            bisect.insort(self._fallback_by_leaf.setdefault(site, {})
                          .setdefault(repr(bucket), []), rid)
            self._dirty_sites.add(site)

    def _resolve_site(self, site: Tuple[str, str]) -> None:
        candidates = self._site_candidates.get(site, set())
        target: Optional[Tuple] = None
        if len(candidates) == 1:
            sole = next(iter(candidates))
            if not self._fams[sole].conflicted:
                target = sole
        rows = self._fallback_rows.get(site, [])
        old_target = self._site_target.get(site)
        # Under an unchanged target only the rows added since the last
        # resolution need an assignment.
        start = self._site_resolved.get(site, 0) \
            if target == old_target else 0
        for rid, leaf in rows[start:]:
            self._assign(rid, leaf if target is None
                         else ("family",) + target)
        self._site_resolved[site] = len(rows)
        attached = len(rows) if target is not None else 0
        ambiguous = len(rows) if target is None and candidates else 0
        old_attached, old_ambiguous = self._site_stats.get(site, (0, 0))
        self._attached += attached - old_attached
        self._ambiguous += ambiguous - old_ambiguous
        self._site_stats[site] = (attached, ambiguous)
        self._site_target[site] = target
        # Attached members are part of the hierarchy entry: stale both
        # the family that lost them and the one that gained them.
        if target != old_target:
            for fam in (old_target, target):
                if fam is not None:
                    self._fams[fam].entry = None
        elif target is not None and start < len(rows):
            self._fams[target].entry = None

    def _build_entry(self, fam: Tuple, family: _Family) -> dict:
        site = (fam[2], fam[3])
        groups = [family.by_leaf]
        reports = len(family.members)
        if self._site_target.get(site) == fam:
            groups.append(self._fallback_by_leaf.get(site, {}))
            reports += len(self._fallback_rows.get(site, ()))
        leaves: Dict[str, List[str]] = {}
        for group in groups:
            for leaf, ids in group.items():
                leaves[leaf] = sorted(leaves[leaf] + ids) \
                    if leaf in leaves else list(ids)
        return {
            "cause_kind": fam[1],
            "trap_kind": fam[2],
            "function": fam[3],
            "skeleton": fam[4],
            "reports": reports,
            "leaves": {leaf: leaves[leaf] for leaf in sorted(leaves)},
        }

    def refinement(self) -> BucketRefinement:
        """The refinement over everything added so far — equal to
        ``refine(items)``; costs the dirty sites plus the stale
        hierarchy entries, not the full history."""
        for site in self._dirty_sites:
            self._resolve_site(site)
        self._dirty_sites.clear()
        mergeable = [fam for fam, family in self._fams.items()
                     if not family.conflicted]
        hierarchy: Dict[str, dict] = {}
        for fam in sorted(mergeable, key=repr):
            family = self._fams[fam]
            if family.entry is None:
                family.entry = self._build_entry(fam, family)
            hierarchy[repr(("family",) + fam)] = family.entry
        stats = {
            "families": len(mergeable),
            "conflicted_families": len(self._fams) - len(mergeable),
            "merged_leaves": sum(len(self._fams[fam].leaves) - 1
                                 for fam in mergeable),
            "attached_fallbacks": self._attached,
            "ambiguous_fallbacks": self._ambiguous,
            "legacy_causes": self._legacy,
            "reports": len(self._assignment),
        }
        return BucketRefinement(assignment=self._assignment,
                                hierarchy=hierarchy, stats=stats)

    def take_changed(self) -> set:
        """The report ids whose assignment changed since the last call
        (new ids included).  Call it after :meth:`refinement`, which
        resolves the pending fallback sites."""
        changed, self._changed = self._changed, set()
        return changed

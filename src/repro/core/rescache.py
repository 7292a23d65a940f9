"""Persistent cross-run RES result cache (warm-start triage, PR 4).

The paper's triage use case (§3.1) is not a one-shot batch job: the
same coredump corpus is re-triaged every time the engine, the corpus,
or the build evolves.  Before this module, every ``res triage`` run
re-paid the full backward-search cost because all RES/solver caches and
triage dedup state died with the process.  The result cache makes the
synthesized verdict itself durable, keyed so strictly that a stale
entry can never be *mistaken* for a fresh one:

    key = sha256(CACHE_SCHEMA_VERSION,
                 module fingerprint,      # program source + name
                 coredump fingerprint,    # Coredump.fingerprint()
                 config fingerprint)      # every RESConfig knob + the
                                          # triage drive budgets + the
                                          # solver caps

A cached verdict is a pure function of that key — the root cause the
drive settled on, the exploitability flag, the digests of the suffixes
it examined, and the search-effort stats.  Deliberately *not* in the
key: developer annotations and the WER fallback stack depth — those
only affect how a cause maps to a bucket, and the bucket mapping is
re-derived from the cached cause on every warm hit (so annotation
changes retro-actively re-bucket cached verdicts, exactly like cold
runs).

Correctness contract (regression-tested by ``tests/test_rescache.py``):

* **any** fingerprint mismatch — edited program, different coredump,
  bumped ``RESConfig`` knob, bumped ``CACHE_SCHEMA_VERSION`` — is a
  miss, never a partial hit;
* a corrupt or truncated cache file is skipped with a warning, never a
  crash and never a wrong hit (the row log is append-only, so a crash
  mid-append can tear at most the final line);
* a warm run over an unchanged corpus is byte-identical to a cold run
  (buckets, rows, accuracy) — enforced by ``tests/test_triage.py`` and
  ``benchmarks/test_p4_warm_triage.py``.

On-disk layout (all writes durable via :mod:`repro.ioutil`)::

    <cache-dir>/
      meta.json           # schema version, informational
      rescache.jsonl      # append-only verdict rows, compacted by gc
      solver/<module_fp>.json   # exported residual-component caches
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import threading
import warnings
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.ioutil import append_line, atomic_write_json
from repro.vm.state import PC
from repro.core.res import RESConfig
from repro.core.rootcause import CauseEvidence, RootCause

#: bump on ANY change to verdict synthesis, solver semantics, or the
#: row format — old rows become unreachable (pure misses), never
#: misread.  History: 1 = PR 4 initial format; 2 = PR 7
#: evidence-enriched causes (a schema-1 row would replay a cause
#: without bucketing evidence and silently coarsen its bucket, so old
#: rows are recomputed instead); 3 = the ``RESConfig.bytecode`` knob
#: removed (every config fingerprint changed, so the bump lets
#: ``res cache gc`` drop the rows no key can reach any more); 4 = the
#: solver asserts constraints in sequence order and orders search
#: variables by (candidates, degree, name), so verdicts and exported
#: component caches computed under the old orders are recomputed.
CACHE_SCHEMA_VERSION = 4

ROWS_FILE = "rescache.jsonl"
META_FILE = "meta.json"
SOLVER_DIR = "solver"


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------

def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def module_fingerprint(source: str, name: str = "") -> str:
    """Identity of the program under triage: its source text plus the
    module name it compiles under (the name participates in coredump →
    module matching, so it is part of the verdict's input)."""
    return _digest(f"module\x00{name}\x00{source}")


def res_config_fingerprint(config: RESConfig,
                           **extra: Union[int, float, str, bool]) -> str:
    """Fingerprint of *every* knob the verdict depends on.

    Walks the dataclass fields of :class:`RESConfig` (so a newly added
    knob can never be silently left out of the key) and folds in any
    ``extra`` driver-level budgets (triage suffix budgets, solver caps).
    """
    payload: Dict[str, object] = {}
    for spec in fields(config):
        value = getattr(config, spec.name)
        if isinstance(value, Enum):
            value = value.value
        elif isinstance(value, frozenset):
            value = sorted(value)
        payload[spec.name] = value
    for key, value in extra.items():
        payload[f"extra.{key}"] = value
    return _digest("resconfig\x00"
                   + json.dumps(payload, sort_keys=True))


@dataclass(frozen=True)
class CacheKey:
    """The strict four-part key of one cached verdict."""

    module_fp: str
    coredump_fp: str
    config_fp: str
    schema: int = CACHE_SCHEMA_VERSION

    def digest(self) -> str:
        return _digest(f"{self.schema}\x00{self.module_fp}"
                       f"\x00{self.coredump_fp}\x00{self.config_fp}")


# ---------------------------------------------------------------------------
# Cached verdicts
# ---------------------------------------------------------------------------

def cause_to_obj(cause: Optional[RootCause]) -> Optional[dict]:
    """JSON-safe form of a root cause (also used by the intake
    daemon's job journal)."""
    return _cause_to_obj(cause)


def cause_from_obj(obj: Optional[dict]) -> Optional[RootCause]:
    """Inverse of :func:`cause_to_obj`."""
    return _cause_from_obj(obj)


def _cause_to_obj(cause: Optional[RootCause]) -> Optional[dict]:
    if cause is None:
        return None
    obj = {
        "kind": cause.kind,
        "description": cause.description,
        "addr": cause.addr,
        "threads": list(cause.threads),
        "pcs": [[pc.function, pc.block, pc.index] for pc in cause.pcs],
        "object_name": cause.object_name,
    }
    if cause.evidence is not None:
        obj["evidence"] = {
            "trap_kind": cause.evidence.trap_kind,
            "crash_fn": cause.evidence.crash_fn,
            "expr_skeleton": cause.evidence.expr_skeleton,
            "taint_classes": list(cause.evidence.taint_classes),
            "suffix_shape": cause.evidence.suffix_shape,
        }
    return obj


def _cause_from_obj(obj: Optional[dict]) -> Optional[RootCause]:
    if obj is None:
        return None
    # Absent on pre-PR-7 rows (daemon journals): the cause keeps its
    # coarse signature rather than guessing evidence it never recorded.
    raw = obj.get("evidence")
    evidence = CauseEvidence(
        trap_kind=raw["trap_kind"],
        crash_fn=raw["crash_fn"],
        expr_skeleton=raw["expr_skeleton"],
        taint_classes=tuple(raw["taint_classes"]),
        suffix_shape=raw["suffix_shape"],
    ) if raw is not None else None
    return RootCause(
        kind=obj["kind"],
        description=obj["description"],
        addr=obj["addr"],
        threads=tuple(obj["threads"]),
        pcs=tuple(PC(f, b, i) for f, b, i in obj["pcs"]),
        object_name=obj["object_name"],
        evidence=evidence,
    )


@dataclass
class CachedVerdict:
    """What the triage drive synthesized for one (module, coredump,
    config) triple — everything needed to reconstruct the triage result
    byte-identically, plus observability extras."""

    cause: Optional[RootCause]
    exploitable: bool
    #: wall-clock the original (cold) synthesis cost — the work a warm
    #: hit avoids re-paying; reported in cache stats
    seconds: float = 0.0
    #: short digests of the suffixes the drive examined, auditable
    #: against a cold recompute
    suffix_digests: Tuple[str, ...] = ()
    #: search-effort counters of the original drive
    stats: Optional[Dict[str, int]] = None

    def to_obj(self) -> dict:
        return {
            "cause": _cause_to_obj(self.cause),
            "exploitable": self.exploitable,
            "seconds": round(self.seconds, 6),
            "suffixes": list(self.suffix_digests),
            "stats": self.stats,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "CachedVerdict":
        return cls(
            cause=_cause_from_obj(obj["cause"]),
            exploitable=bool(obj["exploitable"]),
            seconds=float(obj.get("seconds", 0.0)),
            suffix_digests=tuple(obj.get("suffixes", ())),
            stats=obj.get("stats"),
        )

    def hit_attrs(self) -> dict:
        """Span attributes for a warm hit that short-circuited on this
        row: what the hit *avoided* — the original drive's wall-clock
        and solver effort (flight-recorder surface; plain JSON types)."""
        stats = self.stats or {}
        return {
            "cached": True,
            "saved_seconds": round(self.seconds, 6),
            "solver_calls_saved": int(stats.get("solver_calls", 0) or 0),
        }


# ---------------------------------------------------------------------------
# The on-disk store
# ---------------------------------------------------------------------------

class ResultCache:
    """Append + compact JSON-row store of cached verdicts.

    ``put`` durably appends one row per verdict as results land, so an
    interrupted run leaves a valid (partial) cache behind and a resumed
    run warm-starts from it.  ``gc`` compacts: last write per key wins,
    rows from other schema versions are dropped.

    ``readonly`` marks a warm-from source that must never be written
    (e.g. a shared baseline cache mounted by CI).

    One instance is safe to share across threads: the intake daemon's
    worker pool looks up and appends verdicts concurrently from a
    long-lived process, so the in-memory index and the append path are
    serialized behind a reentrant lock.

    One *directory* is also safe to share across processes — the fleet
    daemon forks worker processes that each hold their own instance
    over the same spool:

    * appends were always safe (``append_line`` writes whole fsynced
      lines to an O_APPEND handle; readers skip torn rows), but the
      memoized index used to go stale the moment a sibling process
      appended.  The index now remembers the byte offset it has
      consumed and, on every lookup miss, tail-reads whatever other
      appenders added since — a verdict cached by any worker process
      becomes a warm hit everywhere without re-parsing the whole log.
    * solver sidecars are read-merge-write documents, so the in-process
      lock is not enough; the merge cycle now holds an ``flock`` on a
      per-module lock file as well.

    (``gc`` remains a single-writer operation: run it from one process
    while no daemon is appending, like any compaction.)
    """

    def __init__(self, directory: Union[str, Path],
                 readonly: bool = False):
        self.root = Path(directory)
        self.readonly = readonly
        self._index: Optional[Dict[str, dict]] = None
        #: raw (non-blank) line count observed by the last index load —
        #: entries vs. raw rows is the compaction/corruption signal
        self._raw_lines = 0
        #: byte offset consumed through the last *complete* row line —
        #: the tail-refresh cursor for cross-process appends
        self._tail_offset = 0
        #: serializes index (re)loads and appends across daemon threads
        self._lock = threading.RLock()

    # -- paths ---------------------------------------------------------------

    @property
    def rows_path(self) -> Path:
        return self.root / ROWS_FILE

    @property
    def meta_path(self) -> Path:
        return self.root / META_FILE

    def solver_path(self, module_fp: str) -> Path:
        return self.root / SOLVER_DIR / f"{module_fp}.json"

    # -- loading -------------------------------------------------------------

    def _load_index(self) -> Dict[str, dict]:
        """Parse the row log; corrupt/torn rows are skipped with a
        warning (a crash mid-append legitimately tears the final line;
        anything else is damage we refuse to guess about)."""
        with self._lock:
            return self._load_index_locked()

    def _load_index_locked(self) -> Dict[str, dict]:
        if self._index is not None:
            return self._index
        index: Dict[str, dict] = {}
        self._raw_lines = 0
        self._tail_offset = 0
        raw = b""
        if self.rows_path.exists():
            try:
                raw = self.rows_path.read_bytes()
            except OSError as exc:
                warnings.warn(f"rescache: unreadable cache file "
                              f"{self.rows_path}: {exc}; starting cold",
                              RuntimeWarning, stacklevel=3)
                raw = b""
        self._index = index
        self._ingest_locked(raw, offset=0)
        if self._tail_offset < len(raw):
            # A trailing fragment at *load* time is the torn final line
            # of a crashed appender (not a sibling's in-flight append,
            # as it would be mid-refresh): count it as the contractual
            # torn row and consume it — the next append heals the
            # missing newline before writing.
            self._raw_lines += 1
            self._tail_offset = len(raw)
            warnings.warn(
                f"rescache: skipped 1 corrupt row(s) in "
                f"{self.rows_path}; they will be recomputed",
                RuntimeWarning, stacklevel=4)
        return index

    def _ingest_locked(self, raw: bytes, offset: int) -> None:
        """Parse row bytes starting at ``offset`` into the index,
        advancing the tail cursor through the last *complete* line (a
        trailing fragment is someone's in-flight append — it stays
        unconsumed and re-parses once its newline lands)."""
        cut = raw.rfind(b"\n") + 1
        self._tail_offset = offset + cut
        skipped = 0
        try:
            text = raw[:cut].decode("utf-8")
        except UnicodeDecodeError:
            text = raw[:cut].decode("utf-8", errors="replace")
        for line in text.splitlines():
            if not line.strip():
                continue
            self._raw_lines += 1
            try:
                row = json.loads(line)
                if row["schema"] != CACHE_SCHEMA_VERSION:
                    continue  # other schema: unreachable, not corrupt
                # Reject rows whose digest does not match their own
                # fingerprints — a mis-stitched row must be a miss.
                key = CacheKey(module_fp=row["module_fp"],
                               coredump_fp=row["coredump_fp"],
                               config_fp=row["config_fp"],
                               schema=row["schema"])
                if key.digest() != row["key"]:
                    raise ValueError("row digest mismatch")
                CachedVerdict.from_obj(row["verdict"])  # shape check
            except (ValueError, KeyError, TypeError):
                skipped += 1
                continue
            self._index[row["key"]] = row
        if skipped:
            warnings.warn(
                f"rescache: skipped {skipped} corrupt row(s) in "
                f"{self.rows_path}; they will be recomputed",
                RuntimeWarning, stacklevel=3)

    def _refresh_index_locked(self) -> Dict[str, dict]:
        """Fold in rows other *processes* appended since the last read.

        O(new bytes): one stat, and a read only of the unseen region.
        A file smaller than the consumed offset means someone compacted
        (``gc``) underneath us — reload from scratch."""
        index = self._load_index_locked()
        try:
            size = self.rows_path.stat().st_size
        except OSError:
            return index
        if size == self._tail_offset:
            return index
        if size < self._tail_offset:
            self._index = None  # compacted underneath us: full reload
            return self._load_index_locked()
        try:
            with open(self.rows_path, "rb") as handle:
                handle.seek(self._tail_offset)
                raw = handle.read()
        except OSError:
            return index
        self._ingest_locked(raw, offset=self._tail_offset)
        return index

    # -- the strict hit test -------------------------------------------------

    def lookup(self, key: CacheKey) -> Optional[CachedVerdict]:
        """Return the cached verdict for ``key``, or None.

        Strict by construction: the digest covers all four components,
        and the stored per-component fingerprints are re-checked against
        the query — any mismatch (module edited, coredump changed,
        config knob bumped, schema bumped) is a miss, never a partial
        hit."""
        if key.schema != CACHE_SCHEMA_VERSION:
            return None
        with self._lock:
            row = self._load_index_locked().get(key.digest())
            if row is None:
                # Miss: another process may have cached it since the
                # last read — tail-read the unseen bytes before giving
                # up.  Hits stay O(1); misses cost one stat.
                row = self._refresh_index_locked().get(key.digest())
        if row is None:
            return None
        if (row["module_fp"] != key.module_fp
                or row["coredump_fp"] != key.coredump_fp
                or row["config_fp"] != key.config_fp
                or row["schema"] != key.schema):
            return None  # defense in depth vs digest collisions/forgeries
        return CachedVerdict.from_obj(row["verdict"])

    # -- writing -------------------------------------------------------------

    def put(self, key: CacheKey, verdict: CachedVerdict) -> None:
        """Durably append one verdict row (no-op on a readonly cache)."""
        if self.readonly:
            return
        row = {
            "schema": key.schema,
            "key": key.digest(),
            "module_fp": key.module_fp,
            "coredump_fp": key.coredump_fp,
            "config_fp": key.config_fp,
            "verdict": verdict.to_obj(),
        }
        with self._lock:
            if not self.meta_path.exists():
                atomic_write_json(self.meta_path,
                                  {"schema": CACHE_SCHEMA_VERSION,
                                   "format": "rescache-jsonl"})
            index = self._load_index_locked()  # before the append: the
            #                           new row must not be counted twice
            append_line(self.rows_path, json.dumps(row, sort_keys=True))
            index[row["key"]] = row
            # The tail cursor stays put: sibling processes may have
            # appended between our last read and this write, and
            # skipping to end-of-file would swallow their rows.  The
            # next refresh re-parses our own row — idempotent — along
            # with theirs, and keeps the raw-line count exact.
            self._refresh_index_locked()

    # -- solver-cache sidecars ----------------------------------------------

    def load_solver_cache(self, module_fp: str) -> Optional[dict]:
        """The exported residual-component cache for one module, or
        None (missing or corrupt — corrupt is a warning, not a crash)."""
        with self._lock:
            path = self.solver_path(module_fp)
            if not path.exists():
                return None
            try:
                payload = json.loads(path.read_text())
                if payload.get("schema") != CACHE_SCHEMA_VERSION:
                    return None
                return payload.get("solver")
            except (OSError, ValueError) as exc:
                warnings.warn(f"rescache: skipping corrupt solver cache "
                              f"{path}: {exc}", RuntimeWarning,
                              stacklevel=2)
                return None

    def store_solver_cache(self, module_fp: str, snapshot: dict) -> None:
        if self.readonly or not snapshot.get("rows"):
            return
        with self._lock:
            atomic_write_json(self.solver_path(module_fp),
                              {"schema": CACHE_SCHEMA_VERSION,
                               "module_fp": module_fp,
                               "solver": snapshot})

    def _acquire_module_flock(self, module_fp: str) -> Optional[int]:
        """Exclusive cross-process lock for one module's sidecar, as an
        open fd (None when the filesystem cannot provide one — then
        in-process serialization is all we get).  A separate ``.lock``
        file, not the sidecar itself: the store path replaces the
        sidecar atomically, which would orphan a lock held on the old
        inode."""
        path = self.solver_path(module_fp).with_suffix(".json.lock")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(str(path), os.O_RDWR | os.O_CREAT, 0o644)
        except OSError:
            return None
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
        except OSError:
            os.close(fd)
            return None
        return fd

    def update_solver_cache(self, module_fp: str, merge) -> None:
        """Atomic read-merge-write of one solver sidecar: ``merge``
        maps the current snapshot (or None) to the one to store.  The
        whole cycle holds the cache lock — two daemon workers flushing
        engines for the same module cannot interleave their loads and
        silently drop each other's rows (a plain load→merge→store pair
        is exactly that race) — and an ``flock`` on a per-module lock
        file, which closes the same race between worker *processes*."""
        if self.readonly:
            return
        with self._lock:
            fd = self._acquire_module_flock(module_fp)
            try:
                merged = merge(self.load_solver_cache(module_fp))
                if merged and merged.get("rows"):
                    self.store_solver_cache(module_fp, merged)
            finally:
                if fd is not None:
                    os.close(fd)  # releases the flock

    # -- maintenance ---------------------------------------------------------

    def stats(self) -> dict:
        """Machine-readable cache health (also ``res cache stats``)."""
        with self._lock, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            self._load_index_locked()
            index = dict(self._refresh_index_locked())
            raw_lines = self._raw_lines
        size = self.rows_path.stat().st_size \
            if self.rows_path.exists() else 0
        solver_dir = self.root / SOLVER_DIR
        solver_files = sorted(solver_dir.glob("*.json")) \
            if solver_dir.exists() else []
        cached_seconds = sum(row["verdict"].get("seconds", 0.0)
                             for row in index.values())
        return {
            "directory": str(self.root),
            "schema": CACHE_SCHEMA_VERSION,
            "entries": len(index),
            "rows": raw_lines,
            "stale_or_corrupt_rows": max(0, raw_lines - len(index)),
            "rows_bytes": size,
            "solver_modules": len(solver_files),
            "solver_bytes": sum(p.stat().st_size for p in solver_files),
            "cached_seconds": round(cached_seconds, 3),
        }

    def gc(self, keep_module_fps: Optional[Iterable[str]] = None) -> dict:
        """Compact the row log: one row per key (last write wins), rows
        from other schema versions dropped.  With ``keep_module_fps``,
        verdicts and solver sidecars for modules no longer in any live
        corpus are dropped too.  Returns before/after stats."""
        with self._lock:
            before = self.stats()
            keep = set(keep_module_fps) \
                if keep_module_fps is not None else None
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                index = self._load_index_locked()
            kept_rows = [row for row in index.values()
                         if keep is None or row["module_fp"] in keep]
            kept_rows.sort(key=lambda row: row["key"])
            if self.readonly:
                return {"before": before, "after": before,
                        "readonly": True}
            from repro.ioutil import atomic_write_text

            text = "".join(json.dumps(row, sort_keys=True) + "\n"
                           for row in kept_rows)
            atomic_write_text(self.rows_path, text)
            atomic_write_json(self.meta_path,
                              {"schema": CACHE_SCHEMA_VERSION,
                               "format": "rescache-jsonl"})
            if keep is not None:
                solver_dir = self.root / SOLVER_DIR
                if solver_dir.exists():
                    for path in solver_dir.glob("*.json"):
                        if path.stem not in keep:
                            path.unlink()
            self._index = {row["key"]: row for row in kept_rows}
            self._raw_lines = len(kept_rows)
            self._tail_offset = len(text.encode("utf-8"))
            return {"before": before, "after": self.stats(),
                    "readonly": False}


# ---------------------------------------------------------------------------
# Multi-source lookup (a writable cache + readonly warm-from sources)
# ---------------------------------------------------------------------------

class CacheChain:
    """First-hit-wins lookup across a writable cache and any number of
    readonly warm-from sources; writes go to the writable cache only."""

    def __init__(self, primary: Optional[ResultCache],
                 sources: Tuple[ResultCache, ...] = ()):
        self.primary = primary
        self.sources = sources

    @classmethod
    def open(cls, cache_dir: Optional[str],
             warm_from: Tuple[str, ...] = ()) -> "CacheChain":
        primary = ResultCache(cache_dir) if cache_dir else None
        sources = tuple(ResultCache(path, readonly=True)
                        for path in warm_from if path)
        return cls(primary, sources)

    @property
    def enabled(self) -> bool:
        return self.primary is not None or bool(self.sources)

    def lookup(self, key: CacheKey) -> Optional[CachedVerdict]:
        for cache in self._all():
            found = cache.lookup(key)
            if found is not None:
                return found
        return None

    def put(self, key: CacheKey, verdict: CachedVerdict) -> None:
        """Best-effort: a cache row is an optimization, so disk trouble
        (ENOSPC on the cache volume) must never discard the computed
        verdict the caller is about to return — warn and move on; the
        next process simply recomputes what this row would have saved."""
        if self.primary is None:
            return
        try:
            self.primary.put(key, verdict)
        except OSError as exc:
            warnings.warn(f"rescache: cache append failed ({exc}); "
                          f"verdict served but not cached",
                          RuntimeWarning, stacklevel=2)

    def update_solver_cache_safe(self, module_fp: str, merge) -> None:
        """Best-effort solver-sidecar flush (same rationale as
        :meth:`put`: sidecars accelerate the next life, losing one must
        not fail the session that tried to write it)."""
        try:
            self.update_solver_cache(module_fp, merge)
        except OSError as exc:
            warnings.warn(f"rescache: solver cache flush failed ({exc}); "
                          f"skipped", RuntimeWarning, stacklevel=2)

    def load_solver_cache(self, module_fp: str) -> Optional[dict]:
        for cache in self._all():
            found = cache.load_solver_cache(module_fp)
            if found is not None:
                return found
        return None

    def store_solver_cache(self, module_fp: str, snapshot: dict) -> None:
        if self.primary is not None:
            self.primary.store_solver_cache(module_fp, snapshot)

    def update_solver_cache(self, module_fp: str, merge) -> None:
        if self.primary is not None:
            self.primary.update_solver_cache(module_fp, merge)

    def _all(self) -> List[ResultCache]:
        out: List[ResultCache] = []
        if self.primary is not None:
            out.append(self.primary)
        out.extend(self.sources)
        return out

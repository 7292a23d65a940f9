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
  crash and never a wrong hit (the row log is a durable
  :class:`repro.ioutil.SegmentedLog`, so a crash mid-append can tear at
  most the final line, and any damaged row — torn, garbage, or not
  UTF-8 — reads as "skipped N corrupt row(s)");
* a warm run over an unchanged corpus is byte-identical to a cold run
  (buckets, rows, accuracy) — enforced by ``tests/test_triage.py`` and
  ``benchmarks/test_p4_warm_triage.py``.

On-disk layout (all writes durable via :mod:`repro.ioutil`)::

    <cache-dir>/
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

from repro.ioutil import SegmentedLog, atomic_write_json
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
    """JSON-safe form of a root cause (a cached verdict's, and a
    ``done`` verdict's in the intake daemon's job journal)."""
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


def cause_from_obj(obj: Optional[dict]) -> Optional[RootCause]:
    """Inverse of :func:`cause_to_obj`."""
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
            "cause": cause_to_obj(self.cause),
            "exploitable": self.exploitable,
            "seconds": round(self.seconds, 6),
            "suffixes": list(self.suffix_digests),
            "stats": self.stats,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "CachedVerdict":
        return cls(
            cause=cause_from_obj(obj["cause"]),
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

    * appends are whole fsynced lines on an ``O_APPEND`` handle, and
      the in-memory index remembers the byte offset it has read
      through.  On every lookup miss it reads whatever any appender
      added since, so a verdict cached by any worker process becomes a
      warm hit everywhere without re-parsing the whole log.
    * solver sidecars are read-merge-write documents, so the in-process
      lock is not enough; the merge cycle also holds an ``flock`` on a
      per-module lock file.

    (``gc`` remains a single-writer operation: run it from one process
    while no daemon is appending, like any compaction.)
    """

    def __init__(self, directory: Union[str, Path],
                 readonly: bool = False):
        self.root = Path(directory)
        self.readonly = readonly
        self._log = SegmentedLog(self.root / ROWS_FILE)
        self._index: Dict[str, dict] = {}
        #: non-blank lines read — entries vs. lines is the
        #: compaction/corruption signal
        self._lines = 0
        #: byte offset read through (the end of the last complete line)
        self._offset = 0
        #: serializes index refreshes and appends across daemon threads
        self._lock = threading.RLock()

    # -- paths ---------------------------------------------------------------

    @property
    def rows_path(self) -> Path:
        return self._log.path

    def solver_path(self, module_fp: str) -> Path:
        return self.root / SOLVER_DIR / f"{module_fp}.json"

    # -- reading -------------------------------------------------------------

    def _refresh_locked(self) -> Dict[str, dict]:
        """Fold in the rows any process appended since the last read:
        one stat, and a read of only the unseen bytes (all of them
        again if ``gc`` shrank the log).  Damaged rows are skipped with
        a warning and recomputed.  Bytes after the last newline may be
        a sibling's append in flight, so they stay unread; only a load
        (a read from 0) counts them as the torn row a crash left."""
        try:
            size = self.rows_path.stat().st_size
        except OSError:
            return self._index
        if size == self._offset:
            return self._index
        if size < self._offset:
            self._index, self._lines, self._offset = {}, 0, 0
        try:
            chunk = self._log.read(offset=self._offset)
        except OSError as exc:
            warnings.warn(f"rescache: unreadable cache file "
                          f"{self.rows_path}: {exc}; starting cold",
                          RuntimeWarning, stacklevel=3)
            return self._index
        skipped = chunk.skipped
        if chunk.torn and self._offset == 0:
            skipped += 1
        for row in chunk.rows:
            try:
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
        self._lines += len(chunk.rows) + chunk.skipped
        self._offset = chunk.end
        if skipped:
            warnings.warn(
                f"rescache: skipped {skipped} corrupt row(s) in "
                f"{self.rows_path}; they will be recomputed",
                RuntimeWarning, stacklevel=3)
        return self._index

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
            row = self._index.get(key.digest())
            if row is None:
                # Miss: another process may have cached it since the
                # last read — read the unseen bytes before giving up.
                # Hits stay O(1); misses cost one stat.
                row = self._refresh_locked().get(key.digest())
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
            # Fold in unseen rows first, so damage in them warns now.
            # The offset stays before our own row: jumping past it
            # would swallow rows siblings append meanwhile, and reading
            # it again later is idempotent.
            self._refresh_locked()
            self._log.append([row])
            self._index[row["key"]] = row

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
            index = dict(self._refresh_locked())
            lines = self._lines
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
            "rows": lines,
            "stale_or_corrupt_rows": max(0, lines - len(index)),
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
            before = self.stats()  # reads every row written so far
            keep = set(keep_module_fps) \
                if keep_module_fps is not None else None
            kept_rows = [row for row in self._index.values()
                         if keep is None or row["module_fp"] in keep]
            kept_rows.sort(key=lambda row: row["key"])
            if self.readonly:
                return {"before": before, "after": before,
                        "readonly": True}
            self._log.rewrite(self.rows_path, kept_rows)
            if keep is not None:
                solver_dir = self.root / SOLVER_DIR
                if solver_dir.exists():
                    for path in solver_dir.glob("*.json"):
                        if path.stem not in keep:
                            path.unlink()
            # Read the compacted log afresh (``stats`` below does).
            self._index, self._lines, self._offset = {}, 0, 0
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

    def update_solver_cache(self, module_fp: str, merge) -> None:
        if self.primary is not None:
            self.primary.update_solver_cache(module_fp, merge)

    def _all(self) -> List[ResultCache]:
        out: List[ResultCache] = []
        if self.primary is not None:
            out.append(self.primary)
        out.extend(self.sources)
        return out

"""Small shared I/O helpers: atomic rewrites and the append-only log.

Anything the system persists incrementally — fuzz divergence artifacts,
the triage report store, the RES result cache, the benchmark log — must
never be observable half-written: an interrupted ``--jobs`` run that
leaves a truncated JSON file behind produces artifacts that later fail
to parse or reproduce.  Two patterns:

* **atomic rewrite** — write to a temp file in the target directory,
  ``fsync`` it, then ``os.replace`` (atomic on POSIX within one
  filesystem), then best-effort ``fsync`` the directory.  Without the
  temp-file fsync the rename can be durable *before* the data is: a
  power cut after the replace may surface an empty or garbage target
  even though the write "succeeded".  The directory fsync makes the
  rename itself durable; it is best-effort because some filesystems
  (and platforms) refuse to fsync a directory fd.
* **append-only log** — :class:`SegmentedLog`, the one implementation
  under the job journal, the span ring and the result cache: whole
  JSON rows appended to an active file (fsynced when the log is
  durable, so a crash tears at most the final line), closed
  ``<name>.seg-NNNNNN`` segments beside it, and a reader that resumes
  from a byte offset, stops at the last newline, and skips and counts
  every damaged line — torn, garbage, or not UTF-8.
"""

from __future__ import annotations

import errno
import json
import os
import re
import tempfile
import threading
from pathlib import Path
from typing import Iterable, List, NamedTuple, Optional, Union

from repro import faultinject


def fsync_dir(directory: Union[str, Path]) -> bool:
    """Best-effort fsync of a directory (makes renames in it durable).

    Returns whether the fsync happened; failure is not an error —
    the caller's data is already safely in the file, only the rename's
    durability window stays open on filesystems that cannot do this.
    """
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return False
    try:
        os.fsync(fd)
        return True
    except OSError:
        return False
    finally:
        os.close(fd)


def atomic_write_text(path: Union[str, Path], text: str) -> str:
    """Durably write ``text`` to ``path``; returns the path written."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fi = faultinject.active()
    fault = fi.decide("ioutil.atomic_write", path=target) \
        if fi is not None else None
    if fault == "enospc":
        raise OSError(errno.ENOSPC, f"injected ENOSPC: {target}")
    fd, tmp_path = tempfile.mkstemp(dir=str(target.parent),
                                    prefix=target.name + ".")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            # The data must hit stable storage *before* the rename does:
            # os.replace only orders metadata, so a crash shortly after
            # it can otherwise surface an empty/garbage target.
            os.fsync(handle.fileno())
        if fault == "interrupt":
            # Die between the temp write and the rename: the crash
            # window atomic replacement exists for.  The except below
            # unlinks the temp file; the target must stay untouched.
            raise OSError(errno.EIO,
                          f"injected crash before replace: {target}")
        os.replace(tmp_path, str(target))
    except BaseException:
        os.unlink(tmp_path)
        raise
    fsync_dir(target.parent)
    return str(target)


def atomic_write_json(path: Union[str, Path], payload: dict,
                      indent: int = 1, sort_keys: bool = True) -> str:
    """Durably write ``payload`` as JSON to ``path``."""
    return atomic_write_text(
        path, json.dumps(payload, indent=indent, sort_keys=sort_keys) + "\n")


class LogChunk(NamedTuple):
    """What one :meth:`SegmentedLog.read` found: the ``rows`` that
    parsed as JSON objects, in order; the offset ``end`` just past the
    last complete line, where the next read resumes; how many other
    non-blank complete lines were ``skipped`` as damage; and whether
    bytes follow the last newline (``torn``: a crash's torn final line,
    or an append still in flight, left unread)."""

    rows: List[dict]
    end: int
    skipped: int
    torn: bool


_SEGMENT_SUFFIX = re.compile(r"\.seg-(\d+)$")


def _segment_number(segment: Path) -> int:
    return int(_SEGMENT_SUFFIX.search(segment.name).group(1))


def _encode(rows: Iterable[dict]) -> str:
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)


class SegmentedLog:
    """An append-only JSONL log: the active file ``path`` plus closed
    ``<name>.seg-NNNNNN`` segments beside it.

    A *durable* log fsyncs every append and is the
    ``ioutil.append_line`` fault site; a non-durable one (telemetry)
    only writes.  A crash tears at most the final line, which readers
    never read; the next append heals it into a damaged line that they
    skip.  Threads may share an instance (appends and rotations are
    serialized); processes sharing a file rely on ``O_APPEND``.
    """

    def __init__(self, path: Union[str, Path], durable: bool = True):
        self.path = Path(path)
        self.durable = durable
        self._lock = threading.Lock()

    def segments(self) -> List[Path]:
        """Closed segments, oldest first.  Anything else sharing the
        prefix — an atomic rewrite's temp file, say — is not one."""
        segments = [candidate for candidate
                    in self.path.parent.glob(self.path.name + ".seg-*")
                    if _SEGMENT_SUFFIX.search(candidate.name)]
        return sorted(segments, key=_segment_number)

    def files(self) -> List[Path]:
        """Every file of the log in order: the closed segments, then
        the active file (which may not exist yet)."""
        return self.segments() + [self.path]

    def append(self, rows: Iterable[dict]) -> None:
        """Append ``rows`` as whole JSON lines to the active file, in
        one write.  If the file does not end in a newline (a crash tore
        its last line), the write starts with one, so the new rows are
        not glued onto the fragment.  A durable append is fsynced before
        returning, and an injected fault is decided once per call."""
        data = _encode(rows).encode("utf-8")
        with self._lock:
            fi = faultinject.active() if self.durable else None
            fault = fi.decide("ioutil.append_line", path=self.path) \
                if fi is not None else None
            if fault == "enospc":
                raise OSError(errno.ENOSPC, f"injected ENOSPC: {self.path}")
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a+b") as handle:
                size = handle.tell()
                if size and os.pread(handle.fileno(), 1, size - 1) != b"\n":
                    data = b"\n" + data
                if fault == "torn":
                    # The crash-mid-append case the reader contract
                    # exists for: a prefix of the rows reaches the file
                    # and the caller sees a failure.
                    handle.write(data[:max(1, len(data) // 2)])
                    handle.flush()
                    raise OSError(errno.ENOSPC,
                                  f"injected torn append: {self.path}")
                handle.write(data)
                handle.flush()
                if fault == "fsync":
                    # Data written but durability not promised — the
                    # caller must treat the rows as lost (they may or
                    # may not survive).
                    raise OSError(errno.EIO,
                                  f"injected fsync failure: {self.path}")
                if self.durable:
                    os.fsync(handle.fileno())

    def rotate(self, min_bytes: int) -> Optional[Path]:
        """Rename the active file to the next closed segment once it
        holds at least ``min_bytes`` (``<= 0`` never rotates); returns
        the segment, or None if nothing rotated (rotation is
        maintenance, never a failure).  Numbers continue from the newest
        segment, so deleting old ones never makes a rotation overwrite
        a live one."""
        if min_bytes <= 0:
            return None
        with self._lock:
            try:
                if self.path.stat().st_size < min_bytes:
                    return None
            except OSError:
                return None
            segments = self.segments()
            number = _segment_number(segments[-1]) + 1 if segments else 1
            segment = self.path.with_name(
                f"{self.path.name}.seg-{number:06d}")
            try:
                os.replace(self.path, segment)
            except OSError:
                return None
            return segment

    def read(self, path: Optional[Path] = None,
             offset: int = 0) -> LogChunk:
        """Parse one file of the log (the active file by default) from
        byte ``offset`` through its last newline.

        A line that is not a JSON object is damage to skip and count,
        never an error: a reader loses at most the rows a crash damaged.
        A missing file reads as empty.  Any other ``OSError`` propagates:
        an unreadable file is not an empty one, and only the caller
        knows whether to refuse, warn, or carry on.
        """
        target = self.path if path is None else Path(path)
        try:
            with open(target, "rb") as handle:
                handle.seek(offset)
                data = handle.read()
        except FileNotFoundError:
            return LogChunk([], offset, 0, False)
        end = data.rfind(b"\n") + 1
        rows: List[dict] = []
        skipped = 0
        for line in data[:end].split(b"\n"):
            if not line.strip():
                continue
            try:
                row = json.loads(line.decode("utf-8"))
            except ValueError:  # UnicodeDecodeError is one too
                row = None
            if isinstance(row, dict):
                rows.append(row)
            else:
                skipped += 1
        return LogChunk(rows, offset + end, skipped, end < len(data))

    def rewrite(self, path: Path, rows: Iterable[dict]) -> int:
        """Atomically replace one file of the log with ``rows``; returns
        the bytes written.  Callers keep appends away from ``path``
        meanwhile: a closed segment has none, and the active file's
        owner holds its own lock."""
        text = _encode(rows)
        atomic_write_text(path, text)
        return len(text.encode("utf-8"))

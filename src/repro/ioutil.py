"""Small shared I/O helpers (durable file writes).

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
* **durable append** — for append-only row logs (the result cache):
  write + flush + fsync in one call, so a crash can truncate at most
  the row being written (readers must skip a torn trailing line).

Append-only logs that grow without bound rotate into closed
``<name>.seg-NNNNNN`` segments beside the active file
(:func:`rotate_segment`, :func:`segment_paths`); the job journal and
the span ring share that format.
"""

from __future__ import annotations

import errno
import json
import os
import re
import tempfile
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator, List, Optional, Tuple, Union

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


@contextmanager
def open_append(path: Union[str, Path]) -> Iterator[BinaryIO]:
    """``with open_append(path) as handle:`` — binary appends of whole
    lines, healing a torn tail first.  If a crash left the file without
    a final newline, one is written, so the next line is not glued onto
    the fragment (readers would skip both and lose a valid row)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "ab") as handle:
        if handle.tell() > 0:
            with open(target, "rb") as reader:
                reader.seek(-1, os.SEEK_END)
                torn = reader.read(1) != b"\n"
            if torn:
                handle.write(b"\n")
        yield handle


def append_line(path: Union[str, Path], line: str) -> str:
    """Durably append one line (no trailing newline needed) to ``path``.

    The append is flushed and fsynced before returning, so a crash can
    tear at most the line being written; readers of append-only row
    logs must tolerate (skip) a truncated final line, and the next
    append heals it (:func:`open_append`).
    """
    target = Path(path)
    fi = faultinject.active()
    fault = fi.decide("ioutil.append_line", path=target) \
        if fi is not None else None
    if fault == "enospc":
        raise OSError(errno.ENOSPC, f"injected ENOSPC: {target}")
    with open_append(target) as handle:
        data = line.rstrip("\n").encode("utf-8") + b"\n"
        if fault == "torn":
            # The crash-mid-append case the reader contract exists
            # for: a prefix of the row reaches the file, the caller
            # sees a failure, and iter_jsonl must skip the fragment.
            handle.write(data[:max(1, len(data) // 2)])
            handle.flush()
            raise OSError(errno.ENOSPC,
                          f"injected torn append: {target}")
        handle.write(data)
        handle.flush()
        if fault == "fsync":
            # Data written but durability not promised — the caller
            # must treat the row as lost (it may or may not survive).
            raise OSError(errno.EIO, f"injected fsync failure: {target}")
        os.fsync(handle.fileno())
    return str(target)


_SEGMENT_SUFFIX = re.compile(r"\.seg-(\d+)$")


def _segment_number(segment: Path) -> int:
    return int(_SEGMENT_SUFFIX.search(segment.name).group(1))


def segment_paths(path: Union[str, Path]) -> List[Path]:
    """Closed ``<name>.seg-NNNNNN`` segments of the log whose active
    file is ``path``, oldest first.  Anything else sharing the prefix —
    an atomic rewrite's temp file, say — is not a segment."""
    target = Path(path)
    segments = [candidate
                for candidate in target.parent.glob(target.name + ".seg-*")
                if _SEGMENT_SUFFIX.search(candidate.name)]
    return sorted(segments, key=_segment_number)


def rotate_segment(path: Union[str, Path],
                   min_bytes: int) -> Optional[Path]:
    """Rename the active log file ``path`` to the next segment once it
    holds at least ``min_bytes`` (``<= 0`` never rotates); returns the
    segment, or None if nothing rotated (rotation is maintenance, never
    a failure).  Numbers continue from the newest segment, so pruning
    old ones never makes a rotation overwrite a live one.  Callers
    serialize this with their appends."""
    if min_bytes <= 0:
        return None
    target = Path(path)
    try:
        if target.stat().st_size < min_bytes:
            return None
    except OSError:
        return None
    segments = segment_paths(target)
    number = _segment_number(segments[-1]) + 1 if segments else 1
    segment = target.with_name(f"{target.name}.seg-{number:06d}")
    try:
        os.replace(target, segment)
    except OSError:
        return None
    return segment


def iter_jsonl(path: Union[str, Path],
               strict: bool = False) -> Iterator[Tuple[int, dict]]:
    """Yield ``(line_number, row)`` for every parseable JSON-object row
    of an append-only log written via :func:`append_line`.

    The crash-safety contract of durable appends is "at most the final
    line tears", so readers must treat an unparseable line as damage to
    skip, not an error: a replayed journal loses at most the row that
    was being written when the process died.  Blank lines and rows that
    are not JSON objects are skipped the same way, with a warning when
    it is more than the contractual torn final line.

    An *unreadable* file is different: the data may be fine and merely
    inaccessible right now, so treating it as empty would silently
    discard the whole log (and let a writer re-issue identities the
    log already assigned).  By default that skips with a warning;
    ``strict`` re-raises the ``OSError`` so the caller can refuse to
    proceed — what a durable journal's replay must do.
    """
    target = Path(path)
    if not target.exists():
        return
    try:
        text = target.read_text()
    except OSError as exc:
        if strict:
            raise
        warnings.warn(f"iter_jsonl: unreadable log {target}: {exc}; "
                      f"treating as empty", RuntimeWarning, stacklevel=2)
        return
    lines = text.splitlines()
    skipped = 0
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except ValueError:
            if number < len(lines):
                skipped += 1  # mid-file damage, beyond the contract
            continue
        if isinstance(row, dict):
            yield number, row
        elif number < len(lines):
            skipped += 1  # valid JSON but not a row object: damage too
    if skipped:
        warnings.warn(f"iter_jsonl: skipped {skipped} corrupt mid-file "
                      f"row(s) in {target}", RuntimeWarning, stacklevel=2)

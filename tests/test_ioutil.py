"""Durable-write helpers: a failed write must never leave a truncated
target or temp litter behind."""

import json

import pytest

from repro.ioutil import SegmentedLog, atomic_write_json, atomic_write_text


def test_atomic_write_creates_parents_and_content(tmp_path):
    target = tmp_path / "nested" / "out.json"
    atomic_write_json(target, {"b": 2, "a": 1})
    payload = json.loads(target.read_text())
    assert payload == {"a": 1, "b": 2}
    assert [p.name for p in (tmp_path / "nested").iterdir()] == ["out.json"]


def test_atomic_write_replaces_existing(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(target, "one")
    atomic_write_text(target, "two")
    assert target.read_text() == "two"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_failed_write_leaves_no_trace(tmp_path):
    """An exception mid-serialization must leave neither a truncated
    target nor a temp file — the divergence-artifact durability bug."""
    target = tmp_path / "out.json"
    atomic_write_text(target, "intact")

    class Boom:
        def __iter__(self):
            raise RuntimeError("serializer died")

    with pytest.raises(TypeError):
        atomic_write_json(target, {"x": Boom()})
    assert target.read_text() == "intact"  # old content untouched
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_interrupted_replace_cleans_temp_file(tmp_path, monkeypatch):
    """A failure between temp-write and rename (the window a Ctrl-C
    lands in) must remove the temp file and keep the old content."""
    import os as os_module

    target = tmp_path / "out.txt"
    atomic_write_text(target, "intact")

    def exploding_replace(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(os_module, "replace", exploding_replace)
    with pytest.raises(KeyboardInterrupt):
        atomic_write_text(target, "half-done")
    monkeypatch.undo()
    assert target.read_text() == "intact"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_data_fsynced_before_replace_then_dir_fsynced(tmp_path, monkeypatch):
    """The PR 4 durability fix: os.replace only orders metadata, so the
    temp file must be fsynced *before* the rename (or a crash after the
    replace can still surface an empty/garbage target), and the
    directory fsynced after (making the rename itself durable)."""
    import os as os_module

    events = []
    real_fsync, real_replace = os_module.fsync, os_module.replace

    def spy_fsync(fd):
        events.append(("fsync", fd))
        return real_fsync(fd)

    def spy_replace(src, dst):
        events.append(("replace", None))
        return real_replace(src, dst)

    monkeypatch.setattr(os_module, "fsync", spy_fsync)
    monkeypatch.setattr(os_module, "replace", spy_replace)
    target = tmp_path / "out.txt"
    atomic_write_text(target, "durable")
    kinds = [kind for kind, _ in events]
    assert kinds == ["fsync", "replace", "fsync"], kinds
    assert target.read_text() == "durable"


def test_failed_data_fsync_fails_the_write_loudly(tmp_path, monkeypatch):
    """If the data cannot reach stable storage the write must raise and
    leave the old content intact — a silent success would be the exact
    bug the fsync was added to fix."""
    import os as os_module

    target = tmp_path / "out.txt"
    atomic_write_text(target, "intact")

    def failing_fsync(fd):
        raise OSError("disk gone")

    monkeypatch.setattr(os_module, "fsync", failing_fsync)
    with pytest.raises(OSError, match="disk gone"):
        atomic_write_text(target, "lost")
    monkeypatch.undo()
    assert target.read_text() == "intact"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_directory_fsync_failure_is_best_effort(tmp_path, monkeypatch):
    """Some filesystems refuse to fsync a directory fd; the write must
    still succeed (the data itself is already durable)."""
    import os as os_module

    real_fsync = os_module.fsync
    calls = [0]

    def flaky_fsync(fd):
        calls[0] += 1
        if calls[0] > 1:  # first call = temp file, later = directory
            raise OSError("EINVAL")
        return real_fsync(fd)

    monkeypatch.setattr(os_module, "fsync", flaky_fsync)
    target = tmp_path / "out.txt"
    assert atomic_write_text(target, "fine") == str(target)
    assert target.read_text() == "fine"
    assert calls[0] >= 2  # the directory fsync was attempted


def test_fsync_dir_returns_false_on_missing_directory(tmp_path):
    from repro.ioutil import fsync_dir

    assert fsync_dir(tmp_path) is True
    assert fsync_dir(tmp_path / "nope") is False


def test_append_line_is_flushed_and_fsynced(tmp_path, monkeypatch):
    """A durable append fsyncs once per call; a non-durable one (the
    span ring) never does."""
    import os as os_module

    fsyncs = []
    real_fsync = os_module.fsync
    monkeypatch.setattr(os_module, "fsync",
                        lambda fd: (fsyncs.append(fd), real_fsync(fd))[1])
    log = SegmentedLog(tmp_path / "rows" / "log.jsonl")
    log.append([{"a": 1}])
    log.append([{"b": 2}, {"c": 3}])
    assert log.path.read_text() == '{"a": 1}\n{"b": 2}\n{"c": 3}\n'
    assert len(fsyncs) == 2
    SegmentedLog(tmp_path / "spans.jsonl", durable=False).append([{"s": 1}])
    assert len(fsyncs) == 2


def test_append_after_torn_line_does_not_merge_rows(tmp_path):
    """Appending after a crash-torn final line must heal the missing
    newline first — otherwise the new row merges into the fragment and
    becomes permanently unreadable (code-review finding)."""
    log = SegmentedLog(tmp_path / "log.jsonl")
    log.append([{"a": 1}])
    # simulate a crash mid-append: torn fragment, no trailing newline
    with open(log.path, "a") as handle:
        handle.write('{"b": 2')
    log.append([{"c": 3}])
    lines = log.path.read_text().splitlines()
    assert lines == ['{"a": 1}', '{"b": 2', '{"c": 3}']


def test_rotate_segment_numbers_past_the_newest_segment(tmp_path):
    """Segments number from the newest one, so a log that prunes its
    oldest segment (the span ring) never overwrites a live one, and an
    atomic rewrite's temp file beside them is not a segment."""
    log = SegmentedLog(tmp_path / "log.jsonl")
    log.path.write_text("row\n")
    assert log.rotate(0) is None  # rotation disabled
    assert log.rotate(1 << 20) is None  # still small
    first = log.rotate(1)
    assert first.name == "log.jsonl.seg-000001" and not log.path.exists()
    assert log.rotate(1) is None  # no active file
    log.path.write_text("row\n")
    second = log.rotate(1)
    first.unlink()
    log.path.write_text("row\n")
    third = log.rotate(1)
    assert third.name == "log.jsonl.seg-000003"
    (tmp_path / "log.jsonl.seg-000002.tmp123").write_text("row\n")
    assert log.segments() == [second, third]
    assert log.files() == [second, third, log.path]


# ---------------------------------------------------------------------------
# Injected disk faults (repro.faultinject): the reader-side recovery
# contract under ENOSPC, torn appends, fsync failures, and interrupted
# atomic writes.
# ---------------------------------------------------------------------------

def test_injected_enospc_append_fails_before_writing(tmp_path):
    """The site is decided once per durable append: a non-durable log
    (the span ring) neither consumes a call index nor fails."""
    from repro import faultinject

    log = SegmentedLog(tmp_path / "log.jsonl")
    log.append([{"a": 1}])
    with faultinject.injected(
            {"seed": 7, "sites": {"ioutil.append_line":
                                  {"at": [0], "kinds": ["enospc"]}}}):
        SegmentedLog(tmp_path / "spans.jsonl", durable=False).append(
            [{"s": 1}])
        with pytest.raises(OSError, match="ENOSPC|injected"):
            log.append([{"b": 2}])
    # ENOSPC fired before the open: the log is byte-identical, and a
    # later append (disk recovered) lands cleanly.
    assert log.read().rows == [{"a": 1}]
    log.append([{"c": 3}])
    assert log.read().rows == [{"a": 1}, {"c": 3}]


def test_injected_torn_append_reader_skips_fragment(tmp_path):
    """The crash-mid-append case: a prefix of the row reaches the file,
    the writer sees a failure, and the reader leaves the fragment
    unread — then the next append heals the missing newline instead of
    merging into the fragment, and readers skip and count it."""
    from repro import faultinject

    log = SegmentedLog(tmp_path / "log.jsonl")
    with faultinject.injected(
            {"seed": 7, "sites": {"ioutil.append_line":
                                  {"at": [1], "kinds": ["torn"]}}}):
        log.append([{"a": 1}])
        with pytest.raises(OSError, match="torn"):
            log.append([{"b": 2}])
        assert not log.path.read_text().endswith("\n")
        chunk = log.read()
        assert chunk.rows == [{"a": 1}] and chunk.torn
        assert chunk.end == len('{"a": 1}\n') and chunk.skipped == 0
        log.append([{"c": 3}])
    chunk = log.read()
    assert chunk.rows == [{"a": 1}, {"c": 3}]
    assert (chunk.skipped, chunk.torn) == (1, False)
    assert log.read(offset=len('{"a": 1}\n')).rows == [{"c": 3}]


def test_injected_fsync_failure_row_may_survive(tmp_path):
    """An fsync failure means durability was not promised: the caller
    must treat the row as lost even though it may well be in the file
    (it is — only the disk's promise is missing)."""
    from repro import faultinject

    log = SegmentedLog(tmp_path / "log.jsonl")
    with faultinject.injected(
            {"seed": 7, "sites": {"ioutil.append_line":
                                  {"at": [0], "kinds": ["fsync"]}}}):
        with pytest.raises(OSError, match="fsync"):
            log.append([{"a": 1}])
    assert log.read().rows == [{"a": 1}]


def test_injected_atomic_interrupt_keeps_target_and_no_litter(tmp_path):
    """A death between the temp-file write and the rename — the window
    atomic replacement exists for — must leave the old target intact
    and no temp litter behind."""
    from repro import faultinject
    from repro.ioutil import atomic_write_text

    target = tmp_path / "out.txt"
    atomic_write_text(target, "intact")
    with faultinject.injected(
            {"seed": 7, "sites": {"ioutil.atomic_write":
                                  {"at": [0], "kinds": ["interrupt"]}}}):
        with pytest.raises(OSError, match="before replace"):
            atomic_write_text(target, "half-done")
    assert target.read_text() == "intact"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_injected_atomic_enospc_keeps_target(tmp_path):
    from repro import faultinject
    from repro.ioutil import atomic_write_text

    target = tmp_path / "out.txt"
    atomic_write_text(target, "intact")
    with faultinject.injected(
            {"seed": 7, "sites": {"ioutil.atomic_write":
                                  {"at": [0], "kinds": ["enospc"]}}}):
        with pytest.raises(OSError, match="ENOSPC|injected"):
            atomic_write_text(target, "lost")
    assert target.read_text() == "intact"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_fault_path_filter_only_counts_matching_calls(tmp_path):
    """path_contains scopes a rule to one file: call indices address
    the *matching* appends only, so interleaved writes to other logs
    never shift the schedule."""
    from repro import faultinject

    journal = SegmentedLog(tmp_path / "jobs.jsonl")
    other = SegmentedLog(tmp_path / "cache.jsonl")
    with faultinject.injected(
            {"seed": 7, "sites": {"ioutil.append_line":
                                  {"at": [1], "kinds": ["enospc"],
                                   "path_contains": "jobs.jsonl"}}}):
        other.append([{"x": 1}])      # not counted
        journal.append([{"a": 1}])    # matching call 0: clean
        other.append([{"x": 2}])      # not counted
        with pytest.raises(OSError):  # matching call 1: fires
            journal.append([{"b": 2}])
        other.append([{"x": 3}])      # other log never faulted
    assert len(other.path.read_text().splitlines()) == 3

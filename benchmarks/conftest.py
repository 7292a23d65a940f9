"""Shared fixtures and reporting helpers for the experiment benchmarks.

Each ``test_*`` module regenerates one table/figure of the paper (see
DESIGN.md's experiment index).  Measured rows are printed with the
``[ROW]`` prefix so EXPERIMENTS.md can be cross-checked against a run's
output directly.

Performance trajectory: perf-marked benchmarks append structured rows
(the throughput benchmarks' before/after numbers) to ``BENCH_res.json``
at the repo root via :func:`bench_record`, each family under its own
key.  Every row is stamped with its provenance (:func:`provenance`),
under the names ``perfbench/run.py`` uses for its results.  Plain test
runs write nothing there; ``pytest --durations=0`` prints per-test wall
times on demand.
"""

from __future__ import annotations

import fcntl
import json
import os
import platform
import subprocess
import time
from pathlib import Path

from repro.ioutil import atomic_write_json

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_res.json"


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "perf: macro performance benchmark (throughput / speedup "
        "measurements recorded in BENCH_res.json)")


def emit_row(experiment: str, **fields) -> None:
    parts = " ".join(f"{key}={value}" for key, value in fields.items())
    print(f"\n[ROW] {experiment}: {parts}")


# ---------------------------------------------------------------------------
# BENCH_res.json bookkeeping
# ---------------------------------------------------------------------------

def _load_bench() -> dict:
    if BENCH_PATH.exists():
        try:
            return json.loads(BENCH_PATH.read_text())
        except (json.JSONDecodeError, OSError):
            pass
    return {}


def _save_bench(payload: dict) -> None:
    # Atomic replace: an interrupted write must never leave a truncated
    # file behind (a corrupt file would reset the whole history on the
    # next load).
    atomic_write_json(BENCH_PATH, payload, indent=2)


def _update_bench(mutate) -> None:
    """Locked read-modify-write so concurrent pytest runs (xdist
    workers, parallel terminals) never lose each other's rows."""
    lock_path = BENCH_PATH.parent / f".{BENCH_PATH.name}.lock"
    with open(lock_path, "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        payload = _load_bench()
        mutate(payload)
        _save_bench(payload)


def _git_sha():
    root = BENCH_PATH.parent
    if not (root / ".git").exists():
        return None  # not a clone: do not report an enclosing repo's sha
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance() -> dict:
    """Where a row was measured: the commit (when the checkout is a git
    clone), the cores this process may run on, the Python version and
    the hash seed (``"random"`` when ``PYTHONHASHSEED`` is unset)."""
    row = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
    }
    sha = _git_sha()
    if sha is not None:
        row["git_sha"] = sha
    return row


def bench_record(section: str, entry: dict) -> None:
    """Append a structured result row under ``section``, stamped with
    its :func:`provenance` (a field of ``entry`` wins over a stamp of
    the same name)."""
    row = dict(provenance(), **entry)
    row["recorded_at"] = round(time.time(), 1)

    def mutate(payload: dict) -> None:
        payload.setdefault(section, []).append(row)

    _update_bench(mutate)

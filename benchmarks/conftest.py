"""Shared fixtures and reporting helpers for the experiment benchmarks.

Each ``test_*`` module regenerates one table/figure of the paper (see
DESIGN.md's experiment index).  Measured rows are printed with the
``[ROW]`` prefix so EXPERIMENTS.md can be cross-checked against a run's
output directly.

Performance trajectory: perf-marked benchmarks append structured rows
(the throughput benchmarks' before/after numbers) to ``BENCH_res.json``
at the repo root via :func:`bench_record`, each family under its own
key.  Plain test runs write nothing there; ``pytest --durations=0``
prints per-test wall times on demand.
"""

from __future__ import annotations

import fcntl
import json
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


def bench_record(section: str, entry: dict) -> None:
    """Append a structured result row under ``section``."""

    def mutate(payload: dict) -> None:
        payload.setdefault(section, []).append(
            dict(entry, recorded_at=round(time.time(), 1)))

    _update_bench(mutate)

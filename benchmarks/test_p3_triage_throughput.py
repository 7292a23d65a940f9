"""P3 — triage-at-scale throughput: the sharded batch triage service
vs the serial per-report sweep (paper §3.1 under report traffic).

Corpus: labeled reports synthesized from fuzz seeds (armed failure
class = ground truth), duplicated the way production crash streams are
— the service's fingerprint dedup, per-worker module-cache sharing, and
process fan-out all get exercised.  The speedup must never change the
answer: the sharded run buckets byte-identically to the serial run and
to a plain engine sweep, with identical accuracy metrics.

Two numbers are gated.  ``speedup`` (the no-dedup serial sweep over the
``jobs=4`` run) is mostly dedup: the sharded run drives only one report
per program.  ``pool_speedup`` (the ``jobs=1`` service run over the
``jobs=4`` one, both deduped) is what the worker pool alone pays, and
must exceed 1 wherever there are two cores to run it on.  Each service
run is a fraction of a second, so both run :data:`PASSES` times in
alternating pairs; the gates read the median pair, and the row records
every pass.

Rows land in ``BENCH_res.json`` under ``triage_throughput``.
"""

import os
import statistics
import time

import pytest

from repro.core import RESConfig
from repro.core.triage import (
    TriageEngine,
    bucket_accuracy,
    misbucketed_fraction,
)
from repro.core.triage_service import TriageServiceConfig, triage_corpus
from repro.fuzz.triage_corpus import build_labeled_corpus

from conftest import bench_record, emit_row

pytestmark = pytest.mark.perf

#: unique armed programs; x DUPLICATES reports (ISSUE floor: >= 50)
SEEDS = range(9000, 9016)
DUPLICATES = 4
JOBS = 4
MAX_DEPTH = 8
MAX_NODES = 300
MIN_SPEEDUP = 2.0
#: alternating jobs=1 / jobs=JOBS pairs; the gates read their median
PASSES = 3
#: cores this process may run on (the row's ``nproc`` stamp)
CORES = len(os.sched_getaffinity(0))


def _serial_sweep(corpus):
    """The pre-service code path: one engine per program, one
    ``triage_one`` per report, no dedup, no sharding."""
    engines = {}
    results = []
    start = time.perf_counter()
    for entry in corpus.entries:
        engine = engines.get(entry.program_key)
        if engine is None:
            spec = corpus.programs[entry.program_key]
            engine = TriageEngine(
                spec.compile(),
                RESConfig(max_depth=MAX_DEPTH, max_nodes=MAX_NODES))
            engines[entry.program_key] = engine
        results.append(engine.triage_one(entry.report))
    return results, time.perf_counter() - start


def test_p3_triage_throughput():
    corpus = build_labeled_corpus(SEEDS, duplicates=DUPLICATES,
                                  shuffle_seed=11)
    reports = corpus.reports
    assert len(reports) >= 50, "ISSUE floor: a >= 50-report corpus"

    serial_results, serial_wall = _serial_sweep(corpus)

    config = dict(max_depth=MAX_DEPTH, max_nodes=MAX_NODES)
    pairs = []
    for index in range(PASSES):
        jobs_order = (1, JOBS) if index % 2 == 0 else (JOBS, 1)
        runs = {jobs: triage_corpus(
                    corpus, TriageServiceConfig(jobs=jobs, **config))
                for jobs in jobs_order}
        pairs.append((runs[1], runs[JOBS]))

    # Determinism before speed: all three pipelines agree byte-for-byte.
    serial_buckets = [r.bucket for r in serial_results]
    accuracy = bucket_accuracy(serial_results, reports)
    for run in (run for pair in pairs for run in pair):
        assert [r.bucket for r in run.results] == serial_buckets
        assert [r.report_id for r in run.results] \
            == [r.report_id for r in serial_results]
        assert bucket_accuracy(run.results, reports) == accuracy
    sharded = pairs[0][1]
    misbucketed = misbucketed_fraction(sharded.results, reports)

    service_walls = [one.elapsed for one, __ in pairs]
    sharded_walls = [pool.elapsed for __, pool in pairs]
    sharded_wall = statistics.median(sharded_walls)
    speedup = serial_wall / sharded_wall
    pool_speedup = statistics.median(
        one / pool for one, pool in zip(service_walls, sharded_walls))
    row = {
        "reports": len(reports),
        "programs": len(corpus.programs),
        "duplicates": DUPLICATES,
        "jobs": JOBS,
        "max_depth": MAX_DEPTH,
        "max_nodes": MAX_NODES,
        "serial_wall": round(serial_wall, 3),
        "service_serial_wall": round(statistics.median(service_walls), 3),
        "sharded_wall": round(sharded_wall, 3),
        "serial_reports_per_sec": round(len(reports) / serial_wall, 2),
        "sharded_reports_per_sec": round(len(reports) / sharded_wall, 2),
        "speedup": round(speedup, 2),
        "pool_speedup": round(pool_speedup, 2),
        "passes": PASSES,
        "pass_service_serial_walls": [round(w, 3) for w in service_walls],
        "pass_sharded_walls": [round(w, 3) for w in sharded_walls],
        "dedup_hits": sharded.dedup_hits,
        "bucket_accuracy": round(accuracy, 4),
        "misbucketed_fraction": round(misbucketed, 4),
    }
    bench_record("triage_throughput", row)
    emit_row("P3", **row)

    assert sharded.dedup_hits == len(reports) - len(corpus.programs)
    assert speedup >= MIN_SPEEDUP, (
        f"sharded triage only {speedup:.2f}x over serial "
        f"(serial {serial_wall:.2f}s, sharded {sharded_wall:.2f}s)")
    if CORES >= 2:
        assert pool_speedup > 1.0, (
            f"the jobs={JOBS} pool did not beat jobs=1 on {CORES} cores: "
            f"median {pool_speedup:.2f}x (jobs=1 {service_walls}, "
            f"jobs={JOBS} {sharded_walls})")

"""P7 — fleet-scale intake throughput: a sharded 3-node fleet vs one
node.

Scenario: a 64-report **cold** corpus (16 armed programs × 4
duplicates, no result cache) streams into (a) one daemon with 4
worker processes and (b) a 3-node fleet with 2 worker processes each,
consistent-hash sharded by coredump fingerprint.  Cold drives are the
expensive path: this is where fleet sharding must pay.

The floor is **core-scaled** (this is the honest part): 3 nodes ≥
1.8× one node assumes the hardware can actually run the workers in
parallel.  On a box with fewer cores than workers the full floor is
provably unreachable (the workers serialize, plus IPC), so the
assertion degrades to a no-regression floor and the row records
``cpu_cores`` + ``full_floor_asserted`` so readers can tell which
regime a number came from.

One pass is well under a second of wall, so one slow pass would
decide the floor: each topology runs :data:`PASSES` times, each pass
with a fresh spool and store, the floor compares the median reports/s,
and the row records every pass.

Determinism before speed, as everywhere: every topology's drained
store must stay byte-identical under ``verdict_view`` to the batch
``triage_corpus`` run, on every pass.

Rows land in ``BENCH_res.json`` under ``fleet_throughput``.
"""

import json
import os
import time

import pytest

from repro.core.triage_service import (
    TriageServiceConfig,
    store_payload,
    triage_corpus,
    verdict_view,
)
from repro.fuzz.triage_corpus import build_labeled_corpus
from repro.service import DaemonConfig, TriageDaemon

from conftest import bench_record, emit_row

pytestmark = pytest.mark.perf

#: 16 armed programs × DUPLICATES = 64 reports, shuffled like traffic
SEEDS = range(9200, 9216)
DUPLICATES = 4
MAX_DEPTH = 8
MAX_NODES = 300
CORES = os.cpu_count() or 1
#: full floor, reachable only with enough cores to parallelize
FLEET_SPEEDUP_FLOOR = 1.8     # 3×2 fleet vs 1×4 node, ≥6 cores
#: no-regression floor when cores are scarce: the fleet may not cost
#: more than 2× over one node
NO_REGRESSION_FLOOR = 0.5
#: timed passes per topology; the floor reads their median
PASSES = 3


def _service_config(store_path, cache_dir=None):
    return TriageServiceConfig(max_depth=MAX_DEPTH, max_nodes=MAX_NODES,
                               store_path=store_path,
                               cache_dir=cache_dir)


def _submit_routed(daemons, corpus):
    """Corpus order, first attempt rotating across nodes, 307s followed
    by hand — the in-process mirror of the client's redirect logic."""
    names = sorted(daemons)
    for index, entry in enumerate(corpus.entries):
        spec = corpus.programs[entry.program_key]
        program = {"key": spec.key, "source": spec.source,
                   "name": spec.name}
        core = entry.report.coredump.to_json()
        daemon = daemons[names[index % len(names)]]
        for __ in range(2):
            status, body = daemon.submit(
                program, core, report_id=entry.report.report_id,
                true_cause=entry.report.true_cause)
            if status != 307:
                break
            daemon = daemons[body["owner"]]
        assert status in (200, 202), (status, body)


def _run_topology(root, corpus, label, nodes, workers):
    """Drain the cold corpus through one topology, with its spool and
    stores under the fresh directory ``root``; returns its measured row
    (plus the per-node store views for the equality check)."""
    root.mkdir()
    peers = {node: "" for node in nodes}
    daemons = {}
    for node in nodes:
        service = _service_config(str(root / f"store-{node}.json"))
        daemons[node] = TriageDaemon(DaemonConfig(
            service=service, spool_dir=str(root / "spool"),
            workers=workers,
            node_id=node if len(nodes) > 1 else None,
            peers=peers if len(nodes) > 1 else {},
            max_queue=len(corpus.entries)))
    started = time.perf_counter()
    try:
        for daemon in daemons.values():
            daemon.start()
        _submit_routed(daemons, corpus)
        for daemon in daemons.values():
            assert daemon.wait_idle(600)
        wall = time.perf_counter() - started
        # Convergence (every node's job table holding the fleet-wide
        # history via peer-journal sync) is bookkeeping, not intake:
        # it happens after the wall-clock stops but before the stores
        # are flushed and compared.
        deadline = time.monotonic() + 120
        total = len(corpus.entries)
        while any(d.healthz()["jobs"] != total for d in daemons.values()):
            assert time.monotonic() < deadline, (
                label,
                {n: d.healthz()["jobs"] for n, d in daemons.items()})
            time.sleep(0.05)
    finally:
        for daemon in daemons.values():
            daemon.shutdown(drain=True)
    snapshots = [d.metrics.snapshot() for d in daemons.values()]
    views = {}
    for node in nodes:
        store = root / f"store-{node}.json"
        if len(nodes) == 1:
            # Solo daemons flush on shutdown; fleet members flush each
            # other's shadows too — either way the store must be there.
            assert store.exists(), f"{label}: {node} never flushed"
        payload = json.loads(store.read_text())
        assert payload["complete"] is True
        views[node] = json.dumps(verdict_view(payload), sort_keys=True)
    row = {
        "topology": label,
        "nodes": len(nodes),
        "workers_per_node": workers,
        "reports": len(corpus.entries),
        "programs": len(corpus.programs),
        "cpu_cores": CORES,
        "wall": round(wall, 3),
        "reports_per_sec": round(len(corpus.entries) / wall, 2),
        "latency_p95": max(s["latency_p95"] or 0.0 for s in snapshots),
        "verdicts": sum(s["verdicts_total"] for s in snapshots),
        "dedup_hits": sum(s["dedup_total"] for s in snapshots),
    }
    return row, views


def test_p7_fleet_throughput(tmp_path):
    corpus = build_labeled_corpus(SEEDS, duplicates=DUPLICATES,
                                  shuffle_seed=29)
    assert len(corpus.entries) == 64, "ISSUE floor: a 64-report corpus"

    # The reference verdicts: one batch run, same cold config.
    batch_config = TriageServiceConfig(max_depth=MAX_DEPTH,
                                       max_nodes=MAX_NODES)
    batch = triage_corpus(corpus, batch_config)
    batch_view = json.dumps(
        verdict_view(store_payload(batch, corpus, batch_config,
                                   complete=True)), sort_keys=True)

    topologies = [
        ("1x4-process", ("solo",), 4),
        ("3x2-process", ("node-a", "node-b", "node-c"), 2),
    ]
    rows = {}
    for label, nodes, workers in topologies:
        passes = []
        for index in range(PASSES):
            row, views = _run_topology(tmp_path / f"{label}-{index}",
                                       corpus, label, nodes, workers)
            for node, view in views.items():
                assert view == batch_view, \
                    f"{label}: {node} store diverged from the batch run"
            passes.append(row)
        # The median pass is the row; every pass is recorded with it.
        row = sorted(passes, key=lambda p: p["reports_per_sec"])[
            PASSES // 2]
        row["passes"] = PASSES
        row["pass_reports_per_sec"] = [p["reports_per_sec"]
                                       for p in passes]
        row["pass_walls"] = [p["wall"] for p in passes]
        rows[label] = row

    single_rps = rows["1x4-process"]["reports_per_sec"]
    fleet_rps = rows["3x2-process"]["reports_per_sec"]
    for row in rows.values():
        workers_total = row["nodes"] * row["workers_per_node"]
        row["full_floor_asserted"] = CORES >= workers_total
        bench_record("fleet_throughput", row)
        emit_row("P7", **row)

    if CORES >= 6:
        assert fleet_rps >= FLEET_SPEEDUP_FLOOR * single_rps, (
            f"3-node fleet {fleet_rps:.1f} reports/s vs single node "
            f"{single_rps:.1f} (floor {FLEET_SPEEDUP_FLOOR}x, "
            f"{CORES} cores)")
    else:
        assert fleet_rps >= NO_REGRESSION_FLOOR * single_rps, (
            f"fleet regressed past {NO_REGRESSION_FLOOR}x on "
            f"{CORES} core(s): {fleet_rps:.1f} vs {single_rps:.1f} "
            f"reports/s")

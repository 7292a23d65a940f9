"""P1 — RES backward-search throughput: incremental vs from-scratch.

The optimization under test (PR 1): copy-on-write snapshot derivation,
per-node incremental solver contexts (children assert only their delta
constraints), a search-wide solver verdict cache, and replay-time model
reuse — all gated by ``RESConfig.incremental``.

Two claims are checked on the E1/E2 workloads at ``max_depth ≥ 8``:

* **behavior preservation** — the incremental engine must emit
  byte-identical suffixes (schedule, steps, constraint sets) and
  identical ``SynthesisStats`` prune counters to the naive engine, and
* **throughput** — nodes/sec must improve by at least the thresholds
  below (measured ~2.3× on E1 and ~5× on E2 on the dev container; the
  assertions leave headroom for noisy CI hardware).

Before/after numbers are appended to ``BENCH_res.json`` under
``res_throughput`` so the perf trajectory stays machine-readable.
"""

from __future__ import annotations

import time

import pytest

from repro.core import RESConfig, ReverseExecutionSynthesizer
from repro.minic import compile_source
from repro.vm import VM
from repro.workloads import long_execution_workload
# The byte-exact comparison helpers are shared with the differential
# fuzzing campaign (PR 2), which runs the same equivalence check across
# thousands of generated programs.
from repro.fuzz.oracles import behavioral_counters, suffix_fingerprint

from conftest import bench_record, emit_row


def run_engine(module, coredump, config) -> dict:
    start = time.perf_counter()
    res = ReverseExecutionSynthesizer(module, coredump, config)
    suffixes = list(res.suffixes())
    wall = time.perf_counter() - start
    return {
        "wall": wall,
        "suffixes": [suffix_fingerprint(s) for s in suffixes],
        "counters": behavioral_counters(res.stats),
        "nodes": res.stats.nodes_expanded,
        "nodes_per_sec": res.stats.nodes_expanded / wall,
        "depth_reached": max((s.depth for s in suffixes), default=0),
        "depth_per_sec": max((s.depth for s in suffixes), default=0) / wall,
        "solver_calls": res.stats.solver_calls,
        "solver_cache_hits": res.stats.solver_cache_hits,
        "time_execute": res.stats.time_execute,
        "time_replay": res.stats.time_replay,
    }


def compare_modes(workload_name, module, coredump, config_kwargs,
                  min_speedup) -> None:
    # Untimed warm-up: populate the per-module caches (CFGs, block
    # boundaries, writer index) both engines share, so neither timed
    # run pays one-time construction and the comparison isolates the
    # incremental-solver effect.
    run_engine(module, coredump,
               RESConfig(incremental=False, **config_kwargs))
    naive = run_engine(module, coredump,
                       RESConfig(incremental=False, **config_kwargs))
    incremental = run_engine(module, coredump,
                             RESConfig(incremental=True, **config_kwargs))

    # Behavior preservation: the optimization must be invisible in every
    # output the search produces.
    assert incremental["suffixes"] == naive["suffixes"], \
        "incremental mode changed the emitted suffixes"
    assert incremental["counters"] == naive["counters"], \
        "incremental mode changed the search counters"

    speedup = naive["wall"] / incremental["wall"]
    nodes_ratio = incremental["nodes_per_sec"] / naive["nodes_per_sec"]
    emit_row("P1", workload=workload_name,
             depth=config_kwargs["max_depth"],
             naive_ms=round(naive["wall"] * 1000, 1),
             incremental_ms=round(incremental["wall"] * 1000, 1),
             speedup=round(speedup, 2),
             naive_nodes_per_sec=round(naive["nodes_per_sec"], 1),
             incremental_nodes_per_sec=round(
                 incremental["nodes_per_sec"], 1),
             cache_hits=incremental["solver_cache_hits"])
    bench_record("res_throughput", {
        "workload": workload_name,
        "max_depth": config_kwargs["max_depth"],
        "naive_wall_s": round(naive["wall"], 4),
        "incremental_wall_s": round(incremental["wall"], 4),
        "speedup": round(speedup, 2),
        "naive_nodes_per_sec": round(naive["nodes_per_sec"], 1),
        "incremental_nodes_per_sec": round(incremental["nodes_per_sec"], 1),
        "naive_depth_per_sec": round(naive["depth_per_sec"], 2),
        "incremental_depth_per_sec": round(
            incremental["depth_per_sec"], 2),
        "suffixes_emitted": len(incremental["suffixes"]),
        "solver_calls": incremental["solver_calls"],
        "solver_cache_hits": incremental["solver_cache_hits"],
    })
    assert nodes_ratio >= min_speedup, (
        f"{workload_name}: nodes/sec ratio {nodes_ratio:.2f}x below the "
        f"{min_speedup}x floor (naive {naive['nodes_per_sec']:.0f}/s, "
        f"incremental {incremental['nodes_per_sec']:.0f}/s)")


@pytest.mark.perf
def test_p1_e1_long_execution_throughput():
    """E1 workload, depth 32: per-node cost must not grow with the
    suffix; measured ~2.3× end-to-end."""
    workload = long_execution_workload(80)
    result = workload.run_once(seed=0)
    assert result.trapped
    compare_modes("e1_long_execution", workload.module, result.coredump,
                  dict(max_depth=32, max_nodes=5000), min_speedup=1.5)


@pytest.mark.perf
def test_p1_e2_distance_throughput():
    """E2 workload (root cause 8 iterations before the crash), depth 64:
    the deep-suffix case the incremental solver targets; measured ~5×."""
    distance = 8
    src = f"""
global int g;
global int pad;

func main() {{
    int v = input();
    g = v;
    int i = 0;
    while (i < {distance}) {{
        pad = pad + i;
        i = i + 1;
    }}
    assert(g == 0, "g was corrupted long ago");
    return 0;
}}
"""
    module = compile_source(src, name="p1_dist_8")
    result = VM(module, inputs=[7]).run()
    assert result.trapped
    compare_modes("e2_distance_8", module, result.coredump,
                  dict(max_depth=16 + 6 * distance, max_nodes=20_000),
                  min_speedup=2.0)

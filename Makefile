# Convenience entry points; every target assumes the repo root as cwd.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

.PHONY: test perf triage-bench warm-bench serve-bench \
	bucket-bench fleet-bench obs-bench serve-smoke fleet-smoke \
	chaos-smoke obs-smoke fuzz-smoke fuzz-test fuzz-pinned bench-smoke

# Tier-1 verification (fuzz- and perf-marked tests are deselected by
# pytest.ini; run them via the targets below).
test:
	$(PYTHON) -m pytest -x -q

# P1 throughput benchmark (also a CI gate): the incremental search vs
# the naive from-scratch one on E1 and E2 — byte-identical suffixes and
# prune counters enforced, nodes/s floors asserted (appends
# `res_throughput` rows to BENCH_res.json).
perf:
	$(PYTHON) -m pytest benchmarks/test_p1_res_throughput.py -q -m perf

# P3 batch-triage throughput benchmark: sharded service vs serial
# sweep on a labeled fuzz corpus (appends `triage_throughput` rows).
triage-bench:
	$(PYTHON) -m pytest benchmarks/test_p3_triage_throughput.py -q -m perf

# P4 warm-start triage benchmark (also a CI gate): warm (cached) vs
# cold re-triage of an evolved 64-report corpus, with exact hit counts
# and warm views byte-identical to cold (appends `warm_triage` rows).
warm-bench:
	$(PYTHON) -m pytest benchmarks/test_p4_warm_triage.py -q -m perf

# P5 intake-daemon throughput benchmark (also a CI gate): sustained
# reports/s and submit->verdict latency through the warm HTTP service
# — drained store byte-identical to the batch store, warm-hit rate
# 1.0, no faults/retries/quarantines, >= 20 reports/s (appends
# `service_throughput` rows).
serve-bench:
	$(PYTHON) -m pytest benchmarks/test_p5_service_throughput.py -q -m perf

# P6 bucket-quality benchmark (also a CI gate): refined
# misbucketed_fraction <= 0.35 and bucket_accuracy >= 0.90 on the
# labeled 64-report corpus, with warm/rebucket runs byte-identical
# (appends `bucket_quality` rows).
bucket-bench:
	$(PYTHON) -m pytest benchmarks/test_p6_bucket_quality.py -q -m perf

# P7 fleet throughput benchmark (also an acceptance gate): a 3-node
# sharded fleet vs one 4-worker node over a 64-report cold corpus.
# The speedup floor is core-scaled — the full 1.8x floor asserts only
# when the box has enough cores to parallelize; a no-regression floor
# holds otherwise, and every row records cpu_cores (appends
# `fleet_throughput` rows).
fleet-bench:
	$(PYTHON) -m pytest benchmarks/test_p7_fleet_throughput.py -q -m perf

# Daemon smoke cycle (also a CI gate): start `res serve`, submit 5
# jobs over HTTP, drain, clean shutdown, verify the report store.
serve-smoke:
	$(PYTHON) -m pytest "tests/test_service.py::test_daemon_smoke_cycle" -q

# Fleet smoke cycle (also a CI gate): three `res serve` subprocesses
# with --node-id/--peers, round-robin submissions with transparent 307
# redirect following, fleet-wide convergence, clean shutdowns, and a
# complete store on every member.
fleet-smoke:
	$(PYTHON) -m pytest "tests/test_fleet.py::test_fleet_smoke_cycle" -q

# Chaos matrix (also a CI gate): a live `res serve` under a seeded
# random fault schedule (worker crashes, hung solver calls, ENOSPC /
# torn / fsync disk faults) plus SIGKILL, across the fixed seed set in
# tests/test_chaos.py.  Proves no acknowledged job is ever lost and
# that verdicts match a fault-free run; a failing seed dumps its fault
# schedule, fault log, and journal tail.
chaos-smoke:
	$(PYTHON) -m pytest tests/test_chaos.py -q -m chaos

# Observability smoke cycle (also a CI gate): a three-node fleet with
# --trace-sample 1; submissions that crossed a 307 render a complete
# submit->settle waterfall via `res trace` from a non-owner node, the
# owners' /metrics carry per-phase latency histograms, and `res top` /
# `res status` aggregate fleet-wide.
obs-smoke:
	$(PYTHON) -m pytest "tests/test_obs.py::test_obs_smoke_cycle" -q -m obs

# P8 flight-recorder overhead benchmark (also an acceptance gate):
# the warm serve-bench scenario with sampling OFF must stay within 2%
# of the untraced baseline, and a sampling-ON pass is recorded for
# comparison (appends `obs_overhead` rows).
obs-bench:
	$(PYTHON) -m pytest benchmarks/test_p8_obs_overhead.py -q -m perf

# Repository benchmark smoke (also a CI gate): every BENCHMARK.json
# workload once, untraced, at seed 0.  run.py exits 0 even when a
# workload's outputs are wrong, so the gate also needs the last line's
# "correct": true.  Output lands in the git-ignored .perfbench/.
bench-smoke:
	mkdir -p .perfbench
	$(PYTHON) perfbench/run.py --workload all --seed 0 --seconds 15 \
		--trace 0 > .perfbench/bench-smoke.log; status=$$?; \
		cat .perfbench/bench-smoke.log; test $$status -eq 0
	tail -n 1 .perfbench/bench-smoke.log | grep -q '"correct": true' \
		|| { echo 'bench-smoke: a workload produced wrong outputs' >&2; \
		exit 1; }

# The 1,000-program differential campaign with the fixed smoke seed:
# incremental vs naive RES, replay, WP and cache-primed oracles, and
# every un-faulted dump must yield a verified suffix.  Exit code 1 +
# artifacts under fuzz-artifacts/ on any divergence.
fuzz-smoke:
	$(PYTHON) -m repro.cli fuzz --seed 0 --count 1000 --jobs 4 --shrink

# Same campaign driven through pytest (the `fuzz` marker).
fuzz-test:
	$(PYTHON) -m pytest tests/test_fuzz.py -q -m fuzz

# Replay only the pinned fuzzer-found bug seeds (fast CI gate: every
# seed that ever exposed a real solver/engine bug stays divergence-free).
fuzz-pinned:
	$(PYTHON) -m pytest "tests/test_fuzz.py::test_fuzzer_found_bug_seeds_stay_fixed" -q

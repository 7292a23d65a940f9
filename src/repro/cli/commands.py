"""Implementations of the ``res`` subcommands.

Each command returns a process exit code and prints a human-readable
report; machine consumers should use the library API directly.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.core import RESConfig, ReverseExecutionSynthesizer
from repro.core.debugger import ReverseDebugger
from repro.core.exploitability import classify_heuristic, classify_with_res
from repro.core.hwerror import HardwareVerdict, diagnose
from repro.core.queries import SuffixQueryEngine
from repro.core.rootcause import find_root_cause
from repro.cli.loaders import (
    CliError,
    build_config,
    ensure_writable_dir,
    ensure_writable_file,
    load_coredump,
    load_module,
)
from repro.procutil import INTERRUPT_EXIT_CODE, deliver_sigterm_as_interrupt
from repro.workloads import REGISTRY


def cmd_workloads(args: argparse.Namespace) -> int:
    """List the workload catalog."""
    for name in REGISTRY.names():
        workload = REGISTRY.get(name)
        print(f"{name:24s} {workload.expected_trap.value:16s} "
              f"{workload.description}")
    return 0


def cmd_crash(args: argparse.Namespace) -> int:
    """Trigger a catalog workload and write its coredump."""
    workload = REGISTRY.get(args.workload)
    dump = workload.trigger(lbr_depth=args.lbr_depth)
    out = Path(args.output)
    out.write_text(dump.to_json())
    print(f"crashed {workload.name}: {dump.trap!r}")
    print(f"coredump written to {out} "
          f"({len(dump.memory)} memory words, {len(dump.threads)} threads)")
    return 0


def _synthesize_deepest(module, dump, config: RESConfig, limit: int):
    res = ReverseExecutionSynthesizer(module, dump, config)
    deepest = None
    count = 0
    for item in res.suffixes():
        deepest = item
        count += 1
        if count >= limit:
            break
    return res, deepest, count


def cmd_analyze(args: argparse.Namespace) -> int:
    """Root-cause a coredump: synthesize suffixes and analyze them."""
    module = load_module(args)
    dump = load_coredump(args.coredump)
    config = build_config(args)
    cause, suffixes = find_root_cause(module, dump, config,
                                      max_suffixes=args.max_suffixes)
    print(f"trap: {dump.trap!r}")
    print(f"suffixes examined: {len(suffixes)}")
    if cause is None:
        print("root cause: none found within budget")
        return 1
    print(f"root cause: {cause.kind}")
    print(f"  {cause.description}")
    if cause.threads:
        print(f"  threads involved: {sorted(cause.threads)}")
    for pc in cause.pcs:
        print(f"  at {pc}")
    if suffixes:
        print()
        print(suffixes[-1].suffix.describe())
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Synthesize and deterministically replay one suffix."""
    from repro.core.artifact import save_suffix

    module = load_module(args)
    dump = load_coredump(args.coredump)
    res, deepest, count = _synthesize_deepest(
        module, dump, build_config(args), args.max_suffixes)
    if deepest is None:
        print("no feasible suffix found", file=sys.stderr)
        return 1
    if args.save:
        target = save_suffix(deepest, args.save)
        print(f"suffix artifact written to {target}")
    report = deepest.report
    print(deepest.suffix.describe())
    print(f"schedule: {deepest.suffix.schedule()}")
    print(f"inputs: {report.inputs}")
    print(f"replay verified: {report.ok}")
    print(f"read set: {sorted(hex(a) for a in deepest.suffix.read_set())}")
    print(f"write set: {sorted(hex(a) for a in deepest.suffix.write_set())}")
    return 0 if report.ok else 1


def cmd_hwcheck(args: argparse.Namespace) -> int:
    """Decide whether the coredump is software- or hardware-caused."""
    module = load_module(args)
    dump = load_coredump(args.coredump)
    diagnosis = diagnose(module, dump, build_config(args))
    print(f"verdict: {diagnosis.verdict.value}")
    print(f"rationale: {diagnosis.rationale}")
    print(f"nodes expanded: {diagnosis.stats.nodes_expanded}, "
          f"candidates executed: {diagnosis.stats.candidates_executed}")
    return 0 if diagnosis.verdict is HardwareVerdict.SOFTWARE else 2


def cmd_exploit(args: argparse.Namespace) -> int:
    """Exploitability rating: RES taint verdict vs trap-type heuristic."""
    module = load_module(args)
    dump = load_coredump(args.coredump)
    res_verdict = classify_with_res(module, dump, build_config(args))
    heuristic = classify_heuristic(dump)
    print(f"res verdict:       {res_verdict.rating.value}")
    print(f"  {res_verdict.rationale}")
    print(f"heuristic verdict: {heuristic.rating.value}")
    print(f"  {heuristic.rationale}")
    return 0


def cmd_triage(args: argparse.Namespace) -> int:
    """§3.1 triage at scale: bucket a corpus of bug reports through the
    sharded triage service and compare against WER-style call stacks.

    The corpus comes from (first match wins): ``--corpus-dir`` (a saved
    directory of coredump JSONs + manifest), ``--fuzz-count`` (labeled
    reports synthesized from fuzz seeds), or the synthetic §3.1
    corpus (``--reports``/``--seed``).
    """
    from repro.baselines.wer import triage as wer_triage
    from repro.core.triage import bucket_accuracy, misbucketed_fraction
    from repro.core.triage_service import (
        TriageCorpus,
        TriageServiceConfig,
        refined_results,
        triage_corpus,
    )

    # Output paths fail fast with a one-line diagnostic, before any
    # search effort is spent.
    if args.store:
        ensure_writable_file(args.store, "report store")
    if args.cache_dir:
        ensure_writable_dir(args.cache_dir, "cache directory")
    if args.save_corpus:
        ensure_writable_dir(args.save_corpus, "corpus directory")

    if args.corpus_dir:
        corpus = TriageCorpus.load(args.corpus_dir)
    elif args.fuzz_count:
        from repro.fuzz.triage_corpus import build_labeled_corpus

        corpus = build_labeled_corpus(
            range(args.fuzz_seed, args.fuzz_seed + args.fuzz_count),
            duplicates=args.fuzz_duplicates,
            shuffle_seed=args.seed)
    else:
        from repro.workloads import service_corpus

        corpus = service_corpus(args.reports, seed=args.seed)

    if args.save_corpus:
        manifest = corpus.save(args.save_corpus)
        print(f"corpus saved to {manifest}")

    reports = corpus.reports
    causes = {r.true_cause for r in reports if r.true_cause is not None}
    print(f"corpus: {len(reports)} reports, "
          f"{len(corpus.programs)} programs, {len(causes)} true causes")

    config = TriageServiceConfig(jobs=args.jobs,
                                 max_depth=args.max_depth,
                                 max_nodes=args.max_nodes,
                                 store_path=args.store,
                                 cache_dir=args.cache_dir,
                                 warm_from=tuple(args.warm_from),
                                 rebucket_only=args.rebucket)
    # SIGTERM (a supervisor's stop) takes the same clean-interrupt path
    # as ^C: pool terminated, partial verdicts kept, store flagged.
    with deliver_sigterm_as_interrupt():
        service_result = triage_corpus(corpus, config)
    res_results = service_result.results
    if service_result.interrupted:
        print(f"triage interrupted after {len(res_results)}/"
              f"{len(reports)} reports; partial results follow")
        done = {r.report_id for r in res_results}
        reports = [r for r in reports if r.report_id in done]
    wer_results = wer_triage(reports)
    refined, refinement = refined_results(service_result.reports)

    for name, results in (("WER (call stacks)", wer_results),
                          ("RES (root causes)", res_results),
                          ("RES (refined)", refined)):
        buckets = len({r.bucket for r in results})
        accuracy = bucket_accuracy(results, reports)
        misbucketed = misbucketed_fraction(results, reports)
        print(f"{name:20s} buckets={buckets:3d} "
              f"pair-accuracy={accuracy:5.1%} "
              f"misbucketed={misbucketed:5.1%}")
    stats = refinement.stats
    print(f"refinement: {stats['families']} families "
          f"({stats['merged_leaves']} leaves merged, "
          f"{stats['attached_fallbacks']} fallbacks attached, "
          f"{stats['conflicted_families']} conflicted, "
          f"{stats['ambiguous_fallbacks']} ambiguous)")
    print(f"service: {service_result.triaged} triaged, "
          f"{service_result.dedup_hits} dedup hits, "
          f"{service_result.cache_hits} cache hits, "
          f"{service_result.elapsed:.1f}s "
          f"({service_result.throughput():.1f} reports/s, "
          f"jobs={config.jobs})")
    if args.store:
        print(f"report store written to {args.store}")
    if args.cache_dir:
        print(f"result cache at {args.cache_dir}")
    return 130 if service_result.interrupted else 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect (`stats`) or compact (`gc`) a cross-run result cache."""
    from repro.core.rescache import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.action == "stats":
        stats = cache.stats()
        width = max(len(key) for key in stats)
        for key, value in stats.items():
            print(f"{key:{width}s}  {value}")
        return 0
    outcome = cache.gc()
    before, after = outcome["before"], outcome["after"]
    print(f"compacted {before['rows']} row(s) -> {after['rows']} "
          f"({before['rows_bytes']} -> {after['rows_bytes']} bytes, "
          f"{after['entries']} live entries)")
    return 0


def cmd_buckets(args: argparse.Namespace) -> int:
    """Print the refined bucket hierarchy of a report store file or a
    running intake daemon (``--url``): one line per family with its
    merged signature leaves, then the flat buckets and pass stats."""
    import json as _json

    from repro.errors import ReproError

    if args.url:
        from repro.service.client import get_buckets

        payload = get_buckets(args.url)
        hierarchy = payload.get("hierarchy") or {}
        stats = payload.get("stats") or {}
        buckets = payload.get("buckets") or {}
    elif args.store:
        path = Path(args.store)
        if not path.exists():
            raise ReproError(f"report store not found: {path}")
        try:
            store = _json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise ReproError(f"corrupt report store {path}: {exc}") from exc
        bucketing = store.get("bucketing") or {}
        hierarchy = bucketing.get("hierarchy") or {}
        stats = bucketing.get("stats") or {}
        buckets = store.get("buckets") or {}
    else:
        raise ReproError("res buckets: give a report store file or --url")

    for bucket, info in sorted(hierarchy.items()):
        print(f"family {info['cause_kind']} @ {info['function']} "
              f"[{info['trap_kind']}] {info['skeleton'] or '(no skeleton)'} "
              f"— {info['reports']} report(s)")
        for leaf, members in info.get("leaves", {}).items():
            print(f"  leaf {leaf}: {len(members)} report(s)")
    singles = {bucket: ids for bucket, ids in buckets.items()
               if bucket not in hierarchy}
    for bucket, ids in sorted(singles.items()):
        print(f"bucket {bucket} — {len(ids)} report(s)")
    if stats:
        print(f"stats: {stats.get('families', 0)} families, "
              f"{stats.get('merged_leaves', 0)} leaves merged, "
              f"{stats.get('attached_fallbacks', 0)} fallbacks attached, "
              f"{stats.get('conflicted_families', 0)} conflicted, "
              f"{stats.get('ambiguous_fallbacks', 0)} ambiguous, "
              f"{stats.get('reports', 0)} reports")
    return 0


def cmd_disasm(args: argparse.Namespace) -> int:
    """Compile a program to bytecode and print the disassembly."""
    from repro.ir.bytecode import compile_program, disassemble

    module = load_module(args)
    print(disassemble(compile_program(module)), end="")
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Differential fuzzing campaign (see :mod:`repro.fuzz`).

    Exit code 0 when every generated program passed every oracle;
    1 when divergences were recorded (artifact paths are printed).
    """
    from repro.fuzz.campaign import CampaignConfig, run_campaign

    config = CampaignConfig(
        seed=args.seed,
        count=args.count,
        jobs=args.jobs,
        max_depth=args.max_depth,
        max_nodes=args.max_nodes,
        max_suffixes=args.max_suffixes,
        threads_prob=args.threads_prob,
        hw_fault_prob=args.hw_fault_prob,
        alu_fault_prob=args.alu_fault_prob,
        check_forward=args.check_forward,
        check_cache=not args.no_check_cache,
        force_divergence=args.force_divergence,
        shrink=args.shrink,
        artifact_dir=args.artifacts,
    )
    done = [0]

    def progress(verdict) -> None:
        done[0] += 1
        if done[0] % 50 == 0:
            print(f"  ... {done[0]}/{config.count} programs")

    with deliver_sigterm_as_interrupt():
        result = run_campaign(config, progress=progress)
    summary = result.summary()
    if result.interrupted:
        print(f"campaign interrupted after {summary['programs']}/"
              f"{config.count} programs; partial results follow")
    print(f"campaign: {summary['programs']} programs from seed "
          f"{config.seed} in {result.elapsed:.1f}s "
          f"({summary['programs'] / max(result.elapsed, 1e-9):.1f}/s)")
    print(f"  trapped: {summary['trapped']}  threaded: "
          f"{summary['threaded']}  hw-faulted: {summary['hw_faulted']}  "
          f"alu-faulted: {summary['alu_faulted']}")
    print(f"  suffixes cross-checked: {summary['suffixes']}  "
          f"independent replays: {summary['replays_checked']}  "
          f"wp checks: {summary['wp_checked']}")
    if summary["no_trap"]:
        print(f"  no-trap runs (fault-defused): {summary['no_trap']}")
    if not result.divergent:
        print("divergences: none")
        return 130 if result.interrupted else 0
    print(f"divergences: {summary['divergent']}")
    for verdict, path in zip(result.divergent, result.artifacts):
        kinds = ", ".join(sorted({k for k, _ in verdict.divergences}))
        print(f"  seed {verdict.seed}: {kinds} -> {path}")
    return 1


# ---------------------------------------------------------------------------
# The intake daemon and its clients (res serve / submit / status / watch)
# ---------------------------------------------------------------------------

def _program_payload(args: argparse.Namespace) -> dict:
    """The submission-side program object from --source/--workload."""
    if getattr(args, "workload", None):
        workload = REGISTRY.get(args.workload)
        return {"key": workload.name, "source": workload.source,
                "name": workload.name}
    path = Path(args.source)
    if not path.exists():
        raise CliError(f"source file not found: {path}")
    return {"key": path.stem, "source": path.read_text(),
            "name": path.stem}


def _parse_peers(specs: List[str]) -> dict:
    """``NODE=URL`` peer specs (repeatable/comma-separated) → dict."""
    peers = {}
    for spec in specs:
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            name, sep, url = part.partition("=")
            if not sep or not name.strip() or not url.strip():
                raise CliError(
                    f"bad --peers entry {part!r} (want NODE=URL)")
            peers[name.strip()] = url.strip()
    return peers


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the always-on crash-intake triage daemon (§3.1 as a
    service): durable job queue, historical dedup, warm worker
    processes, and the HTTP API (`POST /jobs`, `GET /jobs/<id>`,
    `/buckets`, `/reports/<fp>`, `/healthz`, `/metrics`,
    `POST /shutdown`).  With ``--node-id``/``--peers`` the daemon is
    one node of a fleet: admission is sharded by coredump fingerprint
    and misrouted submissions answer 307 to the owning node."""
    from repro.core.triage_service import TriageServiceConfig
    from repro.service import DaemonConfig, TriageDaemon, start_http_server

    ensure_writable_dir(args.spool, "spool directory")
    if args.store:
        ensure_writable_file(args.store, "report store")
    if args.cache_dir:
        ensure_writable_dir(args.cache_dir, "cache directory")
    peers = _parse_peers(args.peers)
    if peers and not args.node_id:
        raise CliError("--peers requires --node-id")

    service = TriageServiceConfig(max_depth=args.max_depth,
                                  max_nodes=args.max_nodes,
                                  store_path=args.store,
                                  cache_dir=args.cache_dir,
                                  warm_from=tuple(args.warm_from))
    config = DaemonConfig(service=service, spool_dir=args.spool,
                          workers=args.workers, max_queue=args.max_queue,
                          max_attempts=args.max_attempts,
                          quarantine_after=args.quarantine_after,
                          watchdog_timeout=args.watchdog_timeout,
                          retry_backoff_base=args.retry_backoff,
                          node_id=args.node_id,
                          peers=peers,
                          journal_rotate_mb=args.journal_rotate_mb)
    if args.trace_sample > 0:
        # Same effect as RES_TRACE_SAMPLE in the environment; the flag
        # wins because it is the more deliberate of the two.
        from repro import obs
        obs.activate(args.trace_sample)
    daemon = TriageDaemon(config)
    server = start_http_server(daemon, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    fleet = (f", node={config.node_id}, peers={len(peers)}"
             if config.node_id else "")
    print(f"res-serve listening on http://{host}:{port} "
          f"(workers={config.workers} [process], "
          f"max-queue={config.max_queue}{fleet})",
          flush=True)
    if daemon.resumed_jobs:
        print(f"resumed {daemon.resumed_jobs} journaled job(s) from "
              f"{config.journal_path}", flush=True)
    daemon.start()

    interrupted = False
    try:
        with deliver_sigterm_as_interrupt():
            daemon.wait_for_shutdown_request()
    except KeyboardInterrupt:
        interrupted = True
    finally:
        server.shutdown()  # stop accepting before the workers stop
    if interrupted:
        # A supervisor stop: finish in-flight work only, leave the
        # queue journaled for the next daemon life.  The store's
        # interrupted flag is derived inside shutdown, after the
        # workers stop — a stop that caught the daemon fully settled
        # is a complete store, not a partial one.
        daemon.shutdown(drain=False)
        print("res-serve interrupted; journal retains "
              f"{daemon.healthz()['queue_depth']} queued job(s)",
              flush=True)
        return INTERRUPT_EXIT_CODE
    daemon.shutdown(drain=server.drain_on_shutdown)
    print("res-serve stopped cleanly", flush=True)
    return 0


#: single-node default for --url (submit/status accept repeated --url)
_DEFAULT_URL = "http://127.0.0.1:8321"


def _url_list(args: argparse.Namespace) -> List[str]:
    return list(args.url) if args.url else [_DEFAULT_URL]


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit one coredump to a running intake daemon (or fleet:
    repeated --url round-robins the first attempt, fails over when a
    node is down, and follows the owning-node redirect).

    Transient daemon trouble — mid-restart (connection refused), spool
    disk full (503), queue pushing back (429) — is retried with
    jittered exponential backoff up to --max-retries times within the
    --timeout budget; only then does the submission fail (exit 75,
    EX_TEMPFAIL, for the retryable cases)."""
    from repro.service.client import (FleetTargets, RetryPolicy,
                                      submit_fleet_with_retries,
                                      wait_for_job)

    program = _program_payload(args)
    dump = load_coredump(args.coredump)
    policy = RetryPolicy(max_retries=args.max_retries,
                         timeout=args.timeout)

    def notify(marker: str, status: int, body: dict) -> None:
        print(f"  retrying ({body.get('error')})", file=sys.stderr,
              flush=True)

    targets = FleetTargets(_url_list(args))
    status, body, url = submit_fleet_with_retries(
        targets, program, dump.to_json(), report_id=args.report_id,
        force=args.force, policy=policy, notify=notify)
    if status == 429:
        print(f"queue full; retry after "
              f"{body.get('retry_after_seconds', '?')}s", file=sys.stderr)
        return 75  # EX_TEMPFAIL
    job_id = body["job_id"]
    print(f"job {job_id} ({body['state']})"
          + (f" dedup_of={body['dedup_of']}" if "dedup_of" in body else ""))
    if args.wait and body.get("state") not in ("done", "failed",
                                               "quarantined"):
        body = wait_for_job(url, job_id, timeout=args.timeout)
    verdict = body.get("verdict")
    if verdict is not None:
        print(f"bucket: {verdict['bucket']}")
        print(f"cause: {verdict['cause_kind']} "
              f"(fallback={verdict['used_fallback']}, "
              f"exploitable={verdict['exploitable']}, "
              f"cached={verdict['cached']})")
    if body.get("state") == "quarantined":
        print(f"quarantined: {body.get('error')}", file=sys.stderr)
        return 1
    if body.get("state") == "failed":
        print(f"triage failed: {body.get('error')}", file=sys.stderr)
        return 1
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    """Query a running intake daemon: one job, or the whole service.

    Repeated --url makes this fleet-aware: a job query fails over
    across the listed nodes (following the owning-node redirect), and
    the service summary reports every node in turn."""
    from repro.service.client import (ServiceClientError, get_health,
                                      get_job, get_metrics_text,
                                      get_quarantine)

    urls = _url_list(args)
    if getattr(args, "quarantine", False):
        # The operator's drain-and-inspect view: every poison job with
        # its diagnostics (what it did to the fleet, how to re-try it).
        empty = True
        for url in urls:
            rows = get_quarantine(url)
            if not rows:
                continue
            empty = False
            if len(urls) > 1:
                print(f"[{url}]")
            for row in rows:
                print(f"{row['job_id']}  report={row['report_id']} "
                      f"program={row['program']} "
                      f"attempts={row.get('attempts', '?')} "
                      f"worker_crashes={row.get('worker_crashes', '?')}")
                print(f"  {row.get('error')}")
                print(f"  resubmit: res submit --force --report-id "
                      f"{row['report_id']} <coredump>")
        if empty:
            print("no quarantined jobs")
        return 0
    if args.job_id:
        payload = None
        last_error: Optional[ServiceClientError] = None
        for url in urls:
            try:
                payload = get_job(url, args.job_id)
                break
            except ServiceClientError as exc:
                last_error = exc  # down or not-yet-synced: try the next
        if payload is None:
            assert last_error is not None
            raise last_error
        for key in ("job_id", "report_id", "program", "state",
                    "fingerprint", "priority", "dedup_of", "error",
                    "attempts", "worker_crashes"):
            if key in payload:
                print(f"{key:14s} {payload[key]}")
        verdict = payload.get("verdict")
        if verdict:
            for key, value in verdict.items():
                print(f"{key:14s} {value}")
        return 0 if payload.get("state") not in ("failed",
                                                 "quarantined") else 1
    from repro.obs.render import parse_metrics

    wanted = ("res_intake_verdicts_total", "res_intake_dedup_total",
              "res_intake_warm_hit_rate", "res_intake_verdicts_per_second",
              "res_intake_retries_total", "res_intake_quarantined_total",
              "res_intake_redirects_total",
              "res_intake_worker_restarts_total", "res_intake_degraded")
    #: counters that sum meaningfully across fleet nodes (rates and
    #: gauges like warm_hit_rate do not — they are per-node only)
    summable = ("res_intake_submitted_total", "res_intake_verdicts_total",
                "res_intake_dedup_total", "res_intake_warm_hits_total",
                "res_intake_failed_total", "res_intake_retries_total",
                "res_intake_quarantined_total",
                "res_intake_redirects_total",
                "res_intake_worker_restarts_total")
    nodes = []
    for url in urls:
        health = get_health(url)
        nodes.append((url, health,
                      parse_metrics(get_metrics_text(url))))
    for url, health, metrics in nodes:
        if len(nodes) > 1:
            label = health.get("node_id") or "node"
            print(f"[{label} @ {url}]")
        for key, value in health.items():
            print(f"{key:16s} {value}")
        for name in wanted:
            if name in metrics:
                print(f"{name} {metrics[name]:g}")
    if len(nodes) > 1:
        # The fleet-wide view: counters summed across every node
        # (per-node rows above keep the breakdown), queue/in-flight
        # gauges summed because they partition by node.
        print(f"[fleet: {len(nodes)} node(s)]")
        print(f"{'queue_depth':16s} "
              f"{sum(h.get('queue_depth', 0) for _, h, _ in nodes)}")
        print(f"{'in_flight':16s} "
              f"{sum(h.get('in_flight', 0) for _, h, _ in nodes)}")
        for name in summable:
            total = sum(m.get(name, 0.0) for _, _, m in nodes)
            print(f"{name} {total:g}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Print one job's flight-recorder waterfall: every span from
    submit through admission, queue wait, each drive attempt's phases,
    to settle — stitched across fleet nodes (the answering node merges
    peer spans, so any node of the fleet can be asked)."""
    from repro.obs.render import render_waterfall
    from repro.service.client import ServiceClientError, get_trace

    last_error: Optional[ServiceClientError] = None
    for url in _url_list(args):
        try:
            payload = get_trace(url, args.job_id)
        except ServiceClientError as exc:
            last_error = exc  # down or doesn't know the id: try next
            continue
        print(render_waterfall(payload), end="")
        return 0
    assert last_error is not None
    raise last_error


def cmd_top(args: argparse.Namespace) -> int:
    """Live fleet dashboard: queue depth, in-flight drives, worker
    health, warm-hit rate per node plus fleet totals and the busiest
    buckets, refreshed every --interval seconds (Ctrl-C to stop)."""
    from repro.obs.render import parse_metrics, render_top
    from repro.service.client import (ServiceClientError, get_buckets,
                                      get_health, get_metrics_text)

    urls = _url_list(args)
    iterations = args.iterations
    try:
        while True:
            rows = []
            for url in urls:
                try:
                    rows.append({
                        "url": url,
                        "health": get_health(url),
                        "metrics": parse_metrics(get_metrics_text(url)),
                        "buckets": get_buckets(url),
                    })
                except ServiceClientError as exc:
                    rows.append({"url": url, "health": None,
                                 "metrics": None, "error": str(exc)})
            if not args.no_clear and iterations != 1:
                print("\x1b[2J\x1b[H", end="")
            print(render_top(rows), end="", flush=True)
            if iterations is not None:
                iterations -= 1
                if iterations <= 0:
                    return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def cmd_watch(args: argparse.Namespace) -> int:
    """Forward a directory of incoming coredumps to the daemon.

    With a ``manifest.json`` the directory is treated as a saved triage
    corpus (programs and labels ride along); otherwise every ``*.json``
    file is a coredump of the program named by --source/--workload.
    """
    from repro.service.client import RetryPolicy, watch_directory

    program = None
    if getattr(args, "source", None) or getattr(args, "workload", None):
        program = _program_payload(args)

    def notify(marker: str, status: int, body: dict) -> None:
        if status == 0:  # damaged/refused file: skipped, not fatal
            print(f"  {marker}: skipped ({body.get('error')})",
                  file=sys.stderr, flush=True)
            return
        state = body.get("state", "?")
        extra = f" dedup_of={body['dedup_of']}" if "dedup_of" in body else ""
        print(f"  {marker}: job {body.get('job_id')} "
              f"[{status} {state}]{extra}", flush=True)

    try:
        with deliver_sigterm_as_interrupt():
            policy = RetryPolicy(max_retries=args.max_retries,
                                 backoff_base=max(args.interval, 0.1),
                                 backoff_cap=60.0)
            forwarded = watch_directory(args.directory, args.url,
                                        program=program,
                                        interval=args.interval,
                                        once=args.once, notify=notify,
                                        policy=policy)
    except KeyboardInterrupt:
        print("watch stopped", flush=True)
        return INTERRUPT_EXIT_CODE
    print(f"forwarded {forwarded} submission(s)")
    return 0


def cmd_debug(args: argparse.Namespace) -> int:
    """Scripted reverse-debugger session over the deepest suffix.

    Commands (semicolon- or newline-separated): ``break FUNC[:BLOCK]``,
    ``watch GLOBAL``, ``continue``, ``step [N]``, ``rstep [N]``,
    ``print VAR``, ``backtrace``, ``threads``, ``writes GLOBAL``,
    ``reads GLOBAL``, ``focus``, ``run``.
    """
    from repro.core.artifact import load_suffix

    module = load_module(args)
    if args.artifact:
        if not Path(args.artifact).exists():
            raise CliError(f"artifact file not found: {args.artifact}")
        deepest = load_suffix(module, args.artifact)
    else:
        dump = load_coredump(args.coredump)
        __, deepest, __ = _synthesize_deepest(
            module, dump, build_config(args), args.max_suffixes)
    if deepest is None:
        print("no feasible suffix found", file=sys.stderr)
        return 1
    debugger = ReverseDebugger(module, deepest)
    engine = SuffixQueryEngine(module, deepest)
    script = args.script.replace(";", "\n")
    for raw in script.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        print(f"(res-dbg) {line}")
        code = _run_debug_command(debugger, engine, line)
        if code is not None:
            return code
    return 0


def _run_debug_command(debugger: ReverseDebugger,
                       engine: SuffixQueryEngine,
                       line: str) -> Optional[int]:
    parts = line.split()
    op, rest = parts[0], parts[1:]
    if op == "break" and rest:
        spec = rest[0].split(":")
        debugger.add_breakpoint(spec[0], spec[1] if len(spec) > 1 else None)
        print(f"  breakpoint at {rest[0]}")
    elif op == "watch" and rest:
        wp = debugger.add_watchpoint(rest[0])
        print(f"  watchpoint on {wp.label} ({wp.addr:#x}), "
              f"currently {wp.last_value}")
    elif op == "continue":
        pc = debugger.continue_()
        if debugger.last_watch_hit:
            print(f"  {debugger.last_watch_hit}")
        print(f"  stopped at {pc} (step {debugger.position})")
    elif op == "step":
        pc = debugger.step(int(rest[0]) if rest else 1)
        print(f"  at {pc} (step {debugger.position})")
    elif op == "rstep":
        pc = debugger.reverse_step(int(rest[0]) if rest else 1)
        print(f"  at {pc} (step {debugger.position})")
    elif op == "run":
        pc = debugger.run_to_failure()
        print(f"  failure at {pc}")
    elif op == "print" and rest:
        value = debugger.print_var(rest[0])
        print(f"  {rest[0]} = {value}")
    elif op == "backtrace":
        for depth, pc in enumerate(reversed(debugger.backtrace())):
            print(f"  #{depth} {pc}")
    elif op == "threads":
        for tid, (status, pc) in debugger.info_threads().items():
            print(f"  t{tid}: {status} at {pc}")
    elif op == "writes" and rest:
        for event in engine.writes_to(rest[0]):
            print(f"  {event.describe()}")
    elif op == "reads" and rest:
        for event in engine.reads_from(rest[0]):
            print(f"  {event.describe()}")
    elif op == "focus":
        print(f"  read set:  {sorted(hex(a) for a in debugger.focus_read_set())}")
        print(f"  write set: {sorted(hex(a) for a in debugger.focus_write_set())}")
    elif op == "quit":
        return 0
    else:
        print(f"  unknown command: {line}", file=sys.stderr)
        return 64
    return None

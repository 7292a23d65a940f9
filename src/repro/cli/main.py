"""Argument parsing and dispatch for the ``res`` command."""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import ReproError
from repro.cli import commands
from repro.cli.loaders import add_config_arguments, add_program_arguments


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="res",
        description="Reverse execution synthesis: post-mortem debugging "
                    "from coredumps, with no runtime recording "
                    "(Zamfir et al., HotOS 2013).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_workloads = sub.add_parser(
        "workloads", help="list the buggy-program catalog")
    p_workloads.set_defaults(func=commands.cmd_workloads)

    p_crash = sub.add_parser(
        "crash", help="trigger a catalog workload and save its coredump")
    p_crash.add_argument("workload", help="catalog workload name")
    p_crash.add_argument("-o", "--output", default="core.json",
                         help="coredump output path (default: %(default)s)")
    p_crash.add_argument("--lbr-depth", type=int, default=16,
                         help="Last Branch Record depth (default: %(default)s)")
    p_crash.set_defaults(func=commands.cmd_crash)

    p_triage = sub.add_parser(
        "triage", help="bucket a bug-report corpus through the sharded "
                       "triage service: WER-style stacks vs RES root "
                       "causes (§3.1)")
    p_triage.add_argument("--reports", type=int, default=40,
                          help="synthetic corpus size (default: %(default)s)")
    p_triage.add_argument("--seed", type=int, default=0,
                          help="corpus RNG seed (default: %(default)s)")
    p_triage.add_argument("--jobs", type=int, default=1,
                          help="triage worker processes "
                               "(default: %(default)s)")
    p_triage.add_argument("--max-depth", type=int, default=16,
                          help="RES suffix depth per report "
                               "(default: %(default)s)")
    p_triage.add_argument("--max-nodes", type=int, default=4000,
                          help="RES node budget per report "
                               "(default: %(default)s)")
    p_triage.add_argument("--corpus-dir", metavar="DIR",
                          help="triage a saved corpus directory "
                               "(coredump JSONs + manifest) instead of "
                               "synthesizing one")
    p_triage.add_argument("--fuzz-count", type=int, default=0,
                          metavar="N",
                          help="synthesize a labeled corpus from N fuzz "
                               "seeds (armed failure class = true cause)")
    p_triage.add_argument("--fuzz-seed", type=int, default=0,
                          help="first fuzz corpus seed "
                               "(default: %(default)s)")
    p_triage.add_argument("--fuzz-duplicates", type=int, default=3,
                          metavar="K",
                          help="file each fuzz crash K times to exercise "
                               "dedup (default: %(default)s)")
    p_triage.add_argument("--save-corpus", metavar="DIR",
                          help="save the corpus (coredumps + manifest) "
                               "before triaging it")
    p_triage.add_argument("--store", metavar="FILE",
                          help="persistent JSON report store, rewritten "
                               "atomically as results stream in")
    p_triage.add_argument("--cache-dir", metavar="DIR",
                          help="cross-run RES result cache: verdicts for "
                               "unchanged (module, coredump, config) keys "
                               "are reused; new verdicts are appended")
    p_triage.add_argument("--warm-from", metavar="DIR", action="append",
                          default=[],
                          help="additional read-only cache directory "
                               "consulted on a miss (repeatable)")
    p_triage.add_argument("--rebucket", action="store_true",
                          help="re-bucket cached history only: every "
                               "report must be a warm cache hit "
                               "(requires --cache-dir/--warm-from); "
                               "no backward search ever runs")
    p_triage.set_defaults(func=commands.cmd_triage)

    p_buckets = sub.add_parser(
        "buckets", help="print the refined bucket hierarchy of a report "
                        "store or a running intake daemon")
    p_buckets.add_argument("store", nargs="?", metavar="FILE",
                           help="report store JSON (from `res triage "
                                "--store` / `res serve --store`)")
    p_buckets.add_argument("--url", metavar="URL",
                           help="query a running daemon's GET /buckets "
                                "instead of reading a store file")
    p_buckets.set_defaults(func=commands.cmd_buckets)

    p_cache = sub.add_parser(
        "cache", help="inspect or compact a cross-run RES result cache")
    p_cache.add_argument("action", choices=("stats", "gc"),
                         help="stats: entry/size/health summary; "
                              "gc: compact rows (last write per key, "
                              "stale schemas dropped)")
    p_cache.add_argument("--cache-dir", required=True, metavar="DIR",
                         help="cache directory (as given to "
                              "`res triage --cache-dir`)")
    p_cache.set_defaults(func=commands.cmd_cache)

    p_serve = sub.add_parser(
        "serve", help="run the always-on crash-intake triage daemon: "
                      "HTTP submissions, durable job queue, historical "
                      "dedup, warm-cache workers")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: %(default)s)")
    p_serve.add_argument("--port", type=int, default=8321,
                         help="listen port; 0 picks a free port "
                              "(default: %(default)s)")
    p_serve.add_argument("--spool", metavar="DIR", default="res-spool",
                         help="durable job-journal directory; a killed "
                              "daemon resumes every unsettled job from "
                              "it (default: %(default)s)")
    p_serve.add_argument("--store", metavar="FILE",
                         help="persistent JSON report store (same "
                              "document as `res triage --store`)")
    p_serve.add_argument("--cache-dir", metavar="DIR",
                         help="cross-run RES result cache backing the "
                              "workers (see `res triage --cache-dir`)")
    p_serve.add_argument("--warm-from", metavar="DIR", action="append",
                         default=[],
                         help="additional read-only cache directory "
                              "consulted on a miss (repeatable)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="triage worker processes "
                              "(default: %(default)s)")
    p_serve.add_argument("--worker-mode", choices=("process",),
                         default="process",
                         help="worker isolation; each worker runs in "
                              "its own OS process (the only mode)")
    p_serve.add_argument("--node-id", metavar="NAME",
                         help="fleet node name; enables fleet mode: "
                              "admission is sharded by coredump "
                              "fingerprint over the consistent-hash "
                              "ring of this node + --peers, and the "
                              "journal becomes journal-NAME.jsonl")
    p_serve.add_argument("--peers", action="append", default=[],
                         metavar="NODE=URL",
                         help="fleet peer as name=base-url "
                              "(repeatable, or comma-separated); "
                              "peers share the spool directory")
    p_serve.add_argument("--journal-rotate-mb", type=float, default=0.0,
                         metavar="MB",
                         help="rotate the job journal once the active "
                              "segment exceeds this size, then compact "
                              "closed segments (settled jobs collapse "
                              "to one row); 0 disables "
                              "(default: %(default)s)")
    p_serve.add_argument("--max-queue", type=int, default=64,
                         help="queued-job bound; beyond it submissions "
                              "get 429 + Retry-After "
                              "(default: %(default)s)")
    p_serve.add_argument("--max-depth", type=int, default=16,
                         help="RES suffix depth per report "
                              "(default: %(default)s)")
    p_serve.add_argument("--max-nodes", type=int, default=4000,
                         help="RES node budget per report "
                              "(default: %(default)s)")
    p_serve.add_argument("--max-attempts", type=int, default=3,
                         help="drive attempts per job before it settles "
                              "as failed (default: %(default)s)")
    p_serve.add_argument("--quarantine-after", type=int, default=2,
                         help="workers one job may kill before it is "
                              "quarantined instead of retried "
                              "(default: %(default)s)")
    p_serve.add_argument("--watchdog-timeout", type=float, default=0.0,
                         metavar="SECONDS",
                         help="reap drives running longer than this and "
                              "retry/quarantine the job (0 = disabled, "
                              "the default — a deep drive is slow, not "
                              "hung)")
    p_serve.add_argument("--retry-backoff", type=float, default=0.05,
                         metavar="SECONDS",
                         help="base of the jittered exponential retry "
                              "backoff (default: %(default)s)")
    p_serve.add_argument("--trace-sample", type=float, default=0.0,
                         metavar="RATE",
                         help="flight-recorder sampling rate in [0, 1]: "
                              "traced jobs record per-phase spans served "
                              "by `res trace` and GET /trace/<id> "
                              "(0 disables, the default; equivalent to "
                              "RES_TRACE_SAMPLE in the environment)")
    p_serve.set_defaults(func=commands.cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="submit one coredump to a running intake daemon")
    p_submit.add_argument("coredump", help="coredump JSON file")
    add_program_arguments(p_submit)
    p_submit.add_argument("--url", action="append", default=None,
                          help="daemon base URL (repeatable: "
                               "submissions round-robin across the "
                               "fleet and follow the owning-node "
                               "redirect; default: "
                               "http://127.0.0.1:8321)")
    p_submit.add_argument("--report-id", metavar="ID",
                          help="client-side report identity "
                               "(default: daemon-assigned)")
    p_submit.add_argument("--force", action="store_true",
                          help="recompute even if this fingerprint was "
                               "triaged before (skips dedup)")
    p_submit.add_argument("--wait", action="store_true",
                          help="poll until the verdict lands")
    p_submit.add_argument("--timeout", type=float, default=120.0,
                          help="--wait poll timeout and overall retry "
                               "deadline in seconds (default: %(default)s)")
    p_submit.add_argument("--max-retries", type=int, default=5,
                          help="retries (jittered exponential backoff) "
                               "when the daemon is restarting, its disk "
                               "is full, or its queue pushes back "
                               "(default: %(default)s; 0 = fail fast)")
    p_submit.set_defaults(func=commands.cmd_submit)

    p_status = sub.add_parser(
        "status", help="query a running intake daemon (health + key "
                       "metrics, or one job)")
    p_status.add_argument("job_id", nargs="?",
                          help="job id from `res submit` (omit for the "
                               "service summary)")
    p_status.add_argument("--url", action="append", default=None,
                          help="daemon base URL (repeatable: a job "
                               "query fails over across the fleet; "
                               "the summary reports every node; "
                               "default: http://127.0.0.1:8321)")
    p_status.add_argument("--quarantine", action="store_true",
                          help="list quarantined (poison) jobs with "
                               "their diagnostics instead of the "
                               "service summary")
    p_status.set_defaults(func=commands.cmd_status)

    p_trace = sub.add_parser(
        "trace", help="print one job's flight-recorder waterfall "
                      "(submit -> queue -> drive phases -> settle, "
                      "stitched across fleet nodes)")
    p_trace.add_argument("job_id",
                         help="job id from `res submit` (a raw trace id "
                              "works too)")
    p_trace.add_argument("--url", action="append", default=None,
                         help="daemon base URL (repeatable: tried in "
                              "order until one knows the id; default: "
                              "http://127.0.0.1:8321)")
    p_trace.set_defaults(func=commands.cmd_trace)

    p_top = sub.add_parser(
        "top", help="live fleet dashboard: queue depth, in-flight, "
                    "worker health, warm-hit rate per node + totals")
    p_top.add_argument("--url", action="append", default=None,
                       help="daemon base URL (repeatable: one row per "
                            "node; default: http://127.0.0.1:8321)")
    p_top.add_argument("--interval", type=float, default=2.0,
                       help="refresh interval in seconds "
                            "(default: %(default)s)")
    p_top.add_argument("--iterations", type=int, default=None,
                       metavar="N",
                       help="render N frames then exit (default: "
                            "refresh until Ctrl-C)")
    p_top.add_argument("--no-clear", action="store_true",
                       help="append frames instead of clearing the "
                            "screen (for logs and pipes)")
    p_top.set_defaults(func=commands.cmd_top)

    p_watch = sub.add_parser(
        "watch", help="forward a directory of incoming coredumps to the "
                      "intake daemon (corpus dirs and flat dumps)")
    p_watch.add_argument("directory",
                         help="directory to watch: a saved corpus "
                              "(manifest.json) or flat coredump JSONs")
    p_watch.add_argument("--url", default="http://127.0.0.1:8321",
                         help="daemon base URL (default: %(default)s)")
    group = p_watch.add_mutually_exclusive_group(required=False)
    group.add_argument("--workload", metavar="NAME",
                       help="program for flat coredump directories")
    group.add_argument("--source", metavar="FILE",
                       help="MiniC source for flat coredump directories")
    p_watch.add_argument("--interval", type=float, default=2.0,
                         help="poll interval in seconds "
                              "(default: %(default)s)")
    p_watch.add_argument("--once", action="store_true",
                         help="one scan, then exit (no polling loop)")
    p_watch.add_argument("--max-retries", type=int, default=10,
                         help="consecutive daemon-down scans (each "
                              "backed off exponentially with jitter) "
                              "tolerated before the forwarder gives up "
                              "(default: %(default)s)")
    p_watch.set_defaults(func=commands.cmd_watch)

    p_fuzz = sub.add_parser(
        "fuzz", help="differential fuzzing campaign: generated programs "
                     "cross-checked against independent oracles")
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="first program seed (default: %(default)s)")
    p_fuzz.add_argument("--count", type=int, default=200,
                        help="number of programs (default: %(default)s)")
    p_fuzz.add_argument("--jobs", type=int, default=1,
                        help="multiprocessing fan-out (default: %(default)s)")
    p_fuzz.add_argument("--max-depth", type=int, default=8,
                        help="RES suffix depth per oracle run "
                             "(default: %(default)s)")
    p_fuzz.add_argument("--max-nodes", type=int, default=300,
                        help="RES node budget per oracle run "
                             "(default: %(default)s)")
    p_fuzz.add_argument("--max-suffixes", type=int, default=12,
                        help="suffixes compared per program "
                             "(default: %(default)s)")
    p_fuzz.add_argument("--threads-prob", type=float, default=0.25,
                        help="probability a program spawns threads "
                             "(default: %(default)s)")
    p_fuzz.add_argument("--hw-fault-prob", type=float, default=0.05,
                        help="probability of a post-hoc coredump bit flip "
                             "(default: %(default)s)")
    p_fuzz.add_argument("--alu-fault-prob", type=float, default=0.03,
                        help="probability of an online ALU miscompute "
                             "(default: %(default)s)")
    p_fuzz.add_argument("--check-forward", action="store_true",
                        help="also run the forward-synthesis baseline "
                             "(slow; informational only)")
    p_fuzz.add_argument("--no-check-cache", action="store_true",
                        help="skip the warm-start oracle (cache-primed "
                             "re-run must be byte-identical; on by "
                             "default)")
    p_fuzz.add_argument("--shrink", action="store_true",
                        help="delta-debug divergent programs to minimal "
                             "repros before writing artifacts")
    p_fuzz.add_argument("--artifacts", default="fuzz-artifacts",
                        help="divergence artifact directory "
                             "(default: %(default)s)")
    p_fuzz.add_argument("--force-divergence", action="store_true",
                        help="test hook: corrupt the naive oracle so every "
                             "suffix-emitting program diverges (validates "
                             "the artifact/shrink pipeline)")
    p_fuzz.set_defaults(func=commands.cmd_fuzz)

    p_disasm = sub.add_parser(
        "disasm", help="compile a program to bytecode and print the "
                       "disassembly")
    add_program_arguments(p_disasm)
    p_disasm.set_defaults(func=commands.cmd_disasm)

    for name, func, extra in (
        ("analyze", commands.cmd_analyze,
         "synthesize suffixes and report the root cause"),
        ("replay", commands.cmd_replay,
         "synthesize one suffix and replay it deterministically"),
        ("hwcheck", commands.cmd_hwcheck,
         "classify the coredump as software- or hardware-caused"),
        ("exploit", commands.cmd_exploit,
         "rate exploitability (RES taint verdict vs heuristic)"),
        ("debug", commands.cmd_debug,
         "run a scripted reverse-debugger session over a suffix"),
    ):
        p = sub.add_parser(name, help=extra)
        p.add_argument("coredump", help="coredump JSON (from `res crash`)")
        add_program_arguments(p)
        add_config_arguments(p)
        p.add_argument("--max-suffixes", type=int, default=64,
                       help="suffix budget (default: %(default)s)")
        if name == "replay":
            p.add_argument("--save", metavar="FILE",
                           help="write the replayed suffix as a reusable "
                                "artifact file")
        if name == "debug":
            p.add_argument("--script", required=True,
                           help="semicolon-separated debugger commands, "
                                "e.g. 'break main; continue; print x'")
            p.add_argument("--artifact", metavar="FILE",
                           help="debug a saved suffix artifact instead of "
                                "synthesizing from the coredump")
        p.set_defaults(func=func)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"res: error: {exc}", file=sys.stderr)
        return 64
    except OSError as exc:
        # Filesystem/network trouble that slipped past the upfront
        # checks still exits with a one-line diagnostic, not a
        # traceback (EX_IOERR).
        print(f"res: i/o error: {exc}", file=sys.stderr)
        return 74


if __name__ == "__main__":
    sys.exit(main())

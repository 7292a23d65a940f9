"""Flight recorder: end-to-end tracing, phase profiling, operator
surfaces.

What must hold, in the ISSUE's order:

* **span model** — span ids are deterministic functions of
  (trace id, name, qualifier), so a SIGKILL + journal replay re-emits
  the *same* ids and readers dedup instead of double-counting;
* **bounded ring** — the per-node span ring rotates like the journal
  and never exceeds its segment budget, whatever the write volume;
* **zero-cost off** — with no sampling configured, jobs carry no
  trace id and the hot path does no span work;
* **propagation** — the trace context crosses the workerpool pipe
  (drive phases come back from the worker process), crosses fleet 307
  redirects via the ``X-Res-Trace`` header, and survives SIGKILL +
  journal replay with no orphan spans;
* **metrics exposition** — ``/metrics`` carries ``# HELP``/``# TYPE``
  for every family, in deterministic order, parseable by the strict
  little parser in this file;
* **smoke** (``@pytest.mark.obs``, ``make obs-smoke``) — a live
  three-node fleet with sampling on: a submission that crossed a 307
  renders a complete submit→settle waterfall from *any* node, and the
  per-phase histograms land on ``/metrics``.
"""

import json
import subprocess
import sys
import urllib.request
import warnings
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.core.triage_service import TriageServiceConfig
from repro.fuzz.triage_corpus import build_labeled_corpus
from repro.obs.render import parse_metrics, render_top, render_waterfall
from repro.service import DaemonConfig, TriageDaemon, start_http_server
from repro.service.client import get_trace, submit_report
from repro.workloads import FIGURE1_OVERFLOW

SRC_DIR = Path(repro.__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    """Tracing is process-global state; a test that died mid-trace must
    not keep sampling for its neighbours."""
    yield
    obs.deactivate()


def _service_config(**kwargs):
    defaults = dict(max_depth=8, max_nodes=300)
    defaults.update(kwargs)
    return TriageServiceConfig(**defaults)


def _daemon(tmp_path, workers=2, **kwargs):
    config = DaemonConfig(service=_service_config(),
                          spool_dir=str(tmp_path / "spool"),
                          workers=workers, **kwargs)
    return TriageDaemon(config)


def _figure1_submission():
    dump = FIGURE1_OVERFLOW.trigger()
    program = {"key": "figure1_overflow",
               "source": FIGURE1_OVERFLOW.source,
               "name": "figure1_overflow"}
    return program, dump.to_json()


def _assert_no_orphans(spans):
    """Every parent id resolves and exactly one root span exists."""
    ids = {span["span"] for span in spans}
    roots = [span for span in spans if span["parent"] is None]
    assert len(roots) == 1, [s["name"] for s in roots]
    assert roots[0]["name"] == "job"
    for span in spans:
        if span["parent"] is not None:
            assert span["parent"] in ids, \
                f"orphan span {span['name']} (parent {span['parent']})"


def _names(spans):
    return {span["name"] for span in spans}


# ---------------------------------------------------------------------------
# Span model and ring
# ---------------------------------------------------------------------------

def test_span_ids_are_deterministic():
    trace = "a" * 32
    assert obs.span_id(trace, "admit") == obs.span_id(trace, "admit")
    assert obs.span_id(trace, "admit") != obs.span_id(trace, "job")
    assert obs.span_id(trace, "redirect", "node-a") \
        != obs.span_id(trace, "redirect", "node-b")
    assert len(obs.span_id(trace, "job")) == 16
    span = obs.make_span(trace, "queue-1", 1.23456789, -0.5,
                         parent=obs.span_id(trace, "job"),
                         node="node-a")
    assert span["start"] == 1.234568 and span["dur"] == 0.0
    assert span["span"] == obs.span_id(trace, "queue-1")
    assert "attrs" not in span


def test_tracer_sampling_is_deterministic_and_rate_shaped():
    always = obs.Tracer(1.0)
    never = obs.Tracer(0.0)
    half = obs.Tracer(0.5)
    ids = [obs.new_trace_id() for __ in range(200)]
    assert all(always.sampled(trace) for trace in ids)
    assert not any(never.sampled(trace) for trace in ids)
    drawn = [half.sampled(trace) for trace in ids]
    assert drawn == [half.sampled(trace) for trace in ids], \
        "the sampling draw must be a pure function of the trace id"
    assert 40 <= sum(drawn) <= 160  # rate-shaped, not degenerate


def test_span_ring_rotates_and_stays_bounded(tmp_path):
    ring = obs.SpanRing(tmp_path / "spans.jsonl", rotate_bytes=2048,
                        max_segments=3)
    for index in range(400):
        trace = f"{index:032d}"
        ring.append([obs.make_span(trace, "job", float(index), 0.5,
                                   node="n")])
    segments = ring.log.segments()
    assert len(segments) <= 4  # 3 closed + the active file
    total = sum(path.stat().st_size for path in segments)
    assert total <= 4 * 2048 + 4096, "ring must stay bounded"
    # The newest write always survives; dedup is last-wins by span id.
    newest = f"{399:032d}"
    assert ring.read(trace_id=newest), "latest span lost by rotation"
    dup = obs.make_span(newest, "job", 400.0, 0.25, node="n")
    ring.append([dup])
    spans = ring.read(trace_id=newest)
    assert len(spans) == 1 and spans[0]["start"] == 400.0


def test_span_ring_append_after_torn_tail_keeps_every_span(tmp_path):
    """A SIGKILL mid-append tears the ring's last line.  Journal replay
    re-emits what the old life lost, but nothing re-emits the new
    life's spans, so its first append must not glue a span onto the
    fragment."""
    ring = obs.SpanRing(tmp_path / "spans.jsonl")
    torn = json.dumps(obs.make_span("t1", "job", 1.0, 0.5, node="n"))
    ring.path.write_text(torn[:len(torn) // 2])
    ring.append([obs.make_span("t2", "job", 2.0, 0.5, node="n")])
    ring.append([obs.make_span("t2", "admit", 2.1, 0.1, node="n")])
    assert [span["name"] for span in ring.read(trace_id="t2")] \
        == ["job", "admit"]


def test_span_ring_skips_a_non_utf8_line_silently(tmp_path):
    """A ring line holding a byte that is not UTF-8 is skipped like any
    damaged span, without a warning (the ring is telemetry); it used
    to fail every read, and with it ``GET /trace``."""
    ring = obs.SpanRing(tmp_path / "spans.jsonl")
    ring.append([obs.make_span("t1", "job", 1.0, 0.5, node="n")])
    with open(ring.path, "ab") as handle:
        handle.write(b'{"trace": "t1", "span": "\xff"}\n')
    ring.append([obs.make_span("t1", "admit", 1.1, 0.1, node="n")])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spans = ring.read(trace_id="t1")
    assert [span["name"] for span in spans] == ["job", "admit"]
    assert not caught


def test_activation_env_and_context(monkeypatch):
    from repro.obs import core

    monkeypatch.delenv(obs.SAMPLE_ENV, raising=False)
    obs.deactivate()
    assert obs.active() is None and not obs.enabled()
    with obs.sampling(1.0):
        assert obs.enabled()
        assert obs.active().sampled(obs.new_trace_id())
    assert not obs.enabled()
    # A fresh process resolves the environment exactly once (the
    # double-checked pattern shared with faultinject); simulate one by
    # resetting the module global.
    monkeypatch.setenv(obs.SAMPLE_ENV, "1.0")
    monkeypatch.setattr(core, "_tracer", core._UNRESOLVED)
    assert obs.enabled()
    monkeypatch.setenv(obs.SAMPLE_ENV, "not-a-float")
    monkeypatch.setattr(core, "_tracer", core._UNRESOLVED)
    assert not obs.enabled(), "garbage rates must read as off"


# ---------------------------------------------------------------------------
# Zero-cost when off
# ---------------------------------------------------------------------------

def test_untraced_jobs_carry_no_trace_state(tmp_path):
    daemon = _daemon(tmp_path, workers=1)
    daemon.start()
    program, core = _figure1_submission()
    status, body = daemon.submit(program, core, report_id="dark",
                                 trace_id="f" * 32)
    assert status == 202
    assert "trace_id" not in body, \
        "sampling off: the submitted header must be dropped"
    assert daemon.wait_idle(60)
    daemon.shutdown(drain=True)
    assert daemon.job_payload(body["job_id"]).get("trace_id") is None
    assert daemon.trace_payload(body["job_id"]) is not None
    assert daemon.trace_payload(body["job_id"])["spans"] == []
    assert not daemon.config.spans_path.exists(), \
        "no sampling → no span ring on disk"


# ---------------------------------------------------------------------------
# Propagation: worker pipe, HTTP header, SIGKILL + replay
# ---------------------------------------------------------------------------

def test_trace_crosses_the_workerpool_pipe(tmp_path):
    """The drive's phase timings come back over the worker-process
    pipe and land as child spans of the attempt."""
    obs.activate(1.0)
    daemon = _daemon(tmp_path, workers=1)
    daemon.start()
    program, core = _figure1_submission()
    status, body = daemon.submit(program, core, report_id="piped")
    assert status == 202 and body.get("trace_id")
    assert daemon.wait_idle(60)
    daemon.shutdown(drain=True)
    payload = daemon.trace_payload(body["job_id"])
    assert payload["trace_id"] == body["trace_id"]
    spans = payload["spans"]
    _assert_no_orphans(spans)
    names = _names(spans)
    assert {"job", "admit", "queue-1", "attempt-1",
            "compile-1"} <= names
    # A cold drive ran the full engine: the symex phases crossed the
    # pipe as measured durations.
    assert {"enumerate-1", "execute-1", "replay-1", "bucket-1"} <= names
    attempt = next(s for s in spans if s["name"] == "attempt-1")
    phases = [s for s in spans if s["parent"] == attempt["span"]]
    assert phases and all(s["dur"] >= 0 for s in phases)
    enumerate_span = next(s for s in spans
                          if s["name"] == "enumerate-1")
    assert enumerate_span["attrs"]["solver_calls"] > 0


def test_trace_header_propagates_over_http(tmp_path):
    obs.activate(1.0)
    daemon = _daemon(tmp_path, workers=1)
    daemon.start()
    server = start_http_server(daemon)
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    try:
        program, core = _figure1_submission()
        status, body = submit_report(base, program, core,
                                     report_id="http-traced",
                                     trace_id="ab" * 16)
        assert status == 202 and body["trace_id"] == "ab" * 16
        assert daemon.wait_idle(60)
        payload = get_trace(base, body["job_id"])
        assert payload["trace_id"] == "ab" * 16
        _assert_no_orphans(payload["spans"])
        # A raw trace id resolves too (cross-node askers have no job).
        raw = get_trace(base, "ab" * 16)
        assert _names(raw["spans"]) == _names(payload["spans"])
        text = render_waterfall(payload)
        assert "attempt-1" in text and "admit" in text
    finally:
        server.shutdown()
        daemon.shutdown(drain=True)


def test_trace_crosses_fleet_redirect(tmp_path):
    """A misrouted submission's 307 leaves a redirect span on the
    wrong node and the admission on the owner — one trace id, and the
    union of the two rings is a complete, orphan-free tree."""
    obs.activate(1.0)
    corpus = build_labeled_corpus(range(9001, 9005), duplicates=1,
                                  shuffle_seed=3)
    peers = {"node-a": "", "node-b": ""}  # in-process: URLs unused
    daemons = {
        node: TriageDaemon(DaemonConfig(
            service=_service_config(),
            spool_dir=str(tmp_path / "spool"), workers=1,
            node_id=node, peers=peers))
        for node in peers}
    for daemon in daemons.values():
        daemon.start()
    try:
        redirected = None
        trace_id = None
        for entry in corpus.entries:
            spec = corpus.programs[entry.program_key]
            program = {"key": spec.key, "source": spec.source,
                       "name": spec.name}
            core = entry.report.coredump.to_json()
            minted = obs.new_trace_id()
            status, body = daemons["node-a"].submit(
                program, core, report_id=entry.report.report_id,
                trace_id=minted)
            if status != 307:
                continue
            assert body["trace_id"] == minted
            # Re-POST to the owner with the same header, like the
            # client's redirect following does.
            status, body = daemons[body["owner"]].submit(
                program, core, report_id=entry.report.report_id,
                trace_id=minted)
            assert status in (200, 202)
            redirected, trace_id = body["job_id"], minted
            break
        assert redirected is not None, \
            "corpus never crossed a redirect — ring moved under us?"
        for daemon in daemons.values():
            assert daemon.wait_idle(60)
    finally:
        for daemon in daemons.values():
            daemon.shutdown(drain=True)
    merged = {}
    for daemon in daemons.values():
        payload = daemon.trace_payload(trace_id, local_only=True)
        for span in (payload or {}).get("spans", ()):
            merged.setdefault(span["span"], span)
    spans = list(merged.values())
    _assert_no_orphans(spans)
    names = _names(spans)
    assert "redirect" in names and "admit" in names
    redirect = next(s for s in spans if s["name"] == "redirect")
    assert redirect["node"] == "node-a"
    assert redirect["attrs"]["owner"] == "node-b"
    owner_nodes = {s["node"] for s in spans if s["name"] != "redirect"}
    assert owner_nodes == {"node-b"}


def test_sigkill_replay_keeps_span_ids_stable(tmp_path):
    """Kill the daemon with a traced job still queued: the resumed
    daemon finishes the trace under the same ids — the admission span
    from the first life and the attempt from the second stitch into
    one orphan-free tree."""
    obs.activate(1.0)
    first = _daemon(tmp_path, workers=0)
    program, core = _figure1_submission()
    status, body = first.submit(program, core, report_id="undying")
    assert status == 202
    trace_id, job_id = body["trace_id"], body["job_id"]
    admit_id = obs.span_id(trace_id, "admit")
    assert any(span["span"] == admit_id
               for span in first._span_ring.read(trace_id=trace_id)), \
        "the admission span must be durable before the kill"
    del first  # SIGKILL-equivalent: no shutdown, no drain

    second = _daemon(tmp_path, workers=1)
    assert second.resumed_jobs == 1
    second.start()
    assert second.wait_idle(60)
    second.shutdown(drain=True)
    payload = second.trace_payload(job_id)
    assert payload["trace_id"] == trace_id
    spans = payload["spans"]
    _assert_no_orphans(spans)
    names = _names(spans)
    assert {"job", "admit", "queue-1", "attempt-1"} <= names
    assert sum(1 for span in spans if span["span"] == admit_id) == 1, \
        "replay must dedup, not double-count, the first life's spans"
    root = next(s for s in spans if s["name"] == "job")
    assert root["attrs"]["state"] == "done"


# ---------------------------------------------------------------------------
# Metrics exposition: HELP/TYPE, deterministic order, parseable
# ---------------------------------------------------------------------------

def _parse_exposition(text):
    """Strict parse: returns {family: (type, [sample lines])} and
    asserts the HELP → TYPE → samples shape for every family."""
    families = {}
    current = None
    for line in text.strip().splitlines():
        if line.startswith("# HELP "):
            name, __, help_text = line[len("# HELP "):].partition(" ")
            assert help_text, f"empty HELP for {name}"
            assert name not in families, f"family {name} repeated"
            families[name] = {"type": None, "samples": []}
            current = name
        elif line.startswith("# TYPE "):
            name, __, kind = line[len("# TYPE "):].partition(" ")
            assert name == current, "TYPE must follow its own HELP"
            assert kind in ("counter", "gauge", "summary"), kind
            families[name]["type"] = kind
        else:
            sample_name = line.partition("{")[0].partition(" ")[0]
            assert sample_name == current, \
                f"sample {sample_name!r} outside its family block"
            value = line.rpartition(" ")[2]
            float(value)  # every sample value must parse
            families[current]["samples"].append(line)
    for name, family in families.items():
        assert family["type"] is not None, f"{name} has no TYPE"
        assert family["samples"], f"{name} has no samples"
    return families


def test_metrics_exposition_is_valid_and_deterministic(tmp_path):
    obs.activate(1.0)
    daemon = _daemon(tmp_path, workers=1)
    daemon.start()
    program, core = _figure1_submission()
    daemon.submit(program, core, report_id="metered")
    daemon.submit(program, core, report_id="metered-again")  # dedup
    assert daemon.wait_idle(60)
    daemon.shutdown(drain=True)
    text = daemon.metrics_text()
    families = _parse_exposition(text)
    assert list(families) == sorted(families), \
        "families must be emitted in sorted order"
    assert families["res_intake_submitted_total"]["type"] == "counter"
    assert families["res_intake_queue_depth"]["type"] == "gauge"
    assert families["res_intake_latency_seconds"]["type"] == "summary"
    phase = families["res_intake_phase_latency_seconds"]
    assert phase["type"] == "summary"
    assert any('phase="queue"' in line for line in phase["samples"])
    assert any('phase="attempt"' in line for line in phase["samples"])
    assert any('quantile="0.95"' in line for line in phase["samples"])
    assert phase["samples"] == sorted(phase["samples"]), \
        "labeled samples must be in deterministic order"
    # Two scrapes of an idle daemon expose the same families.
    assert set(_parse_exposition(daemon.metrics_text())) \
        == set(families)
    # The exact line shapes other suites grep for still hold.
    assert "res_intake_dedup_total 1" in text
    assert "res_intake_verdicts_total 1" in text
    assert "# TYPE res_intake_rebucket_passes_total counter" in text
    assert 'res_intake_latency_seconds{quantile="0.95"}' in text


def test_parse_metrics_reads_unlabeled_samples(tmp_path):
    daemon = _daemon(tmp_path, workers=0)
    daemon.shutdown(drain=False)
    parsed = parse_metrics(daemon.metrics_text())
    assert parsed["res_intake_submitted_total"] == 0.0
    assert parsed["res_intake_degraded"] in (0.0, 1.0)
    assert "res_intake_latency_seconds" not in parsed  # labeled


# ---------------------------------------------------------------------------
# Renderers
# ---------------------------------------------------------------------------

def test_render_waterfall_empty_and_orphan_tolerant():
    assert "(no spans recorded)" in render_waterfall(
        {"trace_id": "t", "spans": []})
    # An orphan (parent id missing) surfaces at top level, not hidden.
    trace = "c" * 32
    spans = [obs.make_span(trace, "job", 0.0, 1.0),
             obs.make_span(trace, "ghost-1", 0.5, 0.1,
                           parent="0badc0ffee0badc0")]
    text = render_waterfall({"trace_id": trace, "spans": spans})
    assert "ghost-1" in text and "job" in text


def test_render_top_totals_and_down_nodes():
    rows = [
        {"url": "http://a", "health": {
            "node_id": "node-a", "status": "ok", "queue_depth": 3,
            "in_flight": 1, "workers": 2, "workers_alive": 2,
            "quarantined": 0},
         "metrics": {"res_intake_verdicts_total": 10.0,
                     "res_intake_warm_hits_total": 5.0,
                     "res_intake_verdicts_per_second": 2.5},
         "buckets": {"buckets": {"sig-x": ["r1", "r2"],
                                 "sig-y": ["r3"]}}},
        {"url": "http://b", "health": None, "metrics": None,
         "error": "connection refused"},
    ]
    text = render_top(rows)
    assert "node-a" in text and "DOWN" in text
    assert "TOTAL" in text and "2 node(s)" in text
    assert "sig-x" in text and "top buckets" in text


# ---------------------------------------------------------------------------
# Smoke (@obs): live 3-node fleet, sampling on, stitched waterfall
# ---------------------------------------------------------------------------

@pytest.mark.obs
def test_obs_smoke_cycle(tmp_path):
    """The CI gate: a three-node ``res serve`` fleet with
    ``--trace-sample 1``; every submission lands through node-a, so
    ring-owned-elsewhere jobs cross a real 307 with the trace header.
    ``res trace`` then renders the full waterfall from a *non-owner*
    node, and the owners' ``/metrics`` carry phase histograms."""
    from test_fleet import (_fleet_drained, _fleet_synced, _free_ports,
                            _http_shutdown, _spawn_fleet_node)
    corpus = build_labeled_corpus(range(9001, 9005), duplicates=2,
                                  shuffle_seed=3)
    ports = dict(zip(("node-a", "node-b", "node-c"), _free_ports(3)))
    urls = {node: f"http://127.0.0.1:{port}"
            for node, port in ports.items()}
    procs = {}
    try:
        for hash_seed, (node, port) in enumerate(ports.items(), start=1):
            procs[node] = _spawn_fleet_node(
                tmp_path, node, port, ports, hash_seed,
                extra=("--trace-sample", "1"))
        acked = []
        for entry in corpus.entries:
            spec = corpus.programs[entry.program_key]
            status, body = submit_report(
                urls["node-a"],
                {"key": spec.key, "source": spec.source,
                 "name": spec.name},
                entry.report.coredump.to_json(),
                report_id=entry.report.report_id,
                true_cause=entry.report.true_cause)
            assert status in (200, 202), body
            assert body.get("trace_id"), "sampling on: every ack traced"
            acked.append(body["job_id"])
        assert _fleet_drained(list(urls.values()), timeout=120.0)
        assert _fleet_synced(list(urls.values()), len(corpus.entries),
                             timeout=30.0)
        crossed = [job_id for job_id in acked
                   if not job_id.startswith("node-a-")]
        assert crossed, "no submission crossed a redirect"

        def run_cli(*argv):
            import os
            env = dict(os.environ)
            env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get(
                "PYTHONPATH", "")
            done = subprocess.run(
                [sys.executable, "-m", "repro.cli", *argv],
                capture_output=True, text=True, timeout=60, env=env)
            assert done.returncode == 0, done.stderr
            return done.stdout

        # The acceptance waterfall: a redirected job, asked of a node
        # that does NOT own it — the stitch crosses two nodes.
        text = run_cli("trace", crossed[0], "--url", urls["node-a"])
        for needle in ("redirect", "admit", "queue-1", "attempt-1",
                       "compile-1", "state=done"):
            assert needle in text, f"waterfall missing {needle}:\n{text}"
        owner = crossed[0].split("-j")[0]
        metrics = urllib.request.urlopen(
            urls[owner] + "/metrics", timeout=10).read().decode()
        assert "res_intake_phase_latency_seconds{" in metrics
        assert 'phase="attempt"' in metrics

        # The other operator surfaces answer fleet-wide.
        top = run_cli("top", "--iterations", "1", "--no-clear",
                      *[arg for url in urls.values()
                        for arg in ("--url", url)])
        assert "TOTAL" in top and "3 node(s)" in top
        status_text = run_cli(
            "status", *[arg for url in urls.values()
                        for arg in ("--url", url)])
        assert "[fleet: 3 node(s)]" in status_text
        assert "res_intake_verdicts_total" in status_text
    finally:
        for node, proc in procs.items():
            try:
                _http_shutdown(proc, urls[node])
            except Exception:
                proc.kill()

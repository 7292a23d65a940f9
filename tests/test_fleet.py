"""Fleet-mode tests: sharded multi-process, multi-node intake.

The load-bearing guarantees, in the order the ISSUE states them:

* **ring** — admission sharding by coredump fingerprint is
  deterministic, total, balanced, and minimally disturbed by
  membership changes;
* **incremental rebucket** — the daemon's persistent
  :class:`IncrementalRefiner` produces the *same* assignment,
  hierarchy, and stats as the two-pass reference refinement
  (``tests/test_store.py``), whatever order the verdicts settle in;
* **equivalence** — a drained fleet's report store is byte-identical
  under ``verdict_view`` to a single-node batch ``res triage`` run,
  cold and warm, for the 1×4 and 3×2 topologies;
* **redirects** — a misrouted submission answers 307 and the client
  follows it transparently (HTTP layer + URL-list round-robin);
* **journal segments** — per-node journals rotate and compact to a
  bounded spool, and the merged multi-node replay deterministically
  reconstructs identical settled state on every member;
* **fleet chaos** (``@pytest.mark.chaos``) — SIGKILL one of three
  nodes mid-intake under a seeded fault schedule: every acknowledged
  job still settles somewhere and the merged replay is clean.
"""

import json
import os
import random
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.core.bucketing import IncrementalRefiner
from repro.core.triage_service import (
    TriageServiceConfig,
    store_payload,
    triage_corpus,
    verdict_view,
)
from repro.fuzz.triage_corpus import build_labeled_corpus
from repro.service import DaemonConfig, TriageDaemon, start_http_server
from repro.service.client import (
    FleetTargets,
    ServiceClientError,
    ServiceUnreachableError,
    get_job,
    submit_fleet,
    submit_report,
)
from repro.service.jobs import JobJournal, journal_file_for
from repro.service.ring import HashRing

from test_store import reference_refinement

SRC_DIR = Path(repro.__file__).resolve().parents[1]

CORPUS_SEEDS = range(9001, 9005)


@pytest.fixture(scope="module")
def corpus():
    built = build_labeled_corpus(CORPUS_SEEDS, duplicates=2,
                                 shuffle_seed=3)
    assert len(built.entries) == 8 and len(built.programs) == 4
    return built


def _service_config(**kwargs):
    defaults = dict(max_depth=8, max_nodes=300)
    defaults.update(kwargs)
    return TriageServiceConfig(**defaults)


@pytest.fixture(scope="module")
def batch(corpus):
    """One cold batch run: the verdict-view reference and the triaged
    reports the refiner tests replay in shuffled orders."""
    config = _service_config()
    result = triage_corpus(corpus, config)
    view = json.dumps(
        verdict_view(store_payload(result, corpus, config,
                                   complete=True)),
        sort_keys=True)
    return result, view


# ---------------------------------------------------------------------------
# Consistent-hash ring
# ---------------------------------------------------------------------------

def test_ring_owner_deterministic_total_and_balanced():
    nodes = ("alpha", "beta", "gamma")
    ring = HashRing(nodes)
    keys = [f"fingerprint-{index}" for index in range(600)]
    owners = [ring.owner(key) for key in keys]
    # Total and deterministic: every key maps to a member, twice.
    assert set(owners) <= set(nodes)
    assert owners == [HashRing(reversed(nodes)).owner(key)
                      for key in keys], \
        "ownership must not depend on membership enumeration order"
    # Balanced within consistent-hashing tolerance: no node owns more
    # than half or less than a tenth of a 600-key universe.
    spread = ring.spread(keys)
    assert set(spread) == set(nodes)
    assert all(60 <= count <= 300 for count in spread.values()), spread


def test_ring_membership_change_moves_few_keys():
    keys = [f"crash-{index}" for index in range(500)]
    three = HashRing(("alpha", "beta", "gamma"))
    four = HashRing(("alpha", "beta", "gamma", "delta"))
    moved = sum(1 for key in keys
                if three.owner(key) != four.owner(key))
    # Only keys adopted by the new node may move (plus vnode-boundary
    # noise); mod-N hashing would move ~75% of them.
    assert moved <= len(keys) // 2, f"{moved} of {len(keys)} keys moved"
    assert all(four.owner(key) == "delta"
               for key in keys if three.owner(key) != four.owner(key))


def test_ring_single_node_owns_everything():
    ring = HashRing(("solo",))
    assert {ring.owner(f"k{index}") for index in range(50)} == {"solo"}


def test_fleet_targets_round_robin_rotation():
    targets = FleetTargets(["http://a/", "http://b", "http://a",
                            "http://c"])
    assert targets.urls == ["http://a", "http://b", "http://c"]
    assert targets.next_order() == ["http://a", "http://b", "http://c"]
    assert targets.next_order() == ["http://b", "http://c", "http://a"]
    assert targets.next_order() == ["http://c", "http://a", "http://b"]
    assert targets.next_order() == ["http://a", "http://b", "http://c"]
    with pytest.raises(ServiceClientError, match="no daemon URL"):
        FleetTargets([])


# ---------------------------------------------------------------------------
# Incremental rebucket == the two-pass reference, any settle order
# ---------------------------------------------------------------------------

def _refinement_views(refinement, items):
    assignment = {item.result.report_id:
                  refinement.bucket_of(item.result.report_id,
                                       item.result.bucket)
                  for item in items}
    return assignment, refinement.hierarchy, refinement.stats


def _reference_views(items):
    return _refinement_views(reference_refinement(
        [(item.result.report_id, item) for item in items]), items)


def test_incremental_refiner_matches_batch_any_order(batch):
    result, __ = batch
    items = list(result.reports)
    reference = _reference_views(items)
    orders = [items, list(reversed(items))]
    for seed in (7, 23):
        shuffled = list(items)
        random.Random(seed).shuffle(shuffled)
        orders.append(shuffled)
    for order in orders:
        refiner = IncrementalRefiner()
        for item in order:
            refiner.add(item)
        assert _refinement_views(refiner.refinement(), items) \
            == reference, "incremental refinement diverged from batch"


def test_incremental_refiner_stable_under_interleaved_reads(batch):
    """Reading the refinement mid-stream (what the daemon's monitor
    tick does) must not perturb the final state."""
    result, __ = batch
    items = list(result.reports)
    reference = _reference_views(items)
    refiner = IncrementalRefiner()
    for item in items:
        refiner.add(item)
        refiner.refinement()  # interleaved read
    assert _refinement_views(refiner.refinement(), items) == reference


# ---------------------------------------------------------------------------
# Fleet topology equivalence: 1x4 and 3x2 == batch, cold and warm
# ---------------------------------------------------------------------------

def _fleet_daemon(tmp_path, node, peers, workers=2, spool="spool",
                  cache_dir=None, **kwargs):
    service = _service_config(
        store_path=str(tmp_path / f"store-{node}.json"),
        cache_dir=cache_dir)
    config = DaemonConfig(service=service,
                          spool_dir=str(tmp_path / spool),
                          workers=workers, node_id=node, peers=peers,
                          **kwargs)
    return TriageDaemon(config)


def _submit_routed(daemons, corpus):
    """Submit every entry in corpus order, rotating the first attempt
    across the fleet and following 307s by hand (the in-process mirror
    of the client's redirect following).  Returns the 307 count."""
    names = sorted(daemons)
    redirects = 0
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
            redirects += 1
            daemon = daemons[body["owner"]]
        assert status in (200, 202), (status, body)
    return redirects


def _wait_fleet_converged(daemons, total, timeout=60.0):
    """Every node idle and every node's job table grown to the full
    fleet history (its own jobs + adopted peer shadows)."""
    for daemon in daemons.values():
        assert daemon.wait_idle(timeout)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if all(d.healthz()["jobs"] == total for d in daemons.values()):
            return
        time.sleep(0.05)
    counts = {name: d.healthz()["jobs"] for name, d in daemons.items()}
    raise AssertionError(f"fleet never converged to {total} jobs: "
                         f"{counts}")


def _node_view(tmp_path, node):
    payload = json.loads((tmp_path / f"store-{node}.json").read_text())
    assert payload["complete"] is True
    return json.dumps(verdict_view(payload), sort_keys=True)


def _run_fleet(tmp_path, corpus, nodes, workers, spool="spool",
               cache_dir=None):
    peers = {node: "" for node in nodes}
    daemons = {node: _fleet_daemon(tmp_path, node, peers,
                                   workers=workers, spool=spool,
                                   cache_dir=cache_dir)
               for node in nodes}
    for daemon in daemons.values():
        daemon.start()
    redirects = _submit_routed(daemons, corpus)
    _wait_fleet_converged(daemons, len(corpus.entries))
    for daemon in daemons.values():
        daemon.shutdown(drain=True)
    return daemons, redirects


def test_fleet_3x2_verdicts_equal_batch_cold_and_warm(tmp_path, corpus,
                                                      batch):
    __, batch_view = batch
    cache_dir = str(tmp_path / "rescache")
    nodes = ("node-a", "node-b", "node-c")
    daemons, redirects = _run_fleet(tmp_path, corpus, nodes, workers=2,
                                    cache_dir=cache_dir)
    # Misrouted submissions were redirected, and each daemon counted
    # exactly the 307s it answered.
    assert redirects == sum(d.metrics.snapshot()["redirects_total"]
                            for d in daemons.values())
    # Every node's flushed store is byte-identical to the batch run.
    for node in nodes:
        assert _node_view(tmp_path, node) == batch_view, \
            f"{node} store diverged from the batch reference"
    # The fleet split the drive work: nobody triaged everything, and
    # the four unique drives happened exactly once fleet-wide.
    verdicts = {name: d.metrics.snapshot()["verdicts_total"]
                for name, d in daemons.items()}
    assert sum(verdicts.values()) == len(corpus.programs), verdicts

    # Warm re-run: a fresh fleet over the shared cache answers every
    # drive from warm hits and must still match the cold batch view.
    warm, __ = _run_fleet(tmp_path, corpus, nodes, workers=2,
                          spool="spool-warm", cache_dir=cache_dir)
    for node in nodes:
        assert _node_view(tmp_path, node) == batch_view, \
            f"warm {node} store diverged from the batch reference"
    warm_snapshot = [d.metrics.snapshot() for d in warm.values()]
    assert sum(s["warm_hits_total"] for s in warm_snapshot) \
        == sum(s["verdicts_total"] for s in warm_snapshot) > 0

    # Deterministic merge-on-replay: a fresh member over the same
    # spool reconstructs the full settled fleet state from the union
    # of per-node segments, without driving anything.
    reborn = _fleet_daemon(tmp_path, "node-a",
                           {node: "" for node in nodes}, workers=0)
    health = reborn.healthz()
    assert health["jobs"] == len(corpus.entries)
    assert health["queue_depth"] == 0, \
        "merged replay must resume settled, not re-queue"
    original = daemons["node-a"]
    for entry in corpus.entries:
        report_id = entry.report.report_id
        before = next(job for job in original._by_seq
                      if job.report_id == report_id)
        after = next(job for job in reborn._by_seq
                     if job.report_id == report_id)
        assert repr(after.verdict.result.bucket) \
            == repr(before.verdict.result.bucket), report_id
    reborn.shutdown()


def test_fleet_1x4_verdicts_equal_batch_cold_and_warm(tmp_path, corpus,
                                                      batch):
    __, batch_view = batch
    cache_dir = str(tmp_path / "rescache")
    daemons, redirects = _run_fleet(tmp_path, corpus, ("solo",),
                                    workers=4, cache_dir=cache_dir)
    assert redirects == 0  # one node owns the whole ring
    assert _node_view(tmp_path, "solo") == batch_view
    journal = tmp_path / "spool" / journal_file_for("solo")
    assert journal.exists(), "fleet mode journals per-node segments"
    warm, __ = _run_fleet(tmp_path, corpus, ("solo",), workers=4,
                          spool="spool-warm", cache_dir=cache_dir)
    assert _node_view(tmp_path, "solo") == batch_view
    snapshot = warm["solo"].metrics.snapshot()
    assert snapshot["warm_hits_total"] == snapshot["verdicts_total"] > 0


# ---------------------------------------------------------------------------
# HTTP: owning-node redirect + client URL lists
# ---------------------------------------------------------------------------

@pytest.fixture()
def http_pair(tmp_path):
    """Two fleet nodes behind live HTTP servers, peers wired to the
    bound ports."""
    peers = {"node-a": "", "node-b": ""}
    daemons = {node: _fleet_daemon(tmp_path, node, peers, workers=1)
               for node in peers}
    servers = {}
    for node, daemon in daemons.items():
        daemon.start()
        servers[node] = start_http_server(daemon)
    urls = {node: "http://%s:%d" % server.server_address[:2]
            for node, server in servers.items()}
    peers.update(urls)  # every daemon shares this dict by reference
    yield daemons, urls
    for node in daemons:
        servers[node].shutdown()
        daemons[node].shutdown(drain=True)


def test_http_redirect_followed_transparently(http_pair, corpus):
    daemons, urls = http_pair
    # Submit every entry to node-a only: anything node-b owns must be
    # redirected and transparently re-POSTed by the client.
    job_urls = {}
    for entry in corpus.entries:
        spec = corpus.programs[entry.program_key]
        status, body = submit_report(
            urls["node-a"],
            {"key": spec.key, "source": spec.source, "name": spec.name},
            entry.report.coredump.to_json(),
            report_id=entry.report.report_id,
            true_cause=entry.report.true_cause)
        assert status in (200, 202), body
        job_urls[body["job_id"]] = body["job_id"].rpartition("-j")[0]
    owners = set(job_urls.values())
    assert owners == {"node-a", "node-b"}, \
        f"expected both nodes to own work, got {owners}"
    redirected = daemons["node-a"].metrics.snapshot()["redirects_total"]
    assert redirected == sum(1 for owner in job_urls.values()
                             if owner == "node-b")
    # GET /jobs/<id> for a peer-minted id answers via redirect (or the
    # shadow tier once synced) from either node.
    for job_id in job_urls:
        for url in urls.values():
            assert get_job(url, job_id)["job_id"] == job_id
    # An id minted by a configured peer but unknown everywhere 307s to
    # the owner, whose honest 404 surfaces as the client error.
    with pytest.raises(ServiceClientError, match="no such job"):
        get_job(urls["node-a"], "node-b-j999999")


def test_client_fleet_failover_and_round_robin(http_pair, corpus):
    daemons, urls = http_pair
    dead = "http://127.0.0.1:1"
    targets = FleetTargets([dead, urls["node-a"], urls["node-b"]])
    entry = corpus.entries[0]
    spec = corpus.programs[entry.program_key]
    program = {"key": spec.key, "source": spec.source, "name": spec.name}
    status, body, answered = submit_fleet(
        targets, program, entry.report.coredump.to_json(),
        report_id=entry.report.report_id,
        true_cause=entry.report.true_cause)
    assert status in (200, 202)
    assert answered in urls.values(), \
        "the dead first target must be skipped, not fatal"
    assert body["job_id"].rpartition("-j")[0] in ("node-a", "node-b")
    with pytest.raises(ServiceUnreachableError):
        submit_fleet(FleetTargets([dead]), program,
                     entry.report.coredump.to_json())


# ---------------------------------------------------------------------------
# Journal segments: rotation, compaction, bounded spool, clean replay
# ---------------------------------------------------------------------------

def test_peer_journal_with_a_non_utf8_byte_still_syncs(tmp_path, corpus):
    """Bit rot in a *peer's* journal is damage to skip like any
    unparseable row.  Every node replays its peers' journals while it
    starts, so an error here would keep the whole fleet down."""
    peer = _fleet_daemon(tmp_path, "node-b", {"node-b": ""}, workers=1)
    peer.start()
    entry = corpus.entries[0]
    spec = corpus.programs[entry.program_key]
    status, __ = peer.submit(
        {"key": spec.key, "source": spec.source, "name": spec.name},
        entry.report.coredump.to_json(), report_id=entry.report.report_id)
    assert status == 202
    assert peer.wait_idle(60)
    peer.shutdown(drain=True)
    with open(peer.config.journal_path, "ab") as handle:
        handle.write(b'{"event": "done", "job_id": "node-b-j\xff"}\n')
    with pytest.warns(RuntimeWarning, match="corrupt mid-file"):
        node = _fleet_daemon(tmp_path, "node-a",
                             {"node-a": "", "node-b": ""}, workers=0)
    assert node.healthz()["jobs"] == 1, "the peer's settled job is adopted"
    node.shutdown()


def test_journal_rotation_compaction_and_replay(tmp_path, corpus):
    daemon = _fleet_daemon(tmp_path, "solo", {}, workers=1)
    daemon.start()
    _submit_routed({"solo": daemon}, corpus)
    assert daemon.wait_idle(120)
    journal = daemon.journal
    before = sum(path.stat().st_size for path in journal.log.files()
                 if path.exists())
    # Arm rotation only now, so ``before`` measures the unrotated
    # journal (the monitor would otherwise compact it mid-run), then
    # drive maintenance to its fixed point deterministically.
    journal.rotate_bytes = 2048
    for __ in range(16):
        daemon._journal_maintenance()
    daemon.shutdown(drain=True)
    segments = journal.log.segments()
    assert segments, "an 8-report journal must have rotated at ~2 KB"
    after = sum(path.stat().st_size for path in journal.log.files()
                if path.exists())
    assert after < before, \
        f"compaction must shrink the spool ({before} -> {after} bytes)"
    # Settled rows collapsed: closed segments hold merged rows, and
    # replay over segments + active file reconstructs every verdict.
    merged = [json.loads(line)
              for path in segments
              for line in path.read_text().splitlines()]
    assert any(row["event"] == "settled" for row in merged)
    replayed = JobJournal(daemon.config.journal_path).replay(
        _service_config())
    assert len(replayed) == len(corpus.entries)
    assert all(job.settled for job in replayed)
    by_id = {job.report_id: job for job in replayed}
    for job in daemon._by_seq:
        assert repr(by_id[job.report_id].verdict.result.bucket) \
            == repr(job.verdict.result.bucket)
    # And a restarted daemon resumes the compacted history settled.
    reborn = TriageDaemon(daemon.config)
    assert reborn.healthz()["jobs"] == len(corpus.entries)
    assert reborn.healthz()["queue_depth"] == 0
    reborn.shutdown()


# ---------------------------------------------------------------------------
# Fleet smoke cycle (tier-1 CI gate) and fleet chaos (chaos suite)
# ---------------------------------------------------------------------------

def _free_ports(count):
    sockets = []
    try:
        for __ in range(count):
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(("127.0.0.1", 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


def _spawn_fleet_node(cwd, node, port, peers, hash_seed, extra=(),
                      fault_env=None):
    """Start one ``res serve`` node.  Each node gets its own explicit
    ``hash_seed``, as separate hosts would: verdicts must not depend on
    it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get(
        "PYTHONPATH", "")
    env["PYTHONHASHSEED"] = str(hash_seed)
    for key in ("RES_FAULT_SPEC", "RES_FAULT_LOG"):
        env.pop(key, None)
    if fault_env:
        env.update(fault_env)
    peer_arg = ",".join(f"{name}=http://127.0.0.1:{peer_port}"
                        for name, peer_port in peers.items())
    stderr = open(Path(cwd) / f"serve-{node}-err.log", "a")
    # Each node is its own process group: killing the group is how a
    # node dies in real life — the daemon AND its worker processes go
    # together (surviving workers would hold the inherited listening
    # socket and block the restart with EADDRINUSE).
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--port", str(port), "--spool", "spool",
         "--store", f"store-{node}.json", "--cache-dir", "cache",
         "--max-depth", "8", "--max-nodes", "300", "--workers", "2",
         "--node-id", node, "--peers", peer_arg,
         "--retry-backoff", "0.02", *extra],
        cwd=str(cwd), env=env, stdout=subprocess.PIPE, stderr=stderr,
        text=True, start_new_session=True)
    stderr.close()
    banner = proc.stdout.readline().strip()
    assert "listening on" in banner, f"{node} failed to start: {banner!r}"
    return proc


def _fleet_drained(urls, timeout):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            healths = [json.loads(urllib.request.urlopen(
                url + "/healthz", timeout=10).read()) for url in urls]
        except OSError:
            time.sleep(0.2)
            continue
        if all(h["queue_depth"] == 0 and h["in_flight"] == 0
               and h["delayed_retries"] == 0 for h in healths):
            return True
        time.sleep(0.1)
    return False


def _fleet_synced(urls, total, timeout):
    """Every node's job table (own + adopted shadows) at ``total``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            counts = [json.loads(urllib.request.urlopen(
                url + "/healthz", timeout=10).read())["jobs"]
                for url in urls]
        except OSError:
            time.sleep(0.2)
            continue
        if all(count == total for count in counts):
            return True
        time.sleep(0.1)
    return False


def _http_shutdown(proc, base_url):
    request = urllib.request.Request(
        base_url + "/shutdown",
        data=json.dumps({"drain": True}).encode(),
        headers={"Content-Type": "application/json"}, method="POST")
    urllib.request.urlopen(request).read()
    return proc.wait(timeout=60)


def test_fleet_smoke_cycle(tmp_path, corpus, batch):
    """The CI gate: a three-node fleet, each node under its own hash
    seed, accepts a corpus through the URL-list client, settles
    everything fleet-wide, and shuts down clean with every node's store
    complete and equal under ``verdict_view`` to the in-process batch
    run."""
    __, batch_view = batch
    ports = dict(zip(("node-a", "node-b", "node-c"), _free_ports(3)))
    procs = {}
    try:
        for hash_seed, (node, port) in enumerate(ports.items(), start=1):
            procs[node] = _spawn_fleet_node(tmp_path, node, port, ports,
                                            hash_seed)
        urls = [f"http://127.0.0.1:{port}" for port in ports.values()]
        targets = FleetTargets(urls)
        acked = []
        for entry in corpus.entries:
            spec = corpus.programs[entry.program_key]
            status, body, __ = submit_fleet(
                targets,
                {"key": spec.key, "source": spec.source,
                 "name": spec.name},
                entry.report.coredump.to_json(),
                report_id=entry.report.report_id,
                true_cause=entry.report.true_cause)
            assert status in (200, 202), body
            acked.append(body["job_id"])
        assert _fleet_drained(urls, timeout=120.0), \
            "the fleet never drained"
        assert _fleet_synced(urls, len(corpus.entries), timeout=30.0), \
            "shadow sync never converged fleet-wide"
        for job_id in acked:
            payload = get_job(urls[0], job_id)
            assert payload["state"] == "done", payload
        for node, proc in list(procs.items()):
            assert _http_shutdown(
                proc, f"http://127.0.0.1:{ports[node]}") == 0
            procs.pop(node)
        for node in ports:
            store = json.loads(
                (tmp_path / f"store-{node}.json").read_text())
            assert store["complete"] is True
            assert len(store["results"]) == len(corpus.entries), \
                f"{node} store is missing fleet-wide history"
            assert _node_view(tmp_path, node) == batch_view, \
                f"{node} store diverged from the batch reference"
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait(timeout=10)


@pytest.mark.chaos
def test_fleet_chaos_node_sigkill_loses_nothing(tmp_path, corpus):
    """SIGKILL one of three nodes mid-intake under a seeded fault
    schedule: every acknowledged job settles somewhere, and the merged
    per-node journals replay clean with all of them."""
    seed = 1729
    spec_path = tmp_path / "faults.json"
    spec_path.write_text(json.dumps({
        "seed": seed,
        "sites": {
            "worker.task": {"prob": 0.2, "kinds": ["crash"], "max": 2},
            "ioutil.append_line": {"prob": 0.1, "max": 3,
                                   "kinds": ["torn", "fsync"]},
        },
    }))
    fault_env = {"RES_FAULT_SPEC": str(spec_path),
                 "RES_FAULT_LOG": str(tmp_path / "fault-log.jsonl")}
    ports = dict(zip(("node-a", "node-b", "node-c"), _free_ports(3)))
    url_of = {node: f"http://127.0.0.1:{port}"
              for node, port in ports.items()}
    extra = ("--max-attempts", "4", "--quarantine-after", "2",
             "--watchdog-timeout", "2.0")
    procs = {}
    acked = {}
    deferred = []

    def push(entries, targets):
        for entry in entries:
            spec = corpus.programs[entry.program_key]
            program = {"key": spec.key, "source": spec.source,
                       "name": spec.name}
            try:
                status, body, __ = submit_fleet(
                    targets, program,
                    entry.report.coredump.to_json(),
                    report_id=entry.report.report_id,
                    true_cause=entry.report.true_cause)
            except (ServiceUnreachableError, ServiceClientError):
                # Owned by the dead node: nothing was acknowledged, so
                # nothing may be lost — resubmit after the restart.
                deferred.append(entry)
                continue
            assert status in (200, 202), (status, body)
            acked[entry.report.report_id] = body["job_id"]

    try:
        for hash_seed, (node, port) in enumerate(ports.items(), start=1):
            procs[node] = _spawn_fleet_node(tmp_path, node, port, ports,
                                            hash_seed, extra=extra,
                                            fault_env=fault_env)
        targets = FleetTargets(list(url_of.values()))
        push(corpus.entries[:4], targets)
        # Mid-intake node loss, no mercy given.
        time.sleep(random.Random(seed).uniform(0.1, 0.5))
        os.killpg(procs["node-b"].pid, signal.SIGKILL)
        procs["node-b"].wait(timeout=30)
        push(corpus.entries[4:],
             FleetTargets([url_of["node-a"], url_of["node-c"]]))
        # The killed node returns (faults off, a new process with a new
        # hash seed), resumes its journal, and the deferred submissions
        # land.
        procs["node-b"] = _spawn_fleet_node(tmp_path, "node-b",
                                            ports["node-b"], ports, 4,
                                            extra=extra)
        for __ in range(5):
            if not deferred:
                break
            retry, deferred = deferred, []
            push(retry, targets)
            if deferred:  # a 503 under torn-append faults: bounded
                time.sleep(0.5)
        assert not deferred, \
            f"resubmissions kept failing after the node came back: " \
            f"{[e.report.report_id for e in deferred]}"
        assert _fleet_drained(list(url_of.values()), timeout=180.0), \
            "the fleet never drained after the node came back"
        for report_id, job_id in acked.items():
            payload = get_job(url_of["node-a"], job_id)
            assert payload["state"] in ("done", "quarantined"), \
                (f"acknowledged job {job_id} ({report_id}) ended "
                 f"{payload['state']}: {payload.get('error')}")
        for node, proc in list(procs.items()):
            assert _http_shutdown(proc, url_of[node]) == 0
            procs.pop(node)
        # Merged replay: the union of per-node journals reconstructs
        # every acknowledged job, cleanly, on a cold reader.
        settled_ids = set()
        for node in ports:
            replayed = JobJournal(
                tmp_path / "spool" / journal_file_for(node)).replay(
                _service_config())
            settled_ids.update(job.job_id for job in replayed
                               if job.settled)
        missing = set(acked.values()) - settled_ids
        assert not missing, \
            f"acknowledged jobs fell out of the merged journals: " \
            f"{sorted(missing)}"
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait(timeout=10)

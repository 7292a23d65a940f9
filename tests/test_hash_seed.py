"""The backward search is the same in every process, whatever its
``PYTHONHASHSEED``.

Every ``res serve`` process and fleet node draws its own hash seed, so a
verdict that is a pure function of (program, coredump, config) must not
depend on set iteration order anywhere in the search.  Fuzz programs
9013 and 9035 are the labeled-corpus programs whose search used to vary
with the hash seed: a different suffix stream, different replay
failures, and solver-call counts that differed between processes.

Run as a script (``python tests/test_hash_seed.py SEED...``) this file
is the child: it searches each fuzz program to exhaustion and prints
one JSON line per program.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

PROGRAM_SEEDS = (9013, 9035)
HASH_SEEDS = (0, 1, 2, 3)
SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def _search(program_seed: int) -> dict:
    from repro.core import RESConfig, ReverseExecutionSynthesizer
    from repro.core.fingerprints import behavioral_counters, suffix_digest
    from repro.fuzz.triage_corpus import build_labeled_corpus

    corpus = build_labeled_corpus([program_seed])
    (spec,) = corpus.programs.values()
    synthesizer = ReverseExecutionSynthesizer(
        spec.compile(), corpus.entries[0].report.coredump,
        RESConfig(max_depth=8, max_nodes=300))
    suffixes = [suffix_digest(item) for item in synthesizer.suffixes()]
    return {"program": program_seed, "suffixes": suffixes,
            "counters": behavioral_counters(synthesizer.stats),
            "solver_calls": synthesizer.stats.solver_calls}


def _run_child(hash_seed: int) -> list:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, __file__, *map(str, PROGRAM_SEEDS)],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return [json.loads(line) for line in done.stdout.splitlines()]


def test_search_is_identical_under_every_hash_seed():
    reference = _run_child(HASH_SEEDS[0])
    assert [row["program"] for row in reference] == list(PROGRAM_SEEDS)
    assert any(row["suffixes"] for row in reference), \
        "no suffix emitted: the stream comparison would be vacuous"
    for hash_seed in HASH_SEEDS[1:]:
        for ref, row in zip(reference, _run_child(hash_seed)):
            for field in ("suffixes", "counters", "solver_calls"):
                assert row[field] == ref[field], (
                    f"program {ref['program']}: {field} under "
                    f"PYTHONHASHSEED={hash_seed} differs from "
                    f"PYTHONHASHSEED={HASH_SEEDS[0]}")


if __name__ == "__main__":
    for seed in sys.argv[1:]:
        print(json.dumps(_search(int(seed))), flush=True)

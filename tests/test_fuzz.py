"""Tests for the differential fuzzing subsystem (generator, oracles,
campaign, shrinker), plus the fuzz-marked 200-program smoke campaign."""

import json

import pytest

from repro.fuzz import (
    CampaignConfig,
    GenConfig,
    fuzz_one,
    generate_program,
    run_campaign,
    shrink_program,
    unparse,
)
from repro.fuzz.campaign import divergence_predicate, shrink_verdict
from repro.fuzz.shrink import ShrinkResult
from repro.minic import compile_source
from repro.minic.parser import parse
from repro.vm.interpreter import RunStatus, VM
from repro.workloads import FIGURE1_OVERFLOW

#: seeds used by the deterministic unit tests (kept small — the smoke
#: campaign covers breadth)
SAMPLE_SEEDS = range(12)


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------

def test_generator_is_deterministic():
    a = generate_program(7)
    b = generate_program(7)
    assert a.source == b.source
    assert a.skeleton == b.skeleton
    assert a.inputs == b.inputs
    assert a.probe_value == b.probe_value
    assert a.sched_seed == b.sched_seed


def test_generator_seeds_differ():
    sources = {generate_program(seed).source for seed in SAMPLE_SEEDS}
    assert len(sources) == len(SAMPLE_SEEDS)


@pytest.mark.parametrize("seed", SAMPLE_SEEDS)
def test_generated_program_traps_as_armed(seed):
    gen = generate_program(seed)
    vm = VM(gen.module, inputs=gen.inputs, scheduler=gen.make_scheduler(),
            lbr_depth=16)
    result = vm.run(max_steps=500_000)
    assert result.status is RunStatus.TRAPPED
    assert result.coredump.trap.kind is gen.expected_trap


def test_unfaulted_program_emits_a_verified_suffix():
    """Program 5 traps out of bounds on an un-faulted dump: RES must
    explain it, so the campaign's no-suffix oracle stays quiet."""
    verdict = fuzz_one(5, CampaignConfig())
    assert verdict.status == "ok"
    assert not (verdict.hw_faulted or verdict.alu_faulted)
    assert verdict.suffixes_emitted >= 1
    assert verdict.divergences == []


def test_generator_config_changes_shape():
    sequential = generate_program(3, GenConfig(threads_prob=0.0))
    assert not sequential.uses_threads
    assert "spawn" not in sequential.source


# ---------------------------------------------------------------------------
# Campaign + oracles
# ---------------------------------------------------------------------------

def test_fuzz_one_clean_program_has_no_divergence():
    config = CampaignConfig(hw_fault_prob=0.0, alu_fault_prob=0.0)
    verdict = fuzz_one(0, config)
    assert verdict.status == "ok"
    assert verdict.divergences == []
    assert verdict.suffixes_emitted > 0
    assert verdict.replays_checked > 0


def test_campaign_small_batch_zero_divergences(tmp_path):
    config = CampaignConfig(seed=0, count=12,
                            artifact_dir=str(tmp_path / "artifacts"))
    result = run_campaign(config)
    summary = result.summary()
    assert summary["programs"] == 12
    assert summary["divergent"] == 0
    assert summary["suffixes"] > 0
    assert not (tmp_path / "artifacts").exists()


def test_campaign_multiprocessing_matches_inline(tmp_path):
    inline = run_campaign(CampaignConfig(
        seed=40, count=6, jobs=1, artifact_dir=str(tmp_path / "a")))
    fanned = run_campaign(CampaignConfig(
        seed=40, count=6, jobs=2, artifact_dir=str(tmp_path / "b")))
    key = lambda result: [(v.seed, v.status, v.trap_kind,
                           v.suffixes_emitted, v.divergences)
                          for v in result.verdicts]
    assert key(inline) == key(fanned)


def test_forced_divergence_writes_reproducible_artifact(tmp_path):
    config = CampaignConfig(seed=0, count=2, force_divergence=True,
                            hw_fault_prob=0.0, alu_fault_prob=0.0,
                            artifact_dir=str(tmp_path / "artifacts"))
    result = run_campaign(config)
    assert result.divergent, "force hook must produce divergences"
    assert result.artifacts
    payload = json.loads((tmp_path / "artifacts" /
                          result.artifacts[0].rsplit("/", 1)[1]).read_text())
    assert payload["program_seed"] == result.divergent[0].seed
    assert "--count 1" in payload["reproduce"]
    # Non-default campaign knobs must ride along in the repro command,
    # or it would regenerate a different program / different verdicts.
    assert "--hw-fault-prob 0.0" in payload["reproduce"]
    assert "--force-divergence" in payload["reproduce"]
    assert compile_source(payload["source"], name="repro_check") is not None
    # Reproducibility: re-fuzzing the recorded seed under the recorded
    # config reproduces the same divergence kinds.
    again = fuzz_one(payload["program_seed"], config)
    assert {k for k, _ in again.divergences} \
        == {k for k, _ in result.divergent[0].divergences}


def test_forced_divergence_shrinks_to_small_repro(tmp_path):
    """The ISSUE acceptance bound: a known-divergent config must shrink
    to a repro of at most 25 MiniC source lines."""
    config = CampaignConfig(seed=0, count=1, force_divergence=True,
                            hw_fault_prob=0.0, alu_fault_prob=0.0,
                            shrink=True,
                            artifact_dir=str(tmp_path / "artifacts"))
    result = run_campaign(config)
    assert len(result.artifacts) == 1
    from pathlib import Path
    payload = json.loads(Path(result.artifacts[0]).read_text())
    assert payload["shrunk_lines"] <= 25
    # The shrunk repro still satisfies the divergence predicate.
    predicate = divergence_predicate(result.divergent[0], config)
    assert predicate(payload["shrunk_source"])


def test_campaign_serial_interrupt_keeps_partial_results(tmp_path):
    """Ctrl-C mid-campaign: the verdicts that landed are kept, the
    result is flagged interrupted, and artifacts are still written for
    divergences seen so far."""
    hits = []

    def interrupting_progress(verdict):
        hits.append(verdict)
        if len(hits) == 2:
            raise KeyboardInterrupt

    config = CampaignConfig(seed=0, count=6, force_divergence=True,
                            hw_fault_prob=0.0, alu_fault_prob=0.0,
                            artifact_dir=str(tmp_path / "artifacts"))
    result = run_campaign(config, progress=interrupting_progress)
    assert result.interrupted
    assert len(result.verdicts) == 2
    assert result.summary()["programs"] == 2
    # divergences that landed before the interrupt still get artifacts
    assert len(result.artifacts) == len(result.divergent)
    for path in result.artifacts:
        json.loads(open(path).read())  # complete, parseable JSON


def test_campaign_pool_interrupt_terminates_workers(tmp_path):
    """The --jobs pool shuts down cleanly on Ctrl-C: no zombie workers,
    partial verdicts preserved and summarized."""
    import multiprocessing as mp

    def interrupting_progress(verdict):
        raise KeyboardInterrupt

    config = CampaignConfig(seed=0, count=8, jobs=2,
                            artifact_dir=str(tmp_path / "artifacts"))
    before = {p.pid for p in mp.active_children()}
    result = run_campaign(config, progress=interrupting_progress)
    leaked = [p for p in mp.active_children() if p.pid not in before]
    assert not leaked, f"zombie pool workers: {leaked}"
    assert result.interrupted
    assert 1 <= len(result.verdicts) < 8
    assert result.summary()["programs"] == len(result.verdicts)


def test_shrink_verdict_skips_unshrinkable_kinds():
    config = CampaignConfig()
    verdict = fuzz_one(0, CampaignConfig(hw_fault_prob=0.0,
                                         alu_fault_prob=0.0))
    verdict.divergences = [("generator", "boom")]
    assert shrink_verdict(verdict, config) is None


# ---------------------------------------------------------------------------
# Shrinker + unparser
# ---------------------------------------------------------------------------

def test_unparse_round_trip_compiles_catalog_program():
    source = FIGURE1_OVERFLOW.source
    once = unparse(parse(source))
    twice = unparse(parse(once))
    assert once == twice, "unparse must be a fixed point of parse"
    module = compile_source(once, name="roundtrip")
    result = VM(module, inputs=[4]).run()
    assert result.status is RunStatus.TRAPPED


@pytest.mark.parametrize("seed", [0, 3, 5, 9])
def test_unparse_round_trip_generated_program(seed):
    gen = generate_program(seed)
    once = unparse(parse(gen.source))
    assert once == unparse(parse(once))
    compile_source(once, name="roundtrip")


def test_shrinker_removes_irrelevant_statements():
    source = """
global int g;
global int unused;

func side(int a) {
    unused = a * 3;
    return a;
}

func main() {
    int x = input();
    int noise = side(4);
    output(noise);
    g = 7;
    int y = g - 7;
    int boom = 1 / y;
    output(boom);
    return 0;
}
"""

    def still_divides_by_zero(candidate: str) -> bool:
        try:
            module = compile_source(candidate, name="shrinkme")
        except Exception:
            return False
        result = VM(module, inputs=[0]).run(max_steps=10_000)
        return (result.status is RunStatus.TRAPPED
                and result.coredump.trap.kind.value == "div-by-zero")

    shrunk = shrink_program(source, still_divides_by_zero)
    assert shrunk.improved
    assert shrunk.lines < ShrinkResult.count_lines(source)
    assert "side" not in shrunk.source
    assert "unused" not in shrunk.source
    assert still_divides_by_zero(shrunk.source)
    assert shrunk.lines <= 8


def test_shrinker_respects_budget():
    gen = generate_program(2)
    calls = [0]

    def predicate(candidate: str) -> bool:
        calls[0] += 1
        return True  # accept everything: worst case for pass looping

    shrink_program(gen.source, predicate, max_tests=10)
    assert calls[0] <= 10


#: program seeds whose campaigns exposed real engine/solver bugs during
#: PR 2 (assertion-order-dependent solver verdicts, orphaned domain
#: refinements, weaker chained contexts, unfolded cancellation
#: tautologies), PR 3 (seed 7059: the loop-counter contradiction
#: ``i+1 == i`` left as a residual, refuted by the chained context but
#: UNKNOWN to the from-scratch solve), and PR 4 (seed 11870: a symbol
#: bound early to an open boolean term — ``t1 ↦ (ne t2 0)`` — kept a
#: second symbol alive inside a really-single-symbol ``shl`` residual,
#: blocking the exact bit-fixing layer, so the from-scratch replay
#: solve stayed UNKNOWN on a SAT suffix the incremental chain emitted;
#: fixed by domain-driven point-range folding in ``Solver._search``),
#: and PR 8 (seed 18074: the chained context *proved* a cross-thread
#: ``xor`` extension UNSAT where the from-scratch solve only reached
#: UNKNOWN and admitted it, so the incremental engine pruned five
#: candidates the naive engine explored; fixed by aligning every
#: non-SAT ``solve_extended`` verdict on the naive solve in
#: ``SegmentExecutor.execute``); each must stay divergence-free
REGRESSION_SEEDS = (1132, 2082, 2262, 2304, 2699, 7059, 11870, 18074)


@pytest.mark.parametrize("seed", REGRESSION_SEEDS)
def test_fuzzer_found_bug_seeds_stay_fixed(seed):
    verdict = fuzz_one(seed, CampaignConfig())
    assert verdict.divergences == [], \
        f"seed {seed} regressed: {verdict.divergences}"


# ---------------------------------------------------------------------------
# The smoke campaign (deselected by default; `pytest -m fuzz`)
# ---------------------------------------------------------------------------

@pytest.mark.fuzz
def test_fuzz_smoke_campaign_200_programs(tmp_path):
    """The ISSUE acceptance campaign: 200 programs from seed 0, all four
    oracles, zero unexplained divergences."""
    config = CampaignConfig(seed=0, count=200,
                            artifact_dir=str(tmp_path / "artifacts"))
    result = run_campaign(config)
    summary = result.summary()
    assert summary["programs"] == 200
    assert summary["gen_errors"] == 0
    assert summary["divergent"] == 0, \
        [v.divergences for v in result.divergent]
    # The campaign must actually exercise the oracles, not vacuously pass.
    assert summary["suffixes"] > 500
    assert summary["replays_checked"] > 300
    assert summary["wp_checked"] > 20
    assert summary["threaded"] > 10

"""Differential fuzzing of the RES stack.

The paper's feasibility claim — backward synthesis recovers a suffix
the concrete VM would actually execute — is only credible across a far
wider program space than the hand-written workload catalog.  This
package buys that coverage at scale:

* :mod:`repro.fuzz.generator` — a seeded, grammar-driven MiniC program
  generator that emits typechecking, terminating programs (globals,
  arrays, loops, call chains, threads, heap use) armed with a
  guaranteed failure site.
* :mod:`repro.fuzz.oracles` — the cross-checks one generated failure is
  run through: RES incremental vs. naive (byte-identical suffixes and
  prune counters, which hold exactly when the chained solver's
  snapshots, caches, and model reuse are exact), independent replay
  feasibility on the concrete interpreter, and weakest-precondition
  consistency.
* :mod:`repro.fuzz.campaign` — the campaign engine: generate, crash,
  cross-check, and record divergences as reproducible ``(seed, config)``
  artifacts, with optional multiprocessing fan-out.
* :mod:`repro.fuzz.shrink` — an AST-level delta-debugging shrinker that
  minimizes a divergent program while preserving its divergence.
* :mod:`repro.fuzz.triage_corpus` — labeled triage corpora built from
  fuzz seeds (armed failure class = ground-truth cause), feeding the
  batch triage service and its throughput benchmark.
"""

from repro.fuzz.campaign import (
    CampaignConfig,
    CampaignResult,
    ProgramVerdict,
    fuzz_one,
    run_campaign,
)
from repro.fuzz.generator import (
    GenConfig,
    GeneratedProgram,
    GeneratorError,
    generate_program,
)
from repro.fuzz.oracles import (
    OracleReport,
    behavioral_counters,
    collect_suffixes,
    suffix_fingerprint,
)
from repro.fuzz.shrink import ShrinkResult, shrink_program, unparse
from repro.fuzz.triage_corpus import ARM_CAUSE_NAMES, build_labeled_corpus

__all__ = [
    "ARM_CAUSE_NAMES", "CampaignConfig", "CampaignResult", "GenConfig",
    "GeneratedProgram", "GeneratorError", "OracleReport", "ProgramVerdict",
    "ShrinkResult", "behavioral_counters", "build_labeled_corpus",
    "collect_suffixes", "fuzz_one", "generate_program", "run_campaign",
    "shrink_program", "suffix_fingerprint", "unparse",
]

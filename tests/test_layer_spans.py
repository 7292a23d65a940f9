"""The benchmark's layer wrappers resolve against the program.

``perfbench/spans.py`` attributes a traced run's time to layers by
wrapping the methods and functions its ``LAYERS`` and ``FUNCTIONS``
tables name, looked up by name.  A rename in ``src/`` would break only
the next traced run (untraced runs never install the wrappers), so
this test installs them in a subprocess, drives one small search, and
refines a few verdicts the way ``res triage`` does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import importlib
import json

from perfbench import spans

tracer = spans.Tracer()
spans.install(tracer)

unresolved = []
for module_name, class_name, method, layer in spans.LAYERS:
    cls = getattr(importlib.import_module(module_name), class_name)
    attr = cls.__dict__[method]
    func = attr.__func__ if isinstance(attr, classmethod) else attr
    if func.__name__ not in ("wrapper", "method_wrapper"):
        unresolved.append(f"{class_name}.{method}")
for module_name, name, layer, importer in spans.FUNCTIONS:
    target = importlib.import_module(importer or module_name)
    if getattr(target, name).__name__ != "wrapper":
        unresolved.append(f"{importer or module_name}.{name}")

from repro.core import RESConfig, ReverseExecutionSynthesizer
from repro.workloads import FIGURE1_OVERFLOW

dump = FIGURE1_OVERFLOW.trigger()
res = ReverseExecutionSynthesizer(FIGURE1_OVERFLOW.module, dump,
                                  RESConfig(max_depth=8, max_nodes=300))
emitted = sum(1 for _ in res.suffixes())

from repro.core.triage import TriageResult
from repro.core.triage_service import TriagedReport, refined_results

site = ("stack", "assert", "main", ("main:b",))
refined, __ = refined_results([
    TriagedReport(result=TriageResult(f"r{index}", site, None, True),
                  program_key="p", fingerprint=f"fp{index}")
    for index in range(3)])
print(json.dumps({
    "refined": len(refined),
    "refine_spans": sum(1 for _, _, layer, _, _, _ in tracer.spans
                        if layer == "bucket.refine"),
    "unresolved": unresolved,
    "emitted": emitted,
    "replays": [extra for _, _, layer, _, _, extra in tracer.spans
                if layer == "replay"],
    "layers": sorted({layer for _, _, layer, _, _, _ in tracer.spans}),
}))
"""


def test_layer_wrappers_resolve_and_attribute_a_search():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), str(REPO)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["unresolved"] == []
    assert out["emitted"] > 0
    assert len(out["replays"]) >= out["emitted"]
    assert all(set(attrs) == {"ok"} for attrs in out["replays"])
    assert sum(attrs["ok"] for attrs in out["replays"]) == out["emitted"]
    assert {"enumerate", "execute", "replay", "solve"} <= set(out["layers"])
    # The one-shot refinement is one ``bucket.refine`` span.
    assert out["refined"] == 3
    assert out["refine_spans"] == 1

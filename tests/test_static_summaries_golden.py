"""Golden pin of the interprocedural summaries and verifier findings.

``tests/golden/static_summaries.json`` records, for the eight SPEC
stand-ins and fuzz seeds 0..39, every procedure's summary
(``clobbered``, ``used``, ``preserved``, ``sp_balanced``) and the
sorted verifier findings.  The file was produced by the round-robin
summary fixpoint that the callee-first worklist replaced, so this test
compares the worklist against an independent computation, not against
itself.

Regenerate (only for an intentional analysis change) with::

    PYTHONPATH=src python tests/test_static_summaries_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.static import ProcedureSummaries, RecoveredCFG, StaticCallGraph
from repro.static.verifier import verify_image
from repro.workloads import SPEC95_NAMES, generate, profile_for

GOLDEN = Path(__file__).parent / "golden" / "static_summaries.json"
FUZZ_SEEDS = range(40)
NAMES = tuple(SPEC95_NAMES) + tuple(f"fuzz-{seed}" for seed in FUZZ_SEEDS)


def snapshot(name: str) -> dict[str, object]:
    """Summaries and sorted findings of one benchmark's image."""
    workload = generate(profile_for(name), verify=False)
    image = workload.image
    cfg = RecoveredCFG(image)
    callgraph = StaticCallGraph(cfg)
    summaries = ProcedureSummaries(cfg, callgraph)
    report = verify_image(image, intents=workload.branch_intents,
                          cfg=cfg, callgraph=callgraph)
    findings = sorted(
        ([f.rule_id, f.severity.value, f.pc, f.procedure, f.message]
         for f in report.findings),
        key=lambda row: json.dumps(row))
    return {
        "summaries": {
            proc: {"clobbered": s.clobbered, "used": s.used,
                   "preserved": s.preserved,
                   "sp_balanced": s.sp_balanced}
            for proc, s in sorted(summaries.summaries.items())},
        "findings": findings,
    }


@pytest.fixture(scope="module")
def golden() -> dict[str, object]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_pinned_image(golden):
    assert list(golden) == list(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_summaries_and_findings_match_golden(golden, name):
    assert snapshot(name) == golden[name], (
        f"{name}: procedure summaries or verifier findings drifted from "
        f"tests/golden/static_summaries.json")


def render(data: dict) -> str:
    """The golden file's text: one procedure or finding per line."""
    images = []
    for name, snap in data.items():
        procs = ",\n".join(f"   {json.dumps(proc)}: "
                           f"{json.dumps(row, sort_keys=True)}"
                           for proc, row in snap["summaries"].items())
        rows = ",\n".join(f"   {json.dumps(row)}"
                          for row in snap["findings"])
        images.append(f" {json.dumps(name)}: {{\n"
                      f"  \"summaries\": {{\n{procs}\n  }},\n"
                      f"  \"findings\": [\n{rows}\n  ]\n }}")
    return "{\n" + ",\n".join(images) + "\n}\n"


if __name__ == "__main__":
    GOLDEN.write_text(render({name: snapshot(name) for name in NAMES}))
    print(f"wrote {GOLDEN}")

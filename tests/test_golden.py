"""Every benchmark step, recomputed in tier-1.

The benchmark's workloads (``perfbench/workloads.py``) render each
deterministic step's output as text and compare its SHA-256 with
``perfbench/golden.json``; the first test runs the same steps against the
same digests, so a drift in any pinned output fails here as well.  A
deliberate output change is re-recorded with
``python3 perfbench/record_golden.py``.  The second runs every step of both
workloads through its own output check, so a keyword or a result key that
a step uses cannot go without a tier-1 failure.
"""

import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_deterministic_outputs_match_golden(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    golden = json.loads(workloads.GOLDEN_PATH.read_text(encoding="utf-8"))
    ctx = workloads.Context(seed=0, workdir=tmp_path, golden={})
    digests = {}
    for build in workloads.WORKLOADS.values():
        for step in build():
            if step.text is not None:
                digests[step.name] = workloads.digest(step.text(step.run(ctx)))
    assert digests.keys() == golden.keys()
    assert sorted(name for name in golden if digests[name] != golden[name]) == []


def test_every_benchmark_step_passes_its_check(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    golden = json.loads(workloads.GOLDEN_PATH.read_text(encoding="utf-8"))
    ctx = workloads.Context(seed=0, workdir=tmp_path, golden=golden)
    for build in workloads.WORKLOADS.values():
        for step in build():
            step.check(step.run(ctx), ctx)

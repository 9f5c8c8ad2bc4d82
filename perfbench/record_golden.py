"""Write golden.json: SHA-256 digests of every deterministic step output.

Run from the repository root, at the commit whose outputs are the
reference: ``python3 perfbench/record_golden.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    ctx = workloads.Context(seed=0, workdir=Path("."), golden={})
    golden = {}
    for build in workloads.WORKLOADS.values():
        for step in build():
            if step.text is not None:
                golden[step.name] = workloads.digest(step.text(step.run(ctx)))
    workloads.GOLDEN_PATH.write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(golden)} digests written to {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

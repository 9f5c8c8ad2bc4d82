"""ionarch benchmark: one workload, measured for a fixed time.

Usage, from the repository root::

    python3 perfbench/run.py --workload network-hypercell --seed 1 --seconds 55 --trace 0

Load model: closed loop, one client.  Each pass of the workload runs in a
fresh interpreter (``worker.py``), so import cost is counted, and passes run
one after another until ``--seconds`` have gone by.  The pass's step seeds
derive from ``--seed`` and the pass index.  Set-up time is also sampled by
interpreters that only set up.  Reported values are medians over the passes.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` untraced and traced passes alternate and the metrics are
the per-layer ones.  The last stdout line is the result object; the line
before it holds the full report: environment, every pass and every step's
record.  Exit code 2 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing   # stdlib only until install() runs, which only the worker does

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).with_name("worker.py")
WORKLOADS = ("estimate-threshold", "network-hypercell")

#: Interpreters that only set up, per run, on top of one set-up per pass.
SETUP_PROBES = 5
#: Passes made even when ``--seconds`` would run out earlier.
MIN_PASSES = 3
#: The whole run, set-up included, ends within this many seconds.
RUN_LIMIT_S = 165.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "pass_frac": "ratio"}


def git_sha(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_worker(argv: list[str], timeout: float) -> tuple[float, list[dict], bool]:
    """Run one worker; returns its start time, JSON lines and whether it was killed."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen([sys.executable, str(WORKER), *argv],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    killed = False
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        killed = True
    lines = []
    for line in out.splitlines():
        try:
            lines.append(json.loads(line))
        except ValueError:
            continue
    return start, lines, killed or proc.returncode != 0


def setup_seconds(start: float, lines: list[dict]) -> float | None:
    for line in lines:
        if "ready" in line:
            return line["ready"] - start
    return None


def run_pass(args, workdir: Path, index: int, traced: bool,
             timeout: float) -> dict:
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--pass-index", str(index), "--trace", str(int(traced)),
            "--workdir", str(workdir)]
    start, lines, broken = run_worker(argv, timeout)
    plan = next((line["plan"] for line in lines if "plan" in line), [])
    steps = [line for line in lines if "step" in line]
    done = next((line for line in lines if "done" in line), {})
    attempted = max(len(plan), len(steps), 1)
    failed = attempted - sum(1 for step in steps if step["ok"])
    if broken and not failed:    # the worker died after its last step
        failed = 1
    return {"index": index, "traced": traced, "broken": broken,
            "setup_s": setup_seconds(start, lines),
            "wall_s": sum(step["wall_s"] for step in steps),
            "peak_rss_mb": done.get("peak_rss_mb"),
            "numpy": done.get("numpy"), "layers": done.get("layers"),
            "attempted": attempted, "failed": failed, "steps": steps}


def median_of(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def step_median_wall(passes: list) -> float:
    """Sum over steps of each step's median time across passes.

    A slow spell of the host hits one step in one pass; the per-step median
    drops it where a median of whole-pass times would not.
    """
    times = {}
    for p in passes:
        for step in p["steps"]:
            times.setdefault(step["step"], []).append(step["wall_s"])
    return sum(statistics.median(values) for values in times.values())


def measure(args, workdir: Path, deadline: float) -> tuple[list, list]:
    setups = []
    for _ in range(SETUP_PROBES):
        start, lines, _ = run_worker(["--workload", args.workload,
                                      "--seed", str(args.seed), "--setup-only"],
                                     deadline - time.monotonic())
        setups.append(setup_seconds(start, lines))
    passes = []
    # traced runs alternate untraced and traced passes over the same seeds
    unit = 2 if args.trace else 1
    began = time.monotonic()
    while True:
        k = len(passes)
        index, traced = divmod(k, 2) if args.trace else (k, 0)
        passes.append(run_pass(args, workdir, index, bool(traced),
                               deadline - time.monotonic()))
        setups.append(passes[-1]["setup_s"])
        n, now = len(passes), time.monotonic()
        if now >= deadline:
            return setups, passes
        # stop when the next unit of passes would end after --seconds
        if n % unit == 0 and n >= MIN_PASSES and (
                (now - began) * (n + unit) / n > args.seconds):
            return setups, passes


def metrics_of(args, setups: list, passes: list, fail_frac: float) -> dict:
    if not args.trace:
        values = {
            "wall_s": step_median_wall(passes),
            "setup_s": median_of(setups),
            "peak_rss_mb": median_of(p["peak_rss_mb"] for p in passes),
            "pass_frac": 1.0 - fail_frac,
        }
        return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                for name, value in values.items()}
    traced = [p for p in passes if p["traced"] and p["layers"]]
    plain = [p for p in passes if not p["traced"]]
    out = {}
    for name, unit in tracing.UNITS.items():
        if name == "trace.overhead_frac":
            value = (median_of(p["wall_s"] for p in traced)
                     / median_of(p["wall_s"] for p in plain) - 1.0)
        else:
            value = median_of(p["layers"][name] for p in traced)
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "ionarch" / "cli.py").is_file():
        print(f"error: no ionarch sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        setups, passes = measure(args, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = metrics_of(args, setups, passes, failed / attempted)
    env = {"git_sha": git_sha(ROOT), "python": platform.python_version(),
           "numpy": next((p["numpy"] for p in passes if p["numpy"]), None),
           "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
           "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace}
    report = {"env": env, "setup_samples_s": setups, "passes": passes,
              "fail_frac": failed / attempted, "metrics": metrics}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One pass of a workload in a fresh interpreter; started by run.py.

It prints JSON lines on stdout: ``ready`` once set-up is done, ``plan``
with the step names, one ``step`` line per step, and a closing ``done`` line
with the peak resident memory and, when traced, the per-layer metrics.
``--setup-only`` stops after ``ready``.
Each step runs under a wall-time ceiling (SIGALRM), so a hang fails that
step instead of stalling the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = sys.stdout


def emit(**payload) -> None:
    OUT.write(json.dumps(payload) + "\n")
    OUT.flush()


def step_seed(workload_seed: int, pass_index: int, step: str) -> int:
    """Per-step seed in [0, 2**63), fixed by the workload seed and the pass."""
    text = f"{workload_seed}/{pass_index}/{step}".encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big") >> 1


class StepTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise StepTimeout("step exceeded its wall-time ceiling")


def setup() -> dict:
    """Import the CLI, build the cluster census and a level-1 cost table."""
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import ionarch.cli  # noqa: F401  (numpy comes with it)
    t1 = time.perf_counter()
    from ionarch import cluster, steane
    from ionarch.arch import MusiqcLayout
    from ionarch.device import DeviceParams
    cluster.cell_lattice()
    t2 = time.perf_counter()
    steane.table_at_level(DeviceParams(), MusiqcLayout(), 1)
    return {"import_s": t1 - t0, "census_s": t2 - t1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    times = setup()
    emit(ready=time.clock_gettime(time.CLOCK_MONOTONIC), **times)
    if args.setup_only:
        return 0

    import numpy

    import tracing
    import workloads

    steps = workloads.WORKLOADS[args.workload]()
    emit(plan=[step.name for step in steps])
    golden = json.loads(workloads.GOLDEN_PATH.read_text(encoding="utf-8"))
    tracer = tracing.Tracer()
    if args.trace:
        tracing.install(tracer)
    signal.signal(signal.SIGALRM, _on_alarm)

    wall = 0.0
    records = {}
    for step in steps:
        ctx = workloads.Context(
            seed=step_seed(args.seed, args.pass_index, step.name),
            workdir=args.workdir, golden=golden)
        tracer.step = step.name
        error = None
        elapsed = 0.0
        try:
            signal.setitimer(signal.ITIMER_REAL, step.ceiling_s)
            tracer.active = bool(args.trace)
            start = time.perf_counter()
            try:
                result = step.run(ctx)
            finally:
                elapsed = time.perf_counter() - start
                tracer.active = False
                signal.setitimer(signal.ITIMER_REAL, 0)
            records[step.name] = step.check(result, ctx)
        except Exception as exc:  # a failed step is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        wall += elapsed
        emit(step=step.name, ok=error is None, wall_s=elapsed, seed=ctx.seed,
             error=error, record=records.get(step.name))

    done = {"wall_s": wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "python": sys.version.split()[0], "numpy": numpy.__version__}
    if args.trace:
        done["layers"] = tracing.layer_metrics(tracer, times, wall, records)
    emit(done=True, **done)
    return 0


if __name__ == "__main__":
    sys.exit(main())

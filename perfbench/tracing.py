"""In-memory spans around ionarch's public functions, installed from outside.

``install`` replaces each traced function with a wrapper in every ionarch
module that holds it, so by-name imports such as ``estimator.table_at_level``
and ``cluster.philox_stream`` are traced too; nothing under ``src/`` changes.
A span keeps its name, start, end, parent and the step that ran it, plus the
work counts read from the function's return value.  ``layer_metrics`` turns
one pass's spans into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    name: str
    step: str
    parent: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.step = ""
        self.active = False    # off while the untimed output checks run
        self.streams = 0

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self.stack[-1] if self.stack else -1
            span = Span(name, self.step, parent, time.perf_counter())
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
                if parent >= 0:
                    self.spans[parent].child_s += span.duration
            if counts is not None:
                span.counts = counts(result)
            return result
        return traced

    def count_streams(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.streams += self.active
            return fn(*args, **kwargs)
        return counted


def _link_counts(result: dict) -> dict:
    return {"attempts": result["attempts"], "useful": result["successes"]}


def _pipeline_counts(result: dict) -> dict:
    gates = len(result["gate_times_s"])
    # each gate consumes seven pairs on each of its three operands
    return {"attempts": result["attempts"], "useful": 21 * gates,
            "gates": gates}


def _tree_counts(result: dict) -> dict:
    return {"trials": result["trials"],
            "attempts_per_trial": result["mean_cost_attempts"]}


def install(tracer: Tracer) -> None:
    """Trace ionarch's public functions for the rest of this process."""
    from ionarch import cli, cluster, estimator, hypercell, netsim, rng, steane

    traced = {
        cli.main: tracer.wrap("cli.main", cli.main),
        steane.table_at_level: tracer.wrap("steane.table_at_level",
                                           steane.table_at_level),
        steane.level1_costs: tracer.wrap("steane.level1_costs",
                                         steane.level1_costs),
        steane.lift_level: tracer.wrap("steane.lift_level", steane.lift_level),
        steane.toffoli_cost: tracer.wrap("steane.toffoli_cost",
                                         steane.toffoli_cost),
        estimator.adder_row: tracer.wrap("estimator.adder_row",
                                         estimator.adder_row),
        estimator.shor_estimate: tracer.wrap("estimator.shor_estimate",
                                             estimator.shor_estimate),
        estimator.crossover_scan: tracer.wrap(
            "estimator.crossover_scan", estimator.crossover_scan,
            lambda r: {"rows": len(r["rows"])}),
        cluster.cell_lattice: tracer.wrap("cluster.cell_lattice",
                                          cluster.cell_lattice),
        cluster.stabilizer_expectation_analytic: tracer.wrap(
            "cluster.stabilizer_expectation_analytic",
            cluster.stabilizer_expectation_analytic),
        cluster.threshold_margin: tracer.wrap("cluster.threshold_margin",
                                              cluster.threshold_margin),
        cluster.mc_stabilizer_expectation: tracer.wrap(
            "cluster.mc_stabilizer_expectation",
            cluster.mc_stabilizer_expectation,
            lambda r: {"samples": r["samples"]}),
        netsim.run_link_sim: tracer.wrap("netsim.run_link_sim",
                                         netsim.run_link_sim, _link_counts),
        netsim.run_toffoli_pipeline: tracer.wrap(
            "netsim.run_toffoli_pipeline", netsim.run_toffoli_pipeline,
            _pipeline_counts),
        hypercell.boundary_scan: tracer.wrap(
            "hypercell.boundary_scan", hypercell.boundary_scan,
            lambda rows: {"points": len(rows)}),
        hypercell.mc_tree_build: tracer.wrap("hypercell.mc_tree_build",
                                             hypercell.mc_tree_build,
                                             _tree_counts),
        rng.philox_stream: tracer.count_streams(rng.philox_stream),
    }
    for module_name, module in list(sys.modules.items()):
        if module_name != "ionarch" and not module_name.startswith("ionarch."):
            continue
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in traced:
                setattr(module, attr, traced[value])
    table_cls = steane.LogicalCostTable
    table_cls.to_json = tracer.wrap("steane.to_json", table_cls.to_json)


# ---------------------------------------------------------------------------
# per-layer metrics of one pass

UNITS = {
    "setup.import_s": "s",
    "cluster.census_s": "s",
    "cli.self_s": "s",
    "cli.calls": "count",
    "steane.table_s": "s",
    "steane.tables_built": "count",
    "steane.lifts": "count",
    "estimator.self_s": "s",
    "estimator.rows_per_s": "1/s",
    "cluster.analytic_points_per_s": "1/s",
    "cluster.mc_s": "s",
    "cluster.samples_per_s.below": "1/s",
    "cluster.samples_per_s.near": "1/s",
    "cluster.samples_per_s.above": "1/s",
    "cluster.samples_per_s.gadget": "1/s",
    "netsim.batched_attempts_per_s": "1/s",
    "netsim.event_attempts_per_s": "1/s",
    "netsim.log_lines": "count",
    "netsim.pipeline_attempts_per_s": "1/s",
    "netsim.pipeline_gates_per_s": "1/s",
    "netsim.attempts": "count",
    "netsim.success_per_attempt": "ratio",
    "hypercell.scan_points_per_s": "1/s",
    "hypercell.trials_per_s.large": "1/s",
    "hypercell.trials_per_s.small": "1/s",
    "hypercell.trials_per_s.single": "1/s",
    "hypercell.attempts_per_trial.large": "count",
    "hypercell.attempts_per_trial.small": "count",
    "hypercell.attempts_per_trial.single": "count",
    "rng.streams": "count",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
}

_TABLE_BUILDERS = {"steane.table_at_level", "steane.level1_costs",
                   "steane.lift_level"}


def _rate(work: float, seconds: float) -> float:
    """Work per second; 0 when the workload never runs the layer."""
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer, setup: dict, step_wall_s: float,
                  records: dict) -> dict:
    """Per-layer metrics of one traced pass, all but ``trace.overhead_frac``.

    ``records`` maps step names to the records their checks returned.
    """
    spans = tracer.spans

    def named(name, step_prefix=""):
        return [s for s in spans
                if s.name == name and s.step.startswith(step_prefix)]

    def outermost(names):
        return [s for s in spans if s.name in names
                and (s.parent < 0 or spans[s.parent].name not in names)]

    def total(items, key=None):
        if key is None:
            return sum(s.duration for s in items)
        return sum(s.counts.get(key, 0) for s in items)

    m = {"setup.import_s": setup["import_s"],
         "cluster.census_s": setup["census_s"]}

    cli_spans = named("cli.main")
    m["cli.self_s"] = sum(s.self_s for s in cli_spans)
    m["cli.calls"] = len(cli_spans)

    m["steane.table_s"] = total(outermost(_TABLE_BUILDERS))
    m["steane.tables_built"] = len(named("steane.level1_costs"))
    m["steane.lifts"] = len(named("steane.lift_level"))

    est_names = {s.name for s in spans if s.name.startswith("estimator.")}
    m["estimator.self_s"] = sum(s.self_s for s in spans if s.name in est_names)
    estimates = len(named("estimator.adder_row")) + len(named("estimator.shor_estimate"))
    m["estimator.rows_per_s"] = _rate(estimates, total(outermost(est_names)))

    analytic = named("cluster.stabilizer_expectation_analytic")
    m["cluster.analytic_points_per_s"] = _rate(
        len(analytic), total(analytic) + total(named("cluster.threshold_margin")))

    mc = named("cluster.mc_stabilizer_expectation")
    m["cluster.mc_s"] = total(mc)
    for label in ("below", "near", "above", "gadget"):
        point = [s for s in mc if s.step == f"mc.{label}"]
        m[f"cluster.samples_per_s.{label}"] = _rate(total(point, "samples"),
                                                    total(point))

    batched = named("netsim.run_link_sim", "netsim.batched")
    event = named("netsim.run_link_sim", "netsim.event")
    pipeline = named("netsim.run_toffoli_pipeline")
    m["netsim.batched_attempts_per_s"] = _rate(total(batched, "attempts"),
                                               total(batched))
    m["netsim.event_attempts_per_s"] = _rate(total(event, "attempts"),
                                             total(event))
    m["netsim.log_lines"] = sum(r.get("log_lines", 0) for r in records.values())
    m["netsim.pipeline_attempts_per_s"] = _rate(total(pipeline, "attempts"),
                                                total(pipeline))
    m["netsim.pipeline_gates_per_s"] = _rate(total(pipeline, "gates"),
                                             total(pipeline))
    link = named("netsim.run_link_sim") + pipeline
    attempts = total(link, "attempts")
    m["netsim.attempts"] = attempts
    m["netsim.success_per_attempt"] = total(link, "useful") / attempts if attempts else 0.0

    scans = named("hypercell.boundary_scan")
    m["hypercell.scan_points_per_s"] = _rate(total(scans, "points"), total(scans))
    for label in ("large", "small", "single"):
        trees = named("hypercell.mc_tree_build", f"hypercell.{label}")
        m[f"hypercell.trials_per_s.{label}"] = _rate(total(trees, "trials"),
                                                     total(trees))
        m[f"hypercell.attempts_per_trial.{label}"] = (
            trees[-1].counts["attempts_per_trial"] if trees else 0.0)

    m["rng.streams"] = tracer.streams
    roots = sum(s.duration for s in spans if s.parent < 0)
    m["trace.coverage_frac"] = roots / step_wall_s if step_wall_s else 0.0
    return m

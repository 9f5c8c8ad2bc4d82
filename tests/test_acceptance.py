"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the test results.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from ionarch.arch import MusiqcLayout, NnLayout, QlaLayout
from ionarch.cluster import (ErrorBudget, cell_lattice, matched_pair_class,
                             mc_stabilizer_expectation,
                             stabilizer_expectation_analytic,
                             teleported_cnot_classes, threshold_margin)
from ionarch.device import (DeviceParams, LinkModel, LinkType,
                            mean_connection_time)
from ionarch.estimator import (adder_execution_time, crossover_scan,
                               qcla_depth, qla_comm_steps, shor_estimate)
from ionarch.hypercell import (HypercellBudget, TreeConfig, boundary_scan,
                               fail_prob, ft_bounds, mc_tree_build,
                               total_error)
from ionarch.netsim import run_link_sim
from ionarch.steane import table_at_level
from oracles import comm_oracle, depth_oracle, pair_latency_oracle


def report(number, name):
    def decorate(fn):
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:02d} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {number:02d} {name}: PASS")
        wrapper.__name__ = fn.__name__
        return wrapper
    return decorate


PARAMS = DeviceParams()


@report(1, "link timing")
def test_criterion_01_link_timing():
    # p_e = 0.05 / 1.0, F = 0.01, eta_D = 0.2, R = 0.1 * gamma/2pi, 20 MHz
    type1 = LinkModel(LinkType.TYPE_I, DeviceParams())
    assert mean_connection_time(type1) == pytest.approx(5e-3, rel=5e-4)
    type2 = LinkModel(LinkType.TYPE_II, DeviceParams(p_excite=1.0))
    assert mean_connection_time(type2) == pytest.approx(0.25, rel=5e-4)


@report(2, "depth formulas exhaustive")
def test_criterion_02_depth_formulas():
    for n in range(7, 4097):
        assert qcla_depth(n).total == depth_oracle(n), n
        assert qla_comm_steps(n) == comm_oracle(n), n


@report(3, "adder table reproduction")
def test_criterion_03_adder_table():
    layouts = {"musiqc": MusiqcLayout(), "qla": QlaLayout(), "nn": NnLayout()}
    times = {
        "musiqc": {128: 0.16, 1024: 0.22, 16384: 0.29},
        "qla": {128: 0.13, 1024: 0.18, 16384: 0.25},
        "nn": {128: 0.56, 1024: 4.5, 16384: 72.0},
    }
    for kind, layout in layouts.items():
        table = table_at_level(PARAMS, layout, 1)
        tol = 0.10 if kind == "nn" else 0.25
        for n, target in times[kind].items():
            value = adder_execution_time(n, table)
            assert abs(value / target - 1) <= tol, (kind, n, value)
    for n in (1, 128, 1024, 16384):
        resources = {kind: (layout.qubits(n), layout.parallel_ops(n))
                     for kind, layout in layouts.items()}
        assert resources == {"musiqc": (150 * n, 18 * n),
                             "qla": (1176 * n, 110 * n),
                             "nn": (20 * (n + 1), 8 * n + 43)}


@report(4, "factoring roll-up reproduction")
def test_criterion_04_shor_table():
    targets = {
        ("musiqc", 32): (1, 2.5 * 60, 4.7e4),
        ("musiqc", 512): (2, 2.1 * 86400, 9.2e7),
        ("musiqc", 4096): (3, 650 * 86400, 4.1e10),
        ("qla", 32): (1, 2.2 * 60, 3.7e5),
        ("qla", 512): (2, 1.5 * 86400, 7.2e8),
        ("qla", 4096): (3, 520 * 86400, 3.2e11),
    }
    for (kind, n), (level, t_target, q_target) in targets.items():
        layout = MusiqcLayout() if kind == "musiqc" else QlaLayout()
        result = shor_estimate(n, layout, PARAMS)
        assert result["level"] == level, (kind, n)
        assert 0.5 <= result["time_s"] / t_target <= 2.0, (kind, n)
        assert 0.5 <= result["qubits"] / q_target <= 2.0, (kind, n)


@report(5, "adder crossover")
def test_criterion_05_crossover():
    scan = crossover_scan(range(32, 257), params=PARAMS)
    assert scan["crossover_n"] is not None
    assert 32 <= scan["crossover_n"] <= 256
    # the lookahead adder on switched hardware dominates at large n
    nn_table = table_at_level(PARAMS, NnLayout(), 1)
    m_table = table_at_level(PARAMS, MusiqcLayout(), 1)
    ratio = (adder_execution_time(16384, nn_table)
             / adder_execution_time(16384, m_table))
    assert ratio > 100
    q_table = table_at_level(PARAMS, QlaLayout(), 1)
    for n in (128, 1024, 16384):
        r = (adder_execution_time(n, m_table)
             / adder_execution_time(n, q_table))
        assert 1.1 <= r <= 1.35


@report(6, "threshold arithmetic")
def test_criterion_06_threshold():
    assert threshold_margin(ErrorBudget(eps=F(29, 10000), r=F(0))) == 0
    assert threshold_margin(
        ErrorBudget(eps=F(0), r=F(29, 10000) * F(32, 55))) == 0
    linear = cell_lattice().linear
    assert 2 * linear.eps == F(512, 5)
    assert 2 * linear.r == 176


@report(7, "Monte Carlo vs analytic bookkeeping")
def test_criterion_07_mc_vs_analytic():
    # grid agreement: pure statistics against the exact census product, and
    # the first-order formula up to its own quadratic truncation error
    for eps in (0.0, 1e-4, 3e-4):
        for r in (0.0, 1e-4, 3e-4):
            budget = ErrorBudget(eps=eps, r=r)
            mc = mc_stabilizer_expectation(budget, 10**6, seed=31)
            analytic = stabilizer_expectation_analytic(budget)
            assert abs(mc["estimate"] - float(analytic["product"])) \
                <= 3 * mc["stderr"] + 1e-12, (eps, r)
            slack = 3 * mc["stderr"] + 2e4 * (eps + r) ** 2
            assert abs(mc["estimate"] - float(analytic["first_order"])) \
                <= slack, (eps, r)

    def slope(points):
        xs = np.array([x for x, _ in points])
        ys = np.array([y for _, y in points])
        return np.polyfit(xs, ys, 1)[0]

    points = (0.5e-4, 1e-4, 1.5e-4, 2e-4, 2.5e-4)
    eps_points = [(e, mc_stabilizer_expectation(
        ErrorBudget(eps=e, r=0.0), 2 * 10**6, seed=300 + k)["estimate"])
        for k, e in enumerate(points)]
    assert abs(slope(eps_points) + 512 / 5) / (512 / 5) <= 0.05
    r_points = [(r, mc_stabilizer_expectation(
        ErrorBudget(eps=0.0, r=r), 2 * 10**6, seed=400 + k)["estimate"])
        for k, r in enumerate(points)]
    assert abs(slope(r_points) + 176.0) / 176.0 <= 0.05


@report(8, "single-error injection")
def test_criterion_08_injection():
    classes = teleported_cnot_classes()
    assert classes[(1, 0)].eps == F(2) and classes[(1, 0)].r == F(10, 3)
    assert classes[(0, 1)].eps == F(4, 15) and classes[(0, 1)].r == F(2, 3)
    assert classes[(1, 1)] == classes[(0, 1)]
    birth = matched_pair_class()
    assert birth.eps == F(8, 15) and birth.r == F(4, 3)
    # locality: no single fault two hops outside the cell flips the check
    lattice = cell_lattice()
    assert len(lattice.shell_sources) >= 200
    assert all(src.flip.is_zero() for src in lattice.shell_sources)


@report(9, "network simulator")
def test_criterion_09_netsim():
    p, rate, n = 0.05, 0.5e6, 10**4
    params = DeviceParams(p_excite=p, solid_angle_fraction=1.0,
                          detector_efficiency=1.0, repetition_rate=rate)
    link = LinkModel(LinkType.TYPE_I, params)
    result = run_link_sim(link, n, seed=3, ports=1, m_t=1)
    tau, stderr = pair_latency_oracle(1.0 / rate, 1, p, n)
    assert result["successes"] == n
    assert abs(result["mean_pair_latency_s"] - tau) <= 3 * stderr

    base = run_link_sim(link, 1500, seed=11, ports=1, m_t=1)
    tdm = run_link_sim(link, 1500, seed=12)
    gain = base["makespan_s"] / tdm["makespan_s"]
    assert abs(gain - 20.0) / 20.0 <= 0.15

    log1, log2 = [], []
    run_link_sim(link, 200, seed=5, log_sink=log1.append)
    run_link_sim(link, 200, seed=5, log_sink=log2.append)
    assert "".join(log1) == "".join(log2)


@report(10, "hypercell")
def test_criterion_10_hypercell():
    p = 3 / 32
    config = TreeConfig(layers=4)
    budget = HypercellBudget(t=p, tau_e=1.0, tau_d=1e4, eps=1e-5)
    mc = mc_tree_build(config, budget, trials=4000, seed=7)
    assert abs(mc["mean_accumulated_error"] / total_error(budget) - 1) <= 0.10

    rows = boundary_scan((1e-6, 1e-5, 1e-4, 1e-3), (0.1, 1.0, 10.0))
    assert any(row["feasible"] for row in rows)
    assert any(not row["feasible"] for row in rows)
    for row in rows:
        if row["feasible"]:
            bounds = ft_bounds(HypercellBudget(
                t=row["t_opt"], tau_e=row["ratio"], tau_d=1.0, eps=row["eps"]))
            assert row["ratio"] < bounds["ratio_bound"]

    example = ft_bounds(HypercellBudget(t=1e-6, tau_e=1.0, tau_d=1.0,
                                        eps=2.9e-4, c=3.0))
    assert abs(example["ratio_bound"] / 8.25e-3 - 1) <= 0.01
    # connection failure budget behaves: exact never exceeds the exponential
    assert fail_prob(p, config.ports) <= math.exp(-config.ports * p)

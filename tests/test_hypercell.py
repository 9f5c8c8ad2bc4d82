import dataclasses
import math
import time

import pytest

from ionarch.errors import DomainError, ValidationError
from ionarch.estimator import rows_to_csv
from ionarch.hypercell import (HypercellBudget, TreeConfig, boundary_scan,
                               design_layers, fail_prob,
                               ft_bounds, hypercell_cost, mc_tree_build,
                               memory_error, path_length, total_error)


def test_fail_prob_values():
    assert fail_prob(1.0, 10) == 0.0
    assert fail_prob(0.01, 300) == pytest.approx(0.04904, abs=5e-6)
    assert fail_prob(0.5, 1) == 0.5
    # an infinite m once gave 0.0, and 2.5 a power no port count has
    for m in (0, math.nan, math.inf):
        with pytest.raises(ValidationError, match="m must be at least 1"):
            fail_prob(0.5, m)
    with pytest.raises(TypeError, match="integer"):
        fail_prob(0.5, 2.5)
    for p in (1.5, -0.1, math.nan):
        with pytest.raises(ValidationError, match=r"p must lie in \[0, 1\]"):
            fail_prob(p, 4)


def test_fail_prob_exact_below_approx():
    for p in (1e-4, 0.01, 0.3, 0.9):
        for m in (1, 7, 120):
            assert fail_prob(p, m) <= math.exp(-m * p)


def test_fail_prob_quadratic_gap_bound():
    # relative gap to exp(-m p) <= m p^2 / 2 + m p^3 (valid for p <= 1/2)
    for p in (1e-3, 0.01, 0.05, 0.2):
        for m in (1, 10, 100, 200):
            rel_gap = 1.0 - fail_prob(p, m) / math.exp(-m * p)
            assert 0 <= rel_gap <= m * p**2 / 2 + m * p**3, (p, m)


def test_path_length():
    assert path_length(4) == 5
    assert path_length(256) == 17
    for m in (2, 8, 64):
        assert path_length(2 * m) - path_length(m) == pytest.approx(2.0)
    for m in (1, math.nan, math.inf):
        with pytest.raises(ValidationError, match="m must be at least 2"):
            path_length(m)
    with pytest.raises(TypeError, match="integer"):
        path_length(4.0)


def test_memory_error_example():
    budget = HypercellBudget(t=1e-3, tau_e=1.0, tau_d=1.0, eps=0.0, c=3.0)
    expected = 1e-3 * (3 * math.log2(3000.0) + 0.5)
    assert memory_error(budget) == pytest.approx(expected)
    assert memory_error(budget) == pytest.approx(0.0352, abs=2e-4)


def test_memory_error_limits():
    # vanishes as t -> 0 and is monotone increasing on the valid domain
    base = HypercellBudget(t=1e-9, tau_e=1.0, tau_d=1.0, eps=0.0)
    assert memory_error(base) < 1e-7
    previous = 0.0
    for t in (1e-8, 1e-6, 1e-4, 1e-2):
        value = memory_error(HypercellBudget(t=t, tau_e=1.0, tau_d=1.0, eps=0.0))
        assert value > previous
        previous = value


def test_memory_error_scales_inverse_tau_d():
    a = memory_error(HypercellBudget(t=1e-4, tau_e=1.0, tau_d=1.0, eps=0.0))
    b = memory_error(HypercellBudget(t=1e-4, tau_e=1.0, tau_d=2.0, eps=0.0))
    assert a == pytest.approx(2.0 * b)


def test_memory_error_domain():
    with pytest.raises(DomainError):
        memory_error(HypercellBudget(t=0.9, tau_e=1.0, tau_d=1.0, eps=0.0, c=1.0))


def test_total_error():
    no_gate = HypercellBudget(t=1e-3, tau_e=1.0, tau_d=1.0, eps=0.0)
    assert total_error(no_gate) == memory_error(no_gate)
    # t = c tau_E / 2 makes the log term exactly 1
    at_two = HypercellBudget(t=0.75, tau_e=1.0, tau_d=1.0, eps=1e-3, c=1.5)
    assert total_error(at_two) == pytest.approx(memory_error(at_two) + 2e-3)
    lo = total_error(HypercellBudget(t=1e-3, tau_e=1.0, tau_d=1.0, eps=1e-4))
    hi = total_error(HypercellBudget(t=1e-3, tau_e=1.0, tau_d=1.0, eps=2e-4))
    assert hi > lo


def test_ft_bounds_example():
    budget = HypercellBudget(t=1e-6, tau_e=1.0, tau_d=1.0, eps=2.9e-4, c=3.0)
    bounds = ft_bounds(budget)
    expected = (2.9e-3 - 5.8e-4) / 9.0 * 2**5
    assert bounds["ratio_bound"] == pytest.approx(expected, rel=1e-9)


def test_ft_bounds_t_max():
    # the memory budget's cap (eps_crit - 2 eps) tau_D / 3, eps = 0 included
    crit = HypercellBudget.eps_crit
    for eps, t_max in ((0.0, crit * 2.0 / 3.0),
                       (2.9e-4, (crit - 5.8e-4) * 2.0 / 3.0)):
        budget = HypercellBudget(t=1e-6, tau_e=1.0, tau_d=2.0, eps=eps)
        assert ft_bounds(budget)["t_max"] == t_max


def test_budget_bounds_at_their_edges():
    # t may reach tau_E (p = 1); c must be positive
    assert HypercellBudget(t=1.0, tau_e=1.0, tau_d=1.0, eps=0.0).p == 1.0
    with pytest.raises(ValidationError, match="t must not exceed"):
        HypercellBudget(t=1.0000000000000002, tau_e=1.0, tau_d=1.0, eps=0.0)
    for c in (0.0, -1.0):
        with pytest.raises(ValidationError, match="c must be positive"):
            HypercellBudget(t=0.5, tau_e=1.0, tau_d=1.0, eps=0.0, c=c)


def test_ft_bounds_limits():
    free = ft_bounds(HypercellBudget(t=1e-6, tau_e=1.0, tau_d=1.0, eps=0.0))
    assert free["ratio_bound"] == math.inf and free["feasible"]
    half = ft_bounds(HypercellBudget(t=1e-6, tau_e=1.0, tau_d=1.0,
                                     eps=2.9e-3 / 2))
    assert half["ratio_bound"] == 0.0


def test_ft_bounds_window_implies_ratio_condition():
    # t_min < t_max implies tau_E/tau_D below the ratio bound (necessary
    # condition); the converse is not asserted
    import itertools
    for eps, ratio, c in itertools.product((1e-5, 1e-4, 5e-4, 1.3e-3),
                                           (1e-3, 0.1, 1.0, 30.0),
                                           (1.0, 3.0)):
        budget = HypercellBudget(t=ratio * 1e-9, tau_e=ratio, tau_d=1.0,
                                 eps=eps, c=c)
        bounds = ft_bounds(budget)
        if bounds["feasible"]:
            assert ratio / 1.0 < bounds["ratio_bound"]


def test_hypercell_cost():
    # the log of (1/p)^(4.5 c / p)
    assert hypercell_cost(1.0, 3.0) == 0.0
    assert hypercell_cost(0.5, 1.0) == pytest.approx(math.log(512.0))
    assert hypercell_cost(0.2, 1.0) == pytest.approx(22.5 * math.log(5.0))
    # finite where the cost itself, e**20723, overflows a float
    assert hypercell_cost(1e-3, 3.0) == pytest.approx(13500 * math.log(1e3))
    for p in (0.0, math.nextafter(1.0, 2.0)):
        with pytest.raises(ValidationError, match="p must lie in"):
            hypercell_cost(p, 1.0)
    for c in (0.0, math.nan, math.inf):
        with pytest.raises(ValidationError, match="c must be positive"):
            hypercell_cost(0.5, c)


def test_mc_tree_build_deterministic_limit():
    cfg = TreeConfig(layers=2)
    budget = HypercellBudget(t=1.0, tau_e=1.0, tau_d=1e30, eps=0.0)
    result = mc_tree_build(cfg, budget, trials=200, seed=1)
    assert result["success_rate"] == 1.0
    assert result["mean_accumulated_error"] == pytest.approx(0.0, abs=1e-25)


def test_mc_staged_cheaper_than_single_shot():
    cfg = TreeConfig(layers=2)
    budget = HypercellBudget(t=0.35, tau_e=1.0, tau_d=1e5, eps=1e-6)
    staged = mc_tree_build(cfg, budget, trials=300, seed=42, staged=True)
    single = mc_tree_build(cfg, budget, trials=300, seed=42, staged=False)
    assert staged["mean_cost_attempts"] <= single["mean_cost_attempts"]


def test_boundary_scan_properties():
    eps_grid = (1e-6, 1e-5, 1e-4, 1e-3)
    ratio_grid = (0.1, 1.0, 10.0)
    rows = boundary_scan(eps_grid, ratio_grid)
    by_point = {(r["eps"], r["ratio"]): r for r in rows}
    # criterion 10 checks each feasible row's ratio condition on these
    # grids; monotone: lowering eps or the ratio never breaks feasibility
    for i, eps in enumerate(eps_grid[:-1]):
        for ratio in ratio_grid:
            if by_point[(eps_grid[i + 1], ratio)]["feasible"]:
                assert by_point[(eps, ratio)]["feasible"]
    for eps in eps_grid:
        for j, ratio in enumerate(ratio_grid[:-1]):
            if by_point[(eps, ratio_grid[j + 1])]["feasible"]:
                assert by_point[(eps, ratio)]["feasible"]
    # weak ratio dependence of the boundary: the feasible/infeasible split in
    # eps shifts by at most one grid decade across two decades of ratio
    boundary_eps = {}
    for ratio in ratio_grid:
        feas = [eps for eps in eps_grid if by_point[(eps, ratio)]["feasible"]]
        boundary_eps[ratio] = max(feas) if feas else 0.0
    values = list(boundary_eps.values())
    assert max(values) <= 10 * min(v for v in values if v > 0)


def test_boundary_csv_schema():
    rows = boundary_scan((1e-5,), (1.0,))
    text = rows_to_csv(rows)
    assert text.splitlines()[0] == "eps,ratio,t_opt,layers_opt,eps_total,p_fail,feasible"


def _tree_edges(config):
    return sum(config.arity**k for k in range(1, config.layers + 1))


def _near(value, mean, var, trials):
    assert abs(value - mean) <= 6.0 * math.sqrt(var / trials), (value, mean)


def _cost_law(config, p, staged):
    """A trial's cost is m + scale (units + NegBinomial(units, q))
    attempts for two trees of E links: staged, each link on its own at p
    (units 2E, q = p, scale 1); single-shot, each tree's E links at once in
    one window (units 2, q = p**E, scale E)."""
    edges = _tree_edges(config)
    return (2 * edges, p, 1) if staged else (2, p**edges, edges)


def _assert_tree_moments(result, config, p, staged, trials):
    """The mean cost and the success rate within 6 standard errors of their
    laws: the cost of ``_cost_law``, and success when any of the m ports
    connects."""
    units, q, scale = _cost_law(config, p, staged)
    m = config.ports
    _near(result["mean_cost_attempts"], m + scale * units / q,
          scale**2 * units * (1 - q) / q**2, trials)
    success = 1.0 - (1.0 - p) ** m
    _near(result["success_rate"], success, success * (1 - success), trials)


@pytest.mark.parametrize("layers, p", [
    (13, 3 / 16384),
    # 2E/p is about 1.1e20: each trial's NegBinomial needs about 100 parts
    (33, 3.079e-10),
])
def test_mc_staged_moments(layers, p):
    config = TreeConfig(layers=layers)
    budget = HypercellBudget(t=p, tau_e=1.0, tau_d=1.0, eps=1e-5)
    trials = 3000
    result = mc_tree_build(config, budget, trials=trials, seed=11)
    _assert_tree_moments(result, config, p, True, trials)
    # total_error with the tree's real port count in place of c/p
    at_ports = total_error(dataclasses.replace(budget, c=config.ports * p))
    _near(result["mean_accumulated_error"], at_ports,
          result["path_pairs"] / 12 * (budget.t / budget.tau_d) ** 2,
          round(result["success_rate"] * trials))


def test_mc_single_shot_moments():
    config = TreeConfig(layers=2)
    p = 0.35
    budget = HypercellBudget(t=p, tau_e=1.0, tau_d=1.0, eps=1e-5)
    trials = 3000
    result = mc_tree_build(config, budget, trials=trials, seed=12,
                           staged=False)
    _assert_tree_moments(result, config, p, False, trials)


def test_mc_single_shot_out_of_range_raises():
    # a 30-link window at p = 3/32 needs about p**-30 = 7e30 rebuilds
    budget = HypercellBudget(t=3 / 32, tau_e=1.0, tau_d=1.0, eps=1e-5)
    start = time.perf_counter()
    with pytest.raises(DomainError):
        mc_tree_build(TreeConfig(layers=4), budget, trials=10, seed=1,
                      staged=False)
    assert time.perf_counter() - start < 1.0


def test_mc_single_shot_costs_past_2_pow_62():
    # p**E = 1e-17 at 5 layers: an expected 1.24e19 attempts per trial,
    # past 2**62, still splits into NegBinomial parts that numpy draws
    config = TreeConfig(layers=5)
    budget = HypercellBudget(t=1e-17 ** (1 / _tree_edges(config)),
                             tau_e=1.0, tau_d=1.0, eps=1e-5)
    trials = 2000
    result = mc_tree_build(config, budget, trials=trials, seed=5,
                           staged=False)
    assert result["mean_cost_attempts"] > 2**62
    _assert_tree_moments(result, config, budget.p, False, trials)


def test_mc_single_shot_underflowing_window_raises():
    # 0.5**(2**21 - 2) underflows to 0: no rebuild count can be drawn
    budget = HypercellBudget(t=0.5, tau_e=1.0, tau_d=1.0, eps=1e-5)
    start = time.perf_counter()
    with pytest.raises(DomainError, match="single-shot"):
        mc_tree_build(TreeConfig(layers=20), budget, trials=10, seed=1,
                      staged=False)
    assert time.perf_counter() - start < 1.0


def _negbin_pmf(n, q, k):
    return math.comb(k + n - 1, k) * q**n * (1 - q) ** k


@pytest.mark.parametrize("staged", [True, False])
def test_mc_cost_law_per_trial(staged):
    # a one-trial call draws one trial's cost, whose law _cost_law gives
    config = TreeConfig(layers=1)
    p = 0.5
    budget = HypercellBudget(t=p, tau_e=1.0, tau_d=1.0, eps=1e-5)
    units, q, scale = _cost_law(config, p, staged)
    calls = 2000
    counts = {}
    for seed in range(calls):
        cost = mc_tree_build(config, budget, trials=1, seed=seed,
                             staged=staged)["mean_cost_attempts"]
        k, rest = divmod(int(cost) - config.ports - scale * units, scale)
        assert cost == int(cost) and rest == 0 and k >= 0, cost
        counts[k] = counts.get(k, 0) + 1
    # one bin per failure count while the tail keeps 10 expected draws,
    # then the tail as the last bin
    expected, observed = [], []
    tail, k = 1.0, 0
    while calls * (tail - _negbin_pmf(units, q, k)) >= 10:
        expected.append(calls * _negbin_pmf(units, q, k))
        observed.append(counts.pop(k, 0))
        tail -= _negbin_pmf(units, q, k)
        k += 1
    expected.append(calls * tail)
    observed.append(sum(counts.values()))
    chi2 = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    # upper 1e-4 quantile of chi-square with `dof` degrees of freedom
    # (Wilson-Hilferty, z = 3.719)
    dof = len(expected) - 1
    spread = math.sqrt(2 / (9 * dof))
    assert chi2 < dof * (1 - spread**2 + 3.719 * spread) ** 3, (chi2, dof)


def test_mc_staged_out_of_range_raises():
    budget = HypercellBudget(t=1e-25, tau_e=1.0, tau_d=1.0, eps=1e-5)
    with pytest.raises(DomainError):
        mc_tree_build(TreeConfig(layers=1), budget, trials=1, seed=1)


def test_budget_bounds_eps_and_c_tau_e():
    # eps in the depolarizing range of the cluster budget, c tau_E finite
    HypercellBudget(t=1e-3, tau_e=1.0, tau_d=1.0, eps=1 / 15)
    for eps in (-1e-9, 0.0667, 1e308, math.inf, math.nan):
        with pytest.raises(ValidationError, match="eps"):
            HypercellBudget(t=1e-3, tau_e=1.0, tau_d=1.0, eps=eps)
    HypercellBudget(t=1.0, tau_e=1e307, tau_d=1.0, eps=0.0)
    with pytest.raises(ValidationError, match="tau_E"):
        HypercellBudget(t=1.0, tau_e=1e308, tau_d=1.0, eps=0.0)


def test_tree_port_ceiling():
    assert TreeConfig(layers=61).ports == 2**62
    with pytest.raises(ValidationError):
        TreeConfig(layers=62)


def test_tree_depth_is_a_whole_number():
    # NaN layers once gave nan ports, and 2.5 layers 11.3 ports
    with pytest.raises(ValidationError, match="layers"):
        TreeConfig(layers=math.nan)
    for layers in (2.5, 2.0):
        with pytest.raises(TypeError, match="integer"):
            TreeConfig(layers=layers)


def test_mc_trials_are_a_whole_number():
    # NaN trials once gave nan rates, and 2.5 trials divided by 2.5
    budget = HypercellBudget(t=0.35, tau_e=1.0, tau_d=1.0, eps=1e-4)
    for trials in (0, math.nan):
        with pytest.raises(ValidationError, match="trials"):
            mc_tree_build(TreeConfig(layers=1), budget, trials, seed=1)
    with pytest.raises(TypeError, match="integer"):
        mc_tree_build(TreeConfig(layers=1), budget, 2.5, seed=1)


def test_design_layers_at_exact_powers_of_two():
    # c/p = 2**k ports take k - 1 layers; math.log(2**k, 2) rounds above k
    # at k = 29, 31, 39, ..., whose ceiling once added a layer and doubled
    # the tree
    for k in range(1, 62):
        assert design_layers(2.0**-k, 1.0) == max(1, k - 1), k


def test_boundary_scan_on_default_grids():
    rows = boundary_scan((1e-6, 1e-5, 1e-4, 1e-3), (0.1, 1.0, 10.0, 100.0))
    assert len(rows) == 16
    assert max(row["layers_opt"] for row in rows) == 33


@pytest.mark.parametrize("layers, staged", [(4, True), (1, False)])
def test_mc_tree_build_repeatable(layers, staged):
    config = TreeConfig(layers=layers)
    budget = HypercellBudget(t=3 / 32, tau_e=1.0, tau_d=1e4, eps=1e-5)
    first = mc_tree_build(config, budget, trials=700, seed=3, staged=staged)
    assert first == mc_tree_build(config, budget, trials=700, seed=3,
                                  staged=staged)


def boundary_scan_oracle(eps_grid, ratio_grid):
    """The scan as a full sweep: a validated budget and ``total_error`` at
    every (eps, ratio, t), keeping the first t of least error."""
    eps_grid = sorted(set(float(e) for e in eps_grid))
    ratio_grid = sorted(set(float(x) for x in ratio_grid))
    if not eps_grid or not ratio_grid:
        raise ValidationError("grids must be non-empty")
    if not all(0 < ratio < math.inf for ratio in ratio_grid):
        raise ValidationError("ratios tau_E/tau_D must be positive and finite")
    c = HypercellBudget.c
    t_points = 120
    tau_d = 1.0
    rows = []
    for eps in eps_grid:
        for ratio in ratio_grid:
            tau_e = ratio * tau_d
            best = None
            # the longest window, p = t / tau_E = 1, ends the sweep
            t_lo = tau_e / 2.0**40
            for k in range(t_points):
                t = (tau_e if k == t_points - 1
                     else t_lo * (tau_e / t_lo) ** (k / (t_points - 1)))
                budget = HypercellBudget(t=t, tau_e=tau_e, tau_d=tau_d,
                                         eps=eps)
                err = total_error(budget)
                if best is None or err < best["eps_total"]:
                    m = c / budget.p
                    best = {"t_opt": t, "eps_total": err,
                            "layers_opt": design_layers(budget.p, c),
                            "p_fail": fail_prob(min(budget.p, 1.0),
                                                max(int(m), 1))}
            rows.append({
                "eps": eps, "ratio": ratio,
                "t_opt": best["t_opt"], "layers_opt": best["layers_opt"],
                "eps_total": best["eps_total"], "p_fail": best["p_fail"],
                "feasible": best["eps_total"] < HypercellBudget.eps_crit,
            })
    return rows


def _outcome(scan, eps_grid, ratio_grid):
    try:
        return repr(scan(eps_grid, ratio_grid))
    except Exception as exc:
        return type(exc), str(exc)


# t_lo * (t_hi / t_lo) ** 1.0 rounds past tau_E at this ratio, so the grid
# ends at t_hi itself
_OVERSHOOT = 6.467818801247025e-307


@pytest.mark.parametrize("eps_grid, ratio_grid", [
    # the benchmark's grids and the CLI's defaults
    ([10 ** (-7 + 5 * k / 15) for k in range(16)],
     [10 ** (-2 + 5 * k / 15) for k in range(16)]),
    ((1e-6, 1e-5, 1e-4, 1e-3), (0.1, 1.0, 10.0, 100.0)),
    ((0.0,), (0.1, 1.0, 10.0)),
    ((1.0,), (0.1, 1.0, 1e300)),                 # every row infeasible
    ((0.0, 1e-4), (1e300, 1e308, 1.7e308)),     # c tau_E overflows
    ((1e-4,), (1e-310,)),                       # t_hi / t_lo is not 2**40
    ((-1.0,), (1e-310,)),
    ((-1.0,), (0.0, 1e-310)),
    ((math.inf,), (1e-310,)),
    ((math.inf,), (0.0, 1e-310)),
    ((1e-4, math.inf), (1e-310, 1.0)),
    ((1e-4,), (1.0, _OVERSHOOT)),
    ((-1.0, 1e-4), (_OVERSHOOT,)),
    ((1e-4, math.inf), (_OVERSHOOT,)),
    ((math.nan, 1e-4), (1.0,)),
    ((), (1.0,)),
])
def test_boundary_scan_matches_full_sweep(eps_grid, ratio_grid):
    # same rows to the last bit, or the same first exception
    assert (_outcome(boundary_scan, eps_grid, ratio_grid)
            == _outcome(boundary_scan_oracle, eps_grid, ratio_grid))


@pytest.mark.parametrize("ratio", [5e-324, 1e-322])
def test_boundary_scan_rejects_underflowing_ratio(ratio):
    # t_hi / 2**40 underflows to 0 below a ratio of about 2.7e-312
    with pytest.raises(ValidationError, match="underflows"):
        boundary_scan((1e-4,), (1.0, ratio))

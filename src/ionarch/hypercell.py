"""Tree-structured register clusters for slow heralded links.

A hypercell exposes many optical ports through layered branching so that two
neighboring cells entangle near-deterministically even when a single heralded
attempt succeeds with small probability p = t / tau_E.  The trees are binary
(each register has one link down and two up), so every depth, port and path
formula is in base 2.  The analytics cover
the failure probability of an m-port connection attempt, the root-to-root
path length, the accumulated memory and swap errors, the feasibility window
for the attempt time t, and the operational cost scaling; the Monte Carlo
draws each trial's build cost and connection from their exact laws, ages the
root-to-root path pair by pair and reports the empirical error against the
analytic total.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import ClassVar

from .cluster import MAX_GATE_ERROR, THRESHOLD_EPS
from .errors import DomainError, ValidationError

MAX_PORTS = 2**62
#: Deepest tree within ``MAX_PORTS``: 2 * 2**61 ports.
MAX_LAYERS = MAX_PORTS.bit_length() - 2


@dataclass(frozen=True)
class TreeConfig:
    """Shape of the binary trees making up a hypercell."""

    arity: ClassVar[int] = 2     # register valency 3: 1 link down, 2 up
    layers: int

    def __post_init__(self):
        # comparisons that NaN fails; a depth that is not an integer, such
        # as 2.0, then raises TypeError
        if not self.layers >= 1:
            raise ValidationError("layers must be at least 1")
        # the depth is checked before any power is built: 2**layers of a
        # huge depth would take as long and as much memory as its digits
        if not self.layers <= MAX_LAYERS:
            raise ValidationError(
                f"{self.layers} layers give more than 2**62 ports")
        operator.index(self.layers)

    @property
    def ports(self) -> int:
        # one extra branching at the top layer: twice the top-layer registers
        return self.arity * self.arity**self.layers


def design_layers(p: float, c: float) -> int:
    """Smallest binary-tree depth (at least 1) whose ports reach c/p."""
    m = c / p if p > 0 else math.inf
    if not m < math.inf:
        raise ValidationError(
            f"c/p is not finite at p = t/tau_E = {p:g}; the attempt window t "
            "is too short for a port count")
    # ceil(log2 m) exactly: m = f * 2**e with f in [1/2, 1), so it is e,
    # or e - 1 when m is a power of two; math.log(m, 2) rounds above k at
    # some m = 2**k, and its ceiling then adds a layer
    mantissa, exponent = math.frexp(max(m, 2.0))
    return max(1, exponent - (mantissa == 0.5) - 1)


@dataclass(frozen=True)
class HypercellBudget:
    """Timing and error inputs of a hypercell design point.

    ``c`` is the port-provisioning target, minus the log of the tolerated
    connection-failure probability (default 3, roughly a 5% failure budget).
    ``eps_crit`` is the cluster-state threshold the root pair must stay under.
    ``eps`` lies in the depolarizing-model range [0, 1/15] of
    ``cluster.ErrorBudget``, and c tau_E must be finite, so no analytic
    overflows on a valid budget.
    """

    eps_crit: ClassVar[float] = float(THRESHOLD_EPS)

    t: float                 # attempt window
    tau_e: float             # mean heralded connection time
    tau_d: float             # decoherence time
    eps: float               # gate error per swap operation
    c: float = 3.0

    def __post_init__(self):
        # comparisons that NaN fails
        if not (0 < self.t < math.inf and 0 < self.tau_e < math.inf
                and 0 < self.tau_d < math.inf):
            raise ValidationError(
                "t, tau_e, tau_d must be positive and finite")
        if self.t > self.tau_e:
            raise ValidationError("t must not exceed tau_e (p = t/tau_e <= 1)")
        if not 0 <= self.eps <= MAX_GATE_ERROR:
            raise ValidationError(
                f"gate error eps {self.eps} outside the depolarizing-model "
                "range [0, 1/15]")
        if not 0 < self.c < math.inf:
            raise ValidationError("c must be positive and finite")
        if not self.c * self.tau_e < math.inf:
            raise ValidationError(
                f"c * tau_E = {self.c} * {self.tau_e} is not finite")

    @property
    def p(self) -> float:
        return self.t / self.tau_e


def fail_prob(p: float, m: int) -> float:
    """Probability (1 - p)^m that all m port pairs fail."""
    # comparisons that NaN fails; an m that is not an integer then raises
    # TypeError
    if not 1 <= m < math.inf:
        raise ValidationError("m must be at least 1 and finite")
    if not 0 <= p <= 1:
        raise ValidationError("p must lie in [0, 1]")
    return (1.0 - p) ** operator.index(m)


def path_length(m: int) -> float:
    """Bell pairs between the two roots: 2 log2(m) + 1."""
    if not 2 <= m < math.inf:
        raise ValidationError("m must be at least 2 and finite")
    return 2.0 * math.log2(operator.index(m)) + 1.0


def _path_error(ts, tau_e: float, tau_d: float, c: float):
    """The root pair's error at each attempt time t of ``ts``, as a function
    of eps: (t/tau_D)(3 L + 1/2) of memory plus 2 eps L of swaps, where
    L = log2(c tau_E / t); L and the memory are computed once for every eps.
    A t with c tau_E / t < 2 leaves the tree no ports: :class:`DomainError`.
    """
    c_tau_e = c * tau_e
    if (least := c_tau_e / max(ts)) < 2:
        raise DomainError(
            f"c * tau_E / t = {least:.3g} < 2; the tree has no ports")
    logs = [math.log2(c_tau_e / t) for t in ts]
    mems = [t / tau_d * (3.0 * log + 0.5) for t, log in zip(ts, logs)]

    def error(eps: float) -> list[float]:
        swap = 2.0 * eps
        return [mem + swap * log for mem, log in zip(mems, logs)]

    return error


def memory_error(budget: HypercellBudget) -> float:
    """Accumulated memory error of the root pair: (t/tau_D)(3 log2(c tau_E/t) + 1/2)."""
    return _path_error([budget.t], budget.tau_e, budget.tau_d, budget.c)(0.0)[0]


def total_error(budget: HypercellBudget) -> float:
    """Memory error plus 2 eps log2(c tau_E / t) of swap error."""
    return _path_error([budget.t], budget.tau_e, budget.tau_d,
                       budget.c)(budget.eps)[0]


def ft_bounds(budget: HypercellBudget) -> dict:
    """Feasibility window for the attempt time under gate error.

    The swap-error budget caps the tree depth, bounding t from below by
    c tau_E 2^(-eps_crit / 2 eps); the memory budget caps t from above by
    (eps_crit - 2 eps) tau_D / 3.  A non-empty window requires
    tau_E / tau_D < ((eps_crit - 2 eps) / 3c) 2^(eps_crit / 2 eps), which is
    necessary but not sufficient; with eps -> 0 the ratio bound diverges and
    any link-to-memory timescale ratio admits a design point.
    """
    eps, crit, c = budget.eps, budget.eps_crit, budget.c
    t_max = (crit - 2.0 * eps) * budget.tau_d / 3.0
    if eps == 0:
        return {"t_min": 0.0, "t_max": t_max,
                "ratio_bound": math.inf, "feasible": True}
    exponent = crit / (2.0 * eps)
    t_min = c * budget.tau_e * 2.0 ** (-exponent)
    if crit <= 2.0 * eps:
        ratio_bound = 0.0
    else:
        log_bound = (math.log((crit - 2.0 * eps) / (3.0 * c))
                     + exponent * math.log(2.0))
        ratio_bound = math.exp(log_bound) if log_bound < 700.0 else math.inf
    return {"t_min": t_min, "t_max": t_max,
            "ratio_bound": ratio_bound,
            "feasible": t_min < t_max}


def hypercell_cost(p: float, c: float) -> float:
    """Natural log of the operational cost (1/p)^(4.5 c / p).

    The log stays finite where the cost itself overflows a float.  The cost
    has no dependence on any computation-size input.
    """
    if not 0 < p <= 1:
        raise ValidationError("p must lie in (0, 1]")
    if not 0 < c < math.inf:
        raise ValidationError("c must be positive and finite")
    return (4.5 * c / p) * math.log(1.0 / p)


MC_TRIAL_CHUNK = 256
# numpy draws NegBinomial(n, p) as Poisson(Gamma(n, (1-p)/p)) and refuses
# (1-p)/p (n + 10 sqrt(n)) above about 2**63; each part stays 8x below that
_NEGBIN_LIMIT = 2.0**60
_MAX_NEGBIN_PARTS_PER_TRIAL = 1024


def _negbin_max_count(p: float) -> float:
    """Largest count n, possibly fractional, of a NegBinomial(n, p) part."""
    ratio = _NEGBIN_LIMIT * p / (1.0 - p)
    # the n with (1-p)/p (n + 10 sqrt(n)) = _NEGBIN_LIMIT
    return (ratio / (math.sqrt(25.0 + ratio) + 5.0)) ** 2


def mc_tree_build(config: TreeConfig, budget: HypercellBudget, trials: int,
                  seed: int, staged: bool = True) -> dict:
    """Simulate building two trees and connecting their roots.

    Tree links succeed with probability p per attempt window; in staged mode
    failed links are retried layer by layer (cost grows linearly), in
    single-shot mode a whole tree is rebuilt until every link of one window
    succeeds.  Successful pairs carry explicit birth timestamps: tree pairs
    born uniformly inside the construction window [0, t), the connecting pair
    inside [t, 2t).  The root-to-root error accumulates one age/tau_D memory
    term per path pair plus one eps swap term per intermediate register, and
    is averaged over trials where the port connection heralds; with no such
    trial ``mean_accumulated_error`` is ``None``, which JSON prints as null.

    Costs and connections are drawn from their exact laws, so the work does
    not grow with the tree.  Both modes retry independent units until each
    succeeds, each failure costing a fixed number of attempts, so a trial
    with E = m - 2 links per tree costs
    2E + m + scale * NegBinomial(units, q) attempts: staged mode retries
    its (units, q, scale) = (2E, p, 1) links, and single-shot mode its
    (2, p**E, E) trees, each built Geometric(p**E) = 1 + NegBinomial(1, p**E)
    times.  NegBinomial is additive in its count, so a chunk draws its
    trials' sum, split into equal parts that numpy can draw; a q that
    underflows to 0, or a trial that needs more than
    ``_MAX_NEGBIN_PARTS_PER_TRIAL`` parts, raises :class:`DomainError`.  The
    m ports of a trial connect with probability 1 - (1 - p)**m, so a chunk's
    connected count is one binomial draw, and only connected trials draw
    their pair birth times.
    Trials run in chunks of ``MC_TRIAL_CHUNK``, and chunk k draws from
    stream k of ``seed`` (:func:`ionarch.rng.philox_stream`), so the seed
    and the chunk size fix the result.
    """
    # imported here, so the analytics and the scan load without numpy
    from .rng import philox_stream

    if not trials >= 1:
        raise ValidationError("trials must be positive")
    trials = operator.index(trials)
    p = budget.p
    m = config.ports
    n_path_pairs = int(round(path_length(m)))
    # split across the two trees; one swap per intermediate register
    n_tree_pairs = n_path_pairs - 1
    tree_edges = m - 2      # 2 + 4 + ... + 2**layers links per tree
    # ages at 2t: a tree pair born at u in [0, t) has age 2t - u, the
    # connecting pair born at t + u has age t - u
    age_sum_at_zero = (2 * n_tree_pairs + 1) * budget.t

    if p < 1:
        connect_prob = -math.expm1(m * math.log1p(-p))
        if staged:
            units, q, scale = 2 * tree_edges, p, 1
        else:
            units, q, scale = 2, p**tree_edges, tree_edges
        max_count = _negbin_max_count(q)
        if max_count * _MAX_NEGBIN_PARTS_PER_TRIAL < units:
            attempts = scale * units / q if q else math.inf
            raise DomainError(
                f"{'staged' if staged else 'single-shot'} trees need about "
                f"{attempts:.3g} attempts per trial, beyond the sampler's "
                "range")

    successes = 0
    total_cost = 0
    err_sum = 0.0
    done = 0
    chunk_index = 0
    while done < trials:
        take = min(MC_TRIAL_CHUNK, trials - done)
        rng = philox_stream(seed, chunk_index)
        total_cost += take * (2 * tree_edges + m)
        if p == 1:
            connected = take
        else:
            count = take * units
            parts = math.ceil(count / max_count)
            failures = rng.negative_binomial(count / parts, q, size=parts)
            total_cost += scale * sum(failures.tolist())
            # connect the two surfaces: m port pairs, one window; each trial
            # connects with probability connect_prob
            connected = int(rng.binomial(take, connect_prob))
        successes += connected
        offsets = budget.t * float(rng.random((connected, n_path_pairs)).sum())
        err_sum += ((connected * age_sum_at_zero - offsets) / budget.tau_d
                    + connected * budget.eps * n_tree_pairs)
        done += take
        chunk_index += 1

    return {
        "success_rate": successes / trials,
        "mean_accumulated_error": err_sum / successes if successes else None,
        "mean_cost_attempts": total_cost / trials,
        "trials": trials,
        "path_pairs": n_path_pairs,
        "ports": m,
    }


def boundary_scan(eps_grid, ratio_grid) -> list[dict]:
    """Feasibility map over gate error and tau_E/tau_D.

    For each grid point the attempt time is swept logarithmically in 120
    steps from tau_E / 2**40 up to tau_E, where p = 1 (tree depth follows
    from the port target c/p); a point is feasible when some t keeps the
    total error below ``HypercellBudget.eps_crit``, and the row reports the
    first t of least error.  Row keys are in CSV column order.

    The t grid and the memory error depend on the ratio alone, so
    :func:`_path_error` computes them once per ratio, and every eps adds
    only its swap error.  A ratio whose shortest attempt time
    tau_E / 2**40 underflows to 0 is rejected.
    """
    eps_grid = sorted(set(float(e) for e in eps_grid))
    ratio_grid = sorted(set(float(x) for x in ratio_grid))
    if not eps_grid or not ratio_grid:
        raise ValidationError("grids must be non-empty")
    if not all(0 < ratio < math.inf for ratio in ratio_grid):
        raise ValidationError("ratios tau_E/tau_D must be positive and finite")
    c = HypercellBudget.c
    t_points = 120
    tau_d = 1.0
    sweeps = []
    for ratio in ratio_grid:
        tau_e = ratio * tau_d
        t_lo = tau_e / 2.0**40
        if not t_lo > 0:
            raise ValidationError(
                f"ratio tau_E/tau_D = {ratio:.3g} is too small: the shortest "
                "attempt time tau_E / 2**40 underflows to 0")
        # tau_E itself ends the grid: where t_lo is subnormal, tau_E / t_lo
        # is not 2**40 and the power form can round past tau_E
        ts = [t_lo * (tau_e / t_lo) ** (k / (t_points - 1))
              for k in range(t_points - 1)] + [tau_e]
        sweeps.append((tau_e, ts, _path_error(ts, tau_e, tau_d, c)))
    rows = []
    for eps in eps_grid:
        for ratio, (tau_e, ts, errors) in zip(ratio_grid, sweeps):
            # the inputs the sweep validates at every t; t rises with k, so
            # its two ends bound the rest
            for t in (ts[0], ts[-1]):
                HypercellBudget(t=t, tau_e=tau_e, tau_d=tau_d, eps=eps)
            errs = errors(eps)
            # first strict minimum, as a running `<` comparison finds it
            k = min(range(t_points), key=errs.__getitem__)
            t = ts[k]
            p = t / tau_e
            rows.append({
                "eps": eps, "ratio": ratio,
                "t_opt": t, "layers_opt": design_layers(p, c),
                "eps_total": errs[k],
                "p_fail": fail_prob(min(p, 1.0), max(int(c / p), 1)),
                "feasible": errs[k] < HypercellBudget.eps_crit,
            })
    return rows

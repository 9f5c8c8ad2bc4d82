"""Command-line front end.

Subcommands: ``estimate-adder``, ``estimate-shor``, ``threshold``,
``mc-cluster``, ``netsim``, ``hypercell``.  Exit codes: 0 success, 2
validation error, 3 infeasible result.  Machine output is JSON, or CSV for
table-like results unless ``--json`` is given; it goes to stdout, or to the
``--out`` file instead.

Each simulator module is imported inside the command that uses it: numpy
comes with ``netsim`` and with ``hypercell --trials``, so the analytic
subcommands and ``mc-cluster`` start without it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from fractions import Fraction

from . import config, estimator, steane
from .arch import _LAYOUTS, MusiqcLayout, layout_from_name
from .device import LinkModel, LinkType
from .errors import InsufficientConcatenation, ValidationError


def _add_common(parser):
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--json", action="store_true",
                        help="emit JSON on stdout")
    parser.add_argument("--out",
                        help="write the output to this path, not stdout")


def _add_run_setting(parser, flag, key):
    # a flag over the config file's key; its help states the default
    parser.add_argument(flag, type=int, help=f"default: {key} of --config, "
                        f"else {config._RUN_DEFAULTS[key]}")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose rejections raise ``ValidationError``, so
    that ``main`` reports them in one line and returns 2."""

    def error(self, message):
        raise ValidationError(message)


def _estimate_adder_args(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--arch", choices=list(_LAYOUTS), required=True)
    p.add_argument("--level", type=int, default=1)


def _estimate_shor_args(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--arch", choices=list(estimator._FACTORING_LAYOUTS),
                   default="musiqc")
    p.add_argument("--eps-phys", type=float, default=steane.EPS_PHYS)
    p.add_argument("--eps-threshold", type=float,
                   default=steane.EPS_THRESHOLD)


def _threshold_args(p):
    p.add_argument("--eps", type=str, default="0.0",
                   help="gate error (accepts fractions like 29/10000)")
    p.add_argument("--ratio", type=str, default="0.0",
                   help="memory error per step, T/tau_D")
    p.add_argument("--scan", action="store_true")
    p.add_argument("--eps-grid", default="0,1e-4,3e-4,1e-3")
    p.add_argument("--ratio-grid", default="0,1e-4,3e-4,1e-3")


def _mc_cluster_args(p):
    _add_run_setting(p, "--samples", "run.samples")
    _add_run_setting(p, "--seed", "run.seed")
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--ratio", type=float, default=0.0)


def _netsim_args(p):
    _add_run_setting(p, "--pairs", "run.pairs")
    _add_run_setting(p, "--seed", "run.seed")
    p.add_argument("--m-p", type=int, default=MusiqcLayout.m_p)
    p.add_argument("--m-t", type=int, default=MusiqcLayout.m_t)
    p.add_argument("--link", choices=[kind.value for kind in LinkType],
                   default=LinkType.TYPE_I.value)
    p.add_argument("--p-excite", type=float, default=None)
    p.add_argument("--repetition-rate-hz", type=float, default=None)
    p.add_argument("--log", help="write the event log to this path")


def _hypercell_args(p):
    p.add_argument("--scan", action="store_true")
    p.add_argument("--eps-grid", default="1e-6,1e-5,1e-4,1e-3")
    p.add_argument("--ratio-grid", default="0.1,1,10,100")
    p.add_argument("--trials", type=int, default=0)
    _add_run_setting(p, "--seed", "run.seed")
    p.add_argument("--eps", type=float, default=2.9e-4)
    p.add_argument("--ratio", type=float, default=1.0)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--layers", type=int, default=None,
                   help="tree depth (default: the depth whose ports reach "
                        "c/p)")


#: The program name that usage, help and error lines start with.
_PROG = "ionarch"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog=_PROG,
        description="resource estimation and simulation for modular "
                    "trapped-ion architectures")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments, _) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        add_arguments(p)
        _add_common(p)
    return parser


def _parse_number(text: str) -> Fraction | float:
    try:
        value = Fraction(text) if "/" in text else float(text)
        float(value)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"{text!r} is not a number") from None
    except OverflowError:
        raise ValidationError(
            "fraction past the largest float (about 1.8e308)") from None
    return value


def _grid(text: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ValidationError(
            f"{text!r} is not a comma-separated list of numbers") from None
    if not values:
        raise ValidationError(f"grid {text!r} is empty")
    return values


def _emit(args, payload: dict, rows: list | None = None) -> None:
    """Write ``rows`` as CSV, or the JSON payload when there are no rows or
    with ``--json``, to ``--out`` if given and to stdout otherwise.

    The CSV is built only when it is written.  A result holding an
    infinite or NaN float is rejected before anything is written: JSON has
    no such numbers, and no cost, rate or error of a table can be one.
    """
    if rows is None or args.json:
        try:
            text = json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"
        except ValueError:
            raise ValidationError(
                "the result holds an infinite or NaN number, which JSON "
                "cannot carry") from None
    else:
        text = estimator.rows_to_csv(rows)
        # rows_to_csv writes such a float as inf, -inf or nan, words that no
        # header or text cell of a table holds
        if "inf" in text or "nan" in text:
            raise ValidationError("the result holds an infinite or NaN number")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_estimate_adder(args, cfg) -> int:
    params = config.device_from_config(cfg)
    layout = layout_from_name(args.arch)
    row = estimator.adder_row(args.n, layout, params, level=args.level)
    _emit(args, payload=row, rows=[row])
    return 0


def _cmd_estimate_shor(args, cfg) -> int:
    params = config.device_from_config(cfg)
    layout = layout_from_name(args.arch)
    result = estimator.shor_estimate(args.n, layout, params,
                                     eps_phys=args.eps_phys,
                                     eps_threshold=args.eps_threshold)
    _emit(args, payload={"n": args.n, "layout": layout.kind, **result,
                         "time_days": result["time_s"] / 86400.0})
    return 0


#: Most points of a threshold or hypercell scan, which holds a row per point:
#: a hypercell scan of 2**16 points peaks near 1 GB.
MAX_SCAN_POINTS = 2**16


def _scan_grids(args) -> tuple[list[float], list[float]]:
    """The ``--eps-grid`` and ``--ratio-grid`` of a scan, checked against
    ``MAX_SCAN_POINTS`` before any row is built."""
    eps_grid, ratio_grid = _grid(args.eps_grid), _grid(args.ratio_grid)
    if len(eps_grid) * len(ratio_grid) > MAX_SCAN_POINTS:
        raise ValidationError(
            f"a scan of {len(eps_grid)} x {len(ratio_grid)} points exceeds "
            f"the bound of 2**16 = {MAX_SCAN_POINTS}")
    return eps_grid, ratio_grid


def _cmd_threshold(args, cfg) -> int:
    from . import cluster

    if args.scan:
        eps_grid, ratio_grid = _scan_grids(args)
    else:
        eps_grid = [_parse_number(args.eps)]
        ratio_grid = [_parse_number(args.ratio)]
    # A budget at every point would check each eps at the first point of its
    # row and each ratio in the first row, and warn at every point whose
    # ratio is large: budgets are built at just those points, on this one
    # line, which a large ratio's warning names, so the first bad point's
    # error and the warnings stay the same; nothing prints before the last
    # check.  Point mode builds one budget, ``point``.
    terms = iter(cluster.threshold_terms(eps_grid, ratio_grid))
    warns = [ratio > cluster.RATIO_WARNING_LEVEL for ratio in ratio_grid]
    rows = []
    for i, eps in enumerate(eps_grid):
        for j, ratio in enumerate(ratio_grid):
            if i == 0 or j == 0 or warns[j]:
                point = cluster.ErrorBudget(eps=eps, r=ratio)
            margin, first_order = next(terms)
            margin = float(margin)
            rows.append({"eps": float(eps), "r": float(ratio),
                         "margin": margin, "below_threshold": margin > 0,
                         "expectation_first_order": float(first_order)})
    if args.scan:
        _emit(args, payload={"rows": rows}, rows=rows)
        return 0
    analytic = cluster.stabilizer_expectation_analytic(point)
    rows[0]["expectation_product"] = float(analytic["product"])
    _emit(args, payload=rows[0])
    return 0


def _cmd_mc_cluster(args, cfg) -> int:
    from . import cluster

    samples = config.resolve(args.samples, cfg, "run.samples")
    seed = config.resolve(args.seed, cfg, "run.seed")
    budget = cluster.ErrorBudget(eps=args.eps, r=args.ratio)
    analytic = cluster.stabilizer_expectation_analytic(budget)
    mc = cluster.mc_stabilizer_expectation(budget, samples, seed)
    row = {"eps": args.eps, "r": args.ratio,
           "analytic_first_order": analytic["first_order"],
           "analytic_product": analytic["product"],
           "mc_estimate": mc["estimate"], "mc_stderr": mc["stderr"],
           "samples": samples, "seed": seed}
    _emit(args, payload=row, rows=[row])
    return 0


def _cmd_netsim(args, cfg) -> int:
    from . import netsim

    pairs = config.resolve(args.pairs, cfg, "run.pairs")
    seed = config.resolve(args.seed, cfg, "run.seed")
    params = config.device_from_config(
        cfg, p_excite=args.p_excite,
        repetition_rate=args.repetition_rate_hz)
    link = LinkModel(kind=LinkType(args.link), params=params)
    # the log file opens at its first chunk, so a rejected run, which stops
    # before any line, leaves an existing file as it was
    with contextlib.ExitStack() as stack:
        log = None

        def write(text):
            nonlocal log
            if log is None:
                log = stack.enter_context(
                    open(args.log, "w", encoding="utf-8"))
            log.write(text)

        result = netsim.run_link_sim(link, pairs, seed, ports=args.m_p,
                                     m_t=args.m_t,
                                     log_sink=write if args.log else None)
    _emit(args, payload=result)
    return 0


def _cmd_hypercell(args, cfg) -> int:
    from . import hypercell

    if args.scan and args.trials:
        raise ValidationError("--trials is for point mode only")
    if args.seed is not None and not args.trials:
        raise ValidationError("--seed seeds the Monte Carlo; give --trials")
    if args.scan:
        rows = hypercell.boundary_scan(*_scan_grids(args))
        _emit(args, payload={"rows": rows}, rows=rows)
        return 0
    tau_d = 1.0
    tau_e = args.ratio * tau_d
    t = args.t if args.t is not None else tau_e / 100.0
    budget = hypercell.HypercellBudget(t=t, tau_e=tau_e, tau_d=tau_d,
                                       eps=args.eps)
    layers = (args.layers if args.layers is not None
              else hypercell.design_layers(budget.p, budget.c))
    cfg_tree = hypercell.TreeConfig(layers=layers)
    bounds = hypercell.ft_bounds(budget)
    if bounds["ratio_bound"] == math.inf:
        # no finite bound (eps = 0, or one past exp(700)); JSON has no
        # infinity, so it reads null
        bounds["ratio_bound"] = None
    payload = {
        "p": budget.p,
        "ports": cfg_tree.ports,
        "path_length": hypercell.path_length(cfg_tree.ports),
        "memory_error": hypercell.memory_error(budget),
        "total_error": hypercell.total_error(budget),
        "ft_bounds": bounds,
        "cost": hypercell.hypercell_cost(budget.p, budget.c),
    }
    if args.trials:
        seed = config.resolve(args.seed, cfg, "run.seed")
        payload["mc"] = hypercell.mc_tree_build(cfg_tree, budget, args.trials,
                                                seed)
    _emit(args, payload=payload)
    return 0


#: Each subcommand's help line, the function adding its own arguments and
#: the function running it.
_SUBCOMMANDS = {
    "estimate-adder": ("n-bit adder time and resources", _estimate_adder_args,
                       _cmd_estimate_adder),
    "estimate-shor": ("factoring roll-up", _estimate_shor_args,
                      _cmd_estimate_shor),
    "threshold": ("cluster-state threshold margin", _threshold_args,
                  _cmd_threshold),
    "mc-cluster": ("Monte Carlo cell-check expectation", _mc_cluster_args,
                   _cmd_mc_cluster),
    "netsim": ("photonic link simulation", _netsim_args, _cmd_netsim),
    "hypercell": ("tree-cluster analytics and scans", _hypercell_args,
                  _cmd_hypercell),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


@functools.cache
def _command_parser(command: str) -> argparse.ArgumentParser:
    """The parser the full parser hands ``command``'s arguments to, built
    alone: ``add_parser`` gives it the same class and the prog
    "ionarch <command>"."""
    parser = _Parser(prog=f"{_PROG} {command}")
    _SUBCOMMANDS[command][1](parser)
    _add_common(parser)
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """Parse ``argv`` as the full parser does, in one argparse level.

    When ``argv`` starts with a known subcommand, the rest goes straight to
    that subcommand's parser, built without the others.  Anything else (no
    argument, a leading ``-h``, an unknown command) takes the full parser,
    which reports it.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in _SUBCOMMANDS:
        return _parser().parse_args(argv)
    args = _command_parser(argv[0]).parse_args(argv[1:])
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    """Run one subcommand and return its exit code.

    Each parser is built on its first call and reused by every later call
    in the process; a parse keeps no state between calls, so each starts
    from the defaults.  A call that names a known subcommand first is
    parsed by that subcommand's parser alone (``_parse_args``), with the
    namespace and the errors the full parser gives.  A rejected command line returns 2
    like any other bad input; ``--help`` exits 0 through ``SystemExit``.
    """
    try:
        args = _parse_args(argv)
        cfg = config.load_config(getattr(args, "config", None))
        return _SUBCOMMANDS[args.command][2](args, cfg)
    except InsufficientConcatenation as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()

import argparse
import hashlib
import json
import linecache
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import ionarch
from ionarch import cli, cluster, estimator
from ionarch.arch import MusiqcLayout, NnLayout, layout_from_name
from ionarch.cli import build_parser, main
from ionarch.config import parse_config_text
from ionarch.device import DeviceParams, LinkModel, LinkType
from ionarch.errors import ValidationError
from ionarch.netsim import MAX_PAIRS, run_link_sim


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_estimate_adder_table_row(capsys):
    # the CSV row is adder_row's at the same arguments; criterion 03 holds
    # its published value
    code, out, _ = run_cli(capsys, "estimate-adder", "--n", "128",
                           "--arch", "musiqc", "--level", "1")
    assert code == 0
    header, _ = out.strip().splitlines()
    assert header == ("n,layout,circuit,level,depth_total,toffoli_steps,"
                      "time_s,qubits,parallel_ops")
    row = estimator.adder_row(128, MusiqcLayout(), DeviceParams(), level=1)
    assert out == estimator.rows_to_csv([row])


def test_estimate_adder_nn(capsys):
    # the JSON payload is adder_row's at the same arguments
    code, out, _ = run_cli(capsys, "estimate-adder", "--n", "1024",
                           "--arch", "nn", "--json")
    assert code == 0
    assert json.loads(out) == estimator.adder_row(1024, NnLayout(),
                                                  DeviceParams())


def test_estimate_adder_domain_error(capsys):
    code, _, err = run_cli(capsys, "estimate-adder", "--n", "4", "--arch", "musiqc")
    assert code == 2
    assert "n > 6" in err


def test_name_choices_are_the_model_names():
    # estimate-adder's layouts and netsim's links are named in the model
    # alone; each name builds the layout or link kind it names
    def choices(command, dest):
        return next(action.choices
                    for action in cli._command_parser(command)._actions
                    if action.dest == dest)

    assert choices("estimate-adder", "arch") == ["musiqc", "qla", "nn"]
    assert [layout_from_name(name).kind for name in ["MUSIQC", "qla", "Nn"]
            ] == ["musiqc", "qla", "nn"]
    with pytest.raises(ValidationError, match=(
            r"unknown architecture 'bogus'; expected one of "
            r"\['musiqc', 'nn', 'qla'\]")):
        layout_from_name("bogus")
    assert [LinkType(name) for name in choices("netsim", "link")] == [
        LinkType.TYPE_I, LinkType.TYPE_II]
    # estimate-shor's layouts are the ones the factoring roll-up accepts
    assert choices("estimate-shor", "arch") == list(
        estimator._FACTORING_LAYOUTS) == ["musiqc", "qla"]


@pytest.mark.parametrize("level", ["4", "1000", str(10**9)])
def test_estimate_adder_level_out_of_range_exit(capsys, level):
    # levels run from 1 to MAX_CONCAT_LEVEL = 3; a higher one would overflow
    # the time or take a lift per level, and is refused at once
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "estimate-adder", "--n", "128",
                             "--arch", "musiqc", "--level", level)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == f"error: level {level} outside [1, 3]\n"


def test_estimate_shor_levels(capsys):
    for n, level in [(32, 1), (512, 2), (8, 1)]:
        code, out, _ = run_cli(capsys, "estimate-shor", "--n", str(n),
                               "--arch", "musiqc", "--json")
        assert code == 0
        assert json.loads(out)["level"] == level


def test_estimate_shor_infeasible_exit_code(capsys):
    code, _, err = run_cli(capsys, "estimate-shor", "--n", "4096",
                           "--eps-phys", "9.99e-5")
    assert code == 3
    assert "infeasible" in err


def test_threshold_point(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--eps", "0", "--ratio", "0",
                           "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["margin"] == pytest.approx(2.9e-3)
    code, out, _ = run_cli(capsys, "threshold", "--eps", "0.0029",
                           "--ratio", "0", "--json")
    assert json.loads(out)["margin"] == pytest.approx(0.0, abs=1e-15)


def test_threshold_rejects_bad_budget(capsys):
    code, _, err = run_cli(capsys, "threshold", "--eps", "0.5", "--ratio", "0")
    assert code == 2


@pytest.mark.parametrize("flag, key, other", [("--eps", "eps", "--ratio"),
                                               ("--ratio", "r", "--eps")])
def test_threshold_fraction_past_the_float_range_exit(capsys, flag, key,
                                                      other):
    # a fraction past the largest float once raised OverflowError from the
    # budget's range check; one that rounds to 0.0 is a budget
    huge = "1" + "0" * 400
    assert run_cli(capsys, "threshold", flag, huge + "/1", other, "0") == (
        2, "", "error: fraction past the largest float (about 1.8e308)\n")
    code, out, err = run_cli(capsys, "threshold", flag, "1/" + huge, other,
                             "0", "--json")
    assert (code, err) == (0, "") and json.loads(out)[key] == 0.0


def test_threshold_point_exits_where_mc_cluster_does(capsys):
    # a budget that puts a flip probability past 1 gives no product: the
    # point exits 2 with mc-cluster's line, where it once printed 729 (or
    # 1.17e51) for a +-1 observable; p = 1 exactly, and every scan, print
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # the large-ratio warning
        for ratio in ("0.5", "10"):
            budget = ("--eps", "0", "--ratio", ratio)
            mc = run_cli(capsys, "mc-cluster", *budget)
            assert mc == (2, "", "error: flip probabilities outside [0, 1]; "
                                 "budget too large\n")
            for json_flag in ((), ("--json",)):
                assert run_cli(capsys, "threshold", *budget,
                               *json_flag) == mc
        budget = ("--eps", "0", "--ratio", "0.25")
        code, out, _ = run_cli(capsys, "threshold", *budget, "--json")
        assert code == 0 and "expectation_product" in json.loads(out)
        assert run_cli(capsys, "mc-cluster", *budget)[0] == 0
        code, out, _ = run_cli(capsys, "threshold", "--scan", "--eps-grid",
                               "0,0.06", "--ratio-grid", "0.25,0.5,10")
        assert code == 0 and len(out.splitlines()) == 1 + 2 * 3


def _hex(row: dict) -> dict:
    return {key: value.hex() if type(value) is float else value
            for key, value in row.items()}


@pytest.mark.parametrize("eps", ["0", "5e-324", repr(1 / 15)])
@pytest.mark.parametrize("ratio", ["0", "0.06"])
def test_threshold_scan_row_is_point_row_without_product(capsys, eps, ratio):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, out, _ = run_cli(capsys, "threshold", "--eps", eps, "--ratio",
                            ratio, "--json")
        point = json.loads(out)
        _, out, _ = run_cli(capsys, "threshold", "--scan", "--eps-grid", eps,
                            "--ratio-grid", ratio, "--json")
    (row,) = json.loads(out)["rows"]
    del point["expectation_product"]
    assert sorted(row) == ["below_threshold", "eps",
                           "expectation_first_order", "margin", "r"]
    assert _hex(row) == _hex(point)


def test_threshold_scan_rows_are_point_rows_on_a_grid(capsys):
    eps_grid, ratio_grid = ["0", "5e-324", repr(1 / 15)], ["0", "1e-4", "0.06"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, out, _ = run_cli(capsys, "threshold", "--scan", "--eps-grid",
                            ",".join(eps_grid), "--ratio-grid",
                            ",".join(ratio_grid), "--json")
        rows = json.loads(out)["rows"]
        points = []
        for eps in eps_grid:
            for ratio in ratio_grid:
                _, out, _ = run_cli(capsys, "threshold", "--eps", eps,
                                    "--ratio", ratio, "--json")
                point = json.loads(out)
                del point["expectation_product"]
                points.append(point)
    assert [_hex(row) for row in rows] == [_hex(point) for point in points]


def test_threshold_scan_warns_once_per_budget(capsys):
    argv = ("threshold", "--scan", "--ratio-grid", "0.06,0.07")
    for action, ratios in (("default", ["0.06", "0.07"]),
                           ("always", ["0.06", "0.07"] * 4)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert [str(w.message) for w in caught] == [
            f"memory error ratio {r} is large; first-order bookkeeping is "
            "unreliable here" for r in ratios]
        for w in caught:
            assert w.category is UserWarning
            assert w.filename == cli.__file__
            assert "cluster.ErrorBudget(" in linecache.getline(w.filename,
                                                               w.lineno)


@pytest.mark.parametrize("grids, message", [
    (("0.5", "-1"),
     "gate error 0.5 outside the depolarizing-model range [0, 1/15]"),
    (("0,0.5", "0.06,-1"),
     "memory error ratio -1.0 must be finite and non-negative"),
    (("1e-4,nan", "0,inf"),
     "memory error ratio inf must be finite and non-negative"),
])
def test_threshold_scan_reports_first_bad_point(capsys, grids, message):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out, err = run_cli(capsys, "threshold", "--scan", "--eps-grid",
                                 grids[0], "--ratio-grid", grids[1])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def _oracle_scan(eps_text, ratio_text):
    """The threshold scan as a loop over points, the scan's reference: an
    ``ErrorBudget``, ``threshold_margin`` and ``first_order_expectation``
    at every point.  Returns the CSV and the ``--json`` text."""
    rows = []
    for eps in map(float, eps_text.split(",")):
        for ratio in map(float, ratio_text.split(",")):
            budget = cluster.ErrorBudget(eps=eps, r=ratio)
            margin = float(cluster.threshold_margin(budget))
            rows.append({"eps": eps, "r": ratio, "margin": margin,
                         "below_threshold": margin > 0,
                         "expectation_first_order": float(
                             cluster.first_order_expectation(budget))})
    return (estimator.rows_to_csv(rows),
            json.dumps({"rows": rows}, sort_keys=True, allow_nan=False) + "\n")


#: The benchmark's threshold-scan grids (perfbench/workloads.py): 40 x 40.
_BENCH_EPS_GRID = ",".join(f"{k}e-4" for k in range(40))
_BENCH_RATIO_GRID = ",".join(f"{5 * k}e-5" for k in range(40))


@pytest.mark.parametrize("argv, digest", [
    ((), "ceba7e8eb220820e6b328b924db3764c1290deb890e1aac9eb876e53eb8f0432"),
    (("--eps-grid", _BENCH_EPS_GRID, "--ratio-grid", _BENCH_RATIO_GRID),
     "85d58549fec7ba958fbc7b8840fdb00df0a0e2e1bc33a1d23be0f72784fa1702"),
])
def test_threshold_scan_json_pinned(capsys, argv, digest):
    # the benchmark pins the scan's CSV; this pins its JSON form
    code, out, _ = run_cli(capsys, "threshold", "--scan", *argv, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def _caught(action, call):
    """The warnings ``call()`` raises under the filter ``action``, as
    (category, message) pairs, and what it returned or the error it
    raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        try:
            result = call()
        except ValidationError as exc:
            result = f"error: {exc}\n"
    return [(w.category, str(w.message)) for w in caught], result


def _bad_value_grids():
    """3 x 3 grids with a bad value in each position, with and without
    large ratios, each with its id bad_ratio-bad_eps-ratios{0,1}."""
    for k, ratios in enumerate((["0.06", "1e-4", "0.07"],
                                ["0", "1e-4", "1e-3"])):
        for bad_eps in (None, 0, 1, 2):
            for bad_ratio in (None, 0, 1, 2):
                eps, ratio = ["1e-4", "0", "2e-3"], list(ratios)
                if bad_eps is not None:
                    eps[bad_eps] = "nan" if bad_eps == 1 else "0.5"
                if bad_ratio is not None:
                    ratio[bad_ratio] = "inf" if bad_ratio == 1 else "-1"
                yield pytest.param(",".join(eps), ",".join(ratio),
                                   id=f"{bad_ratio}-{bad_eps}-ratios{k}")


@pytest.mark.parametrize("eps_text, ratio_text", [
    pytest.param(_BENCH_EPS_GRID, _BENCH_RATIO_GRID, id="benchmark"),
    # eps 0, the least subnormal and 1/15 against ratios 0, 1e-4 and 0.06
    pytest.param(f"0,5e-324,{1 / 15!r}", "0,1e-4,0.06", id="edges"),
    # large and small ratios mixed, one of them twice
    pytest.param("0,1e-4,2e-3", "0.06,0,0.07,1e-3,0.06", id="mixed"),
    *_bad_value_grids(),
])
def test_threshold_scan_fails_as_the_point_loop(capsys, eps_text,
                                                ratio_text):
    # the scan is the point loop: under the always and the default filters
    # it warns, exits and prints, in CSV and in JSON, as the loop does
    for action in ("always", "default"):
        oracle_warned, oracle = _caught(
            action, lambda: _oracle_scan(eps_text, ratio_text))
        for form, json_flag in enumerate(((), ("--json",))):
            # the = form keeps a grid such as -1,0 from reading as a flag
            cli_warned, printed = _caught(action, lambda: run_cli(
                capsys, "threshold", "--scan", f"--eps-grid={eps_text}",
                f"--ratio-grid={ratio_text}", *json_flag))
            assert cli_warned == oracle_warned, (action, json_flag)
            if isinstance(oracle, str):
                assert printed == (2, "", oracle), json_flag
            else:
                assert printed == (0, oracle[form], ""), json_flag


def test_mc_cluster_deterministic_bytes(capsys):
    args = ("mc-cluster", "--samples", "20000", "--seed", "7")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    header = out1.splitlines()[0]
    assert header == ("eps,r,analytic_first_order,analytic_product,"
                      "mc_estimate,mc_stderr,samples,seed")


def test_cli_outputs_pinned(capsys):
    # byte-for-byte pins of outputs that no golden digest covers
    _, out, _ = run_cli(capsys, "mc-cluster", "--samples", "1000", "--seed",
                        "3", "--eps", "1e-4", "--ratio", "0")
    assert out == ("eps,r,analytic_first_order,analytic_product,mc_estimate,"
                   "mc_stderr,samples,seed\n"
                   "0.0001,0,0.98976,0.989810299,0.982,0.00597592769,1000,3\n")
    _, out, _ = run_cli(capsys, "threshold", "--eps", "29/10000", "--ratio",
                        "0", "--json")
    assert out == ('{"below_threshold": false, "eps": 0.0029, '
                   '"expectation_first_order": 0.70304, '
                   '"expectation_product": 0.7418325145711535, '
                   '"margin": 0.0, "r": 0.0}\n')
    # exact, float and mixed inputs take different arithmetic routes through
    # the census's Fraction constants
    for eps, ratio, product in (("29/10000", "1/1000", "0.6204643746173604"),
                                ("29/10000", "0.001", "0.6204643746173606"),
                                ("0.0029", "1/1000", "0.6204643746173606")):
        _, out, _ = run_cli(capsys, "threshold", "--eps", eps, "--ratio",
                            ratio, "--json")
        assert out == ('{"below_threshold": false, "eps": 0.0029, '
                       '"expectation_first_order": 0.52704, '
                       f'"expectation_product": {product}, '
                       '"margin": -0.00171875, "r": 0.001}\n'), (eps, ratio)


def test_mc_cluster_without_errors_reads_exactly_one(capsys):
    code, out, _ = run_cli(capsys, "mc-cluster", "--eps", "0", "--ratio", "0",
                           "--json")
    assert code == 0
    row = json.loads(out)
    assert row["mc_estimate"] == 1.0 and row["mc_stderr"] == 0.0


def test_mc_cluster_takes_samples_up_to_its_bound(capsys):
    # the dense budget fires about 21 faults a sample; its flipped count is
    # drawn once, so 2**62 samples take no longer than a thousand
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # the large-ratio warning
        code, out, _ = run_cli(capsys, "mc-cluster", "--samples",
                               str(2**62), "--eps", "0.0666", "--ratio",
                               "0.2", "--json")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and json.loads(out)["samples"] == 2**62


@pytest.mark.parametrize("samples", [str(2**62 + 1), str(2**63), "0"])
def test_mc_cluster_samples_out_of_range_exit(tmp_path, capsys, samples):
    # from the flag and from the config key alike
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"run.samples = {samples}\n", encoding="utf-8")
    for argv in (("--samples", samples), ("--config", str(cfg))):
        code, out, err = run_cli(capsys, "mc-cluster", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: samples") and err.count("\n") == 1


def test_parser_reuse_keeps_calls_apart(tmp_path, capsys):
    # main builds its parser once per process; each call still parses from
    # the defaults, whatever the calls before it set or failed on
    plain = ("estimate-adder", "--n", "128", "--arch", "qla")
    first = run_cli(capsys, *plain)
    assert first[0] == 0 and first[1].startswith("n,layout,")
    assert run_cli(capsys, *plain) == first
    path = tmp_path / "row.json"
    assert run_cli(capsys, *plain, "--json", "--out", str(path)) == (0, "", "")
    assert json.loads(path.read_text(encoding="utf-8"))["n"] == 128
    assert run_cli(capsys, *plain) == first
    assert run_cli(capsys, "estimate-adder", "--n", "x", "--arch", "qla",
                   "--json") == (
        2, "", "error: argument --n: invalid int value: 'x'\n")
    assert run_cli(capsys, *plain) == first
    point = ("threshold", "--eps", "29/10000", "--ratio", "1/1000", "--json")
    assert run_cli(capsys, *point) == run_cli(capsys, *point)


def test_main_builds_its_parser_once(monkeypatch, capsys):
    # a known subcommand builds its own parser alone; anything else builds
    # the full one; each at most once per process
    built = []

    def counting_build():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    cli._command_parser.cache_clear()
    for _ in range(3):
        run_cli(capsys, "estimate-adder", "--n", "128", "--arch", "nn")
        run_cli(capsys, "bogus")
    assert built == [1]
    assert cli._command_parser.cache_info().misses == 1
    first, second = build_parser(), build_parser()
    assert first is not second and first is not cli._parser()
    assert first.parse_args(["threshold"]).eps_grid == "0,1e-4,3e-4,1e-3"


def _fresh_python(*args):
    """Run ``python *args`` in a fresh interpreter that imports this
    ionarch."""
    src = str(Path(ionarch.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + os.pathsep + path if path else src)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


# the analytic commands, and the cluster Monte Carlo on both of its
# samplers (inversion at a mean of about 5, BTRD at 2**62 samples)
_NUMPY_FREE_ARGVS = [
    ["estimate-adder", "--n", "128", "--arch", "musiqc"],
    ["estimate-shor", "--n", "64"],
    ["threshold", "--eps", "29/10000", "--ratio", "1/1000"],
    ["threshold", "--scan"],
    ["mc-cluster", "--samples", "1000", "--seed", "3"],
    ["mc-cluster", "--samples", "4611686018427387904", "--seed", "7",
     "--eps", "1e-4", "--ratio", "1e-4"],
    ["hypercell", "--scan"],
    ["hypercell", "--json"],
]


def test_analytic_commands_start_without_numpy():
    # modules are never unloaded, so a module absent after a call means no
    # call before it loaded it either; the hypercell commands come last, as
    # ``hypercell`` is the one ionarch module that imports dataclasses
    script = (
        "import io, json, sys, contextlib\n"
        "import ionarch\n"
        "def loaded():\n"
        "    return [m for m in ('dataclasses', 'numpy') if m in sys.modules]\n"
        "seen = [loaded()]\n"
        "from ionarch.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "    seen.append(loaded())\n"
        "print(json.dumps(seen))\n")
    proc = _fresh_python("-c", script, json.dumps(_NUMPY_FREE_ARGVS))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[]] * 7 + [["dataclasses"]] * 2


def test_rng_loads_no_numpy():
    proc = _fresh_python(
        "-c", "import sys, ionarch.rng; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_benchmark_setup_loads_no_dataclasses():
    # the benchmark's set-up sequence: import the CLI, build the cluster
    # census and a level-1 cost table
    script = (
        "import sys\n"
        "import ionarch.cli\n"
        "from ionarch import cluster, steane\n"
        "from ionarch.arch import MusiqcLayout\n"
        "from ionarch.device import DeviceParams\n"
        "cluster.cell_lattice()\n"
        "steane.table_at_level(DeviceParams(), MusiqcLayout(), 1)\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    proc = _fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("argv", [
    ["netsim", "--pairs", "5", "--seed", "1"],
    ["mc-cluster", "--samples", "1000", "--seed", "3"],
    ["hypercell", "--trials", "200"],
])
def test_simulator_commands_import_what_they_use(capsys, argv):
    # a fresh interpreter reaches each simulator only through its command's
    # own imports
    proc = _fresh_python("-m", "ionarch.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run_cli(capsys, *argv)[1]


def test_netsim_summary_schema(capsys):
    code, out, _ = run_cli(capsys, "netsim", "--pairs", "40", "--seed", "1",
                           "--repetition-rate-hz", "500000")
    assert code == 0
    payload = json.loads(out)
    assert "mean_pair_latency_s" in payload
    assert payload["successes"] == 40
    # netsim prints run_link_sim's result as it is returned
    link = LinkModel(LinkType.TYPE_I, DeviceParams(repetition_rate=500000))
    result = run_link_sim(link, 40, 1)
    assert set(result) == set(payload)
    assert result == payload


def test_netsim_zero_probability_exit(capsys):
    code, out, err = run_cli(capsys, "netsim", "--pairs", "5", "--seed", "1",
                             "--p-excite", "0")
    assert (code, out, err) == (
        2, "", "error: link success probability is zero\n")


def test_netsim_type2_link(capsys):
    # the default type II link succeeds with p = 5e-9: about 2e8 attempts a
    # pair, drawn as one geometric gap each
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "netsim", "--link", "type2", "--pairs", "4",
                           "--seed", "3")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    payload = json.loads(out)
    assert payload["successes"] == 4
    assert payload["attempts"] > 10**8


@pytest.mark.parametrize("argv", [
    # p = 2e-20: 100 pairs expect 5e21 attempts, past the int64 gap sum
    ("--pairs", "100", "--seed", "1", "--link", "type2", "--p-excite", "1e-7"),
    ("--pairs", "0", "--seed", "1"),
    ("--pairs", str(MAX_PAIRS + 1), "--seed", "1"),
])
def test_netsim_out_of_range_exit(capsys, argv):
    code, out, err = run_cli(capsys, "netsim", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_netsim_log_bound_exit(tmp_path, capsys):
    # the default type II link takes about 8.7e8 attempts for 4 pairs, so
    # their log would pass MAX_LOG_ATTEMPTS; the run stops before a line
    path = tmp_path / "big.log"
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "netsim", "--link", "type2", "--pairs",
                             "4", "--seed", "3", "--log", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not path.exists()


@pytest.mark.parametrize("argv", [
    ("--m-t", "1000"),
    ("--link", "type2", "--pairs", "4", "--seed", "3"),
    ("--p-excite", "0"),
    ("--pairs", "3", "--seed", "1", "--repetition-rate-hz", "1e9",
     "--config", "herald.cfg"),
    ("--pairs", "5", "--seed", "1", "--repetition-rate-hz", "1e9",
     "--config", "rounding.cfg"),
])
def test_netsim_rejected_run_keeps_log(tmp_path, monkeypatch, capsys, argv):
    # every rejection comes before the first log line, so the file stays;
    # herald.cfg is the configuration of the herald-spacing exit above, and
    # rounding.cfg puts the attempt spacing one ulp past the 10 ns latency
    monkeypatch.chdir(tmp_path)
    (tmp_path / "herald.cfg").write_text("device.reinit_time_us = 1e-24\n",
                                         encoding="utf-8")
    (tmp_path / "rounding.cfg").write_text(
        "device.reinit_time_us = 1.7e-18\n", encoding="utf-8")
    (tmp_path / "keep.log").write_bytes(b"keep\n")
    code, out, _ = run_cli(capsys, "netsim", *argv, "--log", "keep.log")
    assert code == 2
    assert out == ""
    assert (tmp_path / "keep.log").read_bytes() == b"keep\n"


def test_netsim_event_log_deterministic(tmp_path, capsys):
    # each logged run writes the log that run_link_sim streams to its sink,
    # byte for byte, and prints what the unlogged run prints
    from ionarch.config import device_from_config
    link = LinkModel(LinkType.TYPE_I,
                     device_from_config({}, repetition_rate=500000.0))
    chunks = []
    run_link_sim(link, 3, 9, log_sink=chunks.append)
    sink_log = "".join(chunks).encode()
    argv = ("netsim", "--pairs", "3", "--seed", "9",
            "--repetition-rate-hz", "500000")
    _, plain, _ = run_cli(capsys, *argv)
    for name in ("a.log", "b.log"):
        path = tmp_path / name
        assert run_cli(capsys, *argv, "--log", str(path)) == (0, plain, "")
        assert path.read_bytes() == sink_log


@pytest.mark.parametrize("argv, digest", [
    (("--pairs", "5", "--seed", "1"),
     "ab29b90835990a4f30c4235ef0353833646c189a235635aa709d3293d7b48adb"),
    (("--m-p", "1", "--m-t", "1", "--pairs", "3", "--seed", "2"),
     "436d113fdb849ed0b67e8b3ddb4ee2ebf58bd0d6add94815858ce37a9545a2e0"),
    (("--pairs", "1", "--seed", "1", "--repetition-rate-hz", "1e-98"),
     "c529295738ae014b773948059074201e2cd1ec7c2533c39a9269ed4b5f35ee7f"),
])
def test_netsim_log_pinned(tmp_path, capsys, argv, digest):
    # two lines per attempt, and the file's bytes pinned
    path = tmp_path / "e.log"
    code, out, _ = run_cli(capsys, "netsim", *argv, "--log", str(path))
    assert code == 0
    text = path.read_bytes()
    assert text.count(b"\n") == 2 * json.loads(out)["attempts"]
    assert hashlib.sha256(text).hexdigest() == digest


def test_netsim_herald_latency_reaching_spacing_exit(tmp_path, capsys):
    # 10 ns of herald latency plus 1e-30 s of re-initialization rounds to the
    # 10 ns herald latency itself, the attempt spacing at 1 GHz
    cfg = tmp_path / "c.cfg"
    cfg.write_text("device.reinit_time_us = 1e-24\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "netsim", "--pairs", "3", "--seed", "1",
                             "--repetition-rate-hz", "1e9",
                             "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("error: herald latency") and err.count("\n") == 1


#: 257 valid grid values, 1e-6 to 2.57e-4
_GRID_257 = ",".join(f"{k}e-6" for k in range(1, 258))


@pytest.mark.parametrize("argv", [
    ("netsim", "--pairs", "5", "--repetition-rate-hz", "nan"),
    ("netsim", "--pairs", "5", "--repetition-rate-hz", "inf"),
    ("threshold", "--eps", "1e-4", "--ratio", "nan", "--json"),
    ("threshold", "--eps", "1e-4", "--ratio", "inf", "--json"),
    ("threshold", "--eps", "abc"),
    ("threshold", "--eps", "1/0"),
    ("threshold", "--scan", "--eps-grid", "abc"),
    ("threshold", "--scan", "--eps-grid", ","),
    ("hypercell", "--scan", "--eps-grid", "x"),
    ("hypercell", "--ratio", "nan"),
    ("hypercell", "--ratio", "inf"),
    ("hypercell", "--t", "nan"),
    ("hypercell", "--scan", "--ratio-grid", "nan"),
    ("hypercell", "--scan", "--ratio-grid", "0"),
    ("hypercell", "--eps", "nan"),
    ("hypercell", "--eps", "inf"),
    ("hypercell", "--scan", "--eps-grid", "inf"),
    ("estimate-shor", "--n", "64", "--eps-phys", "nan"),
    ("estimate-shor", "--n", "64", "--eps-threshold", "nan"),
    # t_hi / 2**40 underflows to 0
    ("hypercell", "--scan", "--ratio-grid", "5e-324"),
    ("hypercell", "--scan", "--ratio-grid", "1e-322", "--eps-grid", "1e-4"),
    # 257 x 257 points pass the scan bound of 2**16
    ("threshold", "--scan", "--eps-grid", _GRID_257, "--ratio-grid",
     _GRID_257),
    ("hypercell", "--scan", "--eps-grid", _GRID_257, "--ratio-grid",
     _GRID_257),
])
def test_non_finite_input_exit(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (("hypercell", "--t", "5e-324"),
     "c/p is not finite at p = t/tau_E = 4.94066e-324; the attempt window t "
     "is too short for a port count"),
    (("hypercell", "--layers", "2147483648"),
     "2147483648 layers give more than 2**62 ports"),
    (("estimate-shor", "--n", str(10**80)),
     "modular-exponentiation roll-up requires n <= 2**254, got a 266-bit n"),
    (("estimate-adder", "--arch", "nn", "--n", str(10**400)),
     "n must be at most 2**1022, got a 1329-bit n"),
])
def test_input_bound_exit(capsys, argv, message):
    # each once failed with a traceback, or after 20 s and 850 MB
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("arch", ["musiqc", "qla", "nn"])
def test_estimate_adder_takes_n_up_to_its_bound(capsys, arch):
    code, out, _ = run_cli(capsys, "estimate-adder", "--arch", arch, "--n",
                           str(2**1022), "--json")
    assert code == 0
    row = json.loads(out)
    assert row["n"] == 2**1022 and math.isfinite(row["time_s"])
    code, _, err = run_cli(capsys, "estimate-adder", "--arch", arch, "--n",
                           str(2**1022 + 1))
    assert (code, err) == (2, "error: n must be at most 2**1022, got a "
                              "1023-bit n\n")


def test_estimate_shor_takes_n_up_to_its_bound(capsys):
    # K Q = 240 n**4 is a float up to n = 2**254, where no level reaches
    # the target, so the bound's own n is infeasible rather than invalid
    code, out, err = run_cli(capsys, "estimate-shor", "--n", str(2**254))
    assert (code, out) == (3, "") and err.startswith("infeasible: ")
    code, _, err = run_cli(capsys, "estimate-shor", "--n", str(2**254 + 1))
    assert code == 2 and err.count("\n") == 1


@pytest.mark.parametrize("seed", ["-1", str(2**128)])
@pytest.mark.parametrize("argv", [
    ("mc-cluster", "--samples", "100"),
    ("netsim", "--pairs", "2"),
    ("hypercell", "--trials", "1"),
])
def test_seed_out_of_range_exit(capsys, argv, seed):
    code, out, err = run_cli(capsys, *argv, "--seed", seed)
    assert code == 2
    assert out == ""
    assert err.startswith("error: seed") and err.count("\n") == 1


@pytest.mark.parametrize("k", [29, 62])
def test_hypercell_ports_at_exact_powers_of_two(capsys, k):
    # t = 3 / 2**k puts c/p at exactly 2**k: k - 1 layers give 2**k ports,
    # where a rounded log once built 2**(k + 1), or none past 2**62
    code, out, _ = run_cli(capsys, "hypercell", "--ratio", "1",
                           "--t", repr(3 / 2**k), "--json")
    assert code == 0
    assert json.loads(out)["ports"] == 2**k


def test_hypercell_scan_csv(capsys):
    code, out, _ = run_cli(capsys, "hypercell", "--scan",
                           "--eps-grid", "1e-6,1e-4", "--ratio-grid", "1,10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "eps,ratio,t_opt,layers_opt,eps_total,p_fail,feasible"
    assert len(lines) == 5


def test_hypercell_scan_subnormal_grid_ratio(capsys):
    # t_lo is subnormal at this ratio, and the grid still ends at t_hi = tau_E
    code, out, _ = run_cli(capsys, "hypercell", "--scan", "--json",
                           "--ratio-grid", "6.467818801247025e-307")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 4
    assert all(row["t_opt"] <= row["ratio"] for row in rows)


def test_scan_bound_admits_2_to_the_16_points():
    # 256 x 256 and 1 x 65536 points reach the bound without passing it;
    # the grids are checked without building a row
    grid = ",".join(["1e-4"] * 256)
    for eps_grid, ratio_grid in ((grid, grid),
                                 ("1e-4", ",".join(["1"] * 2**16))):
        args = build_parser().parse_args(["hypercell", "--scan", "--eps-grid",
                                          eps_grid, "--ratio-grid",
                                          ratio_grid])
        eps, ratios = cli._scan_grids(args)
        assert len(eps) * len(ratios) == cli.MAX_SCAN_POINTS


def test_hypercell_scan_rejects_trials(capsys):
    # the scan runs no Monte Carlo; --trials belongs to point mode
    code, out, err = run_cli(capsys, "hypercell", "--scan", "--trials", "200")
    assert code == 2
    assert out == ""
    assert err == "error: --trials is for point mode only\n"
    code, out, _ = run_cli(capsys, "hypercell", "--scan", "--trials", "0")
    assert code == 0
    assert out == run_cli(capsys, "hypercell", "--scan")[1]


@pytest.mark.parametrize("argv", [("hypercell", "--scan"), ("hypercell",),
                                  ("hypercell", "--trials", "0")])
def test_hypercell_seed_needs_trials(capsys, argv):
    # a seed that selects no Monte Carlo is an error, not silently ignored
    code, out, err = run_cli(capsys, *argv, "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: --seed seeds the Monte Carlo; give --trials\n"


def test_hypercell_point_depth_follows_p(capsys):
    # without --layers the tree is deep enough for the m = c/p design rule
    code, out, _ = run_cli(capsys, "hypercell", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ports"] >= 3.0 / payload["p"]
    assert payload["ports"] == 512 and payload["path_length"] == 19
    _, out, _ = run_cli(capsys, "hypercell", "--layers", "4", "--json")
    assert json.loads(out)["ports"] == 32


def test_hypercell_point_output_pinned(capsys):
    # the default attempt window, t = tau_E / 100, and
    # every analytic the point mode prints, byte for byte
    _, out, _ = run_cli(capsys, "hypercell", "--json")
    assert out == (
        '{"cost": 6216.979751083924, "ft_bounds": {"feasible": false, '
        '"ratio_bound": 0.008248888888888892, "t_max": 0.0007733333333333333, '
        '"t_min": 0.09375}, "memory_error": 0.25186456071487645, "p": 0.01, '
        '"path_length": 19.0, "ports": 512, "total_error": 0.2566372755553641}'
        '\n')
    _, out, _ = run_cli(capsys, "hypercell", "--ratio", "0.1", "--json")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "94f53ac0256ef0b7399ddcfe715ebef5d327f0f4e3e520805d7f547aa4599bf8")


def test_hypercell_mc_output_pinned(capsys):
    # 300 trials run as chunk 0 (256 trials, stream 0) and chunk 1 (44
    # trials, stream 1) of the seed; the stream layout and the chunk size
    # fix these bytes
    _, out, _ = run_cli(capsys, "hypercell", "--trials", "300", "--seed", "5")
    assert json.loads(out)["mc"] == {
        "mean_accumulated_error": 0.2811152191068811,
        "mean_cost_attempts": 102731.29, "path_pairs": 19, "ports": 512,
        "success_rate": 0.9933333333333333, "trials": 300}


@pytest.mark.parametrize("argv", [
    ("estimate-adder", "--n", "128", "--arch", "qla"),
    ("threshold", "--scan"),
    ("mc-cluster", "--samples", "1000"),
    ("hypercell", "--scan"),
])
def test_csv_built_only_when_written(monkeypatch, capsys, argv):
    # --json prints the payload, so the CSV of the same rows is not built
    calls = []
    rows_to_csv = estimator.rows_to_csv

    def counted(rows):
        calls.append(rows)
        return rows_to_csv(rows)

    monkeypatch.setattr(estimator, "rows_to_csv", counted)
    code, csv_out, _ = run_cli(capsys, *argv)
    assert (code, len(calls)) == (0, 1)
    assert csv_out == rows_to_csv(calls[0])
    code, _, _ = run_cli(capsys, *argv, "--json")
    assert (code, len(calls)) == (0, 1)


def test_hypercell_mc_without_connection_reads_null(capsys):
    # at p = 1e-4 the 4 ports of a one-layer tree connect a trial with
    # probability 4e-4, and none of the 200 trials of seed 1 does: the mean
    # error over connected trials has no value and reads null
    code, out, err = run_cli(capsys, "hypercell", "--trials", "200", "--t",
                             "1e-4", "--layers", "1", "--ratio", "1")
    assert (code, err) == (0, "")
    mc = json.loads(out)["mc"]
    assert mc["success_rate"] == 0.0 and mc["mean_accumulated_error"] is None
    assert (mc["trials"], mc["ports"], mc["path_pairs"]) == (200, 4, 5)
    assert mc["mean_cost_attempts"] > 0


_NON_FINITE_RESULT = ("error: the result holds an infinite or NaN number, "
                      "which JSON cannot carry\n")


# the inputs that the budget now rejects before any computation, and the
# field its one-line message names
_NAMED_INPUTS = {("hypercell", "--ratio", "1e308"): "tau_E",
                 ("hypercell", "--eps", "1e308"): "eps"}


@pytest.mark.parametrize("argv", [
    ("hypercell", "--t", "5e-324", "--layers", "3"),     # cost, memory_error
    ("hypercell", "--ratio", "1e308"),                   # t_min
    ("hypercell", "--eps", "1e308"),                     # t_max
    ("mc-cluster", "--samples", "1", "--json"),          # mc_stderr
])
def test_non_finite_result_exit(tmp_path, capsys, argv):
    # each once printed Infinity or NaN, which is not JSON, and exited 0
    def check(code, out, err):
        assert (code, out) == (2, "")
        if argv in _NAMED_INPUTS:
            assert err.startswith("error: ") and err.count("\n") == 1
            assert _NAMED_INPUTS[argv] in err
        else:
            assert err == _NON_FINITE_RESULT

    check(*run_cli(capsys, *argv))
    path = tmp_path / "out"
    path.write_text("keep\n", encoding="utf-8")
    check(*run_cli(capsys, *argv, "--out", str(path)))
    assert path.read_text(encoding="utf-8") == "keep\n"


@pytest.mark.parametrize("argv, config", [
    # time_s: a finite gate time whose level-3 adder time overflows
    (("estimate-adder", "--n", "100000", "--arch", "nn", "--level", "3"),
     "device.t_two_gate_us = 1e308\n"),
    (("mc-cluster", "--samples", "1"), ""),             # mc_stderr
], ids=["estimate-adder", "mc-cluster"])
def test_non_finite_csv_result_exit(tmp_path, capsys, argv, config):
    # each once wrote inf or nan as CSV and exited 0, where --json exits 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config, encoding="utf-8")
    argv = (*argv, "--config", str(cfg))
    csv_error = "error: the result holds an infinite or NaN number\n"
    assert run_cli(capsys, *argv) == (2, "", csv_error)
    assert run_cli(capsys, *argv, "--json") == (2, "", _NON_FINITE_RESULT)
    path = tmp_path / "out"
    path.write_text("keep\n", encoding="utf-8")
    assert run_cli(capsys, *argv, "--out", str(path)) == (2, "", csv_error)
    assert path.read_text(encoding="utf-8") == "keep\n"


@pytest.mark.parametrize("eps", ["0", "1e-6"])
def test_hypercell_unbounded_ratio_reads_null(capsys, eps):
    # no finite ratio bound: once a bare Infinity, now JSON null
    code, out, _ = run_cli(capsys, "hypercell", "--eps", eps)
    assert code == 0 and "Infinity" not in out
    bounds = json.loads(out)["ft_bounds"]
    assert bounds["ratio_bound"] is None and bounds["feasible"] is True


@pytest.mark.parametrize("argv, message", [
    (("estimate-adder", "--n", "x", "--arch", "qla"),
     "argument --n: invalid int value: 'x'"),
    (("estimate-adder", "--n", "128"),
     "the following arguments are required: --arch"),
    (("estimate-adder", "--n", "1.5", "--arch", "nn"),
     "argument --n: invalid int value: '1.5'"),
    (("threshold", "--scan", "--eps-grid"),
     "argument --eps-grid: expected one argument"),
    ((), "the following arguments are required: command"),
])
def test_command_line_rejection_exit(capsys, argv, message):
    # argparse's rejections once escaped main as SystemExit(2), after a
    # usage line and an error line
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_estimate_shor_refuses_the_ripple_layout(capsys):
    # the roll-up's layouts are estimate-shor's --arch choices, so argparse
    # refuses nn in its own one line, the one it gives for those choices
    reference = argparse.ArgumentParser(exit_on_error=False)
    reference.add_argument("--arch", choices=["musiqc", "qla"])
    with pytest.raises(argparse.ArgumentError) as exc:
        reference.parse_args(["--arch", "nn"])
    assert run_cli(capsys, "estimate-shor", "--n", "64", "--arch", "nn") == (
        2, "", f"error: {exc.value}\n")


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate-adder", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ionarch estimate-adder")


@pytest.mark.parametrize("argv", [
    ("hypercell", "--layers", "3000", "--trials", "1"),
    ("hypercell", "--layers", "100"),
])
def test_hypercell_port_ceiling_exit(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("estimate-shor", "--n", "64"),
    ("threshold", "--eps", "1e-4", "--ratio", "1e-4"),
    ("netsim", "--pairs", "5", "--seed", "1"),
    ("hypercell", "--layers", "4"),
    ("estimate-adder", "--n", "128", "--arch", "musiqc", "--json"),
])
def test_out_receives_what_stdout_shows(tmp_path, capsys, argv):
    code, shown, _ = run_cli(capsys, *argv)
    assert code == 0
    path = tmp_path / "out"
    assert run_cli(capsys, *argv, "--out", str(path)) == (0, "", "")
    assert path.read_text(encoding="utf-8") == shown


def test_config_precedence_triple_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("run.pairs = 25\nrun.seed = 4\n", encoding="utf-8")
    # default
    _, out, _ = run_cli(capsys, "netsim", "--seed", "1",
                        "--repetition-rate-hz", "500000")
    assert json.loads(out)["successes"] == 10
    # config beats default
    _, out, _ = run_cli(capsys, "netsim", "--config", str(cfg),
                        "--repetition-rate-hz", "500000")
    assert json.loads(out)["successes"] == 25
    # flag beats config
    _, out, _ = run_cli(capsys, "netsim", "--config", str(cfg), "--pairs", "7",
                        "--repetition-rate-hz", "500000")
    assert json.loads(out)["successes"] == 7


def test_config_rejects_unknown_keys(tmp_path, capsys):
    # the layout.* keys, device.tau_decoherence_s and device.dark_rate_hz
    # were once accepted and then ignored
    cfg = tmp_path / "bad.cfg"
    for line in ("device.bogus = 1", "layout.arch = qla", "layout.m_p = 1",
                 "layout.m_t = 1", "device.tau_decoherence_s = 1",
                 "device.dark_rate_hz = 10"):
        cfg.write_text(line + "\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "netsim", "--config", str(cfg))
        assert code == 2, line
        assert "unknown key" in err and err.count("\n") == 1


def test_config_rejects_infinite_durations(tmp_path, capsys):
    # an infinite two-qubit gate once priced the nn adder at nan and the
    # musiqc one at inf, both with exit 0
    cfg = tmp_path / "inf.cfg"
    cfg.write_text("device.t_two_gate_us = inf\n", encoding="utf-8")
    for arch in ("nn", "musiqc"):
        code, out, err = run_cli(capsys, "estimate-adder", "--n", "128",
                                 "--arch", arch, "--level", "2",
                                 "--config", str(cfg))
        assert (code, out) == (2, "")
        assert "must be positive and finite" in err and err.count("\n") == 1


def test_config_parser():
    parsed = parse_config_text(
        "# comment\ndevice.gamma_hz = 20e6\nrun.seed = 12  # trailing\n")
    assert parsed == {"device.gamma_hz": 20e6, "run.seed": 12}
    with pytest.raises(ValidationError):
        parse_config_text("device.gamma_hz 20e6")
    with pytest.raises(ValidationError, match="cannot parse 'x' as int"):
        parse_config_text("run.seed = x")


def test_run_defaults_are_stated_once():
    # resolve and each flag's help line read one table of run defaults
    from ionarch import config
    assert [config.resolve(None, {}, key)
            for key in ("run.seed", "run.samples", "run.pairs")] == [
        1, 100000, 10]
    commands = ("mc-cluster", "netsim", "hypercell")
    helps = {(command, action.dest): action.help for command in commands
             for action in cli._command_parser(command)._actions}
    assert helps["mc-cluster", "samples"] == (
        "default: run.samples of --config, else 100000")
    assert helps["netsim", "pairs"] == "default: run.pairs of --config, else 10"
    assert {helps[command, "seed"] for command in commands} == {
        "default: run.seed of --config, else 1"}


def test_config_device_units(tmp_path, capsys):
    # gamma in the config is the linewidth over 2 pi, in Hz
    from ionarch.config import device_from_config
    import math
    params = device_from_config({"device.gamma_hz": 20e6,
                                 "device.t_two_gate_us": 12.0})
    assert params.gamma == pytest.approx(2 * math.pi * 20e6)
    assert params.t_two_gate == pytest.approx(12e-6)
    assert params.rep_rate == pytest.approx(2e6)

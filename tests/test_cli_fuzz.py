"""Grammar fuzz of the command line: every subcommand, every flag.

Each example is an argv drawn from the edge values 0, -1, nan, +-inf,
5e-324, 1e308, fractions and 2**31, from values of the wrong type (``x``,
the empty string, ``1.5`` for an integer), with now and then a required
flag left out, run in-process through ``cli.main``.  A run must return 0, 2
or 3 and raise nothing.  A run that returns 0 and writes JSON must write
strict JSON, without ``Infinity`` or ``NaN``.  A rejected run (2 or 3) must
write one stderr line, nothing on stdout, and leave its ``--out`` and
``--log`` paths as they were.

``--trials`` and ``--pairs`` cost in proportion to what they ask for, which
is their purpose, so their upper ends stay out of the grammar: they draw
only from small and invalid counts.  ``mc-cluster --samples`` costs the
same at any count, so it draws its bound 2**62 and the counts past it too.
Warnings are recorded rather than printed; they are not the one error line.

The same argvs, and a few off the grammar's path, also check ``main``'s
route: a call that names a known subcommand first skips the top-level
parser, and must parse as ``build_parser().parse_args`` does.
"""

import contextlib
import io
import json
import tempfile
import warnings
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ionarch import cli
from ionarch.cli import build_parser, main
from ionarch.errors import ValidationError

EDGE_FLOATS = ["0", "-1", "nan", "inf", "-inf", "5e-324", "1e308",
               "2147483648"]
FRACTIONS = ["1/3", "29/10000", "-1/2", "1/15", "1/0",
             "1" + "0" * 400 + "/1"]
EDGE_INTS = ["0", "-1", "2147483648"]
#: Values of no flag's type; "1.5" is ill-typed for the integer flags only.
ILL_TYPED = ["x", ""]

floats = st.sampled_from(EDGE_FLOATS + ["1e-4", "0.06", "2.9e-3", "1"]
                         + ILL_TYPED)
numbers = st.sampled_from(EDGE_FLOATS + FRACTIONS + ["1e-4", "0.06"]
                          + ILL_TYPED)
ints = st.sampled_from(EDGE_INTS + ["1", "7", "128", "1.5"] + ILL_TYPED)
small_counts = st.sampled_from(["0", "-1", "1", "5", "1.5"] + ILL_TYPED)
sample_counts = st.sampled_from(["0", "-1", "1", "5", str(2**62),
                                str(2**62 + 1), str(2**63), "1.5"]
                               + ILL_TYPED)
grids = st.lists(floats, min_size=1, max_size=3).map(",".join)


def choices(*values):
    return st.sampled_from([*values, *ILL_TYPED])


#: Flag -> value strategy (None: a switch), per subcommand.
GRAMMAR = {
    "estimate-adder": {
        "--n": ints, "--arch": choices("musiqc", "qla", "nn"),
        "--level": ints, "--json": None,
    },
    "estimate-shor": {
        "--n": ints, "--arch": choices("musiqc", "qla"),
        "--eps-phys": floats, "--eps-threshold": floats, "--json": None,
    },
    "threshold": {
        "--eps": numbers, "--ratio": numbers, "--scan": None,
        "--eps-grid": grids, "--ratio-grid": grids, "--json": None,
    },
    "mc-cluster": {
        "--samples": sample_counts, "--seed": ints, "--eps": floats,
        "--ratio": floats, "--json": None,
    },
    "netsim": {
        "--pairs": small_counts, "--seed": ints, "--m-p": ints,
        "--m-t": ints, "--link": choices("type1", "type2"),
        "--p-excite": floats, "--repetition-rate-hz": floats,
    },
    "hypercell": {
        "--scan": None, "--eps-grid": grids, "--ratio-grid": grids,
        "--trials": small_counts, "--seed": ints, "--eps": floats,
        "--ratio": floats, "--t": floats, "--layers": ints, "--json": None,
    },
}

#: Flags argparse requires; an example leaves out one of them now and then.
REQUIRED = {"estimate-adder": ["--n", "--arch"], "estimate-shor": ["--n"]}
#: Flags drawn in every example of their subcommand: netsim's --pairs,
#: whose default of 10 pairs would make each logged run cost twice the
#: largest drawn count.
ALWAYS = {"netsim": ["--pairs"]}


def _no_constant(name):
    raise AssertionError(f"{name} is not JSON")


@st.composite
def invocations(draw, command):
    flags = GRAMMAR[command]
    required = REQUIRED.get(command, [])
    dropped = draw(st.sampled_from([None] * 3 + required))
    fixed = [flag for flag in required if flag != dropped]
    fixed += ALWAYS.get(command, [])
    optional = sorted(set(flags) - set(required) - set(fixed))
    argv = [command]
    # a few flags at a time, so that one bad value is seldom masked by
    # another flag's rejection
    for flag in fixed + draw(st.lists(st.sampled_from(optional),
                                      max_size=3, unique=True)):
        if flags[flag] is None:
            argv.append(flag)
        else:   # the = form keeps a value such as -1,0 from reading as a flag
            argv.append(f"{flag}={draw(flags[flag])}")
    out = draw(st.sampled_from([None, "absent", "kept"]))
    log = (draw(st.sampled_from([None, "absent", "kept"]))
           if command == "netsim" else None)
    return argv, out, log


@pytest.mark.parametrize("command", sorted(GRAMMAR))
@settings(max_examples=100, derandomize=True, deadline=timedelta(seconds=5),
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_grammar_fuzz(command, data):
    argv, out, log = data.draw(invocations(command))
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for flag, state in (("--out", out), ("--log", log)):
            if state is None:
                continue
            path = Path(tmp) / flag.strip("-")
            if state == "kept":
                path.write_text("keep\n", encoding="utf-8")
            files[path] = state
            argv = [*argv, f"{flag}={path}"]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            code = main(argv)
        assert code in (0, 2, 3), (argv, code)
        if code == 0:
            written = [path.read_text(encoding="utf-8") for path in files
                       if path.name == "out"]
            text = written[0] if written else stdout.getvalue()
            if text.startswith("{"):
                json.loads(text, parse_constant=_no_constant)
            return
        assert stdout.getvalue() == "", argv
        assert stderr.getvalue().count("\n") == 1, (argv, stderr.getvalue())
        assert stderr.getvalue().endswith("\n"), argv
        for path, state in files.items():
            if state == "kept":
                assert path.read_text(encoding="utf-8") == "keep\n", argv
            else:
                assert not path.exists(), argv


#: Command lines off the grammar's path: none, a leading help flag, an
#: unknown command, a trailing extra word, an abbreviated flag and a "--"
#: before a flag.
ROUTE_EDGES = [
    [], ["-h"], ["bogus"],
    ["estimate-adder", "--n", "128", "--arch", "qla", "extra"],
    ["estimate-shor", "--n", "1024", "--ar", "qla"],
    ["estimate-adder", "--", "--n"],
]


def _parsed(parse, argv):
    """What ``parse(argv)`` gives: the namespace (its values as reprs, so
    that a nan equals a nan), the rejection's message, or the help exit
    and its text."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return sorted((key, repr(value))
                          for key, value in vars(parse(argv)).items())
    except ValidationError as exc:
        return f"error: {exc}"
    except SystemExit as exc:
        return exc.code, out.getvalue()


def _assert_route_parses_as_the_full_parser(argv):
    assert (_parsed(cli._parse_args, argv)
            == _parsed(build_parser().parse_args, argv)), argv


@pytest.mark.parametrize("argv", ROUTE_EDGES)
def test_main_route_edges_parse_as_the_full_parser(argv):
    _assert_route_parses_as_the_full_parser(argv)


@pytest.mark.parametrize("command", sorted(GRAMMAR))
@settings(max_examples=100, derandomize=True, deadline=timedelta(seconds=5))
@given(data=st.data())
def test_main_route_parses_as_the_full_parser(command, data):
    argv, _, _ = data.draw(invocations(command))
    argv += data.draw(st.sampled_from([[]] * 3 + [["extra"], ["--help"]]))
    _assert_route_parses_as_the_full_parser(argv)

import inspect
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ionarch.arch import MusiqcLayout, NnLayout, QlaLayout
from ionarch.device import DeviceParams
from ionarch.errors import NTooSmall, ValidationError
from ionarch.estimator import (DepthProfile, adder_execution_time, adder_row,
                               crossover_scan, qcla_depth,
                               qla_comm_steps, rows_to_csv, shor_estimate)
from ionarch.steane import Primitive, table_at_level
from oracles import comm_oracle, depth_oracle


def depth_profile_oracle(n, layout):
    """The adder's steps: 2n+3 ripple-carry Toffoli steps on the
    nearest-neighbor layout; elsewhere two X steps, four CNOT steps and the
    rest of the brute-force lookahead depth as Toffoli steps."""
    if isinstance(layout, NnLayout):
        return DepthProfile(0, 0, 2 * n + 3)
    return DepthProfile(2, 4, depth_oracle(n) - 6)


def adder_time_oracle(n, layout, table):
    """The adder time as first written: a table lookup per use, the EC
    rounds added inside each step's bracket, the teleported CNOT off the
    switched layout summed from the transversal CNOT, the logical readout and
    one single-qubit fix-up, and the brute-force comm steps."""
    profile = depth_profile_oracle(n, layout)
    ec = layout.ec_rounds_per_step * table.time(Primitive.ERROR_CORRECT_ROUND)
    if isinstance(layout, MusiqcLayout):
        cnot = table.time(Primitive.REMOTE_CNOT)
    else:
        cnot = (table.time(Primitive.TRANSVERSAL_CNOT)
                + table.time(Primitive.LOGICAL_MEASURE)
                + table.time(Primitive.TRANSVERSAL_SINGLE))
    single = table.time(Primitive.TRANSVERSAL_SINGLE)
    time = (profile.toffoli_steps * (table.time(Primitive.TOFFOLI) + ec)
            + profile.cnot_steps * (cnot + ec)
            + profile.x_steps * (single + ec))
    if isinstance(layout, QlaLayout):
        time += float(comm_oracle(n)) * table.swap_step_time
    return time


@pytest.fixture(scope="module")
def params():
    return DeviceParams()


def test_qcla_depth_examples():
    assert qcla_depth(128).total == depth_oracle(128) == 37
    assert qcla_depth(128).toffoli_steps == 31
    assert qcla_depth(1024).total == depth_oracle(1024) == 49
    assert qcla_depth(7).total == depth_oracle(7) == 20
    assert qcla_depth(100).x_steps == 2
    assert qcla_depth(100).cnot_steps == 4


def test_stage_counts_integers_only():
    # the one floor-log rule applies the integer rule first, as adder_row
    # does; criterion 02 checks every n from 7 to 4096 against the oracles
    for bad in (7.5, math.nan, 2.0, Fraction(22, 3)):
        for formula in (qcla_depth, qla_comm_steps):
            with pytest.raises(TypeError):
                formula(bad)


def test_depth_formulas_large_n():
    rng = random.Random(0)
    samples = [2**k for k in range(3, 21)]
    samples += [2**k - 1 for k in range(3, 21)] + [2**k + 1 for k in range(3, 21)]
    samples += [rng.randrange(7, 2**20) for _ in range(500)]
    for n in samples:
        if n <= 6:
            continue
        assert qcla_depth(n).total == depth_oracle(n), n
        assert qla_comm_steps(n) == comm_oracle(n), n


def test_depth_domain():
    for n in (0, 1, 6):
        with pytest.raises(NTooSmall):
            qcla_depth(n)
        with pytest.raises(NTooSmall):
            qla_comm_steps(n)


def test_comm_steps_examples():
    assert qla_comm_steps(128) == Fraction(263, 2)          # 131.5
    assert math.ceil(qla_comm_steps(128)) == 132
    assert qla_comm_steps(1024) == 226


def test_comm_steps_monotone():
    values = [qla_comm_steps(n) for n in range(7, 600)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_adder_resources_exact(params):
    musiqc, qla, nn = MusiqcLayout(), QlaLayout(), NnLayout()

    def resources(n, layout):
        row = adder_row(n, layout, params)
        return {"qubits": row["qubits"], "parallel_ops": row["parallel_ops"]}

    assert resources(128, musiqc) == {"qubits": 19200, "parallel_ops": 2304}
    assert qla.qubits(4) == 4704
    assert resources(1, nn)["qubits"] == 40
    for n in (13, 999, 16384):
        assert resources(n, musiqc) == {"qubits": 150 * n,
                                        "parallel_ops": 18 * n}
        assert resources(n, qla) == {"qubits": 1176 * n,
                                     "parallel_ops": 110 * n}
        assert resources(n, nn) == {"qubits": 20 * (n + 1),
                                    "parallel_ops": 8 * n + 43}
        assert isinstance(resources(n, qla)["qubits"], int)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([32, 128, 700]), st.floats(1.0, 3.0))
def test_adder_time_monotone_in_durations(n, scale):
    layout = MusiqcLayout()
    base_params = DeviceParams()
    base = adder_execution_time(n, table_at_level(base_params, layout, 1))
    for field in ("t_single_gate", "t_two_gate", "t_measure",
                  "t_remote_entangle"):
        slower = DeviceParams(**{field: getattr(base_params, field) * scale})
        time = adder_execution_time(n, table_at_level(slower, layout, 1))
        assert time >= base - 1e-15


def test_musiqc_path_has_no_distance_parameter(params):
    # one step-cost formula serves every layout; on the switched layout a
    # CNOT step is the remote CNOT, which takes no distance
    assert list(inspect.signature(adder_execution_time).parameters) == [
        "n", "table"]
    layout = MusiqcLayout()
    table = table_at_level(params, layout, 1)
    profile = depth_profile_oracle(128, layout)
    assert profile == qcla_depth(128)
    ec = layout.ec_rounds_per_step * table.time(Primitive.ERROR_CORRECT_ROUND)
    assert adder_execution_time(128, table) == (
        profile.toffoli_steps * (table.time(Primitive.TOFFOLI) + ec)
        + profile.cnot_steps * (table.time(Primitive.REMOTE_CNOT) + ec)
        + profile.x_steps * (table.time(Primitive.TRANSVERSAL_SINGLE) + ec))


def test_shor_smallest_case(params):
    result = shor_estimate(8, MusiqcLayout(), params)
    assert result["level"] == 1
    assert result["time_s"] > 0
    with pytest.raises(ValidationError):
        shor_estimate(7, MusiqcLayout(), params)
    with pytest.raises(ValidationError, match=(
            r"^the factoring roll-up is defined for the musiqc and qla "
            r"layouts$")):
        shor_estimate(64, NnLayout(), params)


def test_crossover_from_the_lookahead_domain(params):
    # scanned from the smallest lookahead n, the switched lookahead adder
    # first beats the nearest-neighbor ripple-carry adder at n = 19, below
    # the n = 32 where criterion 05's scan starts
    scan = crossover_scan(range(7, 257), params=params)
    assert scan["crossover_n"] == 19
    times = {row["layout"]: row["time_s"] for row in scan["rows"]
             if row["n"] == 18}
    assert times["nn"] < times["musiqc"]


def test_csv_schema(params):
    rows = crossover_scan([128], params=params)["rows"]
    text = rows_to_csv(rows)
    header = text.splitlines()[0]
    assert header == ("n,layout,circuit,level,depth_total,toffoli_steps,"
                      "time_s,qubits,parallel_ops")
    assert len(text.splitlines()) == 1 + 3
    with pytest.raises(ValidationError, match="no rows"):
        rows_to_csv([])


def test_adder_row_fields(params):
    row = adder_row(128, MusiqcLayout(), params)
    assert row["depth_total"] == 37
    assert row["toffoli_steps"] == 31
    assert row["circuit"] == "qcla"
    nn_row = adder_row(128, NnLayout(), params)
    assert nn_row["circuit"] == "qrca"
    assert nn_row["depth_total"] == 259


def test_estimates_take_a_numpy_integer(params):
    # the integer check's index prices and prints the result: a numpy n once
    # raised AttributeError on bit_length in adder_row, and wrapped 40 n**3
    # in shor_estimate
    np = pytest.importorskip("numpy")
    row = adder_row(np.int64(100), MusiqcLayout(), params)
    assert row == adder_row(100, MusiqcLayout(), params)
    assert json.dumps(row) == json.dumps(adder_row(100, MusiqcLayout(), params))
    table = table_at_level(params, MusiqcLayout(), 1)
    assert (adder_execution_time(np.int64(100), table)
            == adder_execution_time(100, table))
    estimate = shor_estimate(np.int64(2**20), MusiqcLayout(), params)
    assert estimate == shor_estimate(2**20, MusiqcLayout(), params)
    assert json.dumps(estimate)


def test_adder_time_matches_oracle_bit_for_bit(params):
    # every n of the crossover scan, at every level the CLI accepts, and two
    # n far past it; each (layout, level) prices with one table, as a scan does
    for layout in (MusiqcLayout(), QlaLayout(), NnLayout()):
        for level in (1, 2, 3):
            table = table_at_level(params, layout, level)
            for n in [*range(7, 4097), 2**20 + 1, 2**40]:
                want = adder_time_oracle(n, layout, table)
                assert adder_execution_time(n, table) == want, (
                    layout.kind, level, n)
                row = adder_row(n, layout, params, level=level)
                assert row["time_s"] == want, (layout.kind, level, n)


def test_crossover_rows_are_adder_rows(params):
    layouts = (MusiqcLayout(), QlaLayout(), NnLayout())
    expected = []
    for n in range(1, 4097):
        for layout in layouts:
            if n > 6 or isinstance(layout, NnLayout):
                expected.append(adder_row(n, layout, params))
    assert crossover_scan(range(4096, 0, -1), params=params)["rows"] == expected


def test_crossover_rows_are_adder_rows_at_depth_class_edges(params):
    # the scan prices a lookahead row once per depth class, the bit lengths
    # of n, n - 1, n // 3 and (n - 1) // 3; a class changes at 2**k and
    # 3 * 2**k, and a wrong class key shows at large n
    ns = {m for k in range(1, 41) for m in (2**k - 1, 2**k, 2**k + 1,
                                              3 * 2**k, 3 * 2**k + 1)}
    ns |= set(range(1, 13))
    shuffled = sorted(ns)
    random.Random(13).shuffle(shuffled)
    layouts = (MusiqcLayout(), QlaLayout(), NnLayout())
    expected = [adder_row(n, layout, params) for n in sorted(ns)
                for layout in layouts if n > 6 or isinstance(layout, NnLayout)]
    scan = crossover_scan(shuffled, params=params)
    assert scan["rows"] == expected
    times = {(row["n"], row["layout"]): row["time_s"] for row in expected}
    assert scan["crossover_n"] == min(
        n for n in ns if n > 6 and times[n, "musiqc"] < times[n, "nn"])


def test_crossover_scan_rejects_n_below_one(params):
    # the ripple rows below the lookahead domain take any n, so the scan
    # checks its smallest n itself
    for n_values in ([0, 7], [-3]):
        with pytest.raises(ValidationError, match="^n must be at least 1$"):
            crossover_scan(n_values, params=params)
    with pytest.raises(ValidationError, match="non-empty"):
        crossover_scan([], params=params)
    scan = crossover_scan([6, 1], params=params)
    assert [(row["n"], row["layout"]) for row in scan["rows"]] == [
        (1, "nn"), (6, "nn")]
    assert scan["crossover_n"] is None


def test_adder_n_must_be_a_whole_number(params):
    # a 7.5-bit adder was once priced, NaN gave an all-NaN row, the scan
    # priced 7 for 7.5, and the factoring roll-up raised AttributeError or
    # the infeasible-result class
    nn_table = table_at_level(params, NnLayout(), 1)
    calls = [lambda n: adder_row(n, NnLayout(), params),
             lambda n: adder_row(n, MusiqcLayout(), params),
             lambda n: adder_execution_time(n, nn_table),
             lambda n: crossover_scan([n], params=params),
             lambda n: shor_estimate(n, MusiqcLayout(), params)]
    for call in calls:
        for n in (7.5, math.nan, math.inf, 1e308, 16.0):
            with pytest.raises(TypeError, match="integer"):
                call(n)


def test_crossover_scan_takes_n_up_to_the_adder_bound(params):
    n = 2**1022
    layouts = (MusiqcLayout(), QlaLayout(), NnLayout())
    assert crossover_scan([n], params=params)["rows"] == [
        adder_row(n, layout, params) for layout in layouts]
    with pytest.raises(ValidationError, match=r"at most 2\*\*1022"):
        crossover_scan([7, n + 1], params=params)


def csv_cell_oracle(value) -> str:
    """The CSV cell as first written: abstract type checks only."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def test_rows_to_csv_formats_each_cell_type():
    # exact types take their own branch; subclasses keep the generic
    # formatting: a float subclass as %.9g, an int subclass by str
    np = pytest.importorskip("numpy")
    row = {"f": 0.1 + 0.2, "g": np.float64(1 / 3), "b": True, "c": False,
           "i": 2**70, "j": np.int64(-5), "s": "qcla", "z": -0.0,
           "k": float("inf"), "n": None, "nb": np.bool_(True),
           "e": np.float64("nan"), "t": 5e-324}
    text = rows_to_csv([row])
    assert text == ("f,g,b,c,i,j,s,z,k,n,nb,e,t\n"
                    "0.3,0.333333333,1,0,1180591620717411303424,-5,qcla,-0,"
                    "inf,None,True,nan,4.94065646e-324\n")
    assert text.splitlines()[1] == ",".join(map(csv_cell_oracle,
                                                row.values()))

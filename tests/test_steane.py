import json
import math

import pytest

from ionarch import steane
from ionarch.arch import MusiqcLayout, NnLayout, QlaLayout
from ionarch.device import DeviceParams
from ionarch.errors import InsufficientConcatenation, ValidationError
from ionarch.steane import (Primitive, level1_costs, lift_level,
                            required_concat_level, table_at_level,
                            toffoli_cost)

US = 1e-6

LAYOUTS = (MusiqcLayout, QlaLayout, NnLayout)
#: A device off the defaults in every duration a table reads.
SLOWER = DeviceParams(t_single_gate=2 * US, t_two_gate=13 * US,
                      t_toffoli=17 * US, t_measure=70 * US,
                      t_remote_entangle=1000 * US)


@pytest.fixture(scope="module")
def params():
    return DeviceParams()


@pytest.fixture(scope="module")
def musiqc_table(params):
    return level1_costs(params, MusiqcLayout())


def hand_counted_prep_zero_time():
    """Independent oracle: walk the preparation circuit step by step.

    Worst case three repetitions of the six stabilizer measurements, each
    built from a 4-ion cat (seed single + 3-CNOT chain), one transversal
    coupling step, and a readout; then the logical-Z readout via a 3-ion cat.
    """
    t1, t2, tm = 1, 10, 30
    stab4 = t1 + 3 * t2 + t2 + tm
    zl = t1 + 2 * t2 + t2 + tm
    return (3 * 6 * stab4 + zl) * US


def test_audit_trail_sums_to_time(musiqc_table):
    for prim in Primitive:
        entry = musiqc_table.entries[prim]
        assert sum(s.total for s in entry.steps) == entry.time
        assert entry.time > 0


def test_prep_zero_qubits_and_time(musiqc_table):
    entry = musiqc_table.entries[Primitive.PREP_ZERO]
    assert entry.qubits == 11
    assert entry.time == pytest.approx(hand_counted_prep_zero_time())


def test_transversal_gate_times(musiqc_table):
    assert musiqc_table.time(Primitive.TRANSVERSAL_CNOT) == pytest.approx(10 * US)
    assert musiqc_table.time(Primitive.TRANSVERSAL_SINGLE) == pytest.approx(1 * US)
    assert musiqc_table.time(Primitive.LOGICAL_MEASURE) == pytest.approx(31 * US)


def test_toffoli_targets(params, musiqc_table):
    # published level-1 targets: 3250 us switched, 2159 us nearest-neighbor
    switched = toffoli_cost(musiqc_table)
    assert switched["time"] == pytest.approx(3250 * US, rel=0.25)
    nn_layout = NnLayout()
    nn_table = level1_costs(params, nn_layout)
    nn_step = (toffoli_cost(nn_table)["time"]
               + nn_layout.ec_rounds_per_step
               * nn_table.time(Primitive.ERROR_CORRECT_ROUND))
    assert nn_step == pytest.approx(2159 * US, rel=0.10)


def test_toffoli_qubit_overhead(musiqc_table):
    assert toffoli_cost(musiqc_table)["qubits"] == 3 * 11 + 7


def test_remote_cnot_schedule(musiqc_table):
    """Schedule-enumeration oracle: list the link slots one by one."""
    def slots_by_enumeration(pairs, ports):
        slot_of_pair = [k // ports for k in range(pairs)]
        return max(slot_of_pair) + 1

    for ports in (1, 2, 3, 7):
        assert steane._pair_slots(ports) == slots_by_enumeration(7, ports)
    assert steane._pair_slots(3) == 3
    link = musiqc_table.entries[Primitive.REMOTE_CNOT].steps[0]
    assert link.label.startswith("bell-pair slot")
    assert link.count == slots_by_enumeration(7, MusiqcLayout.m_p)


def test_remote_cnot_zero_link_is_local(params):
    # without link cost the remote CNOT entry is the teleported CNOT alone:
    # a transversal CNOT, the logical readout and one single-qubit fix-up
    for layout in LAYOUTS:
        for level in (1, 2, 3):
            table = table_at_level(params, layout, level)
            steps = table.entries[Primitive.REMOTE_CNOT].steps
            teleport = steps[-4:]
            assert all(s.label.startswith(("teleport", "conditioned"))
                       for s in teleport)
            assert sum(s.total for s in teleport) == table.cnot_teleport_time
    for layout in (QlaLayout(), NnLayout()):
        table = table_at_level(params, layout, 1)
        local = table.entries[Primitive.REMOTE_CNOT]
        assert len(local.steps) == 4
        assert local.time == table.cnot_teleport_time
        expected = (table.time(Primitive.TRANSVERSAL_CNOT)
                    + table.time(Primitive.LOGICAL_MEASURE)
                    + table.time(Primitive.TRANSVERSAL_SINGLE))
        assert local.time == pytest.approx(expected)


def test_remote_cnot_linear_in_link_time():
    def remote(t_remote_entangle):
        params = DeviceParams(t_remote_entangle=t_remote_entangle)
        return level1_costs(params, MusiqcLayout())

    t1 = remote(1000 * US).time(Primitive.REMOTE_CNOT)
    t2 = remote(2000 * US).time(Primitive.REMOTE_CNOT)
    local = remote(1000 * US).cnot_teleport_time
    assert t2 - t1 == pytest.approx(t1 - local)


def test_lift_level_arithmetic(musiqc_table):
    l3 = lift_level(lift_level(musiqc_table))
    assert l3.level == 3


def test_lift_qubit_factor(musiqc_table):
    """Direct recomposition oracle: one level multiplies footprints by 11."""
    lifted = lift_level(musiqc_table)
    assert lifted.footprint == 11 * musiqc_table.footprint
    assert lifted.entries[Primitive.PREP_ZERO].qubits \
        == 11 * musiqc_table.entries[Primitive.PREP_ZERO].qubits


def test_lift_time_monotone(params):
    for layout in (MusiqcLayout(), QlaLayout(), NnLayout()):
        table = level1_costs(params, layout)
        lifted = lift_level(table)
        for prim in Primitive:
            assert lifted.time(prim) >= table.time(prim), prim


def test_lift_audit_references_base_level(musiqc_table):
    lifted = lift_level(musiqc_table)
    for prim in Primitive:
        for step in lifted.entries[prim].steps:
            assert "physical" not in step.label
            assert "level-1" in step.label


def test_level1_audit_references_physical(musiqc_table):
    for prim in Primitive:
        assert all("physical" in s.label or "bell-pair" in s.label
                   for s in musiqc_table.entries[prim].steps)


def test_table_json_roundtrip(musiqc_table):
    payload = json.loads(musiqc_table.to_json())
    assert payload["level"] == 1
    toffoli = payload["primitives"]["toffoli"]
    total = sum(s["duration_s"] * s["count"] for s in toffoli["audit_trail"])
    assert total == pytest.approx(toffoli["time_s"])


def test_required_concat_level_shor_sizes():
    # K = 40 n^3 gates, Q = 6n logical qubits, eps = 1e-7 against eth = 1e-4
    for n, expected in [(32, 1), (512, 2), (4096, 3)]:
        k, q = 40 * n**3, 6 * n
        assert required_concat_level(k, q, 1e-7) == expected


def test_required_concat_level_edges():
    assert required_concat_level(10**30, 10**6, 0.0) == 1
    assert required_concat_level(1, 1, 1e-7) == 1
    with pytest.raises(InsufficientConcatenation):
        required_concat_level(10**40, 10**40, 9e-5)
    with pytest.raises(ValidationError):
        required_concat_level(10, 10, 2e-4, eps_threshold=1e-4)
    # NaN once read as infeasible (exit 3), inf as a target of 0 and 2.5 as
    # a count
    for k, q in ((0, 1), (1, 0), (math.nan, 1), (1, math.nan)):
        with pytest.raises(ValidationError, match="at least 1"):
            required_concat_level(k, q, 1e-7)
    for k, q in ((math.inf, 1), (1, math.inf), (2.5, 1), (1, 2.5), (2.0, 1)):
        with pytest.raises(TypeError):
            required_concat_level(k, q, 1e-7)
    # a K Q past the float range once raised OverflowError at 1 / (K Q)
    for k, q in ((10**400, 1), (10**200, 10**200)):
        with pytest.raises(ValidationError, match="float range"):
            required_concat_level(k, q, 1e-7)


def test_required_concat_level_monotone():
    levels = [required_concat_level(kq, 1, 1e-7)
              for kq in (10**4, 10**8, 10**12, 10**16, 10**20)]
    assert levels == sorted(levels)


def test_table_at_level(params):
    assert table_at_level(params, MusiqcLayout(), 3).level == 3
    for level in (0, 4):
        with pytest.raises(ValidationError):
            table_at_level(params, MusiqcLayout(), level)
    # a float level never aliases an int one; True is level 1, as in range()
    for level in (1.0, 2.0):
        with pytest.raises(TypeError):
            table_at_level(params, MusiqcLayout(), level)
    assert table_at_level(params, MusiqcLayout(), True).to_json() \
        == level1_costs(params, MusiqcLayout()).to_json()


def fresh_tables(device, layout):
    """Levels 1 to 3 built without the shared tables: the reference."""
    table = level1_costs(device, layout)
    tables = [table]
    for _ in range(2):
        table = lift_level(table)
        tables.append(table)
    return tables


def test_tables_shared_per_device_layout_level():
    # equal device parameters built apart share one table
    table = table_at_level(DeviceParams(), MusiqcLayout(), 2)
    assert table_at_level(DeviceParams(), MusiqcLayout(), 2) is table
    others = [table_at_level(SLOWER, MusiqcLayout(), 2),
              table_at_level(DeviceParams(), QlaLayout(), 2),
              table_at_level(DeviceParams(), MusiqcLayout(), 3),
              table_at_level(DeviceParams(), MusiqcLayout(), 1)]
    assert len({id(t) for t in [table, *others]}) == 5


def test_shared_table_is_read_only(params):
    table = table_at_level(params, MusiqcLayout(), 1)
    with pytest.raises(TypeError):
        table.entries[Primitive.TOFFOLI] = table.entries[Primitive.PREP_ZERO]
    with pytest.raises(TypeError):
        del table.entries[Primitive.TOFFOLI]


@pytest.mark.parametrize("device", [DeviceParams(), SLOWER],
                         ids=["defaults", "slower"])
def test_shared_tables_equal_fresh_builds(device):
    for layout in LAYOUTS:
        for level, fresh in enumerate(fresh_tables(device, layout()), 1):
            assert table_at_level(device, layout(), level).to_json() \
                == fresh.to_json(), (layout.kind, level)


def test_shared_tables_past_the_memo_bound():
    # more distinct devices than the memo keeps, each at every level and
    # layout, then the first again after it has been evicted
    devices = [DeviceParams(t_two_gate=(10 + k) * US)
               for k in range(steane._TABLES_KEPT + 3)]
    for device in [*devices, devices[0]]:
        for layout in LAYOUTS:
            for level, fresh in enumerate(fresh_tables(device, layout()), 1):
                assert table_at_level(device, layout(), level).to_json() \
                    == fresh.to_json(), (device.t_two_gate, layout.kind, level)


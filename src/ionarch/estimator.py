"""Analytic execution-time and resource estimators for fault-tolerant adders.

Carry-lookahead depth and the repeater-grid communication-step count are
evaluated in exact integer/rational arithmetic; resource formulas are exact
integers.  Execution times combine the per-primitive costs of a
:class:`~ionarch.steane.LogicalCostTable` with the layout's calibrated
folded-error-correction count, one round per circuit time step.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

from .arch import ArchLayout, MusiqcLayout, NnLayout, QlaLayout
from .device import DeviceParams
from .errors import NTooSmall, ValidationError
from .steane import (EPS_PHYS, EPS_THRESHOLD, LogicalCostTable,
                     required_concat_level, table_at_level)


def floor_log2(x: int) -> int:
    """floor(log2(x)) for a positive integer, exactly.

    For n >= 3, floor(log2(n/3)) is ``floor_log2(n // 3)``: 2**e <= n/3 holds
    exactly when 2**e <= n // 3.
    """
    # the exact type test first: it spares ints the abstract-class check
    if (type(x) is not int and not isinstance(x, numbers.Integral)) or x <= 0:
        raise ValidationError("floor_log2 requires a positive integer")
    return int(x).bit_length() - 1


@dataclass(frozen=True)
class DepthProfile:
    x_steps: int
    cnot_steps: int
    toffoli_steps: int

    @property
    def total(self) -> int:
        return self.x_steps + self.cnot_steps + self.toffoli_steps


def qcla_depth(n: int) -> DepthProfile:
    """Circuit depth of the n-bit in-place carry-lookahead adder.

    Total depth is the four floor-log terms plus 14; two steps are X gates,
    four are CNOTs, and the remainder are Toffoli steps.
    """
    if n <= 6:
        raise NTooSmall(f"carry-lookahead depth formula requires n > 6, got {n}")
    total = (floor_log2(n) + floor_log2(n - 1)
             + floor_log2(n // 3) + floor_log2((n - 1) // 3) + 14)
    return DepthProfile(x_steps=2, cnot_steps=4, toffoli_steps=total - 6)


#: Largest adder size the estimates take.  The ripple-carry depth 2n+3 is
#: priced as a float, which holds integers below 2**1024; one bound serves
#: every layout, and also keeps each exact qubit count of an output row far
#: inside the 4300 digits that Python prints of an int.
MAX_ADDER_N = 2**1022


def _check_adder_n(n: int) -> None:
    if n < 1:
        raise ValidationError("n must be at least 1")
    if n > MAX_ADDER_N:
        raise ValidationError(
            f"n must be at most 2**1022, got a {n.bit_length()}-bit n")


def adder_depth(n: int, layout: ArchLayout) -> DepthProfile:
    """Circuit depth of the n-bit adder the layout runs, 1 <= n <= 2**1022.

    Ripple-carry on the nearest-neighbor layout: 2n+3 Toffoli-dominated
    steps.  Carry-lookahead on the others (``qcla_depth``).
    """
    _check_adder_n(n)
    if isinstance(layout, NnLayout):
        return DepthProfile(x_steps=0, cnot_steps=0, toffoli_steps=2 * n + 3)
    return qcla_depth(n)


def qla_comm_steps(n: int) -> Fraction:
    """Entanglement-distribution swap steps of the n-bit adder on the grid.

    Sum over the four stage-count terms of T(T+17)/4 with T the floor-log of
    n, n-1, n/3 and (n-1)/3.  The expression is kept as an exact fraction;
    callers round up only for reporting.
    """
    if n <= 6:
        raise NTooSmall(f"communication-step formula requires n > 6, got {n}")
    quarters = 0
    for x in (n, n - 1, n // 3, (n - 1) // 3):
        t = floor_log2(x)
        quarters += t * (t + 17)
    return Fraction(quarters, 4)


def _steps_time(step_times: tuple[float, float, float], toffoli_steps: int,
                cnot_steps: int, x_steps: int) -> float:
    toffoli, cnot, single = step_times
    return toffoli_steps * toffoli + cnot_steps * cnot + x_steps * single


def _adder_time(n: int, table: LogicalCostTable,
                profile: DepthProfile) -> float:
    time = _steps_time(table.adder_step_times, profile.toffoli_steps,
                       profile.cnot_steps, profile.x_steps)
    if isinstance(table.layout, QlaLayout):
        time += float(qla_comm_steps(n)) * table.swap_step_time
    return time


def adder_execution_time(n: int, table: LogicalCostTable) -> float:
    """Wall-clock execution time (seconds) of one n-bit addition on the
    layout that ``table`` is built for, ``table.layout``.

    Every step of ``adder_depth`` costs its gate plus the layout's folded
    error-correction rounds.  A CNOT step is the distance-independent remote
    CNOT on the switched layout and a local teleport elsewhere; the grid
    additionally pays the swap-step count for entanglement distribution.
    """
    return _adder_time(n, table, adder_depth(n, table.layout))


# Roll-up model for the modular-exponentiation circuit (all model inputs, not
# measured quantities):
#   * 4 n^2 adder calls of 10n logical gates each and 6n logical qubits set
#     the K*Q error budget for level selection;
#   * four-way multiplier parallelism leaves n^2 sequential adder stages;
#   * the qubit roll-up provisions ceil(2 sqrt(n)) concurrent adder units and
#     applies the self-similar layout factor of 25 physical per logical qubit
#     at each additional concatenation level.
SHOR_GATES_PER_ADDER_BIT = 10
SHOR_LEVEL_QUBIT_FACTOR = 25
#: Largest n of the roll-up: its error target 1 / (K Q) is a float, and
#: K Q = 240 n**4 stays below 2**1024 for every n up to 2**254.
MAX_SHOR_N = 2**254


def shor_k_q(n: int) -> tuple[int, int]:
    k_ops = 4 * n * n * SHOR_GATES_PER_ADDER_BIT * n
    q_logical = 6 * n
    return k_ops, q_logical


def shor_estimate(n: int, layout: ArchLayout, params: DeviceParams,
                  eps_phys: float = EPS_PHYS,
                  eps_threshold: float = EPS_THRESHOLD) -> dict:
    """Execution time, qubit count and code level for factoring an n-bit number."""
    if n < 8:
        raise ValidationError("modular-exponentiation roll-up requires n >= 8")
    if n > MAX_SHOR_N:
        raise ValidationError(
            "modular-exponentiation roll-up requires n <= 2**254, got a "
            f"{n.bit_length()}-bit n")
    if isinstance(layout, NnLayout):
        raise ValidationError(
            "the factoring roll-up is defined for the musiqc and qla layouts")
    k_ops, q_logical = shor_k_q(n)
    level = required_concat_level(k_ops, q_logical, eps_phys, eps_threshold)
    table = table_at_level(params, layout, level)
    time_s = n * n * adder_execution_time(n, table)
    units = math.ceil(2.0 * math.sqrt(n))
    qubits = (units * layout.qubits(n)
              * SHOR_LEVEL_QUBIT_FACTOR ** (level - 1))
    return {
        "time_s": time_s,
        "qubits": qubits,
        "level": level,
        "k_ops": k_ops,
        "q_logical": q_logical,
    }


def _layout_columns(layout: ArchLayout) -> tuple:
    """What a layout's report rows take from it, resolved once per layout:
    its kind, its adder circuit and its qubit and parallel-op formulas."""
    circuit = "qrca" if isinstance(layout, NnLayout) else "qcla"
    return layout.kind, circuit, layout.qubits, layout.parallel_ops


def _row(n: int, columns: tuple, level: int, depth_total: int,
         toffoli_steps: int, time_s: float) -> dict:
    kind, circuit, qubits, parallel_ops = columns
    return {
        "n": n,
        "layout": kind,
        "circuit": circuit,
        "level": level,
        "depth_total": depth_total,
        "toffoli_steps": toffoli_steps,
        "time_s": time_s,
        "qubits": qubits(n),
        "parallel_ops": parallel_ops(n),
    }


def adder_row(n: int, layout: ArchLayout, params: DeviceParams,
              level: int = 1) -> dict:
    """One report row, its keys in CSV column order."""
    table = table_at_level(params, layout, level)
    profile = adder_depth(n, layout)
    return _row(n, _layout_columns(layout), level, profile.total,
                profile.toffoli_steps, _adder_time(n, table, profile))


def crossover_scan(n_values, params: DeviceParams | None = None) -> dict:
    """Sweep level-1 adder times over ``n_values`` on the three layouts.

    Returns the rows (sorted by n then layout) and the smallest scanned n at
    which the switched-layout lookahead adder beats the nearest-neighbor
    ripple-carry adder, if any.  The rows equal ``adder_row``'s; what they
    take from each layout (``_layout_columns``) is resolved once per scan.
    """
    n_values = sorted(set(map(int, n_values)))
    if not n_values:
        raise ValidationError("n_values must be non-empty")
    _check_adder_n(n_values[-1])
    params = params or DeviceParams()
    musiqc, qla, nn = MusiqcLayout(), QlaLayout(), NnLayout()
    musiqc_table = table_at_level(params, musiqc, 1)
    qla_table = table_at_level(params, qla, 1)
    nn_steps = table_at_level(params, nn, 1).adder_step_times
    musiqc_columns, qla_columns, nn_columns = map(_layout_columns,
                                                  (musiqc, qla, nn))
    # n enters a lookahead row's depth and time only through the floor-logs
    # of n, n - 1, n // 3 and (n - 1) // 3, so each combination of their bit
    # lengths (a depth class) is priced once
    classes = {}
    rows = []
    crossover_n = None
    for n in n_values:
        if n <= 6:      # below the lookahead domain only the ripple row exists
            rows.append(adder_row(n, nn, params))
            continue
        key = (n.bit_length(), (n - 1).bit_length(), (n // 3).bit_length(),
               ((n - 1) // 3).bit_length())
        priced = classes.get(key)
        if priced is None:
            profile = qcla_depth(n)
            priced = classes[key] = (
                profile.total, profile.toffoli_steps,
                _adder_time(n, musiqc_table, profile),
                _adder_time(n, qla_table, profile))
        depth_total, toffoli_steps, musiqc_time, qla_time = priced
        # the ripple row: adder_depth's 2n+3 Toffoli steps, priced as
        # _adder_time prices them
        nn_depth = 2 * n + 3
        nn_time = _steps_time(nn_steps, nn_depth, 0, 0)
        rows += (_row(n, musiqc_columns, 1, depth_total, toffoli_steps,
                      musiqc_time),
                 _row(n, qla_columns, 1, depth_total, toffoli_steps,
                      qla_time),
                 _row(n, nn_columns, 1, nn_depth, nn_depth, nn_time))
        if crossover_n is None and musiqc_time < nn_time:
            crossover_n = n
    return {"rows": rows, "crossover_n": crossover_n}


def _csv_cell(value) -> str:
    # the exact types first: they spare the common cells the abstract checks,
    # and a subclass (np.float64, an IntEnum) still takes the isinstance ones
    kind = type(value)
    if kind is float:
        return f"{value:.9g}"
    if kind is str:
        return value
    if kind is int:
        return str(value)
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def rows_to_csv(rows) -> str:
    """The rows as CSV text, with the first row's keys as the header.

    Floats print as ``%.9g`` and booleans as 0/1.
    """
    rows = list(rows)
    if not rows:
        raise ValidationError("no rows to write")
    columns = list(rows[0])
    lines = [",".join(columns)]
    lines += [",".join([_csv_cell(row[key]) for key in columns])
              for row in rows]
    return "\n".join(lines) + "\n"

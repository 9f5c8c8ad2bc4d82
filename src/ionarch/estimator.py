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
from .steane import (LogicalCostTable, Primitive, local_teleport_time,
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


def adder_depth(n: int, layout: ArchLayout) -> DepthProfile:
    """Circuit depth of the n-bit adder the layout runs.

    Ripple-carry on the nearest-neighbor layout: 2n+3 Toffoli-dominated
    steps.  Carry-lookahead on the others (``qcla_depth``).
    """
    if isinstance(layout, NnLayout):
        if n < 1:
            raise ValidationError("n must be at least 1")
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


def qla_teleport_distance(t: int) -> dict:
    """Teleport geometry for a lookahead stage spanning distance 2**t.

    Returns the inter-unit distance d(t), the ion-chain length L(t) = 7 d(t),
    and the nested-swapping step count floor(log2 L(t)).
    """
    if t < 1:
        raise ValidationError("stage index t must be at least 1")
    if t % 2 == 0:
        d = 3 * 2 ** (t // 2) + 1
    else:
        d = 2 ** ((t + 1) // 2) + 1
    chain = 7 * d
    return {"d": d, "chain_length": chain, "swap_steps": floor_log2(chain)}


def adder_resources(n: int, layout: ArchLayout) -> dict:
    """Exact qubit and parallel-operation counts for an n-bit adder."""
    if n < 1:
        raise ValidationError("n must be at least 1")
    return {"qubits": layout.qubits(n), "parallel_ops": layout.parallel_ops(n)}


#: Step durations of recently priced tables, keyed by the ids of the layout
#: and the table.  A scan prices every row with the same few tables.  Both are
#: frozen, and each entry holds them, so neither id is reused while it lives.
_STEP_TIMES: dict[tuple[int, int], tuple] = {}
_STEP_TIMES_KEPT = 8


def _step_times(layout: ArchLayout,
                table: LogicalCostTable) -> tuple[float, float, float]:
    """Durations of a Toffoli, a CNOT and an X step, each with the layout's
    folded error-correction rounds."""
    key = (id(layout), id(table))
    hit = _STEP_TIMES.get(key)
    if hit is None:
        ec = layout.ec_rounds_per_step * table.time(
            Primitive.ERROR_CORRECT_ROUND)
        if isinstance(layout, MusiqcLayout):
            cnot = table.time(Primitive.REMOTE_CNOT)
        else:
            cnot = local_teleport_time(table)
        times = (table.time(Primitive.TOFFOLI) + ec, cnot + ec,
                 table.time(Primitive.TRANSVERSAL_SINGLE) + ec)
        if len(_STEP_TIMES) >= _STEP_TIMES_KEPT:
            del _STEP_TIMES[next(iter(_STEP_TIMES))]
        hit = _STEP_TIMES[key] = (layout, table, times)
    return hit[2]


def _adder_time(n: int, layout: ArchLayout, table: LogicalCostTable,
                profile: DepthProfile) -> float:
    toffoli, cnot, single = _step_times(layout, table)
    time = (profile.toffoli_steps * toffoli + profile.cnot_steps * cnot
            + profile.x_steps * single)
    if isinstance(layout, QlaLayout):
        time += float(qla_comm_steps(n)) * table.swap_step_time
    return time


def adder_execution_time(n: int, layout: ArchLayout,
                         table: LogicalCostTable) -> float:
    """Wall-clock execution time (seconds) of one n-bit addition.

    Every step of ``adder_depth`` costs its gate plus the layout's folded
    error-correction rounds.  A CNOT step is the distance-independent remote
    CNOT on the switched layout and a local teleport elsewhere; the grid
    additionally pays the swap-step count for entanglement distribution.
    """
    return _adder_time(n, layout, table, adder_depth(n, layout))


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


def shor_k_q(n: int) -> tuple[int, int]:
    k_ops = 4 * n * n * SHOR_GATES_PER_ADDER_BIT * n
    q_logical = 6 * n
    return k_ops, q_logical


def shor_estimate(n: int, layout: ArchLayout, params: DeviceParams,
                  eps_phys: float = 1e-7, eps_threshold: float = 1e-4) -> dict:
    """Execution time, qubit count and code level for factoring an n-bit number."""
    if n < 8:
        raise ValidationError("modular-exponentiation roll-up requires n >= 8")
    if isinstance(layout, NnLayout):
        raise ValidationError(
            "the factoring roll-up is defined for the musiqc and qla layouts")
    k_ops, q_logical = shor_k_q(n)
    selection = required_concat_level(k_ops, q_logical, eps_phys, eps_threshold)
    table = table_at_level(params, layout, selection.level)
    adder_time = adder_execution_time(n, layout, table)
    time_s = n * n * adder_time
    units = math.ceil(2.0 * math.sqrt(n))
    qubits = (units * layout.qubits(n)
              * SHOR_LEVEL_QUBIT_FACTOR ** (selection.level - 1))
    return {
        "time_s": time_s,
        "qubits": qubits,
        "level": selection.level,
        "logical_error_per_op": selection.logical_error_per_op,
        "k_ops": k_ops,
        "q_logical": q_logical,
        "adder_time_s": adder_time,
    }


def adder_row(n: int, layout: ArchLayout, params: DeviceParams,
              level: int = 1, table: LogicalCostTable | None = None) -> dict:
    """One report row, its keys in CSV column order.

    ``table`` is the layout's cost table at ``level`` when the caller has
    already built it; otherwise it is built here.
    """
    if table is None:
        table = table_at_level(params, layout, level)
    resources = adder_resources(n, layout)
    profile = adder_depth(n, layout)
    return {
        "n": n,
        "layout": layout.kind,
        "circuit": "qrca" if isinstance(layout, NnLayout) else "qcla",
        "level": level,
        "depth_total": profile.total,
        "toffoli_steps": profile.toffoli_steps,
        "time_s": _adder_time(n, layout, table, profile),
        "qubits": resources["qubits"],
        "parallel_ops": resources["parallel_ops"],
    }


def crossover_scan(n_values, params: DeviceParams | None = None) -> dict:
    """Sweep level-1 adder times over ``n_values`` on the three layouts.

    Returns the rows (sorted by n then layout) and the smallest scanned n at
    which the switched-layout lookahead adder beats the nearest-neighbor
    ripple-carry adder, if any.
    """
    n_values = sorted(set(int(n) for n in n_values))
    if not n_values:
        raise ValidationError("n_range must be non-empty")
    params = params or DeviceParams()
    layout_objs = [MusiqcLayout(), QlaLayout(), NnLayout()]
    tables = [table_at_level(params, layout, 1) for layout in layout_objs]
    rows = []
    for n in n_values:
        for layout, table in zip(layout_objs, tables):
            try:
                rows.append(adder_row(n, layout, params, table=table))
            except NTooSmall:
                continue
    crossover_n = None
    by_n = {}
    for row in rows:
        by_n.setdefault(row["n"], {})[row["layout"]] = row["time_s"]
    for n in n_values:
        times = by_n.get(n, {})
        if "musiqc" in times and "nn" in times and times["musiqc"] < times["nn"]:
            crossover_n = n
            break
    return {"rows": rows, "crossover_n": crossover_n}


def _csv_cell(value) -> str:
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
    lines += [",".join(_csv_cell(row[key]) for key in columns) for row in rows]
    return "\n".join(lines) + "\n"

"""Analytic execution-time and resource estimators for fault-tolerant adders.

Carry-lookahead depth and the repeater-grid communication-step count are
evaluated in exact integer/rational arithmetic; resource formulas are exact
integers.  Execution times combine the per-primitive costs of a
:class:`~ionarch.steane.LogicalCostTable` with the layout's calibrated
folded-error-correction count, one round per circuit time step.  One adder
pricer, ``_adder_pricer``, gives every adder time: ``adder_execution_time``
(and so ``shor_estimate``), ``adder_row`` and ``crossover_scan``.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from ._value import Value
from .arch import ArchLayout, MusiqcLayout, NnLayout, QlaLayout
from .device import DeviceParams
from .errors import NTooSmall, ValidationError
from .steane import (EPS_PHYS, EPS_THRESHOLD, LogicalCostTable,
                     required_concat_level, table_at_level)


class DepthProfile(Value):
    x_steps: int
    cnot_steps: int
    toffoli_steps: int

    @property
    def total(self) -> int:
        return self.x_steps + self.cnot_steps + self.toffoli_steps


def _stage_logs(n: int) -> tuple[int, int, int, int]:
    """floor(log2) of the n-bit carry-lookahead adder's four stage counts,
    n, n - 1, n / 3 and (n - 1) / 3, from the bit lengths of n, n - 1, n // 3
    and (n - 1) // 3 (Draper, Kutin, Rains and Svore, QIC 6, 351 (2006));
    its depth and swap-step formulas hold for n > 6.  7.5 raises TypeError."""
    n = operator.index(n)
    if n <= 6:
        raise NTooSmall(f"carry-lookahead depth formula requires n > 6, got {n}")
    return (n.bit_length() - 1, (n - 1).bit_length() - 1,
            (n // 3).bit_length() - 1, ((n - 1) // 3).bit_length() - 1)


def qcla_depth(n: int) -> DepthProfile:
    """Circuit depth of the n-bit in-place carry-lookahead adder.

    Total depth is the four floor-log terms plus 14; two steps are X gates,
    four are CNOTs, and the remainder are Toffoli steps.
    """
    total = sum(_stage_logs(n)) + 14
    return DepthProfile(x_steps=2, cnot_steps=4, toffoli_steps=total - 6)


#: Largest adder size the estimates take.  The ripple-carry depth 2n+3 is
#: priced as a float, which holds integers below 2**1024; one bound serves
#: every layout, and also keeps each exact qubit count of an output row far
#: inside the 4300 digits that Python prints of an int.
MAX_ADDER_N = 2**1022


def _check_adder_n(n: int) -> int:
    # an n that is not an integer, such as 7.5, NaN or 2.0, raises TypeError;
    # returns n as an int, so a numpy integer prices and prints as one
    n = operator.index(n)
    if n < 1:
        raise ValidationError("n must be at least 1")
    if n > MAX_ADDER_N:
        raise ValidationError(
            f"n must be at most 2**1022, got a {n.bit_length()}-bit n")
    return n


def qla_comm_steps(n: int) -> Fraction:
    """Entanglement-distribution swap steps of the n-bit adder on the grid.

    Sum over the four stage-count terms of T(T+17)/4 with T the floor-log of
    n, n-1, n/3 and (n-1)/3.  The expression is kept as an exact fraction;
    callers round up only for reporting.
    """
    return Fraction(sum(t * (t + 17) for t in _stage_logs(n)), 4)


def _adder_pricer(table: LogicalCostTable):
    """The one adder pricer: n -> (depth_total, toffoli_steps, time_s) of the
    n-bit adder on ``table.layout`` at ``table.level``; the caller checks n.

    Every step costs its gate plus the layout's folded error-correction
    rounds (``table.adder_step_times``, read once).  Ripple-carry, 2n+3
    Toffoli steps, on the nearest-neighbor layout; carry-lookahead
    (``qcla_depth``) on the others, plus the grid's swap steps for
    entanglement distribution (``qla_comm_steps``).
    """
    toffoli, cnot, single = table.adder_step_times
    layout = table.layout
    if isinstance(layout, NnLayout):
        def price(n):
            depth = 2 * n + 3
            return depth, depth, depth * toffoli
        return price
    swap = table.swap_step_time if isinstance(layout, QlaLayout) else None

    def price(n):
        profile = qcla_depth(n)
        time = (profile.toffoli_steps * toffoli + profile.cnot_steps * cnot
                + profile.x_steps * single)
        if swap is not None:
            # its quarter count is an integer far below 2**53, so the
            # float is exact
            time += float(qla_comm_steps(n)) * swap
        return profile.total, profile.toffoli_steps, time

    return price


def _adder_rows(table: LogicalCostTable, n_values) -> list[dict]:
    """The report rows of ``n_values`` on ``table``'s layout and level, keys
    in CSV column order, priced by ``_adder_pricer``; the caller checks n.

    A lookahead adder's depth and time depend on n only through the bit
    lengths of n, n - 1, n // 3 and (n - 1) // 3 (its depth class), so each
    class is priced once per call.
    """
    price = _adder_pricer(table)
    layout = table.layout
    ripple = isinstance(layout, NnLayout)
    kind, level = layout.kind, table.level
    circuit = "qrca" if ripple else "qcla"
    qubits, parallel_ops = layout.qubits, layout.parallel_ops
    classes = {}
    rows = []
    for n in n_values:
        if ripple:
            priced = price(n)
        else:
            # _stage_logs(n) plus one each, inline: calling it per n slows
            # a scan of thousands of n by several percent
            key = (n.bit_length(), (n - 1).bit_length(),
                   (n // 3).bit_length(), ((n - 1) // 3).bit_length())
            priced = classes.get(key)
            if priced is None:
                priced = classes[key] = price(n)
        depth_total, toffoli_steps, time_s = priced
        rows.append({
            "n": n,
            "layout": kind,
            "circuit": circuit,
            "level": level,
            "depth_total": depth_total,
            "toffoli_steps": toffoli_steps,
            "time_s": time_s,
            "qubits": qubits(n),
            "parallel_ops": parallel_ops(n),
        })
    return rows


def adder_execution_time(n: int, table: LogicalCostTable) -> float:
    """Wall-clock execution time (seconds) of one n-bit addition on the
    layout that ``table`` is built for, ``table.layout``, 1 <= n <= 2**1022,
    as the one adder pricer, ``_adder_pricer``, prices it.

    A CNOT step is the distance-independent remote CNOT on the switched
    layout and a local teleport elsewhere.
    """
    return _adder_pricer(table)(_check_adder_n(n))[2]


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
#: The layouts the roll-up is defined for, by ``kind``.
_FACTORING_LAYOUTS = ("musiqc", "qla")
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
    n = operator.index(n)
    if n < 8:
        raise ValidationError("modular-exponentiation roll-up requires n >= 8")
    if n > MAX_SHOR_N:
        raise ValidationError(
            "modular-exponentiation roll-up requires n <= 2**254, got a "
            f"{n.bit_length()}-bit n")
    if layout.kind not in _FACTORING_LAYOUTS:
        raise ValidationError(
            "the factoring roll-up is defined for the "
            f"{' and '.join(_FACTORING_LAYOUTS)} layouts")
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


def adder_row(n: int, layout: ArchLayout, params: DeviceParams,
              level: int = 1) -> dict:
    """One report row, its keys in CSV column order, 1 <= n <= 2**1022."""
    n = _check_adder_n(n)
    return _adder_rows(table_at_level(params, layout, level), (n,))[0]


def crossover_scan(n_values, params: DeviceParams | None = None) -> dict:
    """Sweep level-1 adder times over ``n_values`` on the three layouts.

    Returns the rows (sorted by n then layout) and the smallest scanned n at
    which the switched-layout lookahead adder beats the nearest-neighbor
    ripple-carry adder, if any.  The rows are ``adder_row``'s, from one
    ``_adder_rows`` call per layout, so a scan prices each lookahead depth
    class once per layout.
    """
    n_values = sorted(set(map(operator.index, n_values)))
    if not n_values:
        raise ValidationError("n_values must be non-empty")
    _check_adder_n(n_values[-1])
    _check_adder_n(n_values[0])
    params = params or DeviceParams()
    # below the lookahead domain, n <= 6, only the ripple row exists
    lookahead = [n for n in n_values if n > 6]
    musiqc_rows, qla_rows = (
        _adder_rows(table_at_level(params, layout, 1), lookahead)
        for layout in (MusiqcLayout(), QlaLayout()))
    nn_rows = _adder_rows(table_at_level(params, NnLayout(), 1), n_values)
    rows = nn_rows[:len(n_values) - len(lookahead)]
    crossover_n = None
    for musiqc, qla, nn in zip(musiqc_rows, qla_rows, nn_rows[len(rows):]):
        rows += (musiqc, qla, nn)
        if crossover_n is None and musiqc["time_s"] < nn["time_s"]:
            crossover_n = nn["n"]
    return {"rows": rows, "crossover_n": crossover_n}


def _csv_cell(value) -> str:
    if isinstance(value, float):    # first: the commonest cell of a table
        return f"{value:.9g}"
    if isinstance(value, bool):
        return "1" if value else "0"
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

"""Fault-tolerant cost model for [[7,1,3]] CSS-code primitives.

Every cost entry is built from an explicit ordered step list so the audit
trail always sums to the reported time.  Level 1 composes the primitives from
the physical gate set; ``lift_level`` recomposes the identical step sequences
from the level-below primitives, so the recursion mirrors the level-1
construction exactly.

Circuit construction, in brief:

* A stabilizer measurement uses a cat-state ancilla: sequential CNOT chain to
  grow the cat, one transversal coupling step onto the data block, then a
  simultaneous ancilla readout.  Weight-4 stabilizers use a 4-ion cat, the
  logical-Z readout a 3-ion cat, and the Toffoli-state check a 7-ion cat
  coupled with a bitwise Toffoli.
* Encoded |0> preparation measures all six stabilizers, repeated
  ``STABILIZER_REPS`` = 3 times (the worst case), then reads out logical Z.
* The non-Clifford Toffoli teleports the three operands into a freshly
  prepared three-qubit resource state; on photonically linked hardware the
  teleport consumes ceil(7 / m_p) sequential Bell-pair slots per operand
  register at the TDM-multiplexed pair time, with ``m_p`` read from the
  layout.

Calibration: the only free knob of the execution-time model is the number of
error-correction rounds folded into each logical circuit step; it lives on the
layout (2 for the switched architecture, 3 for the repeater grid, 1 for the
bare nearest-neighbor machine), chosen so all published adder times are
reproduced within their stated tolerances.  With the defaults the level-1
logical Toffoli comes out at 2905 us on the switched architecture (target
3250 us, -10.6%) and the nearest-neighbor Toffoli step at 2132 us (target
2159 us, -1.3%).
"""

from __future__ import annotations

import json
import math
import operator
import sys
from enum import Enum
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping

from ._value import Value
from .arch import ArchLayout, MusiqcLayout
from .device import DeviceParams
from .errors import InsufficientConcatenation, ValidationError


#: Bell pairs an encoded teleport consumes per operand: one per code qubit.
PAIRS_PER_OPERAND = 7
#: Repetitions of the six stabilizer measurements in an encoded |0>
#: preparation and of the Toffoli-state check: the worst case.
STABILIZER_REPS = 3


class Primitive(Enum):
    PREP_ZERO = "prep_zero"
    TRANSVERSAL_SINGLE = "transversal_single"
    TRANSVERSAL_CNOT = "transversal_cnot"
    TOFFOLI = "toffoli"
    LOGICAL_MEASURE = "logical_measure"
    REMOTE_CNOT = "remote_cnot"
    ERROR_CORRECT_ROUND = "error_correct_round"


class Step(Value):
    """One entry of an audit trail: a named sub-operation with duration."""

    label: str
    duration: float
    count: int = 1

    @property
    def total(self) -> float:
        return self.duration * self.count


class CostEntry(Value):
    steps: tuple[Step, ...]
    qubits: int
    parallel_ops: int

    @cached_property
    def time(self) -> float:
        return sum(s.total for s in self.steps)


class _GateBasis(Value):
    """Durations of the building blocks one level below."""

    single: float
    cnot: float
    toffoli: float
    measure: float
    pair: float        # one Bell-pair slot between registers (0 = no link cost)
    tag: str           # label suffix naming the base level


class LogicalCostTable(Value):
    """Per-primitive time/qubit costs at one concatenation level.

    ``entries`` is a read-only mapping, so a table can be shared.
    """

    level: int
    layout: ArchLayout
    entries: Mapping[Primitive, CostEntry]
    footprint: int          # physical qubits per logical qubit (data + ancilla)
    pair_time: float        # Bell-pair slot the teleports one level up consume
    phi_plus_prep_time: float
    toffoli_teleport_time: float
    #: The teleported CNOT without its Bell-pair slots: the sum of
    #: ``_teleport_cnot_steps``, which also end the ``REMOTE_CNOT`` entry.
    cnot_teleport_time: float
    #: One physical entanglement-swapping step (CNOT + 2 singles + measure);
    #: comm units always operate on bare ions, so this does not lift.
    swap_step_time: float

    def time(self, primitive: Primitive) -> float:
        return self.entries[primitive].time

    @cached_property
    def adder_step_times(self) -> tuple[float, float, float]:
        """Durations of an adder's Toffoli, CNOT and X steps, each with the
        layout's folded error-correction rounds.

        A CNOT step is the remote CNOT on the switched layout and the same
        teleported CNOT without its Bell-pair slots elsewhere.
        """
        ec = self.layout.ec_rounds_per_step * self.time(
            Primitive.ERROR_CORRECT_ROUND)
        if isinstance(self.layout, MusiqcLayout):
            cnot = self.time(Primitive.REMOTE_CNOT)
        else:
            cnot = self.cnot_teleport_time
        return (self.time(Primitive.TOFFOLI) + ec, cnot + ec,
                self.time(Primitive.TRANSVERSAL_SINGLE) + ec)

    def to_json(self) -> str:
        payload = {
            "level": self.level,
            "layout": self.layout.kind,
            "stabilizer_reps": STABILIZER_REPS,
            "footprint_qubits": self.footprint,
            "pair_time_s": self.pair_time,
            "primitives": {
                prim.value: {
                    "time_s": entry.time,
                    "qubits": entry.qubits,
                    "parallel_ops": entry.parallel_ops,
                    "audit_trail": [
                        {"step": s.label, "duration_s": s.duration, "count": s.count}
                        for s in entry.steps
                    ],
                }
                for prim, entry in self.entries.items()
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _stabilizer_steps(basis: _GateBasis, cat_size: int, coupling: str,
                      count: int = 1) -> list[Step]:
    """Cat-state prep, one transversal coupling step, ancilla readout."""
    coupling_time = basis.toffoli if coupling == "toffoli" else basis.cnot
    return [
        Step(f"cat{cat_size} seed ({basis.tag} single)", basis.single, count),
        Step(f"cat{cat_size} growth chain ({basis.tag} cnot)", basis.cnot,
             (cat_size - 1) * count),
        Step(f"cat{cat_size} coupling ({basis.tag} {coupling})", coupling_time, count),
        Step(f"cat{cat_size} readout ({basis.tag} measure)", basis.measure, count),
    ]


def _pair_slots(ports: int) -> int:
    """Sequential Bell-pair slots of one encoded teleport over ``ports``."""
    return math.ceil(PAIRS_PER_OPERAND / ports)


def _link_steps(basis: _GateBasis, m_p: int) -> list[Step]:
    if basis.pair <= 0.0:
        return []
    return [Step(f"bell-pair slot ({basis.tag})", basis.pair,
                 _pair_slots(m_p))]


def _teleport_cnot_steps(basis: _GateBasis) -> list[Step]:
    return [
        Step(f"teleport cnot ({basis.tag})", basis.cnot, 1),
        Step(f"teleport readout ({basis.tag} measure)", basis.measure, 1),
        Step(f"teleport decode ({basis.tag} single)", basis.single, 1),
        Step(f"conditioned pauli ({basis.tag} single)", basis.single, 1),
    ]


def _build_table(basis: _GateBasis, level: int, layout: ArchLayout,
                 footprint_below: int,
                 swap_step_time: float) -> LogicalCostTable:
    m_p = layout.m_p

    prep_zero_steps = tuple(
        _stabilizer_steps(basis, 4, "cnot", count=6 * STABILIZER_REPS)
        + _stabilizer_steps(basis, 3, "cnot", count=1))
    prep_zero = CostEntry(prep_zero_steps, qubits=11 * footprint_below,
                          parallel_ops=4)

    single = CostEntry((Step(f"{basis.tag} single, bitwise x7", basis.single),),
                       qubits=7 * footprint_below, parallel_ops=7)
    cnot = CostEntry((Step(f"{basis.tag} cnot, bitwise x7", basis.cnot),),
                     qubits=14 * footprint_below, parallel_ops=7)
    measure = CostEntry(
        (Step(f"{basis.tag} measure, bitwise x7", basis.measure),
         Step(f"transversal decode ({basis.tag} single)", basis.single)),
        qubits=7 * footprint_below, parallel_ops=7)

    # Resource-state preparation for the teleported Toffoli: three encoded |0>
    # blocks prepared in parallel (each with its own ancillas), a transversal
    # Hadamard, then the 7-cat stabilizer check of the three-qubit state.
    phi_steps = (
        prep_zero_steps
        + (Step(f"transversal hadamard ({basis.tag} single)", basis.single),)
        + tuple(_stabilizer_steps(basis, 7, "toffoli",
                                 count=STABILIZER_REPS)))
    phi_time = sum(s.total for s in phi_steps)

    toffoli_tele_steps = (
        Step(f"operand teleport cnot ({basis.tag})", basis.cnot, 1),
        Step(f"operand readout ({basis.tag} measure)", basis.measure, 1),
        Step(f"operand decode ({basis.tag} single)", basis.single, 1),
        Step(f"conditioned pauli ({basis.tag} single)", basis.single, 1),
        Step(f"conditioned cnot ({basis.tag})", basis.cnot, 1),
        Step(f"conditioned cz ({basis.tag})", basis.cnot, 1),
    )
    toffoli_steps = phi_steps + tuple(_link_steps(basis, m_p)) + toffoli_tele_steps
    toffoli_tele_time = sum(s.total for s in toffoli_tele_steps)
    # Overhead beyond the three operand logical qubits: three resource logical
    # qubits plus the 7-ion cat.
    toffoli = CostEntry(tuple(toffoli_steps),
                        qubits=3 * 11 * footprint_below + 7,
                        parallel_ops=21)

    teleport_cnot_steps = _teleport_cnot_steps(basis)
    remote_steps = tuple(_link_steps(basis, m_p) + teleport_cnot_steps)
    remote = CostEntry(remote_steps, qubits=14 * footprint_below + 14,
                       parallel_ops=7)

    ec_steps = tuple(
        _stabilizer_steps(basis, 4, "cnot", count=6)
        + [Step(f"correction pauli ({basis.tag} single)", basis.single, 1)])
    ec_round = CostEntry(ec_steps, qubits=11 * footprint_below, parallel_ops=4)

    entries = {
        Primitive.PREP_ZERO: prep_zero,
        Primitive.TRANSVERSAL_SINGLE: single,
        Primitive.TRANSVERSAL_CNOT: cnot,
        Primitive.TOFFOLI: toffoli,
        Primitive.LOGICAL_MEASURE: measure,
        Primitive.REMOTE_CNOT: remote,
        Primitive.ERROR_CORRECT_ROUND: ec_round,
    }
    # Bell-pair slot one level up: seven pairs consumed per encoded pair,
    # pipelined over m_p channels, plus a transversal consolidation step.
    if basis.pair > 0.0:
        pair_up = (_pair_slots(m_p) * basis.pair
                   + basis.cnot + measure.time + basis.single)
    else:
        pair_up = 0.0

    return LogicalCostTable(
        level=level, layout=layout, entries=MappingProxyType(entries),
        footprint=11 * footprint_below,
        pair_time=pair_up, phi_plus_prep_time=phi_time,
        toffoli_teleport_time=toffoli_tele_time,
        cnot_teleport_time=sum(s.total for s in teleport_cnot_steps),
        swap_step_time=swap_step_time)


def level1_costs(params: DeviceParams, layout: ArchLayout) -> LogicalCostTable:
    """Level-1 cost table over the physical gate set of ``params``.

    On the photonically switched layout the Bell-pair slot is the remote
    entanglement time divided by the TDM multiplexity; the repeater-grid and
    nearest-neighbor layouts carry no link term in their gate costs (the grid
    pays for distribution separately, per travel-distance swap steps).
    """
    pair = 0.0
    if isinstance(layout, MusiqcLayout):
        pair = params.t_remote_entangle / layout.m_t
    basis = _GateBasis(single=params.t_single_gate, cnot=params.t_two_gate,
                       toffoli=params.t_toffoli, measure=params.t_measure,
                       pair=pair, tag="physical")
    swap = params.t_two_gate + 2 * params.t_single_gate + params.t_measure
    return _build_table(basis, level=1, layout=layout, footprint_below=1,
                        swap_step_time=swap)


def lift_level(table: LogicalCostTable) -> LogicalCostTable:
    """Recompose the primitives one concatenation level up.

    The level-(L+1) circuits are the level-1 circuits with every physical
    gate replaced by the corresponding level-L primitive; transversal gates
    keep their one-step cost, while preparation, measurement, Toffoli and
    Bell-pair costs grow.  Remote gates stay distance-independent on the
    switched layout.  On the repeater grid a lifted Bell pair is backed by a
    swap-chain distribution through the level-1 communication units.
    """
    layout = table.layout
    pair = table.pair_time
    if pair <= 0.0:
        pair = layout.lift_pair_swap_depth * table.swap_step_time
    basis = _GateBasis(
        single=table.time(Primitive.TRANSVERSAL_SINGLE),
        cnot=table.time(Primitive.TRANSVERSAL_CNOT),
        toffoli=table.time(Primitive.TOFFOLI),
        measure=table.time(Primitive.LOGICAL_MEASURE),
        pair=pair,
        tag=f"level-{table.level}")
    return _build_table(basis, level=table.level + 1, layout=layout,
                        footprint_below=table.footprint,
                        swap_step_time=table.swap_step_time)


def toffoli_cost(table: LogicalCostTable) -> dict:
    """Time and qubit overhead of one logical Toffoli at the table's level.

    ``qubits`` counts the ancilla overhead beyond the three operand logical
    qubits: three resource logical qubits plus the seven cat ions.
    """
    entry = table.entries[Primitive.TOFFOLI]
    return {
        "time": entry.time,
        "qubits": entry.qubits,
        "parallel_ops": entry.parallel_ops,
    }


def logical_error_at_level(level: int, eps_phys: float,
                           eps_threshold: float) -> float:
    """Concatenated logical error rate: eth * (eps/eth)^(2^level)."""
    if eps_phys == 0.0:
        return 0.0
    return eps_threshold * (eps_phys / eps_threshold) ** (2 ** level)


#: Highest concatenation level the factoring roll-up selects.
MAX_CONCAT_LEVEL = 3
#: The factoring roll-up's defaults, both model inputs, not measured device
#: properties: the physical error per operation and the code's
#: concatenation threshold.
EPS_PHYS = 1e-7
EPS_THRESHOLD = 1e-4


def required_concat_level(k_ops: int, q_logical: int, eps_phys: float,
                          eps_threshold: float = EPS_THRESHOLD) -> int:
    """Smallest concatenation level whose logical error meets 1 / (K Q)."""
    # comparisons that NaN fails; inf or 2.5 then raises TypeError
    if not (k_ops >= 1 and q_logical >= 1):
        raise ValidationError("K and Q must be at least 1")
    kq = operator.index(k_ops) * operator.index(q_logical)
    if kq > sys.float_info.max:
        raise ValidationError("K*Q must lie within the float range")
    if not 0 <= eps_phys < math.inf:       # also rejects NaN
        raise ValidationError("eps_phys must be finite and non-negative")
    if not 0 < eps_threshold < math.inf:
        raise ValidationError("eps_threshold must be finite and positive")
    if eps_phys >= eps_threshold:
        raise ValidationError("eps_phys must be below eps_threshold")
    target = 1.0 / kq
    for level in range(1, MAX_CONCAT_LEVEL + 1):
        if logical_error_at_level(level, eps_phys, eps_threshold) <= target:
            return level
    raise InsufficientConcatenation(
        f"no level up to {MAX_CONCAT_LEVEL} reaches a logical error of "
        f"{target:.3g} (K={k_ops}, Q={q_logical}, eps={eps_phys:g})")


def table_at_level(params: DeviceParams, layout: ArchLayout,
                   level: int) -> LogicalCostTable:
    """The layout's cost table at ``level``, 1 to ``MAX_CONCAT_LEVEL``.

    A table is built once per distinct (device parameters, layout, level) in
    a process, lifted from the one at the level below, and shared by every
    caller that asks for it, so it is read-only.  A level that is not an
    integer, such as 2.0, raises ``TypeError``.
    """
    if not 1 <= level <= MAX_CONCAT_LEVEL:
        raise ValidationError(
            f"level {level} outside [1, {MAX_CONCAT_LEVEL}]")
    return _shared_table(params, layout, operator.index(level))


#: Tables kept by ``table_at_level``: three layouts at three levels for a
#: few device parameter sets.
_TABLES_KEPT = 32


@lru_cache(maxsize=_TABLES_KEPT)
def _shared_table(params: DeviceParams, layout: ArchLayout,
                  level: int) -> LogicalCostTable:
    if level == 1:
        return level1_costs(params, layout)
    return lift_level(_shared_table(params, layout, level - 1))

"""Hardware layout descriptions for the three architectures under comparison.

Each layout carries its published resource-count formulas plus the calibration
constants of the execution-time model (see :mod:`ionarch.steane` for how the
per-step gate costs are built).  The constants are class constants, the one
source every module reads; a layout takes no arguments.  The
``ec_rounds_per_step`` constant is the one calibrated quantity: the number of
syndrome-extraction rounds folded into each logical time step of an adder.
"""

from __future__ import annotations

from typing import ClassVar

from ._value import Value
from .errors import ValidationError


class _Layout(Value):
    """Link constants every layout answers; a layout overrides what differs."""

    #: Ports per remote peer: an encoded teleport's seven Bell pairs are
    #: pipelined over ``m_p`` channels, each ``m_t``-fold time multiplexed.
    m_p: ClassVar[int] = 2
    m_t: ClassVar[int] = 10
    #: Swap-chain depth behind a Bell pair of a lifted level (0: none).
    lift_pair_swap_depth: ClassVar[int] = 0


class MusiqcLayout(_Layout):
    """Photonically linked registers behind a reconfigurable optical switch.

    One 100-ion register hosts 3 logical qubits (with 4 shared-ancilla ions
    each) plus 60 communication ions feeding 6 optical ports: 2 ports per
    remote peer (``m_p``) with 10-fold time-division multiplexing (``m_t``).
    """

    kind: ClassVar[str] = "musiqc"
    ec_rounds_per_step: ClassVar[int] = 2
    #: Ions of one register; its ``m_p * m_t`` communication ions share them.
    register_ions: ClassVar[int] = 100

    def qubits(self, n: int) -> int:
        return 150 * n

    def parallel_ops(self, n: int) -> int:
        return 18 * n


class QlaLayout(_Layout):
    """Nearest-neighbor grid of logic units embedded in repeater comm units.

    A logic unit is a 7x7 patch holding 4 logical qubits; six of them form a
    logic block ringed by 18 7x7 communication units (882 comm qubits, 441
    simultaneous CNOTs per block).  The qubit count per adder bit is the
    published 1176n.
    """

    kind: ClassVar[str] = "qla"
    ec_rounds_per_step: ClassVar[int] = 3
    #: Swap-chain depth assumed when a lifted level consumes a distributed
    #: Bell pair through the comm units (typical nested-swapping depth).
    lift_pair_swap_depth: ClassVar[int] = 5

    def qubits(self, n: int) -> int:
        return 1176 * n

    def parallel_ops(self, n: int) -> int:
        return 110 * n


class NnLayout(_Layout):
    """Strictly nearest-neighbor hardware running a ripple-carry adder."""

    kind: ClassVar[str] = "nn"
    ec_rounds_per_step: ClassVar[int] = 1

    def qubits(self, n: int) -> int:
        return 20 * (n + 1)

    def parallel_ops(self, n: int) -> int:
        return 8 * n + 43


ArchLayout = MusiqcLayout | QlaLayout | NnLayout

#: Each layout by its name, the ``--arch`` choices of ``estimate-adder``.
_LAYOUTS = {layout.kind: layout
            for layout in (MusiqcLayout, QlaLayout, NnLayout)}


def layout_from_name(name: str) -> ArchLayout:
    try:
        return _LAYOUTS[name.lower()]()
    except KeyError:
        raise ValidationError(
            f"unknown architecture {name!r}; expected one of {sorted(_LAYOUTS)}") from None

"""Physical-layer device model: trap timescales and heralded photonic link formulas.

All durations are kept in seconds internally.  The default parameter set is the
standard trapped-ion operating point: 1/10/10/30 us local primitives, 3 ms
remote entanglement generation, and a photonic interface with weak-excitation
(one-photon) or coincidence (two-photon) heralding.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

from .errors import ValidationError, ZeroSuccessProbability

TWO_PI = 2.0 * math.pi

#: Reduced Planck constant, CODATA value (J s).
HBAR = 1.054571817e-34

_MICRO = 1e-6


class LinkType(Enum):
    """Heralded entanglement protocol family."""

    TYPE_I = "type1"    # single-photon interference, weak excitation
    TYPE_II = "type2"   # two-photon coincidence


@dataclass(frozen=True)
class DeviceParams:
    """Trap and photonic-interface parameters.

    Durations in seconds, rates in Hz, ``gamma`` in rad/s.  ``repetition_rate``
    defaults to one tenth of the linewidth in cycles (0.1 * gamma / 2pi) when
    left as None.
    """

    t_single_gate: float = 1.0 * _MICRO
    t_two_gate: float = 10.0 * _MICRO
    t_toffoli: float = 10.0 * _MICRO
    t_measure: float = 30.0 * _MICRO
    t_remote_entangle: float = 3000.0 * _MICRO

    gamma: float = TWO_PI * 20e6
    repetition_rate: float | None = None
    dark_rate: float = 0.0

    p_excite: float = 0.05
    solid_angle_fraction: float = 0.01
    detector_efficiency: float = 0.2

    reinit_time: float = 1.0 * _MICRO

    def __post_init__(self):
        # comparisons are written so that NaN fails them
        for name in ("t_single_gate", "t_two_gate", "t_toffoli", "t_measure",
                     "t_remote_entangle", "reinit_time", "gamma"):
            value = getattr(self, name)
            if not value > 0:
                raise ValidationError(f"{name} must be positive, got {value}")
        for name in ("p_excite", "solid_angle_fraction", "detector_efficiency"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1], got {value}")
        rate = self.repetition_rate
        if rate is not None and not 0 < rate < math.inf:
            raise ValidationError(
                f"repetition_rate must be positive and finite, got {rate}")
        if not self.dark_rate >= 0:
            raise ValidationError(
                f"dark_rate must be non-negative, got {self.dark_rate}")

    @property
    def rep_rate(self) -> float:
        """Excitation repetition rate in Hz (default 0.1 * gamma / 2pi)."""
        if self.repetition_rate is not None:
            return self.repetition_rate
        return 0.1 * self.gamma / TWO_PI


#: Weak-excitation validity guard for one-photon links; beyond this the
#: truncated single-excitation expansion is no longer a sensible model.
TYPE_I_MAX_EXCITE = 0.25


@dataclass(frozen=True)
class LinkModel:
    """A heralded link of a given type over a device parameter set."""

    kind: LinkType
    params: DeviceParams

    def __post_init__(self):
        if self.kind is LinkType.TYPE_I and self.params.p_excite > TYPE_I_MAX_EXCITE:
            raise ValidationError(
                f"type-I links require weak excitation (p_excite <= {TYPE_I_MAX_EXCITE}), "
                f"got {self.params.p_excite}")


@dataclass(frozen=True)
class EluPhysics:
    """Optional gate-speed physics for a single multi-ion register.

    The register's entangling-gate rate is set by the state-dependent force on
    the shared motional mode; the Rabi frequency is taken directly as an input.
    """

    wavenumber: float          # 1/m
    ion_mass: float            # kg
    mode_frequency: float      # rad/s
    rabi_frequency: float      # rad/s
    n_qubits: int = field(default=1)

    def __post_init__(self):
        for name in ("wavenumber", "ion_mass", "mode_frequency"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if self.rabi_frequency < 0:
            raise ValidationError("rabi_frequency must be non-negative")
        if self.n_qubits < 1:
            raise ValidationError("n_qubits must be at least 1")
        if self.lamb_dicke >= 1.0:
            warnings.warn(
                f"Lamb-Dicke parameter {self.lamb_dicke:.3g} >= 1; "
                "gate-rate formula is outside its validity regime",
                stacklevel=2)

    @property
    def lamb_dicke(self) -> float:
        return math.sqrt(
            HBAR * self.wavenumber**2
            / (2.0 * self.ion_mass * self.n_qubits * self.mode_frequency))


def link_success_probability(link: LinkModel) -> float:
    """Per-attempt heralding probability of the link."""
    p = link.params
    collected = p.p_excite * p.solid_angle_fraction * p.detector_efficiency
    if link.kind is LinkType.TYPE_I:
        return collected
    return collected**2 / 2.0


def mean_connection_time(link: LinkModel) -> float:
    """Mean time to herald one entangled pair, 1 / (R p)."""
    p = link_success_probability(link)
    if p <= 0.0:
        raise ZeroSuccessProbability(
            "link success probability is zero; connection time diverges")
    return 1.0 / (link.params.rep_rate * p)


def effective_connection_time(tau_e: float, m_p: int, m_t: int) -> float:
    """Mean pair time with ``m_p`` parallel ports and ``m_t``-fold TDM per port."""
    if m_p < 1 or m_t < 1:
        raise ValidationError("multiplexities must be at least 1")
    if tau_e < 0:
        raise ValidationError("connection time must be non-negative")
    return tau_e / (m_p * m_t)


def type1_error_terms(params: DeviceParams) -> tuple[float, float]:
    """Residual infidelity terms of a heralded one-photon link.

    Returns ``(p_double, p_dark)``: the double-excitation probability and the
    dark-count error, p_excite**2 and dark_rate / gamma.
    """
    return params.p_excite**2, params.dark_rate / params.gamma


def elu_gate_rate(phys: EluPhysics) -> float:
    """Characteristic entangling-gate rate eta * Omega of a register (rad/s).

    Scales as 1/sqrt(n_qubits) through the Lamb-Dicke parameter.
    """
    return phys.lamb_dicke * phys.rabi_frequency

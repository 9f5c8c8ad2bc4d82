"""Physical-layer device model: trap timescales and heralded photonic link formulas.

All durations are kept in seconds internally.  The default parameter set is the
standard trapped-ion operating point: 1/10/10/30 us local primitives, 3 ms
remote entanglement generation, and a photonic interface with weak-excitation
(one-photon) or coincidence (two-photon) heralding.
"""

from __future__ import annotations

import math
from enum import Enum

from ._value import Value
from .errors import ValidationError, ZeroSuccessProbability

TWO_PI = 2.0 * math.pi

_MICRO = 1e-6


class LinkType(Enum):
    """Heralded entanglement protocol family."""

    TYPE_I = "type1"    # single-photon interference, weak excitation
    TYPE_II = "type2"   # two-photon coincidence


class DeviceParams(Value):
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

    p_excite: float = 0.05
    solid_angle_fraction: float = 0.01
    detector_efficiency: float = 0.2

    reinit_time: float = 1.0 * _MICRO

    def __post_init__(self):
        # comparisons are written so that NaN fails them
        for name in ("t_single_gate", "t_two_gate", "t_toffoli", "t_measure",
                     "t_remote_entangle", "reinit_time", "gamma"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValidationError(
                    f"{name} must be positive and finite, got {value}")
        for name in ("p_excite", "solid_angle_fraction", "detector_efficiency"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1], got {value}")
        rate = self.repetition_rate
        if rate is not None and not 0 < rate < math.inf:
            raise ValidationError(
                f"repetition_rate must be positive and finite, got {rate}")

    @property
    def rep_rate(self) -> float:
        """Excitation repetition rate in Hz (default 0.1 * gamma / 2pi)."""
        if self.repetition_rate is not None:
            return self.repetition_rate
        return 0.1 * self.gamma / TWO_PI


#: Weak-excitation validity guard for one-photon links; beyond this the
#: truncated single-excitation expansion is no longer a sensible model.
TYPE_I_MAX_EXCITE = 0.25


class LinkModel(Value):
    """A heralded link of a given type over a device parameter set."""

    kind: LinkType
    params: DeviceParams

    def __post_init__(self):
        # any other kind would take the two-photon formula unnoticed
        if not isinstance(self.kind, LinkType):
            raise ValidationError(
                f"link kind must be a LinkType, got {self.kind!r}")
        if not isinstance(self.params, DeviceParams):
            raise ValidationError(
                f"link params must be a DeviceParams, got {self.params!r}")
        if self.kind is LinkType.TYPE_I and self.params.p_excite > TYPE_I_MAX_EXCITE:
            raise ValidationError(
                f"type-I links require weak excitation (p_excite <= {TYPE_I_MAX_EXCITE}), "
                f"got {self.params.p_excite}")


def link_success_probability(link: LinkModel) -> float:
    """Per-attempt heralding probability of the link."""
    p = link.params
    collected = p.p_excite * p.solid_angle_fraction * p.detector_efficiency
    if link.kind is LinkType.TYPE_I:
        return collected
    return collected**2 / 2.0


def _nonzero_success_probability(link: LinkModel) -> float:
    """The link's success probability, which ``DeviceParams`` keeps in
    [0, 1/2]; a zero one, which never heralds a pair, is refused."""
    p = link_success_probability(link)
    if p == 0.0:
        raise ZeroSuccessProbability("link success probability is zero")
    return p


def mean_connection_time(link: LinkModel) -> float:
    """Mean time to herald one entangled pair, 1 / (R p)."""
    return 1.0 / (link.params.rep_rate * _nonzero_success_probability(link))

"""Flat ``key = value`` run configuration.

UTF-8 text, ``#`` comments, one dotted key per line (``device.gamma_hz = 20e6``).
Unknown keys are rejected before any run starts.  Precedence everywhere is
CLI flag > config file > documented default.
"""

from __future__ import annotations

from .device import _MICRO, TWO_PI, DeviceParams
from .errors import ValidationError

# device key -> (DeviceParams field, scale to SI units)
_DEVICE_KEYS = {
    "device.t_single_gate_us": ("t_single_gate", _MICRO),
    "device.t_two_gate_us": ("t_two_gate", _MICRO),
    "device.t_toffoli_us": ("t_toffoli", _MICRO),
    "device.t_measure_us": ("t_measure", _MICRO),
    "device.t_remote_entangle_us": ("t_remote_entangle", _MICRO),
    "device.gamma_hz": ("gamma", TWO_PI),     # linewidth over 2*pi, in Hz
    "device.repetition_rate_hz": ("repetition_rate", 1.0),
    "device.p_excite": ("p_excite", 1.0),
    "device.solid_angle_fraction": ("solid_angle_fraction", 1.0),
    "device.detector_efficiency": ("detector_efficiency", 1.0),
    "device.reinit_time_us": ("reinit_time", _MICRO),
}

# run key -> the documented default, which a flag or the config file overrides
_RUN_DEFAULTS = {"run.seed": 1, "run.samples": 100000, "run.pairs": 10}

# key -> type
KNOWN_KEYS = {**dict.fromkeys(_DEVICE_KEYS, float),
              **dict.fromkeys(_RUN_DEFAULTS, int)}


def parse_config_text(text: str) -> dict:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in KNOWN_KEYS:
            raise ValidationError(f"config line {lineno}: unknown key {key!r}")
        caster = KNOWN_KEYS[key]
        try:
            values[key] = caster(value)
        except ValueError:
            raise ValidationError(
                f"config line {lineno}: cannot parse {value!r} as {caster.__name__}") from None
    return values


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def device_from_config(cfg: dict, **overrides) -> DeviceParams:
    """Build DeviceParams from config values plus explicit overrides.

    ``overrides`` use DeviceParams field names with values in SI units and
    win over the config file; ``None`` overrides are ignored.
    """
    kwargs = {}
    for key, (field, scale) in _DEVICE_KEYS.items():
        if key in cfg:
            kwargs[field] = cfg[key] * scale
    for field, value in overrides.items():
        if value is not None:
            kwargs[field] = value
    return DeviceParams(**kwargs)


def resolve(flag_value, cfg: dict, key: str):
    """CLI flag > config value > the run key's documented default."""
    if flag_value is not None:
        return flag_value
    return cfg.get(key, _RUN_DEFAULTS[key])

"""Resource estimation and simulation for modular trapped-ion architectures."""

from .arch import ArchLayout, MusiqcLayout, NnLayout, QlaLayout, layout_from_name
from .device import (DeviceParams, LinkModel, LinkType,
                     link_success_probability, mean_connection_time)
from .errors import (DomainError, InsufficientConcatenation, NTooSmall,
                     ValidationError, ZeroSuccessProbability)
from .steane import (LogicalCostTable, Primitive, level1_costs, lift_level,
                     required_concat_level, table_at_level, toffoli_cost)

__all__ = [
    "ArchLayout", "MusiqcLayout", "NnLayout", "QlaLayout", "layout_from_name",
    "DeviceParams", "LinkModel", "LinkType", "link_success_probability",
    "mean_connection_time",
    "DomainError", "InsufficientConcatenation", "NTooSmall",
    "ValidationError", "ZeroSuccessProbability",
    "LogicalCostTable", "Primitive", "level1_costs",
    "lift_level", "required_concat_level", "table_at_level", "toffoli_cost",
]

__version__ = "0.1.0"

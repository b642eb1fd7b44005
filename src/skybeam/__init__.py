"""System-level planner for 5G broadcast beams along UAV aerial highways.

Builds a hexagonal massive-MIMO deployment with statistical urban-macro
channels, scores every corridor segment against every cell with a
multiplexing-aware metric, and runs an elite genetic search that retargets
one broadcast beam per designated cell to maximize the worst-case coverage
SINR along the corridor while protecting ground users.
"""

__version__ = "0.1.0"

from .config import ChannelParams, ConfigError, RadioConfig, default_config, load_config
from .scenario import (
    AerialHighway,
    DegenerateHighway,
    Scenario,
    Sector,
    UpaGeometry,
    scenario_from_config,
)

__all__ = [
    "AerialHighway",
    "ChannelParams",
    "ConfigError",
    "DegenerateHighway",
    "RadioConfig",
    "Scenario",
    "Sector",
    "UpaGeometry",
    "default_config",
    "load_config",
    "scenario_from_config",
    "__version__",
]

"""One module per paper table/figure; see DESIGN.md's experiment index."""

from .common import (
    ExperimentRun,
    building_config,
    get_building_run,
    get_small_run,
    small_config,
)
from .scenarios import get_family_run

__all__ = [
    "ExperimentRun",
    "building_config",
    "get_building_run",
    "get_small_run",
    "small_config",
    "get_family_run",
]

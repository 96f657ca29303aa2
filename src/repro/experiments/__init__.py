"""One module per paper table/figure; README.md's "Experiments" indexes them."""

from .common import ExperimentRun, building_config, get_building_run
from .scenarios import get_family_run

__all__ = [
    "ExperimentRun",
    "building_config",
    "get_building_run",
    "get_family_run",
]

"""repro — a full reproduction of Jigsaw (SIGCOMM 2006).

Jigsaw merges traces from 150+ passive 802.11 radio monitors into a single
microsecond-synchronized global trace and reconstructs link- and
transport-layer conversations from it.  This package implements both the
Jigsaw algorithms (:mod:`repro.core`) and the substrates they need — an
802.11b/g MAC/PHY simulator, a building-scale scenario generator, imperfect
monitor clocks, and a jigdump-style trace format — so that the paper's
entire pipeline and evaluation can run on a laptop.

Quickstart::

    from repro.sim import ScenarioConfig, run_scenario
    from repro.core import JigsawPipeline

    artifacts = run_scenario(ScenarioConfig.small(seed=7))
    report = JigsawPipeline().run(artifacts.radio_traces)
    print(report.summary())
"""

from .core import (
    HealthReport,
    JFrame,
    JigsawPipeline,
    JigsawReport,
    MaterializePass,
    PassContext,
    PipelinePass,
    run_passes,
)
from .jtrace import RadioTrace, RecordKind, TraceRecord

__version__ = "1.0.0"

# The headline API, re-exported so the quickstart's imports resolve from
# the package root.  The package ships a ``py.typed`` marker (PEP 561):
# downstream type checkers see these names with their full annotations.
__all__ = [
    "HealthReport",
    "JFrame",
    "JigsawPipeline",
    "JigsawReport",
    "MaterializePass",
    "PassContext",
    "PipelinePass",
    "RadioTrace",
    "RecordKind",
    "TraceRecord",
    "run_passes",
    "__version__",
]

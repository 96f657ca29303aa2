"""Suite-wide fixtures."""

import os

import pytest

from helpers import small_passes
from repro.core.pipeline import JigsawPipeline
from repro.sim import ScenarioConfig, run_scenario


@pytest.fixture(scope="session")
def small_run():
    """(config, artifacts, report): a small scenario with 802.11b clients
    and frequent rescans, reconstructed once with ``small_passes``
    registered, so every analysis reads its result off ``report.passes``."""
    config = ScenarioConfig.small(
        seed=99, fraction_11b_clients=0.3, client_rescan_interval_us=800_000
    )
    artifacts = run_scenario(config)
    report = JigsawPipeline().run(
        artifacts.radio_traces,
        clock_groups=artifacts.clock_groups(),
        passes=small_passes(config, artifacts.wired_trace),
    )
    return config, artifacts, report


@pytest.fixture(autouse=True)
def no_unreaped_children(request):
    """A ``service`` test leaves no child process behind: the library
    starts no process, so a child still here is one it should not have
    started."""
    yield
    if request.node.get_closest_marker("service") is not None:
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

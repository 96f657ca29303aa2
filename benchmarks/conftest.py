"""Shared benchmark fixtures.

One building-scale scenario (the paper's fleet: ~39 pods / 156 radios over
four floors) is simulated and reconstructed once per session; each
table/figure benchmark then times its analysis against that shared run and
prints the paper-vs-measured comparison.
"""

import pytest

from repro.experiments.common import get_building_run, get_small_run


@pytest.fixture(scope="session")
def building_run():
    return get_building_run()


@pytest.fixture(scope="session")
def small_run():
    return get_small_run()

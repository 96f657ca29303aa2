"""Suite-wide fixtures."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_unreaped_children(request):
    """A ``service`` test leaves no child process behind: every
    checkpoint writer a daemon forks is reaped before ``serve()``
    returns or raises."""
    yield
    if request.node.get_closest_marker("service") is not None:
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

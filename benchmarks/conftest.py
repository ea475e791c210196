"""Benchmark-suite configuration.

Each benchmark regenerates one of the paper's tables or figures and
prints the corresponding report (run with ``-s`` to see them inline);
pytest-benchmark records the harness runtimes.  Keep parameters modest:
the goal is the paper's *shape*, reproduced in seconds, not hours.
"""

import pytest


@pytest.fixture
def report(capsys):
    """Print a report so it survives pytest's capture (shown with -s)."""

    def emit(text: str) -> None:
        with capsys.disabled():
            print("\n" + text)

    return emit

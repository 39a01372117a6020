"""Options and fixtures for the golden harness (``bench_experiments.py``).

Experiments run in quick mode unless ``--full-experiments`` is given.
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--full-experiments",
        action="store_true",
        default=False,
        help="run experiments at paper-length durations instead of quick mode",
    )


@pytest.fixture(scope="session")
def quick(request) -> bool:
    return not request.config.getoption("--full-experiments")

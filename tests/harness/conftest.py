"""The harness's scaffolding, once for every file in it.

A test that takes ``seed`` runs the pinned seed matrix, or only the
seed ``--seed N`` names; ``sanitize`` is the ``--sanitize`` switch.
"""

import pytest

from tests.harness.schedule import harness_seeds


def pytest_generate_tests(metafunc):
    if "seed" in metafunc.fixturenames:
        metafunc.parametrize("seed", harness_seeds(metafunc.config))


@pytest.fixture
def sanitize(request):
    return request.config.getoption("--sanitize")

"""Fixtures shared across test modules."""

import pytest

from afterimage.experiments import mitigation_sweep


@pytest.fixture(scope="session")
def default_sweep():
    # the default workload (144,000 loads) at the default period and
    # 1, 2 and 4 ports; the tests that take it only read its reports
    return mitigation_sweep(points=[(36_000, ports) for ports in (1, 2, 4)])

import pytest

from shiftopt import Scenario, plan


@pytest.fixture(scope="session")
def headline_scenario():
    """The headline instance: one week in hours, 10 drivers, 5 shifts of 8h."""
    return Scenario(T=168, N=10, s=5, delta=8, beta=8, d_max=10.0, a=2.0, c_veh=10)


@pytest.fixture(scope="session")
def headline_result(headline_scenario):
    return plan(headline_scenario)


@pytest.fixture(scope="session")
def large_fleet_scenario():
    """The largest large-fleet week: 400 drivers, as many vehicles."""
    return Scenario(T=168, N=400, s=5, delta=8, beta=8, d_max=400.0, a=2.0, c_veh=400)


@pytest.fixture(scope="session")
def large_fleet_result(large_fleet_scenario):
    return plan(large_fleet_scenario)

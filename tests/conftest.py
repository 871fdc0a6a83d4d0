"""Shared test fixtures."""

import pytest

from toplax import specfun as sf


@pytest.fixture
def theta_orders(monkeypatch):
    """The order (upto) of every theta series summed during the test, in
    call order: specfun.theta_sum is wrapped for the test's duration."""
    orders = []
    kernel = sf.theta_sum

    def counted(*args):
        orders.append(args[2])
        return kernel(*args)

    monkeypatch.setattr(sf, "theta_sum", counted)
    return orders

"""Shared test fixtures."""

import functools
import inspect

import pytest

from toplax import rmatrix as rm
from toplax import specfun as sf

# the family methods that evaluate a kernel, and the argument that holds
# the derivative orders of those that take them
FAMILY_METHODS = ("R", "r", "m", "m0", "Rz_coefficients")
ORDER_ARGUMENTS = {"R": "dz", "r": "d"}


@pytest.fixture
def theta_calls(monkeypatch):
    """(batch, upto) of every theta series summed during the test, in call
    order: specfun.theta_sum is wrapped for the test's duration."""
    calls = []
    kernel = sf.theta_sum

    def counted(*args):
        calls.append((args[0], args[2]))
        return kernel(*args)

    monkeypatch.setattr(sf, "theta_sum", counted)
    return calls


@pytest.fixture
def family_calls(monkeypatch):
    """(method name, arguments, orders) of every family evaluation made
    during the test from outside the family, in call order.

    Each method in FAMILY_METHODS is wrapped on every family class that
    defines it.  The orders are those R or r was asked for, with the
    default filled in (0 or a tuple such as (0, 1)), and None for the other
    methods; the arguments are the rest.  A call made while another wrapped
    method runs (r inside Rz_coefficients) is not recorded.
    """
    calls = []
    depth = [0]

    def wrap(name, method):
        signature = inspect.signature(method)

        @functools.wraps(method)
        def counted(self, *args, **kwargs):
            if depth[0] == 0:
                bound = signature.bind(self, *args, **kwargs)
                bound.apply_defaults()
                values = dict(bound.arguments)
                del values["self"]
                orders = values.pop(ORDER_ARGUMENTS.get(name), None)
                calls.append((name, tuple(values.values()), orders))
            depth[0] += 1
            try:
                return method(self, *args, **kwargs)
            finally:
                depth[0] -= 1
        return counted

    classes = [cls for cls in vars(rm).values() if inspect.isclass(cls)
               and issubclass(cls, rm.RMatrixFamily)]
    for cls in classes:
        for name in FAMILY_METHODS:
            if name in vars(cls):
                monkeypatch.setattr(cls, name, wrap(name, vars(cls)[name]))
    return calls

"""Shared test fixtures."""

import functools
import inspect

import pytest

from toplax import rmatrix as rm
from toplax import specfun as sf

# the family methods that evaluate a kernel
FAMILY_METHODS = ("R", "F", "R_with_F", "r", "m", "m0", "Rz_coefficients",
                  "F0", "F0_with_derivative")


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
    """(method name, arguments) of every family evaluation made during the
    test from outside the family, in call order.

    Each method in FAMILY_METHODS is wrapped on every family class that
    defines it; a call made while another wrapped method runs (R and F
    inside the generic R_with_F, r inside Rz_coefficients) is not recorded.
    """
    calls = []
    depth = [0]

    def wrap(name, method):
        @functools.wraps(method)
        def counted(self, *args, **kwargs):
            if depth[0] == 0:
                calls.append((name, args))
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

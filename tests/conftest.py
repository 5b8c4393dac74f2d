"""Fixtures shared by the test modules."""

from __future__ import annotations

import sys

import pytest

from pensionsim import stochastic


@pytest.fixture
def special(request, monkeypatch):
    """Serve ndtri and exp as the test's parameter says, by setting the switch's state.

    "scipy": scipy.special serves. "port": the numpy port serves, as in a
    process that has not loaded scipy.special and has budget left. An int:
    the port serves calls until that many values are charged to it, then
    scipy.special does.
    """
    stochastic._scipy_functions()  # loaded now, so the switch imports nothing mid-test
    if request.param == "scipy":
        monkeypatch.setattr(stochastic, "_port_left", None)
    else:
        monkeypatch.delitem(sys.modules, "scipy.special")
        budget = 2**62 if request.param == "port" else request.param
        monkeypatch.setattr(stochastic, "_port_left", budget)
    yield request.param
    if request.param == "port":
        assert stochastic._port_left is not None, "scipy.special served a call"

"""Fixtures shared by the test modules."""

from __future__ import annotations

import sys
from collections import Counter

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


@pytest.fixture
def port_calls(monkeypatch):
    """Count the calls on the numpy port's ndtri and exp, by function name."""
    calls = Counter()
    for name in ("_ndtri_port", "_exp_port"):
        def counted(*args, _name=name, _port=getattr(stochastic, name), **kwargs):
            calls[_name] += 1
            return _port(*args, **kwargs)

        monkeypatch.setattr(stochastic, name, counted)
    return calls

"""Fixtures shared by the test modules."""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from pensionsim import engine, stochastic


@pytest.fixture(autouse=True)
def fresh_switch(monkeypatch):
    """Start each test with the switch as a fresh process has it, whatever ran before.

    The port's whole budget is left and scipy.special is not in sys.modules,
    so the test's first calls go to the port. scipy's functions are loaded
    before the test, so that a test that turns to scipy never pays the import.
    """
    stochastic._scipy_functions()
    monkeypatch.delitem(sys.modules, "scipy.special", raising=False)
    monkeypatch.setattr(stochastic, "_port_left", stochastic._PORT_BUDGET)


@pytest.fixture(autouse=True)
def no_helper_after():
    """Stop the engine's helper process after each test, so that the next test
    forks its own, and no test's patches or switch state reach another's runs."""
    yield
    engine._stop_helper()


@pytest.fixture
def special(request, monkeypatch):
    """Serve ndtri and exp as the test's parameter says, by setting the switch's state.

    "scipy": scipy.special serves. "port": the numpy port serves, as in a
    process that has not loaded scipy.special and has budget left. An int:
    the port serves calls until that many values are charged to it, then
    scipy.special does.
    """
    budget = {"scipy": None, "port": 2**62}.get(request.param, request.param)
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

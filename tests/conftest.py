"""Fixtures shared by the test modules."""

from __future__ import annotations

import sys

import pytest

from pensionsim import _helper, stochastic


@pytest.fixture(autouse=True)
def no_helper_after():
    """Stop the helper process after each test, so that the next test forks
    its own, and no test's patches reach another's runs."""
    yield
    _helper._stop_helper()


@pytest.fixture
def special(request):
    """The implementation of ndtri and exp that the test's parameter names:
    "scipy", scipy's compiled ufuncs, the one that serves every process.
    After the test, the ufuncs the loader serves are scipy.special._ufuncs'."""
    assert request.param == "scipy", request.param
    yield request.param
    ufuncs = sys.modules["scipy.special._ufuncs"]
    served = stochastic._special()
    assert (served.ndtri, served.inv_boxcox) == (ufuncs.ndtri, ufuncs.inv_boxcox)

"""The benchmark's tracer must still find every function it wraps.

`bench/tracing.py` patches each name in its WRAPPED table where
`pensionsim.engine` or `pensionsim.io_cli` binds it; a refactor that
unbinds one breaks `bench/run.py --trace 1`. This test fails first.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_wraps_every_traced_name_and_restores_it(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    # a traced name that already carries __wrapped__ (a decorator) would
    # read as a wrapper left installed
    assert tracing.installed_wrappers() == []
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = {name.rsplit(".", 1)[1] for name in tracing.installed_wrappers()}
    finally:
        tracer.restore()
    assert wrapped == {attr for attr, _, _ in tracing.WRAPPED}
    assert tracing.installed_wrappers() == []

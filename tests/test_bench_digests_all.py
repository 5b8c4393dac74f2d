"""`path` must print the bytes of every seed bench/digests.json ships.

tests/test_bench_digests.py checks the first 8 path-detail seeds in tier-1.
This checks all 100, 25,600 `path` requests, which take about 18 s on a
2-vCPU VM, so it is marked slow: run it with `pytest -m slow`.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from pensionsim import io_cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(100))
def test_path_stdout_matches_every_shipped_digest(tmp_path, monkeypatch, seed):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    workload = workloads.WORKLOADS["path-detail"]
    inputs = workloads.make_inputs(workload, seed, tmp_path)
    ops = [
        workloads.run_op(io_cli.cli_main, argv, inputs.out, workload.command)
        for argv in inputs.argvs
    ]
    assert [(code, stderr) for code, _, _, stderr in ops] == [(0, "")] * len(ops)
    digest = workloads.pool_digest([digest for _, _, digest, _ in ops])
    assert digest == workloads.shipped_digest(workload, seed)

"""`path` must print the bytes whose digests bench/digests.json ships.

`bench/record_digests.py` recorded those digests from the scalar engine of
an earlier commit, so they pin `path`'s bytes apart from today's
`run_path_detail`, which `bench/workloads.py`'s oracle rebuilds them from.
Each path-detail seed's digest covers a pool of 256 path indices. Tier-1
checks the first 8 seeds; the other 92, 23,552 `path` requests that take
about 11 s on a 2-vCPU VM, are marked slow: run them with `pytest -m slow`.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from pensionsim import io_cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize(
    "seed",
    [*range(8), *(pytest.param(seed, marks=pytest.mark.slow) for seed in range(8, 100))],
)
def test_path_stdout_matches_the_shipped_digests(tmp_path, monkeypatch, seed):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    workload = workloads.WORKLOADS["path-detail"]
    inputs = workloads.make_inputs(workload, seed, tmp_path)
    digests = []
    for argv in inputs.argvs:
        code, _, digest, stderr = workloads.run_op(
            io_cli.cli_main, argv, inputs.out, workload.command
        )
        assert (code, stderr) == (0, "")
        digests.append(digest)
    assert len(digests) == 256
    assert workloads.pool_digest(digests) == workloads.shipped_digest(workload, seed)

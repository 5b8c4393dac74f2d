"""The benchmark's reference check must still accept the program's outputs.

`bench/workloads.py` rebuilds each workload's expected output digests from
the scalar engine (`run_path`, `run_path_detail`, `ScenarioResult`,
`summarize`) and compares them with what `cli_main` writes. A refactor that
breaks that comparison makes every benchmark operation count as failed;
this test fails first, on tiny versions of the workloads.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
from pathlib import Path

import pytest

from pensionsim import io_cli

BENCH = Path(__file__).resolve().parents[1] / "bench"

TINY = {"run-10k": {"num_paths": 30}, "sweep-crn": {"num_paths": 20}, "path-detail": {"pool": 4}}


@pytest.mark.parametrize("name", sorted(TINY))
def test_cli_outputs_match_the_benchmark_oracle(tmp_path, monkeypatch, name):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    workload = dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])
    inputs = workloads.make_inputs(workload, 7, tmp_path)
    digests = []
    for argv in inputs.argvs:
        code, _, digest, stderr = workloads.run_op(
            io_cli.cli_main, argv, inputs.out, workload.command
        )
        assert (code, stderr) == (0, "")
        digests.append(digest)
    assert digests == workloads.oracle_digests(workload, inputs)

"""Golden output bytes: sha256 of files written by the scalar per-path engine.

The digests below were recorded from `run` and `sweep` when every path ran
through `run_path`. Any engine that serves these commands must reproduce
the files byte for byte; regenerate the digests only with a deliberate,
documented change to the output contract.
"""

from __future__ import annotations

import hashlib

import pytest

from pensionsim.io_cli import cli_main

# scenario file text -> sha256 of summary.json (1000 paths, seed 42)
RUN_GOLDEN = {
    "": "d8e617d856dfa8e6537e51be30fcfc01e72a206ae46a78d48977e33f7ab573b7",
    "annuity_rate = 0.05\n": "d1be9574a3a1c42e07f4c50d2f3f76a1a02b6f5c4441de358d81dac5103e6430",
    "service_years = 25\n": "58b523558686a7e8dc95408e33beb521eea914cfaa06b994ff538586f8343fc6",
    "gbm_sigma = 0\n": "b484cc1e26a90c3cb360d684ce7616b74be8389cec9ef68f31c313b7192792f5",
}

# sweep --param service_years --values 20,30,40 on the default scenario
SWEEP_GOLDEN = {
    "summary_service_years_20.json": "46c1aaf87f26cc9804a93494e992ccf3c6cb363ef2e54680b75d8f0fc5d3af9a",
    "summary_service_years_30.json": "d8e617d856dfa8e6537e51be30fcfc01e72a206ae46a78d48977e33f7ab573b7",
    "summary_service_years_40.json": "6de6e0f7655740b4fe3c1d8f6cf4fd0038dec1676d2cb7278571d210ea81b12e",
    "sweep.csv": "1c1997d33724935fe2bb6322a16b7ad67b47c885ecdf326c8deb4bb983f28749",
}


def _digests(directory) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


@pytest.mark.parametrize("config", list(RUN_GOLDEN), ids=["baseline", "annuity_rate", "service_years", "gbm_sigma"])
def test_run_summary_bytes_match_golden(tmp_path, capsys, config):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(config)
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(scenario), "--out", str(out)]) == 0
    assert _digests(out) == {"summary.json": RUN_GOLDEN[config]}


def test_sweep_bytes_match_golden(tmp_path, capsys):
    argv = ["sweep", "--param", "service_years", "--values", "20,30,40", "--out", str(tmp_path)]
    assert cli_main(argv) == 0
    assert _digests(tmp_path) == SWEEP_GOLDEN

"""Golden output bytes: sha256 of files written by the scalar per-path engine.

The digests below were recorded from `run` and `sweep` when every path ran
through `run_path`, and from `path` and `run --detail` before scenarios
became one flat dataclass. Any engine that serves these commands must
reproduce the bytes exactly; regenerate the digests only with a deliberate,
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

# a non-default scenario with shortfall years, so top-ups and discounting show
DETAIL_CONFIG = (
    "service_years = 25\ngbm_sigma = 0.2\ninflation_sd_pct = 2.5\n"
    "risk_free_rate = 0.04\nseed = 7\n"
)

# (scenario file text, path index) -> sha256 of `path --index K` stdout
PATH_GOLDEN = {
    ("", 1): "7b8e299c0dec3a2fd262a405b6712d244997e73579f2d122cc4cecdb862c5060",
    (DETAIL_CONFIG, 77): "468a0e4cf3ee4ca3c0b7bb6d046f1e8cff3c5c23fb74c764bfdc7375efb7045b",
}

# run --config DETAIL_CONFIG --paths 100 --detail 0 77
DETAIL_GOLDEN = {
    "path_0_career.csv": "2aa050c6c2e799981e4b05be8b5897988338c58f2e4eeda7d3e2f61356d473d3",
    "path_0_retirement.csv": "8c4fcfd33ec7c2791ae1a6178a2bf2b31336a5c211181e787242b51fed3ab8b8",
    "path_77_career.csv": "10222885b4c13c37649a80945631b0e63c316a2f3655d9591daf8cc7bcc9bb1a",
    "path_77_retirement.csv": "ca6d08a02dce3b47275a0d19991baa715178421f890260b119a52959ce76ef47",
    "summary.json": "725809f57082b482b5a9e9b6b795541c2facbd55f29c76990f6248686ea2e98b",
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


@pytest.mark.parametrize("config, index", list(PATH_GOLDEN), ids=["baseline-1", "detail-77"])
def test_path_stdout_matches_golden(tmp_path, capsys, config, index):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(config)
    capsys.readouterr()
    assert cli_main(["path", "--config", str(scenario), "--index", str(index)]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == PATH_GOLDEN[config, index]


def test_run_detail_bytes_match_golden(tmp_path, capsys):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(DETAIL_CONFIG)
    out = tmp_path / "out"
    argv = ["run", "--config", str(scenario), "--paths", "100", "--detail", "0", "77"]
    assert cli_main([*argv, "--out", str(out)]) == 0
    assert _digests(out) == DETAIL_GOLDEN

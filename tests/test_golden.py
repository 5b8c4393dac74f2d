"""Golden output bytes: sha256 of files written by the scalar per-path engine.

The digests below were recorded from `run` and `sweep` when every path ran
through `run_path`, and from `path` and `run --detail` before scenarios
became one flat dataclass. Any engine that serves these commands must
reproduce the bytes exactly; regenerate the digests only with a deliberate,
documented change to the output contract. Each case runs with ndtri and exp
served by scipy.special and by the numpy port (see the `special` fixture).
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pensionsim import stochastic
from pensionsim.engine import Scenario, run_path, run_scenario, sweep
from pensionsim.io_cli import cli_main
from records import records

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


def _each_special(argnames, cases, ids):
    """Parametrize by `cases`, each served by scipy.special under its id and
    by the numpy port under `<id>-port`."""
    return pytest.mark.parametrize(
        f"{argnames}, special",
        [(*case, kind) for kind in ("scipy", "port") for case in cases],
        ids=[*ids, *(f"{i}-port" for i in ids)],
        indirect=["special"],
    )


@_each_special(
    "config", [(c,) for c in RUN_GOLDEN], ["baseline", "annuity_rate", "service_years", "gbm_sigma"]
)
def test_run_summary_bytes_match_golden(tmp_path, capsys, config, special):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(config)
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(scenario), "--out", str(out)]) == 0
    assert _digests(out) == {"summary.json": RUN_GOLDEN[config]}


@pytest.mark.parametrize("special", ["scipy", "port"], indirect=True)
def test_sweep_bytes_match_golden(tmp_path, capsys, special):
    argv = ["sweep", "--param", "service_years", "--values", "20,30,40", "--out", str(tmp_path)]
    assert cli_main(argv) == 0
    assert _digests(tmp_path) == SWEEP_GOLDEN


@_each_special("config, index", list(PATH_GOLDEN), ["baseline-1", "detail-77"])
def test_path_stdout_matches_golden(tmp_path, capsys, config, index, special):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(config)
    capsys.readouterr()
    assert cli_main(["path", "--config", str(scenario), "--index", str(index)]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == PATH_GOLDEN[config, index]


@pytest.mark.parametrize("special", ["scipy", "port"], indirect=True)
def test_run_detail_bytes_match_golden(tmp_path, capsys, special):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(DETAIL_CONFIG)
    out = tmp_path / "out"
    argv = ["run", "--config", str(scenario), "--paths", "100", "--detail", "0", "77"]
    assert cli_main([*argv, "--out", str(out)]) == 0
    assert _digests(out) == DETAIL_GOLDEN


# A default run's blocks hold 414 paths: 32_706 normals, then 12_006 growth
# factors for each career. These budgets run out in the first or the second
# block, at its normals or at its growth factors, and in the sweep between its
# two variants' growth factors of one block.
@pytest.mark.parametrize("special", [40_000, 50_000, 80_000], indirect=True)
def test_budget_spent_mid_run_keeps_the_bits(tmp_path, capsys, monkeypatch, special):
    def spending(call):
        monkeypatch.setattr(stochastic, "_port_left", special)  # the port serves the first block
        result = call()
        assert stochastic._port_left is None  # and scipy.special a later one
        return result

    assert spending(lambda: cli_main(["run", "--out", str(tmp_path / "run")])) == 0
    assert _digests(tmp_path / "run") == {"summary.json": RUN_GOLDEN[""]}
    argv = ["sweep", "--param", "gbm_sigma", "--values", "0,0.05", "--out", str(tmp_path / "sweep")]
    assert spending(lambda: cli_main(argv)) == 0
    digests = _digests(tmp_path / "sweep")
    assert digests["summary_gbm_sigma_0.0.json"] == RUN_GOLDEN["gbm_sigma = 0\n"]
    assert digests["summary_gbm_sigma_0.05.json"] == RUN_GOLDEN[""]

    base = Scenario()
    results = [spending(lambda: run_scenario(base)),
               *spending(lambda: sweep(base, [("gbm_sigma", 0.0), ("gbm_sigma", 0.05)]))]
    paths = range(0, base.num_paths, 7)
    for result in results:  # repr tells -0.0 from 0.0 and round-trips every float
        got = list(map(repr, records(result.outcomes)))
        assert [got[i] for i in paths] == [repr(run_path(result.scenario, i)) for i in paths]


# A fresh interpreter: import pensionsim, report whether that loaded
# scipy.special, run the command, report again, exit with its code.
FRESH = (
    "import sys; sys.path.insert(0, sys.argv[1]); import pensionsim; "
    "loaded = ['scipy.special' in sys.modules]; code = pensionsim.cli_main(sys.argv[2:]); "
    "loaded.append('scipy.special' in sys.modules); print(loaded, file=sys.stderr); sys.exit(code)"
)


def _fresh(tmp_path, *argv) -> subprocess.CompletedProcess:
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"}
    return subprocess.run([sys.executable, "-c", FRESH, str(src), *argv], capture_output=True,
                          text=True, cwd=tmp_path, env=env, timeout=120)


@pytest.mark.parametrize("special", ["scipy"], indirect=True)
def test_a_fresh_process_never_loads_scipy_for_a_path_or_a_default_run(tmp_path, capsys, special):
    unloaded = "[False, False]\n"
    for index in (0, 1):
        done = _fresh(tmp_path, "path", "--index", str(index))
        assert (done.returncode, done.stderr) == (0, unloaded)
        capsys.readouterr()
        assert cli_main(["path", "--index", str(index)]) == 0  # scipy.special, in this process
        assert done.stdout == capsys.readouterr().out
    digest = hashlib.sha256(done.stdout.encode("utf-8")).hexdigest()
    assert digest == PATH_GOLDEN["", 1]

    done = _fresh(tmp_path, "run", "--out", "out")
    assert (done.returncode, done.stderr) == (0, unloaded)
    assert _digests(tmp_path / "out") == {"summary.json": RUN_GOLDEN[""]}

    (tmp_path / "mu.cfg").write_text("gbm_mu = 800\n")
    done = _fresh(tmp_path, "path", "--config", "mu.cfg", "--index", "0")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == (
        "error: market growth factor exp(log_return) overflows: gbm_mu or gbm_sigma is too large\n"
        + unloaded
    )

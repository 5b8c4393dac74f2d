"""Workload inputs, one closed-loop operation, and the output oracle.

Every operation goes through `pensionsim.cli_main` in-process. Inputs are a
pure function of the workload seed: it picks the scenario seed and, on
`path-detail`, the path indices. The program only sees the generated
scenario file and argv.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

from pensionsim import engine, io_cli

HERE = Path(__file__).resolve().parent
DIGESTS_FILE = HERE / "digests.json"

SWEEP_PARAM = "annuity_rate"
SWEEP_VALUES = (0.05, 0.07, 0.09)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # pensionsim subcommand: "run", "sweep" or "path"
    num_paths: int
    pool: int = 1  # distinct requests, cycled in order; a multiple of batch
    batch: int = 1  # operations the speed probe keeps or drops together

    @property
    def paths_per_op(self) -> int:
        if self.command == "run":
            return self.num_paths
        if self.command == "sweep":
            return self.num_paths * len(SWEEP_VALUES)
        return 1


# Why each workload exists is recorded next to its name in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("run-10k", "run", 10_000),
        Workload("sweep-crn", "sweep", 3_000),
        Workload("path-detail", "path", 100_000, pool=256, batch=64),
    )
}


@dataclass(frozen=True)
class Inputs:
    scenario_seed: int
    config: Path  # scenario file; the setup_s child loads it
    out: Path  # output directory of run and sweep
    argvs: tuple[tuple[str, ...], ...]  # one per pool entry
    indices: tuple[int, ...]  # path index per pool entry on "path"


def make_inputs(workload: Workload, seed: int, workdir: Path) -> Inputs:
    """Generate the workload's scenario file and request argvs from `seed`."""
    rng = random.Random(seed)
    scenario_seed = rng.getrandbits(32)
    config = workdir / "scenario.txt"
    config.write_text(f"num_paths = {workload.num_paths}\nseed = {scenario_seed}\n")
    out = workdir / "out"
    out.mkdir(parents=True, exist_ok=True)
    indices: tuple[int, ...] = ()
    if workload.command == "run":
        argvs = (
            ("run", "--paths", str(workload.num_paths), "--seed", str(scenario_seed),
             "--out", str(out)),
        )
    elif workload.command == "sweep":
        values = ",".join(str(v) for v in SWEEP_VALUES)
        argvs = (
            ("sweep", "--config", str(config), "--param", SWEEP_PARAM, "--values", values,
             "--out", str(out)),
        )
    else:
        indices = tuple(rng.randrange(workload.num_paths) for _ in range(workload.pool))
        argvs = tuple(("path", "--config", str(config), "--index", str(k)) for k in indices)
    return Inputs(scenario_seed, config, out, argvs, indices)


def digest_files(files: dict[str, bytes]) -> str:
    """sha256 over (name, sha256(content)) pairs in name order."""
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\n" + hashlib.sha256(files[name]).digest())
    return h.hexdigest()


def pool_digest(entry_digests) -> str:
    return hashlib.sha256("".join(entry_digests).encode()).hexdigest()


def run_op(call, argv, out: Path, command: str,
           clock=time.perf_counter) -> tuple[int, float, str, str]:
    """One closed-loop operation; returns (exit code, seconds, output digest, stderr).

    `call` runs the argv and is timed alone, by `clock`. Clearing the output
    directory, reading the outputs back and hashing them happen outside the
    timed region.
    """
    for stale in out.iterdir():
        stale.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        t0 = clock()
        code = call(list(argv))
        seconds = clock() - t0
    if command == "path":
        files = {"stdout": stdout.getvalue().encode("utf-8")}
    else:
        files = {p.name: p.read_bytes() for p in out.iterdir()}
    return code, seconds, digest_files(files), stderr.getvalue()


# --- oracle: the scalar per-path engine, driven directly -------------------


def _result(scenario) -> engine.ScenarioResult:
    outcomes = tuple(engine.run_path(scenario, i) for i in range(scenario.num_paths))
    return engine.ScenarioResult(
        scenario=scenario,
        outcomes=outcomes,
        final_corpus=engine.summarize([o.final_corpus for o in outcomes]),
        shortfall_years=engine.summarize([o.shortfall_years for o in outcomes]),
        pv_support=engine.summarize([o.pv_support for o in outcomes]),
    )


def _fmt(value: float) -> str:
    return repr(float(value))


def oracle_digests(workload: Workload, inputs: Inputs) -> list[str]:
    """Expected output digest per pool entry, rebuilt from run_path / run_path_detail."""
    scenario = io_cli.parse_scenario(inputs.config.read_text())
    if workload.command == "run":
        text = io_cli.emit_summary(_result(scenario))
        return [digest_files({"summary.json": text.encode()})]
    if workload.command == "sweep":
        files = {}
        lines = ["variant,metric,mean,sd,p5,p95"]
        for value in SWEEP_VALUES:
            result = _result(engine.with_field(scenario, SWEEP_PARAM, value))
            files[f"summary_{SWEEP_PARAM}_{value}.json"] = io_cli.emit_summary(result).encode()
            for metric in engine.METRICS:
                stats = result.metric(metric)
                lines.append(",".join((
                    f"{SWEEP_PARAM}={value}", metric, _fmt(stats.mean), _fmt(stats.sd),
                    _fmt(stats.quantiles["p5"]), _fmt(stats.quantiles["p95"]),
                )))
        files["sweep.csv"] = ("\n".join(lines) + "\n").encode()
        return [digest_files(files)]
    digests = []
    for k in inputs.indices:
        detail = engine.run_path_detail(scenario, k)
        text = io_cli.career_csv(detail.career) + "\n" + io_cli.retirement_csv(detail.retirement)
        digests.append(digest_files({"stdout": text.encode()}))
    return digests


def shipped_digest(workload: Workload, seed: int) -> str | None:
    """Digest recorded from the scalar engine for this workload and seed, if shipped."""
    if not DIGESTS_FILE.is_file():
        return None
    return json.loads(DIGESTS_FILE.read_text()).get(workload.name, {}).get(str(seed))

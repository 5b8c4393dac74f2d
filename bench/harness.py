"""Closed-loop measurement, output checks, per-layer tracing and run metadata.

One process, one client: each operation starts only after the previous
one returned and its outputs were read back. End-to-end metrics come from
an untraced run; `--trace 1` alternates untraced and traced passes and
reports the per-layer metrics plus the throughput the tracing cost.

The machine the benchmark was built on is shared, and other tenants slow
it by up to 2x, which moved a plain median by 25% between runs. End-to-end
timings therefore come from the batches that a calibration probe
(`machine.py`) found undisturbed, scaled to a reference machine speed;
setup times are taken as measured. The printed sample counts say how many
batches were kept, and the unscaled figures are printed next to them.
"""

from __future__ import annotations

import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy
import scipy

import pensionsim
from pensionsim import io_cli
from machine import REFERENCE_PROBE_S, Machine, undisturbed
from tracing import Tracer, installed_wrappers
from workloads import (
    Inputs,
    Workload,
    make_inputs,
    oracle_digests,
    pool_digest,
    run_op,
    shipped_digest,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# What every CLI call pays before it does any work: a fresh interpreter
# importing the package and loading the workload's scenario.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import pensionsim; "
    "pensionsim.parse_scenario(open(sys.argv[2], encoding='utf-8').read())"
)
SETUP_CHILDREN = 10
RESOLVED_P99 = 1000  # latency samples that put at least 10 beyond the p99


@dataclass(frozen=True)
class Op:
    entry: int  # pool entry, i.e. which request
    code: int
    seconds: float
    digest: str
    stderr: str


@dataclass(frozen=True)
class Batch:
    ops: list[Op]
    start: float  # perf_counter before the first operation
    end: float  # perf_counter after the last one

    @property
    def seconds(self) -> float:
        return sum(op.seconds for op in self.ops)


def closed_loop(workload: Workload, inputs: Inputs, seconds: float, call: Callable,
                machine: Machine) -> list[Batch]:
    """Send requests back to back for `seconds`, ending on a whole pool pass.

    Returns the operations in batches of `workload.batch`, with a probe of
    the machine after each. With `seconds` <= 0 this is one pass over the pool.
    """
    batches: list[Batch] = []
    deadline = time.perf_counter() + seconds
    done = 0
    while not batches or time.perf_counter() < deadline or done % workload.pool:
        ops = []
        start = time.perf_counter()
        for _ in range(workload.batch):
            entry = done % workload.pool
            code, took, digest, err = run_op(call, inputs.argvs[entry], inputs.out,
                                             workload.command, machine.clock)
            ops.append(Op(entry, code, took, digest, err))
            done += 1
        batches.append(Batch(ops, start, time.perf_counter()))
        machine.sample()
    return batches


def throughput(workload: Workload, durations: list[float]) -> float:
    """Paths completed per second of operation time."""
    return len(durations) * workload.paths_per_op / sum(durations)


def p99(durations: list[float]) -> float:
    if len(durations) < 2:
        return durations[0]
    return statistics.quantiles(durations, n=100, method="inclusive")[98]


def setup_child(config: Path) -> float:
    """Wall time of a fresh interpreter that imports pensionsim and loads `config`."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(config)],
        cwd=ROOT,
        check=True,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def expected_digests(workload: Workload, seed: int, inputs: Inputs) -> tuple[list[str], str]:
    """Expected output digest per pool entry, and where it came from.

    Digests recorded from the scalar engine are used for the seeds they were
    shipped for; other seeds rebuild the reference from the per-path oracle.
    On path-detail the oracle always runs and the shipped digest covers the
    whole pool, so a disagreement marks the reference itself as wrong.
    """
    shipped = shipped_digest(workload, seed)
    if shipped is not None and workload.pool == 1:
        return [shipped], "shipped"
    digests = oracle_digests(workload, inputs)
    if shipped is None:
        return digests, "oracle"
    if pool_digest(digests) != shipped:
        return [""] * len(digests), "shipped (oracle disagrees)"
    return digests, "shipped"


def failures(ops: list[Op], expected: list[str]) -> list[str]:
    """One message per failed operation: nonzero exit or wrong output bytes."""
    problems = []
    for i, op in enumerate(ops):
        if op.code != 0:
            problems.append(f"op {i}: exit {op.code}: {op.stderr.strip()}")
        elif op.digest != expected[op.entry]:
            problems.append(f"op {i}: output digest {op.digest[:12]} != expected "
                            f"{expected[op.entry][:12] or '(none)'}")
    return problems


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(workload: Workload, seed: int, seconds: float, trace: bool, inputs: Inputs) -> dict:
    return {
        "workload": workload.name,
        "seed": seed,
        "scenario_seed": inputs.scenario_seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pensionsim": pensionsim.__version__,
        "commit": git_commit(),
    }


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-operation counts and self times from one traced run."""
    ops = tracer.ops
    values: dict[str, float] = {}
    for group, total in tracer.calls.items():
        values[f"{group}.calls"] = total / ops
        values[f"{group}.self_s"] = tracer.self_s[group] / ops
    for counter, total in tracer.counts.items():
        values[counter] = total / ops
    setups = tracer.calls.get("stochastic.stream_setup", 0)
    values["stochastic.stream_setups_per_path"] = (
        setups / tracer.distinct_paths if tracer.distinct_paths else 0.0
    )
    return values


@dataclass
class Outcome:
    metrics: dict[str, float]
    attempted: int
    problems: list[str]
    reference: str
    meta: dict
    samples: dict[str, float]
    unscaled: dict[str, dict[str, float]]  # timings as measured, printed only
    timings: dict[str, list[float]]  # raw seconds, kept in the result file only


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool) -> Outcome:
    """Set up, measure, check outputs; the scratch directory lives under bench/out."""
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{workload.name}-", dir=OUT))
    try:
        return _run(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    inputs = make_inputs(workload, seed, workdir)
    for entry in range(workload.pool):  # warm-up pass, not counted
        run_op(io_cli.cli_main, inputs.argvs[entry], inputs.out, workload.command)
    measure = _traced if trace else _untraced
    metrics, batches, samples, unscaled, timings = measure(workload, inputs, seconds, seed)
    ops = [op for batch in batches for op in batch.ops]
    expected, reference = expected_digests(workload, seed, inputs)
    return Outcome(
        metrics=metrics,
        attempted=len(ops),
        problems=failures(ops, expected),
        reference=reference,
        meta=metadata(workload, seed, seconds, trace, inputs),
        samples=samples,
        unscaled=unscaled,
        timings=timings,
    )


def scaled_durations(machine: Machine, batches: list[Batch]) -> list[float]:
    """Operation times of the undisturbed batches, at the reference machine speed.

    Which batches are undisturbed, and by how much their times are scaled,
    follows from the probes around them alone.
    """
    loads = [machine.load(batch.start, batch.end) for batch in batches]
    return [op.seconds * REFERENCE_PROBE_S / loads[i] for i in undisturbed(loads)
            for op in batches[i].ops]


def _figures(workload: Workload, durations: list[float]) -> dict[str, float]:
    return {"paths_per_s": throughput(workload, durations),
            "latency_p50_ms": statistics.median(durations) * 1e3,
            "latency_p99_ms": p99(durations) * 1e3}


def _untraced(workload: Workload, inputs: Inputs, seconds: float, seed: int):
    setup_child(inputs.config)  # warms the file cache (and bytecode, where written); not counted
    # Setup children are spread over the run so that one slow stretch of the
    # machine cannot cover all of them. Their times are neither filtered nor
    # scaled: importing (file reads, unmarshalling) followed the probe only
    # weakly, and scaling it by the probe overcorrected.
    machine = Machine()
    setup_times: list[float] = []
    batches: list[Batch] = []
    start = time.perf_counter()
    for i in range(1, SETUP_CHILDREN + 1):
        setup_times.append(setup_child(inputs.config))
        left = start + i * seconds / SETUP_CHILDREN - time.perf_counter()
        with machine:
            batches += closed_loop(workload, inputs, left, io_cli.cli_main, machine)
    rss = peak_rss_mb()
    durations = scaled_durations(machine, batches)
    metrics = {**_figures(workload, durations), "peak_rss_mb": rss,
               "setup_s": statistics.median(setup_times)}
    loads = [machine.load(batch.start, batch.end) for batch in batches]
    kept = undisturbed(loads)
    samples = {"batches": len(batches), "undisturbed_batches": len(kept),
               "latency_samples": len(durations), "setup_children": len(setup_times),
               "probes": len(machine.took),
               "best_load_ms": min(loads) * 1e3}
    unscaled = {
        "undisturbed": _figures(workload, [op.seconds for i in kept for op in batches[i].ops]),
        "all": _figures(workload, [op.seconds for batch in batches for op in batch.ops]),
    }
    timings = {"batch_seconds": [batch.seconds for batch in batches], "batch_load": loads,
               "setup_seconds": setup_times}
    return metrics, batches, samples, unscaled, timings


def _traced(workload: Workload, inputs: Inputs, seconds: float, seed: int):
    # Untraced and traced passes alternate, so drift in machine speed does
    # not land on one side of the overhead comparison. The probe runs only
    # between batches here, so that it is never charged to a span.
    tracer = Tracer()
    traced_call = lambda argv: tracer.call_root(io_cli.cli_main, argv)  # noqa: E731
    machine = Machine()
    untraced: list[Batch] = []
    traced: list[Batch] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        untraced += closed_loop(workload, inputs, 0, io_cli.cli_main, machine)
        tracer.install()
        try:
            traced += closed_loop(workload, inputs, 0, traced_call, machine)
        finally:
            tracer.restore()
    leaked = installed_wrappers()
    if leaked:
        raise RuntimeError(f"tracing wrappers not restored: {leaked}")
    tracer.save(OUT / f"trace-{workload.name}-seed{seed}.npz")
    metrics = layer_metrics(tracer)
    metrics["tracing.paths_per_s_delta"] = (
        throughput(workload, scaled_durations(machine, traced))
        - throughput(workload, scaled_durations(machine, untraced))
    )
    samples = {"untraced_batches": len(untraced), "traced_batches": len(traced),
               "spans": len(tracer.name_id)}
    return metrics, untraced + traced, samples, {}, {}

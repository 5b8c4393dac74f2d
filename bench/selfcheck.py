"""Quick self-check of the benchmark itself, about half a minute.

    python3 bench/selfcheck.py

Runs every workload at a tiny size, untraced and traced, and asserts that
every metric BENCHMARK.json names is reported as a finite number, that the
output checks pass, that traced counts are exact, that tracing leaves no
wrapper behind, that a corrupted output is counted as a failure, and that
undisturbed batches and their scaling ignore the program's own timings. One
full-size path-detail run on a shipped seed checks the recorded digests.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace
from pathlib import Path

from run import import_program, metric_specs, report

TINY = {
    "run-10k": {"num_paths": 200},
    "sweep-crn": {"num_paths": 100},
    "path-detail": {"pool": 8, "batch": 4},
}
SEED = 12345  # not a shipped seed, so the per-path oracle builds the reference


def check(outcome, trace: bool, label: str) -> dict:
    _, result = report(outcome, trace)
    names = {spec["name"] for spec in metric_specs(trace)}
    assert set(result["metrics"]) == names, f"{label}: metrics differ from BENCHMARK.json"
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), f"{label}: {name} = {metric['value']}"
    return result


def check_counts(metrics: dict, workload, label: str) -> None:
    """Exact per-operation counts of the default scenario (n=30, m=20)."""
    paths = workload.paths_per_op
    expected = {
        "stochastic.stream_setup.calls": paths,
        "stochastic.draws.variates": (30 + 20 + 29) * paths,
        "retirement.year_rows": 20 * paths,
        "stochastic.stream_setups_per_path": 3.0 if workload.command == "sweep" else 1.0,
    }
    for name, value in expected.items():
        assert metrics[name] == value, f"{label}: {name} = {metrics[name]}, expected {value}"


def check_scaling(harness) -> None:
    """Undisturbed batches and their scaling follow from the probes alone: a
    slow operation stays in and keeps its time, a batch during slow probes
    goes out, and a uniformly slow machine halves every time."""
    from machine import REFERENCE_PROBE_S, Machine

    machine = Machine()
    machine.ends = [1.0, 2.0, 3.0, 4.0]
    fast, slow_op, slow_machine = (
        harness.Batch([harness.Op(0, 0, seconds, "", "")], start, start + 0.5)
        for seconds, start in ((1.0, 1.2), (5.0, 1.3), (1.0, 3.2))
    )
    batches = [fast, slow_op, slow_machine]
    machine.took = [REFERENCE_PROBE_S] * 2 + [2 * REFERENCE_PROBE_S] * 2
    assert harness.scaled_durations(machine, batches) == [1.0, 5.0], "wrong batches kept"
    machine.took = [2 * REFERENCE_PROBE_S] * 4
    assert harness.scaled_durations(machine, batches) == [0.5, 2.5, 0.5], "wrong scaling"
    print("ok  undisturbed batches and their scaling follow from the probes alone")


def main() -> None:
    import_program()
    import harness
    from pensionsim import io_cli
    from tracing import installed_wrappers
    from workloads import WORKLOADS

    check_scaling(harness)

    for name, full in WORKLOADS.items():
        workload = replace(full, name=f"{name}-tiny", **TINY[name])
        for trace in (False, True):
            label = f"{workload.name} trace={int(trace)}"
            outcome = harness.run_benchmark(workload, SEED, 0.3, trace)
            result = check(outcome, trace, label)
            assert result["correct"] and result["failed"] == 0, f"{label}: {outcome.problems[:3]}"
            assert outcome.reference == "oracle", f"{label}: reference {outcome.reference}"
            assert not installed_wrappers(), f"{label}: tracing leaked"
            if trace:
                check_counts(outcome.metrics, workload, label)
            print(f"ok  {label}: {result['attempted']} operations")

        original = io_cli.cli_main

        def corrupted(argv):
            code = original(argv)
            if "--out" in argv:
                Path(argv[argv.index("--out") + 1], "stray.txt").write_text("x")
            else:
                sys.stdout.write("x")
            return code

        io_cli.cli_main = corrupted
        try:
            outcome = harness.run_benchmark(workload, SEED, 0.3, False)
        finally:
            io_cli.cli_main = original
        result = check(outcome, False, f"{workload.name} corrupted")
        assert not result["correct"] and result["failed"] == result["attempted"], (
            f"{workload.name}: corrupted output was not caught"
        )
        print(f"ok  {workload.name}: corrupted output caught in {result['failed']} operations")

    outcome = harness.run_benchmark(WORKLOADS["path-detail"], 0, 0.3, False)
    result = check(outcome, False, "path-detail seed 0")
    assert result["correct"] and outcome.reference == "shipped", (
        f"path-detail seed 0: reference {outcome.reference}, {outcome.problems[:3]}"
    )
    print("ok  path-detail seed 0 matches the shipped digest")
    print("selfcheck passed")


if __name__ == "__main__":
    main()

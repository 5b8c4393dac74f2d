"""pensionsim benchmark: one workload, one closed-loop client, in-process.

    python3 bench/run.py --workload run-10k --seed 0 --seconds 30 --trace 0

Prints run metadata, every metric by name with its unit, the error rate,
and as the last line a JSON object with `correct`, `attempted`, `failed`
and `metrics`. `--trace 0` reports the end-to-end metrics of BENCHMARK.json,
`--trace 1` its per-layer metrics. The program is imported from `src/` of
the checkout this file sits in; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_program() -> None:
    """Import pensionsim from this checkout's src/, never from anywhere else."""
    if not (SRC / "pensionsim" / "__init__.py").is_file():
        _fail(f"pensionsim sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import pensionsim

    if not Path(pensionsim.__file__).resolve().is_relative_to(SRC):
        _fail(f"imported pensionsim from {pensionsim.__file__}, not {SRC}")


def spec() -> dict:
    return json.loads(SPEC.read_text())


def metric_specs(trace: bool) -> list[dict]:
    return spec()["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    trace = bool(args.trace)
    outcome = harness.run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, trace)
    lines, result = report(outcome, trace)
    for problem in outcome.problems[:5]:
        print(f"check failed: {problem}", file=sys.stderr)
    record = harness.OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(
        {**result, "meta": outcome.meta, "samples": outcome.samples,
         "unscaled": outcome.unscaled, **outcome.timings}, indent=2) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def note(outcome, name: str) -> str:
    """Flags a p99 with too few samples beyond it to be resolved."""
    import harness

    samples = outcome.samples.get("latency_samples")
    if name == "latency_p99_ms" and samples is not None and samples < harness.RESOLVED_P99:
        return f" (not resolved: {samples} samples; only path-detail resolves p99)"
    return ""


def report(outcome, trace: bool) -> tuple[list[str], dict]:
    """Human-readable lines, and the result object that is printed last."""
    metrics = {}
    lines = [f"meta {json.dumps(outcome.meta)}"]
    for spec in metric_specs(trace):
        name = spec["name"]
        # a layer the workload never calls did no work: zero calls, zero time
        value = outcome.metrics.get(name, 0.0) if trace else outcome.metrics[name]
        metrics[name] = {"value": value, "unit": spec["unit"]}
        lines.append(f"{name} = {value!r} {spec['unit']}{note(outcome, name)}")
    failed = len(outcome.problems)
    lines.append(f"error_rate = {failed / outcome.attempted!r} ({failed}/{outcome.attempted} operations)")
    lines.append(f"samples {json.dumps(outcome.samples)}; reference: {outcome.reference}")
    for batches, figures in outcome.unscaled.items():
        lines.append(f"unscaled, {batches} batches: {json.dumps(figures)}")
    result = {
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return lines, result


if __name__ == "__main__":
    sys.exit(main())

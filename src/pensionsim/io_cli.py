"""Scenario files, CSV/JSON emission, and the command-line interface.

Output is byte-deterministic: fixed key order, shortest round-trip float
formatting, and atomic whole-file writes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from .engine import (
    DEFAULTS,
    METRICS,
    QUANTILE_LABELS,
    ConfigError,
    Scenario,
    ScenarioResult,
    SummaryStats,
    check_field,
    run_path_detail,
    run_scenario,
    scenario_from_values,
    scenario_values,
    sweep,
    with_field,
)

__all__ = [
    "CAREER_CSV_HEADER",
    "RETIREMENT_CSV_HEADER",
    "career_csv",
    "cli_main",
    "emit_summary",
    "main",
    "parse_scenario",
    "retirement_csv",
    "scenario_text",
]

CAREER_CSV_HEADER = "year,inflation_pct,basic,da,salary,contribution,log_return,corpus"
RETIREMENT_CSV_HEADER = "year,inflation_pct,requirement,pension,sufficient,top_up"

# Conventions echoed into every summary so a report is self-describing.
CONVENTIONS = {
    "generator": "philox4x64-10; stream k = master key jumped k * 2**128 states",
    "normals": "inverse CDF of 53-bit uniforms, one uniform per variate",
    "draw_order": "per path: n+m inflation draws, then n-1 log-return draws",
    "growth": "corpus compounds by exp(log_return); contributions at year end",
    "discounting": "top-up for year t divided by (1 + risk_free_rate)**(t - 1)",
}


def _parse_value(key: str, token: str, where: str) -> int | float:
    try:
        return check_field(key, token)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def parse_scenario(text: str) -> Scenario:
    """Parse `key = value` lines into a Scenario; omitted keys take the defaults."""
    values: dict[str, int | float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, token = line.partition("=")
        key = key.strip()
        token = token.strip()
        if not sep or not key:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {raw.strip()!r}")
        if not token:
            raise ConfigError(f"line {lineno}: missing value for {key}")
        values[key] = _parse_value(key, token, f"line {lineno}")
    return scenario_from_values(values)


def _fmt(value) -> str:
    # repr of a Python float is the shortest decimal that round-trips
    return str(value) if isinstance(value, int) else repr(float(value))


def scenario_text(scenario: Scenario) -> str:
    """Render a Scenario as a file parse_scenario reads back identically."""
    return "".join(f"{key} = {_fmt(value)}\n" for key, value in scenario_values(scenario).items())


def career_csv(rows) -> str:
    """Accumulation-phase table, one line per service year, full precision."""
    lines = [CAREER_CSV_HEADER]
    for row in rows:
        lines.append(
            ",".join(
                (
                    str(row.year),
                    _fmt(row.inflation_pct),
                    _fmt(row.basic),
                    _fmt(row.da),
                    _fmt(row.salary),
                    _fmt(row.contribution),
                    _fmt(row.log_return),
                    _fmt(row.corpus),
                )
            )
        )
    return "\n".join(lines) + "\n"


def retirement_csv(rows) -> str:
    """Payout-phase table, one line per retirement year, full precision."""
    lines = [RETIREMENT_CSV_HEADER]
    for row in rows:
        lines.append(
            ",".join(
                (
                    str(row.year),
                    _fmt(row.inflation_pct),
                    _fmt(row.requirement),
                    _fmt(row.pension),
                    "true" if row.sufficient else "false",
                    _fmt(row.top_up),
                )
            )
        )
    return "\n".join(lines) + "\n"


def _stats_block(stats: SummaryStats) -> dict:
    return {
        "count": stats.count,
        "mean": stats.mean,
        "sd": stats.sd,
        "min": stats.min,
        "max": stats.max,
        "quantiles": {label: stats.quantiles[label] for label in QUANTILE_LABELS},
        "histogram": {
            "edges": list(stats.bin_edges),
            "counts": list(stats.bin_counts),
        },
    }


def emit_summary(result: ScenarioResult) -> str:
    """Deterministic JSON report: resolved scenario echo plus per-metric summaries."""
    doc = {
        "scenario": {
            **scenario_values(result.scenario),
            "conventions": dict(CONVENTIONS),
        },
        "metrics": {name: _stats_block(result.metric(name)) for name in METRICS},
    }
    return json.dumps(doc, indent=2) + "\n"


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class _Parser(argparse.ArgumentParser):
    # usage problems should map to exit code 1, not argparse's default 2
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pensionsim",
        description="Monte Carlo pension adequacy and guarantee-cost simulator",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_cmd = commands.add_parser("run", help="run a scenario and write summary JSON")
    run_cmd.add_argument("--config", type=Path, help="scenario file; defaults apply if omitted")
    run_cmd.add_argument("--paths", type=int, help="override num_paths")
    run_cmd.add_argument("--seed", type=int, help="override seed")
    run_cmd.add_argument("--out", type=Path, default=Path("."), help="output directory")
    run_cmd.add_argument(
        "--detail",
        type=int,
        nargs="+",
        default=[],
        metavar="PATH_INDEX",
        help="also write year-by-year CSVs for these path indices",
    )

    sweep_cmd = commands.add_parser("sweep", help="rerun one scenario field over several values")
    sweep_cmd.add_argument("--config", type=Path)
    sweep_cmd.add_argument("--param", required=True, help="scenario field to vary")
    sweep_cmd.add_argument("--values", required=True, help="comma-separated values")
    sweep_cmd.add_argument("--out", type=Path, default=Path("."))

    path_cmd = commands.add_parser("path", help="print one path's detail CSVs to stdout")
    path_cmd.add_argument("--config", type=Path)
    path_cmd.add_argument("--index", type=int, required=True)
    return parser


def _load_scenario(args) -> Scenario:
    if args.config is None:
        text = ""
    else:
        try:
            text = args.config.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}") from None
    scenario = parse_scenario(text)
    if getattr(args, "paths", None) is not None:
        scenario = with_field(scenario, "num_paths", args.paths)
    if getattr(args, "seed", None) is not None:
        scenario = with_field(scenario, "seed", args.seed)
    return scenario


def _cmd_run(args) -> int:
    scenario = _load_scenario(args)
    # every output is built before the first write, so a bad --detail index
    # or a failed run leaves no partial output set
    details = {index: run_path_detail(scenario, index) for index in args.detail}
    files = {"summary.json": emit_summary(run_scenario(scenario))}
    for index, detail in details.items():
        files[f"path_{index}_career.csv"] = career_csv(detail.career)
        files[f"path_{index}_retirement.csv"] = retirement_csv(detail.retirement)
    for name, text in files.items():
        _write_atomic(args.out / name, text)
        print(f"wrote {args.out / name}")
    return 0


def _cmd_sweep(args) -> int:
    scenario = _load_scenario(args)
    if args.param not in DEFAULTS:
        raise ConfigError(f"unknown scenario field: {args.param!r}")
    tokens = [token.strip() for token in args.values.split(",") if token.strip()]
    if not tokens:
        raise ConfigError("--values must list at least one value")
    parsed = [_parse_value(args.param, token, "--values") for token in tokens]
    for i, value in enumerate(parsed):
        if value in parsed[:i]:
            # a repeat would run the same variant twice and overwrite its summary
            raise ConfigError(f"--values: {tokens[i]!r} repeats {args.param} = {value}")
    variants = sweep(scenario, [(args.param, value) for value in parsed])

    lines = ["variant,metric,mean,sd,p5,p95"]
    for value, variant in zip(parsed, variants):
        summary_path = args.out / f"summary_{args.param}_{value}.json"
        _write_atomic(summary_path, emit_summary(variant.result))
        print(f"wrote {summary_path}")
        for metric in METRICS:
            stats = variant.result.metric(metric)
            lines.append(
                ",".join(
                    (
                        variant.label,
                        metric,
                        _fmt(stats.mean),
                        _fmt(stats.sd),
                        _fmt(stats.quantiles["p5"]),
                        _fmt(stats.quantiles["p95"]),
                    )
                )
            )
    table_path = args.out / "sweep.csv"
    _write_atomic(table_path, "\n".join(lines) + "\n")
    print(f"wrote {table_path}")
    return 0


def _cmd_path(args) -> int:
    scenario = _load_scenario(args)
    detail = run_path_detail(scenario, args.index)
    sys.stdout.write(career_csv(detail.career))
    sys.stdout.write("\n")
    sys.stdout.write(retirement_csv(detail.retirement))
    return 0


def cli_main(argv=None) -> int:
    """Entry point; returns 0 on success, 1 for config errors, 2 for runtime errors."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return exc.code if isinstance(exc.code, int) else 0
    try:
        handler = {"run": _cmd_run, "sweep": _cmd_sweep, "path": _cmd_path}[args.command]
        return handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(cli_main())

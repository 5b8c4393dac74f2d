"""Scenario files, CSV/JSON emission, and the command-line interface.

Output is byte-deterministic: fixed key order, shortest round-trip float
formatting, and each command's files written all together or not at all.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import sys
from operator import attrgetter
from pathlib import Path
from typing import get_type_hints

from .accumulation import CareerYear
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
from .retirement import RetirementYear

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


# cell text by column type, converting a whole column at once: ints as
# is, floats (numpy scalars too) as the shortest round-trip decimal, bools
# as true/false. Columns are read straight from the rows, with no tuple per
# row, because every live tuple counts towards the next garbage-collector
# pass, and the extra passes cost about 1% of a `path` request.
_CELLS = {
    int: lambda column: map(str, column),
    float: lambda column: map(repr, map(float, column)),
    bool: lambda column: map({True: "true", False: "false"}.__getitem__, map(bool, column)),
}


def _table(row_type) -> tuple[str, tuple]:
    """CSV header and (field getter, column converter) pairs of a year-row dataclass."""
    names = [field.name for field in dataclasses.fields(row_type)]
    kinds = get_type_hints(row_type)
    return ",".join(names), tuple((attrgetter(name), _CELLS[kinds[name]]) for name in names)


_TABLES = {row_type: _table(row_type) for row_type in (CareerYear, RetirementYear)}
CAREER_CSV_HEADER = _TABLES[CareerYear][0]
RETIREMENT_CSV_HEADER = _TABLES[RetirementYear][0]


def _csv(row_type, rows) -> str:
    """One line per row, one column per field of `row_type`, full precision."""
    header, fields = _TABLES[row_type]
    rows = tuple(rows)
    columns = [cell(map(value, rows)) for value, cell in fields]
    return "\n".join([header, *map(",".join, zip(*columns))]) + "\n"


def career_csv(rows) -> str:
    """Accumulation-phase table, one line per service year (CareerYear fields)."""
    return _csv(CareerYear, rows)


def retirement_csv(rows) -> str:
    """Payout-phase table, one line per retirement year (RetirementYear fields)."""
    return _csv(RetirementYear, rows)


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


def _write_files(out: Path, files: dict[str, str]) -> None:
    """Write a command's whole output set into `out`: every file or none.

    Every target is checked first, then every file is written to a temporary
    name beside it, and only then are all renamed into place. Files are
    created as open(path, "w") creates them, so the umask sets their mode.
    On failure the temporary files go, and so do the directories of `out`
    that this call created.
    """
    targets = [out / name for name in files]
    for path in targets:
        if path.exists() and not path.is_file():
            raise FileExistsError(f"cannot write {path}: it exists and is not a regular file")
    created = [directory for directory in (out, *out.parents) if not directory.exists()]
    temps: list[Path] = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        for path, text in zip(targets, files.values()):
            tmp = path.with_name(f"{path.name}.{os.urandom(4).hex()}.tmp")
            with open(tmp, "x", encoding="utf-8", newline="") as handle:
                temps.append(tmp)
                handle.write(text)
        for tmp, path in zip(temps, targets):
            os.replace(tmp, path)
            print(f"wrote {path}")
    except BaseException:
        for tmp in temps:
            tmp.unlink(missing_ok=True)
        for directory in created:  # deepest first; one left non-empty stays
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise


class _Parser(argparse.ArgumentParser):
    # usage problems should map to exit code 1, not argparse's default 2
    def error(self, message):
        raise ConfigError(message)


@functools.cache  # once per process; so never mutate a default, such as --detail's list
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
    run_cmd.set_defaults(handler=_cmd_run)

    sweep_cmd = commands.add_parser("sweep", help="rerun one scenario field over several values")
    sweep_cmd.add_argument("--config", type=Path)
    sweep_cmd.add_argument("--param", required=True, help="scenario field to vary")
    sweep_cmd.add_argument("--values", required=True, help="comma-separated values")
    sweep_cmd.add_argument("--out", type=Path, default=Path("."))
    sweep_cmd.set_defaults(handler=_cmd_sweep)

    path_cmd = commands.add_parser("path", help="print one path's detail CSVs to stdout")
    path_cmd.add_argument("--config", type=Path)
    path_cmd.add_argument("--index", type=int, required=True)
    path_cmd.set_defaults(handler=_cmd_path)
    return parser


def _load_scenario(args) -> Scenario:
    if args.config is None:
        text = ""
    else:
        try:
            text = args.config.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}") from None
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from None
    return parse_scenario(text)


def _cmd_run(args) -> int:
    scenario = _load_scenario(args)
    for key, value in (("num_paths", args.paths), ("seed", args.seed)):
        if value is not None:
            scenario = with_field(scenario, key, value)
    # every output is built before the first write, so a bad --detail index
    # or a failed run leaves no partial output set
    details = {index: run_path_detail(scenario, index) for index in args.detail}
    files = {"summary.json": emit_summary(run_scenario(scenario))}
    for index, detail in details.items():
        files[f"path_{index}_career.csv"] = career_csv(detail.career)
        files[f"path_{index}_retirement.csv"] = retirement_csv(detail.retirement)
    _write_files(args.out, files)
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
    results = sweep(scenario, [(args.param, value) for value in parsed])

    files = {}
    lines = ["variant,metric,mean,sd,p5,p95"]
    for value, result in zip(parsed, results):
        files[f"summary_{args.param}_{value}.json"] = emit_summary(result)
        for metric in METRICS:
            stats = result.metric(metric)
            cells = (stats.mean, stats.sd, stats.quantiles["p5"], stats.quantiles["p95"])
            lines.append(",".join((f"{args.param}={value}", metric, *map(_fmt, cells))))
    files["sweep.csv"] = "\n".join(lines) + "\n"
    _write_files(args.out, files)
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
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # --help
        return exc.code if isinstance(exc.code, int) else 0
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ConfigError) else 2


def main() -> None:
    raise SystemExit(cli_main())

"""Scenario files, CSV/JSON emission, and the command-line interface.

Output is byte-deterministic: fixed key order, shortest round-trip float
formatting, and each command's files written all together or not at all.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from dataclasses import asdict
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
    check_field,
    check_outcome,
    run_path_detail,
    run_scenario,
    scenario_from_values,
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
    lines: dict[str, int] = {}
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
        if key in lines:
            raise ConfigError(f"line {lineno}: {key} is already set on line {lines[key]}")
        lines[key] = lineno
        values[key] = _parse_value(key, token, f"line {lineno}")
    return scenario_from_values(values)


def _fmt(value) -> str:
    # repr of a Python float is the shortest decimal that round-trips
    return str(value) if isinstance(value, int) else repr(float(value))


def scenario_text(scenario: Scenario) -> str:
    """Render a Scenario as a file parse_scenario reads back identically."""
    return "".join(f"{key} = {_fmt(value)}\n" for key, value in asdict(scenario).items())


# cell text by column type, converting a whole column at once: ints as
# is, floats (numpy scalars too) as the shortest round-trip decimal, bools
# as true/false
_CELLS = {
    int: lambda column: map(str, column),
    float: lambda column: map(repr, map(float, column)),
    bool: lambda column: map({True: "true", False: "false"}.__getitem__, map(bool, column)),
}


def _table(table_type) -> tuple[str, tuple]:
    """CSV header and column converters of a named tuple of columns."""
    kinds = get_type_hints(table_type)
    return ",".join(table_type._fields), tuple(_CELLS[kinds[name]] for name in table_type._fields)


_TABLES = {table_type: _table(table_type) for table_type in (CareerYear, RetirementYear)}
CAREER_CSV_HEADER = _TABLES[CareerYear][0]
RETIREMENT_CSV_HEADER = _TABLES[RetirementYear][0]


def _csv(table_type, table) -> str:
    """One line per year, one column per field of `table_type`, full precision."""
    header, cells = _TABLES[table_type]
    columns = [cell(column) for cell, column in zip(cells, table)]
    return "\n".join([header, *map(",".join, zip(*columns))]) + "\n"


def career_csv(table) -> str:
    """Accumulation-phase table, one line per service year (CareerYear's columns)."""
    return _csv(CareerYear, table)


def retirement_csv(table) -> str:
    """Payout-phase table, one line per retirement year (RetirementYear's columns)."""
    return _csv(RetirementYear, table)


@functools.lru_cache(maxsize=4)  # a run's metrics share one histogram shape
def _summary_layout(histograms: tuple[tuple[int, int], ...]) -> list[str]:
    """The text of summary.json around its values, for metrics whose histograms
    have these (edge count, bin count) shapes: json.dumps(indent=2) of the
    document with None for every value, split at each null. No key and no
    convention holds the text null."""
    metric = dict.fromkeys(("count", "mean", "sd", "min", "max"))
    metric["quantiles"] = dict.fromkeys(QUANTILE_LABELS)
    doc = {
        "scenario": {**dict.fromkeys(DEFAULTS), "conventions": CONVENTIONS},
        "metrics": {
            name: {**metric, "histogram": {"edges": [None] * edges, "counts": [None] * counts}}
            for name, (edges, counts) in zip(METRICS, histograms)
        },
    }
    return json.dumps(doc, indent=2).split("null")


def emit_summary(result: ScenarioResult) -> str:
    """Deterministic JSON report: resolved scenario echo plus per-metric summaries.

    The text is json.dumps(doc, indent=2, allow_nan=False) + "\n", strict JSON
    with no NaN or Infinity, of the document {"scenario": {every scenario
    field, then "conventions": CONVENTIONS}, "metrics": {each metric's
    count, mean, sd, min, max, "quantiles" by label and "histogram" with
    "edges" and "counts"}}. One compact json.dumps writes the values, in
    document order, into the layout cached for the histograms' shapes.
    """
    values = [getattr(result.scenario, key) for key in DEFAULTS]
    shapes = []
    for name in METRICS:
        stats = result.metric(name)
        values += (stats.count, stats.mean, stats.sd, stats.min, stats.max)
        values += map(stats.quantiles.__getitem__, QUANTILE_LABELS)
        values += (*stats.bin_edges, *stats.bin_counts)
        shapes.append((len(stats.bin_edges), len(stats.bin_counts)))
    layout = _summary_layout(tuple(shapes))
    texts = json.dumps(values, allow_nan=False)[1:-1].split(", ")
    pieces = layout + texts  # the layout's parts, with a value's text between each two
    pieces[::2] = layout
    pieces[1::2] = texts
    return "".join(pieces) + "\n"


def _write_files(out: Path, files: dict[str, str]) -> None:
    """Write a command's whole output set into `out`: every file or none.

    `out`, or else its nearest parent that exists, must be a directory, and
    every target is checked first; then every file is written to a temporary
    name beside it, and only then are all renamed into place; a `wrote` line
    is printed for each after the last rename. Files are created as
    open(path, "w") creates them, so the umask sets their mode. On failure
    the temporary files go, and so do the directories of `out` that this
    call created.
    """
    created = []  # the directories of `out` this call makes, deepest first
    for directory in (out, *out.parents):  # only the nearest that exists can be a non-directory
        if directory.exists():
            if directory.is_dir():
                break
            raise NotADirectoryError(f"cannot write into {out}: {directory} is not a directory")
        created.append(directory)
    targets = [out / name for name in files]
    for path in [] if created else targets:  # a directory still to make holds no file
        if path.exists() and not path.is_file():
            raise FileExistsError(f"cannot write {path}: it exists and is not a regular file")
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
    except BaseException:
        for tmp in temps:
            tmp.unlink(missing_ok=True)
        for directory in created:  # deepest first; one left non-empty stays
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise
    for path in targets:  # only now, so that a failing stdout cannot split the set
        print(f"wrote {path}")


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
        action="extend",  # a repeated --detail adds to the list; extend copies the default
        default=[],
        metavar="PATH_INDEX",
        help="also write year-by-year CSVs for these path indices; may be repeated",
    )
    run_cmd.set_defaults(handler=_cmd_run)

    sweep_cmd = commands.add_parser("sweep", help="rerun one scenario field over several values")
    sweep_cmd.add_argument("--config", type=Path, help="base scenario; defaults apply if omitted")
    sweep_cmd.add_argument("--param", required=True, help="scenario field to vary")
    sweep_cmd.add_argument("--values", required=True, help="comma-separated values")
    sweep_cmd.add_argument("--out", type=Path, default=Path("."), help="output directory")
    sweep_cmd.set_defaults(handler=_cmd_sweep)

    path_cmd = commands.add_parser("path", help="print one path's detail CSVs to stdout")
    path_cmd.add_argument("--config", type=Path, help="scenario file; defaults apply if omitted")
    path_cmd.add_argument("--index", type=int, required=True, help="path index to print")
    path_cmd.set_defaults(handler=_cmd_path)
    parser.commands = commands.choices  # name -> subparser, for cli_main's direct route
    return parser


def _load_scenario(args) -> Scenario:
    if args.config is None:
        text = ""
    else:
        try:
            # a BOM is skipped; parse_scenario's splitlines ends lines at \r\n and \r
            text = args.config.read_bytes().decode("utf-8-sig")
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
    names = list(map(_fmt, parsed))  # 0.0 and -0.0 are two variants, with two names
    for i, name in enumerate(names):
        if name in names[:i]:
            # a repeat would run the same variant twice and overwrite its summary
            raise ConfigError(f"--values: {tokens[i]!r} repeats {args.param} = {name}")
    results = sweep(scenario, [(args.param, value) for value in parsed])

    files = {}
    lines = ["variant,metric,mean,sd,p5,p95"]
    for name, result in zip(names, results):
        files[f"summary_{args.param}_{name}.json"] = emit_summary(result)
        for metric in METRICS:
            stats = result.metric(metric)
            cells = (stats.mean, stats.sd, stats.quantiles["p5"], stats.quantiles["p95"])
            lines.append(",".join((f"{args.param}={name}", metric, *map(_fmt, cells))))
    files["sweep.csv"] = "\n".join(lines) + "\n"
    _write_files(args.out, files)
    return 0


def _cmd_path(args) -> int:
    scenario = _load_scenario(args)
    detail = run_path_detail(scenario, args.index)
    check_outcome(detail.outcome)  # as run does, before anything is written
    sys.stdout.write(career_csv(detail.career) + "\n" + retirement_csv(detail.retirement))
    return 0


def cli_main(argv=None) -> int:
    """Entry point; returns 0 on success, 1 for config errors, 2 for runtime errors."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # "--val V" as "--val=V" for each prefix of --values, lest argparse read a V of -1 as an option
    for i in reversed(range(len(argv) - 1)):
        if len(argv[i]) > 2 and "--values".startswith(argv[i]):
            argv[i : i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    try:
        # a command's own parser takes its argv directly; any other argv goes to the top level
        parser = _build_parser()
        command = parser.commands.get(argv[0]) if argv else None
        args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # --help
        return exc.code if isinstance(exc.code, int) else 0
    except Exception as exc:
        message = str(exc)
        if isinstance(exc, MemoryError):  # numpy's message, if any, names no key
            sizes = "num_paths, service_years and retirement_years"
            message = f"out of memory ({message or 'no detail'}); the arrays grow with {sizes}"
        print(f"error: {message}", file=sys.stderr)
        return 1 if isinstance(exc, ConfigError) else 2


def main() -> None:
    raise SystemExit(cli_main())

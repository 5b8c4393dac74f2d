from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pensionsim import engine, io_cli
from pensionsim.accumulation import CareerYear
from pensionsim.engine import (
    DEFAULTS,
    FIELDS,
    METRICS,
    ConfigError,
    Scenario,
    run_path_detail,
    run_scenario,
    scenario_from_values,
)
from pensionsim.io_cli import (
    CAREER_CSV_HEADER,
    RETIREMENT_CSV_HEADER,
    career_csv,
    cli_main,
    emit_summary,
    parse_scenario,
    retirement_csv,
    scenario_text,
)
from pensionsim.retirement import RetirementYear
from pensionsim.stochastic import RandomStream


def test_empty_file_is_the_baseline():
    assert parse_scenario("") == Scenario()


def test_comments_blanks_and_overrides():
    text = """
    # quarterly review scenario
    annuity_rate = 0.05

    num_paths = 250   # keep it quick
    """
    scenario = parse_scenario(text)
    assert scenario.annuity_rate == 0.05
    assert scenario.num_paths == 250
    assert scenario.service_years == 30  # untouched default


def test_unknown_key_error_names_the_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_scenario("annuity_rate = 0.05\nannuity = 0.06\n")


def test_unparseable_value_names_the_line():
    with pytest.raises(ConfigError, match="line 1"):
        parse_scenario("num_paths = many\n")
    with pytest.raises(ConfigError, match="line 3"):
        parse_scenario("\n\ngbm_mu = fast\n")


def test_invariant_violation_rejected_with_line():
    with pytest.raises(ConfigError, match="line 1.*gbm_sigma"):
        parse_scenario("gbm_sigma = -0.1\n")
    with pytest.raises(ConfigError, match="guarantee_fraction"):
        parse_scenario("guarantee_fraction = 1.5\n")


def _just_outside(field):
    """Values just beyond each bound of a field; float fields also reject NaN and inf."""
    values = [math.nan, math.inf] if field.kind is float else []
    if field.low is not None:
        if field.low_open:
            values.append(field.low)
        elif field.kind is int:
            values.append(field.low - 1)
        else:
            values.append(math.nextafter(field.low, -math.inf))
    if field.high is not None:
        step = field.high + 1 if field.kind is int else math.nextafter(field.high, math.inf)
        values.append(step)
    return values


@pytest.mark.parametrize(
    "key, value",
    [(field.key, value) for field in FIELDS for value in _just_outside(field)],
    ids=repr,
)
def test_every_field_rejects_values_just_outside_its_range(key, value):
    with pytest.raises(ConfigError, match=f"^line 1: {key} "):
        parse_scenario(f"{key} = {value!r}\n")
    with pytest.raises(ConfigError, match=key):
        scenario_from_values({key: value})


def test_field_boundaries_are_accepted():
    for key, value in (
        ("guarantee_fraction", 0.0),
        ("guarantee_fraction", 1.0),
        ("seed", 2**64 - 1),
        ("num_paths", 1),
    ):
        assert dataclasses.asdict(scenario_from_values({key: value}))[key] == value
        assert dataclasses.asdict(parse_scenario(f"{key} = {value}\n"))[key] == value
    with pytest.raises(ConfigError, match="^line 1: basic_start must be > 0"):
        parse_scenario("basic_start = 0\n")


def test_readme_scenario_table_lists_every_field_and_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)`\s*\| (\S+)\s*\|", readme, flags=re.MULTILINE)
    assert [key for key, _ in rows] == [field.key for field in FIELDS]
    for field, (_, default) in zip(FIELDS, rows):
        assert field.kind(default) == field.default, field.key


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, flags=re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in printed[1:]] == ["0.05", "0.07"]


def test_cross_field_violation_rejected():
    with pytest.raises(ConfigError, match="employ"):
        parse_scenario("employee_rate = 0.6\nemployer_rate = 0.6\n")


def test_key_set_twice_rejected():
    with pytest.raises(ConfigError, match="^line 3: annuity_rate is already set on line 1$"):
        parse_scenario("annuity_rate = 0.05\n# the same value again\nannuity_rate = 0.05\n")


def test_missing_separator_rejected():
    with pytest.raises(ConfigError, match="line 1"):
        parse_scenario("annuity_rate 0.05\n")


def test_missing_value_rejected():
    with pytest.raises(ConfigError, match="^line 1: missing value for seed$"):
        parse_scenario("seed =\n")


def test_scenario_text_round_trips():
    scenario = Scenario(gbm_mu=0.11, seed=9, basic_start=250.0)
    assert parse_scenario(scenario_text(scenario)) == scenario


def test_career_csv_layout_and_precision():
    detail = run_path_detail(Scenario(num_paths=2, seed=8), 0)
    text = career_csv(detail.career)
    lines = text.splitlines()
    assert lines[0] == CAREER_CSV_HEADER
    assert len(lines) == 31
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[6]) == 0.0  # year 1 has no prior-year return
    # full precision: every number round-trips to the table entry it came from
    cells = lines[8].split(",")
    assert float(cells[2]) == detail.career.basic[7]
    assert float(cells[7]) == detail.career.corpus[7]


def test_retirement_csv_layout_and_booleans():
    detail = run_path_detail(Scenario(num_paths=2, seed=8, annuity_rate=0.01), 1)
    text = retirement_csv(detail.retirement)
    lines = text.splitlines()
    assert lines[0] == RETIREMENT_CSV_HEADER
    assert len(lines) == 21
    tokens = {line.split(",")[4] for line in lines[1:]}
    assert tokens <= {"true", "false"}
    assert "false" in tokens  # a 1% annuity cannot cover the benchmark
    years = [int(line.split(",")[0]) for line in lines[1:]]
    assert years == list(range(31, 51))


def test_a_path_request_builds_one_table_of_each_kind(monkeypatch, capsys):
    # the tables are columns over the years, not a named tuple per year
    built = []
    for table_type in (CareerYear, RetirementYear):
        def counting(cls, *args, _new=table_type.__new__, **kwargs):
            built.append(cls.__name__)
            return _new(cls, *args, **kwargs)

        monkeypatch.setattr(table_type, "__new__", staticmethod(counting))
    assert cli_main(["path", "--index", "3"]) == 0
    assert sorted(built) == ["CareerYear", "RetirementYear"]
    assert len(capsys.readouterr().out.splitlines()) == 1 + 30 + 1 + 1 + 20


def _numpy_scalars(table):
    # np.float32, not np.float64: np.float64 is a float subclass and prints as one
    kinds = {int: np.int64, float: np.float32, bool: np.bool_}
    return table._make([kinds[type(v)](v) for v in column] for column in table)


def test_csv_renders_numpy_scalar_fields_as_plain_numbers():
    detail = run_path_detail(Scenario(num_paths=2, annuity_rate=0.04), 1)
    for render, table in ((career_csv, detail.career), (retirement_csv, detail.retirement)):
        numpy_table = _numpy_scalars(table)
        plain_table = numpy_table._make([v.item() for v in column] for column in numpy_table)
        text = render(numpy_table)
        # columns of numpy scalars, of plain numbers, as iterators and as arrays
        assert text == render(plain_table) == render(map(iter, plain_table))
        assert text == render(numpy_table._make(map(np.array, numpy_table)))
        assert "np." not in text
    cells = {line.split(",")[4] for line in text.splitlines()[1:]}
    assert cells == {"true", "false"}


def test_emit_summary_shape_and_key_order():
    result = run_scenario(Scenario(num_paths=40))
    text = emit_summary(result)
    doc = json.loads(text)
    assert list(doc) == ["scenario", "metrics"]
    assert list(doc["metrics"]) == ["final_corpus", "shortfall_years", "pv_support"]
    scenario_echo = doc["scenario"]
    assert scenario_echo["num_paths"] == 40
    assert scenario_echo["seed"] == 42
    assert "conventions" in scenario_echo
    block = doc["metrics"]["final_corpus"]
    assert list(block) == ["count", "mean", "sd", "min", "max", "quantiles", "histogram"]
    assert list(block["quantiles"]) == ["p5", "p25", "p50", "p75", "p95"]
    assert sum(block["histogram"]["counts"]) == 40
    assert len(block["histogram"]["edges"]) == len(block["histogram"]["counts"]) + 1


def test_emit_summary_bytes_stable():
    scenario = Scenario(num_paths=25)
    first = emit_summary(run_scenario(scenario))
    second = emit_summary(run_scenario(scenario))
    assert first == second


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["mean", "sd", "min", "max", "quantile", "first-edge", "edge"])
def test_emit_summary_rejects_a_statistic_that_is_not_finite(value, where):
    # strict JSON has no NaN or Infinity; summarize raises before it would
    # give one, so the statistics are set by hand
    result = run_scenario(Scenario(num_paths=10))
    stats = result.pv_support
    changed = {
        "mean": {"mean": value},
        "sd": {"sd": value},
        "min": {"min": value},
        "max": {"max": value},
        "quantile": {"quantiles": {**stats.quantiles, "p50": value}},
        "first-edge": {"bin_edges": (value, *stats.bin_edges[1:])},
        "edge": {"bin_edges": (*stats.bin_edges[:-1], value)},
    }[where]
    bad = dataclasses.replace(result, pv_support=dataclasses.replace(stats, **changed))
    with pytest.raises(ValueError, match="not JSON compliant"):
        emit_summary(bad)


def test_a_summary_of_a_known_histogram_shape_builds_no_new_layout(monkeypatch):
    # the layout is json.dumps(indent=2), whose pure-Python encoder takes
    # about twice emit_summary's time, so a summary of a shape already
    # written must not run it again
    emit_summary(run_scenario(Scenario(num_paths=10)))
    layouts = mock.Mock(wraps=json.encoder._make_iterencode)  # the indenting encoder
    monkeypatch.setattr(json.encoder, "_make_iterencode", layouts)
    result = run_scenario(Scenario(num_paths=12, seed=3))
    emit_summary(result)
    emit_summary(result)
    assert layouts.call_count == 0
    stats = result.pv_support
    shorter = dataclasses.replace(
        stats, bin_edges=stats.bin_edges[:-1], bin_counts=stats.bin_counts[:-1]
    )
    text = emit_summary(dataclasses.replace(result, pv_support=shorter))
    assert layouts.call_count == 1
    assert json.loads(text)["metrics"]["pv_support"]["histogram"]["counts"] == list(
        shorter.bin_counts
    )


def _summary_document(result):
    # the document summary.json holds, for json.dumps to lay out
    def stats_block(stats):
        return {
            "count": stats.count,
            "mean": stats.mean,
            "sd": stats.sd,
            "min": stats.min,
            "max": stats.max,
            "quantiles": {label: stats.quantiles[label] for label in engine.QUANTILE_LABELS},
            "histogram": {"edges": list(stats.bin_edges), "counts": list(stats.bin_counts)},
        }

    return {
        "scenario": {**dataclasses.asdict(result.scenario), "conventions": io_cli.CONVENTIONS},
        "metrics": {name: stats_block(result.metric(name)) for name in METRICS},
    }


_FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                     -1.7976931348623157e308, 0.1, 1e16, 1e-7]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_COUNTS = st.integers(0, 2**80)


@st.composite
def _one_bin(draw):
    # a histogram whose values all fall in one bin
    counts = [0] * draw(st.integers(1, 30))
    counts[draw(st.integers(0, len(counts) - 1))] = draw(_COUNTS)
    return counts


_SUMMARY_STATS = st.builds(
    engine.SummaryStats,
    count=_COUNTS,
    mean=_FINITE,
    sd=_FINITE,
    min=_FINITE,
    max=_FINITE,
    quantiles=st.fixed_dictionaries({label: _FINITE for label in engine.QUANTILE_LABELS}),
    bin_edges=st.lists(_FINITE, max_size=31).map(tuple),
    bin_counts=st.one_of(st.lists(_COUNTS, max_size=30), _one_bin()).map(tuple),
)


@settings(max_examples=300, deadline=None, database=None)
@given(
    values=st.fixed_dictionaries({}, optional={
        "employee_rate": st.sampled_from([0.0, -0.0, 5e-324, 0.5]),
        "inflation_mean_pct": _FINITE,
        "gbm_mu": _FINITE,
        "num_paths": st.integers(1, 2**64),
        "seed": st.integers(0, 2**64 - 1),
    }),
    stats=st.lists(_SUMMARY_STATS, min_size=3, max_size=3),
)
def test_emit_summary_is_json_dumps_of_its_document(values, stats):
    result = engine.ScenarioResult(Scenario(**values), None, *stats)
    expected = json.dumps(_summary_document(result), indent=2, allow_nan=False) + "\n"
    assert emit_summary(result) == expected


def test_single_path_summary_has_zero_sd():
    result = run_scenario(Scenario(num_paths=1))
    doc = json.loads(emit_summary(result))
    for name in ("final_corpus", "shortfall_years", "pv_support"):
        assert doc["metrics"][name]["sd"] == 0.0
        assert doc["metrics"][name]["count"] == 1


def test_cli_run_with_defaults(tmp_path, capsys):
    rc = cli_main(["run", "--paths", "50", "--seed", "7", "--out", str(tmp_path)])
    assert rc == 0
    summary = tmp_path / "summary.json"
    assert summary.exists()
    doc = json.loads(summary.read_text())
    assert doc["scenario"]["num_paths"] == 50
    assert doc["scenario"]["seed"] == 7
    assert str(summary) in capsys.readouterr().out


def test_cli_run_reads_config_and_writes_detail(tmp_path):
    config = tmp_path / "scenario.cfg"
    config.write_text("num_paths = 30\nannuity_rate = 0.05\n")
    out = tmp_path / "out"
    rc = cli_main(
        ["run", "--config", str(config), "--out", str(out), "--detail", "0", "2"]
    )
    assert rc == 0
    for name in (
        "summary.json",
        "path_0_career.csv",
        "path_0_retirement.csv",
        "path_2_career.csv",
        "path_2_retirement.csv",
    ):
        assert (out / name).exists(), name
    career = (out / "path_2_career.csv").read_text().splitlines()
    assert career[0] == CAREER_CSV_HEADER
    assert len(career) == 31


@pytest.mark.parametrize("detail", [["0", "--detail", "2"], ["0", "2", "--detail", "2"]])
def test_cli_repeated_detail_adds_to_the_list(tmp_path, capsys, detail):
    assert cli_main(["run", "--paths", "20", "--out", str(tmp_path), "--detail", *detail]) == 0
    names = [f"path_{i}_{table}.csv" for i in (0, 2) for table in ("career", "retirement")]
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(["summary.json", *names])
    wrote = capsys.readouterr().out.splitlines()
    assert sorted(wrote) == sorted(f"wrote {tmp_path / name}" for name in ["summary.json", *names])


def test_cli_two_runs_are_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["run", "--paths", "60", "--out"]
    assert cli_main(args + [str(out_a)]) == 0
    assert cli_main(args + [str(out_b)]) == 0
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()


def test_cli_sweep_writes_variant_summaries_and_table(tmp_path):
    config = tmp_path / "scenario.cfg"
    config.write_text("num_paths = 400\n")
    out = tmp_path / "sweep"
    rc = cli_main(
        [
            "sweep",
            "--config",
            str(config),
            "--param",
            "annuity_rate",
            "--values",
            "0.05,0.07",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    five = json.loads((out / "summary_annuity_rate_0.05.json").read_text())
    seven = json.loads((out / "summary_annuity_rate_0.07.json").read_text())
    assert five["scenario"]["annuity_rate"] == 0.05
    assert seven["scenario"]["annuity_rate"] == 0.07
    assert five["metrics"]["pv_support"]["mean"] > seven["metrics"]["pv_support"]["mean"]

    table = (out / "sweep.csv").read_text().splitlines()
    assert table[0] == "variant,metric,mean,sd,p5,p95"
    assert len(table) == 1 + 2 * 3
    assert table[1].startswith("annuity_rate=0.05,final_corpus,")
    assert table[4].startswith("annuity_rate=0.07,final_corpus,")


def test_cli_sweep_unknown_param_is_config_error(tmp_path):
    rc = cli_main(
        ["sweep", "--param", "no_such_key", "--values", "1,2", "--out", str(tmp_path)]
    )
    assert rc == 1


def test_cli_sweep_bad_value_names_the_flag(tmp_path, capsys):
    rc = cli_main(
        ["sweep", "--param", "num_paths", "--values", "5,0", "--out", str(tmp_path)]
    )
    assert rc == 1
    assert "--values: num_paths must be >= 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_sweep_without_a_value_is_config_error(tmp_path, capsys):
    rc = cli_main(["sweep", "--param", "seed", "--values", " , ", "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == "error: --values must list at least one value\n"
    assert list(tmp_path.iterdir()) == []


def test_cli_sweep_repeated_value_is_config_error(tmp_path, capsys):
    rc = cli_main(
        ["sweep", "--param", "annuity_rate", "--values", "0.05,0.07,0.050", "--out", str(tmp_path)]
    )
    assert rc == 1
    assert "--values: '0.050' repeats annuity_rate = 0.05" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_sweep_runs_signed_zeros_as_two_variants(tmp_path):
    # 0.0 and -0.0 are equal numbers but two variants whose files differ
    config = tmp_path / "scenario.cfg"
    config.write_text("num_paths = 20\n")
    out = tmp_path / "out"
    argv = ["sweep", "--param", "inflation_mean_pct", "--values", "0.0,-0.0"]
    assert cli_main([*argv, "--config", str(config), "--out", str(out)]) == 0
    overrides = [("inflation_mean_pct", 0.0), ("inflation_mean_pct", -0.0)]
    results = engine.sweep(Scenario(num_paths=20), overrides)
    for name, result in zip(["0.0", "-0.0"], results):
        written = (out / f"summary_inflation_mean_pct_{name}.json").read_text()
        assert written == emit_summary(result)
    assert emit_summary(results[0]) != emit_summary(results[1])


@pytest.mark.parametrize(
    "values, code", [("-10,4", 0), ("-1e1,4", 0), ("-.5,4", 0), ("-1.7e+308", 2)]
)
def test_cli_sweep_reads_a_negative_first_value_as_a_value(tmp_path, capsys, values, code):
    # the token after --values is its value whatever its sign, as in --values=V
    config = tmp_path / "scenario.cfg"
    config.write_text("num_paths = 20\n")
    runs = []
    for flag in (["--values", values], [f"--values={values}"]):
        out = tmp_path / f"out{len(runs)}"
        argv = ["--config", str(config), "--param", "inflation_mean_pct", *flag, "--out", str(out)]
        rc = cli_main(["sweep", *argv])
        files = {path.name: path.read_bytes() for path in out.iterdir()} if out.exists() else {}
        runs.append((rc, capsys.readouterr().err, files))
    assert runs[0] == runs[1]
    assert runs[0][0] == code and bool(runs[0][2]) == (code == 0)


@pytest.mark.parametrize("values", ["-10,4", "-1e1,4"])
@pytest.mark.parametrize("flag", ["--v", "--val", "--value"])
def test_cli_sweep_reads_a_negative_value_after_an_abbreviated_flag(
    tmp_path, capsys, flag, values
):
    # argparse takes a prefix of an option for it: --val for --values, --pa for --param
    config = tmp_path / "scenario.cfg"
    config.write_text("num_paths = 20\n")
    abbreviated = ["--pa", "inflation_mean_pct", flag, values]
    runs = []
    for flags in (abbreviated, ["--param", "inflation_mean_pct", "--values=-10,4"]):
        out = tmp_path / f"out{len(runs)}"
        assert cli_main(["sweep", "--config", str(config), *flags, "--out", str(out)]) == 0
        runs.append({path.name: path.read_bytes() for path in out.iterdir()})
    capsys.readouterr()
    assert runs[0] == runs[1] and len(runs[0]) == 3


def test_cli_path_prints_both_tables(capsys):
    rc = cli_main(["path", "--index", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    blocks = out.split("\n\n")
    assert len(blocks) == 2
    career_lines = blocks[0].splitlines()
    retirement_lines = blocks[1].splitlines()
    assert career_lines[0] == CAREER_CSV_HEADER
    assert retirement_lines[0] == RETIREMENT_CSV_HEADER
    years = [int(line.split(",")[0]) for line in career_lines[1:]]
    years += [int(line.split(",")[0]) for line in retirement_lines[1:] if line]
    assert years == list(range(1, 51))


def test_cli_missing_config_file_is_config_error(tmp_path, capsys):
    rc = cli_main(["run", "--config", str(tmp_path / "absent.cfg")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "make, reason",
    [
        (lambda path: path.mkdir(), "Is a directory"),
        (lambda path: path.write_bytes(b"num_paths = 5 # \xff\n"), "can't decode byte 0xff"),
        # past read_text's first 8 KiB chunk; a BOM is not counted in the position
        (lambda path: path.write_bytes(b"# " + b"x" * 9000 + b"\nnum_paths = 5 # \xff\n"),
         "byte 0xff in position 9019: invalid start byte"),
        (lambda path: path.write_bytes(b"\xef\xbb\xbf# " + b"x" * 9000 + b"\nseed = 1 \xc3"),
         "byte 0xc3 in position 9012: unexpected end of data"),
    ],
    ids=["directory", "not-utf8", "not-utf8-past-8KiB", "bom-then-truncated-past-8KiB"],
)
def test_cli_unreadable_config_is_config_error_naming_the_file(tmp_path, capsys, make, reason):
    config = tmp_path / "scenario.cfg"
    make(config)
    with pytest.raises((OSError, UnicodeDecodeError)) as read:  # the error read_text gives
        config.read_text(encoding="utf-8-sig")
    assert cli_main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: cannot read config file {config}: {read.value}\n"
    assert reason in str(read.value)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, raised, code",
    [
        (["--help"], None, 0),
        (["run", "--help"], None, 0),
        ([], None, 1),  # no subcommand
        (["run", "--paths", "abc"], None, 1),
        (["run", "--paths", "5"], ConfigError("bad scenario"), 1),
        (["run", "--paths", "5"], RuntimeError("runtime failure"), 2),
    ],
    ids=["help", "run-help", "no-command", "bad-flag", "config-error", "runtime-error"],
)
def test_cli_exit_codes(tmp_path, capsys, monkeypatch, argv, raised, code):
    if raised is not None:
        def fail(scenario):
            raise raised

        monkeypatch.setattr(io_cli, "run_scenario", fail)
        argv = argv + ["--out", str(tmp_path)]
    assert cli_main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") == (code != 0)
    if raised is not None:
        assert err == f"error: {raised}\n"
    assert list(tmp_path.iterdir()) == []


def test_cli_builds_its_parser_once(tmp_path, capsys):
    io_cli._build_parser.cache_clear()
    for _ in range(2):
        assert cli_main(["run", "--paths", "3", "--out", str(tmp_path)]) == 0
    assert io_cli._build_parser.cache_info().misses == 1


@pytest.fixture
def handled(monkeypatch):
    """The namespaces the command handlers receive; the handlers only record them."""
    received = []
    for name in ("_cmd_run", "_cmd_sweep", "_cmd_path"):
        monkeypatch.setattr(io_cli, name, lambda args: received.append(args) or 0)
    io_cli._build_parser.cache_clear()  # a parser built with the recording handlers
    yield received
    io_cli._build_parser.cache_clear()


@pytest.mark.parametrize(
    "argv, parsed",
    [
        (["run"], None),
        (["run", "--config", "a.cfg", "--paths", "3", "--seed", "7", "--out", "o",
          "--detail", "1", "2"], None),
        (["run", "--detail", "1", "--detail", "2", "-3"], None),
        (["run", "--paths=3", "--seed=-4", "--out=o", "--detail=5"], None),
        (["sweep", "--param", "seed", "--values", "1,2"], None),
        (["sweep", "--pa", "seed", "--val", "-10,4"],
         ["sweep", "--pa", "seed", "--val=-10,4"]),
        (["sweep", "--param=seed", "--values=3", "--config=a.cfg", "--out=o"], None),
        (["path", "--index", "0"], None),
        (["path", "--conf", "a.cfg", "--ind", "3"], None),
        (["path", "--config=a.cfg", "--index=-1"], None),
    ],
)
def test_cli_routes_a_command_as_argparse_parses_it(handled, argv, parsed):
    # the namespace a command's own parser gives is the top-level parser's,
    # but for `command`, which only the top level sets; `parsed` is argv after
    # cli_main's --values rewrite
    assert cli_main(argv) == 0
    expected = vars(io_cli._build_parser().parse_args(parsed or argv))
    assert expected.pop("command") == argv[0]
    assert vars(handled.pop()) == expected and not handled


@pytest.mark.parametrize("command", ["run", "sweep", "path"])
def test_cli_command_help_is_the_top_level_parsers(capsys, command):
    for flag in ("-h", "--help"):
        assert cli_main([command, flag]) == 0
        routed = capsys.readouterr()
        with pytest.raises(SystemExit) as done:
            io_cli._build_parser().parse_args([command, flag])
        assert done.value.code == 0
        assert capsys.readouterr() == routed
        assert routed.out.startswith(f"usage: pensionsim {command} [-h]") and routed.err == ""


# exit code, stdout and stderr of each argv, as the top-level parser alone
# gave them before a command's argv went straight to its own parser
@pytest.mark.parametrize(
    "argv, err",
    [
        ([], "the following arguments are required: command"),
        (["bogus"], "argument command: invalid choice: 'bogus' (choose from 'run', 'sweep', 'path')"),
        (["--index", "1", "path"],
         "argument command: invalid choice: '1' (choose from 'run', 'sweep', 'path')"),
        (["path"], "the following arguments are required: --index"),
        (["path", "--index", "1", "extra"], "unrecognized arguments: extra"),
        (["run", "--paths", "abc"], "argument --paths: invalid int value: 'abc'"),
        (["path", "--paths", "3"], "the following arguments are required: --index"),
    ],
)
def test_cli_usage_errors_are_unchanged(capsys, argv, err):
    assert cli_main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {err}\n")


def test_cli_parses_a_command_without_the_top_level_parser(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("top-level parse")

    monkeypatch.setattr(io_cli._build_parser(), "parse_known_args", refuse)
    config = tmp_path / "scenario.cfg"
    config.write_text("num_paths = 3\n")
    for argv in (
        ["run", "--config", str(config), "--out", str(tmp_path / "run")],
        ["sweep", "--config", str(config), "--param", "seed", "--values", "1,2",
         "--out", str(tmp_path / "sweep")],
        ["path", "--config", str(config), "--index", "2"],
    ):
        assert cli_main(argv) == 0
    assert capsys.readouterr().err == ""
    for argv in ([], ["--help"]):  # these still reach the top-level parser
        assert cli_main(argv) == 2
        assert capsys.readouterr() == ("", "error: top-level parse\n")


def _config_as_read_text(path: Path):
    """What parse_scenario makes of read_text's text: a Scenario or an error message."""
    try:
        return parse_scenario(path.read_text(encoding="utf-8-sig"))
    except ConfigError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "text",
    [
        "\ufeffnum_paths = 5\nseed = 3\n",
        "\ufeffnum_paths = 5\nseed = x\n",
        "num_paths = 5\r\n\r\nseed = 3\r\n",
        "num_paths = 5\r\n\r\nseed = x\r\n",
        "num_paths = 5\r\rseed = 3\r",
        "num_paths = 5\r\r\nseed = x",
        "num_paths = 5\x0cseed = 3\n",
        "num_paths = 5 # a\x0c\nseed = x\n",
        "num_paths = 5\u2028seed = 3\u2029",
        "num_paths = 5\u2028seed = x\n",
    ],
    ids=["bom", "bom-error", "crlf", "crlf-error", "cr", "cr-error",
         "form-feed", "form-feed-error", "line-separator", "line-separator-error"],
)
def test_config_read_parses_as_read_text_would(tmp_path, text):
    config = tmp_path / "scenario.cfg"
    config.write_bytes(text.encode("utf-8"))
    expected = _config_as_read_text(config)
    try:
        loaded = io_cli._load_scenario(argparse.Namespace(config=config))
    except ConfigError as exc:
        loaded = str(exc)
    assert loaded == expected
    assert isinstance(expected, Scenario) == ("seed = 3" in text)


def test_cli_run_after_a_detail_run_writes_no_detail(tmp_path, capsys):
    assert cli_main(["run", "--paths", "5", "--detail", "3", "--out", str(tmp_path / "a")]) == 0
    assert cli_main(["run", "--paths", "5", "--out", str(tmp_path / "b")]) == 0
    assert [path.name for path in (tmp_path / "b").iterdir()] == ["summary.json"]


def test_cli_bad_flag_value_is_config_error(capsys):
    assert cli_main(["run", "--paths", "abc"]) == 1
    assert cli_main(["run", "--paths", "0"]) == 1
    capsys.readouterr()


def test_cli_bad_config_content_is_config_error(tmp_path, capsys):
    config = tmp_path / "scenario.cfg"
    config.write_text("gbm_sigma = -1\n")
    assert cli_main(["run", "--config", str(config)]) == 1
    assert "gbm_sigma" in capsys.readouterr().err


@pytest.mark.parametrize("index", ["10", "-1"])
def test_cli_bad_detail_index_writes_nothing(tmp_path, capsys, index):
    rc = cli_main(["run", "--paths", "10", "--out", str(tmp_path), "--detail", "0", index])
    assert rc == 1
    assert "path_index" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_num_paths_beyond_the_stream_ids_is_config_error(tmp_path, capsys):
    # path k draws stream k, and stream ids are one 64-bit counter word;
    # `path` computes only path 0, so without the bound it would succeed
    config = tmp_path / "scenario.cfg"
    config.write_text(f"num_paths = {2**64 + 1}\n")
    assert cli_main(["path", "--config", str(config), "--index", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line 1: num_paths must be <= {2**64}, got {2**64 + 1}\n"


@pytest.mark.parametrize("command", ["path", "run"])
def test_cli_config_with_a_byte_order_mark(tmp_path, capsys, command):
    # some Windows editors save UTF-8 with a leading BOM
    config = tmp_path / "scenario.cfg"
    config.write_bytes("num_paths = 5\nseed = 3\n".encode("utf-8-sig"))
    out = tmp_path / "out"
    argv = ["--index", "4"] if command == "path" else ["--out", str(out)]
    assert cli_main([command, "--config", str(config), *argv]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if command == "run":
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert (summary["scenario"]["num_paths"], summary["scenario"]["seed"]) == (5, 3)
    else:
        assert captured.out.startswith(CAREER_CSV_HEADER + "\n")
        assert cli_main(["path", "--config", str(config), "--index", "5"]) == 1  # num_paths = 5


@pytest.mark.parametrize(
    "command, config, code, stream, expected, names",
    [
        (["path", "--index", "0"], "", 0, "stdout", CAREER_CSV_HEADER + "\n", ()),
        (["path", "--index", "0"], "gbm_sigma = 1e200\n", 2, "stderr", "error: ", ("gbm_sigma",)),
        # the squares of the sd overflow; a real process, since pytest turns
        # numpy's RuntimeWarning into an error of its own
        (["run"], "num_paths = 3\nbasic_start = 1e200\n", 2, "stderr", "error: ",
         ("final_corpus", "sd")),
    ],
    ids=["success", "runtime-error", "summary-overflow"],
)
def test_module_entry_point_exits_with_the_code(
    tmp_path, command, config, code, stream, expected, names
):
    # the exit code must reach the shell through main()'s SystemExit
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(config)
    out = tmp_path / "out"
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "pensionsim", *command, "--config", str(scenario)]
    if command[0] == "run":
        argv += ["--out", str(out)]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == code
    assert getattr(done, stream).startswith(expected)
    if code:
        assert all(name in done.stderr for name in names) and done.stdout == ""
        assert len(done.stderr.splitlines()) == 1 and "RuntimeWarning" not in done.stderr
        assert not out.exists()


def test_module_entry_point_prints_what_cli_main_prints(capsys):
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "pensionsim", "path", "--index", "0"],
        capture_output=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
    )
    assert cli_main(["path", "--index", "0"]) == 0 == done.returncode
    assert done.stdout == capsys.readouterr().out.encode() and done.stderr == b""


def _python(*args, **kwargs) -> subprocess.CompletedProcess:
    """`python` with `args` in a fresh process, on this tree's src/."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run([sys.executable, *args], capture_output=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120, **kwargs)


def test_console_script_target_prints_what_the_module_prints():
    # an installed `pensionsim` calls the [project.scripts] target as
    # sys.exit(target()); a regex reads it, since 3.10 has no tomllib
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    script = re.search(
        r'^\[project\.scripts\]\n(?:[^\[].*\n)*?pensionsim = "([\w.]+):(\w+)"$', pyproject, re.M
    )
    module, function = script.groups()
    call = f"import sys; from {module} import {function}; sys.exit({function}())"
    done = _python("-c", call, "path", "--index", "0")
    expected = _python("-m", "pensionsim", "path", "--index", "0")
    assert done.returncode == 0 == expected.returncode
    assert done.stdout == expected.stdout and done.stderr == b""
    assert done.stdout.startswith(CAREER_CSV_HEADER.encode() + b"\n")


def _output_files(root: Path) -> dict[str, bytes]:
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="on one CPU a command never shares its blocks, so both schedules are serial",
)
def test_shared_and_serial_commands_write_the_same_bytes(tmp_path):
    # a large run and sweeps as a user runs them: once as is, shared with the
    # helper, and once pinned to one CPU in the child, which keeps a command
    # serial. The annuity_rate variants share the draws and the career, the
    # gbm_sigma variants the draws, and the service_years variants run
    # apart. 3001 paths take 7 blocks of 376 and a short last block of 369
    for paths in (10_000, 3001):
        (tmp_path / f"sweep-{paths}.cfg").write_text(f"num_paths = {paths}\n")
    sweeps = [
        (10_000, "annuity_rate", "0.05,0.07,0.09"),
        (10_000, "gbm_sigma", "0.0,0.05,0.1"),
        (10_000, "service_years", "25,30,35"),
        (3001, "annuity_rate", "0.05,0.07,0.09"),
    ]
    commands = {
        "run": ["run", "--paths", "20000"],
        "run-3001": ["run", "--paths", "3001"],
        **{
            f"sweep-{paths}-{param}": ["sweep", "--param", param, "--values", values,
                                       "--config", str(tmp_path / f"sweep-{paths}.cfg")]
            for paths, param, values in sweeps
        },
    }
    cpu = min(os.sched_getaffinity(0))
    for mode, pin in (("shared", None), ("serial", lambda: os.sched_setaffinity(0, {cpu}))):
        for name, argv in commands.items():
            done = _python("-m", "pensionsim", *argv, "--out", str(tmp_path / mode / name),
                           preexec_fn=pin)
            assert (done.returncode, done.stderr) == (0, b""), (mode, name)
    shared, serial = _output_files(tmp_path / "shared"), _output_files(tmp_path / "serial")
    assert list(shared) == list(serial)
    assert len(shared) > len(commands)
    for name, data in shared.items():
        assert data == serial[name], name


@pytest.mark.parametrize("command", ["run", "path"])
def test_cli_non_finite_outcome_is_runtime_error(tmp_path, capsys, command):
    config = tmp_path / "scenario.cfg"
    config.write_text("num_paths = 5\ninflation_sd_pct = 1e200\n")
    out = tmp_path / "out"
    argv = ["--index", "0"] if command == "path" else ["--out", str(out)]
    assert cli_main([command, "--config", str(config), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: pv_support is not finite on path 0: inf\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "config, argv",
    [
        ("basic_start = 1e300\nannuity_rate = 1e10\n", ["run", "--detail", "0"]),
        ("basic_start = 1e300\nannuity_rate = 1e10\n", ["path", "--index", "0"]),
        ("", ["sweep", "--param", "annuity_rate", "--values", "1.7e+308"]),
    ],
    ids=["run", "path", "sweep"],
)
def test_cli_pension_overflow_is_runtime_error(tmp_path, capsys, config, argv):
    # a finite corpus times a large annuity_rate overflows the pension alone:
    # every top-up is then 0, so no metric shows it
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text("num_paths = 1\n" + config)
    out = tmp_path / "out"
    if argv[0] != "path":
        argv = [*argv, "--out", str(out)]
    assert cli_main([*argv, "--config", str(scenario)]) == 2
    captured = capsys.readouterr()
    message = "pension (final_corpus * annuity_rate) is not finite on path 0: inf"
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


# each key at its default, zero and the float extremes; size keys small
# enough that a run stays quick, or so large that their arrays pass what
# numpy can index (2**63 - 1 bytes), and at most 4 paths or up to the bound
_EXTREMES = [0, 5e-324, 1e200, 1.7e308, -1.7e308]
_CLI_VALUES = {
    field.key: st.sampled_from([field.default, *_EXTREMES]) for field in FIELDS
} | {
    "service_years": st.sampled_from([0, 1, 2, 30, 2**62]),
    "retirement_years": st.sampled_from([0, 1, 20, 2**62]),
    "num_paths": st.one_of(st.integers(1, 4), st.sampled_from([2**63 - 1, 2**64])),
    "seed": st.sampled_from([0, 2**64 - 1]),
}


@contextlib.contextmanager
def _no_huge_arrays():
    # yields the list of huge draws and arrays asked for; each is refused, so a
    # size check that let a huge run through maps no memory and loops over no years
    huge = []

    def guarded(function, elements):
        def call(*args, **kwargs):
            if elements(*args) > 2**24:
                huge.append(f"{function.__name__}{args}")
                raise AssertionError(f"{function.__name__} asked for {elements(*args)}")
            return function(*args, **kwargs)
        return call

    def shape_size(shape, *_):
        return math.prod(shape) if isinstance(shape, tuple) else shape

    with mock.patch.object(np, "empty", guarded(np.empty, shape_size)), \
            mock.patch.object(np, "arange", guarded(
                np.arange, lambda *bounds: bounds[-1] - bounds[0] if bounds[1:] else bounds[0])), \
            mock.patch.object(engine, "stream_normals", guarded(
                engine.stream_normals, lambda seed, first, count, size, *_: count * size)), \
            mock.patch.object(engine, "project_basic", guarded(
                engine.project_basic, lambda scenario: scenario.service_years)), \
            mock.patch.object(RandomStream, "standard_normal", guarded(
                RandomStream.standard_normal, lambda stream, count: count)):
        yield huge


@st.composite
def _cli_calls(draw):
    keys = draw(st.lists(st.sampled_from(sorted(_CLI_VALUES)), unique=True, max_size=3))
    values = {"num_paths": draw(_CLI_VALUES["num_paths"])}
    values |= {key: draw(_CLI_VALUES[key]) for key in keys}
    command = draw(st.sampled_from(["run", "sweep", "path"]))
    if command == "run":
        argv = ["run"]
    elif command == "path":
        argv = ["path", "--index", "0"]
    else:
        key = draw(st.sampled_from(sorted(_CLI_VALUES)))
        swept = draw(st.lists(_CLI_VALUES[key], min_size=1, max_size=2))
        argv = ["sweep", "--param", key, "--values", ",".join(map(repr, swept))]
    return "".join(f"{key} = {value!r}\n" for key, value in values.items()), argv


def _reject_constant(name):
    raise ValueError(f"not JSON: {name}")


@settings(max_examples=120, deadline=None, database=None)
@given(call=_cli_calls())
def test_cli_error_contract_holds_across_the_scenario_space(call):
    config_text, argv = call
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "scenario.cfg"
        config.write_text(config_text)
        out = Path(tmp) / "out"
        if argv[0] != "path":
            argv = [*argv, "--out", str(out)]
        stdout, stderr = StringIO(), StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr), _no_huge_arrays() as huge:
            code = cli_main([*argv, "--config", str(config)])
        assert not huge
        assert code in (0, 1, 2)
        if code:
            [line] = stderr.getvalue().splitlines()
            assert line.startswith("error: ")
            assert any(name in line for name in (*DEFAULTS, *METRICS)), line
            assert stdout.getvalue() == "" and not out.exists()
        elif argv[0] == "path":
            assert stdout.getvalue().startswith(CAREER_CSV_HEADER + "\n")
        else:
            assert stderr.getvalue() == ""
            summaries = sorted(out.glob("summary*.json"))
            assert summaries
            for summary in summaries:
                json.loads(summary.read_text(encoding="utf-8"), parse_constant=_reject_constant)


def test_cli_failing_sweep_reports_the_first_failing_variant(tmp_path, capsys):
    # the second variant's discount overflows in the first block of paths,
    # but the first variant's corpus is what a variant-by-variant run fails on
    config = tmp_path / "scenario.cfg"
    config.write_text("num_paths = 64\ninflation_sd_pct = 1e306\n")
    out = tmp_path / "out"
    argv = ["sweep", "--config", str(config), "--param", "risk_free_rate", "--out", str(out)]
    assert cli_main([*argv, "--values", "0.07,1e10"]) == 2
    assert capsys.readouterr().err == "error: final_corpus is not finite on path 0: nan\n"
    assert not out.exists()
    assert cli_main([*argv, "--values", "1e10,0.07"]) == 2
    assert "guarantee discount (1 + risk_free_rate)**year overflows" in capsys.readouterr().err
    assert not out.exists()


def test_cli_unwritable_out_is_runtime_error(tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("a file, not a directory")
    rc = cli_main(["run", "--paths", "5", "--out", str(blocker)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["run", "--paths", "5"], ["sweep", "--param", "num_paths", "--values", "5"]],
    ids=["run", "sweep"],
)
@pytest.mark.parametrize("below", ["", "sub", "sub/deeper"])
def test_cli_out_under_a_file_names_the_file(tmp_path, capsys, monkeypatch, argv, below):
    # one line that names the file in the way, not "File exists" or "Not a directory"
    monkeypatch.chdir(tmp_path)
    Path("afile").write_text("a file, not a directory")
    out = str(Path("afile", below))
    assert cli_main([*argv, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write into {out}: afile is not a directory\n"
    assert Path("afile").read_text() == "a file, not a directory"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["afile"]


@pytest.mark.parametrize(
    "argv",
    [
        ["run"],
        ["sweep", "--param", "annuity_rate", "--values", "0.05,0.07"],
        ["path", "--index", "0"],
    ],
    ids=["run", "sweep", "path"],
)
def test_cli_out_of_memory_names_the_size_keys(tmp_path, capsys, argv):
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(f"retirement_years = {2**58}\n")  # exabytes: no 64-bit machine maps it
    out = tmp_path / "out"
    if argv[0] != "path":
        argv = argv + ["--out", str(out)]
    assert cli_main([*argv, "--config", str(scenario)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error: out of memory (Unable to allocate") and err.count("\n") == 1
    assert all(key in err for key in ("num_paths", "service_years", "retirement_years"))
    assert not out.exists()


def test_cli_out_of_memory_without_a_message_still_says_so(tmp_path, capsys, monkeypatch):
    def fail(scenario):
        raise MemoryError

    monkeypatch.setattr(io_cli, "run_scenario", fail)
    assert cli_main(["run", "--paths", "5", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory (no detail); ") and "retirement_years" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", METRICS)
def test_path_with_an_outcome_that_is_not_finite_exits_2_with_no_table(
    monkeypatch, capsys, name, text
):
    def not_finite(scenario, path_index):
        detail = run_path_detail(scenario, path_index)
        outcome = detail.outcome._replace(**{name: float(text)})
        return dataclasses.replace(detail, outcome=outcome)

    monkeypatch.setattr(io_cli, "run_path_detail", not_finite)
    assert cli_main(["path", "--index", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {name} is not finite on path 3: {text}\n"


@pytest.mark.parametrize(
    "config, fields",
    [
        ("service_years = 100000\n", ("service_years", "increment_rate")),
        ("gbm_mu = 800\n", ("gbm_mu", "gbm_sigma")),
        ("risk_free_rate = 1e10\n", ("risk_free_rate", "service_years")),
        ("service_years = 20000\n", ("risk_free_rate", "service_years")),
    ],
)
@pytest.mark.parametrize("command", ["run", "path"])
def test_cli_overflow_names_the_fields(tmp_path, capsys, config, fields, command):
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text("num_paths = 5\n" + config)
    out = tmp_path / "out"
    argv = ["--config", str(scenario)]
    argv += ["--out", str(out)] if command == "run" else ["--index", "0"]
    assert cli_main([command] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error: ") and all(field in err for field in fields)
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["run"],
        ["sweep", "--param", "annuity_rate", "--values", "0.05,0.07"],
        ["path", "--index", "0"],
    ],
    ids=["run", "sweep", "path"],
)
def test_cli_drift_overflow_names_gbm_sigma(tmp_path, capsys, argv):
    # gbm_sigma**2 is out of float range
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text("num_paths = 4\ngbm_sigma = 1e200\n")
    out = tmp_path / "out"
    if argv[0] != "path":
        argv = argv + ["--out", str(out)]
    assert cli_main(argv + ["--config", str(scenario)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "gbm_sigma" in captured.err
    assert not out.exists()


def _tree(directory):
    """Every entry under `directory`: file bytes, or None for a directory."""
    return {
        path.relative_to(directory).as_posix(): path.read_bytes() if path.is_file() else None
        for path in sorted(directory.rglob("*"))
    }


# (argv without --out, an output name of that command, an earlier output it would replace)
OUTPUT_SETS = [
    (
        ["sweep", "--param", "annuity_rate", "--values", "0.05,0.07"],
        "sweep.csv",
        "summary_annuity_rate_0.05.json",
    ),
    (["run", "--paths", "5", "--detail", "3"], "path_3_retirement.csv", "summary.json"),
]


@pytest.mark.parametrize("argv, occupied, earlier", OUTPUT_SETS, ids=["sweep", "run"])
def test_cli_occupied_output_name_writes_nothing(tmp_path, capsys, argv, occupied, earlier):
    (tmp_path / occupied).mkdir()
    (tmp_path / earlier).write_text("earlier output\n")
    (tmp_path / "notes.txt").write_text("not ours\n")
    before = _tree(tmp_path)
    assert cli_main(argv + ["--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(tmp_path / occupied) in captured.err
    assert _tree(tmp_path) == before


def _fail_second_write(monkeypatch):
    """Make the second file io_cli opens fail on write; returns the paths opened."""
    opened = []

    def open_failing_second_write(path, *args, **kwargs):
        handle = open(path, *args, **kwargs)
        opened.append(path)
        if len(opened) == 2:
            def no_space(text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            handle.write = no_space
        return handle

    monkeypatch.setattr(io_cli, "open", open_failing_second_write, raising=False)
    return opened


@pytest.mark.parametrize("argv, occupied, earlier", OUTPUT_SETS, ids=["sweep", "run"])
def test_cli_failed_write_leaves_the_output_directory_as_it_was(
    tmp_path, capsys, monkeypatch, argv, occupied, earlier
):
    (tmp_path / earlier).write_text("earlier output\n")
    before = _tree(tmp_path)
    opened = _fail_second_write(monkeypatch)
    assert cli_main(argv + ["--out", str(tmp_path)]) == 2
    monkeypatch.undo()
    captured = capsys.readouterr()
    assert len(opened) == 2
    assert captured.out == ""
    assert os.strerror(errno.ENOSPC) in captured.err
    assert _tree(tmp_path) == before


def test_cli_failed_write_removes_the_directories_it_created(tmp_path, capsys, monkeypatch):
    (tmp_path / "parent").mkdir()
    (tmp_path / "parent" / "notes.txt").write_text("not ours\n")
    before = _tree(tmp_path)
    out = tmp_path / "parent" / "new" / "deeper"
    opened = _fail_second_write(monkeypatch)
    assert cli_main(["run", "--paths", "5", "--detail", "0", "--out", str(out)]) == 2
    monkeypatch.undo()
    assert len(opened) == 2
    assert os.strerror(errno.ENOSPC) in capsys.readouterr().err
    assert not (tmp_path / "parent" / "new").exists()
    assert _tree(tmp_path) == before


class _FullStdout(StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize(
    "argv, names",
    [
        (["sweep", "--param", "annuity_rate", "--values", "0.05,0.07,0.09"],
         ["summary_annuity_rate_0.05.json", "summary_annuity_rate_0.07.json",
          "summary_annuity_rate_0.09.json", "sweep.csv"]),
        (["run", "--paths", "5", "--detail", "3"],
         ["path_3_career.csv", "path_3_retirement.csv", "summary.json"]),
    ],
    ids=["sweep", "run"],
)
def test_cli_failing_stdout_leaves_the_whole_output_set(tmp_path, capsys, argv, names):
    # as with `> /dev/full`: the `wrote` lines fail after every file is in place
    with redirect_stdout(_FullStdout()):
        assert cli_main(argv + ["--out", str(tmp_path / "full")]) == 2
    assert capsys.readouterr().err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    assert cli_main(argv + ["--out", str(tmp_path / "ok")]) == 0
    assert sorted(_tree(tmp_path / "full")) == names
    assert _tree(tmp_path / "full") == _tree(tmp_path / "ok")


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=oct)
def test_cli_files_take_their_mode_from_the_umask(tmp_path, capsys, umask):
    previous = os.umask(umask)
    try:
        for argv, *_ in OUTPUT_SETS:
            assert cli_main(argv + ["--out", str(tmp_path / argv[0])]) == 0
    finally:
        os.umask(previous)
    modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in tmp_path.rglob("*.*")}
    assert len(modes) == 3 + 3
    assert set(modes.values()) == {0o666 & ~umask}

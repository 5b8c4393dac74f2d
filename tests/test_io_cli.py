from __future__ import annotations

import dataclasses
import errno
import json
import math
import os
import re
import stat
from pathlib import Path

import numpy as np
import pytest

from pensionsim import io_cli
from pensionsim.engine import (
    FIELDS,
    ConfigError,
    baseline_scenario,
    run_path_detail,
    run_scenario,
    scenario_from_values,
    scenario_values,
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


def test_empty_file_is_the_baseline():
    assert parse_scenario("") == baseline_scenario()


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
        assert scenario_values(scenario_from_values({key: value}))[key] == value
        assert scenario_values(parse_scenario(f"{key} = {value}\n"))[key] == value
    with pytest.raises(ConfigError, match="^line 1: basic_start must be > 0"):
        parse_scenario("basic_start = 0\n")


def test_readme_scenario_table_lists_every_field_and_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)`\s*\| (\S+)\s*\|", readme, flags=re.MULTILINE)
    assert [key for key, _ in rows] == [field.key for field in FIELDS]
    for field, (_, default) in zip(FIELDS, rows):
        assert field.kind(default) == field.default, field.key


def test_cross_field_violation_rejected():
    with pytest.raises(ConfigError, match="employ"):
        parse_scenario("employee_rate = 0.6\nemployer_rate = 0.6\n")


def test_missing_separator_rejected():
    with pytest.raises(ConfigError, match="line 1"):
        parse_scenario("annuity_rate 0.05\n")


def test_scenario_text_round_trips():
    scenario = baseline_scenario(gbm_mu=0.11, seed=9, basic_start=250.0)
    assert parse_scenario(scenario_text(scenario)) == scenario


def test_career_csv_layout_and_precision():
    detail = run_path_detail(baseline_scenario(num_paths=2, seed=8), 0)
    text = career_csv(detail.career)
    lines = text.splitlines()
    assert lines[0] == CAREER_CSV_HEADER
    assert len(lines) == 31
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[6]) == 0.0  # year 1 has no prior-year return
    # full precision: every number round-trips to the row it came from
    row = detail.career[7]
    cells = lines[8].split(",")
    assert float(cells[2]) == row.basic
    assert float(cells[7]) == row.corpus


def test_retirement_csv_layout_and_booleans():
    detail = run_path_detail(baseline_scenario(num_paths=2, seed=8, annuity_rate=0.01), 1)
    text = retirement_csv(detail.retirement)
    lines = text.splitlines()
    assert lines[0] == RETIREMENT_CSV_HEADER
    assert len(lines) == 21
    tokens = {line.split(",")[4] for line in lines[1:]}
    assert tokens <= {"true", "false"}
    assert "false" in tokens  # a 1% annuity cannot cover the benchmark
    years = [int(line.split(",")[0]) for line in lines[1:]]
    assert years == list(range(31, 51))


def _numpy_scalars(row):
    # np.float32, not np.float64: np.float64 is a float subclass and prints as one
    kinds = {int: np.int64, float: np.float32, bool: np.bool_}
    return dataclasses.replace(row, **{k: kinds[type(v)](v) for k, v in vars(row).items()})


def test_csv_renders_numpy_scalar_fields_as_plain_numbers():
    detail = run_path_detail(baseline_scenario(num_paths=2, annuity_rate=0.04), 1)
    for render, rows in ((career_csv, detail.career), (retirement_csv, detail.retirement)):
        numpy_rows = [_numpy_scalars(row) for row in rows]
        plain_rows = [
            dataclasses.replace(row, **{k: v.item() for k, v in vars(row).items()})
            for row in numpy_rows
        ]
        text = render(numpy_rows)
        assert text == render(plain_rows) == render(iter(plain_rows))
        assert "np." not in text
    cells = {line.split(",")[4] for line in text.splitlines()[1:]}
    assert cells == {"true", "false"}


def test_emit_summary_shape_and_key_order():
    result = run_scenario(baseline_scenario(num_paths=40))
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
    scenario = baseline_scenario(num_paths=25)
    first = emit_summary(run_scenario(scenario))
    second = emit_summary(run_scenario(scenario))
    assert first == second


def test_single_path_summary_has_zero_sd():
    result = run_scenario(baseline_scenario(num_paths=1))
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


def test_cli_sweep_repeated_value_is_config_error(tmp_path, capsys):
    rc = cli_main(
        ["sweep", "--param", "annuity_rate", "--values", "0.05,0.07,0.050", "--out", str(tmp_path)]
    )
    assert rc == 1
    assert "--values: '0.050' repeats annuity_rate = 0.05" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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
    ],
    ids=["directory", "not-utf8"],
)
def test_cli_unreadable_config_is_config_error_naming_the_file(tmp_path, capsys, make, reason):
    config = tmp_path / "scenario.cfg"
    make(config)
    assert cli_main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config file {config}: ") and reason in err
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


def test_cli_non_finite_outcome_is_runtime_error(tmp_path, capsys):
    config = tmp_path / "scenario.cfg"
    config.write_text("num_paths = 5\ninflation_sd_pct = 1e200\n")
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert "pv_support is not finite on path 0" in capsys.readouterr().err
    assert not out.exists()


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

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import types
import weakref
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pensionsim import _helper, engine, stochastic
from pensionsim.accumulation import (
    CareerYear,
    accumulate_corpus,
    dearness_allowance,
    project_basic,
)
from pensionsim.engine import (
    DEFAULTS,
    METRICS,
    ConfigError,
    PathDetail,
    PathOutcome,
    Scenario,
    check_outcome,
    run_path,
    run_path_detail,
    run_scenario,
    scenario_from_values,
    summarize,
    sweep,
    with_field,
)
from pensionsim.io_cli import emit_summary
from pensionsim.retirement import (
    annual_pension,
    evaluate_retirement,
    pv_support,
    requirement_series,
    shortfall_years,
)
from pensionsim.stochastic import RandomStream, gbm_log_returns, inflation_series, stream_normals
from records import records


def test_baseline_scenario_carries_the_documented_defaults():
    scenario = Scenario()
    assert scenario.service_years == 30
    assert scenario.retirement_years == 20
    assert scenario.basic_start == 100.0
    assert scenario.increment_rate == 0.03
    assert scenario.employee_rate == 0.10
    assert scenario.employer_rate == 0.14
    assert scenario.inflation_mean_pct == 4.0
    assert scenario.inflation_sd_pct == 1.0
    assert scenario.gbm_mu == 0.09
    assert scenario.gbm_sigma == 0.05
    assert scenario.annuity_rate == 0.07
    assert scenario.risk_free_rate == 0.07
    assert scenario.guarantee_fraction == 0.5
    assert scenario.num_paths == 1000
    assert scenario.seed == 42


def test_scenario_values_round_trips():
    scenario = Scenario(gbm_mu=0.11, num_paths=64)
    values = dataclasses.asdict(scenario)
    assert list(values) == list(DEFAULTS)
    assert scenario_from_values(values) == scenario


def test_unknown_field_rejected():
    with pytest.raises(ConfigError):
        scenario_from_values({"gbm_nu": 0.1})
    with pytest.raises(ConfigError):
        with_field(Scenario(), "volatility", 0.2)


def test_invariant_violations_surface_as_config_errors():
    with pytest.raises(ConfigError):
        scenario_from_values({"gbm_sigma": -0.1})
    with pytest.raises(ConfigError):
        scenario_from_values({"num_paths": 0})
    with pytest.raises(ConfigError):
        scenario_from_values({"employee_rate": 0.6, "employer_rate": 0.6})
    with pytest.raises(ConfigError):
        scenario_from_values({"service_years": 25.5})
    with pytest.raises(ConfigError):
        scenario_from_values({"seed": -1})


@pytest.mark.parametrize(
    "values, key",
    [
        ({"service_years": 2.5, "num_paths": 3}, "service_years"),
        ({"seed": True}, "seed"),
        ({"num_paths": "x"}, "num_paths"),
    ],
    ids=["non-integer", "bool", "unparseable-text"],
)
def test_scenario_rejects_what_scenario_from_values_rejects(values, key):
    for build in (lambda: Scenario(**values), lambda: scenario_from_values(values)):
        with pytest.raises(ConfigError, match=f"\\b{key}\\b"):
            build()


_BUILDS = {
    "Scenario": lambda key, value: Scenario(**{key: value}),
    "check_field": lambda key, value: engine.check_field(key, value),
    "with_field": lambda key, value: with_field(Scenario(), key, value),
    "scenario_from_values": lambda key, value: scenario_from_values({key: value}),
}


@pytest.mark.parametrize(
    "key, value",
    [("basic_start", 10**400), ("gbm_mu", -(10**309)), ("annuity_rate", 10**5000)],
    ids=["basic_start", "gbm_mu", "past-str-digits"],
)
def test_an_int_past_float_range_is_a_config_error_naming_the_key(key, value):
    # the message leaves the value out: str() of an int over 4300 digits raises
    for build in _BUILDS.values():
        with pytest.raises(ConfigError) as info:
            build(key, value)
        assert str(info.value) == f"{key} is out of range for a float"


@pytest.mark.parametrize("build", list(_BUILDS))
@pytest.mark.parametrize(
    "key, value, problem",
    [
        ("num_paths", 10**5000, "must be <= 18446744073709551616"),
        ("seed", 10**5000, "must be <= 18446744073709551615"),
        ("seed", -(10**5000), "must be >= 0"),
    ],
    ids=["num_paths", "seed", "-seed"],
)
def test_an_int_too_long_to_print_is_a_config_error_naming_the_key(build, key, value, problem):
    # str() of an int over 4300 digits raises, so the message leaves the value out
    with pytest.raises(ConfigError) as info:
        _BUILDS[build](key, value)
    assert str(info.value) == f"{key} {problem}"


def test_scenario_stores_coerced_values():
    scenario = Scenario(basic_start=100, num_paths="5", gbm_mu=np.float32(0.5), seed=np.uint64(7))
    assert scenario.basic_start == 100.0 and type(scenario.basic_start) is float
    assert scenario.num_paths == 5 and type(scenario.num_paths) is int
    assert scenario.gbm_mu == 0.5 and type(scenario.gbm_mu) is float
    assert scenario.seed == 7 and type(scenario.seed) is int
    assert scenario == scenario_from_values(dict(basic_start=100, num_paths="5", gbm_mu=0.5, seed=7))
    assert with_field(scenario, "service_years", "25").service_years == 25


def test_with_field_changes_exactly_one_field():
    base = Scenario()
    varied = with_field(base, "annuity_rate", 0.05)
    assert varied.annuity_rate == 0.05
    expected = dict(dataclasses.asdict(base), annuity_rate=0.05)
    assert dataclasses.asdict(varied) == expected


def test_run_path_is_deterministic():
    scenario = Scenario(num_paths=8, seed=11)
    assert run_path(scenario, 3) == run_path(scenario, 3)


def test_run_path_rejects_out_of_range_index():
    scenario = Scenario(num_paths=8)
    with pytest.raises(ConfigError):
        run_path(scenario, 8)
    with pytest.raises(ConfigError):
        run_path(scenario, -1)


def test_run_path_replays_the_published_draw_order():
    # the contract: n+m inflations first, then n-1 log-returns, one stream
    # per path keyed by (seed, path_index); anything else is a break
    scenario = Scenario(num_paths=8, seed=11)
    n = scenario.service_years
    m = scenario.retirement_years
    stream = RandomStream(11, 3)
    infl = inflation_series(stream.standard_normal(n + m), scenario)
    rets = gbm_log_returns(stream.standard_normal(n - 1), scenario)

    basic = project_basic(scenario)
    da = dearness_allowance(basic, infl[:n])
    salary = [b + d for b, d in zip(basic, da)]
    contributions = [scenario.contribution_rate * float(s) for s in salary]
    corpus = accumulate_corpus(contributions, rets)
    pension = annual_pension(float(corpus[-1]), scenario.annuity_rate)
    reqs = requirement_series(
        float(salary[-1]), float(infl[n - 1]), infl[n:], scenario.guarantee_fraction
    )
    table = evaluate_retirement(pension, reqs, infl[n:], start_year=n + 1)

    outcome = run_path(scenario, 3)
    assert outcome.final_corpus == corpus[-1]
    assert outcome.pension == pension
    assert outcome.shortfall_years == shortfall_years(table)
    assert outcome.pv_support == pv_support(
        table, scenario.risk_free_rate, scenario.service_years
    )


def test_detail_agrees_with_outcome_and_tables_line_up():
    scenario = Scenario(num_paths=4, seed=5)
    detail = run_path_detail(scenario, 2)
    assert detail.outcome == run_path(scenario, 2)
    career, retirement = detail.career, detail.retirement
    assert [len(column) for column in career] == [30] * len(career)
    assert [len(column) for column in retirement] == [20] * len(retirement)
    assert career.year == list(range(1, 31))
    assert retirement.year == list(range(31, 51))
    assert career.log_return[0] == 0.0
    assert career.corpus[-1] == detail.outcome.final_corpus
    assert all(pension == detail.outcome.pension for pension in retirement.pension)
    assert all(
        salary == pytest.approx(basic + da, rel=1e-15)
        for salary, basic, da in zip(career.salary, career.basic, career.da)
    )


def test_pension_identity_and_pv_shortfall_link():
    scenario = Scenario(num_paths=50, annuity_rate=0.05)
    result = run_scenario(scenario)
    for outcome in records(result.outcomes):
        assert outcome.pension == outcome.final_corpus * 0.05
        assert (outcome.shortfall_years == 0) == (outcome.pv_support == 0.0)
        assert outcome.pv_support >= 0.0


def test_run_scenario_keeps_index_order():
    scenario = Scenario(num_paths=12)
    result = run_scenario(scenario)
    assert result.outcomes.path_index.tolist() == list(range(12))
    assert result.final_corpus.count == 12


_RUN_OR_SWEEP = pytest.mark.parametrize(
    "run",
    [run_scenario, lambda scenario: sweep(scenario, [("annuity_rate", 0.05)])[0]],
    ids=["run_scenario", "sweep"],
)


@_RUN_OR_SWEEP
def test_outcomes_are_columns_with_no_per_path_objects(run):
    scenario = Scenario(num_paths=10_000)
    run(scenario)  # warm-up: imports, caches and allocator pools
    tracemalloc.start()
    try:
        result = run(scenario)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # five 8-byte columns take 40 B a path; a PathOutcome of Python numbers takes some 150 B more
    assert held <= 64 * scenario.num_paths, held / scenario.num_paths
    for column in result.outcomes:
        assert isinstance(column, np.ndarray) and column.shape == (scenario.num_paths,)


@_RUN_OR_SWEEP
def test_a_run_peaks_at_its_outcome_columns_plus_one_block(run):
    scenario = Scenario(num_paths=100_000)
    run(Scenario(num_paths=1000))  # warm-up: imports, caches and allocator pools
    tracemalloc.start()
    try:
        run(scenario)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the columns take 40 B a path and one block's arrays under 2 MB; block
    # results held until a concatenation at the end took some 90 B a path
    assert peak <= 64 * scenario.num_paths, peak / scenario.num_paths


@_RUN_OR_SWEEP
def test_a_run_too_large_to_hold_fails_before_its_first_draw(monkeypatch, run):
    def no_draws(*args):
        raise AssertionError("drew normals for outcomes that cannot be held")

    monkeypatch.setattr(engine, "stream_normals", no_draws)
    with pytest.raises(MemoryError):
        run(Scenario(num_paths=2**55))  # 256 PiB a column: no 64-bit machine maps it


# sizes whose arrays pass 2**63 - 1 bytes, where numpy raises ValueError, not MemoryError
_PAST_NUMPY = [
    {"num_paths": 2**63 - 1},
    {"num_paths": 2**64},
    {"retirement_years": 2**62},
    {"service_years": 2**62, "num_paths": 1},
]


@_RUN_OR_SWEEP
@pytest.mark.parametrize("sizes", _PAST_NUMPY, ids=repr)
def test_a_run_past_what_numpy_indexes_is_out_of_memory(monkeypatch, run, sizes):
    def no_draws(*args):
        raise AssertionError("drew normals for outcomes that cannot be held")

    monkeypatch.setattr(engine, "stream_normals", no_draws)
    with pytest.raises(MemoryError):
        run(Scenario(**sizes))


@pytest.mark.parametrize("sizes", [{"retirement_years": 2**62}, {"service_years": 2**61}], ids=repr)
def test_a_path_past_what_numpy_indexes_is_out_of_memory(monkeypatch, sizes):
    def no_draws(*args):
        raise AssertionError("drew normals that cannot be held")

    monkeypatch.setattr(engine, "RandomStream", no_draws)
    with pytest.raises(MemoryError):
        run_path(Scenario(**sizes), 0)


_FAULTS_PER_RUN = """
import resource
from pensionsim import Scenario, run_scenario

scenario = Scenario(num_paths=10_000)
for _ in range(2):  # warm-up: imports, caches and allocator pools
    run_scenario(scenario)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(3):
    run_scenario(scenario)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 3)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux page faults")
def test_a_run_faults_its_block_arrays_in_once():
    # a fresh interpreter, as the allocator's thresholds depend on what ran before;
    # blocks that allocated and freed their arrays had glibc hand the freed top of
    # the heap back to the kernel and fault it in again, some 5000 pages a run
    done = subprocess.run(
        [sys.executable, "-c", _FAULTS_PER_RUN],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    faults = float(done.stdout)
    assert faults < 1000, faults


@pytest.fixture
def allocated(monkeypatch):
    """The (size, dtype) of each np.empty call while the test runs, which
    starts with no block arrays kept from an earlier run."""
    monkeypatch.setattr(engine, "_kept", threading.local())
    calls, empty = [], np.empty

    def spy(shape, dtype=float, *args, **kwargs):
        calls.append((shape, np.dtype(dtype)))
        return empty(shape, dtype, *args, **kwargs)

    monkeypatch.setattr(np, "empty", spy)
    return calls


def _buffers(scenario):
    # the (size, dtype) of each flat buffer of the scenario's block arrays (see _blocks)
    _, _, layout = engine._layout(scenario)
    return {(math.prod(shape), np.dtype(kind)) for shape, kind in layout.values()}


def _serial():
    return mock.patch.object(_helper, "_helper_usable", lambda: False)


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "serial"])
def test_a_second_run_of_a_layout_allocates_no_block_arrays(allocated, shared):
    scenario = Scenario(num_paths=3000)  # 8 blocks: shared with the helper on two CPUs
    with contextlib.nullcontext() if shared else _serial():
        run_scenario(scenario)
        assert _buffers(scenario) <= set(allocated)
        allocated.clear()
        result = run_scenario(with_field(scenario, "seed", 7))
    assert _buffers(scenario).isdisjoint(allocated)
    layout, _ = engine._kept.blocks
    assert layout == engine._layout(scenario)[2]
    indices = range(0, scenario.num_paths, 271)
    got = _bits(records(result.outcomes))
    assert [got[i] for i in indices] == _bits(run_path(result.scenario, i) for i in indices)


def test_a_run_of_another_layout_replaces_the_kept_arrays(allocated):
    first, other = Scenario(num_paths=500), Scenario(num_paths=500, service_years=20)
    assert _buffers(first) != _buffers(other)
    with _serial():
        run_scenario(first)
        result = run_scenario(other)
        assert _buffers(other) <= set(allocated)
        layout, _ = engine._kept.blocks  # only the last run's arrays
        assert layout == engine._layout(other)[2]
        allocated.clear()
        run_scenario(first)
    assert _buffers(first) <= set(allocated)
    assert _bits(records(result.outcomes)) == _bits(run_path(other, i) for i in range(500))


def test_runs_in_threads_at_once_each_compute_in_their_own_arrays(monkeypatch):
    # more threads than CPUs, each held at its first block until all are in a run
    threads, block, arrays = 3, engine._block, {}
    started = threading.Barrier(threads, timeout=30)

    def spy(plan, first, count, space, out):
        if threading.get_ident() not in arrays:
            arrays[threading.get_ident()] = space["normals"]
            started.wait()
        return block(plan, first, count, space, out)

    scenarios = [Scenario(num_paths=300, seed=seed) for seed in range(threads)]
    results = [None] * threads

    def run(number):
        results[number] = run_scenario(scenarios[number])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with _small_blocks(scenarios[0], 100):  # three blocks a run
            run_scenario(scenarios[0])  # keeps arrays of the layout, which one thread takes
            monkeypatch.setattr(engine, "_block", spy)
            workers = [threading.Thread(target=run, args=(n,)) for n in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert len(arrays) == threads
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(arrays.values(), 2))
    for scenario, result in zip(scenarios, results):
        expected = _bits(run_path(scenario, i) for i in range(scenario.num_paths))
        assert _bits(records(result.outcomes)) == expected


def _run_in_a_thread(scenario):
    # the result of a run in a new thread, and the block arrays that thread kept
    done = []

    def run():
        done.append((run_scenario(scenario), engine._kept.blocks))

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    [(result, kept)] = done
    return result, kept


def test_a_run_in_a_new_thread_keeps_its_own_arrays(allocated):
    scenario = Scenario(num_paths=500)
    run_scenario(scenario)
    layout, space = engine._kept.blocks
    arrays = list(space.values())
    allocated.clear()
    result, (their_layout, theirs) = _run_in_a_thread(scenario)
    assert their_layout == layout and _buffers(scenario) <= set(allocated)
    assert not any(np.shares_memory(a, b) for a, b in zip(arrays, theirs.values()))
    # this thread's arrays stay kept, the very same ones
    assert all(a is b for a, b in zip(engine._kept.blocks[1].values(), arrays, strict=True))
    assert _bits(records(result.outcomes)) == _bits(run_path(scenario, i) for i in range(500))


def test_a_threads_kept_arrays_are_freed_when_it_ends():
    _, (_, space) = _run_in_a_thread(Scenario(num_paths=500))
    refs = [weakref.ref(array) for array in space.values()]
    del space  # the last reference here: the ended thread holds none
    assert refs and all(ref() is None for ref in refs)


def test_a_run_after_a_failing_block_equals_run_path():
    # the failing run leaves its block arrays part written, and the next run of
    # the layout computes in them
    scenario = Scenario(num_paths=500)
    with _serial():
        with pytest.raises(ValueError, match="growth factor"):
            run_scenario(with_field(scenario, "gbm_mu", 800.0))
        result = run_scenario(scenario)
    assert _bits(records(result.outcomes)) == _bits(run_path(scenario, i) for i in range(500))


def test_a_run_after_its_block_arrays_failed_to_allocate_equals_run_path(allocated, monkeypatch):
    # the failed allocation has dropped the kept arrays of another layout, and
    # the next run in this thread allocates afresh
    first, other = Scenario(num_paths=500), Scenario(num_paths=500, service_years=20)
    spy, failed = np.empty, []

    def fail_once(shape, *args, **kwargs):
        if not failed and (shape, np.dtype(args[0] if args else float)) in _buffers(other):
            failed.append(shape)
            raise MemoryError
        return spy(shape, *args, **kwargs)

    with _serial():
        run_scenario(first)
        monkeypatch.setattr(np, "empty", fail_once)
        with pytest.raises(MemoryError):
            run_scenario(other)
        assert failed
        allocated.clear()
        result = run_scenario(other)
    assert _buffers(other) <= set(allocated)
    assert _bits(records(result.outcomes)) == _bits(run_path(other, i) for i in range(500))


def test_growth_stage_makes_no_python_exp_call(monkeypatch):
    # the batch engine's only, as run_path compounds one year at a time by math.exp
    scenario = Scenario(num_paths=1000)
    runs = [
        lambda: records(run_scenario(scenario).outcomes),
        lambda: [records(r.outcomes) for r in sweep(scenario, [("annuity_rate", 0.05)] * 2)],
        lambda: [records(r.outcomes) for r in sweep(scenario, [("gbm_mu", 0.05), ("gbm_mu", 0.1)])],
    ]
    expected = [_bits(run()) for run in runs]

    def no_exp(x):
        raise AssertionError("math.exp called on the hot path")

    monkeypatch.setattr(math, "exp", no_exp)
    assert [_bits(run()) for run in runs] == expected


def test_execution_order_cannot_change_results():
    scenario = Scenario(num_paths=48, seed=3)
    backwards = [run_path(scenario, i) for i in reversed(range(scenario.num_paths))]
    backwards.sort(key=lambda o: o.path_index)
    assert tuple(backwards) == records(run_scenario(scenario).outcomes)


def test_non_finite_outcome_names_metric_and_path():
    scenario = Scenario(num_paths=5, inflation_sd_pct=1e200)
    with pytest.raises(ValueError, match="pv_support is not finite on path 0") as info:
        run_scenario(scenario)
    assert not isinstance(info.value, ConfigError)


def test_non_finite_outcome_names_the_first_metric_then_its_first_path():
    final_corpus = np.array([1.0, 1.0, np.inf, np.nan])
    pv = np.array([np.nan, 1.0, 1.0, 1.0])
    outcome = PathOutcome(np.arange(4), final_corpus, final_corpus, np.zeros(4, np.int64), pv)
    with pytest.raises(ValueError, match=r"^final_corpus is not finite on path 2: inf$"):
        check_outcome(outcome)


NON_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


@pytest.mark.parametrize("text", list(NON_FINITE))
@pytest.mark.parametrize("name", METRICS)
def test_a_path_outcome_that_is_not_finite_names_the_metric_and_path(name, text):
    outcome = PathOutcome(3, 1.0, 0.05, 0, 1.0)._replace(**{name: NON_FINITE[text]})
    with pytest.raises(ValueError) as info:
        check_outcome(outcome)
    assert str(info.value) == f"{name} is not finite on path 3: {text}"


@pytest.mark.parametrize("text", list(NON_FINITE))
@pytest.mark.parametrize("name", METRICS)
def test_a_column_outcome_that_is_not_finite_names_its_first_path(name, text):
    columns = {field: np.ones(5) for field in PathOutcome._fields[1:]}
    columns[name][[2, 4]] = NON_FINITE[text]
    with pytest.raises(ValueError) as info:
        check_outcome(PathOutcome(np.arange(10, 15), **columns))
    assert str(info.value) == f"{name} is not finite on path 12: {text}"


def test_check_outcome_makes_no_copy_of_the_columns():
    n = 100_000
    floats = [np.linspace(0.0, 1.0, n) for _ in range(3)]
    outcome = PathOutcome(np.arange(n), *floats[:2], np.zeros(n, np.int64), floats[2])
    check_outcome(outcome)  # warm-up
    tracemalloc.start()
    try:
        check_outcome(outcome)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one column's 1-byte finiteness mask at a time; a float copy of the three took 24 B a path
    assert peak <= 4 * n, peak / n


@pytest.mark.parametrize(
    "overrides, fields",
    [
        ({"service_years": 100000}, ("service_years", "increment_rate")),
        ({"gbm_mu": 800.0}, ("gbm_mu", "gbm_sigma")),
        ({"risk_free_rate": 1e10}, ("risk_free_rate", "service_years")),
        ({"service_years": 20000}, ("risk_free_rate", "service_years")),
        ({"gbm_sigma": 1e200}, ("gbm_sigma",)),
    ],
)
def test_overflow_names_the_fields_in_both_engines(overrides, fields):
    scenario = Scenario(num_paths=3, **overrides)
    for run in (lambda: run_path(scenario, 0), lambda: run_scenario(scenario)):
        with pytest.raises(ValueError) as info:
            run()
        assert not isinstance(info.value, ConfigError)
        assert all(field in str(info.value) for field in fields)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"gbm_sigma": 1e200, "increment_rate": 1e11},
         "log-return drift overflows: gbm_sigma**2 is out of range for gbm_sigma=1e+200"),
        ({"increment_rate": 1e11, "gbm_mu": 800.0, "risk_free_rate": 1e10},
         "basic pay overflows: (1 + increment_rate)**(service_years - 1) is out of range "
         "for service_years=30, increment_rate=100000000000.0"),
        # 1.07**100000, the discount, overflows too
        ({"service_years": 100000},
         "basic pay overflows: (1 + increment_rate)**(service_years - 1) is out of range "
         "for service_years=100000, increment_rate=0.03"),
        ({"gbm_mu": 800.0, "risk_free_rate": 1e10},
         "market growth factor exp(log_return) overflows: gbm_mu or gbm_sigma is too large"),
        ({"risk_free_rate": 1e10},
         "guarantee discount (1 + risk_free_rate)**year overflows for "
         "risk_free_rate=10000000000.0, service_years=30"),
    ],
    ids=["drift", "basic-pay", "basic-pay-before-discount", "growth", "discount"],
)
def test_overflows_raise_in_pipeline_order_in_both_engines(overrides, message):
    # the stages run drift, basic pay, growth, then the discount; where a
    # scenario overflows at several, both engines raise the first one's error
    scenario = Scenario(num_paths=3, **overrides)
    for run in (lambda: run_path(scenario, 0), lambda: run_scenario(scenario)):
        with pytest.raises(ValueError) as info:
            run()
        assert (type(info.value), str(info.value)) == (ValueError, message)


def test_run_path_checks_the_index_then_the_size_before_any_overflow():
    huge = Scenario(num_paths=3, service_years=2**61, increment_rate=1e11)
    with pytest.raises(ConfigError, match=r"^path_index must be in \[0, 2\], got 3$"):
        run_path(huge, 3)
    with pytest.raises(MemoryError, match="more than numpy can index"):
        run_path(huge, 0)


def _bits(outcomes):
    # repr tells -0.0 from 0.0 and compares NaNs, which == does not
    return [repr(o) for o in outcomes]


@pytest.mark.parametrize(
    "overrides", [{}, {"annuity_rate": 0.05}, {"service_years": 25}, {"gbm_sigma": 0.0}]
)
def test_batch_engine_equals_run_path_bitwise(overrides):
    scenario = Scenario(**overrides)  # 1000 paths: three blocks
    expected = [run_path(scenario, i) for i in range(scenario.num_paths)]
    assert _bits(records(run_scenario(scenario).outcomes)) == _bits(expected)


def test_batch_engine_keeps_the_scalar_nan_conventions():
    # inflation this wide gives infinite and NaN requirements and top-ups;
    # run_scenario rejects such outcomes, but each block must still agree
    # with run_path field by field (a NaN requirement counts as a miss)
    scenario = Scenario(num_paths=64, inflation_sd_pct=1e306, guarantee_fraction=0.0)
    size, paths, layout = engine._layout(scenario)
    assert paths == scenario.num_paths  # one block
    space = {name: np.empty(*shape_kind) for name, shape_kind in layout.items()}
    columns = [np.empty(paths), np.empty(paths), np.empty(paths, int), np.empty(paths)]
    with np.errstate(all="ignore"):
        z = stream_normals(scenario.seed, 0, paths, size, space).T
        engine._retirement(scenario, *engine._career(scenario, z, space), space, columns)
        expected = [run_path(scenario, i) for i in range(scenario.num_paths)]
    outcomes = records(engine.PathOutcome(np.arange(scenario.num_paths), *columns))
    assert _bits(outcomes) == _bits(expected)


def test_long_career_blocks_hold_the_minimum_paths(monkeypatch):
    # 2**15 draws hold no whole path of this career; 1-path blocks would
    # cost more than the scalar loop, so blocks hold _MIN_BLOCK_PATHS = 8
    scenario = Scenario(
        service_years=20_000, increment_rate=0, risk_free_rate=0, gbm_mu=0, num_paths=20
    )
    career = engine._career
    blocks = []

    def spy(scenario, z, space):
        blocks.append(z.shape[1])  # year-major: one column a path
        return career(scenario, z, space)

    monkeypatch.setattr(engine, "_career", spy)
    outcomes = records(run_scenario(scenario).outcomes)
    assert blocks == [8, 8, 4]
    for i in (0, 11, 19):
        assert repr(outcomes[i]) == repr(run_path(scenario, i))


@pytest.mark.parametrize(
    "overrides, blocks",
    [
        ({"num_paths": 1}, [1]),
        # _MIN_BLOCK_PATHS binds: 17 paths of 8019 draws take 8, 8 and 1
        ({"service_years": 4000, "increment_rate": 0, "risk_free_rate": 0, "gbm_mu": 0,
          "num_paths": 17}, [8, 8, 1]),
    ],
    ids=["one-path-run", "long-career"],
)
def test_a_one_path_block_equals_run_path(monkeypatch, overrides, blocks):
    # numpy sums a (years, 1) block's top-ups pairwise, so _retirement keeps its year loop
    scenario = Scenario(**overrides)
    career, sizes = engine._career, []

    def spy(scenario, z, space):
        sizes.append(z.shape[1])  # year-major: one column a path
        return career(scenario, z, space)

    monkeypatch.setattr(engine, "_career", spy)
    outcomes = records(run_scenario(scenario).outcomes)
    assert sizes == blocks
    assert _bits(outcomes) == _bits(run_path(scenario, i) for i in range(scenario.num_paths))


def _block_counts(scenario):
    # the paths of each block of a run, as _run lists them
    _, paths, _ = engine._layout(scenario)
    return [min(paths, scenario.num_paths - first) for first in range(0, scenario.num_paths, paths)]


@settings(max_examples=200, deadline=None, database=None)
@given(
    service_years=st.integers(1, 20_000),
    retirement_years=st.integers(1, 100),
    num_paths=st.integers(1, 100_000),
)
@example(service_years=30, retirement_years=20, num_paths=3000)  # 8 blocks of 375
@example(service_years=30, retirement_years=20, num_paths=10_000)  # 25 of 400
@example(service_years=30, retirement_years=20, num_paths=3001)  # 7 of 376, then 369
def test_a_run_spreads_its_paths_evenly_over_as_many_blocks_as_it_needs(
    service_years, retirement_years, num_paths
):
    scenario = Scenario(
        service_years=service_years, retirement_years=retirement_years, num_paths=num_paths
    )
    counts = _block_counts(scenario)
    draws = 2 * service_years + retirement_years - 1
    most = max(engine._MIN_BLOCK_PATHS, engine._BLOCK_DRAWS // draws)
    assert sum(counts) == num_paths
    assert len(counts) == -(-num_paths // most)  # the fewest blocks of at most `most` paths
    assert counts[:-1] == [counts[0]] * (len(counts) - 1)
    if counts[0] > engine._MIN_BLOCK_PATHS:
        assert counts[0] - counts[-1] < len(counts)
    _, _, layout = engine._layout(scenario)
    assert layout["salary"][0] == (service_years, min(most, num_paths))  # room for any block


_RANGES = {
    "service_years": st.integers(1, 45),
    "retirement_years": st.integers(1, 30),
    "basic_start": st.floats(1.0, 1000.0),
    "increment_rate": st.floats(0.0, 0.1),
    "employee_rate": st.floats(0.0, 0.3),
    "employer_rate": st.floats(0.0, 0.3),
    "inflation_mean_pct": st.floats(-5.0, 15.0),
    "inflation_sd_pct": st.floats(0.0, 5.0),
    "gbm_mu": st.floats(-0.2, 0.3),
    "gbm_sigma": st.floats(0.0, 0.5),
    "annuity_rate": st.floats(0.0, 0.15),
    "risk_free_rate": st.floats(0.0, 0.15),
    "guarantee_fraction": st.floats(0.0, 1.0),
    "num_paths": st.integers(1, 24),
    "seed": st.integers(0, 2**64 - 1),
}


def _scenarios(**overrides):
    ranges = {**_RANGES, **overrides}
    return st.fixed_dictionaries(ranges).map(lambda values: Scenario(**values))


@contextlib.contextmanager
def _small_blocks(scenario, block_paths):
    # blocks of `scenario` hold `block_paths` paths, so that block
    # boundaries fall inside even a short run
    draws = 2 * scenario.service_years + scenario.retirement_years - 1
    with mock.patch.object(engine, "_BLOCK_DRAWS", block_paths * draws), \
            mock.patch.object(engine, "_MIN_BLOCK_PATHS", 1):
        yield


@settings(max_examples=60, deadline=None, database=None)
@given(scenario=_scenarios(), block_paths=st.integers(1, 9))
@example(  # every year misses, but each discounted top-up is subnormal and rounds to 0
    scenario=Scenario(
        num_paths=2, guarantee_fraction=5e-324, annuity_rate=0.0, risk_free_rate=0.15,
        basic_start=1.0, service_years=45, retirement_years=30, increment_rate=0.0,
    ),
    block_paths=1,
)
def test_batch_engine_properties(scenario, block_paths):
    with _small_blocks(scenario, block_paths):
        outcomes = records(run_scenario(scenario).outcomes)
    assert _bits(outcomes) == _bits(run_path(scenario, i) for i in range(scenario.num_paths))
    for outcome in outcomes:
        assert 0 <= outcome.shortfall_years <= scenario.retirement_years
        assert outcome.pv_support >= 0.0
        if outcome.shortfall_years == 0:
            assert outcome.pv_support == 0.0
        if outcome.pv_support > 0:
            assert outcome.shortfall_years > 0


# where run_path's list arithmetic on one path's Python floats and the
# batch engine's array arithmetic on a block could part: a one-year career
# (no log-returns), a one-year retirement, no market volatility, deflation
# years, and a guarantee of nothing or of the whole benchmark
_SCALAR_EDGES = st.one_of(
    _scenarios(service_years=st.just(1)),
    _scenarios(retirement_years=st.just(1)),
    _scenarios(gbm_sigma=st.just(0.0)),
    _scenarios(inflation_mean_pct=st.floats(-30.0, -1.0)),
    _scenarios(guarantee_fraction=st.sampled_from([0.0, 1.0])),
)


@settings(max_examples=60, deadline=None, database=None)
@given(scenario=_SCALAR_EDGES, block_paths=st.integers(1, 9))
def test_batch_engine_equals_run_path_at_the_edges_of_the_scalar_code(scenario, block_paths):
    with _small_blocks(scenario, block_paths):
        outcomes = records(run_scenario(scenario).outcomes)
    details = [run_path_detail(scenario, i) for i in range(scenario.num_paths)]
    assert _bits(outcomes) == _bits(detail.outcome for detail in details)
    n, m = scenario.service_years, scenario.retirement_years
    for detail in details:
        assert [len(column) for column in detail.career] == [n] * len(detail.career)
        assert [len(column) for column in detail.retirement] == [m] * len(detail.retirement)
        assert detail.career.log_return[0] == 0.0
        assert detail.career.corpus[-1] == detail.outcome.final_corpus


@settings(max_examples=60, deadline=None, database=None)
@given(scenario=_scenarios(), path_index=st.integers(0, 23))
@example(scenario=Scenario(service_years=1, num_paths=3), path_index=2)  # no log-returns
@example(scenario=Scenario(retirement_years=1, num_paths=3), path_index=0)
def test_run_path_detail_is_the_layer_functions_on_one_draw(scenario, path_index):
    # one draw of 2n+m-1 normals a path, read as the batch engine reads a
    # block's rows: z[:n+m] the inflations, z[n+m:] the log-returns
    path_index %= scenario.num_paths
    n, m = scenario.service_years, scenario.retirement_years
    z = RandomStream(scenario.seed, path_index).standard_normal(2 * n + m - 1)
    infl = inflation_series(z[: n + m], scenario).tolist()
    rets = gbm_log_returns(z[n + m :], scenario)
    basic = project_basic(scenario)
    da = dearness_allowance(basic, infl[:n])
    salary = [b + d for b, d in zip(basic, da)]
    contributions = [scenario.contribution_rate * s for s in salary]
    corpus = accumulate_corpus(contributions, rets)
    pension = annual_pension(corpus[-1], scenario.annuity_rate)
    reqs = requirement_series(salary[-1], infl[n - 1], infl[n:], scenario.guarantee_fraction)
    table = evaluate_retirement(pension, reqs, infl[n:], start_year=n + 1)
    career = CareerYear(
        list(range(1, n + 1)), infl[:n], basic, da, salary, contributions,
        [0.0, *rets.tolist()], corpus,
    )
    outcome = PathOutcome(
        path_index, corpus[-1], pension, shortfall_years(table),
        pv_support(table, scenario.risk_free_rate, n),
    )
    # repr tells -0.0 from 0.0 and compares NaNs, which == does not
    expected = repr(PathDetail(outcome, career, table))
    assert repr(run_path_detail(scenario, path_index)) == expected


# float fields whose range holds zero, where a 0.0 and a -0.0 variant must
# not share a stage
_SIGNED_ZEROS = {key for key in _RANGES if isinstance(DEFAULTS[key], float)} - {"basic_start"}


@st.composite
def _sweeps(draw):
    base = draw(_scenarios())
    key = draw(st.sampled_from(sorted(_RANGES)))
    values = _RANGES[key]
    if key in _SIGNED_ZEROS:
        values = st.one_of(st.sampled_from([0.0, -0.0]), values)
    return base, key, draw(st.lists(values, min_size=2, max_size=3, unique_by=repr))


@settings(max_examples=60, deadline=None, database=None)
@given(case=_sweeps(), block_paths=st.integers(1, 9))
@example(  # -0.0 + -0.0 contributes -0.0 a year, so final_corpus is -0.0, not 0.0
    case=(Scenario(num_paths=3, employer_rate=-0.0), "employee_rate", [0.0, -0.0]),
    block_paths=2,
)
def test_sweep_equals_separate_runs_bitwise(case, block_paths):
    base, key, values = case
    with _small_blocks(base, block_paths):
        results = sweep(base, [(key, value) for value in values])
        separate = [run_scenario(with_field(base, key, value)) for value in values]
    assert len(results) == len(separate)
    for got, want in zip(results, separate):
        assert repr(got.scenario) == repr(want.scenario)
        assert _bits(records(got.outcomes)) == _bits(records(want.outcomes))
        assert emit_summary(got) == emit_summary(want)


@pytest.mark.parametrize("field", engine.FIELDS, ids=lambda field: field.key)
def test_sweep_of_each_field_equals_separate_runs(field):
    # a field tagged with too late a stage would share a stage it changes
    base = Scenario(num_paths=20)
    other = field.default + 1 if field.kind is int else field.default / 2
    overrides = [(field.key, getattr(base, field.key)), (field.key, other)]
    with _small_blocks(base, 7):
        results = sweep(base, overrides)
        separate = [run_scenario(with_field(base, key, value)) for key, value in overrides]
    assert [_bits(records(r.outcomes)) for r in results] == [
        _bits(records(r.outcomes)) for r in separate
    ]


@pytest.mark.parametrize("key, values", [("gbm_sigma", (0.0, 0.05, 0.1)),
                                         ("annuity_rate", (0.05, 0.07, 0.09))])
@pytest.mark.parametrize("block_paths", [1, 7, 414])
def test_blocks_reuse_their_arrays_without_aliasing(monkeypatch, key, values, block_paths):
    # a career-stage and a retirement-stage sweep: each variant's stages run
    # in the arrays the block's draws and shared career live beside
    base = Scenario(num_paths=500 if block_paths == 414 else 30)
    draws = []
    normals, career, retirement = engine.stream_normals, engine._career, engine._retirement

    def drawn(*args):
        z = normals(*args)
        draws.append((z, z.tobytes()))
        return z

    def unchanged(stage, *names):
        def checked(scenario, *args):
            before = [np.copy(arg) for arg in args[: len(names)]]
            result = stage(scenario, *args)
            z, z_bytes = draws[-1]
            assert z.tobytes() == z_bytes, f"{stage.__name__} wrote into the draws"
            for name, arg, old in zip(names, args, before):
                assert np.array_equal(arg, old, equal_nan=True), f"wrote into the {name}"
            return result
        return checked

    monkeypatch.setattr(engine, "stream_normals", drawn)
    monkeypatch.setattr(engine, "_career", unchanged(career, "draws"))
    monkeypatch.setattr(engine, "_retirement", unchanged(retirement, "corpus", "salary", "infl"))
    overrides = [(key, value) for value in values]
    with _small_blocks(base, block_paths):
        results = sweep(base, overrides)
    separate = [run_scenario(with_field(base, key, value)) for value in values]
    for result, alone in zip(results, separate):
        got = _bits(records(result.outcomes))
        assert got == _bits(records(alone.outcomes))
        paths = range(0, base.num_paths, 7)
        assert [got[i] for i in paths] == _bits(run_path(result.scenario, i) for i in paths)


# Each block draws its normals in one ndtri call and takes the growth factors
# of each career it computes in one inv_boxcox call, all from the one module
# the loader serves. A default run is 3 blocks, 10_000 paths 25, and 286
# paths in blocks of at most 20 are 14 blocks of 20 and one of 6; the
# gbm_sigma sweep computes each block's career twice. The ids are those of
# the switch the loader replaced, which a run's values fit or went over:
# "-fits" runs with the ufuncs loaded, "-over" loads them at the run's start.
@pytest.mark.parametrize("loaded, paths, overrides, blocks, block_paths", [
    (True, 1000, [], 3, None),
    (False, 1000, [], 3, None),
    (True, 1000, [("gbm_sigma", 0.0), ("gbm_sigma", 0.05)], 3, None),
    (False, 1000, [("gbm_sigma", 0.0), ("gbm_sigma", 0.05)], 3, None),
    (False, 10_000, [], 25, None),
    (True, 286, [], 15, 20),
    (False, 286, [], 15, 20),
], ids=["run-fits", "run-over", "sweep-fits", "sweep-over", "10k-over", "small-last-block-fits",
        "small-last-block-over"])
def test_one_implementation_serves_a_whole_run(
    monkeypatch, loaded, paths, overrides, blocks, block_paths
):
    ufuncs, calls, loads = stochastic._special(), Counter(), []

    def counted(name):
        function = getattr(ufuncs, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return call

    served = types.SimpleNamespace(ndtri=counted("ndtri"), inv_boxcox=counted("inv_boxcox"))
    monkeypatch.setattr(stochastic, "_ufuncs", served if loaded else None)
    monkeypatch.setattr(stochastic, "_load_special", lambda: loads.append(served) or served)
    base = Scenario(num_paths=paths)
    # serial, as the calls are counted in this process
    with _small_blocks(base, block_paths) if block_paths else contextlib.nullcontext(), _serial():
        results = sweep(base, overrides) if overrides else [run_scenario(base)]
    careers = 2 if overrides else 1
    assert calls == {"ndtri": blocks, "inv_boxcox": careers * blocks}
    assert stochastic._ufuncs is served and len(loads) == (0 if loaded else 1)
    indices = range(0, paths, 97)
    for result in results:
        got = _bits(records(result.outcomes))
        assert [got[i] for i in indices] == _bits(run_path(result.scenario, i) for i in indices)


@pytest.mark.parametrize(
    "overrides, normals, careers",
    [
        ([("annuity_rate", value) for value in (0.05, 0.07, 0.09)], 1, 1),
        ([("gbm_sigma", value) for value in (0.0, 0.05, 0.1)], 1, 3),
        ([("service_years", value) for value in (25, 30, 35)], 3, 3),
        # the earliest stage among the keys decides what is shared
        ([("annuity_rate", 0.05), ("gbm_sigma", 0.1)], 1, 2),
        ([("annuity_rate", 0.05), ("seed", 7)], 2, 2),
        ([], 0, 0),
    ],
    ids=["annuity_rate", "gbm_sigma", "service_years", "retirement+career", "retirement+draws",
         "none"],
)
def test_sweep_computes_each_shared_stage_once_per_block(monkeypatch, overrides, normals, careers):
    calls = Counter()

    def spy(name):
        real = getattr(engine, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(engine, name, counted)

    for name in ("stream_normals", "_career", "_retirement"):
        spy(name)
    # 1000 paths make 3 blocks at each of these service_years
    base = Scenario(num_paths=1000)
    # a generator can be read only once
    results = sweep(base, (override for override in overrides))
    blocks = 3
    assert calls == Counter({
        "stream_normals": normals * blocks,
        "_career": careers * blocks,
        "_retirement": len(overrides) * blocks,
    })
    listed = sweep(base, list(overrides))
    separate = [run_scenario(with_field(base, key, value)) for key, value in overrides]
    for got in (results, listed):
        assert [_bits(records(r.outcomes)) for r in got] == [
            _bits(records(r.outcomes)) for r in separate
        ]
        assert [emit_summary(r) for r in got] == [emit_summary(r) for r in separate]
    assert sweep(base, []) == []


@pytest.mark.parametrize(
    "overrides, plans",
    [
        ([], 1),
        ([("annuity_rate", value) for value in (0.05, 0.07, 0.09)], 1),
        ([("gbm_sigma", value) for value in (0.0, 0.05, 0.1)], 1),
        ([("service_years", value) for value in (25, 30, 35)], 3),  # each variant runs apart
    ],
    ids=["run_scenario", "annuity_rate", "gbm_sigma", "service_years"],
)
def test_a_run_works_out_its_shape_once(monkeypatch, overrides, plans):
    calls = []
    layout = engine._layout

    def spy(scenario):
        calls.append(scenario)
        return layout(scenario)

    monkeypatch.setattr(engine, "_layout", spy)
    base = Scenario(num_paths=1000)
    results = sweep(base, overrides) if overrides else [run_scenario(base)]
    assert calls == [result.scenario for result in results][:plans]


def test_failing_scenario_draws_no_further_blocks(monkeypatch):
    drawn = []
    normals = engine.stream_normals

    def spy(seed, first, count, size, space):
        drawn.append(first)
        return normals(seed, first, count, size, space)

    monkeypatch.setattr(engine, "stream_normals", spy)
    with pytest.raises(ValueError, match="growth factor"):
        run_scenario(Scenario(gbm_mu=800.0))  # 1000 paths: three blocks
    assert drawn == [0]


def test_sweep_whose_first_variant_fails_draws_no_further_blocks(monkeypatch):
    drawn = []
    normals = engine.stream_normals

    def spy(seed, first, count, size, space):
        drawn.append(first)
        return normals(seed, first, count, size, space)

    monkeypatch.setattr(engine, "stream_normals", spy)
    overrides = [("gbm_mu", value) for value in (800.0, 0.09, 0.1)]
    with pytest.raises(ValueError, match="growth factor"):
        sweep(Scenario(), overrides)  # 1000 paths: three blocks
    # block 0 once for the sweep, once more for the first variant alone
    assert drawn == [0, 0]


@pytest.mark.parametrize(
    "overrides, failing",
    [
        ({"gbm_sigma": 1e200}, 10),  # the drift
        ({"increment_rate": 1e11}, 10),  # basic pay
        ({"risk_free_rate": 1e10}, 10),  # the discount
        ({"gbm_mu": 707.78, "gbm_sigma": 1.0}, 3),  # growth, on paths 21, 31, 38 and 39 only
    ],
    ids=["drift", "basic-pay", "discount", "partial-growth"],
)
def test_every_failing_block_raises_the_serial_runs_error(overrides, failing):
    # a shared run raises the error of whichever block fails first, in
    # either process (see _helper.share), so it must not depend on the block
    scenario = Scenario(num_paths=40, **overrides)
    with _small_blocks(scenario, 4), mock.patch.object(_helper, "_helper_usable", lambda: False):
        with pytest.raises(ValueError) as serial:
            run_scenario(scenario)
        size, paths, layout = engine._layout(scenario)
        counts = [paths] * 10
        plan = engine._Plan([scenario], "retirement", size, counts, layout)
        compute, _ = engine._blocks(plan)
        errors = []
        for index in range(10):
            try:
                compute(index)
            except ValueError as error:
                errors.append(error)
    assert len(errors) == failing
    expected = (type(serial.value), str(serial.value))
    assert {(type(error), str(error)) for error in errors} == {expected}


def _first_error(scenarios):
    # the error a variant-by-variant sweep meets first
    for scenario in scenarios:
        try:
            run_scenario(scenario)
        except Exception as exc:
            return exc
    return None


@pytest.mark.parametrize(
    "base, key, values",
    [
        # non-finite corpus first, the discount overflow in block 0 second
        ({"inflation_sd_pct": 1e306}, "risk_free_rate", (0.07, 1e10)),
        ({"inflation_sd_pct": 1e306}, "risk_free_rate", (1e10, 0.07)),
        # a shared career whose growth overflows before either discount does
        ({"gbm_mu": 800.0}, "risk_free_rate", (0.07, 1e10)),
        # growth overflow in the second variant's career only
        ({"inflation_sd_pct": 1e306}, "gbm_mu", (0.09, 800.0)),
        # the drift's gbm_sigma**2 overflows in one variant's career only
        ({"inflation_sd_pct": 1e200}, "gbm_sigma", (0.05, 1e200)),
        ({"inflation_sd_pct": 1e200}, "gbm_sigma", (1e200, 0.05)),
    ],
)
def test_failing_sweep_raises_the_first_failing_variants_error(base, key, values):
    base = Scenario(num_paths=20, **base)
    expected = _first_error(with_field(base, key, value) for value in values)
    with pytest.raises(type(expected)) as info:
        sweep(base, [(key, value) for value in values])
    assert str(info.value) == str(expected)


# Every normal lies within +-8.21 (uniforms are at least 2**-53), so above
# this line every inflation draw is above -100% and salaries stay positive.
_WIDE_INFLATION = _scenarios(
    inflation_mean_pct=st.floats(-60.0, 20.0), inflation_sd_pct=st.floats(0.0, 8.0)
).filter(lambda s: s.inflation_mean_pct - 8.21 * s.inflation_sd_pct > -100)


@settings(max_examples=60, deadline=None, database=None)
@given(scenario=_WIDE_INFLATION, raise_by=st.floats(0.0, 0.3))
def test_raising_gbm_mu_never_hurts_a_path(scenario, raise_by):
    # common random numbers: both runs share every draw, path by path
    richer = with_field(scenario, "gbm_mu", scenario.gbm_mu + raise_by)
    for low, high in zip(*(records(run_scenario(s).outcomes) for s in (scenario, richer))):
        assert high.final_corpus >= low.final_corpus
        assert high.shortfall_years <= low.shortfall_years
        assert high.pv_support <= low.pv_support


def test_degenerate_randomness_collapses_paths():
    scenario = Scenario(num_paths=6, gbm_sigma=0.0, inflation_sd_pct=0.0)
    result = run_scenario(scenario)
    final_corpus = result.outcomes.final_corpus
    assert np.all(final_corpus == final_corpus[0])
    # identical values; the mean-based sd only reaches zero up to rounding
    assert result.final_corpus.sd <= 1e-8
    assert result.final_corpus.min == result.final_corpus.max


def test_common_random_numbers_couple_variants_per_path():
    base = Scenario(num_paths=300)
    seven, five = sweep(base, [("annuity_rate", 0.07), ("annuity_rate", 0.05)])
    assert seven.scenario.seed == base.seed
    assert five.scenario.seed == base.seed
    for a, b in zip(records(seven.outcomes), records(five.outcomes)):
        assert a.final_corpus == b.final_corpus  # same draws, same corpus
        assert a.shortfall_years <= b.shortfall_years
        assert a.pv_support <= b.pv_support


def test_sweep_preserves_order():
    base = Scenario(num_paths=20)
    results = sweep(base, [("gbm_mu", 0.07), ("gbm_mu", 0.09), ("gbm_mu", 0.11)])
    assert [r.scenario.gbm_mu for r in results] == [0.07, 0.09, 0.11]


def test_sweep_unknown_field_rejected():
    with pytest.raises(ConfigError):
        sweep(Scenario(num_paths=4), [("no_such_key", 1.0)])


def test_metric_accessor():
    result = run_scenario(Scenario(num_paths=5))
    for name in METRICS:
        assert result.metric(name) is getattr(result, name)
    with pytest.raises(KeyError):
        result.metric("sharpe")


def test_summarize_single_value_conventions():
    stats = summarize([5.0])
    assert stats.count == 1
    assert stats.mean == 5.0
    assert stats.sd == 0.0
    assert stats.min == 5.0 and stats.max == 5.0
    assert all(q == 5.0 for q in stats.quantiles.values())
    assert sum(stats.bin_counts) == 1


def test_summarize_small_sample():
    stats = summarize([1.0, 2.0, 3.0, 4.0])
    assert stats.mean == pytest.approx(2.5)
    assert stats.sd == pytest.approx(1.2910, abs=1e-4)
    assert stats.min == 1.0 and stats.max == 4.0
    assert stats.quantiles["p50"] == pytest.approx(2.5)
    assert list(stats.quantiles) == ["p5", "p25", "p50", "p75", "p95"]
    assert sum(stats.bin_counts) == 4
    assert stats.bin_edges[0] == 1.0 and stats.bin_edges[-1] == 4.0
    assert len(stats.bin_edges) == len(stats.bin_counts) + 1


def test_summarize_quantiles_use_linear_interpolation():
    stats = summarize([0.0, 10.0])
    assert stats.quantiles["p25"] == pytest.approx(2.5)
    assert stats.quantiles["p75"] == pytest.approx(7.5)


def test_summarize_quantiles_are_ordered():
    values = np.concatenate([RandomStream(1, 0).standard_normal(5000)])
    stats = summarize(values)
    qs = [stats.quantiles[k] for k in ("p5", "p25", "p50", "p75", "p95")]
    assert stats.min <= qs[0] and qs[-1] <= stats.max
    assert all(a <= b for a, b in zip(qs, qs[1:]))


@pytest.mark.parametrize(
    "values",
    [[1.0, 1.0 + 2**-52], [1e17] * 3, [1e150, 1e150 * (1 + 2**-52)], [-5.0, -5.0 + 2**-50]],
)
def test_summarize_histogram_of_values_apart_by_rounding(values):
    # np.histogram alone raises "Too many bins" on these
    stats = summarize(values)
    assert sum(stats.bin_counts) == len(values) == stats.count
    assert stats.bin_counts == tuple(np.histogram(values, bins=stats.bin_edges)[0])
    assert all(a < b for a, b in zip(stats.bin_edges, stats.bin_edges[1:]))
    assert stats.bin_edges[0] <= min(values) and max(values) <= stats.bin_edges[-1]


def test_summarize_rejects_bad_input():
    with pytest.raises(ValueError):
        summarize([])
    # statistics out of float range: the sum, the squares, the spread
    with pytest.raises(ValueError, match="^pv_support mean is not finite: inf$"):
        summarize([1.7e308, 1.7e308], "pv_support")
    with pytest.raises(ValueError, match="^final_corpus sd is not finite: inf$"):
        summarize([1e200, 2e200, 3e200], "final_corpus")
    with pytest.raises(ValueError, match="^values sd is not finite: inf$"):
        summarize([-1.7e308, 1.7e308])
    with pytest.raises(ValueError, match="^values last edge is not finite: inf$"):
        summarize([1.7976931348623157e308])


def test_summarize_peaks_no_higher_on_an_int_column_than_on_floats():
    # an int column copied to floats first peaked at 16 B a value against 8 B
    ints = np.random.default_rng(5).integers(0, 21, 100_000)  # as shortfall_years
    floats = ints.astype(float)
    summarize(ints), summarize(floats)  # warm-up: imports, caches and allocator pools
    peaks, stats = [], []
    for column in (ints, floats):
        tracemalloc.start()
        try:
            stats.append(summarize(column))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the constant: about one cast buffer of a reduction over ints, 8192 values
    assert peaks[0] <= peaks[1] + 2**17, peaks
    assert stats[0] == stats[1]


def _summary_oracle(values, metric):
    """summarize's statistics from np.quantile and np.histogram, as repr text
    (which tells -0.0 from 0.0), or the message of its ValueError."""
    arr = np.asarray(values, dtype=float).ravel()
    with np.errstate(all="ignore"):
        moments = [float(arr.mean()), float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
                   float(arr.min()), float(arr.max())]
        quantiles = np.quantile(arr, engine._QUANTILE_LEVELS).tolist()
        first, last, edges = engine._histogram_range(moments[2], moments[3])
        names = ["mean", "sd", "min", "max", *engine.QUANTILE_LABELS, "first edge", "last edge"]
        for stat, value in zip(names, [*moments, *quantiles, first, last]):
            if not math.isfinite(value):
                return f"{metric} {stat} is not finite: {value}"
    counts = np.histogram(arr, bins=edges)[0].tolist()
    return repr((moments, quantiles, edges.tolist(), counts))


def _summary_text(values, metric):
    try:
        stats = summarize(values, metric)
    except ValueError as error:
        return str(error)
    moments = [stats.mean, stats.sd, stats.min, stats.max]
    return repr((moments, list(stats.quantiles.values()), list(stats.bin_edges),
                 list(stats.bin_counts)))


_HUGE = 1.7976931348623157e308
# columns of any size, each drawn by numpy from a seed: (rng, size) -> values
_COLUMNS = {
    "spread": lambda rng, n: rng.lognormal(5.0, 2.0, n) * rng.choice([-1.0, 1.0], n),
    "ties": lambda rng, n: rng.choice(rng.normal(size=rng.integers(1, 6)), n),
    "constant": lambda rng, n: np.full(n, rng.normal() * 10.0 ** rng.integers(-300, 300)),
    "rounding": lambda rng, n: rng.normal() * (1.0 + rng.integers(-4, 5, n) * 2.0**-52),
    "integers": lambda rng, n: rng.integers(0, 21, n),  # as shortfall_years
    "signed zeros": lambda rng, n: np.where(rng.random(n) < rng.random(), -0.0, 0.0),
    "zeros and values": lambda rng, n: rng.choice([-0.0, 0.0, -1.5, 2.0, 1e-300], n),
    "near overflow": lambda rng, n: rng.uniform(-1.0, 1.0, n) * _HUGE,
    "near overflow, one sign": lambda rng, n: _HUGE * (1.0 - rng.integers(0, 3, n) * 2.0**-52),
}


@settings(max_examples=150, deadline=None, database=None)
@given(
    kind=st.sampled_from(sorted(_COLUMNS)),
    size=st.sampled_from([1, 2, 3, 4, 5, 17, 50, 3000, 10_000, 70_000]),
    seed=st.integers(0, 2**32 - 1),
)
# 15 of 17 zeros are -0.0, and np.sort returned all 17 as -0.0
@example(kind="signed zeros", size=17, seed=728)
def test_summarize_equals_np_quantile_and_np_histogram(kind, size, seed):
    # 70_000 values pass np.histogram's chunks of 65_536, which it sorts one by one
    values = _COLUMNS[kind](np.random.default_rng(seed), size)
    assert _summary_text(values, "final_corpus") == _summary_oracle(values, "final_corpus")


@settings(max_examples=300, deadline=None, database=None)
@given(values=st.lists(st.floats() | st.sampled_from([0.0, -0.0, _HUGE, -_HUGE]),
                       min_size=1, max_size=50))
@example(values=[-0.0, 0.0, -0.0])
@example(values=[0.0, -0.0, 0.0, 0.0, -0.0])
@example(values=[_HUGE, -_HUGE, 1.0])
@example(values=[-_HUGE])
def test_summarize_equals_np_quantile_and_np_histogram_on_any_floats(values):
    assert _summary_text(values, "pv_support") == _summary_oracle(values, "pv_support")


def test_histogram_counts_sum_to_num_paths():
    result = run_scenario(Scenario(num_paths=77))
    for name in METRICS:
        assert sum(result.metric(name).bin_counts) == 77

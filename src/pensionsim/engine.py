"""Scenario orchestration: per-path streams, career-to-retirement pipeline, sweeps.

Each path owns the stream whose id equals its index, so any path can be
recomputed in isolation and results never depend on scheduling. The draw
order within a path is part of the output contract: first the n+m annual
inflation values, then the n-1 log-returns, all from that one stream.

`run_path` and `run_path_detail` compute one path with the scalar layer
functions; they are the reference. `run_scenario` computes blocks of paths
as (paths, years) arrays with the same operations in the same order, so
its outcomes equal `run_path`'s bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .accumulation import (
    CareerParams,
    CareerYear,
    accumulate_corpus,
    dearness_allowance,
    growth_factors,
    project_basic,
)
from .retirement import (
    RetirementParams,
    RetirementYear,
    annual_pension,
    evaluate_retirement,
    pv_support,
    requirement_series,
    shortfall_years,
)
from .stochastic import (
    GbmParams,
    InflationParams,
    RandomStream,
    gbm_log_returns,
    inflation_series,
    stream_normals,
)

__all__ = [
    "DEFAULTS",
    "FIELDS",
    "METRICS",
    "ConfigError",
    "Field",
    "PathDetail",
    "PathOutcome",
    "Scenario",
    "ScenarioResult",
    "SummaryStats",
    "SweepVariant",
    "baseline_scenario",
    "check_field",
    "run_path",
    "run_path_detail",
    "run_scenario",
    "scenario_from_values",
    "scenario_values",
    "summarize",
    "sweep",
    "with_field",
]


class ConfigError(ValueError):
    """Bad scenario configuration: unknown key, unparseable value, or invariant violation."""


@dataclass(frozen=True)
class Field:
    """One flat scenario key: where it lives in Scenario, its type, default and range.

    Bounds are inclusive, except that `low_open` excludes `low` itself. A
    float field must also be finite.
    """

    key: str
    path: str  # attribute path in Scenario
    kind: type  # int or float
    default: int | float
    low: int | float | None = None
    high: int | float | None = None
    low_open: bool = False


# The complete set of accepted flat keys, in canonical order.
FIELDS = (
    Field("service_years", "career.service_years", int, 30, low=1),
    Field("retirement_years", "retirement.retirement_years", int, 20, low=1),
    Field("basic_start", "career.basic_start", float, 100.0, low=0, low_open=True),
    Field("increment_rate", "career.increment_rate", float, 0.03, low=0),
    Field("employee_rate", "career.employee_rate", float, 0.10, low=0),
    Field("employer_rate", "career.employer_rate", float, 0.14, low=0),
    Field("inflation_mean_pct", "inflation.mean_pct", float, 4.0),
    Field("inflation_sd_pct", "inflation.sd_pct", float, 1.0, low=0),
    Field("gbm_mu", "gbm.mu", float, 0.09),
    Field("gbm_sigma", "gbm.sigma", float, 0.05, low=0),
    Field("annuity_rate", "retirement.annuity_rate", float, 0.07, low=0),
    Field("risk_free_rate", "retirement.risk_free_rate", float, 0.07, low=0),
    Field("guarantee_fraction", "retirement.guarantee_fraction", float, 0.5, low=0, high=1),
    Field("num_paths", "num_paths", int, 1000, low=1),
    Field("seed", "master_seed", int, 42, low=0, high=2**64 - 1),
)
_BY_KEY = {field.key: field for field in FIELDS}
# the params dataclass behind each first component of a nested Field.path
_PARAMS = {
    "career": CareerParams,
    "retirement": RetirementParams,
    "gbm": GbmParams,
    "inflation": InflationParams,
}

DEFAULTS: dict[str, int | float] = {field.key: field.default for field in FIELDS}

METRICS = ("final_corpus", "shortfall_years", "pv_support")


@dataclass(frozen=True)
class Scenario:
    """Complete validated simulation configuration."""

    career: CareerParams
    retirement: RetirementParams
    gbm: GbmParams
    inflation: InflationParams
    num_paths: int = 1000
    master_seed: int = 42

    def __post_init__(self) -> None:
        if self.num_paths < 1:
            raise ValueError(f"num_paths must be >= 1, got {self.num_paths}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(
                f"seed must be an unsigned 64-bit integer, got {self.master_seed}"
            )


def check_field(key: str, value) -> int | float:
    """Coerce one flat value to its field's type and check the field's range.

    `value` is a number, or its text as read from a scenario file or the
    command line. Every ConfigError names the key.
    """
    field = _BY_KEY.get(key)
    if field is None:
        raise ConfigError(f"unknown scenario field: {key!r}")
    numeric = (int, np.integer) if field.kind is int else (int, float, np.integer, np.floating)
    if isinstance(value, str):
        try:
            value = field.kind(value)
        except ValueError:
            raise ConfigError(
                f"cannot parse {value!r} as {field.kind.__name__} for {key}"
            ) from None
    elif isinstance(value, bool) or not isinstance(value, numeric):
        noun = "an integer" if field.kind is int else "a number"
        raise ConfigError(f"{key} must be {noun}, got {value!r}")
    value = field.kind(value)
    if field.kind is float and not math.isfinite(value):
        problem = "must be finite"
    elif field.high is not None and not field.low <= value <= field.high:
        problem = f"must be within [{field.low}, {field.high}]"
    elif field.low is not None and (value <= field.low if field.low_open else value < field.low):
        problem = f"must be {'>' if field.low_open else '>='} {field.low}"
    else:
        return value
    raise ConfigError(f"{key} {problem}, got {value}")


def scenario_from_values(values: dict[str, object]) -> Scenario:
    """Build a validated Scenario from flat key/value overrides of the defaults."""
    unknown = sorted(set(values) - set(DEFAULTS))
    if unknown:
        raise ConfigError(f"unknown scenario field(s): {', '.join(unknown)}")
    params: dict[str, dict[str, int | float]] = {group: {} for group in _PARAMS}
    top: dict[str, int | float] = {}
    for field in FIELDS:
        group, _, attr = field.path.rpartition(".")
        (params[group] if group else top)[attr] = check_field(
            field.key, values.get(field.key, field.default)
        )
    try:
        return Scenario(
            **{group: cls(**params[group]) for group, cls in _PARAMS.items()}, **top
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def baseline_scenario(**overrides) -> Scenario:
    """The default configuration, optionally overridden by flat keys."""
    return scenario_from_values(overrides)


def scenario_values(scenario: Scenario) -> dict[str, int | float]:
    """Flat key/value view of a Scenario, in canonical key order."""
    return {field.key: attrgetter(field.path)(scenario) for field in FIELDS}


def with_field(scenario: Scenario, key: str, value) -> Scenario:
    """Copy of `scenario` with one flat field replaced."""
    return scenario_from_values({**scenario_values(scenario), key: value})


@dataclass(frozen=True)
class PathOutcome:
    """Per-path results; pension is final_corpus * annuity_rate by construction."""

    path_index: int
    final_corpus: float
    pension: float
    shortfall_years: int
    pv_support: float


@dataclass(frozen=True)
class PathDetail:
    """Year-by-year tables for one path, plus its outcome."""

    outcome: PathOutcome
    career: tuple[CareerYear, ...]
    retirement: tuple[RetirementYear, ...]


def _simulate(scenario: Scenario, path_index: int):
    """Draw one path's randomness and run the pipeline; returns every array it built."""
    if not 0 <= path_index < scenario.num_paths:
        raise ConfigError(
            f"path_index must be in [0, {scenario.num_paths - 1}], got {path_index}"
        )
    n = scenario.career.service_years
    m = scenario.retirement.retirement_years
    stream = RandomStream(scenario.master_seed, path_index)
    # normative draw order: n+m inflations, then n-1 log-returns
    infl = inflation_series(stream, scenario.inflation, n + m)
    rets = gbm_log_returns(stream, scenario.gbm, n - 1)

    basic = project_basic(scenario.career)
    da = dearness_allowance(basic, infl[:n])
    salary = basic + da
    contributions = scenario.career.contribution_rate * salary
    corpus = accumulate_corpus(contributions, rets)
    pension = annual_pension(float(corpus[-1]), scenario.retirement.annuity_rate)
    reqs = requirement_series(
        float(salary[-1]),
        float(infl[n - 1]),
        infl[n:],
        scenario.retirement.guarantee_fraction,
    )
    rows = evaluate_retirement(pension, reqs, infl[n:], start_year=n + 1)
    return infl, rets, basic, da, salary, contributions, corpus, pension, rows


def _outcome(scenario: Scenario, path_index: int, corpus, pension, rows) -> PathOutcome:
    return PathOutcome(
        path_index=path_index,
        final_corpus=float(corpus[-1]),
        pension=pension,
        shortfall_years=shortfall_years(rows),
        pv_support=pv_support(
            rows, scenario.retirement.risk_free_rate, scenario.career.service_years
        ),
    )


def run_path(scenario: Scenario, path_index: int) -> PathOutcome:
    """Simulate one path; depends only on (master_seed, path_index) and parameters."""
    *_, corpus, pension, rows = _simulate(scenario, path_index)
    return _outcome(scenario, path_index, corpus, pension, rows)


def run_path_detail(scenario: Scenario, path_index: int) -> PathDetail:
    """Like run_path but keeps the year-by-year career and retirement tables."""
    infl, rets, basic, da, salary, contributions, corpus, pension, rows = _simulate(
        scenario, path_index
    )
    career = tuple(
        CareerYear(
            year=t + 1,
            inflation_pct=float(infl[t]),
            basic=float(basic[t]),
            da=float(da[t]),
            salary=float(salary[t]),
            contribution=float(contributions[t]),
            log_return=float(rets[t - 1]) if t else 0.0,
            corpus=float(corpus[t]),
        )
        for t in range(scenario.career.service_years)
    )
    return PathDetail(
        outcome=_outcome(scenario, path_index, corpus, pension, rows),
        career=career,
        retirement=tuple(rows),
    )


# uniforms drawn per block of paths in run_scenario; bounds the block's
# arrays whatever service_years and retirement_years are
_BLOCK_DRAWS = 2**15


def _simulate_block(scenario: Scenario, first: int, count: int):
    """Paths first..first+count-1 at once, each bit for bit as `run_path`.

    Returns final_corpus, pension, shortfall_years and pv_support arrays,
    in PathOutcome's field order, one entry per path.
    """
    career, retirement, gbm = scenario.career, scenario.retirement, scenario.gbm
    n, m = career.service_years, retirement.retirement_years
    z = stream_normals(scenario.master_seed, first, count, 2 * n + m - 1)
    # inflation_series and gbm_log_returns, row-wise
    infl = scenario.inflation.mean_pct + scenario.inflation.sd_pct * z[:, : n + m]
    rets = (gbm.mu - 0.5 * gbm.sigma**2) + gbm.sigma * z[:, n + m :]

    basic = project_basic(career)
    da = np.zeros((count, n))
    da[:, 1:] = basic[:-1] * infl[:, : n - 1] / 100.0
    salary = basic + da
    contributions = career.contribution_rate * salary
    growth = growth_factors(rets)
    corpus = contributions[:, 0]
    for t in range(1, n):
        corpus = corpus * growth[:, t - 1] + contributions[:, t]
    pension = corpus * retirement.annuity_rate

    req = retirement.guarantee_fraction * salary[:, -1] * (1.0 + infl[:, n - 1] / 100.0)
    base = 1.0 + retirement.risk_free_rate
    shortfall = np.zeros(count, dtype=np.int64)
    pv = np.zeros(count)
    for k in range(m):
        if k:
            req = req * (1.0 + infl[:, n + k - 1] / 100.0)
        # written so that a NaN requirement or pension counts as a miss
        miss = ~(pension >= req)
        shortfall += miss
        pv += np.where(miss, req - pension, 0.0) / base ** (n + k)
    return corpus, pension, shortfall, pv


QUANTILE_LABELS = ("p5", "p25", "p50", "p75", "p95")
_QUANTILE_LEVELS = (0.05, 0.25, 0.50, 0.75, 0.95)


@dataclass(frozen=True)
class SummaryStats:
    """Cross-path summary of one metric."""

    count: int
    mean: float
    sd: float
    min: float
    max: float
    quantiles: dict[str, float]
    bin_edges: tuple[float, ...]
    bin_counts: tuple[int, ...]


def _histogram_range(arr: np.ndarray, bin_count: int) -> tuple[float, float] | None:
    """None where np.histogram's own range works; else a widened range.

    np.histogram widens equal values by 0.5 itself, but raises when its
    edges collapse: values apart by a few ulps, or equal values too large
    for 0.5 to move.
    """
    lo, hi = float(arr.min()), float(arr.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, bin_count + 1)
    if np.all(edges[:-1] < edges[1:]):
        return None
    pad = max(0.5, max(abs(lo), abs(hi)) * 2.0**-40)
    return lo - pad, hi + pad


def summarize(values, bin_count: int = 30) -> SummaryStats:
    """Moments, linear-interpolation quantiles, and an equal-width histogram.

    The sd uses the n-1 divisor and is 0.0 for a single value. Histogram
    bins span [min, max] and are right-open except the last, which is
    closed so the maximum lands in the final bin. When [min, max] is too
    narrow for bin_count distinct edges (equal values, or values apart by
    rounding only), it is widened on both sides: by 0.5, as np.histogram
    does for equal values, or by 2**-40 of the values' magnitude if larger.
    """
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("summarize needs at least one value")
    if bin_count < 1:
        raise ValueError(f"bin_count must be >= 1, got {bin_count}")
    counts, edges = np.histogram(arr, bins=bin_count, range=_histogram_range(arr, bin_count))
    qs = np.quantile(arr, _QUANTILE_LEVELS)
    return SummaryStats(
        count=int(arr.size),
        mean=float(arr.mean()),
        sd=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        min=float(arr.min()),
        max=float(arr.max()),
        quantiles={label: float(q) for label, q in zip(QUANTILE_LABELS, qs)},
        bin_edges=tuple(float(e) for e in edges),
        bin_counts=tuple(int(c) for c in counts),
    )


@dataclass(frozen=True)
class ScenarioResult:
    """All path outcomes plus per-metric summaries, in path-index order."""

    scenario: Scenario
    outcomes: tuple[PathOutcome, ...]
    final_corpus: SummaryStats
    shortfall_years: SummaryStats
    pv_support: SummaryStats

    def metric(self, name: str) -> SummaryStats:
        if name not in METRICS:
            raise KeyError(f"unknown metric {name!r}; expected one of {METRICS}")
        return getattr(self, name)


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Run every path and aggregate in index order.

    Paths run in blocks of at most _BLOCK_DRAWS draws; the outcomes equal
    `run_path`'s bit for bit. Raises ValueError naming the metric and the
    first path index when an outcome is not finite (a numeric blow-up of the
    scenario's parameters).
    """
    total = scenario.num_paths
    draws = 2 * scenario.career.service_years + scenario.retirement.retirement_years - 1
    per_block = max(1, _BLOCK_DRAWS // draws)
    outcomes: list[PathOutcome] = []
    with np.errstate(all="ignore"):  # a blow-up is reported below, by metric and path
        for first in range(0, total, per_block):
            count = min(per_block, total - first)
            block = (column.tolist() for column in _simulate_block(scenario, first, count))
            outcomes += map(PathOutcome, range(first, first + count), *block)
    columns = {
        name: np.array([getattr(o, name) for o in outcomes], dtype=float) for name in METRICS
    }
    for name, column in columns.items():
        bad = np.flatnonzero(~np.isfinite(column))
        if bad.size:
            raise ValueError(f"{name} is not finite on path {bad[0]}: {column[bad[0]]}")
    return ScenarioResult(
        scenario=scenario,
        outcomes=tuple(outcomes),
        **{name: summarize(column) for name, column in columns.items()},
    )


@dataclass(frozen=True)
class SweepVariant:
    """One sweep cell: the override label, its scenario, and its result."""

    label: str
    scenario: Scenario
    result: ScenarioResult


def sweep(base: Scenario, overrides) -> list[SweepVariant]:
    """Run one variant per (field, value) pair, in the given order.

    Every variant keeps the base master_seed, so variants share random
    streams path-by-path (common random numbers) and differences reflect
    the parameter change alone.
    """
    variants = []
    for key, value in overrides:
        scenario = with_field(base, key, value)
        variants.append(
            SweepVariant(
                label=f"{key}={value}",
                scenario=scenario,
                result=run_scenario(scenario),
            )
        )
    return variants

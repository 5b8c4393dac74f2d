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

import dataclasses
import math
from dataclasses import dataclass
from typing import get_type_hints

import numpy as np

from .accumulation import (
    CareerYear,
    accumulate_corpus,
    dearness_allowance,
    growth_factors,
    project_basic,
)
from .retirement import (
    RetirementYear,
    annual_pension,
    discount_factors,
    evaluate_retirement,
    pv_support,
    requirement_series,
    shortfall_years,
)
from .stochastic import (
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


def _field(default, low=None, high=None, low_open=False):
    """A Scenario attribute with its default and its range (see Field)."""
    return dataclasses.field(
        default=default, metadata={"low": low, "high": high, "low_open": low_open}
    )


@dataclass(frozen=True)
class Scenario:
    """Complete validated simulation configuration, one attribute per flat key.

    Each attribute declares its key's type, default and range, in canonical
    key order; FIELDS, DEFAULTS and every range check derive from it. Rates
    are fractions (0.10 means 10%), inflation is in percent.
    """

    service_years: int = _field(30, low=1)
    retirement_years: int = _field(20, low=1)
    basic_start: float = _field(100.0, low=0, low_open=True)
    increment_rate: float = _field(0.03, low=0)
    employee_rate: float = _field(0.10, low=0)
    employer_rate: float = _field(0.14, low=0)
    inflation_mean_pct: float = _field(4.0)
    inflation_sd_pct: float = _field(1.0, low=0)
    gbm_mu: float = _field(0.09)
    gbm_sigma: float = _field(0.05, low=0)
    annuity_rate: float = _field(0.07, low=0)
    risk_free_rate: float = _field(0.07, low=0)
    guarantee_fraction: float = _field(0.5, low=0, high=1)
    num_paths: int = _field(1000, low=1)
    seed: int = _field(42, low=0, high=2**64 - 1)

    def __post_init__(self) -> None:
        for field in FIELDS:
            _check_range(field, getattr(self, field.key))
        if self.employee_rate + self.employer_rate > 1:
            raise ConfigError(
                "employee_rate + employer_rate cannot exceed 1, got "
                f"{self.employee_rate} + {self.employer_rate}"
            )

    @property
    def contribution_rate(self) -> float:
        return self.employee_rate + self.employer_rate


@dataclass(frozen=True)
class Field:
    """One flat scenario key: its type, default and range, read from Scenario.

    Bounds are inclusive, except that `low_open` excludes `low` itself. A
    float field must also be finite.
    """

    key: str
    kind: type  # int or float
    default: int | float
    low: int | float | None = None
    high: int | float | None = None
    low_open: bool = False


_KINDS = get_type_hints(Scenario)
# The complete set of accepted flat keys, in canonical order.
FIELDS = tuple(
    Field(f.name, _KINDS[f.name], f.default, **f.metadata) for f in dataclasses.fields(Scenario)
)
_BY_KEY = {field.key: field for field in FIELDS}

DEFAULTS: dict[str, int | float] = {field.key: field.default for field in FIELDS}

METRICS = ("final_corpus", "shortfall_years", "pv_support")


def _check_range(field: Field, value: int | float) -> None:
    if field.kind is float and not math.isfinite(value):
        problem = "must be finite"
    elif field.high is not None and not field.low <= value <= field.high:
        problem = f"must be within [{field.low}, {field.high}]"
    elif field.low is not None and (value <= field.low if field.low_open else value < field.low):
        problem = f"must be {'>' if field.low_open else '>='} {field.low}"
    else:
        return
    raise ConfigError(f"{field.key} {problem}, got {value}")


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
    _check_range(field, value)
    return value


def scenario_from_values(values: dict[str, object]) -> Scenario:
    """Build a validated Scenario from flat key/value overrides of the defaults."""
    return Scenario(**{key: check_field(key, value) for key, value in values.items()})


def baseline_scenario(**overrides) -> Scenario:
    """The default configuration, optionally overridden by flat keys."""
    return scenario_from_values(overrides)


def scenario_values(scenario: Scenario) -> dict[str, int | float]:
    """Flat key/value view of a Scenario, in canonical key order."""
    return {field.key: getattr(scenario, field.key) for field in FIELDS}


def with_field(scenario: Scenario, key: str, value) -> Scenario:
    """Copy of `scenario` with one flat field replaced."""
    return dataclasses.replace(scenario, **{key: check_field(key, value)})


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


@np.errstate(all="ignore")  # as in run_scenario: a blow-up shows in the outcome
def _simulate(scenario: Scenario, path_index: int):
    """Draw one path's randomness and run the pipeline; returns every array it built."""
    if not 0 <= path_index < scenario.num_paths:
        raise ConfigError(
            f"path_index must be in [0, {scenario.num_paths - 1}], got {path_index}"
        )
    n = scenario.service_years
    m = scenario.retirement_years
    stream = RandomStream(scenario.seed, path_index)
    # normative draw order: n+m inflations, then n-1 log-returns
    infl = inflation_series(stream, scenario, n + m)
    rets = gbm_log_returns(stream, scenario, n - 1)

    basic = project_basic(scenario)
    da = dearness_allowance(basic, infl[:n])
    salary = basic + da
    contributions = scenario.contribution_rate * salary
    corpus = accumulate_corpus(contributions, rets)
    pension = annual_pension(float(corpus[-1]), scenario.annuity_rate)
    reqs = requirement_series(
        float(salary[-1]),
        float(infl[n - 1]),
        infl[n:],
        scenario.guarantee_fraction,
    )
    rows = evaluate_retirement(pension, reqs, infl[n:], start_year=n + 1)
    return infl, rets, basic, da, salary, contributions, corpus, pension, rows


def _outcome(scenario: Scenario, path_index: int, corpus, pension, rows) -> PathOutcome:
    return PathOutcome(
        path_index=path_index,
        final_corpus=float(corpus[-1]),
        pension=pension,
        shortfall_years=shortfall_years(rows),
        pv_support=pv_support(rows, scenario.risk_free_rate, scenario.service_years),
    )


def run_path(scenario: Scenario, path_index: int) -> PathOutcome:
    """Simulate one path; depends only on (seed, path_index) and parameters."""
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
        for t in range(scenario.service_years)
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
    n, m = scenario.service_years, scenario.retirement_years
    z = stream_normals(scenario.seed, first, count, 2 * n + m - 1)
    # inflation_series and gbm_log_returns, row-wise
    infl = scenario.inflation_mean_pct + scenario.inflation_sd_pct * z[:, : n + m]
    mu, sigma = scenario.gbm_mu, scenario.gbm_sigma
    rets = (mu - 0.5 * sigma**2) + sigma * z[:, n + m :]

    basic = project_basic(scenario)
    da = np.zeros((count, n))
    da[:, 1:] = basic[:-1] * infl[:, : n - 1] / 100.0
    salary = basic + da
    contributions = scenario.contribution_rate * salary
    growth = growth_factors(rets)
    corpus = contributions[:, 0]
    for t in range(1, n):
        corpus = corpus * growth[:, t - 1] + contributions[:, t]
    pension = corpus * scenario.annuity_rate

    discount = discount_factors(scenario.risk_free_rate, n, m)
    req = scenario.guarantee_fraction * salary[:, -1] * (1.0 + infl[:, n - 1] / 100.0)
    shortfall = np.zeros(count, dtype=np.int64)
    pv = np.zeros(count)
    for k in range(m):
        if k:
            req = req * (1.0 + infl[:, n + k - 1] / 100.0)
        # written so that a NaN requirement or pension counts as a miss
        miss = ~(pension >= req)
        shortfall += miss
        pv += np.where(miss, req - pension, 0.0) / discount[k]
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
    draws = 2 * scenario.service_years + scenario.retirement_years - 1
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

    Every variant keeps the base seed, so variants share random
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

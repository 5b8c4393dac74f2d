"""Scenario orchestration: per-path streams, career-to-retirement pipeline, sweeps.

Each path owns the stream whose id equals its index, so any path can be
recomputed in isolation and results never depend on scheduling. The draw
order within a path is part of the output contract: first the n+m annual
inflation values, then the n-1 log-returns, all from that one stream.

`run_path` and `run_path_detail` compute one path with the scalar layer
functions; they are the reference. `run_scenario` and `sweep` compute
blocks of paths as (paths, years) arrays with the same operations in the
same order, so their outcomes equal `run_path`'s bit for bit; `sweep`
computes each stage of a block once for the variants that share it.
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
    gbm_drift,
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


def _field(default, stage, low=None, high=None, low_open=False):
    """A Scenario attribute with its default, its stage and its range (see Field)."""
    return dataclasses.field(
        default=default,
        metadata={"stage": stage, "low": low, "high": high, "low_open": low_open},
    )


@dataclass(frozen=True)
class Scenario:
    """Complete validated simulation configuration, one attribute per flat key.

    Each attribute declares its key's type, default, stage and range, in
    canonical key order; FIELDS, DEFAULTS, every range check and the stages
    sweep variants share derive from it. Each value is checked as
    check_field checks it when the Scenario is built, and stored coerced, so
    numbers as text and numpy scalars are accepted. Rates are fractions
    (0.10 means 10%), inflation is in percent.
    """

    service_years: int = _field(30, "draws", low=1)
    retirement_years: int = _field(20, "draws", low=1)
    basic_start: float = _field(100.0, "career", low=0, low_open=True)
    increment_rate: float = _field(0.03, "career", low=0)
    employee_rate: float = _field(0.10, "career", low=0)
    employer_rate: float = _field(0.14, "career", low=0)
    inflation_mean_pct: float = _field(4.0, "career")
    inflation_sd_pct: float = _field(1.0, "career", low=0)
    gbm_mu: float = _field(0.09, "career")
    gbm_sigma: float = _field(0.05, "career", low=0)
    annuity_rate: float = _field(0.07, "retirement", low=0)
    risk_free_rate: float = _field(0.07, "retirement", low=0)
    guarantee_fraction: float = _field(0.5, "retirement", low=0, high=1)
    num_paths: int = _field(1000, "draws", low=1)
    seed: int = _field(42, "draws", low=0, high=2**64 - 1)

    def __post_init__(self) -> None:
        for field in FIELDS:
            object.__setattr__(self, field.key, _coerce(field, getattr(self, field.key)))
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
    """One flat scenario key: its type, default, stage and range, read from Scenario.

    `stage` is the first stage of a block of paths that reads the field (see
    _STAGES). Bounds are inclusive, except that `low_open` excludes `low`
    itself. A float field must also be finite.
    """

    key: str
    kind: type  # int or float
    default: int | float
    stage: str
    low: int | float | None = None
    high: int | float | None = None
    low_open: bool = False


_KINDS = get_type_hints(Scenario)
# The complete set of accepted flat keys, in canonical order.
FIELDS = tuple(
    Field(f.name, _KINDS[f.name], f.default, **f.metadata) for f in dataclasses.fields(Scenario)
)
_BY_KEY = {field.key: field for field in FIELDS}

# The stages of a block of paths, in order: the standard normals, the career
# they drive, and the retirement scored on that career. Each stage reads its
# own fields and those of every stage before it.
_STAGES = ("draws", "career", "retirement")
_READS = {
    stage: tuple(f.key for f in FIELDS if _STAGES.index(f.stage) <= _STAGES.index(stage))
    for stage in _STAGES
}

DEFAULTS: dict[str, int | float] = {field.key: field.default for field in FIELDS}

METRICS = ("final_corpus", "shortfall_years", "pv_support")


def _coerce(field: Field, value) -> int | float:
    """`value` as field.kind, checked against the field's range."""
    key = field.key
    if type(value) is not field.kind:  # values of the exact type need no coercion
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


def _check_keys(keys) -> None:
    for key in keys:
        if key not in _BY_KEY:
            raise ConfigError(f"unknown scenario field: {key!r}")


def check_field(key: str, value) -> int | float:
    """Coerce one flat value to its field's type and check the field's range.

    `value` is a number, or its text as read from a scenario file or the
    command line. Every ConfigError names the key.
    """
    _check_keys((key,))
    return _coerce(_BY_KEY[key], value)


def scenario_from_values(values: dict[str, object]) -> Scenario:
    """Build a validated Scenario from flat key/value overrides of the defaults."""
    _check_keys(values)
    return Scenario(**values)


def baseline_scenario(**overrides) -> Scenario:
    """The default configuration, optionally overridden by flat keys."""
    return scenario_from_values(overrides)


def scenario_values(scenario: Scenario) -> dict[str, int | float]:
    """Flat key/value view of a Scenario, in canonical key order."""
    return {field.key: getattr(scenario, field.key) for field in FIELDS}


def with_field(scenario: Scenario, key: str, value) -> Scenario:
    """Copy of `scenario` with one flat field replaced."""
    _check_keys((key,))
    return dataclasses.replace(scenario, **{key: value})


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


def run_path(scenario: Scenario, path_index: int) -> PathOutcome:
    """Simulate one path; depends only on (seed, path_index) and parameters."""
    return run_path_detail(scenario, path_index).outcome


def run_path_detail(scenario: Scenario, path_index: int) -> PathDetail:
    """One path through the scalar layer functions, with its year-by-year tables."""
    if not 0 <= path_index < scenario.num_paths:
        raise ConfigError(
            f"path_index must be in [0, {scenario.num_paths - 1}], got {path_index}"
        )
    n = scenario.service_years
    m = scenario.retirement_years
    with np.errstate(all="ignore"):  # as in run_scenario: a blow-up shows in the outcome
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
    outcome = PathOutcome(
        path_index=path_index,
        final_corpus=float(corpus[-1]),
        pension=pension,
        shortfall_years=shortfall_years(rows),
        pv_support=pv_support(rows, scenario.risk_free_rate, n),
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
        for t in range(n)
    )
    return PathDetail(outcome=outcome, career=career, retirement=tuple(rows))


# uniforms drawn per block of paths in run_scenario; bounds the block's
# arrays whatever service_years and retirement_years are, except that a
# block holds at least _MIN_BLOCK_PATHS paths, since the column loops cost
# more per path than the scalar pipeline when a block holds only one
_BLOCK_DRAWS = 2**15
_MIN_BLOCK_PATHS = 8


def _career(scenario: Scenario, z: np.ndarray):
    """The career half of a block of paths, one row of normals `z` per path.

    Row i of `z` holds path i's 2n+m-1 draws (see stream_normals). Returns
    the final corpus, the final salary and the (paths, n+m) inflation
    matrix, each as `run_path` computes them.
    """
    n, m = scenario.service_years, scenario.retirement_years
    # inflation_series and gbm_log_returns, row-wise
    infl = scenario.inflation_mean_pct + scenario.inflation_sd_pct * z[:, : n + m]
    rets = gbm_drift(scenario) + scenario.gbm_sigma * z[:, n + m :]

    basic = project_basic(scenario)
    da = np.zeros((len(z), n))
    da[:, 1:] = basic[:-1] * infl[:, : n - 1] / 100.0
    salary = basic + da
    contributions = scenario.contribution_rate * salary
    growth = growth_factors(rets)
    corpus = contributions[:, 0]
    for t in range(1, n):
        corpus = corpus * growth[:, t - 1] + contributions[:, t]
    return corpus, salary[:, -1], infl


def _retirement(scenario: Scenario, corpus, salary, infl):
    """The retirement half of a block: `scenario`'s terms on a `_career` result.

    Returns final_corpus, pension, shortfall_years and pv_support arrays,
    in PathOutcome's field order, one entry per path.
    """
    n, m = scenario.service_years, scenario.retirement_years
    pension = corpus * scenario.annuity_rate
    discount = discount_factors(scenario.risk_free_rate, n, m)
    # requirement_series row-wise: both accumulates run year by year, as
    # run_path does, so the bits match (np.sum would sum pairwise)
    req = 1.0 + infl[:, n - 1 : n + m - 1] / 100.0
    req[:, 0] *= scenario.guarantee_fraction * salary
    np.multiply.accumulate(req, axis=1, out=req)
    # written so that a NaN requirement or pension counts as a miss
    miss = ~(pension[:, None] >= req)
    top_ups = np.where(miss, req - pension[:, None], 0.0) / discount
    # a copy, since a view would keep the block's whole matrix alive
    pv = np.add.accumulate(top_ups, axis=1)[:, -1].copy()
    shortfall = miss.sum(axis=1)
    return corpus, pension, shortfall, pv


def _groups(scenarios: list[Scenario], indices, stage: str) -> list[list[int]]:
    """`indices` grouped by the exact values of the fields `stage` reads.

    Values compare by repr, which tells -0.0 from 0.0 where == does not.
    """
    groups: dict[tuple[str, ...], list[int]] = {}
    for i in indices:
        key = tuple(repr(getattr(scenarios[i], name)) for name in _READS[stage])
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _run(scenarios: list[Scenario]) -> list[ScenarioResult]:
    """The results of `scenarios`, in order, computed one block of paths at a time.

    In each block the normals are drawn once for the scenarios that share
    the draws fields, the career is computed once for those that also share
    the career fields, and each scenario's retirement is scored on it. When
    a block of several scenarios fails, each scenario is rerun alone, in
    order, so the error raised is that of the first failing scenario, as if
    each ran alone.
    """
    blocks: list[list[tuple]] = [[] for _ in scenarios]
    try:
        with np.errstate(all="ignore"):  # a blow-up is reported by _result, by metric and path
            for draws in _groups(scenarios, range(len(scenarios)), "draws"):
                careers = _groups(scenarios, draws, "career")
                s = scenarios[draws[0]]
                size = 2 * s.service_years + s.retirement_years - 1
                per_block = max(_MIN_BLOCK_PATHS, _BLOCK_DRAWS // size)
                for first in range(0, s.num_paths, per_block):
                    z = stream_normals(s.seed, first, min(per_block, s.num_paths - first), size)
                    for career in careers:
                        shared = _career(scenarios[career[0]], z)
                        for i in career:
                            blocks[i].append(_retirement(scenarios[i], *shared))
                        del shared  # so that one block's shared arrays are alive at a time
                    del z
    except (ValueError, ArithmeticError):
        if len(scenarios) > 1:
            for scenario in scenarios:
                _run([scenario])
        raise
    return [_result(scenario, columns) for scenario, columns in zip(scenarios, blocks)]


QUANTILE_LABELS = ("p5", "p25", "p50", "p75", "p95")
_QUANTILE_LEVELS = (0.05, 0.25, 0.50, 0.75, 0.95)
_BIN_COUNT = 30


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


def _histogram_range(arr: np.ndarray) -> tuple[float, float] | None:
    """None where np.histogram's own range works; else a widened range.

    np.histogram widens equal values by 0.5 itself, but raises when its
    edges collapse: values apart by a few ulps, or equal values too large
    for 0.5 to move.
    """
    lo, hi = float(arr.min()), float(arr.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, _BIN_COUNT + 1)
    if np.all(edges[:-1] < edges[1:]):
        return None
    pad = max(0.5, max(abs(lo), abs(hi)) * 2.0**-40)
    return lo - pad, hi + pad


def summarize(values) -> SummaryStats:
    """Moments, linear-interpolation quantiles, and a 30-bin equal-width histogram.

    The sd uses the n-1 divisor and is 0.0 for a single value. Histogram
    bins span [min, max] and are right-open except the last, which is
    closed so the maximum lands in the final bin. When [min, max] is too
    narrow for distinct bin edges (equal values, or values apart by
    rounding only), it is widened on both sides: by 0.5, as np.histogram
    does for equal values, or by 2**-40 of the values' magnitude if larger.
    """
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("summarize needs at least one value")
    counts, edges = np.histogram(arr, bins=_BIN_COUNT, range=_histogram_range(arr))
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


def _result(scenario: Scenario, blocks) -> ScenarioResult:
    """Outcomes and summaries from `scenario`'s `_retirement` columns, block by block.

    Raises ValueError naming the metric and the first path index when an
    outcome is not finite (a numeric blow-up of the scenario's parameters).
    """
    total = scenario.num_paths
    corpus, pension, shortfall, pv = (np.concatenate(column) for column in zip(*blocks))
    metrics = dict(zip(METRICS, (corpus, shortfall, pv)))
    for name, column in metrics.items():
        bad = np.flatnonzero(~np.isfinite(column))
        if bad.size:
            raise ValueError(f"{name} is not finite on path {bad[0]}: {column[bad[0]]}")
    return ScenarioResult(
        scenario=scenario,
        outcomes=tuple(
            map(PathOutcome, range(total), *(c.tolist() for c in (corpus, pension, shortfall, pv)))
        ),
        **{name: summarize(column) for name, column in metrics.items()},
    )


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Run every path and aggregate in index order.

    Paths run in blocks of at most _BLOCK_DRAWS draws, or of
    _MIN_BLOCK_PATHS paths when fewer fit; the outcomes equal
    `run_path`'s bit for bit. Raises ValueError naming the metric and the
    first path index when an outcome is not finite (a numeric blow-up of the
    scenario's parameters). It runs sweep's block loop with one scenario, so
    an error in a block stops the run at that block.
    """
    return _run([scenario])[0]


def sweep(base: Scenario, overrides) -> list[ScenarioResult]:
    """Run one variant per (field, value) pair; results in the given order.

    Every variant keeps the base seed, so variants share random
    streams path-by-path (common random numbers) and differences reflect
    the parameter change alone. The variants run together, block by block,
    and each stage runs once per block for all variants that agree on the
    fields it reads (see Field.stage): variants of annuity_rate,
    risk_free_rate or guarantee_fraction share the normals and the career,
    variants of another career field share the normals, and variants of
    seed, service_years, retirement_years or num_paths share nothing. The
    results equal separate run_scenario calls bit for bit. When a block
    fails, the variants are rerun one by one, so the error raised is that
    of the first variant, in the given order, that fails.
    """
    return _run([with_field(base, key, value) for key, value in overrides])

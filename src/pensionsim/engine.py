"""Scenario orchestration: per-path streams, career-to-retirement pipeline, sweeps.

Each path owns the stream whose id equals its index, so any path can be
recomputed in isolation and results never depend on scheduling. The draw
order within a path is part of the output contract: first the n+m annual
inflation values, then the n-1 log-returns, all from that one stream.

`run_path` and `run_path_detail` compute one path with the scalar layer
functions; they are the reference. `run_scenario` and `sweep` compute
blocks of paths as year-major (years, paths) arrays with the same
operations in the same order, so their outcomes equal `run_path`'s bit for
bit; `sweep` computes each stage of a block once for the variants that
share it. A run computes every block in one set of arrays, and a large
run shares its blocks with a helper process (see _helper), through the
one function that computes a block in either process (see _blocks).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, get_type_hints

import numpy as np

from . import _helper
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
    _WORD,
    RandomStream,
    _special_functions,
    gbm_drift,
    gbm_log_returns,
    inflation_series,
    normals_layout,
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
    "check_field",
    "check_outcome",
    "run_path",
    "run_path_detail",
    "run_scenario",
    "scenario_from_values",
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
    num_paths: int = _field(1000, "draws", low=1, high=_WORD)  # path k draws stream k
    seed: int = _field(42, "draws", low=0, high=_WORD - 1)

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
    elif field.low is not None and (value <= field.low if field.low_open else value < field.low):
        problem = f"must be {'>' if field.low_open else '>='} {field.low}"
    elif field.high is not None and value > field.high:
        problem = f"must be <= {field.high}"
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


def with_field(scenario: Scenario, key: str, value) -> Scenario:
    """Copy of `scenario` with one flat field replaced."""
    _check_keys((key,))
    return dataclasses.replace(scenario, **{key: value})


class PathOutcome(NamedTuple):
    """One path's values or arrays over a run's paths; pension is final_corpus * annuity_rate."""

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


# PathOutcome's types after path_index
_OUTCOME_KINDS = (float, float, int, float)

# the most bytes numpy can index; larger arrays are a ValueError, not a MemoryError
_MAX_BYTES = np.iinfo(np.intp).max


def _check_bytes(nbytes: int) -> None:
    """Raise MemoryError when `nbytes` is more than numpy can index."""
    if nbytes > _MAX_BYTES:
        raise MemoryError(f"Unable to allocate {nbytes} bytes, more than numpy can index")


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
    _check_bytes(8 * (2 * n + m - 1))  # the path's draws
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
    columns = (infl[:n], basic, da, salary, contributions, np.concatenate(([0.0], rets)), corpus)
    career = tuple(map(CareerYear, range(1, n + 1), *(column.tolist() for column in columns)))
    return PathDetail(outcome=outcome, career=career, retirement=tuple(rows))


# uniforms drawn per block of paths in run_scenario; bounds the block's
# arrays whatever service_years and retirement_years are, except that a
# block holds at least _MIN_BLOCK_PATHS paths, since the column loops cost
# more per path than the scalar pipeline when a block holds only one
_BLOCK_DRAWS = 2**15
_MIN_BLOCK_PATHS = 8


def _block_layout(scenario: Scenario) -> tuple[int, dict[str, tuple[tuple[int, ...], type]]]:
    """The paths in a block of `scenario`'s run, and the arrays a block is computed in.

    The arrays are (shape, dtype) by name, each year-major with one column a
    path: the draws (see normals_layout), then the arrays of _career and of
    _retirement.
    """
    n, m = scenario.service_years, scenario.retirement_years
    size = 2 * n + m - 1
    paths = min(max(_MIN_BLOCK_PATHS, _BLOCK_DRAWS // size), scenario.num_paths)
    return paths, {
        **normals_layout(paths, size),
        "infl": ((n + m, paths), np.float64),
        "rets": ((n - 1, paths), np.float64),
        "growth": ((n - 1, paths), np.float64),
        "salary": ((n, paths), np.float64),
        "corpus": ((n, paths), np.float64),
        "req": ((m, paths), np.float64),
        "sufficient": ((m, paths), np.bool_),
    }


def _career(scenario: Scenario, z: np.ndarray, space: dict, exp):
    """The career half of a block of paths, on year-major normals `z`.

    Row t of `z` holds draw t of each path (see stream_normals), one column
    a path. Computes in `space`'s career arrays, never in `z`, with the
    run's `exp`, and returns the final corpus, the final salary and the
    (n+m, paths) inflation matrix, each as `run_path` computes them.
    """
    n, m = scenario.service_years, scenario.retirement_years
    # inflation_series and gbm_log_returns, column-wise
    infl = np.multiply(z[: n + m], scenario.inflation_sd_pct, out=space["infl"])
    infl += scenario.inflation_mean_pct
    rets = np.multiply(z[n + m :], scenario.gbm_sigma, out=space["rets"])
    rets += gbm_drift(scenario)

    basic = project_basic(scenario)[:, None]
    salary = space["salary"]  # the dearness allowance, then the salary
    salary[0] = 0.0
    np.multiply(infl[: n - 1], basic[:-1], out=salary[1:])
    salary[1:] /= 100.0
    salary += basic
    corpus = np.multiply(salary, scenario.contribution_rate, out=space["corpus"])
    growth = growth_factors(rets, out=space["growth"], exp=exp)
    for t in range(1, n):  # row t: the contribution, then the corpus, of year t + 1
        corpus[t - 1] *= growth[t - 1]
        corpus[t] += corpus[t - 1]
    return corpus[-1], salary[-1], infl


def _retirement(scenario: Scenario, corpus, salary, infl, space: dict, out) -> None:
    """The retirement half of a block: `scenario`'s terms on a `_career` result.

    Writes final_corpus, pension, shortfall_years and pv_support, one entry
    per path, into the arrays `out`, in PathOutcome's field order. Computes
    in `space`'s retirement arrays, never in the career.
    """
    n, m = scenario.service_years, scenario.retirement_years
    final_corpus, pension, shortfall, pv = out
    final_corpus[...] = corpus
    np.multiply(corpus, scenario.annuity_rate, out=pension)
    discount = discount_factors(scenario.risk_free_rate, n, m)
    # requirement_series column-wise: the requirements and the sum of the
    # top-ups run year by year, as run_path does, so the bits match (np.sum
    # would sum pairwise)
    req = np.divide(infl[n - 1 : n + m - 1], 100.0, out=space["req"])
    req += 1.0
    req[0] *= scenario.guarantee_fraction * salary
    np.multiply.accumulate(req, axis=0, out=req)
    # written so that a NaN requirement or pension counts as a miss
    sufficient = np.greater_equal(pension, req, out=space["sufficient"])
    top_ups = np.subtract(req, pension, out=req)
    np.putmask(top_ups, sufficient, 0.0)
    top_ups /= np.array(discount)[:, None]
    pv[...] = top_ups[0]
    for top_up in top_ups[1:]:
        pv += top_up
    np.logical_not(sufficient, out=sufficient)
    np.sum(sufficient, axis=0, out=shortfall)


def _block(scenarios: list[Scenario], stage: str, first: int, count: int, space: dict, out,
           special) -> None:
    """Compute paths first..first+count-1 of `scenarios` in `space`'s leading columns.

    `out` holds the arrays of count entries that take the outcomes: four
    for each scenario, in PathOutcome's field order after path_index.
    `special` is the run's `(ndtri, exp)` (see _fill).
    """
    s = scenarios[0]
    ndtri, exp = special
    block = {name: array[..., :count] for name, array in space.items()}
    size = 2 * s.service_years + s.retirement_years - 1
    z = stream_normals(s.seed, first, count, size, block, ndtri).T
    shared = _career(s, z, block, exp) if stage == "retirement" else None
    kinds = len(_OUTCOME_KINDS)
    for number, scenario in enumerate(scenarios):
        career = _career(scenario, z, block, exp) if shared is None else shared
        _retirement(scenario, *career, block, out[number * kinds : (number + 1) * kinds])


def _counts(num_paths: int, paths: int) -> list[int]:
    """The paths in each block of a run of `num_paths` paths, `paths` in all but the last."""
    return [min(paths, num_paths - first) for first in range(0, num_paths, paths)]


def _blocks(scenarios: list[Scenario], stage: str, paths: int, layout: dict, special,
            columns=None):
    """`(compute, rows)` of a run in this process: `compute(index)` computes
    block `index` into the arrays `rows(index)`.

    Bound to all but `columns`, this is the job a run gives the helper
    process (see _helper.share): `paths` and `layout` are the run's
    _block_layout, and `special` the `(ndtri, exp)` pair that computes
    every block, which pickles by reference. A block's rows are its
    entries of `columns`, each scenario's outcome columns after path_index,
    or else of one block's columns, allocated here as the block arrays are.
    """
    counts = _counts(scenarios[0].num_paths, paths)
    space = {name: np.empty(*shape_kind) for name, shape_kind in layout.items()}
    step = paths  # block `index`'s rows start at index * step
    if columns is None:
        columns, step = [np.empty(paths, kind) for _ in scenarios for kind in _OUTCOME_KINDS], 0

    def rows(index):
        return [column[index * step : index * step + counts[index]] for column in columns]

    def compute(index):
        with np.errstate(all="ignore"):  # a blow-up is reported by metric and path (see _run)
            _block(scenarios, stage, index * paths, counts[index], space, rows(index), special)

    return compute, rows


def _fill(scenarios: list[Scenario], stage: str, outcomes: list[PathOutcome]) -> None:
    """Compute `scenarios`' outcomes into their columns, one block of paths at a time.

    The special-functions switch is charged once, for every block's calls,
    and each block is computed with the `(ndtri, exp)` it gives, in one set
    of arrays, the last in their leading columns; they are freed when this
    returns. _helper.share computes each block once, here or in the
    helper; a block that fails in the helper fails again here. The error a
    block raises depends only on the scenarios (their fields, or the growth
    overflow's fixed message), never on the block, so it is a serial run's.
    """
    s = scenarios[0]
    paths, layout = _block_layout(s)
    counts = _counts(s.num_paths, paths)
    # the calls on ndtri and exp a block makes: its normals, then the growth
    # factors of each career it computes
    careers = 1 if stage == "retirement" else len(scenarios)
    sizes = [2 * s.service_years + s.retirement_years - 1] + careers * [s.service_years - 1]
    special = _special_functions(*(count * size for count in counts for size in sizes))
    job = functools.partial(_blocks, scenarios, stage, paths, layout, special)
    columns = [column for outcome in outcomes for column in outcome[1:]]
    _helper.share(job, len(counts), *job(columns))


def _run(scenarios: list[Scenario], stage: str = "retirement") -> list[ScenarioResult]:
    """The results of `scenarios`, in order, computed one block of paths at a time.

    The scenarios must agree on every field of the stages before `stage`,
    and each block computes those stages once for all of them. The blocks
    may be shared with the helper process (see _fill), which gives the
    same bits and, when a block fails, the error a serial run raises.
    When a block of several scenarios fails, each is rerun alone, in order,
    so the error raised is that of the first failing scenario, as if each
    ran alone.
    """
    if stage == "draws" or not scenarios:
        return [_run([scenario])[0] for scenario in scenarios]
    s = scenarios[0]
    # each scenario's outcome columns, which the blocks fill, then the arrays
    # of a block; a run too large to hold fails before its first draw
    _, layout = _block_layout(s)
    _check_bytes(
        8 * len(PathOutcome._fields) * s.num_paths * len(scenarios)
        + sum(math.prod(shape) * np.dtype(kind).itemsize for shape, kind in layout.values())
    )
    outcomes = [
        PathOutcome(np.arange(s.num_paths), *(np.empty(s.num_paths, k) for k in _OUTCOME_KINDS))
        for _ in scenarios
    ]
    try:
        _fill(scenarios, stage, outcomes)
    except (ValueError, ArithmeticError):
        if len(scenarios) == 1:
            raise
        return _run(scenarios, "draws")
    results = []
    for scenario, outcome in zip(scenarios, outcomes):
        check_outcome(outcome)  # it and summarize raise ValueError naming the metric
        summaries = {name: summarize(getattr(outcome, name), name) for name in METRICS}
        results.append(ScenarioResult(scenario=scenario, outcomes=outcome, **summaries))
    return results


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


def _histogram_range(lo: float, hi: float) -> tuple[float, float, np.ndarray]:
    """[lo, hi], widened where the equal-width bin edges would collapse (see
    summarize), and the edges over it."""
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, _BIN_COUNT + 1)
    if (edges[:-1] < edges[1:]).all():
        return lo, hi, edges
    pad = max(0.5, max(abs(lo), abs(hi)) * 2.0**-40)
    lo, hi = lo - pad, hi + pad
    return lo, hi, np.linspace(lo, hi, _BIN_COUNT + 1)


def _quantiles(arr: np.ndarray, ordered: np.ndarray, mixed: bool) -> list[float]:
    """arr's quantiles at _QUANTILE_LEVELS by the rule summarize states,
    from `ordered`, which is arr sorted; `mixed`: arr holds 0.0 and -0.0."""
    if mixed:
        return np.quantile(arr, _QUANTILE_LEVELS).tolist()
    last = ordered.size - 1
    virtual = [last * q for q in _QUANTILE_LEVELS]
    lower = [-1 if v >= last else math.floor(v) for v in virtual]
    values = ordered[[*lower, *(-1 if i == -1 else i + 1 for i in lower)]].tolist()
    quantiles = []
    for v, i, a, b in zip(virtual, lower, values, values[len(lower) :]):
        g, diff = v - i, b - a
        quantiles.append(b - diff * (1 - g) if g >= 0.5 else a + diff * g)
    return quantiles


def summarize(values, metric: str = "values") -> SummaryStats:
    """Moments, linear-interpolation quantiles, and a 30-bin equal-width histogram.

    The sd uses the n-1 divisor and is 0.0 for a single value. The
    quantiles are np.quantile's, bit for bit, by its linear rule on one
    sorted copy of the n values: level q has the virtual index v = (n-1)*q,
    between the indices lower = floor(v) and lower + 1, except that both
    are -1 where v >= n-1; with g = v - lower and a, b the values at those
    indices, the quantile is a + (b-a)*g, or b - (b-a)*(1-g) where g >=
    0.5. Only 0.0 and -0.0 are equal values with different bits, and a sort
    may order them otherwise than np.quantile's partition does, so a column
    that holds both takes its quantiles from np.quantile itself. The bin
    counts are np.histogram's, from the same sorted copy. Histogram
    bins span [min, max] and are right-open except the last, which is
    closed so the maximum lands in the final bin. When [min, max] is too
    narrow for distinct bin edges (equal values, or values apart by
    rounding only), it is widened on both sides: by 0.5, as np.histogram
    does for equal values, or by 2**-40 of the values' magnitude if larger.
    The counts are taken against exactly `bin_edges`. Raises ValueError
    naming `metric` and the statistic if one is not finite.
    """
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("summarize needs at least one value")
    with np.errstate(all="ignore"):  # an overflow shows as a statistic that is not finite
        moments = {
            "mean": float(arr.mean()),
            "sd": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
            "min": float(arr.min()),  # not the sorted ends: max may be -0.0 beside 0.0
            "max": float(arr.max()),
        }
        # counted before the sort, which may give equal zeros one sign
        negative_zeros = np.count_nonzero(np.signbit(arr)) - np.count_nonzero(arr < 0.0)
        mixed = 0 < negative_zeros < np.count_nonzero(arr == 0.0)
        ordered = np.sort(arr)  # once std has freed its temporary, so the two never coexist
        quantiles = dict(zip(QUANTILE_LABELS, _quantiles(arr, ordered, mixed)))
        first, last, edges = _histogram_range(moments["min"], moments["max"])
        named = {**moments, **quantiles, "first edge": first, "last edge": last}
        for stat, value in named.items():
            if not math.isfinite(value):  # not the edges: linspace makes NaN of inf
                raise ValueError(f"{metric} {stat} is not finite: {value}")
    # np.histogram's counts: the values below each edge, and at or below the last
    below = ordered.searchsorted(edges, "left")
    below[-1] = ordered.searchsorted(edges[-1], "right")
    return SummaryStats(
        count=int(arr.size),
        **moments,
        quantiles=quantiles,
        bin_edges=tuple(edges.tolist()),
        bin_counts=tuple(np.diff(below).tolist()),
    )


@dataclass(frozen=True, eq=False)  # == is identity: outcomes holds arrays
class ScenarioResult:
    """Outcomes as one array per PathOutcome field, in path-index order, plus summaries."""

    scenario: Scenario
    outcomes: PathOutcome
    final_corpus: SummaryStats
    shortfall_years: SummaryStats
    pv_support: SummaryStats

    def metric(self, name: str) -> SummaryStats:
        if name not in METRICS:
            raise KeyError(f"unknown metric {name!r}; expected one of {METRICS}")
        return getattr(self, name)


def check_outcome(outcome: PathOutcome) -> None:
    """Raise ValueError naming the metric and the first path when a metric is not finite.

    Each field holds one path's value, or a column over the paths `path_index` lists.
    """
    for name in METRICS:
        column = np.atleast_1d(getattr(outcome, name))
        col = int(np.isfinite(column).argmin())  # the first that is not finite, or else 0
        if not math.isfinite(column[col]):
            path = np.atleast_1d(outcome.path_index)[col]
            raise ValueError(f"{name} is not finite on path {path}: {column[col]}")


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Run every path and aggregate in index order.

    Paths run in blocks of at most _BLOCK_DRAWS draws, or of
    _MIN_BLOCK_PATHS paths when fewer fit; the outcomes equal
    `run_path`'s bit for bit. A run of at least _helper._HELPER_BLOCKS
    blocks is computed in this process and a helper process (see _helper),
    when the process may use two CPUs and runs no other thread.
    Raises ValueError naming the metric when an outcome or a summary
    statistic is not finite (a numeric blow-up of the scenario's
    parameters). It runs sweep's blocks with one scenario, each computed
    once in either process; every block that fails raises the same error,
    so the error raised is the one a serial run raises.
    """
    return _run([scenario])[0]


def sweep(base: Scenario, overrides) -> list[ScenarioResult]:
    """Run one variant per (field, value) pair; results in the given order.

    Every variant keeps the base seed, so variants share random
    streams path-by-path (common random numbers) and differences reflect
    the parameter change alone. The variants run together, block by block,
    and share every stage before the earliest stage of the overridden
    fields (see Field.stage). The blocks may be computed in two processes,
    as run_scenario's are. The results equal separate run_scenario calls
    bit for bit. When a block fails, the variants are rerun one by one, so
    the error raised is that of the first variant, in the given order, that
    fails.
    """
    scenarios, stages = [], ["retirement"]
    for key, value in overrides:
        scenarios.append(with_field(base, key, value))
        stages.append(_BY_KEY[key].stage)
    return _run(scenarios, min(stages, key=_STAGES.index))

"""Scenario orchestration: per-path streams, career-to-retirement pipeline, sweeps.

Each path owns the stream whose id equals its index, so any path can be
recomputed in isolation and results never depend on scheduling. A path's
2n+m-1 normals z are one draw of that stream, read by both engines as part
of the output contract: z[:n+m] the inflations, z[n+m:] the log-returns.

`run_path` and `run_path_detail` compute one path with the scalar layer
functions; they are the reference. `run_scenario` and `sweep` compute
blocks of paths as year-major (years, paths) arrays with the same
operations in the same order, so their outcomes equal `run_path`'s bit for
bit; `sweep` computes each stage of a block once for the variants that
share it. A run works out its shape once, as the plan every block reads
(see _Plan), and computes every block in one set of arrays; a large run
shares its blocks with a helper process (see _helper), through the one
function that computes a block in either process (see _blocks).
"""

from __future__ import annotations

import dataclasses
import functools
import math
import threading
from dataclasses import dataclass
from typing import NamedTuple, get_type_hints

import numpy as np

from . import _helper
from .accumulation import (
    CareerYear,
    accumulate_corpus,
    dearness_allowance,
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
    _special,
    gbm_drift,
    gbm_log_returns,
    growth_factors,
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
        try:
            value = field.kind(value)
        except OverflowError:  # an int past float's range; its str() may itself raise
            raise ConfigError(f"{key} is out of range for a float") from None
    if field.kind is float and not math.isfinite(value):
        problem = "must be finite"
    elif field.low is not None and (value <= field.low if field.low_open else value < field.low):
        problem = f"must be {'>' if field.low_open else '>='} {field.low}"
    elif field.high is not None and value > field.high:
        problem = f"must be <= {field.high}"
    else:
        return value
    try:
        got = f", got {value}"
    except ValueError:  # an int of more digits than str() converts; the message leaves it out
        got = ""
    raise ConfigError(f"{key} {problem}{got}")


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
    """One path's outcome, with its career and retirement tables of columns."""

    outcome: PathOutcome
    career: CareerYear
    retirement: RetirementYear


# PathOutcome's types after path_index
_OUTCOME_KINDS = tuple(map(get_type_hints(PathOutcome).get, PathOutcome._fields[1:]))

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
    """One path through the scalar layer functions, on Python floats, with its tables."""
    if not 0 <= path_index < scenario.num_paths:
        raise ConfigError(
            f"path_index must be in [0, {scenario.num_paths - 1}], got {path_index}"
        )
    n = scenario.service_years
    m = scenario.retirement_years
    size = 2 * n + m - 1  # the path's draws, read as _career reads a block's rows
    _check_bytes(8 * size)
    with np.errstate(all="ignore"):  # as in run_scenario: a blow-up shows in the outcome
        z = RandomStream(scenario.seed, path_index).standard_normal(size)
        infl = inflation_series(z[: n + m], scenario).tolist()
        rets = gbm_log_returns(z[n + m :], scenario).tolist()

        career_infl, retirement_infl = infl[:n], infl[n:]
        basic = project_basic(scenario)
        da = dearness_allowance(basic, career_infl)
        salary = [pay + allowance for pay, allowance in zip(basic, da)]
        rate = scenario.contribution_rate
        contributions = [rate * pay for pay in salary]
        corpus = accumulate_corpus(contributions, rets)
    pension = annual_pension(corpus[-1], scenario.annuity_rate)
    reqs = requirement_series(
        salary[-1], infl[n - 1], retirement_infl, scenario.guarantee_fraction
    )
    retirement = evaluate_retirement(pension, reqs, retirement_infl, start_year=n + 1)
    outcome = PathOutcome(
        path_index=path_index,
        final_corpus=corpus[-1],
        pension=pension,
        shortfall_years=shortfall_years(retirement),
        pv_support=pv_support(retirement, scenario.risk_free_rate, n),
    )
    log_returns = [0.0, *rets]
    career = CareerYear(
        list(range(1, n + 1)), career_infl, basic, da, salary, contributions, log_returns, corpus
    )
    return PathDetail(outcome=outcome, career=career, retirement=retirement)


# uniforms drawn per block of paths in run_scenario; bounds the block's
# arrays whatever service_years and retirement_years are, except that a
# block holds at least _MIN_BLOCK_PATHS paths, since the column loops cost
# more per path than the scalar pipeline when a block holds only one
_BLOCK_DRAWS = 2**15
_MIN_BLOCK_PATHS = 8


def _layout(scenario: Scenario) -> tuple[int, int, dict[str, tuple[tuple[int, ...], type]]]:
    """A path's draws, the paths in a block, and the arrays blocks are computed in.

    A run takes as few blocks as hold at most _BLOCK_DRAWS draws each, or
    _MIN_BLOCK_PATHS paths when fewer fit, and spreads its paths evenly
    over them: every block holds as many paths as the first, except the
    last, which holds fewer by less than the number of blocks unless
    _MIN_BLOCK_PATHS binds. A block's time grows with its paths, so two
    processes that share a run finish their last blocks at about the same
    time. The arrays are (shape, dtype) by name, each year-major with a
    column for each path the largest block of the career may hold, or for
    each of the run's paths if fewer: the draws (see normals_layout), then
    the arrays of _career and of _retirement.
    """
    n, m = scenario.service_years, scenario.retirement_years
    size = 2 * n + m - 1
    cap = min(max(_MIN_BLOCK_PATHS, _BLOCK_DRAWS // size), scenario.num_paths)
    blocks = -(-scenario.num_paths // cap)
    paths = min(cap, max(_MIN_BLOCK_PATHS, -(-scenario.num_paths // blocks)))
    return size, paths, {
        **normals_layout(cap, size),
        "infl": ((n + m, cap), np.float64),
        "rets": ((n - 1, cap), np.float64),
        "growth": ((n - 1, cap), np.float64),
        "salary": ((n, cap), np.float64),
        "corpus": ((n, cap), np.float64),
        "req": ((m, cap), np.float64),
        "sufficient": ((m, cap), np.bool_),
    }


def _career(scenario: Scenario, z: np.ndarray, space: dict):
    """The career half of a block of paths, on year-major normals `z`.

    Row t of `z` holds draw t of each path (see stream_normals), one column
    a path. Computes in `space`'s career arrays, never in `z`, and returns
    the final corpus, the final salary and the (n+m, paths) inflation
    matrix, each as `run_path` computes them.
    """
    n, m = scenario.service_years, scenario.retirement_years
    # inflation_series and gbm_log_returns, column-wise
    infl = np.multiply(z[: n + m], scenario.inflation_sd_pct, out=space["infl"])
    infl += scenario.inflation_mean_pct
    rets = np.multiply(z[n + m :], scenario.gbm_sigma, out=space["rets"])
    rets += gbm_drift(scenario)

    basic = np.array(project_basic(scenario))[:, None]
    salary = space["salary"]  # the dearness allowance, then the salary
    salary[0] = 0.0
    np.multiply(infl[: n - 1], basic[:-1], out=salary[1:])
    salary[1:] /= 100.0
    salary += basic
    corpus = np.multiply(salary, scenario.contribution_rate, out=space["corpus"])
    growth = growth_factors(rets, out=space["growth"])
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
    # does too over two or more paths, but pairwise over a block of one
    # path, which a run of one path has, and so may a run's last block where
    # _MIN_BLOCK_PATHS binds: 17 paths of a 4000-year career take 8, 8 and 1)
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


class _Plan(NamedTuple):
    """A run's shape, worked out once in _run and read by each block in either process."""

    scenarios: list[Scenario]
    stage: str  # the first stage the scenarios do not share (see _run)
    size: int  # a path's draws
    counts: list[int]  # the paths in each block, all but the last as many as the first
    layout: dict  # the arrays a block is computed in (see _layout)


def _block(plan: _Plan, first: int, count: int, block: dict, out) -> None:
    """Compute paths first..first+count-1 of the plan's scenarios in the arrays `block`.

    `block` holds the plan's layout with count columns. `out` holds the
    arrays of count entries that take the outcomes: four for each scenario,
    in PathOutcome's field order after path_index.
    """
    s = plan.scenarios[0]
    z = stream_normals(s.seed, first, count, plan.size, block).T
    shared = _career(s, z, block) if plan.stage == "retirement" else None
    kinds = len(_OUTCOME_KINDS)
    for number, scenario in enumerate(plan.scenarios):
        career = _career(scenario, z, block) if shared is None else shared
        _retirement(scenario, *career, block, out[number * kinds : (number + 1) * kinds])


# this thread's block arrays of its last run, as `blocks`: (layout, arrays)
_kept = threading.local()


def _blocks(plan: _Plan, columns=None) -> tuple:
    """`(compute, rows)` of a run in this thread: `compute(index)` computes
    block `index` into the arrays `rows(index)`.

    Bound to `plan`, this is the job a run gives the helper process (see
    _helper.share); the plan pickles. A block's rows are its entries of
    `columns`, each scenario's outcome columns after path_index, or else of
    one block's columns, allocated here. The block arrays are one flat
    buffer for each array of the plan's layout: those this thread kept from
    its last run if it had the same layout, or else new ones, kept at once
    for its next run. Two runs at once are in two threads, so they never
    share them; a thread's are freed when it ends, and a forked helper
    starts with those of the thread that forked it. A block writes each
    array before it reads it, so what a failed run left there is never
    read. Each block computes in the leading values of each buffer, shaped
    for its paths, so its arrays are contiguous whatever its paths.
    """
    counts = plan.counts
    layout, space = getattr(_kept, "blocks", (None, None))
    if layout != plan.layout:
        space, _kept.blocks = None, (None, None)  # freed before the new are allocated
        space = {name: np.empty(math.prod(shape), k) for name, (shape, k) in plan.layout.items()}
        _kept.blocks = plan.layout, space
    arrays = {  # by a block's paths: the first block's, and the last's
        count: {
            name: space[name][: math.prod(shape[:-1]) * count].reshape(*shape[:-1], count)
            for name, (shape, _) in plan.layout.items()
        }
        for count in {counts[0], counts[-1]}
    }
    step = paths = counts[0]  # block `index`'s rows start at index * step
    if columns is None:
        columns, step = [np.empty(paths, k) for _ in plan.scenarios for k in _OUTCOME_KINDS], 0

    def rows(index):
        return [column[index * step : index * step + counts[index]] for column in columns]

    def compute(index):
        with np.errstate(all="ignore"):  # a blow-up is reported by metric and path (see _run)
            _block(plan, index * paths, counts[index], arrays[counts[index]], rows(index))

    return compute, rows


def _run(scenarios: list[Scenario], stage: str = "retirement") -> list[ScenarioResult]:
    """The results of `scenarios`, in order, computed one block of paths at a time.

    The scenarios must agree on every field of the stages before `stage`,
    and each block computes those stages once for all of them, in one set
    of arrays, kept for the thread's next run (see _blocks). _helper.share
    computes each block once, here or in the helper; a block that fails in
    the helper fails again here. The error a block raises depends only on
    the scenarios (their fields, or the growth overflow's fixed message),
    never on the block, so it is a serial run's.
    When a block of several scenarios fails, each is rerun alone, in order,
    so the error raised is that of the first failing scenario, as if each
    ran alone.
    """
    if stage == "draws" or not scenarios:
        return [_run([scenario])[0] for scenario in scenarios]
    s = scenarios[0]
    # each scenario's outcome columns, which the blocks fill, then the arrays
    # of a block; a run too large to hold fails before its first draw, and
    # before it loads scipy's ufuncs or lists its blocks
    size, paths, layout = _layout(s)
    _check_bytes(
        8 * len(PathOutcome._fields) * s.num_paths * len(scenarios)
        + sum(math.prod(shape) * np.dtype(kind).itemsize for shape, kind in layout.values())
    )
    outcomes = [
        PathOutcome(np.arange(s.num_paths), *(np.empty(s.num_paths, k) for k in _OUTCOME_KINDS))
        for _ in scenarios
    ]
    counts = [min(paths, s.num_paths - first) for first in range(0, s.num_paths, paths)]
    _special()  # loaded before _helper.share, so a helper it forks has the ufuncs
    job = functools.partial(_blocks, _Plan(scenarios, stage, size, counts, layout))
    columns = [column for outcome in outcomes for column in outcome[1:]]
    try:
        _helper.share(job, len(counts), *job(columns))
    except (ValueError, ArithmeticError):
        if len(scenarios) == 1:
            raise
        return _run(scenarios, "draws")
    results = []
    for scenario, outcome in zip(scenarios, outcomes):
        check_outcome(outcome)  # it and summarize raise ValueError naming the field
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
    arr = np.asarray(values).ravel()
    if arr.dtype.kind not in "iu":  # an int column, as shortfall_years, is read as it is
        arr = arr.astype(float, copy=False)
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
        # one float copy, sorted once std has freed its temporary, so the two
        # never coexist; an int column holds no -0.0, so it is never mixed
        ordered = arr.astype(float)
        ordered.sort()
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


# PathOutcome's fields after path_index, as an error names them; a pension is
# named with what it is computed from, since the scenario has no pension key
_CHECKED = {name: name for name in PathOutcome._fields[1:]}
_CHECKED["pension"] = "pension (final_corpus * annuity_rate)"


def check_outcome(outcome: PathOutcome) -> None:
    """Raise ValueError naming the field and the first path when a field is not finite.

    Each field holds one path's value, or a column over the paths `path_index` lists.
    """
    if not isinstance(outcome.path_index, np.ndarray):  # one path's numbers
        for name, label in _CHECKED.items():
            value = getattr(outcome, name)
            if not math.isfinite(value):
                raise ValueError(f"{label} is not finite on path {outcome.path_index}: {value}")
        return
    for name, label in _CHECKED.items():
        column = getattr(outcome, name)
        col = int(np.isfinite(column).argmin())  # the first that is not finite, or else 0
        if not math.isfinite(column[col]):
            path = outcome.path_index[col]
            raise ValueError(f"{label} is not finite on path {path}: {column[col]}")


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Run every path and aggregate in index order.

    Paths run in blocks of at most _BLOCK_DRAWS draws, or of
    _MIN_BLOCK_PATHS paths when fewer fit; the outcomes equal
    `run_path`'s bit for bit. A run of at least _helper._HELPER_BLOCKS
    blocks is computed in this process and a helper process (see _helper),
    when the process may use two CPUs and runs no other thread.
    Raises ValueError naming the outcome field or metric when an outcome or
    a summary statistic is not finite (a numeric blow-up of the scenario's
    parameters). It runs sweep's blocks with one scenario, from one plan
    of the run (see _run), each computed once in either process; every
    block that fails raises the same error, so the error raised is the one
    a serial run raises.
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

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
run shares its blocks with a helper process (see _fill).
"""

from __future__ import annotations

import atexit
import contextlib
import dataclasses
import math
import os
import pickle
import threading
import time
from dataclasses import dataclass
from typing import NamedTuple, get_type_hints

import numpy as np

from . import stochastic
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
    _expect_calls,
    _scipy_functions,
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

    basic = project_basic(scenario)[:, None]
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


def _block(scenarios: list[Scenario], stage: str, first: int, count: int, space: dict, out) -> None:
    """Compute paths first..first+count-1 of `scenarios` in `space`'s leading columns.

    `out` holds, for each scenario, the four arrays of count entries that
    take its outcomes, in PathOutcome's field order after path_index.
    """
    s = scenarios[0]
    block = {name: array[..., :count] for name, array in space.items()}
    z = stream_normals(s.seed, first, count, 2 * s.service_years + s.retirement_years - 1, block).T
    shared = _career(s, z, block) if stage == "retirement" else None
    for scenario, columns in zip(scenarios, out):
        career = _career(scenario, z, block) if shared is None else shared
        _retirement(scenario, *career, block, columns)


def _fill(scenarios: list[Scenario], stage: str, outcomes: list[PathOutcome]) -> None:
    """Compute `scenarios`' outcomes into their columns, one block of paths at a time.

    Every block is computed in one set of arrays, and the last, shorter one
    in their leading columns; they are freed when this returns. A run of at
    least _HELPER_BLOCKS blocks shares them with the helper process when
    _helper_usable, unless the helper still finishes an earlier run (see
    _share); if a block fails there or here, or the helper ends,
    every block is computed again here, in order, so the error raised is
    that of the first failing block.
    """
    s = scenarios[0]
    paths, layout = _block_layout(s)
    size = 2 * s.service_years + s.retirement_years - 1
    counts = [min(paths, s.num_paths - first) for first in range(0, s.num_paths, paths)]
    # the calls on ndtri and exp a block makes: its normals, then the growth
    # factors of each career it computes
    careers = 1 if stage == "retirement" else len(scenarios)
    charge = _expect_calls(counts, [size] + careers * [s.service_years - 1])
    left = stochastic._port_left  # the switch's state for every block of the run
    space = {name: np.empty(*shape_kind) for name, shape_kind in layout.items()}

    def out(index):  # block `index`'s entries of each scenario's outcome columns
        first = index * paths
        return [[column[first : first + counts[index]] for column in outcome[1:]]
                for outcome in outcomes]

    if len(counts) >= _HELPER_BLOCKS and _helper_usable():
        try:
            if (helper := _helper_for(left)) is not None:
                _share(helper, (scenarios, stage, paths, layout, left), counts, space, out)
            else:  # it still finishes an earlier run, so this one is computed here
                for index, count in enumerate(counts):
                    _block(scenarios, stage, index * paths, count, space, out(index))
        except (ValueError, ArithmeticError, EOFError, OSError):
            _stop_helper()
            stochastic._port_left = left
        except BaseException:
            _stop_helper()
            raise
        else:
            if helper is not None and stochastic._port_left is not None:
                stochastic._port_left = left - charge  # charged as if every block ran here
            return
    for index, count in enumerate(counts):
        _block(scenarios, stage, index * paths, count, space, out(index))


# --- the helper: a second process for a run's blocks ------------------------
#
# Philox streams are counter-based, so a block's bits do not depend on the
# process that computes it. A run of many blocks computes them in two
# processes: this one and a helper, forked by the first such run and kept
# for every later one. Each run sends the helper one pickled command, which
# holds all the helper may not read from its own module state (a copy from
# the fork, perhaps stale): the scenarios, the stage, the block layout and
# the special-functions switch's state. Both processes claim blocks from one
# pipe, 8 bytes a claim; a read that small is atomic, and a helper slowed by
# other work just claims fewer. The helper writes each block's outcome rows
# back through a second pipe, which this process reads between its own
# blocks and after its last one. Once no claim is left, this process waits
# for the helper's last blocks only about as long as one of its own claims
# takes (_PATIENCE), and then computes them itself, so a helper that the
# machine delays holds a run up by about two claims at most. Its late rows
# are read and dropped before its next run, and a run that starts before
# they have all come is computed here alone. The helper ignores SIGINT and
# ends only through os._exit: when a pipe to its parent closes, or when
# killed.

# blocks a run needs to use the helper; three blocks split at best 2:1
_HELPER_BLOCKS = 4
# claims a run makes at most: with the two end markers they fill
# 4096 bytes, which any pipe takes in one write
_CLAIMS = 510
_END = -1  # the claim that ends a process's share, and the helper's last message of a run
# claim times of this process after the helper's last message by which the
# helper's last claim should have come, as both compute a claim about as fast
_PATIENCE = 1.5


class _Helper(NamedTuple):
    pid: int
    commands: int  # this process writes commands here
    claims_r: int  # both processes read claims here
    claims_w: int
    rows: int  # the helper writes outcome rows here


_helper: _Helper | None = None
# the rows' bytes of each block of the run whose end marker the helper has
# not yet sent; None when it has sent every message of its runs
_owed: list[int] | None = None


def _helper_usable() -> bool:
    """Whether a run may use the helper: this process can fork, may run on
    two CPUs, and runs no other Python thread."""
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and threading.active_count() == 1
    )


def _readable(fd: int, timeout: float | None = 0.0) -> bool:
    """Whether a read of `fd` would not wait, within `timeout` seconds (None:
    however long it takes): data has come, or the write end is closed."""
    import select

    poll = select.poll()
    poll.register(fd, select.POLLIN)
    return bool(poll.poll(None if timeout is None else timeout * 1e3))


def _drained() -> bool:
    """Whether the helper has sent every message of its runs; reads and
    drops those of an earlier run that have come."""
    global _owed
    while _owed is not None and _readable(_helper.rows):
        index = _read_int(_helper.rows)
        if index == _END:
            _owed = None
        else:
            _read(_helper.rows, _owed[index])
    return _owed is None


def _helper_for(left: int | None) -> _Helper | None:
    """The helper, forked if there is none or it has ended since the last
    run; None while it still computes blocks of an earlier run."""
    if _helper is not None:
        try:
            if not _drained():
                return None
            ended = _readable(_helper.rows)  # between runs its rows pipe is empty, unless closed
        except EOFError:
            ended = True
        if ended:
            _stop_helper()
    if _helper is None:
        if left is None:
            _scipy_functions()  # imported once, before the fork, for both processes
        _start_helper()
    return _helper


def _start_helper() -> None:
    import signal
    import warnings

    global _helper
    cpu = _cpu()
    fds = os.pipe() + os.pipe() + os.pipe()
    commands_r, commands_w, claims_r, claims_w, rows_r, rows_w = fds
    try:
        with warnings.catch_warnings():
            # From Python 3.12 fork() warns whenever the process has another OS
            # thread, and numpy's BLAS pool always is one. No other Python
            # thread runs (see _helper_usable), and the helper calls only
            # numpy and scipy ufuncs, pickle and os, never BLAS, so it never
            # waits on a lock that a thread left behind by the fork held.
            warnings.filterwarnings(
                "ignore", r"This process .* is multi-threaded, use of fork\(\)", DeprecationWarning
            )
            pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        raise
    if pid == 0:
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            for fd in (commands_w, claims_w, rows_r):
                os.close(fd)
            _leave_cpu(cpu)
            _serve(commands_r, claims_r, rows_w)
        finally:
            os._exit(0)  # never flush the parent's buffers or run its atexit handlers
    os.close(commands_r)
    os.close(rows_w)
    _helper = _Helper(pid, commands_w, claims_r, claims_w, rows_r)


def _cpu() -> int | None:
    """The CPU this process runs on, or None where the C library cannot tell."""
    try:
        import ctypes

        getcpu = ctypes.CDLL(None).sched_getcpu
        getcpu.argtypes, getcpu.restype = (), ctypes.c_int
        return getcpu()
    except (ImportError, OSError, AttributeError):
        return None


def _leave_cpu(cpu: int | None) -> None:
    """Move this process off `cpu`, if it may run elsewhere, and leave it free to move back.

    A forked child may start on its parent's CPU, and a scheduler wakes a
    sleeping process where it last ran and may balance it away only late,
    so a helper left there could share its parent's CPU run after run.
    """
    cpus = os.sched_getaffinity(0)
    with contextlib.suppress(OSError):  # the helper serves wherever it runs
        os.sched_setaffinity(0, cpus - {cpu} or cpus)
        os.sched_setaffinity(0, cpus)


def _forget_helper() -> None:
    """Drop the helper and close this process's ends of its pipes; a forked child calls it."""
    global _helper, _owed
    if _helper is not None:
        for fd in _helper[1:]:
            os.close(fd)
        _helper = _owed = None


def _stop_helper() -> None:
    """Kill and reap the helper, if there is one, and close its pipes."""
    import signal

    helper = _helper
    _forget_helper()
    if helper is not None:
        with contextlib.suppress(ChildProcessError):
            if not os.waitpid(helper.pid, os.WNOHANG)[0]:  # it has not ended already
                os.kill(helper.pid, signal.SIGKILL)
                os.waitpid(helper.pid, 0)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)
atexit.register(_stop_helper)


def _read(fd: int, size: int) -> bytes:
    data = b""
    while len(data) < size:
        chunk = os.read(fd, size - len(data))
        if not chunk:
            raise EOFError("the helper process has ended")
        data += chunk
    return data


def _read_int(fd: int) -> int:
    return int.from_bytes(_read(fd, 8), "little", signed=True)


def _write(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _int_bytes(value: int) -> bytes:
    return value.to_bytes(8, "little", signed=True)


def _claims(blocks: int) -> list[range]:
    """A run's claims: at most _CLAIMS runs of consecutive blocks, each as long as the first."""
    per = -(-blocks // _CLAIMS)
    return [range(first, min(first + per, blocks)) for first in range(0, blocks, per)]


def _share(helper: _Helper, command: tuple, counts: list[int], space: dict, out) -> None:
    """Compute a run's blocks here and in the helper, each claiming them until none is left.

    `out(index)` gives the arrays that take block `index`'s outcomes. Once
    no claim is left, the helper's blocks still to come are computed here if
    the helper has sent nothing for _PATIENCE times the mean time of this
    process's claims.
    """
    global _owed
    scenarios, stage, paths, _, _ = command
    claims = _claims(len(counts))
    os.write(helper.claims_w, b"".join(map(_int_bytes, [*range(len(claims)), _END, _END])))
    message = pickle.dumps(command)
    _write(helper.commands, _int_bytes(len(message)) + message)

    def receive() -> bool:  # one message of the helper: True when it has finished its share
        nonlocal heard
        index = _read_int(helper.rows)
        heard = time.perf_counter()
        if index == _END:
            return True
        for columns in out(index):
            for column in columns:
                column[...] = np.frombuffer(_read(helper.rows, column.nbytes), column.dtype)
        have[index] = True
        return False

    def compute(index):
        _block(scenarios, stage, index * paths, counts[index], space, out(index))
        have[index] = True

    have = [False] * len(counts)  # whether block `index`'s outcomes are in
    took = []  # seconds each claim of this process took
    heard = time.perf_counter()  # when the helper's last message came, or the command went
    done = False
    while (claim := _read_int(helper.claims_r)) != _END:
        start = time.perf_counter()
        for index in claims[claim]:
            compute(index)
        took.append(time.perf_counter() - start)
        while not done and _readable(helper.rows):
            done = receive()
    # The helper claims its next blocks as it sends the last ones, so its last
    # claim began before its last message came. With no claim of its own, this
    # process has no measure of a claim and waits.
    patience = _PATIENCE * sum(took) / len(took) if took else None
    while not done:
        timeout = None if patience is None else max(heard + patience - time.perf_counter(), 0.0)
        if _readable(helper.rows, timeout):
            done = receive()
        elif all(have):  # only the helper's end marker is late
            _owed = [sum(c.nbytes for columns in out(i) for c in columns) for i in range(len(counts))]
            return
        else:
            for index in [i for i, got in enumerate(have) if not got]:
                compute(index)


def _serve(commands: int, claims: int, rows: int) -> None:
    """The helper's life: its share of each run whose command arrives on `commands`."""
    while True:
        message = _read(commands, _read_int(commands))
        scenarios, stage, paths, layout, left = pickle.loads(message)
        stochastic._port_left = left
        num_paths = scenarios[0].num_paths
        runs = _claims(-(-num_paths // paths))
        space = {name: np.empty(*shape_kind) for name, shape_kind in layout.items()}
        columns = [[np.empty(paths, kind) for kind in _OUTCOME_KINDS] for _ in scenarios]
        with np.errstate(all="ignore"):
            while (claim := _read_int(claims)) != _END:
                for index in runs[claim]:
                    first = index * paths
                    count = min(paths, num_paths - first)
                    out = [[column[:count] for column in outcome] for outcome in columns]
                    _block(scenarios, stage, first, count, space, out)
                    _write(rows, _int_bytes(index) + b"".join(c.tobytes() for o in out for c in o))
        _write(rows, _int_bytes(_END))
        del space, columns  # freed while the helper waits for the next run


def _run(scenarios: list[Scenario], stage: str = "retirement") -> list[ScenarioResult]:
    """The results of `scenarios`, in order, computed one block of paths at a time.

    The scenarios must agree on every field of the stages before `stage`,
    and each block computes those stages once for all of them. The blocks
    may be shared with the helper process (see _fill), which gives the same
    bits and, when a block fails, the error of the first failing block.
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
        with np.errstate(all="ignore"):  # a blow-up is reported below, by metric and path
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


def _histogram_range(lo: float, hi: float) -> tuple[float, float]:
    """[lo, hi], widened where the equal-width bin edges would collapse (see summarize)."""
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, _BIN_COUNT + 1)
    if np.all(edges[:-1] < edges[1:]):
        return lo, hi
    pad = max(0.5, max(abs(lo), abs(hi)) * 2.0**-40)
    return lo - pad, hi + pad


def summarize(values, metric: str = "values") -> SummaryStats:
    """Moments, linear-interpolation quantiles, and a 30-bin equal-width histogram.

    The sd uses the n-1 divisor and is 0.0 for a single value. Histogram
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
            "min": float(arr.min()),
            "max": float(arr.max()),
        }
        quantiles = dict(zip(QUANTILE_LABELS, np.quantile(arr, _QUANTILE_LEVELS).tolist()))
        span = _histogram_range(moments["min"], moments["max"])
        named = {**moments, **quantiles, "first edge": span[0], "last edge": span[1]}
        for stat, value in named.items():
            if not math.isfinite(value):  # checked before linspace, which makes NaN of inf
                raise ValueError(f"{metric} {stat} is not finite: {value}")
        edges = np.linspace(*span, _BIN_COUNT + 1)
    return SummaryStats(
        count=int(arr.size),
        **moments,
        quantiles=quantiles,
        bin_edges=tuple(edges.tolist()),
        bin_counts=tuple(np.histogram(arr, bins=edges)[0].tolist()),
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
    `run_path`'s bit for bit. A run of at least _HELPER_BLOCKS blocks is
    computed in this process and a helper process forked once for all such
    runs, when the process may use two CPUs and runs no other thread.
    Raises ValueError naming the metric when an outcome or a summary
    statistic is not finite (a numeric blow-up of the scenario's
    parameters). It runs sweep's blocks with one scenario, so a block's
    error is raised as computing the blocks in order in one process raises
    it: that of the first failing block.
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

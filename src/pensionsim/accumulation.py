"""Career-phase arithmetic: basic pay, dearness allowance, contributions and the
corpus, which compounds by the market growth factors exp(r): one at a time
here by math.exp, for arrays by stochastic.growth_factors through scipy's
compiled inv_boxcox, both the C library's exp, so with the same bits."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .stochastic import GROWTH_OVERFLOW, growth_factors

if TYPE_CHECKING:
    from .engine import Scenario

__all__ = [
    "CareerYear",
    "accumulate_corpus",
    "dearness_allowance",
    "project_basic",
]


class CareerYear(NamedTuple):
    """A path's accumulation-phase table: each field is a column, a list with
    one entry per service year, year 1 first; log_return is 0.0 in year 1
    (no prior year)."""

    year: int
    inflation_pct: float
    basic: float
    da: float
    salary: float
    contribution: float
    log_return: float
    corpus: float


def project_basic(scenario: Scenario) -> list[float]:
    """Basic pay for years 1..n: basic_start compounded at the fixed increment."""
    # scalar pow keeps values bit-identical to a plain reimplementation
    factor = 1.0 + scenario.increment_rate
    try:
        return [scenario.basic_start * factor**t for t in range(scenario.service_years)]
    except OverflowError:
        raise ValueError(
            "basic pay overflows: (1 + increment_rate)**(service_years - 1) is out of "
            f"range for service_years={scenario.service_years}, "
            f"increment_rate={scenario.increment_rate}"
        ) from None


def dearness_allowance(basic, inflation_pct) -> list[float]:
    """Inflation supplement: zero in year 1, then prior basic times prior inflation.

    da_t = basic_{t-1} * inflation_pct_{t-1} / 100 for t >= 2, on sequences
    of floats of one length.
    """
    if len(basic) != len(inflation_pct):
        raise ValueError(
            f"basic and inflation lengths differ: {len(basic)} vs {len(inflation_pct)}"
        )
    if len(basic) == 0:
        raise ValueError("basic must be non-empty")
    return [0.0] + [pay * rate / 100.0 for pay, rate in zip(basic[:-1], inflation_pct)]


def accumulate_corpus(contributions, log_returns) -> list[float]:
    """Corpus recursion with end-of-year contribution timing.

    corpus_1 = c_1; corpus_t = corpus_{t-1} * exp(r_{t-1}) + c_t. The year-t
    contribution arrives at year end and earns nothing in year t. exp is
    math.exp, the C library's, as in growth_factors: inf gives inf, -inf
    0.0 and NaN NaN, and a finite log-return whose factor overflows raises
    growth_factors' ValueError.
    """
    if len(contributions) == 0:
        raise ValueError("contributions must be non-empty")
    if len(log_returns) != len(contributions) - 1:
        raise ValueError(
            f"need {len(contributions) - 1} log-returns for {len(contributions)} "
            f"contribution years, got {len(log_returns)}"
        )
    total = contributions[0]
    corpus = [total]
    try:
        for r, contribution in zip(log_returns, contributions[1:]):
            total = total * math.exp(r) + contribution
            corpus.append(total)
    except OverflowError:
        raise ValueError(GROWTH_OVERFLOW) from None
    return corpus

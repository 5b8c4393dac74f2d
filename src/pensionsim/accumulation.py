"""Career-phase arithmetic: basic pay, dearness allowance, contributions and the
corpus, which compounds by the market growth factors of stochastic.growth_factors."""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .stochastic import growth_factors

if TYPE_CHECKING:
    from .engine import Scenario

__all__ = [
    "CareerYear",
    "accumulate_corpus",
    "dearness_allowance",
    "project_basic",
]


class CareerYear(NamedTuple):
    """One accumulation-phase year; log_return is 0.0 in year 1 (no prior year)."""

    year: int
    inflation_pct: float
    basic: float
    da: float
    salary: float
    contribution: float
    log_return: float
    corpus: float


def project_basic(scenario: Scenario) -> np.ndarray:
    """Basic pay for years 1..n: basic_start compounded at the fixed increment."""
    # scalar pow keeps values bit-identical to a plain reimplementation
    factor = 1.0 + scenario.increment_rate
    try:
        return np.array(
            [scenario.basic_start * factor**t for t in range(scenario.service_years)]
        )
    except OverflowError:
        raise ValueError(
            "basic pay overflows: (1 + increment_rate)**(service_years - 1) is out of "
            f"range for service_years={scenario.service_years}, "
            f"increment_rate={scenario.increment_rate}"
        ) from None


def dearness_allowance(basic, inflation_pct) -> np.ndarray:
    """Inflation supplement: zero in year 1, then prior basic times prior inflation.

    da_t = basic_{t-1} * inflation_pct_{t-1} / 100 for t >= 2.
    """
    basic = np.asarray(basic, dtype=float)
    infl = np.asarray(inflation_pct, dtype=float)
    if basic.shape != infl.shape:
        raise ValueError(
            f"basic and inflation lengths differ: {basic.shape} vs {infl.shape}"
        )
    if basic.size == 0:
        raise ValueError("basic must be non-empty")
    da = np.empty_like(basic)
    da[0] = 0.0
    da[1:] = basic[:-1] * infl[:-1] / 100.0
    return da


def accumulate_corpus(contributions, log_returns) -> np.ndarray:
    """Corpus recursion with end-of-year contribution timing.

    corpus_1 = c_1; corpus_t = corpus_{t-1} * exp(r_{t-1}) + c_t. The year-t
    contribution arrives at year end and earns nothing in year t.
    """
    c = np.asarray(contributions, dtype=float)
    r = np.asarray(log_returns, dtype=float)
    if c.size == 0:
        raise ValueError("contributions must be non-empty")
    if r.shape != (c.size - 1,):
        raise ValueError(
            f"need {c.size - 1} log-returns for {c.size} contribution years, "
            f"got shape {r.shape}"
        )
    growth = growth_factors(r)
    corpus = np.empty_like(c)
    corpus[0] = c[0]
    for t in range(1, c.size):
        corpus[t] = corpus[t - 1] * growth[t - 1] + c[t]
    return corpus

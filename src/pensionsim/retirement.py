"""Payout-phase arithmetic: annuity pension, adequacy benchmark, guarantee cost."""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "RetirementYear",
    "annual_pension",
    "discount_factors",
    "evaluate_retirement",
    "pv_support",
    "requirement_series",
    "shortfall_years",
]


class RetirementYear(NamedTuple):
    """One payout year: the benchmark, the fixed pension, and any guarantee top-up."""

    year: int
    inflation_pct: float
    requirement: float
    pension: float
    sufficient: bool
    top_up: float


def annual_pension(final_corpus: float, annuity_rate: float) -> float:
    """Constant yearly pension bought with the final corpus."""
    return final_corpus * annuity_rate


def requirement_series(
    final_salary: float,
    final_year_inflation_pct: float,
    retirement_inflation_pct,
    fraction: float,
) -> np.ndarray:
    """Benchmark income per retirement year.

    Starts at fraction * final_salary stepped up by the last working year's
    inflation; each later year steps the previous requirement up by the
    prior year's inflation.
    """
    infl = np.asarray(retirement_inflation_pct, dtype=float)
    req = np.empty(infl.shape[0])
    if req.shape[0] == 0:
        return req
    req[0] = fraction * final_salary * (1.0 + final_year_inflation_pct / 100.0)
    for k in range(1, req.shape[0]):
        req[k] = req[k - 1] * (1.0 + infl[k - 1] / 100.0)
    return req


def evaluate_retirement(
    pension: float,
    requirements,
    inflation_pct,
    start_year: int = 1,
) -> list[RetirementYear]:
    """Yearly sufficiency check; a tie counts as sufficient and needs no top-up."""
    req = np.asarray(requirements, dtype=float)
    infl = np.asarray(inflation_pct, dtype=float)
    if req.shape != infl.shape:
        raise ValueError(
            f"requirements and inflation lengths differ: {req.shape} vs {infl.shape}"
        )
    pension = float(pension)
    rows = []
    for year, (rate, need) in enumerate(zip(infl.tolist(), req.tolist()), start_year):
        ok = pension >= need
        rows.append(RetirementYear(year, rate, need, pension, ok, 0.0 if ok else need - pension))
    return rows


def shortfall_years(rows: Sequence[RetirementYear]) -> int:
    """Number of retirement years the pension misses the benchmark."""
    return sum(1 for row in rows if not row.sufficient)


def discount_factors(risk_free_rate: float, service_years: int, count: int) -> list[float]:
    """(1 + risk_free_rate)**(service_years + k) for k in 0..count-1.

    Entry k discounts the top-up of retirement row k, counting from 0, to
    year 1 (see pv_support). Scalar float pow keeps the factors bit-identical
    in both engines.
    """
    base = 1.0 + risk_free_rate
    try:
        return [base ** (service_years + k) for k in range(count)]
    except OverflowError:
        raise ValueError(
            "guarantee discount (1 + risk_free_rate)**year overflows for "
            f"risk_free_rate={risk_free_rate}, service_years={service_years}"
        ) from None


def pv_support(
    rows: Sequence[RetirementYear],
    risk_free_rate: float,
    service_years: int,
) -> float:
    """Year-1 present value of the guarantee top-ups.

    Row k covers calendar year service_years + k; its top-up is paid at year
    end and discounted by (1 + risk_free_rate)^(service_years + k - 1), so a
    payment at the end of year 1 would be undiscounted.
    """
    discount = discount_factors(risk_free_rate, service_years, len(rows))
    total = 0.0
    for row, factor in zip(rows, discount):
        total += row.top_up / factor
    return total

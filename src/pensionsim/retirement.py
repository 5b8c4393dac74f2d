"""Payout-phase arithmetic: annuity pension, adequacy benchmark, guarantee cost."""

from __future__ import annotations

from typing import NamedTuple

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
    """A path's payout-phase table: each field is a column, a list with one
    entry per retirement year, the first year first. Each year holds the
    benchmark, the fixed pension and any guarantee top-up."""

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
) -> list[float]:
    """Benchmark income per retirement year.

    Starts at fraction * final_salary stepped up by the last working year's
    inflation; each later year steps the previous requirement up by the
    prior year's inflation.
    """
    need = fraction * final_salary * (1.0 + final_year_inflation_pct / 100.0)
    req = []
    for rate in retirement_inflation_pct:  # the last year's step is never read
        req.append(need)
        need *= 1.0 + rate / 100.0
    return req


def evaluate_retirement(
    pension: float,
    requirements,
    inflation_pct,
    start_year: int = 1,
) -> RetirementYear:
    """Yearly sufficiency check; a tie counts as sufficient and needs no top-up.

    The table's inflation and requirement columns are the sequences given.
    """
    if len(requirements) != len(inflation_pct):
        raise ValueError(
            f"requirements and inflation lengths differ: {len(requirements)} vs "
            f"{len(inflation_pct)}"
        )
    pension = float(pension)
    sufficient = [pension >= need for need in requirements]
    top_up = [0.0 if ok else need - pension for ok, need in zip(sufficient, requirements)]
    years = range(start_year, start_year + len(requirements))
    pensions = [pension] * len(requirements)
    return RetirementYear(list(years), inflation_pct, requirements, pensions, sufficient, top_up)


def shortfall_years(table: RetirementYear) -> int:
    """Number of retirement years the pension misses the benchmark."""
    return len(table.sufficient) - sum(table.sufficient)


def discount_factors(risk_free_rate: float, service_years: int, count: int) -> list[float]:
    """(1 + risk_free_rate)**(service_years + k) for k in 0..count-1.

    Entry k discounts the top-up of retirement year k, counting from 0, to
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
    table: RetirementYear,
    risk_free_rate: float,
    service_years: int,
) -> float:
    """Year-1 present value of the guarantee top-ups.

    Entry k of the table covers calendar year service_years + k; its top-up
    is paid at year end and discounted by (1 + risk_free_rate)^(service_years
    + k - 1), so a payment at the end of year 1 would be undiscounted.
    """
    discount = discount_factors(risk_free_rate, service_years, len(table.top_up))
    total = 0.0
    for top_up, factor in zip(table.top_up, discount):
        total += top_up / factor
    return total

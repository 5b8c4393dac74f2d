"""Monte Carlo engine for defined-contribution pension adequacy and guarantee costing.

A seeded, reproducible simulator: salaries grow by a fixed increment plus
an inflation-linked allowance, contributions accumulate in a market
corpus driven by annual GBM log-returns, and retirement adequacy is
scored against an inflation-adjusted share of the final salary. Guarantee
cost is the discounted value of the top-ups needed to close any gap.
"""

from .accumulation import (
    CareerYear,
    accumulate_corpus,
    dearness_allowance,
    project_basic,
    yearly_contribution,
)
from .engine import (
    DEFAULTS,
    FIELDS,
    METRICS,
    ConfigError,
    PathDetail,
    PathOutcome,
    Scenario,
    ScenarioResult,
    SummaryStats,
    SweepVariant,
    baseline_scenario,
    check_field,
    run_path,
    run_path_detail,
    run_scenario,
    scenario_from_values,
    scenario_values,
    summarize,
    sweep,
    with_field,
)
from .io_cli import (
    career_csv,
    cli_main,
    emit_summary,
    parse_scenario,
    retirement_csv,
    scenario_text,
)
from .retirement import (
    RetirementYear,
    annual_pension,
    evaluate_retirement,
    pv_support,
    requirement_series,
    shortfall_years,
)
from .stochastic import (
    RandomStream,
    draw_standard_normal,
    gbm_log_returns,
    inflation_series,
)

__version__ = "0.1.0"

__all__ = [
    "CareerYear",
    "ConfigError",
    "DEFAULTS",
    "FIELDS",
    "METRICS",
    "PathDetail",
    "PathOutcome",
    "RandomStream",
    "RetirementYear",
    "Scenario",
    "ScenarioResult",
    "SummaryStats",
    "SweepVariant",
    "accumulate_corpus",
    "annual_pension",
    "baseline_scenario",
    "career_csv",
    "check_field",
    "cli_main",
    "dearness_allowance",
    "draw_standard_normal",
    "emit_summary",
    "evaluate_retirement",
    "gbm_log_returns",
    "inflation_series",
    "parse_scenario",
    "project_basic",
    "pv_support",
    "requirement_series",
    "retirement_csv",
    "run_path",
    "run_path_detail",
    "run_scenario",
    "scenario_from_values",
    "scenario_text",
    "scenario_values",
    "shortfall_years",
    "summarize",
    "sweep",
    "with_field",
    "yearly_contribution",
]

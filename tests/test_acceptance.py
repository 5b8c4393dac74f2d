"""End-to-end acceptance checks.

Each test covers one release criterion at its stated tolerance and prints
a `criterion N (...): PASS` line when it holds. Running this file as a
script (`python3 tests/test_acceptance.py`) prints one pass/fail line per
criterion and exits nonzero on any failure.
"""

from __future__ import annotations

import math

import numpy as np

from pensionsim.accumulation import dearness_allowance, project_basic
from pensionsim.engine import Scenario, run_path, run_scenario, sweep
from pensionsim.io_cli import emit_summary
from pensionsim.retirement import annual_pension, requirement_series
from pensionsim.stochastic import RandomStream, gbm_log_returns, inflation_series
from records import records

_RESULTS: dict[tuple, object] = {}


def _result(paths: int, **overrides):
    """Memoized run so several criteria can share the heavy 10k-path runs."""
    key = (paths, tuple(sorted(overrides.items())))
    if key not in _RESULTS:
        _RESULTS[key] = run_scenario(Scenario(num_paths=paths, **overrides))
    return _RESULTS[key]


def _report(number: int, name: str) -> None:
    print(f"criterion {number} ({name}): PASS")


def test_criterion_1_salary_table_replay():
    params = Scenario()
    inflations = [1.97, 2.92, 3.61, 4.69]
    basic = project_basic(params)
    da = dearness_allowance(basic[:4], inflations)
    salary = [b + d for b, d in zip(basic, da)]
    contribution = [params.contribution_rate * float(s) for s in salary]

    expected = [
        (100.00, 0.00, 100.00, 24.00),
        (103.00, 1.97, 104.97, 25.19),
        (106.09, 3.01, 109.10, 26.18),
        (109.27, 3.83, 113.10, 27.14),
    ]
    for t, (b, d, s, c) in enumerate(expected):
        assert abs(basic[t] - b) <= 0.005, (t, basic[t], b)
        assert abs(da[t] - d) <= 0.005, (t, da[t], d)
        assert abs(salary[t] - s) <= 0.005, (t, salary[t], s)
        assert abs(contribution[t] - c) <= 0.005, (t, contribution[t], c)
    assert abs(basic[29] - 235.66) <= 0.005
    _report(1, "salary table replay")


def test_criterion_2_retirement_table_replay():
    pension = annual_pension(3807.78, 0.07)
    assert abs(pension - 266.54) <= 0.01

    req = requirement_series(239.93, 5.46, [5.26, 3.88, 5.12], 0.5)
    for got, want in zip(req, (126.52, 133.17, 138.34)):
        assert abs(got - want) <= 0.01, (got, want)
    _report(2, "retirement table replay")


def _corpus_geometric_oracle() -> float:
    # closed-form geometric sum, written spreadsheet-style on purpose
    n = 30
    growth = math.exp(0.09)
    rate = 0.10 + 0.14
    step = 1.0 + 0.03
    total = 0.0
    for t in range(1, n + 1):
        basic = 100.0 * step ** (t - 1)
        da = 0.0 if t == 1 else 100.0 * step ** (t - 2) * 4.0 / 100.0
        total += rate * (basic + da) * growth ** (n - t)
    return total


def _pipeline_oracle(annuity_rate: float) -> tuple[float, int, float]:
    # independent recomputation of the whole deterministic 50-year pipeline
    n, m = 30, 20
    inflation = 4.0
    rate = 0.10 + 0.14
    step = 1.0 + 0.03
    discount = 1.0 + 0.07
    basic = [100.0 * step**t for t in range(n)]
    da = [0.0] + [basic[t - 1] * inflation / 100.0 for t in range(1, n)]
    salary = [b + d for b, d in zip(basic, da)]
    contributions = [rate * s for s in salary]
    corpus = contributions[0]
    for t in range(1, n):
        corpus = corpus * math.exp(0.09) + contributions[t]
    pension = corpus * annuity_rate
    requirement = 0.5 * salary[-1] * (1.0 + inflation / 100.0)
    shortfall = 0
    pv = 0.0
    for k in range(1, m + 1):
        if k > 1:
            requirement = requirement * (1.0 + inflation / 100.0)
        if pension < requirement:
            shortfall += 1
            pv += (requirement - pension) / discount ** (n + k - 1)
    return corpus, shortfall, pv


def test_criterion_3_closed_form_oracle():
    result = _result(3, gbm_sigma=0.0, inflation_sd_pct=0.0)
    final_corpus = result.outcomes.final_corpus
    assert np.all(final_corpus == final_corpus[0])

    corpus = float(final_corpus[0])
    oracle_corpus = _corpus_geometric_oracle()
    assert abs(corpus / oracle_corpus - 1.0) <= 1e-9, (corpus, oracle_corpus)

    for annuity in (0.07, 0.05):
        result = _result(3, gbm_sigma=0.0, inflation_sd_pct=0.0, annuity_rate=annuity)
        outcome = records(result.outcomes)[0]
        oracle_c, oracle_shortfall, oracle_pv = _pipeline_oracle(annuity)
        assert outcome.shortfall_years == oracle_shortfall, annuity
        assert outcome.pv_support == oracle_pv, (annuity, outcome.pv_support, oracle_pv)
        assert abs(outcome.final_corpus / oracle_c - 1.0) <= 1e-9
    _report(3, "closed-form oracle")


def test_criterion_4_baseline_corpus_distribution():
    stats = _result(1000).final_corpus
    assert 3950 <= stats.mean <= 4820, stats.mean
    assert 590 <= stats.sd <= 990, stats.sd
    _report(4, "baseline corpus distribution")


def test_criterion_5_guarantee_cost():
    # the published service-period costs vary the 5%-annuity case,
    # so those runs set both fields
    bands = [
        (dict(annuity_rate=0.07), 0.15, 1.20),
        (dict(annuity_rate=0.05), 5.7, 11.8),
        (dict(annuity_rate=0.05, service_years=25), 32.0, 54.0),
        (dict(annuity_rate=0.05, service_years=35), 0.05, 1.50),
    ]
    for overrides, low, high in bands:
        mean_pv = _result(10_000, **overrides).pv_support.mean
        assert low <= mean_pv <= high, (overrides, mean_pv, low, high)
    _report(5, "guarantee cost")


def test_criterion_6_ordering_properties():
    variants = sweep(
        Scenario(num_paths=2000),
        [("gbm_mu", 0.07), ("gbm_mu", 0.09), ("gbm_mu", 0.11)],
    )
    means = [v.final_corpus.mean for v in variants]
    assert means[0] < means[1] < means[2], means

    five = _result(10_000, annuity_rate=0.05)
    seven = _result(10_000, annuity_rate=0.07)
    assert five.shortfall_years.mean > seven.shortfall_years.mean
    assert five.pv_support.mean > seven.pv_support.mean

    by_service = [
        _result(10_000, annuity_rate=0.05, service_years=25).pv_support.mean,
        _result(10_000, annuity_rate=0.05).pv_support.mean,
        _result(10_000, annuity_rate=0.05, service_years=35).pv_support.mean,
    ]
    assert by_service[0] > by_service[1] > by_service[2], by_service
    _report(6, "ordering properties")


def test_criterion_7_stochastic_statistics():
    draws = 1_000_000
    z = RandomStream(42, 0).standard_normal(draws)
    rets = gbm_log_returns(z, Scenario(gbm_mu=0.09, gbm_sigma=0.05))
    half_var_drift = 0.09 - 0.5 * 0.05**2
    assert abs(rets.mean() - half_var_drift) <= 3 * 0.05 / math.sqrt(draws)

    z = RandomStream(42, 1).standard_normal(draws)
    infl = inflation_series(z, Scenario(inflation_mean_pct=4.0, inflation_sd_pct=1.0))
    mass = np.mean((infl >= 2.0) & (infl <= 6.0))
    assert abs(mass - 0.9545) <= 0.001, mass
    _report(7, "stochastic statistics")


def test_criterion_8_byte_determinism():
    scenario = Scenario(num_paths=400)
    result = run_scenario(scenario)
    first = emit_summary(result)
    second = emit_summary(run_scenario(scenario))
    assert first == second
    # execution order cannot matter: paths run backwards give the same outcomes
    backwards = [run_path(scenario, i) for i in reversed(range(scenario.num_paths))]
    backwards.sort(key=lambda o: o.path_index)
    assert tuple(backwards) == records(result.outcomes)
    _report(8, "byte determinism")


_CRITERIA = [
    ("salary table replay", test_criterion_1_salary_table_replay),
    ("retirement table replay", test_criterion_2_retirement_table_replay),
    ("closed-form oracle", test_criterion_3_closed_form_oracle),
    ("baseline corpus distribution", test_criterion_4_baseline_corpus_distribution),
    ("guarantee cost", test_criterion_5_guarantee_cost),
    ("ordering properties", test_criterion_6_ordering_properties),
    ("stochastic statistics", test_criterion_7_stochastic_statistics),
    ("byte determinism", test_criterion_8_byte_determinism),
]


if __name__ == "__main__":
    failed = 0
    for number, (name, check) in enumerate(_CRITERIA, start=1):
        try:
            check()
        except Exception as exc:  # a numeric error fails its criterion, and the next ones run
            failed += 1
            print(f"criterion {number} ({name}): FAIL {type(exc).__name__}: {exc}")
    raise SystemExit(1 if failed else 0)

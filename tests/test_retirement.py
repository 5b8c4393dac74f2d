from __future__ import annotations

import pytest

from pensionsim.engine import Scenario
from pensionsim.retirement import (
    annual_pension,
    evaluate_retirement,
    pv_support,
    requirement_series,
    shortfall_years,
)


def test_pension_is_annuity_rate_on_corpus():
    assert annual_pension(4000.0, 0.07) == pytest.approx(280.0)
    assert annual_pension(3807.78, 0.07) == pytest.approx(266.54, abs=0.01)
    assert annual_pension(3807.78, 0.0) == 0.0


def test_requirement_replays_published_rows():
    # final salary 239.93, last working-year inflation 5.46, then 5.26 / 3.88 / 5.12
    req = requirement_series(239.93, 5.46, [5.26, 3.88, 5.12], 0.5)
    assert req[0] == pytest.approx(126.52, abs=0.01)
    assert req[1] == pytest.approx(133.17, abs=0.01)
    assert req[2] == pytest.approx(138.34, abs=0.01)


def test_requirement_flat_under_zero_inflation():
    req = requirement_series(200.0, 0.0, [0.0, 0.0, 0.0], 0.5)
    assert req == [100.0, 100.0, 100.0]


def test_requirement_steps_by_prior_year_inflation():
    # year k steps by the year k-1 inflation; the final year's inflation is unused
    req = requirement_series(200.0, 10.0, [50.0, 0.0, 99.0], 0.5)
    assert req == pytest.approx([110.0, 110.0 * 1.5, 110.0 * 1.5])
    assert req[1] == req[2]


def test_requirement_can_decline_with_deflation():
    req = requirement_series(200.0, 0.0, [-10.0, -10.0, -10.0], 0.5)
    assert req[0] > req[1] > req[2]


def test_requirement_empty_horizon():
    assert requirement_series(200.0, 4.0, [], 0.5) == []


def test_evaluate_tie_counts_as_sufficient():
    table = evaluate_retirement(100.0, [100.0], [4.0])
    assert table.sufficient[0] is True
    assert table.top_up[0] == 0.0


def test_evaluate_gap_becomes_top_up():
    table = evaluate_retirement(266.55, [126.52, 272.85], [5.26, 3.33], start_year=31)
    assert table.year == [31, 32]
    assert table.sufficient[0] is True and table.top_up[0] == 0.0
    assert table.sufficient[1] is False
    assert table.top_up[1] == pytest.approx(272.85 - 266.55, abs=1e-9)
    assert all(pension == 266.55 for pension in table.pension)


def test_evaluate_length_mismatch_rejected():
    with pytest.raises(ValueError):
        evaluate_retirement(100.0, [100.0, 90.0], [4.0])


def test_shortfall_counts_insufficient_years():
    table = evaluate_retirement(100.0, [90.0, 100.0, 110.0, 120.0], [4.0] * 4)
    assert shortfall_years(table) == 2
    assert shortfall_years(evaluate_retirement(1e9, [100.0] * 5, [4.0] * 5)) == 0
    assert shortfall_years(evaluate_retirement(0.0, [100.0] * 5, [4.0] * 5)) == 5


def test_pv_zero_when_never_short():
    table = evaluate_retirement(500.0, [100.0, 104.0], [4.0, 4.0], start_year=31)
    assert pv_support(table, 0.07, 30) == 0.0


def test_pv_zero_rate_sums_the_top_ups():
    table = evaluate_retirement(90.0, [100.0, 110.0], [4.0, 4.0], start_year=31)
    assert pv_support(table, 0.0, 30) == pytest.approx(10.0 + 20.0)


def test_pv_single_top_up_hand_value():
    # one 10-unit gap at the end of year 31, discounted 30 years at 7%
    table = evaluate_retirement(90.0, [100.0], [4.0], start_year=31)
    pv = pv_support(table, 0.07, 30)
    assert pv == pytest.approx(10.0 / 1.07**30, rel=1e-12)
    assert pv == pytest.approx(1.3137, abs=5e-5)


def test_pv_decreases_as_discount_rate_rises():
    table = evaluate_retirement(90.0, [100.0, 120.0, 140.0], [4.0] * 3, start_year=31)
    pvs = [pv_support(table, rate, 30) for rate in (0.0, 0.03, 0.07, 0.12)]
    assert all(a > b for a, b in zip(pvs, pvs[1:]))


def test_higher_annuity_weakly_improves_adequacy():
    req = requirement_series(239.93, 5.46, [4.0] * 20, 0.5)
    infl = [4.0] * 20
    corpus = 3807.78
    results = []
    for rate in (0.05, 0.06, 0.07, 0.08):
        table = evaluate_retirement(annual_pension(corpus, rate), req, infl, start_year=31)
        results.append((shortfall_years(table), pv_support(table, 0.07, 30)))
    shortfalls = [r[0] for r in results]
    pvs = [r[1] for r in results]
    assert all(a >= b for a, b in zip(shortfalls, shortfalls[1:]))
    assert all(a >= b for a, b in zip(pvs, pvs[1:]))
    assert pvs[0] > pvs[-1]


def test_retirement_params_validation():
    with pytest.raises(ValueError):
        Scenario(retirement_years=0)
    with pytest.raises(ValueError):
        Scenario(annuity_rate=-0.01)
    with pytest.raises(ValueError):
        Scenario(guarantee_fraction=1.5)
    with pytest.raises(ValueError):
        Scenario(risk_free_rate=-0.07)

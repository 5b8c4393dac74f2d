from __future__ import annotations

import math

import numpy as np
import pytest

from pensionsim.accumulation import (
    accumulate_corpus,
    dearness_allowance,
    project_basic,
    yearly_contribution,
)
from pensionsim.engine import Scenario

BASE = Scenario(
    service_years=30,
    basic_start=100.0,
    increment_rate=0.03,
    employee_rate=0.10,
    employer_rate=0.14,
)

# published salary-table inputs for years 1..4
TABLE_INFLATION = [1.97, 2.92, 3.61, 4.69]


def test_basic_pay_compounds_at_fixed_increment():
    basic = project_basic(BASE)
    assert basic.shape == (30,)
    assert basic[0] == 100.0
    assert basic[1] == pytest.approx(103.00, abs=0.005)
    assert basic[2] == pytest.approx(106.09, abs=0.005)
    assert basic[3] == pytest.approx(109.27, abs=0.005)
    assert basic[29] == pytest.approx(235.66, abs=0.005)


def test_basic_pay_flat_when_increment_is_zero():
    params = Scenario(service_years=5, basic_start=100.0, increment_rate=0.0)
    assert np.all(project_basic(params) == 100.0)


def test_da_replays_published_rows():
    basic = project_basic(BASE)[:4]
    da = dearness_allowance(basic, TABLE_INFLATION)
    assert da[0] == 0.0
    assert da[1] == pytest.approx(1.97, abs=0.005)
    assert da[2] == pytest.approx(3.01, abs=0.005)
    assert da[3] == pytest.approx(3.83, abs=0.005)


def test_da_is_prior_basic_times_prior_inflation():
    basic = [100.0, 200.0, 400.0]
    da = dearness_allowance(basic, [5.0, 10.0, 2.0])
    assert da.tolist() == [0.0, 100.0 * 5.0 / 100.0, 200.0 * 10.0 / 100.0]


def test_da_zero_inflation_gives_zero_allowance():
    da = dearness_allowance([100.0, 103.0, 106.09], [0.0, 0.0, 0.0])
    assert np.all(da == 0.0)


def test_da_length_mismatch_rejected():
    with pytest.raises(ValueError):
        dearness_allowance([100.0, 103.0], [2.0])


def test_contribution_is_combined_rate_on_salary():
    assert yearly_contribution(104.97, BASE) == pytest.approx(25.19, abs=0.005)
    assert yearly_contribution(239.93, BASE) == pytest.approx(57.58, abs=0.005)
    assert yearly_contribution(0.0, BASE) == 0.0


def test_salary_table_replay_full_rows():
    basic = project_basic(BASE)[:4]
    da = dearness_allowance(basic, TABLE_INFLATION)
    salary = basic + da
    contribution = [yearly_contribution(float(s), BASE) for s in salary]
    expected = [
        (100.00, 0.00, 100.00, 24.00),
        (103.00, 1.97, 104.97, 25.19),
        (106.09, 3.01, 109.10, 26.18),
        (109.27, 3.83, 113.10, 27.14),
    ]
    for t, (b, d, s, c) in enumerate(expected):
        assert basic[t] == pytest.approx(b, abs=0.005)
        assert da[t] == pytest.approx(d, abs=0.005)
        assert salary[t] == pytest.approx(s, abs=0.005)
        assert contribution[t] == pytest.approx(c, abs=0.005)


def test_corpus_single_year_is_the_contribution():
    corpus = accumulate_corpus([24.0], [])
    assert corpus.tolist() == [24.0]


def test_corpus_zero_returns_just_sums():
    corpus = accumulate_corpus([10.0, 20.0, 30.0], [0.0, 0.0])
    assert corpus.tolist() == [10.0, 30.0, 60.0]


def test_corpus_two_year_hand_example():
    # 24 grows by 13%, then the 25.19 contribution lands at year end
    corpus = accumulate_corpus([24.00, 25.19], [math.log(1.13)])
    assert corpus[1] == pytest.approx(24.0 * 1.13 + 25.19, abs=1e-9)
    assert round(float(corpus[1]), 2) == 52.31


def test_corpus_matches_geometric_closed_form():
    rate = 0.09
    contributions = [24.0, 25.19, 26.18, 27.14, 28.3]
    n = len(contributions)
    corpus = accumulate_corpus(contributions, [rate] * (n - 1))
    closed_form = sum(c * math.exp(rate * (n - 1 - t)) for t, c in enumerate(contributions))
    assert corpus[-1] == pytest.approx(closed_form, rel=1e-12)


def test_corpus_monotone_in_any_single_return():
    contributions = [10.0] * 6
    low = accumulate_corpus(contributions, [0.05, 0.05, 0.05, 0.05, 0.05])
    high = accumulate_corpus(contributions, [0.05, 0.09, 0.05, 0.05, 0.05])
    assert high[-1] > low[-1]
    assert high[0] == low[0]  # the bump only affects later years


def test_corpus_shape_errors_rejected():
    with pytest.raises(ValueError):
        accumulate_corpus([], [])
    with pytest.raises(ValueError):
        accumulate_corpus([1.0, 2.0], [0.1, 0.1])


def test_career_params_validation():
    with pytest.raises(ValueError):
        Scenario(service_years=0)
    with pytest.raises(ValueError):
        Scenario(basic_start=0.0)
    with pytest.raises(ValueError):
        Scenario(increment_rate=-0.01)
    with pytest.raises(ValueError):
        Scenario(employee_rate=0.60, employer_rate=0.60)
    assert Scenario(employee_rate=0.10, employer_rate=0.14).contribution_rate == pytest.approx(0.24)

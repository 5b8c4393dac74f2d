from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

import pensionsim
from pensionsim import accumulation, stochastic
from pensionsim.accumulation import (
    accumulate_corpus,
    dearness_allowance,
    growth_factors,
    project_basic,
)
from pensionsim.engine import Scenario
from pensionsim.stochastic import gbm_drift, stream_normals


def test_the_package_lists_each_public_name_once():
    # growth_factors is stochastic's, imported by accumulation, which lists it no more
    assert len(set(pensionsim.__all__)) == len(pensionsim.__all__)
    assert all(hasattr(pensionsim, name) for name in pensionsim.__all__)
    assert pensionsim.growth_factors is accumulation.growth_factors is stochastic.growth_factors


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
    assert len(basic) == 30
    assert basic[0] == 100.0
    assert basic[1] == pytest.approx(103.00, abs=0.005)
    assert basic[2] == pytest.approx(106.09, abs=0.005)
    assert basic[3] == pytest.approx(109.27, abs=0.005)
    assert basic[29] == pytest.approx(235.66, abs=0.005)


def test_basic_pay_flat_when_increment_is_zero():
    params = Scenario(service_years=5, basic_start=100.0, increment_rate=0.0)
    assert project_basic(params) == [100.0] * 5


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
    assert da == [0.0, 100.0 * 5.0 / 100.0, 200.0 * 10.0 / 100.0]


def test_da_zero_inflation_gives_zero_allowance():
    da = dearness_allowance([100.0, 103.0, 106.09], [0.0, 0.0, 0.0])
    assert da == [0.0, 0.0, 0.0]


def test_da_length_mismatch_rejected():
    with pytest.raises(ValueError):
        dearness_allowance([100.0, 103.0], [2.0])


def test_da_of_no_years_names_the_argument():
    with pytest.raises(ValueError, match="^basic must be non-empty$"):
        dearness_allowance([], [])


def test_contribution_is_combined_rate_on_salary():
    assert BASE.contribution_rate * 104.97 == pytest.approx(25.19, abs=0.005)
    assert BASE.contribution_rate * 239.93 == pytest.approx(57.58, abs=0.005)
    assert BASE.contribution_rate * 0.0 == 0.0


def test_salary_table_replay_full_rows():
    basic = project_basic(BASE)[:4]
    da = dearness_allowance(basic, TABLE_INFLATION)
    salary = [b + d for b, d in zip(basic, da)]
    contribution = [BASE.contribution_rate * float(s) for s in salary]
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


def _math_exp(values):
    # the scalar reference the growth factors must equal bit for bit
    values = np.asarray(values, dtype=float)
    return np.fromiter(map(math.exp, values.ravel().tolist()), float, values.size)


def _log_returns(seed, paths):
    scenario = Scenario(seed=seed)
    n, m = scenario.service_years, scenario.retirement_years
    z = stream_normals(seed, 0, paths, 2 * n + m - 1)
    return gbm_drift(scenario) + scenario.gbm_sigma * z[:, n + m :]


SPECIAL_VALUES = [
    np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e308,
    709.782712893384,  # just below overflow
    -745.1332191019411,  # the smallest positive (subnormal) factor
    -745.2,  # rounds to 0.0
]


@pytest.mark.parametrize(
    "family",
    ["log-returns", "wide", "standard-normal", "tiny", "subnormal-result", "special"],
)
def test_growth_factors_equal_math_exp_bitwise(family):
    rng = np.random.default_rng(20240607)
    values = {
        "log-returns": lambda: np.concatenate([_log_returns(s, 4000).ravel() for s in (42, 0, 7)]),
        "wide": lambda: rng.uniform(-700.0, 709.0, 600_000),
        "standard-normal": lambda: rng.standard_normal(600_000),
        "tiny": lambda: rng.normal(0.0, 1e-6, 200_000),
        "subnormal-result": lambda: rng.uniform(-745.2, -708.0, 200_000),
        "special": lambda: np.array(SPECIAL_VALUES),
    }[family]()
    got = growth_factors(values)
    assert got.dtype == np.float64 and got.shape == values.shape
    differ = got.view(np.int64) != _math_exp(values).view(np.int64)
    assert not differ.any(), values[differ][:5]


@pytest.mark.parametrize("value", [709.8, 710.0, 1e308, np.finfo(float).max])
def test_growth_factor_of_a_finite_overflow_raises(value):
    with pytest.raises(OverflowError):
        math.exp(value)
    message = r"^market growth factor exp\(log_return\) overflows: gbm_mu or gbm_sigma is too large$"
    with pytest.raises(ValueError, match=message):
        growth_factors([0.0, value, np.inf])
    with pytest.raises(ValueError, match=message):
        growth_factors(np.full((2, 3), value))


def test_growth_factors_pass_non_finite_log_returns_through():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = growth_factors([np.inf, -np.inf, np.nan, 0.0, -0.0])
    assert got[0] == np.inf
    assert got[1] == 0.0 and not np.signbit(got[1])
    assert np.isnan(got[2])
    assert got[3:].tolist() == [1.0, 1.0]


@pytest.mark.parametrize("shape", [(), (0,), (3, 0), (4, 29), (2, 3, 5)])
def test_growth_factors_keep_the_input_shape(shape):
    values = np.random.default_rng(3).normal(0.07, 0.2, shape)
    got = growth_factors(values)
    assert isinstance(got, np.ndarray) and got.dtype == np.float64 and got.shape == shape
    assert got.ravel().view(np.int64).tolist() == _math_exp(values).view(np.int64).tolist()


def test_growth_factors_of_float32_or_a_list_are_float64():
    float32 = np.array([0.1, -2.5, 3.0], dtype=np.float32)
    for values in (float32, float32.tolist(), [0.1, -2.5, 3.0]):
        got = growth_factors(values)
        assert got.dtype == np.float64
        expected = _math_exp(np.asarray(values, dtype=np.float64))
        assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()


def test_corpus_single_year_is_the_contribution():
    corpus = accumulate_corpus([24.0], [])
    assert corpus == [24.0]


def test_corpus_zero_returns_just_sums():
    corpus = accumulate_corpus([10.0, 20.0, 30.0], [0.0, 0.0])
    assert corpus == [10.0, 30.0, 60.0]


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


# 709.782712893384 is the largest float whose exp is finite
@pytest.mark.parametrize("special", ["scipy"], indirect=True)
@pytest.mark.parametrize("r", [0.0, -745.2, 709.782712893384, math.inf, -math.inf, math.nan])
def test_the_scalar_growth_rule_is_the_batch_rule(special, r):
    scalar = accumulate_corpus([1.0, 1.0], [r])[1]
    batch = 1.0 * growth_factors([r])[0] + 1.0
    bits = np.array([scalar, batch]).view(np.int64)  # tells NaN payloads apart, as == does not
    assert bits[0] == bits[1]


@pytest.mark.parametrize("special", ["scipy"], indirect=True)
@pytest.mark.parametrize("r", [710.0, 1e308])
def test_the_scalar_growth_overflow_is_the_batch_error(special, r):
    with pytest.raises(ValueError) as scalar:
        accumulate_corpus([1.0, 1.0], [r])
    with pytest.raises(ValueError) as batch:
        growth_factors([r])
    assert str(scalar.value) == str(batch.value) == stochastic.GROWTH_OVERFLOW

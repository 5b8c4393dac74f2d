from __future__ import annotations

import numpy as np
import pytest
from scipy.special import ndtri

from pensionsim.engine import Scenario
from pensionsim.stochastic import (
    RandomStream,
    gbm_log_returns,
    inflation_series,
    philox_uniforms,
    stream_normals,
)

BASE_GBM = Scenario(gbm_mu=0.09, gbm_sigma=0.05)
BASE_INFL = Scenario(inflation_mean_pct=4.0, inflation_sd_pct=1.0)


def test_same_stream_identity_reproduces_exactly():
    a = RandomStream(42, 5).standard_normal(64)
    b = RandomStream(42, 5).standard_normal(64)
    assert np.array_equal(a, b)


def test_distinct_stream_ids_do_not_collide():
    draws = [RandomStream(42, sid).standard_normal(16) for sid in (0, 1, 2, 997)]
    for i in range(len(draws)):
        for j in range(i + 1, len(draws)):
            assert not np.array_equal(draws[i], draws[j])


def test_distinct_seeds_differ():
    a = RandomStream(1, 0).standard_normal(16)
    b = RandomStream(2, 0).standard_normal(16)
    assert not np.array_equal(a, b)


def test_first_draws_frozen():
    # frozen reference values pin the generator choice and the uniform-to-
    # normal mapping; a change here silently breaks every seeded result
    expected_s0 = [
        0.9161204856345222,
        -0.8806796243156724,
        1.1154015859369761,
        -0.26739773839438785,
    ]
    expected_s1 = [1.9710823989026545, -0.6697367452160384]
    np.testing.assert_allclose(
        RandomStream(42, 0).standard_normal(4), expected_s0, rtol=1e-13
    )
    np.testing.assert_allclose(
        RandomStream(42, 1).standard_normal(2), expected_s1, rtol=1e-13
    )


@pytest.mark.parametrize("stream_id", [0, 1, 7, 12345, 2**40])
def test_streams_match_jumped_philox(stream_id):
    # the reference is numpy's own jump, not the counter both streams set
    seed = 2**64 - 1
    reference = np.random.Generator(np.random.Philox(key=seed).jumped(stream_id))
    # split as a path draws them: n+m inflations, then n-1 log-returns
    uniforms = np.concatenate([reference.random(50), reference.random(29)])
    assert np.array_equal(philox_uniforms(seed, stream_id, 1, 79)[0], uniforms)
    normals = ndtri(np.maximum(uniforms, 2.0**-53))
    assert np.array_equal(stream_normals(seed, stream_id, 1, 79)[0], normals)
    stream = RandomStream(seed, stream_id)
    drawn = np.concatenate([stream.standard_normal(50), stream.standard_normal(29)])
    assert np.array_equal(drawn, normals)


@pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
@pytest.mark.parametrize("size", [1, 4, 7, 79])
def test_stream_block_rows_are_the_streams(seed, size):
    first = 2**40 - 2
    block = stream_normals(seed, first, 5, size)
    assert block.shape == (5, size)
    for row, stream_id in zip(block, range(first, first + 5)):
        assert np.array_equal(row, RandomStream(seed, stream_id).standard_normal(size))


def test_stream_position_depends_only_on_draw_count():
    # five zero-sigma log-returns must consume exactly five draws
    consumed = RandomStream(7, 0)
    gbm_log_returns(consumed, Scenario(gbm_mu=0.09, gbm_sigma=0.0), 5)
    after_gbm = consumed.standard_normal(1)[0]

    plain = RandomStream(7, 0)
    plain.standard_normal(5)
    after_plain = plain.standard_normal(1)[0]

    assert after_gbm == after_plain
    assert after_gbm == RandomStream(7, 0).standard_normal(6)[5]


def test_one_draw_advances_the_stream_by_one():
    stream = RandomStream(3, 2)
    first = stream.standard_normal(1)[0]
    second = stream.standard_normal(1)[0]
    fresh = RandomStream(3, 2).standard_normal(2)
    assert first == fresh[0]
    assert second == fresh[1]


def test_gbm_is_affine_in_the_normals():
    z = RandomStream(9, 3).standard_normal(7)
    rets = gbm_log_returns(RandomStream(9, 3), BASE_GBM, 7)
    expected = (BASE_GBM.gbm_mu - 0.5 * BASE_GBM.gbm_sigma**2) + BASE_GBM.gbm_sigma * z
    assert np.array_equal(rets, expected)


def test_gbm_zero_sigma_is_exact_drift():
    rets = gbm_log_returns(RandomStream(1, 0), Scenario(gbm_mu=0.09, gbm_sigma=0.0), 3)
    assert np.all(rets == 0.09)
    rets = gbm_log_returns(RandomStream(1, 0), Scenario(gbm_mu=0.0, gbm_sigma=0.0), 3)
    assert np.all(rets == 0.0)


def test_inflation_zero_sd_is_exact_mean():
    infl = inflation_series(RandomStream(1, 0), Scenario(inflation_mean_pct=4.0, inflation_sd_pct=0.0), 5)
    assert np.all(infl == 4.0)


def test_zero_count_returns_empty():
    assert gbm_log_returns(RandomStream(0, 0), BASE_GBM, 0).shape == (0,)
    assert inflation_series(RandomStream(0, 0), BASE_INFL, 0).shape == (0,)


def test_normal_moments_at_a_million_draws():
    z = RandomStream(42, 0).standard_normal(1_000_000)
    assert abs(z.mean()) <= 0.004
    assert abs(z.var(ddof=1) - 1.0) <= 0.005
    assert np.all(np.isfinite(z))


def test_gbm_moments_at_a_million_draws():
    rets = gbm_log_returns(RandomStream(42, 1), BASE_GBM, 1_000_000)
    assert abs(rets.mean() - 0.08875) <= 0.00015  # 3 sigma / sqrt(N)
    assert abs(rets.var(ddof=1) / BASE_GBM.gbm_sigma**2 - 1.0) <= 0.01


def test_inflation_moments_at_a_million_draws():
    infl = inflation_series(RandomStream(42, 2), BASE_INFL, 1_000_000)
    assert abs(infl.mean() - 4.0) <= 0.003
    assert abs(infl.std(ddof=1) - 1.0) <= 0.005


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_out_of_range_rejected(seed):
    with pytest.raises(ValueError):
        RandomStream(seed, 0)


def test_negative_stream_id_rejected():
    with pytest.raises(ValueError):
        RandomStream(0, -1)


def test_negative_count_rejected():
    with pytest.raises(ValueError):
        RandomStream(0, 0).standard_normal(-1)


def test_bad_params_rejected():
    with pytest.raises(ValueError):
        Scenario(gbm_mu=0.09, gbm_sigma=-0.01)
    with pytest.raises(ValueError):
        Scenario(gbm_mu=float("nan"), gbm_sigma=0.05)
    with pytest.raises(ValueError):
        Scenario(inflation_mean_pct=4.0, inflation_sd_pct=-1.0)
    with pytest.raises(ValueError):
        Scenario(inflation_mean_pct=float("inf"), inflation_sd_pct=1.0)

from __future__ import annotations

import ast
import math
import pathlib
import pickle
import sys
import threading

import numpy as np
import pytest
from scipy.special import inv_boxcox, ndtri

from pensionsim import stochastic
from pensionsim.engine import Scenario
from pensionsim.stochastic import (
    RandomStream,
    gbm_log_returns,
    growth_factors,
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


@pytest.mark.parametrize("stream_id", [0, 1, 7, 12345, 2**40, 2**63 + 1, 2**64 - 1])
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
    for first in (2**40 - 2, 2**64 - 5):  # the second block's last stream id is 2**64 - 1
        block = stream_normals(seed, first, 5, size)
        assert block.shape == (5, size)
        for row, stream_id in zip(block, range(first, first + 5)):
            assert np.array_equal(row, RandomStream(seed, stream_id).standard_normal(size))
    for count, draws in ((0, size), (5, 0), (0, 0)):  # an empty counter grid
        assert philox_uniforms(seed, 2**64 - 5, count, draws).shape == (count, draws)


def test_one_draw_advances_the_stream_by_one():
    stream = RandomStream(3, 2)
    first = stream.standard_normal(1)[0]
    second = stream.standard_normal(1)[0]
    fresh = RandomStream(3, 2).standard_normal(2)
    assert first == fresh[0]
    assert second == fresh[1]


def _jumped_normals(seed, stream_id, size):
    uniforms = np.random.Generator(np.random.Philox(key=seed).jumped(stream_id)).random(size)
    return ndtri(np.maximum(uniforms, 2.0**-53))


@pytest.mark.parametrize("seed, stream_id", [(0, 0), (42, 7), (2**64 - 1, 2**64 - 1)])
def test_a_draw_split_at_every_offset_equals_one_draw(seed, stream_id):
    # 13 draws span four Philox blocks: each split point is one of a
    # block's four buffer positions, and 0, 4, 8 and 12 are block boundaries
    whole = _jumped_normals(seed, stream_id, 13)
    assert np.array_equal(RandomStream(seed, stream_id).standard_normal(13), whole)
    for offset in range(14):
        stream = RandomStream(seed, stream_id)
        parts = [stream.standard_normal(offset), stream.standard_normal(13 - offset)]
        assert np.array_equal(np.concatenate(parts), whole), offset
    stream = RandomStream(seed, stream_id)
    ones = [stream.standard_normal(1) for _ in range(13)]
    assert np.array_equal(np.concatenate(ones), whole)


def test_two_streams_drawn_alternately_equal_each_drawn_alone():
    sizes = (3, 5, 1, 4, 7, 2)
    streams, drawn = (RandomStream(7, 1), RandomStream(7, 2)), ([], [])
    for size in sizes:
        for stream, out in zip(streams, drawn):
            out.append(stream.standard_normal(size))
    for stream_id, out in zip((1, 2), drawn):
        assert np.array_equal(np.concatenate(out), _jumped_normals(7, stream_id, sum(sizes)))


def _draw_streams(first, count, out):
    for stream_id in range(first, first + count):
        stream = RandomStream(5, stream_id)
        # split as a path's tables read them, and at a buffer position
        out.append(np.concatenate([stream.standard_normal(s) for s in (1, 49, 29)]))


def test_streams_drawn_in_two_threads_at_once_equal_serial_draws():
    serial = [[], []]
    for t in range(2):
        _draw_streams(200 * t, 200, serial[t])
    shared = [[], []]
    barrier = threading.Barrier(2)

    def work(t):
        barrier.wait(timeout=60)
        _draw_streams(200 * t, 200, shared[t])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between a stream's calls, not once in 5 ms
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for t in range(2):
        assert len(shared[t]) == 200
        assert all(map(np.array_equal, shared[t], serial[t]))


def test_a_stream_builds_no_philox_once_its_thread_has_a_generator(monkeypatch):
    builds = []
    philox = np.random.Philox

    def counted(*args, **kwargs):
        builds.append(kwargs)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted)
    counts = []

    def work():
        for stream_id in range(3):
            stream = RandomStream(11, stream_id)
            stream.standard_normal(5)
            stream.standard_normal(3)
            counts.append(len(builds))

    thread = threading.Thread(target=work)  # a new thread: no generator yet
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert counts == [1, 1, 1]


def test_a_rejected_count_leaves_the_stream_where_it_was():
    stream = RandomStream(3, 2)
    first = stream.standard_normal(3)
    with pytest.raises(TypeError):
        stream.standard_normal(2.0)
    with pytest.raises(ValueError, match="count"):
        stream.standard_normal(-1)
    rest = stream.standard_normal(np.int64(4))
    assert np.array_equal(np.concatenate([first, rest]), _jumped_normals(3, 2, 7))


def test_gbm_is_affine_in_the_normals():
    z = RandomStream(9, 3).standard_normal(7)
    rets = gbm_log_returns(z, BASE_GBM)
    expected = (BASE_GBM.gbm_mu - 0.5 * BASE_GBM.gbm_sigma**2) + BASE_GBM.gbm_sigma * z
    assert np.array_equal(rets, expected)


def test_gbm_zero_sigma_is_exact_drift():
    z = RandomStream(1, 0).standard_normal(3)
    rets = gbm_log_returns(z, Scenario(gbm_mu=0.09, gbm_sigma=0.0))
    assert np.all(rets == 0.09)
    rets = gbm_log_returns(z, Scenario(gbm_mu=0.0, gbm_sigma=0.0))
    assert np.all(rets == 0.0)


def test_inflation_zero_sd_is_exact_mean():
    z = RandomStream(1, 0).standard_normal(5)
    infl = inflation_series(z, Scenario(inflation_mean_pct=4.0, inflation_sd_pct=0.0))
    assert np.all(infl == 4.0)


def test_zero_count_returns_empty():
    assert gbm_log_returns(RandomStream(0, 0).standard_normal(0), BASE_GBM).shape == (0,)
    assert inflation_series(RandomStream(0, 0).standard_normal(0), BASE_INFL).shape == (0,)


def test_normal_moments_at_a_million_draws():
    z = RandomStream(42, 0).standard_normal(1_000_000)
    assert abs(z.mean()) <= 0.004
    assert abs(z.var(ddof=1) - 1.0) <= 0.005
    assert np.all(np.isfinite(z))


def test_gbm_moments_at_a_million_draws():
    rets = gbm_log_returns(RandomStream(42, 1).standard_normal(1_000_000), BASE_GBM)
    assert abs(rets.mean() - 0.08875) <= 0.00015  # 3 sigma / sqrt(N)
    assert abs(rets.var(ddof=1) / BASE_GBM.gbm_sigma**2 - 1.0) <= 0.01


def test_inflation_moments_at_a_million_draws():
    infl = inflation_series(RandomStream(42, 2).standard_normal(1_000_000), BASE_INFL)
    assert abs(infl.mean() - 4.0) <= 0.003
    assert abs(infl.std(ddof=1) - 1.0) <= 0.005


# both stream APIs, each drawing three normals from one (seed, stream id)
STREAM_APIS = (
    lambda seed, stream_id: RandomStream(seed, stream_id).standard_normal(3),
    lambda seed, stream_id: stream_normals(seed, stream_id, 1, 3)[0],
)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_out_of_range_rejected(seed):
    for draw in STREAM_APIS:
        with pytest.raises(ValueError, match="master_seed"):
            draw(seed, 0)


def test_negative_stream_id_rejected():
    for draw in STREAM_APIS:
        with pytest.raises(ValueError, match="stream id"):
            draw(0, -1)


def test_stream_ids_past_64_bits_rejected():
    # one id past the last would read counter word 3, outside [j, 0, k, 0]
    for draw in STREAM_APIS:
        with pytest.raises(ValueError, match="stream id"):
            draw(0, 2**64)
    with pytest.raises(ValueError, match="first \\+ count"):
        stream_normals(0, 2**64 - 1, 2, 3)


@pytest.mark.parametrize("seed, stream_id", [(1.5, 0), (0, 2.0)], ids=["seed", "stream-id"])
def test_float_seed_or_stream_id_rejected(seed, stream_id):
    for draw in STREAM_APIS:
        with pytest.raises(TypeError):
            draw(seed, stream_id)


def test_negative_count_rejected():
    with pytest.raises(ValueError, match="count"):
        RandomStream(0, 0).standard_normal(-1)
    with pytest.raises(ValueError, match="count"):
        stream_normals(0, 0, -1, 2)
    with pytest.raises(ValueError, match="size"):
        stream_normals(0, 0, 2, -3)


@pytest.mark.filterwarnings("error")
def test_numpy_integer_seed_and_stream_id_draw_as_python_ints():
    top = 2**64 - 1
    for draw in STREAM_APIS:
        assert np.array_equal(draw(np.uint64(3), np.int64(4)), draw(3, 4))
        assert np.array_equal(draw(np.uint64(top), np.uint64(top)), draw(top, top))


def test_bad_params_rejected():
    with pytest.raises(ValueError):
        Scenario(gbm_mu=0.09, gbm_sigma=-0.01)
    with pytest.raises(ValueError):
        Scenario(gbm_mu=float("nan"), gbm_sigma=0.05)
    with pytest.raises(ValueError):
        Scenario(inflation_mean_pct=4.0, inflation_sd_pct=-1.0)
    with pytest.raises(ValueError):
        Scenario(inflation_mean_pct=float("inf"), inflation_sd_pct=1.0)


# --- the numpy port of ndtri and the math.exp map, against scipy ------------


def _same_bits(got, want) -> np.ndarray:
    """Where `got` and `want` hold the same float64, NaN counting as equal to NaN."""
    nan = np.isnan(got)
    return (got.view(np.int64) == want.view(np.int64)) | (nan & np.isnan(want))


@pytest.mark.parametrize("seed", [42, 2**64 - 1])
def test_ndtri_port_equals_scipy_bitwise_on_philox_uniforms(seed):
    # 1.2M uniforms a seed, clamped as every draw is; the tail past exp(-2)
    # takes about 27% of them
    u = np.maximum(philox_uniforms(seed, 5, 12_000, 100), 2.0**-53)
    got = stochastic._ndtri_port(u)
    same = _same_bits(got, ndtri(u))
    assert same.all(), u[~same][:5]


def _neighbours(x: float, k: int = 3) -> list[float]:
    """x and the k floats on each side of it."""
    below = above = x
    out = [x]
    for _ in range(k):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        out += [below, above]
    return out


EXP_M2 = 0.13533528323661269189  # Cephes' exp(-2), where the tail begins
NDTRI_EDGES = [
    2.0**-53, 1.0 - 2.0**-53, 0.5,
    *_neighbours(EXP_M2), *_neighbours(math.exp(-2.0)),
    *_neighbours(1.0 - EXP_M2), *_neighbours(1.0 - math.exp(-2.0)),
    # below exp(-32), where the tail switches from P1/Q1 to P2/Q2: every
    # uniform the generator can draw there (multiples of 2**-53), on both sides
    *_neighbours(math.exp(-32.0)), *np.geomspace(5e-324, math.exp(-32.0), 40)[:-1],
    *(k * 2.0**-53 for k in range(1, 116)), *(1.0 - k * 2.0**-53 for k in range(1, 116)),
]


def test_ndtri_port_equals_scipy_bitwise_at_the_branch_edges():
    u = np.array(NDTRI_EDGES)
    got = stochastic._ndtri_port(u)
    same = _same_bits(got, ndtri(u))
    assert same.all(), u[~same]
    assert got[2] == 0.0 and not np.signbit(got[2])


def test_ndtri_port_outside_the_open_interval_is_scipys():
    u = np.array([0.0, 1.0, -0.0, -1e-300, 1.0 + 2.0**-52, -1.0, 2.0, np.inf, -np.inf, np.nan])
    got = stochastic._ndtri_port(u)  # no RuntimeWarning: each branch sees its own values
    assert _same_bits(got, ndtri(u)).all(), got
    assert got[:2].tolist() == [-np.inf, np.inf] and np.isnan(got[3:]).all()


@pytest.mark.parametrize("shape", [(), (0,), (3, 0), (7, 5), (2, 3, 4)])
def test_ndtri_port_writes_over_its_input_in_any_layout(shape):
    u = np.random.default_rng(11).uniform(size=shape)
    want = ndtri(u)
    # u in C order, and as a transposed view, the layout stream_normals hands over
    for y in (np.array(u), np.array(u.T).T):
        got = stochastic._ndtri_port(y, out=y)
        assert got is y
        assert _same_bits(got, want).all()


EXP_INPUTS = {
    "log-returns": lambda rng: 0.0875 + 0.05 * stream_normals(7, 0, 20_000, 29),
    "wide": lambda rng: rng.uniform(-745.2, 709.78, 400_000),
    "special": lambda rng: np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, 709.782712893384,
                                     -745.1332191019411, -745.2]),
}


@pytest.mark.parametrize("family", list(EXP_INPUTS))
def test_exp_port_equals_inv_boxcox_and_math_exp_bitwise(family):
    r = EXP_INPUTS[family](np.random.default_rng(5))
    got = stochastic._exp_port(r)
    assert got.shape == r.shape
    assert _same_bits(got, inv_boxcox(r, 0.0)).all()
    expected = np.fromiter(map(math.exp, r.ravel().tolist()), float, r.size).reshape(r.shape)
    assert _same_bits(got, expected).all()


OVERFLOW = [709.7827128933841, 710.0, 1e308, np.finfo(float).max]


def test_exp_max_is_the_largest_float_whose_exp_is_finite():
    assert math.isfinite(math.exp(stochastic._EXP_MAX))
    with pytest.raises(OverflowError):
        math.exp(np.nextafter(stochastic._EXP_MAX, np.inf))
    assert OVERFLOW[0] == np.nextafter(stochastic._EXP_MAX, np.inf)


@pytest.mark.parametrize("family", list(EXP_INPUTS))
def test_exp_port_gives_inf_past_overflow_as_inv_boxcox_does(family):
    r = np.concatenate([EXP_INPUTS[family](np.random.default_rng(5)).ravel(), OVERFLOW])
    want = inv_boxcox(r, 0.0)
    assert np.isinf(want[-len(OVERFLOW):]).all()
    assert _same_bits(stochastic._exp_port(r), want).all()
    got = stochastic._exp_port(r, out=r)  # in place, as inv_boxcox may be called
    assert got is r and _same_bits(r, want).all()


@pytest.mark.parametrize("special", ["port", "scipy"], indirect=True)
@pytest.mark.parametrize("value", [709.8, 1e308, np.finfo(float).max])
def test_growth_factor_overflow_message_is_the_same_from_either(special, value):
    if special == "port":  # inf, as from inv_boxcox: neither exp raises
        got = stochastic._exp_port(np.array([value]))
        assert got[0] == np.inf and _same_bits(got, inv_boxcox(np.array([value]), 0.0)).all()
    message = r"^market growth factor exp\(log_return\) overflows: gbm_mu or gbm_sigma is too large$"
    with pytest.raises(ValueError, match=message):
        growth_factors([0.0, np.nan, value, np.inf])
    got = growth_factors([np.inf, -np.inf, np.nan, 0.0])
    assert got[0] == np.inf and got[1] == 0.0 and np.isnan(got[2]) and got[3] == 1.0


@pytest.mark.parametrize("special", [2048], indirect=True)
def test_the_switch_charges_each_call_at_least_its_fixed_cost(special):
    port = (stochastic._ndtri_port, stochastic._exp_port)
    assert stochastic._special_functions(1) == port  # charged 2**9
    assert stochastic._special_functions(1000) == port
    assert stochastic._port_left == 2048 - 512 - 1000
    scipy_functions = stochastic._special_functions(537)  # one value past the budget
    assert scipy_functions == (stochastic._ndtri_scipy, stochastic._exp_scipy)
    assert stochastic._port_left is None
    assert stochastic._special_functions(1) == scipy_functions  # for good


def test_either_pair_of_special_functions_pickles_by_reference(monkeypatch):
    # a run hands its pair to the helper process in a pickled job
    port = stochastic._special_functions(1)
    assert port == (stochastic._ndtri_port, stochastic._exp_port)
    monkeypatch.setattr(stochastic, "_port_left", None)
    scipy_functions = stochastic._special_functions(1)
    assert scipy_functions == (stochastic._ndtri_scipy, stochastic._exp_scipy)
    for pair in (port, scipy_functions):
        assert pickle.loads(pickle.dumps(pair)) == pair


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            yield from node.names


def test_only_the_stochastic_module_names_the_switch_state():
    switch = {"_port_left", "_expect_calls"}
    named = {
        path.name: switch.intersection(_names(ast.parse(path.read_text())))
        for path in pathlib.Path(stochastic.__file__).parent.glob("*.py")
    }
    assert named.pop("stochastic.py") == {"_port_left"}
    assert {"engine.py", "_helper.py", "accumulation.py"} <= named.keys()
    assert {name: found for name, found in named.items() if found} == {}


def test_the_accumulation_module_imports_no_private_name():
    tree = ast.parse(pathlib.Path(stochastic.__file__).with_name("accumulation.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert "growth_factors" in imported
    assert [name for name in imported if name.startswith("_")] == []


@pytest.mark.parametrize("special", [2048], indirect=True)
def test_the_switch_uses_scipy_once_it_is_loaded(special, monkeypatch):
    assert stochastic._special_functions(1)[0] is stochastic._ndtri_port
    monkeypatch.setitem(sys.modules, "scipy.special", sys.modules["scipy"].special)
    assert stochastic._special_functions(1)[0] is stochastic._ndtri_scipy
    assert stochastic._port_left is None

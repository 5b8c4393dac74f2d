from __future__ import annotations

import ast
import math
import pathlib
import subprocess
import sys
import threading

import numpy as np
import pytest
from scipy.special import ndtri

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
    # a block of a 10,000-path run of the default scenario, 400 paths of
    # (at most) its 79 draws, drawn into a given array, against numpy's own jump
    out = np.empty((400, size))
    for first in (2**40 - 2, 2**64 - 400):
        uniforms = philox_uniforms(seed, first, 400, size, out).copy()
        block = stream_normals(seed, first, 400, size, out)
        assert block is out and uniforms.shape == (400, size)
        for u, z, stream_id in zip(uniforms, block, range(first, first + 400)):
            reference = np.random.Generator(np.random.Philox(key=seed).jumped(stream_id))
            expected = reference.random(size)
            assert np.array_equal(u, expected), stream_id
            assert np.array_equal(z, ndtri(np.maximum(expected, 2.0**-53))), stream_id
    for count, draws in ((0, size), (5, 0), (0, 0)):  # no streams, or no draws
        assert philox_uniforms(seed, 2**64 - 5, count, draws).shape == (count, draws)


@pytest.mark.parametrize("draw", [philox_uniforms, stream_normals])
@pytest.mark.parametrize("out", [
    np.full((4, 7), np.nan), np.full((5, 6), np.nan), np.full((5, 7), np.nan, np.float32),
], ids=["too-few-rows", "too-few-columns", "float32"])
def test_a_block_is_drawn_only_into_a_float64_array_of_its_shape(draw, out):
    with pytest.raises(ValueError, match=r"^out must be a float64 array of shape \(5, 7\)$"):
        draw(0, 0, 5, 7, out)
    assert np.isnan(out).all()  # refused before any stream drew


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


def _in_a_new_thread(draw):
    done = []
    thread = threading.Thread(target=lambda: done.append(draw()))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    return done[0]


def test_a_stream_and_a_block_drawn_in_turn_on_one_thread_each_draw_as_alone():
    # both stream APIs point the thread's one generator at their counter
    alone = _in_a_new_thread(lambda: stream_normals(9, 0, 8, 13))

    def in_turn():
        stream = RandomStream(9, 3)
        first = stream.standard_normal(3)  # leaves one word of a Philox block in the buffer
        block = stream_normals(9, 0, 8, 13)
        return first, block, stream.standard_normal(10)

    first, block, rest = _in_a_new_thread(in_turn)
    assert np.array_equal(block, alone)
    assert np.array_equal(np.concatenate([first, rest]), RandomStream(9, 3).standard_normal(13))
    assert np.array_equal(block[3], RandomStream(9, 3).standard_normal(13))


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


EXP_MAX = 709.782712893384  # the largest float whose exp is finite


def test_exp_max_is_the_largest_float_whose_exp_is_finite():
    assert math.isfinite(math.exp(EXP_MAX))
    with pytest.raises(OverflowError):
        math.exp(np.nextafter(EXP_MAX, np.inf))


@pytest.mark.parametrize("special", ["scipy"], indirect=True)
@pytest.mark.parametrize("value", [709.8, 1e308, np.finfo(float).max])
def test_growth_factor_overflow_message_is_the_same_from_either(special, value):
    message = r"^market growth factor exp\(log_return\) overflows: gbm_mu or gbm_sigma is too large$"
    with pytest.raises(ValueError, match=message):
        growth_factors([0.0, np.nan, value, np.inf])
    got = growth_factors([np.inf, -np.inf, np.nan, 0.0])
    assert got[0] == np.inf and got[1] == 0.0 and np.isnan(got[2]) and got[3] == 1.0


def test_the_accumulation_module_imports_no_private_name():
    tree = ast.parse(pathlib.Path(stochastic.__file__).with_name("accumulation.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert "growth_factors" in imported
    assert [name for name in imported if name.startswith("_")] == []


# A fresh interpreter with warnings as errors: put src on sys.path, run the
# test's code, and print what it found as a dict
def _fresh(tmp_path, code: str) -> dict:
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    script = f"import sys; sys.path.insert(0, {str(src)!r})\n{code}\nprint(facts)"
    done = subprocess.run([sys.executable, "-W", "error", "-c", script], capture_output=True,
                          text=True, cwd=tmp_path, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    return ast.literal_eval(done.stdout.splitlines()[-1])


LOAD_IN_THREADS = """
import contextlib, io, threading
from pensionsim import cli_main, stochastic

barrier, got = threading.Barrier(4), []

def load():
    barrier.wait(timeout=60)
    got.append(stochastic._special())

sys.setswitchinterval(1e-6)  # switch threads within the load, not once in 5 ms
threads = [threading.Thread(target=load) for _ in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
facts = {"alive": any(thread.is_alive() for thread in threads),
         "loaded": [module.__name__ for module in got],
         "same": all(module is got[0] for module in got), "stub": "scipy.special" in sys.modules}
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli_main(["path", "--index", "0"]), cli_main(["run", "--out", "out"])]
facts.update(codes=codes, imported="scipy.special" in sys.modules)
import scipy.special
facts["served"] = [scipy.special.ndtri is got[0].ndtri, scipy.special.inv_boxcox is got[0].inv_boxcox]
"""


def test_threads_loading_the_ufuncs_at_once_share_one_module_and_leave_no_stub(tmp_path):
    assert _fresh(tmp_path, LOAD_IN_THREADS) == {
        "alive": False,
        "loaded": ["scipy.special._ufuncs"] * 4,
        "same": True,
        "stub": False,
        "codes": [0, 0],
        "imported": False,  # no command ran scipy.special's __init__
        "served": [True, True],  # a later import of it serves the same ufuncs
    }


# the shortcut fails as on a scipy laid out otherwise: _ufuncs does not
# import beneath the stub
SHORTCUT_FAILS = """
import importlib, os
from pensionsim import stochastic

import_module, stubbed = importlib.import_module, []

def failing(name, *args):
    if name == "scipy.special._ufuncs":
        stubbed.append(getattr(sys.modules["scipy.special"], "__file__", None))
        raise ImportError(name)
    return import_module(name, *args)

importlib.import_module = failing
module = stochastic._special()
facts = {"stubbed": stubbed, "module": module.__name__,
         "public": module is sys.modules["scipy.special"],
         "file": os.path.basename(module.__file__),
         "normals": stochastic.stream_normals(42, 0, 3, 79).tobytes().hex()}
"""


def test_the_loader_falls_back_to_the_public_package_and_leaves_no_stub(tmp_path):
    assert _fresh(tmp_path, SHORTCUT_FAILS) == {
        "stubbed": [None],  # the shortcut ran, beneath a stub with no file
        "module": "scipy.special",
        "public": True,  # not the stub, which is gone
        "file": "__init__.py",
        "normals": stream_normals(42, 0, 3, 79).tobytes().hex(),
    }

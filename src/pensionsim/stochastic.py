"""Seeded random streams for market returns and salary inflation.

Reproducibility contract: a stream is fully determined by the pair
(master_seed, stream_id), independent of execution order, thread count,
or platform. Streams are built on the Philox 4x64-10 counter-based
generator; stream k is the master-keyed generator jumped ahead k * 2**128
states, so distinct ids can never overlap. Normal variates come from the
inverse CDF applied to 53-bit uniforms, exactly one uniform per variate,
which keeps the stream position a pure function of how many variates
have been requested. The inverse CDF is Cephes' ndtri and the growth
factors exp(r) are the C library's exp, each from one implementation in
every process: scipy's compiled ufuncs, loaded without the rest of
scipy.special (see _special).

Philox is counter-based (Salmon et al., "Parallel Random Numbers: As Easy
as 1, 2, 3", SC'11): the j-th block of four 64-bit words of stream k is a
pure function of the key [master_seed, 0] and the counter [j, 0, k, 0].
So a stream is only its key, its id and its position: `RandomStream`
draws through one Philox generator per thread, pointed at its counter,
and `stream_normals` evaluates that function for many streams at once
and gives, row by row, exactly the draws `RandomStream` makes one stream
at a time.
"""

from __future__ import annotations

import importlib
import operator
import os
import sys
import threading
import types
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .engine import Scenario

__all__ = [
    "GROWTH_OVERFLOW",
    "RandomStream",
    "gbm_drift",
    "gbm_log_returns",
    "growth_factors",
    "inflation_series",
    "normals_layout",
    "philox_uniforms",
    "stream_normals",
]

# a seed and a stream id are one 64-bit Philox word each
_WORD = 2**64
# smallest nonzero value Generator.random() can produce; exact zeros are
# clamped to it so the inverse CDF stays finite
_UNIFORM_FLOOR = 2.0**-53

# Philox4x64-10 round multipliers and key increments
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10
_MASK64 = _WORD - 1
# _mulhilo's operands as uint64 arrays and scalars, built once, so that no
# call converts a Python int: the mask and the shift of a 32-bit half, and
# (multiplier, low half, high half) for the stack [M0, M1], each (2, 1, 1)
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT53 = np.uint64(64 - 53)  # Generator.random's 53-bit mapping keeps a word's high bits
_PHILOX_M = np.array(
    [[m, m & 0xFFFFFFFF, m >> 32] for m in (_PHILOX_M0, _PHILOX_M1)], dtype=np.uint64
).T[:, :, None, None]


def _check_streams(master_seed, first, count) -> tuple[int, int, int]:
    """Seed, first id and count as ints (a float is a TypeError), each id in 64 bits."""
    master_seed, first, count = map(operator.index, (master_seed, first, count))
    if not 0 <= master_seed < _WORD:
        raise ValueError(f"master_seed must be in [0, 2**64), got {master_seed}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if not 0 <= first < _WORD:
        raise ValueError(f"stream id must be in [0, 2**64), got {first}")
    if first + count > _WORD:
        raise ValueError(f"first + count must be <= 2**64, got {first} + {count}")
    return master_seed, first, count


class RandomStream:
    """A single-owner draw sequence identified by (master_seed, stream_id).

    It holds its key, its id and the count of uniforms drawn, and draws
    through its thread's one Philox generator, so streams are cheap and may
    be drawn from in any interleaving.
    """

    __slots__ = ("_key", "_stream_id", "_drawn")

    def __init__(self, master_seed: int, stream_id: int) -> None:
        master_seed, self._stream_id, _ = _check_streams(master_seed, stream_id, 1)
        self._key = (master_seed, 0)
        self._drawn = 0

    def standard_normal(self, count: int) -> np.ndarray:
        """Draw `count` N(0, 1) variates, consuming exactly one uniform each."""
        count = operator.index(count)
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        gen = _thread_generator()
        # numpy's Philox increments the counter before it generates, so an
        # empty buffer at counter j next yields block j + 1, uniforms 4j..4j+3
        block, skip = divmod(self._drawn, 4)
        gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (block, 0, self._stream_id, 0), "key": self._key},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        if skip:
            gen.bit_generator.random_raw(skip)
        u = gen.random(count)
        self._drawn += count
        return _normals(u)


# each thread's one generator, which every RandomStream points at its own
# counter before it draws: building a Philox costs about ten times as much
_thread = threading.local()


def _thread_generator() -> np.random.Generator:
    try:
        return _thread.generator
    except AttributeError:
        _thread.generator = np.random.Generator(np.random.Philox(key=0))
        return _thread.generator


def _normals(u: np.ndarray, out=None) -> np.ndarray:
    u = np.maximum(u, _UNIFORM_FLOOR, out=out)
    return _special().ndtri(u, out=u)


# the error of a finite log-return whose growth factor exp(r) is inf
GROWTH_OVERFLOW = (
    "market growth factor exp(log_return) overflows: gbm_mu or gbm_sigma is too large"
)

# the module that serves ndtri and inv_boxcox, once _special has loaded it
_ufuncs = None
_ufuncs_lock = threading.Lock()


def _special():
    """scipy's compiled ufuncs module, which serves `ndtri` and `inv_boxcox`.

    Loaded by the first thread that asks, once a process: scipy.special if
    it is imported, or else scipy.special._ufuncs alone. Importing
    scipy.special costs about 0.2 s more than its `_ufuncs`, most of it
    scipy's array-API layer, and about 20 MB more memory. A later `import
    scipy.special` re-uses the loaded `_ufuncs`, so either serves the same
    ufunc objects.
    """
    global _ufuncs
    if _ufuncs is None:
        with _ufuncs_lock:
            if _ufuncs is None:
                _ufuncs = _load_special()
    return _ufuncs


def _load_special():
    if "scipy.special" not in sys.modules:
        import scipy

        # _ufuncs and the modules it imports find their package in this bare
        # stub, so scipy.special's __init__ never runs; a later `import
        # scipy.special` runs it, and it re-uses those modules
        stub = types.ModuleType("scipy.special")
        stub.__path__ = [os.path.join(path, "special") for path in scipy.__path__]
        sys.modules["scipy.special"] = stub
        try:
            return importlib.import_module("scipy.special._ufuncs")
        except ImportError:  # a scipy laid out otherwise: the public package serves
            pass
        finally:
            del sys.modules["scipy.special"]
    import scipy.special

    return scipy.special


def _mulhilo(x: np.ndarray, m, hi: np.ndarray, a, b, c) -> np.ndarray:
    """Write the high 64-bit word of x * multiplier to `hi`, and the low word over `x`.

    `m` is (multiplier, its low 32 bits, its high 32 bits), uint64 arrays
    that broadcast against x. Built from 32-bit halves, so that no partial
    sum exceeds 2**64 - 1. `hi`, `a`, `b` and `c` have x's shape; `a`, `b`
    and `c` are scratch.
    """
    multiplier, m_lo, m_hi = m
    np.bitwise_and(x, _MASK32, a)  # x_lo
    np.right_shift(x, _SHIFT32, hi)  # x_hi
    np.multiply(a, m_lo, b)
    np.right_shift(b, _SHIFT32, b)
    np.multiply(hi, m_lo, c)
    np.add(b, c, b)  # t = (x_lo * m_lo >> 32) + x_hi * m_lo
    np.multiply(a, m_hi, a)
    np.bitwise_and(b, _MASK32, c)
    np.add(a, c, a)
    np.multiply(hi, m_hi, hi)
    np.right_shift(b, _SHIFT32, b)
    np.add(hi, b, hi)
    np.right_shift(a, _SHIFT32, a)
    np.add(hi, a, hi)
    np.multiply(x, multiplier, x)  # uint64 products wrap: the low word
    return hi


def _philox_words(master_seed: int, first: int, space: np.ndarray) -> tuple[np.ndarray, ...]:
    """Words 0..3 of Philox blocks 1..B of streams first..first+C-1, each (B, C).

    `space` is six (2, B, C) uint64 stacks: three hold the state, three are
    scratch, and the words are left in two of them. numpy's Philox
    increments the counter before it generates, so block j of stream k,
    counting from 1, is computed from the counter [j, 0, k, 0].

    A round's two multiplications are independent, so rounds 2..9 make them
    as one, on the stack X = [x0, x2] with the multipliers [M0, M1]; Y =
    [x3, x1] holds the words they are xored with.
    """
    X, Y, H, a, b, c = space
    # round r's keys, as [k1, k0] to match X's high words [hi0, hi1]
    keys = np.array(
        [[(r * _PHILOX_W1) & _MASK64, (master_seed + r * _PHILOX_W0) & _MASK64]
         for r in range(_PHILOX_ROUNDS)],
        dtype=np.uint64,
    )[:, :, None, None]
    m0, m1 = _PHILOX_M[:, 0], _PHILOX_M[:, 1]  # each (3, 1, 1)
    # rounds 0 and 1 on the counter's vectors: blocks j down a column and
    # streams k along a row, with x1 = x3 = 0
    col = np.arange(1, a.shape[1] + 1, dtype=np.uint64)[:, None]
    row = np.arange(first, first + a.shape[2], dtype=np.uint64)[None, :]
    hc = _mulhilo(col, m0, *(np.empty_like(col) for _ in range(4)))
    hr = _mulhilo(row, m1, *(np.empty_like(row) for _ in range(4)))
    np.bitwise_xor(hr, keys[0, 1], hr)  # round 0 leaves the state (hr, row, hc, col)
    np.bitwise_xor(hc, keys[0, 0], hc)
    h0 = _mulhilo(hr, m0, *(np.empty_like(hr) for _ in range(4)))
    h1 = _mulhilo(hc, m1, *(np.empty_like(hc) for _ in range(4)))
    np.bitwise_xor(h1, keys[1, 1], h1)
    np.bitwise_xor(h0, keys[1, 0], h0)
    np.bitwise_xor(h1, row, X[0])  # round 1 leaves (x0, hc, x2, hr), on the grid
    np.bitwise_xor(h0, col, X[1])
    Y[0] = hr
    Y[1] = hc
    for k in keys[2:]:  # rounds 2..9 in place: the spent Y holds the next high words
        _mulhilo(X, _PHILOX_M, H, a, b, c)
        np.bitwise_xor(H, Y, H)
        np.bitwise_xor(H, k, H)  # H = [x2, x0] of the next round
        X, Y, H = H[::-1], X, Y
    return X[0], Y[1], X[1], Y[0]


def normals_layout(paths: int, size: int) -> dict[str, tuple[tuple[int, ...], type]]:
    """The arrays stream_normals draws `size` normals of up to `paths` streams in.

    Name to (shape, dtype); each array has one column a stream. "words" is
    the six (2, blocks, paths) stacks _philox_words computes in.
    """
    blocks = -(-size // 4)  # Philox blocks of four words
    return {
        "normals": ((4 * blocks, paths), np.float64),
        "words": ((6, 2, blocks, paths), np.uint64),
    }


def philox_uniforms(master_seed: int, first: int, count: int, size: int, space=None) -> np.ndarray:
    """The first `size` uniforms of streams first..first+count-1, one row each.

    Row i equals `size` draws of `RandomStream(master_seed, first + i)`, in
    any split (numpy keeps the unused words of a block for the next call).
    The result is a (count, size) view of year-major uniforms: `.T` gives
    draw t of every stream in row t. They are computed in `space`, arrays
    laid out as normals_layout gives for at least `count` streams and
    `size` draws, or in new ones.
    """
    master_seed, first, count = _check_streams(master_seed, first, count)
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    if space is None:
        space = {name: np.empty(*layout) for name, layout in normals_layout(count, size).items()}
    blocks = -(-size // 4)
    uniforms = space["normals"][: 4 * blocks, :count]
    words = _philox_words(master_seed, first, space["words"][..., :blocks, :count])
    for word, x in enumerate(words):  # block j's words are rows 4j..4j+3
        np.right_shift(x, _SHIFT53, x)
        np.multiply(x, _UNIFORM_FLOOR, out=uniforms[word::4])
    return uniforms[:size].T


def stream_normals(master_seed: int, first: int, count: int, size: int, space=None) -> np.ndarray:
    """`RandomStream(master_seed, k).standard_normal(size)` for each stream k in
    first..first+count-1, as one (count, size) array: a view of year-major
    normals, computed in `space` as philox_uniforms computes its uniforms."""
    u = philox_uniforms(master_seed, first, count, size, space)
    return _normals(u, out=u)


def gbm_drift(scenario: Scenario) -> float:
    """The log-return drift gbm_mu - gbm_sigma^2/2 (see gbm_log_returns)."""
    try:
        return scenario.gbm_mu - 0.5 * scenario.gbm_sigma**2
    except OverflowError:
        raise ValueError(
            "log-return drift overflows: gbm_sigma**2 is out of range for "
            f"gbm_sigma={scenario.gbm_sigma}"
        ) from None


def gbm_log_returns(normals: np.ndarray, scenario: Scenario) -> np.ndarray:
    """Annual log-returns r = (gbm_mu - gbm_sigma^2/2) + gbm_sigma * z, one for
    each standard normal z of `normals`; the one-year growth factor is exp(r)."""
    return gbm_drift(scenario) + scenario.gbm_sigma * normals


def growth_factors(log_returns, out=None) -> np.ndarray:
    """One-year growth factor exp(r) for each log-return, in the input's shape.

    The factors are the C library's exp, which Python's math module calls, so
    they match a plain scalar reimplementation bit for bit: scipy's compiled
    inv_boxcox(r, 0), which is exp(r) by definition and gives inf past
    log(DBL_MAX). np.exp differs from libm in the last bit on about 3.6% of
    log-returns. Only a finite log-return whose factor is inf is an error;
    inf gives inf, -inf 0.0 and NaN NaN. Written to `out` if given.
    """
    r = np.asarray(log_returns, dtype=float)
    growth = _special().inv_boxcox(r, 0.0, out=np.empty(r.shape) if out is None else out)
    inf = np.isinf(growth)
    if inf.any() and np.isfinite(r[inf]).any():
        raise ValueError(GROWTH_OVERFLOW)
    return growth


def inflation_series(normals: np.ndarray, scenario: Scenario) -> np.ndarray:
    """Annual inflation percent, inflation_mean_pct + inflation_sd_pct * z, one for
    each standard normal z of `normals`; not truncated.

    Negative values are possible and deliberate: the model treats deflation
    years as valid draws.
    """
    return scenario.inflation_mean_pct + scenario.inflation_sd_pct * normals

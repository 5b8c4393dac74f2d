"""Seeded random streams for market returns and salary inflation.

Reproducibility contract: a stream is fully determined by the pair
(master_seed, stream_id), independent of execution order, thread count,
or platform. Streams are built on the Philox 4x64-10 counter-based
generator; stream k is the master-keyed generator jumped ahead k * 2**128
states, so distinct ids can never overlap. Normal variates come from the
inverse CDF applied to 53-bit uniforms, exactly one uniform per variate,
which keeps the stream position a pure function of how many variates
have been requested.

Philox is counter-based (Salmon et al., "Parallel Random Numbers: As Easy
as 1, 2, 3", SC'11): the j-th block of four 64-bit words of stream k is a
pure function of the key [master_seed, 0] and the counter [j, 0, k, 0].
`stream_normals` evaluates that function for many streams at once and
gives, row by row, exactly the draws `RandomStream` makes one stream at a
time.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING

import numpy as np
from scipy.special import ndtri

if TYPE_CHECKING:
    from .engine import Scenario

__all__ = [
    "RandomStream",
    "gbm_drift",
    "gbm_log_returns",
    "inflation_series",
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
_MASK32 = 0xFFFFFFFF
_MASK64 = _WORD - 1


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
    """A single-owner draw sequence identified by (master_seed, stream_id)."""

    def __init__(self, master_seed: int, stream_id: int) -> None:
        master_seed, stream_id, _ = _check_streams(master_seed, stream_id, 1)
        # the counter of Philox(key=seed).jumped(k), set directly: k in the
        # third 64-bit word (a list would pass k through float64)
        bitgen = np.random.Philox(key=master_seed, counter=stream_id << 128)
        self._gen = np.random.Generator(bitgen)

    def standard_normal(self, count: int) -> np.ndarray:
        """Draw `count` N(0, 1) variates, consuming exactly one uniform each."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        return _normals(self._gen.random(count))


def _normals(u: np.ndarray) -> np.ndarray:
    return ndtri(np.maximum(u, _UNIFORM_FLOOR))


def _mulhilo(x: np.ndarray, multiplier: int) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of x * multiplier, built from 32-bit halves.

    No partial sum below can exceed 2**64 - 1; in-place steps keep the
    temporaries few.
    """
    m_lo, m_hi = multiplier & _MASK32, multiplier >> 32
    x_lo, x_hi = x & _MASK32, x >> 32
    t = x_lo * m_lo
    t >>= 32
    t += x_hi * m_lo
    x_lo *= m_hi
    x_lo += t & _MASK32
    x_hi *= m_hi
    x_hi += t >> 32
    x_hi += x_lo >> 32
    return x_hi, x * multiplier  # uint64 products wrap: the low word


def philox_uniforms(master_seed: int, first: int, count: int, size: int) -> np.ndarray:
    """The first `size` uniforms of streams first..first+count-1, one row each.

    Row i equals `size` draws of `RandomStream(master_seed, first + i)`, in
    any split (numpy keeps the unused words of a block for the next call).
    numpy's Philox increments the counter before it generates, so block j
    of stream k, counting from 1, is computed from the counter [j, 0, k, 0].
    """
    master_seed, first, count = _check_streams(master_seed, first, count)
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    blocks = -(-size // 4)
    # counter [j, 0, k, 0]: blocks j along a row, streams k down a column
    x0 = np.arange(1, blocks + 1, dtype=np.uint64)[None, :]
    x2 = np.arange(first, first + count, dtype=np.uint64)[:, None]
    x1 = x3 = np.uint64(0)
    k0, k1 = master_seed, 0
    for round_ in range(_PHILOX_ROUNDS):
        if round_:
            k0, k1 = (k0 + _PHILOX_W0) & _MASK64, (k1 + _PHILOX_W1) & _MASK64
        hi0, lo0 = _mulhilo(x0, _PHILOX_M0)
        hi1, lo1 = _mulhilo(x2, _PHILOX_M1)
        hi1 = hi1 ^ x1 ^ k0  # not in place: the rounds broadcast row and column
        hi0 = hi0 ^ x3 ^ k1
        x0, x1, x2, x3 = hi1, lo1, hi0, lo0
    words = np.stack((x0, x1, x2, x3), axis=-1)
    words >>= 11  # Generator.random's 53-bit mapping
    return words.reshape(count, 4 * blocks)[:, :size] * _UNIFORM_FLOOR


def stream_normals(master_seed: int, first: int, count: int, size: int) -> np.ndarray:
    """`RandomStream(master_seed, k).standard_normal(size)` for each stream k in
    first..first+count-1, as one (count, size) array."""
    return _normals(philox_uniforms(master_seed, first, count, size))


def gbm_drift(scenario: Scenario) -> float:
    """The log-return drift gbm_mu - gbm_sigma^2/2 (see gbm_log_returns)."""
    try:
        return scenario.gbm_mu - 0.5 * scenario.gbm_sigma**2
    except OverflowError:
        raise ValueError(
            "log-return drift overflows: gbm_sigma**2 is out of range for "
            f"gbm_sigma={scenario.gbm_sigma}"
        ) from None


def gbm_log_returns(stream: RandomStream, scenario: Scenario, count: int) -> np.ndarray:
    """Annual log-returns r = (gbm_mu - gbm_sigma^2/2) + gbm_sigma * z, z ~ N(0, 1).

    The one-year growth factor is exp(r). The stream advances by `count`
    draws even when gbm_sigma == 0, so downstream draws stay aligned across
    parameter variants.
    """
    z = stream.standard_normal(count)
    return gbm_drift(scenario) + scenario.gbm_sigma * z


def inflation_series(stream: RandomStream, scenario: Scenario, count: int) -> np.ndarray:
    """Annual inflation percent, inflation_mean_pct + inflation_sd_pct * z; not truncated.

    Negative values are possible and deliberate: the model treats deflation
    years as valid draws.
    """
    z = stream.standard_normal(count)
    return scenario.inflation_mean_pct + scenario.inflation_sd_pct * z

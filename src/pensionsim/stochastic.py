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
So a stream is only its key, its id and its position: `RandomStream`
draws through one Philox generator per thread, pointed at its counter,
and `stream_normals` evaluates that function for many streams at once
and gives, row by row, exactly the draws `RandomStream` makes one stream
at a time.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
import threading
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


def _normals(u: np.ndarray, out=None, ndtri=None) -> np.ndarray:
    u = np.maximum(u, _UNIFORM_FLOOR, out=out)
    if ndtri is None:
        ndtri, _ = _special_functions(u.size)
    return ndtri(u, out=u)


# --- special functions: ndtri and exp, without scipy until it pays ----------
#
# Importing scipy.special takes about 0.25 s, more than half the wall time
# of a `path` command or a default `run`. So a process serves its first
# values from a numpy port of the same Cephes ndtri and from a math.exp map,
# and imports scipy.special only once the port has cost about as much as the
# import would (a ski-rental rule). Both give the same bits. Measured on a
# 2-core Xeon VM (Python 3.11, numpy 2.4, scipy 1.17): a port call costs
# 60-95 us more than scipy's, and each value about 115 ns more for ndtri and
# 60 ns more for exp. So each call is charged at least 2**9 values, about
# its fixed cost in values, and a run charges all of its calls before its
# first block (see _special_functions); the 2**20 values the port may serve
# cost at most about 0.12 s more than scipy would, half the import.
_PORT_BUDGET = 2**20
_PORT_CALL = 2**9
_EXP_MAX = 709.782712893384  # the largest float whose exp is finite
# the error of a finite log-return whose growth factor exp(r) is inf
GROWTH_OVERFLOW = (
    "market growth factor exp(log_return) overflows: gbm_mu or gbm_sigma is too large"
)

# the switch's state: how many values the port may still serve in this
# process, or None once scipy.special serves; process-wide, as the import is
_port_left: int | None = _PORT_BUDGET


def _special_functions(*calls: int):
    """`(ndtri, exp)` for calls on `calls` values each, charged to the switch.

    Each takes `(x, out)` and pickles by reference. They are the numpy port
    while the calls fit in what is left of its _PORT_BUDGET values and
    scipy.special is not loaded, and scipy's from then on. A run charges all
    of its calls at once, so it never pays for both the port and the import.
    """
    global _port_left
    if _port_left is not None:
        _port_left -= sum(max(values, _PORT_CALL) for values in calls)
        if _port_left >= 0 and "scipy.special" not in sys.modules:
            return _ndtri_port, _exp_port
        _port_left = None
    _scipy_special()  # loaded here: before a run's first block and any fork of a helper
    return _ndtri_scipy, _exp_scipy


@functools.cache
def _scipy_special():
    import scipy.special

    return scipy.special


# scipy's functions by module-level names, which a run's job pickles by
# reference; a ufunc pickles by a search of sys.modules, about 0.4 ms
def _ndtri_scipy(y, out=None) -> np.ndarray:
    return _scipy_special().ndtri(y, out=out)


def _exp_scipy(r, out=None) -> np.ndarray:
    # exp(r) by definition, with the C library's exp
    return _scipy_special().inv_boxcox(r, 0.0, out=out)


# Cephes ndtri (Moshier, "Methods and Programs for Mathematical Functions",
# 1989), as scipy.special.ndtri computes it; each _Q table starts with the
# leading 1 that Cephes' p1evl implies, so _polevl evaluates all six
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT_2PI = 2.50662827463100050242
# |y - 0.5| <= 3/8
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# sqrt(-2 log y) in [2, 8): y in (exp(-32), exp(-2)]
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# sqrt(-2 log y) in [8, 64): y in (exp(-2048), exp(-32)]
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: np.ndarray, coefs) -> np.ndarray:
    """Horner's rule, rounding each product and sum as Cephes' polevl does."""
    ans = x * coefs[0]
    ans += coefs[1]
    for c in coefs[2:]:
        ans *= x
        ans += c
    return ans


def _tail(z: np.ndarray, p, q) -> np.ndarray:
    return z * _polevl(z, p) / _polevl(z, q)


def _log(x: np.ndarray) -> np.ndarray:
    # the C library's log, as Cephes calls it; np.log differs in the last bit
    return np.fromiter(map(math.log, x.tolist()), float, x.size)


def _ndtri_port(y0, out=None) -> np.ndarray:
    """scipy.special.ndtri's bits, in numpy: the inverse of the normal CDF.

    Each branch is computed on its own elements only, so nothing warns; 0
    gives -inf, 1 gives inf, and NaN or a value outside [0, 1] gives NaN.
    `out` may be `y0` itself.
    """
    y0 = np.asarray(y0, dtype=float)
    x = np.empty(y0.shape) if out is None else out
    high = y0 > 1.0 - _EXP_M2
    y = np.where(high, 1.0 - y0, y0)  # Cephes' y; a copy, so x may be y0
    central = y > _EXP_M2
    tail = (y > 0.0) & ~central
    rest = ~(central | tail)

    c = y[central] - 0.5
    c2 = c * c
    xc = c + c * (c2 * _polevl(c2, _P0) / _polevl(c2, _Q0))
    xc *= _SQRT_2PI

    t = np.sqrt(-2.0 * _log(y[tail]))
    x0 = t - _log(t) / t
    z = 1.0 / t
    near = t < 8.0  # y > exp(-32)
    if near.all():
        x1 = _tail(z, _P1, _Q1)
    else:
        x1 = np.empty_like(z)
        x1[near] = _tail(z[near], _P1, _Q1)
        x1[~near] = _tail(z[~near], _P2, _Q2)
    xt = x0 - x1
    np.negative(xt, out=xt, where=~high[tail])

    xr = np.where(y[rest] == 0.0, np.where(high[rest], np.inf, -np.inf), np.nan)
    x[central] = xc
    x[tail] = xt
    x[rest] = xr
    return x


def _exp_port(r, out=None) -> np.ndarray:
    """exp(r) from the C library through math.exp, as scipy's inv_boxcox(r, 0)
    gives it: inf past _EXP_MAX, where math.exp raises. `out` may be `r`."""
    r = np.asarray(r, dtype=float)
    over = r > _EXP_MAX  # taken before `out`, which may be r, is written
    out = np.minimum(r, _EXP_MAX, out=np.empty(r.shape) if out is None else out)
    out[...] = np.fromiter(map(math.exp, out.ravel().tolist()), float, r.size).reshape(r.shape)
    out[over] = np.inf
    return out


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


def stream_normals(master_seed: int, first: int, count: int, size: int, space=None,
                   ndtri=None) -> np.ndarray:
    """`RandomStream(master_seed, k).standard_normal(size)` for each stream k in
    first..first+count-1, as one (count, size) array: a view of year-major
    normals, computed in `space` as philox_uniforms computes its uniforms,
    with a run's `ndtri` (see _special_functions), or else charged alone."""
    u = philox_uniforms(master_seed, first, count, size, space)
    return _normals(u, out=u, ndtri=ndtri)


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


def growth_factors(log_returns, out=None, exp=None) -> np.ndarray:
    """One-year growth factor exp(r) for each log-return, in the input's shape.

    The factors are the C library's exp, which Python's math module calls, so
    they match a plain scalar reimplementation bit for bit: a run's `exp` (see
    _special_functions), or else one charged to this call alone; either gives
    inf past log(DBL_MAX). np.exp differs from libm in the last bit on about
    3.6% of log-returns. Only a finite log-return whose factor is inf is an
    error; inf gives inf, -inf 0.0 and NaN NaN. Written to `out` if given.
    """
    r = np.asarray(log_returns, dtype=float)
    if exp is None:
        _, exp = _special_functions(r.size)
    growth = exp(r, out=np.empty(r.shape) if out is None else out)
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

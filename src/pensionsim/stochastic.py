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
So a stream is only its key, its id and its position, and each thread
has one generator, numpy's Philox, which both stream APIs point at a
stream's counter before they draw from it (see _positioned):
`RandomStream` one stream at a time, and `stream_normals` each stream of
a block in turn, into one row of the block's draws, so that row k holds
exactly the draws `RandomStream` makes of stream k.
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

    It holds its seed, its id and the count of uniforms drawn, and draws
    through its thread's one Philox generator, so streams are cheap and may
    be drawn from in any interleaving.
    """

    __slots__ = ("_seed", "_stream_id", "_drawn")

    def __init__(self, master_seed: int, stream_id: int) -> None:
        self._seed, self._stream_id, _ = _check_streams(master_seed, stream_id, 1)
        self._drawn = 0

    def standard_normal(self, count: int) -> np.ndarray:
        """Draw `count` N(0, 1) variates, consuming exactly one uniform each."""
        count = operator.index(count)
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        [gen] = _positioned(self._seed, [self._stream_id], self._drawn)
        u = gen.random(count)
        self._drawn += count
        return _normals(u)


def _positioned(master_seed: int, stream_ids, drawn: int = 0):
    """Yield the thread's generator pointed at uniform `drawn` of each stream in turn.

    One state dict serves every stream: only its counter changes, to
    [j, 0, k, 0] for stream k. numpy's Philox increments the counter before
    it generates, so an empty buffer at counter j next yields block j + 1,
    uniforms 4j..4j+3. A block's streams are pointed at by resuming this
    generator, about 0.1 µs a stream less than calling a function for each.
    """
    gen = _thread_generator()
    block, skip = divmod(drawn, 4)
    counter = [block, 0, 0, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": (master_seed, 0)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    bit_generator = gen.bit_generator
    for stream_id in stream_ids:
        counter[2] = stream_id
        bit_generator.state = state
        if skip:
            bit_generator.random_raw(skip)
        yield gen


# each thread's one generator, which every stream is pointed at (see _positioned)
# before it draws: building a Philox costs about ten times as much
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


def normals_layout(paths: int, size: int) -> dict[str, tuple[tuple[int, ...], type]]:
    """The array stream_normals draws `size` normals of up to `paths` streams in.

    Name to (shape, dtype): "normals" is path-major, one row a stream, so
    each stream's draws are one contiguous row.
    """
    return {"normals": ((paths, size), np.float64)}


def philox_uniforms(master_seed: int, first: int, count: int, size: int, space=None) -> np.ndarray:
    """The first `size` uniforms of streams first..first+count-1, one row each.

    Row i equals `size` draws of `RandomStream(master_seed, first + i)`, in
    any split: each row is drawn by the thread's generator, pointed at the
    start of its stream as RandomStream points it. The result is a
    (count, size) array, drawn into the leading rows and columns of
    `space["normals"]`, laid out as normals_layout gives for at least
    `count` streams and `size` draws, or into a new one.
    """
    master_seed, first, count = _check_streams(master_seed, first, count)
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    uniforms = np.empty((count, size)) if space is None else space["normals"][:count, :size]
    for row, gen in zip(uniforms, _positioned(master_seed, range(first, first + count))):
        gen.random(out=row)
    return uniforms


def stream_normals(master_seed: int, first: int, count: int, size: int, space=None) -> np.ndarray:
    """`RandomStream(master_seed, k).standard_normal(size)` for each stream k in
    first..first+count-1, as one (count, size) array, computed in `space`
    as philox_uniforms draws its uniforms."""
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

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
stream's counter before they draw from it (see _fill): `RandomStream`
one stream at a time, and `stream_normals` each stream of a block in
turn, into one row of the block's draws, so that row k holds exactly the
draws `RandomStream` makes of stream k. The counter, the key and the
buffer position are written in place, through views of the Philox's C
state that its thread checks once against numpy's public `state` before
its first write (see _philox_views); a numpy that lays that state out
otherwise raises RuntimeError naming its version, before any draw.
"""

from __future__ import annotations

import ctypes
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
        u = np.empty(count)
        _fill((u,), self._seed, self._stream_id, self._drawn)
        self._drawn += count
        return _normals(u, out=u)


def _fill(rows, master_seed: int, first: int, drawn: int = 0) -> None:
    """Fill row i of `rows` with the uniforms of stream first + i, from uniform `drawn` on.

    The thread's Philox is pointed at each stream by writing its counter
    [j, 0, k, 0] for stream k and emptying its buffer: numpy's Philox
    increments the counter before it generates, so an empty buffer at
    counter j next yields block j + 1, uniforms 4j..4j+3. The key and the
    counter's fixed words are written once a call, and a stream's three
    writes cost it about 0.2 µs above its `random` call: 1.2 µs a stream
    of 79 draws, against 1.6 µs through the public `state` setter's dict
    (one pinned CPU of a 2-vCPU Xeon VM).
    """
    gen, counter, key, buffer_pos = _thread_generator()
    block, skip = divmod(drawn, 4)
    key[:] = master_seed, 0
    counter[:] = block, 0, 0, 0
    random = gen.random
    for stream_id, row in enumerate(rows, first):
        counter[0] = block
        counter[2] = stream_id
        buffer_pos.value = 4
        if skip:
            gen.bit_generator.random_raw(skip)
        random(out=row)


# numpy's philox_state: pointers to the counter (4 words) and the key (2
# words), then the int buffer_pos; the one place in the package that knows it
_COUNTER_AT, _KEY_AT, _BUFFER_POS_AT = 0, 8, 16


def _philox_views(bit_generator: np.random.Philox, size: int):
    """ctypes views of a Philox's counter, key and buffer_pos, checked before any write.

    Each view must lie inside the bit generator object, the `size` bytes
    from id(bit_generator), and read back what the public `state` setter
    wrote, and the `state` getter must read back what was written through
    it. numpy does not document this layout, so a numpy that lays it out
    otherwise raises RuntimeError naming its version.
    """
    start = id(bit_generator)

    def layout_error(reason: str) -> RuntimeError:
        return RuntimeError(
            f"numpy {np.__version__}'s Philox state is not laid out as pensionsim reads it: {reason}"
        )

    def inside(address: int, view_type):
        if not start <= address <= start + size - ctypes.sizeof(view_type):
            raise layout_error(f"a field at {address - start:+d} bytes lies outside its "
                               f"{size}-byte bit generator object")
        return view_type.from_address(address)

    state = bit_generator.ctypes.state_address
    inside(state, ctypes.c_char * _BUFFER_POS_AT)  # the two pointers, read next
    buffer_pos = inside(state + _BUFFER_POS_AT, ctypes.c_int)
    counter_at, key_at = (ctypes.c_void_p.from_address(state + at).value or 0
                          for at in (_COUNTER_AT, _KEY_AT))
    counter = inside(counter_at, ctypes.c_uint64 * 4)
    key = inside(key_at, ctypes.c_uint64 * 2)

    words = [(i + 1) * 0x0101010101010101 for i in range(6)]  # every byte nonzero
    bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": words[:4], "key": words[4:]},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 1,
        "has_uint32": 0,
        "uinteger": 0,
    }
    read = [list(counter), list(key), buffer_pos.value]
    if read == [words[:4], words[4:], 1]:
        counter[:], key[:], buffer_pos.value = words[2:], words[:2], 2
        state = bit_generator.state
        read = [state["state"]["counter"].tolist(), state["state"]["key"].tolist(),
                state["buffer_pos"]]
        if read == [words[2:], words[:2], 2]:
            return counter, key, buffer_pos
    raise layout_error(f"a write and a read through the public state disagree ({read})")


# each thread's one generator, which every stream is pointed at (see _fill)
# before it draws, with views of its Philox's counter, key and buffer
# position: building a Philox costs about ten times as much
_thread = threading.local()


def _thread_generator():
    """The thread's Generator and the (counter, key, buffer_pos) views of its Philox."""
    try:
        return _thread.philox
    except AttributeError:
        gen = np.random.Generator(np.random.Philox(key=0))
        views = _philox_views(gen.bit_generator, type(gen.bit_generator).__basicsize__)
        _thread.philox = gen, *views
        return _thread.philox


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


def philox_uniforms(master_seed: int, first: int, count: int, size: int, out=None) -> np.ndarray:
    """The first `size` uniforms of streams first..first+count-1, one row each.

    Row i equals `size` draws of `RandomStream(master_seed, first + i)`, in
    any split: each row is drawn by the thread's generator, pointed at the
    start of its stream as RandomStream points it. The result is a
    (count, size) float64 array, path-major so that each stream's draws are
    one contiguous row: `out`, which must be such an array, or a new one.
    """
    master_seed, first, count = _check_streams(master_seed, first, count)
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    if out is None:
        out = np.empty((count, size))
    elif not isinstance(out, np.ndarray) or (out.dtype, out.shape) != (np.float64, (count, size)):
        raise ValueError(f"out must be a float64 array of shape {(count, size)}")
    _fill(out, master_seed, first)
    return out


def stream_normals(master_seed: int, first: int, count: int, size: int, out=None) -> np.ndarray:
    """`RandomStream(master_seed, k).standard_normal(size)` for each stream k in
    first..first+count-1, as one (count, size) array, computed in `out` as
    philox_uniforms draws its uniforms."""
    u = philox_uniforms(master_seed, first, count, size, out)
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

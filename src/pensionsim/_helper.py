"""A helper process that computes some of a run's blocks, beside the process that runs it.

The module knows nothing of what a block is, only that its bits do not
depend on the process that computes it (see share). A run of many blocks
computes them in two processes: this one and a helper, which the first such
run forks. Both claim blocks from one pipe, 8 bytes a claim; a read that
small is atomic, and a helper slowed by other work just claims fewer. The
helper writes each block's rows back through a second pipe, which this
process reads between its own blocks and after its last one. Once no claim
is left, this process waits for the helper's last blocks only about as
long as one of its own claims takes (_PATIENCE), so a helper that the
machine delays holds a run up by about two claims at most.

A helper that runs out of patience, fails or ends is killed, and this
process computes the blocks it did not send, as it computes those of a run
not shared; a late one is reaped after them, so the reap never waits on a
helper that has no CPU. The next shared run forks a new helper, so every
run starts with an idle helper and empty pipes. The helper ignores SIGINT
and ends only through os._exit: when a pipe to its parent closes, or when
killed.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import pickle
import select
import signal
import threading
import time
import warnings
from typing import NamedTuple

# blocks a run needs to use the helper; three blocks split at best 2:1
_HELPER_BLOCKS = 4
# claims a run makes at most: with the two end markers they fill
# 4096 bytes, which any pipe takes in one write
_CLAIMS = 510
_END = -1  # the claim that ends a process's share, and the helper's last message of a run
# claim times of this process after the helper's last message by which the
# helper's last claim should have come, as both compute a claim about as fast
_PATIENCE = 1.5


class _Helper(NamedTuple):
    pid: int
    commands: int  # this process writes jobs here
    claims_r: int  # both processes read claims here
    claims_w: int
    rows: int  # the helper writes its blocks' rows here


_helper: _Helper | None = None


def _helper_usable() -> bool:
    """Whether a run may use the helper: this process can fork, may run on
    two CPUs, and runs no other Python thread."""
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and threading.active_count() == 1
    )


def share(job, blocks: int, compute, rows) -> None:
    """Compute a run's blocks 0..blocks-1, each once, here and perhaps in the helper.

    `compute(index)` computes block `index` here into the arrays
    `rows(index)`, which the helper's rows of a block are read into. The
    helper computes with `job()`'s `(compute, rows)`, so `job` must be
    picklable and take nothing a run sets from the helper's module state, a
    copy from the fork, perhaps stale. A run of _HELPER_BLOCKS blocks or
    more is shared when the helper is usable (see _share). Then this process
    computes each block whose rows are not in, so a block that fails in the
    helper fails here too: its error must not depend on the block. An
    exception here stops the helper and is raised as it stands.
    """
    have = [False] * blocks  # whether block `index`'s rows are in
    late = None  # the pid of a helper killed as late, reaped once every block is in
    if blocks >= _HELPER_BLOCKS and _helper_usable():
        try:
            late = _share(job, blocks, compute, rows, have)
        except (EOFError, OSError):  # the helper ended, or could not be forked
            _stop_helper()
        except BaseException:
            _stop_helper()
            raise
    try:
        for index in [i for i, got in enumerate(have) if not got]:
            compute(index)
    finally:
        if late is not None:
            os.waitpid(late, 0)


def _readable(fd: int, timeout: float | None = 0.0) -> bool:
    """Whether a read of `fd` would not wait, within `timeout` seconds (None:
    however long it takes): data has come, or the write end is closed."""
    poll = select.poll()
    poll.register(fd, select.POLLIN)
    return bool(poll.poll(None if timeout is None else timeout * 1e3))


def _start_helper() -> None:
    global _helper
    cpu = _cpu()
    fds = os.pipe() + os.pipe() + os.pipe()
    commands_r, commands_w, claims_r, claims_w, rows_r, rows_w = fds
    try:
        with warnings.catch_warnings():
            # From Python 3.12 fork() warns whenever the process has another OS
            # thread, and numpy's BLAS pool always is one. No other Python
            # thread runs (see _helper_usable), and the helper calls only
            # numpy and scipy ufuncs, pickle and os, never BLAS, so it never
            # waits on a lock that a thread left behind by the fork held.
            warnings.filterwarnings(
                "ignore", r"This process .* is multi-threaded, use of fork\(\)", DeprecationWarning
            )
            pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        raise
    if pid == 0:
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            for fd in (commands_w, claims_w, rows_r):
                os.close(fd)
            _leave_cpu(cpu)
            _serve(commands_r, claims_r, rows_w)
        finally:
            os._exit(0)  # never flush the parent's buffers or run its atexit handlers
    os.close(commands_r)
    os.close(rows_w)
    _helper = _Helper(pid, commands_w, claims_r, claims_w, rows_r)


def _cpu() -> int | None:
    """The CPU this process runs on, or None where the C library cannot tell."""
    try:
        import ctypes

        getcpu = ctypes.CDLL(None).sched_getcpu
        getcpu.argtypes, getcpu.restype = (), ctypes.c_int
        return getcpu()
    except (ImportError, OSError, AttributeError):
        return None


def _leave_cpu(cpu: int | None) -> None:
    """Move this process off `cpu`, if it may run elsewhere, and leave it free to move back.

    A forked child may start on its parent's CPU, and a scheduler wakes a
    sleeping process where it last ran and may balance it away only late,
    so a helper left there could share its parent's CPU run after run.
    """
    cpus = os.sched_getaffinity(0)
    with contextlib.suppress(OSError):  # the helper serves wherever it runs
        os.sched_setaffinity(0, cpus - {cpu} or cpus)
        os.sched_setaffinity(0, cpus)


def _forget_helper() -> None:
    """Drop the helper and close this process's ends of its pipes; a forked child calls it."""
    global _helper
    if _helper is not None:
        for fd in _helper[1:]:
            os.close(fd)
        _helper = None


def _stop_helper() -> None:
    """Kill and reap the helper, if there is one, and close its pipes."""
    helper = _helper
    _forget_helper()
    if helper is not None:
        with contextlib.suppress(ChildProcessError):
            if not os.waitpid(helper.pid, os.WNOHANG)[0]:  # it has not ended already
                os.kill(helper.pid, signal.SIGKILL)
                os.waitpid(helper.pid, 0)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)
atexit.register(_stop_helper)


def _read(fd: int, size: int) -> bytes:
    data = b""
    while len(data) < size:
        chunk = os.read(fd, size - len(data))
        if not chunk:
            raise EOFError("the helper process has ended")
        data += chunk
    return data


def _read_int(fd: int) -> int:
    return int.from_bytes(_read(fd, 8), "little", signed=True)


def _write(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _int_bytes(value: int) -> bytes:
    return value.to_bytes(8, "little", signed=True)


def _claims(blocks: int) -> list[range]:
    """A run's claims: at most _CLAIMS runs of consecutive blocks, each as long as the first."""
    per = -(-blocks // _CLAIMS)
    return [range(first, min(first + per, blocks)) for first in range(0, blocks, per)]


def _share(job, blocks: int, compute, rows, have: list[bool]) -> int | None:
    """Compute a run's blocks here and in the helper (see share), which is forked
    first if there is none or it has ended since the last run. Sets have[i] once
    block i's rows are in; returns the pid of a helper killed as late, or None."""
    if _helper is not None and _readable(_helper.rows):  # between runs it is empty, unless closed
        _stop_helper()
    if _helper is None:
        _start_helper()
    helper = _helper
    claims = _claims(blocks)
    os.write(helper.claims_w, b"".join(map(_int_bytes, [*range(len(claims)), _END, _END])))
    message = pickle.dumps((job, blocks))
    _write(helper.commands, _int_bytes(len(message)) + message)

    def receive() -> bool:  # one message of the helper: True when it has finished its share
        nonlocal heard
        index = _read_int(helper.rows)
        heard = time.perf_counter()
        if index == _END:
            return True
        for array in rows(index):
            view = memoryview(array).cast("B")
            view[:] = _read(helper.rows, len(view))
        have[index] = True
        return False

    took = []  # seconds each claim of this process took
    heard = time.perf_counter()  # when the helper's last message came, or the job went
    done = False
    while (claim := _read_int(helper.claims_r)) != _END:
        start = time.perf_counter()
        for index in claims[claim]:
            compute(index)
            have[index] = True
        took.append(time.perf_counter() - start)
        while not done and _readable(helper.rows):
            done = receive()
    # The helper claims its next blocks as it sends the last ones, so its last
    # claim began before its last message came. With no claim of its own, this
    # process has no measure of a claim and waits.
    patience = _PATIENCE * sum(took) / len(took) if took else None
    while not done:
        timeout = None if patience is None else max(heard + patience - time.perf_counter(), 0.0)
        if _readable(helper.rows, timeout):
            done = receive()
        else:  # the helper is late; unreaped, its pid is not reused
            _forget_helper()
            os.kill(helper.pid, signal.SIGKILL)
            return helper.pid
    return None


def _serve(commands: int, claims: int, rows: int) -> None:
    """The helper's life: its share of each run whose job arrives on `commands`."""
    while True:
        job, blocks = pickle.loads(_read(commands, _read_int(commands)))
        compute, block_rows = job()
        runs = _claims(blocks)
        while (claim := _read_int(claims)) != _END:
            for index in runs[claim]:
                compute(index)
                _write(rows, _int_bytes(index) + b"".join(block_rows(index)))
        _write(rows, _int_bytes(_END))
        del compute, block_rows  # the run's arrays are freed while the helper waits for the next

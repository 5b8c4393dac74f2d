"""The helper process: a run's blocks shared with a forked helper give the serial bits.

Each test here lowers the helper's block threshold to one block and treats
the machine as if it had two usable CPUs (the `helper` fixture), so that
small runs split into small blocks (`_small_blocks`) are shared. A helper
that is late is stopped, so that fixture also makes this process wait for
the helper's blocks however late they come on a busy machine, unless a test
holds the helper up on purpose (`late_helper`).
"""

from __future__ import annotations

import ast
import contextlib
import errno
import os
import pathlib
import pickle
import signal
import subprocess
import sys
import threading
import time
import warnings
from unittest import mock

import pytest

from pensionsim import _helper, engine, stochastic
from pensionsim.engine import Scenario, run_path, run_scenario, sweep, with_field
from pensionsim.io_cli import cli_main
from records import records
from test_engine import _bits, _serial, _small_blocks
from test_golden import RUN_GOLDEN, SWEEP_GOLDEN, _digests

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the helper is a forked process")


_PATIENCE = _helper._PATIENCE
_PATIENT = 1e4  # the `helper` fixture's _PATIENCE


@pytest.fixture
def helper(monkeypatch):
    """Every run of the test shares its blocks with the helper, and waits
    for the helper's blocks however late they come."""
    monkeypatch.setattr(_helper, "_HELPER_BLOCKS", 1)
    monkeypatch.setattr(_helper, "_helper_usable", lambda: True)
    monkeypatch.setattr(_helper, "_PATIENCE", _PATIENT)


@pytest.fixture
def parent_blocks(monkeypatch, helper):
    """The first path of each block this process computes. Before its first
    block of a shared run it waits for the helper's first rows, and before
    each block 5 ms, so that the helper computes some of every shared run's
    blocks however late it starts. A test that sets _PATIENCE back, to hold
    the helper up on purpose, does not wait for its first rows."""
    firsts, pid, block, share = [], os.getpid(), engine._block, _helper._share
    starting = []  # holds True from a shared run's start to this process's first block

    def sharing(*args):
        starting.append(True)
        try:
            return share(*args)
        finally:
            starting.clear()

    def waiting(plan, first, *args):
        if os.getpid() == pid:
            if starting and _helper._PATIENCE == _PATIENT:
                assert _helper._readable(_helper._helper.rows, 30.0)
            starting.clear()
            firsts.append(first)
            time.sleep(0.005)
        return block(plan, first, *args)

    monkeypatch.setattr(_helper, "_share", sharing)
    monkeypatch.setattr(engine, "_block", waiting)
    return firsts


def _blocks(scenario: Scenario) -> int:
    _, paths, _ = engine._layout(scenario)
    return -(-scenario.num_paths // paths)


def _equals_run_path(result) -> bool:
    paths = range(result.scenario.num_paths)
    return _bits(records(result.outcomes)) == _bits(run_path(result.scenario, i) for i in paths)


@pytest.mark.parametrize("special", ["scipy"], indirect=True)
@pytest.mark.parametrize(
    "num_paths, block_paths", [(40, 1), (40, 7), (23, 5)], ids=["1", "7", "short-last-block"]
)
def test_a_shared_run_equals_run_path(helper, parent_blocks, special, num_paths, block_paths):
    scenario = Scenario(num_paths=num_paths, seed=11)
    with _small_blocks(scenario, block_paths):
        result = run_scenario(scenario)
        assert len(parent_blocks) < _blocks(scenario)  # the helper computed the others
    assert _equals_run_path(result)


def test_a_shared_run_works_out_its_shape_once_here(monkeypatch, helper, parent_blocks):
    calls, layout = [], engine._layout

    def spy(scenario):
        calls.append(scenario)  # in the helper, into its own copy of the list
        return layout(scenario)

    monkeypatch.setattr(engine, "_layout", spy)
    scenario = Scenario(num_paths=40)
    with _small_blocks(scenario, 4):
        result = run_scenario(scenario)
    assert calls == [scenario]  # the helper's blocks read the plan it was sent
    assert len(parent_blocks) < 10  # the helper computed the others
    assert _equals_run_path(result)


def test_a_shared_run_of_more_blocks_than_claims_computes_each_block_once(
    monkeypatch, helper, parent_blocks
):
    monkeypatch.setattr(_helper, "_CLAIMS", 3)  # before the run forks the helper
    scenario = Scenario(num_paths=40)
    with _small_blocks(scenario, 1):  # 40 blocks in claims of 14, 14 and 12
        result = run_scenario(scenario)
    claims = _helper._claims(40)
    assert [len(claim) for claim in claims] == [14, 14, 12]
    here = set(parent_blocks)
    assert len(here) == len(parent_blocks) < 40  # the helper computed the others
    assert all(here.isdisjoint(claim) or here.issuperset(claim) for claim in claims)
    assert _equals_run_path(result)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts /proc/self/fd")
def test_a_helper_whose_pipes_fail_leaves_no_descriptor_open(monkeypatch, helper):
    pipe, calls = os.pipe, []

    def second_fails():
        calls.append(True)
        if len(calls) == 2:
            raise OSError(errno.EMFILE, "Too many open files")
        return pipe()

    monkeypatch.setattr(os, "pipe", second_fails)
    scenario = Scenario(num_paths=40)
    fds = len(os.listdir("/proc/self/fd"))
    with _small_blocks(scenario, 4):
        result = run_scenario(scenario)
    assert len(os.listdir("/proc/self/fd")) == fds
    assert len(calls) == 2 and _helper._helper is None  # the run was not shared
    assert _equals_run_path(result)


@pytest.mark.parametrize(
    "key, values",
    [("annuity_rate", (0.05, 0.07, 0.09)), ("gbm_sigma", (0.0, 0.05, 0.1)),
     ("service_years", (25, 30))],
    ids=["retirement", "career", "draws"],
)
def test_a_shared_sweep_equals_run_path(helper, parent_blocks, key, values):
    base = Scenario(num_paths=30)
    with _small_blocks(base, 4):
        results = sweep(base, [(key, value) for value in values])
        runs = [r.scenario for r in results] if key == "service_years" else [base]
        blocks = sum(map(_blocks, runs))
    assert all(map(_equals_run_path, results))
    assert len(parent_blocks) < blocks


# The switch is the loader's one-way state, from no ufuncs to scipy's. A run
# throws it once, in this process, before it shares its first block, so that
# the helper it forks inherits the ufuncs and never loads them itself; and
# every block, the helper's too, is computed with them.
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "serial"])
@pytest.mark.parametrize(
    "overrides", [[], [("gbm_sigma", value) for value in (0.0, 0.05, 0.1)]],
    ids=["run", "gbm_sigma-sweep"],
)
def test_a_run_charges_the_switch_once_with_every_block(
    tmp_path, monkeypatch, parent_blocks, shared, overrides
):
    events, load, share = [], stochastic._load_special, _helper.share
    loads = tmp_path / "loads"  # the pid of each process that loads, the helper's too

    def loading():
        with open(loads, "a") as file:
            file.write(f"{os.getpid()}\n")
        events.append("load")
        return load()

    def sharing(job, blocks, *args):
        events.append(("share", blocks))
        return share(job, blocks, *args)

    monkeypatch.setattr(stochastic, "_ufuncs", None)
    monkeypatch.setattr(stochastic, "_load_special", loading)
    monkeypatch.setattr(_helper, "share", sharing)
    base = Scenario(num_paths=10_000)  # 25 blocks of 400 paths
    with contextlib.nullcontext() if shared else _serial():
        results = sweep(base, overrides) if overrides else [run_scenario(base)]
    assert events == ["load", ("share", 25)]
    assert loads.read_text() == f"{os.getpid()}\n"
    assert len(parent_blocks) < 25 if shared else len(parent_blocks) == 25
    paths = range(0, base.num_paths, 97)
    for result in results:
        got = _bits(records(result.outcomes))
        assert [got[i] for i in paths] == _bits(run_path(result.scenario, i) for i in paths)


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "serial"])
def test_a_paths_bits_do_not_depend_on_its_block(monkeypatch, parent_blocks, shared):
    scenario = Scenario(num_paths=1000)
    layout = engine._layout

    def capped(scenario):  # the layout of 828 paths, blocks of 414: here 414, 414 and 172
        return layout(with_field(scenario, "num_paths", 828))

    columns, firsts = [], []
    for split in (layout, capped):
        monkeypatch.setattr(engine, "_layout", split)
        parent_blocks.clear()
        with contextlib.nullcontext() if shared else _serial():
            result = run_scenario(scenario)
        columns.append([column.tobytes() for column in result.outcomes])
        firsts.append(set(parent_blocks))
    assert columns[0] == columns[1]
    # the even split is 334, 334 and 332; shared, the helper computed at least one
    blocks = [{0, 334, 668}, {0, 414, 828}]
    assert all(here < every if shared else here == every for here, every in zip(firsts, blocks))
    indices = [*range(0, 1000, 83), 999]
    got = _bits(records(result.outcomes))
    assert [got[i] for i in indices] == _bits(run_path(scenario, i) for i in indices)


@pytest.mark.parametrize("special", ["scipy"], indirect=True)
def test_a_shared_run_keeps_the_golden_bytes(tmp_path, capsys, helper, special):
    with _small_blocks(Scenario(), 100):  # ten blocks of the 1000 paths
        for number, (config, digest) in enumerate(RUN_GOLDEN.items()):
            scenario = tmp_path / f"{number}.txt"
            scenario.write_text(config)
            out = tmp_path / f"run{number}"
            assert cli_main(["run", "--config", str(scenario), "--out", str(out)]) == 0
            assert _digests(out) == {"summary.json": digest}
        argv = ["sweep", "--param", "service_years", "--values", "20,30,40"]
        assert cli_main([*argv, "--out", str(tmp_path / "sweep")]) == 0
    assert _digests(tmp_path / "sweep") == SWEEP_GOLDEN
    assert _helper._helper is not None


def test_the_helper_takes_its_block_size_from_the_run(helper, parent_blocks):
    scenario = Scenario(num_paths=40)
    with _small_blocks(scenario, 7):
        run_scenario(scenario)  # forks the helper, whose module state has blocks of 7 paths
    pid = _helper._helper.pid
    parent_blocks.clear()
    with _small_blocks(scenario, 3):
        result = run_scenario(scenario)
    assert _helper._helper.pid == pid
    assert _equals_run_path(result)
    assert len(parent_blocks) < 14 and all(first % 3 == 0 for first in parent_blocks)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the helpers the test forks, in order."""
    pids, start = [], _helper._start_helper

    def forking():
        start()
        pids.append(_helper._helper.pid)

    monkeypatch.setattr(_helper, "_start_helper", forking)
    return pids


@pytest.fixture(params=["helper", "parent"])
def failing_share(request, monkeypatch, helper):
    """The process that computes the blocks of a run: the other computes none.

    "helper": this process claims no block, so a failing block fails in the
    helper, which ends. "parent": the helper ends at the first block it
    claims, before computing it, so a failing block fails here.
    """
    pid = os.getpid()
    if request.param == "helper":
        read = _helper._read_int

        def claims_none(fd):
            if os.getpid() == pid and fd == _helper._helper.claims_r:
                return _helper._END
            return read(fd)

        monkeypatch.setattr(_helper, "_read_int", claims_none)
    else:
        block = engine._block

        def computes_none(*args):
            if os.getpid() != pid:
                raise RuntimeError("the helper computes no block")
            return block(*args)

        monkeypatch.setattr(engine, "_block", computes_none)
    return request.param


@pytest.mark.parametrize(
    "base, overrides",
    [
        ({"gbm_mu": 800.0}, None),  # every block's growth overflows
        # the drift's gbm_sigma**2 overflows in one variant's career only
        ({"inflation_sd_pct": 1e200}, [("gbm_sigma", 0.05), ("gbm_sigma", 1e200)]),
        ({"inflation_sd_pct": 1e200}, [("gbm_sigma", 1e200), ("gbm_sigma", 0.05)]),
    ],
    ids=["run", "sweep-second-fails", "sweep-first-fails"],
)
def test_a_failing_block_raises_the_serial_runs_error(failing_share, forks, base, overrides):
    scenario = Scenario(num_paths=40, **base)

    def call():
        return run_scenario(scenario) if overrides is None else sweep(scenario, overrides)

    with _small_blocks(scenario, 4):
        with pytest.raises(ValueError) as shared:
            call()
        with _serial(), pytest.raises(ValueError) as serial:
            call()
    assert str(shared.value) == str(serial.value)
    assert forks  # the run was shared
    if overrides is None:
        assert _helper._helper is None  # stopped by the failure


def test_a_run_after_a_failing_block_equals_run_path(failing_share, forks):
    # a failing block leaves its arrays part written: this process keeps
    # them for its next run of the layout, and a helper whose block failed ends
    scenario = Scenario(num_paths=40)
    with _small_blocks(scenario, 4):
        with pytest.raises(ValueError, match="growth factor"):
            run_scenario(Scenario(num_paths=40, gbm_mu=800.0))
        assert _equals_run_path(run_scenario(scenario))
    assert len(forks) == 2  # the failure stopped the first helper


def test_a_helper_killed_mid_run_leaves_each_of_its_blocks_here_once(
    monkeypatch, helper, parent_blocks, forks
):
    pid, block, computed = os.getpid(), engine._block, []

    def dies(*args):  # the helper kills itself as its second block starts
        if os.getpid() != pid:
            computed.append(True)
            if len(computed) == 2:
                os.kill(os.getpid(), signal.SIGKILL)
        return block(*args)

    monkeypatch.setattr(engine, "_block", dies)
    scenario = Scenario(num_paths=40)
    with _small_blocks(scenario, 4):
        assert _equals_run_path(run_scenario(scenario))
    # the helper sent its first block; this process computed the other nine, once each
    assert len(set(parent_blocks)) == len(parent_blocks) == 9
    assert _helper._helper is None
    with pytest.raises(ChildProcessError):  # reaped
        os.waitpid(forks[0], os.WNOHANG)


@pytest.mark.parametrize("fails_in", ["parent", "helper"])
def test_a_failing_shared_run_computes_no_block_twice(monkeypatch, helper, forks, fails_in):
    # at seed 42 only paths 21, 31, 38 and 39 overflow: blocks 5, 7 and 9 of 4 paths fail
    scenario = Scenario(num_paths=40, gbm_mu=707.78, gbm_sigma=1.0)
    with _small_blocks(scenario, 4), _serial(), pytest.raises(ValueError) as serial:
        run_scenario(scenario)
    firsts, pid, block = [], os.getpid(), engine._block
    go_r, go_w = os.pipe()  # written once this process has computed its first block

    def blocks(plan, first, *args):
        if os.getpid() == pid:
            firsts.append(first)
        elif fails_in == "parent":  # the helper ends at the first block it claims
            raise RuntimeError("the helper computes no block")
        else:  # the helper holds its first block until this process has computed one
            assert _helper._readable(go_r, 30.0)
        return block(plan, first, *args)

    if fails_in == "helper":  # this process computes one block and leaves the rest to the helper
        read = _helper._read_int

        def one_claim(fd):
            if os.getpid() == pid and fd == _helper._helper.claims_r and firsts:
                os.write(go_w, b"x")
                return _helper._END
            return read(fd)

        monkeypatch.setattr(_helper, "_read_int", one_claim)
    monkeypatch.setattr(engine, "_block", blocks)
    try:
        with _small_blocks(scenario, 4), pytest.raises(ValueError) as shared:
            run_scenario(scenario)
    finally:
        os.close(go_r)
        os.close(go_w)
    assert str(shared.value) == str(serial.value)
    assert forks and _helper._helper is None  # shared, then stopped by the failure
    assert len(set(firsts)) == len(firsts)
    if fails_in == "helper":  # its first block, then block 5, which failed in the helper
        assert firsts[1:] == [20]


def test_a_helper_that_ended_between_runs_is_forked_again(helper, parent_blocks):
    scenario = Scenario(num_paths=40)
    with _small_blocks(scenario, 4):
        run_scenario(scenario)
        pid = _helper._helper.pid
        os.kill(pid, signal.SIGINT)  # ignored
        parent_blocks.clear()
        assert _equals_run_path(run_scenario(scenario))
        assert _helper._helper.pid == pid and len(parent_blocks) < 10
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        parent_blocks.clear()
        assert _equals_run_path(run_scenario(scenario))
    assert _helper._helper.pid != pid and len(parent_blocks) < 10


@pytest.fixture
def late_helper(monkeypatch, helper, parent_blocks):
    """The first helper the test forks holds its first block until it is
    killed, or until a byte is written to the fd the fixture yields. This
    process's first block waits until the helper holds it, and this process
    waits for the helper's blocks as long as _PATIENCE says."""
    monkeypatch.setattr(_helper, "_PATIENCE", _PATIENCE)
    held_r, held_w = os.pipe()
    release_r, release_w = os.pipe()
    pid, block, started = os.getpid(), engine._block, []

    def late(*args):
        if not started:  # a helper forked after this process's first block starts with it set
            started.append(True)
            if os.getpid() == pid:
                assert _helper._readable(held_r, 30.0)
            else:
                os.write(held_w, b"x")
                _helper._readable(release_r, 3600.0)
        return block(*args)

    monkeypatch.setattr(engine, "_block", late)
    yield release_w
    for fd in (held_r, held_w, release_r, release_w):
        os.close(fd)


@pytest.mark.parametrize("then", ["released", "killed"])
def test_a_late_helper_holds_up_no_run(monkeypatch, late_helper, parent_blocks, forks, then):
    # killed: the late helper holds its block until the run kills it. released:
    # it is let go as the run gives up on it, and its block's rows are in the
    # rows pipe before the run drops the pipe, so the next run must not read them
    if then == "released":
        forget = _helper._forget_helper

        def releasing():
            helper = _helper._helper
            if helper is not None and helper.pid == forks[0]:
                os.write(late_helper, b"x")
                assert _helper._readable(helper.rows, 30.0)
            forget()

        monkeypatch.setattr(_helper, "_forget_helper", releasing)
    scenario = Scenario(num_paths=40)
    with _small_blocks(scenario, 1):
        assert _equals_run_path(run_scenario(scenario))
        assert len(parent_blocks) == 40  # the late helper's block was computed here
        assert _helper._helper is None
        with pytest.raises(ChildProcessError):  # killed and reaped
            os.waitpid(forks[0], os.WNOHANG)
        monkeypatch.setattr(_helper, "_PATIENCE", _PATIENT)
        parent_blocks.clear()
        assert _equals_run_path(run_scenario(scenario))
    assert len(forks) == 2 and _helper._helper.pid == forks[1]
    assert len(parent_blocks) < 40  # shared again


@pytest.mark.parametrize(
    "ending", ["normal", "late", "helper fails", "parent fails", "interrupted"]
)
def test_a_shared_run_leaves_its_helper_idle_or_gone(request, monkeypatch, helper, forks, ending):
    if ending == "late":
        request.getfixturevalue("late_helper")
    else:
        request.getfixturevalue("parent_blocks")
    pid, block = os.getpid(), engine._block

    def ends(*args):
        here = os.getpid() == pid
        if ending == "helper fails" and not here or ending == "parent fails" and here:
            raise ValueError("a failing block")
        if ending == "interrupted" and here:
            raise KeyboardInterrupt
        return block(*args)

    monkeypatch.setattr(engine, "_block", ends)
    scenario = Scenario(num_paths=40)
    with _small_blocks(scenario, 4), contextlib.suppress(ValueError, KeyboardInterrupt):
        run_scenario(scenario)
    [served] = forks
    if ending == "normal":
        assert _helper._helper.pid == served
        assert not _helper._readable(_helper._helper.rows)
        assert not _helper._readable(_helper._helper.claims_r)
    else:
        assert _helper._helper is None
        with pytest.raises(ChildProcessError):  # killed and reaped
            os.waitpid(served, os.WNOHANG)


def test_the_helper_module_imports_nothing_of_the_package():
    tree = ast.parse(pathlib.Path(_helper.__file__).read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += ["." * node.level + (node.module or "") for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert "os" in imported
    assert [name for name in imported if name.startswith((".", "pensionsim"))] == []


def _squares():
    # a job that is a plain function: block i's one row is i squared, 8 bytes
    row = bytearray(8)

    def compute(index):
        row[:] = (index * index).to_bytes(8, "little")

    return compute, lambda index: [row]


def test_the_helper_serves_a_job_that_gives_compute_and_rows():
    fds = [fd for _ in range(3) for fd in os.pipe()]
    commands_r, commands_w, claims_r, claims_w, rows_r, rows_w = fds
    blocks = [_helper._int_bytes(i) + (i * i).to_bytes(8, "little") for i in range(3)]
    expected = b"".join(blocks) + _helper._int_bytes(_helper._END)
    try:
        message = pickle.dumps((_squares, 3))
        os.write(commands_w, _helper._int_bytes(len(message)) + message)
        os.close(fds.pop(1))  # commands_w: the helper's read of the next job finds it closed
        os.write(claims_w, b"".join(map(_helper._int_bytes, [0, 1, 2, _helper._END])))
        with pytest.raises(EOFError):
            _helper._serve(commands_r, claims_r, rows_w)
        assert _helper._read(rows_r, len(expected)) == expected
        assert not _helper._readable(rows_r)
    finally:
        for fd in fds:
            os.close(fd)


def test_an_interrupted_run_stops_its_helper(monkeypatch, helper, forks):
    pid, block, computed = os.getpid(), engine._block, []
    second_r, second_w = os.pipe()  # written as this process starts its second block

    def interrupted(*args):
        if os.getpid() != pid:  # the helper holds its first block until then, so
            assert _helper._readable(second_r, 30.0)  # this process gets a second
        elif computed:
            os.write(second_w, b"x")
            raise KeyboardInterrupt
        computed.append(True)
        return block(*args)

    monkeypatch.setattr(engine, "_block", interrupted)
    scenario = Scenario(num_paths=40)
    try:
        with _small_blocks(scenario, 4), pytest.raises(KeyboardInterrupt):
            run_scenario(scenario)
    finally:
        os.close(second_r)
        os.close(second_w)
    assert _helper._helper is None
    with pytest.raises(ChildProcessError):  # killed and reaped
        os.waitpid(forks[0], os.WNOHANG)


def test_one_usable_cpu_or_a_second_thread_keeps_a_run_serial(monkeypatch):
    monkeypatch.setattr(_helper, "_HELPER_BLOCKS", 1)
    monkeypatch.setattr(_helper, "_PATIENCE", _PATIENT)  # the helper, however late, is kept
    scenario = Scenario(num_paths=40)
    with _small_blocks(scenario, 4):
        with mock.patch.object(os, "sched_getaffinity", lambda pid: {0}):
            assert _equals_run_path(run_scenario(scenario))
        assert _helper._helper is None
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert _equals_run_path(run_scenario(scenario))
        finally:
            stop.set()
            thread.join()
        assert _helper._helper is None
        if len(os.sched_getaffinity(0)) >= 2:
            run_scenario(scenario)
            # the helper left this process's CPU and may run on all of them again
            assert os.sched_getaffinity(_helper._helper.pid) == os.sched_getaffinity(0)


def test_a_forked_child_does_not_use_its_parents_helper(helper):
    scenario = Scenario(num_paths=40)
    with _small_blocks(scenario, 4):
        expected = _bits(records(run_scenario(scenario).outcomes))
        ours = _helper._helper
        pid = os.fork()
        if pid == 0:  # the child: exit 0 when it forgot the helper and forked its own
            code = 1
            try:
                forgot = _helper._helper is None
                got = _bits(records(run_scenario(scenario).outcomes))
                if forgot and got == expected and _helper._helper.pid != ours.pid:
                    code = 0
                _helper._stop_helper()
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert _helper._helper is ours
        assert _bits(records(run_scenario(scenario).outcomes)) == expected


def test_the_fork_warning_of_newer_pythons_is_ignored(monkeypatch, helper):
    # Python 3.12+ warns so whenever the process has another OS thread, as
    # numpy's BLAS pool is; the warning filter of the tests makes it an error
    fork = os.fork

    def warning_fork():
        warnings.warn(
            f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead "
            "to deadlocks in the child.", DeprecationWarning, stacklevel=2,
        )
        return fork()

    monkeypatch.setattr(os, "fork", warning_fork)
    scenario = Scenario(num_paths=40)
    with _small_blocks(scenario, 4):
        assert _equals_run_path(run_scenario(scenario))
    assert _helper._helper is not None


_RUN_AND_EXIT = """
from pensionsim import Scenario, _helper, run_scenario

_helper._helper_usable = lambda: True
_helper._PATIENCE = 1e4  # the helper, however late, is kept
run_scenario(Scenario(num_paths=10_000))
print(_helper._helper.pid)
"""


def test_a_process_reaps_its_helper_when_it_exits():
    done = subprocess.run(
        [sys.executable, "-c", _RUN_AND_EXIT],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    with pytest.raises(ProcessLookupError):
        os.kill(int(done.stdout), 0)

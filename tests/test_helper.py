"""The helper process: a run's blocks shared with a forked helper give the serial bits.

Each test here lowers the helper's block threshold to one block and treats
the machine as if it had two usable CPUs (the `helper` fixture), so that
small runs split into small blocks (`_small_blocks`) are shared.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from unittest import mock

import pytest

from pensionsim import engine, stochastic
from pensionsim.engine import Scenario, run_path, run_scenario, sweep
from pensionsim.io_cli import cli_main
from records import records
from test_engine import _bits, _small_blocks
from test_golden import RUN_GOLDEN, SWEEP_GOLDEN, _digests

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the helper is a forked process")


@pytest.fixture
def helper(monkeypatch):
    """Every run of the test shares its blocks with the helper."""
    monkeypatch.setattr(engine, "_HELPER_BLOCKS", 1)
    monkeypatch.setattr(engine, "_helper_usable", lambda: True)


_PATIENCE = engine._PATIENCE


@pytest.fixture
def parent_blocks(monkeypatch):
    """The first path of each block this process computes. It waits 5 ms
    before each, so that the helper claims some of every run's blocks, and
    waits for the helper's blocks however late they come on a busy machine."""
    monkeypatch.setattr(engine, "_PATIENCE", 1e4)
    firsts, pid, block = [], os.getpid(), engine._block

    def waiting(scenarios, stage, first, *args):
        if os.getpid() == pid:
            firsts.append(first)
            time.sleep(0.005)
        return block(scenarios, stage, first, *args)

    monkeypatch.setattr(engine, "_block", waiting)
    return firsts


def _serial():
    return mock.patch.object(engine, "_helper_usable", lambda: False)


def _blocks(scenario: Scenario) -> int:
    paths, _ = engine._block_layout(scenario)
    return -(-scenario.num_paths // paths)


def _equals_run_path(result) -> bool:
    paths = range(result.scenario.num_paths)
    return _bits(records(result.outcomes)) == _bits(run_path(result.scenario, i) for i in paths)


@pytest.mark.parametrize("special", ["scipy", "port"], indirect=True)
@pytest.mark.parametrize(
    "num_paths, block_paths", [(40, 1), (40, 7), (23, 5)], ids=["1", "7", "short-last-block"]
)
def test_a_shared_run_equals_run_path(helper, parent_blocks, special, num_paths, block_paths):
    scenario = Scenario(num_paths=num_paths, seed=11)
    budget = stochastic._port_left
    with _small_blocks(scenario, block_paths):
        result = run_scenario(scenario)
        assert len(parent_blocks) < _blocks(scenario)  # the helper computed the others
        left = stochastic._port_left
        stochastic._port_left = budget
        with _serial():
            run_scenario(scenario)
    assert left == stochastic._port_left  # the switch is charged as for a serial run
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


@pytest.mark.parametrize("special", ["scipy", "port"], indirect=True)
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
    assert engine._helper is not None


def test_the_helper_takes_its_block_size_from_the_run(helper, parent_blocks):
    scenario = Scenario(num_paths=40)
    with _small_blocks(scenario, 7):
        run_scenario(scenario)  # forks the helper, whose module state has blocks of 7 paths
    pid = engine._helper.pid
    parent_blocks.clear()
    with _small_blocks(scenario, 3):
        result = run_scenario(scenario)
    assert engine._helper.pid == pid
    assert _equals_run_path(result)
    assert len(parent_blocks) < 14 and all(first % 3 == 0 for first in parent_blocks)


@pytest.fixture(params=["helper", "parent"])
def failing_share(request, monkeypatch, helper):
    """The process that computes the blocks of a run: the other computes none.

    "helper": this process claims no block, so a failing block fails in the
    helper, which ends. "parent": the helper ends at the first block it
    claims, before computing it, so a failing block fails here.
    """
    pid = os.getpid()
    if request.param == "helper":
        read = engine._read_int

        def claims_none(fd):
            if os.getpid() == pid and fd == engine._helper.claims_r:
                return engine._END
            return read(fd)

        monkeypatch.setattr(engine, "_read_int", claims_none)
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
def test_a_failing_block_raises_the_serial_runs_error(monkeypatch, failing_share, base, overrides):
    scenario = Scenario(num_paths=40, **base)
    forks = []
    start = engine._start_helper
    monkeypatch.setattr(engine, "_start_helper", lambda: forks.append(start()))

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
        assert engine._helper is None  # stopped by the failure


def test_a_helper_that_ended_between_runs_is_forked_again(helper, parent_blocks):
    scenario = Scenario(num_paths=40)
    with _small_blocks(scenario, 4):
        run_scenario(scenario)
        pid = engine._helper.pid
        os.kill(pid, signal.SIGINT)  # ignored
        parent_blocks.clear()
        assert _equals_run_path(run_scenario(scenario))
        assert engine._helper.pid == pid and len(parent_blocks) < 10
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        parent_blocks.clear()
        assert _equals_run_path(run_scenario(scenario))
    assert engine._helper.pid != pid and len(parent_blocks) < 10


@pytest.mark.parametrize("then", ["released", "killed"])
def test_a_late_helper_holds_up_no_run(monkeypatch, helper, parent_blocks, then):
    # the helper's first block waits until the test writes to `release`
    monkeypatch.setattr(engine, "_PATIENCE", _PATIENCE)
    release_r, release_w = os.pipe()
    pid, block, held = os.getpid(), engine._block, []

    def late(*args):
        if os.getpid() != pid and not held:
            held.append(os.read(release_r, 1))
        return block(*args)

    monkeypatch.setattr(engine, "_block", late)
    scenario = Scenario(num_paths=40)
    try:
        with _small_blocks(scenario, 1):
            assert _equals_run_path(run_scenario(scenario))  # the helper's block computed here
            helper_pid = engine._helper.pid
            assert engine._owed is not None and len(parent_blocks) == 40
            parent_blocks.clear()
            assert _equals_run_path(run_scenario(scenario))  # serial: the helper is busy
            assert engine._helper.pid == helper_pid and len(parent_blocks) == 40
            if then == "killed":
                os.kill(helper_pid, signal.SIGKILL)
                os.waitpid(helper_pid, 0)
            os.write(release_w, b"x")  # releases the helper, or the one forked next
            deadline = time.monotonic() + 60
            while then == "released" and not engine._drained() and time.monotonic() < deadline:
                time.sleep(0.01)
            parent_blocks.clear()
            assert _equals_run_path(run_scenario(scenario))  # shared again
    finally:
        os.close(release_r)
        os.close(release_w)
    assert (engine._helper.pid == helper_pid) == (then == "released")
    assert len(parent_blocks) < 40


def test_an_interrupted_run_stops_its_helper(monkeypatch, helper):
    block = engine._block

    def interrupted(scenarios, stage, first, *args):
        if first:  # this process's second block at the latest
            raise KeyboardInterrupt
        return block(scenarios, stage, first, *args)

    scenario = Scenario(num_paths=40)
    with _small_blocks(scenario, 4):
        run_scenario(scenario)
        pid = engine._helper.pid
        monkeypatch.setattr(engine, "_block", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_scenario(scenario)
    assert engine._helper is None
    with pytest.raises(ChildProcessError):  # killed and reaped
        os.waitpid(pid, os.WNOHANG)


def test_one_usable_cpu_or_a_second_thread_keeps_a_run_serial(monkeypatch):
    monkeypatch.setattr(engine, "_HELPER_BLOCKS", 1)
    scenario = Scenario(num_paths=40)
    with _small_blocks(scenario, 4):
        with mock.patch.object(os, "sched_getaffinity", lambda pid: {0}):
            assert _equals_run_path(run_scenario(scenario))
        assert engine._helper is None
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert _equals_run_path(run_scenario(scenario))
        finally:
            stop.set()
            thread.join()
        assert engine._helper is None
        if len(os.sched_getaffinity(0)) >= 2:
            run_scenario(scenario)
            # the helper left this process's CPU and may run on all of them again
            assert os.sched_getaffinity(engine._helper.pid) == os.sched_getaffinity(0)


def test_a_forked_child_does_not_use_its_parents_helper(helper):
    scenario = Scenario(num_paths=40)
    with _small_blocks(scenario, 4):
        expected = _bits(records(run_scenario(scenario).outcomes))
        ours = engine._helper
        pid = os.fork()
        if pid == 0:  # the child: exit 0 when it forgot the helper and forked its own
            code = 1
            try:
                forgot = engine._helper is None
                got = _bits(records(run_scenario(scenario).outcomes))
                if forgot and got == expected and engine._helper.pid != ours.pid:
                    code = 0
                engine._stop_helper()
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert engine._helper is ours
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
    assert engine._helper is not None


_RUN_AND_EXIT = """
from pensionsim import Scenario, engine, run_scenario

engine._helper_usable = lambda: True
run_scenario(Scenario(num_paths=10_000))
print(engine._helper.pid)
"""


def test_a_process_reaps_its_helper_when_it_exits():
    done = subprocess.run(
        [sys.executable, "-c", _RUN_AND_EXIT],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    with pytest.raises(ProcessLookupError):
        os.kill(int(done.stdout), 0)

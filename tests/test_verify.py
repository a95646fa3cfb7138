"""The suite's run across forked workers: same results as one check at a time, and its failure paths."""

import os
import select
import signal
import threading

import pytest

from celestial import verify

_IDS = [check_id for check_id, _, _ in verify.CHECKS]
_WAIT_S = 60  # a bound on every wait below, so a broken queue fails instead of hanging


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs on any machine, so that a suite of two or more checks forks one worker."""
    assert threading.active_count() == 1, "a live thread turns the workers off"
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


def _handshake_checks(monkeypatch, in_worker, in_parent, count=3):
    """``count`` checks that call ``in_worker(signal_fd)`` in a worker and ``in_parent(wait)`` here.

    This process's first check waits until the worker has taken a check, so
    the worker takes at least one whatever the scheduling.
    """
    parent = os.getpid()
    ready, signal_fd = os.pipe()
    waited = []

    def wait():
        if not waited:
            waited.append(select.select([ready], [], [], _WAIT_S)[0])
        return bool(waited[0])

    def check(seed):
        if os.getpid() != parent:
            in_worker(signal_fd)
        return in_parent(wait)

    checks = tuple((f"check-{k}", f"check number {k}", check) for k in range(count))
    monkeypatch.setattr(verify, "CHECKS", checks)
    return ready, signal_fd


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_the_parallel_suite_equals_each_check_run_alone(seed):
    results = verify.run_checks(seed=seed)
    _assert_no_child_left()
    assert [r.check_id for r in results] == _IDS
    assert results == [verify.run_checks(only=check_id, seed=seed)[0] for check_id in _IDS]


@pytest.mark.parametrize(
    "die, cause",
    [
        (lambda: os._exit(7), "exit status 7"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), f"killed by signal {int(signal.SIGKILL)}"),
    ],
    ids=["exit", "signal"],
)
def test_a_check_that_kills_its_worker_fails_with_the_exit_status(monkeypatch, two_cpus, die, cause):
    def in_worker(signal_fd):
        os.write(signal_fd, b"x")
        die()

    def in_parent(wait):
        return wait(), "ran in the parent"

    ready, signal_fd = _handshake_checks(monkeypatch, in_worker, in_parent)
    try:
        results = verify.run_checks()
    finally:
        os.close(ready)
        os.close(signal_fd)
    _assert_no_child_left()
    assert [r.check_id for r in results] == ["check-0", "check-1", "check-2"]
    (lost,) = [r for r in results if not r.ok]
    assert lost.detail == f"worker process died before reporting: {cause}"
    assert lost.ref == dict((c, ref) for c, ref, _ in verify.CHECKS)[lost.check_id]
    assert [r.detail for r in results if r.ok] == ["ran in the parent"] * 2


def test_results_come_back_from_the_worker(monkeypatch, two_cpus):
    def in_worker(signal_fd):
        os.write(signal_fd, b"x")

    def in_parent(wait):
        wait()
        return True, f"ran in {'the parent' if os.getpid() == parent else 'a worker'}"

    parent = os.getpid()
    ready, signal_fd = _handshake_checks(monkeypatch, in_worker, in_parent)
    try:
        results = verify.run_checks()
    finally:
        os.close(ready)
        os.close(signal_fd)
    _assert_no_child_left()
    assert all(r.ok and r.elapsed_s >= 0 for r in results)
    details = [r.detail for r in results]
    assert "ran in a worker" in details and "ran in the parent" in details


def test_an_interrupted_parent_kills_its_workers(monkeypatch, two_cpus):
    # the worker blocks in its check, and reports if it ever gets past that;
    # the parent leaves on an interrupt
    block, keep_open = os.pipe()
    survived, survived_fd = os.pipe()

    def in_worker(signal_fd):
        os.write(signal_fd, b"x")
        select.select([block], [], [], _WAIT_S)
        os.write(survived_fd, b"x")

    def in_parent(wait):
        if not wait():
            return False, "the worker never took a check"
        raise KeyboardInterrupt

    ready, signal_fd = _handshake_checks(monkeypatch, in_worker, in_parent)
    try:
        with pytest.raises(KeyboardInterrupt):
            verify.run_checks()
    finally:
        for fd in (ready, signal_fd, block, keep_open, survived_fd):
            os.close(fd)
    _assert_no_child_left()
    try:
        assert os.read(survived, 1) == b"", "the worker outlived the interrupt"
    finally:
        os.close(survived)


def test_a_failing_fork_leaves_every_check_to_this_process(monkeypatch, two_cpus):
    forks = []

    def fork():
        forks.append(1)
        raise OSError("no more processes")

    monkeypatch.setattr(os, "fork", fork)
    results = verify.run_checks(seed=0)
    assert forks == [1]
    assert [r.check_id for r in results] == _IDS and all(r.ok for r in results)


def test_a_live_second_thread_means_no_fork(monkeypatch, two_cpus):
    forks = []

    def fork():
        forks.append(1)
        raise OSError("a fork with a live thread")

    monkeypatch.setattr(os, "fork", fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(_WAIT_S,))
    thread.start()
    try:
        results = verify.run_checks(seed=0)
    finally:
        release.set()
        thread.join(_WAIT_S)
    assert not thread.is_alive()
    assert forks == []
    assert [r.check_id for r in results] == _IDS and all(r.ok for r in results)

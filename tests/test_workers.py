"""`workers.run_tasks`, the one fork-and-collect routine, and its rule for how many workers to fork."""

import ast
import marshal
import os
import select
import signal
import threading
from pathlib import Path

import pytest

from celestial import workers
from celestial.workers import run_tasks, worker_count

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "celestial"
_WAIT_S = 60  # a bound on every wait below, so a lost worker fails instead of hanging


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs on any machine, so that two or more tasks fork one worker."""
    assert threading.active_count() == 1, "a live thread turns the workers off"
    _cpus(monkeypatch, 2)


@pytest.fixture
def handshake():
    """(took, wait): the worker calls ``took()`` once it has taken a task, and
    this process calls ``wait()`` once it has.  Each waits for the other: the
    first ``wait()`` returns once the worker has taken a task, and ``took()``
    once this process has, so each takes at least one whatever the scheduling."""
    ready, took_fd = os.pipe()
    here, here_fd = os.pipe()
    waited = []

    def took():
        os.write(took_fd, b"x")
        assert select.select([here], [], [], _WAIT_S)[0], "this process never took a task"

    def wait():
        if not waited:
            os.write(here_fd, b"x")
            assert select.select([ready], [], [], _WAIT_S)[0], "the worker never took a task"
            waited.append(os.read(ready, 1))

    yield took, wait
    for fd in (ready, took_fd, here, here_fd):
        os.close(fd)


def _tasks(parent, in_worker, in_parent):
    """A task that calls ``in_worker()`` in a worker and ``in_parent()`` here, then names where it ran."""
    def run(k):
        if os.getpid() == parent:
            in_parent()
            return k, "here"
        in_worker()
        return k, "worker"

    return run


@pytest.mark.parametrize(
    "cpus, tasks, count",
    [(1, 11, 0), (2, 11, 1), (4, 11, 3), (4, 1, 0), (16, 3, 2), (4, 0, 0), (300, 1000, 255)],
)
def test_one_worker_per_further_usable_cpu(monkeypatch, cpus, tasks, count):
    _cpus(monkeypatch, cpus)
    assert worker_count(tasks) == count


def test_values_come_back_keyed_by_task_from_here_and_from_a_worker(two_cpus, handshake):
    took, wait = handshake
    values, lost = run_tasks(_tasks(os.getpid(), took, wait), 3)
    _assert_no_child_left()
    assert lost == {}
    assert sorted(values) == [0, 1, 2] and all(values[k][0] == k for k in values)
    assert {where for _, where in values.values()} == {"here", "worker"}


@pytest.mark.parametrize(
    "die, code",
    [(lambda: os._exit(7), 7), (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL)],
    ids=["exit", "signal"],
)
def test_a_task_whose_worker_dies_is_lost_with_its_wait_status(two_cpus, handshake, die, code):
    took, wait = handshake
    values, lost = run_tasks(_tasks(os.getpid(), lambda: (took(), die()), wait), 3)
    _assert_no_child_left()
    assert len(lost) == 1 and sorted([*values, *lost]) == [0, 1, 2]
    assert [os.waitstatus_to_exitcode(status) for status in lost.values()] == [code]
    assert all(values[k] == (k, "here") for k in values)


def test_a_record_cut_short_is_lost(monkeypatch, two_cpus, handshake):
    # a worker that takes a task, sends part of its value and exits 0
    took, wait = handshake

    def work(queue, report, run):
        k = os.read(queue, 1)[0]
        os.write(report, marshal.dumps(k) + marshal.dumps((k, "worker" * 100))[:50])
        took()
        os._exit(0)

    monkeypatch.setattr(workers, "_work", work)
    values, lost = run_tasks(_tasks(os.getpid(), None, wait), 3)
    _assert_no_child_left()
    assert len(lost) == 1 and list(lost.values()) == [0]
    assert sorted([*values, *lost]) == [0, 1, 2]


def test_a_task_taken_but_never_numbered_is_lost(monkeypatch, two_cpus, handshake):
    # a worker that dies between taking a task and sending its number
    took, wait = handshake

    def work(queue, report, run):
        os.read(queue, 1)
        took()
        os._exit(9)

    monkeypatch.setattr(workers, "_work", work)
    values, lost = run_tasks(_tasks(os.getpid(), None, wait), 3)
    _assert_no_child_left()
    assert len(lost) == 1 and sorted([*values, *lost]) == [0, 1, 2]
    assert [os.waitstatus_to_exitcode(status) for status in lost.values()] == [9]


@pytest.mark.parametrize("count", [0, 1])
def test_no_task_or_one_forks_nothing(monkeypatch, two_cpus, count):
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)
    assert run_tasks(lambda k: k * 10, count) == ({k: k * 10 for k in range(count)}, {})


def test_more_cpus_than_task_numbers_run_here_when_the_fork_fails(monkeypatch):
    # 300 CPUs would ask for more task numbers than one byte holds; the fork
    # fails, so no process starts and this process runs all 256 tasks
    forks = []

    def fork():
        forks.append(1)
        raise OSError("no more processes")

    _cpus(monkeypatch, 300)
    monkeypatch.setattr(os, "fork", fork)
    count = 1 + worker_count(1000)
    assert run_tasks(lambda k: -k, count) == ({k: -k for k in range(256)}, {})
    assert forks == [1]


def test_an_exception_here_kills_and_reaps_the_workers(two_cpus, handshake):
    # the worker blocks in its task, and reports if it ever gets past that
    took, wait = handshake
    block, keep_open = os.pipe()
    survived, survived_fd = os.pipe()

    def in_worker():
        took()
        select.select([block], [], [], _WAIT_S)
        os.write(survived_fd, b"x")

    def in_parent():
        wait()
        raise KeyboardInterrupt

    try:
        with pytest.raises(KeyboardInterrupt):
            run_tasks(_tasks(os.getpid(), in_worker, in_parent), 3)
    finally:
        for fd in (block, keep_open, survived_fd):
            os.close(fd)
    _assert_no_child_left()
    try:
        assert os.read(survived, 1) == b"", "the worker outlived the exception"
    finally:
        os.close(survived)


_PROCESS_CALLS = {"fork", "_exit", "waitpid", "kill"}


def _process_machinery(tree) -> set[str]:
    """The ``os`` process calls a module reads or imports, and "marshal" if it imports that."""
    found = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in _PROCESS_CALLS
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.add(f"os.{node.attr}")
        elif isinstance(node, ast.Import):
            found |= {a.name for a in node.names if a.name == "marshal"}
        elif isinstance(node, ast.ImportFrom) and node.module == "marshal":
            found.add("marshal")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found |= {f"os.{a.name}" for a in node.names if a.name in _PROCESS_CALLS}
    return found


def test_workers_is_the_only_module_that_forks():
    found = {path.stem: _process_machinery(ast.parse(path.read_text()))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert found.pop("workers") == {"os.fork", "os._exit", "os.waitpid", "os.kill", "marshal"}
    assert {module: names for module, names in found.items() if names} == {}

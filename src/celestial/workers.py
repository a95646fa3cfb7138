"""The one way `verify` and `sample` spread independent tasks over forked workers.

``run_tasks`` runs numbered tasks in this process and in forked workers,
which take the next task number from a shared pipe and report each value
through a pipe of their own.  ``worker_count`` is the rule for how many
workers it forks.  The module imports only modules every interpreter has
loaded at start-up, so that importing the CLI loads no process machinery.
"""

from __future__ import annotations

import marshal
import os
import sys


def worker_count(tasks: int) -> int:
    """The workers to fork for this many tasks: one per usable CPU after the first.

    At most 255, so that the tasks of the workers and of this process
    always fit in ``run_tasks``'s one-byte task numbers.  No worker where
    this process cannot fork, or has another live Python thread, whose
    locks a forked child could inherit held.  ``threading`` is read from
    ``sys.modules``: a process that never imported it has one thread.
    """
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading is not None and threading.active_count() > 1):
        return 0
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(min(cpus or 1, tasks, 256) - 1, 0)


def run_tasks(run, count: int) -> tuple[dict, dict]:
    """Run tasks ``0 .. count - 1`` here and in forked workers: (values, lost).

    The task numbers wait in a pipe, one byte each, so ``count`` is at most
    256.  ``worker_count(count)`` forked workers and this process each take
    the next number as they finish, so the load balances itself.
    ``values`` maps each task to ``run(k)``, which must be a value that
    ``marshal`` accepts.  ``lost`` maps each task whose worker died before
    reporting it, or whose record arrived cut short, to that worker's wait
    status; the caller decides what a lost task becomes.  A failed fork
    leaves the remaining tasks to this process.  On any exception the
    workers are killed and reaped before it propagates.
    """
    queue, feed = os.pipe()
    os.write(feed, bytes(range(count)))
    os.close(feed)
    workers: dict[int, int] = {}  # pid -> read end of its report pipe
    reaped: dict[int, int] = {}  # pid -> wait status
    values: dict = {}
    lost: dict = {}
    try:
        for _ in range(worker_count(count)):
            report, sink = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(report)
                os.close(sink)
                break
            if pid == 0:
                os.close(report)
                _work(queue, sink, run)
            os.close(sink)
            workers[pid] = report
        for k in _take(queue):
            values[k] = run(k)
        died = 0  # the wait status of a worker that died with no numbered task pending
        for pid, report in workers.items():
            taken = _receive(report, values)
            reaped[pid] = os.waitpid(pid, 0)[1]
            if taken is not None:
                lost[taken] = reaped[pid]
            elif reaped[pid]:
                died = reaped[pid]
        # a worker can die between taking a task and sending its number
        lost.update((k, died) for k in range(count) if k not in values and k not in lost)
    except BaseException:
        for pid in workers.keys() - reaped.keys():
            os.kill(pid, 9)  # SIGKILL, without importing signal
        raise
    finally:
        os.close(queue)
        for pid, report in workers.items():
            os.close(report)
            if pid not in reaped:
                os.waitpid(pid, 0)
    return values, lost


def _take(queue: int):
    """The task numbers this process takes from the queue pipe, one byte at a time."""
    while k := os.read(queue, 1):
        yield k[0]


def _work(queue: int, report: int, run) -> None:
    """A forked worker's whole life: run tasks from the queue, report each, exit.

    Each task is reported by two marshal records, its number when taken and
    its value when done.  ``os._exit`` runs no ``atexit`` hook, flushes no
    inherited buffer, an open output file's included, and never returns
    into the caller.
    """
    status = 1
    try:
        with open(report, "wb") as out:
            for k in _take(queue):
                marshal.dump(k, out)
                out.flush()
                marshal.dump(run(k), out)
                out.flush()
        status = 0
    finally:
        os._exit(status)


def _receive(report: int, values: dict) -> int | None:
    """Store a worker's reported values; the task it took but never reported, if any."""
    with open(report, "rb", closefd=False) as stream:
        while True:
            taken = None
            try:
                taken = marshal.load(stream)
                values[taken] = marshal.load(stream)
            except (EOFError, ValueError):  # the pipe's end, or a record cut short
                return taken

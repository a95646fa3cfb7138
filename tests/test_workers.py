"""The one rule for how many workers `verify` and `sample` fork."""

import os

import pytest

from celestial.workers import worker_count


@pytest.mark.parametrize("cpus, checks, workers", [(1, 11, 0), (2, 11, 1), (4, 11, 3), (4, 1, 0), (16, 3, 2)])
def test_one_worker_per_further_usable_cpu(monkeypatch, cpus, checks, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert worker_count(checks) == workers

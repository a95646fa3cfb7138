"""The one rule for how many worker processes to fork, shared by `verify` and `sample`.

It imports only modules every interpreter has loaded at start-up, so that
importing the CLI loads no process machinery.
"""

from __future__ import annotations

import os
import sys


def worker_count(tasks: int) -> int:
    """The workers to fork for this many tasks: one per usable CPU after the first.

    No worker where this process cannot fork, or has another live Python
    thread, whose locks a forked child could inherit held.  ``threading`` is
    read from ``sys.modules``: a process that never imported it has one thread.
    """
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading is not None and threading.active_count() > 1):
        return 0
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(min(cpus or 1, tasks) - 1, 0)

"""Machine-speed probes for rescaling timings to a fixed reference speed.

The benchmark runs on shared virtual machines whose speed drifts: the same
pure-Python Fraction loop was measured taking anywhere from 76 ms to 190 ms
within one 90-second stretch, in phases tens of seconds long.  Such drift
moves the program's timings and those of any other Python code alike, so
the benchmark times a fixed probe of the same kind of work next to the
program, in the same kind of process, and multiplies each timing by
`reference / probe`.  The result reads as the time on a machine where the
probe takes its reference time.  The probes are benchmark code; no change
to the program can change them.

- `probe()` runs in the process that times the operations (Fraction
  elimination steps, the inner loop of the exact core, about 4 ms);
- `PROCESS_PROBE` is a fresh interpreter doing such steps on a few
  megabytes of Fractions (about 0.12 s), timed like the fresh-process
  `verify` runs and set-up probes it rescales.  An in-process probe does
  not track those: it misses what a new process pays for its memory.
"""

from __future__ import annotations

import time
from fractions import Fraction

# times of the two probes on the machine the baseline was recorded on, in a
# quiet period; they only set the scale of the rescaled timings
REFERENCE_S = 0.004
PROCESS_REFERENCE_S = 0.12

PROCESS_PROBE = """
from fractions import Fraction
rows = [[Fraction(i % 11 + 1, (i * j) % 7 + 2) for i in range(48)] for j in range(300)]
lead = rows[0]
for row in rows[1:]:
    f = row[3] / lead[3]
    row[:] = [a - f * b for a, b in zip(row, lead)]
"""


def _elimination_steps():
    row = [Fraction(i % 11 + 1, i % 7 + 2) for i in range(48)]
    lead = [Fraction(i % 5 + 1, i % 3 + 1) for i in range(48)]
    for _ in range(8):
        f = row[3] / lead[3]
        row = [a - f * b for a, b in zip(row, lead)]
    return row


def probe() -> float:
    """Current cost of a fixed unit of Fraction work, in seconds (about 4 ms).

    The least of five timings, so one interrupt does not count as drift.
    """
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(4):
            _elimination_steps()
        best = min(best, time.perf_counter() - t0)
    return best


def rescale(seconds: float, probe_s: float, reference_s: float = REFERENCE_S) -> float:
    """A timing taken while a probe read `probe_s`, at the reference speed."""
    return seconds * reference_s / probe_s

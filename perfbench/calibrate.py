"""A fixed reference kernel that tells how fast the machine runs right now.

The benchmark's host is shared, and its speed drifts: the same operation
took 1.9 s in one half-minute and 3.0 s in another, and the same code ran
a third slower in one hour than in the next.  Averaging inside a run does
not remove a drift that lasts longer than the run.  So the benchmark times
this kernel right before and right after every operation, and scales the
operation's wall time by ``REF_NOMINAL_S`` over the mean of the two kernel
times.  Each kernel time is the median of five
short repetitions, so that one preempted repetition does not skew it.  A
calibrated time reads as seconds on a machine on which the kernel takes
``REF_NOMINAL_S``; the raw wall times are printed and kept in the full
results next to it.

The kernel mixes the two kinds of work the solver does: numpy Godunov steps
for Greenshields' flux on a few thousand cells, and a pure-Python loop.  It
does not import garzfv, so a change to the solver never changes it.

Set-up times are dominated by starting a process and importing, which the
kernel does not track (scaled by it, single set-up times spread more than
raw ones).  Their reference is a fresh interpreter that imports numpy,
timed before and after each set-up and scaled to ``REF_PROCESS_NOMINAL_S``.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# the kernel's median time on the machine the seed-state numbers were
# taken on (README.md); calibrated times are wall times scaled to that speed
REF_NOMINAL_S = 0.012
# the same for a fresh interpreter that imports numpy
REF_PROCESS_NOMINAL_S = 0.16

_REPEATS = 5
_CELLS = 6144
_STEPS = 70
_LOOP = 70_000


def _godunov_steps() -> float:
    x = (np.arange(_CELLS) + 0.5) / _CELLS
    rho = np.where(x < 0.5, 0.8, 0.2)
    speed = 0.0
    for _ in range(_STEPS):
        left, right = rho[:-1], rho[1:]
        demand = np.where(left < 0.5, left * (1.0 - left), 0.25)
        supply = np.where(right > 0.5, right * (1.0 - right), 0.25)
        flux = np.minimum(demand, supply)
        rho[1:-1] -= 0.4 * (flux[1:] - flux[:-1])
        speed = float(np.max(np.abs(1.0 - 2.0 * rho)))
    return speed


def _python_loop() -> int:
    total = 0
    for i in range(_LOOP):
        total += i * i % 7
    return total


def reference_seconds() -> float:
    """Median wall time of a few repetitions of the reference kernel."""
    times = []
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        _godunov_steps()
        _python_loop()
        times.append(time.perf_counter() - t0)
    return sorted(times)[_REPEATS // 2]


def reference_process_seconds() -> float:
    """Wall time of a fresh interpreter that imports numpy and exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - t0


def scale(before: float, after: float,
          nominal: float = REF_NOMINAL_S) -> float:
    """Factor that turns a wall time measured between two reference runs
    into a calibrated time."""
    return 2.0 * nominal / (before + after)

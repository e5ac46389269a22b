"""The machine's momentary speed, sampled beside a benchmark sample.

On the shared 2-core host the benchmark was built on, the same pass of a
workload takes from 1x to 1.6x its fastest time, and the speed changes
within a second as other tenants' load comes and goes.  A median over
samples cannot remove that.  So while a sample runs, the benchmark's parent
process, pinned to the same CPU as the sample, times a fixed kernel every
INTERVAL_S, and an elapsed interval is rescaled to reference seconds: the
time the work would have taken at the speed at which the kernel takes
REF_KERNEL_S.

The probe runs outside the measured process, so the sample's heap and
garbage collector cannot reach it.  Each tick runs the kernel twice and
times only the second pass, so that what the sample left in the core's
caches does not enter the timing either.  The kernel is exact rational
arithmetic from the standard library and uses no code of the package.  The
ticks take about 4% of the CPU; their time is taken out of the interval
before it is rescaled.
"""

from __future__ import annotations

import statistics
import subprocess
import time
from array import array
from fractions import Fraction

INTERVAL_S = 0.005
REF_KERNEL_S = 100e-6  # never change: it fixes the unit of every time metric


def _kernel() -> Fraction:
    x = Fraction(1, 3)
    for i in range(1, 16):
        x = x * Fraction(i, i + 1) + Fraction(1, i)
    return x


class Probe:
    def __init__(self):
        self.at = array("d")  # when a tick started
        self.cost = array("d")  # the timed (second) kernel pass
        self.spent = array("d")  # the whole tick, both passes

    def tick(self) -> None:
        t = time.monotonic()
        _kernel()
        t_warm = time.monotonic()
        _kernel()
        t_end = time.monotonic()
        self.at.append(t)
        self.cost.append(t_end - t_warm)
        self.spent.append(t_end - t)

    def watch(self, proc: subprocess.Popen, timeout: float) -> int:
        """Tick every INTERVAL_S until proc exits; its exit code.  Raises
        subprocess.TimeoutExpired after timeout seconds; proc is killed and
        waited for whenever this returns early."""
        deadline = time.monotonic() + timeout
        try:
            while proc.poll() is None:
                if time.monotonic() > deadline:
                    raise subprocess.TimeoutExpired(proc.args, timeout)
                self.tick()
                time.sleep(INTERVAL_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        return proc.returncode

    def rescale(self, t0: float, t1: float) -> float:
        """Reference seconds of the work done between two time.monotonic()
        readings, the probe's own time excluded."""
        ticks = [i for i, t in enumerate(self.at) if t0 <= t < t1]
        if not ticks:
            return t1 - t0
        busy = t1 - t0 - sum(self.spent[i] for i in ticks)
        return busy * REF_KERNEL_S * statistics.fmean(1 / self.cost[i] for i in ticks)

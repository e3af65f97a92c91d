"""Host-speed reference: fixed work timed next to the ops of a run.

On a 2-vCPU Intel Xeon virtual machine whose cores other tenants share,
the same `discriminate` call took from 450 to 900 us from one second to
the next, in phases lasting minutes.  A fixed piece of work, independent
of gatediscrim and of the seed, is timed once every few ops.  The median
of the samples near an op, divided by the work's nominal time, is the
host's slowdown at that op; op times are divided by it.  The work is
interpreter work in-process (`unit`), or a cold interpreter start for the
cli workload's subprocesses (`cold_start`).
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

# typical times on that machine; only ratios matter
NOMINAL_UNIT_S = 200e-6
NOMINAL_START_S = 75e-3
HALF_WINDOW = 2  # an op's slowdown: median of the 3 samples on each side of its chunk


def unit() -> int:
    """Interpreter work: dict, list and integer operations, no numpy.

    Every op runs through the interpreter loop, so no op changes how warm
    this work finds the caches.  A numpy reference did not have that
    property: with `np.linalg.eigvals` in it, it ran 10-20% faster next to
    ops that called eigvals too, and scaling exaggerated a slowdown
    injected into such ops (raw ratio 1.28, scaled 1.50).
    """
    d: dict[int, int] = {}
    for i in range(1500):
        k = i % 37
        d[k] = d.get(k, 0) + i * i % 7
    return sum(sorted(d.values()))


def cold_start(env, cwd) -> None:
    """A fresh interpreter that does nothing, started the way the cli workload starts one."""
    subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=cwd, capture_output=True,
                   check=True, timeout=120)


class Reference:
    """Timed samples of `units` runs of `work` each; sample c opens chunk c of the ops."""

    def __init__(self, work=unit, nominal_s: float = NOMINAL_UNIT_S, units: int = 1):
        self.work, self.nominal_s, self.units = work, nominal_s, units
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        for _ in range(self.units):
            self.work()
        self.samples.append((time.perf_counter() - t0) / self.units)

    def slowdowns(self) -> list[float]:
        """Per chunk: median of the HALF_WINDOW + 1 samples on each side, over nominal."""
        s, h = self.samples, HALF_WINDOW
        return [
            statistics.median(s[max(0, c - h): c + 2 + h]) / self.nominal_s
            for c in range(len(s) - 1)
        ]

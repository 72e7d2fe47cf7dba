"""Yardsticks of host speed, so that figures from a noisy shared host compare.

On a shared 2-vCPU VM each vCPU flips between a fast and a ~1.5x slower
speed in stretches of 0.5-3 s, and the mix drifts over minutes. Two fixed
yardsticks, never changed between commits, measure that:

- the control process (``control.py``): a fresh interpreter that imports
  NumPy and parses a fixed CSV into lists. It runs next to every timed
  process (setup probes, CLI ops), because CLI slowdowns show in process
  start-up and allocation-heavy parsing but not in a tight in-process loop.
- the in-process probe (``probe``): a fixed mix of interpreter and small
  NumPy work, run by the library worker between ops every PROBE_EVERY_S.

Each op's slowdown is the mean of the yardstick samples just before and
after it, over NOMINAL; its latency is reported divided by that slowdown,
and rates use the scaled wall time. The raw figures and the slowdowns go
into the result file too.
"""

from __future__ import annotations

import time

CONTROL_NOMINAL_S = 0.18
PROBE_NOMINAL_S = 0.002
PROBE_EVERY_S = 0.25
CONTROL_CSV_N = 500


def probe() -> float:
    """Seconds for a fixed mix of interpreter and NumPy work."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(12000):
        acc += i * i % 7
    table = {i: str(i) for i in range(3000)}
    acc += sum(len(v) for v in table.values())
    x = np.arange(4096, dtype=np.float64)
    for _ in range(30):
        acc += float((x * x).sum())
    return time.perf_counter() - t0


def control_csv() -> str:
    """The control process's fixed input: CONTROL_CSV_N rows of counts 0..9."""
    return "".join(
        ",".join(str((i * 31 + j * 17) % 10) for j in range(CONTROL_CSV_N)) + "\n"
        for i in range(CONTROL_CSV_N)
    )

"""The control process: fixed work that never changes between commits.

    python perfbench/control.py CSV

Starts an interpreter, imports NumPy, parses CSV into lists of ints, builds
an array and prints its sums as JSON. run.py times it next to every timed
process to measure how fast the host is running right now (hostspeed.py).
"""

import json
import sys

import numpy as np

with open(sys.argv[1], encoding="utf-8") as handle:
    rows = [[int(field) for field in line.split(",")] for line in handle.read().splitlines()]
counts = np.array(rows, dtype=np.uint64)
print(json.dumps({"total": int(counts.sum()), "rows": counts.sum(axis=1).tolist()}))

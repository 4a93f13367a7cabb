"""Time one cold set-up of a workload: imports, frame builds and sensing.

    python3 perfbench/setup_probe.py WORKLOAD SEED SIZE WORKDIR

Prints the seconds from before the first import of numpy and dirframes to
the end of the workload's set-up, which is what a user pays before the first
solve.  run.py starts several of these in fresh interpreters and reports the
median as ``setup_s``.
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import env  # noqa: E402  (pins BLAS threads before numpy loads)

env.require_package()

import workloads  # noqa: E402

name, seed, size, work = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), Path(sys.argv[4])
workloads.WORKLOADS[name].setup(seed, size, work)
print(time.perf_counter() - t0)

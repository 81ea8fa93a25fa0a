"""Time one set-up of a workload in a fresh interpreter.

The clock starts before bipergm is imported and stops once the workload's
inputs are loaded and its model is bound.  Speed bursts (see speed.py) run
just before and after.  Prints the seconds and the mean burst seconds;
`run.py` starts this script several times per run and reports the median
scaled time as `setup_s`.

    python3 perfbench/setup_time.py <workload> <seed> <work-dir>
"""

import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.speed import burst_seconds  # noqa: E402

bursts = [burst_seconds() for _ in range(5)]
start = time.perf_counter()

from perfbench import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), Path(sys.argv[3])).setup()
seconds = time.perf_counter() - start
bursts += [burst_seconds() for _ in range(5)]
print(repr(seconds), repr(statistics.fmean(bursts)))

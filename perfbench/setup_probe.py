"""One set-up in a fresh interpreter, for the benchmark's setup_s.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>

Imports spinscan from the checkout's src/, builds the workload's texture
and passes it through a spintex file, then prints time.monotonic(), the
system-wide clock the parent read just before it started this process.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    WORKLOADS[name](seed).setup(Tracer(), workdir)
    print(time.monotonic())

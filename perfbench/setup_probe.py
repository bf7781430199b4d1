"""One set-up in a fresh interpreter: import todalift, generate a workload's
cases and run the first one.  run.py times several of these for setup_s.
The last line printed holds three timings of the calibration kernel, taken
in this process after the set-up.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import json
import os
import shutil
import sys
import tempfile

import run

if __name__ == "__main__":
    os.makedirs(run.OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="setup_", dir=run.OUT)
    try:
        run.set_up(sys.argv[1], int(sys.argv[2]), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps([run.calibrate() for _ in range(3)]))

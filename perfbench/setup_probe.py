"""Time one set-up in a fresh interpreter and print it in seconds.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Set-up is importing swedge.cli and building the workload's inputs, as the
benchmark does before its timed loop.  The interpreter's own start-up is
excluded; run.py reports it separately as import.interpreter_s.
"""

import shutil
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
start = perf_counter()
import swedge.cli  # noqa: E402,F401  (the import is what is being timed)

WORKLOADS[name](seed, None, workdir).setup()
elapsed = perf_counter() - start
shutil.rmtree(workdir, ignore_errors=True)
print(repr(elapsed))

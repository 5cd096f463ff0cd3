"""Set-up probe, run in a fresh interpreter by run.py.

Imports numpy, scipy.stats and kaehlerlab.cli in that order, builds the jet
tables for the ring sizes given as NU:TOTAL arguments, then prints one JSON
line with the time of each step.  The parent times the whole probe from
process start to that line.

    python3 perfbench/setup_probe.py 2:6 2:8
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
import numpy  # noqa: E402,F401

t1 = time.perf_counter()
import scipy.stats  # noqa: E402,F401

t2 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from kaehlerlab import cli  # noqa: E402,F401
from kaehlerlab.jets import project_head, seed_variable  # noqa: E402

t3 = time.perf_counter()
for arg in sys.argv[1:]:
    nu, total = (int(x) for x in arg.split(":"))
    for n in (nu, total):
        x = seed_variable(0, 0.5, n)
        x = x * x
        for var in range(n):
            x.derivative(var)
    project_head(seed_variable(0, 0.5, total), nu)
t4 = time.perf_counter()

print(json.dumps({
    "import_numpy_s": t1 - t0,
    "import_scipy_stats_s": t2 - t1,
    "import_kaehlerlab_s": t3 - t2,
    "jet_tables_s": t4 - t3,
}), flush=True)

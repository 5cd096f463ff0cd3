"""The cases outside the catalog, defined once in tools/parity.py (which
takes the Segre quadric from perfbench/workloads.py) and loaded by path."""

import importlib.util
from pathlib import Path

_PARITY = Path(__file__).resolve().parents[1] / "tools" / "parity.py"


def _load():
    spec = importlib.util.spec_from_file_location("tools_parity", _PARITY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {case.name: case for case in module.extra_cases()}


_EXTRA = _load()
#: CP1 x CP1 in CP3 (m = 2), the benchmark's surface_m2 case.
SEGRE = _EXTRA["segre_cp1xcp1"]
#: The quadric Q3 in CP4 and a flat cubic threefold in C4 (m = 3).
QUADRIC_Q3 = _EXTRA["quadric_q3"]
CUBIC_THREEFOLD = _EXTRA["cubic_threefold_c4"]

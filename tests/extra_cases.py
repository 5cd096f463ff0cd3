"""The cases outside the catalog: those of tools/parity.py (which takes the
Segre quadric from perfbench/workloads.py), loaded by path, and the cubic
surface that only the tests run."""

import importlib.util
from pathlib import Path

from kaehlerlab import ambient as amb
from kaehlerlab import submanifold as sm

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


def _chart_cubic_surface(z):
    return [z[0], z[1], z[0] * z[0] * z[1] + z[1] * z[1] * z[1]]


#: A non-parallel surface in C3 (m = 2, flat).
CUBIC_SURFACE = sm.ImmersionCase(
    "cubic_graph_c3", 2, amb.flat(3), _chart_cubic_surface,
    ((-1.0, 1.0),) * 4, sm.GENERIC,
)

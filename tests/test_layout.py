"""The package holds what a run executes.

Every module-level function and class method under ``src/kaehlerlab`` must
be entered by a run, or sit on ``ALLOWED`` with the reason it stays.  The
references that only tests call live in ``tests/oracles.py``.
"""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import kaehlerlab

TESTS = Path(__file__).resolve().parent
PACKAGE = Path(kaehlerlab.__file__).resolve().parent

#: Defined but not entered by the run, each with the reason it stays.
ALLOWED = {
    "jets.project_head": "perfbench/setup_probe.py times it",
    "jets._project_table": "project_head's table",
    "jets.seed_variable": "perfbench/setup_probe.py seeds its rings with it",
    "jets.Jet.derivative": "perfbench times it and counts its calls",
    "ambient.christoffel_from_metric":
        "perfbench/tracing.py spans it; the tests' metric-route reference",
    "jets.Jet.__truediv__": "rational charts divide; no catalog chart does",
    "jets.Jet.__rtruediv__": "rational charts divide; no catalog chart does",
    "jets.Jet.__eq__": "jets compare by coefficients, not by identity",
    "jets.Jet.__repr__": "jets print readably in tracebacks and sessions",
    "submanifold.PathDisagreementError.__init__":
        "raised only when two routes disagree, which a working run never does",
    "submanifold.sectional_curvature": "demos/demo_veronese.py prints it",
}

#: The run, in a fresh interpreter: the profiler is set before the package
#: is imported, so calls made at import and lazily built tables count too.
#: ``kaehlerlab run --points 1 --tol eq_2_14=1e-8``, the text format (set
#: in a config file), ``list``, and one Segre point through ``cli.run_case``.
_RUN = r"""
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout

entered = set()


def record(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


previous = sys.getprofile()
sys.setprofile(record)
try:
    from kaehlerlab import cli, submanifold
    from extra_cases import SEGRE

    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()):
        text = os.path.join(tmp, "text.json")
        with open(text, "w") as fh:
            json.dump({"points": 1, "format": "text"}, fh)
        cli.main(["run", "--points", "1", "--tol", "eq_2_14=1e-8"])
        cli.main(["run", "--config", text])
        cli.main(["list"])
    cli.run_case(SEGRE, cli.RunConfig(points=1), len(submanifold.CATALOG))
finally:
    sys.setprofile(previous)
print(json.dumps(sorted({(code.co_filename, code.co_firstlineno)
                         for code in entered})))
"""


def _functions(obj):
    """The Python functions behind a module or class attribute: plain,
    cached, static, class or property accessors."""
    obj = getattr(obj, "__func__", obj)
    if isinstance(obj, property):
        found = [obj.fget, obj.fset, obj.fdel]
    else:
        found = [getattr(obj, "__wrapped__", obj)]
    return [f for f in found if inspect.isfunction(f)]


def defined() -> dict:
    """``module.name`` or ``module.Class.name`` -> (file, first line) of
    every module-level function and class method the package defines."""
    out = {}
    for info in pkgutil.iter_modules(kaehlerlab.__path__):
        module = importlib.import_module(f"kaehlerlab.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = (vars(obj).items() if inspect.isclass(obj)
                       else [(None, obj)])
            for attr, member in members:
                for fn in _functions(member):
                    code = fn.__code__
                    if Path(code.co_filename).resolve().parent != PACKAGE:
                        continue  # generated, e.g. a dataclass __init__
                    label = ".".join(
                        x for x in (info.name, name, attr) if x is not None)
                    out[label] = (Path(code.co_filename).name,
                                  code.co_firstlineno)
    return out


def entered() -> set:
    """(file, first line) of every package function the run enters."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent), str(TESTS)])}
    proc = subprocess.run([sys.executable, "-c", _RUN], env=env,
                          capture_output=True, text=True, check=True)
    return {(Path(name).name, line) for name, line in json.loads(proc.stdout)
            if Path(name).resolve().parent == PACKAGE}


def test_every_function_is_entered_or_allowed():
    functions = defined()
    seen = entered()
    assert len(functions) > 100  # the enumeration found the package
    never = sorted(label for label, key in functions.items()
                   if key not in seen and label not in ALLOWED)
    assert not never, f"defined, not entered by a run, not allowed: {never}"
    stale = sorted(label for label in ALLOWED
                   if label not in functions or functions[label] in seen)
    assert not stale, f"allowed but entered or gone: {stale}"

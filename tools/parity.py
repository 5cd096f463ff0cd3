"""Field-by-field parity of two checkouts of kaehlerlab.

    python tools/parity.py BASE_DIR CHANGED_DIR [--points N]

Each checkout's ``src/`` runs in its own subprocess (this file with
``--emit``), which evaluates:

- the default ``kaehlerlab run`` (every catalog case, seed 42), with its exit
  code;
- the cases outside the catalog (``extra_cases``) through ``cli.run_case``:
  the Segre quadric CP1 x CP1 in CP3 (m = 2) of ``perfbench/workloads.py``,
  the quadric Q3 in CP4 and a flat cubic threefold in C4 (m = 3);
- the ``ExtrinsicData`` of every point those runs sample.

The two outputs are then paired leaf by leaf.  Each line of the table is one
field, with list indices, case names and check ids dropped
(``report.cases[].points[].checks[].residual``):
how many values it holds, how many of its non-float values differ (a
float on one side and null on the other counts as differing), and the
worst ``normalized_residual`` |a - b| / (1 + max(|a|, |b|)) of its float
values.  An ``ExtrinsicData`` array is compared as a whole, with its largest
entries in that formula.  The exit code is 0 when no non-float value differs
and every residual is within ``TOL`` (1e-12), and 1 otherwise.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

TOL = 1e-12

ROOT = Path(__file__).resolve().parents[1]


def extra_cases():
    """The cases outside the catalog, as ``ImmersionCase`` objects: the
    benchmark's Segre quadric, and the m = 3 cases, which the tests also run
    (they load this file by path).  The quadric Q3 in CP4 is a parallel
    Kaehler hypersurface (cf. Nakagawa and Takagi 1976)."""
    from kaehlerlab import ambient, submanifold as sm

    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look themselves up
    spec.loader.exec_module(workloads)

    def quadric_q3(z):
        return [z[0], z[1], z[2], z[0] * z[1] + z[2] * z[2] * 0.5]

    def cubic_threefold(z):
        return [z[0], z[1], z[2], z[0] * z[1] * z[2] + z[2] * z[2] * 0.5]

    return [
        workloads.SEGRE,
        sm.ImmersionCase("quadric_q3", 3, ambient.fubini_study(4.0, 4),
                         quadric_q3, ((-0.5, 0.5),) * 6, sm.PARALLEL),
        sm.ImmersionCase("cubic_threefold_c4", 3, ambient.flat(4),
                         cubic_threefold, ((-1.0, 1.0),) * 6, sm.GENERIC),
    ]


def emit(points: int) -> dict:
    """Everything one checkout produces, as a JSON-ready tree."""
    import dataclasses

    import kaehlerlab
    from kaehlerlab import cli, submanifold as sm

    config = cli.RunConfig(points=points)
    code, report = cli.run(config)
    out = {"source": kaehlerlab.__file__, "exit_code": code, "report": report,
           "extra": {}, "extrinsic": {}}
    cases = list(sm.CATALOG) + extra_cases()
    for index, case in enumerate(cases):
        if index >= len(sm.CATALOG):
            case_report, failed, mismatched = cli.run_case(case, config, index)
            out["extra"][case.name] = {"report": case_report, "failed": failed,
                                       "mismatched": mismatched}
        per_point = []
        for u in cli.sample_points(case, points, config.seed, index):
            try:
                data = sm.extrinsic_data(case, u)
            except (sm.DegeneratePointError, sm.FrameConstructionError,
                    sm.PathDisagreementError) as exc:
                per_point.append({"skipped": type(exc).__name__})
                continue
            values = {f.name: getattr(data, f.name)
                      for f in dataclasses.fields(data)}
            per_point.append({
                name: value.tolist() if isinstance(value, np.ndarray) else value
                for name, value in values.items()})
        out["extrinsic"][case.name] = per_point
    return out


def run_checkout(root: Path, points: int) -> dict:
    """``emit`` in a fresh interpreter that imports ``root/src``."""
    src = (root / "src").resolve()
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--emit",
         "--points", str(points)],
        env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: emitting failed\n{proc.stderr}")
    out = json.loads(proc.stdout)
    if not Path(out["source"]).resolve().is_relative_to(src):
        raise RuntimeError(f"{root}: imported {out['source']}, not {src}")
    return out


def _leaves(tree, path=""):
    """(path, value) for every leaf of a JSON tree; paths keep list indices."""
    if isinstance(tree, dict):
        for key in sorted(tree):
            yield from _leaves(tree[key], f"{path}.{key}" if path else key)
    elif isinstance(tree, list):
        for k, value in enumerate(tree):
            yield from _leaves(value, f"{path}[{k}]")
    else:
        yield path, tree


def _field(path: str) -> str:
    """A leaf's field: its path with list indices, case names and check ids
    dropped."""
    path = re.sub(r"\[\d+\]", "[]", path)
    path = re.sub(r"^extra\.[^.]+\.", "extra[].", path)
    return re.sub(r"max_residual_per_check\.\w+", "max_residual_per_check[]",
                  path)


def _residual(a, b) -> float:
    """normalized_residual of two floats or arrays; NaN on both sides counts
    as equal, and arrays of different shapes give inf."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    if a.shape != b.shape:
        return math.inf
    both_nan = np.isnan(a) & np.isnan(b)
    a, b = np.where(both_nan, 0.0, a), np.where(both_nan, 0.0, b)
    top = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0))
    return float(np.abs(a - b).max(initial=0.0) / (1.0 + top))


class _Field:
    """What one field (list indices dropped) holds on the two sides."""

    def __init__(self):
        self.count = 0
        self.differ = 0
        self.worst = None

    def add(self, a, b, residual=None):
        self.count += 1
        if residual is None and isinstance(a, float) and isinstance(b, float):
            residual = _residual(a, b)
        if residual is None:
            self.differ += a != b
        else:
            self.worst = residual if self.worst is None else max(self.worst,
                                                                  residual)


def compare(base: dict, changed: dict) -> dict:
    """Field path -> _Field over the two emitted trees."""
    table = defaultdict(_Field)
    missing = "<missing>"

    def add_leaves(a_tree, b_tree, prefix):
        a_leaves = dict(_leaves(a_tree, prefix))
        b_leaves = dict(_leaves(b_tree, prefix))
        for path in sorted(a_leaves.keys() | b_leaves.keys()):
            table[_field(path)].add(
                a_leaves.get(path, missing), b_leaves.get(path, missing))

    def runs(tree):
        return {k: v for k, v in tree.items() if k not in ("source", "extrinsic")}

    add_leaves(runs(base), runs(changed), "")
    # ExtrinsicData, per field over every case and point: arrays compared
    # whole, other fields leaf by leaf.
    for case in sorted(base["extrinsic"].keys() | changed["extrinsic"].keys()):
        a_points = base["extrinsic"].get(case, [])
        b_points = changed["extrinsic"].get(case, [])
        for k in range(max(len(a_points), len(b_points))):
            a = a_points[k] if k < len(a_points) else {}
            b = b_points[k] if k < len(b_points) else {}
            for name in sorted(a.keys() | b.keys()):
                va, vb = a.get(name, missing), b.get(name, missing)
                if isinstance(va, list) and isinstance(vb, list):
                    table[f"extrinsic.{name}"].add(va, vb, _residual(va, vb))
                else:
                    add_leaves({name: va}, {name: vb}, "extrinsic")
    return dict(table)


def render(table: dict) -> tuple:
    """The table as text, and whether parity holds."""
    width = max(len(path) for path in table)
    lines = [f"{'field':<{width}}  {'values':>7}  {'differ':>6}  worst residual"]
    ok = True
    for path in sorted(table):
        f = table[path]
        worst = "-" if f.worst is None else f"{f.worst:.3e}"
        flag = ""
        if f.differ or (f.worst is not None and not f.worst <= TOL):
            ok, flag = False, "  <-"
        lines.append(f"{path:<{width}}  {f.count:>7}  {f.differ:>6}  "
                     f"{worst}{flag}")
    lines.append(("parity holds" if ok else "parity fails")
                 + f" (tolerance {TOL:g})")
    return "\n".join(lines) + "\n", ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("checkouts", nargs="*", type=Path,
                   help="BASE_DIR CHANGED_DIR: two checkouts to compare")
    p.add_argument("--points", type=int, default=25,
                   help="points per case (default 25, as `kaehlerlab run`)")
    p.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.emit:
        json.dump(emit(args.points), sys.stdout)
        return 0
    if len(args.checkouts) != 2:
        p.error("give two checkout directories")
    base, changed = (run_checkout(root, args.points) for root in args.checkouts)
    text, ok = render(compare(base, changed))
    sys.stdout.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

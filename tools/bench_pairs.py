"""Alternating benchmark pairs of two checkouts, and their verdict.

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH.json
        [--workloads W ...] [--pairs 10] [--first-seed 101] [--seconds S]

For each workload and each pair k, the benchmark command of BENCHMARK.json
(``python3 perfbench/run.py``) runs once in each checkout with
``--workload W --seed S --seconds T --trace 0``, seed S = first_seed + k,
the parent first in even pairs and the change first in odd ones.  The run
length T is BENCHMARK.json's ``run_seconds``; ``--seconds`` shortens it
for smoke runs only, since a claim needs the benchmark's own length.

The output file holds every run (its pair, side, seed, which side ran
first, exit code, the environment line and the result object that
``perfbench/run.py`` prints last) and, per workload and end-to-end metric,
each side's median and quartiles (numpy linear percentiles), the pairs the
change wins (ties count for neither side), the parent's quartile spread
and a verdict.  Each workload's summary also holds ``attempted``, each
side's quartiles of the points one run attempted, with no verdict: a run
that calls the workload more often retains more rendered reports, which
moves ``peak_rss_mb``.  The verdicts:

- ``gain``: the change wins at least 9 in 10 of all pairs run and its median
  is better by more than the parent's quartile spread;
- ``regression``: its median is worse than the parent's by more than the
  metric's bound (a fraction of the parent's median);
- ``unresolved``: neither, and the parent's spread is wider than the bound,
  unless every change run reads better than every parent run;
- ``within bound`` otherwise.

The table is printed in the layout of CHANGES.md.  The exit code is 0 when
every run exits 0 and reports ``correct``, and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
#: The least share of all pairs the change must win for a gain.
WIN_SHARE = 0.9


def run_one(checkout: Path, command, workload: str, seed: int,
            seconds: float) -> dict:
    """One benchmark run in ``checkout``: exit code, environment line and
    result object (None where the run printed no such line)."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    parsed = []
    for line in lines[-2:]:
        try:
            parsed.append(json.loads(line))
        except json.JSONDecodeError:
            parsed.append(None)
    environment, result = ([None, None] + parsed)[-2:]
    return {"returncode": proc.returncode, "environment": environment,
            "result": result,
            "stderr": proc.stderr[-2000:] if proc.returncode else ""}


def run_pairs(parent: Path, change: Path, workload: str, pairs: int,
              first_seed: int, seconds: float, command) -> list:
    runs = []
    for pair in range(pairs):
        seed = first_seed + pair
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            root = parent if side == "parent" else change
            run = run_one(root, command, workload, seed, seconds)
            runs.append({"pair": pair, "side": side, "seed": seed,
                         "first": order[0], **run})
            print(f"{workload} pair {pair} {side}: "
                  f"{_metric(run, 'points_per_ref_s')}", file=sys.stderr)
    return runs


def _correct(run: dict) -> bool:
    return (run["returncode"] == 0 and run["result"] is not None
            and run["result"].get("correct") is True)


def _metric(run: dict, name: str):
    try:
        return run["result"]["metrics"][name]["value"]
    except (KeyError, TypeError):
        return None


def _attempted(run: dict):
    try:
        return run["result"]["attempted"]
    except (KeyError, TypeError):
        return None


def _quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"n": len(values), "median": float(median), "q1": float(q1),
            "q3": float(q3)}


def summarise(runs: list, metrics: list) -> dict:
    """Per end-to-end metric (BENCHMARK.json entries: name, better, bound),
    both sides' quartiles, the change's wins and the verdict."""
    pairs = sorted({run["pair"] for run in runs})
    out = {}
    for spec in metrics:
        name, sign = spec["name"], 1.0 if spec["better"] == "higher" else -1.0
        by_pair = {p: {} for p in pairs}
        for run in runs:
            value = _metric(run, name)
            if value is not None:
                by_pair[run["pair"]][run["side"]] = value
        sides = {side: [v[side] for v in by_pair.values() if side in v]
                 for side in ("parent", "change")}
        if not (sides["parent"] and sides["change"]):
            out[name] = {"verdict": "missing", "pairs": len(pairs)}
            continue
        parent, change = (_quartiles(sides["parent"]),
                          _quartiles(sides["change"]))
        wins = sum(1 for v in by_pair.values()
                   if len(v) == 2 and sign * (v["change"] - v["parent"]) > 0)
        iqr = parent["q3"] - parent["q1"]
        gain = sign * (change["median"] - parent["median"])
        bound = spec["bound"] * abs(parent["median"])
        if wins >= WIN_SHARE * len(pairs) and gain > iqr:
            verdict = "gain"
        elif -gain > bound:
            verdict = "regression"
        elif iqr > bound and not (
                min(sign * np.array(sides["change"]))
                > max(sign * np.array(sides["parent"]))):
            verdict = "unresolved"
        else:
            verdict = "within bound"
        ratio = (change["median"] / parent["median"] if parent["median"]
                 else None)
        out[name] = {"better": spec["better"], "bound": spec["bound"],
                     "pairs": len(pairs), "parent": parent, "change": change,
                     "change_better_pairs": wins, "parent_iqr": iqr,
                     "median_ratio_change_over_parent": ratio,
                     "verdict": verdict}
    attempted = {side: [_attempted(run) for run in runs
                        if run["side"] == side and _attempted(run) is not None]
                 for side in ("parent", "change")}
    parent, change = (_quartiles(v) if v else None
                      for v in attempted.values())
    out["attempted"] = {
        "pairs": len(pairs), "parent": parent, "change": change,
        "median_ratio_change_over_parent":
            change["median"] / parent["median"]
            if parent and change and parent["median"] else None}
    return out


def _fmt(x: float) -> str:
    return f"{x:.1f}" if abs(x) >= 100 else f"{x:.2f}"


def table(summaries: dict) -> str:
    """Markdown rows: workload, metric, both sides' median [q1, q3], the
    change's wins, the parent's spread and the verdict; the ``attempted``
    row has the medians only."""
    lines = ["| workload | metric | parent | change | change better "
             "| parent IQR | verdict |",
             "| --- | --- | --- | --- | --- | --- | --- |"]

    def cell(q):
        return "-" if q is None else (
            f"{_fmt(q['median'])} [{_fmt(q['q1'])}, {_fmt(q['q3'])}]")

    for workload, summary in summaries.items():
        for name, s in summary.items():
            if s.get("verdict") == "missing":
                lines.append(f"| {workload} | {name} | - | - | - | - "
                             "| missing |")
                continue
            ratio = s["median_ratio_change_over_parent"]
            moved = ("" if ratio is None or abs(ratio - 1) < 0.005
                     else f" ({(ratio - 1) * 100:+.1f} %)")
            judged = ("| - | - | - |" if "verdict" not in s else
                      f"| {s['change_better_pairs']}/{s['pairs']} "
                      f"| {_fmt(s['parent_iqr'])} | {s['verdict']} |")
            lines.append(f"| {workload} | {name} | {cell(s['parent'])} "
                         f"| {cell(s['change'])}{moved} {judged}")
    return "\n".join(lines)


def main(argv=None) -> int:
    bench = json.loads(BENCHMARK.read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--out", type=Path, required=True,
                   help="JSON file for the runs and their summary")
    p.add_argument("--workloads", nargs="+",
                   default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=101)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"],
                   help="run length for smoke runs (default: BENCHMARK.json's)")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    command = bench["command"]
    record = {
        "about": "Alternating benchmark pairs of a parent and a change "
                 "checkout, written by tools/bench_pairs.py, whose docstring "
                 "gives the verdict rule.",
        "command": " ".join(command) + " --workload W --seed S --seconds "
                   f"{args.seconds:g} --trace 0",
        "pairs": args.pairs, "first_seed": args.first_seed,
        "workloads": {},
    }
    summaries = {}
    for workload in args.workloads:
        runs = run_pairs(args.parent, args.change, workload, args.pairs,
                         args.first_seed, args.seconds, command)
        summaries[workload] = summarise(runs, bench["end_to_end"])
        record["workloads"][workload] = {
            "all_correct": all(_correct(run) for run in runs),
            "runs": runs, "summary": summaries[workload]}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(table(summaries))
    ok = all(w["all_correct"] for w in record["workloads"].values())
    print("every run correct" if ok else "some run failed or was not correct")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

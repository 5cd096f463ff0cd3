"""tools/bench_pairs.py: the summary and verdict of canned benchmark pairs."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load():
    spec = importlib.util.spec_from_file_location(
        "tools_bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bp = _load()
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _runs(parent, change, metric="points_per_ref_s", attempted=None):
    """One run per side and pair, the parent first in even pairs; with
    ``attempted``, (parent, change) lists of the points each run attempted."""
    runs = []
    for pair, (a, b) in enumerate(zip(parent, change)):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            value = a if side == "parent" else b
            result = None if value is None else {
                "correct": True,
                "metrics": {metric: {"value": value, "unit": "-"}}}
            if result is not None and attempted is not None:
                result["attempted"] = attempted[side == "change"][pair]
            runs.append({"pair": pair, "side": side, "seed": 101 + pair,
                         "first": order[0], "returncode": 0,
                         "environment": None, "result": result})
    return runs


def _summary(parent, change, metric="points_per_ref_s"):
    spec = [s for s in END_TO_END if s["name"] == metric]
    return bp.summarise(_runs(parent, change, metric), spec)[metric]


def test_quartiles_and_wins():
    parent = [100.0 + k for k in range(10)]
    change = [110.0 + k for k in range(10)]
    change[3] = 100.0  # one pair lost, one tied pair below
    change[4] = 104.0
    s = _summary(parent, change)
    want = np.percentile(parent, [25, 50, 75])
    assert [s["parent"][k] for k in ("q1", "median", "q3")] == list(want)
    assert s["parent"]["n"] == s["change"]["n"] == s["pairs"] == 10
    assert s["change_better_pairs"] == 8  # pair 3 lost, pair 4 tied
    assert s["parent_iqr"] == pytest.approx(4.5)
    # Better by more than the spread, but in only 8 of 10 pairs.
    assert s["verdict"] == "within bound"


def test_gain_needs_nine_in_ten_and_the_spread():
    parent = [100.0 + k for k in range(10)]
    assert _summary(parent, [110.0 + k for k in range(10)])["verdict"] \
        == "gain"
    # Nine wins in ten suffice; eight do not.
    nine = [110.0 + k for k in range(10)]
    nine[0] = 99.0
    assert _summary(parent, nine)["verdict"] == "gain"
    eight = list(nine)
    eight[1] = 99.0
    assert _summary(parent, eight)["verdict"] != "gain"
    # Every pair won, but by less than the parent's quartile spread.
    small = [p + 1.0 for p in parent]
    s = _summary(parent, small)
    assert s["change_better_pairs"] == 10
    assert s["verdict"] == "within bound"


def test_regression_past_the_bound():
    parent = [78.0, 78.2, 77.9, 78.1]
    # peak_rss_mb is lower-better with a 5 % bound.
    assert _summary(parent, [82.5, 82.6, 82.4, 82.5],
                    "peak_rss_mb")["verdict"] == "regression"
    assert _summary(parent, [80.0, 80.1, 79.9, 80.0],
                    "peak_rss_mb")["verdict"] == "within bound"


def test_wide_parent_spread_is_unresolved():
    parent = [0.5, 1.0, 0.5, 1.0, 0.5, 1.0]
    change = [0.6, 0.9, 0.6, 0.9, 0.6, 0.9]
    s = _summary(parent, change, "setup_s")
    assert s["verdict"] == "unresolved"
    # ... unless every change run reads better than every parent run.
    s = _summary(parent, [0.45, 0.4, 0.45, 0.4, 0.45, 0.4], "setup_s")
    assert s["verdict"] == "within bound"


def test_missing_run_counts_as_a_pair_but_no_win():
    parent = [100.0 + k for k in range(10)]
    change = [110.0 + k for k in range(10)]
    change[5] = None
    s = _summary(parent, change)
    assert s["pairs"] == 10 and s["change"]["n"] == 9
    assert s["change_better_pairs"] == 9
    assert s["verdict"] == "gain"
    runs = _runs(parent, change)
    assert not all(bp._correct(run) for run in runs)


def test_table_rows():
    summaries = {"surface_m2": bp.summarise(
        _runs([200.0, 202.0, 201.0], [220.0, 221.0, 219.0]),
        [s for s in END_TO_END if s["name"] == "points_per_ref_s"])}
    lines = bp.table(summaries).splitlines()
    assert lines[0].startswith("| workload | metric | parent | change")
    assert lines[2] == ("| surface_m2 | points_per_ref_s "
                        "| 201.0 [200.5, 201.5] | 220.0 [219.5, 220.5] "
                        "(+9.5 %) | 3/3 | 1.00 | gain |")


def test_attempted_points_reported_without_verdict():
    # A faster change calls the workload more often within the run length,
    # and the benchmark retains every rendered report: the points attempted
    # per run are reported beside the metrics, with no verdict.
    runs = _runs([100.0, 101.0, 102.0], [110.0, 111.0, 112.0],
                 attempted=([2000, 2125, 2000], [2250, 2250, 2125]))
    summary = bp.summarise(
        runs, [s for s in END_TO_END if s["name"] == "points_per_ref_s"])
    s = summary["attempted"]
    assert "verdict" not in s and "change_better_pairs" not in s
    assert (s["parent"]["median"], s["change"]["median"]) == (2000, 2250)
    assert s["pairs"] == 3 and s["median_ratio_change_over_parent"] == 1.125
    row = bp.table({"catalog": summary}).splitlines()[-1]
    assert row == ("| catalog | attempted | 2000.0 [2000.0, 2062.5] "
                   "| 2250.0 [2187.5, 2250.0] (+12.5 %) | - | - | - |")
    # Runs without the count leave both sides empty.
    s = bp.summarise(_runs([1.0], [2.0]), [])["attempted"]
    assert s["parent"] is s["change"] is None
    assert bp.table({"w": {"attempted": s}}).splitlines()[-1] == (
        "| w | attempted | - | - | - | - | - |")

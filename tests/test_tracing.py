"""The benchmark's tracer against the program: the names it wraps still exist
and are called where the per-layer metrics expect them."""

import importlib.util
from collections import Counter
from pathlib import Path

from extra_cases import SEGRE

from kaehlerlab import ambient as amb
from kaehlerlab import cli
from kaehlerlab import submanifold as sm

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_segre_point_spans():
    tracing = _load_tracing()
    original = amb.curvature_operator
    with tracing.Tracer() as tracer:
        sm.extrinsic_data(SEGRE, [0.3, -0.2, 0.1, 0.4])
    assert amb.curvature_operator is original
    spans = Counter(span.name for span in tracer.spans)
    # One closed-form call each for the Ricci and the Gauss term.
    assert spans["ambient.curvature_operator"] == 2
    assert spans["ambient.metric"] == 1
    for stage in tracing.STAGES:
        assert spans["submanifold." + tracing.stage_label(stage)] == 1, stage


def test_run_case_spans():
    # A case's head runs once, on all its points: one ambient.metric span
    # per case, then one span per stage for every point.
    tracing = _load_tracing()
    with tracing.Tracer() as tracer:
        report, failed, mismatched = cli.run_case(
            SEGRE, cli.RunConfig(points=3), len(sm.CATALOG))
    assert not failed and not mismatched
    assert all("checks" in point for point in report["points"])
    spans = Counter(span.name for span in tracer.spans)
    assert spans["cli.run_case"] == spans["cli.sample_points"] == 1
    assert spans["ambient.metric"] == 1
    assert spans["submanifold.extrinsic_data"] == 3
    assert spans["identities.run_identity_suite"] == 3
    assert spans["recurrence.classify"] == 1
    for stage in tracing.STAGES:
        assert spans["submanifold." + tracing.stage_label(stage)] == 3, stage
    metric = next(s for s in tracer.spans if s.name == "ambient.metric")
    assert metric.parent.name == "cli.run_case"

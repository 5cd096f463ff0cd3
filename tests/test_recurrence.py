"""Recurrence-form recovery, classification, and theorem verdicts."""

from dataclasses import replace

import numpy as np
import oracles
import pytest
from extra_cases import CUBIC_SURFACE, CUBIC_THREEFOLD, QUADRIC_Q3, SEGRE

from kaehlerlab import ambient as amb
from kaehlerlab import cli
from kaehlerlab import recurrence as rec
from kaehlerlab import submanifold as sm


def data_at(name, u):
    return sm.extrinsic_data(sm.get_case(name), u)


def classify_at(name, u):
    """The classification of one point: the classifier on a stack of one."""
    result, = rec.classify([data_at(name, u)])
    return result


class TestSolveMu:
    def test_parallel_input(self):
        b = np.ones((1, 2, 2, 2))
        nb = np.zeros((1, 2, 2, 2, 2))
        mu, fit = rec.solve_mu(nb, b)
        assert mu.shape == (1, 2) and np.allclose(mu, 0.0)
        assert fit.tolist() == [0.0]

    def test_synthetic_recovery(self):
        # Fabricated recurrent data: nabla_i b := mu_i b must be recovered
        # exactly by the inner-product quotient.
        b = data_at("graph_z2_c2", [0.0, 0.0]).b
        mu_true = np.array([0.3, -1.2])
        nb = np.einsum("i,ajk->iajk", mu_true, b)
        mu, fit = rec.solve_mu(nb[None], b[None])
        assert np.abs(mu[0] - mu_true).max() <= 1e-10
        assert fit[0] <= 1e-12

    def test_scaling_invariance_exact(self):
        rng = np.random.default_rng(3)
        b = rng.normal(size=(1, 2, 2, 2))
        nb = rng.normal(size=(1, 2, 2, 2, 2))
        mu1, fit1 = rec.solve_mu(nb, b)
        # A power-of-two scale keeps the float cancellation exact.
        lam = -4.0
        mu2, fit2 = rec.solve_mu(lam * nb, lam * b)
        assert np.array_equal(mu1, mu2)
        assert np.array_equal(fit1, fit2)

    def test_rows_are_independent(self):
        # A stack with a zero b, a recurrent point and a generic one: each
        # row is fitted on its own, and 0/0 reads as 0.
        rng = np.random.default_rng(5)
        b = rng.normal(size=(3, 2, 2, 2))
        b[0] = 0.0
        nb = rng.normal(size=(3, 2, 2, 2, 2))
        nb[1] = np.einsum("i,ajk->iajk", [0.5, -2.0], b[1])
        mu, fit = rec.solve_mu(nb, b)
        assert np.array_equal(mu[0], [0.0, 0.0])
        assert fit[0] == 1.0
        assert np.abs(mu[1] - [0.5, -2.0]).max() <= 1e-12
        assert fit[1] <= 1e-12
        assert fit[2] > 0.1

    def test_grid_scan_confirms_misfit(self):
        # Independent confirmation for the non-recurrent graph case: no
        # choice of mu on a coarse grid fits better than 0.1.
        d = data_at("graph_z3_c2", [1.0, 0.0])
        nb, b = d.nabla_b, d.b
        den = np.sqrt((nb ** 2).sum())
        best = np.inf
        grid = np.linspace(-5.0, 5.0, 41)
        for m0 in grid:
            for m1 in grid:
                mu = np.array([m0, m1])
                resid = nb - mu[:, None, None, None] * b
                best = min(best, np.sqrt((resid ** 2).sum()) / den)
        assert best > 0.1


class TestClassify:
    def test_linear_totally_geodesic(self):
        result = classify_at("linear_c2", [0.4, 0.8])
        assert result.classification == rec.TOTALLY_GEODESIC

    def test_veronese_parallel(self):
        result = classify_at("veronese_cp2", [0.5, -0.3])
        assert result.classification == rec.PARALLEL
        assert result.mu_norm <= 1e-7

    def test_graph_z3_non_recurrent(self):
        result = classify_at("graph_z3_c2", [1.0, 0.0])
        assert result.classification == rec.NON_RECURRENT
        assert result.fit_residual > 0.1

    @pytest.mark.parametrize("name, u", [
        ("linear_c2", [0.4, 0.8]), ("veronese_cp2", [0.5, -0.3]),
    ])
    def test_no_fit_residual_where_nabla_b_vanishes(self, name, u):
        # |nabla b| is round-off at these points, so the relative fit would
        # be noise; mu is still reported, and read by verify_theorems.
        result = classify_at(name, u)
        assert result.fit_residual is None
        assert result.mu.shape == (2,)
        assert result.mu_norm <= 1e-7

    def test_graph_cases_non_recurrent(self):
        rng = np.random.default_rng(7)
        for name in ["graph_z2_c2", "graph_z3_c2", "graph_c3"]:
            results = rec.classify([data_at(name, rng.uniform(-1, 1, 2))
                                    for _ in range(3)])
            assert [r.classification for r in results] == [
                rec.NON_RECURRENT] * 3, name


def _run_margin_case(name, model, chart, expected_class):
    """Whether ``cli.run_case`` fails the case on 8 points of seed 42, and
    their classifications."""
    case = sm.ImmersionCase(name, 1, model, chart, ((-1.0, 1.0),) * 2,
                            expected_class)
    report, failed, _ = cli.run_case(
        case, cli.RunConfig(points=8, seed=42), len(sm.CATALOG))
    return failed, [point["recurrence"]["classification"]
                    for point in report["points"]]


class TestClassifierMargins:
    """Where the classes switch, with every constant as it is.

    (sqrt(2) z, z^2 + t z^3) in CP^2(4) is the Veronese curve bent by t:
    |nabla b| grows like t and crosses the absolute NABLA_B_ZERO_TOL between
    t = 1e-8 and 1e-7.  On both sides every point also passes the suite and
    the two-path gates, which read the Gauss and Ricci terms of the ambient
    curvature.

    (z, t z^2) in C^2 is graph_z2_c2 up to a homothety, so it is not
    recurrent for any t > 0, yet |b| ~ 4t passes the absolute B_ZERO_TOL
    while |nabla b| ~ t^3 stays under NABLA_B_ZERO_TOL: the flat classes
    are not scale-invariant."""

    @pytest.mark.parametrize("t, expected", [(1e-8, rec.PARALLEL),
                                             (1e-7, rec.NON_RECURRENT)])
    def test_bent_veronese(self, t, expected):
        failed, classes = _run_margin_case(
            "bent_veronese", amb.fubini_study(4.0, 2),
            lambda z: [z[0] * np.sqrt(2.0), z[0] * z[0] + z[0] * z[0] * z[0] * t],
            sm.PARALLEL)
        assert not failed
        assert classes == [expected] * 8

    # At t = 1e-4 and 1e-3 the points read Parallel, and verify_theorems
    # then fails them: a valid generic curve fails the run.
    theorem_defect = (
        "defect: Parallel verdicts on a generic flat curve fail "
        "verify_theorems with 'recurrence form is nonzero' on {} of 8 "
        "points, up to {}")

    @pytest.mark.parametrize("t, expected", [
        (1e-10, rec.TOTALLY_GEODESIC), (1e-9, rec.PARALLEL),
        (1e-5, rec.PARALLEL),
        pytest.param(1e-4, rec.PARALLEL, marks=pytest.mark.xfail(
            strict=True, reason=theorem_defect.format(5, "1.3e-07"))),
        pytest.param(1e-3, rec.PARALLEL, marks=pytest.mark.xfail(
            strict=True, reason=theorem_defect.format(8, "1.3e-05"))),
        (1e-2, rec.NON_RECURRENT),
    ])
    def test_scaled_graph(self, t, expected):
        failed, classes = _run_margin_case(
            "scaled_graph_z2_c2", amb.flat(2),
            lambda z: [z[0], z[0] * z[0] * t], sm.GENERIC)
        assert classes == [expected] * 8
        assert not failed


def verdict_at(name, u):
    data = data_at(name, u)
    result, = rec.classify([data])
    verdict, = rec.verify_theorems([data], [result])
    return data, result, verdict


class TestVerifyTheorems:
    def test_veronese_passes(self):
        _, result, verdict = verdict_at("veronese_cp2", [0.3, 0.6])
        assert set(verdict) == {"applicable", "passed", "failures",
                                "max_shape_determinant"}
        assert verdict["applicable"]
        assert verdict["passed"]
        assert verdict["failures"] == []
        assert result.theorem1_residual <= 1e-7
        assert result.theorem2_residual <= 1e-7
        assert result.norms["r_perp"] >= 0.5
        assert verdict["max_shape_determinant"] > 1e-6

    def test_linear_not_applicable(self):
        _, _, verdict = verdict_at("linear_c2", [0.1, 0.1])
        assert not verdict["applicable"]
        assert verdict["passed"] is None

    def test_non_recurrent_not_applicable(self):
        _, result, verdict = verdict_at("graph_z3_c2", [1.0, 0.0])
        assert not verdict["applicable"]
        assert verdict["failures"] == []
        # The residuals stay on the classification, for information.
        assert result.theorem2_residual > 0.0

    @pytest.mark.parametrize("norms, fields, message", [
        ({"nabla_A": 1e-3}, {}, "shape operators not parallel: "),
        ({}, {"theorem1_residual": 1e-3},
         "normal curvature not parallel: 1.000e-03"),
        ({}, {"theorem2_residual": 1e-3},
         "intrinsic curvature not parallel: 1.000e-03"),
        ({"r_perp": 0.25}, {},
         "normal curvature norm 2.500e-01 below the bound 5.000e-01"),
    ], ids=["shape_operators", "normal_curvature", "intrinsic_curvature",
            "normal_curvature_bound"])
    def test_each_failure_alone(self, norms, fields, message):
        # Each conclusion fails on its own at a veronese_cp2 point whose
        # classification carries one doctored value.
        data, result, clean = verdict_at("veronese_cp2", [0.3, 0.6])
        assert clean["passed"] is True
        bad = replace(result, norms={**result.norms, **norms}, **fields)
        verdict, = rec.verify_theorems([data], [bad])
        assert verdict["applicable"] and verdict["passed"] is False
        assert len(verdict["failures"]) == 1
        assert verdict["failures"][0].startswith(message)


#: (z, 1e-3 z^2) in C^2: Parallel points whose verdicts fail (see
#: TestClassifierMargins), so that failure messages are compared too.
SCALED_GRAPH = sm.ImmersionCase(
    "scaled_graph_z2_c2", 1, amb.flat(2), lambda z: [z[0], z[0] * z[0] * 1e-3],
    ((-1.0, 1.0),) * 2, sm.GENERIC)


def _stack_cases():
    """(case, points): every sampled point of every catalog case, and a few
    of each case outside it."""
    out = [(case, cli.sample_points(case, cli.DEFAULT_POINTS, cli.DEFAULT_SEED,
                                    index))
           for index, case in enumerate(sm.CATALOG)]
    for case in (SEGRE, CUBIC_SURFACE, QUADRIC_Q3, CUBIC_THREEFOLD,
                 SCALED_GRAPH):
        out.append((case, cli.sample_points(case, 4, cli.DEFAULT_SEED,
                                            len(sm.CATALOG))))
    return [pytest.param(case, points, id=case.name) for case, points in out]


def _close(got, want, rel):
    got, want = np.asarray(got, float), np.asarray(want, float)
    scale = max(np.abs(got).max(initial=0.0), np.abs(want).max(initial=0.0))
    return np.abs(got - want).max(initial=0.0) <= rel * scale


class TestStack:
    """The classifier over a case's stack of points against the per-point
    references in ``oracles``, and against each point classified alone."""

    @pytest.mark.parametrize("case, points", _stack_cases())
    def test_matches_per_point_references(self, case, points):
        stack = [sm.extrinsic_data(case, u) for u in points]
        norms = sm.tensor_norms(stack)
        mu, fit = rec.solve_mu(sm.stack_field(stack, "nabla_b"),
                               sm.stack_field(stack, "b"))
        dets = sm.max_shape_operator_determinant(stack)
        results = rec.classify(stack)
        verdicts = rec.verify_theorems(stack, results)
        assert len(results) == len(verdicts) == len(stack)
        for k, data in enumerate(stack):
            want = oracles.tensor_norms(data)
            assert set(norms) == set(want)
            for key, value in want.items():
                assert _close(norms[key][k], value, 1e-14), (key, k)
            mu_k, fit_k = oracles.solve_mu(data.nabla_b, data.b)
            assert _close(mu[k], mu_k, 1e-14) and _close(fit[k], fit_k, 1e-14)
            assert _close(dets[k], oracles.max_shape_operator_determinant(data),
                          1e-14)
            assert results[k].classification == rec._label(
                want["b"], want["nabla_b"], fit_k)
            # The stack of one is the same code: every value is the same.
            alone, = rec.classify([data])
            assert np.array_equal(results[k].mu, alone.mu)
            assert replace(results[k], mu=None) == replace(alone, mu=None)
            assert verdicts[k] == rec.verify_theorems([data], [alone])[0]
        if case is SCALED_GRAPH:
            assert all(v["failures"] for v in verdicts)

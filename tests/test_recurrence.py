"""Recurrence-form recovery, classification, and theorem verdicts."""

import numpy as np
import pytest

from kaehlerlab import ambient as amb
from kaehlerlab import cli
from kaehlerlab import recurrence as rec
from kaehlerlab import submanifold as sm


def data_at(name, u):
    return sm.extrinsic_data(sm.get_case(name), u)


class TestSolveMu:
    def test_parallel_input(self):
        b = np.ones((2, 2, 2))
        nb = np.zeros((2, 2, 2, 2))
        mu, fit = rec.solve_mu(nb, b)
        assert np.allclose(mu, 0.0)
        assert fit == 0.0

    def test_synthetic_recovery(self):
        # Fabricated recurrent data: nabla_i b := mu_i b must be recovered
        # exactly by the inner-product quotient.
        b = data_at("graph_z2_c2", [0.0, 0.0]).b
        mu_true = np.array([0.3, -1.2])
        nb = np.einsum("i,ajk->iajk", mu_true, b)
        mu, fit = rec.solve_mu(nb, b)
        assert np.abs(mu - mu_true).max() <= 1e-10
        assert fit <= 1e-12

    def test_scaling_invariance_exact(self):
        rng = np.random.default_rng(3)
        b = rng.normal(size=(2, 2, 2))
        nb = rng.normal(size=(2, 2, 2, 2))
        mu1, fit1 = rec.solve_mu(nb, b)
        # A power-of-two scale keeps the float cancellation exact.
        lam = -4.0
        mu2, fit2 = rec.solve_mu(lam * nb, lam * b)
        assert np.array_equal(mu1, mu2)
        assert fit1 == fit2

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
        result = rec.classify(data_at("linear_c2", [0.4, 0.8]))
        assert result.classification == rec.TOTALLY_GEODESIC

    def test_veronese_parallel(self):
        result = rec.classify(data_at("veronese_cp2", [0.5, -0.3]))
        assert result.classification == rec.PARALLEL
        assert result.mu_norm <= 1e-7

    def test_graph_z3_non_recurrent(self):
        result = rec.classify(data_at("graph_z3_c2", [1.0, 0.0]))
        assert result.classification == rec.NON_RECURRENT
        assert result.fit_residual > 0.1

    @pytest.mark.parametrize("name, u", [
        ("linear_c2", [0.4, 0.8]), ("veronese_cp2", [0.5, -0.3]),
    ])
    def test_no_fit_residual_where_nabla_b_vanishes(self, name, u):
        # |nabla b| is round-off at these points, so the relative fit would
        # be noise; mu is still reported, and read by verify_theorems.
        result = rec.classify(data_at(name, u))
        assert result.fit_residual is None
        assert result.mu.shape == (2,)
        assert result.mu_norm <= 1e-7

    def test_graph_cases_non_recurrent(self):
        rng = np.random.default_rng(7)
        for name in ["graph_z2_c2", "graph_z3_c2", "graph_c3"]:
            for _ in range(3):
                result = rec.classify(data_at(name, rng.uniform(-1, 1, 2)))
                assert result.classification == rec.NON_RECURRENT, name


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
    theorem_defect = pytest.mark.xfail(strict=True, reason=(
        "defect: Parallel verdicts on a generic flat curve fail "
        "verify_theorems with 'recurrence form is nonzero' (1.3e-07 at "
        "t = 1e-4)"))

    @pytest.mark.parametrize("t, expected", [
        (1e-10, rec.TOTALLY_GEODESIC), (1e-9, rec.PARALLEL),
        (1e-5, rec.PARALLEL),
        pytest.param(1e-4, rec.PARALLEL, marks=theorem_defect),
        pytest.param(1e-3, rec.PARALLEL, marks=theorem_defect),
        (1e-2, rec.NON_RECURRENT),
    ])
    def test_scaled_graph(self, t, expected):
        failed, classes = _run_margin_case(
            "scaled_graph_z2_c2", amb.flat(2),
            lambda z: [z[0], z[0] * z[0] * t], sm.GENERIC)
        assert classes == [expected] * 8
        assert not failed


class TestVerifyTheorems:
    def test_veronese_passes(self):
        data = data_at("veronese_cp2", [0.3, 0.6])
        verdict = rec.verify_theorems(data)
        assert verdict["applicable"]
        assert verdict["passed"]
        assert verdict["failures"] == []
        assert verdict["theorem1_residual"] <= 1e-7
        assert verdict["theorem2_residual"] <= 1e-7
        assert verdict["r_perp_norm"] >= 0.5
        assert verdict["max_shape_determinant"] > 1e-6

    def test_linear_not_applicable(self):
        verdict = rec.verify_theorems(data_at("linear_c2", [0.1, 0.1]))
        assert not verdict["applicable"]
        assert verdict["passed"] is None

    def test_non_recurrent_not_applicable(self):
        verdict = rec.verify_theorems(data_at("graph_z3_c2", [1.0, 0.0]))
        assert not verdict["applicable"]
        # Residuals are still reported for information.
        assert verdict["theorem2_residual"] > 0.0

"""Ambient space models: metric values, Kaehler conditions, curvature."""

import math

import numpy as np
import pytest
from oracles import (
    check_kaehler,
    christoffel,
    closed_form_christoffel,
    curvature_closed_form_tensor,
    curvature_from_connection,
    holomorphic_sectional_curvature,
)

from kaehlerlab import ambient as amb
from kaehlerlab.jets import (
    Jet,
    einsum,
    jet_values,
    multi_indices,
    seed_point,
    stack,
)

MODELS = [
    amb.flat(2),
    amb.flat(3),
    amb.fubini_study(4.0, 2),
    amb.fubini_study(4.0, 3),
]

#: The closed-form connection does not depend on c, so two values of c
#: catch a stray factor of it.
CONNECTION_MODELS = [amb.flat(2), amb.flat(3)] + [
    amb.fubini_study(c, N) for c in (1.0, 4.0) for N in (1, 2, 3)
]


def random_points(model, n, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, size=(n, model.real_dim))


def slot_pairings(g, J, V):
    """P[s, t] = <V_s, V_t> and K[s, t] = <J V_s, V_t> of the slot vectors
    ``V[s, ..., A]``, the input of ``curvature_operator``."""
    V = np.asarray(V, float)
    return (np.einsum("s...A,AB,t...B->st...", V, g, V),
            np.einsum("s...A,AB,t...B->st...", V @ J.T, g, V))


def hermitian_metric(model, x):
    """Fubini-Study from its Hermitian components
    h_ab = k (rho d_ab - wbar_a w_b)/rho^2 (k = 4/c, rho = 1 + |w|^2), split
    into the real blocks [[Re h, Im h], [-Im h, Re h]]: the reference for
    the rank-two form of ``ambient.metric``."""
    N = model.complex_dim
    wr, wi = x[0::2], x[1::2]
    rho = 1.0 + (x * x).sum()
    scale = (rho * rho).reciprocal() * (4.0 / model.c)
    cross_re = wr[:, None] * wr[None, :] + wi[:, None] * wi[None, :]
    cross_im = wr[:, None] * wi[None, :] - wi[:, None] * wr[None, :]
    s_re = (rho * np.eye(N) - cross_re) * scale
    s_im = -cross_im * scale
    G = stack([stack([s_re, s_im], axis=-1), stack([-s_im, s_re], axis=-1)],
              axis=1)
    return Jet(G.n, G.c.reshape(2 * N, 2 * N, -1))


class TestMetricValues:
    def test_flat_identity(self):
        model = amb.flat(2)
        g = jet_values(amb.metric(model, seed_point([0.3, -0.2, 0.9, 0.1])).g)
        assert np.allclose(g, np.eye(4))

    def test_fubini_study_origin(self):
        model = amb.fubini_study(4.0, 2)
        g = jet_values(amb.metric(model, seed_point([0.0] * 4)).g)
        assert np.allclose(g, np.eye(4), atol=1e-14)

    def test_fubini_study_dim1_real_axis(self):
        # At w = 1 with c = 4 the metric shrinks to (1 + |w|^2)^{-2} = 1/4.
        model = amb.fubini_study(4.0, 1)
        g = jet_values(amb.metric(model, seed_point([1.0, 0.0])).g)
        assert np.allclose(g, 0.25 * np.eye(2), atol=1e-14)

    def test_symmetric_positive_definite(self):
        for model in MODELS:
            for x in random_points(model, 5, 11):
                g = jet_values(amb.metric(model, seed_point(x)).g)
                assert np.allclose(g, g.T, atol=1e-14)
                assert np.linalg.eigvalsh(g).min() > 0

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_rank_two_form_matches_hermitian_components(self, N):
        # Values and every partial through order 3.
        for c in (1.0, 4.0):
            model = amb.fubini_study(c, N)
            for x in random_points(model, 5, 43):
                want = hermitian_metric(model, seed_point(x)).c
                got = amb.metric(model, seed_point(x)).g.c
                assert got.shape == want.shape
                assert (np.abs(got - want).max()
                        / (1.0 + np.abs(want).max())) <= 1e-12

    def test_bad_point_length(self):
        with pytest.raises(ValueError):
            amb.metric(amb.flat(2), seed_point([0.0, 0.0]))

    def test_invalid_constructor_arguments(self):
        with pytest.raises(ValueError):
            amb.fubini_study(-1.0, 2)
        with pytest.raises(ValueError):
            amb.flat(0)


class TestLower:
    def test_fubini_study_is_the_einsum(self):
        # Bit for bit einsum("...A,AB->...B", V, g), for jet rows of any
        # leading shape and order, and for float rows; for jet rows also the
        # same spec with the leading axes written out.
        rng = np.random.default_rng(53)
        for model in (amb.fubini_study(4.0, 2), amb.fubini_study(1.0, 3)):
            d = model.real_dim
            metric = amb.metric(model, seed_point(rng.uniform(-1, 1, d)))
            for lead, size, spec in (((), 1, "A,AB->B"),
                                     ((3,), d + 1, "iA,AB->iB"),
                                     ((2, 3), len(multi_indices(d)),
                                      "ijA,AB->ijB")):
                V = Jet(d, rng.standard_normal((*lead, d, size)))
                got = metric.lower(V).c
                assert np.array_equal(
                    got, einsum("...A,AB->...B", V, metric.g).c)
                assert np.array_equal(got, einsum(spec, V, metric.g).c)
            for V in (rng.uniform(-1, 1, d), rng.uniform(-1, 1, (4, d))):
                want = einsum("...A,AB->...B", V, metric.g)
                assert np.array_equal(metric.lower(V).c, want.c)

    def test_flat_is_the_identity(self):
        # No connection on flat space, and lowering returns its rows.
        model = amb.flat(2)
        metric = amb.metric(model, seed_point([0.3, -0.2, 0.9, 0.1]))
        assert metric.connection is None
        assert np.array_equal(jet_values(metric.g), np.eye(4))
        V = seed_point([0.1, 0.2, 0.3, 0.4])
        assert metric.lower(V) is V


class TestStackedMetric:
    @pytest.mark.parametrize("model", [amb.flat(3), amb.fubini_study(4.0, 2),
                                       amb.fubini_study(1.0, 3),
                                       amb.fubini_study(4.0, 10)],
                             ids=lambda m: f"{m.kind}{m.complex_dim}")
    def test_points_match_one_at_a_time(self, model):
        # Chart points on a leading axis are a batch axis of every jet
        # product, so each point's metric, pairing rows and Christoffel
        # values are bit for bit those of the point alone, also at d = 20,
        # where the sum over the chart axis is longest.
        rng = np.random.default_rng(model.real_dim)
        d, n, P = model.real_dim, 3, 5
        x = Jet(n, rng.uniform(-0.5, 0.5, (P, d, math.comb(n + 2, 2))))
        stacked = amb.metric(model, x)
        assert stacked.g.shape == (P, d, d)
        basis = Jet.constant(np.eye(d), n).truncate(0)
        if stacked.connection is not None:
            every = stacked.connection(
                Jet.constant(np.broadcast_to(np.eye(d), (P, d, d)),
                             n).truncate(0), d)
        rows = Jet(n, rng.uniform(-1, 1, (4, d, n + 1)))
        for i in range(P):
            one, at = amb.metric(model, x[i]), stacked.at(i)
            assert at.model == one.model and at.g == one.g
            if one.W is None:
                assert at.W is None and at.connection is None
                continue
            assert at.W == one.W
            assert every[i] == one.connection(basis, d)
            assert at.connection(rows, 2) == one.connection(rows, 2)


class TestComplexStructure:
    def test_pairing_convention(self):
        J = amb.complex_structure(amb.flat(2))
        assert np.allclose(J @ np.array([1.0, 0, 0, 0]), [0, 1, 0, 0])

    def test_j_squared(self):
        for model in MODELS:
            J = amb.complex_structure(model)
            assert np.allclose(J @ J, -np.eye(model.real_dim))

    def test_hermitian_metric(self):
        for model in MODELS:
            J = amb.complex_structure(model)
            for x in random_points(model, 20, 3):
                g = jet_values(amb.metric(model, seed_point(x)).g)
                resid = np.abs(J.T @ g @ J - g).max() / (1 + np.abs(g).max())
                assert resid <= 1e-10


class TestConnection:
    def test_flat_christoffel_vanishes(self):
        model = amb.flat(2)
        G = christoffel(model, seed_point([0.5, 0.1, -0.3, 0.7]))
        assert np.abs(jet_values(G)).max() == 0.0

    def test_torsion_free_exact(self):
        model = amb.fubini_study(4.0, 2)
        G = christoffel(model, seed_point([0.4, -0.2, 0.1, 0.6]))
        d = model.real_dim
        for C in range(d):
            for A in range(d):
                for B in range(d):
                    assert G[C, A, B] == G[C, B, A]

    def test_closed_form_matches_metric_route(self):
        for model in CONNECTION_MODELS:
            for x in random_points(model, 5, 37):
                want = jet_values(christoffel(model, seed_point(x)))
                got = closed_form_christoffel(model, x)
                assert np.abs(got - want).max() <= 1e-12

    def test_closed_form_on_jets(self):
        # Evaluated on a seeded point, the closed form carries the same
        # derivatives as the metric route; the latter is exact through
        # degree 2 (one order is spent differentiating the metric).
        for model in CONNECTION_MODELS[2:]:
            d = model.real_dim
            n2 = len([a for a in multi_indices(d) if sum(a) <= 2])
            basis = np.eye(d)
            for x in random_points(model, 2, 41):
                seeds = seed_point(x)
                want = christoffel(model, seeds)
                got = amb.metric(model, seeds).connection(basis, d)  # [A, B, C]
                diff = got.c[..., :n2] - want.transpose(1, 2, 0).c[..., :n2]
                assert np.abs(diff).max() <= 1e-12

    def test_connection_on_a_prefix_of_rows(self):
        # Gamma(Y_i, Y_b) for the first p rows Y_i and every row Y_b, against
        # the Christoffel symbols of the same evaluation: the connection on
        # the chart basis.
        rng = np.random.default_rng(47)
        for model in CONNECTION_MODELS[2:]:
            d = model.real_dim
            ambient = amb.metric(model, seed_point(rng.uniform(-1, 1, d)))
            Y = rng.uniform(-1, 1, (5, d))
            got = jet_values(ambient.connection(Y, 3))
            symbols = jet_values(ambient.connection(np.eye(d), d))  # [A, B, C]
            want = np.einsum("ABC,iA,bB->ibC", symbols, Y[:3], Y)
            assert np.abs(got - want).max() <= 1e-12

    def test_metric_compatibility(self):
        model = amb.fubini_study(4.0, 2)
        d = model.real_dim
        for x in random_points(model, 5, 7):
            seeds = seed_point(x)
            G = amb.metric(model, seeds).g
            Gam = amb.christoffel_from_metric(G)
            gval = jet_values(G)
            Gval = jet_values(Gam)
            dg = np.empty((d, d, d))
            for A in range(d):
                for B in range(d):
                    for C in range(d):
                        dg[A, B, C] = G[B, C].derivative(A).value
            nabla_g = (
                dg
                - np.einsum("dab,dc->abc", Gval, gval)
                - np.einsum("dac,bd->abc", Gval, gval)
            )
            assert np.abs(nabla_g).max() <= 1e-9


class TestCurvature:
    def test_flat_closed_form_zero(self):
        model = amb.flat(2)
        g = jet_values(amb.metric(model, seed_point([0.1, 0.2, 0.3, 0.4])).g)
        basis = np.eye(4)
        # <R(e_0, e_1) e_2, W> for every basis vector W.
        V = np.stack(np.broadcast_arrays(basis[0], basis[1], basis[2], basis))
        out = amb.curvature_operator(
            model.c, *slot_pairings(g, amb.complex_structure(model), V))
        assert out.shape == (4,)
        assert np.abs(out).max() == 0.0

    def test_holomorphic_plane_closed_form(self):
        # Substituting Y = JX, Z = JX into the closed form yields c |X|^2 X,
        # so <R(X, JX)JX, W> = c |X|^2 <X, W> for every W.
        model = amb.fubini_study(4.0, 2)
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = rng.uniform(-1, 1, 4)
            X = rng.uniform(-1, 1, 4)
            J = amb.complex_structure(model)
            g = jet_values(amb.metric(model, seed_point(x)).g)
            JX = J @ X
            V = np.stack(np.broadcast_arrays(X, JX, JX, np.eye(4)))
            out = amb.curvature_operator(model.c, *slot_pairings(g, J, V))
            norm2 = X @ g @ X
            assert np.allclose(out, model.c * norm2 * (g @ X), atol=1e-12)

    def test_two_paths_agree(self):
        for model in MODELS:
            for x in random_points(model, 20, 13):
                R1 = curvature_from_connection(model, x)
                R2 = curvature_closed_form_tensor(model, x)
                den = 1 + max(np.abs(R1).max(), np.abs(R2).max())
                assert np.abs(R1 - R2).max() / den <= 1e-8

    def test_first_bianchi(self):
        model = amb.fubini_study(4.0, 2)
        for x in random_points(model, 5, 17):
            R = curvature_from_connection(model, x)
            # R^D_{CAB} summed cyclically over (A, B, C) must vanish.
            d = model.real_dim
            worst = 0.0
            for D in range(d):
                for A in range(d):
                    for B in range(d):
                        for C in range(d):
                            s = (
                                R[D, C, A, B]
                                + R[D, A, B, C]
                                + R[D, B, C, A]
                            )
                            worst = max(worst, abs(s))
            assert worst / (1 + np.abs(R).max()) <= 1e-9

    def test_holomorphic_sectional_curvature(self):
        rng = np.random.default_rng(23)
        for model in MODELS:
            for _ in range(5):
                x = rng.uniform(-1, 1, model.real_dim)
                X = rng.uniform(-1, 1, model.real_dim)
                K = holomorphic_sectional_curvature(model, x, X)
                assert K == pytest.approx(model.c, abs=1e-8)


class TestConnectionCurvature:
    """``connection_curvature`` on 4 directions of 3 x 3 matrices, so that a
    swapped direction or matrix index changes the result."""

    def test_constant_matrices_give_commutators(self):
        w = np.random.default_rng(61).uniform(-1, 1, (4, 3, 3))
        F = amb.connection_curvature(w, np.zeros((4, 4, 3, 3)))
        for i in range(4):
            for j in range(4):
                assert np.allclose(F[i, j], w[i] @ w[j] - w[j] @ w[i],
                                   rtol=0, atol=1e-15)
        assert np.abs(F[0, 1]).max() >= 0.1

    def test_commuting_values_give_antisymmetrized_derivative(self):
        # w_j(u) = D_j + sum_i u^i C_ij at u = 0: diagonal, so commuting,
        # values D_j, and partials d_i w_j = C_ij of full 3 x 3 matrices.
        rng = np.random.default_rng(67)
        D = np.stack([np.diag(row) for row in rng.uniform(-1, 1, (4, 3))])
        C = rng.uniform(-1, 1, (4, 4, 3, 3))
        F = amb.connection_curvature(D, C)
        for i in range(4):
            for j in range(4):
                assert np.allclose(F[i, j], C[i, j] - C[j, i],
                                   rtol=0, atol=1e-15)
        assert np.abs(F[0, 1]).max() >= 0.1

    def test_antisymmetric_in_directions(self):
        rng = np.random.default_rng(71)
        F = amb.connection_curvature(rng.uniform(-1, 1, (4, 3, 3)),
                                     rng.uniform(-1, 1, (4, 4, 3, 3)))
        assert np.array_equal(F, -F.transpose(1, 0, 2, 3))
        assert np.abs(F).max() >= 0.1


class TestKaehlerCheck:
    def test_flat_exact(self):
        report = check_kaehler(amb.flat(2), [0.1, 0.2, 0.3, 0.4])
        assert report["hermitian"] == 0.0
        assert report["parallel_j"] == 0.0

    def test_fubini_study_residuals(self):
        model = amb.fubini_study(4.0, 2)
        for x in random_points(model, 20, 29):
            report = check_kaehler(model, x)
            assert report["hermitian"] <= 1e-10
            assert report["parallel_j"] <= 1e-9

    def test_corrupted_metric_negative_control(self):
        model = amb.fubini_study(4.0, 2)
        rng = np.random.default_rng(31)
        P = 1e-3 * rng.uniform(-1, 1, (4, 4))
        report = check_kaehler(model, [0.4, -0.1, 0.2, 0.5],
                                   metric_perturbation=P)
        assert max(report.values()) >= 1e-4

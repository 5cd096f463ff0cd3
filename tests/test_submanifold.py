"""Extrinsic package at a point: hand values, frames, two-path gates."""

import numpy as np
import pytest
from dataclasses import fields

from extra_cases import CUBIC_SURFACE, CUBIC_THREEFOLD, QUADRIC_Q3, SEGRE
from oracles import (
    christoffel,
    curvature_closed_form_tensor,
    jet_sqrt,
    map_values,
)

from kaehlerlab import ambient as amb
from kaehlerlab import identities as ids
from kaehlerlab import recurrence as rec
from kaehlerlab import submanifold as sm
from kaehlerlab.jets import (
    Jet,
    einsum,
    jet_gradient,
    jet_values,
    seed_point,
    stack,
)


def data_at(name, u, **kw):
    return sm.extrinsic_data(sm.get_case(name), u, **kw)


class TestCatalog:
    def test_names(self):
        assert sm.case_names() == [
            "linear_c2", "graph_z2_c2", "graph_z3_c2", "graph_c3",
            "veronese_cp2",
        ]

    def test_unknown_case(self):
        with pytest.raises(KeyError):
            sm.get_case("nope")

    def test_map_values_matches_jets(self):
        rational = sm.ImmersionCase(
            "rational_c2", 1, amb.flat(2),
            lambda z: [z[0], 1.0 / (1.0 + z[0] * z[0])],
            ((-1.0, 1.0),) * 2, sm.GENERIC)
        rng = np.random.default_rng(2)
        for case in (*sm.CATALOG, rational):
            u = rng.uniform(-1, 1, 2 * case.m)
            jets = case.map_jets(u)
            vals = map_values(case, u)
            assert np.allclose([j.value for j in jets], vals)


    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_map_jets_seeds_complex_coordinates(self, m):
        # The chart runs on z_a = u_2a + i u_2a+1, seeded as one complex
        # array: bit for bit the sum of the two seeded real coordinates.
        seen = []

        def chart(z):
            seen.append(stack(z))
            return [*z, z[0] * z[-1]]

        case = sm.ImmersionCase("recorded", m, amb.flat(m + 1), chart,
                                ((-1.0, 1.0),) * (2 * m), sm.GENERIC)
        for u in np.random.default_rng(m).uniform(-1, 1, (3, 2 * m)):
            case.map_jets(u)
            seeds = seed_point(u)
            want = seeds[0::2] + 1j * seeds[1::2]
            z = seen.pop()
            assert z.n == want.n and z.c.dtype == want.c.dtype
            assert np.array_equal(z.c, want.c)


class TestInducedMetric:
    def test_linear_identity(self):
        d = data_at("linear_c2", [0.8, -0.6])
        assert np.allclose(d.g, np.eye(2))

    def test_graph_at_one(self):
        # |dF|^2 = 1 + 4|z|^2 at z = 1.
        d = data_at("graph_z2_c2", [1.0, 0.0])
        assert np.allclose(d.g, 5.0 * np.eye(2), atol=1e-12)

    def test_veronese_at_origin(self):
        d = data_at("veronese_cp2", [0.0, 0.0])
        assert np.allclose(d.g, 2.0 * np.eye(2), atol=1e-12)

    def test_metric_compatibility_of_gamma(self):
        rng = np.random.default_rng(7)
        case = sm.get_case("graph_z2_c2")
        for _ in range(10):
            geo = sm.PointGeometry(case, rng.uniform(-1, 1, 2))
            nu = 2
            dg = np.empty((nu, nu, nu))
            for i in range(nu):
                for k in range(nu):
                    for ll in range(nu):
                        dg[i, k, ll] = geo.g_jet[k, ll].derivative(i).value
            gam = jet_values(geo.gamma_jet)
            g = jet_values(geo.g_jet)
            nabla_g = (
                dg
                - np.einsum("tik,tl->ikl", gam, g)
                - np.einsum("til,kt->ikl", gam, g)
            )
            assert np.abs(nabla_g).max() <= 1e-9

    def test_gamma_symmetry_exact(self):
        geo = sm.PointGeometry(sm.get_case("veronese_cp2"), [0.3, 0.2])
        for k in range(2):
            for i in range(2):
                for j in range(2):
                    assert geo.gamma_jet[k, i, j] == geo.gamma_jet[k, j, i]


class TestNormalFrame:
    def test_linear_frame_is_coordinate_pair(self):
        d = data_at("linear_c2", [0.1, 0.2])
        assert np.allclose(d.N, [[0, 0, 1, 0], [0, 0, 0, 1]])

    def test_orthonormality_and_tangency(self):
        rng = np.random.default_rng(3)
        for case in sm.CATALOG:
            d = sm.extrinsic_data(case, rng.uniform(-1, 1, 2))
            assert d.frame_residuals["normal_orthonormality"] <= 1e-10
            assert d.frame_residuals["normal_tangency"] <= 1e-10
            assert d.frame_residuals["gamma_perp_antisymmetry"] <= 1e-10

    def test_j_pairing(self):
        rng = np.random.default_rng(5)
        for case in sm.CATALOG:
            d = sm.extrinsic_data(case, rng.uniform(-1, 1, 2))
            J = d.J_amb
            for a in range(d.l):
                assert np.allclose(J @ d.N[2 * a], d.N[2 * a + 1], atol=1e-10)

    def test_frame_count_matches_codimension(self):
        d = data_at("graph_c3", [0.4, 0.3])
        assert d.N.shape == (4, 6)

    @pytest.mark.parametrize("case", [sm.get_case("graph_c3"),
                                      sm.get_case("veronese_cp2"), SEGRE,
                                      QUADRIC_Q3], ids=lambda c: c.name)
    def test_one_series_normalization(self, case, monkeypatch):
        # Each normal is scaled by norm2^(-1/2) as one series; the square
        # root's series and its reciprocal take two.  The first pair is normalized
        # straight from its candidate, so it differs by the series' own
        # rounding: 1e-15 of the normal's largest coefficient.  Later ones
        # are projected against earlier normals first, which carries that
        # rounding on: 16 ulps of it.  The frame is G-orthonormal as jets.
        rng = np.random.default_rng(13)
        eps = np.finfo(float).eps
        for u in rng.uniform(-0.9, 0.9, (4, 2 * case.m)):
            one = sm.PointGeometry(case, u)
            with monkeypatch.context() as mp:
                mp.setattr(Jet, "rsqrt", lambda j: jet_sqrt(j).reciprocal())
                two = sm.PointGeometry(case, u)
            diff = np.abs(one.N_jet.c - two.N_jet.c).max(axis=(1, 2))
            scale = 1.0 + np.abs(two.N_jet.c).max(axis=(1, 2))
            assert (diff[:2] <= 1e-15 * scale[:2]).all(), (u, diff)
            assert (diff <= 16 * eps * scale).all(), (u, diff)
            gram = einsum("aA,AB,bB->ab", one.N_jet, one.g_amb_jet, one.N_jet)
            eye = Jet.constant(np.eye(2 * case.l), gram.n).truncate(gram.order)
            assert np.abs(gram.c - eye.c).max() <= 1e-13


class TestSecondFundamentalForm:
    def test_linear_vanishes(self):
        d = data_at("linear_c2", [0.5, -0.5])
        assert np.abs(d.b).max() == 0.0
        assert np.abs(d.nabla_b).max() == 0.0
        assert np.abs(d.r).max() == 0.0
        assert np.abs(d.r_perp).max() == 0.0

    def test_graph_hand_values_at_origin(self):
        d = data_at("graph_z2_c2", [0.0, 0.0])
        assert d.b[0, 0, 0] == pytest.approx(2.0)
        assert d.b[0, 1, 1] == pytest.approx(-2.0)
        assert d.b[1, 0, 1] == pytest.approx(2.0)
        assert np.allclose(d.A[0], [[2.0, 0.0], [0.0, -2.0]], atol=1e-12)

    def test_b_symmetry(self):
        d = data_at("graph_c3", [0.6, -0.2])
        assert np.allclose(d.b, np.swapaxes(d.b, 1, 2))

    def test_nabla_b_total_symmetry(self):
        rng = np.random.default_rng(11)
        for case in sm.CATALOG:
            d = sm.extrinsic_data(case, rng.uniform(-1, 1, 2))
            nb = d.nabla_b
            scale = 1 + np.abs(nb).max()
            assert np.abs(nb - np.einsum("iajk->jaik", nb)).max() / scale <= 1e-9
            assert np.abs(nb - np.einsum("iajk->kaji", nb)).max() / scale <= 1e-9

    def test_veronese_parallel_b(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            d = data_at("veronese_cp2", rng.uniform(-1, 1, 2))
            assert np.abs(d.nabla_b).max() <= 1e-8


class TestTwoPathGates:
    def test_all_cases_agree(self):
        rng = np.random.default_rng(17)
        for case in sm.CATALOG:
            for _ in range(3):
                d = sm.extrinsic_data(case, rng.uniform(-1, 1, 2))
                for key, val in d.two_path.items():
                    assert val <= sm.TWO_PATH_TOL[key], (case.name, key, val)


FLAT_CASES = [case for case in sm.CATALOG if case.ambient.kind == amb.FLAT]
FLAT_CASES += [CUBIC_SURFACE, CUBIC_THREEFOLD]


class TestFlatShortcut:
    @pytest.mark.parametrize("case", FLAT_CASES, ids=lambda c: c.name)
    def test_curved_path_on_flat_inputs_gives_the_same_data(self, case,
                                                            monkeypatch):
        # Flat space skips the lowering products and the connection terms.
        # Forcing the curved path there, with the identity metric and a
        # connection that returns zeros, must change no entry of any field:
        # the flat path drops only products with exact identities and zeros.
        u = np.random.default_rng(61).uniform(-0.5, 0.5, 2 * case.m)
        want = sm.extrinsic_data(case, u)
        d, calls = case.ambient.real_dim, []

        def metric(model, x):
            def connection(Y, p):
                calls.append(p)
                return Jet.constant(np.zeros((p, len(Y), d)),
                                    x.n).truncate(Y.order)
            return amb.Metric(Jet.constant(np.eye(d), x.n).truncate(x.order),
                              connection)

        monkeypatch.setattr(amb, "metric", metric)
        got = sm.extrinsic_data(case, u)
        assert calls == [d, 2 * case.m]  # the basis, then the rows (T, N)
        for f in fields(sm.ExtrinsicData):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if isinstance(b, dict):
                assert a == b, f.name
            else:
                assert np.array_equal(a, b), f.name


def _assert_healthy(d, expected_class):
    """Every registry check passes, every two-path gate holds, class as
    expected."""
    for chk in ids.run_identity_suite(d, rng_seed=3):
        assert chk["passed"], chk
    for key, val in d.two_path.items():
        assert val <= sm.TWO_PATH_TOL[key], (key, val)
    assert rec.classify(d).classification == expected_class


def _vector_curvature(c, g, J, X, Y, Z):
    """The space-form curvature R(X, Y)Z as a vector (components on the last
    axis, broadcast over the leading ones), on floats or jets: a reference
    for the pairing form of ``ambient.curvature_operator``."""
    X, Y, Z = (v if isinstance(v, Jet) else np.asarray(v, float)
               for v in (X, Y, Z))

    def apply(M, V):
        return einsum("AB,...B->...A", M, V)

    def dot(U, V):
        return einsum("...A,...A->...", U, V)[..., None]

    JX, JY, JZ = apply(J, X), apply(J, Y), apply(J, Z)
    Z_low = apply(g, Z)
    return (
        dot(Y, Z_low) * X
        - dot(X, Z_low) * Y
        + dot(JY, Z_low) * JX
        - dot(JX, Z_low) * JY
        + dot(X, apply(g, JY)) * 2.0 * JZ
    ) * (c / 4.0)


CURVED = [
    (sm.get_case("veronese_cp2"), [0.3, -0.6]),
    (SEGRE, [0.3, -0.2, 0.1, 0.4]),
    (QUADRIC_Q3, [0.2, -0.1, 0.3, 0.15, -0.25, 0.1]),
]


def _jet_curvature_term(geo, normal):
    """Reference for ``PointGeometry._ambient_curvature``: the closed form
    evaluated on the order-1 jets of the Gram jet <(T, JT)_i, (T, N)_x>,
    built here from the frames, each slot pairing broadcast onto the axes of
    its two slots.  Unlike the stage, it forms every tangent-normal pairing
    instead of passing it as zero."""
    nu = geo.nu
    zw = slice(nu, None) if normal else slice(None, nu)
    JT = einsum("AB,iB->iA", geo.J_amb, geo.T_jet)
    gram_P, gram_K = einsum("siA,xA->six", stack([geo.T_jet, JT]).truncate(1),
                            stack([*geo.T_low, *geo.N_low]))

    def cross(M):
        M = M[:, zw]
        return {(1, 2): M[None, :, :, None], (0, 3): M[:, None, None, :],
                (0, 2): M[:, None, :, None], (1, 3): M[None, :, None, :]}

    P, K = cross(gram_P), cross(gram_K)
    K[1, 0] = gram_K[:, :nu].T[:, :, None, None]
    K[2, 3] = (geo.J_nor_jet.T if normal else gram_K[:, :nu])[None, None]
    return amb.curvature_operator(geo.c, P, K)


class TestAmbientCurvatureTerm:
    @pytest.mark.parametrize("case, u", CURVED)
    def test_matches_closed_form_tensor(self, case, u):
        # The c != 0 term of both curvature routes, <R(d_i, d_j) Z, W> with
        # Z, W normal (rp1) or tangent (r2), against the float closed form
        # over the chart basis.
        geo = sm.PointGeometry(case, u)
        R = curvature_closed_form_tensor(case.ambient, map_values(case, u))
        T, g_amb = jet_values(geo.T_jet), jet_values(geo.g_amb_jet)
        for normal, Z_jet in ((True, geo.N_jet), (False, geo.T_jet)):
            Z = jet_values(Z_jet)
            want = np.einsum("DCAB,iA,jB,aC,DE,bE->ijab", R, T, T, Z, g_amb, Z)
            got = jet_values(geo._ambient_curvature(normal))
            assert np.abs(want).max() >= 0.1
            assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("case, u", CURVED)
    def test_jets_match_vector_operator(self, case, u):
        # Values and first partials (which feed nabla_r_perp and the nabla_r
        # gate) of the pairing form on the Gram jet, against the vector
        # operator contracted with the lowered frame.
        geo = sm.PointGeometry(case, u)
        T = geo.T_jet.truncate(1)
        for normal, Z, W_low in ((True, geo.N_jet, geo.N_low),
                                 (False, geo.T_jet, geo.T_low)):
            RZ = _vector_curvature(
                case.ambient.c, geo.g_amb_jet.truncate(1), geo.J_amb,
                T[:, None, None], T[None, :, None], Z.truncate(1)[None, None])
            want = einsum("ijaA,bA->ijab", RZ, W_low)
            got = geo._ambient_curvature(normal)
            assert got.order == want.order == 1
            for part in (jet_values, jet_gradient):
                assert np.abs(part(want)).max() >= 0.1
                assert np.abs(part(got) - part(want)).max() <= 1e-12


    @pytest.mark.parametrize("case, u", CURVED)
    def test_probes_match_jet_evaluation(self, case, u):
        # The float probes give the value and first partials that the
        # closed form gives on order-1 jets of the Gram jet: it is quadratic
        # in the pairings, so the central difference is exact up to
        # round-off, and so are the zeros passed for the tangent-normal
        # pairings and g read for <T_i, T_j>.
        geo = sm.PointGeometry(case, u)
        for normal in (True, False):
            want = _jet_curvature_term(geo, normal)
            got = geo._ambient_curvature(normal)
            assert got.order == want.order == 1
            for part in (jet_values, jet_gradient):
                assert np.abs(part(want)).max() >= 0.1
                assert np.abs(part(got) - part(want)).max() <= 1e-13


class TestJetOrders:
    """Each stage carries only the jet order its consumers read, so a silent
    fall-back to full-order arithmetic fails here and not only in timing."""

    ORDERS = {
        "F": 3,
        "g_amb_jet": 2, "T_jet": 2, "g_jet": 2, "N_jet": 2,
        "gamma_jet": 1, "b_vec_jet": 1, "b_jet": 1, "A_jet": 1,
        "gamma_perp_jet": 1, "omega_jet": 1, "J_tan_jet": 1, "J_nor_jet": 1,
    }

    @pytest.mark.parametrize("case, u", [
        (sm.get_case("linear_c2"), [0.8, -0.6]),
        (sm.get_case("veronese_cp2"), [0.3, -0.6]),
        (SEGRE, [0.3, -0.2, 0.1, 0.4]),
    ], ids=["linear_c2", "veronese_cp2", "segre_cp1xcp1"])
    def test_stage_orders(self, case, u):
        geo = sm.PointGeometry(case, u)
        assert {name: getattr(geo, name).order for name in self.ORDERS} \
            == self.ORDERS
        if case.ambient.c != 0.0:
            for normal in (True, False):
                assert geo._ambient_curvature(normal).order == 1


class TestSurfaceInCurvedAmbient:
    def test_segre_quadric_point(self):
        # The Segre quadric CP1 x CP1 in CP3 (m = 2): a parallel surface that
        # runs the ambient connection with four tangent directions.
        case = SEGRE
        u = [0.3, -0.2, 0.1, 0.4]
        d = sm.extrinsic_data(case, u)
        _assert_healthy(d, rec.PARALLEL)
        want = jet_values(
            christoffel(case.ambient, seed_point(map_values(case, u)))
        )
        assert np.abs(d.gamma_amb - want).max() <= 1e-12


class TestSurfaceInFlatAmbient:
    def test_cubic_graph_surface(self):
        # A non-parallel surface in C3 (m = 2): four distinct tangent indices
        # expose index-order slips that curves (two indices) cannot.
        rng = np.random.default_rng(37)
        for _ in range(3):
            d = sm.extrinsic_data(CUBIC_SURFACE, rng.uniform(-1, 1, 4))
            _assert_healthy(d, rec.NON_RECURRENT)


class TestFrameCovariance:
    def test_norms_invariant_under_seed_remix(self):
        rng = np.random.default_rng(19)
        for case in sm.CATALOG:
            u = rng.uniform(-0.8, 0.8, 2)
            d1 = sm.extrinsic_data(case, u)
            dim = case.ambient.real_dim
            mix, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
            d2 = sm.extrinsic_data(case, u, normal_seed_mix=mix)
            n1 = sm.tensor_norms(d1)
            n2 = sm.tensor_norms(d2)
            for key in n1:
                assert n1[key] == pytest.approx(n2[key], abs=1e-9), (
                    case.name, key
                )
            # Frame-resolved components may differ; scalar residuals may not.
            for key in d1.two_path:
                assert abs(d1.two_path[key] - d2.two_path[key]) <= 1e-9


def _norm_squared(arr, slots, g, g_inv):
    """Squared norm of ``arr`` with the metric on each slot: g^-1 on a lower
    tangent index ("t"), g on an upper one ("u"), the identity on a normal
    one ("n"), contracted with ``np.einsum`` (no Cholesky factor)."""
    left, right = "abcdefg"[:arr.ndim], "ABCDEFG"[:arr.ndim]
    operands, subs = [arr, arr], [left, ""]
    for x, y, kind in zip(left, right, slots):
        if kind == "n":
            subs[1] += x
            continue
        subs[1] += y
        operands.append(g_inv if kind == "t" else g)
        subs.append(x + y)
    return np.einsum(",".join(subs) + "->", *operands, optimize=True)


class TestTensorNorms:
    SLOTS = {"b": "ntt", "nabla_b": "tntt", "nabla_A": "tnut",
             "r_perp": "ttnn", "nabla_r_perp": "tttnn", "r": "tttt",
             "nabla_r": "ttttt"}

    @pytest.mark.parametrize("case", [sm.get_case("veronese_cp2"), SEGRE,
                                      QUADRIC_Q3], ids=lambda c: c.name)
    def test_matches_metric_contraction(self, case):
        rng = np.random.default_rng(43)
        for _ in range(3):
            d = sm.extrinsic_data(case, rng.uniform(-0.6, 0.6, 2 * case.m))
            norms = sm.tensor_norms(d)
            assert set(norms) == set(self.SLOTS)
            for key, slots in self.SLOTS.items():
                want = np.sqrt(_norm_squared(getattr(d, key), slots, d.g,
                                             d.g_inv))
                assert norms[key] == pytest.approx(want, rel=1e-12, abs=0), (
                    case.name, key)


def _textbook_covariant_derivative(T, dT, gamma, gamma_perp, slots):
    """d_s T plus one ``np.einsum`` per slot: -Gamma^y_{s x} T[..y..] on a
    lower tangent slot, +Gamma^x_{s y} T[..y..] on an upper one and
    -<n_y, D_s n_x> T[..y..] on a normal one."""
    letters = "abcdefg"[:T.ndim]
    out = np.array(dT, dtype=float)
    for pos, (x, kind) in enumerate(zip(letters, slots)):
        moved = letters[:pos] + "y" + letters[pos + 1:]
        conn, sign, sub = {"t": (gamma, -1.0, f"ys{x}"),
                           "u": (gamma, 1.0, f"{x}sy"),
                           "n": (gamma_perp, -1.0, f"y{x}s")}[kind]
        out += sign * np.einsum(f"{sub},{moved}->s{letters}", conn, T)
    return out


def _tensordot_covariant_derivative(T, dT, gamma, gamma_perp, slots):
    """The former kernel: one ``tensordot`` and one ``moveaxis`` per slot."""
    conn = {"t": -gamma.transpose(1, 2, 0), "u": gamma.transpose(1, 0, 2),
            "n": -gamma_perp.transpose(2, 1, 0)}
    out = np.array(dT, dtype=float)
    for axis, kind in enumerate(slots):
        term = np.tensordot(conn[kind], T, axes=([2], [axis]))
        out += np.moveaxis(term, 1, axis + 1)
    return out


def _covariant_inputs(source):
    """(gamma, gamma_perp, {slots: (T, dT)}) for every slot string: the
    tensors of a case's point, or random ones for a pair (nu, p)."""
    rng = np.random.default_rng(29)
    if isinstance(source, tuple):
        nu, p = source
        gamma = rng.uniform(-1, 1, (nu, nu, nu))
        gp = rng.uniform(-1, 1, (p, p, nu))
        gp = gp - gp.transpose(1, 0, 2)
        shapes = {"ntt": (p, nu, nu), "nut": (p, nu, nu),
                  "ttnn": (nu, nu, p, p), "tttt": (nu,) * 4, "ut": (nu, nu),
                  "nn": (p, p), "t": (nu,)}
        tensors = {k: rng.uniform(-1, 1, v) for k, v in shapes.items()}
    else:
        d = sm.extrinsic_data(source, rng.uniform(-0.6, 0.6, 2 * source.m))
        nu, gamma, gp = 2 * d.m, d.gamma, d.gamma_perp
        tensors = {"ntt": d.b, "nut": d.A, "ttnn": d.r_perp, "tttt": d.r,
                   "ut": d.J_tan, "nn": d.J_nor, "t": d.g[0]}
    return gamma, gp, {k: (T, rng.uniform(-1, 1, (nu,) + T.shape))
                       for k, T in tensors.items()}


class TestCovariantDerivative:
    SOURCES = {"segre": SEGRE, "q3": QUADRIC_Q3, "random_m2": (4, 2),
               "random_m3": (6, 2), "random_m3_l2": (6, 4)}

    @pytest.mark.parametrize("source", SOURCES.values(), ids=SOURCES.keys())
    def test_matches_textbook_and_former_kernel(self, source):
        gamma, gp, inputs = _covariant_inputs(source)
        assert set(inputs) == {"ntt", "nut", "ttnn", "tttt", "ut", "nn", "t"}
        for slots, (T, dT) in inputs.items():
            got = sm.covariant_derivative(T, dT, gamma, gp, slots)
            assert got.shape == dT.shape
            want = _textbook_covariant_derivative(T, dT, gamma, gp, slots)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14,
                                       err_msg=slots)
            former = _tensordot_covariant_derivative(T, dT, gamma, gp, slots)
            assert np.array_equal(got, former), slots

    def test_slot_kinds_are_told_apart(self):
        # With as many normal as tangent directions every slot string fits
        # every tensor, so a kind read for another shows in the oracle.
        gamma, gp, inputs = _covariant_inputs((4, 4))
        T, dT = inputs["nut"]
        got = sm.covariant_derivative(T, dT, gamma, gp, "nut")
        for wrong in ("ntt", "nuu", "tut", "nun"):
            assert not np.allclose(got, _textbook_covariant_derivative(
                T, dT, gamma, gp, wrong)), wrong


class TestCurvature:
    def test_veronese_sectional(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            d = data_at("veronese_cp2", rng.uniform(-1, 1, 2))
            assert sm.sectional_curvature(d) == pytest.approx(2.0, abs=1e-8)

    def test_veronese_normal_curvature_nonzero(self):
        d = data_at("veronese_cp2", [0.2, -0.5])
        assert sm.tensor_norms(d)["r_perp"] >= 0.5

    def test_veronese_locally_symmetric(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            d = data_at("veronese_cp2", rng.uniform(-1, 1, 2))
            assert np.abs(d.nabla_r).max() <= 1e-7
            assert np.abs(d.nabla_r_perp).max() <= 1e-7

    def test_graph_curve_gauss_curvature(self):
        # A holomorphic graph curve w = F(z) in flat space has Gauss
        # curvature -2 (|F''|^2 (1 + |F'|^2) - |<F', F''>|^2) / (1 + |F'|^2)^3.
        derivatives = {
            "graph_z2_c2": lambda z: ([2 * z], [2.0]),
            "graph_z3_c2": lambda z: ([3 * z * z], [6 * z]),
            "graph_c3": lambda z: ([2 * z, 3 * z * z], [2.0, 6 * z]),
        }
        rng = np.random.default_rng(41)
        for name, fun in derivatives.items():
            for _ in range(5):
                u = rng.uniform(-1, 1, 2)
                d1, d2 = (np.array(v, complex) for v in fun(complex(*u)))
                s1 = 1 + np.vdot(d1, d1).real
                K = -2 * (np.vdot(d2, d2).real * s1
                          - abs(np.vdot(d1, d2)) ** 2) / s1 ** 3
                got = sm.sectional_curvature(data_at(name, u))
                assert abs(got - K) <= 1e-12, (name, u, got, K)

    def test_flat_graph_curvature_nontrivial(self):
        d = data_at("graph_z2_c2", [0.5, 0.3])
        assert sm.tensor_norms(d)["r"] > 1e-3


class TestShapeOperators:
    def test_traceless(self):
        rng = np.random.default_rng(31)
        for case in sm.CATALOG:
            d = sm.extrinsic_data(case, rng.uniform(-1, 1, 2))
            for a in range(2 * d.l):
                assert abs(np.trace(d.A[a])) <= 1e-9

    def test_duality_with_b(self):
        d = data_at("graph_c3", [0.3, 0.7])
        lowered = np.einsum("akj,kt->ajt", d.A, d.g)
        assert np.allclose(lowered, np.einsum("ajt->ajt", d.b), atol=1e-10)

    def test_nondegenerate_direction_exists(self):
        d = data_at("graph_z2_c2", [0.2, 0.1])
        assert sm.max_shape_operator_determinant(d) > 1e-3

"""Identity suite: registry coverage, residual levels, negative controls,
tuple batching."""

from dataclasses import replace

import numpy as np
import pytest

from kaehlerlab import ambient as amb
from kaehlerlab import identities as idn
from kaehlerlab import submanifold as sm


def suite_for(name, u, seed=101, **kw):
    data = sm.extrinsic_data(sm.get_case(name), u)
    return idn.run_identity_suite(data, rng_seed=seed, **kw)


class TestRegistry:
    def test_ids_unique_and_complete(self):
        ids = [chk.identity_id for chk in idn.REGISTRY]
        assert len(ids) == len(set(ids))
        # One check per fundamental equation and lemma, plus route gates.
        for required in [
            "eq_1_3_gauss", "eq_1_4_codazzi", "eq_1_5_ricci",
            "eq_1_10_hermitian", "eq_1_11_parallel_j", "eq_2_1_duality",
            "eq_2_3", "eq_2_4_tangent", "eq_2_4_normal", "eq_2_5_shape",
            "eq_2_5_normal", "eq_2_6", "eq_2_7", "eq_2_8", "eq_2_9",
            "eq_2_10_codazzi_symmetry", "eq_2_11", "eq_2_12", "eq_2_13",
            "eq_2_14", "eq_2_15", "two_path_nabla_b", "two_path_r_perp",
            "two_path_r", "two_path_nabla_r",
        ]:
            assert required in ids

    def test_every_result_well_formed(self):
        results = suite_for("graph_z2_c2", [0.4, -0.1])
        assert len(results) == len(idn.REGISTRY)
        for res in results:
            assert res["residual"] >= 0.0
            assert res["passed"] == (res["residual"] <= res["tolerance"])


class TestResidualLevels:
    def test_linear_machine_zero(self):
        for res in suite_for("linear_c2", [0.3, 0.9]):
            assert res["residual"] <= 1e-14, res

    def test_all_cases_pass_registered_tolerances(self):
        rng = np.random.default_rng(41)
        for case in sm.CATALOG:
            for k in range(3):
                data = sm.extrinsic_data(case, rng.uniform(-1, 1, 2))
                for res in idn.run_identity_suite(data, rng_seed=7 + k):
                    assert res["passed"], (case.name, res)

    def test_deterministic_given_seed(self):
        a = suite_for("veronese_cp2", [0.2, 0.6], seed=5)
        b = suite_for("veronese_cp2", [0.2, 0.6], seed=5)
        assert a == b


class TestNegativeControls:
    def test_perturbed_b_breaks_duality(self):
        data = sm.extrinsic_data(sm.get_case("graph_z2_c2"), [0.5, 0.2])
        rng = np.random.default_rng(43)
        noise = 1e-3 * rng.uniform(-1, 1, data.b.shape)
        noise = (noise + np.swapaxes(noise, 1, 2)) / 2.0
        results = idn.run_identity_suite(
            data, rng_seed=11, b_override=data.b + noise
        )
        by_id = {r["id"]: r for r in results}
        assert by_id["eq_2_1_duality"]["residual"] >= 1e-4
        assert not by_id["eq_2_1_duality"]["passed"]

    def test_tolerance_override_flips_verdict(self):
        results = suite_for(
            "veronese_cp2", [0.4, 0.4], tolerances={"eq_2_14": 1e-18}
        )
        by_id = {r["id"]: r for r in results}
        assert by_id["eq_2_14"]["tolerance"] == 1e-18
        assert not by_id["eq_2_14"]["passed"]

    def test_unperturbed_control_passes(self):
        results = suite_for("graph_z2_c2", [0.5, 0.2], seed=11)
        by_id = {r["id"]: r for r in results}
        assert by_id["eq_2_1_duality"]["passed"]


def _chart_cubic_surface(z):
    return [z[0], z[1], z[0] * z[0] * z[1] + z[1] * z[1] * z[1]]


CUBIC_SURFACE = sm.ImmersionCase(
    "cubic_graph_c3", 2, amb.flat(3), _chart_cubic_surface,
    ((-1.0, 1.0),) * 4, sm.GENERIC,
)


class TestTupleBatch:
    @pytest.mark.parametrize("case, u", [
        (sm.get_case("veronese_cp2"), [0.3, -0.6]),
        (CUBIC_SURFACE, [0.4, -0.3, 0.2, 0.5]),
    ], ids=["veronese_cp2", "cubic_surface"])
    def test_each_tuple_evaluated_on_its_own(self, case, u):
        # Row q of a batch of tuples gives what tuple q gives alone: no check
        # mixes one tuple's vectors into another's sides.
        ev = idn._Evaluator(sm.extrinsic_data(case, u))
        batch = idn._draw_tuples(np.random.default_rng(29), 8, ev.nu, ev.p)
        for chk in idn.REGISTRY:
            fn = getattr(ev, chk.identity_id)
            lhs, rhs = fn(*batch)
            assert lhs.shape[0] == rhs.shape[0] == 8, chk.identity_id
            for q in range(8):
                lhs1, rhs1 = fn(*(v[q:q + 1] for v in batch))
                for got, want in ((lhs[q], lhs1[0]), (rhs[q], rhs1[0])):
                    np.testing.assert_allclose(
                        got, want, rtol=1e-12, atol=1e-14,
                        err_msg=f"{chk.identity_id}, tuple {q}")

    @pytest.mark.parametrize("nu, p", [(2, 2), (2, 4), (4, 2)])
    @pytest.mark.parametrize("n_tuples", [1, 3, 8])
    def test_draw_order_is_vector_by_vector(self, nu, p, n_tuples):
        # The batched draw reproduces, bit for bit, drawing X, Y, Z, W, xi,
        # eta one vector at a time, tuple after tuple.
        for seed in (0, 5, 42, 2**32 + 3):
            batch = idn._draw_tuples(np.random.default_rng(seed), n_tuples, nu, p)
            rng = np.random.default_rng(seed)
            for q in range(n_tuples):
                for k, width in enumerate((nu, nu, nu, nu, p, p)):
                    want = rng.uniform(-1.0, 1.0, width)
                    assert np.array_equal(batch[k][q], want)


class TestAmbientProjection:
    def test_tangent_directions_are_seen(self):
        # eq_1_4_ambient_projection reads round-off because the normal frame
        # is normal; with tangent rows in its place the same check must see
        # the ambient curvature, so its left side is not identically zero.
        data = sm.extrinsic_data(sm.get_case("veronese_cp2"), [0.2, 0.6])
        clean = {r["id"]: r for r in idn.run_identity_suite(data, rng_seed=3)}
        assert clean["eq_1_4_ambient_projection"]["passed"]
        bent = replace(data, N=data.T)
        by_id = {r["id"]: r for r in idn.run_identity_suite(bent, rng_seed=3)}
        assert by_id["eq_1_4_ambient_projection"]["residual"] >= 0.1
        assert not by_id["eq_1_4_codazzi"]["passed"]

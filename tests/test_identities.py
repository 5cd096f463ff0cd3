"""Identity suite: registry coverage, residual levels, negative controls,
tuple batching."""

from dataclasses import replace

import numpy as np
import pytest
from extra_cases import CUBIC_SURFACE, CUBIC_THREEFOLD, QUADRIC_Q3, SEGRE

from kaehlerlab import ambient as amb
from kaehlerlab import cli
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

    def test_route_rows_are_the_gates(self):
        # TWO_PATH_TOL is the one table of the route tolerances, and a route
        # agreement reports the gate residual geometry recorded, one row
        # against zero.
        assert list(sm.TWO_PATH_TOL.values()) == [1e-9, 1e-8, 1e-8, 1e-8]
        data = sm.extrinsic_data(sm.get_case("veronese_cp2"), [0.2, 0.6])
        by_id = {r["id"]: r for r in idn.run_identity_suite(data, rng_seed=3)}
        for route, tol in sm.TWO_PATH_TOL.items():
            assert idn.REGISTRY_BY_ID[route].tolerance == tol
            assert by_id[route]["tolerance"] == tol
            gate = data.two_path[route]
            assert by_id[route]["residual"] == gate / (1.0 + gate)

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
            replace(data, b=data.b + noise), rng_seed=11
        )
        by_id = {r["id"]: r for r in results}
        assert by_id["eq_2_1_duality"]["residual"] >= 1e-4
        assert not by_id["eq_2_1_duality"]["passed"]

    @pytest.mark.parametrize("field, check", [("dJ_tan", "eq_2_4_tangent"),
                                              ("dJ_nor", "eq_2_5_normal")])
    def test_perturbed_j_derivative_breaks_parallel_j(self, field, check):
        # The covariant derivative of J is assembled from its partials, so a
        # perturbed partial must show in the check that J is parallel.
        data = sm.extrinsic_data(SEGRE, [0.3, -0.2, 0.1, 0.4])
        noise = 1e-3 * np.random.default_rng(47).uniform(
            -1, 1, getattr(data, field).shape)
        bad = replace(data, **{field: getattr(data, field) + noise})
        clean, broken = ({r["id"]: r for r in idn.run_identity_suite(
            d, rng_seed=11)}[check] for d in (data, bad))
        assert clean["passed"] and clean["residual"] <= 1e-13
        assert not broken["passed"] and broken["residual"] >= 1e-5

    def test_tolerance_override_flips_verdict(self):
        results = suite_for(
            "veronese_cp2", [0.4, 0.4], tolerances={"eq_2_14": 1e-18}
        )
        by_id = {r["id"]: r for r in results}
        assert by_id["eq_2_14"]["tolerance"] == 1e-18
        assert not by_id["eq_2_14"]["passed"]

    def test_loosened_tolerance_passes_perturbed_check(self):
        data = sm.extrinsic_data(sm.get_case("graph_z2_c2"), [0.5, 0.2])
        noise = 1e-3 * np.random.default_rng(43).uniform(-1, 1, data.b.shape)
        results = idn.run_identity_suite(
            replace(data, b=data.b + noise), rng_seed=11,
            tolerances={"eq_2_1_duality": 1.0})
        for r in results:
            want = (1.0 if r["id"] == "eq_2_1_duality"
                    else idn.REGISTRY_BY_ID[r["id"]].tolerance)
            assert r["tolerance"] == want
            assert r["passed"] is (r["residual"] <= want)
        by_id = {r["id"]: r for r in results}
        assert 1e-4 <= by_id["eq_2_1_duality"]["residual"] <= 1.0
        assert by_id["eq_2_1_duality"]["passed"]

    def test_unperturbed_control_passes(self):
        results = suite_for("graph_z2_c2", [0.5, 0.2], seed=11)
        by_id = {r["id"]: r for r in results}
        assert by_id["eq_2_1_duality"]["passed"]


class TestComplexDimensionThree:
    @pytest.mark.parametrize("case", [QUADRIC_Q3, CUBIC_THREEFOLD],
                             ids=lambda c: c.name)
    def test_every_check_passes_and_class_matches(self, case):
        config = cli.RunConfig(cases=[case.name], points=4, seed=11)
        report, failed, mismatched = cli.run_case(case, config,
                                                  len(sm.CATALOG))
        assert not failed and not mismatched
        for entry in report["points"]:
            assert "skipped" not in entry, entry
            assert len(entry["checks"]) == len(idn.REGISTRY)
            assert all(chk["passed"] for chk in entry["checks"]), entry
            theorems = entry["recurrence"]["theorems"]
            assert theorems["passed"] is (True if case is QUADRIC_Q3 else None)


#: The checks whose sides do not depend on the tuples: one row each.
TUPLE_INDEPENDENT = {"eq_1_10_hermitian", "eq_1_11_parallel_j",
                     "two_path_nabla_b", "two_path_r_perp", "two_path_r",
                     "two_path_nabla_r"}


class TestTupleBatch:
    @pytest.mark.parametrize("case, u", [
        (sm.get_case("veronese_cp2"), [0.3, -0.6]),
        (CUBIC_SURFACE, [0.4, -0.3, 0.2, 0.5]),
    ], ids=["veronese_cp2", "cubic_surface"])
    def test_each_tuple_evaluated_on_its_own(self, case, u):
        # Row q of a batch of tuples gives what tuple q gives alone: no check
        # mixes one tuple's vectors into another's sides.  A check that does
        # not depend on the tuples gives one row, the one each tuple gives.
        data = sm.extrinsic_data(case, u)
        batch = idn._draw_tuples(np.random.default_rng(29), 8, 2 * case.m,
                                 2 * case.l)
        ev = idn._Evaluator(data, batch)
        alone = [idn._Evaluator(data, [v[q:q + 1] for v in batch])
                 for q in range(8)]
        for chk in idn.REGISTRY:
            lhs, rhs = ev.sides(chk.identity_id)
            rows = 1 if chk.identity_id in TUPLE_INDEPENDENT else 8
            assert lhs.shape[0] == rhs.shape[0] == rows, chk.identity_id
            for q in range(8):
                lhs1, rhs1 = alone[q].sides(chk.identity_id)
                assert lhs1.shape[0] == rhs1.shape[0] == 1, chk.identity_id
                row = q % rows
                for got, want in ((lhs[row], lhs1[0]), (rhs[row], rhs1[0])):
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


class TestOnePassResiduals:
    """The suite takes every check's residual in one pass over the stacked
    sides; each must be, bit for bit, the worst per-tuple residual."""

    @pytest.mark.parametrize("case, u", [
        (sm.get_case("veronese_cp2"), [0.3, -0.6]),
        (CUBIC_SURFACE, [0.4, -0.3, 0.2, 0.5]),
        (SEGRE, [0.3, -0.2, 0.1, 0.4]),
    ], ids=["veronese_cp2", "cubic_surface", "segre_cp1xcp1"])
    @pytest.mark.parametrize("seed", [0, 101, 2**40 + 7])
    def test_residuals_are_per_tuple_maxima(self, case, u, seed):
        data = sm.extrinsic_data(case, u)
        tuples = idn._draw_tuples(np.random.default_rng(seed), 8,
                                  2 * case.m, 2 * case.l)
        ev = idn._Evaluator(data, tuples)
        results = idn.run_identity_suite(data, rng_seed=seed)
        assert [r["id"] for r in results] == [c.identity_id
                                               for c in idn.REGISTRY]
        for r in results:
            lhs, rhs = ev.sides(r["id"])
            # One row for a tuple-independent check, one per tuple otherwise.
            assert len(lhs) == (1 if r["id"] in TUPLE_INDEPENDENT else 8)
            # Its one row stands for every tuple: the per-tuple maximum.
            want = max(sm.normalized_residual(lhs[q % len(lhs)],
                                              rhs[q % len(rhs)])
                       for q in range(8))
            assert r["residual"] == want, r["id"]

    @pytest.mark.parametrize("sides", [
        (np.zeros((8, 0)), np.zeros((8, 0))),
        (np.zeros((8, 2, 0)), np.zeros((8, 2, 0))),
        (np.zeros((8, 3)), np.zeros((8, 2))),
    ], ids=["empty", "empty_inner_axis", "shapes_differ"])
    def test_malformed_sides_raise(self, monkeypatch, sides):
        # An empty segment would make reduceat read its neighbour's column.
        monkeypatch.setattr(idn._Evaluator, "eq_2_8", lambda self: sides)
        data = sm.extrinsic_data(sm.get_case("graph_z2_c2"), [0.5, 0.2])
        with pytest.raises(ValueError, match="non-empty"):
            idn.run_identity_suite(data, rng_seed=3)


#: Tuple contractions that checks once made with one ``np.einsum`` each.
FORMER_SPECS = (
    "ijkl,qi,qj,qk,ql->q", "aij,qi,qj->qa", "iajk,qi,qj,qk->qa",
    "iajk,qj,qi,qk->qa", "ijab,qi,qj,qa,qb->q", "iajk,qi,qj,qk,qa->q",
    "sakj,qs,qa->qkj", "akj,qa->qkj", "ikj,qi,qj->qk", "iba,qi,qa->qb",
    "sijab,qs,qi,qj,qa->qb", "ijab,qi,qj,qa->qb", "sijab,qs,qi,qj,qa,qb->q",
)


class TestContract:
    @pytest.mark.parametrize("m, l", [(1, 1), (1, 2), (2, 1), (3, 1)])
    @pytest.mark.parametrize("spec", FORMER_SPECS)
    def test_matches_einsum(self, spec, m, l):
        # Tangent letters run over 2m values and normal ones (a, b) over 2l,
        # so index-order bugs show once m != l.
        rng = np.random.default_rng(17)
        ins, _ = spec.split("->")
        t_sub, *v_subs = ins.split(",")
        size = {ch: 2 * l if ch in "ab" else 2 * m for ch in t_sub}
        T = rng.uniform(-1.0, 1.0, [size[ch] for ch in t_sub])
        vecs = [rng.uniform(-1.0, 1.0, (8, size[v[1]])) for v in v_subs]
        # The helper contracts leading axes in order: move the contracted
        # axes of T to the front, in the order of the vectors.
        lead = [v[1] for v in v_subs]
        order = [t_sub.index(ch) for ch in lead]
        order += [k for k in range(T.ndim) if k not in order]
        got = idn._contract(T.transpose(order), *vecs)
        want = np.einsum(spec, T, *vecs)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12


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


class _Allocations:
    """numpy, recording the shape of every array its ``zeros``, ``empty``
    and ``array`` make."""

    def __init__(self):
        self.shapes = []

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in ("zeros", "empty", "array"):
            return attr

        def make(*args, **kwargs):
            out = attr(*args, **kwargs)
            self.shapes.append(out.shape)
            return out
        return make


class TestFlatClosedForm:
    @pytest.mark.parametrize("case, u", [
        (sm.get_case("graph_c3"), [0.3, -0.4]),
        (CUBIC_SURFACE, [0.4, -0.3, 0.2, 0.5]),
    ], ids=["graph_c3", "cubic_surface"])
    def test_zeros_of_the_closed_forms_shape(self, case, u, monkeypatch):
        # At c = 0 the closed form of eq_1_3, eq_1_5 and the normal part is
        # exact zeros, of the shape the curved path gives on the same data,
        # and no slot vector (a (4, Q, ...) array) is built for it.
        data = sm.extrinsic_data(case, u)
        assert data.c == 0.0
        tuples = idn._draw_tuples(np.random.default_rng(7), idn.N_TUPLES,
                                  2 * case.m, 2 * case.l)
        slots = (4, idn.N_TUPLES)

        def closed_forms(data):
            made = _Allocations()
            monkeypatch.setattr(idn, "np", made)
            ev = idn._Evaluator(data, tuples)
            out = [ev.eq_1_3_gauss()[0], ev.eq_1_5_ricci()[0], ev.amb_r_normal]
            monkeypatch.undo()
            return out, [shape for shape in made.shapes if shape[:2] == slots]

        flat, flat_slots = closed_forms(data)
        curved, curved_slots = closed_forms(replace(data, c=1.0))
        assert flat_slots == []
        assert len(curved_slots) == 3  # the detector sees the curved path's
        for got, want in zip(flat, curved):
            assert got.shape == want.shape
            assert not got.any() and want.any()

    def test_no_pairings_on_flat_space(self, monkeypatch):
        # The suite on a flat point never reaches the closed form.
        def refuse(*args):
            raise AssertionError("closed form evaluated at c = 0")

        monkeypatch.setattr(idn, "curvature_operator", refuse)
        monkeypatch.setattr(idn, "_pairings", refuse)
        for case in (sm.get_case("graph_z2_c2"), CUBIC_SURFACE):
            data = sm.extrinsic_data(case, [0.3] * (2 * case.m))
            assert all(r["passed"] for r in
                       idn.run_identity_suite(data, rng_seed=5))

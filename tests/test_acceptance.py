"""Acceptance criteria: the eight gates the whole engine must clear.

Each test prints one PASS/FAIL line so the acceptance run reads as a
checklist under ``pytest -s tests/test_acceptance.py``.
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from oracles import (
    check_kaehler,
    christoffel,
    closed_form_christoffel,
    curvature_closed_form_tensor,
    curvature_from_connection,
    extract,
    fd_oracle,
    holomorphic_sectional_curvature,
    map_values,
)

from kaehlerlab import ambient as amb
from kaehlerlab import cli
from kaehlerlab import identities as idn
from kaehlerlab import recurrence as rec
from kaehlerlab import submanifold as sm
from kaehlerlab.jets import jet_values, multi_indices, seed_point


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}  {name}")
    assert ok, name


def test_1_ambient_validity():
    models = [
        amb.flat(2), amb.flat(3),
        amb.fubini_study(4.0, 2), amb.fubini_study(4.0, 3),
    ]
    ok = True
    rng = np.random.default_rng(1001)
    for model in models:
        d = model.real_dim
        J = amb.complex_structure(model)
        for _ in range(100):
            x = rng.uniform(-1, 1, d)
            checks = check_kaehler(model, x)
            ok &= checks["hermitian"] <= 1e-10
            ok &= checks["parallel_j"] <= 1e-9
        for _ in range(5):
            x = rng.uniform(-1, 1, d)
            R1 = curvature_from_connection(model, x)
            R2 = curvature_closed_form_tensor(model, x)
            den = 1 + max(np.abs(R1).max(), np.abs(R2).max())
            ok &= np.abs(R1 - R2).max() / den <= 1e-8
            X = rng.uniform(-1, 1, d)
            K = holomorphic_sectional_curvature(model, x, X)
            ok &= abs(K - model.c) <= 1e-8
    # The closed-form connection against differentiation of the metric; the
    # closed form does not depend on c, so two values of c are compared.
    for model in [amb.flat(2), amb.flat(3)] + [
        amb.fubini_study(c, N) for c in (1.0, 4.0) for N in (1, 2, 3)
    ]:
        for _ in range(5):
            x = rng.uniform(-1, 1, model.real_dim)
            want = jet_values(christoffel(model, seed_point(x)))
            got = closed_form_christoffel(model, x)
            ok &= np.abs(got - want).max() <= 1e-12
    report("1 ambient validity (Hermitian, parallel J, curvature paths, "
           "holomorphic sectional curvature, closed-form connection)", ok)


def test_2_jet_vs_finite_difference_oracle():
    ok = True
    rng = np.random.default_rng(1002)
    for case in sm.CATALOG:
        nu = 2 * case.m
        d_amb = case.ambient.real_dim
        for _ in range(10):
            u = rng.uniform(-0.9, 0.9, nu)
            jets = case.map_jets(u)
            for A in range(d_amb):
                def component(pt, A=A):
                    return map_values(case, pt)[A]

                for alpha in multi_indices(nu):
                    deg = sum(alpha)
                    if deg == 0:
                        continue
                    h = 1e-2 if deg == 3 else 1e-3
                    got = extract(jets[A], alpha)
                    want = fd_oracle(component, u, alpha, h)
                    ok &= abs(got - want) <= 1e-4 * (1 + abs(got))
    report("2 jet derivatives agree with the finite-difference oracle", ok)


def _identity_worst(points=25):
    worst = {}
    skipped = 0
    for ci, case in enumerate(sm.CATALOG):
        pts = cli.sample_points(case, points, 42, ci)
        for pi, u in enumerate(pts):
            try:
                data = sm.extrinsic_data(case, u)
            except (sm.DegeneratePointError, sm.FrameConstructionError):
                skipped += 1
                continue
            for res in idn.run_identity_suite(data, rng_seed=cli._point_seed(42, ci, pi)):
                key = res["id"]
                worst[key] = max(worst.get(key, 0.0), res["residual"])
            for key, val in data.two_path.items():
                worst[key] = max(worst.get(key, 0.0), val)
    return worst, skipped


WORST_CACHE = {}


def test_3_identity_suite():
    worst, skipped = _identity_worst()
    WORST_CACHE.update(worst)
    ok = skipped == 0 and all(v <= 1e-8 for v in worst.values())
    report(f"3 identity suite: 5 cases x 25 points x 8 tuples, worst "
           f"residual {max(worst.values()):.2e}", ok)


def test_4_two_path_agreement():
    worst = WORST_CACHE or _identity_worst()[0]
    keys = ["two_path_nabla_b", "two_path_r_perp", "two_path_r",
            "two_path_nabla_r"]
    ok = all(worst.get(k, np.inf) <= 1e-8 for k in keys)
    report("4 two-path agreement for nabla b, normal curvature, intrinsic "
           "curvature", ok)


def test_5_theorem_reproduction():
    ok = True
    rng = np.random.default_rng(1005)
    for _ in range(5):
        data = sm.extrinsic_data(sm.get_case("veronese_cp2"),
                                 rng.uniform(-1, 1, 2))
        result = rec.classify(data)
        ok &= result.classification == rec.PARALLEL
        ok &= result.mu_norm <= 1e-7
        ok &= result.theorem1_residual <= 1e-7
        ok &= result.theorem2_residual <= 1e-7
        ok &= result.norms["r_perp"] >= 0.5
        ok &= abs(sm.sectional_curvature(data) - 2.0) <= 1e-8
        verdict = rec.verify_theorems(data, result)
        ok &= verdict["passed"] is True
    report("5 theorem reproduction: constant-curvature quadric is parallel "
           "with parallel curvatures and sectional curvature 2", ok)


def test_6_mu_recovery():
    b = sm.extrinsic_data(sm.get_case("graph_z2_c2"), [0.0, 0.0]).b
    mu_true = np.array([0.3, -1.2])
    mu, fit = rec.solve_mu(np.einsum("i,ajk->iajk", mu_true, b), b)
    ok = np.abs(mu - mu_true).max() <= 1e-10 and fit <= 1e-12
    result = rec.classify(
        sm.extrinsic_data(sm.get_case("graph_z3_c2"), [1.0, 0.0])
    )
    ok &= result.classification == rec.NON_RECURRENT
    ok &= result.fit_residual > 0.1
    report("6 recurrence-form recovery and non-recurrent detection", ok)


def test_7_negative_controls(tmp_path):
    data = sm.extrinsic_data(sm.get_case("graph_z2_c2"), [0.5, 0.2])
    rng = np.random.default_rng(1007)
    noise = 1e-3 * rng.uniform(-1, 1, data.b.shape)
    noise = (noise + np.swapaxes(noise, 1, 2)) / 2.0
    results = idn.run_identity_suite(replace(data, b=data.b + noise),
                                     rng_seed=9)
    by_id = {r["id"]: r for r in results}
    ok = by_id["eq_2_1_duality"]["residual"] >= 1e-4
    # Half the largest residual a clean run reports is overtight whatever
    # the round-off, so the override must fail the run.
    out = tmp_path / "report.json"
    argv = ["run", "--case", "veronese_cp2", "--points", "10",
            "--out", str(out)]
    ok &= cli.main(argv) == cli.EXIT_OK
    worst = json.loads(out.read_text())["cases"][0]["aggregates"][
        "max_residual_per_check"]["eq_2_14"]
    ok &= worst > 0.0
    code = cli.main(argv + ["--tol", f"eq_2_14={worst / 2}"])
    ok &= code == cli.EXIT_CHECK_FAILURE
    report("7 negative controls: perturbed b breaks duality; overtight "
           "tolerance exits 1", ok)


def test_8_determinism(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code = cli.main([
            "run", "--points", "5", "--seed", "42", "--out", str(path),
        ])
        assert code == 0
    ok = paths[0].read_bytes() == paths[1].read_bytes()
    ok &= json.loads(paths[0].read_text())["schema"] == 1
    report("8 byte-identical JSON reports across identical runs", ok)

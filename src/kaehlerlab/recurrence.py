"""Recurrence analysis of the second fundamental form at the points of a case.

A nonzero second fundamental form b is recurrent when its covariant
derivative is a 1-form multiple of b itself.  This module fits that 1-form
by least squares (here: an explicit inner-product quotient, since the fit
per direction is one-dimensional), classifies each point, and checks the
structural conclusions expected of recurrent submanifolds of a complex
space form: vanishing recurrence form, parallel shape operators, and
parallel normal and intrinsic curvature.  Both steps take the evaluated
points of one case as a stack: the norms, the fit and the determinants run
over a leading point axis, and one result or verdict comes back per point,
in order.  A single point is the stack of one.  ``cli.run_case`` calls
both once per case, after its geometry and identity suite have run point
by point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .submanifold import (
    max_shape_operator_determinant,
    stack_field,
    tensor_norms,
)

TOTALLY_GEODESIC = "TotallyGeodesic"
PARALLEL = "Parallel"
RECURRENT = "Recurrent"
NON_RECURRENT = "NonRecurrent"

B_ZERO_TOL = 1e-9
NABLA_B_ZERO_TOL = 1e-7
FIT_TOL = 1e-7
THEOREM_TOL = 1e-7


@dataclass
class RecurrenceResult:
    classification: str
    mu: np.ndarray
    mu_norm: float
    fit_residual: float | None  # None where nabla b is round-off (see classify)
    b_norm: float
    nabla_b_norm: float
    theorem1_residual: float
    theorem2_residual: float
    norms: dict = field(default_factory=dict)


def solve_mu(nabla_b: np.ndarray, b: np.ndarray):
    """Best 1-form mu with nabla_b ~ mu (x) b at each point of a stack, and
    the relative fit residual.

    ``nabla_b`` and ``b`` carry a leading point axis; so do ``mu`` and the
    residual.  Per direction i the minimizer of |nabla_b[i] - mu_i b| is
    the inner-product quotient <nabla_b[i], b> / <b, b> over plain
    components, row by row.  The residual is |nabla_b - mu (x) b| /
    |nabla_b|, with 0/0 read as 0.
    """
    nabla_b = np.asarray(nabla_b, float)
    b = np.asarray(b, float)
    n_points, n_dirs = nabla_b.shape[:2]
    bb = (b * b).reshape(n_points, -1).sum(axis=1)[:, None]
    dot = (nabla_b * b[:, None]).reshape(n_points, n_dirs, -1).sum(axis=2)
    mu = np.divide(dot, bb, out=np.zeros_like(dot), where=bb != 0.0)
    resid = nabla_b - mu.reshape(mu.shape + (1,) * (b.ndim - 1)) * b[:, None]
    num = np.sqrt((resid ** 2).reshape(n_points, -1).sum(axis=1))
    den = np.sqrt((nabla_b ** 2).reshape(n_points, -1).sum(axis=1))
    fit = np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)
    return mu, fit


def _label(b_norm: float, nb_norm: float, fit: float) -> str:
    """A point's class from |b|, |nabla b| and the fit residual."""
    if b_norm <= B_ZERO_TOL:
        return TOTALLY_GEODESIC
    if nb_norm <= NABLA_B_ZERO_TOL:
        return PARALLEL
    if fit <= FIT_TOL:
        return RECURRENT
    return NON_RECURRENT


def classify(points) -> list:
    """Point classification from frame-independent norms of b and nabla b.

    ``points`` are the ``ExtrinsicData`` of one case; the norms, the fit
    and the theorem residuals are taken over all of them at once, and one
    ``RecurrenceResult`` per point is returned, in order.  At totally
    geodesic and parallel points nabla b is round-off, so the relative fit
    |nabla b - mu (x) b| / |nabla b| is noise: ``fit_residual`` is None
    there, while ``mu`` is still reported.
    """
    norms = tensor_norms(points)
    mu, fit = solve_mu(stack_field(points, "nabla_b"),
                       stack_field(points, "b"))
    mu_norm = np.sqrt((mu ** 2).sum(axis=1))
    t1 = norms["nabla_r_perp"] / (1.0 + norms["r_perp"])
    t2 = norms["nabla_r"] / (1.0 + norms["r"])
    results = []
    for k in range(len(points)):
        at_k = {key: float(value[k]) for key, value in norms.items()}
        label = _label(at_k["b"], at_k["nabla_b"], fit[k])
        results.append(RecurrenceResult(
            classification=label,
            mu=mu[k],
            mu_norm=float(mu_norm[k]),
            fit_residual=(None if label in (TOTALLY_GEODESIC, PARALLEL)
                          else float(fit[k])),
            b_norm=at_k["b"],
            nabla_b_norm=at_k["nabla_b"],
            theorem1_residual=float(t1[k]),
            theorem2_residual=float(t2[k]),
            norms=at_k,
        ))
    return results


def verify_theorems(points, results) -> list:
    """Verdicts on the structural conclusions at recurrent points, one per
    point of ``points`` (``ExtrinsicData`` of one case), from ``results``,
    their ``classify``.

    For points whose second fundamental form is recurrent (the parallel case
    included) in a complex space form, the recurrence form must vanish, the
    shape operators must be parallel, and both the normal and the intrinsic
    curvature must be parallel.  For positive ambient holomorphic curvature
    the normal curvature cannot vanish, which is checked through an explicit
    lower bound c / 8 on its norm.  Points whose hypothesis fails (totally
    geodesic or non-recurrent) are reported as not applicable; verdicts are
    data, never exceptions.  Each verdict holds ``applicable``, ``passed``
    (None when not applicable), ``failures`` and ``max_shape_determinant``
    (one batched ``det`` over the points); the residuals and norms the
    verdicts read stay on the results.
    """
    dets = max_shape_operator_determinant(points)
    verdicts = []
    for data, result, det in zip(points, results, dets):
        verdict = {
            "applicable": result.classification in (PARALLEL, RECURRENT),
            "max_shape_determinant": float(det),
            "failures": [],
        }
        verdicts.append(verdict)
        if not verdict["applicable"]:
            verdict["passed"] = None
            continue
        failures = verdict["failures"]
        if result.mu_norm > THEOREM_TOL:
            failures.append(f"recurrence form is nonzero: {result.mu_norm:.3e}")
        nA_rel = result.norms["nabla_A"] / (1.0 + result.norms["b"])
        if nA_rel > THEOREM_TOL:
            failures.append(f"shape operators not parallel: {nA_rel:.3e}")
        if result.theorem1_residual > THEOREM_TOL:
            failures.append(
                f"normal curvature not parallel: {result.theorem1_residual:.3e}"
            )
        if result.theorem2_residual > THEOREM_TOL:
            failures.append(
                "intrinsic curvature not parallel: "
                f"{result.theorem2_residual:.3e}"
            )
        if data.c > 0 and result.norms["r_perp"] < data.c / 8.0:
            failures.append(
                "normal curvature norm "
                f"{result.norms['r_perp']:.3e} below the bound {data.c / 8.0:.3e}"
            )
        verdict["passed"] = not failures
    return verdicts

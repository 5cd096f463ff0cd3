"""Recurrence analysis of the second fundamental form at a point.

A nonzero second fundamental form b is recurrent when its covariant
derivative is a 1-form multiple of b itself.  This module fits that 1-form
by least squares (here: an explicit inner-product quotient, since the fit
per direction is one-dimensional), classifies the point, and checks the
structural conclusions expected of recurrent submanifolds of a complex
space form: vanishing recurrence form, parallel shape operators, and
parallel normal and intrinsic curvature.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .submanifold import (
    ExtrinsicData,
    max_shape_operator_determinant,
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
    """Best 1-form mu with nabla_b ~ mu (x) b, and the relative fit residual.

    Per direction i the minimizer of |nabla_b[i] - mu_i b| is the
    inner-product quotient <nabla_b[i], b> / <b, b> over plain components.
    The residual is |nabla_b - mu (x) b| / |nabla_b|, with 0/0 read as 0.
    """
    nabla_b = np.asarray(nabla_b, float)
    b = np.asarray(b, float)
    bb = float((b * b).sum())
    n_dirs = nabla_b.shape[0]
    if bb == 0.0:
        mu = np.zeros(n_dirs)
    else:
        mu = (nabla_b * b).reshape(n_dirs, -1).sum(axis=1) / bb
    resid = nabla_b - mu.reshape((-1,) + (1,) * b.ndim) * b
    num = float(np.sqrt((resid ** 2).sum()))
    den = float(np.sqrt((nabla_b ** 2).sum()))
    fit = 0.0 if den == 0.0 else num / den
    return mu, fit


def classify(data: ExtrinsicData) -> RecurrenceResult:
    """Point classification from frame-independent norms of b and nabla b.

    At totally geodesic and parallel points nabla b is round-off, so the
    relative fit |nabla b - mu (x) b| / |nabla b| is noise: ``fit_residual``
    is None there, while ``mu`` is still reported.
    """
    norms = tensor_norms(data)
    b_norm = norms["b"]
    nb_norm = norms["nabla_b"]
    mu, fit = solve_mu(data.nabla_b, data.b)
    mu_norm = float(np.sqrt((mu ** 2).sum()))

    if b_norm <= B_ZERO_TOL:
        label = TOTALLY_GEODESIC
    elif nb_norm <= NABLA_B_ZERO_TOL:
        label = PARALLEL
    elif fit <= FIT_TOL:
        label = RECURRENT
    else:
        label = NON_RECURRENT

    t1 = norms["nabla_r_perp"] / (1.0 + norms["r_perp"])
    t2 = norms["nabla_r"] / (1.0 + norms["r"])
    return RecurrenceResult(
        classification=label,
        mu=mu,
        mu_norm=mu_norm,
        fit_residual=None if label in (TOTALLY_GEODESIC, PARALLEL) else fit,
        b_norm=b_norm,
        nabla_b_norm=nb_norm,
        theorem1_residual=t1,
        theorem2_residual=t2,
        norms=norms,
    )


def verify_theorems(data: ExtrinsicData, result: RecurrenceResult) -> dict:
    """Verdicts on the structural conclusions at a recurrent point, from
    ``result``, the point's ``classify``.

    For points whose second fundamental form is recurrent (the parallel case
    included) in a complex space form, the recurrence form must vanish, the
    shape operators must be parallel, and both the normal and the intrinsic
    curvature must be parallel.  For positive ambient holomorphic curvature
    the normal curvature cannot vanish, which is checked through an explicit
    lower bound c / 8 on its norm.  Points whose hypothesis fails (totally
    geodesic or non-recurrent) are reported as not applicable; verdicts are
    data, never exceptions.  Returns ``applicable``, ``passed`` (None when
    not applicable), ``failures`` and ``max_shape_determinant``; the
    residuals and norms the verdicts read stay on ``result``.
    """
    verdict = {
        "applicable": result.classification in (PARALLEL, RECURRENT),
        "max_shape_determinant": max_shape_operator_determinant(data),
        "failures": [],
    }
    if not verdict["applicable"]:
        verdict["passed"] = None
        return verdict
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
            f"intrinsic curvature not parallel: {result.theorem2_residual:.3e}"
        )
    if data.c > 0 and result.norms["r_perp"] < data.c / 8.0:
        failures.append(
            "normal curvature norm "
            f"{result.norms['r_perp']:.3e} below the bound {data.c / 8.0:.3e}"
        )
    verdict["passed"] = not failures
    return verdict

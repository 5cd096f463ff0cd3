"""Independent references the tests compare the package against.

None of these runs in ``kaehlerlab run``; each takes a second route to a
quantity the package computes in closed form or by jet arithmetic:

- ``christoffel``: the ambient Christoffel symbols by differentiating the
  metric jet (``ambient.christoffel_from_metric``), against the closed-form
  connection of ``ambient.metric``;
- ``curvature_from_connection``: the ambient curvature by differentiating
  those symbols once more, against ``curvature_closed_form_tensor``, the
  closed form ``ambient.curvature_operator`` over the chart basis;
- ``holomorphic_sectional_curvature`` and ``check_kaehler``: the space-form
  and Kaehler conditions on the differentiated route;
- ``extract`` and ``fd_oracle``: one mixed partial of a jet, and its
  central-difference estimate;
- ``jet_sqrt``: the square-root series, whose reciprocal is the reference
  for ``Jet.rsqrt``;
- ``map_values``: a case's chart on Python complex numbers, against
  ``ImmersionCase.map_jets``.

``closed_form_christoffel`` is no reference: it reads the package's
closed-form connection on the chart basis, in the layout of ``christoffel``.
"""

from __future__ import annotations

import math

import numpy as np

from kaehlerlab.ambient import (
    AmbientModel,
    christoffel_from_metric,
    complex_structure,
    connection_curvature,
    curvature_operator,
    metric,
)
from kaehlerlab.jets import (
    MAX_DEGREE,
    Jet,
    index_position,
    jet_gradient,
    jet_values,
    seed_point,
)


def christoffel(model: AmbientModel, x) -> np.ndarray:
    """Ambient Christoffel symbols Gamma^C_{AB} as jets at a chart point."""
    return christoffel_from_metric(metric(model, x).g)


def curvature_from_connection(model: AmbientModel, x) -> np.ndarray:
    """Curvature by differentiating the connection: the second, independent path.

    Returns the components R^D_{CAB} of R(e_A, e_B)e_C = R^D_{CAB} e_D.
    """
    Gamma = christoffel(model, seed_point(x))
    # w_A[D, C] = Gamma^D_{AC}, and d_A w_B[D, C] = d_A Gamma^D_{BC}.
    F = connection_curvature(jet_values(Gamma).transpose(1, 0, 2),
                             np.einsum("ADBC->ABDC", jet_gradient(Gamma)))
    return F.transpose(2, 3, 0, 1)


def curvature_closed_form_tensor(model: AmbientModel, x) -> np.ndarray:
    """Closed-form curvature over the chart basis, as R^D_{CAB}."""
    d = model.real_dim
    g = jet_values(metric(model, seed_point(x)).g)
    Kg = complex_structure(model).T @ g  # <J e_A, e_B>
    # Slot s runs over the basis on axis s of [A, B, C, E].
    ix = np.ix_(*[np.arange(d)] * 4)
    pairs = [(s, t) for s in range(4) for t in range(4)]
    P = {st: g[ix[st[0]], ix[st[1]]] for st in pairs}
    K = {st: Kg[ix[st[0]], ix[st[1]]] for st in pairs}
    # <R(e_A, e_B) e_C, e_E>, the last index raised.
    return np.einsum("DE,ABCE->DCAB", np.linalg.inv(g),
                     curvature_operator(model.c, P, K))


def holomorphic_sectional_curvature(model: AmbientModel, x, X) -> float:
    """g(R(X, JX)JX, X) / g(X, X)^2 using the differentiated-connection path."""
    g = jet_values(metric(model, seed_point(x)).g)
    J = complex_structure(model)
    R = curvature_from_connection(model, x)
    X = np.asarray(X, float)
    JX = J @ X
    RX = np.einsum("dcab,a,b,c->d", R, X, JX, JX)
    return float((RX @ g @ X) / (X @ g @ X) ** 2)


def check_kaehler(model: AmbientModel, x, metric_perturbation=None) -> dict:
    """Residual report for the Hermitian and parallel-J conditions.

    ``metric_perturbation`` (a constant matrix added to the metric) exists
    for negative-control tests; failures are reported, never raised.
    """
    G = metric(model, seed_point(x)).g
    if metric_perturbation is not None:
        G = G + np.asarray(metric_perturbation, float)
    gval = jet_values(G)
    J = complex_structure(model)

    hermitian = np.abs(J.T @ gval @ J - gval).max() / (1.0 + np.abs(gval).max())

    Gamma = christoffel_from_metric(G)
    Gval = jet_values(Gamma)
    # J is constant, so parallel J reduces to Gamma J - J Gamma per direction.
    nabla_J = np.einsum("cad,db->cab", Gval, J) - np.einsum(
        "dab,cd->cab", Gval, J
    )
    parallel_j = np.abs(nabla_J).max() / (1.0 + np.abs(Gval).max())

    return {"hermitian": float(hermitian), "parallel_j": float(parallel_j)}


def extract(jet: Jet, alpha) -> float | complex:
    """Mixed partial derivative of the underlying function at the point."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != jet.n:
        raise ValueError(f"multi-index length {len(alpha)} != n={jet.n}")
    if any(a < 0 for a in alpha):
        raise ValueError(f"negative exponent in multi-index {alpha}")
    if sum(alpha) > jet.order:
        raise ValueError(f"multi-index degree {sum(alpha)} exceeds the "
                         f"jet's order {jet.order}")
    scale = 1.0
    for a in alpha:
        scale *= math.factorial(a)
    return scale * jet.c[index_position(jet.n)[alpha]].item()


def fd_oracle(f, x, alpha, h: float) -> float:
    """Central-difference estimate of a mixed partial derivative.

    Iterates the two-point central stencil once per unit of each multi-index
    component.  Accuracy is the caller's concern; this exists as a slow,
    independent cross-check on the jet path.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    alpha = tuple(int(a) for a in alpha)
    if sum(alpha) > MAX_DEGREE:
        raise ValueError(f"multi-index degree {sum(alpha)} exceeds {MAX_DEGREE}")
    x = np.asarray(x, dtype=float)

    def recurse(a, pt):
        for i, ai in enumerate(a):
            if ai > 0:
                lower = list(a)
                lower[i] -= 1
                up = pt.copy()
                up[i] += h
                down = pt.copy()
                down[i] -= h
                return (recurse(lower, up) - recurse(lower, down)) / (2.0 * h)
        return float(f(pt) if len(pt) > 1 else f(pt[0]))

    return recurse(list(alpha), x)


def jet_sqrt(jet: Jet) -> Jet:
    """The square root of a jet with a positive real value."""
    a0 = jet._positive_value("sqrt")
    # sqrt(a0 (1 + e)) with e nilpotent: the binomial series.
    return jet._unit_series((1.0, 0.5, -0.125, 0.0625)) * np.sqrt(a0)


def map_values(case, u) -> np.ndarray:
    """F(u) as floats; the chart runs unchanged on Python complex."""
    u = np.asarray(u, dtype=float)
    z = [complex(u[2 * a], u[2 * a + 1]) for a in range(case.m)]
    w = np.array(case.chart(z), dtype=complex)
    return np.stack([w.real, w.imag], 1).ravel()


def closed_form_christoffel(model: AmbientModel, x) -> np.ndarray:
    """The closed-form connection of ``ambient.metric`` at the chart point
    ``x``, on the chart basis, as the floats Gamma^C_{AB} indexed
    ``[C, A, B]``; zero for flat space, which has no connection term."""
    d = model.real_dim
    connection = metric(model, seed_point(x)).connection
    if connection is None:
        return np.zeros((d, d, d))
    return jet_values(connection(np.eye(d), d)).transpose(2, 0, 1)

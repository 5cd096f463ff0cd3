"""Constant-holomorphic-curvature ambient spaces in a single real chart.

Two models are provided: flat complex space C^N and the Fubini-Study chart
of complex projective space, normalized so the holomorphic sectional
curvature equals the stored constant ``c``.  Complex coordinate ``w^a``
pairs with real coordinates ``(u^{2a}, u^{2a+1})``; the complex structure
rotates each pair by 90 degrees:  J e_{2a} = e_{2a+1},  J e_{2a+1} = -e_{2a}.

The Levi-Civita connection is given in closed form (``connection``): zero
for flat space, and for Fubini-Study the Kaehler expression in complex
coordinates, which holds for every ``c``.  Metric components are produced as
jets of the chart point, so differentiating them (``christoffel_from_metric``)
gives an independent reference for the closed form.  The curvature tensor is
likewise available along two independent routes: the closed-form expression
for a complex space form, and differentiation of the Christoffel symbols.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jets import (
    ComplexJet,
    Jet,
    jet_gradient,
    jet_matrix_inverse,
    jet_partials,
    jet_values,
    seed_point,
)

FLAT = "flat"
FUBINI_STUDY = "fubini_study"


@dataclass(frozen=True)
class AmbientModel:
    kind: str
    c: float
    complex_dim: int

    @property
    def real_dim(self) -> int:
        return 2 * self.complex_dim


def flat(complex_dim: int) -> AmbientModel:
    if complex_dim < 1:
        raise ValueError("complex dimension must be positive")
    return AmbientModel(kind=FLAT, c=0.0, complex_dim=complex_dim)


def fubini_study(c: float, complex_dim: int) -> AmbientModel:
    if complex_dim < 1:
        raise ValueError("complex dimension must be positive")
    if c <= 0:
        raise ValueError("Fubini-Study curvature constant must be positive")
    return AmbientModel(kind=FUBINI_STUDY, c=float(c), complex_dim=complex_dim)


def complex_structure(model: AmbientModel) -> np.ndarray:
    """J in real chart coordinates; constant for both models."""
    d = model.real_dim
    J = np.zeros((d, d))
    for a in range(model.complex_dim):
        J[2 * a + 1, 2 * a] = 1.0
        J[2 * a, 2 * a + 1] = -1.0
    return J


def metric(model: AmbientModel, x) -> np.ndarray:
    """Metric components as an object array of jets at a chart point.

    ``x`` is a sequence of ``real_dim`` jets (or floats, promoted to
    constants once at least one entry is a jet).
    """
    d = model.real_dim
    if len(x) != d:
        raise ValueError(f"chart point has {len(x)} components, expected {d}")
    n = next(v.n for v in x if isinstance(v, Jet))
    x = [v if isinstance(v, Jet) else Jet.constant(v, n) for v in x]

    G = np.empty((d, d), dtype=object)
    if model.kind == FLAT:
        for A in range(d):
            for B in range(d):
                G[A, B] = Jet.constant(1.0 if A == B else 0.0, n)
        return G

    # Fubini-Study: Hermitian components h_{ab} = k (rho d_ab - wbar_a w_b)/rho^2
    # with rho = 1 + |w|^2 and k = 4/c; the real metric is g = Re h under the
    # identification of a real tangent vector with its complex components.
    N = model.complex_dim
    k = 4.0 / model.c
    w = [ComplexJet(x[2 * a], x[2 * a + 1]) for a in range(N)]
    rho = Jet.constant(1.0, n)
    for a in range(N):
        rho = rho + w[a].abs2()
    inv_rho2 = (rho * rho).reciprocal()
    for a in range(N):
        for bb in range(N):
            cross = w[a].conj() * w[bb]  # wbar_a w_b
            s_re = -cross.re
            s_im = -cross.im
            if a == bb:
                s_re = s_re + rho
            s_re = s_re * inv_rho2 * k  # Re h_{ab}
            s_im = s_im * inv_rho2 * k  # Im h_{ab}
            G[2 * a, 2 * bb] = s_re
            G[2 * a + 1, 2 * bb + 1] = s_re.copy()
            G[2 * a, 2 * bb + 1] = s_im
            G[2 * a + 1, 2 * bb] = -s_im
    return G


def christoffel_from_metric(G: np.ndarray) -> np.ndarray:
    """Levi-Civita symbols of a jet-valued metric given in the chart ring.

    Jet variable A is chart coordinate A.  Returns an object array indexed
    ``[C, A, B]`` for Gamma^C_{AB}, exactly symmetric in (A, B): the
    metric is symmetrized first.
    """
    G = (G + G.T) * 0.5
    dG = jet_partials(G)  # [A, B, C] = d_A G_BC
    low = dG + np.einsum("BAD->ABD", dG) - np.einsum("DAB->ABD", dG)
    return np.einsum("CD,ABD->CAB", jet_matrix_inverse(G), low * 0.5)


def christoffel(model: AmbientModel, x) -> np.ndarray:
    """Ambient Christoffel symbols Gamma^C_{AB} as jets at a chart point."""
    return christoffel_from_metric(metric(model, x))


def connection(model: AmbientModel, x):
    """Closed-form Levi-Civita connection at chart point ``x``.

    Returns a function taking vectors X, Y to the chart components of
    Gamma(X, Y)^C = Gamma^C_{AB} X^A Y^B, or ``None`` for flat space.
    Polymorphic over floats and jets: the point and both vectors are
    sequences of ``real_dim`` matching scalars.  Vector components may also
    be arrays, which broadcast against each other, so one call gives
    Gamma(X, Y) for every pair of a batch.
    For Fubini-Study, with complex components X^a = X^{2a} + i X^{2a+1} and
    rho = 1 + |w|^2,

        Gamma(X, Y)^a = -(X^a <wbar, Y> + Y^a <wbar, X>) / rho,

    where <wbar, Y> = sum_b wbar_b Y^b; the constant ``c`` scales the metric
    only, so it drops out.
    """
    if model.kind == FLAT:
        return None
    N = model.complex_dim
    rho = 1.0
    for A in range(2 * N):
        rho = rho + x[A] * x[A]
    inv_rho = 1.0 / rho

    def wbar_dot(V):
        re = im = 0.0
        for a in range(N):
            wr, wi = x[2 * a], x[2 * a + 1]
            vr, vi = V[2 * a], V[2 * a + 1]
            re = re + wr * vr + wi * vi
            im = im + wr * vi - wi * vr
        return re * inv_rho, im * inv_rho

    def gamma(X, Y) -> list:
        sx_re, sx_im = wbar_dot(X)
        sy_re, sy_im = wbar_dot(Y)
        out = []
        for a in range(N):
            xr, xi = X[2 * a], X[2 * a + 1]
            yr, yi = Y[2 * a], Y[2 * a + 1]
            out.append(-(xr * sy_re - xi * sy_im + yr * sx_re - yi * sx_im))
            out.append(-(xr * sy_im + xi * sy_re + yr * sx_im + yi * sx_re))
        return out

    return gamma


def connection_tensor(model: AmbientModel, x) -> np.ndarray:
    """Closed-form Gamma^C_{AB} at a float chart point, indexed ``[C, A, B]``."""
    d = model.real_dim
    gamma = connection(model, x)
    if gamma is None:
        return np.zeros((d, d, d))
    basis = np.eye(d)
    return np.array(gamma(basis[:, :, None], basis[:, None, :]))


def curvature_operator(c: float, g, J, X, Y, Z) -> np.ndarray:
    """Closed-form space-form curvature R(X, Y)Z; no differentiation.

    Polymorphic over floats and jets: ``g`` is the metric matrix, ``J``
    the constant complex-structure matrix, and the vectors are sequences
    of matching scalars.  Returns the components as an array.
    """
    X, Y, Z = np.asarray(X), np.asarray(Y), np.asarray(Z)
    JX, JY, JZ = J @ X, J @ Y, J @ Z
    Z_low = g @ Z
    return (
        (Y @ Z_low) * X
        - (X @ Z_low) * Y
        + (JY @ Z_low) * JX
        - (JX @ Z_low) * JY
        + (X @ (g @ JY)) * 2.0 * JZ
    ) * (c / 4.0)


def curvature_from_connection(model: AmbientModel, x) -> np.ndarray:
    """Curvature by differentiating the connection: the second, independent path.

    Returns the components R^D_{CAB} of R(e_A, e_B)e_C = R^D_{CAB} e_D.
    """
    Gamma = christoffel(model, seed_point(x))
    Gval = jet_values(Gamma)
    # half[D, C, A, B] = d_A Gamma^D_BC + Gamma^D_As Gamma^s_BC
    half = (np.einsum("ADBC->DCAB", jet_gradient(Gamma))
            + np.einsum("DAs,sBC->DCAB", Gval, Gval))
    return half - half.transpose(0, 1, 3, 2)


def curvature_closed_form_tensor(model: AmbientModel, x) -> np.ndarray:
    """Closed-form curvature contracted over the chart basis, as R^D_{CAB}."""
    d = model.real_dim
    g = jet_values(metric(model, seed_point(x)))
    J = complex_structure(model)
    basis = np.eye(d)
    R = np.empty((d, d, d, d))
    for A in range(d):
        for B in range(d):
            for C in range(d):
                R[:, C, A, B] = curvature_operator(
                    model.c, g, J, basis[A], basis[B], basis[C]
                )
    return R


def holomorphic_sectional_curvature(model: AmbientModel, x, X) -> float:
    """g(R(X, JX)JX, X) / g(X, X)^2 using the differentiated-connection path."""
    g = jet_values(metric(model, seed_point(x)))
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
    G = metric(model, seed_point(x))
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

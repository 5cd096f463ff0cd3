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
    Jet,
    einsum,
    jet_gradient,
    jet_matrix_inverse,
    jet_partials,
    jet_values,
    seed_point,
    stack,
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


def metric(model: AmbientModel, x: Jet) -> Jet:
    """Metric components as a ``(d, d)`` jet at a chart point.

    ``x`` is the chart point as a jet of shape ``(real_dim,)``.
    """
    d = model.real_dim
    if len(x) != d:
        raise ValueError(f"chart point has {len(x)} components, expected {d}")
    if model.kind == FLAT:
        return Jet.constant(np.eye(d), x.n).truncate(x.order)

    # Fubini-Study: Hermitian components h_{ab} = k (rho d_ab - wbar_a w_b)/rho^2
    # with rho = 1 + |w|^2 and k = 4/c; the real metric is g = Re h under the
    # identification of a real tangent vector with its complex components.
    N = model.complex_dim
    k = 4.0 / model.c
    wr, wi = x[0::2], x[1::2]
    rho = 1.0 + (x * x).sum()
    inv_rho2 = (rho * rho).reciprocal()
    # wbar_a w_b, indexed [a, b]
    cross_re = wr[:, None] * wr[None, :] + wi[:, None] * wi[None, :]
    cross_im = wr[:, None] * wi[None, :] - wi[:, None] * wr[None, :]
    s_re = (rho * np.eye(N) - cross_re) * inv_rho2 * k  # Re h_{ab}
    s_im = -cross_im * inv_rho2 * k  # Im h_{ab}
    # Real blocks [[Re h, Im h], [-Im h, Re h]] on the pairs (2a, 2a + 1).
    G = stack([stack([s_re, s_im], axis=-1), stack([-s_im, s_re], axis=-1)],
              axis=1)
    return G.reshape(d, d)


def christoffel_from_metric(G: Jet) -> Jet:
    """Levi-Civita symbols of a jet-valued metric given in the chart ring.

    Jet variable A is chart coordinate A.  Returns a jet indexed
    ``[C, A, B]`` for Gamma^C_{AB}, exactly symmetric in (A, B): the
    metric is symmetrized first.
    """
    G = (G + G.T) * 0.5
    dG = jet_partials(G)  # [A, B, C] = d_A G_BC
    low = dG + einsum("BAD->ABD", dG) - einsum("DAB->ABD", dG)
    return einsum("CD,ABD->CAB", jet_matrix_inverse(G), low * 0.5)


def christoffel(model: AmbientModel, x) -> np.ndarray:
    """Ambient Christoffel symbols Gamma^C_{AB} as jets at a chart point."""
    return christoffel_from_metric(metric(model, x))


def connection(model: AmbientModel, x):
    """Closed-form Levi-Civita connection at chart point ``x``.

    Returns a function taking vectors X, Y to the chart components of
    Gamma(X, Y)^C = Gamma^C_{AB} X^A Y^B, or ``None`` for flat space.
    Polymorphic over floats and jets: the point has shape ``(real_dim,)``,
    and the vectors carry their components on the first axis and broadcast
    against each other over the rest, so one call gives Gamma(X, Y) for
    every pair of a batch (components first in the result too).
    For Fubini-Study, with complex components X^a = X^{2a} + i X^{2a+1} and
    rho = 1 + |w|^2,

        Gamma(X, Y)^a = -(X^a <wbar, Y> + Y^a <wbar, X>) / rho,

    where <wbar, Y> = sum_b wbar_b Y^b; the constant ``c`` scales the metric
    only, so it drops out.
    """
    if model.kind == FLAT:
        return None
    wr, wi = x[0::2], x[1::2]
    inv_rho = 1.0 / (1.0 + (x * x).sum())
    # Real and imaginary parts back onto the chart components.
    pair = np.eye(model.real_dim)
    to_re, to_im = pair[:, 0::2], pair[:, 1::2]

    def wbar_dot(vr, vi):
        re = einsum("a,a...->...", wr, vr) + einsum("a,a...->...", wi, vi)
        im = einsum("a,a...->...", wr, vi) - einsum("a,a...->...", wi, vr)
        return re * inv_rho, im * inv_rho

    def gamma(X, Y):
        X, Y = (V if isinstance(V, Jet) else np.asarray(V, float)
                for V in (X, Y))
        xr, xi, yr, yi = X[0::2], X[1::2], Y[0::2], Y[1::2]
        sx_re, sx_im = wbar_dot(xr, xi)
        sy_re, sy_im = wbar_dot(yr, yi)
        re = -(xr * sy_re - xi * sy_im + yr * sx_re - yi * sx_im)
        im = -(xr * sy_im + xi * sy_re + yr * sx_im + yi * sx_re)
        return (einsum("Aa,a...->A...", to_re, re)
                + einsum("Aa,a...->A...", to_im, im))

    return gamma


def connection_tensor(model: AmbientModel, x) -> np.ndarray:
    """Closed-form Gamma^C_{AB} at a float chart point, indexed ``[C, A, B]``."""
    d = model.real_dim
    gamma = connection(model, x)
    if gamma is None:
        return np.zeros((d, d, d))
    basis = np.eye(d)
    return gamma(basis[:, :, None], basis[:, None, :])


def curvature_operator(c: float, g, J, X, Y, Z):
    """Closed-form space-form curvature R(X, Y)Z; no differentiation.

    Polymorphic over floats and jets: ``g`` is the metric matrix (floats or
    a jet), ``J`` the constant complex-structure matrix.  The vectors carry
    their components on the last axis and broadcast against each other over
    the leading axes, so one call covers a whole batch of (X, Y, Z).
    Returns the components of R(X, Y)Z, on the last axis.
    """
    X, Y, Z = (v if isinstance(v, Jet) else np.asarray(v, float)
               for v in (X, Y, Z))

    def apply(M, V):  # M V over the components
        return einsum("AB,...B->...A", M, V)

    def dot(U, V):  # U . V over the components, kept as a length-1 axis
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
    # R(e_A, e_B) e_C on axes [A, B, C, D], reordered to R^D_{CAB}.
    R = curvature_operator(model.c, g, J, basis[:, None, None],
                           basis[None, :, None], basis[None, None, :])
    return R.transpose(3, 2, 0, 1)


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

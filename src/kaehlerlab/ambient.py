"""Constant-holomorphic-curvature ambient spaces in a single real chart.

Two models are provided: flat complex space C^N and the Fubini-Study chart
of complex projective space, normalized so the holomorphic sectional
curvature equals the stored constant ``c``.  Complex coordinate ``w^a``
pairs with real coordinates ``(u^{2a}, u^{2a+1})``; the complex structure
rotates each pair by 90 degrees:  J e_{2a} = e_{2a+1},  J e_{2a+1} = -e_{2a}.

Everything is written in closed form on the pairings <.,.> and <J.,.> of
real chart vectors.  With x the chart point, rho = 1 + |x|^2, k = 4/c and
W = (x, Jx)/rho, the Fubini-Study metric is k/rho I minus the rank-two term
k W^T W, and its Levi-Civita connection (the same for every ``c``) pairs
the vectors with W.  ``metric`` forms W and 1/rho once per chart point and
returns the metric jet, the connection on jet rows and the float
Christoffel symbols, all three from those values (``Metric``).  The
curvature of a complex space form (``curvature_operator``) is a quadratic
form in the pairings of its four slots.  Metric components are produced as
jets of the chart point, so differentiating them
(``christoffel_from_metric``) gives an independent reference for the
closed-form connection, and differentiating that connection once more
(``curvature_from_connection``) one for the closed-form curvature.  Its two
kernels, ``levi_civita`` and ``connection_curvature``, serve the induced and
normal connections of a submanifold too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .jets import (
    Jet,
    einsum,
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


@lru_cache(maxsize=None)
def complex_structure(model: AmbientModel) -> np.ndarray:
    """J in real chart coordinates; constant for both models, so built once
    per model, read-only."""
    d = model.real_dim
    J = np.zeros((d, d))
    for a in range(model.complex_dim):
        J[2 * a + 1, 2 * a] = 1.0
        J[2 * a, 2 * a + 1] = -1.0
    J.flags.writeable = False
    return J


@lru_cache(maxsize=None)
def _with_j(model: AmbientModel) -> np.ndarray:
    """(I, J) stacked, read-only: contracted with a vector U it gives
    (U, JU)."""
    IJ = np.stack([np.eye(model.real_dim), complex_structure(model)])
    IJ.flags.writeable = False
    return IJ


class Metric(NamedTuple):
    """The ambient metric at a chart point and the connection it determines:
    the components ``g``, a ``(d, d)`` jet; ``connection``, taking jet or
    float rows Y (shape ``(q, d)``) and a count p to Gamma(Y_i, Y_b) for the
    first p rows and every row, indexed ``[i, b, C]`` (``None`` for flat
    space); and the floats Gamma^C_{AB} at the point, ``[C, A, B]``."""

    g: Jet
    connection: Callable | None
    christoffel: np.ndarray


def metric(model: AmbientModel, x: Jet) -> Metric:
    """The metric at a chart point ``x``, a jet of shape ``(real_dim,)``.

    For Fubini-Study, with k = 4/c, rho = 1 + |x|^2 and W = (x, Jx)/rho,

        g = k (I/rho - W^T W),

    the real form of the Hermitian components k (rho d_ab - wbar_a w_b)/rho^2,
    and its Levi-Civita connection is

        Gamma(X, Y) = -(<W_0, Y> X + <W_1, Y> JX + <W_0, X> Y + <W_1, X> JY),

    the real form of -(X^a <wbar, Y> + Y^a <wbar, X>)/rho, free of ``c``.
    W and 1/rho are formed once, at the order of ``x``, for all three fields;
    the connection runs at the order of its rows (W truncated to it).
    """
    d = model.real_dim
    if len(x) != d:
        raise ValueError(f"chart point has {len(x)} components, expected {d}")
    if model.kind == FLAT:
        return Metric(Jet.constant(np.eye(d), x.n).truncate(x.order), None,
                      np.zeros((d, d, d)))
    IJ = _with_j(model)
    inv_rho = (1.0 + (x * x).sum()).reciprocal()
    W = einsum("sAB,B->sA", IJ, x) * inv_rho
    g = (inv_rho * np.eye(d) - einsum("sA,sB->AB", W, W)) * (4.0 / model.c)

    def connection(Y, p: int):
        # Gamma(Y_i, Y_b) = -(M[i, b] + M[b, i]), M[i, b] = <W, Y_b> (Y_i, JY_i)
        WY = einsum("sA,bA->sb", W, Y)
        M = einsum("sb,siC->ibC", WY, einsum("sAB,iB->siA", IJ, Y))
        return -(M[:p] + M.transpose(1, 0, 2)[:p])

    # Gamma(e_A, e_B): the same M on the chart basis, from the values of W.
    half = np.einsum("sCA,sB->CAB", IJ, jet_values(W))
    return Metric(g, connection, -(half + half.transpose(0, 2, 1)))


def levi_civita(G: Jet, G_inv: Jet) -> Jet:
    """Gamma^k_{ij} of a symmetric jet-valued metric ``G`` with inverse
    ``G_inv``, indexed ``[k, i, j]``; jet variable i is coordinate i."""
    dG = jet_partials(G)  # [i, j, k] = d_i G_jk
    low = dG + dG.transpose(1, 0, 2) - dG.transpose(1, 2, 0)
    return einsum("kt,ijt->kij", G_inv, low * 0.5)


def christoffel_from_metric(G: Jet) -> Jet:
    """Levi-Civita symbols of a jet-valued metric given in the chart ring.

    Returns a jet indexed ``[C, A, B]`` for Gamma^C_{AB}, exactly symmetric
    in (A, B): the metric is symmetrized first.
    """
    G = (G + G.T) * 0.5
    return levi_civita(G, jet_matrix_inverse(G))


def christoffel(model: AmbientModel, x) -> np.ndarray:
    """Ambient Christoffel symbols Gamma^C_{AB} as jets at a chart point."""
    return christoffel_from_metric(metric(model, x).g)


def curvature_operator(c: float, P, K):
    """Closed-form space-form curvature <R(X, Y)Z, W>; no differentiation.

    Takes the pairings of the four slots V = (X, Y, Z, W) only:
    ``P[s, t]`` = <V_s, V_t> and ``K[s, t]`` = <J V_s, V_t> for slots
    s, t in 0..3, as anything indexed by slot pairs (an array with the slot
    axes first, or a dict keyed by the pairs).  The entries may be floats or
    jets that broadcast against each other, and the result is their
    broadcast; only elementwise arithmetic is used.

        <R(X, Y)Z, W> = c/4 (<Y, Z><X, W> - <X, Z><Y, W> + <JY, Z><JX, W>
                             - <JX, Z><JY, W> + 2 <JY, X><JZ, W>)
    """
    return (
        P[1, 2] * P[0, 3]
        - P[0, 2] * P[1, 3]
        + K[1, 2] * K[0, 3]
        - K[0, 2] * K[1, 3]
        + K[1, 0] * K[2, 3] * 2.0
    ) * (c / 4.0)


def connection_curvature(w, dw) -> np.ndarray:
    """Curvature of the connection matrices ``w[i]`` (float, ``[i, x, y]``),
    with ``dw[i, j]`` = d_i w_j: F_ij = d_i w_j - d_j w_i + [w_i, w_j],
    indexed ``[i, j, x, y]``."""
    half = dw + np.einsum("ixs,jsy->ijxy", w, w)
    return half - half.transpose(1, 0, 2, 3)


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

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
returns the metric jet and the connection on jet rows, both from those
values (``Metric``); the Christoffel symbols are that connection on the
chart basis.  The curvature of a complex space form
(``curvature_operator``) is a quadratic form in the pairings of its four
slots.  Metric components are produced as jets of the chart point, so
differentiating them (``christoffel_from_metric``) gives an independent
reference for the closed-form connection; the tests differentiate that
reference once more for the closed-form curvature.  Its two kernels,
``levi_civita`` and ``connection_curvature``, serve the induced and normal
connections of a submanifold too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .jets import Jet, einsum, jet_matrix_inverse, jet_partials

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
    first p rows and every row, indexed ``[i, b, C]``.  On the chart basis
    it gives the Christoffel symbols, Gamma^C_{AB} at ``[A, B, C]``.  Flat
    space has no connection (``None``) and g is the identity there, so
    ``lower`` returns its rows unchanged."""

    g: Jet
    connection: Callable | None

    def lower(self, V):
        """Jet or float rows V with their chart index lowered,
        ``einsum("...A,AB->...B", V, g)``; V itself on flat space."""
        if self.connection is None:
            return V
        return einsum("...A,AB->...B", V, self.g)


def metric(model: AmbientModel, x: Jet) -> Metric:
    """The metric at a chart point ``x``, a jet of shape ``(real_dim,)``.

    For Fubini-Study, with k = 4/c, rho = 1 + |x|^2 and W = (x, Jx)/rho,

        g = k (I/rho - W^T W),

    the real form of the Hermitian components k (rho d_ab - wbar_a w_b)/rho^2,
    and its Levi-Civita connection is

        Gamma(X, Y) = -(<W_0, Y> X + <W_1, Y> JX + <W_0, X> Y + <W_1, X> JY),

    the real form of -(X^a <wbar, Y> + Y^a <wbar, X>)/rho, free of ``c``.
    W and 1/rho are formed once, at the order of ``x``, for both fields;
    the connection runs at the order of its rows (W truncated to it).
    Flat space gets the identity metric and no connection, so its callers
    skip the lowering products and the connection terms there.
    """
    d = model.real_dim
    if len(x) != d:
        raise ValueError(f"chart point has {len(x)} components, expected {d}")
    if model.kind == FLAT:
        return Metric(Jet.constant(np.eye(d), x.n).truncate(x.order), None)
    IJ = _with_j(model)
    inv_rho = (1.0 + (x * x).sum()).reciprocal()
    W = einsum("sAB,B->sA", IJ, x) * inv_rho
    g = (inv_rho * np.eye(d) - einsum("sA,sB->AB", W, W)) * (4.0 / model.c)

    def connection(Y, p: int):
        # Gamma(Y_i, Y_b) = -(M[i, b] + M[b, i]), M[i, b] = <W, Y_b> (Y_i, JY_i)
        WY = einsum("sA,bA->sb", W, Y)
        M = einsum("sb,siC->ibC", WY, einsum("sAB,iB->siA", IJ, Y))
        return -(M[:p] + M.transpose(1, 0, 2)[:p])

    return Metric(g, connection)


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

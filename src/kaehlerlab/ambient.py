"""Constant-holomorphic-curvature ambient spaces in a single real chart.

Two models are provided: flat complex space C^N and the Fubini-Study chart
of complex projective space, normalized so the holomorphic sectional
curvature equals the stored constant ``c``.  Complex coordinate ``w^a``
pairs with real coordinates ``(u^{2a}, u^{2a+1})``; the complex structure
rotates each pair by 90 degrees:  J e_{2a} = e_{2a+1},  J e_{2a+1} = -e_{2a}.

Everything is written in closed form on the pairings <.,.> and <J.,.> of
real chart vectors.  With x the chart point, rho = 1 + |x|^2 and k = 4/c,
the Fubini-Study metric is (k/rho) I minus the rank-two term
(k/rho^2)(x x^T + Jx Jx^T), and its Levi-Civita connection
(``connection``, the same for every ``c``) pairs the vectors with x and
Jx.  The curvature of a complex space form (``curvature_operator``) is a
quadratic form in the pairings of its four slots.  Metric components are
produced as jets of the chart point, so differentiating them
(``christoffel_from_metric``) gives an independent reference for the
closed-form connection, and differentiating that connection once more
(``curvature_from_connection``) one for the closed-form curvature.  Its two
kernels, ``levi_civita`` and ``connection_curvature``, serve the induced and
normal connections of a submanifold too.
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


def _with_j(model: AmbientModel) -> np.ndarray:
    """(I, J) stacked: contracted with a vector U it gives (U, JU)."""
    return np.stack([np.eye(model.real_dim), complex_structure(model)])


def metric(model: AmbientModel, x: Jet) -> Jet:
    """Metric components as a ``(d, d)`` jet at a chart point.

    ``x`` is the chart point as a jet of shape ``(real_dim,)``.  For
    Fubini-Study, with k = 4/c and rho = 1 + |x|^2,

        g = (k/rho) (I - (x x^T + Jx Jx^T) / rho),

    the real form of the Hermitian components k (rho d_ab - wbar_a w_b)/rho^2.
    """
    d = model.real_dim
    if len(x) != d:
        raise ValueError(f"chart point has {len(x)} components, expected {d}")
    if model.kind == FLAT:
        return Jet.constant(np.eye(d), x.n).truncate(x.order)
    V = einsum("sAB,B->sA", _with_j(model), x)  # (x, Jx)
    inv_rho = (1.0 + (x * x).sum()).reciprocal()
    scale = inv_rho * (4.0 / model.c)  # k/rho
    return scale * np.eye(d) - einsum("sA,sB->AB", V * (scale * inv_rho), V)


def levi_civita(G: Jet, G_inv: Jet) -> Jet:
    """Gamma^k_{ij} of a symmetric jet-valued metric ``G`` with inverse
    ``G_inv``, indexed ``[k, i, j]``; jet variable i is coordinate i."""
    dG = jet_partials(G)  # [i, j, k] = d_i G_jk
    low = dG + einsum("jik->ijk", dG) - einsum("kij->ijk", dG)
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
    return christoffel_from_metric(metric(model, x))


def connection(model: AmbientModel, x):
    """Closed-form Levi-Civita connection at chart point ``x``.

    Returns a function taking the rows of X (shape ``(p, d)``) and of Y
    (shape ``(q, d)``) to Gamma(X_i, Y_b) for every pair, indexed
    ``[i, b, C]``, or ``None`` for flat space.  The point and the vectors
    may be floats or jets.  For Fubini-Study, with rho = 1 + |x|^2,

        Gamma(X, Y) = -(<x, Y> X + <Jx, Y> JX + <x, X> Y + <Jx, X> JY) / rho,

    the real form of -(X^a <wbar, Y> + Y^a <wbar, X>)/rho; the constant
    ``c`` scales the metric only, so it drops out.
    """
    if model.kind == FLAT:
        return None
    IJ = _with_j(model)
    # (x, Jx)/rho: one reciprocal serves every pair.
    W = einsum("sAB,B->sA", IJ, x) * (1.0 / (1.0 + (x * x).sum()))

    def gamma(X, Y):
        VX = einsum("sAB,iB->siA", IJ, X)  # (X_i, JX_i)
        VY = einsum("sAB,bB->sbA", IJ, Y)
        return -(einsum("sA,bA,siC->ibC", W, Y, VX)
                 + einsum("sA,iA,sbC->ibC", W, X, VY))

    return gamma


def connection_tensor(model: AmbientModel, x) -> np.ndarray:
    """Closed-form Gamma^C_{AB} at a float chart point, indexed ``[C, A, B]``."""
    d = model.real_dim
    if model.kind == FLAT:
        return np.zeros((d, d, d))
    x = np.asarray(x, float)
    J = complex_structure(model)
    # Gamma(e_A, e_B): the <x, e_B> e_A and <Jx, e_B> J e_A terms, then the
    # same with A and B swapped.
    half = np.einsum("CA,B->CAB", np.eye(d), x) + np.einsum("CA,B->CAB", J, J @ x)
    return -(half + half.transpose(0, 2, 1)) / (1.0 + x @ x)


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
    g = jet_values(metric(model, seed_point(x)))
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

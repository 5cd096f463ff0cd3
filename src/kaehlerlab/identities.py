"""Structural identity checks on the extrinsic package at a point.

Every check evaluates the two sides of one identity on random tangent and
normal tuples drawn from a seeded generator, and reports the normalized
residual |LHS - RHS|_inf / (1 + max(|LHS|_inf, |RHS|_inf)) of each tuple.
Each check runs once per point, over all its tuples at once.  The catalog
covers the fundamental equations of submanifold geometry (Gauss, Codazzi,
Ricci), the Kaehler compatibility conditions, the interaction of the
complex structure with the second fundamental form, the shape operators
and their covariant derivatives, and the closed-form curvature expressions
special to complex space forms.  Agreement between independent assembly
routes for derived tensors is reported through the same interface.

The two sides of each identity are assembled from different ExtrinsicData
fields: no check compares a quantity against the code path that produced
it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ambient import curvature_operator
from .submanifold import ExtrinsicData, normalized_residual


@dataclass(frozen=True)
class IdentityCheck:
    identity_id: str
    description: str
    tolerance: float


REGISTRY = (
    IdentityCheck("eq_1_3_gauss", "Gauss equation relating ambient, intrinsic curvature and b", 1e-8),
    IdentityCheck("eq_1_4_codazzi", "Codazzi equation for the normal part of ambient curvature", 1e-8),
    IdentityCheck("eq_1_4_ambient_projection", "normal projection of the closed-form ambient curvature vanishes", 1e-9),
    IdentityCheck("eq_2_10_codazzi_symmetry", "full symmetry of the covariant derivative of b", 1e-9),
    IdentityCheck("eq_1_5_ricci", "Ricci equation for the normal curvature", 1e-8),
    IdentityCheck("eq_1_10_hermitian", "ambient metric is Hermitian for J", 1e-10),
    IdentityCheck("eq_1_11_parallel_j", "J is parallel for the ambient connection", 1e-9),
    IdentityCheck("eq_2_1_duality", "covariant derivatives of b and of the shape operators are dual", 1e-9),
    IdentityCheck("eq_2_3", "J-rotated normal slot of the shape-operator derivative", 1e-8),
    IdentityCheck("eq_2_4_tangent", "J is parallel for the induced connection", 1e-9),
    IdentityCheck("eq_2_4_normal", "b intertwines tangent J with normal J", 1e-9),
    IdentityCheck("eq_2_5_shape", "J-rotated normal gives J-composed shape operator", 1e-9),
    IdentityCheck("eq_2_5_normal", "J is parallel for the normal connection", 1e-9),
    IdentityCheck("eq_2_6", "derivative of b along JZ is the J-rotated derivative along Z", 1e-8),
    IdentityCheck("eq_2_7", "derivative of A along JZ is minus the J-composed derivative", 1e-8),
    IdentityCheck("eq_2_8", "shape operators anticommute with tangent J", 1e-9),
    IdentityCheck("eq_2_9", "shape-operator derivatives anticommute with tangent J", 1e-8),
    IdentityCheck("eq_2_11", "the space-form part of the normal curvature is parallel", 1e-8),
    IdentityCheck("eq_2_12", "normal curvature closed form from b and the shape operators", 1e-8),
    IdentityCheck("eq_2_13", "derivative of the normal curvature from derivatives of b and A", 1e-8),
    IdentityCheck("eq_2_14", "derivative of the normal curvature from shape-operator commutators", 1e-8),
    IdentityCheck("eq_2_15", "JZ-derivative of the normal curvature with the commutator correction", 1e-8),
    IdentityCheck("two_path_nabla_b", "two assembly routes for nabla b agree", 1e-9),
    IdentityCheck("two_path_r_perp", "two assembly routes for the normal curvature agree", 1e-8),
    IdentityCheck("two_path_r", "two assembly routes for the intrinsic curvature agree", 1e-8),
    IdentityCheck("two_path_nabla_r", "two assembly routes for nabla R agree", 1e-8),
    IdentityCheck("nabla_a_self_adjoint", "covariant derivative of A stays self-adjoint", 1e-9),
)

REGISTRY_BY_ID = {chk.identity_id: chk for chk in REGISTRY}


class _Evaluator:
    """All identities over one data package, on a batch of tuples per call.

    Tangent vectors are coefficient arrays over the coordinate frame,
    normal vectors coefficient arrays over the orthonormal normal frame.
    Each check takes X, Y, Z, W of shape (Q, 2m) and xi, eta of shape
    (Q, 2l), one tuple per row, and returns its two sides with the tuple
    axis first.
    """

    def __init__(self, data: ExtrinsicData):
        d = self.d = data
        self.nu = 2 * data.m
        self.p = 2 * data.l
        # The adapted frame: tangent components first, then normal ones.
        # The bundles are orthogonal, so the metric and J are block diagonal
        # and every pairing across slot kinds vanishes.
        n = self.nu + self.p
        G, J = np.zeros((n, n)), np.zeros((n, n))
        G[:self.nu, :self.nu], G[self.nu:, self.nu:] = d.g, np.eye(self.p)
        J[:self.nu, :self.nu], J[self.nu:, self.nu:] = d.J_tan, d.J_nor
        self._forms = np.stack([G, J.T @ G])  # <U, V> and <JU, V>
        self._chart_forms = np.stack([d.g_amb, d.J_amb.T @ d.g_amb])

    def _inner_tan(self, U, V) -> np.ndarray:
        return np.einsum("qi,ij,qj->q", U, self.d.g, V)

    def _closed_form_r(self, V, forms) -> np.ndarray:
        """Closed-form ambient <R(V_0, V_1)V_2, V_3> from the slot vectors
        ``V[s, ..., n]``, with ``forms`` the forms <U, V> and <JU, V> on
        their components."""
        P, K = (np.einsum("s...n,t...n->st...", V @ f, V) for f in forms)
        return curvature_operator(self.d.c, P, K)

    # Closed-form ambient curvature <R(X, Y)Z, W> with each slot tangent
    # ("t") or normal ("n"), written in adapted-frame components.
    def _amb_r(self, slots, X, Y, Z, W) -> np.ndarray:
        part = {"t": slice(None, self.nu), "n": slice(self.nu, None)}
        V = np.zeros((4, len(X), self.nu + self.p))
        for s, (kind, vec) in enumerate(zip(slots, (X, Y, Z, W))):
            V[s, :, part[kind]] = vec
        return self._closed_form_r(V, self._forms)

    def _amb_r_normal_part(self, X, Y, Z) -> np.ndarray:
        """Normal components of the closed-form ambient R(X, Y)Z, indexed
        ``[q, a]``."""
        # Taken in chart components: in the adapted frame every term of the
        # closed form pairs across slot kinds here, so it would read 0 by
        # construction whatever the frames.
        d = self.d
        V = np.broadcast_arrays(*[(U @ d.T)[:, None] for U in (X, Y, Z)],
                                d.N[None])
        return self._closed_form_r(np.stack(V), self._chart_forms)

    def _nabla_A_op(self, Z, xi) -> np.ndarray:
        """Matrices of (nabla_Z A)_xi acting on tangent coefficient vectors."""
        return np.einsum("sakj,qs,qa->qkj", self.d.nabla_A, Z, xi)

    def _A_op(self, xi) -> np.ndarray:
        return np.einsum("akj,qa->qkj", self.d.A, xi)

    @staticmethod
    def _each(Q, lhs, rhs):
        """A pair of sides that does not depend on the tuples, once per tuple."""
        return (np.broadcast_to(lhs, (Q,) + np.shape(lhs)),
                np.broadcast_to(rhs, (Q,) + np.shape(rhs)))

    # -- fundamental equations ------------------------------------------------

    def eq_1_3_gauss(self, X, Y, Z, W, xi, eta):
        d = self.d
        lhs = self._amb_r("tttt", X, Y, Z, W)
        r = np.einsum("ijkl,qi,qj,qk,ql->q", d.r, X, Y, Z, W)
        bXZ = np.einsum("aij,qi,qj->qa", d.b, X, Z)
        bYW = np.einsum("aij,qi,qj->qa", d.b, Y, W)
        bXW = np.einsum("aij,qi,qj->qa", d.b, X, W)
        bYZ = np.einsum("aij,qi,qj->qa", d.b, Y, Z)
        rhs = r + _dot(bXZ, bYW) - _dot(bXW, bYZ)
        return lhs[:, None], rhs[:, None]

    def eq_1_4_codazzi(self, X, Y, Z, W, xi, eta):
        d = self.d
        lhs = self._amb_r_normal_part(X, Y, Z)
        rhs = (
            np.einsum("iajk,qi,qj,qk->qa", d.nabla_b, X, Y, Z)
            - np.einsum("iajk,qi,qj,qk->qa", d.nabla_b, Y, X, Z)
        )
        return lhs, rhs

    def eq_1_4_ambient_projection(self, X, Y, Z, W, xi, eta):
        lhs = self._amb_r_normal_part(X, Y, Z)
        return lhs, np.zeros_like(lhs)

    def eq_2_10_codazzi_symmetry(self, X, Y, Z, W, xi, eta):
        d = self.d
        lhs = np.einsum("iajk,qi,qj,qk->qa", d.nabla_b, X, Y, Z)
        rhs = np.einsum("iajk,qj,qi,qk->qa", d.nabla_b, X, Y, Z)
        return lhs, rhs

    def eq_1_5_ricci(self, X, Y, Z, W, xi, eta):
        d = self.d
        lhs = self._amb_r("ttnn", X, Y, xi, eta)
        rp = np.einsum("ijab,qi,qj,qa,qb->q", d.r_perp, X, Y, xi, eta)
        Axi = self._A_op(xi)
        Aeta = self._A_op(eta)
        comm = _apply(Axi @ Aeta - Aeta @ Axi, X)
        rhs = rp - self._inner_tan(comm, Y)
        return lhs[:, None], rhs[:, None]

    # -- Kaehler conditions of the ambient ------------------------------------

    def eq_1_10_hermitian(self, X, Y, Z, W, xi, eta):
        d = self.d
        J = d.J_amb
        lhs = J.T @ d.g_amb @ J
        return self._each(len(X), lhs, d.g_amb)

    def eq_1_11_parallel_j(self, X, Y, Z, W, xi, eta):
        d = self.d
        J = d.J_amb
        # J is chart-constant, so parallel J reduces to Gamma J = J Gamma
        # slotwise: Gamma^D_{AB} J^B_C - J^D_B Gamma^B_{AC} = 0.
        lhs = np.einsum("dab,bc->dac", d.gamma_amb, J)
        rhs = np.einsum("db,bac->dac", J, d.gamma_amb)
        return self._each(len(X), lhs, rhs)

    # -- duality and J-compatibility on the submanifold ------------------------

    def eq_2_1_duality(self, X, Y, Z, W, xi, eta):
        # g((nabla_Z A)_xi X, Y) = <(nabla_Z b)(X, Y), xi>, with the right
        # side assembled from raw ingredients (db, gamma, gamma_perp, b)
        # rather than the precomputed derivative of b.
        d = self.d
        lhs = self._inner_tan(_apply(self._nabla_A_op(Z, xi), X), Y)
        nb = (
            d.db
            - np.einsum("tij,atk->iajk", d.gamma, d.b)
            - np.einsum("tik,ajt->iajk", d.gamma, d.b)
            + np.einsum("aci,cjk->iajk", d.gamma_perp, d.b)
        )
        rhs = np.einsum("iajk,qi,qj,qk,qa->q", nb, Z, X, Y, xi)
        return lhs[:, None], rhs[:, None]

    def eq_2_3(self, X, Y, Z, W, xi, eta):
        # (nabla_Z A)_{J xi} = J (nabla_Z A)_xi.
        d = self.d
        lhs = _apply(self._nabla_A_op(Z, xi @ d.J_nor.T), X)
        rhs = _apply(self._nabla_A_op(Z, xi), X) @ d.J_tan.T
        return lhs, rhs

    def eq_2_4_tangent(self, X, Y, Z, W, xi, eta):
        # nabla_X (J Y) = J nabla_X Y on frame fields: J_tan is parallel.
        d = self.d
        nJ = (
            d.dJ_tan
            + np.einsum("kit,tj->ikj", d.gamma, d.J_tan)
            - np.einsum("tij,kt->ikj", d.gamma, d.J_tan)
        )
        lhs = np.einsum("ikj,qi,qj->qk", nJ, X, Y)
        return lhs, np.zeros_like(lhs)

    def eq_2_4_normal(self, X, Y, Z, W, xi, eta):
        # J b(X, Y) = b(X, J Y).
        d = self.d
        lhs = np.einsum("aij,qi,qj->qa", d.b, X, Y) @ d.J_nor.T
        rhs = np.einsum("aij,qi,qj->qa", d.b, X, Y @ d.J_tan.T)
        return lhs, rhs

    def eq_2_5_shape(self, X, Y, Z, W, xi, eta):
        # A_{J xi} = J A_xi.
        d = self.d
        lhs = _apply(self._A_op(xi @ d.J_nor.T), X)
        rhs = _apply(self._A_op(xi), X) @ d.J_tan.T
        return lhs, rhs

    def eq_2_5_normal(self, X, Y, Z, W, xi, eta):
        # D_X (J xi) = J D_X xi on frame fields: J_nor is parallel.
        d = self.d
        nJ = (
            d.dJ_nor
            + np.einsum("bci,ca->iba", d.gamma_perp, d.J_nor)
            - np.einsum("cai,bc->iba", d.gamma_perp, d.J_nor)
        )
        lhs = np.einsum("iba,qi,qa->qb", nJ, X, xi)
        return lhs, np.zeros_like(lhs)

    def eq_2_6(self, X, Y, Z, W, xi, eta):
        # (nabla_{JZ} b)(X, Y) = J ((nabla_Z b)(X, Y)).
        d = self.d
        lhs = np.einsum("iajk,qi,qj,qk->qa", d.nabla_b, Z @ d.J_tan.T, X, Y)
        rhs = np.einsum("iajk,qi,qj,qk->qa", d.nabla_b, Z, X, Y) @ d.J_nor.T
        return lhs, rhs

    def eq_2_7(self, X, Y, Z, W, xi, eta):
        # (nabla_{JZ} A)_xi = -J (nabla_Z A)_xi.
        d = self.d
        lhs = _apply(self._nabla_A_op(Z @ d.J_tan.T, xi), X)
        rhs = -_apply(self._nabla_A_op(Z, xi), X) @ d.J_tan.T
        return lhs, rhs

    def eq_2_8(self, X, Y, Z, W, xi, eta):
        # J A_xi = -A_xi J.
        d = self.d
        Axi = self._A_op(xi)
        lhs = _apply(Axi, X) @ d.J_tan.T
        rhs = -_apply(Axi, X @ d.J_tan.T)
        return lhs, rhs

    def eq_2_9(self, X, Y, Z, W, xi, eta):
        # J (nabla_Z A)_xi = -(nabla_Z A)_xi J.
        d = self.d
        nA = self._nabla_A_op(Z, xi)
        lhs = _apply(nA, X) @ d.J_tan.T
        rhs = -_apply(nA, X @ d.J_tan.T)
        return lhs, rhs

    def eq_2_11(self, X, Y, Z, W, xi, eta):
        # The space-form part of the normal curvature, g(X, JY) J xi as a
        # tensor field in (X, Y, xi), is parallel: its covariant derivative
        # through the induced and normal connections vanishes.
        d = self.d
        T = np.einsum("it,tj,ba->ijab", d.g, d.J_tan, d.J_nor)
        dT = (
            np.einsum("sit,tj,ba->sijab", d.dg, d.J_tan, d.J_nor)
            + np.einsum("it,stj,ba->sijab", d.g, d.dJ_tan, d.J_nor)
            + np.einsum("it,tj,sba->sijab", d.g, d.J_tan, d.dJ_nor)
        )
        nT = (
            dT
            - np.einsum("tsi,tjab->sijab", d.gamma, T)
            - np.einsum("tsj,itab->sijab", d.gamma, T)
            - np.einsum("cas,ijcb->sijab", d.gamma_perp, T)
            + np.einsum("bcs,ijac->sijab", d.gamma_perp, T)
        )
        lhs = np.einsum("sijab,qs,qi,qj,qa->qb", nT, Z, X, Y, xi)
        return lhs, np.zeros_like(lhs)

    # -- closed forms for the normal curvature and its derivative --------------

    def eq_2_12(self, X, Y, Z, W, xi, eta):
        d = self.d
        lhs = np.einsum("ijab,qi,qj,qa->qb", d.r_perp, X, Y, xi)
        gXJY = self._inner_tan(X, Y @ d.J_tan.T)
        Axi = self._A_op(xi)
        rhs = (
            d.c / 2.0 * gXJY[:, None] * (xi @ d.J_nor.T)
            + np.einsum("aij,qi,qj->qa", d.b, X, _apply(Axi, Y))
            - np.einsum("aij,qi,qj->qa", d.b, Y, _apply(Axi, X))
        )
        return lhs, rhs

    def eq_2_13(self, X, Y, Z, W, xi, eta):
        d = self.d
        lhs = np.einsum("sijab,qs,qi,qj,qa->qb", d.nabla_r_perp, Z, X, Y, xi)
        Axi = self._A_op(xi)
        nbZ = np.einsum("sajk,qs->qajk", d.nabla_b, Z)
        nAxi = self._nabla_A_op(Z, xi)
        rhs = (
            np.einsum("qajk,qj,qk->qa", nbZ, X, _apply(Axi, Y))
            + np.einsum("aij,qi,qj->qa", d.b, X, _apply(nAxi, Y))
            - np.einsum("qajk,qj,qk->qa", nbZ, Y, _apply(Axi, X))
            - np.einsum("aij,qi,qj->qa", d.b, Y, _apply(nAxi, X))
        )
        return lhs, rhs

    def eq_2_14(self, X, Y, Z, W, xi, eta):
        d = self.d
        lhs = np.einsum(
            "sijab,qs,qi,qj,qa,qb->q", d.nabla_r_perp, Z, X, Y, xi, eta
        )
        Axi = self._A_op(xi)
        Aeta = self._A_op(eta)
        nAxi = self._nabla_A_op(Z, xi)
        nAeta = self._nabla_A_op(Z, eta)
        comm = (nAxi @ Aeta - Aeta @ nAxi) + (Axi @ nAeta - nAeta @ Axi)
        rhs = self._inner_tan(_apply(comm, X), Y)
        return lhs[:, None], rhs[:, None]

    def eq_2_15(self, X, Y, Z, W, xi, eta):
        d = self.d
        lhs = np.einsum(
            "sijab,qs,qi,qj,qa,qb->q", d.nabla_r_perp, Z @ d.J_tan.T, X, Y, xi, eta
        )
        rhs = np.einsum(
            "sijab,qs,qi,qj,qa,qb->q", d.nabla_r_perp, Z, X, Y, xi @ d.J_nor.T, eta
        )
        nAJxi = self._nabla_A_op(Z, xi @ d.J_nor.T)
        Aeta = self._A_op(eta)
        comm = nAJxi @ Aeta - Aeta @ nAJxi
        rhs -= 2.0 * self._inner_tan(_apply(comm, X), Y)
        return lhs[:, None], rhs[:, None]

    # -- route agreements and structural sanity ---------------------------------

    def _two_path(self, route, Q):
        return self._each(Q, [self.d.two_path[route]], [0.0])

    def two_path_nabla_b(self, X, *_):
        return self._two_path("two_path_nabla_b", len(X))

    def two_path_r_perp(self, X, *_):
        return self._two_path("two_path_r_perp", len(X))

    def two_path_r(self, X, *_):
        return self._two_path("two_path_r", len(X))

    def two_path_nabla_r(self, X, *_):
        return self._two_path("two_path_nabla_r", len(X))

    def nabla_a_self_adjoint(self, X, Y, Z, W, xi, eta):
        nA = self._nabla_A_op(Z, xi)
        lhs = self._inner_tan(_apply(nA, X), Y)
        rhs = self._inner_tan(X, _apply(nA, Y))
        return lhs[:, None], rhs[:, None]


def _apply(M, V) -> np.ndarray:
    """Each row's matrix applied to that row's vector."""
    return np.einsum("qkj,qj->qk", M, V)


def _dot(U, V) -> np.ndarray:
    """Row-wise dot products."""
    return np.einsum("qa,qa->q", U, V)


def _draw_tuples(rng, n_tuples: int, nu: int, p: int) -> list:
    """X, Y, Z, W (n_tuples, nu) and xi, eta (n_tuples, p), uniform in [-1, 1].

    One draw, split by columns: the same doubles in the same order as
    drawing X, Y, Z, W, xi, eta vector by vector, tuple after tuple.
    """
    flat = rng.uniform(-1.0, 1.0, (n_tuples, 4 * nu + 2 * p))
    return np.split(flat, [nu, 2 * nu, 3 * nu, 4 * nu, 4 * nu + p], axis=1)


def run_identity_suite(
    data: ExtrinsicData,
    rng_seed: int,
    n_tuples: int = 8,
    tolerances=None,
    b_override=None,
) -> list:
    """All registry checks on one point; returns a list of result dicts.

    Each check is evaluated once, on all ``n_tuples`` random tuples of four
    tangent and two normal vectors with components uniform in [-1, 1]; the
    reported residual is the worst of the per-tuple residuals.
    ``tolerances`` maps identity ids to replacement tolerances.
    ``b_override`` substitutes the stored second fundamental form
    (negative-control hook).
    """
    rng = np.random.default_rng(rng_seed)
    if b_override is not None:
        data = replace(data, b=np.asarray(b_override, float))
    ev = _Evaluator(data)
    tuples = _draw_tuples(rng, n_tuples, ev.nu, ev.p)
    results = []
    for chk in REGISTRY:
        lhs, rhs = getattr(ev, chk.identity_id)(*tuples)
        worst = float(normalized_residual(lhs, rhs, batched=True).max(initial=0.0))
        tol = chk.tolerance
        if tolerances and chk.identity_id in tolerances:
            tol = float(tolerances[chk.identity_id])
        results.append(
            {
                "id": chk.identity_id,
                "residual": worst,
                "tolerance": tol,
                "passed": bool(worst <= tol),
            }
        )
    return results

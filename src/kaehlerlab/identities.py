"""Structural identity checks on the extrinsic package at a point.

Every check evaluates the two sides of one identity on random tangent and
normal tuples drawn from a seeded generator, and reports the normalized
residual |LHS - RHS|_inf / (1 + max(|LHS|_inf, |RHS|_inf)).  The catalog
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

from dataclasses import dataclass

import numpy as np

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
    """All identities over one data package, vectors supplied per call.

    Tangent vectors are coefficient arrays over the coordinate frame,
    normal vectors coefficient arrays over the orthonormal normal frame.
    """

    def __init__(self, data: ExtrinsicData):
        self.d = data
        self.nu = 2 * data.m
        self.p = 2 * data.l

    def _inner_tan(self, U, V) -> float:
        return float(U @ self.d.g @ V)

    # Closed-form ambient curvature with each slot tangent ("t") or normal
    # ("n"), written in adapted-frame components; tangent slots carry the
    # induced metric and J_tan, normal slots the identity metric and J_nor.
    def _amb_r(self, X, Y, Z, W, slots) -> float:
        d = self.d
        g_of = {"t": d.g, "n": np.eye(self.p)}
        J_of = {"t": d.J_tan, "n": d.J_nor}
        sx, sy, sz, sw = slots
        JX = J_of[sx] @ X
        JY = J_of[sy] @ Y
        JZ = J_of[sz] @ Z

        # The tangent and normal bundles are orthogonal, so inner products
        # across different slot kinds vanish.
        def pair(U, su, V, sv):
            return float(U @ g_of[su] @ V) if su == sv else 0.0

        val = (
            pair(Y, sy, Z, sz) * pair(X, sx, W, sw)
            - pair(X, sx, Z, sz) * pair(Y, sy, W, sw)
            + pair(JY, sy, Z, sz) * pair(JX, sx, W, sw)
            - pair(JX, sx, Z, sz) * pair(JY, sy, W, sw)
            + 2.0 * pair(X, sx, JY, sy) * pair(JZ, sz, W, sw)
        )
        return d.c / 4.0 * val

    def _amb_r_normal_part(self, X, Y, Z) -> np.ndarray:
        """Normal components of the closed-form ambient R(X, Y)Z."""
        out = np.empty(self.p)
        basis = np.eye(self.p)
        for a in range(self.p):
            out[a] = self._amb_r(X, Y, Z, basis[a], "tttn")
        return out

    def _nabla_A_op(self, Z, xi) -> np.ndarray:
        """Matrix of (nabla_Z A)_xi acting on tangent coefficient vectors."""
        return np.einsum("sakj,s,a->kj", self.d.nabla_A, Z, xi)

    def _A_op(self, xi) -> np.ndarray:
        return np.einsum("akj,a->kj", self.d.A, xi)

    # -- fundamental equations ------------------------------------------------

    def eq_1_3_gauss(self, X, Y, Z, W, xi, eta):
        d = self.d
        lhs = self._amb_r(X, Y, Z, W, "tttt")
        r = np.einsum("ijkl,i,j,k,l->", d.r, X, Y, Z, W)
        bXZ = np.einsum("aij,i,j->a", d.b, X, Z)
        bYW = np.einsum("aij,i,j->a", d.b, Y, W)
        bXW = np.einsum("aij,i,j->a", d.b, X, W)
        bYZ = np.einsum("aij,i,j->a", d.b, Y, Z)
        rhs = r + bXZ @ bYW - bXW @ bYZ
        return np.array([lhs]), np.array([rhs])

    def eq_1_4_codazzi(self, X, Y, Z, W, xi, eta):
        d = self.d
        lhs = self._amb_r_normal_part(X, Y, Z)
        rhs = (
            np.einsum("iajk,i,j,k->a", d.nabla_b, X, Y, Z)
            - np.einsum("iajk,i,j,k->a", d.nabla_b, Y, X, Z)
        )
        return lhs, rhs

    def eq_1_4_ambient_projection(self, X, Y, Z, W, xi, eta):
        lhs = self._amb_r_normal_part(X, Y, Z)
        return lhs, np.zeros_like(lhs)

    def eq_2_10_codazzi_symmetry(self, X, Y, Z, W, xi, eta):
        d = self.d
        lhs = np.einsum("iajk,i,j,k->a", d.nabla_b, X, Y, Z)
        rhs = np.einsum("iajk,j,i,k->a", d.nabla_b, X, Y, Z)
        return lhs, rhs

    def eq_1_5_ricci(self, X, Y, Z, W, xi, eta):
        d = self.d
        lhs = self._amb_r(X, Y, xi, eta, "ttnn")
        rp = np.einsum("ijab,i,j,a,b->", d.r_perp, X, Y, xi, eta)
        Axi = self._A_op(xi)
        Aeta = self._A_op(eta)
        comm = (Axi @ Aeta - Aeta @ Axi) @ X
        rhs = rp - self._inner_tan(comm, Y)
        return np.array([lhs]), np.array([rhs])

    # -- Kaehler conditions of the ambient ------------------------------------

    def eq_1_10_hermitian(self, X, Y, Z, W, xi, eta):
        d = self.d
        J = d.J_amb
        lhs = J.T @ d.g_amb @ J
        return lhs, d.g_amb

    def eq_1_11_parallel_j(self, X, Y, Z, W, xi, eta):
        d = self.d
        J = d.J_amb
        # J is chart-constant, so parallel J reduces to Gamma J = J Gamma
        # slotwise: Gamma^D_{AB} J^B_C - J^D_B Gamma^B_{AC} = 0.
        lhs = np.einsum("dab,bc->dac", d.gamma_amb, J)
        rhs = np.einsum("db,bac->dac", J, d.gamma_amb)
        return lhs, rhs

    # -- duality and J-compatibility on the submanifold ------------------------

    def eq_2_1_duality(self, X, Y, Z, W, xi, eta):
        # g((nabla_Z A)_xi X, Y) = <(nabla_Z b)(X, Y), xi>, with the right
        # side assembled from raw ingredients (db, gamma, gamma_perp, b)
        # rather than the precomputed derivative of b.
        d = self.d
        lhs = self._inner_tan(self._nabla_A_op(Z, xi) @ X, Y)
        nb = (
            d.db
            - np.einsum("tij,atk->iajk", d.gamma, d.b)
            - np.einsum("tik,ajt->iajk", d.gamma, d.b)
            + np.einsum("aci,cjk->iajk", d.gamma_perp, d.b)
        )
        rhs = float(np.einsum("iajk,i,j,k->a", nb, Z, X, Y) @ xi)
        return np.array([lhs]), np.array([rhs])

    def eq_2_3(self, X, Y, Z, W, xi, eta):
        # (nabla_Z A)_{J xi} = J (nabla_Z A)_xi.
        d = self.d
        lhs = self._nabla_A_op(Z, d.J_nor @ xi) @ X
        rhs = d.J_tan @ (self._nabla_A_op(Z, xi) @ X)
        return lhs, rhs

    def eq_2_4_tangent(self, X, Y, Z, W, xi, eta):
        # nabla_X (J Y) = J nabla_X Y on frame fields: J_tan is parallel.
        d = self.d
        nJ = (
            d.dJ_tan
            + np.einsum("kit,tj->ikj", d.gamma, d.J_tan)
            - np.einsum("tij,kt->ikj", d.gamma, d.J_tan)
        )
        lhs = np.einsum("ikj,i,j->k", nJ, X, Y)
        return lhs, np.zeros_like(lhs)

    def eq_2_4_normal(self, X, Y, Z, W, xi, eta):
        # J b(X, Y) = b(X, J Y).
        d = self.d
        lhs = d.J_nor @ np.einsum("aij,i,j->a", d.b, X, Y)
        rhs = np.einsum("aij,i,j->a", d.b, X, d.J_tan @ Y)
        return lhs, rhs

    def eq_2_5_shape(self, X, Y, Z, W, xi, eta):
        # A_{J xi} = J A_xi.
        d = self.d
        lhs = self._A_op(d.J_nor @ xi) @ X
        rhs = d.J_tan @ (self._A_op(xi) @ X)
        return lhs, rhs

    def eq_2_5_normal(self, X, Y, Z, W, xi, eta):
        # D_X (J xi) = J D_X xi on frame fields: J_nor is parallel.
        d = self.d
        nJ = (
            d.dJ_nor
            + np.einsum("bci,ca->iba", d.gamma_perp, d.J_nor)
            - np.einsum("cai,bc->iba", d.gamma_perp, d.J_nor)
        )
        lhs = np.einsum("iba,i,a->b", nJ, X, xi)
        return lhs, np.zeros_like(lhs)

    def eq_2_6(self, X, Y, Z, W, xi, eta):
        # (nabla_{JZ} b)(X, Y) = J ((nabla_Z b)(X, Y)).
        d = self.d
        lhs = np.einsum("iajk,i,j,k->a", d.nabla_b, d.J_tan @ Z, X, Y)
        rhs = d.J_nor @ np.einsum("iajk,i,j,k->a", d.nabla_b, Z, X, Y)
        return lhs, rhs

    def eq_2_7(self, X, Y, Z, W, xi, eta):
        # (nabla_{JZ} A)_xi = -J (nabla_Z A)_xi.
        d = self.d
        lhs = self._nabla_A_op(d.J_tan @ Z, xi) @ X
        rhs = -d.J_tan @ (self._nabla_A_op(Z, xi) @ X)
        return lhs, rhs

    def eq_2_8(self, X, Y, Z, W, xi, eta):
        # J A_xi = -A_xi J.
        d = self.d
        Axi = self._A_op(xi)
        lhs = d.J_tan @ (Axi @ X)
        rhs = -Axi @ (d.J_tan @ X)
        return lhs, rhs

    def eq_2_9(self, X, Y, Z, W, xi, eta):
        # J (nabla_Z A)_xi = -(nabla_Z A)_xi J.
        d = self.d
        nA = self._nabla_A_op(Z, xi)
        lhs = d.J_tan @ (nA @ X)
        rhs = -nA @ (d.J_tan @ X)
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
        lhs = np.einsum("sijab,s,i,j,a->b", nT, Z, X, Y, xi)
        return lhs, np.zeros_like(lhs)

    # -- closed forms for the normal curvature and its derivative --------------

    def eq_2_12(self, X, Y, Z, W, xi, eta):
        d = self.d
        lhs = np.einsum("ijab,i,j,a->b", d.r_perp, X, Y, xi)
        gXJY = self._inner_tan(X, d.J_tan @ Y)
        Axi = self._A_op(xi)
        rhs = (
            d.c / 2.0 * gXJY * (d.J_nor @ xi)
            + np.einsum("aij,i,j->a", d.b, X, Axi @ Y)
            - np.einsum("aij,i,j->a", d.b, Y, Axi @ X)
        )
        return lhs, rhs

    def eq_2_13(self, X, Y, Z, W, xi, eta):
        d = self.d
        lhs = np.einsum("sijab,s,i,j,a->b", d.nabla_r_perp, Z, X, Y, xi)
        Axi = self._A_op(xi)
        nbZ = np.einsum("sajk,s->ajk", d.nabla_b, Z)
        nAxi = self._nabla_A_op(Z, xi)
        rhs = (
            np.einsum("ajk,j,k->a", nbZ, X, Axi @ Y)
            + np.einsum("aij,i,j->a", d.b, X, nAxi @ Y)
            - np.einsum("ajk,j,k->a", nbZ, Y, Axi @ X)
            - np.einsum("aij,i,j->a", d.b, Y, nAxi @ X)
        )
        return lhs, rhs

    def eq_2_14(self, X, Y, Z, W, xi, eta):
        d = self.d
        lhs = np.einsum(
            "sijab,s,i,j,a,b->", d.nabla_r_perp, Z, X, Y, xi, eta
        )
        Axi = self._A_op(xi)
        Aeta = self._A_op(eta)
        nAxi = self._nabla_A_op(Z, xi)
        nAeta = self._nabla_A_op(Z, eta)
        comm = (nAxi @ Aeta - Aeta @ nAxi) + (Axi @ nAeta - nAeta @ Axi)
        rhs = self._inner_tan(comm @ X, Y)
        return np.array([lhs]), np.array([rhs])

    def eq_2_15(self, X, Y, Z, W, xi, eta):
        d = self.d
        lhs = np.einsum(
            "sijab,s,i,j,a,b->", d.nabla_r_perp, d.J_tan @ Z, X, Y, xi, eta
        )
        rhs = np.einsum(
            "sijab,s,i,j,a,b->", d.nabla_r_perp, Z, X, Y, d.J_nor @ xi, eta
        )
        nAJxi = self._nabla_A_op(Z, d.J_nor @ xi)
        Aeta = self._A_op(eta)
        comm = nAJxi @ Aeta - Aeta @ nAJxi
        rhs -= 2.0 * self._inner_tan(comm @ X, Y)
        return np.array([lhs]), np.array([rhs])

    # -- route agreements and structural sanity ---------------------------------

    def two_path_nabla_b(self, *_):
        return np.array([self.d.two_path["two_path_nabla_b"]]), np.zeros(1)

    def two_path_r_perp(self, *_):
        return np.array([self.d.two_path["two_path_r_perp"]]), np.zeros(1)

    def two_path_r(self, *_):
        return np.array([self.d.two_path["two_path_r"]]), np.zeros(1)

    def two_path_nabla_r(self, *_):
        return np.array([self.d.two_path["two_path_nabla_r"]]), np.zeros(1)

    def nabla_a_self_adjoint(self, X, Y, Z, W, xi, eta):
        nA = self._nabla_A_op(Z, xi)
        lhs = self._inner_tan(nA @ X, Y)
        rhs = self._inner_tan(X, nA @ Y)
        return np.array([lhs]), np.array([rhs])


def run_identity_suite(
    data: ExtrinsicData,
    rng_seed: int,
    n_tuples: int = 8,
    tolerances=None,
    b_override=None,
) -> list:
    """All registry checks on one point; returns a list of result dicts.

    Each check is evaluated on ``n_tuples`` random tuples of four tangent
    and two normal vectors with components uniform in [-1, 1]; the reported
    residual is the worst over tuples.  ``tolerances`` maps identity ids to
    replacement tolerances.  ``b_override`` substitutes the stored second
    fundamental form (negative-control hook).
    """
    rng = np.random.default_rng(rng_seed)
    if b_override is not None:
        import copy

        data = copy.copy(data)
        data.b = np.asarray(b_override, float)
    ev = _Evaluator(data)
    nu, p = ev.nu, ev.p
    tuples = [
        (
            rng.uniform(-1.0, 1.0, nu),
            rng.uniform(-1.0, 1.0, nu),
            rng.uniform(-1.0, 1.0, nu),
            rng.uniform(-1.0, 1.0, nu),
            rng.uniform(-1.0, 1.0, p),
            rng.uniform(-1.0, 1.0, p),
        )
        for _ in range(n_tuples)
    ]
    results = []
    for chk in REGISTRY:
        fn = getattr(ev, chk.identity_id)
        worst = 0.0
        for tup in tuples:
            lhs, rhs = fn(*tup)
            worst = max(worst, normalized_residual(lhs, rhs))
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

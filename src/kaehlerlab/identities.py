"""Structural identity checks on the extrinsic package at a point.

Every check evaluates the two sides of one identity on random tangent and
normal tuples drawn from a seeded generator, and reports the normalized
residual |LHS - RHS|_inf / (1 + max(|LHS|_inf, |RHS|_inf)) of each tuple.
Each check runs once per point, over all its tuples at once; the checks
that do not depend on the tuples (the Kaehler conditions of the ambient and
the route agreements) run once, on one row.  The catalog
covers the fundamental equations of submanifold geometry (Gauss, Codazzi,
Ricci), the Kaehler compatibility conditions, the interaction of the
complex structure with the second fundamental form, the shape operators
and their covariant derivatives, and the closed-form curvature expressions
special to complex space forms.  The four agreements between independent
assembly routes (``two_path_*``) report the gate residuals geometry
recorded (``ExtrinsicData.two_path``) at the gates' own tolerances,
``submanifold.TWO_PATH_TOL``.  On flat space (c = 0) the closed-form
ambient curvature is exact zeros, with no slot vectors built.

The two sides of each identity are assembled from different ExtrinsicData
fields: no check compares a quantity against the code path that produced
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ambient import curvature_operator
from .submanifold import TWO_PATH_TOL, ExtrinsicData, covariant_derivative

#: Random tuples of tangent and normal vectors each check runs on per point.
N_TUPLES = 8

#: The slot pairs (s, t) whose <V_s, V_t> (P) and <J V_s, V_t> (K)
#: ``curvature_operator`` reads, and for each pair its form (0 for <., .>,
#: 1 for <J., .>) and its two slots, as index arrays.
_P_PAIRS = ((1, 2), (0, 3), (0, 2), (1, 3))
_K_PAIRS = _P_PAIRS + ((1, 0), (2, 3))
_PAIR_FORM, _PAIR_S, _PAIR_T = np.array(
    [(f, s, t) for f, pairs in enumerate((_P_PAIRS, _K_PAIRS))
     for s, t in pairs]).T


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
    IdentityCheck("two_path_nabla_b", "two assembly routes for nabla b agree", TWO_PATH_TOL["two_path_nabla_b"]),
    IdentityCheck("two_path_r_perp", "two assembly routes for the normal curvature agree", TWO_PATH_TOL["two_path_r_perp"]),
    IdentityCheck("two_path_r", "two assembly routes for the intrinsic curvature agree", TWO_PATH_TOL["two_path_r"]),
    IdentityCheck("two_path_nabla_r", "two assembly routes for nabla R agree", TWO_PATH_TOL["two_path_nabla_r"]),
    IdentityCheck("nabla_a_self_adjoint", "covariant derivative of A stays self-adjoint", 1e-9),
)

REGISTRY_BY_ID = {chk.identity_id: chk for chk in REGISTRY}


class _Evaluator:
    """All identities over one data package and one batch of tuples.

    Tangent vectors are coefficient arrays over the coordinate frame,
    normal vectors coefficient arrays over the orthonormal normal frame.
    The tuples are X, Y, Z, W of shape (Q, 2m) and xi, eta of shape
    (Q, 2l), one tuple per row; each check returns its two sides with the
    tuple axis first, or with one row when they do not depend on the tuples.
    Contractions and tuple applications that several checks read are made
    once, here.
    """

    def __init__(self, data: ExtrinsicData, tuples):
        d = self.d = data
        self.nu = 2 * data.m
        self.p = 2 * data.l
        self.X, self.Y, self.Z, self.W, self.xi, self.eta = tuples
        self.Q = len(self.X)
        # b and nabla b with the normal index last, so that their tangent
        # slots lead, as ``_contract`` needs.
        self._b = d.b.transpose(1, 2, 0)
        self._nb = d.nabla_b.transpose(0, 2, 3, 1)
        self.JZ = self.Z @ d.J_tan.T
        self.Jxi = self.xi @ d.J_nor.T
        self.A_xi = _contract(d.A, self.xi)
        self.A_eta = _contract(d.A, self.eta)
        # Matrices of (nabla_Z A)_xi acting on tangent coefficient vectors.
        self.nA_xi = _contract(d.nabla_A, self.Z, self.xi)
        self.nA_Jxi = _contract(d.nabla_A, self.Z, self.Jxi)
        # Tuple applications that several checks read.
        self.XJ = self.X @ d.J_tan.T
        self.A_xi_X = _apply(self.A_xi, self.X)
        self.A_xi_Y = _apply(self.A_xi, self.Y)
        self.nA_xi_X = _apply(self.nA_xi, self.X)
        self.nA_xi_Y = _apply(self.nA_xi, self.Y)
        self.nb_XYZ = _contract(self._nb, self.X, self.Y, self.Z)
        self.nb_YXZ = _contract(self._nb, self.Y, self.X, self.Z)
        # [q, b, a] = (nabla_Z R_perp)(X, Y)^b_a, as matrices acting on xi.
        self.nrp_ZXY = _contract(d.nabla_r_perp, self.Z, self.X,
                                 self.Y).swapaxes(1, 2)
        self.nrp_ZXY_xi = _apply(self.nrp_ZXY, self.xi)
        self.amb_r_normal = self._amb_r_normal_part(self.X, self.Y, self.Z)

    def _inner_tan(self, U, V) -> np.ndarray:
        return _dot(U @ self.d.g, V)

    @cached_property
    def _forms(self) -> np.ndarray:
        """<U, V> and <JU, V> in the adapted frame, tangent components
        first: diag(g, I) and diag(J_tan^T g, J_nor^T).  The bundles are
        orthogonal, so the metric and J are block diagonal and every pairing
        across slot kinds vanishes."""
        d, nu, n = self.d, self.nu, self.nu + self.p
        forms = np.zeros((2, n, n))
        forms[0, :nu, :nu], forms[0, nu:, nu:] = d.g, np.eye(self.p)
        forms[1, :nu, :nu], forms[1, nu:, nu:] = d.J_tan.T @ d.g, d.J_nor.T
        return forms

    # Closed-form ambient curvature <R(X, Y)Z, W> with each slot tangent
    # ("t") or normal ("n"), in adapted-frame components.  Flat space
    # (c = 0) has no curvature: exact zeros, with no forms or slot vectors
    # built and no pairings formed, here and in the normal part below.
    def _amb_r(self, slots, X, Y, Z, W) -> np.ndarray:
        if self.d.c == 0.0:
            return np.zeros(self.Q)
        part = {"t": slice(None, self.nu), "n": slice(self.nu, None)}
        V = np.zeros((4, self.Q, self.nu + self.p))
        for s, (kind, vec) in enumerate(zip(slots, (X, Y, Z, W))):
            V[s, :, part[kind]] = vec
        return curvature_operator(self.d.c, *_pairings(V, self._forms))

    def _amb_r_normal_part(self, X, Y, Z) -> np.ndarray:
        """Normal components of the closed-form ambient R(X, Y)Z, indexed
        ``[q, a]``."""
        # Taken in chart components: in the adapted frame every term of the
        # closed form pairs across slot kinds here, so it would read 0 by
        # construction whatever the frames.
        d = self.d
        if d.c == 0.0:
            return np.zeros((self.Q, self.p))
        V = np.empty((4, self.Q, self.p, d.N.shape[1]))
        V[:3] = (np.array([X, Y, Z]) @ d.T)[:, :, None]
        V[3] = d.N
        chart_forms = np.array([d.g_amb, d.J_amb.T @ d.g_amb])
        return curvature_operator(d.c, *_pairings(V, chart_forms))

    # -- fundamental equations ------------------------------------------------

    def eq_1_3_gauss(self):
        X, Y, Z, W, b = self.X, self.Y, self.Z, self.W, self._b
        lhs = self._amb_r("tttt", X, Y, Z, W)
        rhs = (_contract(self.d.r, X, Y, Z, W)
               + _dot(_contract(b, X, Z), _contract(b, Y, W))
               - _dot(_contract(b, X, W), _contract(b, Y, Z)))
        return lhs[:, None], rhs[:, None]

    def eq_1_4_codazzi(self):
        return self.amb_r_normal, self.nb_XYZ - self.nb_YXZ

    def eq_1_4_ambient_projection(self):
        return self.amb_r_normal, np.zeros_like(self.amb_r_normal)

    def eq_2_10_codazzi_symmetry(self):
        return self.nb_XYZ, self.nb_YXZ

    def eq_1_5_ricci(self):
        X, Y, Axi, Aeta = self.X, self.Y, self.A_xi, self.A_eta
        lhs = self._amb_r("ttnn", X, Y, self.xi, self.eta)
        rhs = (_contract(self.d.r_perp, X, Y, self.xi, self.eta)
               - self._inner_tan(_apply(Axi @ Aeta - Aeta @ Axi, X), Y))
        return lhs[:, None], rhs[:, None]

    # -- Kaehler conditions of the ambient ------------------------------------

    def eq_1_10_hermitian(self):
        d = self.d
        J = d.J_amb
        lhs = J.T @ d.g_amb @ J
        return lhs[None], d.g_amb[None]

    def eq_1_11_parallel_j(self):
        d = self.d
        J = d.J_amb
        # J is chart-constant, so parallel J reduces to Gamma J = J Gamma
        # slotwise: Gamma^D_{AB} J^B_C - J^D_B Gamma^B_{AC} = 0.
        lhs = np.einsum("dab,bc->dac", d.gamma_amb, J)
        rhs = np.einsum("db,bac->dac", J, d.gamma_amb)
        return lhs[None], rhs[None]

    # -- duality and J-compatibility on the submanifold ------------------------

    def eq_2_1_duality(self):
        # g((nabla_Z A)_xi X, Y) = <(nabla_Z b)(X, Y), xi>, with the right
        # side assembled from raw ingredients (db, gamma, gamma_perp, b)
        # rather than the precomputed derivative of b.
        d = self.d
        lhs = self._inner_tan(self.nA_xi_X, self.Y)
        nb = (
            d.db.transpose(0, 2, 3, 1)
            - np.einsum("tij,atk->ijka", d.gamma, d.b)
            - np.einsum("tik,ajt->ijka", d.gamma, d.b)
            + np.einsum("aci,cjk->ijka", d.gamma_perp, d.b)
        )
        rhs = _contract(nb, self.Z, self.X, self.Y, self.xi)
        return lhs[:, None], rhs[:, None]

    def eq_2_3(self):
        # (nabla_Z A)_{J xi} = J (nabla_Z A)_xi.
        lhs = _apply(self.nA_Jxi, self.X)
        rhs = self.nA_xi_X @ self.d.J_tan.T
        return lhs, rhs

    def eq_2_4_tangent(self):
        # (nabla_X J) Y = 0 on frame fields: J_tan is parallel.
        d = self.d
        nJ = covariant_derivative(d.J_tan, d.dJ_tan, d.gamma, d.gamma_perp,
                                  "ut")
        lhs = _apply(_contract(nJ, self.X), self.Y)
        return lhs, np.zeros_like(lhs)

    def eq_2_4_normal(self):
        # J b(X, Y) = b(X, J Y).
        lhs = _contract(self._b, self.X, self.Y) @ self.d.J_nor.T
        rhs = _contract(self._b, self.X, self.Y @ self.d.J_tan.T)
        return lhs, rhs

    def eq_2_5_shape(self):
        # A_{J xi} = J A_xi.
        lhs = _apply(_contract(self.d.A, self.Jxi), self.X)
        rhs = self.A_xi_X @ self.d.J_tan.T
        return lhs, rhs

    def eq_2_5_normal(self):
        # (D_X J) xi = 0 on frame fields: J_nor is parallel.
        d = self.d
        nJ = covariant_derivative(d.J_nor, d.dJ_nor, d.gamma, d.gamma_perp,
                                  "nn")
        lhs = _apply(_contract(nJ, self.X), self.xi)
        return lhs, np.zeros_like(lhs)

    def eq_2_6(self):
        # (nabla_{JZ} b)(X, Y) = J ((nabla_Z b)(X, Y)).
        lhs = _contract(self._nb, self.JZ, self.X, self.Y)
        rhs = _contract(self._nb, self.Z, self.X, self.Y) @ self.d.J_nor.T
        return lhs, rhs

    def eq_2_7(self):
        # (nabla_{JZ} A)_xi = -J (nabla_Z A)_xi.
        lhs = _apply(_contract(self.d.nabla_A, self.JZ, self.xi), self.X)
        rhs = -self.nA_xi_X @ self.d.J_tan.T
        return lhs, rhs

    def eq_2_8(self):
        # J A_xi = -A_xi J.
        return (self.A_xi_X @ self.d.J_tan.T, -_apply(self.A_xi, self.XJ))

    def eq_2_9(self):
        # J (nabla_Z A)_xi = -(nabla_Z A)_xi J.
        return (self.nA_xi_X @ self.d.J_tan.T, -_apply(self.nA_xi, self.XJ))

    def eq_2_11(self):
        # The space-form part of the normal curvature, g(X, JY) J xi as a
        # tensor field in (X, Y, xi), is parallel: its covariant derivative
        # through the induced and normal connections vanishes.
        d = self.d
        gJ = d.g @ d.J_tan
        dgJ = d.dg @ d.J_tan + d.g @ d.dJ_tan  # [s, i, j] = d_s (g J)_ij
        T = np.einsum("ij,ba->ijab", gJ, d.J_nor)
        dT = (np.einsum("sij,ba->sijab", dgJ, d.J_nor)
              + np.einsum("ij,sba->sijab", gJ, d.dJ_nor))
        nT = covariant_derivative(T, dT, d.gamma, d.gamma_perp, "ttnn")
        lhs = _contract(nT, self.Z, self.X, self.Y, self.xi)
        return lhs, np.zeros_like(lhs)

    # -- closed forms for the normal curvature and its derivative --------------

    def eq_2_12(self):
        d, X, Y = self.d, self.X, self.Y
        lhs = _contract(d.r_perp, X, Y, self.xi)
        gXJY = self._inner_tan(X, Y @ d.J_tan.T)
        rhs = (
            d.c / 2.0 * gXJY[:, None] * self.Jxi
            + _contract(self._b, X, self.A_xi_Y)
            - _contract(self._b, Y, self.A_xi_X)
        )
        return lhs, rhs

    def eq_2_13(self):
        X, Y, Z, nb, b = self.X, self.Y, self.Z, self._nb, self._b
        rhs = (
            _contract(nb, Z, X, self.A_xi_Y)
            + _contract(b, X, self.nA_xi_Y)
            - _contract(nb, Z, Y, self.A_xi_X)
            - _contract(b, Y, self.nA_xi_X)
        )
        return self.nrp_ZXY_xi, rhs

    def eq_2_14(self):
        Axi, Aeta, nAxi = self.A_xi, self.A_eta, self.nA_xi
        lhs = _dot(self.nrp_ZXY_xi, self.eta)
        nAeta = _contract(self.d.nabla_A, self.Z, self.eta)
        comm = (nAxi @ Aeta - Aeta @ nAxi) + (Axi @ nAeta - nAeta @ Axi)
        rhs = self._inner_tan(_apply(comm, self.X), self.Y)
        return lhs[:, None], rhs[:, None]

    def eq_2_15(self):
        X, Y = self.X, self.Y
        lhs = _contract(self.d.nabla_r_perp, self.JZ, X, Y, self.xi, self.eta)
        rhs = _dot(_apply(self.nrp_ZXY, self.Jxi), self.eta)
        nAJxi, Aeta = self.nA_Jxi, self.A_eta
        comm = nAJxi @ Aeta - Aeta @ nAJxi
        rhs -= 2.0 * self._inner_tan(_apply(comm, X), Y)
        return lhs[:, None], rhs[:, None]

    # -- route agreements and structural sanity ---------------------------------

    def sides(self, identity_id):
        """Both sides of the registry check ``identity_id``.  A route
        agreement is the gate residual geometry recorded, one row against
        zero."""
        if identity_id in TWO_PATH_TOL:
            return np.array([[self.d.two_path[identity_id]]]), np.zeros((1, 1))
        return getattr(self, identity_id)()

    def nabla_a_self_adjoint(self):
        lhs = self._inner_tan(self.nA_xi_X, self.Y)
        rhs = self._inner_tan(self.X, self.nA_xi_Y)
        return lhs[:, None], rhs[:, None]


def _pairings(V, forms):
    """The slot pairings ``curvature_operator`` reads, as the dicts P and K,
    of the slot vectors ``V[s, ..., n]`` through ``forms`` (<U, V> and
    <JU, V> on their components), formed in one ``np.einsum``."""
    # [form, slot, ..., n]: each slot vector through each form.
    VF = V[None] @ forms.reshape(2, *(1,) * (V.ndim - 2), *forms.shape[1:])
    pairings = np.einsum("k...n,k...n->k...", VF[_PAIR_FORM, _PAIR_S],
                         V[_PAIR_T])
    return (dict(zip(_P_PAIRS, pairings)),
            dict(zip(_K_PAIRS, pairings[len(_P_PAIRS):])))


def _contract(T, *vecs) -> np.ndarray:
    """T contracted on its leading axes with per-tuple vectors, one axis at
    a time: ``out[q, ...] = sum T[i, j, .., ...] vecs[0][q, i] vecs[1][q, j] ..``.

    Each step is one matmul on T reshaped to (axis, rest), where a single
    ``np.einsum`` over all the operands loops over every index combination
    at once.
    """
    out = vecs[0] @ T.reshape(len(T), -1)
    shape = T.shape[1:]
    for V in vecs[1:]:
        out = (V[:, None] @ out.reshape(len(V), shape[0], -1))[:, 0]
        shape = shape[1:]
    return out.reshape((len(vecs[0]),) + shape)


def _apply(M, V) -> np.ndarray:
    """Each row's matrix applied to that row's vector."""
    return (M @ V[:, :, None])[:, :, 0]


def _dot(U, V) -> np.ndarray:
    """Row-wise dot products."""
    return np.vecdot(U, V)


def _draw_tuples(rng, n_tuples: int, nu: int, p: int) -> list:
    """X, Y, Z, W (n_tuples, nu) and xi, eta (n_tuples, p), uniform in [-1, 1].

    One draw, split by columns: the same doubles in the same order as
    drawing X, Y, Z, W, xi, eta vector by vector, tuple after tuple.
    """
    flat = rng.uniform(-1.0, 1.0, (n_tuples, 4 * nu + 2 * p))
    return np.split(flat, [nu, 2 * nu, 3 * nu, 4 * nu, 4 * nu + p], axis=1)


def run_identity_suite(data: ExtrinsicData, rng_seed: int,
                       tolerances=None) -> list:
    """All registry checks on one point; returns a list of result dicts.

    Each check is evaluated once, on all ``N_TUPLES`` random tuples of four
    tangent and two normal vectors with components uniform in [-1, 1]; the
    reported residual is the worst of the per-tuple residuals.  A check
    that does not depend on the tuples is evaluated once, on one row.
    ``tolerances`` maps identity ids to replacement tolerances.
    """
    rng = np.random.default_rng(rng_seed)
    ev = _Evaluator(data, _draw_tuples(rng, N_TUPLES, 2 * data.m, 2 * data.l))
    worst = _worst_residuals([ev.sides(chk.identity_id) for chk in REGISTRY])
    results = []
    for chk, res in zip(REGISTRY, worst.tolist()):
        tol = chk.tolerance
        if tolerances and chk.identity_id in tolerances:
            tol = float(tolerances[chk.identity_id])
        results.append(
            {
                "id": chk.identity_id,
                "residual": res,
                "tolerance": tol,
                "passed": bool(res <= tol),
            }
        )
    return results


def _worst_residuals(sides) -> np.ndarray:
    """Per check, the largest ``normalized_residual`` over its rows (the
    tuples, or the one row of a tuple-independent check), in one pass:
    every check's (lhs, rhs), row axis first, is flattened into one array
    per side, in which each row of each check is a segment, so that one
    ``np.maximum.reduceat`` gives every row's largest |entry| and a second
    one each check's worst row.  A maximum is exact, so this is bit for bit
    the per-row residual."""
    widths = [math.prod(lhs.shape[1:]) for lhs, _ in sides]
    # reduceat would read an empty segment's next entry: refuse one.
    if 0 in widths or any(lhs.shape != rhs.shape for lhs, rhs in sides):
        raise ValueError("each check needs two non-empty sides of one shape")
    rows = [len(lhs) for lhs, _ in sides]
    lhs, rhs = (np.concatenate([side[k].ravel() for side in sides])
                for k in (0, 1))
    segment = np.repeat(widths, rows)  # the width of each row of each check
    row_starts = np.cumsum(segment) - segment

    def top(a):  # the largest |entry| of each row of each check
        return np.maximum.reduceat(np.abs(a), row_starts)

    per_row = top(lhs - rhs) / (1.0 + np.maximum(top(lhs), top(rhs)))
    return np.maximum.reduceat(per_row, np.cumsum(rows) - rows)

"""Extrinsic geometry of a holomorphically immersed surface at one point.

Given a catalog immersion and its ambient model, this module produces every
frame-resolved tensor needed downstream: induced metric and Christoffel
symbols, an adapted orthonormal normal frame, second fundamental form and
shape operators, the normal connection, and the first covariant derivatives
of the second fundamental form, of the shape operators, of the normal
curvature and of the intrinsic curvature.

Derivative bookkeeping is the delicate part.  All quantities are assembled
in jet arithmetic over the immersion parameters alone: the ambient metric
and the closed-form ambient connection are evaluated directly on the jets
of F(u), so no ambient chart derivative is taken.  Each jet tensor is one
array-valued ``Jet``, built by broadcasting arithmetic and ``jets.einsum``.
Each jet carries only the order its consumers read, since a derivative
lowers the order by one and mixed-order arithmetic truncates to the lower
order: F is order 3; the ambient metric (evaluated on F truncated to
order 2), T, g, g^-1, N and J in both frames are order 2; the ambient
connection (on F truncated to order 1), Gamma, b_vec and its lowered
form, b, A, gamma_perp, the Gram jet of the frames and the curvature jets
(rp1, r2, bb and the ambient curvature term, which is evaluated on float
probes of the Gram jet) are order 1.
Quantities whose derivative we take downstream are kept as jets; everything
else is read off their coefficients (``jet_values``, ``jet_gradient``) and
assembled with float array algebra, every covariant derivative through
``covariant_derivative``.
Wherever the construction admits two genuinely different assembly routes
(covariant derivative of b, normal curvature, intrinsic curvature and its
derivative) both are computed, and a disagreement raises
``PathDisagreementError``: an internal failure, never a property of the
point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import ambient as amb
from .jets import (
    DIVISION_FLOOR,
    ComplexJet,
    Jet,
    einsum,
    jet_gradient,
    jet_matrix_inverse,
    jet_partials,
    jet_values,
    seed_point,
    stack,
)

TOTALLY_GEODESIC = "totally_geodesic"
PARALLEL = "parallel"
GENERIC = "generic"

#: Candidate vectors below this norm (after projection) are considered to
#: lie in the tangent span and are skipped during frame construction.
FRAME_NORM_FLOOR = 1e-6

#: Internal hard gates: two independent assembly routes must agree this well.
TWO_PATH_TOL = {
    "two_path_nabla_b": 1e-9,
    "two_path_r_perp": 1e-8,
    "two_path_r": 1e-8,
    "two_path_nabla_r": 1e-8,
}

RANK_TOL = 1e-8
J_INVARIANCE_TOL = 1e-9


class DegeneratePointError(RuntimeError):
    """The immersion or its tangent J-invariance fails at this point."""


class FrameConstructionError(RuntimeError):
    """No candidate seed survives Gram-Schmidt against the tangent space."""


class PathDisagreementError(RuntimeError):
    """Two independent assembly routes disagree: an internal bug, not data.

    ``route`` is the ``TWO_PATH_TOL`` key that failed; ``two_path`` holds
    the residuals of every route compared up to and including it.
    """

    def __init__(self, route: str, two_path: dict):
        self.route = route
        self.two_path = dict(two_path)
        super().__init__(
            f"{route}: routes differ by {two_path[route]:.3e} "
            f"(tolerance {TWO_PATH_TOL[route]:g})"
        )


@dataclass(frozen=True)
class ImmersionCase:
    """Catalog entry: a holomorphic immersion into an ambient model."""

    name: str
    m: int
    ambient: amb.AmbientModel
    chart: Callable
    domain: tuple
    expected_class: str

    @property
    def l(self) -> int:
        return self.ambient.complex_dim - self.m

    def map_jets(self, u) -> Jet:
        """Real chart coordinates of F(u) as a jet of shape ``(d,)`` in the
        parameter ring."""
        nu = 2 * self.m
        u = np.asarray(u, dtype=float)
        if u.shape != (nu,):
            raise ValueError(f"expected {nu} parameters, got {u.shape}")
        seeds = seed_point(u)
        z = [ComplexJet(seeds[2 * a], seeds[2 * a + 1]) for a in range(self.m)]
        return stack([part for comp in self.chart(z)
                      for part in (comp.re, comp.im)])

    def map_values(self, u) -> np.ndarray:
        """F(u) as floats; the chart runs unchanged on Python complex."""
        u = np.asarray(u, dtype=float)
        z = [complex(u[2 * a], u[2 * a + 1]) for a in range(self.m)]
        w = self.chart(z)
        out = []
        for comp in w:
            out.append(comp.real)
            out.append(comp.imag)
        return np.array(out)


def _chart_linear(z):
    zero = z[0] * 0.0
    return [z[0], zero]


def _chart_graph_z2(z):
    return [z[0], z[0] * z[0]]


def _chart_graph_z3(z):
    return [z[0], z[0] * z[0] * z[0]]


def _chart_graph_c3(z):
    return [z[0], z[0] * z[0], z[0] * z[0] * z[0]]


def _chart_veronese(z):
    return [z[0] * np.sqrt(2.0), z[0] * z[0]]


_BOX = ((-1.0, 1.0), (-1.0, 1.0))

CATALOG = (
    ImmersionCase("linear_c2", 1, amb.flat(2), _chart_linear, _BOX,
                  TOTALLY_GEODESIC),
    ImmersionCase("graph_z2_c2", 1, amb.flat(2), _chart_graph_z2, _BOX,
                  GENERIC),
    ImmersionCase("graph_z3_c2", 1, amb.flat(2), _chart_graph_z3, _BOX,
                  GENERIC),
    ImmersionCase("graph_c3", 1, amb.flat(3), _chart_graph_c3, _BOX,
                  GENERIC),
    ImmersionCase("veronese_cp2", 1, amb.fubini_study(4.0, 2),
                  _chart_veronese, _BOX, PARALLEL),
)


def case_names() -> list:
    return [c.name for c in CATALOG]


def get_case(name: str) -> ImmersionCase:
    for c in CATALOG:
        if c.name == name:
            return c
    raise KeyError(f"unknown immersion case {name!r}")


@dataclass
class ExtrinsicData:
    """Frame-resolved tensors at one point, as plain float arrays.

    Tangent indices i, j, k, s, t run over the coordinate frame d/du^i
    (not orthonormalized); normal indices over the adapted orthonormal
    normal frame.
    """

    case_name: str
    u: np.ndarray
    m: int
    l: int
    c: float

    g: np.ndarray            # (2m, 2m) induced metric
    g_inv: np.ndarray
    dg: np.ndarray           # (2m, 2m, 2m)  [i, k, l] = d_i g_kl
    gamma: np.ndarray        # (2m, 2m, 2m)  [k, i, j]
    T: np.ndarray            # (2m, d) tangent frame in chart components
    N: np.ndarray            # (2l, d) orthonormal normal frame
    J_tan: np.ndarray        # (2m, 2m)  J d/du^j = J_tan[k, j] d/du^k
    J_nor: np.ndarray        # (2l, 2l)  J n_a = J_nor[b, a] n_b
    dJ_tan: np.ndarray       # (2m, 2m, 2m)  [i, k, j]
    dJ_nor: np.ndarray       # (2m, 2l, 2l)  [i, b, a]
    b: np.ndarray            # (2l, 2m, 2m)
    db: np.ndarray           # (2m, 2l, 2m, 2m)  [i, a, j, k] = d_i b^a_jk
    A: np.ndarray            # (2l, 2m, 2m)  [a, k, j] = shape op component ^k_j
    gamma_perp: np.ndarray   # (2l, 2l, 2m)  [a, b, i]
    nabla_b: np.ndarray      # (2m, 2l, 2m, 2m)  [i, a, j, k]
    nabla_A: np.ndarray      # (2m, 2l, 2m, 2m)  [i, a, k, j]
    r_perp: np.ndarray       # (2m, 2m, 2l, 2l)  [i, j, a, b]
    nabla_r_perp: np.ndarray  # (2m, 2m, 2m, 2l, 2l)  [s, i, j, a, b]
    r: np.ndarray            # (2m, 2m, 2m, 2m)  g(R(d_i, d_j) d_k, d_l)
    nabla_r: np.ndarray      # (2m, 2m, 2m, 2m, 2m)  [s, i, j, k, l]

    g_amb: np.ndarray        # ambient metric at F(u)
    J_amb: np.ndarray
    gamma_amb: np.ndarray    # ambient Christoffel values at F(u)

    two_path: dict = field(default_factory=dict)
    frame_residuals: dict = field(default_factory=dict)


def normalized_residual(p1, p2) -> float:
    """|p1 - p2|_inf / (1 + max(|p1|_inf, |p2|_inf))."""
    p1, p2 = np.asarray(p1, float), np.asarray(p2, float)
    d, a, b = (np.abs(x).max(initial=0.0) for x in (p1 - p2, p1, p2))
    return float(d / (1.0 + max(a, b)))


def _probes(jet: Jet) -> np.ndarray:
    """Float probes of a jet array on a new leading axis: its values, then
    value + d_s for each variable s, then value - d_s for each s."""
    v, d = jet_values(jet), jet_gradient(jet)
    return np.concatenate([v[None], v + d, v - d])


def covariant_derivative(T, dT, gamma, gamma_perp, slots) -> np.ndarray:
    """Covariant derivative of a float tensor, indexed ``[s, *T.shape]``.

    ``dT[s]`` holds the coordinate partials d_s T, ``gamma[k, i, j]`` the
    induced Christoffel symbols and ``gamma_perp[a, b, i]`` = <n_a, D_i n_b>
    the normal connection.  ``slots`` gives one kind per axis of T: "t" a
    lower tangent index, "u" an upper tangent index, "n" a normal index.
    The normal frame is orthonormal and gamma_perp antisymmetric, so upper
    and lower normal indices transform alike.

    Each slot is one matmul: its connection matrices, stacked over the
    directions s, times T with the slot's axis swapped to the front and the
    rest flattened: the two operands ``np.tensordot`` would form.
    """
    # conn[kind][(s, x), y]: coefficient of T[..y..] in (nabla_s T)[..x..].
    conn = {
        "t": -gamma.transpose(1, 2, 0).reshape(-1, len(gamma)),
        "u": gamma.transpose(1, 0, 2).reshape(-1, len(gamma)),
        "n": -gamma_perp.transpose(2, 1, 0).reshape(-1, len(gamma_perp)),
    }
    out = np.array(dT, dtype=float)
    for axis, kind in enumerate(slots):
        Ts = T.swapaxes(axis, 0)
        term = conn[kind] @ Ts.reshape(len(Ts), -1)
        out += term.reshape(out.shape[:1] + Ts.shape).swapaxes(1, axis + 1)
    return out


class PointGeometry:
    """One-shot computation of the full extrinsic package at a point."""

    def __init__(self, case: ImmersionCase, u, normal_seed_mix=None):
        self.case = case
        self.u = np.asarray(u, dtype=float)
        self.m = case.m
        self.l = case.l
        self.nu = 2 * case.m
        self.d = case.ambient.real_dim
        self.c = case.ambient.c
        self.J_amb = amb.complex_structure(case.ambient)
        self.two_path = {}
        self._build_ambient_along_immersion()
        self._build_tangent()
        self._build_normal_frame(normal_seed_mix)
        self._build_j_frames()
        self._build_second_fundamental_form()
        self._build_normal_connection()
        self._build_covariant_derivatives()
        self._build_normal_curvature()
        self._build_intrinsic_curvature()

    def _gate(self, route: str, p1, p2):
        """Record how far two assembly routes differ; raise past tolerance."""
        self.two_path[route] = normalized_residual(p1, p2)
        if self.two_path[route] > TWO_PATH_TOL[route]:
            raise PathDisagreementError(route, self.two_path)

    # -- ambient data composed with the immersion ---------------------------

    def _build_ambient_along_immersion(self):
        self.F = self.case.map_jets(self.u)
        if not np.isfinite(self.F.c).all():
            raise DegeneratePointError(
                f"{self.case.name}: chart not finite at u={self.u}: the "
                f"Taylor coefficients of F hold NaN or inf"
            )
        # Every use of the ambient metric also involves the tangent frame
        # (order 2) or what is derived from it, so it is needed to order 2
        # only; the connection enters only beside first partials (order 1).
        self.g_amb_jet = amb.metric(self.case.ambient, self.F.truncate(2))
        self.connection_amb = amb.connection(self.case.ambient,
                                             self.F.truncate(1))
        self.gamma_amb = amb.connection_tensor(self.case.ambient,
                                               jet_values(self.F))

    def _ambient_derivative(self, V: Jet) -> Jet:
        """Ambient covariant derivative of the jet vectors ``V[b, A]``
        (chart components) along each d/du^i, indexed ``[i, b, A]``."""
        out = jet_partials(V)
        if self.connection_amb is not None:
            # One call covers every (d/du^i, V_b) pair.
            out = out + self.connection_amb(self.T_jet, V)
        return out

    # -- tangent frame, induced metric, Christoffel symbols -----------------

    def _build_tangent(self):
        self.T_jet = jet_partials(self.F)
        self.T_low = einsum("iA,AB->iB", self.T_jet, self.g_amb_jet)
        g = einsum("iA,jA->ij", self.T_low, self.T_jet)
        # Exactly symmetric, so the Christoffel symbols are too.
        self.g_jet = (g + g.T) * 0.5
        # g, quadratic in T, can fall below the inverse's floor while T
        # passes RANK_TOL: one gate on both, one message.
        g0 = jet_values(self.g_jet)
        sv_T, sv_g = (np.linalg.svd(x, compute_uv=False).min()
                      for x in (jet_values(self.T_jet), g0))
        if not (sv_T >= RANK_TOL and sv_g >= DIVISION_FLOOR):
            raise DegeneratePointError(
                f"{self.case.name}: differential rank-deficient at "
                f"u={self.u}: smallest singular value of T {sv_T:.3e} "
                f"(RANK_TOL {RANK_TOL:g}), of g {sv_g:.3e} "
                f"(DIVISION_FLOOR {DIVISION_FLOOR:g})"
            )
        self.g_inv_jet = jet_matrix_inverse(self.g_jet, checked_value=g0)
        dg = jet_partials(self.g_jet)  # [i, j, k] = d_i g_jk
        low = dg + einsum("jik->ijk", dg) - einsum("kij->ijk", dg)
        self.gamma_jet = einsum("kt,ijt->kij", self.g_inv_jet, low * 0.5)

    # -- adapted normal frame ------------------------------------------------

    def _build_normal_frame(self, normal_seed_mix):
        d = self.d
        p = 2 * self.l
        G = self.g_amb_jet
        if normal_seed_mix is None:
            candidates = np.eye(d)
        else:
            candidates = np.asarray(normal_seed_mix, dtype=float)
            if candidates.shape != (d, d):
                raise ValueError("candidate mix must be a (d, d) matrix")
        normals = []
        for row in candidates:
            if len(normals) == p:
                break
            # Remove the tangential part (coordinate frame, so through g^ij).
            coef = einsum("jA,A,ij->i", self.T_low, row, self.g_inv_jet)
            v = row - einsum("i,iA->A", coef, self.T_jet)
            for n in normals:
                v = v - einsum("A,AB,B->", n, G, v) * n
            norm2 = einsum("A,AB,B->", v, G, v)
            if norm2.value < FRAME_NORM_FLOOR ** 2:
                continue
            n0 = v * norm2.sqrt().reciprocal()
            normals.append(n0)
            if len(normals) < p:
                normals.append(einsum("AB,B->A", self.J_amb, n0))
        if len(normals) != p:
            raise FrameConstructionError(
                f"{self.case.name}: only {len(normals)} of {p} normal "
                f"directions found at u={self.u}"
            )
        self.N_jet = stack(normals)
        self.N_low = einsum("aA,AB->aB", self.N_jet, G)
        T, N = jet_values(self.T_jet), jet_values(self.N_jet)
        g_amb = jet_values(G)
        self.frame_residuals = {
            "normal_orthonormality":
                float(np.abs(N @ g_amb @ N.T - np.eye(p)).max()),
            "normal_tangency": float(np.abs(N @ g_amb @ T.T).max()),
        }

    # -- complex structure in the adapted frames -----------------------------

    def _build_j_frames(self):
        JT = einsum("AB,jB->Aj", self.J_amb, self.T_jet)  # column j: J d/du^j
        self.J_tan_jet = einsum("jA,Ak,ij->ik", self.T_low, JT, self.g_inv_jet)
        # J-invariance of the tangent space: JT_j must lie in the span.
        worst = float(np.abs(
            jet_values(JT)
            - jet_values(self.T_jet).T @ jet_values(self.J_tan_jet)
        ).max())
        self.frame_residuals["tangent_j_invariance"] = worst
        if worst > J_INVARIANCE_TOL:
            raise DegeneratePointError(
                f"{self.case.name}: tangent space not J-invariant at "
                f"u={self.u} (residual {worst:.3e})"
            )
        self.J_nor_jet = einsum("AB,bB,aA->ab", self.J_amb, self.N_jet,
                                self.N_low)
        if self.c != 0.0:
            # Gram jet <(T, JT)_i, (T, N)_x>: every pairing the closed-form
            # ambient curvature reads (see ``_ambient_curvature``).
            self.gram_jet = einsum("siA,xA->six",
                                   stack([self.T_jet, JT.T]).truncate(1),
                                   stack([*self.T_low, *self.N_low]))

    # -- second fundamental form and shape operators --------------------------

    def _build_second_fundamental_form(self):
        # One ambient derivative of the rows (T, N) serves b here and the
        # normal connection next.
        nu = self.nu
        DTN = self._ambient_derivative(stack([*self.T_jet, *self.N_jet]))
        self.DN_jet = DTN[:, nu:]
        self.b_vec_jet = (
            DTN[:, :nu] - einsum("kij,kA->ijA", self.gamma_jet, self.T_jet)
        )
        # b_vec lowered once serves b here and the Gauss route's bb.
        self.b_low_jet = einsum("ijA,AB->ijB", self.b_vec_jet, self.g_amb_jet)
        self.b_jet = einsum("ijA,aA->aij", self.b_low_jet, self.N_jet)
        # A[a, k, j] = b[a, j, t] g^tk
        self.A_jet = einsum("ajt,tk->akj", self.b_jet, self.g_inv_jet)

    # -- normal connection ----------------------------------------------------

    def _build_normal_connection(self):
        self.gamma_perp_jet = einsum("aA,ibA->abi", self.N_low, self.DN_jet)
        gp = jet_values(self.gamma_perp_jet)
        self.frame_residuals["gamma_perp_antisymmetry"] = float(
            np.abs(gp + gp.transpose(1, 0, 2)).max()
        )

    # -- covariant derivatives of b and A --------------------------------------

    def _build_covariant_derivatives(self):
        gam = jet_values(self.gamma_jet)
        gp = jet_values(self.gamma_perp_jet)
        self.nabla_b = covariant_derivative(
            jet_values(self.b_jet), jet_gradient(self.b_jet), gam, gp, "ntt"
        )

        # Independent route: ambient derivative of the vector-valued form,
        # then projection onto the normal frame.  Only its value is needed,
        # so it is assembled in floats with the ambient connection at F(u).
        bv = jet_values(self.b_vec_jet)
        # [i, C, B] = Gamma^C_{AB} T_i^A, then paired with b_vec[j, k, B].
        GT = np.tensordot(jet_values(self.T_jet), self.gamma_amb, ([1], [1]))
        w = (
            jet_gradient(self.b_vec_jet)
            + bv @ GT.transpose(0, 2, 1)[:, None]
            - np.einsum("tij,tkA->ijkA", gam, bv)
            - np.einsum("tik,jtA->ijkA", gam, bv)
        )
        nb2 = np.einsum("ijkA,aA->iajk", w, jet_values(self.N_low))
        self._gate("two_path_nabla_b", self.nabla_b, nb2)

        self.nabla_A = covariant_derivative(
            jet_values(self.A_jet), jet_gradient(self.A_jet), gam, gp, "nut"
        )

    # -- ambient curvature ------------------------------------------------------

    def _ambient_curvature(self, normal: bool) -> Jet:
        """Closed-form <R(d/du^i, d/du^j) Z_a, W_b> as order-1 jets, indexed
        ``[i, j, a, b]``, with Z, W the normal frame (``normal``, the Ricci
        term) or the tangent frame (the Gauss term).  Each slot pairing is
        an entry of the Gram jet, broadcast onto the axes of its two slots,
        except <J n_a, n_b> = J_nor[b, a].  The closed form runs once, on
        float probes of the pairings (``_probes``).  It is quadratic in them,
        so f(v + d_s) - f(v - d_s) = 2 Df(v) d_s exactly: probe 0 and half
        those differences are the value and first partials of the jet."""
        nu = self.nu
        zw = slice(nu, None) if normal else slice(None, nu)
        gram_P, gram_K = np.moveaxis(_probes(self.gram_jet), 1, 0)

        def cross(M):  # pairings of the slots X, Y with Z, W
            M = M[..., zw]
            return {(1, 2): M[:, None, :, :, None],
                    (0, 3): M[:, :, None, None, :],
                    (0, 2): M[:, :, None, :, None],
                    (1, 3): M[:, None, :, None, :]}

        P, K = cross(gram_P), cross(gram_K)
        K[1, 0] = gram_K[..., :nu].swapaxes(1, 2)[..., None, None]
        K[2, 3] = (_probes(self.J_nor_jet).swapaxes(1, 2) if normal
                   else gram_K[..., :nu])[:, None, None]
        R = amb.curvature_operator(self.c, P, K)
        half = (R[1:nu + 1] - R[nu + 1:]) * 0.5
        return Jet(nu, np.moveaxis(np.concatenate([R[:1], half]), 0, -1))

    # -- normal curvature -------------------------------------------------------

    def _build_normal_curvature(self):
        gp = jet_values(self.gamma_perp_jet)
        gam = jet_values(self.gamma_jet)

        # Route 1: ambient curvature plus shape-operator commutator,
        # g([A_a, A_b] d_i, d_j), kept as jets so the covariant derivative of
        # the normal curvature can be differentiated from it.
        AA = einsum("akt,btj->abkj", self.A_jet, self.A_jet)  # [a, b] = A_a A_b
        rp1 = einsum("abki,kj->ijab", AA - AA.transpose(1, 0, 2, 3),
                     self.g_jet)
        if self.c != 0.0:
            rp1 = rp1 + self._ambient_curvature(normal=True)
        rp1_val = jet_values(rp1)

        # Route 2: curvature of the normal connection coefficients,
        # d_i gp_j - d_j gp_i + [gp_i, gp_j] as matrices [b, a].
        half = (np.einsum("ibaj->ijab", jet_gradient(self.gamma_perp_jet))
                + np.einsum("bci,caj->ijab", gp, gp))
        self.r_perp = half - half.transpose(1, 0, 2, 3)
        self._gate("two_path_r_perp", rp1_val, self.r_perp)

        self.nabla_r_perp = covariant_derivative(
            rp1_val, jet_gradient(rp1), gam, gp, "ttnn"
        )

    # -- intrinsic curvature ------------------------------------------------------

    def _build_intrinsic_curvature(self):
        gam = jet_values(self.gamma_jet)
        gp = jet_values(self.gamma_perp_jet)

        # Route 1: d_i gam_j - d_j gam_i + [gam_i, gam_j] as matrices [t, k],
        # then the upper index lowered with g.
        half = (np.einsum("itjk->ijtk", jet_gradient(self.gamma_jet))
                + np.einsum("tis,sjk->ijtk", gam, gam))
        r1 = np.einsum("ijtk,tl->ijkl", half - half.transpose(1, 0, 2, 3),
                       jet_values(self.g_jet))

        # Route 2: ambient curvature minus products of the vector-valued
        # second fundamental form, kept as jets for the derivative below.
        # bb[i, j, k, l] = <b(d_i, d_k), b(d_j, d_l)>
        bb = einsum("ikA,jlA->ijkl", self.b_low_jet, self.b_vec_jet)
        r2 = bb.transpose(0, 1, 3, 2) - bb
        if self.c != 0.0:
            r2 = r2 + self._ambient_curvature(normal=False)
        r2_val = jet_values(r2)
        self._gate("two_path_r", r1, r2_val)
        self.r = r1

        b = jet_values(self.b_jet)
        nb = self.nabla_b
        # Derivative of the curvature via products of b with its covariant
        # derivative; the ambient contribution is parallel and drops out.
        # Of the four product terms, the two subtracted ones are the added
        # ones with k and l swapped.
        P = (np.einsum("sail,ajk->sijkl", nb, b)
             + np.einsum("ail,sajk->sijkl", b, nb))
        nrA = P - P.swapaxes(3, 4)
        # Cross-check: coordinate covariant derivative of the jet-valued
        # curvature from route 2.
        nrB = covariant_derivative(r2_val, jet_gradient(r2), gam, gp, "tttt")
        self._gate("two_path_nabla_r", nrA, nrB)
        self.nabla_r = nrA

    # -- assembled output -----------------------------------------------------------

    def data(self) -> ExtrinsicData:
        return ExtrinsicData(
            case_name=self.case.name,
            u=self.u.copy(),
            m=self.m,
            l=self.l,
            c=self.c,
            g=jet_values(self.g_jet),
            g_inv=jet_values(self.g_inv_jet),
            dg=jet_gradient(self.g_jet),
            gamma=jet_values(self.gamma_jet),
            T=jet_values(self.T_jet),
            N=jet_values(self.N_jet),
            J_tan=jet_values(self.J_tan_jet),
            J_nor=jet_values(self.J_nor_jet),
            dJ_tan=jet_gradient(self.J_tan_jet),
            dJ_nor=jet_gradient(self.J_nor_jet),
            b=jet_values(self.b_jet),
            db=jet_gradient(self.b_jet),
            A=jet_values(self.A_jet),
            gamma_perp=jet_values(self.gamma_perp_jet),
            nabla_b=self.nabla_b,
            nabla_A=self.nabla_A,
            r_perp=self.r_perp,
            nabla_r_perp=self.nabla_r_perp,
            r=self.r,
            nabla_r=self.nabla_r,
            g_amb=jet_values(self.g_amb_jet),
            J_amb=self.J_amb,
            gamma_amb=self.gamma_amb,
            two_path=dict(self.two_path),
            frame_residuals=dict(self.frame_residuals),
        )


def extrinsic_data(case: ImmersionCase, u, normal_seed_mix=None) -> ExtrinsicData:
    """The complete extrinsic package at one parameter point."""
    return PointGeometry(case, u, normal_seed_mix=normal_seed_mix).data()


# -- frame-independent norms ------------------------------------------------


def _orthonormalize_axes(arr: np.ndarray, axes, Q: np.ndarray) -> np.ndarray:
    """``arr`` with Q applied to each of ``axes``: one matmul per axis, on
    a view that swaps the axis to the end and back."""
    for ax in axes:
        arr = (arr.swapaxes(ax, -1) @ Q).swapaxes(ax, -1)
    return arr


def tensor_norms(data: ExtrinsicData) -> dict:
    """Frobenius norms in orthonormal frames; invariant under frame remixes.

    The normal frame is already orthonormal; tangent coordinate indices are
    converted through the inverse Cholesky factor of the induced metric.
    """
    Q = np.linalg.inv(np.linalg.cholesky(data.g)).T
    # Lower the contravariant index of the shape-operator derivative first.
    nA_low = np.einsum("iakj,kl->ialj", data.nabla_A, data.g)

    def frob(arr, axes):
        return float(np.sqrt((_orthonormalize_axes(arr, axes, Q) ** 2).sum()))

    return {
        "b": frob(data.b, (1, 2)),
        "nabla_b": frob(data.nabla_b, (0, 2, 3)),
        "nabla_A": frob(nA_low, (0, 2, 3)),
        "r_perp": frob(data.r_perp, (0, 1)),
        "nabla_r_perp": frob(data.nabla_r_perp, (0, 1, 2)),
        "r": frob(data.r, (0, 1, 2, 3)),
        "nabla_r": frob(data.nabla_r, (0, 1, 2, 3, 4)),
    }


def sectional_curvature(data: ExtrinsicData, i: int = 0, j: int = 1) -> float:
    """Sectional curvature of the coordinate plane (d/du^i, d/du^j)."""
    g = data.g
    den = g[i, i] * g[j, j] - g[i, j] ** 2
    return float(data.r[i, j, j, i] / den)


def max_shape_operator_determinant(data: ExtrinsicData) -> float:
    """Largest |det A| over the normal frame; nonzero means a nondegenerate
    normal direction exists at this point."""
    return float(max(abs(np.linalg.det(data.A[a])) for a in range(2 * data.l)))

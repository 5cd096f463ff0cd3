"""Extrinsic geometry of a holomorphically immersed surface at one point.

Given a catalog immersion and its ambient model, this module produces every
frame-resolved tensor needed downstream: induced metric and Christoffel
symbols, an adapted orthonormal normal frame, second fundamental form and
shape operators, the normal connection, and the first covariant derivatives
of the second fundamental form, of the shape operators, of the normal
curvature and of the intrinsic curvature.

Derivative bookkeeping is the delicate part.  All quantities are assembled
in jet arithmetic over the immersion parameters alone: the ambient is
evaluated once per point on the jets of F(u) (``ambient.metric``: the metric
jet and the closed-form connection, whose values on the chart basis are the
float Christoffel symbols), so no ambient chart derivative is taken.  On
flat space that metric is the identity and there is no connection, so
lowering an index (``Metric.lower``) returns its rows and the connection
terms are not formed.  Each jet tensor is one array-valued ``Jet``, built
by broadcasting arithmetic and ``jets.einsum``.
Each jet carries only the order its consumers read, since a derivative
lowers the order by one and mixed-order arithmetic truncates to the lower
order: F is order 3; the ambient metric (evaluated on F truncated to
order 2), T, g, g^-1 and N are order 2; the ambient connection (applied to
the rows (T, N) truncated to order 1), Gamma, b_vec and its lowered form,
b, A, gamma_perp, J in both frames, omega = <J d/du^i, d/du^j> and the
curvature jets (rp1, r2, bb and the ambient curvature terms, which are
evaluated on float probes of g, omega and J_nor) are order 1.
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

from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from . import ambient as amb
from .jets import (
    DIVISION_FLOOR,
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
        """Real chart coordinates (Re w_0, Im w_0, ...) of F(u) as a jet of
        shape ``(d,)``: the chart, any expression in ``+ - * /`` with real or
        complex scalars, runs unchanged on the complex jets z_a = u_2a +
        i u_2a+1; non-finite coefficients raise no warning here."""
        nu = 2 * self.m
        u = np.asarray(u, dtype=float)
        if u.shape != (nu,):
            raise ValueError(f"expected {nu} parameters, got {u.shape}")
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            x = seed_point(u)
            z = x[0::2] + 1j * x[1::2]
            w = stack(self.chart(list(z))).c
        coords = np.empty((2 * len(w), w.shape[-1]))
        coords[0::2], coords[1::2] = w.real, w.imag
        return Jet._wrap(nu, coords)


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
    a, b = np.abs(p1).max(initial=0.0), np.abs(p2).max(initial=0.0)
    return float(np.abs(p1 - p2).max(initial=0.0) / (1.0 + max(a, b)))


def _probes(v, d) -> np.ndarray:
    """Float probes of a jet array with values ``v`` and first partials
    ``d``, on a new leading axis: v, then v + d_s for each variable s, then
    v - d_s for each s."""
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
    # conn[kind][(s, x), y]: coefficient of T[..y..] in (nabla_s T)[..x..],
    # built for the kinds in ``slots`` only.
    build = {
        "t": lambda: -gamma.transpose(1, 2, 0).reshape(-1, len(gamma)),
        "u": lambda: gamma.transpose(1, 0, 2).reshape(-1, len(gamma)),
        "n": lambda: -gamma_perp.transpose(2, 1, 0).reshape(-1,
                                                            len(gamma_perp)),
    }
    conn = {kind: build[kind]() for kind in set(slots)}
    out = np.array(dT, dtype=float)
    for axis, kind in enumerate(slots):
        Ts = T.swapaxes(axis, 0)
        term = conn[kind] @ Ts.reshape(len(Ts), -1)
        out += term.reshape(out.shape[:1] + Ts.shape).swapaxes(1, axis + 1)
    return out


class PointGeometry:
    """One-shot computation of the full extrinsic package at a point.

    Each stage reads the floats of the jets it builds once, and stores them
    under their ``ExtrinsicData`` field names; later stages read those.
    """

    def __init__(self, case: ImmersionCase, u, normal_seed_mix=None):
        self.case = case
        self.case_name = case.name
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
        try:
            self.F = self.case.map_jets(self.u)
        except ZeroDivisionError as exc:
            raise DegeneratePointError(
                f"{self.case.name}: chart has a pole at u={self.u}: {exc}"
            ) from exc
        if not np.isfinite(self.F.c).all():
            raise DegeneratePointError(
                f"{self.case.name}: chart not finite at u={self.u}: the "
                f"Taylor coefficients of F hold NaN or inf"
            )
        # Every use of the ambient metric also involves the tangent frame
        # (order 2) or what is derived from it, so it is needed to order 2
        # only; the connection enters only beside first partials, so it runs
        # on order-1 rows.
        self.metric_amb = amb.metric(self.case.ambient, self.F.truncate(2))
        self.g_amb_jet, self.connection_amb = self.metric_amb
        self.g_amb = jet_values(self.g_amb_jet)
        # Gamma^C_{AB} at F(u): the connection on the chart basis, as
        # constant rows, so at order 0.
        if self.connection_amb is None:
            self.gamma_amb = np.zeros((self.d,) * 3)
        else:
            basis = Jet.constant(np.eye(self.d), self.nu).truncate(0)
            self.gamma_amb = jet_values(
                self.connection_amb(basis, self.d).transpose(2, 0, 1))

    # -- tangent frame, induced metric, Christoffel symbols -----------------

    def _build_tangent(self):
        self.T_jet = jet_partials(self.F)
        self.T_low = self.metric_amb.lower(self.T_jet)
        g = einsum("iA,jA->ij", self.T_low, self.T_jet)
        # Exactly symmetric, so the Christoffel symbols are too.
        self.g_jet = (g + g.T) * 0.5
        # g, quadratic in T, can fall below the inverse's floor while T
        # passes RANK_TOL: one gate on both, one message.
        self.T, self.g = jet_values(self.T_jet), jet_values(self.g_jet)
        sv_T, sv_g = (np.linalg.svd(x, compute_uv=False).min()
                      for x in (self.T, self.g))
        if not (sv_T >= RANK_TOL and sv_g >= DIVISION_FLOOR):
            raise DegeneratePointError(
                f"{self.case.name}: differential rank-deficient at "
                f"u={self.u}: smallest singular value of T {sv_T:.3e} "
                f"(RANK_TOL {RANK_TOL:g}), of g {sv_g:.3e} "
                f"(DIVISION_FLOOR {DIVISION_FLOOR:g})"
            )
        self.g_inv_jet = jet_matrix_inverse(self.g_jet, checked_value=self.g)
        self.gamma_jet = amb.levi_civita(self.g_jet, self.g_inv_jet)
        self.g_inv, self.gamma = (jet_values(self.g_inv_jet),
                                  jet_values(self.gamma_jet))
        self.dg = jet_gradient(self.g_jet)

    # -- adapted normal frame ------------------------------------------------

    def _build_normal_frame(self, normal_seed_mix):
        d = self.d
        p = 2 * self.l
        lower = self.metric_amb.lower
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
                v = v - einsum("A,A->", lower(n), v) * n
            norm2 = einsum("A,A->", lower(v), v)
            if norm2.value < FRAME_NORM_FLOOR ** 2:
                continue
            n0 = v * norm2.rsqrt()
            normals.append(n0)
            if len(normals) < p:
                normals.append(einsum("AB,B->A", self.J_amb, n0))
        if len(normals) != p:
            raise FrameConstructionError(
                f"{self.case.name}: only {len(normals)} of {p} normal "
                f"directions found at u={self.u}"
            )
        self.N_jet = stack(normals)
        self.N_low = lower(self.N_jet)
        self.N = jet_values(self.N_jet)
        NG = self.N @ self.g_amb
        self.frame_residuals = {
            "normal_orthonormality":
                float(np.abs(NG @ self.N.T - np.eye(p)).max()),
            "normal_tangency": float(np.abs(NG @ self.T.T).max()),
        }

    # -- complex structure in the adapted frames -----------------------------

    def _build_j_frames(self):
        # Only values and first partials are read: order-1 truncations.
        JT = einsum("AB,jB->jA", self.J_amb, self.T_jet.truncate(1))  # J d/du^j
        # omega[i, j] = <J d/du^i, d/du^j>, then J_tan[k, j] = g^ki omega[j, i].
        self.omega_jet = einsum("iA,jA->ij", JT, self.T_low.truncate(1))
        self.J_tan_jet = einsum("ji,ki->kj", self.omega_jet,
                                self.g_inv_jet.truncate(1))
        # J-invariance of the tangent space: JT_j must lie in the span.
        self.J_tan, self.dJ_tan = (jet_values(self.J_tan_jet),
                                   jet_gradient(self.J_tan_jet))
        worst = float(np.abs(jet_values(JT) - self.J_tan.T @ self.T).max())
        self.frame_residuals["tangent_j_invariance"] = worst
        if worst > J_INVARIANCE_TOL:
            raise DegeneratePointError(
                f"{self.case.name}: tangent space not J-invariant at "
                f"u={self.u} (residual {worst:.3e})"
            )
        self.J_nor_jet = einsum("AB,bB,aA->ab", self.J_amb,
                                self.N_jet.truncate(1), self.N_low.truncate(1))
        self.J_nor, self.dJ_nor = (jet_values(self.J_nor_jet),
                                   jet_gradient(self.J_nor_jet))

    # -- second fundamental form and shape operators --------------------------

    def _build_second_fundamental_form(self):
        # One ambient derivative of the rows (T, N) along each d/du^i serves
        # b here and the normal connection next: one connection call.
        nu = self.nu
        TN = Jet._wrap(nu, np.concatenate([self.T_jet.c, self.N_jet.c]))
        DTN = jet_partials(TN)
        if self.connection_amb is not None:
            DTN = DTN + self.connection_amb(TN.truncate(1), nu)
        self.DN_jet = DTN[:, nu:]
        self.b_vec_jet = (
            DTN[:, :nu] - einsum("kij,kA->ijA", self.gamma_jet, self.T_jet)
        )
        # b_vec lowered once serves b here and the Gauss route's bb.
        self.b_low_jet = self.metric_amb.lower(self.b_vec_jet)
        self.b_jet = einsum("ijA,aA->aij", self.b_low_jet, self.N_jet)
        # A[a, k, j] = b[a, j, t] g^tk
        self.A_jet = einsum("ajt,tk->akj", self.b_jet, self.g_inv_jet)
        self.b, self.db = jet_values(self.b_jet), jet_gradient(self.b_jet)
        self.A = jet_values(self.A_jet)

    # -- normal connection ----------------------------------------------------

    def _build_normal_connection(self):
        self.gamma_perp_jet = einsum("aA,ibA->abi", self.N_low, self.DN_jet)
        gp = self.gamma_perp = jet_values(self.gamma_perp_jet)
        self.frame_residuals["gamma_perp_antisymmetry"] = float(
            np.abs(gp + gp.transpose(1, 0, 2)).max()
        )

    # -- covariant derivatives of b and A --------------------------------------

    def _build_covariant_derivatives(self):
        gam, gp = self.gamma, self.gamma_perp
        self.nabla_b = covariant_derivative(self.b, self.db, gam, gp, "ntt")

        # Independent route: ambient derivative of the vector-valued form,
        # then projection onto the normal frame.  Only its value is needed,
        # so it is assembled in floats with the ambient connection at F(u).
        bv = jet_values(self.b_vec_jet)
        w = jet_gradient(self.b_vec_jet)
        if self.connection_amb is not None:  # flat space: Gamma^C_{AB} = 0
            # [i, C, B] = Gamma^C_{AB} T_i^A, then paired with b_vec[j, k, B].
            GT = np.tensordot(self.T, self.gamma_amb, ([1], [1]))
            w = w + bv @ GT.transpose(0, 2, 1)[:, None]
        w = (w - np.einsum("tij,tkA->ijkA", gam, bv)
             - np.einsum("tik,jtA->ijkA", gam, bv))
        nb2 = np.einsum("ijkA,aA->iajk", w, jet_values(self.N_low))
        self._gate("two_path_nabla_b", self.nabla_b, nb2)

        self.nabla_A = covariant_derivative(self.A, jet_gradient(self.A_jet),
                                            gam, gp, "nut")

    # -- ambient curvature ------------------------------------------------------

    def _ambient_curvature(self, normal: bool) -> Jet:
        """Closed-form <R(d/du^i, d/du^j) Z_a, W_b> as order-1 jets, indexed
        ``[i, j, a, b]``, with Z, W the normal frame (``normal``, the Ricci
        term) or the tangent frame (the Gauss term).  The slot pairings are g
        and omega on tangent slots, <J n_a, n_b> = J_nor[b, a] on normal ones
        and exact zeros between them: N is G-orthogonal to T, and JT lies in
        the span of T (``frame_residuals`` bound both), so the Ricci term
        forms only the 2 <JY, X><JZ, W> product.  The closed form runs once,
        on float probes of the pairings (``_probes``).  It is quadratic in
        them, so f(v + d_s) - f(v - d_s) = 2 Df(v) d_s exactly: probe 0 and
        half those differences are the value and first partials."""
        nu, w = self.nu, self.omega_jet
        omega = _probes(jet_values(w), jet_gradient(w))  # [probe, i, j]
        K = {(1, 0): omega.swapaxes(1, 2)[..., None, None]}
        if normal:
            P = dict.fromkeys([(1, 2), (0, 3), (0, 2), (1, 3)], 0.0)
            K.update(P)
            J_nor = _probes(self.J_nor, self.dJ_nor).swapaxes(1, 2)
            K[2, 3] = J_nor[:, None, None]
        else:
            def cross(M):  # pairings of the slots X, Y with Z, W
                return {(1, 2): M[:, None, :, :, None],
                        (0, 3): M[:, :, None, None, :],
                        (0, 2): M[:, :, None, :, None],
                        (1, 3): M[:, None, :, None, :]}

            P = cross(_probes(self.g, self.dg))
            K.update(cross(omega))
            K[2, 3] = omega[:, None, None]
        R = amb.curvature_operator(self.c, P, K)
        half = (R[1:nu + 1] - R[nu + 1:]) * 0.5
        return Jet(nu, np.moveaxis(np.concatenate([R[:1], half]), 0, -1))

    # -- normal curvature -------------------------------------------------------

    def _build_normal_curvature(self):
        # Route 1: ambient curvature plus shape-operator commutator,
        # g([A_a, A_b] d_i, d_j), kept as jets so the covariant derivative of
        # the normal curvature can be differentiated from it.
        AA = einsum("akt,btj->abkj", self.A_jet, self.A_jet)  # [a, b] = A_a A_b
        rp1 = einsum("abki,kj->ijab", AA - AA.transpose(1, 0, 2, 3),
                     self.g_jet)
        if self.c != 0.0:
            rp1 = rp1 + self._ambient_curvature(normal=True)
        rp1_val = jet_values(rp1)

        # Route 2: curvature of the normal connection matrices
        # w_i[b, a] = gamma_perp[b, a, i], transposed to [i, j, a, b].
        self.r_perp = amb.connection_curvature(
            self.gamma_perp.transpose(2, 0, 1),
            np.einsum("ibaj->ijba", jet_gradient(self.gamma_perp_jet)),
        ).swapaxes(2, 3)
        self._gate("two_path_r_perp", rp1_val, self.r_perp)

        self.nabla_r_perp = covariant_derivative(
            rp1_val, jet_gradient(rp1), self.gamma, self.gamma_perp, "ttnn")

    # -- intrinsic curvature ------------------------------------------------------

    def _build_intrinsic_curvature(self):
        # Route 1: curvature of the connection matrices w_i[t, k] =
        # Gamma^t_ik, then the upper index lowered with g.
        F = amb.connection_curvature(
            self.gamma.transpose(1, 0, 2),
            np.einsum("itjk->ijtk", jet_gradient(self.gamma_jet)))
        r1 = np.einsum("ijtk,tl->ijkl", F, self.g)

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

        b, nb = self.b, self.nabla_b
        # Derivative of the curvature via products of b with its covariant
        # derivative; the ambient contribution is parallel and drops out.
        # Of the four product terms, the two subtracted ones are the added
        # ones with k and l swapped.
        P = (np.einsum("sail,ajk->sijkl", nb, b)
             + np.einsum("ail,sajk->sijkl", b, nb))
        nrA = P - P.swapaxes(3, 4)
        # Cross-check: coordinate covariant derivative of the jet-valued
        # curvature from route 2.
        nrB = covariant_derivative(r2_val, jet_gradient(r2), self.gamma,
                                   self.gamma_perp, "tttt")
        self._gate("two_path_nabla_r", nrA, nrB)
        self.nabla_r = nrA

    # -- assembled output -----------------------------------------------------------

    def data(self) -> ExtrinsicData:
        """The stored fields; ``u`` and the residual dicts as copies."""
        own = {"u": self.u.copy(), "two_path": dict(self.two_path),
               "frame_residuals": dict(self.frame_residuals)}
        return ExtrinsicData(**{
            f.name: own[f.name] if f.name in own else getattr(self, f.name)
            for f in fields(ExtrinsicData)})


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
    return float(np.abs(np.linalg.det(data.A)).max())

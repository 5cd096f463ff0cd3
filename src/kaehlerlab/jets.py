"""Truncated Taylor (jet) arithmetic of order 3 in n real variables.

A jet stores the Taylor coefficients of a scalar function at a point, for
every multi-index of total degree <= 3, in graded lexicographic order.
Arithmetic is exact truncated polynomial algebra: products of total degree
above 3 are discarded.  All higher geometry in this package is built by
evaluating chart expressions on jets, so that mixed partial derivatives up
to third order come out of plain arithmetic.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

MAX_DEGREE = 3

#: Reciprocals (and hence divisions) refuse constant terms below this floor.
DIVISION_FLOOR = 1e-12


def _exponents_of_degree(n: int, deg: int):
    if n == 1:
        yield (deg,)
        return
    for first in range(deg, -1, -1):
        for rest in _exponents_of_degree(n - 1, deg - first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def multi_indices(n: int) -> tuple:
    """All exponent tuples over ``n`` variables with degree <= 3, graded-lex."""
    if n < 1:
        raise ValueError(f"need at least one variable, got n={n}")
    out = []
    for deg in range(MAX_DEGREE + 1):
        out.extend(_exponents_of_degree(n, deg))
    return tuple(out)


@lru_cache(maxsize=None)
def index_position(n: int) -> dict:
    return {alpha: k for k, alpha in enumerate(multi_indices(n))}


@lru_cache(maxsize=None)
def _mul_table(n: int):
    idx = multi_indices(n)
    pos = index_position(n)
    left, right, dest = [], [], []
    for i, a in enumerate(idx):
        da = sum(a)
        for j, b in enumerate(idx):
            if da + sum(b) > MAX_DEGREE:
                continue
            left.append(i)
            right.append(j)
            dest.append(pos[tuple(x + y for x, y in zip(a, b))])
    return np.array(left), np.array(right), np.array(dest)


@lru_cache(maxsize=None)
def _diff_table(n: int, var: int):
    idx = multi_indices(n)
    pos = index_position(n)
    src, dst, fac = [], [], []
    for i, a in enumerate(idx):
        if a[var] == 0:
            continue
        lower = list(a)
        lower[var] -= 1
        src.append(i)
        dst.append(pos[tuple(lower)])
        fac.append(float(a[var]))
    return np.array(src), np.array(dst), np.array(fac)


@lru_cache(maxsize=None)
def _project_table(n_old: int, n_keep: int):
    """Positions of coefficients free of variables >= n_keep, plus targets."""
    pos_new = index_position(n_keep)
    src, dst = [], []
    for i, a in enumerate(multi_indices(n_old)):
        if any(a[n_keep:]):
            continue
        src.append(i)
        dst.append(pos_new[a[:n_keep]])
    return np.array(src), np.array(dst)


class Jet:
    """Order-3 Taylor polynomial in ``n`` real variables (dense storage)."""

    __slots__ = ("n", "c")

    def __init__(self, n: int, coeffs=None):
        self.n = n
        size = len(multi_indices(n))
        if coeffs is None:
            self.c = np.zeros(size)
        else:
            c = np.asarray(coeffs, dtype=float)
            if c.shape != (size,):
                raise ValueError(
                    f"expected {size} coefficients for n={n}, got {c.shape}"
                )
            self.c = c.copy()

    @classmethod
    def constant(cls, value: float, n: int) -> "Jet":
        out = cls(n)
        out.c[0] = float(value)
        return out

    @property
    def value(self) -> float:
        """Degree-zero coefficient: the value of the function at the point."""
        return float(self.c[0])

    def copy(self) -> "Jet":
        return Jet(self.n, self.c)

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.n != self.n:
                raise ValueError(
                    f"jet variable counts differ: {self.n} vs {other.n}"
                )
            return other
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Jet.constant(float(other), self.n)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(self.n, self.c + o.c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.n, -self.c)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(self.n, self.c - o.c)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(self.n, o.c - self.c)

    def __mul__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Jet(self.n, self.c * float(other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        left, right, dest = _mul_table(self.n)
        return Jet(
            self.n,
            np.bincount(dest, weights=self.c[left] * o.c[right],
                        minlength=len(self.c)),
        )

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet":
        a0 = self.c[0]
        if abs(a0) < DIVISION_FLOOR:
            raise ZeroDivisionError(
                f"jet reciprocal: constant term {a0!r} below floor "
                f"{DIVISION_FLOOR}"
            )
        # 1/(a0 (1 + e)) with e nilpotent: geometric series through degree 3.
        e = Jet(self.n, self.c / a0)
        e.c[0] = 0.0
        e2 = e * e
        one = Jet.constant(1.0, self.n)
        return (one - e + e2 - e2 * e) * (1.0 / a0)

    def __truediv__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Jet(self.n, self.c / float(other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.reciprocal()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.reciprocal()

    def sqrt(self) -> "Jet":
        a0 = self.c[0]
        if a0 <= DIVISION_FLOOR:
            raise ValueError(
                f"jet sqrt requires a positive constant term, got {a0!r}"
            )
        e = Jet(self.n, self.c / a0)
        e.c[0] = 0.0
        e2 = e * e
        one = Jet.constant(1.0, self.n)
        series = one + e * 0.5 - e2 * 0.125 + e2 * e * 0.0625
        return series * math.sqrt(a0)

    # -- calculus ----------------------------------------------------------

    def derivative(self, var: int) -> "Jet":
        """Jet of the partial derivative with respect to variable ``var``.

        The result's degree-3 coefficients are truncated to zero (one order
        of derivative information is consumed).
        """
        if not 0 <= var < self.n:
            raise IndexError(f"variable {var} out of range for n={self.n}")
        src, dst, fac = _diff_table(self.n, var)
        out = Jet(self.n)
        np.add.at(out.c, dst, self.c[src] * fac)
        return out

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Jet)
            and self.n == other.n
            and np.array_equal(self.c, other.c)
        )

    __hash__ = None

    def __repr__(self):
        terms = [
            f"{coeff:g}*u^{alpha}"
            for alpha, coeff in zip(multi_indices(self.n), self.c)
            if coeff != 0.0
        ]
        body = " + ".join(terms) if terms else "0"
        return f"Jet(n={self.n}: {body})"


def seed_variable(i: int, value: float, n: int) -> Jet:
    """Jet of the i-th coordinate function at the given value."""
    if not 0 <= i < n:
        raise IndexError(f"variable index {i} out of range for n={n}")
    out = Jet.constant(float(value), n)
    e_i = tuple(1 if k == i else 0 for k in range(n))
    out.c[index_position(n)[e_i]] = 1.0
    return out


def seed_point(x) -> list:
    """Seed every component of a point as its own jet variable."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    return [seed_variable(i, x[i], n) for i in range(n)]


def extract(jet: Jet, alpha) -> float:
    """Mixed partial derivative of the underlying function at the point."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != jet.n:
        raise ValueError(f"multi-index length {len(alpha)} != n={jet.n}")
    if any(a < 0 for a in alpha):
        raise ValueError(f"negative exponent in multi-index {alpha}")
    if sum(alpha) > MAX_DEGREE:
        raise ValueError(f"multi-index degree {sum(alpha)} exceeds {MAX_DEGREE}")
    scale = 1.0
    for a in alpha:
        scale *= math.factorial(a)
    return scale * float(jet.c[index_position(jet.n)[alpha]])


def project_head(jet: Jet, n_keep: int) -> Jet:
    """Restrict to the first ``n_keep`` variables, setting the rest to zero."""
    if n_keep > jet.n:
        raise ValueError("cannot keep more variables than the jet has")
    src, dst = _project_table(jet.n, n_keep)
    out = Jet(n_keep)
    out.c[dst] = jet.c[src]
    return out


def fd_oracle(f, x, alpha, h: float) -> float:
    """Central-difference estimate of a mixed partial derivative.

    Iterates the two-point central stencil once per unit of each multi-index
    component.  Accuracy is the caller's concern; this exists as a slow,
    independent cross-check on the jet path.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    alpha = tuple(int(a) for a in alpha)
    if sum(alpha) > MAX_DEGREE:
        raise ValueError(f"multi-index degree {sum(alpha)} exceeds {MAX_DEGREE}")
    x = np.asarray(x, dtype=float)

    def recurse(a, pt):
        for i, ai in enumerate(a):
            if ai > 0:
                lower = list(a)
                lower[i] -= 1
                up = pt.copy()
                up[i] += h
                down = pt.copy()
                down[i] -= h
                return (recurse(lower, up) - recurse(lower, down)) / (2.0 * h)
        return float(f(pt) if len(pt) > 1 else f(pt[0]))

    return recurse(list(alpha), x)


class ComplexJet:
    """Complex number whose real and imaginary parts are jets.

    Chart maps in this package are rational holomorphic expressions; writing
    them against this class (or against plain Python complex, which supports
    the same operators) keeps one definition per chart.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: Jet, im: Jet):
        self.re = re
        self.im = im

    def _coerce(self, other):
        if isinstance(other, ComplexJet):
            return other
        if isinstance(other, (int, float, np.floating, np.integer)):
            n = self.re.n
            return ComplexJet(Jet.constant(float(other), n), Jet(n))
        if isinstance(other, complex):
            n = self.re.n
            return ComplexJet(
                Jet.constant(other.real, n), Jet.constant(other.imag, n)
            )
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexJet(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return ComplexJet(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexJet(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return ComplexJet(self.re * float(other), self.im * float(other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexJet(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def conj(self) -> "ComplexJet":
        return ComplexJet(self.re.copy(), -self.im)

    def abs2(self) -> Jet:
        return self.re * self.re + self.im * self.im

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        inv = o.abs2().reciprocal()
        num = self * o.conj()
        return ComplexJet(num.re * inv, num.im * inv)


def jet_matrix_inverse(mat):
    """Inverse of a square matrix of jets via Gauss-Jordan elimination.

    Pivots on the largest constant term; the matrices inverted here are
    metric tensors, positive definite at every healthy sample point.
    """
    mat = np.asarray(mat, dtype=object)
    d = mat.shape[0]
    if mat.shape != (d, d):
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    n = mat[0, 0].n
    work = mat.copy()
    inv = np.empty((d, d), dtype=object)
    for i in range(d):
        for j in range(d):
            inv[i, j] = Jet.constant(1.0 if i == j else 0.0, n)
    for col in range(d):
        pivot_row = max(range(col, d), key=lambda r: abs(work[r, col].value))
        if abs(work[pivot_row, col].value) < DIVISION_FLOOR:
            raise ZeroDivisionError("jet matrix is singular at this point")
        if pivot_row != col:
            work[[col, pivot_row]] = work[[pivot_row, col]]
            inv[[col, pivot_row]] = inv[[pivot_row, col]]
        scale = work[col, col].reciprocal()
        for j in range(d):
            work[col, j] = work[col, j] * scale
            inv[col, j] = inv[col, j] * scale
        for r in range(d):
            if r == col:
                continue
            factor = work[r, col]
            if not np.any(factor.c):
                continue
            for j in range(d):
                work[r, j] = work[r, j] - factor * work[col, j]
                inv[r, j] = inv[r, j] - factor * inv[col, j]
    return inv


def _coefficient_stack(arr) -> np.ndarray:
    """Coefficients of a (nested) array of jets, on a new last axis."""
    arr = np.asarray(arr, dtype=object)
    return np.array([jet.c for jet in arr.flat]).reshape(*arr.shape, -1)


def jet_values(arr) -> np.ndarray:
    """Degree-zero coefficients of an array of jets."""
    return _coefficient_stack(arr)[..., 0]


def jet_gradient(arr) -> np.ndarray:
    """First partials of an array of jets, indexed ``[i, *arr.shape]``.

    The partial in variable i is the coefficient of u^i, which graded-lex
    order stores at position 1 + i.
    """
    arr = np.asarray(arr, dtype=object)
    n = arr.flat[0].n
    return np.moveaxis(_coefficient_stack(arr)[..., 1:n + 1], -1, 0)


def jet_partials(arr) -> np.ndarray:
    """Partial derivatives of an array of jets, as jets, indexed
    ``[i, *arr.shape]``: the jet counterpart of ``jet_gradient``."""
    arr = np.asarray(arr, dtype=object)
    return np.stack([
        np.frompyfunc(lambda jet: jet.derivative(i), 1, 1)(arr)
        for i in range(arr.flat[0].n)
    ])

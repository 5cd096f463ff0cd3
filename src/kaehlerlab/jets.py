"""Truncated Taylor (jet) arithmetic of order at most 3 in n real variables,
with float or complex coefficients.

A jet of order k stores the Taylor coefficients of a function at a point,
for every multi-index of total degree <= k, in graded lexicographic order.
Graded-lex order makes an order-k jet a prefix, of length C(n + k, k), of
the order-3 coefficients, so a jet's order is its coefficient count:
``Jet.order`` is read off it and ``Jet.truncate`` is a prefix slice.
Arithmetic is exact truncated polynomial algebra: products of total degree
above the order are discarded.  A derivative lowers the order by one (the
top degree has no source), and mixed-order arithmetic (``+ - * /``,
``einsum``, ``stack``) truncates to the lower order, so
each quantity carries just the degrees its inputs determine.  All higher
geometry in this package is built by evaluating chart expressions on jets,
so that mixed partial derivatives up to third order come out of plain
arithmetic; freshly seeded jets have order 3.

A ``Jet`` is array-valued: its coefficients ``c`` have shape
``(*shape, K)``, one jet per entry of ``shape`` and the K coefficients on
the last axis; a scalar jet is the case ``shape == ()``.  Arithmetic
broadcasts over ``shape`` like numpy, and ``einsum`` contracts jets and
float arrays, so a whole tensor of jets is built by a few numpy calls on
coefficient arrays.  A product of two jet tensors in ``einsum`` is one
batched matmul over the coefficient pairs of the product table: a cached
plan gathers each operand's matrices with one flat ``take`` and scatters
the products into the output coefficients with one ``np.bincount``, which
adds them in the table's order.  ``*`` and the series of ``reciprocal``
and ``rsqrt`` sum the same pairs with ``np.add.reduceat``, which is faster
on their elementwise shapes.  Truncated Taylor arithmetic holds over C
unchanged, so a holomorphic chart runs on complex jets z = x + i y
(``rsqrt`` alone is real-only).
"""

from __future__ import annotations

import math
import string
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
def order_sizes(n: int) -> tuple:
    """Coefficient count C(n + k, k) of an order-k jet, for k = 0..3."""
    return tuple(math.comb(n + k, k) for k in range(MAX_DEGREE + 1))


def _order_of(n: int, c: np.ndarray) -> int:
    """Order of the jets with coefficients ``c``, read off their count."""
    return order_sizes(n).index(c.shape[-1])


@lru_cache(maxsize=None)
def _mul_table(n: int, order: int):
    """Coefficient pairs (left, right) of two order-``order`` jets whose
    product survives truncation at that order, sorted by the coefficient
    ``dest`` they land on, and where each target's run of pairs starts: the
    product is ``reduceat(a[left] * b[right], starts)``."""
    idx = multi_indices(n)[:order_sizes(n)[order]]
    pos = index_position(n)
    pairs = []
    for i, a in enumerate(idx):
        for j, b in enumerate(idx):
            if sum(a) + sum(b) <= order:
                pairs.append((pos[tuple(x + y for x, y in zip(a, b))], i, j))
    dest, left, right = np.array(sorted(pairs)).T
    starts = np.flatnonzero(np.diff(dest, prepend=-1))
    return left, right, dest, starts


@lru_cache(maxsize=None)
def _diff_table(n: int, order: int):
    """Gather positions and factors of every partial derivative of an
    order-``order`` jet, which has order ``order - 1``:
    ``d_i c[k] = fac[i, k] * c[src[i, k]]`` for each of its coefficients k
    (the top degree of the input has no image and is dropped)."""
    idx = multi_indices(n)[:order_sizes(n)[order - 1]]
    pos = index_position(n)
    src = np.empty((n, len(idx)), dtype=int)
    fac = np.empty((n, len(idx)))
    for var in range(n):
        for k, a in enumerate(idx):
            raised = list(a)
            raised[var] += 1
            src[var, k] = pos[tuple(raised)]
            fac[var, k] = raised[var]
    return src, fac


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


def _partials(jet, rows) -> np.ndarray:
    """Coefficients of the partials in the variables ``rows`` (an index or
    a slice of ``_diff_table``), on the second-to-last axis for a slice;
    one order below ``jet``."""
    order = jet.order
    if order == 0:
        raise ValueError("an order-0 jet has no derivatives")
    src, fac = _diff_table(jet.n, order)
    return jet.c.take(src[rows], axis=-1) * fac[rows]


def _lift(value, size: int) -> np.ndarray:
    """``size`` coefficients of constant jets with the given value(s)."""
    value = np.asarray(value)
    c = np.zeros(value.shape + (size,), np.promote_types(value.dtype, float))
    c[..., 0] = value
    return c


def _common(a: np.ndarray, b: np.ndarray):
    """Two coefficient arrays truncated to the lower of their orders."""
    if a.shape[-1] == b.shape[-1]:
        return a, b
    size = min(a.shape[-1], b.shape[-1])
    return a[..., :size], b[..., :size]


def _is_number(x) -> bool:
    """Whether ``x`` is a real or complex scalar or array (not a jet)."""
    return isinstance(x, (int, float, complex, np.number)) or (
        isinstance(x, np.ndarray) and x.dtype.kind in "biufc")


class Jet:
    """Taylor polynomials of order <= 3 in ``n`` real variables, one per
    entry of ``shape``; coefficients ``c`` have shape ``(*shape, K)``, with
    K = C(n + order, order), and are float or complex."""

    __slots__ = ("n", "c")

    # numpy defers to Jet's reflected operators instead of looping over it.
    __array_ufunc__ = None

    def __init__(self, n: int, coeffs=None):
        self.n = n
        sizes = order_sizes(n)
        if coeffs is None:
            self.c = np.zeros(sizes[MAX_DEGREE])
        else:
            c = np.asarray(coeffs)
            c = np.array(c, dtype=np.promote_types(c.dtype, float))
            if c.ndim == 0 or c.shape[-1] not in sizes:
                raise ValueError(
                    f"expected one of {sizes} coefficients (orders 0 to "
                    f"{MAX_DEGREE}) for n={n}, got {c.shape}"
                )
            self.c = c

    @classmethod
    def _wrap(cls, n: int, c: np.ndarray) -> "Jet":
        out = cls.__new__(cls)
        out.n = n
        out.c = c
        return out

    @classmethod
    def constant(cls, value, n: int) -> "Jet":
        """Constant jets with the given value (or array of values)."""
        return cls._wrap(n, _lift(value, order_sizes(n)[MAX_DEGREE]))

    @property
    def order(self) -> int:
        """Highest degree carried: read off the coefficient count."""
        return _order_of(self.n, self.c)

    def truncate(self, order: int) -> "Jet":
        """The same jets to a lower (or equal) order: a prefix slice, so a
        view of these coefficients, like a numpy slice."""
        if not 0 <= order <= self.order:
            raise ValueError(
                f"cannot truncate an order-{self.order} jet to order {order}")
        return Jet._wrap(self.n, self.c[..., :order_sizes(self.n)[order]])

    @property
    def shape(self) -> tuple:
        return self.c.shape[:-1]

    @property
    def ndim(self) -> int:
        return self.c.ndim - 1

    def __len__(self):
        if not self.shape:
            raise TypeError("len() of a scalar jet")
        return self.shape[0]

    @property
    def value(self):
        """Degree-zero coefficients: the values of the functions at the point
        (a Python float or complex for a scalar jet)."""
        v = self.c[..., 0]
        return v.item() if v.ndim == 0 else v.copy()

    # -- array structure ---------------------------------------------------

    def __getitem__(self, key) -> "Jet":
        if not isinstance(key, tuple):
            key = (key,)
        return Jet._wrap(self.n, self.c[key + (slice(None),)])

    def __iter__(self):
        for k in range(len(self)):
            yield self[k]

    def transpose(self, *axes) -> "Jet":
        """Permute the leading axes (reverse them by default)."""
        axes = axes or tuple(range(self.ndim))[::-1]
        return Jet._wrap(self.n, self.c.transpose(*axes, self.ndim))

    @property
    def T(self) -> "Jet":
        return self.transpose()

    def sum(self) -> "Jet":
        """Scalar jet: the sum of all entries."""
        return Jet._wrap(self.n, self.c.reshape(-1, self.c.shape[-1]).sum(0))

    # -- ring operations ---------------------------------------------------

    def _coeffs(self, other):
        """Coefficients of ``other`` in this ring (floats lifted to this
        order, jets at their own), or None if foreign."""
        if isinstance(other, Jet):
            if other.n != self.n:
                raise ValueError(
                    f"jet variable counts differ: {self.n} vs {other.n}"
                )
            return other.c
        if _is_number(other):
            return _lift(other, self.c.shape[-1])
        return None

    def __add__(self, other):
        o = self._coeffs(other)
        if o is None:
            return NotImplemented
        a, o = _common(self.c, o)
        return Jet._wrap(self.n, a + o)

    __radd__ = __add__

    def __neg__(self):
        return Jet._wrap(self.n, -self.c)

    def __sub__(self, other):
        o = self._coeffs(other)
        if o is None:
            return NotImplemented
        a, o = _common(self.c, o)
        return Jet._wrap(self.n, a - o)

    def __rsub__(self, other):
        o = self._coeffs(other)
        if o is None:
            return NotImplemented
        a, o = _common(self.c, o)
        return Jet._wrap(self.n, o - a)

    def __mul__(self, other):
        if _is_number(other):
            return Jet._wrap(self.n, self.c * np.asarray(other)[..., None])
        o = self._coeffs(other)
        if o is None:
            return NotImplemented
        a, o = _common(self.c, o)
        left, right, _, starts = _mul_table(self.n, _order_of(self.n, a))
        return Jet._wrap(self.n, np.add.reduceat(
            a.take(left, axis=-1) * o.take(right, axis=-1), starts, axis=-1))

    __rmul__ = __mul__

    def _unit_series(self, coefs) -> "Jet":
        """sum_k coefs[k] e^k with e = self / a0 - 1 (a0 the value), through
        this jet's order, on coefficient arrays: e has no constant term, so
        its higher powers vanish and are not formed."""
        e = self.c / self.c[..., :1]
        e[..., 0] = 0.0
        series, power = e * coefs[1] + _lift(coefs[0], e.shape[-1]), e
        left, right, _, starts = _mul_table(self.n, self.order)
        for coef in coefs[2:self.order + 1]:
            power = np.add.reduceat(
                power.take(left, axis=-1) * e.take(right, axis=-1), starts, -1)
            series = series + power * coef
        return Jet._wrap(self.n, series)

    def reciprocal(self) -> "Jet":
        a0 = self.c[..., :1]
        if np.any(np.abs(a0) < DIVISION_FLOOR):
            raise ZeroDivisionError(
                f"jet reciprocal: constant term below floor {DIVISION_FLOOR}"
                f" (smallest {np.abs(a0).min():.3e})"
            )
        # 1/(a0 (1 + e)) with e nilpotent: the geometric series.
        return self._unit_series((1.0, -1.0, 1.0, -1.0)) * (1.0 / a0[..., 0])

    def __truediv__(self, other):
        if _is_number(other):
            return Jet._wrap(self.n, self.c / np.asarray(other)[..., None])
        o = self._coeffs(other)
        if o is None:
            return NotImplemented
        return self * Jet._wrap(self.n, o).reciprocal()

    def __rtruediv__(self, other):
        if not _is_number(other):
            return NotImplemented
        return self.reciprocal() * other

    def _positive_value(self, op: str) -> np.ndarray:
        """The values, refused unless real and above ``DIVISION_FLOOR``."""
        if np.iscomplexobj(self.c):  # numpy's <= on complex is lexicographic
            raise TypeError(f"jet {op} needs real coefficients")
        a0 = self.c[..., 0]
        if np.any(a0 <= DIVISION_FLOOR):
            raise ValueError(
                f"jet {op} requires a positive constant term, got "
                f"{a0.min()!r}"
            )
        return a0

    def rsqrt(self) -> "Jet":
        """1 / sqrt, as one binomial series: the square root's series and
        its reciprocal in one unit series and one floor check instead of
        two of each."""
        a0 = self._positive_value("rsqrt")
        return (self._unit_series((1.0, -0.5, 0.375, -0.3125))
                * (1.0 / np.sqrt(a0)))

    # -- calculus ----------------------------------------------------------

    def derivative(self, var: int) -> "Jet":
        """Jet of the partial derivative with respect to variable ``var``.

        The result has one order less: the top-degree coefficients have no
        source, so the derivative consumes one order.  Raises ``ValueError``
        on an order-0 jet.
        """
        if not 0 <= var < self.n:
            raise IndexError(f"variable {var} out of range for n={self.n}")
        return Jet._wrap(self.n, _partials(self, var))

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Jet)
            and self.n == other.n
            and self.c.shape == other.c.shape
            and np.array_equal(self.c, other.c)
        )

    __hash__ = None

    def __repr__(self):
        if self.shape:
            return f"Jet(n={self.n}, shape={self.shape})"
        terms = [
            f"{coeff:g}*u^{alpha}"
            for alpha, coeff in zip(multi_indices(self.n), self.c)
            if coeff != 0.0
        ]
        body = " + ".join(terms) if terms else "0"
        return f"Jet(n={self.n}: {body})"


def stack(jets, axis: int = 0) -> Jet:
    """Join jets of one shape along a new leading axis, like ``np.stack``,
    at the lowest of their orders."""
    jets = list(jets)
    n = jets[0].n
    if any(j.n != n for j in jets):
        raise ValueError("jet variable counts differ")
    ndim = jets[0].ndim + 1
    if not -ndim <= axis < ndim:
        raise np.exceptions.AxisError(axis, ndim)
    size = min(j.c.shape[-1] for j in jets)
    # np.array joins along a new first axis as np.stack does, in about a
    # quarter of its time for the small lists jets are stacked from.
    c = np.array([j.c[..., :size] for j in jets])
    return Jet._wrap(n, np.moveaxis(c, 0, axis % ndim) if axis % ndim else c)


def einsum(spec: str, *operands):
    """``np.einsum`` over two or more jets and float arrays, with an
    explicit ``->``.

    Operands are folded left to right, keeping at each step the indices a
    later operand or the output still needs; ``...`` broadcasts as in numpy.
    The fold is planned once per spec and operand count.  A float operand
    contracts with the coefficients directly, in one ``np.einsum``.  Two jet
    operands are multiplied at the lower of their orders as one batched
    matmul, by a plan cached on the step's subscripts, the two coefficient
    shapes and n (``_pair_plan``).  The indices are sorted into batch, free
    and contracted ones, so that every pair of the order's product table
    and every batch entry is one (free_a, contracted) @ (contracted,
    free_b) product.  Each operand's stack of those matrices is one flat
    ``take`` of precomputed positions, and one ``np.bincount`` adds each
    product into its output coefficient, pair after pair in the table's
    order, so a product does not depend on the order it is truncated to.
    ``...`` becomes batch or free indices like any other, so a leading axis
    of points rides on the same matmul.  A step the matmul cannot express
    (an index repeated in one operand, or summed in only one, or
    broadcast from size 1) takes one ``np.einsum`` over the pairs and
    ``np.add.reduceat`` instead.
    """
    subs, steps, k, p = _fold_plan(spec, len(operands))
    acc, acc_sub = operands[0], subs[0]
    for operand, sub, keep in zip(operands[1:], subs[1:], steps):
        acc = _contract(acc, acc_sub, operand, sub, keep, k, p)
        acc_sub = keep
    return acc


@lru_cache(maxsize=None)
def _fold_plan(spec: str, count: int):
    """The subscripts of ``einsum``'s operands (``...`` written ``*``), the
    subscripts each fold step keeps, and two free letters for the
    coefficient and product-pair axes of its ``np.einsum`` steps."""
    ins, out = spec.replace(" ", "").replace("...", "*").split("->")
    subs = ins.split(",")
    if len(subs) != count or count < 2:
        raise ValueError(f"einsum needs two or more operands, one per "
                         f"subscript of {spec!r}; got {count}")
    steps = []
    for pos in range(1, count - 1):
        later = "".join(subs[pos + 1:]) + out
        acc_sub = steps[-1] if steps else subs[0]
        steps.append("".join(dict.fromkeys(
            ch for ch in acc_sub + subs[pos] if ch in later)))
    steps.append(out)
    k, p = [ch for ch in string.ascii_letters if ch not in spec][:2]
    return tuple(subs), tuple(steps), k, p


def _expand(sub: str, ndim: int, width: int) -> list:
    """Indices of an operand with ``ndim`` axes: its letters, with ``*``
    turned into the last of ``width`` fresh batch indices."""
    if "*" not in sub:
        return list(sub)
    at, rank = sub.index("*"), ndim - len(sub) + 1
    return [*sub[:at], *((None, j) for j in range(width - rank, width)),
            *sub[at + 1:]]


@lru_cache(maxsize=None)
def _pair_plan(sa: str, sb: str, so: str, shape_a: tuple, shape_b: tuple,
               n: int):
    """How ``sa,sb->so`` runs as a batched matmul on jets in ``n`` variables
    with coefficient arrays of the given shapes, or None when it cannot.
    Indices in both operands and the output are batch indices, in both
    operands only contracted, in one operand free.  The product is taken at
    the lower of the two orders.  Returns, for each operand, the flat
    positions of its coefficients that ``np.take`` gathers into the
    (pair, batch, free_a, contracted) and (pair, batch, contracted, free_b)
    stacks of ``_mul_table``'s pairs; for the matmul's products, in their
    order, the flat position in the output they add to; and the output's
    coefficient shape."""
    lead_a, lead_b = shape_a[:-1], shape_b[:-1]
    if ("*" in sa + sb) != ("*" in so):
        return None
    width = max((len(shape) - len(sub) + 1 for sub, shape in
                 ((sa, lead_a), (sb, lead_b)) if "*" in sub), default=0)
    ia, ib = _expand(sa, len(lead_a), width), _expand(sb, len(lead_b), width)
    io = _expand(so, width + len(so) - 1, width)
    size, size_b = dict(zip(ia, lead_a)), dict(zip(ib, lead_b))
    if (len(ia) != len(lead_a) or len(ib) != len(lead_b)
            or any(len(set(s)) < len(s) for s in (ia, ib, io))
            or any(size[x] != size_b[x] for x in size.keys() & size_b)
            or not size.keys() ^ size_b <= set(io) <= size.keys() | size_b
            or 0 in lead_a + lead_b):
        return None
    size.update(size_b)
    batch = [x for x in io if x in ia and x in ib]
    free_a = [x for x in ia if x not in ib]
    free_b = [x for x in ib if x not in ia]
    summed = [x for x in ia if x in ib and x not in io]
    fa, cs, fb = (math.prod(size[x] for x in group)
                  for group in (free_a, summed, free_b))
    coeffs = min(shape_a[-1], shape_b[-1])
    left, right, dest, _ = _mul_table(n, order_sizes(n).index(coeffs))

    def positions(shape, axes, rows):
        # Flat positions in an array of ``shape``, its coefficient axis
        # (the last) first and then ``axes``, at the coefficients ``rows``.
        at = np.arange(math.prod(shape)).reshape(shape)
        return at.transpose(len(shape) - 1, *axes)[rows]

    out_shape = (*(size[x] for x in io), coeffs)
    order = batch + free_a + free_b
    return (positions(shape_a, [ia.index(x) for x in batch + free_a + summed],
                      left).reshape(-1, fa, cs),
            positions(shape_b, [ib.index(x) for x in batch + summed + free_b],
                      right).reshape(-1, cs, fb),
            positions(out_shape, [io.index(x) for x in order], dest).ravel(),
            out_shape)


def _scatter_add(at: np.ndarray, values: np.ndarray, shape: tuple):
    """Zeros of ``shape`` with ``out.flat[at[i]] += values[i]`` for each i
    in turn: ``np.bincount``, which adds in order (twice when complex).
    ``at`` reaches every position of ``shape``, or the reshape refuses."""
    if values.dtype.kind == "c":
        return (_scatter_add(at, values.real, shape)
                + 1j * _scatter_add(at, values.imag, shape))
    return np.bincount(at, values).reshape(shape)


def _contract(a, sa: str, b, sb, so: str, k: str, p: str):
    """One step of ``einsum``: ``sa,sb->so``; ``k`` and ``p`` name the
    coefficient and product-pair axes."""

    def np_einsum(spec, *ops):
        return np.einsum(spec.replace("*", "..."), *ops)

    a_jet, b_jet = isinstance(a, Jet), isinstance(b, Jet)
    if a_jet and b_jet:
        if a.n != b.n:
            raise ValueError(f"jet variable counts differ: {a.n} vs {b.n}")
        plan = _pair_plan(sa, sb, so, a.c.shape, b.c.shape, a.n)
        if plan is None:
            ac, bc = _common(a.c, b.c)
            left, right, _, starts = _mul_table(a.n, _order_of(a.n, ac))
            pairs = np_einsum(f"{sa}{p},{sb}{p}->{so}{p}",
                              ac.take(left, axis=-1), bc.take(right, axis=-1))
            return Jet._wrap(a.n, np.add.reduceat(pairs, starts, axis=-1))
        at_a, at_b, at_out, shape = plan
        pairs = np.matmul(a.c.take(at_a), b.c.take(at_b))
        return Jet._wrap(a.n, _scatter_add(at_out, pairs.ravel(), shape))
    if a_jet:
        return Jet._wrap(a.n, np_einsum(f"{sa}{k},{sb}->{so}{k}", a.c, b))
    if b_jet:
        return Jet._wrap(b.n, np_einsum(f"{sa},{sb}{k}->{so}{k}", a, b.c))
    return np_einsum(f"{sa},{sb}->{so}", a, b)


def seed_variable(i: int, value: float, n: int) -> Jet:
    """Jet of the i-th coordinate function at the given value."""
    if not 0 <= i < n:
        raise IndexError(f"variable index {i} out of range for n={n}")
    out = Jet.constant(float(value), n)
    out.c[1 + i] = 1.0  # graded-lex order stores u^i at position 1 + i
    return out


def seed_point(x) -> Jet:
    """Seed every component of a point as its own jet variable: a jet of
    shape ``(n,)`` whose entry i is the i-th coordinate function."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    out = Jet.constant(x, n)
    out.c[:, 1:n + 1] += np.eye(n)
    return out


def project_head(jet: Jet, n_keep: int) -> Jet:
    """Restrict to the first ``n_keep`` variables, setting the rest to zero."""
    if n_keep > jet.n:
        raise ValueError("cannot keep more variables than the jet has")
    src, dst = _project_table(jet.n, n_keep)
    out = Jet.constant(np.zeros(jet.shape), n_keep)
    out.c[..., dst] = jet.c[..., src]
    return out


def jet_matrix_inverse(mat: Jet, checked_value=None) -> Jet:
    """Inverse of a square matrix of jets by the truncated Neumann series.

    With G0 the value matrix and E = G - G0 its nilpotent part (no constant
    term, so E^(k+1) = 0 at order k), the inverse is exactly
    (G0 + E)^-1 = sum_{j<=k} (-G0^-1 E)^j G0^-1, summed only through the
    matrix's own order k.  Raises
    ``ZeroDivisionError`` when G0 is singular.  A caller that has already
    checked G0's smallest singular value against ``DIVISION_FLOOR`` passes
    G0 as ``checked_value``, and the check is not repeated.
    """
    d = mat.shape[0] if mat.ndim else 0
    if mat.shape != (d, d):
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    g0 = checked_value
    if g0 is None:
        g0 = jet_values(mat)
        if not np.linalg.svd(g0, compute_uv=False).min() >= DIVISION_FLOOR:
            raise ZeroDivisionError("jet matrix is singular at this point")
    inv0 = np.linalg.inv(g0)
    step = einsum("ij,jk->ik", -inv0, mat - g0)  # -G0^-1 E
    eye = np.eye(d)
    series = step + eye
    for _ in range(mat.order - 1):
        series = einsum("ij,jk->ik", step, series) + eye
    return einsum("ij,jk->ik", series, inv0)


def jet_values(arr: Jet) -> np.ndarray:
    """Degree-zero coefficients of a jet array."""
    return arr.c[..., 0].copy()


def jet_gradient(arr: Jet) -> np.ndarray:
    """First partials of a jet array, indexed ``[i, *arr.shape]``.

    The partial in variable i is the coefficient of u^i, which graded-lex
    order stores at position 1 + i.  Raises ``ValueError`` on an order-0
    jet, which carries no partials.
    """
    if arr.order == 0:
        raise ValueError("an order-0 jet has no gradient")
    return arr.c[..., 1:arr.n + 1].transpose(-1, *range(arr.ndim)).copy()


def jet_partials(arr: Jet) -> Jet:
    """Partial derivatives of a jet array, as jets of one order less,
    indexed ``[i, *arr.shape]``: the jet counterpart of ``jet_gradient``,
    and one gather over the coefficients."""
    c = _partials(arr, slice(None)).transpose(-2, *range(arr.ndim), -1)
    return Jet._wrap(arr.n, c)

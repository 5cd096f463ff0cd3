"""Jet arithmetic: definitions, ring axioms, and oracle agreement."""

import math
import re
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import extract, fd_oracle, jet_sqrt

from kaehlerlab.jets import (
    Jet,
    _pair_plan,
    einsum,
    index_position,
    jet_gradient,
    jet_matrix_inverse,
    jet_partials,
    jet_values,
    multi_indices,
    order_sizes,
    project_head,
    seed_point,
    seed_variable,
    stack,
)


class TestSeeding:
    def test_coordinate_jet_coefficients(self):
        j = seed_variable(0, 2.0, 2)
        pos = index_position(2)
        assert j.c[pos[(0, 0)]] == 2.0
        assert j.c[pos[(1, 0)]] == 1.0
        assert np.count_nonzero(j.c) == 2

    def test_second_variable(self):
        j = seed_variable(1, -1.5, 2)
        pos = index_position(2)
        assert j.c[pos[(0, 0)]] == -1.5
        assert j.c[pos[(0, 1)]] == 1.0
        assert np.count_nonzero(j.c) == 2

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            seed_variable(3, 0.0, 2)

    def test_seed_point(self):
        jets = seed_point([1.0, 2.0, 3.0])
        assert [j.value for j in jets] == [1.0, 2.0, 3.0]


class TestArithmetic:
    def test_square_of_coordinate(self):
        u = seed_variable(0, 1.0, 1)
        sq = u * u
        assert extract(sq, (0,)) == 1.0
        assert extract(sq, (1,)) == 2.0
        assert extract(sq, (2,)) == 2.0
        assert extract(sq, (3,)) == 0.0

    def test_geometric_series_reciprocal(self):
        u = seed_variable(0, 0.0, 1)
        inv = Jet.constant(1.0, 1) / (Jet.constant(1.0, 1) + u)
        assert extract(inv, (0,)) == 1.0
        assert extract(inv, (1,)) == -1.0
        assert extract(inv, (2,)) == 2.0
        assert extract(inv, (3,)) == -6.0

    def test_additive_inverse(self):
        x = seed_variable(0, 0.7, 2)
        zero = x + (-x)
        assert np.all(zero.c == 0.0)

    def test_scalar_operations(self):
        x = seed_variable(0, 2.0, 1)
        assert (3.0 * x).value == 6.0
        assert (x / 2.0).value == 1.0
        assert (1.0 - x).value == -1.0

    def test_division_floor(self):
        with pytest.raises(ZeroDivisionError):
            Jet.constant(0.0, 1).reciprocal()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            seed_variable(0, 1.0, 1) + seed_variable(0, 1.0, 2)

    def test_sqrt_matches_square(self):
        x = seed_variable(0, 0.3, 2)
        y = seed_variable(1, -0.2, 2)
        f = 2.0 + x * y + x * x
        root = jet_sqrt(f)
        assert np.allclose((root * root).c, f.c, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 4, 6])
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_series_match_jet_operators_bit_for_bit(self, n, order):
        # The reciprocal and the square root run their series on coefficient
        # arrays; the same series written with the jet operators is the
        # reference, to the last bit.
        def operator_series(jet, coefs):
            e = Jet(jet.n, jet.c / jet.c[..., :1])
            e.c[..., 0] = 0.0
            series, power = e * coefs[1] + coefs[0], e
            for coef in coefs[2:jet.order + 1]:
                power = power * e
                series = series + power * coef
            return series

        rng = np.random.default_rng(61)
        c = rng.normal(size=(2, 3, order_sizes(n)[order]))
        c[..., 0] = rng.uniform(0.5, 3.0, (2, 3))
        jet = Jet(n, c)
        recip = operator_series(jet, (1.0, -1.0, 1.0, -1.0)) * (1.0 / c[..., 0])
        root = operator_series(jet, (1.0, 0.5, -0.125, 0.0625)) * np.sqrt(
            c[..., 0])
        rroot = operator_series(jet, (1.0, -0.5, 0.375, -0.3125)) * (
            1.0 / np.sqrt(c[..., 0]))
        assert np.array_equal(jet.reciprocal().c, recip.c)
        assert np.array_equal(jet_sqrt(jet).c, root.c)
        assert np.array_equal(jet.rsqrt().c, rroot.c)

    def test_rsqrt_refuses_what_sqrt_refuses(self):
        for bad in (seed_variable(0, 0.0, 1), seed_variable(0, -1.0, 2)):
            with pytest.raises(ValueError, match="rsqrt"):
                bad.rsqrt()
        with pytest.raises(TypeError, match="rsqrt"):
            Jet.constant(4.0 + 0j, 1).rsqrt()


class TestExtract:
    def test_third_derivative_of_cubic(self):
        u = seed_variable(0, 1.0, 1)
        cube = u * u * u
        assert extract(cube, (3,)) == 6.0

    def test_mixed_partial(self):
        x = seed_variable(0, 1.0, 2)
        y = seed_variable(1, 1.0, 2)
        assert extract(x * y, (1, 1)) == 1.0

    def test_degree_bound(self):
        u = seed_variable(0, 1.0, 1)
        with pytest.raises(ValueError):
            extract(u, (4,))


small_ints = st.integers(min_value=-4, max_value=4)


def jet_strategy(n):
    size = len(multi_indices(n))
    return st.lists(small_ints, min_size=size, max_size=size).map(
        lambda cs: Jet(n, np.array(cs, dtype=float))
    )


class TestRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(jet_strategy(2), jet_strategy(2), jet_strategy(2))
    def test_mul_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=60, deadline=None)
    @given(jet_strategy(2), jet_strategy(2))
    def test_mul_commutative(self, a, b):
        assert a * b == b * a

    @settings(max_examples=60, deadline=None)
    @given(jet_strategy(2), jet_strategy(2), jet_strategy(2))
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60, deadline=None)
    @given(jet_strategy(2))
    def test_additive_identity(self, a):
        assert a + Jet(2) == a


class TestCalculus:
    def test_derivative_of_product(self):
        x = seed_variable(0, 0.4, 2)
        y = seed_variable(1, -0.3, 2)
        f = x * x * y
        df = f.derivative(0)
        assert df.value == pytest.approx(2 * 0.4 * -0.3)
        assert df.derivative(1).value == pytest.approx(2 * 0.4)

    def test_chain_rule_consistency(self):
        # Jet of a composition equals the composition of jets for a rational
        # catalog-style map.
        x = seed_variable(0, 0.5, 1)
        inner = x * x + 1.0
        composed = inner.reciprocal()

        def f(u):
            return 1.0 / (u * u + 1.0)

        for k in range(4):
            alpha = (k,)
            h = 1e-2 if k == 3 else 1e-3
            tol = 1e-3 if k == 3 else 1e-5
            assert extract(composed, alpha) == pytest.approx(
                fd_oracle(f, [0.5], alpha, h), rel=tol, abs=tol
            )

    @pytest.mark.parametrize("n", [2, 4])
    def test_gradient_of_array(self, n):
        rng = np.random.default_rng(n)
        size = len(multi_indices(n))
        # The same draws, in the same order, as one jet per entry.
        arr = Jet(n, rng.normal(size=(2, 3, size)))
        grad = jet_gradient(arr)
        assert grad.shape == (n, 2, 3)
        for i in range(n):
            e_i = tuple(int(k == i) for k in range(n))
            for idx in np.ndindex(arr.shape):
                assert grad[(i,) + idx] == arr[idx].derivative(i).value
                assert grad[(i,) + idx] == extract(arr[idx], e_i)
        assert np.array_equal(
            jet_values(arr), [[j.value for j in row] for row in arr]
        )
        partials = jet_partials(arr)
        assert partials.shape == (n, 2, 3)
        for i in range(n):
            for idx in np.ndindex(arr.shape):
                assert partials[(i,) + idx] == arr[idx].derivative(i)

    def test_project_head_drops_tail_variables(self):
        # Keeping the first two variables of a jet seeded at z = 0 gives the
        # jet of the same function restricted to z = 0.
        def f(x, y):
            return x * y + x * x * y

        x3, y3, z3 = (seed_variable(i, v, 3) for i, v in
                      enumerate([0.5, 0.25, 0.0]))
        full = f(x3 + z3, y3) + z3 * x3
        back = project_head(full, 2)
        assert back.n == 2
        assert back == f(seed_variable(0, 0.5, 2), seed_variable(1, 0.25, 2))
        assert project_head(full, 3) == full

    def test_project_rejects_growth(self):
        with pytest.raises(ValueError):
            project_head(seed_variable(0, 1.0, 2), 3)


class TestFdOracle:
    def test_cubic_third_derivative(self):
        got = fd_oracle(lambda u: u ** 3, [1.0], (3,), 1e-2)
        assert got == pytest.approx(6.0, abs=1e-6)

    def test_rational_second_derivative(self):
        jet = seed_point([0.5])[0]
        jet = (1.0 + jet * jet).reciprocal()
        got = fd_oracle(lambda u: 1.0 / (1.0 + u * u), [0.5], (2,), 1e-3)
        assert got == pytest.approx(extract(jet, (2,)), abs=1e-5)

    def test_constant_derivative(self):
        got = fd_oracle(lambda u: 4.0, [2.0], (1,), 1e-3)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            fd_oracle(lambda u: u, [0.0], (1,), 0.0)


class TestComplexCoefficients:
    """Jets over C: z = x + i y with x, y seeded real variables."""

    @staticmethod
    def _z(u):
        x, y = seed_point(u)
        return x + 1j * y

    def test_field_operations(self):
        z = self._z([0.3, -0.4])
        w = z * z / z
        assert w.c.dtype == complex
        assert w.value == pytest.approx(0.3 - 0.4j)
        assert np.allclose(w.c, z.c)

    def test_matches_python_complex(self):
        def chart(z):
            return z * z * z + 2.0 * z + 1j * z + 1.0 / (z * z + 1.0)

        u = [0.7, -0.2]
        got = chart(self._z(u))
        want = chart(complex(*u))
        assert isinstance(got.value, complex)
        assert got.value == pytest.approx(want)

    def test_holomorphic_derivatives(self):
        # For holomorphic f, d/dx f = f'(z) and d/dy f = i f'(z).
        u = [0.7, -0.2]
        z0 = complex(*u)
        got = 1.0 / (self._z(u) * self._z(u) + 1.0)
        want = -2.0 * z0 / (z0 * z0 + 1.0) ** 2
        assert extract(got, (1, 0)) == pytest.approx(want)
        assert extract(got, (0, 1)) == pytest.approx(1j * want)

    def test_constructor_and_constant_keep_complex(self):
        c = np.arange(3) * (1.0 + 2.0j)
        assert Jet(1, c).c.dtype == complex
        assert np.array_equal(Jet(1, c).c, c)
        assert Jet.constant(2j, 1).value == 2j
        assert Jet.constant(2, 1).c.dtype == float
        assert Jet(1, [1, 2, 3, 4]).c.dtype == float

    def test_rsqrt_refuses_complex(self):
        with pytest.raises(TypeError, match="rsqrt"):
            self._z([1.0, 0.0]).rsqrt()


class TestMatrixInverse:
    def test_inverse_of_jet_metric(self):
        x = seed_variable(0, 0.2, 2)
        y = seed_variable(1, 0.1, 2)
        one = Jet.constant(1.0, 2)
        mat = stack([stack([2.0 + x * x, x * y]), stack([x * y, one + y * y])])
        inv = jet_matrix_inverse(mat)
        for i in range(2):
            for j in range(2):
                acc = mat[i, 0] * inv[0, j] + mat[i, 1] * inv[1, j]
                target = 1.0 if i == j else 0.0
                assert acc.value == pytest.approx(target, abs=1e-13)

    def test_checked_value_gives_the_same_inverse(self):
        x = seed_variable(0, 0.2, 2)
        y = seed_variable(1, 0.1, 2)
        mat = stack([stack([2.0 + x * x, x * y]), stack([x * y, 1.0 + y * y])])
        checked = jet_matrix_inverse(mat, checked_value=jet_values(mat))
        assert checked == jet_matrix_inverse(mat)

    def test_singular_matrix(self):
        zero = Jet(1)
        with pytest.raises(ZeroDivisionError):
            jet_matrix_inverse(stack([stack([zero])]))


# -- independent oracle: truncated polynomials as dicts of exponent tuples --


def _poly(c, n):
    """Polynomial {exponent tuple: coefficient} of one jet's coefficients."""
    return {a: float(x) for a, x in zip(multi_indices(n), c) if x != 0.0}


def _poly_mul(p, q):
    out = {}
    for a, x in p.items():
        for b, y in q.items():
            s = tuple(i + j for i, j in zip(a, b))
            if sum(s) <= 3:
                out[s] = out.get(s, 0.0) + x * y
    return out


def _poly_add(p, q):
    out = dict(p)
    for a, y in q.items():
        out[a] = out.get(a, 0.0) + y
    return out


def _coeffs(p, n):
    return np.array([p.get(a, 0.0) for a in multi_indices(n)])


def _poly_reciprocal(p, n):
    """1/p = (1/p0) sum_k (-e)^k with e = p/p0 - 1, through degree 3."""
    zero = (0,) * n
    p0 = p[zero]
    e = {a: -x / p0 for a, x in p.items() if a != zero}  # -e
    out, term = {zero: 1.0}, {zero: 1.0}
    for _ in range(3):
        term = _poly_mul(term, e)
        out = _poly_add(out, term)
    return {a: x / p0 for a, x in out.items()}


def _poly_derivative(p, i):
    out = {}
    for a, x in p.items():
        if a[i]:
            lower = list(a)
            lower[i] -= 1
            out[tuple(lower)] = a[i] * x
    return out


def _entry(op, idx, n):
    """Polynomial of one entry of a Jet or float operand."""
    if isinstance(op, Jet):
        return _poly(op.c[idx], n)
    return {(0,) * n: float(op[idx])}


def _jets(draw, n, shape, lo=-4, hi=4):
    size = len(multi_indices(n))
    coeffs = draw(st.lists(st.integers(lo, hi), min_size=size * math.prod(shape),
                           max_size=size * math.prod(shape)))
    return Jet(n, np.array(coeffs, dtype=float).reshape(*shape, size))


@st.composite
def _broadcast_pair(draw):
    n = draw(st.sampled_from([2, 4]))
    shapes = draw(hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3,
                                                    max_side=3))
    a, b = (_jets(draw, n, s) for s in shapes.input_shapes)
    return n, a, b, shapes.result_shape


def _broadcast_index(idx, shape):
    idx = idx[len(idx) - len(shape):] if shape else ()
    return tuple(0 if s == 1 else i for i, s in zip(idx, shape))


class TestOracle:
    @settings(max_examples=40, deadline=None)
    @given(_broadcast_pair())
    def test_broadcast_product(self, case):
        n, a, b, shape = case
        got = a * b
        assert got.shape == shape
        for idx in np.ndindex(shape):
            want = _poly_mul(_poly(a.c[_broadcast_index(idx, a.shape)], n),
                             _poly(b.c[_broadcast_index(idx, b.shape)], n))
            assert np.array_equal(got.c[idx], _coeffs(want, n))

    @settings(max_examples=40, deadline=None)
    @given(_broadcast_pair())
    def test_broadcast_quotient(self, case):
        n, a, b, shape = case
        b = b + Jet.constant(np.where(b.value >= 0, 6.0, -6.0), n)
        got = a / b
        assert got.shape == shape
        for idx in np.ndindex(shape):
            want = _poly_mul(
                _poly(a.c[_broadcast_index(idx, a.shape)], n),
                _poly_reciprocal(_poly(b.c[_broadcast_index(idx, b.shape)], n),
                                 n))
            assert np.allclose(got.c[idx], _coeffs(want, n), rtol=1e-12,
                               atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 4]).flatmap(
        lambda n: st.tuples(st.just(n), hnp.array_shapes(min_dims=0, max_dims=2,
                                                         max_side=3))),
        st.data())
    def test_reciprocal_sqrt_derivative(self, n_shape, data):
        n, shape = n_shape
        a = _jets(data.draw, n, shape)
        a = a + Jet.constant(np.abs(a.value) + 5.0, n)  # value in [5, 13]
        inv, root = a.reciprocal(), jet_sqrt(a)
        partials = jet_partials(a)
        assert partials.shape == (n,) + shape
        assert partials.order == 2
        second = order_sizes(n)[2]  # a derivative drops the top degree
        for idx in np.ndindex(shape):
            p = _poly(a.c[idx], n)
            assert np.allclose(inv.c[idx], _coeffs(_poly_reciprocal(p, n), n),
                               rtol=1e-12, atol=1e-13)
            # The square root with a positive value is the unique one.
            square = _poly_mul(_poly(root.c[idx], n), _poly(root.c[idx], n))
            assert root.c[idx][0] > 0
            assert np.allclose(_coeffs(square, n), a.c[idx], atol=1e-12)
            for i in range(n):
                want = _coeffs(_poly_derivative(p, i), n)[:second]
                assert a[idx].derivative(i).order == 2
                assert np.array_equal(a[idx].derivative(i).c, want)
                assert np.array_equal(partials.c[(i,) + idx], want)

    # One spec per step class of the lowering to a batched matmul (a batch
    # index kept; batch, contracted and free indices mixed; a pure outer
    # product; ``...``), and a repeated index, which falls back to
    # ``np.einsum``, each with operand shapes that take that class.
    _STEPS = {
        "ij,ij->ij": ((2, 3), (2, 3)),
        "ikA,jlA->ijkl": ((2, 3, 4), (2, 3, 4)),
        "i,j->ij": ((2,), (3,)),
        "...A,AB->...B": ((2, 3, 4), (4, 2)),
        "ii,i->i": ((3, 3), (3,)),
    }

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(["ij,jk->ik", "ijk,kj->ji", "ij,jk,kl->li",
                            "i,ij,j->", "ij,ik,il->jkl", *_STEPS]),
           st.sampled_from([2, 4]), st.data())
    def test_einsum(self, spec, n, data):
        # ``...`` stands for 0 to 2 letters of the oracle's own.
        ellipsis = "xy"[:data.draw(st.integers(0, 2))]
        ins, out = spec.replace("...", ellipsis).split("->")
        subs = ins.split(",")
        dims = {ch: data.draw(st.integers(1, 3))
                for ch in sorted(set(ins) - {","})}
        operands = []
        for sub in subs:
            shape = tuple(dims[ch] for ch in sub)
            if data.draw(st.booleans()):
                operands.append(_jets(data.draw, n, shape))
            else:
                values = data.draw(st.lists(st.integers(-4, 4),
                                            min_size=math.prod(shape),
                                            max_size=math.prod(shape)))
                operands.append(np.array(values, float).reshape(shape))
        got = einsum(spec, *operands)
        if not any(isinstance(op, Jet) for op in operands):
            assert np.array_equal(got, np.einsum(spec, *operands))
            return
        letters = sorted(dims)
        want = {}
        for values in np.ndindex(*(dims[ch] for ch in letters)):
            at = dict(zip(letters, values))
            term = {(0,) * n: 1.0}
            for op, sub in zip(operands, subs):
                term = _poly_mul(term, _entry(op, tuple(at[ch] for ch in sub), n))
            key = tuple(at[ch] for ch in out)
            want[key] = _poly_add(want.get(key, {}), term)
        assert got.shape == tuple(dims[ch] for ch in out)
        for key, poly in want.items():
            assert np.array_equal(got.c[key], _coeffs(poly, n))

    @pytest.mark.parametrize("spec", _STEPS)
    def test_lowering_classes(self, spec):
        # Two jets run as one batched matmul, except at a repeated index.
        ins, out = spec.replace("...", "*").split("->")
        n = 2
        shapes = (shape + (order_sizes(n)[3],) for shape in self._STEPS[spec])
        plan = _pair_plan(*ins.split(","), out, *shapes, n)
        assert (plan is None) == (spec == "ii,i->i")

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([2, 4]), st.integers(1, 3), st.data())
    def test_neumann_inverse(self, n, d, data):
        mat = _jets(data.draw, n, (d, d)) + Jet.constant(10.0 * np.eye(d), n)
        inv = jet_matrix_inverse(mat)
        for i in range(d):
            for j in range(d):
                acc = {}
                for k in range(d):
                    acc = _poly_add(acc, _poly_mul(_poly(mat.c[i, k], n),
                                                   _poly(inv.c[k, j], n)))
                want = {(0,) * n: float(i == j)}
                assert np.allclose(_coeffs(acc, n), _coeffs(want, n),
                                   atol=1e-12)

    def test_partials_against_finite_differences(self):
        # The jet of a rational map and its partials, as jets, against the
        # finite-difference oracle for every first and second partial.
        def f(p):
            x, y = p
            return (x * x * y + 1.0) / (2.0 + x * x + y * y)

        u = np.array([0.3, -0.4])
        x, y = seed_point(u)
        jet = (x * x * y + 1.0) / (2.0 + x * x + y * y)
        partials = jet_partials(jet)
        for i in range(2):
            for alpha in multi_indices(2):
                if sum(alpha) > 1:
                    continue
                raised = tuple(a + (k == i) for k, a in enumerate(alpha))
                want = fd_oracle(f, u, raised, 1e-3)
                assert extract(partials[i], alpha) == pytest.approx(
                    want, abs=1e-5)


# -- order-aware jets: mixed orders truncate to the lower one --------------

_ORDERS = st.integers(0, 3)


def _float_jets(draw, n, shape):
    """Order-3 jets with float coefficients in [-4, 4], so that products
    round and bit-for-bit comparisons see the order of operations."""
    size = len(multi_indices(n))
    return Jet(n, draw(hnp.arrays(float, tuple(shape) + (size,),
                                  elements=st.floats(-4, 4, width=64))))


@st.composite
def _mixed_pair(draw):
    """Two broadcastable order-3 jet arrays and the orders to cut them to."""
    n = draw(st.sampled_from([2, 4]))
    shapes = draw(hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3,
                                                    max_side=3))
    a, b = (_float_jets(draw, n, s) for s in shapes.input_shapes)
    return n, a, b, draw(_ORDERS), draw(_ORDERS)


_BINARY = {
    "+": lambda x, y: x + y,
    "-": lambda x, y: x - y,
    "*": lambda x, y: x * y,
    "/": lambda x, y: x / y,
}


class TestOrders:
    def test_order_is_coefficient_count(self):
        for n in (1, 2, 4):
            jet = seed_variable(0, 0.5, n)
            assert jet.order == 3
            assert len(jet.c) == math.comb(n + 3, 3)
            for k in range(4):
                cut = jet.truncate(k)
                assert cut.order == k
                assert len(cut.c) == math.comb(n + k, k)
                assert np.array_equal(cut.c, jet.c[:len(cut.c)])

    @settings(max_examples=60, deadline=None)
    @given(_mixed_pair(), st.sampled_from(sorted(_BINARY)))
    def test_binary_ops_truncate_to_lower_order(self, case, op):
        n, a, b, p, q = case
        if op == "/":
            b = b + Jet.constant(np.where(b.value >= 0, 6.0, -6.0), n)
        got = _BINARY[op](a.truncate(p), b.truncate(q))
        assert got.order == min(p, q)
        assert got == _BINARY[op](a, b).truncate(min(p, q))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["ij,jk->ik", "ijk,kj->ji", "ij,jk,kl->li",
                            "i,ij,j->", "ij,ik,il->jkl"]),
           st.sampled_from([2, 4]), st.data())
    def test_einsum_truncates_to_lowest_order(self, spec, n, data):
        ins = spec.split("->")[0]
        dims = {ch: data.draw(st.integers(1, 3))
                for ch in sorted(set(ins) - {","})}
        full, orders = [], []
        for sub in ins.split(","):
            full.append(_float_jets(data.draw, n, [dims[ch] for ch in sub]))
            orders.append(data.draw(_ORDERS))
        got = einsum(spec, *(j.truncate(k) for j, k in zip(full, orders)))
        assert got.order == min(orders)
        assert got == einsum(spec, *full).truncate(min(orders))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 4]), st.lists(_ORDERS, min_size=1, max_size=4),
           st.integers(0, 2), st.data())
    def test_stack_takes_lowest_order(self, n, orders, ndim, data):
        shape = data.draw(hnp.array_shapes(min_dims=ndim, max_dims=ndim,
                                           max_side=3))
        full = [_float_jets(data.draw, n, shape) for _ in orders]
        axis = data.draw(st.integers(-ndim - 1, ndim))
        got = stack([j.truncate(k) for j, k in zip(full, orders)], axis=axis)
        assert got.order == min(orders)
        assert got == stack(full, axis=axis).truncate(min(orders))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 4]), _ORDERS.filter(bool),
           hnp.array_shapes(min_dims=0, max_dims=2, max_side=3), st.data())
    def test_derivative_drops_one_order(self, n, p, shape, data):
        a = _float_jets(data.draw, n, shape).truncate(p)
        partials = jet_partials(a)
        assert partials.order == p - 1
        size = order_sizes(n)[p - 1]
        for idx in np.ndindex(shape):
            for i in range(n):
                # The order-(p - 1) prefix of the zero-padded derivative.
                want = _coeffs(_poly_derivative(_poly(a.c[idx], n), i),
                               n)[:size]
                got = a[idx].derivative(i)
                assert got.order == p - 1
                assert np.array_equal(got.c, want)
                assert np.array_equal(partials.c[(i,) + idx], want)


    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 4]), st.integers(1, 3), st.data())
    def test_series_stop_at_the_jets_order(self, n, d, data):
        # The reciprocal, the square root, the inverse square root and the
        # matrix inverse form only the terms their order holds.  The terms
        # left out are exactly 0, so the results at orders 1 and 2 are the
        # order-3 results truncated, bit for bit.
        mat = _float_jets(data.draw, n, (d, d)) + 10.0 * np.eye(d)
        pos = _float_jets(data.draw, n, (d,))
        pos.c[..., 0] = np.abs(pos.c[..., 0]) + 0.5
        for op in (jet_matrix_inverse, Jet.reciprocal, jet_sqrt, Jet.rsqrt):
            arg = mat if op is jet_matrix_inverse else pos
            full = op(arg)
            for k in (1, 2):
                got = op(arg.truncate(k))
                assert got.order == k
                assert np.array_equal(got.c, full.truncate(k).c)


class TestOrderErrors:
    @pytest.mark.parametrize("op", [
        jet_gradient,
        lambda j: j.derivative(0),
        jet_partials,
    ], ids=["jet_gradient", "derivative", "jet_partials"])
    def test_order_zero_has_no_derivatives(self, op):
        constant = Jet.constant(np.ones((2, 3)), 2).truncate(0)
        with pytest.raises(ValueError, match="order-0"):
            op(constant)

    def test_extract_above_order(self):
        jet = seed_variable(0, 0.5, 2).truncate(1)
        assert extract(jet, (1, 0)) == 1.0
        with pytest.raises(ValueError, match="order 1"):
            extract(jet, (1, 1))

    def test_coefficient_count_of_no_order(self):
        # n = 2 has orders of 1, 3, 6 and 10 coefficients.
        for size in (0, 2, 4, 11):
            with pytest.raises(ValueError, match="coefficients"):
                Jet(2, np.zeros(size))

    def test_truncate_cannot_raise_order(self):
        with pytest.raises(ValueError, match="order-1"):
            seed_variable(0, 0.5, 2).truncate(1).truncate(2)


# -- the pair step of einsum against a naive polynomial product --------------

_SRC = Path(__file__).resolve().parents[1] / "src" / "kaehlerlab"
#: Every spec the package passes to ``jets.einsum`` (not ``np.einsum``).
_SCANNED = {
    spec for path in _SRC.glob("*.py")
    for spec in re.findall(r'(?<![\w.])einsum\(\s*"([^"]+)"',
                           path.read_text())}
#: ``Metric.lower``'s "...A,AB->...B" as the contractions it runs on a
#: curved ambient: a vector, the rows T and N, the form b_vec, and the
#: metric pairing <U, V> that lowering U and "A,A->" fold to.
_LOWERED = ("A,AB->B", "iA,AB->iB", "aA,AB->aB", "ijA,AB->ijB", "A,AB,B->")
PACKAGE_SPECS = sorted(_SCANNED - {"...A,AB->...B"} | set(_LOWERED))


@lru_cache(maxsize=None)
def _naive_product(n, order):
    """M[k, i, j] = 1 where monomial i times monomial j is monomial k, over
    the order-``order`` monomials, found by adding exponents."""
    monomials = multi_indices(n)[:math.comb(n + order, order)]
    where = {alpha: k for k, alpha in enumerate(monomials)}
    M = np.zeros((len(monomials),) * 3)
    for i, a in enumerate(monomials):
        for j, b in enumerate(monomials):
            k = where.get(tuple(x + y for x, y in zip(a, b)))
            if k is not None:
                M[k, i, j] = 1.0
    return M


def _naive_einsum(spec, operands):
    """``spec`` on jets as one ``np.einsum`` of their coefficients, each
    product of two polynomials one contraction with ``_naive_product``."""
    n = operands[0].n
    order = min(op.order for op in operands)
    size = math.comb(n + order, order)
    ins, out = spec.split("->")
    free = [ch for ch in "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
            if ch not in spec]
    coef, acc = free[:len(operands)], free[len(operands):]
    terms = [f"{sub}{c}" for sub, c in zip(ins.split(","), coef)]
    tables, last = [], coef[0]
    for c, k in zip(coef[1:], acc):
        terms.append(f"{k}{last}{c}")
        tables.append(_naive_product(n, order))
        last = k
    return np.einsum(",".join(terms) + f"->{out}{last}",
                     *(op.c[..., :size] for op in operands), *tables,
                     optimize=True)


class TestPairStep:
    """The gather, matmul and bincount of ``einsum``'s jet-by-jet step
    against a naive polynomial product, on every spec of the package."""

    def test_specs_found(self):
        assert "...A,AB->...B" in _SCANNED and "A,A->" in PACKAGE_SPECS
        assert "iA,AB->iB" in PACKAGE_SPECS and "A,AB,B->" in PACKAGE_SPECS
        assert len(PACKAGE_SPECS) >= 20

    @pytest.mark.parametrize("broadcast", [False, True],
                             ids=["plain", "ellipsis"])
    @pytest.mark.parametrize("spec", PACKAGE_SPECS)
    def test_matches_naive_product(self, spec, broadcast):
        rng = np.random.default_rng(sum(map(ord, spec)) + broadcast)
        ins, out = spec.split("->")
        subs = ins.split(",")
        if broadcast:
            spec = ",".join("..." + sub for sub in subs) + "->..." + out
        for n in range(1, 7):
            # Sizes 1 to 3 (1 to 2 beside the batch axes, to keep the naive
            # product small).
            dims = {ch: int(rng.integers(1, 3 if broadcast else 4))
                    for ch in ins if ch != ","}
            operands = []
            for k, sub in enumerate(subs):
                # Operand 0 carries the batch axes (3, 2); the others the
                # same, a trailing part or a size-1 axis to broadcast.
                batch = ((3, 2) if k == 0 else
                         [(3, 2), (2,), (), (1, 2)][rng.integers(4)]
                         ) if broadcast else ()
                order = int(rng.integers(0, 4))
                shape = (*batch, *(dims[ch] for ch in sub),
                         math.comb(n + order, order))
                c = rng.uniform(-1, 1, shape)
                if rng.integers(2):
                    c = c + 1j * rng.uniform(-1, 1, shape)
                operands.append(Jet(n, c))
            got = einsum(spec, *operands)
            want = _naive_einsum(spec, operands)
            assert got.order == min(op.order for op in operands)
            assert got.c.shape == want.shape, (spec, n)
            assert np.iscomplexobj(got.c) == np.iscomplexobj(want)
            np.testing.assert_allclose(got.c, want, rtol=1e-12, atol=1e-12,
                                       err_msg=f"{spec}, n={n}")

    def test_plan_cache_keeps_orders_apart(self):
        # One spec and operand shapes at two orders: two plans, each giving
        # the product at its own order.
        rng = np.random.default_rng(5)
        a = Jet(3, rng.uniform(-1, 1, (2, 3, order_sizes(3)[3])))
        b = Jet(3, rng.uniform(-1, 1, (3, 4, order_sizes(3)[3])))
        _pair_plan.cache_clear()
        full = einsum("ij,jk->ik", a, b)
        low = einsum("ij,jk->ik", a.truncate(1), b.truncate(1))
        assert _pair_plan.cache_info().currsize == 2
        assert (full.order, low.order) == (3, 1)
        assert low == full.truncate(1)
        assert einsum("ij,jk->ik", a, b) == full
        np.testing.assert_allclose(
            full.c, _naive_einsum("ij,jk->ik", [a, b]), rtol=1e-13,
            atol=1e-13)

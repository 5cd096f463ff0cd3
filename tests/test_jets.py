"""Jet arithmetic: definitions, ring axioms, and oracle agreement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaehlerlab.jets import (
    ComplexJet,
    Jet,
    extract,
    fd_oracle,
    index_position,
    jet_gradient,
    jet_matrix_inverse,
    jet_partials,
    jet_values,
    multi_indices,
    project_head,
    seed_point,
    seed_variable,
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
        root = f.sqrt()
        assert np.allclose((root * root).c, f.c, atol=1e-14)

    def test_sqrt_requires_positive_constant(self):
        with pytest.raises(ValueError):
            (seed_variable(0, 0.0, 1)).sqrt()


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
        arr = np.empty((2, 3), dtype=object)
        for idx in np.ndindex(arr.shape):
            arr[idx] = Jet(n, rng.normal(size=size))
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


class TestComplexJet:
    def test_field_operations(self):
        x = seed_variable(0, 0.3, 2)
        y = seed_variable(1, -0.4, 2)
        z = ComplexJet(x, y)
        w = z * z / z
        assert w.re.value == pytest.approx(0.3)
        assert w.im.value == pytest.approx(-0.4)
        assert z.abs2().value == pytest.approx(0.25)

    def test_matches_python_complex(self):
        def chart(z):
            return z * z * z + 2.0 * z + 1.0

        u = [0.7, -0.2]
        x = seed_variable(0, u[0], 2)
        y = seed_variable(1, u[1], 2)
        got = chart(ComplexJet(x, y))
        want = chart(complex(*u))
        assert got.re.value == pytest.approx(want.real)
        assert got.im.value == pytest.approx(want.imag)


class TestMatrixInverse:
    def test_inverse_of_jet_metric(self):
        x = seed_variable(0, 0.2, 2)
        y = seed_variable(1, 0.1, 2)
        one = Jet.constant(1.0, 2)
        mat = np.array(
            [[2.0 + x * x, x * y], [x * y, one + y * y]], dtype=object
        )
        inv = jet_matrix_inverse(mat)
        for i in range(2):
            for j in range(2):
                acc = mat[i, 0] * inv[0, j] + mat[i, 1] * inv[1, j]
                target = 1.0 if i == j else 0.0
                assert acc.value == pytest.approx(target, abs=1e-13)

    def test_singular_matrix(self):
        zero = Jet(1)
        with pytest.raises(ZeroDivisionError):
            jet_matrix_inverse(np.array([[zero]], dtype=object))

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import sympy

from fraclat.grassmann import (
    GrassmannElement,
    _bits,
    _interleave_sign,
    _newton_coeffs,
    basis,
    basis_index,
    exp_q,
    exp_q_rows,
    generator_pair_product,
    gr_mul,
    interior_product,
    nd_order,
    norm,
    relabel,
    restrict,
    rows,
    scalar_product,
)
from fraclat.schur import trace_on_subset
from fraclat.structure import _over_lcm


def balanced_keys(n):
    return [
        (i, j)
        for i in range(1 << n)
        for j in range(1 << n)
        if bin(i).count("1") == bin(j).count("1")
    ]


def rand_rational_elem(n, rng, density=0.4):
    coeffs = {}
    for key in balanced_keys(n):
        if rng.random() < density:
            c = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
            if c:
                coeffs[key] = c
    return GrassmannElement(n, coeffs)


def rand_sym(rng, n, complex_=True):
    M = rng.standard_normal((n, n))
    if complex_:
        M = M + 1j * rng.standard_normal((n, n))
    return (M + M.T) / 2


def max_abs_coeff(X):
    return max((abs(complex(v)) for v in X.coeffs.values()), default=0.0)


def test_exp_of_zero_is_unit():
    X = exp_q(np.zeros((4, 4)))
    assert X.coeffs == {(0, 0): 1.0}


def test_exp_single_generator():
    X = exp_q(np.array([[Fraction(5, 7)]], dtype=object))
    assert X.coeffs == {(0, 0): Fraction(1), (1, 1): Fraction(5, 7)}


def test_exp_top_coefficient_magnitude():
    rng = np.random.default_rng(0)
    for _ in range(10):
        Q = rand_sym(rng, 3)
        X = exp_q(Q)
        assert abs(X.top_coefficient) == pytest.approx(abs(np.linalg.det(Q)), rel=1e-10)


def test_full_interior_product_is_determinant():
    rng = np.random.default_rng(1)
    for _ in range(10):
        Q = rand_sym(rng, 4)
        Y = generator_pair_product(4, range(4))
        val = interior_product(Y, exp_q(Q)).unit_coefficient
        assert val == pytest.approx(np.linalg.det(Q), rel=1e-10, abs=1e-12)


def test_norm_identity():
    rng = np.random.default_rng(2)
    for _ in range(100):
        Q = rand_sym(rng, 3)
        lhs = norm(exp_q(Q)) ** 2
        rhs = np.linalg.det(np.eye(3) + Q @ Q.conj().T).real
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_norm_unit_and_unitary():
    assert norm(GrassmannElement.unit(4)) == 1.0
    # symmetric unitary: all characteristic roots are 1, so the norm squared
    # is 2^|F|
    S = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    assert norm(exp_q(S)) ** 2 == pytest.approx(2**3, rel=1e-12)


def test_mul_unit_neutral():
    rng = np.random.default_rng(4)
    X = rand_rational_elem(3, rng)
    assert (gr_mul(X, GrassmannElement.unit(3)) - X).is_zero()


def test_mul_disjoint_pairs_canonical_sign():
    # etabar_0 eta_0 * etabar_1 eta_1 = - etabar_0 etabar_1 eta_0 eta_1
    a = GrassmannElement.from_terms(2, [((0,), (0,), 1)])
    b = GrassmannElement.from_terms(2, [((1,), (1,), 1)])
    prod = gr_mul(a, b)
    assert prod.coeffs == {(3, 3): -1}


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_mul_commutative(seed):
    rng = np.random.default_rng(seed)
    X = rand_rational_elem(4, rng, density=0.25)
    Y = rand_rational_elem(4, rng, density=0.25)
    assert (gr_mul(X, Y) - gr_mul(Y, X)).is_zero()


def test_mul_commutative_exhaustive_on_basis():
    n = 3
    basis = [GrassmannElement(n, {k: 1}) for k in balanced_keys(n)]
    for X in basis:
        for Y in basis:
            assert (gr_mul(X, Y) - gr_mul(Y, X)).is_zero()


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_interior_product_adjoint_exact(seed):
    rng = np.random.default_rng(seed)
    X = rand_rational_elem(3, rng)
    Y = rand_rational_elem(3, rng)
    Z = rand_rational_elem(3, rng)
    assert scalar_product(interior_product(Y, X), Z) == scalar_product(X, gr_mul(Y, Z))


def test_interior_product_unit_identity():
    rng = np.random.default_rng(5)
    X = rand_rational_elem(4, rng)
    assert (interior_product(GrassmannElement.unit(4), X) - X).is_zero()


def test_exp_block_additivity():
    rng = np.random.default_rng(6)
    for _ in range(20):
        Qa = rand_sym(rng, 2)
        Qb = rand_sym(rng, 2)
        Q = np.zeros((4, 4), dtype=complex)
        Q[:2, :2] = Qa
        Q[2:, 2:] = Qb
        lhs = exp_q(Q)
        rhs = gr_mul(relabel(exp_q(Qa), [0, 1], 4), relabel(exp_q(Qb), [2, 3], 4))
        assert max_abs_coeff(lhs - rhs) <= 1e-10


def test_relabel_moves_exp_q_by_its_images():
    # relabel is the morphism of the generator map, so it takes exp_q(Q) to
    # exp_q of Q with row and column x moved to images[x]: the sign of each
    # monomial is checked against minors computed without relabel
    rng = np.random.default_rng(21)
    S = rng.integers(-3, 4, (4, 4))
    Q = S + S.T
    for images, n_out in [([0, 1, 2, 3], 4), ([2, 0, 3, 1], 4), ([3, 2, 1, 0], 4), ([5, 0, 3, 1], 6)]:
        moved = np.zeros((n_out, n_out), dtype=int)
        moved[np.ix_(images, images)] = Q
        assert relabel(exp_q(Q), images, n_out).coeffs == exp_q(moved).coeffs


def test_restrict_full_set_is_identity():
    rng = np.random.default_rng(7)
    X = rand_rational_elem(3, rng)
    assert (restrict(X, [0, 1, 2]) - X).is_zero()


def test_restriction_triple_identities():
    # <R exp, prod> = det Q ; <R exp, 1> = det(Q|dropped) ; R exp = det * exp(trace)
    rng = np.random.default_rng(8)
    for _ in range(20):
        Q = rand_sym(rng, 4)
        keep = [0, 2]
        drop = [1, 3]
        R = restrict(exp_q(Q), keep)
        det_full = np.linalg.det(Q)
        det_drop = np.linalg.det(Q[np.ix_(drop, drop)])
        assert scalar_product(R, generator_pair_product(2, [0, 1])) == pytest.approx(
            det_full, rel=1e-10, abs=1e-12
        )
        assert R.unit_coefficient == pytest.approx(det_drop, rel=1e-10, abs=1e-12)
        if abs(det_drop) > 1e-8:
            E = exp_q(trace_on_subset(Q, keep)).map_coeffs(lambda v: v * det_drop)
            assert max_abs_coeff(R - E) <= 1e-10 * max(1.0, abs(det_drop))


def test_nd_order_nonsingular_is_zero():
    B = np.diag([Fraction(1), Fraction(2), Fraction(1)])
    Q0 = np.diag([Fraction(3), Fraction(1), Fraction(2)])
    assert nd_order(Q0, B, [0]) == 0


def test_nd_order_full_kernel():
    B = np.array(
        [[Fraction(2), Fraction(1), Fraction(0)],
         [Fraction(1), Fraction(3), Fraction(1)],
         [Fraction(0), Fraction(1), Fraction(2)]],
        dtype=object,
    )
    Z = np.array([[Fraction(0)] * 3] * 3, dtype=object)
    assert nd_order(Z, B, []) == 3


def designed_kernel_matrix(rng, n, kernel_vectors):
    """Exact symmetric matrix with the given kernel (integer vectors)."""
    S = rng.integers(-3, 4, (n, n))
    S = S @ S.T + (2 * n) * np.eye(n, dtype=int)
    S = np.array([[Fraction(int(v)) for v in row] for row in S], dtype=object)
    Q = S
    for v in kernel_vectors:
        v = np.array([Fraction(int(x)) for x in v], dtype=object)
        Sv = Q @ v
        vSv = v @ Q @ v
        Q = Q - np.outer(Sv, Sv) / vSv
    return Q


def test_nd_order_designed_kernels():
    rng = np.random.default_rng(9)
    # kernel vector vanishing on F' = {0}
    Q1 = designed_kernel_matrix(rng, 4, [(0, 1, -2, 1)])
    assert nd_order(Q1, np.diag([Fraction(1)] * 4), [0]) == 1
    # two independent kernel vectors vanishing on F' = {0}
    Q2 = designed_kernel_matrix(rng, 5, [(0, 1, -1, 0, 1), (0, 0, 1, -1, 1)])
    assert nd_order(Q2, np.diag([Fraction(1)] * 5), [0]) == 2


def test_nd_order_independent_of_spd_direction():
    rng = np.random.default_rng(10)
    Q0 = designed_kernel_matrix(rng, 4, [(0, 2, -1, 1)])
    for _ in range(5):
        M = rng.integers(-2, 3, (4, 4))
        B = M @ M.T + 8 * np.eye(4, dtype=int)
        B = np.array([[Fraction(int(v)) for v in row] for row in B], dtype=object)
        assert nd_order(Q0, B, [0]) == 1


def test_kernel_vector_not_vanishing_on_subset_does_not_count():
    rng = np.random.default_rng(11)
    Q = designed_kernel_matrix(rng, 4, [(1, 1, 1, 1)])
    assert nd_order(Q, np.diag([Fraction(1)] * 4), [0]) == 0


# -- coefficient rows --------------------------------------------------------------


def test_basis_order_and_index():
    for n in range(5):
        keys = basis(n)
        assert sorted(keys, key=lambda k: (bin(k[0]).count("1"), k)) == list(keys)
        assert set(keys) == set(balanced_keys(n))
        assert keys[0] == (0, 0) and keys[-1] == ((1 << n) - 1,) * 2
        assert all(basis_index(n)[key] == d for d, key in enumerate(keys))
    with pytest.raises(TypeError):
        basis_index(2)[(0, 0)] = 1


def test_rows_round_trip_and_dtype():
    rng = np.random.default_rng(3)
    exact = [rand_rational_elem(3, rng) for _ in range(4)]
    x = rows(exact)
    assert x.dtype == object and x.shape == (4, len(basis(3)))
    assert [GrassmannElement.from_row(3, r).coeffs for r in x] == [X.coeffs for X in exact]
    floats = [X.map_coeffs(float) for X in exact]
    assert rows(floats).dtype == float
    assert rows(floats[:1] + [exact[1].map_coeffs(complex)]).dtype == complex
    with pytest.raises(ValueError):
        rows([GrassmannElement.unit(2), GrassmannElement.unit(3)])


def test_exp_q_rows_matches_per_matrix_minors_bitwise():
    # the batched kernel against the per-point, per-minor determinants it replaces
    rng = np.random.default_rng(4)
    for complex_ in (False, True):
        Q = np.stack([rand_sym(rng, 3, complex_) for _ in range(7)])
        x = exp_q_rows(Q)
        assert x.dtype == (complex if complex_ else float)
        for Qb, row in zip(Q, x):
            want = [1.0] + [
                _interleave_sign(len(_bits(I))) * np.linalg.det(Qb[np.ix_(_bits(I), _bits(J))])
                for I, J in basis(3)[1:]
            ]
            assert row.tolist() == want
            assert GrassmannElement.from_row(3, row) == exp_q(Qb)


def test_exp_q_rows_exact_stack():
    Q = np.array([[[Fraction(1, 2), 3], [3, Fraction(-2, 5)]], [[0, 1], [1, 0]]], dtype=object)
    x = exp_q_rows(Q)
    assert x.dtype == object
    assert [GrassmannElement.from_row(2, r) for r in x] == [exp_q(M) for M in Q]
    assert x[0, -1] == -(Fraction(1, 2) * Fraction(-2, 5) - 9)


def sympy_interpolation(ys, den=1):
    """Independent route: sympy's Lagrange interpolating polynomial through
    (t, ys[t] / den), t = 0..k-1, as ascending Fractions."""
    k, t = len(ys), sympy.Symbol("t")
    values = [sympy.Rational(Fraction(y).numerator, Fraction(y).denominator * den) for y in ys]
    poly = sympy.poly(sympy.interpolating_poly(k, t, list(range(k)), values), t, domain="QQ")
    want = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    return want + [Fraction(0)] * (k - len(want))


def test_newton_coeffs_against_sympy_interpolation():
    # the nodes every caller passes, t = 0..k-1, with small rational values,
    # values of more than 200 digits over and under the bar (cleared to ints
    # over their common denominator, as the callers pass them), and int
    # values over a denominator den > 1
    for k in (1, 2, 5, 9, 40):
        rng, big = np.random.default_rng(5 + k), random.Random(k)
        small = [Fraction(int(rng.integers(-50, 50)), int(rng.integers(1, 9))) for _ in range(k)]
        assert _newton_coeffs(small) == sympy_interpolation(small)
        huge = [Fraction(big.choice((-1, 1)) * big.randrange(10**200, 10**210), big.randrange(10**200, 10**210))
                for _ in range(k)]
        assert all(len(str(abs(y.numerator))) > 200 and len(str(y.denominator)) > 200 for y in huge)
        num, den = _over_lcm(huge)
        assert _newton_coeffs(list(num), den) == sympy_interpolation(huge)
        ints, den = [big.randrange(-10**60, 10**60) for _ in range(k)], 3**40 * 7
        assert _newton_coeffs(ints, den) == sympy_interpolation(ints, den)

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy

from fraclat import grassmann as gr
from fraclat.grassmann import GrassmannElement, _det_exact
from fraclat.operator import assemble, laplacian_base
from fraclat.renorm import (
    RenormContext,
    dirichlet_poly,
    gasket_coords,
    gasket_matrix,
    green_batch,
    green_estimate,
    green_of_phi,
    harmonicity_residual,
    is_g_invariant,
    level_matrix,
    mu_nd_estimate,
    neumann_poly,
    phi,
    phi_rows,
    r_iterate,
    r_map,
    random_siegel_sample,
    rho_n,
    rho_n_vanishing_order,
    siegel_distance,
    siegel_invariance_check,
    t_iterate,
    t_map,
)
from fraclat.schur import trace_on_subset
from fraclat.spectral import spectrum
from fraclat.structure import build_level, builtin_interval


def rational_symmetric(rng, n=3, den=4):
    vals = rng.integers(-6, 7, (n, n))
    M = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            M[i, j] = Fraction(int(vals[min(i, j), max(i, j)]), den)
    return M


def poly_from_coeffs(coeffs):
    lam = sympy.Symbol("lam")
    return sympy.Poly(
        sum(sympy.Rational(c.numerator, c.denominator) * lam**k for k, c in enumerate(coeffs)),
        lam,
    )


def sorted_roots(coeffs):
    P = poly_from_coeffs(coeffs)
    return sorted(float(r) for r in P.real_roots())


# -- Sym^G bases --------------------------------------------------------------


def test_symg_dimensions(gasket_ctx, interval_third):
    assert len(gasket_ctx.symg_basis) == 2
    assert len(RenormContext.build(interval_third).symg_basis) == 3


def test_symg_basis_exactly_invariant(gasket, gasket_ctx):
    for B in gasket_ctx.symg_basis:
        assert is_g_invariant(gasket, B, tol=0.0)


def test_gasket_coordinate_roundtrip():
    u = (Fraction(3, 2), Fraction(-7, 5))
    assert gasket_coords(gasket_matrix(*u)) == u


# -- the matrix map T ----------------------------------------------------------


def test_gasket_t_fixed_point(gasket_ctx):
    Q = gasket_matrix(Fraction(1), Fraction(1))
    assert gasket_coords(t_map(gasket_ctx, Q)) == (Fraction(1), Fraction(1))


def test_gasket_t_closed_form(gasket_ctx):
    rng = np.random.default_rng(0)
    for _ in range(25):
        u0, u1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v0, v1 = gasket_coords(t_map(gasket_ctx, gasket_matrix(u0, u1)))
        assert v0 == pytest.approx(3 * u0 * u1 / (2 * u0 + u1), rel=1e-12)
        assert v1 == pytest.approx(3 * u1 * (u0 + u1) / (5 * u1 + u0), rel=1e-12)


def test_t_pole_raises(gasket_ctx):
    # 2 u0 + u1 = 0 makes the assembled interior block singular
    from fraclat.schur import TracePoleError

    with pytest.raises(TracePoleError):
        t_map(gasket_ctx, gasket_matrix(1.0, -2.0))


def test_t_preserves_invariance(gasket, gasket_ctx):
    rng = np.random.default_rng(1)
    Q = gasket_matrix(*(rng.standard_normal(2) + 1j * rng.standard_normal(2)))
    assert is_g_invariant(gasket, t_map(gasket_ctx, Q), tol=1e-12)


def test_interval_t_closed_form(interval_third):
    ctx = RenormContext.build(interval_third)
    delta = float(Fraction(1, 3) / Fraction(2, 3))
    rng = np.random.default_rng(2)
    for _ in range(25):
        a, d, q = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        TQ = t_map(ctx, np.array([[a, q], [q, d]]))
        den = a + d / delta
        assert TQ[0, 0] == pytest.approx((a * den - q**2 / delta) / den, rel=1e-12)
        assert TQ[1, 1] == pytest.approx(delta * (d * den - q**2) / den, rel=1e-12)
        assert TQ[0, 1] == pytest.approx(-(q**2) / den, rel=1e-12)


def test_t_iterate_equals_level2_trace(gasket, gasket_ctx):
    # T(T Q) computed as the trace of Q_<2> on the level-2 boundary
    rng = np.random.default_rng(3)
    Q = gasket_matrix(*(rng.standard_normal(2) + 1j * rng.standard_normal(2)))
    twice = t_iterate(gasket_ctx, Q, 2)
    lat2 = build_level(gasket, 2)
    Q2 = level_matrix(gasket_ctx, np.asarray(Q, dtype=complex), lat2)
    bsort = sorted(lat2.boundary)
    tr = trace_on_subset(Q2, bsort)
    labels = [lat2.boundary.index(v) for v in bsort]
    direct = np.empty((3, 3), dtype=complex)
    for p in range(3):
        for q_ in range(3):
            direct[labels[p], labels[q_]] = tr[p, q_]
    assert np.max(np.abs(twice - direct)) <= 1e-10 * np.max(np.abs(direct))


# -- the Grassmann map R --------------------------------------------------------


def test_r_unit_pairing_is_interior_determinant(gasket_ctx):
    # <R exp_q(Q), 1> = det((Q_<1>)|interior) = (2/27)(2u0+u1)(u0+5u1)^2
    rng = np.random.default_rng(4)
    for _ in range(10):
        u0 = Fraction(int(rng.integers(-6, 7)), 3)
        u1 = Fraction(int(rng.integers(1, 9)), 2)
        X = gr.exp_q(gasket_matrix(u0, u1))
        got = r_map(gasket_ctx, X).unit_coefficient
        assert got == Fraction(2, 27) * (2 * u0 + u1) * (u0 + 5 * u1) ** 2


def test_r_homogeneity_degree_n(gasket_ctx):
    rng = np.random.default_rng(5)
    Q = np.asarray(gasket_matrix(*(rng.standard_normal(2))), dtype=complex)
    X = gr.exp_q(Q)
    c = 1.7 - 0.4j
    lhs = r_map(gasket_ctx, X.map_coeffs(lambda v: c * v))
    rhs = r_map(gasket_ctx, X).map_coeffs(lambda v: c**3 * v)
    assert max(abs(v) for v in (lhs - rhs).coeffs.values() or [0]) <= 1e-10


def test_interval_r_closed_form(interval_third):
    # the five-coefficient form of R on the interval algebra
    ctx = RenormContext.build(interval_third)
    delta = Fraction(1, 2)
    rng = np.random.default_rng(6)
    for _ in range(10):
        Z, a, d, q, D = (Fraction(int(x), 3) for x in rng.integers(-6, 7, 5))
        X = GrassmannElement(
            2, {(0, 0): Z, (1, 1): a, (2, 2): d, (1, 2): q, (2, 1): q, (3, 3): -D}
        )
        RX = r_map(ctx, X)
        want = {
            (0, 0): delta * (a + d / delta) * Z,
            (1, 1): delta * (a * a + D * Z / delta),
            (2, 2): delta * (d * d + delta * D * Z),
            (1, 2): -delta * q * q,
            (2, 1): -delta * q * q,
            (3, 3): -(delta**2) * (a + d / delta) * D,
        }
        want = {k: v for k, v in want.items() if v != 0}
        assert RX.coeffs == want


@pytest.mark.parametrize("n", [1, 2])
def test_consistency_exact_interval(interval_third, n):
    # R^n(exp_q Q) = C_n det((Q_<n>)|interior) exp_q(T^n Q), exact rationals
    ctx = RenormContext.build(interval_third)
    rng = np.random.default_rng(7)
    for _ in range(3):
        Q = rational_symmetric(rng, n=2)
        lhs = r_iterate(ctx, gr.exp_q(Q), n)
        lat = build_level(interval_third, n)
        Qn = level_matrix(ctx, Q, lat)
        interior = [v for v in range(lat.num_vertices) if v not in lat.boundary]
        det_int = _det_exact([[Qn[i, j] for j in interior] for i in interior])
        rhs = gr.exp_q(t_iterate(ctx, Q, n)).map_coeffs(
            lambda v: ctx.c_constant(n) * det_int * v
        )
        assert (lhs - rhs).is_zero()


@pytest.mark.parametrize("n", [1, 2])
def test_consistency_float_gasket(gasket, gasket_ctx, n):
    rng = np.random.default_rng(8)
    for _ in range(3):
        Q = np.asarray(gasket_matrix(*(rng.standard_normal(2) + 0.3)), dtype=complex)
        lhs = r_iterate(gasket_ctx, gr.exp_q(Q), n)
        lat = build_level(gasket, n)
        Qn = np.asarray(level_matrix(gasket_ctx, Q, lat), dtype=complex)
        interior = [v for v in range(lat.num_vertices) if v not in lat.boundary]
        det_int = np.linalg.det(Qn[np.ix_(interior, interior)])
        rhs = gr.exp_q(t_iterate(gasket_ctx, Q, n)).map_coeffs(
            lambda v: float(gasket_ctx.c_constant(n)) * det_int * v
        )
        scale = max(abs(v) for v in lhs.coeffs.values())
        assert max(abs(v) for v in (lhs - rhs).coeffs.values() or [0]) <= 1e-9 * scale


def test_phi_coordinates(gasket_base):
    # phi(lambda) = exp_q(A - lambda diag(b)); the gasket line in coordinates
    X0 = phi(gasket_base, 0)
    Q0 = gasket_matrix(0, 3)
    assert (X0 - gr.exp_q(Q0)).is_zero()
    lam = Fraction(3, 2)
    Xl = phi(gasket_base, lam)
    Ql = gasket_matrix(-lam, 3 - lam)
    assert (Xl - gr.exp_q(Ql)).is_zero()


# -- spectral polynomials ---------------------------------------------------------


def test_dirichlet_poly_level0_constant(gasket_ctx, gasket_base):
    assert dirichlet_poly(gasket_ctx, gasket_base, 0) == [Fraction(1)]


def test_dirichlet_poly_gasket_n1(gasket_ctx, gasket_base):
    roots = sorted_roots(dirichlet_poly(gasket_ctx, gasket_base, 1))
    assert roots == pytest.approx([1.0, 2.5, 2.5], abs=1e-12)


@pytest.mark.parametrize("n", [1, 2])
def test_poly_roots_weighted_interval(interval_third, n):
    # nonuniform energy weights flow through the exact R-iteration
    ctx = RenormContext.build(interval_third)
    base = laplacian_base(interval_third)
    op = assemble(base, interval_third, build_level(interval_third, n))
    roots = sorted_roots(dirichlet_poly(ctx, base, n))
    pencil = sorted(-spectrum(op, "dirichlet").eigenvalues)
    assert len(roots) == len(pencil)
    assert np.max(np.abs(np.array(roots) - np.array(pencil))) <= 1e-9


@pytest.mark.parametrize("n", [1, 2])
def test_poly_roots_match_eigensolve(gasket_ctx, gasket_base, gasket_levels, n):
    op = gasket_levels.op(n)
    for poly, bc in (
        (dirichlet_poly(gasket_ctx, gasket_base, n), "dirichlet"),
        (neumann_poly(gasket_ctx, gasket_base, n), "neumann"),
    ):
        roots = sorted_roots(poly)
        pencil = sorted(-spectrum(op, bc).eigenvalues)
        assert len(roots) == len(pencil)
        assert np.max(np.abs(np.array(roots) - np.array(pencil))) <= 1e-8


# -- rho and the N-D density -------------------------------------------------------


def test_rho_off_spectrum(gasket_ctx, gasket_base):
    assert rho_n(gasket_ctx, gasket_base, -0.37, 2) == 0


def test_rho_dual_methods_agree(gasket_ctx, gasket_base):
    for lam0, n in ((Fraction(-3), 2), (Fraction(-5, 2), 2), (Fraction(-3), 1)):
        stacked = rho_n(gasket_ctx, gasket_base, float(lam0), n)
        exact = rho_n_vanishing_order(gasket_ctx, gasket_base, lam0, n)
        assert stacked == exact
    assert rho_n(gasket_ctx, gasket_base, -3.0, 2) == 3


def test_mu_nd_estimate_frozen(gasket_ctx, gasket_base):
    m = mu_nd_estimate(gasket_ctx, gasket_base, 3)
    assert m.mass_at(-3.0) == Fraction(12, 27)
    assert m.mass_at(-2.5) == Fraction(4, 27)
    assert m.mass_at(-1.5) == Fraction(3, 27)
    assert m.total_mass == Fraction(21, 27)


# -- Green function ------------------------------------------------------------------


def test_green_rejects_zero(gasket_ctx):
    with pytest.raises(ValueError):
        green_estimate(gasket_ctx, GrassmannElement.zero(3))


@pytest.mark.parametrize("n_max", [0, -1])
def test_green_refuses_fewer_than_one_step(gasket_ctx, gasket_base, n_max):
    # with no R step the estimate is ln||phi||, 3.199 at -1+0.25i where the
    # limit is 2.584, and its tail bound would read 0
    x = phi_rows(gasket_base, [complex(-1, 0.25)])
    with pytest.raises(ValueError, match="n_max"):
        green_batch(gasket_ctx, x, n_max)


def test_green_homogeneity(gasket_ctx):
    rng = np.random.default_rng(9)
    X = gr.exp_q(random_siegel_sample(gasket_ctx, rng))
    c = 2.2 - 1.1j
    gX = green_estimate(gasket_ctx, X, 25)
    gcX = green_estimate(gasket_ctx, X.map_coeffs(lambda v: c * v), 25)
    assert gcX.value - gX.value == pytest.approx(
        math.log(abs(c)), abs=gX.tail_bound + gcX.tail_bound + 1e-12
    )


def test_green_functional_equation(gasket_ctx):
    rng = np.random.default_rng(10)
    X = gr.exp_q(random_siegel_sample(gasket_ctx, rng))
    gX = green_estimate(gasket_ctx, X, 25)
    gRX = green_estimate(gasket_ctx, r_map(gasket_ctx, X), 25)
    assert gRX.value == pytest.approx(
        3 * gX.value, abs=3 * gX.tail_bound + gRX.tail_bound + 1e-10
    )


def test_green_siegel_iteration_never_dies(gasket_ctx):
    rng = np.random.default_rng(11)
    for _ in range(10):
        X = gr.exp_q(random_siegel_sample(gasket_ctx, rng))
        est = green_estimate(gasket_ctx, X, 30)
        assert not est.hit_zero
        assert est.iterations == 30


def test_green_convergence_tail(gasket_ctx, gasket_base):
    est20 = green_of_phi(gasket_ctx, gasket_base, -2.0 + 0.5j, n_max=20)
    est25 = green_of_phi(gasket_ctx, gasket_base, -2.0 + 0.5j, n_max=25)
    assert abs(est25.value - est20.value) <= est20.tail_bound + 1e-14


def test_harmonicity_off_axis(gasket_ctx, gasket_base):
    # fixed-h residual away from the spectral shadow
    for re in np.arange(-6.0, -0.99, 0.5):
        for im in (0.5, -0.5):
            r = harmonicity_residual(gasket_ctx, gasket_base, re, im, 0.05, n_max=18)
            assert r <= 1e-3


def test_harmonicity_h_refinement_over_support():
    # directly above the spectrum the residual is pure discretization error
    # and shrinks like h^2
    from fraclat.structure import builtin_gasket

    spec = builtin_gasket()
    ctx = RenormContext.build(spec)
    base = laplacian_base(spec)
    r1 = harmonicity_residual(ctx, base, 2.5, 0.5, 0.05, n_max=18)
    r2 = harmonicity_residual(ctx, base, 2.5, 0.5, 0.025, n_max=18)
    assert r2 <= 0.35 * r1


# -- Siegel half-space ----------------------------------------------------------------


def test_siegel_distance_zero_and_symmetry(gasket_ctx):
    rng = np.random.default_rng(12)
    Q1 = random_siegel_sample(gasket_ctx, rng)
    Q2 = random_siegel_sample(gasket_ctx, rng)
    assert siegel_distance(Q1, Q1) == pytest.approx(0.0, abs=1e-7)
    assert siegel_distance(Q1, Q2) == pytest.approx(siegel_distance(Q2, Q1), rel=1e-9)


def test_siegel_inversion_isometry(gasket_ctx):
    rng = np.random.default_rng(13)
    iid = 1j * np.eye(3)
    for _ in range(20):
        Q = random_siegel_sample(gasket_ctx, rng)
        d1 = siegel_distance(iid, Q)
        d2 = siegel_distance(iid, -np.linalg.inv(Q))
        assert d1 == pytest.approx(d2, rel=1e-8, abs=1e-9)


def test_siegel_rejects_bad_input(gasket_ctx):
    with pytest.raises(ValueError):
        siegel_distance(np.eye(3), 1j * np.eye(3))


def test_siegel_invariance_checks(gasket_ctx):
    rng = np.random.default_rng(14)
    for _ in range(20):
        Q = random_siegel_sample(gasket_ctx, rng)
        assert siegel_invariance_check(gasket_ctx, Q, n_iter=3).ok


def test_siegel_determinant_bound(gasket_ctx):
    # det(Id + conj(Q) Q) <= 2^|F| exp(2 |F| d(i Id, Q))
    rng = np.random.default_rng(15)
    iid = 1j * np.eye(3)
    for _ in range(30):
        Q = random_siegel_sample(gasket_ctx, rng, scale=float(rng.uniform(0.2, 4.0)))
        lhs = abs(np.linalg.det(np.eye(3) + Q.conj() @ Q))
        rhs = 2**3 * math.exp(2 * 3 * siegel_distance(iid, Q))
        assert lhs <= rhs * (1 + 1e-9)


def test_interval_lift_green_agrees_with_full_green(interval_third):
    # the reduced 3-component lift and the full balanced-algebra iteration
    # compute the same Green value along the spectral line, off the axis
    from fraclat.dynamics import interval_green_estimate, interval_maps, interval_phi_coords

    for spec in (builtin_interval(Fraction(1, 2)), interval_third):
        ctx = RenormContext.build(spec)
        base = laplacian_base(spec)
        m = interval_maps(spec.alpha[0])
        for lam in (0.5 + 0.7j, -1.2 + 0.4j, 2.0 - 0.9j, -3.0 + 1.1j):
            g_full = green_of_phi(ctx, base, lam, n_max=30).value
            g_lift, _ = interval_green_estimate(m, interval_phi_coords(lam), 30)
            assert abs(g_full - g_lift) <= 1e-8

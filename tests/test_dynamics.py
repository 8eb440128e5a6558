import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from sympy import QQ
from sympy.polys.rings import ring

from fraclat import dynamics
from fraclat.dynamics import (
    GASKET_EXCEPTIONAL,
    U0,
    U1,
    V0,
    V1,
    CoefficientBlowup,
    IntervalMaps,
    RationalMap,
    bidegree_sequence,
    compose_reduce_1d,
    conjugates,
    dichotomy_classify,
    dynamical_degree,
    gasket_conjugacy_holds,
    gasket_limit_measure,
    gasket_limit_truncation_deficit,
    gasket_maps,
    growth_check,
    interval_green_estimate,
    interval_maps,
    interval_phi_coords,
    interval_rhat_iterate_symbolic,
    phat_preimage_tree,
    phat_preimages,
)


@pytest.fixture(scope="module")
def gm():
    return gasket_maps()


def test_fixed_points_and_roots(gm):
    assert gm.ghat(0) == 0
    assert gm.phat(Fraction(-5, 2)) == 0
    assert gm.phat(Fraction(-3, 2)) == -3


def test_conjugacy_exact():
    assert gasket_conjugacy_holds()


def test_conjugacy_fails_for_another_change_of_variable(gm):
    c = RationalMap.from_coeffs([0, 2], [1, -1])  # 2z/(1-z)
    assert not conjugates(gm.phat, gm.ghat, c)


def test_ghat_degree_doubling(gm):
    _, degs = compose_reduce_1d(gm.ghat, 5)
    assert degs == [2, 4, 8, 16, 32]


def test_phat_degree_doubling(gm):
    _, degs = compose_reduce_1d(gm.phat, 5)
    assert degs == [2, 4, 8, 16, 32]


def test_identity_degree_one():
    ident = RationalMap.from_coeffs([0, 1], [1])
    assert compose_reduce_1d(ident, 4)[1] == [1, 1, 1, 1]


def test_gasket_degree_matrix(gm):
    assert gm.g.degree_matrix().entries == ((1, 1), (1, 2))


def test_bidegree_sequence_submultiplicative(gm):
    mats = bidegree_sequence(gm.g, 3)
    assert mats[0].entries == ((1, 1), (1, 2))
    d = [np.array(m.entries) for m in mats]
    assert (d[1] <= d[0] @ d[0]).all()
    assert (d[2] <= d[0] @ d[1]).all()
    roots = [m.l_n ** (1.0 / (k + 1)) for k, m in enumerate(mats)]
    assert all(a >= b - 1e-12 for a, b in zip(roots[:-1], roots[1:]))


def test_product_map_block_diagonal_degrees(gm):
    # (ghat acting on the first factor, identity on the second)
    num, den = (
        sum((c * U0**i * V0**j for (i, j), c in p.iterterms()), 0 * U0) for p in gm.ghat.comps[0]
    )
    prod = RationalMap(((num, den), (U1, V1)))
    assert prod.degree_matrix().entries == ((2, 0), (0, 1))


_zw = ring("z w", QQ)[1:]
_adq = ring("a d q", QQ)[1:]


@pytest.mark.parametrize("comps, message", [
    # equal top degrees in block 0 (2 and 2), but u0 v0 + v0 is not homogeneous
    (((U0 * V0 + V0, V0**2), (U1, V1)), "factor 0 not homogeneous in block 0"),
    (((U0, V0), (U1, V1**2)), "factor 1 not homogeneous in block 1"),
    (((_zw[0] * _zw[1] + _zw[1], _zw[1] ** 2),), "factor 0 not homogeneous in block 0"),
    (((_adq[0] ** 2, _adq[1] ** 2, _adq[2]),), "factor 0 not homogeneous in block 0"),
], ids=["p1xp1-block0", "p1xp1-block1", "p1", "p2"])
def test_map_refuses_mixed_degrees(comps, message):
    with pytest.raises(ValueError, match=message):
        RationalMap(comps)


def test_lift_component_form(gm):
    lift = gm.lift
    assert lift[0] == 3 * U0 * U1 * V1
    assert lift[1] == 2 * U0 * V1**2 + V0 * U1 * V1


def test_preimages_depth_zero():
    assert phat_preimages(-1.5, 0) == [-1.5]


def test_preimages_depth_one_closed_form():
    got = phat_preimages(-1.5, 1)
    want = sorted([(-5 + math.sqrt(13)) / 4, (-5 - math.sqrt(13)) / 4])
    assert got == pytest.approx(want, abs=1e-14)
    got = phat_preimages(-2.5, 1)
    want = sorted([(-5 + math.sqrt(5)) / 4, (-5 - math.sqrt(5)) / 4])
    assert got == pytest.approx(want, abs=1e-14)


def test_preimages_counts_and_interval():
    for k in range(5):
        for target in (-1.5, -2.5):
            pts = phat_preimages(target, k)
            assert len(pts) == 2**k
            assert all(-2.5 - 1e-12 <= p <= 0.0 for p in pts)


def test_preimages_rejects_outside_interval():
    with pytest.raises(ValueError):
        phat_preimages(0.5, 1)


@pytest.mark.parametrize("depth", [-1, -3])
def test_preimages_refuse_negative_depth(depth):
    with pytest.raises(ValueError, match="preimage depth must be >= 0"):
        phat_preimages(-1.5, depth)
    with pytest.raises(ValueError, match="preimage depth must be >= 0"):
        phat_preimage_tree(-1.5, depth)
    with pytest.raises(ValueError, match="preimage depth must be >= 0"):
        gasket_limit_measure(depth)


def test_preimage_tree_structure():
    tree = phat_preimage_tree(-1.5, 3)
    assert len(tree) == 1 + 2 + 4 + 8
    for node in tree[1:]:
        parent = tree[node["parent"]]
        assert node["depth"] == parent["depth"] + 1
        # child maps back to parent under phat
        v = node["location"]
        assert v * (5 + 2 * v) == pytest.approx(parent["location"], abs=1e-9)


def test_limit_measure_depth_zero():
    m = gasket_limit_measure(0)
    assert [(loc, mass) for loc, mass in m.atoms] == [
        (-3.0, Fraction(1, 2)),
        (-2.5, Fraction(1, 6)),
        (-1.5, Fraction(1, 6)),
    ]


def test_limit_measure_masses_exact_rationals():
    m = gasket_limit_measure(4)
    for loc, mass in m.atoms:
        assert isinstance(mass, Fraction)
        assert -3.0 - 1e-12 <= float(loc) <= 0.0
    assert m.total_mass + gasket_limit_truncation_deficit(4) == Fraction(3, 2)


def test_limit_measure_atom_count_no_collisions():
    # 1 isolated atom plus 2 * 2^k distinct preimages per depth k: no merging
    for k_max in (3, 5):
        m = gasket_limit_measure(k_max)
        assert len(m.atoms) == 1 + 2 * (2 ** (k_max + 1) - 1)
        depth_masses = {Fraction(1, 2)} | {
            Fraction(1, 2 * 3 ** (k + 1)) for k in range(k_max + 1)
        }
        assert {mass for _, mass in m.atoms} == depth_masses


def test_limit_measure_total_converges():
    totals = [float(gasket_limit_measure(k).total_mass) for k in range(6)]
    assert all(b > a for a, b in zip(totals[:-1], totals[1:]))
    assert abs(totals[-1] - 1.5) == pytest.approx(
        float(gasket_limit_truncation_deficit(5)), rel=1e-12
    )


def test_exceptional_set():
    assert set(GASKET_EXCEPTIONAL) == {-3.0, -1.5, -2.5}


def test_decimation_containment(gasket_levels):
    # phat maps level-(n+1) Dirichlet spectrum into the level-n spectrum,
    # away from the exceptional set
    from fraclat.spectral import spectrum

    for n in (1, 2, 3):
        hi = gasket_levels.dirichlet(n).eigenvalues
        lo = np.concatenate(
            [
                spectrum(gasket_levels.op(n - 1), "neumann").eigenvalues,
                gasket_levels.dirichlet(n - 1).eigenvalues
                if n > 1
                else np.zeros(0),
            ]
        )
        for lam in hi:
            if any(abs(lam - e) <= 1e-9 for e in GASKET_EXCEPTIONAL):
                continue
            image = 2 * lam * lam + 5 * lam
            assert np.min(np.abs(lo - image)) <= 1e-7


def test_interval_maps_formulas():
    m = interval_maps(Fraction(1, 3))
    assert m.delta == Fraction(1, 2)
    nums, den = m.t_coords
    a, d, q = den.ring.gens
    # rhat = p(Q) T(Q) with p = delta (a + d/delta), T = nums / den
    p = QQ(1, 2) * (a + 2 * d)
    for comp, num in zip(m.rhat, nums):
        assert comp * den == p * num


def test_interval_rhat_algebraically_stable():
    m = interval_maps(Fraction(1, 3))
    its = interval_rhat_iterate_symbolic(m, 5)
    assert [d for _, d in its] == [2, 4, 8, 16, 32]


def test_interval_zero_locus_description():
    # The common zeros of the R^n components lie on {q = 0} and on lines
    # weight(left cell) * d + weight(right cell) * a = 0 over adjacent cell
    # pairs; for alpha = 1/3 (delta = 1/2) the level-n lines are
    # delta^k a + d = 0 for k = 2-n .. 1.
    m = interval_maps(Fraction(1, 3))
    its = interval_rhat_iterate_symbolic(m, 3)
    a, d, q = its[0][0][0].ring.gens
    lines = {
        1: [a + 2 * d],
        2: [a + 2 * d, a + d],
        3: [a + 2 * d, a + d, 2 * a + d],
    }
    for n, (comps, _) in enumerate(its, 1):
        at_q0 = [c.compose(q, 0) for c in comps]
        assert at_q0[2] == 0  # the q-component vanishes identically on {q=0}
        g = at_q0[0].gcd(at_q0[1])
        got = {f.monic() for f, _ in g.factor_list()[1]}
        want = {l.monic() for l in lines[n]}
        assert got == want


def test_interval_phi_avoids_zero_locus_symbolically():
    m = interval_maps(Fraction(1, 2))
    for n, (comps, _) in enumerate(interval_rhat_iterate_symbolic(m, 4), 1):
        gens = comps[0].ring.gens
        # restrict to the phi-line, its parameter lambda carried by the first generator
        line = list(zip(gens, interval_phi_coords(gens[0])))
        vals = [c.compose(line) for c in comps]
        g = vals[0]
        for p in vals[1:]:
            g = g.gcd(p)
        assert g.is_ground  # no common root: mu^ND = 0


def test_interval_green_cauchy():
    m = interval_maps(Fraction(1, 3))
    rng = np.random.default_rng(0)
    for _ in range(10):
        lam = complex(rng.uniform(-4, 1), rng.uniform(0.3, 1.5))
        Q = interval_phi_coords(lam)
        v20, _ = interval_green_estimate(m, Q, 20)
        v30, _ = interval_green_estimate(m, Q, 30)
        assert abs(v30 - v20) <= 1e-6


@pytest.mark.parametrize("n_max", [0, -3])
def test_interval_green_refuses_no_steps(n_max):
    m = interval_maps(Fraction(1, 3))
    with pytest.raises(ValueError, match="n_max must be at least 1"):
        interval_green_estimate(m, interval_phi_coords(complex(-1, 0.5)), n_max)


def test_dynamical_degree_and_classifier():
    est, seq = dynamical_degree([2, 4, 8, 16, 32])
    assert est == pytest.approx(2.0)
    assert seq == pytest.approx([2.0] * 5)
    assert dichotomy_classify(est, 3) == "case_i"
    assert dichotomy_classify(2.0, 2) == "case_ii"
    assert dichotomy_classify(1.0, 2) == "case_i"
    assert dichotomy_classify(float("nan"), 3) == "inconclusive"
    assert dynamical_degree([1, 1, 1])[0] == pytest.approx(1.0)


def test_growth_check_slope_and_sentinel():
    # synthetic C * 2^n data recovers log 2; zero difference yields -inf
    data = [(n, 3.1 * 2**n) for n in range(3, 8)]
    assert growth_check(data) == pytest.approx(math.log(2), abs=1e-12)
    assert growth_check([(1, 0.0), (2, 0.0)]) == -math.inf


# -- reference: the Expr/Poly composition (subs, expand, gcd, cancel) -----------
# The module composes on sympy's sparse rings; these are the formulas it
# replaced, kept to check the ring results against.

_z, _w = sympy.symbols("z w")
_u0, _v0, _u1, _v1 = sympy.symbols("u0 v0 u1 v1")
_a, _d, _q = sympy.symbols("a d q")


def ref_reduced_1d(P, Q):
    if P.is_zero:
        return sympy.Poly(0, _z, domain="QQ"), sympy.Poly(1, _z, domain="QQ")
    g = sympy.gcd(P, Q)
    P, Q = sympy.div(P, g)[0], sympy.div(Q, g)[0]
    lead = Q.LC()
    return sympy.Poly(P / lead, _z, domain="QQ"), sympy.Poly(Q / lead, _z, domain="QQ")


def ref_from_coeffs_1d(num, den):
    return ref_reduced_1d(
        *(sympy.Poly([sympy.Rational(c) for c in reversed(cs)], _z, domain="QQ") for cs in (num, den))
    )


def ref_compose_1d(f, other):
    """f after other, both (numerator, denominator) Poly pairs."""
    d = max(f[0].degree(), f[1].degree())
    Ax, Bx = other[0].as_expr(), other[1].as_expr()
    num, den = (
        sum((c * Ax**i * Bx ** (d - i) for i, c in enumerate(p.all_coeffs()[::-1])), sympy.Integer(0))
        for p in f
    )
    return ref_reduced_1d(
        sympy.Poly(sympy.expand(num), _z, domain="QQ"), sympy.Poly(sympy.expand(den), _z, domain="QQ")
    )


def ref_compose_bi(pairs, other):
    """pairs after other, each a pair of (P, Q) Exprs in u0, v0, u1, v1."""
    subs = {_u0: other[0][0], _v0: other[0][1], _u1: other[1][0], _v1: other[1][1]}
    out = []
    for P, Q in pairs:
        Pn = sympy.expand(P.subs(subs, simultaneous=True))
        Qn = sympy.expand(Q.subs(subs, simultaneous=True))
        g = sympy.gcd(
            sympy.Poly(Pn, _u0, _v0, _u1, _v1, domain="QQ"),
            sympy.Poly(Qn, _u0, _v0, _u1, _v1, domain="QQ"),
        ).as_expr()
        out.append((sympy.expand(sympy.cancel(Pn / g)), sympy.expand(sympy.cancel(Qn / g))))
    return tuple(out)


def ref_rhat(alpha):
    dl = sympy.Rational(alpha / (1 - alpha))
    den = _a + _d / dl
    return tuple(
        sympy.expand(dl * e) for e in (_a * den - _q**2 / dl, dl * _d * den - dl * _q**2, -(_q**2))
    )


def ref_rhat_iterate(alpha, n):
    rhat = ref_rhat(alpha)
    cur = rhat
    out = []
    for k in range(n):
        polys = [sympy.Poly(c, _a, _d, _q, domain="QQ") for c in cur]
        g = polys[0]
        for p in polys[1:]:
            g = sympy.gcd(g, p)
        if g.total_degree() > 0:
            cur = tuple(sympy.expand(sympy.cancel(c / g.as_expr())) for c in cur)
        out.append(cur)
        subs = {_a: cur[0], _d: cur[1], _q: cur[2]}
        cur = tuple(sympy.expand(c.subs(subs, simultaneous=True)) for c in rhat)
    return out


def ref_rhat_numeric(self, v):
    """The lift written out by hand in numpy."""
    a, d, q = v
    dl = float(self.delta)
    den = a + d / dl
    return np.array(
        [dl * (a * den - q * q / dl), dl * (dl * d * den - dl * q * q), -dl * q * q]
    )


@pytest.mark.parametrize(
    "name, coeffs", [("ghat", ([0, 5, 1], [1, 3, 2])), ("phat", ([0, 5, 2], [1]))]
)
def test_1d_iterates_match_reference(gm, name, coeffs):
    ref_f = ref_from_coeffs_1d(*coeffs)
    ref = ref_f
    for n in range(1, 5):
        got, _ = compose_reduce_1d(getattr(gm, name), n)
        # the map on the line: its homogeneous coordinates at w = 1
        P, Q = (sympy.Poly(p.as_expr().subs(_w, 1), _z, domain="QQ") for p in got.comps[0])
        scalar = ref[1].LC() / Q.LC()
        assert P * scalar == ref[0] and Q * scalar == ref[1]
        ref = ref_compose_1d(ref_f, ref)


def test_bidegree_iterates_match_reference_up_to_scalar(gm):
    ref_g = (
        (3 * _u0 * _u1, 2 * _u0 * _v1 + _u1 * _v0),
        (3 * _u1 * (_u0 * _v1 + _u1 * _v0), 5 * _u1 * _v0 * _v1 + _u0 * _v1**2),
    )
    gens = (_u0, _v0, _u1, _v1)
    cur, ref = gm.g, ref_g
    for n in range(1, 4):
        if n > 1:
            cur, ref = gm.g.compose(cur), ref_compose_bi(ref_g, ref)
        for (P, Q), (rP, rQ) in zip(cur.comps, ref, strict=True):
            P, Q = (sympy.Poly(e.as_expr(), *gens, domain="QQ") for e in (P, Q))
            rP, rQ = (sympy.Poly(e, *gens, domain="QQ") for e in (rP, rQ))
            scalar = rP.LC() / P.LC()
            assert P * scalar == rP and Q * scalar == rQ


@pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(1, 3)])
def test_rhat_iterates_match_reference(alpha):
    got = interval_rhat_iterate_symbolic(interval_maps(alpha), 3)
    for (comps, _), ref in zip(got, ref_rhat_iterate(alpha, 3), strict=True):
        for c, r in zip(comps, ref, strict=True):
            assert sympy.Poly(c.as_expr(), _a, _d, _q, domain="QQ") == sympy.Poly(r, _a, _d, _q, domain="QQ")


@pytest.mark.parametrize("alpha", [Fraction(1, 3), Fraction(1, 2), Fraction(2, 7)])
def test_interval_green_matches_hand_written_lift(alpha, monkeypatch):
    # the seeded points of test_interval_green_cauchy
    m = interval_maps(alpha)
    rng = np.random.default_rng(0)
    points = [
        interval_phi_coords(complex(rng.uniform(-4, 1), rng.uniform(0.3, 1.5))) for _ in range(10)
    ]
    got = [interval_green_estimate(m, Q, n)[0] for Q in points for n in (20, 30)]
    monkeypatch.setattr(IntervalMaps, "rhat_numeric", ref_rhat_numeric)
    want = [interval_green_estimate(m, Q, n)[0] for Q in points for n in (20, 30)]
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12


def test_coefficient_ceiling_applies_to_every_iteration(gm, monkeypatch):
    monkeypatch.setattr(dynamics, "COEFF_BIT_LIMIT", 4)
    with pytest.raises(CoefficientBlowup):
        compose_reduce_1d(gm.ghat, 4)
    with pytest.raises(CoefficientBlowup):
        bidegree_sequence(gm.g, 3)
    with pytest.raises(CoefficientBlowup):
        interval_rhat_iterate_symbolic(interval_maps(Fraction(1, 3)), 4)


@pytest.mark.parametrize("n", [0, -1])
def test_iterations_need_one_step(gm, n):
    with pytest.raises(ValueError):
        compose_reduce_1d(gm.ghat, n)
    with pytest.raises(ValueError):
        bidegree_sequence(gm.g, n)
    with pytest.raises(ValueError):
        interval_rhat_iterate_symbolic(interval_maps(Fraction(1, 3)), n)

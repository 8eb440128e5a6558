import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclat.operator import assemble, laplacian_base
from fraclat.spectral import (
    DEFAULT_MERGE_TOL,
    AtomicMeasure,
    NDMeasure,
    _stacked_system,
    argument_principle_count,
    counting_measure,
    dominates,
    nd_nullity,
    nd_spectrum,
    spectrum,
    sup_cdf_distance,
)
from fraclat.structure import build_level, builtin_interval
from test_weighted_and_permuted import STRUCTURES


def test_gasket_level0_neumann(gasket_levels):
    eig = spectrum(gasket_levels.op(0), "neumann")
    assert np.allclose(sorted(eig.eigenvalues), [-3, -3, 0], atol=1e-12)


def test_gasket_level1_dirichlet(gasket_levels):
    eig = spectrum(gasket_levels.op(1), "dirichlet")
    assert np.allclose(sorted(eig.eigenvalues), [-2.5, -2.5, -1.0], atol=1e-12)


def test_interval_level1_neumann():
    spec = builtin_interval(Fraction(1, 2))
    op = assemble(laplacian_base(spec), spec, build_level(spec, 1))
    eig = spectrum(op, "neumann")
    assert np.allclose(sorted(eig.eigenvalues), [-2.0, -1.0, 0.0], atol=1e-12)


def test_level0_dirichlet_empty(gasket_levels):
    eig = spectrum(gasket_levels.op(0), "dirichlet")
    assert eig.size == 0


def test_eigen_residuals_and_counts(gasket_levels):
    for n in (1, 2, 3):
        op = gasket_levels.op(n)
        for bc, expect in (("neumann", op.size), ("dirichlet", op.size - 3)):
            eig = spectrum(op, bc, vectors=True)
            assert eig.size == expect
            A = op.matrix_float() if bc == "neumann" else op.matrix_float()[
                np.ix_(op.interior, op.interior)
            ]
            assert eig.residual(A) <= 1e-10 * max(1.0, np.abs(A).max())
            assert all(eig.eigenvalues <= 1e-9)


@pytest.mark.parametrize("name", STRUCTURES)
def test_values_only_solve_matches_eigh(name):
    # the eigvalsh route against the eigh route it replaced for spectrum()
    spec = STRUCTURES[name]
    base = laplacian_base(spec)
    for n in range(5):
        op = assemble(base, spec, build_level(spec, n))
        for bc in ("neumann", "dirichlet"):
            vals = spectrum(op, bc)
            ref = spectrum(op, bc, vectors=True)
            assert vals.eigenvectors is None
            assert ref.eigenvectors.shape == (ref.size, ref.size)
            tol = 1e-12 * max(1.0, float(np.abs(op.matrix_float()).max()))
            assert np.max(np.abs(vals.eigenvalues - ref.eigenvalues), initial=0.0) <= tol
            assert np.all(vals.eigenvalues <= 0.0)
            assert sup_cdf_distance(counting_measure(vals), counting_measure(ref)) == 0


def test_zero_mode_reported_as_zero_not_positive():
    # the Neumann zero mode may round to either sign; it is reported <= 0,
    # and as +0.0 when clipped
    spec = builtin_interval(Fraction(2, 7))
    for n in range(8):
        op = assemble(laplacian_base(spec), spec, build_level(spec, n))
        w = spectrum(op, "neumann").eigenvalues
        assert w[0] <= 0.0 and abs(w[0]) < 1e-12
        assert not np.any(np.signbit(w[w == 0.0]))


def test_residual_needs_vectors(gasket_levels):
    eig = spectrum(gasket_levels.op(1), "neumann")
    with pytest.raises(ValueError, match="vectors=True"):
        eig.residual(gasket_levels.op(1).matrix_float())


def test_counting_measure_basics():
    m = AtomicMeasure.from_points([-3.0, -3.0 + 1e-9, 0.0])
    assert len(m.atoms) == 2
    assert m.mass_at(-3.0) == 2
    assert m.total_mass == 3
    assert m.cdf(-3.5) == 3.0
    assert m.cdf(-1.0) == 1.0


def test_scale_total_mass(gasket_levels):
    m = counting_measure(spectrum(gasket_levels.op(1), "neumann"))
    assert float(m.scale(Fraction(1, 3)).total_mass) == pytest.approx(2.0)


def test_sup_cdf_distance_and_dos_cauchy(gasket_levels):
    # normalized Neumann/Dirichlet repartition functions approach each other
    prev = None
    for n in (2, 3, 4):
        nu_p = counting_measure(spectrum(gasket_levels.op(n), "neumann")).scale(
            Fraction(1, 3**n)
        )
        nu_m = counting_measure(gasket_levels.dirichlet(n)).scale(Fraction(1, 3**n))
        d = sup_cdf_distance(nu_p, nu_m)
        assert d <= 3.0 * 3.0**-n + 1e-12  # boundary effects / N^n
        if prev is not None:
            assert d < prev
        prev = d


@given(
    locs=st.lists(st.floats(-10, -0.1), min_size=1, max_size=8),
    c=st.fractions(Fraction(1, 4), Fraction(4)),
)
@settings(max_examples=60, deadline=None)
def test_measure_scaling_properties(locs, c):
    m = AtomicMeasure.from_points(locs)
    sm = m.scale(c)
    assert float(sm.total_mass) == pytest.approx(float(c) * len(locs))
    assert sm.locations == m.locations
    assert dominates(m, m)


def test_dominates_detects_missing_mass():
    m1 = AtomicMeasure.from_atoms([(-3.0, 2), (-1.0, 1)])
    m2 = AtomicMeasure.from_atoms([(-3.0, 3)])
    assert dominates(m2, m1) is False  # m1 has mass at -1 that m2 lacks
    assert dominates(m1, AtomicMeasure.from_atoms([(-3.0, 2)]))


def test_nd_level1_empty(gasket_levels):
    assert nd_spectrum(gasket_levels.op(1)).atoms == ()


def test_nd_level0_empty(gasket_levels):
    # every vertex is on the boundary: no Dirichlet eigenvalue, no candidate
    nd = nd_spectrum(gasket_levels.op(0))
    assert nd == NDMeasure((), DEFAULT_MERGE_TOL, margin=1.0)
    assert nd.total_mass == 0


@pytest.mark.parametrize("kw", [
    {"tol": math.nan}, {"tol": 2.0}, {"tol": 1.0}, {"tol": 0.0}, {"tol": -1.0},
    {"merge_tol": math.nan}, {"merge_tol": math.inf}, {"merge_tol": -1e-9},
])
def test_nd_spectrum_refuses_out_of_range_tolerances(gasket_levels, kw):
    # tol nan or 2 once gave N-D mass 12 at gasket level 2, tol 0 or -1 gave 0; 4 is right
    op = gasket_levels.op(2)
    assert nd_spectrum(op).total_mass == 4
    with pytest.raises(ValueError, match="tol must be a"):
        nd_spectrum(op, **kw)


def test_nd_level3_frozen(gasket_levels):
    nd = gasket_levels.nd(3)
    assert nd.total_mass == 21
    assert nd.mass_at(-3.0) == 12
    assert nd.mass_at(-2.5) == 4
    assert nd.mass_at(-1.5) == 3
    assert nd.mass_at((-5 + math.sqrt(5)) / 4) == 1
    assert nd.mass_at((-5 - math.sqrt(5)) / 4) == 1


def test_nd_below_both_spectra(gasket_levels):
    for n in (2, 3, 4):
        nd = gasket_levels.nd(n)
        nu_minus = counting_measure(gasket_levels.dirichlet(n))
        nu_plus = counting_measure(spectrum(gasket_levels.op(n), "neumann"))
        assert dominates(nu_minus, nd)
        assert dominates(nu_plus, nd)


def test_nd_monotone_copies(gasket_levels):
    for n in (1, 2, 3, 4):
        finer = gasket_levels.nd(n + 1)
        assert dominates(finer, gasket_levels.nd(n).scale(3))


def test_nd_nullity_matches_cluster_method(gasket_levels):
    for n in (2, 3, 4):
        op = gasket_levels.op(n)
        for loc, mult in gasket_levels.nd(n).atoms:
            assert nd_nullity(op, float(loc)) == mult


@pytest.mark.parametrize("which", ["gasket", "interval:1/3"])
def test_stacked_system_bitwise_equals_dense_form(which, gasket_levels, interval_third):
    if which == "gasket":
        op = gasket_levels.op(4)
    else:
        op = assemble(laplacian_base(interval_third), interval_third, build_level(interval_third, 4))
    A, b = op.matrix_float(), op.b_float()
    idx = np.array(op.interior, dtype=int)
    lams = [float(loc) for loc, _ in nd_spectrum(op).atoms] + [-0.123456, -2.5, 0.0, 1.75]
    for lam in lams:
        assert np.array_equal(_stacked_system(A, b, idx, lam), (A + lam * np.diag(b))[:, idx])


def test_nd_spectrum_solves_again_for_vectorless_dirichlet(gasket_levels):
    for n in (3, 4):
        op = gasket_levels.op(n)
        vectorless = spectrum(op, "dirichlet")
        assert vectorless.eigenvectors is None
        assert nd_spectrum(op, dirichlet=vectorless) == nd_spectrum(
            op, dirichlet=spectrum(op, "dirichlet", vectors=True)
        )
        assert nd_spectrum(op, dirichlet=vectorless) == gasket_levels.nd(n)


def test_nd_nullity_off_spectrum_zero(gasket_levels):
    assert nd_nullity(gasket_levels.op(2), -0.123456) == 0


def test_nd_multiplicities_stable_in_tol(gasket_levels):
    for tol in (1e-9, 1e-8, 1e-7):
        nd = nd_spectrum(gasket_levels.op(4), tol=tol, dirichlet=gasket_levels.dirichlet(4))
        assert nd.total_mass == 82


def test_nd_multiplicities_stable_in_tol_level6(gasket_levels):
    ref = gasket_levels.nd(6).atoms
    for tol in (1e-9, 1e-7):
        nd = nd_spectrum(gasket_levels.op(6), tol=tol, dirichlet=gasket_levels.dirichlet(6))
        assert [m for _, m in nd.atoms] == [m for _, m in ref]


@pytest.mark.parametrize("n,tol", [(2, 0.1), (3, 0.01), (4, 0.01)])
def test_nd_margin_is_the_distance_to_the_nearest_flip(gasket_levels, n, tol):
    # every threshold scales with tol, so each count holds within the margin
    # (in decades of tol) and one flips just beyond it; 1e-8 is far from any
    op, eig = gasket_levels.op(n), gasket_levels.dirichlet(n)
    nd = nd_spectrum(op, tol=tol, dirichlet=eig)
    assert gasket_levels.nd(n).margin == 1.0 and 0 < nd.margin < 1
    mass = {f: nd_spectrum(op, tol=tol * 10 ** (f * nd.margin), dirichlet=eig).total_mass
            for f in (-1.01, -0.99, 0.99, 1.01)}
    assert mass[-0.99] == mass[0.99] == nd.total_mass
    assert mass[-1.01] != nd.total_mass or mass[1.01] != nd.total_mass


def test_argument_principle_interval():
    spec = builtin_interval(Fraction(1, 2))
    for n in (2, 4):
        op = assemble(laplacian_base(spec), spec, build_level(spec, n))
        A, b = op.matrix_float(), op.b_float()
        mu = -spectrum(op, "neumann").eigenvalues  # pencil values, >= 0
        cuts = np.linspace(-0.25, mu.max() + 0.25, 4)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            want = int(np.sum((mu > lo) & (mu < hi)))
            got = argument_principle_count(A, b, (lo, hi))
            assert got == want


def test_argument_principle_gasket(gasket_levels):
    op = gasket_levels.op(1)
    A, b = op.matrix_float(), op.b_float()
    mu = -spectrum(op, "neumann").eigenvalues
    got = argument_principle_count(A, b, (-0.5, 5.5))
    assert got == len(mu) == 6

"""The compiled R tensor against the definition of R it replaces: lift X
into every level-1 cell, multiply with gr_mul, restrict to the boundary.
Covers r_map on random elements (float and exact), the batched Green loop
against a per-point iteration, and the exact characteristic polynomials."""

import math
from fractions import Fraction

import numpy as np
import pytest

from fraclat import grassmann as gr
from fraclat.grassmann import GrassmannElement
from fraclat.operator import BaseOperator, laplacian_base
from fraclat.renorm import (
    ZERO_NORM_FLOOR,
    RenormContext,
    _exact_r_samples,
    dirichlet_poly,
    green_batch,
    green_estimate,
    green_of_phi_batch,
    neumann_poly,
    phi,
    phi_rows,
    r_map,
    rho_n_vanishing_order,
    symmetric_commutant_basis,
)
from fraclat.structure import builtin_interval, cell_weights
from test_weighted_and_permuted import STRUCTURES


def r_map_reference(ctx, X):
    spec, lat1 = ctx.spec, ctx.level1
    V1 = lat1.num_vertices
    w, den = cell_weights((spec.alpha[0],) * spec.N, spec.alpha, 1)
    scalings = w.tolist() if den is None else [Fraction(c, den) for c in w]
    prod = None
    for images, s in zip(lat1.cell_ids.tolist(), scalings):
        lifted = gr.relabel(gr.scale_degree(X, s), images, V1)
        prod = lifted if prod is None else gr.gr_mul(prod, lifted)
    # restrict to the sorted boundary, then relabel each boundary id to its F-label
    bsorted = sorted(lat1.boundary)
    res = gr.restrict(prod, bsorted)
    labels = [lat1.boundary.index(v) for v in bsorted]
    if labels != list(range(spec.N0)):
        res = gr.relabel(res, labels)
    return res


def green_reference(ctx, X, n_max):
    """One point at a time, on GrassmannElements."""
    N = ctx.spec.N
    nrm = gr.norm(X)
    x = X.map_coeffs(lambda v: complex(v) / nrm)
    value = math.log(nrm)
    history = []
    for k in range(n_max):
        y = r_map_reference(ctx, x)
        ynorm = gr.norm(y)
        if ynorm <= ZERO_NORM_FLOOR:
            return -math.inf, k + 1, 0.0, history, True
        g = math.log(ynorm)
        history.append(g)
        value += g / N ** (k + 1)
        x = y.map_coeffs(lambda v: v / ynorm)
    tail = max(abs(g) for g in history) / (N**n_max * (N - 1))
    return value, n_max, tail, history, False


def poly_reference(ctx, base, n, which):
    deg = ctx.vertex_count(n) - (ctx.spec.N0 if which == "dirichlet" else 0)
    values = []
    for t in range(deg + 1):
        X = phi(base, t)
        for _ in range(n):
            X = r_map_reference(ctx, X)
        values.append(X.unit_coefficient if which == "dirichlet" else X.top_coefficient)
    sign = gr._interleave_sign(ctx.spec.N0) if which == "neumann" else 1
    return gr._newton_coeffs([sign * v for v in values])


@pytest.fixture(scope="module", params=list(STRUCTURES))
def ctx(request):
    return RenormContext.build(STRUCTURES[request.param])


def test_r_map_float_matches_reference(ctx):
    rng = np.random.default_rng(20)
    for _ in range(4):
        X = GrassmannElement(ctx.spec.N0, {
            key: complex(*rng.standard_normal(2)) for key in gr.basis(ctx.spec.N0)
        })
        got, want = r_map(ctx, X), r_map_reference(ctx, X)
        scale = max(abs(v) for v in want.coeffs.values())
        assert max(abs(v) for v in (got - want).coeffs.values() or [0]) <= 1e-12 * scale


def test_r_map_exact_matches_reference(ctx):
    rng = np.random.default_rng(21)
    for _ in range(4):
        X = GrassmannElement(ctx.spec.N0, {
            key: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
            for key in gr.basis(ctx.spec.N0)
        })
        assert r_map(ctx, X).coeffs == r_map_reference(ctx, X).coeffs


def rational_base(spec, seed=26):
    """A G-invariant base with rational couplings and weights: one seeded
    value per group orbit of index pairs (symmetric_commutant_basis)."""
    rng = np.random.default_rng(seed)
    values = (Fraction(3, 2), Fraction(4, 5), Fraction(5, 3), Fraction(2, 7))
    n0 = spec.N0
    a, b = [[Fraction(0)] * n0 for _ in range(n0)], [None] * n0
    for M in symmetric_commutant_basis(spec):
        v = values[rng.integers(len(values))]
        for x, y in np.argwhere(M != 0):
            if x == y:
                b[x] = v
            else:
                a[x][y] = v
    return BaseOperator(a=tuple(map(tuple, a)), b=tuple(b))


@pytest.mark.parametrize("n", [1, 2])
def test_polys_match_reference(ctx, n):
    rational = rational_base(ctx.spec)
    assert rational.is_group_invariant(ctx.spec)
    assert _exact_r_samples(ctx, rational, 0, 0)[1] > 1  # phi's rows carry a denominator
    for base in (laplacian_base(ctx.spec), rational):
        assert dirichlet_poly(ctx, base, n) == poly_reference(ctx, base, n, "dirichlet")
        assert neumann_poly(ctx, base, n) == poly_reference(ctx, base, n, "neumann")


def test_exact_paths_refuse_float_inputs(gasket_ctx, gasket_base):
    float_base = BaseOperator(a=gasket_base.a, b=(1.0,) * 3)
    float_ctx = RenormContext.build(builtin_interval(0.5))
    for call in (
        lambda: dirichlet_poly(gasket_ctx, float_base, 1),
        lambda: neumann_poly(float_ctx, laplacian_base(float_ctx.spec), 1),
        lambda: rho_n_vanishing_order(gasket_ctx, gasket_base, -3.0, 1),
    ):
        with pytest.raises(ValueError, match="exact"):
            call()


def test_doubled_weights_halve_the_vanishing_points(gasket_ctx, gasket_base):
    # A v = mu b v: doubling b halves every eigenvalue, so the unit base's
    # orders 3 at -3 and 1 at -5/2 move to -3/2 and -5/4 (level 2)
    doubled = BaseOperator(a=gasket_base.a, b=(Fraction(2),) * 3)
    for lam0, order in ((Fraction(-3), 3), (Fraction(-5, 2), 1)):
        assert rho_n_vanishing_order(gasket_ctx, gasket_base, lam0, 2) == order
        assert rho_n_vanishing_order(gasket_ctx, doubled, lam0 / 2, 2) == order


def assert_green_equal(est, ref):
    value, iterations, tail, history, hit_zero = ref
    assert (est.iterations, est.hit_zero) == (iterations, hit_zero)
    if hit_zero:
        assert est.value == -math.inf and est.tail_bound == 0.0
    else:
        assert abs(est.value - value) <= 1e-12
        assert abs(est.tail_bound - tail) <= 1e-12 * tail
    assert len(est.log_norm_history) == len(history)
    assert np.allclose(est.log_norm_history, history, rtol=0, atol=1e-12)


def test_green_batch_matches_per_point():
    # for alpha = 1/2, exp_q([[1, 0], [0, -1]]) lies on the zero set of R:
    # that row stops after one step while the others run on
    spec = builtin_interval(Fraction(1, 2))
    ctx = RenormContext.build(spec)
    base = laplacian_base(spec)
    elements = [phi(base, lam) for lam in (-1.2 + 0.4j, 0.5 + 0.7j, -3.0 + 0.2j)]
    elements.insert(1, gr.exp_q(np.array([[1.0, 0.0], [0.0, -1.0]])))
    estimates = green_batch(ctx, gr.rows(elements), 15)
    assert [e.hit_zero for e in estimates] == [False, True, False, False]
    for X, est in zip(elements, estimates):
        assert_green_equal(est, green_reference(ctx, X, 15))
        assert est == green_estimate(ctx, X, 15)


def test_green_of_phi_batch_matches_per_point(gasket_ctx, gasket_base):
    lams = [complex(re, im) for re in (-5.0, -2.5, 0.5) for im in (0.3, 0.9)]
    for lam, est in zip(lams, green_of_phi_batch(gasket_ctx, gasket_base, lams, 12)):
        assert_green_equal(est, green_reference(gasket_ctx, phi(gasket_base, lam), 12))


def test_phi_grid_takes_one_det_per_minor(gasket_base, monkeypatch):
    calls = []
    det = np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda a: calls.append(a.shape) or det(a))
    lams = [complex(re, im) for re in np.linspace(-6, 1, 25) for im in (0.25, 0.5, 0.75, 1.0)]
    x = phi_rows(gasket_base, lams)
    assert len(calls) == len(gr.basis(3)) - 1 == 19
    assert all(shape[0] == 100 for shape in calls)
    assert [GrassmannElement.from_row(3, r) for r in x[::33]] == [phi(gasket_base, lam) for lam in lams[::33]]


def test_batches_make_one_stacked_exp_q_call(gasket_ctx, gasket_base, monkeypatch):
    calls = []
    exp_q_rows = gr.exp_q_rows
    monkeypatch.setattr(gr, "exp_q_rows", lambda Q: calls.append(len(Q)) or exp_q_rows(Q))
    green_of_phi_batch(gasket_ctx, gasket_base, [complex(-1, 0.5), complex(-2, 0.5)], 5)
    dirichlet_poly(gasket_ctx, gasket_base, 1)
    neumann_poly(gasket_ctx, gasket_base, 1)
    rho_n_vanishing_order(gasket_ctx, gasket_base, Fraction(-3), 1)
    assert calls == [2, 4, 4, 4]  # the polys evaluate phi at N0 + 1 = 4 points

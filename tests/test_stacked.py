"""Stacked renormalization against the per-matrix loop it batches.

trace_on_subset, level_matrix, t_map and t_iterate take (..., n, n) stacks;
each stacked result must equal the loop over its matrices exactly: bitwise
on float input, == on exact input.  Also covers ordered subsets (kept in the
order given, repeats refused), poles anywhere in a stack, the ordered
Grassmann restriction and the C_n size refusal.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from fraclat import grassmann as gr
from fraclat.renorm import RenormContext, level_matrix, t_iterate, t_map
from fraclat.schur import TracePoleError, trace_on_subset
from fraclat.structure import build_level
from test_weighted_and_permuted import STRUCTURES


def float_stack(rng, B, n):
    """B complex symmetric n x n matrices with positive-definite imaginary part."""
    re = rng.standard_normal((B, n, n))
    im = rng.standard_normal((B, n, n))
    im = im @ im.transpose(0, 2, 1) + 0.5 * np.eye(n)
    Q = re + re.transpose(0, 2, 1) + 1j * im
    Q[:, 0, -1] = Q[:, -1, 0] = 0  # a zero some matrices keep and others do not
    Q[0, 0, 1] = Q[0, 1, 0] = 0
    return Q


def to_fraction(A):
    return np.vectorize(Fraction, otypes=[object])(A.astype(object))


def exact_stack(rng, B, n):
    """B exact symmetric positive-definite n x n matrices, one with extra zeros."""
    S = rng.integers(-2, 3, (B, n, n))
    S = S @ S.transpose(0, 2, 1) + 2 * n * np.eye(n, dtype=int)
    S[0, 0, -1] = S[0, -1, 0] = 0
    return to_fraction(S)


def assert_same(stacked, loop):
    loop = np.array(loop, dtype=stacked.dtype)
    assert stacked.shape == loop.shape
    if stacked.dtype == object:
        assert (stacked == loop).all()
    else:
        assert np.array_equal(stacked, loop)


@pytest.fixture(params=list(STRUCTURES))
def ctx(request):
    return RenormContext.build(STRUCTURES[request.param])


def test_t_map_and_t_iterate_stacked_equal_loop(ctx):
    rng = np.random.default_rng(11)
    n0 = ctx.spec.N0
    for Q, n in ((float_stack(rng, 5, n0), 3), (exact_stack(rng, 3, n0), 2)):
        assert_same(t_map(ctx, Q), [t_map(ctx, q) for q in Q])
        assert_same(t_iterate(ctx, Q, n), [t_iterate(ctx, q, n) for q in Q])
    Q = float_stack(rng, 6, n0).reshape(2, 3, n0, n0)  # any number of batch axes
    assert_same(t_map(ctx, Q).reshape(6, n0, n0), [t_map(ctx, q) for q in Q.reshape(6, n0, n0)])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_level_matrix_stacked_equal_loop(ctx, n):
    rng = np.random.default_rng(12 + n)
    lat = build_level(ctx.spec, n)
    for Q in (float_stack(rng, 4, ctx.spec.N0), exact_stack(rng, 2, ctx.spec.N0)):
        assert_same(level_matrix(ctx, Q, lat), [level_matrix(ctx, q, lat) for q in Q])


def test_trace_on_subset_stacked_equal_loop(ctx):
    rng = np.random.default_rng(13)
    lat = build_level(ctx.spec, 2)
    for Q in (float_stack(rng, 4, ctx.spec.N0), exact_stack(rng, 2, ctx.spec.N0)):
        Qn = level_matrix(ctx, Q, lat)
        for subset in (lat.boundary, sorted(rng.permutation(lat.num_vertices)[:3].tolist())):
            assert_same(trace_on_subset(Qn, subset), [trace_on_subset(q, subset) for q in Qn])


def test_singular_block_anywhere_in_stack_raises():
    good = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
    bad = good.copy()
    bad[1:, 1:] = [[1.0, 1.0], [1.0, 1.0]]  # singular interior block on {1, 2}
    for dtype in (float, object):
        stack = np.stack([good, good, bad])
        if dtype is object:
            stack = to_fraction(stack)
        with pytest.raises(TracePoleError):
            trace_on_subset(stack, [0])
        trace_on_subset(stack[:2], [0])  # the good ones alone do not


def test_unsorted_subset_permutes_the_sorted_result():
    rng = np.random.default_rng(14)
    Qe = exact_stack(rng, 2, 6)
    Qf = float_stack(rng, 2, 6)
    subset = [4, 0, 3]
    pos = [sorted(subset).index(v) for v in subset]
    for Q in (Qe, Qf):
        want = trace_on_subset(Q, sorted(subset))[..., pos, :][..., :, pos]
        got = trace_on_subset(Q, subset)
        if Q.dtype == object:
            assert (got == want).all()
        else:
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_repeated_or_out_of_range_index_refused():
    Q = np.eye(4)
    for subset in ([0, 2, 0], [1, 4], [-1, 2]):
        with pytest.raises(ValueError):
            trace_on_subset(Q, subset)
    X = gr.exp_q(Q)
    for subset in ([0, 2, 0], [1, 4]):
        with pytest.raises(ValueError):
            gr.restrict(X, subset)


def test_ordered_restrict_is_sorted_restrict_relabelled():
    rng = np.random.default_rng(15)
    S = rng.integers(-3, 4, (5, 5))
    X = gr.exp_q(to_fraction(S + S.T))
    for perm in ([3, 0, 4], [2, 1], [4, 3, 2, 1, 0], [1, 3]):
        ranks = [perm.index(v) for v in sorted(perm)]
        want = gr.relabel(gr.restrict(X, sorted(perm)), ranks)
        assert (gr.restrict(X, perm) - want).is_zero()


def test_c_constant_refuses_huge_powers_at_once():
    ctx = RenormContext.build(STRUCTURES["interval:1/3"])
    spec = ctx.spec
    p = Fraction(1)
    for a in spec.alpha:
        p *= Fraction(a) / spec.alpha[0]
    C = Fraction(1)  # C_n = C_{n-1}^N * p^{|interior F_{n-1}|}, from C_0 = 1
    for n in range(7):
        assert ctx.c_constant(n) == C
        C = C**spec.N * p ** (ctx.vertex_count(n) - spec.N0)
    t0 = time.perf_counter()
    with pytest.raises(ValueError):
        ctx.c_constant(40)
    assert time.perf_counter() - t0 < 1.0
    # a base of 1 needs no bits: the gasket's C_n stays 1 at any level
    assert RenormContext.build(STRUCTURES["gasket"]).c_constant(40) == 1

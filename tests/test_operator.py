from fractions import Fraction

import numpy as np
import pytest

from fraclat.operator import BaseOperator, DimensionError, assemble, laplacian_base, scaled_pencil
from fraclat.structure import build_level, builtin_interval
from test_weighted_and_permuted import STRUCTURES


def test_gasket_level1_values(gasket_levels):
    op = gasket_levels.op(1)
    A = op.matrix_float()
    b = op.b_float()
    interior = op.interior
    assert all(A[v, v] == 4 for v in interior)
    assert all(A[v, v] == 2 for v in op.boundary)
    assert all(b[v] == 2 for v in interior)
    assert all(b[v] == 1 for v in op.boundary)


def test_cached_arrays_are_read_only(gasket_base, gasket):
    from fraclat.spectral import spectrum

    op = assemble(gasket_base, gasket, build_level(gasket, 2))
    before = spectrum(op, "neumann").eigenvalues
    with pytest.raises(ValueError):
        op.matrix_float()[0, 0] = 99
    with pytest.raises(ValueError):
        op.b_float()[0] = 99
    assert np.array_equal(spectrum(op, "neumann").eigenvalues, before)


def test_shared_mappings_are_read_only(gasket_base, gasket):
    # a write to either mapping would silently change every later solve
    # (entries, read by the first matrix_float) or vertex lookup (word_to_id)
    lat = build_level(gasket, 2)
    op = assemble(gasket_base, gasket, lat)
    with pytest.raises(TypeError):
        op.entries[(0, 0)] = 99
    with pytest.raises(TypeError):
        lat.word_to_id[(0, 0, 0)] = 5
    assert op.matrix_float()[0, 0] == 2
    assert lat.vertex((0, 0, 0)) == 0


def test_level_zero_is_base(gasket, gasket_base, gasket_levels):
    op = gasket_levels.op(0)
    assert np.array_equal(op.matrix_float(), np.asarray(gasket_base.matrix(), dtype=float))
    assert list(op.b) == list(gasket_base.b)


def test_interval_level2_path_laplacian():
    spec = builtin_interval(Fraction(1, 2))
    op = assemble(laplacian_base(spec), spec, build_level(spec, 2))
    expected = np.array(
        [
            [1, -1, 0, 0, 0],
            [-1, 2, -1, 0, 0],
            [0, -1, 2, -1, 0],
            [0, 0, -1, 2, -1],
            [0, 0, 0, -1, 1],
        ],
        dtype=float,
    )
    assert np.allclose(op.matrix_float(), expected)
    assert np.allclose(op.b_float(), [1, 2, 2, 2, 1])


def test_dimension_mismatch_rejected(gasket):
    bad = BaseOperator(a=((0, 1), (1, 0)), b=(1, 1))
    with pytest.raises(DimensionError):
        assemble(bad, gasket, build_level(gasket, 1))


def test_rowsums_zero_and_kernel_constant(gasket_levels):
    for n in (1, 2, 3):
        A = gasket_levels.op(n).matrix_float()
        assert np.allclose(A.sum(axis=1), 0)
        w = np.linalg.eigvalsh(A)
        assert np.sum(np.abs(w) < 1e-9) == 1  # constants only


@pytest.mark.parametrize("name", STRUCTURES)
def test_scaled_pencil_is_the_symmetric_pencil(name):
    spec = STRUCTURES[name]
    base = laplacian_base(spec)
    for n in range(4):
        op = assemble(base, spec, build_level(spec, n))
        A, b = op.matrix_float(), op.b_float()
        natural = np.arange(op.size)
        for order in (natural, op.interior, np.concatenate([op.interior, op.boundary])):
            M, b_order = scaled_pencil(op, order)
            k = len(order)
            assert M.shape == (k, k) and b_order.shape == (k,)
            assert np.array_equal(b_order, b[order])
            S = np.diag(b[order] ** -0.5)
            assert np.allclose(M, S @ A[order][:, order] @ S, rtol=1e-15, atol=0.0)


def test_uniform_bound_propagates(gasket_levels, interval_levels):
    # largest pencil eigenvalue at level 0 bounds every level
    for cache in (gasket_levels, interval_levels):
        A0 = cache.op(0).matrix_float()
        b0 = cache.op(0).b_float()
        K = max(np.linalg.eigvalsh(A0 / np.sqrt(np.outer(b0, b0))))
        for n in range(1, 6):
            An = cache.op(n).matrix_float()
            bn = cache.op(n).b_float()
            s = 1 / np.sqrt(bn)
            w = np.linalg.eigvalsh((An * s).T * s)
            assert w[-1] <= K + 1e-9


def test_local_translation_invariance(gasket, gasket_levels):
    # gasket (unit energy weights): the A-image of a cell-supported copy is
    # the copy of the level-n A-image, and it stays inside the cell
    n = 2
    lat_n = gasket_levels.lattice(n)
    lat_n1 = gasket_levels.lattice(n + 1)
    A_n = gasket_levels.op(n).matrix_float()
    A_n1 = gasket_levels.op(n + 1).matrix_float()
    rng = np.random.default_rng(0)
    f = np.zeros(lat_n.num_vertices)
    for v in range(lat_n.num_vertices):
        if v not in lat_n.boundary:
            f[v] = rng.standard_normal()
    for i in range(3):
        embed = {
            v: lat_n1.word_to_id[(i,) + lat_n.id_to_word[v]]
            for v in range(lat_n.num_vertices)
        }
        ftil = np.zeros(lat_n1.num_vertices)
        for v, w in embed.items():
            ftil[w] = f[v]
        img = A_n1 @ ftil
        want = np.zeros(lat_n1.num_vertices)
        ref = A_n @ f
        for v, w in embed.items():
            want[w] = ref[v]
        assert np.allclose(img, want, atol=1e-12)
        outside = [w for w in range(lat_n1.num_vertices) if w not in set(embed.values())]
        assert np.allclose(img[outside], 0, atol=1e-14)


def test_local_invariance_weighted_interval():
    # nonuniform weights: under (H) the difference-operator values on the
    # cell interior reproduce the level-n values exactly
    spec = builtin_interval(Fraction(1, 3))
    base = laplacian_base(spec)
    n = 3
    lat_n = build_level(spec, n)
    lat_n1 = build_level(spec, n + 1)
    op_n = assemble(base, spec, lat_n)
    op_n1 = assemble(base, spec, lat_n1)
    H_n = -(op_n.matrix_float() / op_n.b_float()[:, None])
    H_n1 = -(op_n1.matrix_float() / op_n1.b_float()[:, None])
    rng = np.random.default_rng(1)
    f = np.zeros(lat_n.num_vertices)
    for v in range(lat_n.num_vertices):
        if v not in lat_n.boundary:
            f[v] = rng.standard_normal()
    for i in range(2):
        embed = {
            v: lat_n1.word_to_id[(i,) + lat_n.id_to_word[v]]
            for v in range(lat_n.num_vertices)
        }
        ftil = np.zeros(lat_n1.num_vertices)
        for v, w in embed.items():
            ftil[w] = f[v]
        img = H_n1 @ ftil
        ref = H_n @ f
        cell_interior = [
            (v, w) for v, w in embed.items()
            if w not in lat_n1.boundary and v not in lat_n.boundary
        ]
        for v, w in cell_interior:
            assert img[w] == pytest.approx(ref[v], rel=1e-12, abs=1e-12)


def test_g_equivariance(gasket, gasket_levels):
    lat = gasket_levels.lattice(2)
    A = gasket_levels.op(2).matrix_float()
    for g in gasket.group:
        perm = np.array(lat.vertex_permutation(g))
        P = np.zeros_like(A)
        P[perm, np.arange(len(perm))] = 1
        assert np.allclose(P @ A @ P.T, A)


def test_coordinate_export_upper_triangle(gasket_levels):
    op = gasket_levels.op(1)
    entries = list(op.coordinate_entries())
    assert all(i <= j for i, j, _ in entries)
    M = np.zeros((op.size, op.size))
    for i, j, v in entries:
        M[i, j] = float(v)
        M[j, i] = float(v)
    assert np.allclose(M, op.matrix_float())

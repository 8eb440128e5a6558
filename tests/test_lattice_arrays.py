"""Differential tests of the array-native lattice and the cell-sum kernel
against reference copies of the loops they replaced: the word union-find of
build_level, and the per-cell assembly of assemble and level_matrix with
weights multiplied word by word.  Exact results must be equal, float
results bitwise equal.  The cell weight tables of a level are checked
against the weight kernel on the level's own weights."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from fraclat import structure
from fraclat.operator import BaseOperator, DimensionError, assemble, laplacian_base
from fraclat.renorm import RenormContext, level_matrix
from fraclat.structure import (
    StructureSpec,
    UnionFind,
    _words,
    build_level,
    builtin_interval,
    cell_weights,
    is_exact,
    validate_structure,
)

from test_weighted_and_permuted import STRUCTURES, zigzag_interval


# -- reference copies of the replaced loops -----------------------------------


def ref_build_level(spec, n):
    """(word_to_id, id_to_word, boundary, num_vertices) by union-find on words."""
    class_of = {p: cls_ for cls_ in spec.closed_relation_classes() for p in cls_}
    uf = UnionFind()
    words = [prefix + (x,) for prefix in _words(spec.N, n) for x in range(spec.N0)]
    for w in words:
        x = w[-1]
        for m in range(n):
            if any(w[t] != x for t in range(m + 1, n)):
                continue
            for (i2, x2) in class_of[(w[m], x)]:
                uf.union(w, w[:m] + (i2,) + (x2,) * (n - m - 1) + (x2,))
    reps: dict = {}
    for w in words:
        r = uf.find(w)
        if r not in reps or w < reps[r]:
            reps[r] = w
    ordered = sorted(reps.values())
    id_of_rep = {w: k for k, w in enumerate(ordered)}
    word_to_id = {w: id_of_rep[reps[uf.find(w)]] for w in words}
    boundary = tuple(word_to_id[(x,) * (n + 1)] for x in range(spec.N0))
    return word_to_id, tuple(ordered), boundary, len(ordered)


def ref_prefix_products(num, den, n):
    w = [Fraction(1) if is_exact(tuple(num) + tuple(den)) else 1.0]
    for _ in range(n):
        w = [h * num[j] / den[j] for j in range(len(num)) for h in w]
    return w


def ref_cells(spec, n):
    word_to_id = ref_build_level(spec, n)[0]
    energy = ref_prefix_products((spec.alpha[0],) * spec.N, spec.alpha, n)
    measure = ref_prefix_products(spec.beta, (spec.beta[0],) * spec.N, n)
    for prefix, wa, wb in zip(_words(spec.N, n), energy, measure):
        yield tuple(word_to_id[prefix + (x,)] for x in range(spec.N0)), wa, wb


def ref_assemble(base, spec, n):
    """(entries, b, dense A as floats) by the per-cell loop."""
    exact = base.exact and is_exact(spec.alpha) and is_exact(spec.beta)
    zero = Fraction(0) if exact else 0.0
    V = ref_build_level(spec, n)[3]
    entries: dict = {}
    b = [zero] * V
    base_mat = base.matrix()
    for ids, wa, wb in ref_cells(spec, n):
        for x in range(spec.N0):
            b[ids[x]] += wb * base.b[x]
            for y in range(spec.N0):
                if base_mat[x][y] != 0:
                    key = (ids[x], ids[y])
                    entries[key] = entries.get(key, zero) + wa * base_mat[x][y]
    entries = {k: v for k, v in entries.items() if v != 0}
    A = np.zeros((V, V))
    for (i, j), v in entries.items():
        A[i, j] = float(v)
    return entries, tuple(b), A


def ref_level_matrix(spec, Q, n):
    V = ref_build_level(spec, n)[3]
    if Q.dtype == object and is_exact(spec.alpha):
        out = np.full((V, V), Fraction(0), dtype=object)
    else:
        out = np.zeros((V, V), dtype=complex)
    for ids, w, _ in ref_cells(spec, n):
        for x in range(spec.N0):
            for y in range(spec.N0):
                if Q[x, y] != 0:
                    out[ids[x], ids[y]] += w * Q[x, y]
    return out


# -- comparisons ----------------------------------------------------------------


def check_level(spec, n):
    lat = build_level(spec, n)
    word_to_id, id_to_word, boundary, V = ref_build_level(spec, n)
    assert lat.num_vertices == V
    assert lat.boundary == boundary
    assert dict(lat.word_to_id) == word_to_id
    assert lat.id_to_word == id_to_word
    assert all(type(v) is int for v in lat.word_to_id.values())
    assert lat.cell_ids.dtype == np.int64 and not lat.cell_ids.flags.writeable
    return lat


def check_assembly(base, spec, lat):
    op = assemble(base, spec, lat)
    entries, b, A = ref_assemble(base, spec, lat.n)
    assert dict(op.entries) == entries
    assert op.b == b
    # exact values stay Fractions; float values are Python floats, where the
    # loop gave numpy scalars for float base entries
    for got, want in ((op.entries.values(), entries.values()), (op.b, b)):
        assert [type(v) for v in got] == [Fraction if isinstance(v, Fraction) else float for v in want]
    assert op.matrix_float().tobytes() == A.tobytes()
    upper = [(i, j, float(v)) for (i, j), v in sorted(entries.items()) if i <= j]
    assert list(op.coordinate_entries()) == upper
    assert op.b_float().tobytes() == np.asarray(b, dtype=float).tobytes()
    return op


def bits_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def float_weight_zigzag():
    alpha = (0.1, 0.3, 0.7, 0.9)
    z = zigzag_interval()
    return StructureSpec(
        "zigzag-float", 4, 2, z.relation, z.group, alpha, tuple(0.21 / a for a in alpha)
    )


def mixed_weight_interval():
    # exact energy weights, float measure weights
    return StructureSpec(
        "interval-mixed", 2, 2, (((0, 1), (1, 0)),), ((0, 1),),
        (Fraction(2, 7), Fraction(5, 7)), (5 / 7, 2 / 7),
    )


CASES = {**STRUCTURES, "zigzag-float": float_weight_zigzag(), "interval-mixed": mixed_weight_interval()}


def rational_base(spec):
    n0 = spec.N0
    a = tuple(
        tuple(Fraction(0) if x == y else Fraction(x + y + 1, 3) for y in range(n0))
        for x in range(n0)
    )
    return BaseOperator(a=a, b=tuple(Fraction(2 * x + 1, 5) for x in range(n0)))


@pytest.mark.parametrize("name", CASES)
def test_arrays_match_reference_loops(name):
    spec = CASES[name]
    ctx = RenormContext.build(spec)
    rng = np.random.default_rng(11)
    for n in range(6):
        lat = check_level(spec, n)
        for base in (laplacian_base(spec), rational_base(spec)):
            check_assembly(base, spec, lat)
        if n > 3:
            continue
        Qe = np.array(rational_base(spec).matrix(), dtype=object)
        Qc = rng.standard_normal((spec.N0,) * 2) + 1j * rng.standard_normal((spec.N0,) * 2)
        Qc[0, -1] = 0
        for Q in (Qe, Qc):
            got, want = level_matrix(ctx, Q, lat), ref_level_matrix(spec, Q, n)
            if want.dtype == object:
                assert got.dtype == object and (got == want).all()
            else:
                assert bits_equal(got, want)


def test_float_base_on_exact_weights():
    spec = STRUCTURES["interval:1/3"]
    base = BaseOperator(a=((0.0, 0.7), (0.7, 0.0)), b=(0.3, 0.6))
    for n in range(5):
        op = check_assembly(base, spec, check_level(spec, n))
        assert op.a_sums[2] is None


def test_wide_numerators_take_python_ints():
    # c = (1000002, 1) over Q = 1000002: 1000002^4 > 2^53 forces object sums
    spec = builtin_interval(Fraction(1, 1000003))
    lat = check_level(spec, 4)
    op = check_assembly(laplacian_base(spec), spec, lat)
    assert op.a_sums[1].dtype == object
    assert assemble(laplacian_base(spec), spec, build_level(spec, 2)).a_sums[1].dtype == np.int64


def test_cell_vertices_reads_cell_rows():
    spec = STRUCTURES["gasket"]
    lat = build_level(spec, 3)
    word_to_id = ref_build_level(spec, 3)[0]
    for p in range(4):
        for prefix in _words(3, p):
            want = {v for w, v in word_to_id.items() if w[:p] == prefix}
            got = lat.cell_vertices(prefix)
            assert set(got) == want
            if p < 3:
                assert list(got) == sorted(want)
            else:
                assert got == tuple(word_to_id[prefix + (x,)] for x in range(3))


def test_interior_is_cached_and_read_only():
    lat = build_level(STRUCTURES["gasket"], 2)
    assert lat.interior is lat.interior
    assert lat.interior.tolist() == [v for v in range(lat.num_vertices) if v not in lat.boundary]
    with pytest.raises(ValueError):
        lat.interior[0] = 0
    with pytest.raises(ValueError):
        lat.cell_ids[0, 0] = 1


def test_context_built_once_per_spec():
    spec = STRUCTURES["star"]
    ctx = RenormContext.build(spec)
    again = StructureSpec.from_dict(spec.to_dict())
    assert RenormContext.build(again) is ctx
    for B in ctx.symg_basis:
        with pytest.raises(ValueError):
            B[0, 0] = Fraction(5)
    float_spec = builtin_interval(0.5)
    assert float_spec == builtin_interval(Fraction(1, 2))
    assert RenormContext.build(float_spec) is not RenormContext.build(builtin_interval(Fraction(1, 2)))
    assert not RenormContext.build(float_spec).r.exact


def weight_variants(spec):
    """spec with its exact weights, with float weights, and with exact alpha and float beta."""
    beta = tuple(map(float, spec.beta))
    return spec, replace(spec, alpha=tuple(map(float, spec.alpha)), beta=beta), replace(spec, beta=beta)


@pytest.mark.parametrize("name", STRUCTURES)
def test_weight_tables_match_the_kernel(name):
    for spec in weight_variants(STRUCTURES[name]):
        alpha, beta, N = spec.alpha, spec.beta, spec.N
        for n in range(5):
            lat = build_level(spec, n)
            for (w, den), (want, want_den) in (
                (lat.energy_weights, cell_weights((alpha[0],) * N, alpha, n)),
                (lat.measure_weights, cell_weights(beta, (beta[0],) * N, n)),
            ):
                assert w.dtype == want.dtype and den == want_den
                assert w.tolist() == want.tolist()
                assert [type(v) for v in w.tolist()] == [type(v) for v in want.tolist()]
                assert not w.flags.writeable


def test_level_matrix_computes_the_weight_table_once(monkeypatch):
    spec = STRUCTURES["gasket"]
    ctx = RenormContext(spec=spec, level1=build_level(spec, 1))  # fresh: no table yet
    calls = []

    def counted(*args):
        calls.append(args)
        return cell_weights(*args)

    monkeypatch.setattr(structure, "cell_weights", counted)
    Q = np.arange(9.0).reshape(3, 3) + 1j
    for _ in range(100):
        level_matrix(ctx, Q + Q.T)
    assert len(calls) == 1


def test_level_matrix_refuses_a_lattice_of_another_structure():
    ctx = RenormContext.build(builtin_interval(Fraction(1, 2)))
    for other in (builtin_interval(Fraction(1, 3)), builtin_interval(0.5)):  # 0.5 == 1/2, other type
        with pytest.raises(DimensionError):
            level_matrix(ctx, np.eye(2), build_level(other, 2))


# -- random valid structures -------------------------------------------------------


@st.composite
def valid_structures(draw):
    """Random structures with N <= 4 and N0 <= 3: a spanning tree of glues
    plus an optional extra glue, trivial group, rational weights with
    alpha_i beta_i constant (H); kept when validate_structure passes."""
    N0 = draw(st.integers(2, 3))
    N = draw(st.integers(N0, 4))
    rel = []
    for k in range(1, N):
        parent = draw(st.integers(0, k - 1))
        x = draw(st.sampled_from([p for p in range(N0) if p != parent]))
        y = draw(st.sampled_from([p for p in range(N0) if p != k]))
        rel.append(((parent, x), (k, y)))
    if draw(st.booleans()):
        rel.append(tuple((draw(st.integers(0, N - 1)), draw(st.integers(0, N0 - 1))) for _ in "ab"))
    alpha = tuple(Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9))) for _ in range(N))
    spec = StructureSpec("random", N, N0, tuple(rel), (tuple(range(N)),), alpha, tuple(1 / a for a in alpha))
    assume(validate_structure(spec).ok)
    return spec


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(valid_structures())
def test_random_structures_match_reference(spec):
    ctx = RenormContext.build(spec)
    for n in range(4):
        lat = check_level(spec, n)
        assert ctx.vertex_count(n) == lat.num_vertices
        check_assembly(rational_base(spec), spec, lat)

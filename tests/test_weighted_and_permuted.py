"""Cases that stress the generic code paths: a zigzag-glued interval whose
cell maps are not order-preserving (sign bookkeeping in the Grassmann lift),
nonuniform vertex weights, float-weight validation, and the exact-zero
Green iterate."""

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy

from fraclat import grassmann as gr
from fraclat.grassmann import _det_exact
from fraclat.operator import BaseOperator, assemble, laplacian_base
from fraclat.renorm import (
    RenormContext,
    dirichlet_poly,
    green_estimate,
    level_matrix,
    neumann_poly,
    phi,
    r_iterate,
    t_iterate,
)
from fraclat.spectral import spectrum
from fraclat.structure import (
    StructureSpec,
    build_level,
    builtin_gasket,
    builtin_interval,
    validate_structure,
)


def zigzag_interval() -> StructureSpec:
    """Four chained cells in spatial order 0, 2r, 3, 1 with cell 2 reversed:
    the induced generator images are non-monotone, so lifted monomials pick
    up nontrivial sorting signs."""
    one = Fraction(1)
    rel = (
        ((0, 1), (2, 1)),
        ((2, 0), (3, 0)),
        ((3, 1), (1, 0)),
    )
    return StructureSpec("zigzag", 4, 2, rel, ((0, 1, 2, 3),), (one,) * 4, (one,) * 4)


@pytest.fixture(scope="module")
def zig():
    return zigzag_interval()


@pytest.fixture(scope="module")
def zig_ctx(zig):
    return RenormContext.build(zig)


def test_zigzag_validates_and_counts(zig):
    assert validate_structure(zig).ok
    for n in range(4):
        assert build_level(zig, n).num_vertices == 4**n + 1


def test_zigzag_cell_maps_not_monotone(zig_ctx):
    # the point of this structure: at least one lift scrambles the order
    assert any(list(img) != sorted(img) for img in zig_ctx.level1.cell_ids.tolist())


def test_zigzag_is_path_graph(zig):
    op = assemble(laplacian_base(zig), zig, build_level(zig, 2))
    A = op.matrix_float()
    degrees = np.diag(A)
    assert sorted(degrees) == [1, 1] + [2] * (op.size - 2)
    # eigenvalues of the b-weighted path pencil match the uniform interval
    # with four subdivisions (the structures are isomorphic)
    ref_spec = builtin_interval(Fraction(1, 2))
    ref = assemble(laplacian_base(ref_spec), ref_spec, build_level(ref_spec, 4))
    w_zig = np.sort(spectrum(op, "neumann").eigenvalues)
    w_ref = np.sort(spectrum(ref, "neumann").eigenvalues)
    assert np.allclose(w_zig, w_ref, atol=1e-10)


def test_zigzag_consistency_identity(zig, zig_ctx):
    # R(exp_q Q) = det((Q_<1>)|interior) exp_q(T Q) exactly, despite the
    # non-monotone generator images
    rng = np.random.default_rng(0)
    for _ in range(5):
        vals = [Fraction(int(v), 3) for v in rng.integers(-6, 7, 3)]
        Q = np.array([[vals[0], vals[2]], [vals[2], vals[1]]], dtype=object)
        lhs = r_iterate(zig_ctx, gr.exp_q(Q), 1)
        lat = build_level(zig, 1)
        Qn = level_matrix(zig_ctx, Q, lat)
        interior = [v for v in range(lat.num_vertices) if v not in lat.boundary]
        det_int = _det_exact([[Qn[i, j] for j in interior] for i in interior])
        rhs = gr.exp_q(t_iterate(zig_ctx, Q, 1)).map_coeffs(lambda v: det_int * v)
        assert (lhs - rhs).is_zero()


def test_zigzag_dirichlet_poly_matches_eigensolve(zig, zig_ctx):
    base = laplacian_base(zig)
    op = assemble(base, zig, build_level(zig, 1))
    lam = sympy.Symbol("lam")
    coeffs = dirichlet_poly(zig_ctx, base, 1)
    P = sympy.Poly(
        sum(sympy.Rational(c.numerator, c.denominator) * lam**k for k, c in enumerate(coeffs)),
        lam,
    )
    roots = sorted(float(r) for r in P.real_roots())
    pencil = sorted(-spectrum(op, "dirichlet").eigenvalues)
    assert np.allclose(roots, pencil, atol=1e-10)


def test_weighted_vertex_measure_polys():
    # nonuniform b = (2, 3) on the interval: phi carries diag(b) into the
    # exact pipeline and the roots still match the weighted eigensolve
    spec = builtin_interval(Fraction(1, 2))
    base = BaseOperator(
        a=((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))),
        b=(Fraction(2), Fraction(3)),
    )
    ctx = RenormContext.build(spec)
    lam = sympy.Symbol("lam")
    for n in (1, 2):
        op = assemble(base, spec, build_level(spec, n))
        for coeffs, bc in (
            (dirichlet_poly(ctx, base, n), "dirichlet"),
            (neumann_poly(ctx, base, n), "neumann"),
        ):
            P = sympy.Poly(
                sum(
                    sympy.Rational(c.numerator, c.denominator) * lam**k
                    for k, c in enumerate(coeffs)
                ),
                lam,
            )
            roots = sorted(float(r) for r in P.real_roots())
            pencil = sorted(-spectrum(op, bc).eigenvalues)
            assert len(roots) == len(pencil)
            assert np.allclose(roots, pencil, atol=1e-8)


def test_float_alpha_validates():
    spec = builtin_interval(0.3)
    report = validate_structure(spec)
    assert report.ok  # (H) checked to 1e-12 on the float path


def test_green_exact_zero_iterate():
    # [[1,0],[0,-1]] sits on the zero hypersurface of R for alpha = 1/2:
    # the estimator reports -inf and the hitting index
    spec = builtin_interval(Fraction(1, 2))
    ctx = RenormContext.build(spec)
    X = gr.exp_q(np.array([[1.0, 0.0], [0.0, -1.0]]))
    est = green_estimate(ctx, X, n_max=10)
    assert est.hit_zero
    assert est.value == -math.inf
    assert est.iterations == 1


def star_structure() -> StructureSpec:
    """Three interval cells glued at a common center: a branching structure
    whose third cell has a tip outside the boundary set."""
    one = Fraction(1)
    return StructureSpec(
        "star", 3, 2, (((0, 1), (1, 0)), ((1, 0), (2, 0))), ((0, 1, 2),),
        (one,) * 3, (one,) * 3,
    )


def test_star_structure_end_to_end():
    star = star_structure()
    assert validate_structure(star).ok
    for n in range(4):
        assert build_level(star, n).num_vertices == 3**n + 1
    ctx = RenormContext.build(star)
    assert len(ctx.symg_basis) == 3
    rng = np.random.default_rng(7)
    for n in (1, 2):
        vals = [Fraction(int(v), 3) for v in rng.integers(-6, 7, 3)]
        Q = np.array([[vals[0], vals[2]], [vals[2], vals[1]]], dtype=object)
        lhs = r_iterate(ctx, gr.exp_q(Q), n)
        lat = build_level(star, n)
        Qn = level_matrix(ctx, Q, lat)
        interior = [v for v in range(lat.num_vertices) if v not in lat.boundary]
        det_int = _det_exact([[Qn[i, j] for j in interior] for i in interior])
        rhs = gr.exp_q(t_iterate(ctx, Q, n)).map_coeffs(
            lambda v: ctx.c_constant(n) * det_int * v
        )
        assert (lhs - rhs).is_zero()
    base = laplacian_base(star)
    op = assemble(base, star, build_level(star, 2))
    lam = sympy.Symbol("lam")
    coeffs = dirichlet_poly(ctx, base, 2)
    P = sympy.Poly(
        sum(sympy.Rational(c.numerator, c.denominator) * lam**k for k, c in enumerate(coeffs)),
        lam,
    )
    roots = sorted(float(r) for r in P.real_roots())
    pencil = sorted(-spectrum(op, "dirichlet").eigenvalues)
    assert len(roots) == len(pencil)
    assert np.allclose(roots, pencil, atol=1e-9)


def symmetric_interval() -> StructureSpec:
    """Unit interval with the end-swapping symmetry; forces alpha = 1/2."""
    h = Fraction(1, 2)
    return StructureSpec(
        "mirror-interval", 2, 2, (((0, 1), (1, 0)),), ((0, 1), (1, 0)), (h, h), (h, h)
    )


def test_flip_group_interval():
    spec = symmetric_interval()
    assert validate_structure(spec).ok
    ctx = RenormContext.build(spec)
    assert len(ctx.symg_basis) == 2  # diagonal orbit + off-diagonal orbit
    rng = np.random.default_rng(5)
    from fraclat.renorm import is_g_invariant, t_map

    for _ in range(5):
        c0, c1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        Q = c0 * np.asarray(ctx.symg_basis[0], dtype=complex) + c1 * np.asarray(
            ctx.symg_basis[1], dtype=complex
        )
        assert is_g_invariant(spec, t_map(ctx, Q), tol=1e-12)


def test_structure_file_end_to_end(tmp_path):
    import json

    from fraclat.cli import EXIT_OK, run

    spec = zigzag_interval()
    path = tmp_path / "zigzag.json"
    path.write_text(json.dumps(spec.to_dict()))
    assert run(["validate", "--structure", str(path)]) == EXIT_OK
    assert run(
        ["spectrum", "--structure", str(path), "--level", "2", "--out", str(tmp_path)]
    ) == EXIT_OK
    content = (tmp_path / "zigzag_n2_neumann.csv").read_text().splitlines()
    assert content[1] == "lambda,multiplicity"
    assert len(content) == 2 + 17  # 4^2 + 1 simple eigenvalues


def test_rho_monotone_in_level(gasket_ctx, gasket_base):
    # rho_{n+1} >= N rho_n at a fixed point of the spectral parameter
    from fraclat.renorm import rho_n

    vals = [0, 0, 3, 12]  # rho_n at lambda0 = -3 for n = 0..3
    for n in (1, 2, 3):
        got = rho_n(gasket_ctx, gasket_base, -3.0, n)
        assert got == vals[n]
        assert got >= 3 * vals[n - 1]


STRUCTURES = {
    "gasket": builtin_gasket(),
    "interval:1/3": builtin_interval(Fraction(1, 3)),
    "zigzag": zigzag_interval(),
    "star": star_structure(),
    "mirror-interval": symmetric_interval(),
}


@pytest.mark.parametrize("name", STRUCTURES)
def test_vertex_count_recursion(name):
    spec = STRUCTURES[name]
    ctx = RenormContext.build(spec)
    for n in range(6):
        assert ctx.vertex_count(n) == build_level(spec, n).num_vertices


@pytest.mark.parametrize("name", STRUCTURES)
def test_level_matrix_equals_assembly(name):
    # Q_<n> of the base matrix and the assembled A_n share the cell loop;
    # with exact weights they must agree entry for entry
    spec = STRUCTURES[name]
    ctx = RenormContext.build(spec)
    n0 = spec.N0
    a = tuple(
        tuple(Fraction(0) if x == y else Fraction(x + y + 1, 2) for y in range(n0))
        for x in range(n0)
    )
    base = BaseOperator(a=a, b=(Fraction(1),) * n0)
    for n in range(4):
        lat = build_level(spec, n)
        op = assemble(base, spec, lat)
        dense = np.full((lat.num_vertices,) * 2, Fraction(0), dtype=object)
        for (i, j), v in op.entries.items():
            dense[i, j] = v
        Qn = level_matrix(ctx, base.matrix(), lat)
        assert Qn.dtype == object
        assert (Qn == dense).all()

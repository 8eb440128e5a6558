from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclat import schur
from fraclat.grassmann import _det_exact, basis, exp_q, exp_q_rows, nd_order
from fraclat.renorm import RenormContext, t_map
from fraclat.schur import (
    TracePoleError,
    _eliminate,
    harmonic_prolongation,
    in_siegel_halfspace,
    trace_on_subset,
)
from fraclat.structure import builtin_interval, numeric


def rand_spd(rng, n):
    M = rng.standard_normal((n, n))
    return M @ M.T + n * np.eye(n)


def rand_siegel(rng, n):
    re = rng.standard_normal((n, n))
    im = rng.standard_normal((n, n))
    return (re + re.T) / 2 + 1j * (im @ im.T + 0.2 * np.eye(n))


def test_diagonal_trace_is_restriction():
    Q = np.diag([2.0, 3.0, 5.0, 7.0])
    out = trace_on_subset(Q, [0, 2])
    assert np.allclose(out, np.diag([2.0, 5.0]))


def test_two_by_two_value():
    Q = np.array([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]], dtype=object)
    out = trace_on_subset(Q, [0])
    assert out[0, 0] == Fraction(3, 2)


def test_matches_inverse_restrict_invert():
    rng = np.random.default_rng(0)
    for _ in range(25):
        Q = rand_spd(rng, 6)
        keep = [0, 2, 5]
        direct = trace_on_subset(Q, keep)
        oracle = np.linalg.inv(np.linalg.inv(Q)[np.ix_(keep, keep)])
        assert np.max(np.abs(direct - oracle)) <= 1e-10 * np.max(np.abs(oracle))


def test_singular_interior_raises():
    Q = np.zeros((3, 3))
    Q[0, 0] = 1.0
    with pytest.raises(TracePoleError):
        trace_on_subset(Q, [0])


def test_harmonic_prolongation_properties():
    rng = np.random.default_rng(1)
    Q = rand_spd(rng, 6)
    keep = [1, 3]
    f = rng.standard_normal(2)
    H = harmonic_prolongation(Q, keep, f)
    assert np.allclose(H[keep], f)
    drop = [i for i in range(6) if i not in keep]
    assert np.max(np.abs((Q @ H)[drop])) <= 1e-10
    assert np.allclose(trace_on_subset(Q, keep) @ f, (Q @ H)[keep])


def test_identity_prolongation_is_zero_extension():
    # with Q = Id the prolongation leaves the subset values and puts 0 inside
    f = np.array([2.0, -1.0, 0.5])
    H = harmonic_prolongation(np.eye(6), [0, 3, 5], f)
    assert np.allclose(H[[0, 3, 5]], f)
    assert np.allclose(H[[1, 2, 4]], 0)


def test_zero_boundary_data():
    rng = np.random.default_rng(2)
    Q = rand_spd(rng, 5)
    H = harmonic_prolongation(Q, [0, 1], np.zeros(2))
    assert np.allclose(H, 0)


def test_variational_characterization():
    # <Q_F' f, f> minimizes <Qg, g> over extensions; compare with the
    # stationarity-system least-squares solve
    rng = np.random.default_rng(3)
    for _ in range(10):
        Q = rand_spd(rng, 6)
        keep = [0, 4]
        drop = [1, 2, 3, 5]
        f = rng.standard_normal(2)
        direct = f @ trace_on_subset(Q, keep) @ f
        g_int, *_ = np.linalg.lstsq(Q[np.ix_(drop, drop)], -Q[np.ix_(drop, keep)] @ f, rcond=None)
        g = np.zeros(6)
        g[keep] = f
        g[drop] = g_int
        assert direct == pytest.approx(g @ Q @ g, rel=1e-10)
        for _ in range(5):  # any other extension does worse
            h = g.copy()
            h[drop] += rng.standard_normal(4)
            assert h @ Q @ h >= direct - 1e-10


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_tower_property(seed):
    rng = np.random.default_rng(seed)
    Q = rand_spd(rng, 6)
    inner = [0, 2]
    outer = [0, 2, 3, 5]
    once = trace_on_subset(Q, inner)
    # positions of `inner` inside `outer`
    twice = trace_on_subset(trace_on_subset(Q, outer), [0, 1])
    assert np.max(np.abs(once - twice)) <= 1e-10 * np.max(np.abs(once))


def test_markov_property_preserved():
    rng = np.random.default_rng(5)
    for _ in range(10):
        W = np.abs(rng.standard_normal((5, 5)))
        W = (W + W.T) / 2
        np.fill_diagonal(W, 0)
        Q = np.diag(W.sum(axis=1)) - W
        out = trace_on_subset(Q, [0, 1, 4])
        assert np.allclose(out.sum(axis=1), 0, atol=1e-10)
        off = out - np.diag(np.diag(out))
        assert off.max() <= 1e-10


def test_siegel_inputs_never_pole():
    rng = np.random.default_rng(6)
    for _ in range(100):
        Q = rand_siegel(rng, 6)
        assert in_siegel_halfspace(Q)
        out = trace_on_subset(Q, [0, 1, 2])  # must not raise
        assert out.shape == (3, 3)


# -- the exact elimination kernel ---------------------------------------------------


def rand_rational(rng, rows, cols):
    return [[Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 6))) for _ in range(cols)]
            for _ in range(rows)]


def rand_rational_symmetric(rng, n):
    """A rational symmetric n x n matrix with Q[0, 0] = 0."""
    M = sympy.Matrix(rand_rational(rng, n, n))
    Q = M + M.T
    Q[0, 0] = 0
    return Q


def to_object(M):
    return np.array([[Fraction(int(v.p), int(v.q)) for v in row] for row in M.tolist()], dtype=object)


def test_kernel_determinant_matches_sympy():
    rng = np.random.default_rng(20)
    cases = []
    for k in range(1, 7):
        for _ in range(6):
            cases.append(rand_rational(rng, k, k))
        M = rand_rational(rng, k, k)
        M[0][0] = Fraction(0)  # the first pivot needs a row swap
        cases.append(M)
        M = rand_rational(rng, k, k)
        M[-1] = [2 * v for v in M[0]]  # singular
        cases.append(M)
    cases.append([[0, 1, 2], [0, 3, 4], [0, 5, 6]])  # no pivot in the first column
    cases.append([[0, 1], [1, 0]])
    for M in cases:
        S, det = _eliminate(M, len(M))
        assert isinstance(det, Fraction)
        assert det == sympy.Matrix(M).det()
        assert S == ([] if det else None)
        assert _det_exact(M) == det
    assert _det_exact([]) == 1


def test_kernel_schur_complement_ignores_row_swaps():
    # a zero leading pivot swaps rows inside the block only: the complement is
    # D - C A^-1 B whatever the pivot order
    rng = np.random.default_rng(21)
    for _ in range(20):
        M = sympy.Matrix(rand_rational(rng, 5, 5))
        M[0, 0] = 0
        A, B, C, D = M[:3, :3], M[:3, 3:], M[3:, :3], M[3:, 3:]
        if A.det() == 0:
            continue
        S, det = _eliminate(M.tolist(), 3)
        assert det == A.det()
        assert sympy.Matrix(S) == D - C * A.inv() * B


def test_exact_trace_matches_sympy_inverse_restrict_invert():
    rng = np.random.default_rng(22)
    for n, keep in ((5, [1, 3]), (6, [4, 2, 5]), (4, [3])):
        done = 0
        while done < 5:
            Q = rand_rational_symmetric(rng, n)  # index 0 is dropped: its pivot is 0
            if Q.det() == 0 or Q.inv().extract(keep, keep).det() == 0:
                continue
            drop = [i for i in range(n) if i not in keep]
            if Q.extract(drop, drop).det() == 0:
                continue
            got = trace_on_subset(to_object(Q), keep)
            assert got.tolist() == Q.inv().extract(keep, keep).inv().tolist()
            done += 1


def test_exact_harmonic_prolongation_is_harmonic_off_the_subset():
    rng = np.random.default_rng(23)
    done = 0
    while done < 10:
        Q = rand_rational_symmetric(rng, 6)
        keep = [4, 1]
        drop = [0, 2, 3, 5]
        if Q.extract(drop, drop).det() == 0:
            continue
        Qx = to_object(Q)
        f = np.array(rand_rational(rng, 1, 2)[0], dtype=object)
        H = harmonic_prolongation(Qx, keep, f)
        assert all(isinstance(v, Fraction) for v in H)
        assert (H[keep] == f).all()
        assert all(v == 0 for v in (Qx @ H)[drop])
        assert ((trace_on_subset(Qx, keep) @ f) == (Qx @ H)[keep]).all()
        done += 1


def test_exact_singular_interior_raises():
    Q = np.array([[1, 0, 0], [0, 0, 0], [0, 0, 0]], dtype=object)
    with pytest.raises(TracePoleError):
        trace_on_subset(Q, [0])
    with pytest.raises(TracePoleError):
        harmonic_prolongation(Q, [0], [1])


def test_integer_object_input_gives_fractions():
    Q = np.array([[2, 1, 0], [1, 3, 1], [0, 1, 2]], dtype=object)
    for keep in ([0, 2], [0, 1, 2], [2]):
        out = trace_on_subset(Q, keep)
        assert all(type(v) is Fraction for v in out.ravel())
        out = harmonic_prolongation(Q, keep, [1] * len(keep))
        assert all(type(v) is Fraction for v in out)
    assert trace_on_subset(Q, [0, 2]).tolist() == [[Fraction(5, 3), Fraction(-1, 3)],
                                                    [Fraction(-1, 3), Fraction(5, 3)]]
    assert type(_det_exact(Q.tolist())) is Fraction
    assert type(_det_exact([[0, 1], [0, 1]])) is Fraction
    rows = exp_q_rows(np.array([[[1, 2], [2, 0]]]))
    assert all(type(v) is Fraction for v in rows.ravel())
    # One rule for every entry point: int or Fraction entries throughout give
    # Fractions; any other input float, or complex when any entry is complex.
    ctx = RenormContext.build(builtin_interval())
    Q2 = [[2, -1], [-1, 2]]
    eye = np.eye(2, dtype=int)
    cases = [
        (np.array(Q2), Fraction),
        (np.array([[2, Fraction(-1)], [-1, 2]], dtype=object), Fraction),
        (np.array(Q2, dtype=float).astype(object), float),
        (np.array([[2 + 1j, -1], [-1, 2]], dtype=object), complex),
        (np.array(Q2, dtype=float), float),
    ]

    def check(got, kind, want):
        got = np.asarray(got)
        assert {type(v) for v in got.ravel().tolist()} == {kind}
        assert got.dtype == {Fraction: object, float: np.float64, complex: np.complex128}[kind]
        assert np.allclose(got.astype(complex), np.asarray(want, dtype=complex), rtol=1e-14, atol=0)
        if kind is Fraction:
            assert got.tolist() == np.asarray(want, dtype=object).tolist()

    for Q, kind in cases:
        z = 1j if kind is complex else 0  # the one complex entry sits at Q[0, 0]
        check(trace_on_subset(Q, [0]), kind, [[Fraction(3, 2) + z]])
        check(harmonic_prolongation(Q, [0], [1]), kind, [1, Fraction(1, 2)])
        E = exp_q(Q)  # the unit, the entries of Q and det Q with the interleaving sign -1
        check([E[I, J] for I, J in basis(2)], kind, [1, 2 + z, -1, -1, 2, -3 - 2 * z])
        T = t_map(ctx, Q)
        if kind is Fraction:
            check(T, Fraction, [[Fraction(7, 4), Fraction(-1, 4)], [Fraction(-1, 4), Fraction(7, 4)]])
            assert nd_order(Q - eye, eye, []) == 1
        else:
            assert T.dtype == np.complex128  # t_map keeps complex on its float path
            with pytest.raises(ValueError, match="exact"):
                nd_order(Q - eye, eye, [])
    # a float Q with a complex f: the imaginary part is kept
    check(harmonic_prolongation(np.array(Q2, dtype=float), [0], [1j]), complex, [1j, 0.5j])
    F = np.array(Q2, dtype=float)
    for A in (F, F.astype(complex)):  # float and complex ndarrays are not copied
        assert numeric(A)[1][0] is A


def test_prolongation_takes_one_matrix():
    with pytest.raises(ValueError, match="one matrix"):
        harmonic_prolongation(np.stack([np.eye(4)] * 2), [0, 1], [1.0, 2.0])


def test_exact_paths_share_one_elimination(monkeypatch):
    calls = []
    eliminate = schur._eliminate
    monkeypatch.setattr(schur, "_eliminate", lambda M, k: calls.append((len(M), k)) or eliminate(M, k))
    Q = np.array([[2, 1, 0], [1, 3, 1], [0, 1, 2]], dtype=object)
    _det_exact(Q.tolist())
    assert calls == [(3, 3)]
    calls.clear()
    exp_q_rows(np.stack([Q, Q]))  # 19 minors of each matrix below the unit
    assert len(calls) == 2 * (len(basis(3)) - 1)
    calls.clear()
    trace_on_subset(np.stack([Q, Q]), [0])
    assert calls == [(3, 2), (3, 2)]
    calls.clear()
    harmonic_prolongation(Q, [0], [1])  # bordered: 2 interior rows over 2 identity rows
    assert calls == [(4, 2)]
    calls.clear()
    trace_on_subset(Q.astype(float), [0])  # float input never takes the exact kernel
    assert calls == []

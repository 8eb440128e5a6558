"""Trace of a complex symmetric matrix on an index subset (Schur complement).

trace_on_subset(Q, F') = Q|F' - B (Q|F\\F')^{-1} B^t, the effective
operator seen from F'; equals ((Q^{-1})|F')^{-1} when Q is invertible.
Works on float/complex arrays and on exact (Fraction) object arrays.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

RCOND_SINGULAR = 1e-13


class TracePoleError(ArithmeticError):
    """Interior block singular: the rational trace map has a pole here."""


def _partition(Q: np.ndarray, subset) -> tuple[np.ndarray, list[int], list[int]]:
    n = Q.shape[0]
    if Q.shape != (n, n):
        raise ValueError("Q must be square")
    keep = sorted(set(int(i) for i in subset))
    if keep and not (0 <= keep[0] and keep[-1] < n):
        raise ValueError("subset out of range")
    drop = [i for i in range(n) if i not in set(keep)]
    return Q, keep, drop


def _exact_solve(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Fraction-exact Gaussian elimination with partial (nonzero) pivoting."""
    n = M.shape[0]
    aug = [[Fraction(M[i, j]) for j in range(n)] + [rhs[i, k] for k in range(rhs.shape[1])]
           for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise TracePoleError("pole of the trace map: singular interior block")
        aug[col], aug[piv] = aug[piv], aug[col]
        pval = aug[col][col]
        aug[col] = [v / pval for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    out = np.empty((n, rhs.shape[1]), dtype=object)
    for i in range(n):
        for k in range(rhs.shape[1]):
            out[i, k] = aug[i][n + k]
    return out


def _interior_solve(Qdd: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the interior block against rhs, raising on (near-)singularity."""
    if Qdd.shape[0] == 0:
        return rhs[:0]
    if Qdd.dtype == object:
        return _exact_solve(Qdd, rhs)
    sv = np.linalg.svd(Qdd, compute_uv=False)
    if sv[-1] <= RCOND_SINGULAR * sv[0] or sv[0] == 0:
        raise TracePoleError("pole of the trace map: singular interior block")
    return np.linalg.solve(Qdd, rhs)


def trace_on_subset(Q: np.ndarray, subset) -> np.ndarray:
    """Schur complement of Q onto the given index subset."""
    Q, keep, drop = _partition(np.asarray(Q), subset)
    if not drop:
        return Q[np.ix_(keep, keep)].copy()
    if not keep:
        return Q[:0, :0].copy()
    Qff = Q[np.ix_(keep, keep)]
    B = Q[np.ix_(keep, drop)]
    Qdd = Q[np.ix_(drop, drop)]
    X = _interior_solve(Qdd, Q[np.ix_(drop, keep)])
    return Qff - B @ X


def harmonic_prolongation(Q: np.ndarray, subset, f) -> np.ndarray:
    """Extend f on F' to F with (Q Hf) = 0 off F' and Hf = f on F'."""
    Q, keep, drop = _partition(np.asarray(Q), subset)
    f = np.asarray(f)
    if f.shape[0] != len(keep):
        raise ValueError("f must live on the subset")
    out = np.empty(Q.shape[0], dtype=Q.dtype)  # keep and drop cover every index
    for pos, i in enumerate(keep):
        out[i] = f[pos]
    if drop:
        rhs = Q[np.ix_(drop, keep)] @ f.reshape(-1, 1)
        X = _interior_solve(Q[np.ix_(drop, drop)], rhs)
        for pos, i in enumerate(drop):
            out[i] = -X[pos, 0]
    return out


def in_siegel_halfspace(Q: np.ndarray, tol: float = 0.0) -> bool:
    """True when Im(Q) is positive definite (symmetric part check)."""
    im = np.imag(np.asarray(Q, dtype=complex))
    w = np.linalg.eigvalsh(0.5 * (im + im.T))
    return bool(w[0] > tol)

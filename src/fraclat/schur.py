"""Trace of a complex symmetric matrix on an index subset (Schur complement).

trace_on_subset(Q, F') = Q|F' - B (Q|F\\F')^{-1} B^t, the effective
operator seen from F'; equals ((Q^{-1})|F')^{-1} when Q is invertible.
Works on float/complex arrays and on exact (Fraction) object arrays, of one
matrix or of a (..., n, n) stack; exact and float input differ only in the
interior solve.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

RCOND_SINGULAR = 1e-13


class TracePoleError(ArithmeticError):
    """Interior block singular: the rational trace map has a pole here."""


def _partition(Q: np.ndarray, subset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Q, the kept indices in the order given and the dropped ones ascending."""
    n = Q.shape[-1]
    if Q.ndim < 2 or Q.shape[-2] != n:
        raise ValueError("Q must be square")
    keep = [int(i) for i in subset]
    kept = set(keep)
    if len(kept) != len(keep) or not kept <= set(range(n)):
        raise ValueError("subset must list distinct indices of Q")
    drop = [i for i in range(n) if i not in kept]
    return Q, np.array(keep, dtype=np.intp), np.array(drop, dtype=np.intp)


def _exact_solve(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Fraction-exact Gaussian elimination with partial (nonzero) pivoting."""
    n = M.shape[0]
    aug = [[Fraction(v) for v in M[i]] + list(rhs[i]) for i in range(n)]
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
    return np.array([row[n:] for row in aug], dtype=object).reshape(rhs.shape)


def _interior_solve(Qdd: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve every interior block of the stack against rhs, raising on
    (near-)singularity of any of them."""
    if Qdd.shape[-1] == 0:
        return rhs[..., :0, :]
    if Qdd.dtype == object:
        pairs = zip(Qdd.reshape(-1, *Qdd.shape[-2:]), rhs.reshape(-1, *rhs.shape[-2:]))
        return np.array([_exact_solve(M, r) for M, r in pairs], dtype=object).reshape(rhs.shape)
    sv = np.linalg.svd(Qdd, compute_uv=False)
    if np.any((sv[..., -1] <= RCOND_SINGULAR * sv[..., 0]) | (sv[..., 0] == 0)):
        raise TracePoleError("pole of the trace map: singular interior block")
    return np.linalg.solve(Qdd, rhs)


def trace_on_subset(Q: np.ndarray, subset) -> np.ndarray:
    """Schur complement of Q, or of every matrix of a (..., n, n) stack, onto
    the index subset, in the order the subset lists it."""
    Q, keep, drop = _partition(np.asarray(Q), subset)
    Qff = Q[..., keep[:, None], keep]
    if not len(drop) or not len(keep):
        return Qff
    X = _interior_solve(Q[..., drop[:, None], drop], Q[..., drop[:, None], keep])
    return Qff - Q[..., keep[:, None], drop] @ X


def harmonic_prolongation(Q: np.ndarray, subset, f) -> np.ndarray:
    """Extend f on F' to F with (Q Hf) = 0 off F' and Hf = f on F'."""
    Q, keep, drop = _partition(np.asarray(Q), subset)
    f = np.asarray(f)
    if f.shape[0] != len(keep):
        raise ValueError("f must live on the subset")
    out = np.empty(Q.shape[0], dtype=Q.dtype)  # keep and drop cover every index
    out[keep] = f
    if len(drop):
        X = _interior_solve(Q[drop[:, None], drop], Q[drop[:, None], keep] @ f.reshape(-1, 1))
        out[drop] = -X[:, 0]
    return out


def in_siegel_halfspace(Q: np.ndarray, tol: float = 0.0) -> bool:
    """True when Im(Q) is positive definite (symmetric part check)."""
    im = np.imag(np.asarray(Q, dtype=complex))
    w = np.linalg.eigvalsh(0.5 * (im + im.T))
    return bool(w[0] > tol)

"""Trace of a complex symmetric matrix on an index subset (Schur complement).

trace_on_subset(Q, F') = Q|F' - B (Q|F\\F')^{-1} B^t, the effective
operator seen from F'; equals ((Q^{-1})|F')^{-1} when Q is invertible.
Works on one matrix or a (..., n, n) stack: float/complex input with an SVD
pole check and LAPACK solves, exact (object) input with _eliminate, one
Fraction elimination giving the Schur complement and the interior
determinant together, which grassmann's exact determinants use too.
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


def _eliminate(M, k: int) -> tuple[list | None, Fraction]:
    """(Schur complement, determinant) of the leading k x k block of the rows
    M, in Fractions, or (None, 0) when the block is singular.  A zero pivot
    is swapped with a later row of the block, which keeps the complement."""
    A = [[Fraction(v) for v in row] for row in M]
    det = Fraction(1)
    for c in range(k):
        p = A[c][c]
        if not p:
            for r in range(c + 1, k):
                if A[r][c]:
                    break
            else:
                return None, Fraction(0)
            A[c], A[r] = A[r], A[c]
            p, det = A[c][c], -det
        det *= p
        pivot_row = A[c]
        for row in A[c + 1:]:
            f = row[c]
            if f:
                f /= p
                for j in range(c + 1, len(row)):
                    row[j] -= f * pivot_row[j]
    return [row[k:] for row in A[k:]], det


def _complement(M, k: int) -> list:
    """_eliminate's Schur complement, raising TracePoleError on a singular block."""
    S, _ = _eliminate(M, k)
    if S is None:
        raise TracePoleError("pole of the trace map: singular interior block")
    return S


def _interior_solve(Qdd: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve each float interior block against rhs; raise if any is near-singular."""
    sv = np.linalg.svd(Qdd, compute_uv=False)
    if np.any((sv[..., -1] <= RCOND_SINGULAR * sv[..., 0]) | (sv[..., 0] == 0)):
        raise TracePoleError("pole of the trace map: singular interior block")
    return np.linalg.solve(Qdd, rhs)


def trace_on_subset(Q: np.ndarray, subset) -> np.ndarray:
    """Schur complement of Q, or of every matrix of a (..., n, n) stack, onto
    the index subset, in the order the subset lists it."""
    Q, keep, drop = _partition(np.asarray(Q), subset)
    Qff = Q[..., keep[:, None], keep]
    if Q.dtype == object and len(keep):  # each matrix reordered dropped-then-kept
        order = np.concatenate([drop, keep])
        stack = Q[..., order[:, None], order].reshape(-1, len(order), len(order))
        return np.array([_complement(M.tolist(), len(drop)) for M in stack], dtype=object).reshape(Qff.shape)
    if not len(drop) or not len(keep):
        return Qff
    X = _interior_solve(Q[..., drop[:, None], drop], Q[..., drop[:, None], keep])
    return Qff - Q[..., keep[:, None], drop] @ X


def harmonic_prolongation(Q: np.ndarray, subset, f) -> np.ndarray:
    """Extend f on F' to F with (Q Hf) = 0 off F' and Hf = f on F'.  On exact
    input Hf off F' is the Schur complement of [[Q_dd, Q_dk f], [I, 0]]."""
    Q, keep, drop = _partition(np.asarray(Q), subset)
    if Q.ndim != 2:
        raise ValueError("harmonic_prolongation takes one matrix, not a stack")
    f = np.asarray(f)
    if f.shape[0] != len(keep):
        raise ValueError("f must live on the subset")
    exact = Q.dtype == object
    out = np.empty(Q.shape[0], dtype=Q.dtype)  # keep and drop cover every index
    out[keep] = [Fraction(v) for v in f] if exact else f
    g = Q[drop[:, None], keep] @ f.reshape(-1, 1)
    if exact:
        eye = np.eye(len(drop), len(drop) + 1, dtype=int)  # the [I, 0] rows
        bordered = np.vstack([np.hstack([Q[drop[:, None], drop], g]), eye]).tolist()
        out[drop] = [v for (v,) in _complement(bordered, len(drop))]
    elif len(drop):
        out[drop] = -_interior_solve(Q[drop[:, None], drop], g)[:, 0]
    return out


def in_siegel_halfspace(Q: np.ndarray, tol: float = 0.0) -> bool:
    """True when Im(Q) is positive definite (symmetric part check)."""
    im = np.imag(np.asarray(Q, dtype=complex))
    w = np.linalg.eigvalsh(0.5 * (im + im.T))
    return bool(w[0] > tol)

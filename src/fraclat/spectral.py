"""Eigensolving, counting measures and Neumann-Dirichlet spectrum detection.

Eigenvalues are reported in the difference-operator convention (all <= 0):
an eigenpair solves A_n f = -lambda * b_n f.  The Neumann-Dirichlet
multiplicity of a Dirichlet eigenvalue lambda is the dimension of
{f : f = 0 on the boundary, (A_n + lambda diag(b_n)) f = 0}.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .operator import LevelOperator, scaled_pencil, sums_float

DEFAULT_MERGE_TOL = 1e-7
DEFAULT_NULLITY_TOL = 1e-8
DENSE_CEILING = 12000
_EPS = float(np.finfo(float).eps)


class SizeCeilingError(RuntimeError):
    pass


# -- atomic measures ----------------------------------------------------------


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite atomic measure: sorted (location, mass) atoms.

    Locations within ``merge_tol`` coalesce with masses added.  Masses may
    be exact Fractions (limit measures) or floats (counting measures).
    """

    atoms: tuple[tuple[float, object], ...]
    merge_tol: float = DEFAULT_MERGE_TOL

    @classmethod
    def from_points(cls, locations, merge_tol: float = DEFAULT_MERGE_TOL):
        return cls.from_atoms([(x, 1) for x in locations], merge_tol)

    @classmethod
    def from_atoms(cls, atoms, merge_tol: float = DEFAULT_MERGE_TOL):
        merged: list[list] = []
        for loc, mass in sorted(atoms, key=lambda t: float(t[0])):
            if mass == 0:
                continue
            if mass < 0:
                raise ValueError("masses must be positive")
            if merged and float(loc) - float(merged[-1][0]) <= merge_tol:
                tot = merged[-1][1] + mass
                merged[-1][0] = (
                    float(merged[-1][0]) * float(merged[-1][1]) + float(loc) * float(mass)
                ) / float(tot)
                merged[-1][1] = tot
            else:
                merged.append([loc, mass])
        return cls(tuple((loc, mass) for loc, mass in merged), merge_tol)

    @property
    def total_mass(self):
        return sum((m for _, m in self.atoms), 0)

    @property
    def locations(self) -> tuple:
        return tuple(loc for loc, _ in self.atoms)

    def mass_at(self, location: float, tol: float | None = None):
        tol = self.merge_tol if tol is None else tol
        return sum(m for loc, m in self.atoms if abs(float(loc) - location) <= tol)

    def scale(self, c) -> "AtomicMeasure":
        if not c > 0:
            raise ValueError("scale factor must be positive")
        return AtomicMeasure(
            tuple((loc, m * c) for loc, m in self.atoms), self.merge_tol
        )

    def cdf(self, lam: float) -> float:
        """Mass carried by [lam, 0] (spectral repartition function)."""
        return float(
            sum(m for loc, m in self.atoms if lam <= float(loc) <= 0.0)
        )


def counting_measure(eig: "EigenDecomposition", merge_tol=DEFAULT_MERGE_TOL) -> AtomicMeasure:
    return AtomicMeasure.from_points(eig.eigenvalues, merge_tol)


def sup_cdf_distance(m1: AtomicMeasure, m2: AtomicMeasure) -> float:
    """Kolmogorov distance of the repartition functions, with atoms closer
    than the merge tolerance treated as aligned: the sup runs over points
    strictly between location clusters (pointwise evaluation at jittered
    jumps would report the whole jump)."""
    tol = max(m1.merge_tol, m2.merge_tol)
    locs = sorted(float(loc) for loc, _ in m1.atoms + m2.atoms)
    if not locs:
        return 0.0
    probes = [locs[0] - 1.0]
    for a, b in zip(locs[:-1], locs[1:]):
        if b - a > tol:
            probes.append(0.5 * (a + b))
    probes.append(locs[-1] + max(tol, 1e-9))
    return max(abs(m1.cdf(q) - m2.cdf(q)) for q in probes)


def dominates(m1: AtomicMeasure, m2: AtomicMeasure, tol: float = 1e-9) -> bool:
    """True when m1 >= m2 atomwise: every atom of m2 is covered (within the
    coarser merge_tol) by at least as much m1 mass."""
    wtol = max(m1.merge_tol, m2.merge_tol)
    for loc, mass in m2.atoms:
        if m1.mass_at(float(loc), wtol) < float(mass) - tol:
            return False
    return True


# -- eigensolving -------------------------------------------------------------


@dataclass(frozen=True)
class EigenDecomposition:
    """Full spectrum of a (A, diag(b)) pencil, in operator convention.

    ``eigenvalues`` are <= 0 and descending.  ``eigenvectors`` is None
    unless the solve asked for vectors; then ``eigenvectors[:, k]`` is
    b-orthonormal and solves A v = -eigenvalue_k * b v.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    b: np.ndarray

    @property
    def size(self) -> int:
        return len(self.eigenvalues)

    def residual(self, A: np.ndarray) -> float:
        if self.eigenvectors is None:
            raise ValueError(
                "residual needs eigenvectors: solve with spectrum(op, bc, vectors=True)"
            )
        R = A @ self.eigenvectors + (self.b[:, None] * self.eigenvectors) * (
            self.eigenvalues[None, :]
        )
        return float(np.max(np.abs(R))) if R.size else 0.0


@cache
def _blas_threads_query():
    """OpenBLAS's thread-count call in the loaded library, or None where
    no OpenBLAS is mapped into the process or /proc/self/maps is absent."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn
    return None


def _solver_workers() -> int:
    """Two workers when two solves fit the cores side by side: BLAS runs
    one thread per call and the process may use two CPUs or more.  One
    otherwise: a multi-threaded BLAS already spreads one solve over the
    cores, and a BLAS whose thread count cannot be read is treated as
    multi-threaded."""
    query = _blas_threads_query()
    if query is None or query() != 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(2, cpus)


_POOLS: dict = {}


def _pool() -> ThreadPoolExecutor:
    """The solver pool of this process at the current worker count.  It is
    kept across calls: a pool started per call added 0.2 ms to a spectra()
    call at V = 42 and 0.5 ms at V = 366.  The key holds the process id,
    since a forked child has none of its parent's worker threads.  Two
    threads that both miss insert through setdefault and share one pool;
    the other executor never started a thread."""
    key = (os.getpid(), _solver_workers())
    pool = _POOLS.get(key)
    if pool is None:
        pool = _POOLS.setdefault(key, ThreadPoolExecutor(key[1], thread_name_prefix="fraclat-solver"))
    return pool


# While spectra() runs, its calling thread's (op, {bc: future}).  It is kept
# per thread, not on the operator, so threads may share one operator.
_HANDOFF = threading.local()


def _handed(op: LevelOperator, boundary_condition: str):
    """The pencil eigenvalues spectra() solves on the pool for ``op`` under
    ``boundary_condition`` in this thread, raising what the solve raised;
    None where spectra() started no such solve.  Each result is taken once.
    The first take waits for both solves: one wake-up of the calling
    thread per pair, and neither solve is left running when one raises."""
    solves = getattr(_HANDOFF, "solves", None)
    if solves is None or solves[0] is not op or boundary_condition not in solves[1]:
        return None
    futures = solves[1]
    wait(futures.values())
    return futures.pop(boundary_condition).result()


def _decomposition(w: np.ndarray, U: np.ndarray | None, b: np.ndarray) -> EigenDecomposition:
    """Operator convention from ascending pencil eigenvalues: negated, with
    every value within rounding of zero (|w| <= len(w) eps max|w|, the
    rank tolerance of numpy's matrix_rank) set to 0 and the rest clipped to
    <= 0.  The Neumann zero mode rounds to either sign; reported as 0 it
    keeps its mass in the repartition function on [0, 0]."""
    lam = -w
    if len(w):  # ascending: max|w| is at an end
        lam[np.abs(w) <= len(w) * _EPS * max(-w[0], w[-1])] = 0.0
    return EigenDecomposition(eigenvalues=np.minimum(lam, 0.0) + 0.0, eigenvectors=U, b=b)


# Peak float64 V x V arrays of a dense solve: the peak-RSS rise over
# 8 V^2 bytes at V = 3282 (gasket level 7).  Without vectors, spectra()
# holds its shared pencil and LAPACK's copies of the Neumann and Dirichlet
# blocks (3.03); one spectrum() call holds one copy fewer (2.03).  With
# vectors, the pencil, LAPACK's copy, the divide-and-conquer workspace
# (2 V^2) and the eigenvectors: 5.04, and 5.30 at V = 1095.  nd_spectrum
# then adds N0 x V flux arrays and no dense A_n, which leaves both rises
# unchanged.  6 leaves at least 0.7 V^2 of margin.
SOLVE_ARRAYS = {False: 3, True: 6}


def _mem_available() -> int | None:
    """MemAvailable of /proc/meminfo in bytes; None where it cannot be read."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def _check_dense_size(size: int, vectors: bool) -> None:
    if size > DENSE_CEILING:
        raise SizeCeilingError(
            f"problem size {size} exceeds dense ceiling {DENSE_CEILING}"
        )
    need = SOLVE_ARRAYS[vectors] * 8 * size * size
    avail = _mem_available()
    if avail is not None and need > avail:
        raise SizeCeilingError(
            f"dense solve at size {size} needs about {need / 2**30:.2f} GiB, "
            f"{avail / 2**30:.2f} GiB available"
        )


def spectrum(
    op: LevelOperator, boundary_condition: str = "neumann", vectors: bool = False
) -> EigenDecomposition:
    """Dense spectrum of H^+ (neumann) or H^- (dirichlet); eigenvectors
    only with ``vectors=True``.  Eigenvalues are <= 0 and descending.
    Without vectors the tridiagonal reduction skips the back-transformation.
    Inside spectra() it returns the solve spectra() started on the pool.
    """
    if boundary_condition == "neumann":
        order = np.arange(op.size)
    elif boundary_condition == "dirichlet":
        order = op.interior
    else:
        raise ValueError(f"unknown boundary condition {boundary_condition!r}")
    w = None if vectors else _handed(op, boundary_condition)
    if w is not None:
        return _decomposition(w, None, op.b_float()[order])
    _check_dense_size(op.size, vectors)
    M, b = scaled_pencil(op, order)
    if not vectors:
        return _decomposition(np.linalg.eigvalsh(M), None, b)
    w, U = np.linalg.eigh(M)
    U *= (1.0 / np.sqrt(b))[:, None]
    return _decomposition(w, U, b)


def spectra(op: LevelOperator) -> tuple[EigenDecomposition, EigenDecomposition]:
    """The Neumann and Dirichlet spectra of one level, eigenvalues only.

    One pencil is built, with the interior vertices first, and the
    Dirichlet pencil is its leading block, a view.  The two eigvalsh calls
    run concurrently on the solver pool, and each result is returned
    through spectrum() on the calling thread, so a profile of spectrum()
    sees every level spectrum.  Both solves have finished when spectra()
    returns or raises.  The Dirichlet eigenvalues equal
    spectrum(op, "dirichlet")'s bit for bit; the Neumann ones agree with
    spectrum(op, "neumann") to rounding, since LAPACK sees the rows in
    another order.
    """
    _check_dense_size(op.size, False)
    interior = op.interior
    M, _ = scaled_pencil(op, np.concatenate([interior, op.boundary]))
    k = len(interior)
    pool = _pool()
    futures = {"neumann": pool.submit(np.linalg.eigvalsh, M),
               "dirichlet": pool.submit(np.linalg.eigvalsh, M[:k, :k])}
    pending = list(futures.values())
    _HANDOFF.solves = (op, futures)
    try:
        return spectrum(op, "neumann"), spectrum(op, "dirichlet")
    finally:
        _HANDOFF.solves = None
        wait(pending)


# -- Neumann-Dirichlet detection ----------------------------------------------


def _stacked_system(A: np.ndarray, b: np.ndarray, idx: np.ndarray, lam: float) -> np.ndarray:
    """(A + lam diag(b))[:, idx], built without a V x V temporary."""
    S = A[:, idx]
    S[idx, np.arange(len(idx))] += lam * b[idx]
    return S


def nd_nullity(op: LevelOperator, lam: float, tol: float = DEFAULT_NULLITY_TOL) -> int:
    """dim{f : f|boundary = 0, (A + lam diag(b)) f = 0} by a stacked SVD.

    The stacked system restricts (A + lam diag(b)) to interior columns,
    which is the matrix form of appending boundary-indicator rows.  This
    full SVD is the reference that nd_spectrum's multiplicities are tested
    against.
    """
    idx = op.interior
    if not len(idx):
        return 0
    sv = np.linalg.svd(_stacked_system(op.matrix_float(), op.b_float(), idx, lam), compute_uv=False)
    smax = sv[0] if sv[0] > 0 else 1.0
    return int(np.sum(sv < tol * smax))


@dataclass(frozen=True)
class NDMeasure(AtomicMeasure):
    """nd_spectrum's counting measure with its decision ``margin``: the
    smallest |log10(sigma / threshold)| over the flux singular values of
    every cluster, at most 1.  A margin near 0 marks a multiplicity that
    a small change of ``tol`` or of rounding may flip."""

    margin: float = 1.0


def nd_spectrum(
    op: LevelOperator,
    tol: float = DEFAULT_NULLITY_TOL,
    merge_tol: float = DEFAULT_MERGE_TOL,
    dirichlet: EigenDecomposition | None = None,
) -> NDMeasure:
    """Counting measure of Neumann-Dirichlet eigenvalues.

    Only Dirichlet eigenvalues are candidates.  Eigenvalues within
    ``merge_tol`` form one cluster; the cluster's N-D multiplicity is the
    stacked-system nullity, evaluated on the cluster's eigenbasis: with V
    the b-orthonormal Dirichlet eigenvectors of the cluster, f = 0-extension
    of V c solves the stacked system iff A[boundary, interior] V c = 0.
    The multiplicity is the cluster size less the number of singular
    values of that flux above tol * max(sigma_1, max|A|, 1).  The flux
    rows and max|A| are read from ``op.a_sums``, so no dense A_n is formed.
    A ``dirichlet`` decomposition without eigenvectors is solved again
    with them.  Raises ValueError unless 0 < tol < 1 and merge_tol is
    finite and >= 0: outside those ranges every cluster, or none, would
    count as null.
    """
    if not 0 < tol < 1:
        raise ValueError(f"tol must be a number in (0, 1), got {tol}")
    if not 0 <= merge_tol < np.inf:
        raise ValueError(f"merge_tol must be a finite number >= 0, got {merge_tol}")
    eig = dirichlet
    if eig is None or eig.eigenvectors is None:
        eig = spectrum(op, "dirichlet", vectors=True)
    size, bidx = op.size, np.array(op.boundary, dtype=int)
    vals = sums_float(*op.a_sums)
    row, col = np.divmod(op.a_sums[0], size)
    brow = np.full(size, -1)
    brow[bidx] = np.arange(len(bidx))
    keep = brow[row] >= 0
    flux = np.zeros((len(bidx), size))
    flux[brow[row[keep]], col[keep]] = vals[keep]
    flux = flux[:, op.interior]
    scale_ = float(np.max(np.abs(vals), initial=1.0))

    order = np.argsort(eig.eigenvalues)
    lams = eig.eigenvalues[order]
    V = eig.eigenvectors[:, order]
    atoms = []
    margin = 1.0
    start = 0
    while start < len(lams):
        stop = start + 1
        while stop < len(lams) and lams[stop] - lams[stop - 1] <= merge_tol:
            stop += 1
        M = flux @ V[:, start:stop]
        sv = np.linalg.svd(M, compute_uv=False) if M.size else np.zeros(0)
        thresh = tol * max(float(sv[0]) if len(sv) else 0.0, scale_)
        mult = (stop - start) - int(np.sum(sv > thresh))
        if mult > 0:
            atoms.append((float(np.mean(lams[start:stop])), mult))
        with np.errstate(divide="ignore"):  # sigma = 0 is infinitely far below
            margin = min(margin, float(np.min(np.abs(np.log10(sv / thresh)), initial=1.0)))
        start = stop
    return replace(NDMeasure.from_atoms(atoms, merge_tol), margin=margin)


# -- argument-principle zero counting ------------------------------------------


def argument_principle_count(
    A: np.ndarray,
    b: np.ndarray,
    re_range: tuple[float, float],
    im_range: tuple[float, float] = (-1.0, 1.0),
    base_steps: int = 64,
    max_refine: int = 14,
) -> int:
    """Zeros of lambda -> det(A - lambda diag(b)) inside a rectangle.

    Winding number of det along the boundary, with adaptive bisection until
    every argument increment is < pi/2.  The rectangle must avoid zeros on
    its boundary.  det(A - lambda diag(b)) vanishes exactly at the pencil
    eigenvalues (the negatives of the operator eigenvalues).
    """
    x0, x1 = re_range
    y0, y1 = im_range
    if not (x1 > x0 and y1 > y0):
        raise ValueError("degenerate rectangle")
    corners = [
        complex(x0, y0),
        complex(x1, y0),
        complex(x1, y1),
        complex(x0, y1),
        complex(x0, y0),
    ]
    bdiag = np.diag(np.asarray(b, dtype=complex))
    Ac = np.asarray(A, dtype=complex)

    def logdet_arg(lam: complex) -> float:
        sign, _ = np.linalg.slogdet(Ac - lam * bdiag)
        if sign == 0:
            raise ArithmeticError("det vanished on the contour")
        return float(np.angle(sign))

    total = 0.0
    for a_, b_ in zip(corners[:-1], corners[1:]):
        ts = np.linspace(0.0, 1.0, base_steps + 1)
        args = [logdet_arg(a_ + t * (b_ - a_)) for t in ts]
        segs = list(zip(ts[:-1], ts[1:], args[:-1], args[1:]))
        while segs:
            t0, t1, a0, a1 = segs.pop()
            delta = (a1 - a0 + np.pi) % (2 * np.pi) - np.pi
            if abs(delta) < np.pi / 2:
                total += delta
                continue
            if t1 - t0 < 2.0 ** (-max_refine) / base_steps:
                raise ArithmeticError("argument step failed to resolve")
            tm = 0.5 * (t0 + t1)
            am = logdet_arg(a_ + tm * (b_ - a_))
            segs.append((t0, tm, a0, am))
            segs.append((tm, t1, am, a1))
    winding = total / (2 * np.pi)
    count = int(round(winding))
    if abs(winding - count) > 1e-6:
        raise ArithmeticError(f"non-integer winding {winding}")
    return count

"""Self-similar difference operators on lattice levels.

The level-n operator is the weighted sum over all n-cells of copies of a
base operator A on F; the level-n measure is the analogous sum of copies
of the base weights b.  Assembly keeps exact (Fraction) coefficients when
the inputs are exact; eigensolving densifies to float.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .structure import LatticeLevel, StructureSpec, UnionFind, _over_lcm, is_exact


class DimensionError(ValueError):
    pass


@dataclass(frozen=True)
class BaseOperator:
    """Difference operator A f(x) = -sum_y a_{x,y}(f(y)-f(x)) plus weights b.

    ``a`` is the symmetric nonnegative coupling matrix (zero diagonal
    ignored); ``b`` the positive vertex weights.  Entries may be Fractions
    for the exact pipelines.
    """

    a: tuple[tuple, ...]
    b: tuple

    def __post_init__(self):
        n = len(self.a)
        if any(len(row) != n for row in self.a) or len(self.b) != n:
            raise DimensionError("a must be square and b of matching length")
        for x in range(n):
            for y in range(n):
                if self.a[x][y] != self.a[y][x]:
                    raise ValueError("coupling matrix must be symmetric")
                if x != y and self.a[x][y] < 0:
                    raise ValueError("couplings must be >= 0")
        if any(not (w > 0) for w in self.b):
            raise ValueError("weights must be positive")

    @property
    def size(self) -> int:
        return len(self.b)

    @property
    def exact(self) -> bool:
        return is_exact(v for row in self.a for v in row) and is_exact(self.b)

    def matrix(self):
        """Full matrix of A (exact entries preserved, object dtype if exact)."""
        zero = Fraction(0) if self.exact else 0.0
        M = -np.array(self.a, dtype=object if self.exact else float)
        np.fill_diagonal(M, [sum((a for y, a in enumerate(row) if y != x), zero) for x, row in enumerate(self.a)])
        return M

    def is_group_invariant(self, spec: StructureSpec) -> bool:
        n = self.size
        return all(
            self.b[g[x]] == self.b[x] and all(self.a[g[x]][g[y]] == self.a[x][y] for y in range(n))
            for g in spec.group
            for x in range(n)
        )

    def is_irreducible(self) -> bool:
        """Connectivity of the positive-coupling graph."""
        uf = UnionFind()
        for x in range(self.size):
            for y in range(self.size):
                if y != x and self.a[x][y] > 0:
                    uf.union(x, y)
        return len({uf.find(x) for x in range(self.size)}) == 1


def laplacian_base(spec: StructureSpec) -> BaseOperator:
    """Unit-coupling Laplacian with unit weights on F (the canonical choice)."""
    n0 = spec.N0
    one, zero = Fraction(1), Fraction(0)
    a = tuple(
        tuple(one if x != y else zero for y in range(n0)) for x in range(n0)
    )
    return BaseOperator(a=a, b=(one,) * n0)


def cell_sums(lat: LatticeLevel, weights, M: np.ndarray, exact: bool = True):
    """The one cell-assembly kernel: sum w_c M[..., x, y] at (ids_c[x], ids_c[y])
    over every n-cell c (ids_c = lat.cell_ids[c]) and (x, y) nonzero in some
    matrix of the (..., N0, N0) stack M, by one scatter-add in (c, x, y)
    order.  Returns (keys, sums, den): sums of shape (..., len(keys)) at
    sorted flat indices row * V + col, integer numerators over den when the
    weights are exact and M is object dtype (int64 if a bound on every partial
    sum and on den is below 2**53, else Python ints; with ``exact`` false each
    product is rounded once before a float sum), else floats with den None."""
    w, den = weights
    pattern = M != 0
    while pattern.ndim > 2:
        pattern = pattern.any(axis=0)
    x, y = np.nonzero(pattern)
    ids, V = lat.cell_ids, lat.num_vertices
    keys, inv, count = np.unique(
        (ids[:, x] * V + ids[:, y]).ravel(), return_inverse=True, return_counts=True
    )
    Mxy = M[..., x, y]
    if den is not None and M.dtype == object:
        m, mden = _over_lcm(Mxy.ravel())
        den *= mden
        bound = int(w.max()) * max(map(abs, m), default=0) * int(count.max(initial=0))
        dtype = np.int64 if bound < 2**53 and den < 2**53 else object
        vals = w.astype(dtype)[:, None] * m.astype(dtype).reshape(Mxy.shape)[..., None, :]
        if not exact:
            vals, den = (vals / den).astype(float), None
    else:
        w = w if den is None else (w / den).astype(float)
        vals, den = w[:, None] * (Mxy if M.dtype != object else Mxy.astype(float))[..., None, :], None
    vals = vals.reshape(*Mxy.shape[:-1], -1)
    sums = np.zeros((*Mxy.shape[:-1], len(keys)), dtype=vals.dtype)
    np.add.at(sums.T, inv, vals.T)  # (keys, ...) += (terms, ...): per matrix in term order
    return keys, sums, den


def sums_float(keys, sums, den) -> np.ndarray:
    """Divided once: correctly rounded, as int64 below 2**53 and Python ints are."""
    return sums if den is None else (sums / den).astype(float)


def sums_exact(keys, sums, den) -> list:
    return sums.tolist() if den is None else [Fraction(int(s), den) for s in sums]


@dataclass(frozen=True)
class LevelOperator:
    """A_n and b_n of ``base`` on ``lattice`` as cell_sums results.  The
    coordinate entries (exact when the inputs are, in a read-only mapping)
    and the tuple b are built on first access; the dense float forms are
    cached read-only for eigensolves."""

    base: BaseOperator
    lattice: LatticeLevel
    a_sums: tuple = field(repr=False, compare=False)
    b_sums: tuple = field(repr=False, compare=False)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @cached_property
    def entries(self) -> MappingProxyType:
        """(row, col) -> value of every nonzero entry, in row-major order."""
        pairs = zip(self.a_sums[0].tolist(), sums_exact(*self.a_sums))
        return MappingProxyType({divmod(k, self.size): v for k, v in pairs if v != 0})

    @cached_property
    def b(self) -> tuple:
        return tuple(sums_exact(*self.b_sums))

    @property
    def boundary(self) -> tuple[int, ...]:
        return self.lattice.boundary

    @property
    def interior(self) -> np.ndarray:
        return self.lattice.interior

    @property
    def size(self) -> int:
        return self.lattice.num_vertices

    def matrix_float(self) -> np.ndarray:
        """Dense A_n, cached and read-only (the operator is shared)."""
        if "A" not in self._cache:
            A = np.zeros((self.size, self.size))
            A.flat[self.a_sums[0]] = sums_float(*self.a_sums)
            A.setflags(write=False)
            self._cache["A"] = A
        return self._cache["A"]

    def b_float(self) -> np.ndarray:
        """b_n as floats, cached and read-only."""
        if "b" not in self._cache:
            b = sums_float(*self.b_sums)
            b.setflags(write=False)
            self._cache["b"] = b
        return self._cache["b"]

    def coordinate_entries(self):
        """Upper-triangle nonzeros as (row, col, float) for matrix export, row-major."""
        i, j = np.divmod(self.a_sums[0], self.size)
        keep = (i <= j) & (self.a_sums[1] != 0)
        return zip(i[keep].tolist(), j[keep].tolist(), sums_float(*self.a_sums)[keep].tolist())


def assemble(base: BaseOperator, spec: StructureSpec, lat: LatticeLevel) -> LevelOperator:
    """Sum weighted copies of (A, b) over every n-cell of the lattice: the
    copy on cell j_1..j_n is scaled by prod_k alpha_1/alpha_{j_k} in energy
    and by prod_k beta_{j_k}/beta_1 in measure (blow-up fixed to the
    constant sequence 1), the lattice's weight tables; b_n is the diagonal
    of the cell sums of diag(b)."""
    if base.size != spec.N0:
        raise DimensionError(
            f"base operator has size {base.size}, structure needs {spec.N0}"
        )
    check_lattice(spec, lat)
    exact = base.exact and is_exact(spec.alpha) and is_exact(spec.beta)
    b = np.diag(np.array(base.b, dtype=object if is_exact(base.b) else float))
    energy, measure = lat.energy_weights, lat.measure_weights
    return LevelOperator(
        base, lat, cell_sums(lat, energy, base.matrix(), exact), cell_sums(lat, measure, b, exact)
    )


def check_lattice(spec: StructureSpec, lat: LatticeLevel) -> None:
    """Refuse a lattice built from another structure.  Its weight tables
    follow lat.spec, so its weights must also have the types of spec's."""
    if lat.spec is not spec and (lat.spec != spec or lat.spec.weight_types != spec.weight_types):
        raise DimensionError("lattice was built from a different structure")


def scaled_pencil(op: LevelOperator, order) -> tuple[np.ndarray, np.ndarray]:
    """The pencil (A_n, diag(b_n)) on the vertices ``order``, in symmetric
    form: (M, b) with b = b_n[order] and M = S A_n[order][:, order] S,
    S = diag(b)^-1/2.  The eigenvalues of M are the pencil eigenvalues, the
    negatives of the difference operator's.  M is a fresh C-ordered array
    that the caller may overwrite; it is scattered from ``op.a_sums``, each
    entry rounded as (a * s_col) * s_row, so no dense A_n is formed.
    """
    V = op.size
    b = op.b_float()[order]
    s = 1.0 / np.sqrt(b)
    pos = np.full(V, -1)
    pos[order] = np.arange(len(b))
    row, col = np.divmod(op.a_sums[0], V)
    row, col = pos[row], pos[col]
    keep = (row >= 0) & (col >= 0)
    row, col = row[keep], col[keep]
    M = np.zeros((len(b), len(b)))
    M[row, col] = sums_float(*op.a_sums)[keep] * s[col] * s[row]
    return M, b


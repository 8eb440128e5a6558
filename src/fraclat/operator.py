"""Self-similar difference operators on lattice levels.

The level-n operator is the weighted sum over all n-cells of copies of a
base operator A on F; the level-n measure is the analogous sum of copies
of the base weights b.  Assembly keeps exact (Fraction) coefficients when
the inputs are exact; eigensolving densifies to float.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .structure import LatticeLevel, StructureSpec, is_exact


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
        n = self.size
        zero = Fraction(0) if self.exact else 0.0
        M = [[zero] * n for _ in range(n)]
        for x in range(n):
            diag = zero
            for y in range(n):
                if y == x:
                    continue
                M[x][y] = -self.a[x][y]
                diag += self.a[x][y]
            M[x][x] = diag
        dtype = object if self.exact else float
        return np.array(M, dtype=dtype)

    def is_group_invariant(self, spec: StructureSpec) -> bool:
        for g in spec.group:
            for x in range(self.size):
                if self.b[g[x]] != self.b[x]:
                    return False
                for y in range(self.size):
                    if self.a[g[x]][g[y]] != self.a[x][y]:
                        return False
        return True

    def is_irreducible(self) -> bool:
        """Connectivity of the positive-coupling graph."""
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for y in range(self.size):
                if y != x and y not in seen and self.a[x][y] > 0:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == self.size


def laplacian_base(spec: StructureSpec) -> BaseOperator:
    """Unit-coupling Laplacian with unit weights on F (the canonical choice)."""
    n0 = spec.N0
    one, zero = Fraction(1), Fraction(0)
    a = tuple(
        tuple(one if x != y else zero for y in range(n0)) for x in range(n0)
    )
    return BaseOperator(a=a, b=(one,) * n0)


@dataclass(frozen=True)
class LevelOperator:
    """Assembled A_n (sparse symmetric coordinate entries, exact when the
    inputs are exact, in a read-only mapping) and weights b_n; densified
    lazily for eigensolves."""

    entries: MappingProxyType  # (row, col) -> value
    b: tuple
    lattice: LatticeLevel
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def level(self) -> int:
        return self.lattice.n

    @property
    def boundary(self) -> tuple[int, ...]:
        return self.lattice.boundary

    @property
    def interior(self) -> tuple[int, ...]:
        return self.lattice.interior

    @property
    def size(self) -> int:
        return len(self.b)

    def matrix_float(self) -> np.ndarray:
        """Dense A_n, cached and read-only (the operator is shared)."""
        if "A" not in self._cache:
            A = np.zeros((self.size, self.size))
            for (i, j), v in self.entries.items():
                A[i, j] = float(v)
            A.setflags(write=False)
            self._cache["A"] = A
        return self._cache["A"]

    def b_float(self) -> np.ndarray:
        """b_n as floats, cached and read-only."""
        if "b" not in self._cache:
            b = np.asarray(self.b, dtype=float)
            b.setflags(write=False)
            self._cache["b"] = b
        return self._cache["b"]

    def coordinate_entries(self):
        """Upper-triangle nonzeros as (row, col, value) for matrix export."""
        for (i, j) in sorted(k for k in self.entries if k[0] <= k[1]):
            yield i, j, self.entries[(i, j)]


def assemble(base: BaseOperator, spec: StructureSpec, lat: LatticeLevel) -> LevelOperator:
    """Sum weighted copies of (A, b) over every n-cell of the lattice."""
    if base.size != spec.N0:
        raise DimensionError(
            f"base operator has size {base.size}, structure needs {spec.N0}"
        )
    if lat.spec is not spec and lat.spec != spec:
        raise DimensionError("lattice was built from a different structure")

    exact = base.exact and is_exact(spec.alpha) and is_exact(spec.beta)
    zero = Fraction(0) if exact else 0.0
    entries: dict = {}
    b = [zero] * lat.num_vertices
    base_mat = base.matrix()
    for ids, wa, wb in lat.cells():
        for x in range(spec.N0):
            b[ids[x]] += wb * base.b[x]
            row = base_mat[x]
            for y in range(spec.N0):
                if row[y] != 0:
                    key = (ids[x], ids[y])
                    entries[key] = entries.get(key, zero) + wa * row[y]

    return LevelOperator(
        entries=MappingProxyType({k: v for k, v in entries.items() if v != 0}),
        b=tuple(b),
        lattice=lat,
    )


def pencil(op: LevelOperator, boundary_condition: str = "neumann"):
    """The generalized pencil (A, b) of the Neumann problem (every vertex)
    or of the Dirichlet problem (interior vertices only).  A is a fresh
    array that the caller may overwrite.  Eigenvalues of the difference
    operator are the negatives of the pencil eigenvalues.
    """
    A = op.matrix_float()
    b = op.b_float()
    if boundary_condition == "neumann":
        return A.copy(), b
    if boundary_condition == "dirichlet":
        idx = np.array(op.interior, dtype=int)
        return A[np.ix_(idx, idx)], b[idx]
    raise ValueError(f"unknown boundary condition {boundary_condition!r}")


def h_matrices(op: LevelOperator):
    """((A_n, b_n), (A_n, b_n) restricted to the interior): both pencils."""
    return pencil(op, "neumann"), pencil(op, "dirichlet")

"""Abstract finitely-ramified self-similar structures and their finite lattices.

A structure is given by N cells glued along a base cell F = {0..N0-1}
through an equivalence relation on {0..N}xF, together with a symmetry
group and energy/measure weights.  Level n is built from level n-1 by
N-copy recursion on integer index arrays: N copies of level n-1 are glued
at their boundary points the way level 1 glues N copies of F.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np


class StructureError(ValueError):
    """Malformed structure data (bad indices, weights, permutations)."""


def _as_weight(x) -> Fraction | float:
    """Keep weights exact when they come in as ints/rationals/strings."""
    if isinstance(x, (int, Fraction, str)):
        return Fraction(x)
    if isinstance(x, float):
        return x
    raise StructureError(f"bad weight {x!r}")


def is_exact(values) -> bool:
    """True when every value is an int (Python or numpy) or a Fraction."""
    return all(isinstance(v, (int, np.integer, Fraction)) for v in values)


_to_fraction = np.frompyfunc(lambda v: v if isinstance(v, Fraction) else Fraction(int(v)), 1, 1)


def numeric(*arrays) -> tuple[bool, tuple[np.ndarray, ...]]:
    """The one arithmetic rule, over all the array inputs of a call together:
    (True, object arrays of Fractions) when every entry passes is_exact, else
    (False, float64 arrays, or complex128 ones when any entry is complex).
    Float and complex ndarrays are neither scanned nor copied.  Past this
    call object dtype means exact, the one test kernels downstream make."""
    arrays = [np.asarray(a) for a in arrays]
    if all(a.dtype.kind in "iu" or a.dtype == object and is_exact(a.flat) for a in arrays):
        return True, tuple(np.asarray(_to_fraction(a), dtype=object) for a in arrays)
    cplx = any(np.iscomplexobj(a) or a.dtype == object and any(map(np.iscomplexobj, a.flat)) for a in arrays)
    return False, tuple(a.astype(complex if cplx else float, copy=False) for a in arrays)


def _over_lcm(values) -> tuple[np.ndarray, int]:
    """Exact values as Python-int numerators over their least common denominator."""
    den = math.lcm(*(Fraction(v).denominator for v in values))
    return np.array([int(Fraction(v) * den) for v in values], dtype=object), den


def cell_weights(num, den, n: int) -> tuple[np.ndarray, int | None]:
    """prod_k num[j_k]/den[j_k] for every n-cell, in cell_ids row order: exact
    inputs give Python-int numerators over Q^n (num[j]/den[j] = c_j/Q), others
    floats (None for Q^n) multiplied factor by factor, coarsest letter first.
    The weight array is read-only."""
    if is_exact(tuple(num) + tuple(den)):
        c, q = _over_lcm([Fraction(a) / b for a, b in zip(num, den)])
        w, wden = np.ones(1, dtype=object), q**n
        for _ in range(n):
            w = (c[:, None] * w).ravel()
    else:
        num, den = (np.array([float(v) for v in t])[:, None] for t in (num, den))
        w, wden = np.ones(1), None
        for _ in range(n):
            w = (w * num / den).ravel()
    w.setflags(write=False)
    return w, wden


@dataclass(frozen=True)
class StructureSpec:
    """Self-similar gluing structure.

    All indices are 0-based internally: cells are 0..N-1, the base cell is
    F = {0..N0-1}.  ``relation`` holds generator pairs ((i,x),(i2,x2)); the
    full equivalence is their closure under the group action, symmetry and
    transitivity.  ``group`` lists permutations of 0..N-1, each preserving
    {0..N0-1}.  ``alpha``/``beta`` are the energy/measure scaling weights.
    """

    name: str
    N: int
    N0: int
    relation: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    group: tuple[tuple[int, ...], ...]
    alpha: tuple
    beta: tuple

    def __post_init__(self):
        if not (1 < self.N0 <= self.N):
            raise StructureError(f"need 1 < N0 <= N, got N0={self.N0}, N={self.N}")
        for ((i, x), (i2, x2)) in self.relation:
            for c in (i, i2):
                if not 0 <= c < self.N:
                    raise StructureError(f"cell index {c} out of range")
            for x_ in (x, x2):
                if not 0 <= x_ < self.N0:
                    raise StructureError(f"base point {x_} out of range")
        for g in self.group:
            if sorted(g) != list(range(self.N)):
                raise StructureError(f"malformed permutation {g}")
        if len(self.alpha) != self.N or len(self.beta) != self.N:
            raise StructureError("alpha/beta must have length N")
        for w in tuple(self.alpha) + tuple(self.beta):
            if not w > 0:
                raise StructureError(f"weight {w} <= 0")

    @property
    def weight_types(self) -> tuple[type, ...]:
        """Types of alpha + beta: equal weights of other types (1 and 1.0)
        give other weight tables, exact or float."""
        return tuple(map(type, self.alpha + self.beta))

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_dict(cls, d: Mapping) -> "StructureSpec":
        """Build from the JSON file schema (1-based indices)."""
        rel = tuple(
            ((int(i) - 1, int(x) - 1), (int(i2) - 1, int(x2) - 1))
            for (i, x, i2, x2) in d["relation"]
        )
        group = tuple(tuple(int(p) - 1 for p in perm) for perm in d.get("group", []))
        return cls(
            name=str(d.get("name", "structure")),
            N=int(d["N"]),
            N0=int(d["N0"]),
            relation=rel,
            group=group,
            alpha=tuple(_as_weight(a) for a in d["alpha"]),
            beta=tuple(_as_weight(b) for b in d["beta"]),
        )

    @classmethod
    def from_json(cls, path) -> "StructureSpec":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "N": self.N,
            "N0": self.N0,
            "relation": [
                [i + 1, x + 1, i2 + 1, x2 + 1] for ((i, x), (i2, x2)) in self.relation
            ],
            "group": [[p + 1 for p in g] for g in self.group],
            "alpha": [str(a) if isinstance(a, Fraction) else a for a in self.alpha],
            "beta": [str(b) if isinstance(b, Fraction) else b for b in self.beta],
        }

    # -- closed relation ------------------------------------------------------

    def closed_relation_classes(self) -> list[frozenset[tuple[int, int]]]:
        """Equivalence classes of {0..N-1}xF under the closed relation."""
        uf = UnionFind()
        pairs = [(i, x) for i in range(self.N) for x in range(self.N0)]
        for ((i, x), (i2, x2)) in self.relation:
            for g in self.group or [tuple(range(self.N))]:
                uf.union((g[i], g[x]), (g[i2], g[x2]))
            uf.union((i, x), (i2, x2))
        classes: dict = {}
        for p in pairs:
            classes.setdefault(uf.find(p), set()).add(p)
        return [frozenset(c) for c in classes.values()]


def builtin_gasket() -> StructureSpec:
    """Triangle glued from 3 cells with full S3 symmetry, unit weights."""
    rel = (((0, 1), (1, 0)), ((0, 2), (2, 0)), ((1, 2), (2, 1)))
    s3 = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
    one = Fraction(1)
    return StructureSpec("gasket", 3, 3, rel, s3, (one,) * 3, (one,) * 3)


def builtin_interval(alpha=Fraction(1, 2)) -> StructureSpec:
    """Unit interval split in two cells; trivial symmetry group."""
    alpha = _as_weight(alpha)
    if not 0 < alpha < 1:
        raise StructureError(f"need 0 < alpha < 1, got {alpha}")
    rel = (((0, 1), (1, 0)),)
    return StructureSpec(
        "interval", 2, 2, rel, ((0, 1),), (alpha, 1 - alpha), (1 - alpha, alpha)
    )


# -- validation ---------------------------------------------------------------

AXIOMS = (
    "relation-functional",  # (i,x) ~ (i,y) implies x = y
    "diagonal-singleton",  # class of (i,i), i in F, is a singleton
    "cell-graph-connected",
    "group-invariance",  # relation, alpha, beta invariant under the group
    "weight-product-constant",  # (H): alpha_i * beta_i independent of i
)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failures: tuple[str, ...]
    checked: tuple[str, ...] = AXIOMS

    def __str__(self):
        lines = [f"structure validation: {'pass' if self.ok else 'FAIL'}"]
        for ax in self.checked:
            lines.append(f"  {ax}: {'fail' if ax in self.failures else 'ok'}")
        return "\n".join(lines)


def validate_structure(spec: StructureSpec) -> ValidationReport:
    """Check the three relation axioms, group invariance and assumption (H)."""
    failures = []
    classes = spec.closed_relation_classes()

    # two pairs (i, x), (i, y) of one cell in a class break functionality
    if any(len({i for i, _ in c}) < len(c) for c in classes):
        failures.append("relation-functional")
    if any(len(c) > 1 and any((i, i) in c for i in range(spec.N0)) for c in classes):
        failures.append("diagonal-singleton")

    cells = UnionFind()
    for c in classes:
        for (i, _) in c:
            cells.union(min(c)[0], i)
    if len({cells.find(i) for i in range(spec.N)}) != 1:
        failures.append("cell-graph-connected")

    # Group invariance of the closed relation is automatic (we close under
    # the action); what can fail is invariance of the generators' closure
    # versus the raw generators, or of the weights.  Check the raw relation
    # and the weights against every permutation.
    raw = UnionFind()
    for ((i, x), (i2, x2)) in spec.relation:
        raw.union((i, x), (i2, x2))

    def invariant(g) -> bool:
        return (
            all(g[x] < spec.N0 for x in range(spec.N0))
            and all(raw.find((g[i], g[x])) == raw.find((g[i2], g[x2])) for ((i, x), (i2, x2)) in spec.relation)
            and all(w[g[i]] == w[i] for w in (spec.alpha, spec.beta) for i in range(spec.N))
        )

    if not all(invariant(g) for g in spec.group):
        failures.append("group-invariance")

    prods = [spec.alpha[i] * spec.beta[i] for i in range(spec.N)]
    if is_exact(prods):
        h_ok = all(p == prods[0] for p in prods)
    else:
        ref = float(prods[0])
        h_ok = all(abs(float(p) - ref) <= 1e-12 * abs(ref) for p in prods)
    if not h_ok:
        failures.append("weight-product-constant")

    return ValidationReport(ok=not failures, failures=tuple(dict.fromkeys(failures)))


# -- lattice levels -----------------------------------------------------------


class UnionFind:
    """Union-find with path compression over comparable keys."""

    def __init__(self):
        self.parent: dict = {}

    def find(self, k):
        self.parent.setdefault(k, k)
        root = k
        while root != self.parent[root]:
            root = self.parent[root]
        while k != self.parent[k]:
            self.parent[k], k = root, self.parent[k]
        return root

    def union(self, a, b):
        """Join the classes of a and b under the smaller root, so every root
        is the minimum of its class."""
        ra, rb = sorted((self.find(a), self.find(b)))
        self.parent[rb] = ra
        return ra


@dataclass(frozen=True)
class LatticeLevel:
    """Level-n quotient lattice.

    Vertices carry contiguous ids ordered by the lexicographically smallest
    word of each class, so ids are reproducible.  Words are tuples
    (j_1, ..., j_n, x), coarsest cell index first.  Row k of the read-only
    ``cell_ids`` array lists the vertex ids of the k-th n-cell of
    _words(N, n) in base-point order; the word views are built from it on
    first use.  ``energy_weights`` and ``measure_weights`` hold the scaling
    of every n-cell, in the same row order, for the spec's own weights.
    """

    spec: StructureSpec
    n: int
    num_vertices: int
    boundary: tuple[int, ...]
    cell_ids: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def word_to_id(self) -> Mapping[tuple, int]:
        return MappingProxyType({
            prefix + (x,): v
            for prefix, row in zip(_words(self.spec.N, self.n), self.cell_ids.tolist())
            for x, v in enumerate(row)
        })

    @cached_property
    def id_to_word(self) -> tuple[tuple, ...]:
        # ids are numbered in the order of their smallest words
        words: list = []
        for w in sorted(self.word_to_id):
            if self.word_to_id[w] == len(words):
                words.append(w)
        return tuple(words)

    def vertex(self, word: Sequence[int]) -> int:
        return self.word_to_id[tuple(word)]

    @cached_property
    def energy_weights(self) -> tuple[np.ndarray, int | None]:
        """cell_weights of the energy scaling prod_k alpha_1/alpha_{j_k} of
        every n-cell, computed once."""
        alpha = self.spec.alpha
        return cell_weights((alpha[0],) * self.spec.N, alpha, self.n)

    @cached_property
    def measure_weights(self) -> tuple[np.ndarray, int | None]:
        """cell_weights of the measure scaling prod_k beta_{j_k}/beta_1 of
        every n-cell, computed once."""
        beta = self.spec.beta
        return cell_weights(beta, (beta[0],) * self.spec.N, self.n)

    @cached_property
    def interior(self) -> np.ndarray:
        """Ids of the non-boundary vertices, ascending, as a read-only array."""
        idx = np.setdiff1d(np.arange(self.num_vertices), self.boundary)
        idx.setflags(write=False)
        return idx

    def cell_vertices(self, prefix: Sequence[int]) -> tuple[int, ...]:
        """Vertex ids of the (n-p)-cell with the given p-prefix, p <= n.

        For a full prefix (p = n) this is the embedded copy of F, listed in
        base-point order; otherwise the ids are sorted.  The first letter is
        the fastest-running digit of a cell_ids row index, so the cell's rows
        are those with index = index(prefix) mod N^p.
        """
        p = len(prefix)
        if p > self.n:
            raise ValueError("prefix longer than level")
        rows = self.cell_ids[sum(j * self.spec.N**k for k, j in enumerate(prefix)) :: self.spec.N**p]
        return tuple(rows[0].tolist()) if p == self.n else tuple(np.unique(rows).tolist())

    def vertex_permutation(self, g: Sequence[int]) -> tuple[int, ...]:
        """Vertex permutation induced by a group element."""
        return tuple(self.word_to_id[tuple(g[c] for c in word)] for word in self.id_to_word)


def _words(N: int, n: int):
    """All n-letter words, last letter slowest: each (n-1)-letter head runs
    through _words(N, n - 1) once per last letter."""
    if n == 0:
        yield ()
        return
    heads = list(_words(N, n - 1))
    for j in range(N):
        for head in heads:
            yield head + (j,)


def build_level(spec: StructureSpec, n: int) -> LatticeLevel:
    """Quotient {0..N-1}^n x F by the level-n closure of the relation.

    Level k is N copies of level k-1: candidate i V' + v is vertex v of copy
    i, and each closed level-1 class glues the candidates i V' + B'[x] of its
    members (i, x).  The classes are disjoint and distinct members give
    distinct candidates, so each class maps straight to its smallest
    candidate, which has the smallest word: ids follow min words."""
    if n < 0:
        raise ValueError("level must be >= 0")
    classes = spec.closed_relation_classes()
    N, N0 = spec.N, spec.N0
    ids = np.arange(N0, dtype=np.int64)[None, :]
    V, B = N0, np.arange(N0, dtype=np.int64)
    for _ in range(n):
        root = np.arange(N * V)
        for cls_ in classes:
            cands = [i * V + int(B[x]) for (i, x) in cls_]
            root[cands] = min(cands)
        keep = root == np.arange(N * V)
        id_of = (np.cumsum(keep) - 1)[root]
        # row i + N r of level k is copy i of row r of level k-1
        ids = id_of[np.arange(N)[None, :, None] * V + ids[:, None, :]].reshape(-1, N0)
        V, B = int(keep.sum()), id_of[np.arange(N0) * V + B]
    ids.setflags(write=False)
    return LatticeLevel(
        spec=spec, n=n, num_vertices=V, boundary=tuple(B.tolist()), cell_ids=ids
    )

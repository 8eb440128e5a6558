"""Abstract finitely-ramified self-similar structures and their finite lattices.

A structure is given by N cells glued along a base cell F = {0..N0-1}
through an equivalence relation on {0..N}xF, together with a symmetry
group and energy/measure weights.  Levels are built as union-find
quotients of words.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence


class StructureError(ValueError):
    """Malformed structure data (bad indices, weights, permutations)."""


def _as_weight(x) -> Fraction | float:
    """Keep weights exact when they come in as ints/rationals/strings."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return x
    raise StructureError(f"bad weight {x!r}")


def is_exact(values) -> bool:
    """True when every value is an int or a Fraction (the exact pipelines)."""
    return all(isinstance(v, (int, Fraction)) for v in values)


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
        for p in pairs:
            uf.add(p)
        gens = list(self.relation)
        for ((i, x), (i2, x2)) in gens:
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

    for cls_ in classes:
        by_cell: dict[int, set[int]] = {}
        for (i, x) in cls_:
            by_cell.setdefault(i, set()).add(x)
        if any(len(xs) > 1 for xs in by_cell.values()):
            failures.append("relation-functional")
            break

    for i in range(spec.N0):
        cls_ = next(c for c in classes if (i, i) in c)
        if len(cls_) > 1:
            failures.append("diagonal-singleton")
            break

    adj = {i: set() for i in range(spec.N)}
    for cls_ in classes:
        cells = {i for (i, _) in cls_}
        for a in cells:
            for b in cells:
                if a != b:
                    adj[a].add(b)
    seen = {0}
    stack = [0]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    if len(seen) != spec.N:
        failures.append("cell-graph-connected")

    # Group invariance of the closed relation is automatic (we close under
    # the action); what can fail is invariance of the generators' closure
    # versus the raw generators, or of the weights.  Check the raw relation
    # and the weights against every permutation.
    raw = UnionFind()
    for ((i, x), (i2, x2)) in spec.relation:
        raw.union((i, x), (i2, x2))
    ginv_ok = True
    for g in spec.group:
        if any(g[x] >= spec.N0 for x in range(spec.N0)):
            ginv_ok = False
            break
        for ((i, x), (i2, x2)) in spec.relation:
            if raw.find((g[i], g[x])) != raw.find((g[i2], g[x2])):
                ginv_ok = False
        if tuple(spec.alpha[g[i]] for i in range(spec.N)) != tuple(spec.alpha):
            ginv_ok = False
        if tuple(spec.beta[g[i]] for i in range(spec.N)) != tuple(spec.beta):
            ginv_ok = False
    if not ginv_ok:
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
    """Plain union-find with path compression."""

    def __init__(self):
        self.parent: dict = {}

    def add(self, k):
        if k not in self.parent:
            self.parent[k] = k
        return k

    def find(self, k):
        self.add(k)
        root = k
        while root != self.parent[root]:
            root = self.parent[root]
        while k != self.parent[k]:
            self.parent[k], k = root, self.parent[k]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra
        return ra


@dataclass(frozen=True)
class LatticeLevel:
    """Level-n quotient lattice.

    Vertices carry contiguous ids ordered by the lexicographically smallest
    word of each class, so ids are reproducible.  Words are tuples
    (j_1, ..., j_n, x), coarsest cell index first.
    """

    spec: StructureSpec
    n: int
    num_vertices: int
    word_to_id: Mapping[tuple, int]
    id_to_word: tuple[tuple, ...]
    boundary: tuple[int, ...]

    def vertex(self, word: Sequence[int]) -> int:
        return self.word_to_id[tuple(word)]

    @property
    def interior(self) -> tuple[int, ...]:
        bset = set(self.boundary)
        return tuple(v for v in range(self.num_vertices) if v not in bset)

    def cell_vertices(self, prefix: Sequence[int]) -> tuple[int, ...]:
        """Vertex ids of the (n-p)-cell with the given p-prefix, p <= n.

        For a full prefix (p = n) this is the embedded copy of F, listed in
        base-point order.
        """
        prefix = tuple(prefix)
        p = len(prefix)
        if p > self.n:
            raise ValueError("prefix longer than level")
        if p == self.n:
            return tuple(self.word_to_id[prefix + (x,)] for x in range(self.spec.N0))
        ids = set()
        for word, v in self.word_to_id.items():
            if word[:p] == prefix:
                ids.add(v)
        return tuple(sorted(ids))

    def cells(self):
        """Every n-cell as (vertex ids, energy weight, measure weight).

        The ids are those of cell_vertices(prefix).  The copy on a cell is
        scaled by alpha_1^n/prod(alpha) in energy and by prod(beta)/beta_1^n
        in measure (blow-up fixed to the constant sequence 1).
        """
        spec = self.spec
        energy = _prefix_products((spec.alpha[0],) * spec.N, spec.alpha, self.n)
        measure = _prefix_products(spec.beta, (spec.beta[0],) * spec.N, self.n)
        for prefix, wa, wb in zip(_words(spec.N, self.n), energy, measure):
            yield self.cell_vertices(prefix), wa, wb

    def vertex_permutation(self, g: Sequence[int]) -> tuple[int, ...]:
        """Vertex permutation induced by a group element."""
        perm = [0] * self.num_vertices
        for v, word in enumerate(self.id_to_word):
            gw = tuple(g[c] for c in word)
            perm[v] = self.word_to_id[gw]
        return tuple(perm)


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


def _prefix_products(num, den, n: int) -> list:
    """prod_k num[j_k] / den[j_k] for every word of _words(len(num), n), in
    that order; each extends its head's product by one factor."""
    w = [Fraction(1) if is_exact(tuple(num) + tuple(den)) else 1.0]
    for _ in range(n):
        w = [h * num[j] / den[j] for j in range(len(num)) for h in w]
    return w


def build_level(spec: StructureSpec, n: int) -> LatticeLevel:
    """Quotient {0..N-1}^n x F by the level-n closure of the relation."""
    if n < 0:
        raise ValueError("level must be >= 0")
    classes = spec.closed_relation_classes()
    class_of: dict[tuple[int, int], frozenset] = {}
    for cls_ in classes:
        for p in cls_:
            class_of[p] = cls_

    uf = UnionFind()
    words = [prefix + (x,) for prefix in _words(spec.N, n) for x in range(spec.N0)]
    for w in words:
        uf.add(w)
    for w in words:
        x = w[-1]
        # A glue at position m applies when the finer part of the word is
        # the constant continuation (x, ..., x, x).
        for m in range(n):
            if any(w[t] != x for t in range(m + 1, n)):
                continue
            for (i2, x2) in class_of[(w[m], x)]:
                w2 = w[:m] + (i2,) + (x2,) * (n - m - 1) + (x2,)
                uf.union(w, w2)

    reps: dict = {}
    for w in words:
        r = uf.find(w)
        if r not in reps or w < reps[r]:
            reps[r] = w
    ordered = sorted(reps.values())
    id_of_rep = {w: k for k, w in enumerate(ordered)}
    word_to_id = {w: id_of_rep[reps[uf.find(w)]] for w in words}
    boundary = tuple(word_to_id[(x,) * (n + 1)] for x in range(spec.N0))
    return LatticeLevel(
        spec=spec,
        n=n,
        num_vertices=len(ordered),
        word_to_id=MappingProxyType(word_to_id),
        id_to_word=tuple(ordered),
        boundary=boundary,
    )

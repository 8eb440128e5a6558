"""Balanced Grassmann algebra over generators {etabar_x, eta_x}_{x in F}.

Elements live in the span of monomials with equally many etabar and eta
factors.  The canonical basis monomial for subset pair (I, J) is

    etabar_{i1} ... etabar_{ik} . eta_{j1} ... eta_{jk}     (indices ascending)

and subsets are stored as bitmasks.  Coefficients may be exact
(int/Fraction) or complex floats; all sign bookkeeping is integral so both
paths share the code.  exp of a quadratic form etabar Q eta carries the
minors of Q as coefficients; restriction to a subset is the interior
product by the product of the dropped generator pairs.

Batched code works on coefficient rows, one column per basis monomial in the
order of ``basis(n)``; this module owns that layout and its conversions.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from . import schur
from .structure import _over_lcm, numeric

MAX_GENERATORS = 16


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _merge_sign(a: int, b: int) -> int:
    """Parity sign of interleaving sorted(b) after sorted(a): (-1)^inversions."""
    inv = 0
    for k in _bits(b):
        inv += (a >> (k + 1)).bit_count()
    return -1 if inv & 1 else 1


def _mono_sign(i1: int, j1: int, i2: int, j2: int) -> int:
    """Sign of the product of canonical monomials (i1, j1) and (i2, j2),
    or 0 when they share a generator."""
    if (i1 & i2) or (j1 & j2):
        return 0
    sign = _merge_sign(i1, i2) * _merge_sign(j1, j2)
    return -sign if (i1.bit_count() * i2.bit_count()) & 1 else sign


def _interleave_sign(k: int) -> int:
    """Sign relating the interleaved monomial (etabar eta)^k to canonical order."""
    return -1 if (k * (k - 1) // 2) & 1 else 1


@dataclass(frozen=True)
class GrassmannElement:
    """Sparse element of the balanced subalgebra on ``n`` generators."""

    n: int
    coeffs: dict

    def __post_init__(self):
        if self.n > MAX_GENERATORS:
            raise ValueError(f"at most {MAX_GENERATORS} generators supported")

    @classmethod
    def unit(cls, n: int) -> "GrassmannElement":
        return cls(n, {(0, 0): 1})

    @classmethod
    def zero(cls, n: int) -> "GrassmannElement":
        return cls(n, {})

    @classmethod
    def from_terms(cls, n: int, terms) -> "GrassmannElement":
        """terms: iterable of (I indices, J indices, coeff) with |I| = |J|."""
        coeffs: dict = {}
        for I, J, c in terms:
            im = sum(1 << i for i in set(I))
            jm = sum(1 << j for j in set(J))
            if im.bit_count() != len(tuple(I)) or jm.bit_count() != len(tuple(J)):
                raise ValueError("repeated generator in a monomial")
            if im.bit_count() != jm.bit_count():
                raise ValueError("unbalanced monomial")
            key = (im, jm)
            coeffs[key] = coeffs.get(key, 0) + c
        return cls(n, {k: v for k, v in coeffs.items() if v != 0})

    @classmethod
    def from_row(cls, n: int, row: np.ndarray) -> "GrassmannElement":
        """The element whose coefficient row (coordinates of basis(n)) is row."""
        return cls(n, {key: v for key, v in zip(basis(n), row.tolist()) if v != 0})

    def __getitem__(self, key) -> object:
        I, J = key
        if isinstance(I, int) and isinstance(J, int):
            return self.coeffs.get((I, J), 0)
        im = sum(1 << i for i in I)
        jm = sum(1 << j for j in J)
        return self.coeffs.get((im, jm), 0)

    @property
    def unit_coefficient(self):
        return self.coeffs.get((0, 0), 0)

    @property
    def top_coefficient(self):
        full = (1 << self.n) - 1
        return self.coeffs.get((full, full), 0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def map_coeffs(self, f) -> "GrassmannElement":
        out = {k: f(v) for k, v in self.coeffs.items()}
        return GrassmannElement(self.n, {k: v for k, v in out.items() if v != 0})

    def __add__(self, other: "GrassmannElement") -> "GrassmannElement":
        if self.n != other.n:
            raise ValueError("mismatched generator counts")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return GrassmannElement(self.n, {k: v for k, v in out.items() if v != 0})

    def __sub__(self, other: "GrassmannElement") -> "GrassmannElement":
        return self + other.map_coeffs(lambda v: -v)

    def __rmul__(self, scalar) -> "GrassmannElement":
        if scalar == 0:
            return GrassmannElement.zero(self.n)
        return self.map_coeffs(lambda v: scalar * v)


@functools.cache
def basis(n: int) -> tuple[tuple[int, int], ...]:
    """Coordinate order of coefficient rows on n generators: the (I, J)
    masks of the balanced monomials by size, then I, then J, ascending.
    The unit is the first coordinate and the top monomial the last."""
    masks = [[m for m in range(1 << n) if m.bit_count() == k] for k in range(n + 1)]
    return tuple((I, J) for ms in masks for I in ms for J in ms)


@functools.cache
def basis_index(n: int) -> Mapping[tuple[int, int], int]:
    """(I, J) -> coordinate in basis(n), read-only since it is shared."""
    return MappingProxyType({key: d for d, key in enumerate(basis(n))})


def rows(elements) -> np.ndarray:
    """Coefficient rows of elements on a common generator count, classified by
    structure.numeric (so zero elements give object rows)."""
    n = elements[0].n
    if any(X.n != n for X in elements):
        raise ValueError("mismatched generator counts")
    index = basis_index(n)
    x = np.zeros((len(elements), len(index)), dtype=object)
    for row, X in zip(x, elements):
        for key, v in X.coeffs.items():
            row[index[key]] = v
    return numeric(x)[1][0]


def scalar_product(X: GrassmannElement, Y: GrassmannElement):
    """Canonical scalar product (conjugate-linear in the second argument)."""
    if X.n != Y.n:
        raise ValueError("mismatched generator counts")
    total = 0
    for k, v in X.coeffs.items():
        w = Y.coeffs.get(k)
        if w is not None:
            total += v * _conj(w)
    return total


def _conj(v):
    return v.conjugate() if isinstance(v, complex) else v


def norm(X: GrassmannElement) -> float:
    return float(np.sqrt(sum(abs(v) ** 2 for v in X.coeffs.values())))


def gr_mul(X: GrassmannElement, Y: GrassmannElement) -> GrassmannElement:
    """Exterior product restricted to the balanced subalgebra (commutative)."""
    if X.n != Y.n:
        raise ValueError("mismatched generator counts")
    out: dict = {}
    for (i1, j1), c1 in X.coeffs.items():
        for (i2, j2), c2 in Y.coeffs.items():
            sign = _mono_sign(i1, j1, i2, j2)
            if not sign:
                continue
            key = (i1 | i2, j1 | j2)
            val = out.get(key, 0) + sign * c1 * c2
            if val == 0:
                out.pop(key, None)
            else:
                out[key] = val
    return GrassmannElement(X.n, out)


def interior_product(Y: GrassmannElement, X: GrassmannElement) -> GrassmannElement:
    """i_Y(X): adjoint of left multiplication by Y, <i_Y(X), Z> = <X, YZ>."""
    if X.n != Y.n:
        raise ValueError("mismatched generator counts")
    out: dict = {}
    for (ky, ly), cy in Y.coeffs.items():
        cyc = _conj(cy)
        for (ix, jx), cx in X.coeffs.items():
            if (ky & ix) != ky or (ly & jx) != ly:
                continue
            i, j = ix ^ ky, jx ^ ly
            sign = _merge_sign(ky, i) * _merge_sign(ly, j)
            if (i.bit_count() * ly.bit_count()) & 1:
                sign = -sign
            key = (i, j)
            val = out.get(key, 0) + sign * cyc * cx
            if val == 0:
                out.pop(key, None)
            else:
                out[key] = val
    return GrassmannElement(X.n, out)


def generator_pair_product(n: int, subset) -> GrassmannElement:
    """prod_{x in subset} etabar_x eta_x, as an element (canonical form)."""
    mask = sum(1 << i for i in subset)
    return GrassmannElement(n, {(mask, mask): _interleave_sign(mask.bit_count())})


def restrict(X: GrassmannElement, subset) -> GrassmannElement:
    """R_{F -> F'}: interior product by the dropped pairs, reindexed to F'.

    ``subset`` lists distinct generators to keep, in any order; the result
    lives on len(subset) generators, generator subset[p] becoming generator p.
    """
    keep, drop = schur._split(X.n, subset)
    mid = interior_product(generator_pair_product(X.n, drop), X)
    # the inverse of the permutation keep + drop; dropped generators no longer occur
    return relabel(mid, np.argsort(keep + drop).tolist(), len(keep))


def relabel(X: GrassmannElement, images, n_out: int | None = None) -> GrassmannElement:
    """Algebra morphism sending generator x to generator images[x].

    ``images`` must be injective; monomials pick up the parity of sorting
    the image indices.
    """
    n_out = X.n if n_out is None else n_out
    images = list(images)
    if len(set(images)) != len(images):
        raise ValueError("generator images must be distinct")
    table = {}
    out: dict = {}
    for (i, j), c in X.coeffs.items():
        for mask in (i, j):
            if mask not in table:
                imgs = [images[g] for g in _bits(mask)]
                inversions = sum(a > b for k, a in enumerate(imgs) for b in imgs[k + 1:])
                table[mask] = (sum(1 << g for g in imgs), -1 if inversions & 1 else 1)
        (im, si), (jm, sj) = table[i], table[j]
        key = (im, jm)
        out[key] = out.get(key, 0) + si * sj * c
    return GrassmannElement(n_out, {k: v for k, v in out.items() if v != 0})


def scale_degree(X: GrassmannElement, factor) -> GrassmannElement:
    """Multiply every k-balanced coefficient by factor^k."""
    out = {}
    for (i, j), c in X.coeffs.items():
        out[(i, j)] = c * factor ** i.bit_count()
    return GrassmannElement(X.n, {k: v for k, v in out.items() if v != 0})


# -- exponentials of quadratic forms -------------------------------------------


def _det_exact(M: list[list]) -> Fraction:
    """Exact determinant of a square int/Fraction matrix given as rows."""
    return schur._eliminate(M, len(M))[1]


def exp_q_rows(Q) -> np.ndarray:
    """exp(etabar Q eta) for each matrix of the (B, n, n) stack Q, as rows.

    The (I, J) coordinate is the (I, J) minor, with the sign from re-sorting
    the interleaved monomial into canonical order; the unit carries 1.
    Exact input (structure.numeric) gives Fraction rows, one determinant per
    minor and matrix by schur's exact elimination; other input float or
    complex rows, one batched det per minor.
    """
    exact, (Q,) = numeric(Q)
    B, n = Q.shape[:2]
    if Q.shape != (B, n, n):
        raise ValueError("every matrix of Q must be square")
    keys = basis(n)
    x = np.zeros((B, len(keys)), dtype=Q.dtype)
    x[:, 0] = Fraction(1) if exact else 1.0
    for d, (I, J) in enumerate(keys[1:], 1):
        I, J = _bits(I), _bits(J)
        s = _interleave_sign(len(I))
        minors = Q[:, I][:, :, J]
        x[:, d] = [s * _det_exact(m.tolist()) for m in minors] if exact else s * np.linalg.det(minors)
    return x


def exp_q(Q) -> GrassmannElement:
    """exp(etabar Q eta) of one square matrix: exp_q_rows on a stack of one."""
    Q = np.asarray(Q)
    return GrassmannElement.from_row(len(Q), exp_q_rows(Q[None])[0])


def nd_order(Q0, B, subset) -> int:
    """Order of vanishing at 0 of lambda -> restrict(exp_q(Q0 - lambda B), F').

    Exact path: every coefficient is a polynomial in lambda of degree <= |F|,
    recovered by Newton interpolation at t = 0..|F|; the order equals
    dim{f in ker Q0 : f vanishes on F'}.  Q0 and B must be exact.
    """
    exact, (Q0, B) = numeric(Q0, B)
    if not exact:
        raise ValueError("nd_order needs exact rational Q0 and B")
    n = Q0.shape[0]
    keep = sorted(set(int(i) for i in subset))
    x = exp_q_rows(np.stack([Q0 - t * B for t in range(n + 1)]))
    return vanishing_order(rows([restrict(GrassmannElement.from_row(n, r), keep) for r in x]))


def vanishing_order(x) -> int:
    """Order of vanishing at 0 of lambda -> X(lambda) from the exact rows
    x[t] = X(t), t = 0..len(x)-1, of an element of degree < len(x) (len(x)
    when every sample is 0).  The rows are cleared to integers once: a
    common denominator changes no order."""
    x = np.asarray(x)
    order = len(x)
    for column in _over_lcm(x.ravel())[0].reshape(x.shape).T:
        if any(column):
            poly = _newton_coeffs(list(column))
            order = min(order, next(p for p, c in enumerate(poly) if c != 0))
            if order == 0:
                break
    return order


def _differences(ys) -> list:
    """[Delta^L y_0 for L = 0..len(ys)-1] of the values (or rows) ys[t]."""
    out, d = [], list(ys)
    while d:
        out.append(d[0])
        d = [b - a for a, b in zip(d, d[1:])]
    return out


def _newton_coeffs(ys, den=1) -> list[Fraction]:
    """Exact coefficients (ascending powers) of the polynomial of degree < k
    through (t, ys[t] / den), t = 0..k-1, for int (or exact) ys.  Its Newton
    coefficients Delta^L y_0 / L!, scaled by (k-1)!/L!, keep the Horner
    expansion in integers; each result is divided once, by (k-1)! den."""
    diffs, coeffs, scale = _differences(ys), [], 1  # scale = (k-1)!/i!
    # Horner expansion of the Newton form; after step i the polynomial has
    # k - i coefficients, so only that live prefix is updated.
    for i in range(len(ys) - 1, -1, -1):
        new = [diffs[i] * scale] + coeffs
        for p, c in enumerate(coeffs):
            new[p] -= i * c
        coeffs = new
        scale *= i or 1
    return [Fraction(c, scale * den) for c in coeffs]

"""Explicit renormalization dynamics: the gasket and interval maps, the
closed-form gasket limit measure, and exact degree bookkeeping.

Every map is a tuple of polynomials in one of sympy's sparse rings over QQ:
QQ[z] for rational maps of the line, QQ[u0, v0, u1, v1] for P1 x P1 and
QQ[a, d, q] for the interval lift. Composition is `PolyElement.compose`, and
each iterate is divided by the gcd of its components (`_reduced`). Degree
growth of the reduced iterates yields the dynamical degree d_infty, which
classifies the spectral dichotomy: d_infty < N forces the N-D eigenvalues to
carry the whole density of states, d_infty = N generically kills them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce

import numpy as np
from sympy import QQ
from sympy.polys.rings import PolyElement, ring

from .spectral import AtomicMeasure

COEFF_BIT_LIMIT = 1 << 20


class CoefficientBlowup(RuntimeError):
    pass


def _qq(x):
    f = Fraction(x)
    return QQ(f.numerator, f.denominator)


def _degree(p: PolyElement, block: slice = slice(None)) -> int:
    """Total degree of p in the generators of `block` (all by default)."""
    return max((sum(m[block]) for m in p.itermonoms()), default=0)


def _reduced(polys: tuple, blocks: tuple = ()) -> tuple:
    """Divide polys by their common (monic) gcd; raise CoefficientBlowup when
    a coefficient's numerator and denominator together exceed COEFF_BIT_LIMIT
    bits.

    Polynomials homogeneous in each generator block of `blocks` take the gcd
    on the affine chart where each block's last generator is 1: a gcd of
    forms is the chart gcd made homogeneous again, times the common power of
    the chart generators. The chart has fewer variables, which makes the gcd
    far cheaper: at the fourth gasket bidegree step it takes 0.002 s, against
    8 s in all four variables (2-core Xeon VM).
    """
    ring_ = polys[0].ring
    ends = [b.stop - 1 for b in blocks]

    def on_chart(m):
        return tuple(0 if i in ends else e for i, e in enumerate(m))

    charts = (ring_({on_chart(m): c for m, c in p.iterterms()}) for p in polys)
    h = reduce(PolyElement.gcd, charts).monic()  # a gcd with a monomial keeps its content
    power = [min((m[i] for p in polys for m in p.itermonoms()), default=0) for i in ends]
    top = [_degree(h, b) for b in blocks]

    def lifted(m):
        m = list(m)
        for b, i, k, e in zip(blocks, ends, power, top):
            m[i] = e - sum(m[b]) + k
        return tuple(m)

    g = ring_({lifted(m): c for m, c in h.iterterms()})
    if g != 1:
        polys = tuple(p.exquo(g) for p in polys)
    for p in polys:
        for c in p.itercoeffs():
            if c.numerator.bit_length() + c.denominator.bit_length() > COEFF_BIT_LIMIT:
                raise CoefficientBlowup("coefficient bits exceed configured limit")
    return polys


def _check_steps(n: int) -> None:
    if n < 1:
        raise ValueError(f"need at least one iterate, got n = {n}")


# -- one-dimensional rational maps ---------------------------------------------


_Z = ring("z", QQ)[0]
_ZW, _z, _w = ring("z w", QQ)  # homogeneous coordinates, for composition


@dataclass(frozen=True)
class RationalMap1D:
    """Reduced rational self-map of the line in QQ[z], monic denominator."""

    numerator: PolyElement
    denominator: PolyElement

    @classmethod
    def from_coeffs(cls, num, den) -> "RationalMap1D":
        """Coefficients in ascending order (constant term first)."""
        P, Q = (_Z({(i,): _qq(c) for i, c in enumerate(cs)}) for cs in (num, den))
        return cls._reduced(P, Q)

    @classmethod
    def _reduced(cls, P: PolyElement, Q: PolyElement) -> "RationalMap1D":
        if not Q:
            raise ZeroDivisionError("zero denominator")
        return cls(*_reduced((P.quo_ground(Q.LC), Q.monic())))

    @property
    def degree(self) -> int:
        return max(_degree(self.numerator), _degree(self.denominator))

    def __call__(self, x):
        x = _qq(x)
        return self.numerator(x) / self.denominator(x)

    def compose(self, other: "RationalMap1D") -> "RationalMap1D":
        """self after other: with self = P/Q of degree d and other = A/B,
        P(A/B) B^d over Q(A/B) B^d, gcd-reduced."""
        d = self.degree
        sub = [(_z, other.numerator.set_ring(_ZW)), (_w, other.denominator.set_ring(_ZW))]
        P, Q = (
            _ZW({(i, d - i): c for (i,), c in p.iterterms()}).compose(sub).set_ring(_Z)
            for p in (self.numerator, self.denominator)
        )
        return self._reduced(P, Q)


def compose_reduce_1d(f: RationalMap1D, n: int) -> tuple[RationalMap1D, list[int]]:
    """Iterate with reduction; returns (f^n reduced, [deg f^1 .. deg f^n])."""
    _check_steps(n)
    degrees = [f.degree]
    cur = f
    while len(degrees) < n:
        cur = f.compose(cur)
        degrees.append(cur.degree)
    return cur, degrees


# -- biprojective maps (P1 x P1) -------------------------------------------------


_UV, U0, V0, U1, V1 = ring("u0 v0 u1 v1", QQ)
_BLOCKS = (slice(0, 2), slice(2, 4))


@dataclass(frozen=True)
class DegreeMatrix:
    """Bidegrees d[i][j] = degree of pair j in variable block i."""

    entries: tuple[tuple[int, ...], ...]

    @property
    def l_n(self) -> float:
        w = np.linalg.eigvals(np.asarray(self.entries, dtype=float))
        return float(np.max(np.abs(w)))

    def __le__(self, other: "DegreeMatrix") -> bool:
        return all(
            a <= b for ra, rb in zip(self.entries, other.entries) for a, b in zip(ra, rb)
        )

    def matmul(self, other: "DegreeMatrix") -> "DegreeMatrix":
        A = np.asarray(self.entries, dtype=object)
        B = np.asarray(other.entries, dtype=object)
        return DegreeMatrix(tuple(tuple(int(x) for x in row) for row in A @ B))


@dataclass(frozen=True)
class BiProjectiveMap:
    """Self-map of P1 x P1 by two pairs of bihomogeneous polynomials in
    QQ[u0, v0, u1, v1]; each pair has one degree per block, which the chart
    gcd of `compose` relies on."""

    pairs: tuple[tuple[PolyElement, PolyElement], tuple[PolyElement, PolyElement]]

    def __post_init__(self):
        for j, (P, Q) in enumerate(self.pairs):
            for i, blk in enumerate(_BLOCKS):
                degs = sorted({sum(m[blk]) for p in (P, Q) for m in p.itermonoms()})
                if len(degs) > 1:
                    raise ValueError(f"pair {j} not bihomogeneous in block {i}: degrees {degs}")

    def degree_matrix(self) -> DegreeMatrix:
        return DegreeMatrix(
            tuple(tuple(_degree(self.pairs[j][0], blk) for j in range(2)) for blk in _BLOCKS)
        )

    def compose(self, other: "BiProjectiveMap") -> "BiProjectiveMap":
        """self after other, reduced by the polynomial gcd within each pair."""
        sub = list(zip(_UV.gens, (p for pair in other.pairs for p in pair)))
        return BiProjectiveMap(
            tuple(_reduced((P.compose(sub), Q.compose(sub)), _BLOCKS) for P, Q in self.pairs)
        )


def bidegree_sequence(m: BiProjectiveMap, n: int) -> list[DegreeMatrix]:
    """Degree matrices of the reduced iterates m, m^2, ..., m^n."""
    _check_steps(n)
    if n > 4:
        raise CoefficientBlowup("bidegree composition capped at n = 4")
    out = [m.degree_matrix()]
    cur = m
    while len(out) < n:
        cur = m.compose(cur)
        out.append(cur.degree_matrix())
    return out


# -- worked example maps -----------------------------------------------------------


@dataclass(frozen=True)
class GasketMaps:
    g: BiProjectiveMap
    ghat: RationalMap1D
    phat: RationalMap1D
    lift: tuple  # polynomial lift on C^2 x C^2, four elements of QQ[u0, v0, u1, v1]


def gasket_maps() -> GasketMaps:
    """All explicit gasket maps, exact coefficients."""
    g = BiProjectiveMap(
        (
            (3 * U0 * U1, 2 * U0 * V1 + U1 * V0),
            (3 * U1 * (U0 * V1 + U1 * V0), 5 * U1 * V0 * V1 + U0 * V1**2),
        )
    )
    # ghat(z) = z(z+5) / ((2z+1)(z+1)) = (z^2+5z) / (2z^2+3z+1)
    ghat = RationalMap1D.from_coeffs([0, 5, 1], [1, 3, 2])
    # phat(v) = v(5+2v)
    phat = RationalMap1D.from_coeffs([0, 5, 2], [1])
    lift = (
        3 * U0 * U1 * V1,
        2 * U0 * V1**2 + V0 * U1 * V1,
        6 * U1 * (U0 * V1 + U1 * V0),
        2 * (5 * U1 * V0 * V1 + U0 * V1**2),
    )
    return GasketMaps(g, ghat, phat, lift)


def gasket_conjugacy_holds() -> bool:
    """phat o c = c o ghat for the change of variable c(z) = 3z/(1-z)."""
    gm = gasket_maps()
    c = RationalMap1D.from_coeffs([0, 3], [1, -1])
    return gm.phat.compose(c) == c.compose(gm.ghat)


def _phat_inverse(t: float) -> tuple[float, float]:
    """The two real solutions of phat(v) = v(5+2v) = t, for t >= -25/8."""
    disc = math.sqrt(25.0 + 8.0 * t)
    return (-5.0 + disc) / 4.0, (-5.0 - disc) / 4.0


def _preimage_levels(target: float, k_max: int) -> list[list[float]]:
    """Depths 0..k_max of the preimage tree of target, breadth first: the
    children of the j-th location at one depth are the (2j)-th and the
    (2j+1)-th at the next."""
    levels = [[float(target)]]
    for _ in range(k_max):
        levels.append([v for t in levels[-1] for v in _phat_inverse(t)])
    return levels


def phat_preimages(target: float, k: int) -> list[float]:
    """All real solutions of phat^k(v) = target, target in the backward-
    invariant interval [-5/2, 0]."""
    if not -2.5 <= target <= 0.0:
        raise ValueError("target outside the backward-invariant interval [-5/2, 0]")
    return sorted(_preimage_levels(target, k)[-1])


def phat_preimage_tree(target: float, k_max: int) -> list[dict]:
    """Preimage tree as flat records {depth, parent, location}; parent indexes
    the record list, -1 for the root."""
    records: list[dict] = []
    for depth, level in enumerate(_preimage_levels(target, k_max)):
        above = len(records) - len(level) // 2  # first record one depth up
        records += [{"depth": depth, "parent": above + j // 2 if depth else -1, "location": v}
                    for j, v in enumerate(level)]
    return records


GASKET_EXCEPTIONAL = (-3.0, -1.5, -2.5)


def gasket_limit_measure(k_max: int) -> AtomicMeasure:
    """Truncation of the limiting N-D density: (1/2) delta_{-3} plus mass
    3^{-k-1}/2 at every k-th preimage of -3/2 and -5/2, k <= k_max."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    trees = [_preimage_levels(target, k_max) for target in (-1.5, -2.5)]
    atoms: list[tuple[float, Fraction]] = [(-3.0, Fraction(1, 2))]
    for k in range(k_max + 1):
        mass = Fraction(1, 2 * 3 ** (k + 1))
        for levels in trees:
            atoms += [(loc, mass) for loc in sorted(levels[k])]
    return AtomicMeasure.from_atoms(atoms, merge_tol=1e-9)


def gasket_limit_truncation_deficit(k_max: int) -> Fraction:
    """Mass missing from the k_max truncation: (2/3)^(k_max+1)."""
    return Fraction(2, 3) ** (k_max + 1)


_ADQ, _A, _D, _Q = ring("a d q", QQ)
_ADQ_BLOCKS = (slice(0, 3),)


@dataclass(frozen=True)
class IntervalMaps:
    alpha: Fraction
    delta: Fraction
    t_coords: tuple  # T on (a, d, q): (three numerators, common denominator) in QQ[a, d, q]
    rhat: tuple  # degree-2 polynomial lift on C^3, three elements of QQ[a, d, q]

    @cached_property
    def rhat_terms(self) -> tuple:
        """The terms c a^i d^j q^k of each rhat component as (float(c), i, j, k)."""
        return tuple(tuple((float(c), *m) for m, c in comp.iterterms()) for comp in self.rhat)

    def rhat_numeric(self, v) -> tuple[complex, complex, complex]:
        """rhat at a complex point v = (a, d, q), term by term."""
        a, d, q = v
        return tuple(sum(c * a**i * d**j * q**k for c, i, j, k in comp) for comp in self.rhat_terms)


def interval_maps(alpha) -> IntervalMaps:
    """T and its degree-2 polynomial lift on coordinates (a, d, q)."""
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ValueError("need 0 < alpha < 1")
    delta = alpha / (1 - alpha)
    dl = _qq(delta)
    den = _A + _D / dl
    nums = (_A * den - _Q**2 / dl, dl * _D * den - dl * _Q**2, -(_Q**2))
    # rhat = p T with p = delta * den
    rhat = tuple(dl * num for num in nums)
    return IntervalMaps(alpha, delta, (nums, den), rhat)


def interval_rhat_iterate_symbolic(m: IntervalMaps, n: int):
    """Exact iterates of the C^3 lift with gcd reduction; returns the list of
    (component tuple, degree) per step."""
    _check_steps(n)
    out = []
    cur = m.rhat
    while True:
        cur = _reduced(cur, _ADQ_BLOCKS)
        out.append((cur, max(_degree(c) for c in cur)))
        if len(out) == n:
            return out
        sub = list(zip(_ADQ.gens, cur))
        cur = tuple(c.compose(sub) for c in m.rhat)


def interval_green_estimate(m: IntervalMaps, Q, n_max: int = 30):
    """Normalized degree-2 iteration of the C^3 lift.

    Returns (value, gap_history) with value = ln||Q|| + sum g_k / 2^{k+1}.
    The point is three Python complex numbers, so one step costs a few
    microseconds.
    """
    v = tuple(map(complex, Q))
    nrm = math.hypot(*map(abs, v))
    if nrm == 0:
        raise ValueError("nonzero start needed")
    value = math.log(nrm)
    partials = []
    for k in range(n_max):
        v = m.rhat_numeric([x / nrm for x in v])
        nrm = math.hypot(*map(abs, v))
        if nrm == 0:
            return -math.inf, partials
        value += math.log(nrm) / 2 ** (k + 1)
        partials.append(value)
    return value, partials


def interval_phi_coords(lam, m0=1, m1=1):
    """(a, d, q) coordinates of the line A - lambda diag(b) for the interval."""
    return (1 - lam * m0, 1 - lam * m1, -1)


# -- dynamical degree and dichotomy ------------------------------------------------


def dynamical_degree(l_sequence) -> tuple[float, list[float]]:
    """Estimate d_infty = lim l_n^(1/n); returns (estimate at largest n, the
    whole root sequence)."""
    seq = [float(l) ** (1.0 / (k + 1)) for k, l in enumerate(l_sequence)]
    if not seq:
        raise ValueError("empty degree sequence")
    return seq[-1], seq


def dichotomy_classify(d_inf: float, N: int, margin: float = 0.2) -> str:
    """case_i (d_infty < N: N-D eigenvalues exhaust the density of states) or
    case_ii (d_infty = N: generically no N-D spectrum)."""
    if not d_inf > 0 or not math.isfinite(d_inf):
        return "inconclusive"
    if d_inf < N - margin:
        return "case_i"
    if abs(d_inf - N) <= margin:
        return "case_ii"
    return "inconclusive"


def growth_check(counts: list[tuple[int, float]]) -> float:
    """Least-squares slope of log|nu^+ - nu^ND| (total mass) against n.

    ``counts`` holds (n, total mass of the difference measure); a zero mass
    anywhere yields -inf (the difference vanished identically).
    """
    if any(m == 0 for _, m in counts):
        return -math.inf
    ns = np.array([n for n, _ in counts], dtype=float)
    ys = np.log(np.array([m for _, m in counts], dtype=float))
    A = np.vstack([ns, np.ones_like(ns)]).T
    slope, _ = np.linalg.lstsq(A, ys, rcond=None)[0]
    return float(slope)

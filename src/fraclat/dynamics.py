"""Explicit renormalization dynamics: the gasket and interval maps, the
closed-form gasket limit measure, and exact degree bookkeeping.

Rational-map composition and gcd reduction run over exact rationals
(sympy); degree growth of the reduced iterates yields the dynamical degree
d_infty, which classifies the spectral dichotomy: d_infty < N forces the
N-D eigenvalues to carry the whole density of states, d_infty = N
generically kills them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import sympy
from sympy.abc import z

from .spectral import AtomicMeasure

COEFF_BIT_LIMIT = 1 << 20


class CoefficientBlowup(RuntimeError):
    pass


def _to_sympy(q) -> sympy.Rational:
    f = Fraction(q)
    return sympy.Rational(f.numerator, f.denominator)


# -- one-dimensional rational maps ---------------------------------------------


@dataclass(frozen=True)
class RationalMap1D:
    """Reduced rational self-map of the line, exact rational coefficients."""

    numerator: sympy.Poly
    denominator: sympy.Poly

    @classmethod
    def from_coeffs(cls, num, den) -> "RationalMap1D":
        """Coefficients in ascending order (constant term first)."""
        P = sympy.Poly([_to_sympy(c) for c in reversed(num)], z, domain="QQ")
        Q = sympy.Poly([_to_sympy(c) for c in reversed(den)], z, domain="QQ")
        return cls._reduced(P, Q)

    @classmethod
    def _reduced(cls, P: sympy.Poly, Q: sympy.Poly) -> "RationalMap1D":
        if Q.is_zero:
            raise ZeroDivisionError("zero denominator")
        if P.is_zero:
            return cls(sympy.Poly(0, z, domain="QQ"), sympy.Poly(1, z, domain="QQ"))
        g = sympy.gcd(P, Q)
        P, Q = sympy.div(P, g)[0], sympy.div(Q, g)[0]
        lead = Q.LC() if Q.degree() >= 0 else sympy.Integer(1)
        return cls(sympy.Poly(P / lead, z, domain="QQ"), sympy.Poly(Q / lead, z, domain="QQ"))

    @property
    def degree(self) -> int:
        return max(self.numerator.degree(), self.denominator.degree())

    def __call__(self, x):
        num = self.numerator.eval(_to_sympy(x) if isinstance(x, (int, Fraction)) else x)
        den = self.denominator.eval(_to_sympy(x) if isinstance(x, (int, Fraction)) else x)
        return num / den

    def compose(self, other: "RationalMap1D") -> "RationalMap1D":
        """self after other, with exact gcd reduction."""
        A, B = other.numerator, other.denominator
        d = self.degree
        x_ = sympy.Symbol("_t")
        num = sympy.Integer(0)
        den = sympy.Integer(0)
        Ax, Bx = A.as_expr(), B.as_expr()
        pc = self.numerator.all_coeffs()[::-1]
        qc = self.denominator.all_coeffs()[::-1]
        for i in range(d + 1):
            term = Ax**i * Bx ** (d - i)
            if i < len(pc) and pc[i] != 0:
                num += pc[i] * term
            if i < len(qc) and qc[i] != 0:
                den += qc[i] * term
        P = sympy.Poly(sympy.expand(num), z, domain="QQ")
        Q = sympy.Poly(sympy.expand(den), z, domain="QQ")
        out = self._reduced(P, Q)
        for poly in (out.numerator, out.denominator):
            for c in poly.all_coeffs():
                if c.p.bit_length() + c.q.bit_length() > COEFF_BIT_LIMIT:
                    raise CoefficientBlowup("coefficient bits exceed configured limit")
        return out

    def as_expr(self):
        return self.numerator.as_expr() / self.denominator.as_expr()


def compose_reduce_1d(f: RationalMap1D, n: int) -> tuple[RationalMap1D, list[int]]:
    """Iterate with reduction; returns (f^n reduced, [deg f^1 .. deg f^n])."""
    degrees = []
    cur = f
    for _ in range(n):
        degrees.append(cur.degree)
        if len(degrees) == n:
            return cur, degrees
        cur = f.compose(cur)
    return cur, degrees


# -- biprojective maps (P1 x P1) -------------------------------------------------


U0, V0, U1, V1 = sympy.symbols("u0 v0 u1 v1")
_BLOCKS = ((U0, V0), (U1, V1))


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
    """Self-map of P1 x P1 by two pairs of bihomogeneous polynomials."""

    pairs: tuple[tuple[sympy.Expr, sympy.Expr], tuple[sympy.Expr, sympy.Expr]]

    def __post_init__(self):
        for j, (P, Q) in enumerate(self.pairs):
            for i, blk in enumerate(_BLOCKS):
                dP = _block_degree(P, blk)
                dQ = _block_degree(Q, blk)
                if dP != dQ:
                    raise ValueError(
                        f"pair {j} not bihomogeneous in block {i}: {dP} vs {dQ}"
                    )

    def degree_matrix(self) -> DegreeMatrix:
        return DegreeMatrix(
            tuple(
                tuple(_block_degree(self.pairs[j][0], blk) for j in range(2))
                for blk in _BLOCKS
            )
        )

    def compose(self, other: "BiProjectiveMap") -> "BiProjectiveMap":
        """self after other, reduced by the polynomial gcd within each pair."""
        subs = {
            U0: other.pairs[0][0],
            V0: other.pairs[0][1],
            U1: other.pairs[1][0],
            V1: other.pairs[1][1],
        }
        new_pairs = []
        for (P, Q) in self.pairs:
            Pn = sympy.expand(P.subs(subs, simultaneous=True))
            Qn = sympy.expand(Q.subs(subs, simultaneous=True))
            g = sympy.gcd(
                sympy.Poly(Pn, U0, V0, U1, V1, domain="QQ"),
                sympy.Poly(Qn, U0, V0, U1, V1, domain="QQ"),
            )
            gex = g.as_expr()
            Pn = sympy.expand(sympy.cancel(Pn / gex))
            Qn = sympy.expand(sympy.cancel(Qn / gex))
            for poly in (Pn, Qn):
                for c in sympy.Poly(poly, U0, V0, U1, V1).coeffs():
                    if sympy.Rational(c).p.bit_length() > COEFF_BIT_LIMIT:
                        raise CoefficientBlowup("coefficient bits exceed limit")
            new_pairs.append((Pn, Qn))
        return BiProjectiveMap(tuple(new_pairs))


def _block_degree(expr: sympy.Expr, block) -> int:
    p = sympy.Poly(expr, *block)
    return int(p.total_degree())


def bidegree_sequence(m: BiProjectiveMap, n: int) -> list[DegreeMatrix]:
    """Degree matrices of the reduced iterates m, m^2, ..., m^n."""
    if n > 4:
        raise CoefficientBlowup("bidegree composition capped at n = 4")
    out = []
    cur = m
    for k in range(n):
        out.append(cur.degree_matrix())
        if k + 1 < n:
            cur = m.compose(cur)
    return out


# -- worked example maps -----------------------------------------------------------


@dataclass(frozen=True)
class GasketMaps:
    t_coords: tuple  # T in (u0, u1) coordinates, pair of sympy exprs
    g: BiProjectiveMap
    ghat: RationalMap1D
    phat: RationalMap1D
    lift: tuple  # polynomial lift on C^2 x C^2, four sympy exprs


def gasket_maps() -> GasketMaps:
    """All explicit gasket maps, exact coefficients."""
    u0, u1 = sympy.symbols("u0_ u1_")
    t_coords = (
        3 * u0 * u1 / (2 * u0 + u1),
        3 * u1 * (u0 + u1) / (5 * u1 + u0),
    )
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
    return GasketMaps(t_coords, g, ghat, phat, lift)


def gasket_conjugacy_holds() -> bool:
    """phat o c = c o ghat for the change of variable c(z) = 3z/(1-z)."""
    gm = gasket_maps()
    c = 3 * z / (1 - z)
    lhs = gm.phat.as_expr().subs(z, c)
    rhs = c.subs(z, gm.ghat.as_expr())
    return sympy.simplify(lhs - rhs) == 0


def _phat_inverse(t: float) -> tuple[float, float]:
    """The two real solutions of phat(v) = v(5+2v) = t, for t >= -25/8."""
    disc = math.sqrt(25.0 + 8.0 * t)
    return (-5.0 + disc) / 4.0, (-5.0 - disc) / 4.0


def phat_preimages(target: float, k: int) -> list[float]:
    """All real solutions of phat^k(v) = target, target in the backward-
    invariant interval [-5/2, 0]."""
    if not -2.5 <= target <= 0.0:
        raise ValueError("target outside the backward-invariant interval [-5/2, 0]")
    level = [float(target)]
    for _ in range(k):
        level = [v for t in level for v in _phat_inverse(t)]
    return sorted(level)


def phat_preimage_tree(target: float, k_max: int) -> list[dict]:
    """Preimage tree as flat records {depth, parent, location}; parent indexes
    the record list, -1 for the root."""
    records = [{"depth": 0, "parent": -1, "location": float(target)}]
    frontier = [0]
    for _ in range(k_max):
        nxt = []
        for idx in frontier:
            for root in _phat_inverse(records[idx]["location"]):
                records.append(
                    {"depth": records[idx]["depth"] + 1, "parent": idx, "location": root}
                )
                nxt.append(len(records) - 1)
        frontier = nxt
    return records


GASKET_EXCEPTIONAL = (-3.0, -1.5, -2.5)


def gasket_limit_measure(k_max: int) -> AtomicMeasure:
    """Truncation of the limiting N-D density: (1/2) delta_{-3} plus mass
    3^{-k-1}/2 at every k-th preimage of -3/2 and -5/2, k <= k_max."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    atoms: list[tuple[float, Fraction]] = [(-3.0, Fraction(1, 2))]
    for k in range(k_max + 1):
        mass = Fraction(1, 2) * Fraction(1, 3 ** (k + 1))
        for target in (-1.5, -2.5):
            for loc in phat_preimages(target, k):
                atoms.append((loc, mass))
    return AtomicMeasure.from_atoms(atoms, merge_tol=1e-9)


def gasket_limit_truncation_deficit(k_max: int) -> Fraction:
    """Mass missing from the k_max truncation: (2/3)^(k_max+1)."""
    return Fraction(2, 3) ** (k_max + 1)


@dataclass(frozen=True)
class IntervalMaps:
    alpha: Fraction
    delta: Fraction
    t_coords: tuple  # T on (a, d, q), sympy exprs
    rhat: tuple  # degree-2 polynomial lift on C^3, sympy exprs

    def rhat_numeric(self, v):
        a, d, q = v
        dl = float(self.delta)
        den = a + d / dl
        return np.array(
            [dl * (a * den - q * q / dl), dl * (dl * d * den - dl * q * q), -dl * q * q]
        )


def interval_maps(alpha) -> IntervalMaps:
    """T and its degree-2 polynomial lift on coordinates (a, d, q)."""
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ValueError("need 0 < alpha < 1")
    delta = alpha / (1 - alpha)
    dl = _to_sympy(delta)
    a, d, q = sympy.symbols("a d q")
    den = a + d / dl
    t_coords = (
        (a * den - q**2 / dl) / den,
        (dl * d * den - dl * q**2) / den,
        -(q**2) / den,
    )
    rhat = tuple(
        sympy.expand(dl * expr)
        for expr in (a * den - q**2 / dl, dl * d * den - dl * q**2, -(q**2))
    )
    return IntervalMaps(alpha, delta, t_coords, rhat)


def interval_rhat_iterate_symbolic(m: IntervalMaps, n: int):
    """Exact iterates of the C^3 lift with gcd reduction; returns the list of
    (component tuple, degree) per step."""
    a, d, q = sympy.symbols("a d q")
    cur = m.rhat
    out = []
    for k in range(n):
        polys = [sympy.Poly(c, a, d, q, domain="QQ") for c in cur]
        g = polys[0]
        for p in polys[1:]:
            g = sympy.gcd(g, p)
        if g.total_degree() > 0:
            cur = tuple(sympy.expand(sympy.cancel(c / g.as_expr())) for c in cur)
        deg = max(sympy.Poly(c, a, d, q).total_degree() for c in cur)
        out.append((cur, deg))
        if k + 1 < n:
            subs = {a: cur[0], d: cur[1], q: cur[2]}
            cur = tuple(sympy.expand(c.subs(subs, simultaneous=True)) for c in m.rhat)
    return out


def interval_green_estimate(m: IntervalMaps, Q, n_max: int = 30):
    """Normalized degree-2 iteration of the C^3 lift.

    Returns (value, gap_history) with value = ln||Q|| + sum g_k / 2^{k+1}.
    """
    v = np.asarray(Q, dtype=complex)
    nrm = float(np.linalg.norm(v))
    if nrm == 0:
        raise ValueError("nonzero start needed")
    v = v / nrm
    value = math.log(nrm)
    partials = []
    for k in range(n_max):
        v = m.rhat_numeric(v)
        nrm = float(np.linalg.norm(v))
        if nrm == 0:
            return -math.inf, partials
        value += math.log(nrm) / 2 ** (k + 1)
        partials.append(value)
        v = v / nrm
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

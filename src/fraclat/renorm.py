"""Renormalization maps on symmetric matrices and on the Grassmann algebra.

T sends Q to the trace on the level-1 boundary of the assembled Q_<1>;
R is its degree-N polynomial lift acting on the balanced Grassmann algebra,
compiled once per context into a sparse tensor on coefficient rows.
The two are tied by R^n(exp_q(Q)) = C_n det((Q_<n>)|interior) exp_q(T^n Q);
the Green function of R is estimated by a normalized iteration, batched over
the spectral parameter, and the Dirichlet/Neumann characteristic polynomials
come out of exact R-iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from fractions import Fraction

import numpy as np

from . import grassmann as gr
from .dynamics import COEFF_BIT_LIMIT
from .grassmann import GrassmannElement
from .operator import BaseOperator, assemble, cell_sums, check_lattice, sums_exact
from .schur import _trace_classified, in_siegel_halfspace, trace_on_subset  # noqa: F401 (re-exported)
from .spectral import AtomicMeasure, nd_nullity, nd_spectrum
from .structure import LatticeLevel, StructureSpec, _over_lcm, build_level, is_exact, numeric


@dataclass(frozen=True)
class RenormContext:
    """Precomputed level-1 data driving t_map and r_map."""

    spec: StructureSpec
    level1: LatticeLevel

    @classmethod
    def build(cls, spec: StructureSpec) -> "RenormContext":
        """The context of ``spec``, built once per spec and weight types
        (equal weights of different types, 1 and 1.0, build different
        contexts) and shared: a context is immutable."""
        return _build_context(spec, spec.weight_types)

    @cached_property
    def symg_basis(self) -> tuple[np.ndarray, ...]:
        return symmetric_commutant_basis(self.spec)

    @cached_property
    def r(self) -> "RTensor":
        """R compiled into a sparse tensor, once per context."""
        return compile_r(self)

    def vertex_count(self, n: int) -> int:
        """V_n, the number of vertices at level n, without building it.

        Level n is N copies of level n-1 glued at their boundary points the
        way level 1 glues N copies of F, so V_n = N V_{n-1} - (N N0 - V_1).
        """
        spec = self.spec
        v = spec.N0
        for _ in range(n):
            v = spec.N * v - (spec.N * spec.N0 - self.level1.num_vertices)
        return v

    def c_constant(self, n: int):
        """Constant of the R^n/T^n consistency identity.

        C_n = prod_k (alpha_k/alpha_1) ** sum_{j<n} |interior F_j| N^(n-1-j),
        from C_n = C_{n-1}^N * prod_k (alpha_k/alpha_1)^{|interior F_{n-1}|}.
        With exact weights, raises ValueError before taking a power whose
        numerator and denominator would need over COEFF_BIT_LIMIT bits.
        """
        spec = self.spec
        p = Fraction(1) if is_exact(spec.alpha) else 1.0
        for k in range(spec.N):
            p = p * spec.alpha[k] / spec.alpha[0]
        e = 0
        for j in range(n):
            e += (self.vertex_count(j) - spec.N0) * spec.N ** (n - 1 - j)
        if is_exact((p,)) and e * ((p.numerator * p.denominator).bit_length() - 1) > COEFF_BIT_LIMIT:
            raise ValueError(f"C_{n} = ({p})**{e} exceeds {COEFF_BIT_LIMIT} bits")
        return p**e


@lru_cache(maxsize=16)
def _build_context(spec: StructureSpec, weight_types: tuple) -> RenormContext:
    return RenormContext(spec=spec, level1=build_level(spec, 1))


@dataclass(frozen=True)
class RTensor:
    """R as a sparse homogeneous polynomial of degree N on the coefficient
    row x of the base-cell algebra (coordinates of grassmann.basis(N0)):

        R(x)[out_t] += coef_t / den * x[idx_t0] * x[idx_t1] * ... * x[idx_t(N-1)]

    Terms are sorted by output coordinate: ``starts`` holds the first term
    of each nonzero output coordinate and ``outputs`` that coordinate.
    """

    idx: np.ndarray  # (terms, N) coordinate of each factor
    coef: np.ndarray  # Python-int numerators over den when exact, else floats over 1
    den: int
    coef_float: np.ndarray
    starts: np.ndarray
    outputs: np.ndarray
    exact: bool

    def apply(self, x: np.ndarray) -> np.ndarray:
        """R on every row of the (B, D) array x.  Exact rows stay exact when
        the tensor is: apply_int on their int numerators, divided once."""
        if x.dtype == object and not self.exact:
            x = x.astype(float)
        if x.dtype != object:
            return self._product(x, self.coef_float)
        num, d = _over_lcm(x.ravel())
        y, d = self.apply_int(num.reshape(x.shape), d)
        return np.array([Fraction(v, d) for v in y.ravel()], dtype=object).reshape(y.shape)

    def apply_int(self, x: np.ndarray, d: int) -> tuple[np.ndarray, int]:
        """(y, den * d**N) with y / (den * d**N) = R(x / d), for int rows x."""
        return self._product(x, self.coef), self.den * d ** self.idx.shape[1]

    def _product(self, x: np.ndarray, coef: np.ndarray) -> np.ndarray:
        prod = coef * x[:, self.idx[:, 0]]
        for col in self.idx.T[1:]:
            prod = prod * x[:, col]
        y = np.zeros_like(x)
        if len(self.starts):
            y[:, self.outputs] = np.add.reduceat(prod, self.starts, axis=1)
        return y


def _single(X: GrassmannElement) -> tuple[int, int, object]:
    ((i, j), c), = X.coeffs.items()
    return i, j, c


def compile_r(ctx: RenormContext) -> RTensor:
    """Find the terms of R by pruned partial products of lifted basis monomials.

    Lifting a basis monomial into cell i (scaled per cell energy) gives one
    monomial over the level-1 generators, so a partial product over cells
    0..i is a running (I, J, coefficient) triple.  It is dropped as soon as
    two factors share a generator, or once it misses an interior generator
    that no later cell can supply; each surviving full product is restricted
    to the boundary algebra, which leaves one monomial.
    """
    spec, lat1 = ctx.spec, ctx.level1
    n0, N, V1 = spec.N0, spec.N, lat1.num_vertices
    basis, index = gr.basis(n0), gr.basis_index(n0)
    w, den = lat1.energy_weights
    scalings = w.tolist() if den is None else [Fraction(c, den) for c in w]  # alpha_1/alpha_i
    cells = lat1.cell_ids.tolist()
    lifts = [
        [
            (d, *_single(gr.relabel(GrassmannElement(n0, {(I, J): s ** I.bit_count()}), images, V1)))
            for d, (I, J) in enumerate(basis)
        ]
        for images, s in zip(cells, scalings)
    ]
    interior = (1 << V1) - 1
    for v in lat1.boundary:
        interior &= ~(1 << v)
    due, later = [0] * N, 0
    for i in reversed(range(N)):
        due[i] = interior & ~later
        for v in cells[i]:
            later |= 1 << v

    terms = []

    def extend(i, I, J, c, factors):
        if i == N:
            i_out, j_out, c_out = _single(gr.restrict(GrassmannElement(V1, {(I, J): c}), lat1.boundary))
            terms.append((index[(i_out, j_out)], factors, c_out))
            return
        for d, Ii, Ji, ci in lifts[i]:
            sign = gr._mono_sign(I, J, Ii, Ji)
            I2, J2 = I | Ii, J | Ji
            if sign and I2 & due[i] == due[i] and J2 & due[i] == due[i]:
                extend(i + 1, I2, J2, sign * c * ci, factors + (d,))

    extend(0, 0, 0, 1, ())
    terms.sort(key=lambda t: t[0])
    out = np.array([t[0] for t in terms], dtype=np.intp)
    values, exact = [t[2] for t in terms], is_exact(scalings)
    coef, den = _over_lcm(values) if exact else (np.array(values, dtype=float), 1)
    starts = np.flatnonzero(np.diff(out, prepend=-1))
    arrays = dict(
        idx=np.array([t[1] for t in terms], dtype=np.intp).reshape(len(terms), N),
        coef=coef,
        coef_float=np.array([float(c) for c in values]),
        starts=starts,
        outputs=out[starts],
    )
    for a in arrays.values():
        a.setflags(write=False)
    return RTensor(den=den, exact=exact, **arrays)


def symmetric_commutant_basis(spec: StructureSpec) -> tuple[np.ndarray, ...]:
    """Exact basis of Sym^G: indicators of the group orbits of index pairs,
    as read-only arrays."""
    n0 = spec.N0
    group = spec.group or ((tuple(range(spec.N))),)
    seen: set[frozenset] = set()
    basis = []
    for x in range(n0):
        for y in range(x, n0):
            orbit = frozenset(
                (min(g[x], g[y]), max(g[x], g[y])) for g in group
            )
            if orbit in seen:
                continue
            seen.add(orbit)
            M = np.zeros((n0, n0), dtype=object)
            for (a, b) in orbit:
                M[a, b] = Fraction(1)
                M[b, a] = Fraction(1)
            M.setflags(write=False)
            basis.append(M)
    return tuple(basis)


def is_g_invariant(spec: StructureSpec, Q: np.ndarray, tol: float = 0.0) -> bool:
    Qc, F = np.asarray(Q), range(spec.N0)
    return not any(abs(complex(Qc[g[x], g[y]] - Qc[x, y])) > tol for g in spec.group for x in F for y in F)


# -- gasket coordinates ---------------------------------------------------------


def gasket_matrix(u0, u1) -> np.ndarray:
    """Q = u0 p_W0 + u1 p_W1 on 3 points (W0 = constants)."""
    exact = is_exact((u0, u1))
    third = Fraction(1, 3) if exact else 1.0 / 3.0
    J = np.full((3, 3), third, dtype=object)
    I = np.diag([1, 1, 1]).astype(object)
    M = u0 * J + u1 * (I - J)
    return M if exact else np.asarray(M, dtype=complex)


def gasket_coords(Q: np.ndarray) -> tuple:
    """Inverse of gasket_matrix for S3-invariant Q."""
    Q = np.asarray(Q)
    u0 = Q[0, 0] + Q[0, 1] + Q[0, 2]
    u1 = (Q[0, 0] + Q[1, 1] + Q[2, 2] - u0) / 2
    return u0, u1


# -- matrix-level renormalization -----------------------------------------------


def level_matrix(ctx: RenormContext, Q: np.ndarray, lat: LatticeLevel | None = None) -> np.ndarray:
    """Assemble Q_<n> for Q or for every matrix of a (..., N0, N0) stack: the
    weighted sum of copies of Q over all n-cells, exact (object Fractions)
    when Q (by structure.numeric) and the energy weights are, else complex.
    ``lat`` (level 1 by default) must be built from ctx.spec."""
    lat = ctx.level1 if lat is None else lat
    check_lattice(ctx.spec, lat)
    _, (Q,) = numeric(Q)
    V = lat.num_vertices
    keys, sums, den = cell_sums(lat, lat.energy_weights, Q)
    shape = (*Q.shape[:-2], V * V)
    if den is None:
        out = np.zeros(shape, dtype=complex)
    else:
        out = np.full(shape, Fraction(0), dtype=object)
        sums = np.reshape(sums_exact(keys, sums.ravel(), den), sums.shape)
    out[..., keys] = sums
    return out.reshape(*Q.shape[:-2], V, V)


def t_map(ctx: RenormContext, Q: np.ndarray) -> np.ndarray:
    """One decimation step on Q or on every matrix of a (..., N0, N0) stack:
    the trace of Q_<1> on the level-1 boundary, in the boundary's labels."""
    Q = np.asarray(Q)
    if Q.shape[-2:] != (ctx.spec.N0, ctx.spec.N0):
        raise ValueError("Q must act on the base cell")
    return _trace_classified(level_matrix(ctx, Q), ctx.level1.boundary)


def t_iterate(ctx: RenormContext, Q: np.ndarray, n: int) -> np.ndarray:
    for _ in range(n):
        Q = t_map(ctx, Q)
    return Q


# -- Grassmann-level renormalization --------------------------------------------


def r_map(ctx: RenormContext, X: GrassmannElement) -> GrassmannElement:
    """Lift X into every level-1 cell (scaled per cell energy), multiply,
    and restrict to the boundary algebra, by the compiled tensor ctx.r."""
    if X.n != ctx.spec.N0:
        raise ValueError("X must live on the base-cell algebra")
    return GrassmannElement.from_row(X.n, ctx.r.apply(gr.rows([X]))[0])


def r_iterate(ctx: RenormContext, X: GrassmannElement, n: int) -> GrassmannElement:
    for _ in range(n):
        X = r_map(ctx, X)
    return X


def phi_rows(base: BaseOperator, lams) -> np.ndarray:
    """Coefficient rows of phi(lambda) for every lambda of lams: exp_q of the
    stack of A - lambda diag(b), exact when base and every lambda are."""
    dtype = object if base.exact and is_exact(lams) else complex
    A = np.asarray(base.matrix(), dtype=dtype)
    b = np.diag(np.asarray(base.b, dtype=dtype))
    n = base.size
    # the reshape keeps the (B, n, n) stack shape when lams is empty
    Q = np.array([A - lam * b for lam in lams], dtype=dtype).reshape(len(lams), n, n)
    return gr.exp_q_rows(Q)


def phi(base: BaseOperator, lam) -> GrassmannElement:
    """exp of the quadratic form of A - lambda diag(b)."""
    return GrassmannElement.from_row(base.size, phi_rows(base, [lam])[0])


# -- Green function estimation ---------------------------------------------------


ZERO_NORM_FLOOR = 1e-280


@dataclass(frozen=True)
class GreenEstimate:
    value: float
    iterations: int
    tail_bound: float
    log_norm_history: tuple[float, ...]
    hit_zero: bool = False


def green_batch(ctx: RenormContext, x: np.ndarray, n_max: int = 40) -> list[GreenEstimate]:
    """lim N^{-n} ln ||R^n x_b|| for every coefficient row x_b of the (B, D)
    array x (see grassmann.rows), iterated together.

    Telescoping is exact by degree-N homogeneity: with x_{k+1} = R(x_k)/||R(x_k)||
    and g_k = ln ||R(x_k)||, the estimate is ln||X|| + sum g_k / N^{k+1} and the
    truncation error is at most sup|g_k| / (N^{n_max} (N-1)).  A row whose
    iterate falls under ZERO_NORM_FLOOR at step k stops there (value -inf,
    k+1 iterations) and is left out of later steps.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    N = ctx.spec.N
    x = np.asarray(x, dtype=complex)
    nrm = np.sqrt(np.sum(np.abs(x) ** 2, axis=1))
    if np.any(nrm == 0):
        raise ValueError("green_estimate needs X != 0")
    B = len(x)
    x = x / nrm[:, None]
    value = np.log(nrm)
    history = np.empty((n_max, B))
    iterations = np.full(B, n_max)
    hit_zero = np.zeros(B, dtype=bool)
    live = np.arange(B)
    for k in range(n_max):
        if not len(live):
            break
        y = ctx.r.apply(x)
        ynorm = np.sqrt(np.sum(np.abs(y) ** 2, axis=1))
        dead = ynorm <= ZERO_NORM_FLOOR
        if dead.any():
            iterations[live[dead]] = k + 1
            hit_zero[live[dead]] = True
            value[live[dead]] = -math.inf
            live, y, ynorm = live[~dead], y[~dead], ynorm[~dead]
        g = np.log(ynorm)
        history[k, live] = g
        value[live] += g / float(N ** (k + 1))
        x = y / ynorm[:, None]
    out = []
    for b in range(B):
        hist = history[: iterations[b] - hit_zero[b], b]
        tail = 0.0 if hit_zero[b] else float(np.max(np.abs(hist), initial=0.0)) / (N**n_max * (N - 1))
        out.append(GreenEstimate(float(value[b]), int(iterations[b]), tail, tuple(hist.tolist()),
                                 bool(hit_zero[b])))
    return out


def green_estimate(ctx: RenormContext, X: GrassmannElement, n_max: int = 40) -> GreenEstimate:
    """green_batch for a single element X."""
    if X.n != ctx.spec.N0:
        raise ValueError("X must live on the base-cell algebra")
    return green_batch(ctx, gr.rows([X]), n_max)[0]


def green_of_phi(ctx: RenormContext, base: BaseOperator, lam: complex, n_max: int = 20) -> GreenEstimate:
    """green_of_phi_batch for a single lambda."""
    return green_of_phi_batch(ctx, base, [lam], n_max)[0]


def green_of_phi_batch(ctx: RenormContext, base: BaseOperator, lams, n_max: int = 20) -> list[GreenEstimate]:
    """green_of_phi at every lambda of ``lams``, in one batched iteration."""
    return green_batch(ctx, phi_rows(base, lams), n_max)


def harmonicity_residual(
    ctx: RenormContext,
    base: BaseOperator,
    re_lambda: float,
    im_lambda: float = 0.5,
    h: float = 0.05,
    n_max: int = 20,
) -> float:
    """5-point discrete-Laplacian residual of G(phi(lambda)) at one point."""
    lam = complex(re_lambda, im_lambda)
    stencil = [lam + d for d in (0, h, -h, 1j * h, -1j * h)]
    vals = [est.value for est in green_of_phi_batch(ctx, base, stencil, n_max=n_max)]
    return abs(vals[1] + vals[2] + vals[3] + vals[4] - 4 * vals[0]) / h**2


# -- exact spectral polynomials ---------------------------------------------------


def _exact_r_samples(ctx: RenormContext, base: BaseOperator, n: int, deg: int, shift=0):
    """(x, D): Python-int rows with x[t] / D = R^n(phi(t - shift)), t = 0..deg.
    Each coordinate of phi(t) is a minor of A - t diag(b), of degree <= N0,
    so phi is taken at t <= N0 only and extended by Newton's forward formula."""
    if not base.exact or not is_exact((*ctx.spec.alpha, shift)):
        raise ValueError("exact polynomials need exact rational inputs")
    phis = phi_rows(base, [t - shift for t in range(min(deg, ctx.spec.N0) + 1)])
    num, d = _over_lcm(phis.ravel())
    diffs = gr._differences(num.reshape(phis.shape))
    x = np.array([sum(math.comb(t, L) * row for L, row in enumerate(diffs)) for t in range(deg + 1)])
    for _ in range(n):
        x, d = ctx.r.apply_int(x, d)
    return x, d


def dirichlet_poly(ctx: RenormContext, base: BaseOperator, n: int) -> list[Fraction]:
    """Coefficients (ascending) of lambda -> <R^n(phi(lambda)), 1>.

    Exact path, in integers (_exact_r_samples, grassmann._newton_coeffs);
    the roots are the Dirichlet pencil eigenvalues at level n (the negatives
    of the reported spectrum), each with its multiplicity.
    """
    x, d = _exact_r_samples(ctx, base, n, ctx.vertex_count(n) - ctx.spec.N0)
    return gr._newton_coeffs(x[:, 0].tolist(), d)


def neumann_poly(ctx: RenormContext, base: BaseOperator, n: int) -> list[Fraction]:
    """Coefficients of lambda -> <R^n(phi(lambda)), prod etabar eta>; roots are
    the Neumann pencil eigenvalues at level n.  prod etabar eta is the top
    monomial (the last coordinate) up to the interleaving sign."""
    x, d = _exact_r_samples(ctx, base, n, ctx.vertex_count(n))
    sign = gr._interleave_sign(ctx.spec.N0)
    return gr._newton_coeffs([sign * v for v in x[:, -1]], d)


# -- order of vanishing / N-D multiplicities ---------------------------------------


def rho_n(ctx: RenormContext, base: BaseOperator, lam0: float, n: int) -> int:
    """N-D multiplicity at eigenvalue lam0 and level n: the stacked-system
    nullity of A_n + lam0 diag(b_n) with vanishing boundary values."""
    lat = build_level(ctx.spec, n)
    op = assemble(base, ctx.spec, lat)
    return nd_nullity(op, float(lam0))


def rho_n_vanishing_order(ctx: RenormContext, base: BaseOperator, lam0, n: int) -> int:
    """Cross-check of rho_n: exact order of vanishing at lam=0 of
    lambda -> R^n(exp_q(A + lam0 diag(b) - lambda diag(b))).

    The shifted operator line hits the eigenvalue at lambda = 0; lam0 must be
    rational, and n small (exact Grassmann iteration).
    """
    return gr.vanishing_order(_exact_r_samples(ctx, base, n, ctx.vertex_count(n), lam0)[0])


def mu_nd_estimate(ctx: RenormContext, base: BaseOperator, n: int, **kw) -> AtomicMeasure:
    """nu^ND_n / N^n, the level-n approximation of the N-D density."""
    lat = build_level(ctx.spec, n)
    op = assemble(base, ctx.spec, lat)
    return nd_spectrum(op, **kw).scale(Fraction(1, ctx.spec.N**n))


# -- Siegel half-space ---------------------------------------------------------------


def siegel_cross_ratio(Q1: np.ndarray, Q2: np.ndarray) -> np.ndarray:
    Q1 = np.asarray(Q1, dtype=complex)
    Q2 = np.asarray(Q2, dtype=complex)
    A = (Q1 - Q2) @ np.linalg.inv(Q1 - Q2.conj())
    B = (Q1.conj() - Q2.conj()) @ np.linalg.inv(Q1.conj() - Q2)
    return A @ B


def siegel_distance(Q1: np.ndarray, Q2: np.ndarray) -> float:
    """Geodesic distance on the Siegel upper half-space."""
    if not (in_siegel_halfspace(Q1) and in_siegel_halfspace(Q2)):
        raise ValueError("arguments must have positive-definite imaginary part")
    R = siegel_cross_ratio(Q1, Q2)
    r = np.linalg.svd(R, compute_uv=False)
    r = np.clip(r, 0.0, 1.0 - 1e-16)
    s = np.sqrt(r)
    return float(np.sqrt(np.sum(np.log((1 + s) / (1 - s)) ** 2)))


def random_siegel_sample(ctx: RenormContext, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Random G-invariant Siegel point: random real part, SPD imaginary part."""
    basis = ctx.symg_basis
    n0 = ctx.spec.N0
    re = sum(float(rng.standard_normal()) * np.asarray(B, dtype=float) for B in basis)
    im = sum(float(rng.standard_normal()) * np.asarray(B, dtype=float) for B in basis)
    im = im @ im.T + 0.1 * np.eye(n0)  # SPD and still G-invariant
    return scale * (re + 1j * im)


@dataclass(frozen=True)
class SiegelCheck:
    im_positive: bool
    contraction_lower: bool  # min char root of Im(TQ) >= alpha_1/alpha_max * min of Im(Q)
    contraction_inverse: bool
    distance_bound: bool
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.im_positive and self.contraction_lower and self.contraction_inverse and self.distance_bound


def siegel_invariance_check(
    ctx: RenormContext, Q: np.ndarray, n_iter: int = 3, slack: float = 1e-9
) -> SiegelCheck:
    """Check T-invariance of S_+ and the contraction estimates on one sample."""
    alphas = [float(a) for a in ctx.spec.alpha]
    a1, amin, amax = alphas[0], min(alphas), max(alphas)
    n0 = ctx.spec.N0

    def min_root(M):
        return float(np.linalg.svd(np.asarray(M, dtype=complex), compute_uv=False)[-1])

    iid = 1j * np.eye(n0)
    TQ, T_iid = t_map(ctx, np.stack([np.asarray(Q, dtype=complex), iid]))
    im_pos = in_siegel_halfspace(TQ)
    lower = min_root(np.imag(TQ)) >= a1 / amax * min_root(np.imag(Q)) - slack
    inv = min_root(np.imag(np.linalg.inv(TQ))) >= (amin / a1) * min_root(
        np.imag(np.linalg.inv(Q))
    ) - slack

    d_base = siegel_distance(iid, Q)
    d_step = siegel_distance(iid, T_iid)
    ok_dist = True
    dets = {}
    for n in range(1, n_iter + 1):
        Qn = TQ if n == 1 else t_map(ctx, Qn)
        lhs = siegel_distance(iid, Qn)
        rhs = math.sqrt(n0) * (d_base + n * d_step)
        dets[n] = (lhs, rhs)
        if lhs > rhs + slack:
            ok_dist = False
    return SiegelCheck(im_pos, lower, inv, ok_dist, details=dets)

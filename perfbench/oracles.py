"""Output checks, one per job kind.  They run outside the timed region.

Each check raises ``CheckFailed`` with a reason.  The reference values come
from independent routes: exact traces of the assembled operator for the
eigenvalue sums and polynomial coefficients, the stacked-system nullity for
N-D multiplicities, the reduced three-component lift for interval Green
values, and the known degree sequences.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

from fraclat import dynamics, spectral
from fraclat.operator import BaseOperator, assemble
from fraclat.structure import StructureSpec, build_level, builtin_gasket, builtin_interval

from workloads import GREEN_NMAX, Job, Structure

DOS_POINTS = 200  # the dos subcommand's default grid size


class CheckFailed(Exception):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def make_spec(st: Structure) -> StructureSpec:
    if st.family == "gasket":
        return builtin_gasket()
    if st.family == "interval":
        return builtin_interval(st.alpha)
    return StructureSpec.from_dict(st.spec_dict)


def make_base(spec: StructureSpec, d: dict) -> BaseOperator:
    """Base operator from the --base file schema (1-based coupling triplets)."""
    n0 = spec.N0
    a = [[Fraction(0)] * n0 for _ in range(n0)]
    for x, y, v in d["a"]:
        a[x - 1][y - 1] = a[y - 1][x - 1] = Fraction(v)
    return BaseOperator(a=tuple(map(tuple, a)), b=tuple(Fraction(v) for v in d["b"]))


class Reference:
    """Exact per-job data the checks compare against, cached because every
    round repeats the same job objects."""

    def __init__(self):
        self._cache: dict = {}

    def operator(self, job: Job):
        key = id(job)
        if key not in self._cache:
            spec = make_spec(job.structure)
            op = assemble(make_base(spec, job.base), spec, build_level(spec, job.level))
            diag = [Fraction(0)] * op.size
            for (i, j), v in op.entries.items():
                if i == j:
                    diag[i] = v
            interior = set(op.interior)
            ratios = [diag[i] / op.b[i] for i in range(op.size)]
            self._cache[key] = {
                "spec": spec,
                "op": op,
                "V": op.size,
                "trace": {
                    "neumann": sum(ratios, Fraction(0)),
                    "dirichlet": sum((r for i, r in enumerate(ratios) if i in interior), Fraction(0)),
                },
            }
        return self._cache[key]


def read_csv(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    require(len(lines) >= 2 and lines[0].startswith("# command:"), f"{path.name}: bad header")
    return [line.split(",") for line in lines[2:]]


def close(x: float, y: float, rel: float) -> bool:
    return abs(x - y) <= rel * max(abs(x), abs(y), 1e-300)


def check_cli(result) -> None:
    rc, _stdout = result
    require(rc == 0, f"exit code {rc}")


def check_spectrum(job: Job, out: Path, ref: Reference, result) -> None:
    check_cli(result)
    r = ref.operator(job)
    name, n0 = r["spec"].name, r["spec"].N0
    for bc, count in (("neumann", r["V"]), ("dirichlet", r["V"] - n0)):
        rows = [(float(x), int(m)) for x, m in read_csv(out / f"{name}_n{job.level}_{bc}.csv")]
        require(sum(m for _, m in rows) == count, f"{bc}: multiplicities sum to {count}")
        first_moment = sum(x * m for x, m in rows)
        require(
            close(first_moment, -float(r["trace"][bc]), 1e-9),
            f"{bc}: sum lambda*m = {first_moment!r} against -tr(B^-1 A) = {-float(r['trace'][bc])!r}",
        )


def check_dos(job: Job, out: Path, ref: Reference, result) -> None:
    """Endpoint masses: below the spectrum the CDF holds the whole normalized
    mass, and the Neumann zero mode (mass 1/N^n) lies in the last grid cell.
    The grid ends exactly on the CDF's jump at 0, so the last value may read
    1/N^n or 0; Dirichlet eigenvalues are negative, so 0 there."""
    check_cli(result)
    r = ref.operator(job)
    spec = r["spec"]
    scale = spec.N ** job.level
    ends = {"neumann": (r["V"], 1), "dirichlet": (r["V"] - spec.N0, 0)}
    for bc, (total, zero_mode) in ends.items():
        rows = [(float(x), float(c)) for x, c in read_csv(out / f"{spec.name}_n{job.level}_dos_{bc}.csv")]
        require(len(rows) == DOS_POINTS, f"{bc}: {len(rows)} grid points")
        require(close(rows[0][1], total / scale, 1e-12),
                f"{bc}: CDF below the spectrum is {rows[0][1]!r}, want {total}/{scale}")
        require(all(a[1] >= b[1] for a, b in zip(rows, rows[1:])), f"{bc}: CDF not monotone")
        require(rows[-1][0] == 0.0, f"{bc}: grid does not end at 0")
        require(rows[-2][1] >= zero_mode / scale * (1 - 1e-12), f"{bc}: zero mode missing")
        require(rows[-1][1] in (0.0, zero_mode / scale), f"{bc}: mass at lambda = 0")


def check_nd(job: Job, out: Path, ref: Reference, result) -> None:
    check_cli(result)
    r = ref.operator(job)
    name = r["spec"].name
    nd = [(float(x), int(m)) for x, m in read_csv(out / f"{name}_n{job.level}_nd.csv")]
    # on a path, f = 0 and zero flux at an end force f = 0 along the recurrence
    require(name != "interval" or not nd, "the interval has no N-D eigenvalues")
    rho = [(float(x), int(m)) for x, m in read_csv(out / f"{name}_n{job.level}_rho.csv")]
    require(rho == nd, "the rho table disagrees with the N-D multiplicities")
    require(sum(m for _, m in nd) <= r["V"] - r["spec"].N0, "N-D mass above the Dirichlet count")
    for u in job.check_atoms[: len(nd)]:
        lam, mult = nd[int(u * len(nd))]
        require(spectral.nd_nullity(r["op"], lam) == mult, f"nullity at {lam!r} is not {mult}")


def read_mtx(path: Path) -> tuple[list[int], list[list[str]]]:
    lines = path.read_text().splitlines()
    require(lines[0].startswith("%%MatrixMarket"), f"{path.name}: bad banner")
    return [int(v) for v in lines[2].split()], [line.split() for line in lines[3:]]


def check_matrix(job: Job, out: Path, ref: Reference, result) -> None:
    check_cli(result)
    r = ref.operator(job)
    name, V = r["spec"].name, r["V"]
    (rows, cols, nnz), entries = read_mtx(out / f"{name}_A{job.level}.mtx")
    require(rows == cols == V and nnz == len(entries), "A header disagrees with the lattice")
    sums = np.zeros(V)
    scale = 0.0
    for i, j, v in entries:
        i, j, v = int(i) - 1, int(j) - 1, float(v)
        sums[i] += v
        if i != j:
            sums[j] += v
        scale = max(scale, abs(v))
    require(float(np.max(np.abs(sums))) <= 1e-12 * scale, "Laplacian row sums are not zero")
    (brows, bcols), bvals = read_mtx(out / f"{name}_b{job.level}.mtx")
    require(brows == V and bcols == 1 and len(bvals) == V, "b header disagrees with the lattice")
    total = sum(float(v[0]) for v in bvals)
    require(close(total, float(sum(r["op"].b)), 1e-12), "b weights do not sum to the measure")


def _grid_arg(job: Job, flag: str) -> float:
    return float(job.argv[job.argv.index(flag) + 1])


def check_green(job: Job, out: Path, ref: Reference, result) -> None:
    check_cli(result)
    spec = make_spec(job.structure)
    rows = [tuple(map(float, row)) for row in read_csv(out / f"{spec.name}_green.csv")]
    re_steps, im_steps = int(_grid_arg(job, "--re-steps")), int(_grid_arg(job, "--im-steps"))
    require(len(rows) == re_steps * im_steps, "grid size")
    res = np.linspace(_grid_arg(job, "--re-min"), _grid_arg(job, "--re-max"), re_steps)
    ims = np.linspace(_grid_arg(job, "--im-min"), _grid_arg(job, "--im-max"), im_steps)
    expected = [(re, im) for im in ims for re in res]
    require(all(r[:2] == e for r, e in zip(rows, expected)), "grid points")
    require(all(math.isfinite(r[2]) and r[3] == GREEN_NMAX for r in rows), "Green values")
    if spec.name != "interval":
        return
    base = make_base(spec, job.base)
    A = np.asarray(base.matrix(), dtype=float)
    b = np.asarray(base.b, dtype=float)
    maps = dynamics.interval_maps(spec.alpha[0])
    for re_, im_, value, _, _ in rows:
        Q = A - complex(re_, im_) * np.diag(b)
        lift, _ = dynamics.interval_green_estimate(maps, (Q[0, 0], Q[1, 1], Q[0, 1]), GREEN_NMAX)
        require(abs(lift - value) <= 1e-8, f"interval Green value at {re_}+{im_}i")


DHAT = re.compile(r"dhat sequence: \[([0-9, ]*)\]")


def check_degrees(job: Job, out: Path, ref: Reference, result) -> None:
    check_cli(result)
    stdout = result[1]
    n = job.level
    found = DHAT.search(stdout)
    require(found is not None, "no dhat sequence printed")
    dhat = [int(v) for v in found.group(1).split(",")]
    require(dhat == [2**k for k in range(1, n + 1)], f"dhat {dhat}")
    if job.structure.family == "gasket":
        require("case_i" in stdout, "gasket verdict")
        rows = read_csv(out / "gasket_degrees.csv")
        mats = [((int(r[1]), int(r[2])), (int(r[3]), int(r[4]))) for r in rows]
        require(len(mats) == min(n, 4) and mats[0] == ((1, 1), (1, 2)), "first bidegree matrix")
        for k in range(1, len(mats)):
            prod = np.asarray(mats[0]) @ np.asarray(mats[k - 1])
            require(bool(np.all(np.asarray(mats[k]) <= prod)), f"bidegree {k + 1} not submultiplicative")
    else:
        require("case_ii" in stdout, "interval verdict")
        rows = read_csv(out / "interval_degrees.csv")
        require([int(r[1]) for r in rows] == dhat, "interval degree table")


def check_poly(job: Job, out: Path, ref: Reference, coeffs) -> None:
    r = ref.operator(job)
    which = job.api["which"]
    degree = r["V"] - (r["spec"].N0 if which == "dirichlet" else 0)
    require(len(coeffs) == degree + 1 and coeffs[-1] != 0, f"degree {len(coeffs) - 1}, want {degree}")
    require(-coeffs[-2] / coeffs[-1] == r["trace"][which], "coefficient ratio against the trace")
    if which == "neumann":
        require(coeffs[0] == 0, "Neumann constant term")


def check_identity(job: Job, out: Path, ref: Reference, sides) -> None:
    lhs, rhs = sides
    require(not lhs.is_zero(), "R^n side vanished")
    require((lhs - rhs).is_zero(), "R^n and T^n sides differ")


CHECKS = {
    "spectrum": check_spectrum,
    "dos": check_dos,
    "nd": check_nd,
    "matrix": check_matrix,
    "green": check_green,
    "degrees": check_degrees,
    "poly": check_poly,
    "identity": check_identity,
}

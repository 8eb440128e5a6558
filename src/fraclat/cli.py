"""Command-line front end.

Subcommands: validate, spectrum, nd, dos, green, gasket-measure, degrees,
decimation, matrix.  Outputs are deterministic.  CSV files open with a
comment giving the command, a config hash and any tolerances; the .mtx
exports and the --tree-out JSON carry none of these.
Exit codes: 0 ok, 1 invalid configuration, 2 validation failure,
3 dense-solve ceiling exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import dynamics
from .operator import BaseOperator, assemble, laplacian_base
from .renorm import RenormContext, green_of_phi_batch, mu_nd_estimate
from .spectral import (
    DEFAULT_MERGE_TOL,
    DEFAULT_NULLITY_TOL,
    SizeCeilingError,
    counting_measure,
    nd_spectrum,
    spectra,
    spectrum,
)
from .structure import (
    StructureSpec,
    StructureError,
    build_level,
    builtin_gasket,
    builtin_interval,
    validate_structure,
)

EXIT_OK = 0
EXIT_BAD_CONFIG = 1
EXIT_VALIDATION = 2
EXIT_CEILING = 3

FLOAT_FMT = "%.17g"


def _fmt(x) -> str:
    if isinstance(x, float) or not isinstance(x, int):
        # -0.0 + 0.0 == +0.0: write "0", never "-0"; a Fraction plus 0.0 is float(x)
        return FLOAT_FMT % (x + 0.0)
    return str(x)


def _config_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _load_structure(args) -> StructureSpec:
    if args.builtin:
        name = args.builtin
        if name == "gasket":
            return builtin_gasket()
        if name.startswith("interval"):
            alpha = Fraction(1, 2)
            if ":" in name:
                alpha = Fraction(name.split(":", 1)[1])
            return builtin_interval(alpha)
        raise StructureError(f"unknown builtin {name!r}")
    if args.structure:
        return StructureSpec.from_json(args.structure)
    raise StructureError("need --builtin or --structure")


class _ValidationFailed(Exception):
    """The structure fails the axioms; the command exits with EXIT_VALIDATION."""


def _load(args):
    """(spec, base, op) for the structure and base options: validated, and
    with op the assembled level args.level, or None without --level."""
    spec = _load_structure(args)
    if not validate_structure(spec).ok:
        raise _ValidationFailed
    base = _load_base(args, spec)
    level = getattr(args, "level", None)
    return spec, base, None if level is None else assemble(base, spec, build_level(spec, level))


def _load_base(args, spec: StructureSpec) -> BaseOperator:
    if getattr(args, "base", None):
        with open(args.base) as fh:
            d = json.load(fh)
        n0 = spec.N0
        a = [[Fraction(0)] * n0 for _ in range(n0)]
        seen = set()
        for (x, y, v) in d["a"]:
            x, y = int(x) - 1, int(y) - 1
            if not (0 <= x < n0 and 0 <= y < n0):
                raise ValueError(f"base coupling ({x + 1}, {y + 1}) must index vertices 1..{n0}")
            if x == y:
                raise ValueError(f"base coupling ({x + 1}, {y + 1}) is diagonal: a couples two distinct vertices")
            if (x, y) in seen:
                raise ValueError(f"base coupling ({x + 1}, {y + 1}) is given twice: a pair and its reverse are one coupling")
            seen |= {(x, y), (y, x)}
            a[x][y] = a[y][x] = Fraction(str(v))
        b = tuple(Fraction(str(v)) for v in d["b"])
        base = BaseOperator(a=tuple(tuple(r) for r in a), b=b)
        if not base.is_group_invariant(spec):
            raise ValueError("base operator is not invariant under the symmetry group")
        if not base.is_irreducible():
            raise ValueError("base operator couplings do not connect the cell")
        return base
    return laplacian_base(spec)


def _writer(args, payload: dict):
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    cfg = _config_hash(payload)

    def write(name: str, header_cols: str, rows, extra_meta: str = ""):
        path = outdir / name
        with open(path, "w") as fh:
            fh.write(f"# command: {payload['command']}, config: {cfg}{extra_meta}\n")
            fh.write(header_cols + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        return path

    return write


def _add_common(p, base_opt=True):
    p.add_argument("--builtin", help="gasket or interval[:alpha]")
    p.add_argument("--structure", help="structure-spec JSON file")
    if base_opt:
        p.add_argument("--base", help="base-operator JSON file (a triplets, b list)")
    p.add_argument("--out", default=".", help="output directory")


def _positive_int(text: str) -> int:
    """A count of steps or points: a run with none would check or write nothing."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _unit_tol(text: str) -> float:
    """A relative singular-value threshold: 0, 1 and above, or nan would
    count every cluster as null or none."""
    value = float(text)
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must be a number in (0, 1), got {text}")
    return value


def _finite_nonnegative(text: str) -> float:
    """A distance or tolerance: finite and at least 0."""
    value = float(text)
    if not 0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parse_args leaves it unchanged)."""
    ap = argparse.ArgumentParser(
        prog="fraclat",
        description="Spectra of self-similar lattices via Schur-complement renormalization",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the structure axioms")
    _add_common(p, base_opt=False)

    p = sub.add_parser("spectrum", help="Neumann/Dirichlet counting measures as CSV")
    _add_common(p)
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--merge-tol", type=_finite_nonnegative, default=DEFAULT_MERGE_TOL)

    p = sub.add_parser("nd", help="Neumann-Dirichlet spectrum and rho table")
    _add_common(p)
    p.add_argument("--level", type=int, default=2)
    p.add_argument("--tol", type=_unit_tol, default=DEFAULT_NULLITY_TOL)
    p.add_argument("--merge-tol", type=_finite_nonnegative, default=DEFAULT_MERGE_TOL)

    p = sub.add_parser("dos", help="normalized density-of-states CDF samples")
    _add_common(p)
    p.add_argument("--level", type=int, default=3)
    p.add_argument("--points", type=_positive_int, default=200)

    p = sub.add_parser(
        "green",
        help="Green function scan over a complex grid",
        description="Green function of R at phi(lambda) = exp_q(A - lambda diag(b)) over a grid "
        "of complex lambda.  lambda is the pencil variable of A v = lambda b v: the spectrum "
        "lies at lambda >= 0, the negatives of the eigenvalues that the spectrum command "
        "reports.  The gasket Laplacian's lie in [0, 6], inside the default window [-1, 6].",
    )
    _add_common(p)
    p.add_argument("--re-min", type=float, default=-1.0)
    p.add_argument("--re-max", type=float, default=6.0)
    p.add_argument("--re-steps", type=_positive_int, default=29)
    p.add_argument("--im-min", type=float, default=0.25)
    p.add_argument("--im-max", type=float, default=1.0)
    p.add_argument("--im-steps", type=_positive_int, default=4)
    p.add_argument("--nmax", type=int, default=40)

    p = sub.add_parser("gasket-measure", help="closed-form limit measure vs nu^ND")
    p.add_argument("--n", type=int, default=4, help="lattice level for nu^ND")
    p.add_argument("--kmax", type=int, default=3, help="preimage depth of the limit measure")
    p.add_argument("--out", default=".")
    p.add_argument("--tree-out", help="also write the preimage tree JSON here")

    p = sub.add_parser("degrees", help="degree tables and dichotomy verdict")
    _add_common(p, base_opt=False)
    p.add_argument("--n", type=_positive_int, default=3, help="iterations for degree sequences")

    p = sub.add_parser("decimation", help="spectral-decimation containment diagnostic")
    p.add_argument("--n", type=_positive_int, default=3, help="max level (checks n -> n+1 pairs)")
    p.add_argument("--tol", type=_finite_nonnegative, default=1e-7)
    p.add_argument("--out", default=".")

    p = sub.add_parser("matrix", help="export A_n and b_n as coordinate text")
    _add_common(p)
    p.add_argument("--level", type=int, default=1)
    return ap


def cmd_validate(args) -> int:
    spec = _load_structure(args)
    report = validate_structure(spec)
    print(report)
    return EXIT_OK if report.ok else EXIT_VALIDATION


def cmd_spectrum(args) -> int:
    spec, _, op = _load(args)
    payload = {"command": "spectrum", "structure": spec.to_dict(), "level": args.level,
               "merge_tol": args.merge_tol}
    write = _writer(args, payload)
    for bc, eig in zip(("neumann", "dirichlet"), spectra(op)):
        meas = counting_measure(eig, args.merge_tol)
        write(
            f"{spec.name}_n{args.level}_{bc}.csv",
            "lambda,multiplicity",
            [(loc, m) for loc, m in meas.atoms],
            extra_meta=f", merge_tol: {args.merge_tol}",
        )
    print(f"wrote spectra for level {args.level} ({op.size} vertices)")
    return EXIT_OK


def cmd_nd(args) -> int:
    spec, _, op = _load(args)
    nd = nd_spectrum(op, tol=args.tol, merge_tol=args.merge_tol)
    payload = {"command": "nd", "structure": spec.to_dict(), "level": args.level,
               "tol": args.tol, "merge_tol": args.merge_tol}
    write = _writer(args, payload)
    write(
        f"{spec.name}_n{args.level}_nd.csv",
        "lambda,multiplicity",
        nd.atoms,
        extra_meta=f", tol: {args.tol}, merge_tol: {args.merge_tol}",
    )
    write(f"{spec.name}_n{args.level}_rho.csv", "lambda,rho_n", nd.atoms, extra_meta=f", tol: {args.tol}")
    print(f"N-D count at level {args.level}: {nd.total_mass}")
    print(f"rho decision margin: {nd.margin:.3g} (smallest |log10(sigma / threshold)|, at most 1)")
    return EXIT_OK


def cmd_dos(args) -> int:
    spec, _, op = _load(args)
    payload = {"command": "dos", "structure": spec.to_dict(), "level": args.level,
               "points": args.points}
    write = _writer(args, payload)
    scale_f = Fraction(1, spec.N**args.level)
    measures = {bc: counting_measure(eig).scale(scale_f)
                for bc, eig in zip(("neumann", "dirichlet"), spectra(op))}
    for bc, meas in measures.items():
        # level 0 has no Dirichlet eigenvalues: its CDF is 0 on the Neumann grid
        atoms = meas.atoms or measures["neumann"].atoms
        lo = min(float(l) for l, _ in atoms) - 0.1
        grid = np.linspace(lo, 0.0, args.points)
        write(
            f"{spec.name}_n{args.level}_dos_{bc}.csv",
            "lambda,cdf",
            [(x, meas.cdf(float(x))) for x in grid],
        )
    print(f"wrote DOS CDFs for level {args.level}")
    return EXIT_OK


def cmd_green(args) -> int:
    spec, base, _ = _load(args)
    ctx = RenormContext.build(spec)
    payload = {"command": "green", "structure": spec.to_dict(),
               "grid": [args.re_min, args.re_max, args.re_steps,
                        args.im_min, args.im_max, args.im_steps],
               "nmax": args.nmax}
    grid = [
        (re, im)
        for im in np.linspace(args.im_min, args.im_max, args.im_steps)
        for re in np.linspace(args.re_min, args.re_max, args.re_steps)
    ]
    ests = green_of_phi_batch(ctx, base, [complex(re, im) for re, im in grid], n_max=args.nmax)
    rows = [(re, im, e.value, e.iterations, e.tail_bound) for (re, im), e in zip(grid, ests)]
    _writer(args, payload)(
        f"{spec.name}_green.csv",
        "re_lambda,im_lambda,value,iters,tail",
        rows,
        extra_meta=f", nmax: {args.nmax}",
    )
    print(f"wrote Green scan ({len(rows)} points)")
    return EXIT_OK


def cmd_gasket_measure(args) -> int:
    spec = builtin_gasket()
    base = laplacian_base(spec)
    ctx = RenormContext.build(spec)
    finite = mu_nd_estimate(ctx, base, args.n)
    limit = dynamics.gasket_limit_measure(args.kmax)
    payload = {"command": "gasket-measure", "n": args.n, "kmax": args.kmax}
    write = _writer(args, payload)
    write("gasket_limit_measure.csv", "location,mass", list(limit.atoms))
    write("gasket_nd_scaled.csv", "location,mass",
          [(loc, float(m)) for loc, m in finite.atoms])
    mismatch = 0.0
    covered = True
    for loc, mass in finite.atoms:
        best = min(abs(float(loc) - float(l2)) for l2, _ in limit.atoms)
        mismatch = max(mismatch, best)
        if float(mass) > float(limit.mass_at(float(loc), 1e-6)) + 1e-12:
            covered = False
    print(f"max atom-location mismatch: {mismatch:.3e}")
    print(f"finite-level masses below limit masses: {covered}")
    print(f"total mass nu side: {float(finite.total_mass):.6f}")
    print(f"total mass limit side (k<={args.kmax}): {float(limit.total_mass):.6f}"
          f" (truncation deficit {float(dynamics.gasket_limit_truncation_deficit(args.kmax)):.6f})")
    if args.tree_out:
        records = []
        for target in (-1.5, -2.5):
            offset = len(records)
            records += [dict(r, parent=r["parent"] + offset if r["parent"] >= 0 else -1)
                        for r in dynamics.phat_preimage_tree(target, args.kmax)]
        with open(args.tree_out, "w") as fh:
            json.dump(records, fh, indent=1)
        print(f"wrote preimage tree ({len(records)} nodes)")
    return EXIT_OK


def _builtin_shape(spec: StructureSpec) -> str | None:
    """"gasket" or "interval" when ``spec`` is structurally that builtin,
    whatever its name; None otherwise."""
    candidates = [builtin_gasket()]
    if spec.N == 2 and 0 < spec.alpha[0] < 1:
        candidates.append(builtin_interval(spec.alpha[0]))
    for builtin in candidates:
        if dataclasses.replace(spec, name=builtin.name) == builtin:
            return builtin.name
    return None


def cmd_degrees(args) -> int:
    spec = _load_structure(args)
    shape = _builtin_shape(spec)
    if shape is None:
        print("degree tables are available for the gasket and the two-cell interval only",
              file=sys.stderr)
        return EXIT_BAD_CONFIG
    payload = {"command": "degrees", "structure": spec.to_dict(), "n": args.n}
    write = _writer(args, payload)
    if shape == "gasket":
        gm = dynamics.gasket_maps()
        _, dhat = dynamics.compose_reduce_1d(gm.ghat, args.n)
        mats = dynamics.bidegree_sequence(gm.g, min(args.n, 4))
        rows = []
        for k, dm in enumerate(mats, 1):
            (d00, d01), (d10, d11) = dm.entries
            rows.append((k, d00, d01, d10, d11, dm.l_n, dm.l_n ** (1.0 / k)))
        write("gasket_degrees.csv", "n,d00,d01,d10,d11,l_n,l_n^{1/n}", rows)
        est, _ = dynamics.dynamical_degree(dhat)
        verdict = dynamics.dichotomy_classify(est, spec.N)
        print(f"dhat sequence: {dhat}")
        print(f"bidegree l_n^(1/n) upper bounds: {[round(m.l_n ** (1.0 / (k + 1)), 6) for k, m in enumerate(mats)]}")
        print(f"d_infty estimate (from reduced 1-d iterates): {est}")
        print(f"dichotomy verdict: {verdict}")
        return EXIT_OK
    m = dynamics.interval_maps(spec.alpha[0])
    its = dynamics.interval_rhat_iterate_symbolic(m, args.n)
    degs = [d for _, d in its]
    rows = [(k + 1, d, d ** (1.0 / (k + 1))) for k, d in enumerate(degs)]
    write("interval_degrees.csv", "n,dhat_n,dhat_n^{1/n}", rows)
    est, _ = dynamics.dynamical_degree(degs)
    verdict = dynamics.dichotomy_classify(est, spec.N)
    print(f"dhat sequence: {degs}")
    print(f"d_infty estimate: {est}")
    print(f"dichotomy verdict: {verdict}")
    return EXIT_OK


def cmd_decimation(args) -> int:
    spec = builtin_gasket()
    base = laplacian_base(spec)
    payload = {"command": "decimation", "n": args.n, "tol": args.tol}
    write = _writer(args, payload)
    rows = []
    worst = 0.0
    lo = None  # Neumann and Dirichlet spectra of the previous level
    for n in range(args.n + 1):
        op = assemble(base, spec, build_level(spec, n))
        last = n == args.n  # nothing reads the last level's Neumann spectrum
        neumann, dirichlet = (None, spectrum(op, "dirichlet")) if last else spectra(op)
        hi = dirichlet.eigenvalues
        for lam in hi:  # none at level 0, where every vertex is on the boundary
            if any(abs(lam - e) <= 1e-9 for e in dynamics.GASKET_EXCEPTIONAL):
                continue
            image = 2.0 * lam * lam + 5.0 * lam  # phat in operator convention
            err = float(np.min(np.abs(lo - image)))
            worst = max(worst, err)
            rows.append((n, lam, image, err))
        if not last:
            lo = np.concatenate([neumann.eigenvalues, hi])
    write("decimation_report.csv", "level,lambda,phat_lambda,distance_to_coarse_spectrum", rows)
    ok = worst <= args.tol
    print(f"decimation containment: worst distance {worst:.3e} (tol {args.tol:.1e}) -> {'pass' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VALIDATION


def cmd_matrix(args) -> int:
    spec, _, op = _load(args)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    entries = list(op.coordinate_entries())
    path = outdir / f"{spec.name}_A{args.level}.mtx"
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        fh.write(f"% A_n for {spec.name}, level {args.level}\n")
        fh.write(f"{op.size} {op.size} {len(entries)}\n")
        for i, j, v in entries:
            fh.write(f"{i + 1} {j + 1} {_fmt(v)}\n")
    bpath = outdir / f"{spec.name}_b{args.level}.mtx"
    with open(bpath, "w") as fh:
        fh.write("%%MatrixMarket matrix array real general\n")
        fh.write(f"% b_n weights for {spec.name}, level {args.level}\n")
        fh.write(f"{op.size} 1\n")
        for v in op.b_float().tolist():
            fh.write(_fmt(v) + "\n")
    print(f"wrote {path.name} and {bpath.name}")
    return EXIT_OK


COMMANDS = {
    "validate": cmd_validate,
    "spectrum": cmd_spectrum,
    "nd": cmd_nd,
    "dos": cmd_dos,
    "green": cmd_green,
    "gasket-measure": cmd_gasket_measure,
    "degrees": cmd_degrees,
    "decimation": cmd_decimation,
    "matrix": cmd_matrix,
}


def run(argv=None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_BAD_CONFIG if e.code not in (0, None) else EXIT_OK
    try:
        return COMMANDS[args.command](args)
    except _ValidationFailed:
        return EXIT_VALIDATION
    except (StructureError, FileNotFoundError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except SizeCeilingError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CEILING


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

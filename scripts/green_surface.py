#!/usr/bin/env python3
"""Scan the Green function of the Grassmann renormalization map along the
spectral-parameter line and write a grid suitable for contour plotting.

The value at lambda is lim N^{-k} ln ||R^k exp_q(A - lambda diag(b))||; its
distributional Laplacian in lambda is 2 pi times the density of states.
"""

import argparse

import numpy as np

from fraclat.operator import laplacian_base
from fraclat.renorm import RenormContext, green_of_phi_batch
from fraclat.structure import builtin_gasket, builtin_interval


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--structure", default="gasket", help="gasket or interval[:alpha]")
    ap.add_argument("--re", nargs=2, type=float, default=(-1.0, 6.0))
    ap.add_argument("--im", nargs=2, type=float, default=(0.05, 1.0))
    ap.add_argument("--steps", nargs=2, type=int, default=(71, 12))
    ap.add_argument("--nmax", type=int, default=25)
    ap.add_argument("--out", default="green_surface.csv")
    args = ap.parse_args()

    if args.structure == "gasket":
        spec = builtin_gasket()
    else:
        alpha = args.structure.split(":", 1)[1] if ":" in args.structure else "1/2"
        spec = builtin_interval(alpha)
    ctx = RenormContext.build(spec)
    base = laplacian_base(spec)

    grid = [
        (re, im)
        for im in np.linspace(*args.im, args.steps[1])
        for re in np.linspace(*args.re, args.steps[0])
    ]
    ests = green_of_phi_batch(ctx, base, [complex(re, im) for re, im in grid], n_max=args.nmax)
    with open(args.out, "w") as fh:
        fh.write("re_lambda,im_lambda,value,iters,tail\n")
        for (re, im), est in zip(grid, ests):
            fh.write(f"{re:.6f},{im:.6f},{est.value:.12g},{est.iterations},{est.tail_bound:.3g}\n")
    print(f"wrote {args.out} ({args.steps[0] * args.steps[1]} points)")


if __name__ == "__main__":
    main()

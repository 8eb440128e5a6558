#!/usr/bin/env python3
"""Track the Neumann-Dirichlet counting measures of the gasket lattice
across levels and compare them with the closed-form limit measure.

Writes nd_convergence.csv (one row per level) and prints a summary table.
"""

import argparse

from fraclat.operator import assemble, laplacian_base
from fraclat.spectral import nd_spectrum
from fraclat.structure import build_level, builtin_gasket


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-level", type=int, default=6)
    ap.add_argument("--out", default="nd_convergence.csv")
    args = ap.parse_args()

    spec = builtin_gasket()
    base = laplacian_base(spec)

    rows = []
    print(f"{'n':>2} {'|F_n|':>6} {'ND':>6} {'ND/3^n':>9} {'mass(-3)/3^n':>13} {'diff':>6}")
    for n in range(2, args.max_level + 1):
        op = assemble(base, spec, build_level(spec, n))
        nd = nd_spectrum(op)
        total = float(nd.total_mass)
        scaled = total / 3**n
        at3 = float(nd.mass_at(-3.0)) / 3**n
        diff = op.size - total
        rows.append((n, op.size, int(total), scaled, at3, int(diff)))
        print(f"{n:>2} {op.size:>6} {int(total):>6} {scaled:>9.5f} {at3:>13.5f} {int(diff):>6}")

    print(f"\nlimit totals: 3/2 = 1.5; atom at -3 carries 1/2")
    if len(rows) > 1:
        print(f"observed non-N-D mode growth ratio: "
              f"{rows[-1][5] / rows[-2][5]:.3f} (doubling expected)")

    with open(args.out, "w") as fh:
        fh.write("n,vertices,nd_count,nd_scaled,mass_at_minus3_scaled,non_nd\n")
        for r in rows:
            fh.write(",".join(str(v) for v in r) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()

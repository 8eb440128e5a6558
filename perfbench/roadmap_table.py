"""Re-measure the layer baseline table of ROADMAP item 1, untraced and traced.

    python3 perfbench/roadmap_table.py

Each case runs once after a warm-up, first plain and then under the layer
tracer; the table shows the ROADMAP figure, the plain wall time and the
traced wall time with the traced self time of the functions the case is
about.  Takes about two minutes on a 2-core machine.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.import_program()

import tracer as tracing  # noqa: E402
from fraclat import cli, dynamics, operator, renorm, spectral, structure  # noqa: E402
from sympy.core.cache import clear_cache  # noqa: E402


def gasket_level7():
    spec = structure.builtin_gasket()
    lat = structure.build_level(spec, 7)
    op = operator.assemble(operator.laplacian_base(spec), spec, lat)
    eig = spectral.spectrum(op, "dirichlet")
    spectral.nd_spectrum(op, dirichlet=eig)


def r_map_calls(count=50):
    spec = structure.builtin_gasket()
    ctx = renorm.RenormContext.build(spec)
    X = renorm.phi(operator.laplacian_base(spec), complex(-1.5, 0.5))
    for _ in range(count):
        renorm.r_map(ctx, X)


def green_points(count=10):
    spec = structure.builtin_gasket()
    ctx = renorm.RenormContext.build(spec)
    base = operator.laplacian_base(spec)
    for k in range(count):
        renorm.green_of_phi(ctx, base, complex(-5.0 + 0.5 * k, 0.5), n_max=40)


def cli_job(argv):
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as out, contextlib.redirect_stdout(io.StringIO()):
        if cli.run(argv + ["--out", out]) != 0:
            raise RuntimeError(f"fraclat {' '.join(argv)} failed")


def dirichlet_poly(n):
    spec = structure.builtin_gasket()
    renorm.dirichlet_poly(renorm.RenormContext.build(spec), operator.laplacian_base(spec), n)


def rhat_iterate(alpha):
    clear_cache()
    dynamics.interval_rhat_iterate_symbolic(dynamics.interval_maps(alpha), 5)


# (case, ROADMAP figure, callable, per-call divisor, functions whose traced self time to show)
CASES = [
    ("gasket level 7: build / assemble / Dirichlet eigh / nd_spectrum",
     "0.13 / 0.35 / 4.2 / 0.08 s", gasket_level7, 1,
     ["structure.build_level", "operator.assemble", "spectral.spectrum", "spectral.nd_spectrum"]),
    ("r_map, float, gasket (per call)", "3.6 ms", r_map_calls, 50,
     ["renorm.r_map", "grassmann.gr_mul"]),
    ("green_of_phi, n_max=40 (per point)", "40 ms", green_points, 10,
     ["renorm.green_estimate", "grassmann.gr_mul"]),
    ("fraclat green, default 116-point grid", "6.6 s",
     lambda: cli_job(["green", "--builtin", "gasket"]), 1, ["renorm.r_map", "grassmann.gr_mul"]),
    ("dirichlet_poly, gasket, n=3", "1.25 s", lambda: dirichlet_poly(3), 1,
     ["renorm.r_map", "grassmann.gr_mul", "grassmann._newton_coeffs"]),
    ("dirichlet_poly, gasket, n=4", "7.3 s", lambda: dirichlet_poly(4), 1,
     ["renorm.r_map", "grassmann.gr_mul", "grassmann._newton_coeffs"]),
    ("fraclat nd, gasket level 6 (rho table vs nd_spectrum)", "13.7 s vs 0.21 s",
     lambda: cli_job(["nd", "--builtin", "gasket", "--level", "6"]), 1,
     ["spectral.nd_nullity", "spectral.nd_spectrum"]),
    ("interval_rhat_iterate_symbolic, 5 steps, alpha=1/2", "about 5 s",
     lambda: rhat_iterate(Fraction(1, 2)), 1, ["dynamics.interval_rhat_iterate_symbolic"]),
    ("interval_rhat_iterate_symbolic, 5 steps, alpha=1/3", "about 5 s",
     lambda: rhat_iterate(Fraction(1, 3)), 1, ["dynamics.interval_rhat_iterate_symbolic"]),
]


def main() -> None:
    print("environment: " + str(run.environment()))
    dirichlet_poly(1)  # warm-up, including the first multithreaded eigensolve
    cli_job(["spectrum", "--builtin", "gasket", "--level", "5"])
    print(f"{'case':<64} {'ROADMAP':<18} {'plain':<11} {'traced':<11} traced self time")
    for name, roadmap, fn, per, shown in CASES:
        t0 = time.perf_counter()
        fn()
        plain = (time.perf_counter() - t0) / per
        tr = tracing.Tracer()
        tr.install()
        tr.active = True
        t0 = time.perf_counter()
        try:
            fn()
        finally:
            traced = (time.perf_counter() - t0) / per
            tr.active = False
            tr.uninstall()
        detail = ", ".join(f"{f} {tr.stats[f][2] / per:.4g} s" for f in shown)
        print(f"{name:<64} {roadmap:<18} {plain:<11.4g} {traced:<11.4g} {detail}")
    with contextlib.suppress(OSError):
        run.WORK.rmdir()


if __name__ == "__main__":
    main()

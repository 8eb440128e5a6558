"""fraclat benchmark: closed-loop job mixes through the CLI and the exact API.

Usage, from the repository root:

    python3 perfbench/run.py --workload dense --seed 1 --seconds 15 --trace 0

One client in this process runs the workload's seeded round of jobs back to
back, whole rounds at a time, until ``--seconds`` of job time have passed
(at least one round).  A job is what a user runs: one in-process
``fraclat.cli.run([...])`` call with stdout captured, or one public-API call
for the exact-polynomial and identity kinds, which have no CLI.  Every job
writes to its own directory; its output is checked after the job, outside
the timed region, and a job that raises, exits nonzero or fails its check
counts as failed.  Times are reported at reference speed (see ``Runner``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
rounds twice, plain and under the layer tracer (``tracer.py``), and reports
per-layer metrics, the tracing overhead and a single-threaded BLAS baseline
of the workload's largest eigensolve.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a human
report (environment, per-kind latencies, raw wall-clock figures, layer
shares).  Failed jobs are listed on stderr.  The benchmark imports fraclat
from ``src/`` beside this directory and exits nonzero when it is missing.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up time is measured from here

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3  # this process plus two fresh ones
END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
EIGH_KINDS = ("spectrum", "dos", "nd")
P90_MIN_JOBS = 100  # so that at least 10 samples lie beyond the 90th percentile


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_program():
    """Import fraclat from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "fraclat" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fraclat sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    import fraclat

    if Path(fraclat.__file__).resolve().parent != (src / "fraclat").resolve():
        sys.exit(f"perfbench: imported fraclat from {fraclat.__file__}, not {src}")


# -- jobs ---------------------------------------------------------------------------------


def execute(job, outdir: Path):
    """Run one job; returns what its check needs."""
    from fraclat import cli, grassmann, renorm, structure

    import oracles

    if job.argv:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(job.argv + ["--out", str(outdir)])
        return rc, out.getvalue()
    spec = oracles.make_spec(job.structure)
    ctx = renorm.RenormContext.build(spec)
    n = job.level
    if job.kind == "poly":
        base = oracles.make_base(spec, job.base)
        poly = renorm.dirichlet_poly if job.api["which"] == "dirichlet" else renorm.neumann_poly
        return poly(ctx, base, n)
    # identity: R^n(exp_q Q) = C_n det((Q_<n>)|interior) exp_q(T^n Q)
    Q = identity_matrix(job)
    lhs = renorm.r_iterate(ctx, grassmann.exp_q(Q), n)
    lat = structure.build_level(spec, n)
    Qn = renorm.level_matrix(ctx, Q, lat)
    boundary = set(lat.boundary)
    interior = [v for v in range(lat.num_vertices) if v not in boundary]
    det_int = grassmann._det_exact([[Qn[i, j] for j in interior] for i in interior])
    factor = ctx.c_constant(n) * det_int
    rhs = grassmann.exp_q(renorm.t_iterate(ctx, Q, n)).map_coeffs(lambda v: factor * v)
    return lhs, rhs


def identity_matrix(job):
    import numpy as np
    from fraclat import renorm

    if "gasket_coords" in job.api:
        return renorm.gasket_matrix(*(Fraction(v) for v in job.api["gasket_coords"]))
    q0, q1, q2 = (Fraction(v) for v in job.api["q"])
    return np.array([[q0, q2], [q2, q1]], dtype=object)


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) if path.exists() else 0


def python_reference() -> float:
    """Duration of a fixed pure-Python loop (fractions, dicts, complex
    numbers): the interpreter's current speed."""
    t0 = time.perf_counter()
    counts: dict = {}
    x, z = Fraction(1, 3), 1 + 1j
    for i in range(1500):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i + 5)
        key = (i % 97, i & 7)
        counts[key] = counts.get(key, 0) + z * z
        if x.denominator > 10**30:
            x = Fraction(1, 3)
    return time.perf_counter() - t0


# Duration of the reference loop that defines reference speed: about its
# duration on a 2-core Xeon, so scaled and raw figures are close.
REFERENCE_S = 0.012


class Runner:
    """Runs rounds of jobs, timing each job and checking it afterwards.

    The machine this was tuned on alternates between speed phases (about
    +-30 %, tens of seconds long, on both cores, with no steal time), which
    no amount of work per run averages out.  Job times are therefore
    reported at reference speed: multiplied by REFERENCE_S / t_ref, where
    t_ref is the median duration of a reference loop timed after every job
    of the rounds.  One factor for the whole rounds follows a phase, which
    outlasts them; the median keeps out the loop's own noise, which a
    factor per job would carry into that job's time.  The loop runs no
    fraclat code, so a change to the program moves only the job times.
    """

    def __init__(self, workload: str, jobs, workdir: Path):
        import oracles

        self.workload = workload
        self.jobs = jobs
        self.workdir = workdir
        self.reference = oracles.Reference()
        self.serial = 0

    def run_job(self, job, tracer=None) -> dict:
        import oracles
        from sympy.core.cache import clear_cache

        if self.workload == "exact":
            clear_cache()  # a fresh CLI process pays sympy's cold cost
        self.serial += 1
        outdir = self.workdir / "jobs" / str(self.serial)
        record = {"kind": job.kind, "label": job.label, "ok": False, "error": None}
        if tracer:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            result = execute(job, outdir)
        except Exception:
            result = None
            record["error"] = traceback.format_exc(limit=3)
        finally:
            record["seconds"] = time.perf_counter() - t0
            if tracer:
                tracer.active = False
        if record["error"] is None:
            try:
                oracles.CHECKS[job.kind](job, outdir, self.reference, result)
                record["ok"] = True
            except Exception as e:  # a failed or crashing check both count as failed
                record["error"] = f"{type(e).__name__}: {e}"
        record["ref"] = python_reference()
        if tracer:
            tracer.counts["cli.bytes_out"] += dir_bytes(outdir)
        shutil.rmtree(outdir, ignore_errors=True)
        return record

    def rounds(self, seconds: float, tracer=None, n_rounds: int | None = None) -> list[dict]:
        """Whole rounds until ``seconds`` of job time at reference speed, or
        exactly ``n_rounds``."""
        records: list[dict] = []
        done = 0
        while True:
            for job in self.jobs:
                records.append(self.run_job(job, tracer))
            done += 1
            speed = REFERENCE_S / statistics.median(r["ref"] for r in records)
            timed = speed * sum(r["seconds"] for r in records)
            if (n_rounds is not None and done >= n_rounds) or (n_rounds is None and timed >= seconds):
                for r in records:
                    r["scaled"] = r["seconds"] * speed
                return records


# -- set-up --------------------------------------------------------------------------------


def set_up(workload: str, seed: int, workdir: Path):
    """Generate the seeded inputs and warm up; returns the runner and the
    set-up time at reference speed, against the median of five reference
    loops."""
    import numpy as np

    import workloads

    gen = workloads.Generator(seed, workdir / "inputs")
    jobs = gen.jobs(workload)
    runner = Runner(workload, jobs, workdir)
    # Warm-up: one small job for each (kind, structure) pair of the round,
    # through the same runner and checks; the first eigensolve
    # in a process is slow, so workloads that eigensolve also warm BLAS.
    warm = workloads.Generator(seed + 1, workdir / "warm").warmup(workload)
    if any(j.kind in EIGH_KINDS for j in jobs):
        M = np.random.default_rng(seed).standard_normal((400, 400))
        np.linalg.eigh(M + M.T)
    for job in warm:
        rec = runner.run_job(job)
        if not rec["ok"]:
            print(f"perfbench: warm-up job {job.label} failed: {rec['error']}", file=sys.stderr)
    elapsed = time.perf_counter() - T_START
    return runner, elapsed * REFERENCE_S / statistics.median(python_reference() for _ in range(5))


def child_setups(args, count: int) -> list[float]:
    """Set up ``count`` more times, each in a fresh process, one at a time."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


# -- environment and baselines --------------------------------------------------------------


def blas_threads():
    """OpenBLAS's own thread count, read from the loaded library."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import platform

    import numpy as np
    import sympy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = mem = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
        with open("/proc/meminfo") as fh:
            mem = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("MemTotal")), None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sympy": sympy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "memory": mem,
    }


def eigh_baseline(runner, workdir: Path) -> dict:
    """Time the workload's largest eigensolve at one BLAS thread and at the
    default count, each in a fresh process (the single-threaded baseline)."""
    import oracles

    jobs = [j for j in runner.jobs if j.kind in EIGH_KINDS]
    if not jobs:
        return {"1thread": 0.0, "nthread": 0.0, "V": 0}
    job = max(jobs, key=lambda j: runner.reference.operator(j)["V"])
    spec = oracles.make_spec(job.structure)
    path = workdir / "eigh_spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    out = {"V": runner.reference.operator(job)["V"]}
    for key, threads in (("1thread", "1"), ("nthread", None)):
        env = dict(os.environ)
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run(
            [sys.executable, str(HERE / "eigh_baseline.py"), str(path), str(job.level)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"eigh baseline failed:\n{proc.stderr}")
        out[key] = json.loads(proc.stdout.strip().splitlines()[-1])["seconds"]
    return out


# -- report -----------------------------------------------------------------------------------


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def kind_table(records) -> list[str]:
    """Per-kind latency at reference speed (and raw), with sample counts."""
    lines = ["metric            jobs   value_ms    p90_ms      raw_p50_ms  failed"]
    for kind in sorted({r["kind"] for r in records}):
        rows = [r for r in records if r["kind"] == kind]
        ms = [r["scaled"] * 1e3 for r in rows]
        raw = statistics.median(r["seconds"] * 1e3 for r in rows)
        p90 = f"{quantile(ms, 0.9):<11.3f}" if len(ms) >= P90_MIN_JOBS else "-          "
        failed = sum(not r["ok"] for r in rows)
        lines.append(f"{kind + '_p50_ms':<17} {len(ms):<6} {statistics.median(ms):<11.3f} {p90} "
                     f"{raw:<11.3f} {failed}")
    return lines


def report_failures(records) -> int:
    failed = [r for r in records if not r["ok"]]
    for r in failed:
        print(f"perfbench: job {r['label']} failed: {r['error']}", file=sys.stderr)
    return len(failed)


def timed_run(args, runner, own_setup: float):
    """End-to-end metrics; returns (records, metrics)."""
    setups = [own_setup] + child_setups(args, SETUP_REPEATS - 1)
    records = runner.rounds(args.seconds)
    scaled = [r["scaled"] for r in records]
    raw = [r["seconds"] for r in records]
    latencies = [t * 1e3 for t in scaled]
    metrics = {
        "jobs_per_s": len(records) / sum(scaled),
        "job_p50_ms": statistics.median(latencies),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print("\n".join(kind_table(records)))
    if len(records) >= P90_MIN_JOBS:
        print(f"job_p90_ms {quantile(latencies, 0.9):.3f} ms over {len(records)} jobs")
    print(f"job_p50_ms over {len(records)} jobs; set-ups (s): " + ", ".join(f"{s:.3f}" for s in setups))
    print(f"raw wall clock: {len(raw) / sum(raw):.4f} jobs/s, job p50 {statistics.median(raw) * 1e3:.3f} ms, "
          f"speed {sum(raw) / sum(scaled):.3f} s per reference second")
    return records, {name: (metrics[name], unit) for name, unit in END_TO_END.items()}


def traced_run(args, runner, workdir: Path):
    """Per-layer metrics from a traced pass over as many rounds as an
    untraced pass took; returns (records, metrics)."""
    import tracer as tracing

    plain = runner.rounds(args.seconds)
    n_rounds = len(plain) // len(runner.jobs)
    tr = tracing.Tracer()
    tr.install()
    try:
        traced = runner.rounds(args.seconds, tracer=tr, n_rounds=n_rounds)
    finally:
        tr.uninstall()
    traced_s = sum(r["seconds"] for r in traced)
    metrics = tr.metrics(traced_s)
    overhead = sum(r["scaled"] for r in traced) / sum(r["scaled"] for r in plain) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    base = eigh_baseline(runner, workdir)
    metrics["spectral.eigh_1thread_s"] = (base["1thread"], "s")
    metrics["spectral.eigh_nthread_s"] = (base["nthread"], "s")
    print(f"traced {n_rounds} round(s): overhead {overhead:+.3f} at reference speed, "
          f"{tr.hook_seconds:.3f} s of it in count hooks (left out of the shares)")
    print(f"largest eigensolve V={base['V']}: {base['1thread']:.3f} s at 1 BLAS thread, "
          f"{base['nthread']:.3f} s at the default thread count")
    shares = tr.layer_shares(traced_s)
    print("layer self-time shares: " + ", ".join(f"{k} {v:.3f}" for k, v in shares.items())
          + f", outside wrapped functions {1 - sum(shares.values()):.3f}")
    print("function                                  calls    total_s    self_s     share")
    for name, (calls, total, self_s) in sorted(tr.stats.items(), key=lambda kv: -kv[1][2]):
        if calls:
            print(f"{name:<41} {calls:<8} {total:<10.4f} {self_s:<10.4f} "
                  f"{self_s / (traced_s - tr.hook_seconds):.3f}")
    return plain + traced, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread, set before numpy loads: on two shared cores a second
    # thread made the eigensolves slower and far noisier.  eigh_baseline()
    # still times the default count.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import_program()
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")
    workdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        runner, own_setup = set_up(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        tracing.assert_pristine()  # the timed runs execute the original functions
        env = environment()
        print("environment: " + json.dumps(env))
        print(f"workload {args.workload}: {len(runner.jobs)} jobs per round, seed {args.seed}")
        if args.trace:
            records, metrics = traced_run(args, runner, workdir)
        else:
            records, metrics = timed_run(args, runner, own_setup)
        failed = report_failures(records)
        print(f"failed_frac {failed / len(records):.4f} ({failed} of {len(records)})")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": len(records),
            "failed": failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


if __name__ == "__main__":
    sys.exit(main())

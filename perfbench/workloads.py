"""Seeded job lists for the four benchmark workloads.

A workload is one round of jobs, repeated back to back by a single client
(a closed loop).  The round fixes which job kinds run on which structure at
which level, so every seed does the same amount of work; the seed picks the
rational structure weights, the group-invariant ``--base`` operators, the
interval ratio alpha and the Green windows; the job order is fixed.  The
program under test only sees the generated JSON files and the arguments.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("dense", "lattice", "green", "exact")  # why each: see BENCHMARK.json

# Seeded rationals.  Every value has a numerator and denominator between 2
# and 7, so that exact jobs cost about the same whatever the seed picks; the
# float jobs do not care.
ALPHAS = ("2/5", "3/5", "3/7", "4/7", "2/7", "5/7")
RATIONALS = tuple(
    Fraction(v) for v in ("2/3", "3/2", "3/4", "4/3", "3/5", "5/3", "4/5", "5/4", "2/5", "5/2")
)

# Gluing patterns for the structures that have no --builtin name.  Indices
# are 1-based as in the structure-file schema.
ZIGZAG_RELATION = [[1, 2, 3, 2], [3, 1, 4, 1], [4, 2, 2, 1]]
STAR_RELATION = [[1, 2, 2, 1], [2, 1, 3, 1]]

GREEN_NMAX = 30  # Green iterations per grid point


@dataclass
class Structure:
    """One seeded structure: how the CLI names it, plus what the checks need."""

    family: str  # gasket, interval, zigzag or star
    cli_args: list  # --builtin ... or --structure <file>
    spec_dict: dict | None  # structure-file content, None for builtins
    alpha: Fraction | None = None  # interval ratio


@dataclass
class Job:
    """One user action: a CLI call (``argv``) or a public-API call (``api``)."""

    kind: str
    label: str
    structure: Structure
    level: int = 0  # lattice level, or the iteration count n
    argv: list = field(default_factory=list)  # without --out
    api: dict = field(default_factory=dict)
    base: dict | None = None  # base-operator file content
    base_path: str | None = None
    check_atoms: tuple = ()  # seeded atom ranks for the nd re-check


class Generator:
    """Writes seeded inputs into ``workdir`` and returns job lists."""

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._files = 0

    def _write(self, stem: str, content: dict) -> str:
        self._files += 1
        path = self.workdir / f"{stem}_{self._files}.json"
        path.write_text(json.dumps(content))
        return str(path)

    def pick(self, values):
        return values[self.rng.randrange(len(values))]

    # -- structures ------------------------------------------------------------

    def gasket(self) -> Structure:
        return Structure("gasket", ["--builtin", "gasket"], None)

    def interval(self) -> Structure:
        alpha = self.pick(ALPHAS)
        return Structure("interval", ["--builtin", f"interval:{alpha}"], None, Fraction(alpha))

    def _chain(self, family: str, n_cells: int, relation) -> Structure:
        """Trivial-group structure with seeded weights satisfying (H):
        alpha_i * beta_i is the same for every cell."""
        alpha = self.rng.sample(RATIONALS, n_cells)  # distinct, so no accidental symmetry
        const = self.pick(RATIONALS)
        spec = {
            "name": family,
            "N": n_cells,
            "N0": 2,
            "relation": relation,
            "group": [list(range(1, n_cells + 1))],
            "alpha": [str(a) for a in alpha],
            "beta": [str(const / a) for a in alpha],
        }
        path = self._write(family, spec)
        return Structure(family, ["--structure", path], spec)

    def zigzag(self) -> Structure:
        return self._chain("zigzag", 4, ZIGZAG_RELATION)

    def star(self) -> Structure:
        return self._chain("star", 3, STAR_RELATION)

    def structure(self, family: str) -> Structure:
        return getattr(self, family)()

    # -- base operators ----------------------------------------------------------

    def base(self, st: Structure) -> dict:
        """Seeded group-invariant base operator in the --base file schema.
        The gasket's group is S3, so its couplings and weights are equal."""
        if st.family == "gasket":
            c, w = self.pick(RATIONALS), self.pick(RATIONALS)
            return {"a": [[1, 2, str(c)], [1, 3, str(c)], [2, 3, str(c)]], "b": [str(w)] * 3}
        b = self.rng.sample(RATIONALS, 2)
        return {"a": [[1, 2, str(self.pick(RATIONALS))]], "b": [str(w) for w in b]}

    def cli_job(self, kind: str, family: str, level: int, extra=None, with_base=True) -> Job:
        """A CLI job; ``extra`` replaces the default ``--level`` argument."""
        st = self.structure(family)
        job = Job(kind, f"{kind}:{family}:{level}", st, level)
        job.argv = [kind, *st.cli_args]
        job.argv += ["--level", str(level)] if extra is None else list(extra)
        if with_base:
            job.base = self.base(st)
            job.base_path = self._write("base", job.base)
            job.argv += ["--base", job.base_path]
        if kind == "nd":
            job.check_atoms = tuple(self.rng.random() for _ in range(3))
        return job

    # -- workloads -------------------------------------------------------------------

    def dense(self) -> list[Job]:
        # spectrum at V ~ 730-1100 and nd at V = 366.  Four spectrum jobs
        # of about the same cost (two on the interval, with different seeded
        # alphas) fill the middle of the round, so job_p50_ms falls inside
        # them, not on a gap between job sizes.  No dos jobs and no nd on
        # the interval: both give wrong output at this commit (the strict
        # xfails in test_oracles.py), and a job that fails its check fails
        # the run.
        jobs = [
            self.cli_job("spectrum", "gasket", 6),
            self.cli_job("spectrum", "interval", 10),
            self.cli_job("spectrum", "interval", 10),
            self.cli_job("spectrum", "zigzag", 5),
            self.cli_job("spectrum", "star", 6),
            self.cli_job("nd", "gasket", 5),
        ]
        return jobs

    def lattice(self) -> list[Job]:
        # V ~ 80-1100; eigensolves stay small, matrix exports are the large
        # ones.  Two cheap jobs, five of about 50-100 ms and two expensive
        # ones: job_p50_ms falls inside the middle five, not on a gap between
        # job sizes.  No dos jobs, for the reason given in dense().
        jobs = [
            self.cli_job("spectrum", "gasket", 4),
            self.cli_job("spectrum", "star", 4),
            self.cli_job("spectrum", "gasket", 5),
            self.cli_job("spectrum", "interval", 8),
            self.cli_job("spectrum", "zigzag", 4),
            self.cli_job("spectrum", "star", 5),
            self.cli_job("matrix", "star", 6),
            self.cli_job("matrix", "gasket", 6),
            self.cli_job("matrix", "interval", 10),
        ]
        return jobs

    def green_job(self, family: str, re_steps: int, im_steps: int) -> Job:
        # seeded window: a real interval of width 3-6 starting in [-7, -1],
        # imaginary parts at least 0.2 away from the spectrum on the axis
        re_min = round(self.rng.uniform(-7.0, -1.0), 3)
        re_max = round(re_min + self.rng.uniform(3.0, 6.0), 3)
        im_min = round(self.rng.uniform(0.2, 0.6), 3)
        im_max = round(im_min + self.rng.uniform(0.3, 1.0), 3)
        extra = [
            "--re-min", str(re_min), "--re-max", str(re_max), "--re-steps", str(re_steps),
            "--im-min", str(im_min), "--im-max", str(im_max), "--im-steps", str(im_steps),
            "--nmax", str(GREEN_NMAX),
        ]
        job = self.cli_job("green", family, 0, extra)
        job.label = f"green:{family}:{re_steps}x{im_steps}"
        return job

    def green(self) -> list[Job]:
        # grid sizes chosen so that every scan costs about the same (~0.5 s on
        # a 2-core Xeon): the median job is then not balanced on a gap
        # between two job sizes
        jobs = [
            self.green_job("gasket", 5, 2),
            self.green_job("interval", 25, 4),
            self.green_job("zigzag", 10, 3),
            self.green_job("star", 15, 4),
        ]
        return jobs

    def poly_job(self, family: str, n: int, which: str) -> Job:
        st = self.structure(family)
        job = Job("poly", f"poly:{which}:{family}:{n}", st, n)
        job.base = self.base(st)
        job.api = {"which": which}
        return job

    def identity_job(self, family: str, n: int) -> Job:
        """A seeded positive-definite G-invariant Q: every interior block of
        Q_<k> is then positive definite, so T^n has no pole at Q."""
        st = self.structure(family)
        job = Job("identity", f"identity:{family}:{n}", st, n)
        if family == "gasket":
            # S3-invariant Q = u0 p_W0 + u1 p_W1, eigenvalues u0 and u1
            job.api = {"gasket_coords": [str(self.pick(RATIONALS)), str(self.pick(RATIONALS))]}
            return job
        q0, q1 = self.pick(RATIONALS), self.pick(RATIONALS)
        q2 = -min(q0, q1) * self.pick((Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)))
        job.api = {"q": [str(q0), str(q1), str(q2)]}
        return job

    def exact(self) -> list[Job]:
        # A round of about 3 s, so that a run holds several rounds.  Gasket
        # n = 3 polys (about 2.3 s each) and the five-step interval lift
        # behind n = 5 degrees (about 5 s) are timed by roadmap_table.py.
        jobs = []
        for family, n in (("gasket", 2), ("interval", 6), ("zigzag", 2), ("star", 3)):
            for which in ("dirichlet", "neumann"):
                jobs.append(self.poly_job(family, n, which))
        for family, n in (("gasket", 3), ("interval", 3), ("interval", 4)):
            jobs.append(self.cli_job("degrees", family, n, ["--n", str(n)], with_base=False))
        for family in ("gasket", "interval", "zigzag", "star"):
            jobs.append(self.identity_job(family, 2))
        return jobs

    def warmup(self, workload: str) -> list[Job]:
        """One small job for each (kind, structure) pair the workload runs, so
        that every code path has run once before timing starts."""
        small = {
            "spectrum": lambda f: self.cli_job("spectrum", f, 3),
            "dos": lambda f: self.cli_job("dos", f, 3),
            "nd": lambda f: self.cli_job("nd", f, 3),
            "matrix": lambda f: self.cli_job("matrix", f, 2),
            "green": lambda f: self.green_job(f, 2, 1),
            "poly": lambda f: self.poly_job(f, 1, "neumann"),
            "degrees": lambda f: self.cli_job("degrees", f, 2, ["--n", "2"], with_base=False),
            "identity": lambda f: self.identity_job(f, 1),
        }
        pairs = dict.fromkeys((job.kind, job.structure.family) for job in self.jobs(workload))
        return [small[kind](family) for kind, family in pairs]

    def jobs(self, workload: str) -> list[Job]:
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        return getattr(self, workload)()


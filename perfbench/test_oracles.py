"""The benchmark's own tests: every job kind's check passes on clean output
and counts one corrupted output as failed, and the tracer restores every
binding it patches.

    python3 -m pytest perfbench/test_oracles.py -q
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.import_program()

import tracer as tracing  # noqa: E402
from workloads import Generator, Job, Structure  # noqa: E402

INTERVAL_25 = Structure("interval", ["--builtin", "interval:2/5"], None, Fraction(2, 5))


def first_row(path: Path, col: int, change) -> None:
    """Apply ``change`` to one column of the first data row of a CSV file."""
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[col] = change(cells[col])
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def corrupt_matrix(out: Path) -> None:
    path = next(out.glob("*_A*.mtx"))
    lines = path.read_text().splitlines()
    i, j, v = lines[3].split()
    lines[3] = f"{i} {j} {float(v) * 1.001!r}"
    path.write_text("\n".join(lines) + "\n")


def bump_int(s: str) -> str:
    return str(int(s) + 1)


def nudge(s: str) -> str:
    return repr(float(s) * (1 + 1e-6) + 1e-6)


# kind -> (job factory, corruption of (result, out dir) returning the new result)
CASES = {
    "spectrum": (
        lambda g: g.cli_job("spectrum", "gasket", 3),
        lambda res, out: (first_row(next(out.glob("*_neumann.csv")), 1, bump_int), res)[1],
    ),
    "dos": (
        lambda g: g.cli_job("dos", "gasket", 3),
        lambda res, out: (first_row(next(out.glob("*_dos_dirichlet.csv")), 1, nudge), res)[1],
    ),
    "nd": (
        lambda g: g.cli_job("nd", "gasket", 3),
        lambda res, out: (first_row(next(out.glob("*_rho.csv")), 1, bump_int), res)[1],
    ),
    "matrix": (
        lambda g: g.cli_job("matrix", "star", 2),
        lambda res, out: (corrupt_matrix(out), res)[1],
    ),
    "green": (
        lambda g: g.green_job("interval", 3, 1),
        lambda res, out: (first_row(next(out.glob("*_green.csv")), 2, nudge), res)[1],
    ),
    "degrees": (
        lambda g: g.cli_job("degrees", "gasket", 2, ["--n", "2"], with_base=False),
        lambda res, out: (res[0], res[1].replace("[2, 4]", "[2, 5]")),
    ),
    "poly": (
        lambda g: g.poly_job("interval", 2, "neumann"),
        lambda res, out: res[:-2] + [res[-2] + 1, res[-1]],
    ),
    "identity": (
        lambda g: g.identity_job("zigzag", 1),
        lambda res, out: (res[0], res[1].map_coeffs(lambda v: 2 * v)),
    ),
}


@pytest.fixture
def runner(tmp_path):
    return run.Runner("test", [], tmp_path)


def run_with(monkeypatch, runner, job, corrupt=None):
    real = run.execute

    def execute(job, out):
        result = real(job, out)
        return corrupt(result, out) if corrupt else result

    monkeypatch.setattr(run, "execute", execute)
    return runner.run_job(job)


@pytest.mark.parametrize("kind", sorted(CASES))
def test_clean_output_passes(kind, tmp_path, runner, monkeypatch):
    job = CASES[kind][0](Generator(7, tmp_path / "in"))
    rec = run_with(monkeypatch, runner, job)
    assert rec["ok"], rec["error"]


@pytest.mark.parametrize("kind", sorted(CASES))
def test_corrupted_output_counts_as_failed(kind, tmp_path, runner, monkeypatch):
    make, corrupt = CASES[kind]
    job = make(Generator(7, tmp_path / "in"))
    rec = run_with(monkeypatch, runner, job, corrupt)
    assert not rec["ok"] and rec["error"]


def test_nonzero_exit_code_counts_as_failed(tmp_path, runner):
    job = Generator(7, tmp_path / "in").cli_job("spectrum", "gasket", 2)
    job.argv[job.argv.index("--level") + 1] = "-1"
    rec = runner.run_job(job)
    assert not rec["ok"] and "exit code" in rec["error"]


@pytest.mark.xfail(strict=True, reason="fraclat dos drops the Neumann zero mode when the "
                   "computed zero eigenvalue rounds to a positive number")
def test_dos_keeps_the_zero_mode(tmp_path, runner):
    base = {"a": [[1, 2, "3/2"]], "b": ["2", "5/3"]}
    path = tmp_path / "base.json"
    path.write_text(json.dumps(base))
    job = Job("dos", "dos:interval:8", INTERVAL_25, 8, base=base, base_path=str(path),
              argv=["dos", "--builtin", "interval:2/5", "--level", "8", "--base", str(path)])
    rec = runner.run_job(job)
    assert rec["ok"], rec["error"]


@pytest.mark.xfail(strict=True, reason="fraclat nd merges Dirichlet eigenvalues closer than "
                   "merge_tol and reports N-D atoms that the interval cannot have")
def test_nd_finds_no_interval_atoms(tmp_path, runner):
    job = Generator(5, tmp_path / "in").cli_job("nd", "interval", 10)
    rec = runner.run_job(job)
    assert rec["ok"], rec["error"]


def test_tracer_patches_every_binding_and_restores(tmp_path, runner):
    from fraclat import cli, renorm, spectral

    originals = (cli.spectrum, spectral.spectrum, renorm.trace_on_subset, cli._writer)
    tr = tracing.Tracer()
    tr.install()
    try:
        assert cli.spectrum is spectral.spectrum is not originals[0]
        assert renorm.trace_on_subset is not originals[2]
        with pytest.raises(RuntimeError, match="still traced"):
            tracing.assert_pristine()
        job = Generator(7, tmp_path / "in").cli_job("spectrum", "gasket", 3)
        rec = runner.run_job(job, tr)
        assert rec["ok"], rec["error"]
    finally:
        tr.uninstall()
    assert (cli.spectrum, spectral.spectrum, renorm.trace_on_subset, cli._writer) == originals
    calls = {name: stats[0] for name, stats in tr.stats.items()}
    assert calls["cli.run"] == 1 and calls["spectral.spectrum"] == 2 and calls["cli.write"] == 2
    assert tr.counts["structure.vertices"] == 42  # gasket level 3
    for name, (_, total, self_s) in tr.stats.items():
        assert 0.0 <= self_s <= total + 1e-9, name
    assert tr.counts["cli.bytes_out"] > 0

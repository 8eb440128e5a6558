"""spectra() and the solver pool: the paired Neumann/Dirichlet solve against
two spectrum() calls, the pool's failure paths, and the rho-table kernel
against nd_nullity."""

import os
import signal

import numpy as np
import pytest

from fraclat import spectral
from fraclat.cli import EXIT_BAD_CONFIG, EXIT_OK, run
from fraclat.operator import assemble, laplacian_base
from fraclat.spectral import (
    counting_measure,
    nd_nullities,
    nd_nullity,
    nd_spectrum,
    spectra,
    spectrum,
    sup_cdf_distance,
)
from fraclat.structure import build_level
from test_weighted_and_permuted import STRUCTURES


def _op(name, n):
    spec = STRUCTURES[name]
    return assemble(laplacian_base(spec), spec, build_level(spec, n))


@pytest.mark.parametrize("name", STRUCTURES)
def test_spectra_matches_two_spectrum_calls(name):
    for n in range(5):  # level 0 has an empty Dirichlet block
        op = _op(name, n)
        neumann, dirichlet = spectra(op)
        ref_n, ref_d = spectrum(op, "neumann"), spectrum(op, "dirichlet")
        assert np.array_equal(dirichlet.eigenvalues, ref_d.eigenvalues)
        assert np.array_equal(dirichlet.b, ref_d.b) and np.array_equal(neumann.b, ref_n.b)
        assert neumann.eigenvectors is None and dirichlet.eigenvectors is None
        tol = 1e-12 * max(1.0, float(np.abs(op.matrix_float()).max()))
        assert neumann.size == ref_n.size
        assert np.max(np.abs(neumann.eigenvalues - ref_n.eigenvalues)) <= tol
        got, ref = counting_measure(neumann), counting_measure(ref_n)
        assert [m for _, m in got.atoms] == [m for _, m in ref.atoms]
        assert sup_cdf_distance(got, ref) == 0
        assert np.all(neumann.eigenvalues <= 0.0)


def test_one_worker_pool_gives_the_same_bits(monkeypatch):
    ops = [_op("gasket", 4), _op("star", 4), _op("interval:1/3", 6)]
    lams = [-3.0, -5.0, -0.123456]
    results = []
    for workers in (2, 1):
        monkeypatch.setattr(spectral, "_solver_workers", lambda: workers)
        results.append([(spectra(op), nd_nullities(op, lams)) for op in ops])
    for ((n1, d1), r1), ((n2, d2), r2) in zip(*results):
        assert np.array_equal(n1.eigenvalues, n2.eigenvalues)
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert r1 == r2


def test_pool_results_return_through_the_public_solvers(monkeypatch):
    seen = []

    def recording(fn):
        def wrapper(op, *args):
            seen.append((fn.__name__, args))
            return fn(op, *args)
        return wrapper

    monkeypatch.setattr(spectral, "spectrum", recording(spectrum))
    monkeypatch.setattr(spectral, "nd_nullity", recording(nd_nullity))
    op = _op("gasket", 3)
    neumann, dirichlet = spectra(op)
    assert nd_nullities(op, [-3.0, -5.0], 1e-8) == [nd_nullity(op, -3.0), nd_nullity(op, -5.0)]
    assert seen == [("spectrum", ("neumann",)), ("spectrum", ("dirichlet",)),
                    ("nd_nullity", (-3.0, 1e-8)), ("nd_nullity", (-5.0, 1e-8))]
    assert "started" not in op._cache
    # a later call solves afresh
    assert np.array_equal(spectrum(op, "dirichlet").eigenvalues, dirichlet.eigenvalues)


@pytest.mark.parametrize("n", [2, 4])
def test_dos_counts_the_neumann_zero_mode_at_zero(tmp_path, n):
    assert run(["dos", "--builtin", "gasket", "--level", str(n), "--out", str(tmp_path)]) == EXIT_OK
    last = (tmp_path / f"gasket_n{n}_dos_neumann.csv").read_text().splitlines()[-1]
    assert last.split(",") == ["0", repr(1 / 3**n)]  # the zero mode is the mass on [0, 0]
    neumann, _ = spectra(_op("gasket", n))
    assert neumann.eigenvalues[0] == 0.0 and not np.signbit(neumann.eigenvalues[0])


def test_worker_linalg_error_reaches_the_caller(tmp_path, monkeypatch, capsys):
    sizes = []

    def failing_eigvalsh(a, UPLO="L"):
        sizes.append(a.shape[0])
        if a.shape[0] == 42:  # the Neumann block at gasket level 3
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return np.zeros(a.shape[0])

    monkeypatch.setattr(np.linalg, "eigvalsh", failing_eigvalsh)
    monkeypatch.setattr(spectral, "_solver_workers", lambda: 2)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        spectra(_op("gasket", 3))
    assert sorted(sizes) == [39, 42]  # the other solve ran to the end
    # LinAlgError is a ValueError: the CLI reports it as a bad configuration
    assert run(["spectrum", "--builtin", "gasket", "--level", "3", "--out", str(tmp_path)]) == EXIT_BAD_CONFIG
    assert "error: Eigenvalues did not converge" in capsys.readouterr().err


@pytest.mark.parametrize("name,levels", [("gasket", (2, 3, 4, 5)), ("star", (2, 3, 4)),
                                         ("zigzag", (2, 3, 4))])
def test_rho_kernel_matches_nd_nullity(name, levels):
    for n in levels:
        op = _op(name, n)
        lams = [float(loc) for loc, _ in nd_spectrum(op).atoms]
        lams += [float(x) for x in spectrum(op, "dirichlet").eigenvalues[::7][:4]] + [-0.123456]
        assert nd_nullities(op, lams) == [nd_nullity(op, lam) for lam in lams]


def test_rho_kernel_without_interior():
    assert nd_nullities(_op("gasket", 0), [-3.0, -5.0]) == [0, 0]


def test_decimation_skips_the_last_neumann_solve(tmp_path, monkeypatch):
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def recording_eigvalsh(a, UPLO="L"):
        sizes.append(a.shape[0])
        return eigvalsh(a, UPLO)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
    assert run(["decimation", "--n", "3", "--out", str(tmp_path)]) == EXIT_OK
    # gasket levels 0-3 have 3, 6, 15 and 42 vertices, 3 of them on the boundary
    assert sorted(sizes) == [0, 3, 3, 6, 12, 15, 39]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_gets_a_working_pool():
    op = _op("gasket", 2)
    want = spectra(op)[0].eigenvalues
    spectra(_op("gasket", 5))  # two overlapping solves: every worker started and now idle
    pid = os.fork()
    if pid == 0:
        signal.alarm(20)  # a child waiting on the parent's workers, absent here, dies
        ok = np.array_equal(spectra(op)[0].eigenvalues, want)
        os._exit(0 if ok else 1)
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0

"""spectra() and the solver pool: the paired Neumann/Dirichlet solve against
two spectrum() calls, results returned through spectrum(), threads sharing
one operator, the pool's failure paths, and the full-SVD nd_nullity
against the N-D spectrum that the rho table is written from."""

import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from fraclat import spectral
from fraclat.cli import EXIT_BAD_CONFIG, EXIT_OK, run
from fraclat.operator import assemble, laplacian_base
from fraclat.spectral import (
    counting_measure,
    nd_nullity,
    nd_spectrum,
    spectra,
    spectrum,
    sup_cdf_distance,
)
from fraclat.structure import build_level
from test_r_tensor import rational_base
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
        results.append([(spectra(op), [nd_nullity(op, lam) for lam in lams]) for op in ops])
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
    rho = [spectral.nd_nullity(op, lam, 1e-8) for lam in (-3.0, -5.0)]
    assert rho == [nd_nullity(op, -3.0), nd_nullity(op, -5.0)]
    assert seen == [("spectrum", ("neumann",)), ("spectrum", ("dirichlet",)),
                    ("nd_nullity", (-3.0, 1e-8)), ("nd_nullity", (-5.0, 1e-8))]
    assert set(op._cache) <= {"A", "b"}  # no solver state left on the operator
    # a later call solves afresh
    assert np.array_equal(spectrum(op, "dirichlet").eigenvalues, dirichlet.eigenvalues)


@pytest.mark.parametrize("workers", [1, 2])
def test_threads_share_one_operator(monkeypatch, workers):
    monkeypatch.setattr(spectral, "_solver_workers", lambda: workers)
    op = _op("gasket", 4)
    lams = [-3.0, -5.0, -0.123456]
    (want_n, want_d), want_r = spectra(op), [nd_nullity(op, lam) for lam in lams]
    results, errors = [], []

    def calls():
        try:
            for _ in range(10):
                results.append((spectra(op), [nd_nullity(op, lam) for lam in lams]))
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=calls) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the interpreter between threads often
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and len(results) == 20
    for (neumann, dirichlet), r in results:
        assert np.array_equal(neumann.eigenvalues, want_n.eigenvalues)
        assert np.array_equal(dirichlet.eigenvalues, want_d.eigenvalues)
        assert r == want_r
    assert set(op._cache) <= {"A", "b"}  # no solver state left on the shared operator
    # a later call solves afresh
    assert np.array_equal(spectrum(op, "dirichlet").eigenvalues, want_d.eigenvalues)


@pytest.mark.parametrize("n", [2, 4])
def test_dos_counts_the_neumann_zero_mode_at_zero(tmp_path, n):
    assert run(["dos", "--builtin", "gasket", "--level", str(n), "--out", str(tmp_path)]) == EXIT_OK
    last = (tmp_path / f"gasket_n{n}_dos_neumann.csv").read_text().splitlines()[-1]
    assert last.split(",") == ["0", repr(1 / 3**n)]  # the zero mode is the mass on [0, 0]
    neumann, _ = spectra(_op("gasket", n))
    assert neumann.eigenvalues[0] == 0.0 and not np.signbit(neumann.eigenvalues[0])


def test_worker_linalg_error_reaches_the_caller(tmp_path, monkeypatch, capsys):
    sizes, finished = [], []

    def failing_eigvalsh(a, UPLO="L"):
        sizes.append(a.shape[0])
        if a.shape[0] == 42:  # the Neumann block at gasket level 3
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        time.sleep(0.2)  # the Dirichlet block, slower than the failing solve
        finished.append(time.monotonic())
        return np.zeros(a.shape[0])

    monkeypatch.setattr(np.linalg, "eigvalsh", failing_eigvalsh)
    monkeypatch.setattr(spectral, "_solver_workers", lambda: 2)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        spectra(_op("gasket", 3))
    raised = time.monotonic()
    assert sorted(sizes) == [39, 42] and len(finished) == 1
    assert finished[0] <= raised  # the other solve ran to the end first
    # LinAlgError is a ValueError: the CLI reports it as a bad configuration
    assert run(["spectrum", "--builtin", "gasket", "--level", "3", "--out", str(tmp_path)]) == EXIT_BAD_CONFIG
    assert "error: Eigenvalues did not converge" in capsys.readouterr().err


@pytest.mark.parametrize("name,levels", [("gasket", (2, 3, 4, 5)), ("star", (2, 3, 4)),
                                         ("zigzag", (2, 3, 4))])
def test_rho_kernel_matches_nd_nullity(name, levels):
    spec = STRUCTURES[name]
    runs = [(laplacian_base(spec), levels)]
    if name != "zigzag":  # on a path seeded bases give float atoms of true N-D mass 0, a known defect
        runs += [(rational_base(spec, seed), [n for n in levels if n <= 4]) for seed in (26, 3)]
    for base, ns in runs:
        for n in ns:
            op = assemble(base, spec, build_level(spec, n))
            nd = nd_spectrum(op)
            assert 0.0 <= nd.margin <= 1.0
            lams = [float(loc) for loc, _ in nd.atoms]
            lams += [float(x) for x in spectrum(op, "dirichlet").eigenvalues[::7][:4]] + [-0.123456]
            # the SVD nullity is the N-D mass of the atom at lam, and 0 away from every atom
            want = [sum(m for loc, m in nd.atoms if abs(loc - lam) <= nd.merge_tol) for lam in lams]
            assert [nd_nullity(op, lam) for lam in lams] == want, (base, n)


def test_rho_kernel_without_interior():
    op = _op("gasket", 0)
    assert [nd_nullity(op, lam) for lam in (-3.0, -5.0)] == [0, 0]


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

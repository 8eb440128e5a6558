import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fraclat import cli, spectral
from fraclat.cli import EXIT_BAD_CONFIG, EXIT_CEILING, EXIT_OK, EXIT_VALIDATION, run
from fraclat.operator import LevelOperator, assemble, laplacian_base
from fraclat.spectral import spectrum
from fraclat.structure import build_level, builtin_gasket


def lines(path: Path):
    return path.read_text().splitlines()


# (1, 1) ~ (2, 1) breaks the diagonal-singleton axiom
BAD_STRUCTURE = {
    "name": "bad",
    "N": 3,
    "N0": 3,
    "relation": [[1, 2, 2, 1], [1, 3, 3, 1], [2, 3, 3, 2], [1, 1, 2, 1]],
    "group": [[1, 2, 3]],
    "alpha": [1, 1, 1],
    "beta": [1, 1, 1],
}


def test_validate_builtin_gasket(capsys):
    assert run(["validate", "--builtin", "gasket"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "pass" in out
    assert out.count("ok") == 5


def test_validate_failure_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(BAD_STRUCTURE))
    assert run(["validate", "--structure", str(path)]) == EXIT_VALIDATION


def test_spectrum_on_an_invalid_structure_is_a_validation_failure(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(BAD_STRUCTURE))
    out = tmp_path / "out"
    assert run(["spectrum", "--structure", str(path), "--out", str(out)]) == EXIT_VALIDATION
    assert not out.exists()


def test_missing_structure_is_config_error():
    assert run(["validate"]) == EXIT_BAD_CONFIG
    assert run(["validate", "--builtin", "nosuch"]) == EXIT_BAD_CONFIG


def test_spectrum_csv_format(tmp_path):
    assert run(["spectrum", "--builtin", "gasket", "--level", "1", "--out", str(tmp_path)]) == EXIT_OK
    content = lines(tmp_path / "gasket_n1_dirichlet.csv")
    assert content[0].startswith("# command: spectrum, config: ")
    assert content[1] == "lambda,multiplicity"
    atoms = [tuple(map(float, l.split(","))) for l in content[2:]]
    assert [m for _, m in atoms] == [2, 1]
    assert [loc for loc, _ in atoms] == pytest.approx([-2.5, -1.0], abs=1e-12)


def test_spectrum_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert run(["spectrum", "--builtin", "gasket", "--level", "2", "--out", str(out)]) == EXIT_OK
    for name in ("gasket_n2_neumann.csv", "gasket_n2_dirichlet.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_nd_outputs(tmp_path, capsys):
    assert run(["nd", "--builtin", "gasket", "--level", "2", "--out", str(tmp_path)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1].startswith("rho decision margin: 1 (")
    nd = lines(tmp_path / "gasket_n2_nd.csv")
    assert nd[1] == "lambda,multiplicity"
    rows = [l.split(",") for l in nd[2:]]
    assert [int(r[1]) for r in rows] == [3, 1]
    rho = lines(tmp_path / "gasket_n2_rho.csv")
    assert rho[1] == "lambda,rho_n"
    assert [int(l.split(",")[1]) for l in rho[2:]] == [3, 1]


def test_dos_output(tmp_path):
    assert run(["dos", "--builtin", "interval:1/2", "--level", "3", "--points", "50",
                "--out", str(tmp_path)]) == EXIT_OK
    content = lines(tmp_path / "interval_n3_dos_neumann.csv")
    assert content[1] == "lambda,cdf"
    rows = [tuple(map(float, l.split(","))) for l in content[2:]]
    assert len(rows) == 50
    # repartition function decreases in lambda and ends at the normalized count
    assert rows[0][1] == pytest.approx(9 / 8)
    assert all(a[1] >= b[1] - 1e-12 for a, b in zip(rows[:-1], rows[1:]))


@pytest.mark.parametrize("level", [0, 1])
def test_dos_low_levels(tmp_path, level):
    # level 0 has no Dirichlet eigenvalues: its CDF is written as all zeros
    assert run(["dos", "--builtin", "gasket", "--level", str(level), "--points", "20",
                "--out", str(tmp_path)]) == EXIT_OK
    grids = {}
    for bc in ("neumann", "dirichlet"):
        content = lines(tmp_path / f"gasket_n{level}_dos_{bc}.csv")
        assert content[1] == "lambda,cdf"
        grids[bc] = [tuple(map(float, l.split(","))) for l in content[2:]]
        assert len(grids[bc]) == 20
    assert grids["neumann"][0][1] > 0
    assert grids["dirichlet"][0][1] == pytest.approx(0 if level == 0 else 3 / 3)
    if level == 0:
        assert [x for x, _ in grids["dirichlet"]] == [x for x, _ in grids["neumann"]]
        assert all(c == 0 for _, c in grids["dirichlet"])


def test_green_scan(tmp_path):
    assert run(["green", "--builtin", "gasket", "--re-steps", "3", "--im-steps", "2",
                "--nmax", "12", "--out", str(tmp_path)]) == EXIT_OK
    content = lines(tmp_path / "gasket_green.csv")
    assert content[1] == "re_lambda,im_lambda,value,iters,tail"
    assert len(content) == 2 + 6


@pytest.mark.parametrize("nmax", ["0", "-1"])
def test_green_refuses_no_steps(tmp_path, capsys, nmax):
    out = tmp_path / "out"
    assert run(["green", "--builtin", "gasket", "--nmax", nmax, "--out", str(out)]) == EXIT_BAD_CONFIG
    assert "error: n_max must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["decimation", "--n", "-1"],
    ["decimation", "--n", "0"],
    ["green", "--builtin", "gasket", "--re-steps", "0"],
    ["green", "--builtin", "gasket", "--im-steps", "0"],
    ["dos", "--builtin", "gasket", "--points", "0"],
])
def test_runs_that_check_or_write_nothing_are_refused(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == EXIT_BAD_CONFIG
    assert "error: argument" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["nd", "--tol", "nan"],
    ["nd", "--tol", "0"],
    ["nd", "--tol", "-1"],
    ["nd", "--tol", "1"],
    ["nd", "--tol", "inf"],
    ["nd", "--merge-tol", "nan"],
    ["nd", "--merge-tol", "-1e-9"],
    ["spectrum", "--merge-tol", "inf"],
    ["spectrum", "--merge-tol", "-1"],
])
def test_out_of_range_tolerances_are_refused(tmp_path, capsys, argv):
    # --tol nan once reported 12 N-D eigenvalues at gasket level 2, --tol 0 and -1 none; 4 is right
    out = tmp_path / "out"
    assert run([*argv, "--builtin", "gasket", "--level", "2", "--out", str(out)]) == EXIT_BAD_CONFIG
    assert "error: argument" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "-1e-9", "inf"])
def test_decimation_refuses_out_of_range_tolerances(tmp_path, capsys, tol):
    # --tol nan once reported FAIL and exit 2 for a containment that holds
    out = tmp_path / "out"
    assert run(["decimation", "--n", "2", "--tol", tol, "--out", str(out)]) == EXIT_BAD_CONFIG
    assert "error: argument" in capsys.readouterr().err
    assert not out.exists()


def test_merge_tol_changes_the_atoms_and_the_header(tmp_path):
    for merge_tol in ("1e-7", "0.6"):
        assert run(["spectrum", "--builtin", "gasket", "--level", "2", "--merge-tol", merge_tol,
                    "--out", str(tmp_path / merge_tol)]) == EXIT_OK
    default, merged = (lines(tmp_path / t / "gasket_n2_dirichlet.csv") for t in ("1e-7", "0.6"))
    assert default[0].endswith(", merge_tol: 1e-07") and merged[0].endswith(", merge_tol: 0.6")
    assert [int(row.split(",")[1]) for row in default[2:]] == [3, 3, 1, 2, 2, 1]
    assert [int(row.split(",")[1]) for row in merged[2:]] == [7, 2, 3]


def test_green_default_window_spans_the_spectrum(tmp_path):
    # green takes the pencil variable: the gasket Laplacian's spectrum, negated, in [0, 6]
    assert run(["green", "--builtin", "gasket", "--out", str(tmp_path)]) == EXIT_OK
    re = [float(row.split(",")[0]) for row in lines(tmp_path / "gasket_green.csv")[2:]]
    assert min(re) <= 0 and max(re) >= 6
    spec = builtin_gasket()
    pencil = -spectrum(assemble(laplacian_base(spec), spec, build_level(spec, 3)), "neumann").eigenvalues
    assert min(re) <= pencil.min() + 1e-9 and pencil.max() <= max(re) + 1e-9


def test_gasket_measure_report(tmp_path, capsys):
    tree = tmp_path / "tree.json"
    assert run(["gasket-measure", "--n", "3", "--kmax", "2", "--out", str(tmp_path),
                "--tree-out", str(tree)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "max atom-location mismatch" in out
    assert "total mass nu side" in out
    assert "total mass limit side" in out
    records = json.loads(tree.read_text())
    assert len(records) == 2 * (1 + 2 + 4)
    assert all(set(r) == {"depth", "parent", "location"} for r in records)


def test_degrees_gasket(tmp_path, capsys):
    assert run(["degrees", "--builtin", "gasket", "--n", "3", "--out", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "dhat sequence: [2, 4, 8]" in out
    assert "case_i" in out
    content = lines(tmp_path / "gasket_degrees.csv")
    assert content[1] == "n,d00,d01,d10,d11,l_n,l_n^{1/n}"
    first = content[2].split(",")
    assert [int(x) for x in first[:5]] == [1, 1, 1, 1, 2]


def test_degrees_interval(tmp_path, capsys):
    assert run(["degrees", "--builtin", "interval:1/3", "--n", "3", "--out", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "dhat sequence: [2, 4, 8]" in out
    assert "case_ii" in out


def test_degrees_dispatch_on_structure_not_name(tmp_path, capsys):
    # a two-cell interval that calls itself "gasket" gets the interval tables
    spec = {"name": "gasket", "N": 2, "N0": 2, "relation": [[1, 2, 2, 1]],
            "group": [[1, 2]], "alpha": ["1/3", "2/3"], "beta": ["2/3", "1/3"]}
    path = tmp_path / "misnamed.json"
    path.write_text(json.dumps(spec))
    assert run(["degrees", "--structure", str(path), "--n", "2", "--out", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "case_ii" in out and "bidegree" not in out
    assert (tmp_path / "interval_degrees.csv").exists()
    assert not (tmp_path / "gasket_degrees.csv").exists()


def test_degrees_refuses_other_structures(tmp_path):
    # a four-cell chain is neither builtin, whatever its name
    spec = {"name": "interval", "N": 4, "N0": 2,
            "relation": [[1, 2, 3, 2], [3, 1, 4, 1], [4, 2, 2, 1]],
            "group": [[1, 2, 3, 4]], "alpha": [1, 1, 1, 1], "beta": [1, 1, 1, 1]}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(spec))
    assert run(["degrees", "--structure", str(path), "--out", str(tmp_path)]) == EXIT_BAD_CONFIG


def test_decimation_report(tmp_path, capsys):
    assert run(["decimation", "--n", "2", "--out", str(tmp_path)]) == EXIT_OK
    assert "pass" in capsys.readouterr().out


def test_matrix_export(tmp_path):
    assert run(["matrix", "--builtin", "gasket", "--level", "1", "--out", str(tmp_path)]) == EXIT_OK
    content = lines(tmp_path / "gasket_A1.mtx")
    assert content[0] == "%%MatrixMarket matrix coordinate real symmetric"
    n, m, nnz = map(int, content[2].split())
    assert (n, m) == (6, 6)
    assert len(content) == 3 + nnz


def test_custom_base_operator(tmp_path):
    base = {"a": [[1, 2, "2"], [1, 3, "2"], [2, 3, "2"]], "b": [1, 1, 1]}
    path = tmp_path / "base.json"
    path.write_text(json.dumps(base))
    assert run(["spectrum", "--builtin", "gasket", "--level", "0", "--base", str(path),
                "--out", str(tmp_path)]) == EXIT_OK
    content = lines(tmp_path / "gasket_n0_neumann.csv")
    atoms = [tuple(map(float, l.split(","))) for l in content[2:]]
    assert atoms == [(-6.0, 2.0), (0.0, 1.0)]


def test_invalid_base_operator_rejected(tmp_path):
    # couplings that miss the symmetry group (and leave the cell disconnected)
    base = {"a": [[1, 2, "1"]], "b": [1, 1, 1]}
    path = tmp_path / "base.json"
    path.write_text(json.dumps(base))
    assert run(["spectrum", "--builtin", "gasket", "--level", "0", "--base", str(path),
                "--out", str(tmp_path)]) == EXIT_BAD_CONFIG


def test_base_that_leaves_the_cell_disconnected_rejected(tmp_path, capsys):
    path = tmp_path / "base.json"
    path.write_text(json.dumps({"a": [], "b": ["1", "1"]}))
    out = tmp_path / "out"
    assert run(["spectrum", "--builtin", "interval:1/3", "--level", "1", "--base", str(path),
                "--out", str(out)]) == EXIT_BAD_CONFIG
    assert "error: base operator couplings do not connect the cell" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("triplet", [[0, 1, "1"], [1, 5, "1"]])
def test_base_coupling_outside_the_cell_rejected(tmp_path, capsys, triplet):
    # [0, 1] once wrapped to vertex 3 and completed the triangle; [1, 5] raised IndexError
    base = {"a": [[1, 2, "1"], [2, 3, "1"], triplet], "b": [1, 1, 1]}
    path = tmp_path / "base.json"
    path.write_text(json.dumps(base))
    assert run(["spectrum", "--builtin", "gasket", "--level", "0", "--base", str(path),
                "--out", str(tmp_path)]) == EXIT_BAD_CONFIG
    assert "error: base coupling" in capsys.readouterr().err


@pytest.mark.parametrize("pairs", [[[1, 2, "1"], [1, 2, "5"]], [[1, 2, "1"], [2, 1, "5"]]])
def test_base_repeated_coupling_rejected(tmp_path, capsys, pairs):
    # the later value once overwrote the earlier one without a word
    path = tmp_path / "base.json"
    path.write_text(json.dumps({"a": pairs, "b": ["1", "2"]}))
    out = tmp_path / "out"
    assert run(["spectrum", "--builtin", "interval:1/3", "--level", "1", "--base", str(path),
                "--out", str(out)]) == EXIT_BAD_CONFIG
    assert f"error: base coupling ({pairs[1][0]}, {pairs[1][1]}) is given twice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("diagonal", [[[1, 1, "5"]], [[1, 1, "5"], [2, 2, "5"], [3, 3, "5"]]])
def test_base_diagonal_coupling_rejected(tmp_path, capsys, diagonal):
    # all three were once dropped, leaving the unit base; (1, 1) alone was
    # refused as not invariant under the symmetry group
    base = {"a": [*diagonal, [1, 2, "1"], [1, 3, "1"], [2, 3, "1"]], "b": [1, 1, 1]}
    path = tmp_path / "base.json"
    path.write_text(json.dumps(base))
    out = tmp_path / "out"
    assert run(["spectrum", "--builtin", "gasket", "--level", "1", "--base", str(path),
                "--out", str(out)]) == EXIT_BAD_CONFIG
    assert "error: base coupling (1, 1) is diagonal" in capsys.readouterr().err
    assert not out.exists()


def test_size_ceiling_exit_code(tmp_path):
    assert run(["spectrum", "--builtin", "interval:1/2", "--level", "14",
                "--out", str(tmp_path)]) == EXIT_CEILING


def test_ceiling_applies_to_dense_solves_only(tmp_path, monkeypatch):
    from fraclat import spectral

    monkeypatch.setattr(spectral, "DENSE_CEILING", 10)  # gasket level 2 has 15 vertices
    common = ["--builtin", "gasket", "--level", "2", "--out", str(tmp_path)]
    assert run(["matrix", *common]) == EXIT_OK
    for cmd in ("spectrum", "nd", "dos"):
        assert run([cmd, *common]) == EXIT_CEILING
    for cmd in ("decimation", "gasket-measure"):
        assert run([cmd, "--n", "2", "--out", str(tmp_path)]) == EXIT_CEILING


@pytest.mark.parametrize("builtin", ["gasket", "interval:1/3"])
@pytest.mark.parametrize("n", ["0", "-2"])
def test_degrees_refuses_no_steps(tmp_path, builtin, n):
    out = tmp_path / "out"
    assert run(["degrees", "--builtin", builtin, "--n", n, "--out", str(out)]) == EXIT_BAD_CONFIG
    assert not out.exists()
    assert not list(tmp_path.rglob("*_degrees.csv"))


@pytest.mark.parametrize("builtin,level,base", [
    ("interval:2/5", 8, {"a": [[1, 2, "3/2"]], "b": ["2", "5/3"]}),
    ("interval:1/2", 3, None),
])
def test_dos_keeps_the_neumann_zero_mode(tmp_path, builtin, level, base):
    argv = ["dos", "--builtin", builtin, "--level", str(level), "--out", str(tmp_path)]
    if base is not None:
        path = tmp_path / "base.json"
        path.write_text(json.dumps(base))
        argv += ["--base", str(path)]
    assert run(argv) == EXIT_OK
    scale = 2**level
    content = lines(tmp_path / f"interval_n{level}_dos_neumann.csv")
    rows = [tuple(map(float, l.split(","))) for l in content[2:]]
    # below the spectrum the CDF counts every vertex, the zero mode included;
    # the grid ends on its jump at 0, where it reads 1/N^n or 0 by rounding
    assert rows[0][1] == (scale + 1) / scale
    assert rows[-1][0] == 0.0
    assert rows[-2][1] >= 1 / scale
    assert rows[-1][1] in (0.0, 1 / scale)
    assert not any(l.startswith("-0,") for l in content)


def test_fmt_writes_zero_unsigned():
    from fraclat.cli import _fmt

    assert _fmt(-0.0) == _fmt(0.0) == "0"
    assert _fmt(-1.5) == "-1.5" and _fmt(3) == "3"
    assert _fmt(np.float64(-0.0)) == _fmt(np.float64(0.0)) == "0"
    assert _fmt(np.float64(0.1)) == _fmt(0.1) == "0.10000000000000001"
    assert _fmt(np.int64(-7)) == "-7" and _fmt(np.int64(0)) == "0"
    assert _fmt(Fraction(1, 3)) == "%.17g" % (1 / 3) and _fmt(Fraction(-2)) == "-2"
    assert _fmt(Fraction(0)) == "0" and _fmt(True) == "True"


@pytest.mark.parametrize("argv", [
    ["spectrum", "--builtin", "gasket", "--level", "3"],
    ["dos", "--builtin", "interval:1/3", "--level", "4"],
    ["decimation", "--n", "3"],
])
def test_eigenvalue_commands_compute_no_eigenvectors(tmp_path, monkeypatch, argv):
    def no_eigh(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    assert run([*argv, "--out", str(tmp_path)]) == EXIT_OK


def test_nd_solves_for_eigenvectors_once(tmp_path, monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    assert run(["nd", "--builtin", "gasket", "--level", "3", "--out", str(tmp_path)]) == EXIT_OK
    assert len(calls) == 1


def test_nd_rho_column_equals_nd_nullity_at_every_atom(tmp_path, monkeypatch):
    tols = []
    nd_spectrum = cli.nd_spectrum
    monkeypatch.setattr(cli, "nd_spectrum", lambda op, tol, **kw: tols.append(tol) or nd_spectrum(op, tol, **kw))
    argv = ["nd", "--builtin", "gasket", "--level", "3", "--tol", "1e-9", "--out", str(tmp_path)]
    assert run(argv) == EXIT_OK
    nd = lines(tmp_path / "gasket_n3_nd.csv")[2:]
    rho = [l.split(",") for l in lines(tmp_path / "gasket_n3_rho.csv")[2:]]
    assert [",".join(r) for r in rho] == nd
    assert tols == [1e-9]
    spec = builtin_gasket()
    op = assemble(laplacian_base(spec), spec, build_level(spec, 3))
    # %.17g round-trips every float
    assert [int(r[1]) for r in rho] == [spectral.nd_nullity(op, float(r[0]), 1e-9) for r in rho]


def test_nd_never_densifies_the_operator(tmp_path, monkeypatch):
    def no_dense(self):
        raise AssertionError("nd formed a dense A_n")

    monkeypatch.setattr(LevelOperator, "matrix_float", no_dense)
    assert run(["nd", "--builtin", "gasket", "--level", "3", "--out", str(tmp_path)]) == EXIT_OK
    rows = lines(tmp_path / "gasket_n3_rho.csv")[2:]
    assert rows and rows == lines(tmp_path / "gasket_n3_nd.csv")[2:]


def test_tolerance_defaults_are_spectral_constants():
    parse = cli.make_parser().parse_args
    for command in ("spectrum", "nd"):
        assert parse([command, "--builtin", "gasket"]).merge_tol == spectral.DEFAULT_MERGE_TOL
    assert parse(["nd", "--builtin", "gasket"]).tol == spectral.DEFAULT_NULLITY_TOL


def test_memory_model_refuses_the_vectors_path_first(tmp_path, monkeypatch):
    # gasket level 3 has V = 42: the values path models 3 V x V float64
    # arrays, the vectors path 6; a budget between the two refuses nd only
    from fraclat import spectral

    V = 42
    budget = 4 * 8 * V * V
    assert spectral.SOLVE_ARRAYS[False] * 8 * V * V < budget < spectral.SOLVE_ARRAYS[True] * 8 * V * V
    monkeypatch.setattr(spectral, "_mem_available", lambda: budget)
    common = ["--builtin", "gasket", "--level", "3", "--out", str(tmp_path)]
    assert run(["spectrum", *common]) == EXIT_OK
    assert run(["dos", *common]) == EXIT_OK
    assert run(["nd", *common]) == EXIT_CEILING
    monkeypatch.setattr(spectral, "_mem_available", lambda: 2 * 8 * V * V)
    assert run(["spectrum", *common]) == EXIT_CEILING


def test_mem_available_reads_meminfo():
    from fraclat import spectral

    avail = spectral._mem_available()
    if Path("/proc/meminfo").exists():
        assert avail > 0
    else:
        assert avail is None

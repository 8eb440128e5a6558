"""Smoke test of the experiment script: run it as __main__ in a temporary
directory and check the CSV it writes against the library."""

import csv
import runpy
import sys
from pathlib import Path

import pytest

from fraclat.operator import assemble, laplacian_base
from fraclat.spectral import nd_spectrum
from fraclat.structure import build_level, builtin_gasket

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("max_level", [2, 3])
def test_gasket_nd_convergence_script(tmp_path, monkeypatch, capsys, max_level):
    script = SCRIPTS / "gasket_nd_convergence.py"
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [str(script), "--max-level", str(max_level)])
    runpy.run_path(str(script), run_name="__main__")
    assert "wrote nd_convergence.csv" in capsys.readouterr().out
    with open(tmp_path / "nd_convergence.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["n"]) for r in rows] == list(range(2, max_level + 1))
    spec = builtin_gasket()
    for r in rows:
        n = int(r["n"])
        op = assemble(laplacian_base(spec), spec, build_level(spec, n))
        nd = nd_spectrum(op)
        assert int(r["vertices"]) == op.size
        assert int(r["nd_count"]) == nd.total_mass
        assert int(r["non_nd"]) == op.size - nd.total_mass
        assert float(r["nd_scaled"]) == float(nd.total_mass) / 3**n
        assert float(r["mass_at_minus3_scaled"]) == float(nd.mass_at(-3.0)) / 3**n

import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fraclat.operator import assemble, laplacian_base
from fraclat.renorm import RenormContext
from fraclat.spectral import nd_spectrum, spectrum
from fraclat.structure import build_level, builtin_gasket, builtin_interval


@pytest.fixture(scope="session")
def gasket():
    return builtin_gasket()


@pytest.fixture(scope="session")
def gasket_base(gasket):
    return laplacian_base(gasket)


@pytest.fixture(scope="session")
def gasket_ctx(gasket):
    return RenormContext.build(gasket)


@pytest.fixture(scope="session")
def interval_third():
    return builtin_interval(Fraction(1, 3))


@pytest.fixture(scope="session")
def interval_half():
    return builtin_interval(Fraction(1, 2))


class LevelCache:
    """Shared, lazily-built lattice levels / operators / spectra."""

    def __init__(self, spec, base):
        self.spec = spec
        self.base = base
        self._lat = {}
        self._op = {}
        self._dirichlet = {}
        self._nd = {}

    def lattice(self, n):
        if n not in self._lat:
            self._lat[n] = build_level(self.spec, n)
        return self._lat[n]

    def op(self, n):
        if n not in self._op:
            self._op[n] = assemble(self.base, self.spec, self.lattice(n))
        return self._op[n]

    def dirichlet(self, n):
        if n not in self._dirichlet:
            self._dirichlet[n] = spectrum(self.op(n), "dirichlet", vectors=True)
        return self._dirichlet[n]

    def nd(self, n):
        if n not in self._nd:
            self._nd[n] = nd_spectrum(self.op(n), dirichlet=self.dirichlet(n))
        return self._nd[n]


@pytest.fixture(scope="session")
def gasket_levels(gasket, gasket_base):
    return LevelCache(gasket, gasket_base)


@pytest.fixture(scope="session")
def interval_levels(interval_half):
    return LevelCache(interval_half, laplacian_base(interval_half))

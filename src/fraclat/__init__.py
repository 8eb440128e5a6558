"""Spectra of finitely-ramified self-similar lattices via Schur-complement
renormalization: lattice construction, Neumann/Dirichlet/N-D spectra,
the trace and Grassmann renormalization maps, Green-function estimation
and exact degree/dichotomy bookkeeping."""

from .grassmann import GrassmannElement, exp_q, gr_mul, interior_product, nd_order, norm, restrict
from .operator import BaseOperator, LevelOperator, assemble, h_matrices, laplacian_base
from .renorm import (
    GreenEstimate,
    RenormContext,
    dirichlet_poly,
    green_estimate,
    mu_nd_estimate,
    neumann_poly,
    phi,
    r_map,
    rho_n,
    siegel_distance,
    t_map,
)
from .schur import TracePoleError, harmonic_prolongation, trace_on_subset
from .spectral import (
    AtomicMeasure,
    EigenDecomposition,
    argument_principle_count,
    counting_measure,
    dominates,
    nd_nullities,
    nd_nullity,
    nd_spectrum,
    spectra,
    spectrum,
    sup_cdf_distance,
)
from .structure import (
    LatticeLevel,
    StructureSpec,
    build_level,
    builtin_gasket,
    builtin_interval,
    validate_structure,
)

__version__ = "0.1.0"

"""Dyadic and sparse machinery for weighted Riesz potential inequalities.

Submodules:
  mesh       truncated shifted dyadic grids and step functions
  operators  reference/dyadic/sparse Riesz potentials, maximal operators
  orlicz     Young functions, Luxemburg norms, bump machinery
  weights    weight characteristics and test-weight generators
  sparse     sparse families, overlap level sets, Carleson checks
  corona     corona decomposition and its sigma decay
  normest    testing constants and operator-norm lower bounds
  cli        command-line experiment surface
"""

from .mesh import DyadicCube, Mesh, StepFunction
from .operators import KernelMode, dyadic_riesz, riesz_reference, sparse_riesz
from .sparse import SparseFamily, build_sparse, verify_sparse
from .weights import ExponentTuple

__version__ = "0.1.0"

__all__ = [
    "DyadicCube",
    "Mesh",
    "StepFunction",
    "KernelMode",
    "riesz_reference",
    "dyadic_riesz",
    "sparse_riesz",
    "SparseFamily",
    "build_sparse",
    "verify_sparse",
    "ExponentTuple",
    "__version__",
]

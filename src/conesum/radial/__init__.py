"""Radial eigenproblem solvers: Bessel secular method, FEM, and oracles."""

from .fem import FemField, MeshSpec, fem_spectrum, make_mesh, refine_mesh
from .firstorder import first_order_kernel
from .problems import ChannelProblem, Eigenvalue, EigList, degree_problems
from .sturm import sturm_liouville_oracle
from .transfer import secular_value, transfer_spectrum

__all__ = [
    "FemField",
    "MeshSpec",
    "fem_spectrum",
    "make_mesh",
    "refine_mesh",
    "first_order_kernel",
    "ChannelProblem",
    "Eigenvalue",
    "EigList",
    "degree_problems",
    "sturm_liouville_oracle",
    "secular_value",
    "transfer_spectrum",
]

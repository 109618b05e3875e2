"""Radial eigenproblem solvers: Bessel secular method, FEM, and oracles."""

from .fem import FemField, MeshSpec, fem_spectrum, make_mesh, refine_mesh
from .firstorder import analytic_zero_modes, first_order_kernel
from .problems import ChannelProblem, Eigenvalue, EigList, degree_problems
from .sturm import sturm_liouville_oracle
from .transfer import channel_fundamental, secular_value, transfer_spectrum

__all__ = [
    "FemField",
    "MeshSpec",
    "fem_spectrum",
    "make_mesh",
    "refine_mesh",
    "analytic_zero_modes",
    "first_order_kernel",
    "ChannelProblem",
    "Eigenvalue",
    "EigList",
    "degree_problems",
    "sturm_liouville_oracle",
    "channel_fundamental",
    "secular_value",
    "transfer_spectrum",
]

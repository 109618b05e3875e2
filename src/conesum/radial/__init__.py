"""Radial eigenproblem solvers: Bessel secular method, FEM, and oracles."""

"""Independent Sturm-Liouville oracle for the function (p = 0) spectrum.

Works directly in the original coordinates of the warped product: for each
sphere mode with eigenvalue mu^2 the radial factor satisfies

    -(f^n F')' / f^n + mu^2 F / f^2 = lam F

with natural (Neumann) conditions, discretised with quadratic elements
against the volume weight f^n.  No change of variables, no seam corner
terms, no essential tip conditions: the weight carries all of that, which
makes this an end-to-end check of the channel reduction used elsewhere
(U-map weights, seam conventions, absolute boundary conditions).  The
discretisation is the oracle's own; it shares only the linear algebra of
:mod:`conesum.radial.fem`: the band scatter and the inertia-certified pencil
solver.

Exclusion of high modes is rigorous here: the Rayleigh quotient dominates
mu^2 / r_max^2, so modes with mu^2 > lam_max r_max^2 contribute nothing.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DomainError
from ..geometry import BCKind, Profile
from ..sphere_modes import enumerate_sphere_modes
from .fem import band_assemble, solve_pencil

_GX, _GW = np.polynomial.legendre.leggauss(6)
_QX = 0.5 * (_GX + 1.0)
_QW = 0.5 * _GW
_N = np.stack([(1 - _QX) * (1 - 2 * _QX), 4 * _QX * (1 - _QX), _QX * (2 * _QX - 1)], axis=1)
_DN = np.stack([4 * _QX - 3, 4 - 8 * _QX, 4 * _QX - 1], axis=1)


def _mesh(profile: Profile, h: float) -> np.ndarray:
    nodes = [np.array([0.0])]
    t0 = 0.0
    for seg in profile.segments:
        # mild grading toward small radii, independent of the channel mesher
        n_uniform = max(int(math.ceil(seg.length / h)), 2)
        xs = np.linspace(0.0, 1.0, n_uniform + 1)
        if seg.r_lo < 0.2 * seg.r_hi:
            xs = xs**1.7
            if seg.orientation < 0:
                xs = 1.0 - xs[::-1]
        nodes.append(t0 + seg.length * xs[1:])
        t0 += seg.length
    return np.concatenate(nodes)


def _mode_eigs(profile: Profile, n: int, mu_sq: float, lam_max: float, h: float) -> np.ndarray:
    nodes = _mesh(profile, h)
    nel = len(nodes) - 1
    npts = 2 * len(nodes) - 1
    he = np.diff(nodes)
    tq = nodes[:-1, None] + he[:, None] * _QX[None, :]
    bps = profile.breakpoints  # the radius is linear between them
    fq = np.interp(tq, bps, [profile.radius(t) for t in bps])
    wq = he[:, None] * _QW[None, :]
    wn = wq * fq**n
    kw = wn / he[:, None] ** 2
    ke = np.einsum("eq,qi,qj->eij", kw, _DN, _DN)
    if mu_sq:
        ke = ke + mu_sq * np.einsum("eq,qi,qj->eij", wn / fq**2, _N, _N)
    me = np.einsum("eq,qi,qj->eij", wn, _N, _N)
    pts = np.stack([2 * np.arange(nel), 2 * np.arange(nel) + 1, 2 * np.arange(nel) + 2], axis=1)
    rows = pts[:, :, None].repeat(3, axis=2).ravel()
    cols = pts[:, None, :].repeat(3, axis=1).ravel()
    K, M = band_assemble(rows, cols, npts, 2, ke.ravel(), me.ravel())
    return solve_pencil(K, M, lam_max)


def sturm_liouville_oracle(profile: Profile, n: int, lam_max: float, h: float = 0.02) -> np.ndarray:
    """Sorted p = 0 spectrum (with multiplicity) up to lam_max, two-mesh extrapolated.

    Supports natural (absolute) boundaries and closed profiles; a profile
    with Dirichlet-like ends is outside this oracle's scope.
    """
    for bc in (profile.start_bc, profile.end_bc):
        if bc not in (BCKind.REGULAR_TIP, BCKind.ABSOLUTE):
            raise DomainError("oracle supports tips and absolute boundaries only")
    out: list[float] = []
    r_max = profile.r_max
    for mode in enumerate_sphere_modes(n, max(lam_max * r_max * r_max, 1.0)):
        if mode.q != 0:
            continue
        coarse = _mode_eigs(profile, n, mode.mu_sq, lam_max * 1.3 + 1.0, h)
        fine = _mode_eigs(profile, n, mode.mu_sq, lam_max * 1.3 + 1.0, h / 2.0)
        for i in range(min(len(coarse), len(fine))):
            ext = fine[i] + (fine[i] - coarse[i]) / 15.0
            if ext <= lam_max:
                out.extend([float(ext)] * mode.multiplicity)
    return np.array(sorted(out))

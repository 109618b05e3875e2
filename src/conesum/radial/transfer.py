"""Secular-equation eigenvalue solver for scalar channels: analytic bases per
segment, matched at seams.

On a segment with local cone radius r the channel equation
-u'' + gamma(gamma+1) u / r^2 = lam u has the exact solution basis
sqrt(r) J_nu(k r), sqrt(r) Y_nu(k r) with k = sqrt(lam) > 0 and
nu = |gamma+1/2|.  The state (u, u') admissible at the left end of the
profile and the one admissible at the right end are propagated to an
interior matching breakpoint, applying the derivative jump at each crossed
seam; eigenvalues are the lam where the two states are parallel, i.e. the
zeros of their 2x2 determinant.

Only scalar problems are solved.  A coupled PLUS_HALF problem is handed to
:func:`transfer_spectrum` as its two single-slot problems
(``ChannelProblem.slot_problems``), whose merged spectrum is its positive
spectrum; :func:`secular_value` rejects it.  Every lam of a call is carried
at once, as an (m, 2) stack of states.  Propagation never steps inside a
segment: the basis coefficients of the entry states come from one batched
2x2 solve and are evaluated at the exit, with renormalisation between
segments so that the dynamic range of Bessel functions across small radii
cannot overflow.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

from ..errors import DomainError
from ..geometry import BCKind
from .bessel import jy_arrays
from .problems import ChannelProblem, Eigenvalue, EigList

OVERSAMPLE = 8  # k-grid points per Weyl spacing pi / L of the profile
REFINE_XTOL = 1e-13  # brentq's absolute tolerance on k = sqrt(lam)


def _fundamental_matrix(nu: float, k, r) -> np.ndarray:
    """[[f1, f2], [f1', f2']] of f1 = sqrt(r) J_nu(k r), f2 = sqrt(r) Y_nu(k r).

    ``k`` and ``r`` broadcast against each other; the result has their
    broadcast shape followed by (2, 2).
    """
    k, r = np.asarray(k, dtype=float), np.asarray(r, dtype=float)
    if not (np.all(k > 0) and np.all(r > 0)):
        raise DomainError(f"wavenumber and radius must be positive, got k={k}, r={r}")
    x = k * r
    j, y, jp, yp = jy_arrays(nu, x)
    sq = np.sqrt(r)
    out = np.empty(x.shape + (2, 2))
    out[..., 0, 0] = sq * j
    out[..., 0, 1] = sq * y
    out[..., 1, 0] = 0.5 / sq * j + sq * k * jp
    out[..., 1, 1] = 0.5 / sq * y + sq * k * yp
    return out


def _normalize(states: np.ndarray) -> np.ndarray:
    scale = np.abs(states).max(axis=-1, keepdims=True)
    scale[scale == 0] = 1.0
    return states / scale


def secular_value(problem: ChannelProblem, lam):
    """Secular determinant of a scalar problem at each lam > 0; zero exactly at eigenvalues.

    ``lam`` is a float or an array; the result has its shape.  The value is
    the determinant of the left and right states, each scaled to max-norm 1,
    so it lies in [-2, 2] and is linear in lam at a simple eigenvalue.
    States are tracked per breakpoint with a side convention: the seam jump
    at an interior breakpoint maps the limit from the left segment to the
    limit from the right segment.  Orientation flips of BETA slots multiply
    a whole state by -1, which commutes with every map here, so only the
    t-versus-r sign of the derivative enters.  lam <= 0 and a coupled
    problem raise DomainError: solve a coupled problem's
    ``slot_problems()`` instead.
    """
    lam = np.asarray(lam, dtype=float)
    if not np.all(lam > 0):
        raise DomainError(f"secular_value needs lam > 0, got {lam}")
    k = np.sqrt(lam).reshape(-1, 1)
    nu = problem.nu
    profile = problem.profile
    segs = profile.segments
    nseg = len(segs)
    seams = problem.seam_matrices()

    def cross(states, i, forward):
        """Carry states across segment i, entry to exit if ``forward``."""
        seg = segs[i]
        radii = [seg.radius_at_entry(), seg.radius_at_exit()]
        m_from, m_to = np.moveaxis(_fundamental_matrix(nu, k, radii if forward else radii[::-1]), 1, 0)
        scale = np.abs(m_from).max(axis=-2, keepdims=True)
        scale[scale == 0] = 1.0
        flip = np.array([1.0, float(seg.orientation)])
        coeff = np.linalg.solve(m_from / scale, (flip * states)[..., None])
        return _normalize(flip * ((m_to / scale) @ coeff)[..., 0])

    def jump(states, b, direction):
        """Apply the seam jump at interior breakpoint b, crossing rightward (+1) or leftward (-1)."""
        K = seams[b - 1]
        if K is None:
            return states
        return np.column_stack([states[:, 0], states[:, 1] + direction * K[0, 0] * states[:, 0]])

    def end_state(which, tip_seg, radius):
        """States admissible at an exposed end, or the tip-regular J branch at ``radius``."""
        if (profile.start_bc if which == "start" else profile.end_bc) is BCKind.REGULAR_TIP:
            f = _fundamental_matrix(nu, k[:, 0], radius)
            return np.column_stack([f[:, 0, 0], segs[tip_seg].orientation * f[:, 1, 0]])
        data = problem.endpoint(which)
        if data.drop[0]:
            return np.tile([0.0, 1.0], (len(k), 1))
        return np.tile([1.0, (1 if which == "start" else -1) * float(data.k_matrix[0, 0])], (len(k), 1))

    # matching breakpoint: interior breakpoint of largest radius, else the
    # single segment's non-tip end, where a tip's regular state is evaluated
    if nseg > 1:
        match = 1 + int(np.argmax([s.radius_at_exit() for s in segs[:-1]]))
    else:
        match = 0 if profile.end_bc is BCKind.REGULAR_TIP else 1

    # left states walk rightward from their end to breakpoint `match`,
    # jumping at every interior breakpoint on the way, `match` included
    left = end_state("start", 0, segs[0].radius_at_exit())
    for b in range(1 if profile.start_bc is BCKind.REGULAR_TIP else 0, match + 1):
        if 1 <= b <= nseg - 1:
            left = jump(left, b, +1)
        if b < match:
            left = cross(left, b, True)

    # right states walk leftward to `match`, jumping at the breakpoints past it
    right = end_state("end", nseg - 1, segs[-1].radius_at_entry())
    for b in range(nseg - 1 if profile.end_bc is BCKind.REGULAR_TIP else nseg, match, -1):
        if b <= nseg - 1:
            right = jump(right, b, -1)
        right = cross(right, b - 1, False)

    left, right = _normalize(left), _normalize(right)
    det = left[:, 0] * right[:, 1] - left[:, 1] * right[:, 0]
    return float(det[0]) if lam.ndim == 0 else det.reshape(lam.shape)


# Neither root finder below is called by the solver; both stay
# defined because perfbench/tracer.py wraps them by name.


def locate_roots_in_window(
    problem: ChannelProblem, lo: float, hi: float, expect: int
) -> list[float]:
    """Dense scan for secular roots inside a window, refining until either
    sign changes account for the expected count or the grid is exhausted."""
    for n in (64, 512, 4096):
        found = _sign_change_roots(lambda lam: secular_value(problem, lam), np.linspace(lo, hi, n))
        if len(found) >= expect:
            break
    return found


def confirm_even_root(
    problem: ChannelProblem, lo: float, hi: float, depth_tol: float = 1e-8
) -> float | None:
    """Locate an even-order secular root inside (lo, hi), or None.

    Minimizes the determinant magnitude; the minimum must undercut the
    parabolic scale set by the window edges by ``depth_tol`` to count as a
    root rather than a benign near-miss.
    """
    from scipy.optimize import minimize_scalar

    g = lambda lam: abs(secular_value(problem, lam))
    res = minimize_scalar(g, bounds=(lo, hi), method="bounded", options={"xatol": 1e-13 * hi})
    edge = min(g(lo), g(hi))
    if edge <= 0:
        return float(res.x)
    return float(res.x) if res.fun <= depth_tol * edge else None


def _sign_change_roots(f, grid: np.ndarray, xtol: float = 2e-12) -> list[float]:
    """Roots of f by brentq in each sign change of f over ``grid``, in one call
    of f on the whole grid; a grid point where f vanishes is a root itself."""
    vals = f(grid)
    return [
        float(grid[i]) if vals[i] == 0.0 else brentq(f, grid[i], grid[i + 1], xtol=xtol, rtol=1e-15)
        for i in np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0))
    ]


def _scalar_roots(problem: ChannelProblem, grid: np.ndarray, lam_max: float) -> list[float]:
    """lam of each sign change of the secular scan over the k = sqrt(lam) ``grid``."""
    roots = _sign_change_roots(lambda k: secular_value(problem, k * k), grid, REFINE_XTOL)
    return [k * k for k in roots if k * k <= lam_max]


def transfer_spectrum(problem: ChannelProblem, lam_max: float) -> EigList:
    """Positive eigenvalues in (0, lam_max] of one channel problem by secular root search.

    A coupled problem is solved as its two scalar slot problems and the
    merged entries keep ``problem`` as their provenance.  The k = sqrt(lam)
    grid step is calibrated to the Weyl spacing pi/L of the profile and sign
    changes are bisected with brentq.  Zero modes are counted analytically
    elsewhere and not reported here.
    """
    if lam_max <= 0:
        raise DomainError(f"lam_max must be positive, got {lam_max}")
    dk = math.pi / (problem.profile.length * OVERSAMPLE)
    kmax = math.sqrt(lam_max)
    grid = np.arange(dk, kmax + dk, dk)
    if len(grid) < 2:
        grid = np.linspace(dk / 4, kmax, 8)
    roots = sorted(
        root for slot in problem.slot_problems() for root in _scalar_roots(slot, grid, lam_max)
    )
    entries = [
        Eigenvalue(value=lam, problem=problem, index=i, method="secular") for i, lam in enumerate(roots)
    ]
    return EigList(entries=entries)

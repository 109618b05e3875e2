"""Secular-equation eigenvalue solver for scalar channels: analytic bases per
segment, matched at seams.

On a segment with local cone radius r the channel equation
-u'' + gamma(gamma+1) u / r^2 = lam u has the exact solution basis
sqrt(r) J_nu(k r), sqrt(r) Y_nu(k r) with k = sqrt(lam) and nu = |gamma+1/2|
(power laws r^(1/2 +- nu) at lam = 0).  The state (u, u') admissible at the
left end of the profile and the one admissible at the right end are
propagated to an interior matching breakpoint, applying the derivative jump
at each crossed seam; eigenvalues are the lam where the two states are
parallel, i.e. the zeros of their 2x2 determinant.

Only scalar problems are solved.  A coupled PLUS_HALF problem is handed to
:func:`transfer_spectrum` as its two single-slot problems
(``ChannelProblem.slot_problems``), whose merged spectrum is its positive
spectrum; :func:`secular_value` rejects it.  Propagation never steps inside a
segment: the basis coefficients of the entry state come from one 2x2 solve
and are evaluated at the exit, with renormalisation between segments so that
the dynamic range of Bessel functions across small radii cannot overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from ..errors import DomainError
from ..geometry import BCKind
from .bessel import jy_arrays
from .problems import ChannelProblem, Eigenvalue, EigList


@dataclass(frozen=True)
class FundamentalBasis:
    """Solution basis (values, r-derivatives) of one channel at one radius."""

    values: tuple[float, float]
    derivatives: tuple[float, float]
    regular_index: int


def channel_fundamental(gamma: float, lam: float, r: float) -> FundamentalBasis:
    """Exact solution basis of -u'' + gamma(gamma+1) u / r^2 = lam u at radius r.

    For lam > 0 the basis is {sqrt(r) J_nu, sqrt(r) Y_nu} with the J-branch
    regular; for lam = 0 it is {r^(gamma+1), r^(-gamma)} with the branch of
    indicial exponent max(gamma+1, -gamma) regular.
    """
    if lam < 0:
        raise DomainError(f"negative spectral parameter: {lam}")
    if r <= 0:
        raise DomainError(f"radius must be positive: {r}")
    if lam == 0:
        e1, e2 = gamma + 1.0, -gamma
        vals = (r ** e1, r ** e2)
        ders = (e1 * r ** (e1 - 1.0), e2 * r ** (e2 - 1.0))
        return FundamentalBasis(vals, ders, 0 if e1 >= e2 else 1)
    nu = abs(gamma + 0.5)
    m = _fundamental_matrix(nu, math.sqrt(lam), np.array([r]))[0]
    return FundamentalBasis((m[0, 0], m[0, 1]), (m[1, 0], m[1, 1]), 0)


def _fundamental_matrix(nu: float, k: float, r: np.ndarray) -> np.ndarray:
    """Stack of [[f1, f2], [f1', f2']] at each radius for order nu."""
    r = np.asarray(r, dtype=float)
    out = np.empty((len(r), 2, 2))
    if k == 0.0:
        e1, e2 = 0.5 + nu, 0.5 - nu
        out[:, 0, 0] = r ** e1
        out[:, 0, 1] = r ** e2
        out[:, 1, 0] = e1 * r ** (e1 - 1.0)
        out[:, 1, 1] = e2 * r ** (e2 - 1.0)
        return out
    x = k * r
    j, y, jp, yp = jy_arrays(nu, x)
    sq = np.sqrt(r)
    out[:, 0, 0] = sq * j
    out[:, 0, 1] = sq * y
    out[:, 1, 0] = 0.5 / sq * j + sq * k * jp
    out[:, 1, 1] = 0.5 / sq * y + sq * k * yp
    return out


class _Propagator:
    """Per-lambda propagation of a scalar channel state (u, du/dt) in global t.

    Orientation flips of BETA slots multiply the whole state by -1, which
    commutes with the linear maps below, so only the t-versus-r sign of the
    derivative enters.
    """

    def __init__(self, problem: ChannelProblem, lam: float):
        self.p = problem
        self.k = math.sqrt(lam) if lam > 0 else 0.0
        self.nu = problem.nu
        self.seam_ks = problem.seam_matrices()

    def segment_map(self, state: np.ndarray, seg_idx: int, entry: str) -> np.ndarray:
        """Map a state across a segment from one end to the other."""
        seg = self.p.profile.segments[seg_idx]
        r_from, r_to = seg.radius_at_entry(), seg.radius_at_exit()
        if entry != "entry":
            r_from, r_to = r_to, r_from
        m_from, m_to = _fundamental_matrix(self.nu, self.k, np.array([r_from, r_to]))
        scale = np.abs(m_from).max(axis=0)
        scale[scale == 0] = 1.0
        flip = np.array([1.0, float(seg.orientation)])
        coeff = np.linalg.solve(m_from / scale, flip * state)
        return flip * ((m_to / scale) @ coeff)

    def regular_state(self, seg_idx: int, at: str) -> np.ndarray:
        """State of the tip-regular branch (J; r^(1/2+nu) at lam = 0) at a tip segment's far end."""
        seg = self.p.profile.segments[seg_idx]
        r_eval = seg.radius_at_exit() if at == "exit" else seg.radius_at_entry()
        mat = _fundamental_matrix(self.nu, self.k, np.array([r_eval]))[0]
        return np.array([mat[0, 0], seg.orientation * mat[1, 0]])

    def jump(self, state: np.ndarray, seam_idx: int, direction: int) -> np.ndarray:
        """Apply the seam derivative jump crossing rightward (+1) or leftward (-1)."""
        K = self.seam_ks[seam_idx]
        if K is None:
            return state
        return np.array([state[0], state[1] + direction * K[0, 0] * state[0]])

    def boundary_state(self, which: str) -> np.ndarray:
        """The admissible state at an exposed endpoint."""
        data = self.p.endpoint(which)
        if data.constraints:
            return np.array([0.0, 1.0])
        k_e = 0.0 if data.k_matrix is None else float(data.k_matrix[0, 0])
        return np.array([1.0, (1.0 if which == "start" else -1.0) * k_e])


def _normalize(state: np.ndarray) -> np.ndarray:
    scale = np.abs(state).max()
    return state / scale if scale else state


def secular_value(problem: ChannelProblem, lam: float, raw: bool = False) -> float:
    """Normalized secular determinant of a scalar problem; zero exactly at eigenvalues.

    States are tracked per breakpoint with a side convention: the seam jump
    at an interior breakpoint maps the limit from the left segment to the
    limit from the right segment.  By default the determinant is compressed
    by its square root to tame the dynamic range during scanning;
    ``raw=True`` keeps the plain determinant.  A coupled problem raises
    DomainError: solve its ``slot_problems()`` instead.
    """
    prop = _Propagator(problem, lam)
    profile = problem.profile
    nseg = len(profile.segments)
    # matching breakpoint: interior breakpoint of largest radius, if any
    radii = [profile.segments[i].radius_at_exit() for i in range(nseg - 1)]
    match = 1 + int(np.argmax(radii)) if radii else nseg

    # left branch, ending at breakpoint `match` seen from the left segment
    if profile.start_bc is BCKind.REGULAR_TIP:
        left = prop.regular_state(0, "exit")
        cur, on_left_side = 1, True
    else:
        left = prop.boundary_state("start")
        cur, on_left_side = 0, False
    while cur < match:
        if on_left_side:
            left = prop.jump(left, cur - 1, +1)
        left = _normalize(prop.segment_map(left, cur, "entry"))
        cur, on_left_side = cur + 1, True

    # right branch, ending at breakpoint `match` seen from the right segment
    if profile.end_bc is BCKind.REGULAR_TIP:
        right = prop.regular_state(nseg - 1, "entry")
        cur, on_right_side = nseg - 1, True
    else:
        right = prop.boundary_state("end")
        cur, on_right_side = nseg, False
    while cur > match:
        if on_right_side:
            right = prop.jump(right, cur - 1, -1)
        right = _normalize(prop.segment_map(right, cur - 1, "exit"))
        cur, on_right_side = cur - 1, True

    if 1 <= match <= nseg - 1:
        left = prop.jump(left, match - 1, +1)

    full = np.column_stack([_normalize(left), _normalize(right)])
    sign, logdet = np.linalg.slogdet(full)
    if sign == 0:
        return 0.0
    power = 1.0 if raw else 2.0
    return float(sign * math.exp(max(min(logdet / power, 600.0), -600.0)))


# Neither root finder below is called by the solver; both stay
# defined because perfbench/tracer.py wraps them by name.


def locate_roots_in_window(
    problem: ChannelProblem, lo: float, hi: float, expect: int
) -> list[float]:
    """Dense scan for secular roots inside a window, refining until either
    sign changes account for the expected count or the grid is exhausted."""
    found: list[float] = []
    n = 64
    while n <= 4096:
        grid = np.linspace(lo, hi, n)
        vals = np.array([secular_value(problem, float(x)) for x in grid])
        found = []
        for i in range(n - 1):
            if vals[i] == 0.0:
                found.append(float(grid[i]))
            elif vals[i] * vals[i + 1] < 0:
                found.append(
                    float(brentq(lambda l: secular_value(problem, l), grid[i], grid[i + 1], rtol=1e-15))
                )
        if len(found) >= expect:
            return found
        n *= 8
    return found


def confirm_even_root(
    problem: ChannelProblem, lo: float, hi: float, depth_tol: float = 1e-8
) -> float | None:
    """Locate an even-order secular root inside (lo, hi), or None.

    Minimizes the raw determinant magnitude; the minimum must undercut the
    parabolic scale set by the window edges by ``depth_tol`` to count as a
    root rather than a benign near-miss.
    """
    from scipy.optimize import minimize_scalar

    g = lambda lam: abs(secular_value(problem, lam, raw=True))
    res = minimize_scalar(g, bounds=(lo, hi), method="bounded", options={"xatol": 1e-13 * hi})
    edge = min(g(lo), g(hi))
    if edge <= 0:
        return float(res.x)
    return float(res.x) if res.fun <= depth_tol * edge else None


def _scalar_roots(
    problem: ChannelProblem, grid: np.ndarray, lam_max: float, refine_rtol: float
) -> list[tuple[float, tuple[float, float]]]:
    """(lam, k-bracket squared) of each sign change of the secular scan over ``grid``."""
    vals = [secular_value(problem, float(k) ** 2) for k in grid]
    out = []
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals, vals[1:]):
        a, b = float(a), float(b)
        if fa == 0.0:
            root = a
        elif fa * fb < 0:
            root = brentq(lambda k: secular_value(problem, k * k), a, b, xtol=refine_rtol, rtol=1e-15)
        else:
            continue
        if root * root <= lam_max:
            out.append((root * root, (a * a, b * b)))
    return out


def transfer_spectrum(
    problem: ChannelProblem,
    lam_max: float,
    oversample: int = 8,
    refine_rtol: float = 1e-13,
) -> EigList:
    """Positive eigenvalues in (0, lam_max] of one channel problem by secular root search.

    A coupled problem is solved as its two scalar slot problems and the
    merged entries keep ``problem`` as their provenance.  The k = sqrt(lam)
    grid step is calibrated to the Weyl spacing pi/L of the profile and sign
    changes are bisected with brentq.  Zero modes are counted analytically
    elsewhere and not reported here.
    """
    if lam_max <= 0:
        raise DomainError(f"lam_max must be positive, got {lam_max}")
    dk = math.pi / (problem.profile.length * oversample)
    kmax = math.sqrt(lam_max)
    grid = np.arange(dk, kmax + dk, dk)
    if len(grid) < 2:
        grid = np.linspace(dk / 4, kmax, 8)
    roots = sorted(
        root for slot in problem.slot_problems() for root in _scalar_roots(slot, grid, lam_max, refine_rtol)
    )
    entries = [
        Eigenvalue(value=lam, problem=problem, index=i, method="secular", bracket=bracket)
        for i, (lam, bracket) in enumerate(roots)
    ]
    return EigList(entries=entries, meta={"grid_dk": dk})

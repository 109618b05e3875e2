"""Secular-equation eigenvalue solver for scalar channels: analytic bases per
segment, matched at seams, with eigenvalues certified by a Sturm count.

On a segment with local cone radius r the channel equation
-u'' + gamma(gamma+1) u / r^2 = lam u has the exact solution basis
sqrt(r) J_nu(k r), sqrt(r) Y_nu(k r) with k = sqrt(lam) > 0 and
nu = |gamma+1/2|.  The state (u, u') admissible at the left end of the
profile and the one admissible at the right end are propagated to an
interior matching breakpoint, applying the derivative jump at each crossed
seam, each by one half-walk, the right one on the reversed profile.  That
one walk has two readings: eigenvalues are the lam where the two states
are parallel, i.e. the zeros of their 2x2 determinant
(:func:`secular_value`), and the number of eigenvalues below lam is the
number of zeros of u on the two walks plus one comparison of Pruefer angles
at the matching breakpoint (:func:`eigen_count`).  The count is exact: every
slot has c = gamma(gamma+1) >= 0, so by Sturm comparison the zeros of u lie
at least pi/k apart, and u sampled at a spacing below pi/k changes sign once
per zero; seams only jump u'.  :func:`transfer_spectrum` isolates each
eigenvalue by bisection on the count and refines it on the determinant;
it serves ``method="secular"``.  The FEM cross-check of ``method="both"``
reads the count alone (``conesum.analysis._cross_validate``): one walk at
the ends of every FEM value's tolerance bracket and at the cap.

Only scalar problems are solved.  A coupled PLUS_HALF problem is handed to
:func:`transfer_spectrum` as its two single-slot problems
(``ChannelProblem.slot_problems``), whose merged spectrum is its positive
spectrum; :func:`secular_value` rejects it.  Every lam of a call is carried
at once, as an (m, 2) stack of states.  The basis coefficients of the entry
states come from one batched 2x2 solve and are evaluated at the exit (and,
for a count, at the sample points), with renormalisation between segments so
that the dynamic range of Bessel functions across small radii cannot
overflow.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..errors import ConvergenceError, DomainError
from ..geometry import BCKind
from .bessel import jy_arrays
from .firstorder import first_order_kernel
from .problems import ChannelProblem, Eigenvalue, EigList

REFINE_XTOL = 1e-13  # absolute tolerance of the root refinement on k = sqrt(lam)
MAX_STEPS = 200  # bisection or refinement steps of one slot before ConvergenceError


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


def _sign_changes(samples: list) -> np.ndarray:
    """Sign changes along each row of the samples joined end to end.

    Zeros are skipped, so an exact zero between opposite signs counts once
    and a zero at either end of a row counts not at all.
    """
    s = np.sign(np.concatenate(samples, axis=1))
    last = np.maximum.accumulate(np.where(s != 0, np.arange(s.shape[1]), 0), axis=1)
    s = np.take_along_axis(s, last, axis=1)
    return np.count_nonzero(s[:, 1:] * s[:, :-1] < 0, axis=1)


def _jump(states: np.ndarray, K) -> np.ndarray:
    """States past a seam crossed rightward: u' gains K u (K None: a smooth breakpoint)."""
    return states if K is None else np.column_stack([states[:, 0], states[:, 1] + K[0, 0] * states[:, 0]])


def _half_walk(problem: ChannelProblem, k: np.ndarray, stop: int, count: bool):
    """Carry the states admissible at the profile's start rightward to breakpoint ``stop``.

    Returns the states (u, u') at ``stop`` as the limit from its left, no
    jump at ``stop`` applied, and the list of u walked so far.  A tip start
    is the tip-regular J branch across the whole first segment.
    """
    nu, segs = problem.nu, problem.profile.segments
    seams = [None, *problem.seam_matrices()]  # by breakpoint; the start has none
    tip = problem.profile.start_bc is BCKind.REGULAR_TIP
    kmax = k.max(initial=0.0) if count else 0.0  # a count samples u at a spacing below pi / k

    if tip:
        radius = segs[0].radius_at_exit()
        f = _fundamental_matrix(nu, k, np.linspace(0.0, radius, int(kmax * radius / math.pi) + 2)[1:])
        states, samples = np.column_stack([f[:, -1, 0, 0], segs[0].orientation * f[:, -1, 1, 0]]), [f[:, :, 0, 0]]
    else:
        data = problem.endpoint("start")
        states = np.tile([0.0, 1.0] if data.drop[0] else [1.0, float(data.k_matrix[0, 0])], (len(k), 1))
        samples = [states[:, :1]]
    for i in range(int(tip), stop):
        seg = segs[i]
        states = _jump(states, seams[i])
        radii = np.linspace(seg.radius_at_entry(), seg.radius_at_exit(), int(kmax * seg.length / math.pi) + 2)
        f = _fundamental_matrix(nu, k, radii)
        scale = np.abs(f[:, :1]).max(axis=-2, keepdims=True)
        scale[scale == 0] = 1.0
        flip = np.array([1.0, float(seg.orientation)])
        coeff = np.linalg.solve(f[:, 0] / scale[:, 0], (flip * states)[..., None])
        walked = (f[:, 1:] / scale) @ coeff[:, None]
        samples.append(walked[:, :, 0, 0])
        states = _normalize(flip * walked[:, -1, :, 0])
    return states, samples


def _walk(problem: ChannelProblem, lam, count: bool):
    """Carry the left and right admissible states to the matching breakpoint.

    The left states are a :func:`_half_walk` of ``problem``, jumped at the
    matching seam; the right ones a half-walk of the mirrored problem (the
    reversed profile), with u' negated since t runs the other way there.
    Returns the secular determinant at each lam, or with ``count`` the
    number N(lam) of eigenvalues below lam: the zeros of u on the two walks
    plus [theta_L > theta_R], where theta = atan2(u, u') is the Pruefer
    angle at the matching breakpoint, the left one taken in (0, pi] and the
    right one in [0, pi), except that an end state sitting there keeps its
    own angle in [0, pi) on the left and (0, pi] on the right.
    """
    lam = np.asarray(lam, dtype=float)
    if not np.all(lam > 0):
        raise DomainError(f"the secular walk needs lam > 0, got {lam}")
    k = np.sqrt(lam).reshape(-1, 1)
    profile = problem.profile
    nseg = len(profile.segments)

    # matching breakpoint: interior breakpoint of largest radius, else the
    # single segment's non-tip end, where a tip's regular state is evaluated
    if nseg > 1:
        match = 1 + int(np.argmax([s.radius_at_exit() for s in profile.segments[:-1]]))
    else:
        match = 0 if profile.end_bc is BCKind.REGULAR_TIP else 1

    left, left_u = _half_walk(problem, k, match, count)
    if 0 < match < nseg:
        left = _jump(left, problem.seam_matrices()[match - 1])
    right, right_u = _half_walk(dataclasses.replace(problem, profile=profile.reversed()), k, nseg - match, count)
    right = right * [1.0, -1.0]

    if count:
        theta_l, theta_r = (np.arctan2(s[:, 0], s[:, 1]) % math.pi for s in (left, right))
        theta_l[(theta_l == 0) & (match > 0)] = math.pi
        theta_r[(theta_r == 0) & (match == nseg)] = math.pi
        out = _sign_changes(left_u) + _sign_changes(right_u) + (theta_l > theta_r)
    else:
        left, right = _normalize(left), _normalize(right)
        out = left[:, 0] * right[:, 1] - left[:, 1] * right[:, 0]
    return out[0].item() if lam.ndim == 0 else out.reshape(lam.shape)


def secular_value(problem: ChannelProblem, lam):
    """Secular determinant of a scalar problem at each lam > 0; zero exactly at eigenvalues.

    ``lam`` is a float or an array; the result has its shape.  The value is
    the determinant of the left and right states, each scaled to max-norm 1,
    so it lies in [-2, 2] and is linear in lam at a simple eigenvalue.  Each
    end state is set in the coordinate running inward from its end: an end
    that drops its dof starts from (u, u') = (0, 1) at the start and from
    (0, -1) in t at the end.  The seam jump at an interior breakpoint maps
    the limit from the left segment to the limit from the right segment.
    Orientation flips of BETA slots multiply a whole state by -1, which
    commutes with every map here, so only the t-versus-r sign of the
    derivative enters.  lam <= 0 and a coupled problem raise DomainError:
    solve a coupled problem's ``slot_problems()`` instead.
    """
    return _walk(problem, lam, count=False)


def eigen_count(problem: ChannelProblem, lam):
    """Number of eigenvalues below each lam > 0 of a scalar problem, zero modes included.

    ``lam`` is a float or an array; the result has its shape.  The count is
    read off the same walk as :func:`secular_value` and raises as it does.
    """
    return _walk(problem, lam, count=True)


def _slot_roots(slot: ChannelProblem, kmax: float) -> np.ndarray:
    """Positive eigenvalues below kmax^2 of a scalar slot, in increasing order.

    Eigenvalue j (the zero modes are 0 .. kernel dim - 1) is bracketed in k by
    bisection on the count until a bracket (lo, hi] with lo > 0 holds it
    alone, every bracket of the slot in one count per step.  Each is then
    refined on the secular determinant by regula falsi with the Illinois
    step, again all in one call per step, to REFINE_XTOL in k.
    """
    ks, ns = np.array([0.0, kmax]), np.array([first_order_kernel(slot).dim, eigen_count(slot, kmax * kmax)])
    j = np.arange(ns[0], ns[1])
    for _ in range(MAX_STEPS):
        lo = np.searchsorted(ns, j, side="right") - 1
        open_ = (ns[lo] < j) | (ns[lo + 1] > j + 1) | (ks[lo] == 0)
        if not open_.any():
            break
        mid = np.unique(0.5 * (ks[lo] + ks[lo + 1])[open_])
        ks, ns = np.concatenate([ks, mid]), np.concatenate([ns, eigen_count(slot, mid * mid)])
        order = np.argsort(ks)
        ks, ns = ks[order], ns[order]
    else:
        raise ConvergenceError(f"{slot.label}: bisection did not isolate the eigenvalues below {kmax**2}")

    a, b = ks[lo], ks[lo + 1]
    fa, fb = np.split(secular_value(slot, np.concatenate([a, b]) ** 2), 2)
    if np.any(fa * fb > 0):
        raise ConvergenceError(f"{slot.label}: no sign change of the determinant across a counted eigenvalue")
    for _ in range(MAX_STEPS):
        t = np.flatnonzero((np.abs(b - a) > REFINE_XTOL) & (fb != 0))
        if t.size == 0:
            return b * b
        c = b[t] - fb[t] * (b[t] - a[t]) / (fb[t] - fa[t])
        fc = secular_value(slot, c * c)
        same = fc * fb[t] > 0  # c replaces b on its side: halve the value kept at a
        a[t], fa[t] = np.where(same, a[t], b[t]), np.where(same, 0.5 * fa[t], fb[t])
        b[t], fb[t] = c, fc
    raise ConvergenceError(f"{slot.label}: root refinement did not reach {REFINE_XTOL} in k")


def transfer_spectrum(problem: ChannelProblem, lam_max: float) -> EigList:
    """Positive eigenvalues below lam_max of one channel problem, each certified by the count.

    A coupled problem is solved as its two scalar slot problems and the
    merged entries keep ``problem`` as their provenance.  Zero modes are
    counted analytically elsewhere and not reported here.
    """
    if lam_max <= 0:
        raise DomainError(f"lam_max must be positive, got {lam_max}")
    kmax = math.sqrt(lam_max)
    roots = np.sort(np.concatenate([_slot_roots(slot, kmax) for slot in problem.slot_problems()]))
    entries = [
        Eigenvalue(value=float(lam), problem=problem, index=i, method="secular") for i, lam in enumerate(roots)
    ]
    return EigList(entries=entries)


# perfbench/tracer.py wraps the two names below; the solver calls neither.


def locate_roots_in_window(problem: ChannelProblem, lo: float, hi: float) -> list[float]:
    """Secular roots in (lo, hi]: the :func:`transfer_spectrum` eigenvalues of the window."""
    return [float(v) for v in transfer_spectrum(problem, hi).values() if v > lo]


def confirm_even_root(problem: ChannelProblem, lo: float, hi: float) -> None:
    """Always None: every root of a scalar problem is simple, so none has even order."""
    return None

"""Secular-equation eigenvalue solver for scalar channels: analytic bases per
segment, matched at seams, with eigenvalues certified by a Sturm count.

On a segment with local cone radius r the channel equation
-u'' + gamma(gamma+1) u / r^2 = lam u has the exact solution basis
sqrt(r) J_nu(k r), sqrt(r) Y_nu(k r) with k = sqrt(lam) > 0 and
nu = |gamma+1/2|.  The state (u, u') admissible at the left end of the
profile and the one admissible at the right end are propagated to an
interior matching breakpoint, applying the derivative jump at each crossed
seam, each by one half-walk, the right one on the reversed profile.  Each
half-walk ends with a lifted Pruefer angle atan2(u, u') in its own
coordinate, continuous and increasing in lam (Pryce, *Numerical Solution of
Sturm-Liouville Problems*, 1993); their sum S(lam) is a multiple of pi
exactly where the two states are parallel.  So :func:`eigen_count`, the
number of eigenvalues below lam, is ceil(S/pi) - 1, and
:func:`transfer_spectrum` (``method="secular"``) finds eigenvalue j, zero
modes first, as the lam where S = (j+1) pi.  The lift is exact: every slot
has c = gamma(gamma+1) >= 0, so by Sturm comparison the zeros of u lie at
least pi/k apart, and u sampled at a spacing below pi/k changes sign once
per zero; seams only jump u'.  S is the walk's one reading:
``method="both"`` reads its count alone (``conesum.analysis._cross_validate``),
and :func:`secular_value` is sin S, which the solver does not call.

Only scalar problems are solved.  A coupled PLUS_HALF problem is handed to
:func:`transfer_spectrum` as its two single-slot problems
(``ChannelProblem.slot_problems``), whose merged spectrum is its positive
spectrum; :func:`secular_value` rejects it.  Every lam of a call is carried
at once, as an (m, 2) stack of states.  The basis coefficients of the entry
states come from one batched 2x2 solve and are evaluated at the sample
points, the exit last, with renormalisation between segments so that the
dynamic range of Bessel functions across small radii cannot overflow.
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

MAX_STEPS = 200  # halvings or refinement steps of one slot before ConvergenceError
ILLINOIS_STEPS = 24  # refinement steps before every other one bisects


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


def _lifted_angle(samples: list, states: np.ndarray) -> np.ndarray:
    """Lifted Pruefer angle atan2(u, u') of ``states`` at the end of a walk with u ``samples``.

    The samples, one row per lam, end at the walk's end.  Every sign change
    before that adds pi (zeros are skipped, so an exact zero between opposite
    signs counts once); the rest is atan2(s u, s u') mod 2 pi, with s the
    sign of the last nonzero earlier sample, or +1 if there is none.
    """
    s = np.sign(np.concatenate([np.zeros((len(states), 1)), *samples], axis=1)[:, :-1])
    last = np.maximum.accumulate(np.where(s != 0, np.arange(s.shape[1]), 0), axis=1)
    s = np.take_along_axis(s, last, axis=1)
    sign = np.where(s[:, -1] < 0, -1.0, 1.0)
    phase = np.arctan2(sign * states[:, 0], sign * states[:, 1]) % (2 * math.pi)
    return math.pi * np.count_nonzero(s[:, 1:] * s[:, :-1] < 0, axis=1) + phase


def _jump(states: np.ndarray, K) -> np.ndarray:
    """States past a seam crossed rightward: u' gains K u (K None: a smooth breakpoint)."""
    return states if K is None else np.column_stack([states[:, 0], states[:, 1] + K[0, 0] * states[:, 0]])


def _half_walk(problem: ChannelProblem, k: np.ndarray, stop: int):
    """Carry the states admissible at the profile's start rightward to breakpoint ``stop``.

    Returns the states (u, u') at ``stop`` as the limit from its left, no
    jump at ``stop`` applied, and the list of u walked so far, sampled at a
    spacing below pi / k.  A tip start is the tip-regular J branch across the
    whole first segment.
    """
    nu, segs = problem.nu, problem.profile.segments
    seams = [None, *problem.seam_matrices()]  # by breakpoint; the start has none
    tip = problem.profile.start_bc is BCKind.REGULAR_TIP
    kmax = k.max(initial=0.0)

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


def _walk(problem: ChannelProblem, lam):
    """The sum S(lam) of the two half-walks' lifted Pruefer angles at the matching breakpoint.

    The left states are a :func:`_half_walk` of ``problem``, jumped at the
    matching seam; the right ones a half-walk of the mirrored problem (the
    reversed profile), in its own coordinate t, which runs the other way.
    Each half's angle is :func:`_lifted_angle` in its own coordinate.
    """
    lam = np.asarray(lam, dtype=float)
    if not np.all((lam > 0) & np.isfinite(lam)):
        raise DomainError(f"the secular walk needs finite lam > 0, got {lam}")
    k = np.sqrt(lam).reshape(-1, 1)
    profile = problem.profile
    nseg = len(profile.segments)

    # matching breakpoint: interior breakpoint of largest radius, else the
    # single segment's non-tip end, where a tip's regular state is evaluated
    if nseg > 1:
        match = 1 + int(np.argmax([s.radius_at_exit() for s in profile.segments[:-1]]))
    else:
        match = 0 if profile.end_bc is BCKind.REGULAR_TIP else 1

    left, left_u = _half_walk(problem, k, match)
    if 0 < match < nseg:
        left = _jump(left, problem.seam_matrices()[match - 1])
    right, right_u = _half_walk(dataclasses.replace(problem, profile=profile.reversed()), k, nseg - match)
    out = _lifted_angle(left_u, left) + _lifted_angle(right_u, right)
    return out[0].item() if lam.ndim == 0 else out.reshape(lam.shape)


def secular_value(problem: ChannelProblem, lam):
    """sin S(lam) of a scalar problem at each lam > 0; zero exactly at eigenvalues.

    ``lam`` is a float or an array; the result has its shape.  S is the
    increasing angle sum of :func:`eigen_count`, a multiple of pi exactly at
    the eigenvalues, so the value is at most 1 in size and of opposite sign
    on either side of each eigenvalue.  lam <= 0, a non-finite lam and a
    coupled problem raise DomainError: solve a coupled problem's
    ``slot_problems()`` instead.
    """
    return np.sin(_walk(problem, lam))


def eigen_count(problem: ChannelProblem, lam):
    """Number of eigenvalues below each lam > 0 of a scalar problem, zero modes included.

    ``lam`` is a float or an array; the result has its shape.  The count is
    ceil(S/pi) - 1 of the angle sum S that :func:`_slot_roots` solves, read
    off the same walk as :func:`secular_value`, and raises as it does.
    """
    n = np.ceil(np.divide(_walk(problem, lam), math.pi)).astype(int) - 1
    return n.item() if n.ndim == 0 else n


def _slot_roots(slot: ChannelProblem, kmax: float) -> np.ndarray:
    """Positive eigenvalues below kmax^2 of a scalar slot, in increasing order.

    Eigenvalue j (the zero modes are 0 .. kernel dim - 1) is the one k where
    the angle sum S(k^2) of :func:`eigen_count` is (j+1) pi.  S is increasing,
    so every such root lies in [a, kmax], where a is halved from kmax until
    its count is the kernel dimension.  All of them are solved together by
    regula falsi with the Illinois step on S - (j+1) pi, one walk per step,
    until the bracket in k holds at most four doubles: a close pair is split
    as far as S resolves it.  Past ILLINOIS_STEPS every other step bisects:
    at a close pair S climbs 2 pi over a tiny interval, where the linear
    model gains little per step, and a bracket that halves every two steps
    gets there well within MAX_STEPS.
    """
    dim, a = first_order_kernel(slot).dim, kmax
    s_a = s_max = _walk(slot, kmax * kmax)
    for _ in range(MAX_STEPS):
        if math.ceil(s_a / math.pi) - 1 <= dim:
            break
        a *= 0.5
        s_a = _walk(slot, a * a)
    else:
        raise ConvergenceError(f"{slot.label}: no lam > 0 counts only its {dim} zero modes")
    target = math.pi * np.arange(dim + 1, math.ceil(s_max / math.pi))
    a, b, fa, fb = np.full(target.shape, a), np.full(target.shape, kmax), s_a - target, s_max - target
    for step in range(MAX_STEPS):
        t = np.flatnonzero((np.abs(b - a) > 4 * np.spacing(b)) & (fb != 0))
        if t.size == 0:
            return b * b
        c = b[t] - fb[t] * (b[t] - a[t]) / (fb[t] - fa[t])
        if step >= ILLINOIS_STEPS and step % 2 == 0:
            c = 0.5 * (a[t] + b[t])
        fc = _walk(slot, c * c) - target[t]
        same = fc * fb[t] > 0  # c replaces b on its side: halve the value kept at a
        a[t], fa[t] = np.where(same, a[t], b[t]), np.where(same, 0.5 * fa[t], fb[t])
        b[t], fb[t] = c, fc
    raise ConvergenceError(f"{slot.label}: root refinement did not converge in {MAX_STEPS} steps")


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

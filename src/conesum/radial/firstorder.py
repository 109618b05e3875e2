"""Harmonic-field matching systems: kernels of d + d* on a profile.

On every conical segment a field annihilated by the Gauss-Bonnet operator
decomposes over the eigenvectors of the active A-block as

    sigma(r) = sum_gamma  c_gamma  r^(-gamma)  w_gamma,

so kernels reduce to finite linear algebra on the per-segment coefficients:
continuity of the globally continuous variables at seams, suppression of the
singular branches (gamma > 0) next to tips, and boundary rows at exposed
ends.  An APS end is handled by continuing the profile with an exterior cone
on which only the square-integrable branches (gamma > 1/2) are admitted;
this is exactly the harmonic-prolongation description of the limit operator
and makes the reflection of boundary data at a radial-minimum junction
automatic.

The same machinery counts the zero modes of the fixed-degree Laplacian:
only coupled PLUS_HALF problems and the exceptional channels can carry
harmonic fields of pure degree, since a single slot of a MINUS_HALF block
feeds the other slot under d + d* (coefficient mu > 0) and therefore has
trivial kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cone_operator import Family
from ..geometry import BCKind, Segment
from .problems import ChannelProblem

RANK_TOL = 1e-10
NEAR_SINGULAR_FACTOR = 100.0


@dataclass(frozen=True)
class KernelResult:
    dim: int
    near_singular: bool


def _branches(problem: ChannelProblem):
    """(gamma, local block-coordinate vector) pairs spanning the segment solutions."""
    if problem.size == 2:
        return [(problem.block.gammas[i], problem.block.eigvecs[:, i]) for i in range(2)]
    gamma = problem.block.gammas[0]
    return [(gamma, np.array([1.0]))]


def first_order_kernel(problem: ChannelProblem) -> KernelResult:
    """Dimension of the harmonic fields of ``problem`` on its profile.

    The rank of the column-scaled matching system counts the singular values
    above RANK_TOL * sigma_max; ``near_singular`` flags one in
    (RANK_TOL, NEAR_SINGULAR_FACTOR * RANK_TOL] * sigma_max, where the count
    would depend on the cut.  Scalar slots of non-harmonic MINUS_HALF blocks
    are structurally trivial and report dimension 0 without assembling a
    system.
    """
    if problem.size == 1 and problem.block.family is not Family.EXCEPTIONAL:
        return KernelResult(0, False)

    profile = problem.profile
    branches = _branches(problem)
    size = problem.size

    segments: list[Segment] = list(profile.segments)
    allowed: list[list[int]] = [list(range(len(branches))) for _ in segments]
    # exterior continuation for APS ends, merged when the junction is smooth;
    # then tips suppress the branches singular at r = 0 (on one segment both
    # ends share one ``allowed`` entry, so every continuation comes first)
    ext_allowed = [i for i, (g, _) in enumerate(branches) if g > 0.5]
    ends = (("start", profile.start_bc, 0, -1), ("end", profile.end_bc, -1, +1))  # outward orientation last
    for _, bc, idx, outward in ends:
        if bc is BCKind.APS:
            seg = segments[idx]
            ext = Segment(seg.r_lo, 2.0 * max(seg.r_hi, 1.0), outward)
            if seg.orientation == outward:
                segments[idx], allowed[idx] = ext, ext_allowed
            else:
                pos = 0 if outward < 0 else len(segments)
                segments.insert(pos, ext)
                allowed.insert(pos, ext_allowed)
    for _, bc, idx, _ in ends:
        if bc is BCKind.REGULAR_TIP:
            allowed[idx] = [i for i in allowed[idx] if branches[i][0] < 0]

    offsets = np.cumsum([0] + [len(a) for a in allowed])
    n_unknowns = int(offsets[-1])
    if n_unknowns == 0:
        return KernelResult(0, False)

    def trace_columns(seg_idx: int, radius: float) -> np.ndarray:
        """Global-coordinate trace of each allowed branch at the given radius."""
        dsign = problem.orientation_signs(segments[seg_idx].orientation)
        cols = np.zeros((size, len(allowed[seg_idx])))
        for j, b in enumerate(allowed[seg_idx]):
            gamma, w = branches[b]
            cols[:, j] = dsign * w * radius ** (-gamma)
        return cols

    rows: list[np.ndarray] = []

    # seam continuity of the global variables
    for i in range(len(segments) - 1):
        r_c = segments[i].radius_at_exit()
        left = trace_columns(i, r_c)
        right = trace_columns(i + 1, r_c)
        for comp in range(size):
            full = np.zeros(n_unknowns)
            full[offsets[i] : offsets[i + 1]] = left[comp]
            full[offsets[i + 1] : offsets[i + 2]] = -right[comp]
            rows.append(full)

    # boundary rows at exposed ends, one per dropped slot (APS already handled
    # by the extension)
    for which, bc, idx, outward in ends:
        if bc in (BCKind.REGULAR_TIP, BCKind.APS):
            continue
        seg_idx = idx % len(segments)
        cols = trace_columns(seg_idx, profile.start_radius if outward < 0 else profile.end_radius)
        for comp in np.flatnonzero(problem.endpoint(which).drop):
            full = np.zeros(n_unknowns)
            full[offsets[seg_idx] : offsets[seg_idx + 1]] = cols[comp]
            rows.append(full)

    if not rows:
        return KernelResult(n_unknowns, False)

    mat = np.vstack(rows)
    norms = np.linalg.norm(mat, axis=0)
    norms[norms == 0] = 1.0
    sv = np.linalg.svd(mat / norms, compute_uv=False)
    above = sv > RANK_TOL * sv[0]
    near = above & (sv <= NEAR_SINGULAR_FACTOR * RANK_TOL * sv[0])
    return KernelResult(dim=n_unknowns - int(above.sum()), near_singular=bool(near.any()))

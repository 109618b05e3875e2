"""Per-degree radial eigenproblems on a profile.

Fixing the total form degree p decomposes the Hodge Laplacian over sphere
modes into independent radial problems indexed by the blocks of the cone
operator:

  * a MINUS_HALF block touches degrees q and q+2 through single slots, so it
    contributes a scalar problem -u'' + c u / f^2 = lam u with
    c = gamma (gamma + 1) shared by the block's gamma pair;
  * a PLUS_HALF block has both slots in degree q+1 and contributes a coupled
    2x2 system whose potential matrix is the block of A^2 + A.  FEM solves it
    as such; its positive spectrum is also the union of the spectra of the
    two MINUS_HALF single slots of the same mode (``slot_problems``), which
    is what the secular solver uses;
  * the harmonic sphere modes contribute 1x1 exceptional channels in degrees
    0, 1, n, n+1.

All problems are written in the global profile coordinate t with the
continuous variables obtained by flipping the sign of BETA slots on
orientation-reversed segments.  Seams then contribute the derivative-jump
(equivalently, corner stiffness) matrices

    K_c = sign(seam) * (2 / r_c) * diag(A restricted to the active slots),

which come from the boundary terms of the quadratic-form identity for
|(d/dr + A/r) sigma|^2 on each segment; exposed endpoints contribute the
one-sided analogue s_e * (D_o A D_o) / r_e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..cone_operator import ALPHA, BETA, ABlock, build_blocks, enumerate_blocks
from ..errors import DomainError, EnumerationError
from ..geometry import BCKind, Profile, Segment
from ..sphere_modes import CLOSED_FORM, MultiplicitySource


@dataclass(frozen=True, eq=False)
class ChannelProblem:
    """One scalar or coupled radial eigenproblem of fixed total degree."""

    profile: Profile
    n: int
    degree: int
    block: ABlock
    slot_indices: tuple[int, ...]
    multiplicity: int

    @property
    def size(self) -> int:
        return len(self.slot_indices)

    @property
    def slots(self) -> tuple[str, ...]:
        return tuple(self.block.slots[i] for i in self.slot_indices)

    @property
    def label(self) -> str:
        return f"p{self.degree}:{self.block.label}"

    @cached_property
    def a_matrix(self) -> np.ndarray:
        """A restricted to the active slots, in local (per-segment) coordinates."""
        idx = np.asarray(self.slot_indices)
        return self.block.matrix[np.ix_(idx, idx)]

    @cached_property
    def potential(self) -> np.ndarray:
        """A^2 + A restricted to the active slots (local coordinates)."""
        idx = np.asarray(self.slot_indices)
        return self.block.aa_matrix[np.ix_(idx, idx)]

    @property
    def nu(self) -> float:
        """Bessel order |gamma + 1/2| of a scalar problem, from c = gamma (gamma + 1)."""
        if self.size != 1:
            raise DomainError(f"{self.label} is coupled: solve its slot_problems() instead")
        return math.sqrt(float(self.potential[0, 0]) + 0.25)

    def slot_problems(self) -> tuple["ChannelProblem", ...]:
        """Scalar problems carrying the positive spectrum of this problem.

        A scalar problem is its own slot problem.  A coupled PLUS_HALF problem
        in degree q+1 is intertwined by d and d* with the two single slots of
        its mode's MINUS_HALF block: the coclosed alpha slot in degree q and
        the closed beta slot in degree q+2, whose spectra together make up
        its positive spectrum.  That pairing needs d and d* to preserve the
        boundary conditions, which holds at absolute ends and regular tips
        only; other ends raise DomainError.
        """
        if self.size == 1:
            return (self,)
        bcs = {self.profile.start_bc, self.profile.end_bc}
        if not bcs <= {BCKind.ABSOLUTE, BCKind.REGULAR_TIP}:
            raise DomainError(
                f"{self.label}: no scalar slot reduction with "
                f"{self.profile.start_bc.value}/{self.profile.end_bc.value} ends"
            )
        minus = build_blocks(self.block.mode)[0]
        return tuple(
            ChannelProblem(self.profile, self.n, minus.degrees[i], minus, (i,), self.multiplicity)
            for i in range(2)
        )

    def orientation_signs(self, orientation: int) -> np.ndarray:
        """Diagonal D_o mapping global continuous variables to local ones."""
        return np.array([1.0 if s == ALPHA else float(orientation) for s in self.slots])

    def potential_global(self, orientation: int) -> np.ndarray:
        d = self.orientation_signs(orientation)
        return self.potential * np.outer(d, d)

    def min_potential(self) -> float:
        return float(np.linalg.eigvalsh(self.potential).min())

    # -- seam and endpoint data ------------------------------------------------

    def seam_matrices(self) -> list:
        """Corner stiffness per interior breakpoint (None where no seam).

        Entry j belongs to the breakpoint between segments j and j+1; smooth
        (same-orientation) breakpoints carry no corner term.
        """
        out = []
        diag = np.diag(np.diag(self.a_matrix))
        segs = self.profile.segments
        for left, right in zip(segs, segs[1:]):
            if left.orientation == right.orientation:
                out.append(None)
            else:
                sign = 1.0 if left.orientation > 0 else -1.0
                out.append(sign * 2.0 / left.radius_at_exit() * diag)
        return out

    def endpoint(self, which: str) -> "EndpointData":
        if which == "start":
            seg = self.profile.segments[0]
            bc = self.profile.start_bc
            radius = seg.radius_at_entry()
            s_sign = -seg.orientation
        elif which == "end":
            seg = self.profile.segments[-1]
            bc = self.profile.end_bc
            radius = seg.radius_at_exit()
            s_sign = +seg.orientation
        else:
            raise DomainError(f"which must be 'start' or 'end', got {which!r}")
        constraints: list[np.ndarray] = []
        k_matrix = None
        if bc is BCKind.DIRICHLET_LIKE:
            constraints = [row for row in np.eye(self.size)]
        elif bc is BCKind.ABSOLUTE:
            constraints = [np.eye(self.size)[i] for i, s in enumerate(self.slots) if s == BETA]
            k_matrix = self._endpoint_k(seg, radius, s_sign)
        elif bc is BCKind.APS:
            constraints = self._aps_constraints(seg, radius, which)
            k_matrix = self._endpoint_k(seg, radius, s_sign)
        elif bc is BCKind.REGULAR_TIP:
            pass  # handled structurally by the solvers
        return EndpointData(
            bc=bc,
            segment=seg,
            radius=radius,
            s_sign=s_sign,
            constraints=constraints,
            k_matrix=k_matrix,
        )

    def _endpoint_k(self, seg: Segment, radius: float, s_sign: int) -> np.ndarray:
        d = self.orientation_signs(seg.orientation)
        return s_sign / radius * (self.a_matrix * np.outer(d, d))

    def _aps_constraints(self, seg: Segment, radius: float, which: str) -> list[np.ndarray]:
        # Boundary data is matched to the exterior cone continuing the profile
        # with radius increasing outward; if the boundary sits at the segment's
        # inner (r_lo) end this crossing reverses orientation, flipping BETA.
        at_r_lo = math.isclose(radius, seg.r_lo, rel_tol=0.0, abs_tol=1e-12)
        flip = np.array([1.0 if s == ALPHA else -1.0 for s in self.slots]) if at_r_lo else np.ones(self.size)
        dloc = self.orientation_signs(seg.orientation)
        rows = []
        for i, g in enumerate(self.block.gammas):
            if g >= 0:
                continue
            if self.size == 2:
                w = self.block.eigvecs[:, i]
                rows.append(w * flip * dloc)
            else:
                # scalar slot: its boundary vector has a component on the
                # negative eigenvector unless that overlap vanishes
                w = self.block.eigvecs[:, i]
                slot = self.slot_indices[0]
                if abs(w[slot]) > 1e-14:
                    rows.append(np.array([1.0]))
        return rows


@dataclass(frozen=True)
class EndpointData:
    bc: BCKind
    segment: Segment
    radius: float
    s_sign: int
    constraints: list
    k_matrix: np.ndarray | None


# ---------------------------------------------------------------------------
# eigenvalue bookkeeping


@dataclass(frozen=True, eq=False)
class Eigenvalue:
    """One eigenvalue with provenance and a quality indicator."""

    value: float
    problem: ChannelProblem
    index: int
    method: str
    error: float | None = None
    bracket: tuple[float, float] | None = None

    @property
    def multiplicity(self) -> int:
        return self.problem.multiplicity


def sort_eigenvalues(entries: list[Eigenvalue]) -> list[Eigenvalue]:
    return sorted(entries, key=lambda e: (e.value, e.problem.label, e.index))


@dataclass(eq=False)
class EigList:
    """Sorted eigenvalues of one problem or an assembled union of problems."""

    entries: list[Eigenvalue]
    meta: dict | None = None

    def __post_init__(self):
        self.entries = sort_eigenvalues(self.entries)

    def values(self) -> np.ndarray:
        return np.array([e.value for e in self.entries])

    def with_multiplicity(self) -> np.ndarray:
        """Values repeated by channel multiplicity."""
        out: list[float] = []
        for e in self.entries:
            out.extend([e.value] * e.multiplicity)
        return np.array(sorted(out))


# ---------------------------------------------------------------------------
# degree decomposition with a certified enumeration cutoff


def degree_problems(
    profile: Profile,
    n: int,
    p: int,
    lam_max: float,
    source: MultiplicitySource = CLOSED_FORM,
    cap_factor: float = 1.0,
) -> tuple[list[ChannelProblem], dict]:
    """All channel problems of degree p that can produce eigenvalues <= lam_max.

    A block is excludable when every eigenvalue of its potential matrix
    exceeds cap = lam_max * R_max^2 * cap_factor, because eigenvalues of a
    channel obey lam >= min gamma(gamma+1) / R_max^2.  The returned
    certificate records the cutoff; modes are enumerated up to

        mu_sq_cut = (1 + sqrt(cap + 1/4))^2

    which dominates every excluded family since min gamma(gamma+1) >=
    (s-1)^2 - 1/4 with s >= mu.
    """
    if not 0 <= p <= n + 1:
        raise DomainError(f"degree must satisfy 0 <= p <= n+1, got p={p}")
    if lam_max <= 0:
        raise DomainError(f"lam_max must be positive, got {lam_max}")
    if cap_factor < 1.0:
        raise EnumerationError(f"cap_factor below 1 voids the completeness certificate: {cap_factor}")
    r_max = profile.r_max
    cap = lam_max * r_max * r_max * cap_factor
    mu_sq_cut = (1.0 + math.sqrt(cap + 0.25)) ** 2
    problems: list[ChannelProblem] = []
    excluded: list[tuple[str, float]] = []
    for block in enumerate_blocks(n, mu_sq_cut, source):
        if p not in block.degrees:
            continue
        slots = tuple(i for i, d in enumerate(block.degrees) if d == p)
        prob = ChannelProblem(
            profile=profile,
            n=n,
            degree=p,
            block=block,
            slot_indices=slots,
            multiplicity=block.mode.multiplicity,
        )
        if prob.min_potential() <= cap:
            problems.append(prob)
        else:
            excluded.append((prob.label, prob.min_potential() / (r_max * r_max)))
    certificate = {
        "lam_max": lam_max,
        "r_max": r_max,
        "cap": cap,
        "mu_sq_cut": mu_sq_cut,
        "included": len(problems),
        "excluded_floor": min((f for _, f in excluded), default=None),
    }
    if certificate["excluded_floor"] is not None and certificate["excluded_floor"] <= lam_max:
        raise EnumerationError(
            f"completeness violated: excluded channel floor {certificate['excluded_floor']}"
            f" <= lam_max {lam_max}"
        )
    return problems, certificate

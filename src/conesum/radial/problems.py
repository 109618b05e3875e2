"""Per-degree radial eigenproblems on a profile.

Fixing the total form degree p decomposes the Hodge Laplacian over sphere
modes into independent radial problems indexed by the blocks of the cone
operator:

  * a MINUS_HALF block touches degrees q and q+2 through single slots, so it
    contributes a scalar problem -u'' + c u / f^2 = lam u with
    c = gamma (gamma + 1) shared by the block's gamma pair;
  * a PLUS_HALF block has both slots in degree q+1 and contributes a coupled
    2x2 system whose potential matrix is the block of A^2 + A.  Its positive
    spectrum is the union of the spectra of the two MINUS_HALF single slots
    of the same mode (``slot_problems``), which is what both solvers use for
    eigenvalues; FEM solves the coupled system as such only for its
    eigenfields;
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

from ..cone_operator import ALPHA, BETA, ABlock, Family, build_blocks, enumerate_blocks
from ..errors import DomainError, EnumerationError
from ..geometry import BCKind, Profile


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
        """End condition at the profile's "start" or "end"; solvers read it only here.

        ``drop`` marks the slots whose end dofs vanish: every slot at a tip
        or a Dirichlet-like end, the BETA slot at an absolute end, and at an
        APS end a scalar slot overlapping a negative eigenvector of its block.
        ``k_matrix`` is the natural end term s_e (D_o A D_o) / r_e of an
        absolute or APS end, else None.  A coupled problem at an APS end
        raises DomainError: its condition mixes the slots, and no solver
        meets it (the kernel count continues the profile instead).
        """
        if which not in ("start", "end"):
            raise DomainError(f"which must be 'start' or 'end', got {which!r}")
        start = which == "start"
        seg = self.profile.segments[0 if start else -1]
        bc = self.profile.start_bc if start else self.profile.end_bc
        if bc in (BCKind.REGULAR_TIP, BCKind.DIRICHLET_LIKE):
            return EndpointData(np.ones(self.size, dtype=bool), None)
        if bc is BCKind.ABSOLUTE:
            drop = np.array([s == BETA for s in self.slots])
        elif self.size == 1:
            w = self.block.eigvecs[self.slot_indices[0]]
            drop = np.array([any(g < 0 and abs(w[i]) > 1e-14 for i, g in enumerate(self.block.gammas))])
        else:
            raise DomainError(f"{self.label}: coupled problem at an APS end")
        radius = seg.radius_at_entry() if start else seg.radius_at_exit()
        d = self.orientation_signs(seg.orientation)
        s_sign = -seg.orientation if start else seg.orientation
        return EndpointData(drop, s_sign / radius * (self.a_matrix * np.outer(d, d)))


@dataclass(frozen=True)
class EndpointData:
    drop: np.ndarray  # (size,) bool: slots whose end dofs vanish
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


# ---------------------------------------------------------------------------
# degree decomposition with a certified enumeration cutoff


def degree_problems(
    profile: Profile,
    n: int,
    p: int,
    lam_max: float,
    cap_factor: float = 1.0,
) -> tuple[list[ChannelProblem], dict]:
    """All channel problems of degree p that can produce eigenvalues <= lam_max.

    A block is excludable when every eigenvalue of its potential matrix
    exceeds cap = lam_max * R_max^2 * cap_factor, because eigenvalues of a
    channel obey lam >= min gamma(gamma+1) / R_max^2.  Exceptional blocks
    (mu^2 = 0) are never excluded: the degree-n one carries the zero mode
    of [a, b] x S^n with absolute ends at any R_max.  The returned
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
    for block in enumerate_blocks(n, mu_sq_cut):
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
        if prob.min_potential() <= cap or block.family is Family.EXCEPTIONAL:
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

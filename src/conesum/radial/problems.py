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
from typing import TYPE_CHECKING

import numpy as np

from ..cone_operator import ALPHA, BETA, ABlock, build_blocks, enumerate_blocks
from ..errors import DomainError
from ..geometry import BCKind, Profile

if TYPE_CHECKING:
    from .fem import FemField


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

    @cached_property
    def ode_key(self) -> tuple:
        """Everything the solvers read from a scalar problem: its profile,
        c = gamma (gamma + 1), its entry of A (which sets the seam terms and
        the natural end term) and whether each end drops its dof.  Slots with
        equal keys are one radial ODE, as are the Hodge-dual slots of a
        closed profile.  A coupled problem raises DomainError.
        """
        if self.size != 1:
            raise DomainError(f"{self.label} is coupled: it has no scalar ODE")
        drops = (bool(self.endpoint(which).drop[0]) for which in ("start", "end"))
        return (self.profile, float(self.potential[0, 0]), float(self.a_matrix[0, 0]), *drops)

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

    def lower_bound(self) -> float:
        """mu^2 / R_max^2: below it the problem has no eigenvalue but its zero modes.

        Proof.  In the block coordinates sigma = (alpha, beta) the quadratic
        form is Q(sigma) = sum over segments of int |(d/dr + A/r) sigma|^2 dr,
        which is |(d + d*) sigma|^2; the seam and natural end terms are its
        boundary terms.  The off-diagonal entry of a two-slot block's A is
        -mu.  An alpha slot sigma = (u, 0) is coclosed, and the other
        component of (d/dr + A/r) sigma, its tangential d, is -mu u / r; so
        Q(sigma) = |d sigma|^2 >= int mu^2 u^2 / r^2 dr >= mu^2 / R_max^2
        |sigma|^2 for every sigma in the form domain, and min-max gives the
        bound.  A beta slot (0, u) is closed, and the same argument runs
        with d*.  A positive eigenform w of a coupled channel gives d* w and
        d w, eigenforms of its two slots for the same lam
        (``slot_problems``), not both zero, so lam obeys their bound.
        Dirichlet-like and APS ends only shrink the form domain: a slot's
        bound holds for every u, and a coupled channel's count below it is
        at most its count with absolute ends.  Exceptional channels have
        mu = 0.
        """
        return self.block.mode.mu_sq / self.profile.r_max**2

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
    """One eigenvalue with provenance, a quality indicator and, from
    ``fem_spectrum(..., want_vectors=True)``, its eigenform."""

    value: float
    problem: ChannelProblem
    index: int
    method: str
    error: float | None = None
    field: FemField | None = None

    @property
    def multiplicity(self) -> int:
        return self.problem.multiplicity


def sort_eigenvalues(entries: list[Eigenvalue]) -> list[Eigenvalue]:
    return sorted(entries, key=lambda e: (e.value, e.problem.label, e.index))


@dataclass(eq=False)
class EigList:
    """Sorted eigenvalues of one problem or an assembled union of problems."""

    entries: list[Eigenvalue]

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
) -> tuple[list[ChannelProblem], dict]:
    """All channel problems of degree p that can produce eigenvalues <= lam_max.

    These are the channels of every degree-p block whose sphere mode has
    mu^2 <= mu_sq_cut = lam_max * R_max^2, the exceptional ones (mu^2 = 0)
    included.  Any other channel has ``lower_bound()`` above lam_max, so
    no positive eigenvalue up to lam_max, and no zero mode either: a
    harmonic field of a coupled channel is d of a form in its alpha slot,
    hence orthogonal to itself.  mu^2 grows with the level k, so the
    enumeration is complete.  The certificate records the cut.
    """
    if not 0 <= p <= n + 1:
        raise DomainError(f"degree must satisfy 0 <= p <= n+1, got p={p}")
    if not 0 < lam_max < math.inf:
        raise DomainError(f"lam_max must be positive and finite, got {lam_max}")
    r_max = profile.r_max
    mu_sq_cut = lam_max * r_max * r_max
    problems = [
        ChannelProblem(
            profile=profile,
            n=n,
            degree=p,
            block=block,
            slot_indices=tuple(i for i, d in enumerate(block.degrees) if d == p),
            multiplicity=block.mode.multiplicity,
        )
        for block in enumerate_blocks(n, mu_sq_cut)
        if p in block.degrees
    ]
    certificate = {"lam_max": lam_max, "r_max": r_max, "mu_sq_cut": mu_sq_cut, "included": len(problems)}
    return problems, certificate

"""The limit operator on the blown-up summand with spectral boundary condition.

As the small summand collapses, eigenform restrictions converge to harmonic
fields of the Gauss-Bonnet operator on the unit-scale piece M2(1) whose
boundary data is annihilated by the spectral projector on the negative part
of the cone operator A.  Equivalently, these are the square-integrable
harmonic fields of the complete manifold obtained by attaching the exterior
cone [1, inf) x S^n to the boundary: per channel the field r^(-gamma) sigma
extends in L2 exactly when gamma > 1/2.

This module computes that kernel blockwise by exact matching of the
r^(-gamma) branches (see radial.firstorder), the per-channel parametrix
right-inverse of d/dr + gamma/r, and the harmonic prolongation operator that
transports boundary data back over the shrinking cone with uniformly bounded
L2 norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .cone_operator import enumerate_blocks
from .errors import DomainError
from .geometry import BCKind, Profile
from .radial.firstorder import RANK_TOL, first_order_kernel
from .radial.problems import ChannelProblem


def l2_extension_rule(gamma: float) -> bool:
    """Whether r^(-gamma) extends square-integrably over the infinite cone r >= 1.

    The boundary case gamma = 1/2 is excluded; it is unreachable anyway since
    |gamma| >= n/2 >= 1 on every enumerated channel.
    """
    return gamma > 0.5


@dataclass(frozen=True)
class ApsProblem:
    """Kernel problem for the Gauss-Bonnet operator on a profile with one
    exposed boundary carrying the spectral boundary condition."""

    profile: Profile
    n: int
    mu_sq_max: float = 60.0

    def __post_init__(self):
        bcs = (self.profile.start_bc, self.profile.end_bc)
        if BCKind.APS not in bcs:
            raise DomainError("profile must expose an APS boundary")


@dataclass
class KernelContribution:
    label: str
    degrees: tuple[int, ...]
    dim: int
    multiplicity: int
    near_singular: bool


@dataclass
class KernelReport:
    """Kernel dimensions of the limit operator, by total form degree.

    Blocks whose slots straddle two degrees (the MINUS_HALF families) cannot
    carry degree-pure kernel elements; if one ever reports a nonzero
    dimension it is listed under ``mixed`` instead of a degree.
    """

    dims: dict[int, int]
    contributions: list[KernelContribution] = field(default_factory=list)
    mixed: list[KernelContribution] = field(default_factory=list)
    rank_tol: float = RANK_TOL

    @property
    def total(self) -> int:
        return sum(self.dims.values()) + sum(c.dim * c.multiplicity for c in self.mixed)


def aps_kernel(problem: ApsProblem) -> KernelReport:
    """Blockwise kernel of the limit operator with the spectral boundary condition.

    Ranks of the matching systems are read at ``radial.firstorder.RANK_TOL``,
    which the report carries as ``rank_tol``.
    """
    n = problem.n
    dims = {p: 0 for p in range(n + 2)}
    report = KernelReport(dims=dims)
    for block in enumerate_blocks(n, problem.mu_sq_max):
        prob = ChannelProblem(
            profile=problem.profile,
            n=n,
            degree=block.degrees[0],
            block=block,
            slot_indices=tuple(range(block.size)),
            multiplicity=block.mode.multiplicity,
        )
        res = first_order_kernel(prob)
        if res.dim == 0 and not res.near_singular:
            continue
        contrib = KernelContribution(
            label=prob.label,
            degrees=block.degrees,
            dim=res.dim,
            multiplicity=block.mode.multiplicity,
            near_singular=res.near_singular,
        )
        report.contributions.append(contrib)
        if res.dim == 0:
            continue
        if len(set(block.degrees)) == 1:
            dims[block.degrees[0]] += res.dim * block.mode.multiplicity
        else:
            report.mixed.append(contrib)
    return report


def parametrix_apply(
    gamma: float,
    psi: Callable[[np.ndarray], np.ndarray],
    rs: np.ndarray,
) -> np.ndarray:
    """Right inverse of d/dr + gamma/r on (0, 1]:

        phi(r) = r^(-gamma) * integral of rho^gamma psi(rho) d rho,

    taken from 1 for gamma < 0 (so phi(1) = 0) and from 0 for gamma > 0.
    ``rs`` must be increasing points in (0, 1]; the integral is accumulated
    with composite 12-point Gauss-Legendre panels between consecutive abscissae.
    """
    if gamma == 0.0:
        raise DomainError("gamma = 0 is not in the spectrum of A")
    rs = np.asarray(rs, dtype=float)
    if rs.ndim != 1 or len(rs) == 0 or np.any(np.diff(rs) <= 0):
        raise DomainError("rs must be strictly increasing")
    if rs[0] <= 0 or rs[-1] > 1.0 + 1e-12:
        raise DomainError("rs must lie in (0, 1]")
    gx, gw = np.polynomial.legendre.leggauss(12)

    def panel(a: float, b: float) -> float:
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        x = mid + half * gx
        return float(half * np.sum(gw * x**gamma * psi(x)))

    anchors = np.concatenate([[1.0], rs[::-1]]) if gamma < 0 else np.concatenate([[0.0], rs])
    acc = 0.0
    integrals = []
    for a, b in zip(anchors[:-1], anchors[1:]):
        if gamma > 0 and a == 0.0:
            # graded panels toward 0 for the fractional-power weight
            sub = np.concatenate([[0.0], b * 0.5 ** np.arange(40, -1.0, -1)])
            acc += sum(panel(x, y) for x, y in zip(sub[:-1], sub[1:]))
        else:
            acc += panel(a, b)
        integrals.append(acc)
    integrals = np.array(integrals)
    if gamma < 0:
        integrals = integrals[::-1]  # accumulated from 1 downward; reorder to ascending rs
    return rs ** (-gamma) * integrals


@dataclass(frozen=True)
class Prolongation:
    """Harmonic prolongation of positive-channel boundary data over [eps, 1]."""

    eps: float
    gammas: tuple[float, ...]
    amplitudes: tuple[float, ...]
    norm_sq_per_channel: tuple[float, ...]

    @property
    def norm_sq(self) -> float:
        return float(sum(self.norm_sq_per_channel))

    def field(self, rs: np.ndarray) -> np.ndarray:
        """(len(rs), channels) samples of eps^(gamma - 1/2) r^(-gamma) sigma_gamma."""
        rs = np.asarray(rs, dtype=float)
        cols = [
            self.eps ** (g - 0.5) * rs ** (-g) * a
            for g, a in zip(self.gammas, self.amplitudes)
        ]
        return np.stack(cols, axis=1)


def prolongation_norm_sq(gamma: float, eps: float) -> float:
    """Exact L2([eps, 1]) norm of eps^(gamma - 1/2) r^(-gamma): the closed form
    (1 - eps^(2 gamma - 1)) / (2 gamma - 1)."""
    return (1.0 - eps ** (2.0 * gamma - 1.0)) / (2.0 * gamma - 1.0)


def prolong_P_eps(data: Iterable[tuple[float, float]], eps: float) -> Prolongation:
    """Prolong boundary amplitudes on positive channels; rejects gamma <= 1/2.

    The per-channel norm is exact; the total obeys
    norm_sq <= sum |sigma_gamma|^2 / (2 gamma_min - 1), which for the cone
    over S^n (gamma_min = n/2) is the uniform constant 1 / (n - 1).
    """
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must lie in (0, 1), got {eps}")
    pairs = [(float(g), float(a)) for g, a in data]
    if not pairs:
        raise DomainError("no channel data supplied")
    for g, _ in pairs:
        if not l2_extension_rule(g):
            raise DomainError(f"gamma = {g} <= 1/2 cannot be prolonged in L2")
    norms = tuple(prolongation_norm_sq(g, eps) * a * a for g, a in pairs)
    return Prolongation(
        eps=eps,
        gammas=tuple(g for g, _ in pairs),
        amplitudes=tuple(a for _, a in pairs),
        norm_sq_per_channel=norms,
    )


def prolongation_bound_constant(n: int) -> float:
    """Uniform bound constant for the prolongation over the cone on S^n."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    return 1.0 / (n - 1.0)

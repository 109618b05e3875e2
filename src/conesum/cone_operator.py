"""Tangential operator of the cone over S^n and its radial channels.

On a cone dr^2 + r^2 h the Gauss-Bonnet operator d + d* becomes, after the
unitary change of variables that maps a form to the weighted pair
sigma = (beta, alpha) of its dr-component and tangential component,

    U (d + d*) U* = G (d/dr + A / r),      G = [[0, 1], [-1, 0]],

with A built from the sphere's own Gauss-Bonnet operator and the degree
operator.  Over one coexact q-eigenform eta (eigenvalue mu^2, d eta
normalised by 1/mu) the operator A has two invariant 2x2 blocks:

  family        basis (slot type, total degree)         matrix
  MINUS_HALF    v1 = (0, eta)        alpha, q           [[q - n/2,   -mu      ],
                v4 = (d eta / mu, 0) beta,  q + 2        [-mu,        n/2 - q - 1]]
  PLUS_HALF     v2 = (0, d eta / mu) alpha, q + 1       [[q + 1 - n/2, -mu    ],
                v3 = (eta, 0)        beta,  q + 1        [-mu,        n/2 - q ]]

with eigenvalues -1/2 +/- s and +1/2 +/- s respectively, where
s = sqrt(mu^2 + ((n-1)/2 - q)^2).  The two harmonic sphere modes give 1x1
blocks with eigenvalue q - n/2 (alpha slot, degree q) and n/2 - q (beta
slot, degree q + 1); for constants and the volume form these are -n/2 and
+n/2 in the appropriate degrees.

Every eigenvalue gamma of A obeys |gamma| >= n/2, so 0 is never in the
spectrum and A(A+1) is nonnegative.  The Atiyah-Patodi-Singer style
boundary condition of the limit problem keeps the negative part of A (one
eigenvector per 2x2 block); the solvers read that sign rule straight from a
block's ``gammas`` and ``eigvecs`` (``ChannelProblem.endpoint``,
``first_order_kernel`` and ``boundary_diagnostics``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .sphere_modes import SphereMode, enumerate_sphere_modes

ALPHA = "alpha"  # tangential component; continuous across reflection seams
BETA = "beta"  # dr-component; flips sign across reflection seams


class Family(enum.Enum):
    MINUS_HALF = "minus_half"
    PLUS_HALF = "plus_half"
    EXCEPTIONAL = "exceptional"


@dataclass(frozen=True, eq=False)
class ABlock:
    """One invariant block of A over a sphere mode.

    ``degrees[i]`` and ``slots[i]`` describe the total form degree and the
    component type (ALPHA/BETA) of basis slot i; ``gammas`` lists the
    eigenvalues in descending order with ``eigvecs[:, i]`` the orthonormal
    eigenvector for ``gammas[i]``.
    """

    mode: SphereMode
    family: Family
    degrees: tuple[int, ...]
    slots: tuple[str, ...]
    matrix: np.ndarray
    gammas: tuple[float, ...]
    eigvecs: np.ndarray

    @property
    def size(self) -> int:
        return len(self.degrees)

    @property
    def n(self) -> int:
        return self.mode.n

    @property
    def aa_matrix(self) -> np.ndarray:
        """The block of A^2 + A, whose eigenvalues are gamma (gamma + 1)."""
        return self.matrix @ self.matrix + self.matrix

    @property
    def label(self) -> str:
        k = self.mode.k if not self.mode.harmonic else "H"
        return f"n{self.n}:q{self.mode.q}:k{k}:{self.family.value}"


@dataclass(frozen=True, eq=False)
class GammaChannel:
    """One scalar radial channel: an eigenvector of A seen from degree p."""

    gamma: float
    multiplicity: int
    block: ABlock


def _symmetric_block(mode: SphereMode, family: Family) -> ABlock:
    n, q = mode.n, mode.q
    mu = math.sqrt(mode.mu_sq)
    s = math.hypot(mu, (n - 1) / 2.0 - q)
    if family is Family.MINUS_HALF:
        a, b = q - n / 2.0, n / 2.0 - q - 1.0
        degrees, mean = (q, q + 2), -0.5
    else:
        a, b = q + 1 - n / 2.0, n / 2.0 - q
        degrees, mean = (q + 1, q + 1), +0.5
    matrix = np.array([[a, -mu], [-mu, b]])
    g_plus, g_minus = mean + s, mean - s
    # eigenvector of [[a,-mu],[-mu,b]] for eigenvalue g is (mu, a - g)
    vecs = np.empty((2, 2))
    for i, g in enumerate((g_plus, g_minus)):
        v = np.array([mu, a - g])
        vecs[:, i] = v / np.linalg.norm(v)
    return ABlock(
        mode=mode,
        family=family,
        degrees=degrees,
        slots=(ALPHA, BETA),
        matrix=matrix,
        gammas=(g_plus, g_minus),
        eigvecs=vecs,
    )


def build_blocks(mode: SphereMode) -> list[ABlock]:
    """The invariant blocks of A generated by one sphere mode."""
    n, q = mode.n, mode.q
    if mode.harmonic:
        return [
            ABlock(
                mode=mode,
                family=Family.EXCEPTIONAL,
                degrees=(q,),
                slots=(ALPHA,),
                matrix=np.array([[q - n / 2.0]]),
                gammas=(q - n / 2.0,),
                eigvecs=np.array([[1.0]]),
            ),
            ABlock(
                mode=mode,
                family=Family.EXCEPTIONAL,
                degrees=(q + 1,),
                slots=(BETA,),
                matrix=np.array([[n / 2.0 - q]]),
                gammas=(n / 2.0 - q,),
                eigvecs=np.array([[1.0]]),
            ),
        ]
    return [
        _symmetric_block(mode, Family.MINUS_HALF),
        _symmetric_block(mode, Family.PLUS_HALF),
    ]


def enumerate_blocks(n: int, mu_sq_max: float) -> list[ABlock]:
    """All blocks generated by sphere modes with mu^2 <= mu_sq_max."""
    blocks: list[ABlock] = []
    for mode in enumerate_sphere_modes(n, mu_sq_max):
        blocks.extend(build_blocks(mode))
    return blocks


def gamma_channels(n: int, p: int, mu_sq_max: float) -> list[GammaChannel]:
    """All channels of total degree p from modes with mu^2 <= mu_sq_max.

    A block contributes its full gamma pair whenever one of its basis slots
    carries degree p.  Channels are sorted by (q, level, family, -gamma).
    """
    if not 0 <= p <= n + 1:
        raise DomainError(f"total degree must satisfy 0 <= p <= n+1, got p={p}")
    channels = []
    for block in enumerate_blocks(n, mu_sq_max):
        if p not in block.degrees:
            continue
        for g in block.gammas:
            channels.append(GammaChannel(gamma=g, multiplicity=block.mode.multiplicity, block=block))
    level = lambda m: -1 if m.harmonic else m.k
    channels.sort(key=lambda c: (c.block.mode.q, level(c.block.mode), c.block.family.value, -c.gamma))
    return channels

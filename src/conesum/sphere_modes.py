"""Spectrum of the Hodge Laplacian on coclosed forms of the round sphere S^n.

For the unit round metric the coexact q-eigenforms come in levels k >= 1 with

    mu^2(n, q, k) = (k + q) (k + n - q - 1)

and multiplicity

    mult(n, q, k) = (2k + n - 1) (k + n - 1)!
                    / [ (k - 1)! q! (n - q - 1)! (k + q) (k + n - q - 1) ].

Both closed forms are classical (Gallot-Meyer; Ikeda-Taniguchi, Osaka J.
Math. 15, 1978).  They are gated here by three independent anchors, enforced
in the test suite:

  * k = 1 saturates the lower bound mu^2 >= (n - q)(q + 1);
  * q = 0 reduces to the spherical-harmonic values k (k + n - 1) with
    the classical counts (2k+1 on S^2, (k+1)^2 on S^3, ...);
  * both formulas are symmetric under q <-> n - 1 - q (Hodge duality).

coexact_multiplicity also checks on every call that the quotient is an
exact integer.

The two harmonic exceptions (constants at q = 0, the volume form at q = n)
are carried with the marker HARMONIC instead of a level k, so the k-indexing
of the coexact families stays intact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import DomainError, UnsupportedMultiplicityError

#: Level marker for the two harmonic modes (constants, volume form).
HARMONIC = "harmonic"

Level = Union[int, str]


@dataclass(frozen=True)
class SphereMode:
    """One coclosed eigenform family on S^n.

    ``k`` is a positive level for coexact families and HARMONIC for the two
    exceptional modes, which are the only ones with ``mu_sq == 0``.
    """

    n: int
    q: int
    k: Level
    mu_sq: float
    multiplicity: int

    @property
    def harmonic(self) -> bool:
        return self.k == HARMONIC

    def __post_init__(self):
        if self.harmonic and self.q not in (0, self.n):
            raise DomainError(f"harmonic modes exist only at q=0 and q=n, got q={self.q}")
        if (self.mu_sq == 0) != self.harmonic:
            raise DomainError("mu_sq must vanish exactly for harmonic modes")


def _check_nq(n: int, q: int) -> None:
    if n < 2:
        raise DomainError(f"sphere dimension must be >= 2, got n={n}")
    if not 0 <= q <= n - 1:
        raise DomainError(f"coexact degree must satisfy 0 <= q <= n-1, got q={q} (n={n})")


def coexact_eigenvalue(n: int, q: int, k: int) -> float:
    """Eigenvalue mu^2 of the Laplacian on coexact q-forms of S^n at level k."""
    _check_nq(n, q)
    if not (isinstance(k, int) and k >= 1):
        raise DomainError(f"level must be an integer >= 1, got k={k!r}")
    return float((k + q) * (k + n - q - 1))


def coexact_multiplicity(n: int, q: int, k: int) -> int:
    """Dimension of the coexact q-eigenspace of S^n at level k, by the closed
    form.  The quotient is an exact integer; a remainder would be a bug and
    raises UnsupportedMultiplicityError rather than being rounded away.
    """
    _check_nq(n, q)
    if not (isinstance(k, int) and k >= 1):
        raise DomainError(f"level must be an integer >= 1, got k={k!r}")
    num = (2 * k + n - 1) * math.factorial(k + n - 1)
    den = (
        math.factorial(k - 1)
        * math.factorial(q)
        * math.factorial(n - q - 1)
        * (k + q)
        * (k + n - q - 1)
    )
    mult, rem = divmod(num, den)
    if rem:
        raise UnsupportedMultiplicityError(f"closed form not integral at (n,q,k)=({n},{q},{k})")
    return mult


def harmonic_modes(n: int) -> list[SphereMode]:
    """The two exceptional modes: constants (q=0) and the volume form (q=n)."""
    if n < 2:
        raise DomainError(f"sphere dimension must be >= 2, got n={n}")
    return [
        SphereMode(n=n, q=0, k=HARMONIC, mu_sq=0.0, multiplicity=1),
        SphereMode(n=n, q=n, k=HARMONIC, mu_sq=0.0, multiplicity=1),
    ]


def enumerate_sphere_modes(n: int, mu_sq_max: float) -> list[SphereMode]:
    """All modes of S^n with mu^2 <= mu_sq_max, sorted by (q, mu^2).

    The harmonic exceptions are always included.  Completeness holds because
    mu^2 is strictly increasing in k at fixed (n, q).
    """
    if n < 2:
        raise DomainError(f"sphere dimension must be >= 2, got n={n}")
    if not 0 < mu_sq_max < math.inf:
        raise DomainError(f"mu_sq_max must be positive and finite, got {mu_sq_max}")
    modes = list(harmonic_modes(n))
    for q in range(n):
        k = 1
        while True:
            mu_sq = coexact_eigenvalue(n, q, k)
            if mu_sq > mu_sq_max:
                break
            modes.append(SphereMode(n=n, q=q, k=k, mu_sq=mu_sq, multiplicity=coexact_multiplicity(n, q, k)))
            k += 1
    modes.sort(key=lambda m: (m.q, m.mu_sq, 0 if m.harmonic else m.k))
    return modes

"""Piecewise-conical radial profiles and the collapsing connected-sum models.

A model manifold here is a warped product over S^n whose radius function f
is piecewise linear with |f'| = 1, described segment by segment in a global
arclength coordinate t.  Each segment carries its own cone coordinate
r = f(t); the metric on the segment is exactly dr^2 + r^2 h.  Adjacent
segments meet at equal radius; where the orientation flips the profile has
a seam (a radial maximum or minimum), and endpoints are either tips (r -> 0,
smooth points for the round unit link) or exposed boundaries carrying a
boundary condition.

The collapsing family is

    M_eps = (M1 minus the eps-ball at the gluing tip)  glued to  eps . M2(1)

where M2(1) has a boundary sphere of radius 1.  The default desk-scale
models are the spindle (double cone) for M1 and a truncated spindle for M2.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import cached_property

from .errors import DomainError

_TOL = 1e-12


class BCKind(enum.Enum):
    REGULAR_TIP = "regular_tip"
    ABSOLUTE = "absolute"
    APS = "aps"
    DIRICHLET_LIKE = "dirichlet_like"


class SeamKind(enum.Enum):
    RADIAL_MAX = "radial_max"
    RADIAL_MIN = "radial_min"


@dataclass(frozen=True)
class Segment:
    """One conical piece; orientation +1 means the radius grows with t."""

    r_lo: float
    r_hi: float
    orientation: int

    def __post_init__(self):
        if not (0.0 <= self.r_lo < self.r_hi):
            raise DomainError(f"need 0 <= r_lo < r_hi, got [{self.r_lo}, {self.r_hi}]")
        if self.orientation not in (+1, -1):
            raise DomainError(f"orientation must be +1 or -1, got {self.orientation}")

    @property
    def length(self) -> float:
        return self.r_hi - self.r_lo

    def radius_at_entry(self) -> float:
        return self.r_lo if self.orientation > 0 else self.r_hi

    def radius_at_exit(self) -> float:
        return self.r_hi if self.orientation > 0 else self.r_lo


@dataclass(frozen=True)
class Seam:
    position: float  # global t
    radius: float
    kind: SeamKind


@dataclass(frozen=True)
class Profile:
    """A chain of conical segments with endpoint conditions.

    ``glue_radius`` marks the connected-sum seam when the profile was built
    by :func:`connected_sum_profile`.
    """

    segments: tuple[Segment, ...]
    start_bc: BCKind
    end_bc: BCKind
    glue_radius: float | None = None

    def __post_init__(self):
        if not self.segments:
            raise DomainError("profile needs at least one segment")
        for prev, cur in zip(self.segments, self.segments[1:]):
            if abs(prev.radius_at_exit() - cur.radius_at_entry()) > _TOL * max(1.0, prev.r_hi):
                raise DomainError("adjacent segments must meet at equal radius")
        for bc, radius in ((self.start_bc, self.start_radius), (self.end_bc, self.end_radius)):
            if (bc is BCKind.REGULAR_TIP) != (radius == 0.0):
                raise DomainError("REGULAR_TIP exactly at radius-0 endpoints")

    @property
    def start_radius(self) -> float:
        return self.segments[0].radius_at_entry()

    @property
    def end_radius(self) -> float:
        return self.segments[-1].radius_at_exit()

    @cached_property
    def breakpoints(self) -> tuple[float, ...]:
        ts = [0.0]
        for seg in self.segments:
            ts.append(ts[-1] + seg.length)
        return tuple(ts)

    @property
    def length(self) -> float:
        return self.breakpoints[-1]

    @cached_property
    def seams(self) -> tuple[Seam, ...]:
        """Orientation-flip seams only; same-orientation breakpoints are smooth."""
        out = []
        for i in range(len(self.segments) - 1):
            left, right = self.segments[i], self.segments[i + 1]
            if left.orientation == right.orientation:
                continue
            kind = SeamKind.RADIAL_MAX if left.orientation > 0 else SeamKind.RADIAL_MIN
            out.append(Seam(position=self.breakpoints[i + 1], radius=left.radius_at_exit(), kind=kind))
        return tuple(out)

    @property
    def r_max(self) -> float:
        return max(seg.r_hi for seg in self.segments)

    def radius(self, t: float) -> float:
        ts = self.breakpoints
        if not -_TOL <= t <= ts[-1] + _TOL:
            raise DomainError(f"t={t} outside profile [0, {ts[-1]}]")
        t = min(max(t, 0.0), ts[-1])
        for i, seg in enumerate(self.segments):
            if t <= ts[i + 1] + _TOL:
                local = t - ts[i]
                return seg.r_lo + local if seg.orientation > 0 else seg.r_hi - local
        return self.end_radius

    def volume(self, n: int) -> float:
        """Riemannian volume for link S^n: vol(S^n) * integral of f^n dt."""
        shell = sum((s.r_hi ** (n + 1) - s.r_lo ** (n + 1)) / (n + 1) for s in self.segments)
        return sphere_volume(n) * shell

    def scaled(self, c: float) -> "Profile":
        if c <= 0:
            raise DomainError(f"scale factor must be positive, got {c}")
        return Profile(
            segments=tuple(replace(s, r_lo=c * s.r_lo, r_hi=c * s.r_hi) for s in self.segments),
            start_bc=self.start_bc,
            end_bc=self.end_bc,
            glue_radius=None if self.glue_radius is None else c * self.glue_radius,
        )

    def reversed(self) -> "Profile":
        return Profile(
            segments=tuple(
                replace(s, orientation=-s.orientation) for s in reversed(self.segments)
            ),
            start_bc=self.end_bc,
            end_bc=self.start_bc,
            glue_radius=self.glue_radius,
        )

    @property
    def closed(self) -> bool:
        return self.start_bc is BCKind.REGULAR_TIP and self.end_bc is BCKind.REGULAR_TIP


def sphere_volume(n: int) -> float:
    """Volume of the unit round S^n."""
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


# ---------------------------------------------------------------------------
# model constructors


def spindle(radius: float) -> Profile:
    """Double cone over S^n with equator radius R: the simplest closed model."""
    if radius <= 0:
        raise DomainError(f"spindle radius must be positive, got {radius}")
    return Profile(
        segments=(Segment(0.0, radius, +1), Segment(0.0, radius, -1)),
        start_bc=BCKind.REGULAR_TIP,
        end_bc=BCKind.REGULAR_TIP,
    )


def truncated_spindle(radius: float, cut: float = 1.0, bc: BCKind = BCKind.ABSOLUTE) -> Profile:
    """Spindle with the ball of radius ``cut`` removed around one tip.

    The boundary sphere has radius ``cut`` and the collar next to it is an
    exact cone that grows away from it, so after scaling by eps it glues
    isometrically onto the eps-sphere of a conical tip, with the gluing
    sphere a radial minimum (the growing-collar rule of
    :func:`connected_sum_profile`).
    """
    if not 0 < cut < radius:
        raise DomainError(f"need 0 < cut < radius, got cut={cut}, radius={radius}")
    return Profile(
        segments=(Segment(cut, radius, +1), Segment(0.0, radius, -1)),
        start_bc=bc,
        end_bc=BCKind.REGULAR_TIP,
    )


def cone(radius: float, bc: BCKind = BCKind.ABSOLUTE) -> Profile:
    """Single cone over S^n (a flat ball for the round unit link)."""
    if radius <= 0:
        raise DomainError(f"cone radius must be positive, got {radius}")
    return Profile(segments=(Segment(0.0, radius, +1),), start_bc=BCKind.REGULAR_TIP, end_bc=bc)


def annulus(r_lo: float, r_hi: float, bc: BCKind = BCKind.ABSOLUTE) -> Profile:
    """Conical annulus with the same boundary condition at both ends."""
    if not 0 < r_lo < r_hi:
        raise DomainError(f"need 0 < r_lo < r_hi, got [{r_lo}, {r_hi}]")
    return Profile(segments=(Segment(r_lo, r_hi, +1),), start_bc=bc, end_bc=bc)


def build_profile(spec: dict) -> Profile:
    """Profile from a model description as used in run configurations; an unknown
    type, or a parameter that its type does not take, raises DomainError."""
    kind = spec.get("type")
    takes = {"spindle": "radius", "truncated_spindle": "radius cut", "cone": "radius", "annulus": "r_lo r_hi"}
    if not isinstance(kind, str) or kind not in takes:
        raise DomainError(f"unknown model type {kind!r}")
    extra = sorted(set(spec) - {"type", *takes[kind].split()})
    if extra:
        raise DomainError(f"model {kind!r} takes no parameter {extra[0]!r}")
    try:
        if kind == "spindle":
            return spindle(float(spec["radius"]))
        if kind == "truncated_spindle":
            return truncated_spindle(float(spec["radius"]), float(spec.get("cut", 1.0)))
        if kind == "cone":
            return cone(float(spec["radius"]))
        return annulus(float(spec["r_lo"]), float(spec["r_hi"]))
    except KeyError as exc:
        raise DomainError(f"model {kind!r} is missing parameter {exc}") from None


def connected_sum_profile(m1: Profile, m2: Profile, eps: float) -> Profile:
    """The collapsing connected sum: m1 minus its eps-ball, glued to eps.m2.

    ``m1`` must start with a tip whose cone reaches radius > 2 eps; ``m2``
    must start with a boundary at radius 1 and a growing collar (its first
    segment's radius grows away from the boundary), else DomainError.  All
    radii of m2 are scaled by eps and the glued chain runs from m2's far end
    through the radial-minimum seam at radius eps into m1; a shrinking
    collar would leave no seam there.
    """
    if m1.start_bc is not BCKind.REGULAR_TIP:
        raise DomainError("m1 must start with a tip (the gluing point)")
    if m2.start_bc is BCKind.REGULAR_TIP or abs(m2.start_radius - 1.0) > _TOL:
        raise DomainError("m2 must start with a boundary at radius 1")
    if m2.segments[0].orientation < 0:
        raise DomainError("m2 must start with a growing collar: its radius must grow away from the boundary")
    if not 0 < eps < min(1.0, m1.segments[0].r_hi) / 2.0:
        raise DomainError(f"eps={eps} out of range (0, min(1, R1)/2)")
    part2 = m2.scaled(eps).reversed()  # now runs ... down to radius eps at its end
    first = m1.segments[0]
    part1 = (Segment(eps, first.r_hi, +1),) + m1.segments[1:]
    return Profile(
        segments=part2.segments + part1,
        start_bc=part2.start_bc,
        end_bc=m1.end_bc,
        glue_radius=eps,
    )


def cover_profiles(m1: Profile, m2: Profile, eps: float) -> tuple[Profile, Profile, Profile]:
    """The Mayer-Vietoris cover (U1, U2, U12) of connected_sum_profile(m1, m2, eps),
    with U2 and U12 at unit scale.

    U1 is m1 minus its eps-ball, the m1 part of the connected sum.  U2 (the
    scaled m2 extended by the annulus [eps, 2 eps] of m1's cone) and U12
    (that annulus) are eps times the returned profiles: m2 reversed followed
    by the cone segment [1, 2], and annulus(1, 2); so only U1 changes with
    eps beyond a scaling.  Every exposed cut carries the absolute boundary
    condition.  The checks of connected_sum_profile apply, and its eps range
    keeps [eps, 2 eps] inside m1's first cone.
    """
    m_eps = connected_sum_profile(m1, m2, eps)
    u1 = Profile(segments=m_eps.segments[len(m2.segments) :], start_bc=BCKind.ABSOLUTE, end_bc=m1.end_bc)
    back = m2.reversed()
    u2 = Profile(segments=back.segments + (Segment(1.0, 2.0, +1),), start_bc=back.start_bc, end_bc=BCKind.ABSOLUTE)
    return u1, u2, annulus(1.0, 2.0)


def split_segment(profile: Profile, seg_index: int, radius: float) -> Profile:
    """Refine a profile by splitting one segment at an interior radius.

    The two pieces keep the original orientation, so the new breakpoint is a
    smooth point (no seam); spectra and kernels are invariant under this.
    """
    seg = profile.segments[seg_index]
    if not seg.r_lo < radius < seg.r_hi:
        raise DomainError(f"radius {radius} not interior to segment {seg_index}")
    lo = Segment(seg.r_lo, radius, seg.orientation)
    hi = Segment(radius, seg.r_hi, seg.orientation)
    pieces = (lo, hi) if seg.orientation > 0 else (hi, lo)
    return Profile(
        segments=profile.segments[:seg_index] + pieces + profile.segments[seg_index + 1 :],
        start_bc=profile.start_bc,
        end_bc=profile.end_bc,
        glue_radius=profile.glue_radius,
    )


def dodziuk_interval(lam: float, eta: float, n: int, p: int) -> tuple[float, float]:
    """Eigenvalue stability interval under metric pinching e^-eta g <= g' <= e^eta g."""
    if not (math.isfinite(lam) and math.isfinite(eta) and lam >= 0 and eta >= 0):
        raise DomainError(f"need finite lam >= 0 and eta >= 0, got lam={lam}, eta={eta}")
    factor = (n + 2 * p) * eta
    try:
        hi = lam * math.exp(factor)
    except OverflowError:
        hi = math.inf
    if not math.isfinite(hi):
        raise DomainError(f"the interval's upper end overflows at lam={lam}, eta={eta}")
    return lam * math.exp(-factor), hi

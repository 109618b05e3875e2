import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conesum.errors import DomainError
from conesum.geometry import (
    BCKind,
    Profile,
    SeamKind,
    Segment,
    annulus,
    build_profile,
    cone,
    connected_sum_profile,
    cover_profiles,
    dodziuk_interval,
    sphere_volume,
    spindle,
    split_segment,
    truncated_spindle,
)


def test_spindle_structure():
    sp = spindle(1.0)
    assert len(sp.segments) == 2
    assert [s.kind for s in sp.seams] == [SeamKind.RADIAL_MAX]
    assert sp.start_bc is BCKind.REGULAR_TIP and sp.end_bc is BCKind.REGULAR_TIP
    assert sp.length == 2.0 and sp.r_max == 1.0


def test_truncated_spindle_structure():
    tr = truncated_spindle(2.0, 1.0)
    assert tr.start_radius == 1.0
    assert tr.start_bc is BCKind.ABSOLUTE and tr.end_bc is BCKind.REGULAR_TIP
    # the collar next to the boundary is an exact cone of length >= 1/2
    assert tr.segments[0].r_lo == 1.0 and tr.segments[0].r_hi == 2.0


def test_scaling():
    sp = spindle(1.0).scaled(0.3)
    assert sp.r_max == pytest.approx(0.3)
    assert sp.length == pytest.approx(0.6)


def test_connected_sum_chain():
    me = connected_sum_profile(spindle(1.0), truncated_spindle(2.0, 1.0), 0.1)
    radii = [(s.r_lo, s.r_hi) for s in me.segments]
    assert radii == [(0.0, 0.2), (0.1, 0.2), (0.1, 1.0), (0.0, 1.0)]
    kinds = [(s.radius, s.kind) for s in me.seams]
    assert kinds == [
        (0.2, SeamKind.RADIAL_MAX),
        (0.1, SeamKind.RADIAL_MIN),
        (1.0, SeamKind.RADIAL_MAX),
    ]
    assert me.closed and me.glue_radius == 0.1


def test_connected_sum_volume_converges():
    m1, m2 = spindle(1.0), truncated_spindle(2.0, 1.0)
    v1 = m1.volume(2)
    gaps = []
    for eps in (0.2, 0.1, 0.05, 0.025):
        gaps.append(abs(connected_sum_profile(m1, m2, eps).volume(2) - v1))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-3 * v1


def test_connected_sum_scaling_compatibility():
    m1, m2 = spindle(1.0), truncated_spindle(2.0, 1.0)
    c, eps = 0.7, 0.1
    a = connected_sum_profile(m1, m2, eps).scaled(c)
    b = connected_sum_profile(m1.scaled(c), m2, c * eps)
    assert [(s.r_lo, s.r_hi, s.orientation) for s in a.segments] == pytest.approx(
        [(s.r_lo, s.r_hi, s.orientation) for s in b.segments]
    )


def test_cover_profiles():
    eps = 0.1
    m1, m2 = spindle(1.0), truncated_spindle(2.0, 1.0)
    me = connected_sum_profile(m1, m2, eps)
    u1, u2, u12 = cover_profiles(m1, m2, eps)
    assert u1.start_bc is BCKind.ABSOLUTE and u1.start_radius == eps
    assert u1.segments == me.segments[len(m2.segments) :]
    # U2 and U12 come at unit scale: the cover's are eps times these
    assert u2.start_bc is m2.end_bc and u2.end_bc is BCKind.ABSOLUTE and u2.end_radius == 2.0
    assert u2.segments[:-1] == m2.reversed().segments
    assert u2.seams[-1].kind is SeamKind.RADIAL_MIN and u2.seams[-1].radius == 1.0
    assert u12 == annulus(1.0, 2.0)
    # U1 and U2 overlap exactly on the annulus in the radial coordinate
    total = u1.length + eps * (u2.length - u12.length)
    assert total == pytest.approx(me.length)


def test_connected_sum_rejects_a_shrinking_collar():
    # an m2 whose radius shrinks away from its boundary would glue with no
    # radial-minimum seam at eps
    m2 = Profile((Segment(0.5, 1.0, -1), Segment(0.0, 0.5, -1)), BCKind.ABSOLUTE, BCKind.REGULAR_TIP)
    assert m2.start_radius == 1.0
    with pytest.raises(DomainError, match="growing collar"):
        connected_sum_profile(spindle(1.0), m2, 0.1)
    with pytest.raises(DomainError, match="growing collar"):
        cover_profiles(spindle(1.0), m2, 0.1)


def test_seam_radii_positive_and_tips_zero():
    me = connected_sum_profile(spindle(1.0), truncated_spindle(2.0, 1.0), 0.05)
    assert all(s.radius > 0 for s in me.seams)
    assert me.start_radius == 0.0 and me.end_radius == 0.0


def test_split_segment_smooth_breakpoint():
    sp = spindle(1.0)
    refined = split_segment(sp, 0, 0.4)
    assert len(refined.segments) == 3
    assert len(refined.seams) == 1  # still only the equator seam
    assert refined.radius(0.4) == pytest.approx(0.4)


def test_build_profile_dispatch():
    assert build_profile({"type": "spindle", "radius": 1.0}).r_max == 1.0
    assert build_profile({"type": "annulus", "r_lo": 0.1, "r_hi": 0.2}).length == pytest.approx(0.1)
    with pytest.raises(DomainError):
        build_profile({"type": "torus"})


@pytest.mark.parametrize(
    "spec, name",
    [
        ({"type": "spindle", "radius": 1.0, "cut": 0.5}, "cut"),
        ({"type": "cone", "radius": 2.0, "r_lo": 0.5}, "r_lo"),
        ({"type": "truncated_spindle", "radius": 2.0, "r_hi": 3.0}, "r_hi"),
        ({"type": "annulus", "r_lo": 1.0, "r_hi": 2.0, "radius": 2.0}, "radius"),
    ],
)
def test_build_profile_rejects_a_parameter_its_model_does_not_take(spec, name):
    with pytest.raises(DomainError, match=f"model '{spec['type']}' takes no parameter '{name}'"):
        build_profile(spec)


def test_constructor_validation():
    with pytest.raises(DomainError):
        truncated_spindle(1.0, 1.0)
    with pytest.raises(DomainError):
        connected_sum_profile(spindle(1.0), truncated_spindle(2.0, 1.0), 0.6)
    with pytest.raises(DomainError):
        connected_sum_profile(spindle(1.0), spindle(1.0), 0.1)
    with pytest.raises(DomainError):
        annulus(0.2, 0.1)


def test_volume_formula():
    # unit half-spindle = flat unit ball of dimension 3
    ball = cone(1.0)
    assert ball.volume(2) == pytest.approx(4.0 * math.pi / 3.0)
    assert sphere_volume(2) == pytest.approx(4.0 * math.pi)


def test_dodziuk_identity_and_substitution():
    assert dodziuk_interval(2.0, 0.0, 2, 1) == (2.0, 2.0)
    lo, hi = dodziuk_interval(1.0, 0.1, 2, 1)
    assert lo == pytest.approx(math.exp(-0.4))
    assert hi == pytest.approx(math.exp(0.4))


@pytest.mark.parametrize(
    "lam, eta",
    [(-1.0, 0.0), (1.0, -0.1), (math.nan, 0.0), (1.0, math.nan), (math.inf, 0.0), (1.0, math.inf), (1.0, 1e300), (1e308, 1.0)],
)
def test_dodziuk_rejects_negative_or_nonfinite_inputs(lam, eta):
    with pytest.raises(DomainError):
        dodziuk_interval(lam, eta, 2, 1)


@given(
    lam=st.floats(min_value=0.0, max_value=50.0),
    eta1=st.floats(min_value=0.0, max_value=1.0),
    eta2=st.floats(min_value=0.0, max_value=1.0),
    c=st.floats(min_value=0.1, max_value=10.0),
)
def test_dodziuk_monotone_and_multiplicative(lam, eta1, eta2, c):
    lo1, hi1 = dodziuk_interval(lam, eta1, 2, 1)
    lo2, hi2 = dodziuk_interval(lam, eta1 + eta2, 2, 1)
    assert lo2 <= lo1 + 1e-12 and hi1 <= hi2 + 1e-12
    lo3, hi3 = dodziuk_interval(c * lam, eta1, 2, 1)
    assert lo3 == pytest.approx(c * lo1, rel=1e-12, abs=1e-12)
    assert hi3 == pytest.approx(c * hi1, rel=1e-12, abs=1e-12)

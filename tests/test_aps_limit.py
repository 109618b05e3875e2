import math

import numpy as np
import pytest

from conesum import geometry as geo
from conesum.aps_limit import (
    ApsProblem,
    aps_kernel,
    prolongation_bound_constant,
    l2_extension_rule,
    parametrix_apply,
    prolong_P_eps,
    prolongation_norm_sq,
)
from conesum.cone_operator import gamma_channels
from conesum.errors import DomainError
from conesum.geometry import BCKind, split_segment


def aps_m2(radius=2.0, cut=1.0):
    return geo.truncated_spindle(radius, cut, bc=BCKind.APS)


def test_l2_extension_rule():
    assert l2_extension_rule(1.0) is True
    assert l2_extension_rule(-1.0) is False
    assert l2_extension_rule(0.5) is False
    # on all enumerated channels the rule is exactly the sign of gamma
    for p in range(4):
        for ch in gamma_channels(2, p, 60.0):
            assert l2_extension_rule(ch.gamma) == (ch.gamma > 0)


def test_kernel_vanishes_on_spherical_model():
    rep = aps_kernel(ApsProblem(profile=aps_m2(), n=2, mu_sq_max=60.0))
    assert rep.dims == {0: 0, 1: 0, 2: 0, 3: 0}
    assert rep.mixed == []
    assert rep.total == 0


def test_kernel_degree_symmetry():
    rep = aps_kernel(ApsProblem(profile=aps_m2(), n=2))
    m = 3
    for p in range(m + 1):
        assert rep.dims[p] == rep.dims[m - p]


def test_kernel_invariant_under_refinement():
    base = aps_m2()
    refined = split_segment(split_segment(base, 0, 1.3), 2, 0.7)
    a = aps_kernel(ApsProblem(profile=base, n=2))
    b = aps_kernel(ApsProblem(profile=refined, n=2))
    assert a.dims == b.dims


def test_kernel_labels_tell_degrees_apart(monkeypatch):
    # the two exceptional blocks of a harmonic sphere mode share a block
    # label; the degree-qualified channel label keeps them apart
    import dataclasses

    import conesum.aps_limit as aps_limit

    real = aps_limit.first_order_kernel

    def dim_one(prob):
        return dataclasses.replace(real(prob), dim=1, near_singular=True)

    monkeypatch.setattr(aps_limit, "first_order_kernel", dim_one)
    rep = aps_kernel(ApsProblem(profile=aps_m2(), n=2, mu_sq_max=10.0))
    near_singular = [c.label for c in rep.contributions if c.near_singular]
    assert len(near_singular) == len(rep.contributions) > 0
    assert len(set(near_singular)) == len(near_singular)
    assert {c.label for c in rep.contributions if "exceptional" in c.label} >= {
        "p0:n2:q0:kH:exceptional",
        "p1:n2:q0:kH:exceptional",
    }


def test_kernel_needs_aps_boundary():
    with pytest.raises(DomainError):
        ApsProblem(profile=geo.truncated_spindle(2.0, 1.0), n=2)


def test_parametrix_positive_gamma_closed_form():
    rs = np.linspace(0.05, 1.0, 101)
    phi = parametrix_apply(1.0, lambda r: np.ones_like(r), rs)
    assert np.abs(phi - rs / 2.0).max() < 1e-14


def test_parametrix_negative_gamma_closed_form():
    rs = np.linspace(0.05, 1.0, 101)
    phi = parametrix_apply(-2.0, lambda r: np.ones_like(r), rs)
    assert np.abs(phi - (rs**2 - rs)).max() < 1e-14
    assert phi[-1] == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("gamma", [-3.0, -1.0, 1.0, 2.5])
def test_parametrix_residual_random_polynomials(gamma):
    rng = np.random.default_rng(11)
    rs = np.linspace(0.1, 1.0, 1441)
    h = rs[1] - rs[0]
    for _ in range(3):
        poly = np.polynomial.polynomial.Polynomial(rng.normal(size=5))
        phi = parametrix_apply(gamma, poly, rs)
        # fourth-order central differences against the defining equation
        dphi = (-phi[4:] + 8 * phi[3:-1] - 8 * phi[1:-3] + phi[:-4]) / (12 * h)
        residual = dphi + gamma * phi[2:-2] / rs[2:-2] - poly(rs[2:-2])
        assert np.abs(residual).max() < 1e-8
        if gamma < 0:
            assert abs(phi[-1]) < 1e-14


def test_parametrix_input_validation():
    with pytest.raises(DomainError):
        parametrix_apply(0.0, lambda r: r, np.array([0.5]))
    with pytest.raises(DomainError):
        parametrix_apply(1.0, lambda r: r, np.array([0.5, 0.4]))
    with pytest.raises(DomainError):
        parametrix_apply(1.0, lambda r: r, np.array([0.5, 1.5]))


def test_prolongation_norm_closed_form_vs_quadrature():
    gx, gw = np.polynomial.legendre.leggauss(200)
    for gamma, eps in ((1.0, 0.2), (1.5, 0.1), (3.0, 0.05)):
        x = 0.5 * (1 + eps) + 0.5 * (1 - eps) * gx
        w = 0.5 * (1 - eps) * gw
        quad = float(np.sum(w * (eps ** (gamma - 0.5) * x ** (-gamma)) ** 2))
        assert prolongation_norm_sq(gamma, eps) == pytest.approx(quad, rel=1e-8)


def test_prolongation_limit_and_bound():
    # single gamma = 1 channel: norm^2 -> 1 as eps -> 0
    assert prolong_P_eps([(1.0, 1.0)], 1e-8).norm_sq == pytest.approx(1.0, abs=1e-7)
    # multi-channel data obeys the uniform constant 1/(n-1)
    n = 2
    data = [(1.0, 0.7), (2.0, -0.3), (3.0, 1.1)]
    total_data = sum(a * a for _, a in data)
    pro = prolong_P_eps(data, 0.05)
    assert pro.norm_sq <= prolongation_bound_constant(n) * total_data + 1e-12
    # the sup ratio is attained on the lowest channel and increases to 1/(n-1)
    sup1 = prolongation_norm_sq(n / 2.0, 0.1)
    sup2 = prolongation_norm_sq(n / 2.0, 0.01)
    assert sup1 < sup2 < prolongation_bound_constant(n)


def test_prolongation_field_matches_quadrature():
    data = [(1.0, 0.5), (2.5, 1.25)]
    eps = 0.1
    pro = prolong_P_eps(data, eps)
    gx, gw = np.polynomial.legendre.leggauss(400)
    x = 0.5 * (1 + eps) + 0.5 * (1 - eps) * gx
    w = 0.5 * (1 - eps) * gw
    field = pro.field(x)
    quad = float(np.sum(w[:, None] * field**2))
    assert quad == pytest.approx(pro.norm_sq, rel=1e-8)


def test_prolongation_rejects_bad_gamma():
    with pytest.raises(DomainError):
        prolong_P_eps([(0.5, 1.0)], 0.1)
    with pytest.raises(DomainError):
        prolong_P_eps([(-1.0, 1.0)], 0.1)


def test_kernel_invariant_under_exterior_choice():
    # the exterior continuation radius is arbitrary; kernels cannot see it
    import conesum.radial.firstorder as fo
    from conesum.radial.problems import ChannelProblem
    from conesum.cone_operator import enumerate_blocks

    prof = aps_m2()
    for block in enumerate_blocks(2, 10.0):
        prob = ChannelProblem(
            profile=prof, n=2, degree=block.degrees[0], block=block,
            slot_indices=tuple(range(block.size)), multiplicity=1,
        )
        # no singular value in (1e-10, 1e-8] sigma_max: the rank is the same at both cuts
        assert not fo.first_order_kernel(prob).near_singular


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize(
    "profile",
    [aps_m2(), geo.annulus(1.0, 2.0, bc=BCKind.APS), geo.cone(1.0, bc=BCKind.APS)],
    ids=["truncated_spindle", "annulus", "cone"],
)
def test_kernel_invariant_under_reversal(profile, n):
    # each end is continued or capped by the same rule; on the cone the APS
    # end and the tip share one segment, whose singular branches stay out
    a, b = (aps_kernel(ApsProblem(profile=pr, n=n)) for pr in (profile, profile.reversed()))
    assert a.dims == b.dims
    assert [(c.label, c.dim, c.near_singular) for c in a.contributions] == [
        (c.label, c.dim, c.near_singular) for c in b.contributions
    ]

import math

import numpy as np
import pytest

from conesum import geometry as geo
from conesum.errors import DomainError
from conesum.geometry import BCKind, split_segment
from conesum.radial.fem import MeshSpec, fem_spectrum, make_mesh, refine_mesh, single_mesh_eigenvalues
from conesum.radial.firstorder import first_order_kernel
from conesum.radial.problems import ChannelProblem, degree_problems
from conesum.radial.sturm import sturm_liouville_oracle
from conesum.radial.transfer import channel_fundamental, secular_value, transfer_spectrum

# frozen oracle values (bisection on tan x = x and on the spherical Bessel
# derivative (x^2 - 2) sin x + 2 x cos x = 0, then squared)
DIRICHLET_CONE_GAMMA1 = 20.190728556426629
BALL_NEUMANN_FIRST = 4.3329585514293829
MESH = MeshSpec(h=0.02)


def problems_for(profile, n, p, lam_max=40.0):
    return degree_problems(profile, n, p, lam_max)[0]


def find_problem(profile, n, p, label_part, lam_max=40.0):
    probs = problems_for(profile, n, p, lam_max)
    return next(pr for pr in probs if label_part in pr.label)


# ---------------------------------------------------------------------------
# channel fundamental solutions


def test_fundamental_power_basis():
    b = channel_fundamental(1.0, 0.0, 2.0)
    assert b.values == pytest.approx((4.0, 0.5))  # r^2 and r^-1 at r=2
    assert b.regular_index == 0
    b = channel_fundamental(-1.0, 0.0, 2.0)  # basis {1, r}
    assert b.values == pytest.approx((1.0, 2.0))
    assert b.regular_index == 1


def test_fundamental_regular_branch_flag():
    # regular branch carries the indicial exponent max(gamma+1, -gamma) > 1/2
    for gamma in (-3.0, -1.0, 1.0, 2.5):
        b = channel_fundamental(gamma, 0.0, 1.5)
        exps = (gamma + 1.0, -gamma)
        assert exps[b.regular_index] == max(exps) > 0.5


def test_fundamental_dirichlet_zero():
    b = channel_fundamental(1.0, DIRICHLET_CONE_GAMMA1, 1.0)
    assert abs(b.values[0]) < 1e-10  # sqrt(r) J_{3/2}(sqrt(lam) r) vanishes at r = 1


def test_fundamental_solves_ode():
    # finite-difference check of -u'' + gamma(gamma+1)/r^2 u = lam u
    gamma, lam = 2.0, 7.3
    h = 1e-5
    for idx in (0, 1):
        u = lambda r: channel_fundamental(gamma, lam, r).values[idx]
        r0 = 0.8
        upp = (u(r0 + h) - 2 * u(r0) + u(r0 - h)) / h**2
        assert -upp + gamma * (gamma + 1) / r0**2 * u(r0) == pytest.approx(lam * u(r0), rel=1e-5)


def test_fundamental_rejects_negative_lambda():
    with pytest.raises(DomainError):
        channel_fundamental(1.0, -1.0, 0.5)


# ---------------------------------------------------------------------------
# anchors


def test_dirichlet_cone_anchor_secular():
    prob = find_problem(geo.cone(1.0, bc=BCKind.DIRICHLET_LIKE), 2, 1, "q1:k1:minus")
    eig = transfer_spectrum(prob, 40.0)
    assert eig.values()[0] == pytest.approx(DIRICHLET_CONE_GAMMA1, abs=1e-3)
    assert eig.values()[0] == pytest.approx(DIRICHLET_CONE_GAMMA1, rel=1e-10)


def test_dirichlet_cone_anchor_fem():
    prob = find_problem(geo.cone(1.0, bc=BCKind.DIRICHLET_LIKE), 2, 1, "q1:k1:minus")
    eig = fem_spectrum(prob, MESH, 40.0)
    assert eig.entries[0].value == pytest.approx(DIRICHLET_CONE_GAMMA1, rel=1e-8)
    assert eig.entries[0].error < 1e-6


def test_ball_neumann_anchor():
    prob = find_problem(geo.cone(1.0), 2, 0, "q0:k1:minus")
    sec = transfer_spectrum(prob, 40.0)
    assert sec.values()[0] == pytest.approx(BALL_NEUMANN_FIRST, abs=1e-3)
    fem = fem_spectrum(prob, MESH, 40.0)
    assert fem.entries[0].value == pytest.approx(BALL_NEUMANN_FIRST, rel=1e-8)


def test_constants_channel_zero_mode():
    # p = 0 constants on an absolute-boundary cone keep the constant function
    prob = find_problem(geo.cone(1.0), 2, 0, "exceptional")
    assert first_order_kernel(prob).dim == 1
    fem = fem_spectrum(prob, MESH, 40.0)
    assert abs(fem.entries[0].value) < 1e-9
    # secular side at lam = 0: the power-law basis admits the zero mode
    assert abs(secular_value(prob, 0.0)) < 1e-10


# ---------------------------------------------------------------------------
# cross-method agreement


@pytest.mark.parametrize(
    "profile",
    [
        geo.cone(1.0),
        geo.spindle(1.0),
        geo.connected_sum_profile(geo.spindle(1.0), geo.truncated_spindle(2.0, 1.0), 0.1),
        # FEM pair 7.2e-5 apart in p1:n2:q0:k2:plus_half near lam = 33.2175
        geo.connected_sum_profile(geo.spindle(1.0), geo.truncated_spindle(2.0, 1.0), 0.046),
        geo.annulus(1.0, 2.0),
        geo.truncated_spindle(2.0, 1.0),
    ],
    ids=["cone", "spindle", "m_eps", "m_eps_0046", "annulus", "truncated_spindle"],
)
@pytest.mark.parametrize("p", [0, 1])
def test_cross_method_agreement(profile, p):
    from conesum.analysis import assemble_spectrum

    res = assemble_spectrum(profile, 2, p, 40.0, method="both", mesh=MESH)
    assert res.zero_count == res.analytic_zero_count


@pytest.mark.parametrize("eps", [None, 0.025], ids=["m1", "m_eps_0025"])
@pytest.mark.parametrize("p", [1, 2])
def test_secular_method_is_complete(eps, p):
    # the secular solver alone returns the whole spectrum, not a subset of it
    from conesum.analysis import assemble_spectrum

    m1 = geo.spindle(1.0)
    profile = m1 if eps is None else geo.connected_sum_profile(m1, geo.truncated_spindle(2.0, 1.0), eps)
    fem = assemble_spectrum(profile, 2, p, 40.0, method="fem", mesh=MESH).positive_values()
    sec = assemble_spectrum(profile, 2, p, 40.0, method="secular", mesh=MESH).positive_values()
    assert len(sec) == len(fem) == 108
    assert sec == pytest.approx(fem, rel=1e-6)


def test_secular_solves_coupled_problems_through_slots():
    prob = find_problem(geo.spindle(1.0), 2, 1, "q0:k1:plus_half")
    with pytest.raises(DomainError):
        secular_value(prob, 10.0)
    alpha, beta = prob.slot_problems()
    assert (alpha.degree, alpha.slots, beta.degree, beta.slots) == (0, ("alpha",), 2, ("beta",))
    merged = np.sort(np.concatenate([transfer_spectrum(s, 40.0).values() for s in (alpha, beta)]))
    eig = transfer_spectrum(prob, 40.0)
    assert eig.values() == pytest.approx(merged, rel=1e-14)
    assert all(e.problem is prob for e in eig.entries)
    # the slot reduction needs boundary conditions that d and d* preserve
    for profile in (geo.cone(1.0, bc=BCKind.DIRICHLET_LIKE), geo.truncated_spindle(2.0, 1.0, bc=BCKind.APS)):
        with pytest.raises(DomainError):
            transfer_spectrum(find_problem(profile, 2, 1, "q0:k1:plus_half"), 40.0)


def test_spindle_first_positive_golden():
    prob = find_problem(geo.spindle(1.0), 2, 0, "q0:k1:minus")
    sec = transfer_spectrum(prob, 40.0).values()
    fem = fem_spectrum(prob, MESH, 40.0).values()
    assert sec[0] == pytest.approx(fem[0], rel=1e-6)
    assert sec[0] == pytest.approx(4.3329585514, rel=1e-8)


def test_eigenvalue_count_identical():
    profile = geo.connected_sum_profile(geo.spindle(1.0), geo.truncated_spindle(2.0, 1.0), 0.1)
    for prob in problems_for(profile, 2, 0):
        sec = transfer_spectrum(prob, 40.0)
        fem = fem_spectrum(prob, MESH, 40.0)
        fem_pos = [e for e in fem.entries if e.value > 1e-7]
        assert len(sec.entries) == len(fem_pos)


# ---------------------------------------------------------------------------
# structural invariants


def test_scaling_covariance():
    c = 0.37
    base = geo.spindle(1.0)
    scaled = base.scaled(c)
    prob = find_problem(base, 2, 0, "q0:k1:minus")
    prob_s = find_problem(scaled, 2, 0, "q0:k1:minus", lam_max=40.0 / c**2)
    sec = transfer_spectrum(prob, 40.0).values()
    sec_s = transfer_spectrum(prob_s, 40.0 / c**2).values()
    assert sec_s == pytest.approx(sec / c**2, rel=1e-9)
    fem = fem_spectrum(prob, MESH, 40.0).values()
    fem_s = fem_spectrum(prob_s, MESH.scaled(c), 40.0 / c**2).values()
    assert fem_s == pytest.approx(fem / c**2, rel=1e-9)


def test_channel_lower_bound():
    for profile in (
        geo.spindle(1.0),
        geo.connected_sum_profile(geo.spindle(1.0), geo.truncated_spindle(2.0, 1.0), 0.1),
    ):
        for p in (0, 1):
            for prob in problems_for(profile, 2, p):
                floor = prob.min_potential() / profile.r_max**2
                if floor <= 0:
                    continue
                vals = fem_spectrum(prob, MESH, 40.0).values()
                if len(vals):
                    assert vals[0] >= floor * (1.0 - 1e-9)


def test_fem_refinement_ratio():
    # smooth channel: quadratic elements gain ~2^4 per uniform refinement
    prob = find_problem(geo.cone(1.0, bc=BCKind.DIRICHLET_LIKE), 2, 1, "q1:k1:minus")
    uniform = MeshSpec(h=0.05, radial_fraction=1e9)
    nodes1 = make_mesh(prob.profile, uniform)
    nodes2 = refine_mesh(nodes1)
    nodes3 = refine_mesh(nodes2)
    e1 = single_mesh_eigenvalues(prob, nodes1, 40.0)[0] - DIRICHLET_CONE_GAMMA1
    e2 = single_mesh_eigenvalues(prob, nodes2, 40.0)[0] - DIRICHLET_CONE_GAMMA1
    e3 = single_mesh_eigenvalues(prob, nodes3, 40.0)[0] - DIRICHLET_CONE_GAMMA1
    assert 12.0 < e1 / e2 < 20.0
    assert 13.0 < e2 / e3 < 19.0


def test_quadratic_form_identity():
    # integration by parts: |s' + gamma s / r|^2 = s'^2 + gamma(gamma+1) s^2/r^2
    # plus the boundary term [gamma s^2 / r]
    rng = np.random.default_rng(7)
    gx, gw = np.polynomial.legendre.leggauss(30)
    a, b = 0.3, 1.4
    x = 0.5 * (a + b) + 0.5 * (b - a) * gx
    w = 0.5 * (b - a) * gw
    for _ in range(5):
        coef = rng.normal(size=4)
        gamma = rng.uniform(-3, 3)
        s = np.polynomial.polynomial.Polynomial(coef)
        ds = s.deriv()
        lhs = np.sum(w * (ds(x) + gamma * s(x) / x) ** 2)
        rhs = np.sum(w * (ds(x) ** 2 + gamma * (gamma + 1) * s(x) ** 2 / x**2))
        boundary = gamma * (s(b) ** 2 / b - s(a) ** 2 / a)
        assert lhs == pytest.approx(rhs + boundary, rel=1e-12, abs=1e-12)


def test_spectrum_invariant_under_segment_split():
    base = geo.spindle(1.0)
    refined = split_segment(base, 0, 0.6)
    pa = find_problem(base, 2, 0, "q0:k1:minus")
    pb = find_problem(refined, 2, 0, "q0:k1:minus")
    assert transfer_spectrum(pb, 40.0).values() == pytest.approx(
        transfer_spectrum(pa, 40.0).values(), rel=1e-10
    )
    assert fem_spectrum(pb, MESH, 40.0).values() == pytest.approx(
        fem_spectrum(pa, MESH, 40.0).values(), rel=1e-7
    )


def test_unresolved_mesh_is_rejected():
    from conesum.errors import ConvergenceError

    me = geo.connected_sum_profile(geo.spindle(1.0), geo.truncated_spindle(2.0, 1.0), 0.025)
    prob = problems_for(me, 2, 0)[0]
    with pytest.raises(ConvergenceError):
        fem_spectrum(prob, MeshSpec(h=0.05, radial_fraction=1e9), 40.0)


# ---------------------------------------------------------------------------
# the independent p=0 oracle


def test_oracle_ball_anchor():
    vals = sturm_liouville_oracle(geo.cone(1.0), 2, 40.0, h=0.02)
    pos = vals[vals > 1e-7]
    assert pos[0] == pytest.approx(BALL_NEUMANN_FIRST, abs=1e-3)


def test_oracle_spindle_zero_mode_simple():
    vals = sturm_liouville_oracle(geo.spindle(1.0), 2, 40.0, h=0.02)
    assert np.sum(np.abs(vals) < 1e-7) == 1


def test_oracle_matches_assembled_spectrum():
    from conesum.analysis import assemble_spectrum

    for profile in (geo.spindle(1.0), geo.cone(1.0)):
        res = assemble_spectrum(profile, 2, 0, 40.0, method="fem", mesh=MESH)
        mine = res.positive_values()
        oracle = sturm_liouville_oracle(profile, 2, 40.0, h=0.02)
        oracle = oracle[oracle > 1e-7]
        m = min(len(mine), len(oracle))
        assert mine[:m] == pytest.approx(oracle[:m], rel=1e-6)


def test_oracle_rejects_dirichlet():
    with pytest.raises(DomainError):
        sturm_liouville_oracle(geo.cone(1.0, bc=BCKind.DIRICHLET_LIKE), 2, 10.0)

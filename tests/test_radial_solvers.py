import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, reject, settings, strategies as st

from conesum import geometry as geo
from conesum.cone_operator import Family
from conesum.errors import ConvergenceError, DomainError
from conesum.geometry import BCKind, split_segment
from conesum.radial import sturm
from conesum.radial.fem import (
    MeshSpec,
    _assemble,
    band_to_sparse,
    fem_spectrum,
    make_mesh,
    refine_mesh,
    single_mesh_eigenvalues,
    solve_pencil,
)
from conesum.radial.firstorder import first_order_kernel
from conesum.radial.problems import ChannelProblem, degree_problems
from conesum.radial.sturm import sturm_liouville_oracle
from conesum.radial.transfer import _fundamental_matrix, eigen_count, secular_value, transfer_spectrum

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


def test_fundamental_dirichlet_zero():
    # sqrt(r) J_{3/2}(sqrt(lam) r) vanishes at r = 1
    assert abs(_fundamental_matrix(1.5, math.sqrt(DIRICHLET_CONE_GAMMA1), 1.0)[0, 0]) < 1e-10


def test_fundamental_solves_ode():
    # finite-difference check of -u'' + gamma(gamma+1)/r^2 u = lam u on the
    # value row, and of u' on the derivative row
    gamma, lam = 2.0, 7.3
    h, r0 = 1e-5, 0.8
    f = _fundamental_matrix(gamma + 0.5, math.sqrt(lam), np.array([r0 - h, r0, r0 + h]))
    u, du = f[:, 0, :], f[1, 1, :]
    upp = (u[2] - 2 * u[1] + u[0]) / h**2
    assert -upp + gamma * (gamma + 1) / r0**2 * u[1] == pytest.approx(lam * u[1], rel=1e-5)
    assert (u[2] - u[0]) / (2 * h) == pytest.approx(du, rel=1e-8)


def test_fundamental_rejects_negative_lambda():
    for k, r in ((-1.0, 0.5), (0.0, 0.5), (1.0, 0.0), (1.0, -0.5)):
        with pytest.raises(DomainError):
            _fundamental_matrix(1.5, k, r)


def test_secular_value_rejects_nonpositive_lambda():
    # lam <= 0 once fell silently back to the lam = 0 value; the count reads
    # the same walk
    prob = find_problem(geo.cone(1.0), 2, 0, "q0:k1:minus")
    for reading in (secular_value, eigen_count):
        for lam in (-5.0, 0.0, np.array([1.0, -1.0])):
            with pytest.raises(DomainError):
                reading(prob, lam)


def test_secular_value_on_an_array_matches_scalar_calls():
    m_eps = geo.connected_sum_profile(geo.spindle(1.0), geo.truncated_spindle(2.0, 1.0), 0.1)
    prob = find_problem(m_eps, 2, 1, "q1:k1:minus")
    lam = np.linspace(0.5, 40.0, 17).reshape(1, 17)
    vals = secular_value(prob, lam)
    assert vals.shape == lam.shape
    assert vals[0] == pytest.approx([secular_value(prob, float(x)) for x in lam[0]], rel=1e-14, abs=1e-300)
    assert np.all(np.abs(vals) <= 2.0)


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

    assemble_spectrum(profile, 2, p, 40.0, method="both", mesh=MESH)


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


def test_secular_spectrum_of_a_single_segment_into_a_tip():
    # the segment's states meet at its absolute end, whichever way it runs
    cone = geo.cone(1.0)
    for p, label_part in ((0, "q0:k1:minus"), (1, "q0:kH"), (2, "q0:k2:minus")):
        expected = transfer_spectrum(find_problem(cone, 2, p, label_part), 100.0).values()
        got = transfer_spectrum(find_problem(cone.reversed(), 2, p, label_part), 100.0).values()
        assert len(expected) >= 2
        assert got == pytest.approx(expected, rel=1e-12)


def fem_gap_caps(slot, lam_hi, spots=(0.5,)):
    """Caps at the fractions ``spots`` of each gap of a slot's FEM spectrum
    below lam_hi, and the FEM count below each cap.  A gap is used where it
    is wider than 1e-3 relative and than ten times the change of its ends
    under one mesh refinement (the fine values are off by about 1/15 of it)."""
    nodes = make_mesh(slot.profile, MESH)
    coarse = single_mesh_eigenvalues(slot, nodes, lam_hi)
    vals = single_mesh_eigenvalues(slot, refine_mesh(nodes), lam_hi)[: len(coarse)]
    change = np.abs(coarse - vals)
    gaps = np.flatnonzero(np.diff(vals) > np.maximum(1e-3 * vals[1:], 10 * (change[1:] + change[:-1])))
    spots = np.asarray(spots)[:, None]
    return ((1 - spots) * vals[gaps] + spots * vals[gaps + 1]).ravel(), np.tile(gaps + 1, len(spots))


def test_eigen_count_with_an_end_state_at_the_matching_point():
    # one segment: the states meet at its absolute end, where a beta slot's
    # dropped end state (u = 0) keeps its own angle, on either side
    cone = geo.cone(1.0)
    for profile in (cone, cone.reversed()):
        for p, label_part in ((0, "q0:k1:minus"), (1, "q0:kH"), (2, "q0:k2:minus")):
            slot = find_problem(profile, 2, p, label_part)
            caps, expected = fem_gap_caps(slot, 200.0)
            assert len(caps) >= 2
            assert eigen_count(slot, caps).tolist() == expected.tolist(), (slot.label, profile.start_bc)


def test_eigen_count_from_a_dirichlet_start():
    # the beta slot starts at u = 0; a u recomputed from the Bessel basis
    # there is round-off of either sign and could count a spurious zero
    waist = geo.Profile(
        segments=(geo.Segment(0.21875, 1.0, -1), geo.Segment(0.21875, 1.0, +1)),
        start_bc=BCKind.ABSOLUTE,
        end_bc=BCKind.ABSOLUTE,
    )
    slot = find_problem(waist, 2, 1, "q0:kH")
    assert slot.label == "p1:n2:q0:kH:exceptional" and slot.endpoint("start").drop[0]
    caps, expected = fem_gap_caps(slot, 40.0, spots=np.linspace(0.1, 0.9, 17))
    assert len(caps) >= 34
    assert eigen_count(slot, caps).tolist() == expected.tolist()
    assert eigen_count(slot, float(caps[0])) == 1


M1, M2 = geo.spindle(1.0), geo.truncated_spindle(2.0, 1.0)
SUPERSYMMETRY_PROFILES = {
    "spindle": M1,
    "truncated_spindle": M2,
    "cone": geo.cone(1.0),
    "annulus": geo.annulus(1.0, 2.0),
    "m_eps_005": geo.connected_sum_profile(M1, M2, 0.05),
    "m_eps_0025": geo.connected_sum_profile(M1, M2, 0.025),
}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", sorted(SUPERSYMMETRY_PROFILES))
def test_coupled_fem_spectrum_is_the_union_of_its_slots(name, n):
    # assemble_spectrum reads PLUS_HALF eigenvalues off the slot problems;
    # this pins that identity against the coupled FEM assembly, each
    # spectrum with its zero modes dropped by its own kernel dimension
    from conesum.analysis import _positive_entries

    def positive(prob):
        fem = fem_spectrum(prob, MESH, lam_max)
        return [e.value for e in _positive_entries(prob, fem, first_order_kernel(prob).dim, lam_max)]

    profile, lam_max = SUPERSYMMETRY_PROFILES[name], 40.0
    for p in range(1, n + 1):
        for prob in problems_for(profile, n, p, lam_max):
            if prob.block.family is not Family.PLUS_HALF:
                continue
            coupled = positive(prob)
            union = sorted(v for s in prob.slot_problems() for v in positive(s))
            assert len(coupled) == len(union), prob.label
            assert coupled == pytest.approx(union, rel=1e-8), prob.label


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


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="c / R_max^2 is no bound for n = 3: the constant mode has c = 3/4")
def test_channel_bound_holds_on_a_necked_profile():
    # degree_problems excludes a channel below lam_max by this bound; here
    # it drops the first positive eigenvalue on functions, 0.253 < 0.48
    necked = geo.Profile(
        segments=(geo.Segment(0.0, 1.0, +1), geo.Segment(0.25, 1.0, -1), geo.Segment(0.25, 1.25, +1)),
        start_bc=BCKind.REGULAR_TIP,
        end_bc=BCKind.ABSOLUTE,
    )
    prob = find_problem(necked, 3, 0, "kH")
    vals = fem_spectrum(prob, MeshSpec(h=0.1), 25.0).values()
    assert vals[1] >= prob.min_potential() / necked.r_max**2


def test_secular_method_keeps_close_pairs():
    # the k = 1 channel has two roots 0.099 apart in k (lam 4.1997, 4.6141,
    # each of multiplicity 3), closer than a k-grid of 8 points per pi/L
    # resolves: only a count keeps all 7 of FEM's values
    from conesum.analysis import assemble_spectrum

    waist = geo.Profile(
        segments=(geo.Segment(0.21875, 1.0, -1), geo.Segment(0.21875, 1.0, +1)),
        start_bc=BCKind.ABSOLUTE,
        end_bc=BCKind.ABSOLUTE,
    )
    fem = assemble_spectrum(waist, 2, 0, 10.0, mesh=MESH).positive_values()
    sec = assemble_spectrum(waist, 2, 0, 10.0, method="secular").positive_values()
    assert len(fem) == 7
    assert len(sec) == len(fem)


def test_zero_modes_do_not_depend_on_lam_max():
    # on a coarse mesh the constant mode's FEM value is 7.8e-7 at every
    # lam_max; it is a zero mode by its index, whatever lam_max is
    from conesum.analysis import assemble_spectrum

    small = geo.cone(0.375)
    for lam_max in (100.0, 50.0, 15.0):
        assert assemble_spectrum(small, 3, 0, lam_max, mesh=MeshSpec(h=0.1)).zero_count == 1


def test_zero_mode_of_a_thin_cylinder_is_enumerated():
    # the volume form of S^2 on [0.15625, 0.3125] x S^2 with absolute ends is
    # harmonic, though its channel's c / R_max^2 = 20.48 exceeds lam_max
    from conesum.analysis import assemble_spectrum

    thin = geo.Profile(segments=(geo.Segment(0.15625, 0.3125, -1),), start_bc=BCKind.ABSOLUTE, end_bc=BCKind.ABSOLUTE)
    for method, mesh in (("fem", MeshSpec(h=0.1)), ("secular", None)):
        assert assemble_spectrum(thin, 2, 2, 15.0, method=method, mesh=mesh).zero_count == 1, method


@pytest.mark.xfail(strict=True, raises=ConvergenceError, reason="elements near a small radius do not shrink with h")
@pytest.mark.parametrize("h", [0.1, 0.02])
def test_fem_converges_near_a_small_absolute_end(h):
    # _segment_radii caps elements at radial_fraction * r near r = 0.023,
    # whatever h is, and the Richardson estimate stays 1.4e-4 > CONV_RTOL
    from conesum.analysis import assemble_spectrum

    end = geo.Profile(
        segments=(geo.Segment(0.0, 0.375, +1), geo.Segment(0.09375, 0.375, -1), geo.Segment(0.0234375, 0.09375, -1)),
        start_bc=BCKind.REGULAR_TIP,
        end_bc=BCKind.ABSOLUTE,
    )
    assert assemble_spectrum(end, 2, 2, 15.0, mesh=MeshSpec(h=h)).zero_count == 1


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
    me = geo.connected_sum_profile(geo.spindle(1.0), geo.truncated_spindle(2.0, 1.0), 0.025)
    prob = problems_for(me, 2, 0)[0]
    with pytest.raises(ConvergenceError):
        fem_spectrum(prob, MeshSpec(h=0.05, radial_fraction=1e9), 40.0)


def test_fem_spectrum_raises_when_refinement_adds_an_eigenvalue():
    # elements of h/64 ~ r/2 at the absolute end r = 0.0033 leave the zero
    # mode at 20.4 on the coarse mesh, above the cap 19.75, and at 1.55 on
    # the refined one: pairing the two lists must not drop it
    thin = geo.Profile(
        segments=(
            geo.Segment(0.068359375, 0.3125, -1),
            geo.Segment(0.01495361328125, 0.068359375, -1),
            geo.Segment(0.0032711029052734375, 0.01495361328125, -1),
        ),
        start_bc=BCKind.ABSOLUTE,
        end_bc=BCKind.ABSOLUTE,
    )
    with pytest.raises(ConvergenceError, match="refined mesh adds"):
        fem_spectrum(find_problem(thin, 2, 2, "kH"), MeshSpec(h=0.1), 15.0)


# ---------------------------------------------------------------------------
# the inertia-certified pencil solver


# Elements of h/64 at tips cost dense generalized eigh ~1e-9 relative on the
# low coupled eigenvalues (residuals 1e-9 against ARPACK's 1e-12), so the
# dense comparison runs on a mesh with a milder tip grading.
PENCIL_MESH = MeshSpec(h=0.05, tip_floor=0.25)


def band_pencil(profile, p, label_part, spec=PENCIL_MESH):
    return _assemble(find_problem(profile, 2, p, label_part), make_mesh(profile, spec))[:2]


def dense(ab):
    return band_to_sparse(ab).toarray()


PENCILS = {
    "tip_scalar": (geo.spindle(1.0), 0, "q0:k1:minus"),
    "coupled_absolute": (geo.annulus(1.0, 2.0), 1, "q0:k1:plus_half"),
}

# Reduced pencils (T^T K T, T^T M T) of the sparse COO assembly with an
# explicit constraint map T that the banded assembly replaced, frozen as CSR
# arrays: the PENCILS cases on FROZEN_MESH and the oracle's k=1 mode
# (mu^2 = 2) on the spindle, n=2, h=0.1.  The file also holds a coupled
# pencil with an APS end, which is no longer assembled.
FROZEN = np.load(Path(__file__).with_name("sparse_pencils.npz"))
FROZEN_MESH = MeshSpec(h=0.1, tip_floor=0.25)


def frozen(name, tag):
    parts = [FROZEN[f"{name}.{tag}.{key}"] for key in ("data", "indices", "indptr", "shape")]
    return scipy.sparse.csr_matrix(tuple(parts[:3]), shape=tuple(parts[3])).toarray()


def oracle_pencil(monkeypatch):
    captured = []
    solve = sturm.solve_pencil
    monkeypatch.setattr(sturm, "solve_pencil", lambda K, M, cap: captured.append((K, M)) or solve(K, M, cap))
    sturm._mode_eigs(geo.spindle(1.0), 2, 2.0, 40.0, 0.1)
    return captured[0]


@pytest.mark.parametrize("case", sorted(PENCILS) + ["oracle"])
def test_band_assembly_matches_frozen_sparse_assembly(case, monkeypatch):
    if case == "oracle":
        K, M = oracle_pencil(monkeypatch)
    else:
        K, M = band_pencil(*PENCILS[case], spec=FROZEN_MESH)
    for tag, ab in (("K", K), ("M", M)):
        ref = frozen(case, tag)
        if case == "coupled_absolute":
            # T kept each absolute end's alpha dof with weight -1, the dof mask keeps it with +1
            d = np.ones(len(ref))
            d[[0, -1]] = -1.0
            ref = d[:, None] * ref * d
        np.testing.assert_allclose(dense(ab), ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("case", sorted(PENCILS))
def test_solve_pencil_matches_dense(case):
    K, M = band_pencil(*PENCILS[case])
    Kd, Md = dense(K), dense(M)
    cap = 51.0
    expected = scipy.linalg.eigh(Kd, Md, eigvals_only=True)
    expected = expected[expected < cap]
    assert len(expected) >= 2
    vals, vecs = solve_pencil(K, M, cap)
    assert vecs is None
    assert len(vals) == len(expected)
    assert vals == pytest.approx(expected, rel=1e-10, abs=1e-10)
    vals, vecs = solve_pencil(K, M, cap, want_vectors=True)
    assert vals == pytest.approx(expected, rel=1e-10, abs=1e-10)
    assert vecs.T @ (Md @ vecs) == pytest.approx(np.eye(len(vals)), abs=1e-10)
    assert Kd @ vecs == pytest.approx(Md @ vecs * vals, abs=1e-8 * max(vals.max(), 1.0))


def test_solve_pencil_empty_below_first_eigenvalue():
    K, M = band_pencil(*PENCILS["tip_scalar"])
    first = scipy.linalg.eigh(dense(K), dense(M), eigvals_only=True)[0]
    vals, vecs = solve_pencil(K, M, 0.5 * first, want_vectors=True)
    assert vals.shape == (0,)
    assert vecs.shape == (K.shape[1], 0)


def test_solve_pencil_rejects_a_cap_above_all_but_one_eigenvalue():
    K, M = band_pencil(*PENCILS["tip_scalar"], spec=MeshSpec(h=0.25))
    eigs = scipy.linalg.eigh(dense(K), dense(M), eigvals_only=True)
    with pytest.raises(ConvergenceError, match="in a pencil of size"):
        solve_pencil(K, M, 0.5 * (eigs[-2] + eigs[-1]))


def test_solve_pencil_rejects_k_plus_m_not_positive_definite():
    K, M = band_pencil(*PENCILS["tip_scalar"])
    eigs = scipy.linalg.eigh(dense(K), dense(M), eigvals_only=True)
    # shifting the first eigenvalue to -2 leaves the inertia count at 1
    shifted = K - (eigs[0] + 2.0) * M
    cap = 0.5 * (eigs[0] + eigs[1]) - eigs[0] - 2.0
    with pytest.raises(ConvergenceError, match="not positive definite"):
        solve_pencil(shifted, M, cap)


APS_SPINDLE = geo.truncated_spindle(2.0, 1.0, bc=BCKind.APS)

# (profile, degree, label part, end, dropped slots)
END_DROPS = [
    (geo.spindle(1.0), 0, "q0:k1:minus", "start", [True]),
    (geo.spindle(1.0), 1, "q0:k1:plus_half", "end", [True, True]),
    (geo.cone(1.0, bc=BCKind.DIRICHLET_LIKE), 1, "q1:k1:minus", "end", [True]),
    (geo.cone(1.0, bc=BCKind.DIRICHLET_LIKE), 1, "q0:k1:plus_half", "end", [True, True]),
    # absolute ends drop the beta slot: alpha slot, beta slot, coupled
    (geo.annulus(1.0, 2.0), 0, "q0:k1:minus", "start", [False]),
    (geo.annulus(1.0, 2.0), 2, "q0:k1:minus", "end", [True]),
    (geo.annulus(1.0, 2.0), 1, "q0:k1:plus_half", "start", [False, True]),
    # APS ends drop a scalar slot overlapping a negative eigenvector: both
    # slots of a MINUS_HALF block (gammas k, -k-1, mu > 0 mixes them), and
    # the exceptional slot of gamma -1 but not the one of gamma +1
    (APS_SPINDLE, 0, "q0:k1:minus", "start", [True]),
    (APS_SPINDLE, 2, "q0:k1:minus", "start", [True]),
    (APS_SPINDLE, 0, "q0:kH", "start", [True]),
    (APS_SPINDLE, 1, "q0:kH", "start", [False]),
]


def test_endpoint_drops_slots_by_end_condition():
    for profile, p, label_part, which, expected in END_DROPS:
        prob = find_problem(profile, 2, p, label_part)
        data = prob.endpoint(which)
        assert data.drop.tolist() == expected, (prob.label, which)
        bc = profile.start_bc if which == "start" else profile.end_bc
        natural = bc in (BCKind.ABSOLUTE, BCKind.APS)
        assert (data.k_matrix is not None) == natural, (prob.label, which)
    # a coupled problem at an APS end has no dof drop: every solver refuses it
    coupled = find_problem(APS_SPINDLE, 2, 1, "q0:k1:plus_half")
    assert coupled.endpoint("end").drop.tolist() == [True, True]
    with pytest.raises(DomainError, match="coupled problem at an APS end"):
        coupled.endpoint("start")
    with pytest.raises(DomainError, match="coupled problem at an APS end"):
        fem_spectrum(coupled, MESH, 20.0)


@st.composite
def conical_profiles(draw):
    """1-3 conical segments between a tip or an absolute end and another."""
    nseg = draw(st.integers(1, 3))
    radius = draw(st.sampled_from([0.0, 1.0])) * draw(st.floats(0.3, 1.5))
    segments = []
    for i in range(nseg):
        last = i == nseg - 1
        grow = radius == 0.0 or draw(st.booleans())
        if grow:
            nxt = radius + draw(st.floats(0.3, 1.5))
            segments.append(geo.Segment(radius, nxt, +1))
        else:
            nxt = 0.0 if last and draw(st.booleans()) else radius * draw(st.floats(0.2, 0.7))
            segments.append(geo.Segment(nxt, radius, -1))
        radius = nxt
    ends = [geo.BCKind.REGULAR_TIP if r == 0.0 else geo.BCKind.ABSOLUTE for r in (
        segments[0].radius_at_entry(), segments[-1].radius_at_exit())]
    return geo.Profile(segments=tuple(segments), start_bc=ends[0], end_bc=ends[1])


@settings(max_examples=12, deadline=None)
@given(profile=conical_profiles(), data=st.data())
def test_solve_pencil_matches_dense_on_random_profiles(profile, data):
    n = data.draw(st.sampled_from([2, 3]))
    prob = data.draw(st.sampled_from(problems_for(profile, n, data.draw(st.integers(0, n)))))
    K, M, _ = _assemble(prob, make_mesh(profile, MeshSpec(h=0.1, tip_floor=0.25)))
    eigs = scipy.linalg.eigh(dense(K), dense(M), eigvals_only=True)
    k = data.draw(st.integers(1, min(8, len(eigs) - 2)))
    # a cap halfway between two eigenvalues keeps the count away from
    # rounding, once k is past any cluster: a reflection-symmetric profile
    # has double eigenvalues a few 1e-12 apart, and zero modes cluster at 0
    while k < len(eigs) - 2 and eigs[k] - eigs[k - 1] <= 1e-8 * max(abs(eigs[k]), 1.0):
        k += 1
    vals, _ = solve_pencil(K, M, 0.5 * (eigs[k - 1] + eigs[k]))
    assert len(vals) == k
    assert vals == pytest.approx(eigs[:k], rel=1e-9, abs=1e-9)


def mirrored(profile):
    """The profile followed by its reflection, which makes Hodge-dual slots
    degenerate; the profile must not end in a tip."""
    back = tuple(geo.Segment(s.r_lo, s.r_hi, -s.orientation) for s in reversed(profile.segments))
    return geo.Profile(segments=profile.segments + back, start_bc=profile.start_bc, end_bc=profile.start_bc)


# random profiles, half of them reflection-symmetric
some_mirrored = st.one_of(
    conical_profiles(),
    conical_profiles().filter(lambda pr: pr.end_bc is not BCKind.REGULAR_TIP).map(mirrored),
)


@settings(max_examples=6, deadline=None)
@given(profile=some_mirrored, n=st.sampled_from([2, 3]))
def test_first_positive_exact_matches_whole_spectrum_on_random_profiles(profile, n):
    from conesum.analysis import FIRST_EXACT_BOUND, assemble_spectrum, exact_form_spectrum, first_positive_exact

    mesh = MeshSpec(h=0.1)
    for p in range(n + 1):
        lam = first_positive_exact(profile, n, p, mesh)
        # not below the search's first enumeration bound, where the search
        # solved its first slot: below it, the channel bound c / R_max^2 can
        # exclude a channel holding the value
        # (test_channel_bound_holds_on_a_necked_profile)
        cap = max(1.5 * lam, FIRST_EXACT_BOUND * max(1.0, profile.r_max**-2))
        if p:
            whole = exact_form_spectrum(profile, n, p, cap, mesh)
        else:
            whole = assemble_spectrum(profile, n, 0, cap, mesh=mesh).positive_values()
        assert lam == pytest.approx(whole[0], rel=1e-10), p


@settings(max_examples=8, deadline=None)
@given(profile=some_mirrored, n=st.sampled_from([2, 3]), c=st.floats(0.5, 2.0), data=st.data())
def test_assembled_spectrum_scales_exactly_on_random_profiles(profile, n, c, data):
    # M -> cM scales every eigenvalue by 1/c^2, with the mesh scaled along
    from conesum.analysis import assemble_spectrum

    p = data.draw(st.integers(0, n + 1))
    base = assemble_spectrum(profile, n, p, 15.0, mesh=MESH)
    scaled = assemble_spectrum(profile.scaled(c), n, p, 15.0 / c**2, mesh=MESH.scaled(c))
    assert len(scaled.entries) == len(base.entries)
    assert scaled.zero_count == base.zero_count
    assert scaled.positive_values() == pytest.approx(base.positive_values() / c**2, rel=1e-9, abs=0)


@settings(max_examples=8, deadline=None)
@given(profile=some_mirrored, n=st.sampled_from([2, 3]), data=st.data())
def test_secular_spectrum_invariant_under_split_segment_on_random_profiles(profile, n, data):
    # a smooth breakpoint changes neither the operator nor the secular k-grid,
    # which depends only on the profile length
    from conesum.analysis import assemble_spectrum

    p = data.draw(st.integers(0, n + 1))
    i = data.draw(st.integers(0, len(profile.segments) - 1))
    seg = profile.segments[i]
    refined = split_segment(profile, i, seg.r_lo + data.draw(st.floats(0.1, 0.9)) * seg.length)
    base = assemble_spectrum(profile, n, p, 10.0, method="secular")
    split = assemble_spectrum(refined, n, p, 10.0, method="secular")
    assert len(split.entries) == len(base.entries)
    assert split.zero_count == base.zero_count
    assert split.positive_values() == pytest.approx(base.positive_values(), rel=1e-10, abs=0)


@settings(max_examples=10, deadline=None)
@given(profile=some_mirrored, n=st.sampled_from([2, 3]))
def test_zero_mode_counts_are_betti_numbers_on_random_profiles(profile, n):
    # the analytic counts are the Betti numbers of the sphere (two tips), the
    # ball (a tip and an absolute end) or [a, b] x S^n (two absolute ends),
    # and a coarse FEM spectrum shows its gap right after every slot's kernel
    # (draws where FEM does not converge near a small radius are discarded:
    # test_fem_converges_near_a_small_absolute_end pins that defect)
    from conesum.analysis import assemble_spectrum

    tips = [bc is BCKind.REGULAR_TIP for bc in (profile.start_bc, profile.end_bc)]
    betti = {0: 1, n + 1: 1} if all(tips) else {0: 1} if any(tips) else {0: 1, n: 1}
    cache: dict = {}
    for p in range(n + 2):
        try:
            res = assemble_spectrum(profile, n, p, 15.0, mesh=MeshSpec(h=0.1), _slot_cache=cache)
        except ConvergenceError:
            reject()
        assert res.zero_count == betti.get(p, 0), p


@settings(max_examples=6, deadline=None)
@given(profile=some_mirrored, n=st.sampled_from([2, 3]), data=st.data())
def test_eigen_count_matches_fem_on_random_profiles(profile, n, data):
    # the count is exact at a cap in any spectral gap, on every slot of the
    # degree; mirrored profiles put close pairs into a slot's spectrum
    p = data.draw(st.integers(0, n + 1))
    for prob in problems_for(profile, n, p, 15.0):
        for slot in prob.slot_problems():
            caps, expected = fem_gap_caps(slot, 15.0)
            assert eigen_count(slot, caps).tolist() == expected.tolist(), slot.label


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

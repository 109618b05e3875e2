import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import assume, given, reject, settings, strategies as st

from conesum import geometry as geo
from conesum.cone_operator import Family, enumerate_blocks
from conesum.errors import ConvergenceError, DomainError, ZeroModeMismatchError
from conesum.geometry import BCKind, split_segment
from conesum.radial import fem, sturm
from conesum.radial.fem import (
    MeshSpec,
    _assemble,
    _check_resolution,
    band_to_sparse,
    fem_spectrum,
    inertia_count,
    inverse_iteration,
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


@pytest.mark.parametrize("lam", [math.inf, math.nan])
@pytest.mark.parametrize("reading", ["secular_value", "eigen_count", "transfer_spectrum", "fem_spectrum"])
def test_solvers_reject_a_non_finite_lambda(reading, lam):
    # inf once overflowed the walk's sample count and sent FEM into a
    # refinement check it cannot pass; nan made FEM return no values
    prob = find_problem(geo.cone(1.0), 2, 0, "q0:k1:minus")
    solve = {
        "secular_value": secular_value,
        "eigen_count": eigen_count,
        "transfer_spectrum": transfer_spectrum,
        "fem_spectrum": lambda pr, x: fem_spectrum(pr, MeshSpec(h=0.1), x),
    }[reading]
    with pytest.raises(DomainError):
        solve(prob, lam)
    if reading in ("secular_value", "eigen_count"):
        with pytest.raises(DomainError):
            solve(prob, np.array([1.0, lam]))


def test_secular_value_on_an_array_matches_scalar_calls():
    m_eps = geo.connected_sum_profile(geo.spindle(1.0), geo.truncated_spindle(2.0, 1.0), 0.1)
    prob = find_problem(m_eps, 2, 1, "q1:k1:minus")
    lam = np.linspace(0.5, 40.0, 17).reshape(1, 17)
    vals = secular_value(prob, lam)
    assert vals.shape == lam.shape
    assert vals[0] == pytest.approx([secular_value(prob, float(x)) for x in lam[0]], rel=1e-14, abs=1e-300)
    assert np.all(np.abs(vals) <= 1.0)


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
    # one segment: the states meet at its absolute end, where the empty
    # half-walk's angle is its end state's (u = 0 for a beta slot's dropped
    # end), on either side
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


def assert_counts_bracket_each_root(slot, roots):
    """The count steps from a root's index to the next one across the root:
    exactly so at d = min(1e-10, gap/4) off it, relative, where gap is the
    relative distance to the nearest other root, and to either value at the
    root itself, at its nextafter neighbours and at 1e-14 off it, where the
    rounding of the walk decides.  ``secular_value``, sin of the same angle
    sum, has opposite signs at d off either side, and is at most 1 in size
    at every lam probed."""
    dim = first_order_kernel(slot).dim
    for i, lam in enumerate(roots):
        j = dim + i
        d = min([1e-10] + [abs(lam - r) / (4 * lam) for r in roots if r != lam])
        off = lam * np.array([1 - d, 1 + d])
        assert eigen_count(slot, off).tolist() == [j, j + 1], (slot.label, lam)
        near = [lam * (1 - 1e-14), np.nextafter(lam, 0), lam, np.nextafter(lam, math.inf), lam * (1 + 1e-14)]
        counts = eigen_count(slot, np.array(near)).tolist()
        assert set(counts) <= {j, j + 1}, (slot.label, lam, counts)
        values = secular_value(slot, np.append(off, near))
        assert values[0] * values[1] < 0 and np.all(np.abs(values) <= 1.0), (slot.label, lam, values)


def test_eigen_count_takes_a_node_at_the_matching_breakpoint_once():
    # the slot's eigenform at lam0 vanishes at the equator, the matching
    # breakpoint, so u there changes sign at lam0 in both half-walks; the
    # count once read 3, 3, 5, 5, 4 here
    slot = find_problem(geo.spindle(1.0), 2, 0, "q0:k1:minus_half", lam_max=60.0)
    assert slot.label == "p0:n2:q0:k1:minus_half"
    roots = transfer_spectrum(slot, 60.0).values()
    lam0 = 59.67951594410944
    assert roots[-1] == pytest.approx(lam0, rel=1e-12)
    counts = [eigen_count(slot, lam0 + d) for d in (-1e-12, -1e-14, 0.0, 1e-14, 1e-12)]
    assert counts[:2] == [3, 3] and counts[-1] == 4 and set(counts) <= {3, 4}
    assert_counts_bracket_each_root(slot, roots)


@pytest.mark.parametrize("n", [2, 3])
def test_eigen_count_brackets_every_root_on_the_spindle(n):
    # a symmetric profile: every odd eigenform has a node at the equator,
    # where the two half-walks meet
    profile = geo.spindle(1.0)
    problems = [pr for p in range(n + 2) for pr in problems_for(profile, n, p, 60.0)]
    slots = {s.ode_key: s for pr in problems for s in pr.slot_problems()}
    for slot in slots.values():
        assert_counts_bracket_each_root(slot, transfer_spectrum(slot, 60.0).values())


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
                floor = prob.lower_bound()
                if floor <= 0:
                    continue
                vals = fem_spectrum(prob, MESH, 40.0).values()
                if len(vals):
                    assert vals[0] >= floor * (1.0 - 1e-9)


# tip -> r = 1 -> neck r = 0.25 -> absolute end r = 1.25; at n = 3 the
# constant mode's c / R_max^2 = 0.48 exceeds its first eigenvalue 0.2530
NECKED = geo.Profile(
    segments=(geo.Segment(0.0, 1.0, +1), geo.Segment(0.25, 1.0, -1), geo.Segment(0.25, 1.25, +1)),
    start_bc=BCKind.REGULAR_TIP,
    end_bc=BCKind.ABSOLUTE,
)


def test_channel_bound_holds_on_a_necked_profile():
    # every slot's first positive value is at least mu^2 / R_max^2
    from conesum.analysis import _slot_spectrum

    mesh, cache = MeshSpec(h=0.1), {}
    for p in range(5):
        for slot in (s for prob in problems_for(NECKED, 3, p, 25.0) for s in prob.slot_problems()):
            pos = _slot_spectrum(slot, 25.0, "fem", mesh, cache)
            assert not pos or pos[0].value >= slot.lower_bound(), slot.label
    # where c / R_max^2 fails: 0.2530 < 0.48 on the constants
    const = find_problem(NECKED, 3, 0, "kH")
    assert _slot_spectrum(const, 25.0, "fem", mesh, cache)[0].value < const.potential[0, 0] / NECKED.r_max**2


def test_searches_stop_at_the_bound_on_a_necked_profile():
    # the stop at mu^2 / R_max^2 > lam*, at n = 3 where c != mu^2: the first
    # positive exact value is the least of the exact-form spectra, and the
    # k-lowest search gives the first 3 positive values of each degree
    from conesum.analysis import _degree_spectrum, assemble_spectrum, exact_form_spectrum, first_positive_exact

    mesh = MeshSpec(h=0.1)
    for p in range(1, 4):
        assert first_positive_exact(NECKED, 3, p, mesh) == pytest.approx(
            exact_form_spectrum(NECKED, 3, p, 25.0, mesh)[0], rel=1e-10
        ), p
    for p in range(5):
        whole = assemble_spectrum(NECKED, 3, p, 25.0, mesh=mesh).positive_values()
        part = _degree_spectrum(NECKED, 3, p, 25.0, 3, "fem", mesh, False, {}).positive_values()
        assert len(part) >= 3 and part == pytest.approx(whole[: len(part)], rel=1e-10), p


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
    # harmonic: its channel's c / R_max^2 = 20.48 exceeds lam_max, but its
    # lower bound mu^2 / R_max^2 is 0
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


@pytest.mark.xfail(strict=True, raises=ConvergenceError, reason="elements near a small radius do not shrink with h")
def test_fem_converges_on_a_scaled_thin_neck():
    # a draw of test_assembled_spectrum_scales_exactly_on_random_profiles:
    # halved, the neck has radius 0.025 and p1:n2:q0:kH:exceptional's value
    # 0.669 has the Richardson estimate 1.4e-4 > CONV_RTOL
    from conesum.analysis import assemble_spectrum

    neck = mirrored(geo.Profile(
        segments=(geo.Segment(0.25, 1.0, -1), geo.Segment(0.05078125, 0.25, -1)),
        start_bc=BCKind.ABSOLUTE,
        end_bc=BCKind.ABSOLUTE,
    ))
    assert assemble_spectrum(neck.scaled(0.5), 2, 1, 15.0 / 0.5**2, mesh=MESH.scaled(0.5)).zero_count == 0


@pytest.mark.xfail(strict=True, raises=ZeroModeMismatchError, reason="elements near a small radius do not shrink with h")
def test_fem_zero_mode_on_a_thin_neck_at_n3():
    # a draw of test_k_lowest_search_matches_the_full_spectrum_on_random_profiles:
    # the neck of radius 0.0725 holds a true eigenvalue 1.168e-3 (secular),
    # and FEM's zero mode of p3:n3:q3:kH:exceptional at 1.6e-6 leaves no gap
    from conesum.analysis import assemble_spectrum

    neck = mirrored(geo.Profile(
        segments=(
            geo.Segment(0.072509765625, 0.34375, -1),
            geo.Segment(0.072509765625, 1.072509765625, 1),
            geo.Segment(1.072509765625, 2.072509765625, 1),
        ),
        start_bc=BCKind.ABSOLUTE,
        end_bc=BCKind.ABSOLUTE,
    ))
    assert assemble_spectrum(neck, 3, 3, 15.0, mesh=MeshSpec(h=0.1)).zero_count == 1


def test_fem_spectrum_pairs_each_entry_with_its_eigenform():
    # a coupled channel: each entry carries the fine-mesh eigenform of its
    # own index, whose pencil value is the entry's before extrapolation
    prob = find_problem(geo.spindle(1.0), 2, 1, "plus_half")
    entries = fem_spectrum(prob, MESH, 40.0, want_vectors=True).entries
    assert len(entries) >= 2
    for e in entries:
        assert e.field.index == e.index and e.field.problem is e.problem
        assert e.field.pencil[3][e.index] == pytest.approx(e.value, abs=1.01 * e.error + 1e-12)
    assert all(e.field is None for e in fem_spectrum(prob, MESH, 40.0).entries)


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


def test_mesh_sizes_must_be_positive_and_finite():
    # the mesher steps by h, radial_fraction * r and h * tip_floor: a zero,
    # negative or NaN size never reaches the end of a segment
    for bad in (0.0, -0.01, math.nan, math.inf):
        with pytest.raises(DomainError, match="MeshSpec.h"):
            make_mesh(geo.spindle(1.0), MeshSpec(h=bad))
        with pytest.raises(DomainError, match="MeshSpec.radial_fraction"):
            MeshSpec(radial_fraction=bad)
        with pytest.raises(DomainError, match="MeshSpec.tip_floor"):
            MeshSpec(tip_floor=bad)


def test_channel_enumeration_needs_a_positive_finite_cap():
    # the sphere modes are enumerated up to lam_max * R_max^2, which must be
    # finite for the enumeration to end
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="lam_max"):
            degree_problems(geo.spindle(1.0), 2, 0, bad)


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


def oracle_pencil(profile=geo.spindle(1.0), n=2, mu_sq=2.0):
    """The pencil that the oracle's mode mu_sq hands to solve_pencil, at h = 0.1."""
    captured = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sturm, "solve_pencil", lambda K, M, cap: captured.append((K, M)) or np.empty(0))
        sturm._mode_eigs(profile, n, mu_sq, 40.0, 0.1)
    return captured[0]


@pytest.mark.parametrize("case", sorted(PENCILS) + ["oracle"])
def test_band_assembly_matches_frozen_sparse_assembly(case):
    if case == "oracle":
        K, M = oracle_pencil()
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
    vals = solve_pencil(K, M, cap)
    assert len(vals) == len(expected)
    assert vals == pytest.approx(expected, rel=1e-10, abs=1e-10)
    vecs = np.column_stack([inverse_iteration(K, M, vals, cap, i) for i in range(len(vals))])
    assert vecs.T @ (Md @ vecs) == pytest.approx(np.eye(len(vals)), abs=1e-10)
    assert Kd @ vecs == pytest.approx(Md @ vecs * vals, abs=1e-8 * max(vals.max(), 1.0))


def test_solve_pencil_empty_below_first_eigenvalue():
    K, M = band_pencil(*PENCILS["tip_scalar"])
    Kd, Md = dense(K), dense(M)
    eigs = scipy.linalg.eigh(Kd, Md, eigvals_only=True)
    assert solve_pencil(K, M, 0.5 * eigs[0]).shape == (0,)
    # one value below the cap has its eigenvector, unless the cap lies too
    # close to it to tell the next value apart
    cap = 0.5 * (eigs[0] + eigs[1])
    vals = solve_pencil(K, M, cap)
    x = inverse_iteration(K, M, vals, cap, 0)
    assert x @ Md @ x == pytest.approx(1.0, abs=1e-10)
    assert Kd @ x == pytest.approx(Md @ x * vals[0], abs=1e-8 * max(vals[0], 1.0))
    with pytest.raises(ConvergenceError, match="not simple"):
        inverse_iteration(K, M, vals, vals[0] * (1.0 + 1e-7), 0)


def test_inverse_iteration_rejects_a_double_eigenvalue():
    # two identical uncoupled blocks: every eigenvalue is exactly double, so
    # no eigenvector is determined; the dense values stand in for solve_pencil's
    K, M = band_pencil(*PENCILS["tip_scalar"])
    K2, M2 = np.hstack([K, K]), np.hstack([M, M])
    eigs = scipy.linalg.eigh(dense(K2), dense(M2), eigvals_only=True)
    cap = 51.0
    vals = eigs[eigs < cap]
    assert len(vals) >= 4 and vals[1] - vals[0] < 1e-10 * vals[0]
    for i in range(len(vals)):
        with pytest.raises(ConvergenceError, match="not simple"):
            inverse_iteration(K2, M2, vals, cap, i)


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


def assert_count_matches_dense(K, M, shifts):
    """inertia_count equals the dense count of eigenvalues below each shift and
    below each dense value lam (1 +- 1e-9), |lam| >= 1e-3; a shift within
    5e-10 max(|mu|, 1) of a dense value mu is skipped, since dense eigh
    cannot place it.  Returns the number of shifts checked."""
    eigs = scipy.linalg.eigh(dense(K), dense(M), eigvals_only=True)
    near = eigs[np.abs(eigs) >= 1e-3]
    checked = 0
    for shift in np.concatenate([shifts, near * (1.0 - 1e-9), near * (1.0 + 1e-9)]):
        if np.any(np.abs(eigs - shift) <= 5e-10 * np.maximum(np.abs(eigs), 1.0)):
            continue
        assert inertia_count(K, M, shift) == np.count_nonzero(eigs < shift), shift
        checked += 1
    return checked


# scalar pencils that keep or drop each end vertex: tips and Dirichlet-like
# ends drop it, an absolute end keeps it for the alpha slot only
LAYOUT_PROFILES = [
    geo.spindle(1.0),
    geo.truncated_spindle(2.0, 1.0),
    geo.truncated_spindle(2.0, 1.0).reversed(),
    geo.annulus(1.0, 2.0),
    geo.cone(1.0, bc=BCKind.DIRICHLET_LIKE),
]


def test_inertia_count_matches_dense_on_every_end_layout():
    layouts = set()
    for profile in LAYOUT_PROFILES:
        for p in range(4):
            for prob in problems_for(profile, 2, p):
                if prob.size == 1:
                    K, M, keep = _assemble(prob, make_mesh(profile, PENCIL_MESH))
                    layouts.add((bool(keep[0]), bool(keep[-1])))
                    assert assert_count_matches_dense(K, M, [-1.0, 0.5, 17.0, 51.0]) > 4, prob.label
    assert layouts == {(True, True), (True, False), (False, True), (False, False)}
    assert assert_count_matches_dense(*oracle_pencil(), [-1.0, 0.5, 17.0, 51.0]) > 4


def test_inertia_count_raises_on_a_zero_midpoint_pivot():
    K, M = band_pencil(*PENCILS["tip_scalar"])
    # the tip drops the first vertex, so dof 2 is a midpoint
    assert M[0, 2] == 0.0
    K = K.copy()
    K[2, 2] = M[2, 2]
    with pytest.raises(ConvergenceError, match="zero midpoint pivot"):
        inertia_count(K, M, 1.0)


@pytest.mark.parametrize("case", sorted(PENCILS))
def test_inverse_iteration_band_storage_is_the_sparse_diagonals(case, monkeypatch):
    # dgbtrf's input, built from the upper band, is bit for bit bw zero rows
    # over band_to_sparse's reversed diagonals, so no eigenform moves
    K, M = band_pencil(*PENCILS[case])
    cap = 51.0
    vals = solve_pencil(K, M, cap)
    captured = []
    dgbtrf = scipy.linalg.lapack.dgbtrf
    monkeypatch.setattr(scipy.linalg.lapack, "dgbtrf", lambda ab, kl, ku: captured.append(ab) or dgbtrf(ab, kl, ku))
    bw, n = K.shape[0] - 1, K.shape[1]
    for i, lam in enumerate(vals):
        inverse_iteration(K, M, vals, cap, i)
        expected = np.vstack([np.zeros((bw, n)), band_to_sparse(K - lam * M).data[::-1]])
        assert captured[-1].dtype == expected.dtype and captured[-1].tobytes() == expected.tobytes()
    assert len(captured) == len(vals) >= 2


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
    vals = solve_pencil(K, M, 0.5 * (eigs[k - 1] + eigs[k]))
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


def exposed_ends(kind):
    """Map a profile to the same profile with each end that is not a tip given ``kind``."""

    def remap(profile):
        bc = {end: end if end is BCKind.REGULAR_TIP else kind for end in BCKind}
        return dataclasses.replace(profile, start_bc=bc[profile.start_bc], end_bc=bc[profile.end_bc])

    return remap


dirichlet_ends = exposed_ends(BCKind.DIRICHLET_LIKE)
aps_ends = exposed_ends(BCKind.APS)


@settings(max_examples=20, deadline=None)
@given(profile=st.one_of(some_mirrored, some_mirrored.map(dirichlet_ends)), n=st.sampled_from([2, 3]))
def test_channel_bound_on_random_profiles(profile, n):
    # below lower_bound() = mu^2 / R_max^2 a scalar slot has only its zero
    # modes (exact Sturm count), and a coupled channel at most that many
    # coarse FEM values (inertia count)
    nodes = make_mesh(profile, MeshSpec(h=0.1))
    for p in range(n + 2):
        for prob in problems_for(profile, n, p, 10.0):
            cap = (1.0 - 1e-9) * prob.lower_bound()
            if cap <= 0.0:
                continue
            kernel_dim = first_order_kernel(prob).dim
            if prob.size == 1:
                assert eigen_count(prob, cap) == kernel_dim, prob.label
            else:
                K, M, _ = _assemble(prob, nodes)
                assert inertia_count(K, M, cap) <= kernel_dim, prob.label


@settings(max_examples=20, deadline=None)
@given(profile=st.one_of(some_mirrored, some_mirrored.map(dirichlet_ends)), n=st.sampled_from([2, 3]), data=st.data())
def test_inertia_count_matches_dense_on_random_profiles(profile, n, data):
    # one channel pencil, and the oracle's pencil of a random sphere mode
    # where the oracle applies (no Dirichlet-like end)
    prob = data.draw(st.sampled_from(problems_for(profile, n, data.draw(st.integers(0, n + 1)))))
    pencils = [_assemble(prob, make_mesh(profile, PENCIL_MESH))[:2]]
    if BCKind.DIRICHLET_LIKE not in (profile.start_bc, profile.end_bc):
        pencils.append(oracle_pencil(profile, n, data.draw(st.sampled_from([0.0, n, 2.0 * (n + 1)]))))
    for K, M in pencils:
        shifts = data.draw(st.lists(st.floats(-10.0, 200.0), min_size=4, max_size=4))
        assert assert_count_matches_dense(K, M, shifts) > 0


FEM_CACHES = (fem._mesh_integrals, fem._dof_layout)


def assert_cold_assembly_matches_warm(profile, n):
    """Assemble every channel pencil of the profile on two nested meshes, each
    while the caches hold what the channels before it left, then each again
    after cache_clear(): K, M and keep must agree bit for bit.  The cached
    arrays are read-only.  Returns the (size, first dof kept, last dof kept)
    layouts seen."""
    nodes = make_mesh(profile, MeshSpec(h=0.1, tip_floor=0.25))
    probs = [prob for p in range(n + 2) for prob in problems_for(profile, n, p, 15.0)]
    cases = [(prob, mesh) for mesh in (nodes, refine_mesh(nodes)) for prob in probs]
    warm = [_assemble(prob, mesh) for prob, mesh in cases]
    layouts = set()
    for (prob, mesh), pencil in zip(cases, warm):
        for cache in FEM_CACHES:
            cache.cache_clear()
        cold = _assemble(prob, mesh)
        for a, b in zip(cold, pencil):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), prob.label
        layouts.add((prob.size, bool(cold[2][0]), bool(cold[2][-1])))
    _, M, keep = warm[-1]
    for cached in (M, keep, nodes):
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = cached[0]
    return layouts


def test_cold_assembly_matches_warm_on_every_end_layout():
    layouts = set().union(*(assert_cold_assembly_matches_warm(profile, 2) for profile in LAYOUT_PROFILES))
    assert {(1, True, True), (1, True, False), (1, False, True), (1, False, False)} <= layouts
    assert {(2, True, False), (2, False, False)} <= layouts


@settings(max_examples=8, deadline=None)
@given(profile=st.one_of(some_mirrored, some_mirrored.map(dirichlet_ends)), n=st.sampled_from([2, 3]))
def test_cold_assembly_matches_warm_on_random_profiles(profile, n):
    assert_cold_assembly_matches_warm(profile, n)


def test_assembly_reuses_each_mesh_across_channels(monkeypatch):
    # every channel of a profile is assembled on the same two nested meshes,
    # so their element integrals and dof layout are built twice per run,
    # however many channels there are
    from conesum.analysis import assemble_spectrum

    assembled = []
    assemble = fem._assemble
    monkeypatch.setattr(fem, "_assemble", lambda *a: assembled.append(a[0].label) or assemble(*a))
    for cache in FEM_CACHES:
        cache.cache_clear()
    slot_cache: dict = {}
    for p in range(5):
        assemble_spectrum(geo.spindle(1.0), 3, p, 40.0, mesh=MESH, _slot_cache=slot_cache)
    assert len(assembled) > 10
    assert fem._mesh_integrals.cache_info().misses == 2
    assert fem._dof_layout.cache_info().misses == 2


@settings(max_examples=6, deadline=None)
@given(profile=some_mirrored, n=st.sampled_from([2, 3]))
def test_first_positive_exact_matches_whole_spectrum_on_random_profiles(profile, n):
    from conesum.analysis import assemble_spectrum, exact_form_spectrum, first_positive_exact

    mesh = MeshSpec(h=0.1)
    for p in range(n + 1):
        lam = first_positive_exact(profile, n, p, mesh)
        # the enumeration up to any cap above lam holds it, by the bound
        # mu^2 / R_max^2 (test_channel_bound_on_random_profiles)
        cap = 1.5 * lam
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

    # (draws where FEM does not converge near a small radius are discarded:
    # test_fem_converges_on_a_scaled_thin_neck pins one)
    p = data.draw(st.integers(0, n + 1))
    try:
        base = assemble_spectrum(profile, n, p, 15.0, mesh=MESH)
        scaled = assemble_spectrum(profile.scaled(c), n, p, 15.0 / c**2, mesh=MESH.scaled(c))
    except ConvergenceError:
        reject()
    assert len(scaled.entries) == len(base.entries)
    assert scaled.zero_count == base.zero_count
    assert scaled.positive_values() == pytest.approx(base.positive_values() / c**2, rel=1e-9, abs=0)


@settings(max_examples=8, deadline=None)
@given(profile=some_mirrored, n=st.sampled_from([2, 3]), k=st.integers(1, 5), data=st.data())
def test_k_lowest_search_matches_the_full_spectrum_on_random_profiles(profile, n, k, data):
    # the sweep's search for the k lowest positive eigenvalues gives the
    # first k entries of the full spectrum: values, channels and indices
    # (draws where FEM fails near a small radius are discarded:
    # test_fem_zero_mode_on_a_thin_neck_at_n3 pins one)
    from conesum.analysis import _degree_spectrum

    p = data.draw(st.integers(0, n + 1))
    mesh = MeshSpec(h=0.1)
    for with_fields in (False, True):
        try:
            full = _degree_spectrum(profile, n, p, 15.0, None, "fem", mesh, with_fields, {})
        except (ConvergenceError, ZeroModeMismatchError):
            reject()
        part = _degree_spectrum(profile, n, p, 15.0, k, "fem", mesh, with_fields, {})
        assert part.zero_count == full.zero_count
        for j in range(1, min(k, len(full.positive_values())) + 1):
            a, b = full.positive_entry(j), part.positive_entry(j)
            assert (b.problem.label, b.index) == (a.problem.label, a.index), (with_fields, j)
            assert b.value == pytest.approx(a.value, rel=1e-10), (with_fields, j)


def test_fem_indices_follow_values_at_a_double_value():
    # a mirrored profile at the middle degree of n = 3: the coupled channel
    # holds each value twice, and the copies' Richardson extrapolations cross
    # by rounding (2.409278901904472 at pencil index 0, ...702 at 1); the
    # lower copy must be index 0 at any cap, so the search and the full
    # spectrum name one entry
    from conesum.analysis import _degree_spectrum

    profile = mirrored(geo.Profile(
        segments=(
            geo.Segment(0.0, 0.8975834860188074, 1),
            geo.Segment(0.8975834860188074, 1.9475834860188075, 1),
            geo.Segment(0.5298486728630758, 1.9475834860188075, -1),
        ),
        start_bc=BCKind.REGULAR_TIP,
        end_bc=BCKind.ABSOLUTE,
    ))
    mesh = MeshSpec(h=0.1)
    full = _degree_spectrum(profile, 3, 2, 15.0, None, "fem", mesh, True, {})
    for prob in {e.problem.label: e.problem for e in full.entries}.values():
        entries = fem_spectrum(prob, mesh, 15.0).entries
        assert [e.index for e in entries] == list(range(len(entries))), prob.label
    part = _degree_spectrum(profile, 3, 2, 15.0, 1, "fem", mesh, True, {})
    a, b = full.positive_entry(1), part.positive_entry(1)
    assert (b.problem.label, b.index) == (a.problem.label, a.index) == ("p2:n3:q1:k1:plus_half", 0)


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


@settings(max_examples=8, deadline=None)
@given(
    profile=st.one_of(some_mirrored, some_mirrored.map(dirichlet_ends), some_mirrored.map(aps_ends)),
    n=st.sampled_from([2, 3]),
)
def test_secular_solver_invariant_under_reversal_on_random_profiles(profile, n):
    # the right half of the walk is the left half run on the reversed
    # profile, so reversing the profile swaps the two halves; every scalar
    # slot (coupled channels at Dirichlet-like or APS ends have none) keeps
    # its count at every lam and its spectrum
    lams = np.geomspace(0.05, 20.0, 41)
    for p in range(n + 2):
        pairs = zip(problems_for(profile, n, p, 10.0), problems_for(profile.reversed(), n, p, 10.0))
        for slot, back in ((a, b) for a, b in pairs if a.size == 1):
            assert slot.label == back.label
            assert eigen_count(back, lams).tolist() == eigen_count(slot, lams).tolist(), slot.label
            expected = transfer_spectrum(slot, 10.0).values()
            assert transfer_spectrum(back, 10.0).values() == pytest.approx(expected, rel=1e-10, abs=0), slot.label


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


@settings(max_examples=10, deadline=None)
@given(profile=some_mirrored, n=st.sampled_from([2, 3]), data=st.data())
def test_slot_cache_reads_a_lower_cap_as_a_fresh_solve_on_random_profiles(profile, n, data):
    # a slot solved up to one cap and then asked for a lower one gives what a
    # fresh solve at the lower cap gives, and raises ZeroModeMismatchError
    # exactly when that does: the gap test is stricter at a lower cap
    # (draws where FEM does not converge near a small radius are discarded)
    from conesum.analysis import _slot_spectrum

    mesh = MeshSpec(h=0.1)
    method = data.draw(st.sampled_from(["fem", "secular"]))
    # a cap among the eigenvalues, or one so low that zero modes fail the gap test
    low = 15.0 * data.draw(st.one_of(st.floats(0.01, 1.0), st.floats(6.0, 16.0).map(lambda x: 10.0**-x)))
    cache: dict = {}

    def read(slot, cap, cache):
        try:
            return [(e.value, e.index) for e in _slot_spectrum(slot, cap, method, mesh, cache)]
        except ConvergenceError:
            reject()
        except ZeroModeMismatchError:
            return None

    for p in range(n + 2):
        for slot in (s for prob in problems_for(profile, n, p, 15.0) for s in prob.slot_problems()):
            read(slot, 15.0, cache)
            fresh, cached = read(slot, low, {}), read(slot, low, cache)
            assert (cached is None) == (fresh is None), slot.label
            if fresh is not None:
                assert [i for _, i in cached] == [i for _, i in fresh], slot.label
                assert [v for v, _ in cached] == pytest.approx([v for v, _ in fresh], rel=1e-12, abs=1e-12)


@st.composite
def closed_profiles(draw):
    """A tip, 0-2 conical segments and another tip: a closed manifold."""
    radius = draw(st.floats(0.3, 1.5))
    segments = [geo.Segment(0.0, radius, +1)]
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            nxt = radius + draw(st.floats(0.3, 1.5))
            segments.append(geo.Segment(radius, nxt, +1))
        else:
            nxt = radius * draw(st.floats(0.2, 0.7))
            segments.append(geo.Segment(nxt, radius, -1))
        radius = nxt
    segments.append(geo.Segment(0.0, radius, -1))
    return geo.Profile(segments=tuple(segments), start_bc=BCKind.REGULAR_TIP, end_bc=BCKind.REGULAR_TIP)


@settings(max_examples=8, deadline=None)
@given(profile=closed_profiles(), n=st.sampled_from([2, 3]))
def test_hodge_duality_on_random_closed_profiles(profile, n):
    # the Hodge star maps p-forms onto (n+1-p)-forms of a closed manifold
    from conesum.analysis import assemble_spectrum

    # each degree is solved without a shared _slot_cache on purpose, and must
    # stay so: a shared cache hands dual slots one solve (one ode_key), and
    # the check would then test the cache key instead of the solver
    spectra = [assemble_spectrum(profile, n, p, 10.0, method="secular") for p in range(n + 2)]
    for p in range(n + 2):
        dual = spectra[n + 1 - p]
        assert spectra[p].zero_count == dual.zero_count, p
        assert spectra[p].positive_values() == pytest.approx(dual.positive_values(), rel=1e-10, abs=0), p


def hodge_dual_block(blocks, block, p):
    """The block holding the Hodge dual of ``block``'s degree-p slots: the
    coexact q-forms of S^n at level k go to the exact (n-q)-forms d
    (coexact (n-1-q)-forms) at the same level, the constants to the volume
    form, and the total degree p to n+1-p."""
    n, mode = block.n, block.mode
    q = n - mode.q if mode.harmonic else n - 1 - mode.q
    return next(
        b for b in blocks
        if b.family is block.family and (b.mode.q, b.mode.k) == (q, mode.k) and n + 1 - p in b.degrees
    )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hodge_dual_slots_have_equal_ode_data(n):
    # the identity the slot cache key rests on: a degree-p slot and its dual
    # degree-(n+1-p) slot have the same c and A entry, exactly, and the other
    # slot type, so on a closed profile (every end drops every slot) they are
    # one ODE; at absolute ends the drop swaps with the slot type
    blocks = enumerate_blocks(n, 400.0)
    closed, bounded = geo.spindle(1.0), geo.annulus(0.5, 1.0)
    for block in blocks:
        if block.family is Family.PLUS_HALF:
            # both slots in degree q+1, the dual's in degree n-q, in swapped order
            dual = hodge_dual_block(blocks, block, block.degrees[0])
            assert dual.mode.multiplicity == block.mode.multiplicity, block.label
            assert np.diag(dual.matrix).tolist() == np.diag(block.matrix)[::-1].tolist(), block.label
            assert np.diag(dual.aa_matrix).tolist() == np.diag(block.aa_matrix)[::-1].tolist(), block.label
            with pytest.raises(DomainError, match="coupled"):
                ChannelProblem(closed, n, block.degrees[0], block, (0, 1), block.mode.multiplicity).ode_key
            continue
        for i, p in enumerate(block.degrees):
            dual = hodge_dual_block(blocks, block, p)
            assert dual.mode.multiplicity == block.mode.multiplicity, block.label
            j = dual.degrees.index(n + 1 - p)
            assert dual.slots[j] != block.slots[i], block.label
            slot, dual_slot = (
                ChannelProblem(closed, n, d, b, (k,), b.mode.multiplicity)
                for d, b, k in ((p, block, i), (n + 1 - p, dual, j))
            )
            assert dual_slot.potential[0, 0] == slot.potential[0, 0], slot.label
            assert dual_slot.a_matrix[0, 0] == slot.a_matrix[0, 0], slot.label
            assert dual_slot.ode_key == slot.ode_key, slot.label
            on_annulus = (dataclasses.replace(s, profile=bounded) for s in (slot, dual_slot))
            assert len({s.ode_key for s in on_annulus}) == 2, slot.label


@settings(max_examples=12, deadline=None)
@given(profile=st.one_of(some_mirrored, closed_profiles()), n=st.sampled_from([2, 3]), data=st.data())
def test_slots_with_equal_ode_keys_are_one_problem_on_random_profiles(profile, n, data):
    # the key holds every input of the solvers: slots that share it assemble
    # bit-identical FEM pencils, count alike by the secular walk and have
    # equal kernel dimensions; closed profiles make every Hodge-dual pair
    # share a key, while the alpha and beta slots of one MINUS_HALF block
    # have equal c there and differ only in A's entry (a and -1-a)
    slots = {
        s.label: s for p in range(n + 2) for prob in problems_for(profile, n, p, 15.0) for s in prob.slot_problems()
    }
    groups: dict = {}
    for s in slots.values():
        groups.setdefault(s.ode_key, []).append(s)
    nodes = make_mesh(profile, MeshSpec(h=0.1, tip_floor=0.25))
    caps = data.draw(st.lists(st.floats(0.1, 40.0), min_size=1, max_size=3))
    for first, *rest in groups.values():
        K, M, keep = _assemble(first, nodes)
        for other in rest:
            K2, M2, keep2 = _assemble(other, nodes)
            assert np.array_equal(K, K2) and np.array_equal(M, M2) and np.array_equal(keep, keep2), other.label
            assert eigen_count(other, caps).tolist() == eigen_count(first, caps).tolist(), other.label
            assert first_order_kernel(other).dim == first_order_kernel(first).dim, other.label


@st.composite
def thin_profiles(draw):
    """1-5 conical segments through radii down to 1e-4, each end a tip or absolute."""
    radii = [10**x for x in draw(st.lists(st.floats(-4.0, 0.3), min_size=2, max_size=4, unique=True))]
    radii = [0.0] * draw(st.booleans()) + radii + [0.0] * draw(st.booleans())
    assume(all(a != b for a, b in zip(radii, radii[1:])))
    segments = tuple(geo.Segment(min(a, b), max(a, b), 1 if b > a else -1) for a, b in zip(radii, radii[1:]))
    ends = [BCKind.REGULAR_TIP if r == 0.0 else BCKind.ABSOLUTE for r in (radii[0], radii[-1])]
    return geo.Profile(segments=segments, start_bc=ends[0], end_bc=ends[1])


@settings(max_examples=200, deadline=None)
@given(profile=thin_profiles(), h=st.sampled_from([0.5, 0.1, 0.02]))
def test_mesh_resolves_every_seam_on_random_profiles(profile, h):
    # elements beside a seam of radius r are at most r/2, whatever h is
    _check_resolution(profile, make_mesh(profile, MeshSpec(h=h)))


def test_first_positive_exact_beside_a_seam_below_the_element_floor():
    # the seam at r = 0.0030 lies below h/32 at h = 0.1: its elements must
    # shrink to r/2, and the values agree with the h = 0.02 mesh
    from conesum.analysis import first_positive_exact

    profile = mirrored(geo.Profile(
        segments=(
            geo.Segment(0.068359375, 0.3125, -1),
            geo.Segment(0.013885498046875, 0.068359375, -1),
            geo.Segment(0.0030374526977539062, 0.013885498046875, -1),
        ),
        start_bc=BCKind.ABSOLUTE,
        end_bc=BCKind.ABSOLUTE,
    ))
    for p in range(3):
        coarse = first_positive_exact(profile, 2, p, MeshSpec(h=0.1))
        assert coarse == pytest.approx(first_positive_exact(profile, 2, p, MeshSpec(h=0.02)), rel=1e-9), p


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


@settings(max_examples=20, deadline=None)
@given(
    profile=st.one_of(some_mirrored, some_mirrored.map(dirichlet_ends), some_mirrored.map(aps_ends)),
    n=st.sampled_from([2, 3]),
    data=st.data(),
)
def test_eigen_count_brackets_every_root_on_random_profiles(profile, n, data):
    # mirrored profiles match at the mirror seam, where every odd eigenform
    # has a node
    p = data.draw(st.integers(0, n + 1))
    for prob in problems_for(profile, n, p, 15.0):
        if prob.size == 1:
            assert_counts_bracket_each_root(prob, transfer_spectrum(prob, 15.0).values())


def roots_agree(fem_vals, roots, rtol):
    """The value comparison of FEM against refined secular roots: equal
    counts, and each sorted pair within rtol of the larger (1e-3 floor)."""
    return len(fem_vals) == len(roots) and all(
        abs(a - b) <= rtol * max(abs(a), abs(b), 1e-3) for a, b in zip(sorted(fem_vals), roots)
    )


@settings(max_examples=60, deadline=None)
@given(profile=some_mirrored, n=st.sampled_from([2, 3]), data=st.data())
def test_count_check_agrees_with_root_comparison_on_random_profiles(profile, n, data):
    # perturbed secular roots stand in for FEM values: the Sturm-count check
    # accepts exactly when the refined roots are within CROSS_RTOL, for a
    # scalar slot and for a coupled channel as the fields path checks it
    # (draws within 1e-9 of the tolerance are discarded: the roots are
    # refined to the last bits of k, not exact)
    from conesum.analysis import CROSS_RTOL, _cross_validate
    from conesum.errors import SolverDisagreementError

    cap = 15.0
    prob = data.draw(st.sampled_from([pr for p in range(n + 2) for pr in problems_for(profile, n, p, cap)]))
    try:
        roots = transfer_spectrum(prob, cap).values()
    except ConvergenceError:
        reject()
    assume(len(roots) > 0)
    # each value uniform within three times the tolerance with probability
    # 1/m, else within it, so about half the lists are accepted at any m
    rnd = data.draw(st.randoms(use_true_random=False))
    deltas = [rnd.uniform(-3.0, 3.0) if rnd.random() < 1 / len(roots) else rnd.uniform(-1.0, 1.0) for _ in roots]
    fem_vals = [b * (1.0 + d * CROSS_RTOL) for b, d in zip(roots, deltas)]
    for a, b in zip(fem_vals, roots):
        assume(abs(abs(a - b) / max(a, b, 1e-3) - CROSS_RTOL) > 1e-9)
    edit = data.draw(st.sampled_from(["none", "drop", "extra"]))
    if edit == "drop":
        del fem_vals[data.draw(st.integers(0, len(fem_vals) - 1))]
    elif edit == "extra":
        fem_vals.append(data.draw(st.floats(0.5, cap)))
    try:
        _cross_validate(prob, fem_vals, cap)
        accepted = True
    except SolverDisagreementError as exc:
        accepted = False
        assert ("secular found" in str(exc)) == (len(fem_vals) != len(roots))
    assert accepted == roots_agree(fem_vals, roots, CROSS_RTOL), (prob.label, edit)


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

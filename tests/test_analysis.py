import io
import math
import pickle

import numpy as np
import pytest
import scipy.sparse.linalg as splinalg

from conesum import analysis
from conesum import geometry as geo
from conesum.analysis import (
    _degree_spectrum,
    assemble_spectrum,
    boundary_diagnostics,
    exact_form_spectrum,
    first_positive_exact,
    mcgowan_bound,
    mcgowan_report,
    partition_gradient_constant,
    sweep_epsilon,
    xi_eps,
    xi_one,
)
from conesum.cone_operator import enumerate_blocks
from conesum.errors import ConvergenceError, DomainError, SolverDisagreementError, ZeroModeMismatchError
from conesum.geometry import connected_sum_profile, cover_profiles, spindle, truncated_spindle
from conesum.radial import fem
from conesum.radial.fem import MeshSpec
from conesum.radial.problems import EigList, degree_problems
from conesum.radial.sturm import sturm_liouville_oracle
from conesum.radial.transfer import transfer_spectrum

MESH = MeshSpec(h=0.02)


@pytest.fixture(scope="module")
def spindle_spectra():
    prof = spindle(1.0)
    return {p: assemble_spectrum(prof, 2, p, 40.0, method="fem", mesh=MESH) for p in range(4)}


def test_spindle_p0_matches_oracle(spindle_spectra):
    res = spindle_spectra[0]
    assert res.zero_count == 1
    mine = res.positive_values()
    oracle = sturm_liouville_oracle(spindle(1.0), 2, 40.0, h=0.02)
    oracle = oracle[oracle > 1e-7]
    m = min(len(mine), len(oracle))
    assert mine[:m] == pytest.approx(oracle[:m], rel=1e-6)


def test_spindle_zero_counts_are_betti_numbers(spindle_spectra):
    assert [spindle_spectra[p].zero_count for p in range(4)] == [1, 0, 0, 1]


def test_spindle_hodge_duality(spindle_spectra):
    a, b = spindle_spectra[1].positive_values(), spindle_spectra[2].positive_values()
    m = min(len(a), len(b))
    assert a[:m] == pytest.approx(b[:m], rel=1e-6)
    a, b = spindle_spectra[0].positive_values(), spindle_spectra[3].positive_values()
    m = min(len(a), len(b))
    assert a[:m] == pytest.approx(b[:m], rel=1e-6)


def test_spindle_supersymmetry(spindle_spectra):
    # every positive function eigenvalue reappears on 1-forms
    p0 = list(spindle_spectra[0].positive_values())
    p1 = list(spindle_spectra[1].positive_values())
    for v in p0:
        hit = next((i for i, w in enumerate(p1) if abs(w - v) <= 1e-6 * max(v, w)), None)
        assert hit is not None, f"{v} missing from the 1-form spectrum"
        p1.pop(hit)


def test_positive_entry_indexing(spindle_spectra):
    res = spindle_spectra[0]
    vals = res.positive_values()
    for k in (1, 2, 4):
        entry = res.positive_entry(k)
        assert entry.value == pytest.approx(vals[k - 1], rel=1e-12)
    with pytest.raises(DomainError):
        res.positive_entry(10**6)


def test_enumeration_certificate(spindle_spectra):
    # complete by the proven bound mu^2 / R_max^2: every degree-p block whose
    # mode has mu^2 <= mu_sq_cut is enumerated, and none above it
    for p, res in spindle_spectra.items():
        cert = res.certificate
        assert cert["mu_sq_cut"] == cert["lam_max"] * cert["r_max"] ** 2 == 40.0
        probs = degree_problems(res.profile, 2, p, cert["lam_max"])[0]
        wider = [b for b in enumerate_blocks(2, 4.0 * cert["mu_sq_cut"]) if p in b.degrees]
        inside = [f"p{p}:{b.label}" for b in wider if b.mode.mu_sq <= cert["mu_sq_cut"]]
        assert [pr.label for pr in probs] == inside and cert["included"] == len(inside)
        assert len(wider) > len(inside)
        assert all(pr.lower_bound() <= cert["lam_max"] for pr in probs)


def test_assemble_rejects_unknown_method():
    with pytest.raises(DomainError):
        assemble_spectrum(spindle(1.0), 2, 0, 10.0, method="magic")


@pytest.mark.parametrize("shift", [1, -1], ids=["one_too_many", "one_too_few"])
def test_assemble_rejects_zero_mode_mismatch(monkeypatch, shift):
    # FEM's spectrum must show a gap right after the analytic kernel
    # dimension; an analytic count one too high or one too low must be caught
    import dataclasses

    import conesum.analysis as analysis

    real = analysis.first_order_kernel

    def off_by_one(prob):
        kernel = real(prob)
        return dataclasses.replace(kernel, dim=max(kernel.dim + shift, 0))

    monkeypatch.setattr(analysis, "first_order_kernel", off_by_one)
    with pytest.raises(ZeroModeMismatchError):
        assemble_spectrum(spindle(1.0), 2, 0, 10.0, method="fem", mesh=MESH)


def _entry_rows(res):
    return [(e.value, e.problem.label, e.index, e.multiplicity) for e in res.entries]


def test_slot_cache_solves_each_distinct_ode_once(monkeypatch):
    # the hodge benchmark's M_eps: its Hodge-dual slots are one radial ODE
    # (drops at two tips, equal c and A), so 58 slot labels need 29 solves
    import conesum.analysis as analysis

    prof = connected_sum_profile(spindle(1.0), truncated_spindle(2.0, 1.0), 0.025)
    degrees = range(5)
    alone = {p: assemble_spectrum(prof, 3, p, 100.0, mesh=MESH) for p in degrees}

    solved = []
    real = analysis.fem_spectrum

    def counting(prob, *args, **kwargs):
        solved.append(prob.ode_key)
        return real(prob, *args, **kwargs)

    monkeypatch.setattr(analysis, "fem_spectrum", counting)
    cache: dict = {}
    shared = {p: assemble_spectrum(prof, 3, p, 100.0, mesh=MESH, _slot_cache=cache) for p in degrees}
    for p in degrees:
        assert _entry_rows(shared[p]) == _entry_rows(alone[p]), p
        assert shared[p].zero_count == alone[p].zero_count
    # one FEM solve per distinct scalar ODE, none on a coupled problem
    slots = [s for p in degrees for prob in degree_problems(prof, 3, p, 100.0)[0] for s in prob.slot_problems()]
    assert len({s.label for s in slots}) == 58
    assert len(solved) == len(set(solved)) == 29
    assert set(solved) == {s.ode_key for s in slots}


def test_slot_cache_rejects_a_hit_with_another_kernel_dimension(monkeypatch):
    # on the closed spindle the constants slot of degree 0 and the volume-form
    # slot of degree 3 are one ODE; a cache hit must not hand one's spectrum
    # to the other once their kernel dimensions differ
    import dataclasses

    import conesum.analysis as analysis

    prof = spindle(1.0)
    p0 = next(pr for pr in degree_problems(prof, 2, 0, 10.0)[0] if pr.block.mode.harmonic)
    p3 = next(pr for pr in degree_problems(prof, 2, 3, 10.0)[0] if pr.block.mode.harmonic)
    assert p0.ode_key == p3.ode_key and p0.label != p3.label
    real = analysis.first_order_kernel

    def one_more_on_p3(prob):
        kernel = real(prob)
        return dataclasses.replace(kernel, dim=kernel.dim + 1) if prob.label == p3.label else kernel

    monkeypatch.setattr(analysis, "first_order_kernel", one_more_on_p3)
    cache: dict = {}
    assert analysis._slot_spectrum(p0, 10.0, "fem", MESH, cache)
    with pytest.raises(ZeroModeMismatchError, match=f"{p3.label} and {p0.label} are one radial ODE"):
        analysis._slot_spectrum(p3, 10.0, "fem", MESH, cache)


def test_unit_cover_inputs_solve_each_slot_once(monkeypatch):
    # U2 and U12 come at unit scale, so over an eps ladder each unit ODE is
    # solved once, at the first eps; mu^0(U12) for p = 1 and mu^1(U12) for
    # p = 2 are one search
    import conesum.analysis as analysis

    m1, m2 = spindle(1.0), truncated_spindle(2.0, 1.0)
    _, u2, u12 = cover_profiles(m1, m2, 0.2)
    solved = []
    real = analysis.fem_spectrum

    def counting(prob, *args, **kwargs):
        solved.append(prob.ode_key)
        return real(prob, *args, **kwargs)

    monkeypatch.setattr(analysis, "fem_spectrum", counting)
    cache: dict = {}
    unit_solves = []
    for eps in (0.2, 0.1, 0.05, 0.025):
        reps = [mcgowan_report(m1, m2, 2, p, eps, MESH, _slot_cache=cache) for p in (1, 2)]
        assert reps[0].mu_pm1_u12 == reps[1].mu_pm1_u12
        unit_solves.append(sum(key[0] in (u2, u12) for key in solved))
    assert unit_solves[0] > 0 and set(unit_solves) == {unit_solves[0]}
    assert len(solved) == len(set(solved))
    searched = {key[:3] for key in cache if len(key) == 4}
    assert {(u2, 2, 1), (u2, 2, 2), (u12, 2, 1)} <= searched and (u12, 2, 0) not in searched


def test_coupled_problems_without_slot_reduction():
    # APS ends break the slot reduction, so eigenvalues alone are refused;
    # the coupled FEM solve behind eigenfields refuses them too, since an
    # APS end only drops dofs of scalar slots
    prof = truncated_spindle(2.0, 1.0, bc=geo.BCKind.APS)
    with pytest.raises(DomainError, match="no scalar slot reduction"):
        assemble_spectrum(prof, 2, 1, 20.0, mesh=MESH)
    with pytest.raises(DomainError, match="coupled problem at an APS end"):
        _degree_spectrum(prof, 2, 1, 20.0, None, "fem", MESH, True, {})
    # scalar slots at the APS end still carry eigenfields
    res = _degree_spectrum(prof, 2, 0, 20.0, None, "fem", MESH, True, {})
    assert [e for e in res.entries if e.value > 0.0]
    assert all(e.field is not None for e in res.entries if e.value > 0.0)


def test_first_positive_exact_grows_its_enumeration_bound(monkeypatch):
    # below a bound too small for any positive eigenvalue, every slot comes
    # back empty; the bound grows fourfold until one has a value
    import conesum.analysis as analysis

    prof = spindle(1.0)
    expected = first_positive_exact(prof, 2, 1, MESH)
    caps = []
    real = analysis.fem_spectrum
    monkeypatch.setattr(analysis, "fem_spectrum", lambda prob, mesh, cap: caps.append(cap) or real(prob, mesh, cap))
    monkeypatch.setattr(analysis, "FIRST_EXACT_BOUND", 0.01)
    assert first_positive_exact(prof, 2, 1, MESH) == pytest.approx(expected, rel=1e-10)
    grown = sorted({c for c in caps if c < expected})
    assert len(grown) >= 2
    assert grown == pytest.approx([0.01 * 4.0**i for i in range(len(grown))], rel=1e-12)


# (eps, p) -> (mu^p(U1), mu^p(U2), mu^{p-1}(U12), bound) of the default sweep,
# frozen from the windowed search that solved whole exact-form spectra
DEFAULT_SWEEP_MCGOWAN = {
    (0.2, 1): (4.280566222435638, 20.16481123042403, 21.16616855065401, 1.0210040635009736),
    (0.2, 2): (7.1720455885609615, 29.26603749693629, 21.16616855065401, 1.6656367001801096),
    (0.1, 1): (4.326018024775083, 80.65924492169611, 84.66467420261604, 1.1872103970365164),
    (0.1, 2): (7.481922952620969, 117.06414998774515, 84.66467420261604, 2.0334614628788397),
    (0.05, 1): (4.332080464522471, 322.63697968678446, 338.65869681046416, 1.23604088456649),
    (0.05, 2): (7.522214963140353, 468.2565999509806, 338.65869681046416, 2.1406880479774837),
    (0.025, 1): (4.332848492273436, 1290.5479187471378, 1354.6347872418567, 1.2486671736030448),
    (0.025, 2): (7.527217414317854, 1873.0263998039225, 1354.6347872418567, 2.1678112995932524),
}


def test_default_sweep_mcgowan_inputs_are_frozen():
    cache: dict = {}
    for (eps, p), frozen in DEFAULT_SWEEP_MCGOWAN.items():
        rep = mcgowan_report(spindle(1.0), truncated_spindle(2.0, 1.0), 2, p, eps, MESH, _slot_cache=cache)
        assert (rep.mu_p_u1, rep.mu_p_u2, rep.mu_pm1_u12, rep.bound) == pytest.approx(frozen, rel=1e-10)


def test_first_positive_exact_solves_only_slots_that_can_win(monkeypatch):
    # unit U2 at p = 2: the whole exact-form spectrum below 25 takes 18 slot
    # solves; the search solves the two slots whose lower bound is below lam*
    import conesum.analysis as analysis

    eps = 0.2
    u2 = cover_profiles(spindle(1.0), truncated_spindle(2.0, 1.0), eps)[1]
    solved = []
    real = analysis.fem_spectrum
    monkeypatch.setattr(analysis, "fem_spectrum", lambda prob, *args: solved.append(prob) or real(prob, *args))
    lam = first_positive_exact(u2, 2, 2, MESH)
    assert lam == pytest.approx(DEFAULT_SWEEP_MCGOWAN[(eps, 2)][1] * eps**2, rel=1e-10)
    assert len(solved) == 2
    assert all(prob.lower_bound() <= lam for prob in solved)


@pytest.mark.parametrize("summand", ["m1", "m2"])
def test_mcgowan_report_invariant_under_split_segment(summand):
    # a smooth breakpoint in either summand changes neither the cover nor
    # its bound
    m1, m2 = spindle(1.0), truncated_spindle(2.0, 1.0)
    split = (geo.split_segment(m1, 0, 0.5), m2) if summand == "m1" else (m1, geo.split_segment(m2, 0, 1.5))
    whole_cache: dict = {}
    split_cache: dict = {}
    for p in (1, 2):
        whole = mcgowan_report(m1, m2, 2, p, 0.1, MESH, _slot_cache=whole_cache)
        refined = mcgowan_report(*split, 2, p, 0.1, MESH, _slot_cache=split_cache)
        assert refined.bound == pytest.approx(whole.bound, rel=1e-9), p


def test_mcgowan_formula_examples():
    assert mcgowan_bound(1, 1, 1, 1, 1) == pytest.approx(0.25)
    # large mu_p_u1 limit: bound increases toward mu2 / (omega c / mu12 + 1)
    near = mcgowan_bound(1e12, 2.0, 3.0, 1.0, 1.5)
    assert near == pytest.approx(2.0 / (1.5 / 3.0 + 1.0), rel=1e-9)
    small = mcgowan_bound(1.0, 2.0, 3.0, 1.0, 1.5)
    assert small < near
    with pytest.raises(DomainError):
        mcgowan_bound(0.0, 1, 1, 1, 1)


def test_partition_gradient_constant():
    eps = 0.1
    assert partition_gradient_constant(eps) == pytest.approx(1.0 / (eps * math.log(2.0)) ** 2)


def test_annulus_scaling_of_cover_eigenvalue():
    # mu^{p-1}(U12) scales exactly as eps^-2: the cover's U12, the annulus
    # [eps, 2 eps], is eps times the unit piece that mcgowan_report solves
    m1, m2 = spindle(1.0), truncated_spindle(2.0, 1.0)
    unit = cover_profiles(m1, m2, 0.2)[2]
    lam = assemble_spectrum(unit, 2, 0, 25.0, mesh=MESH).positive_values()[0]
    for eps in (0.2, 0.1):
        assert cover_profiles(m1, m2, eps)[2] == unit
        u12 = geo.annulus(eps, 2 * eps)
        res = assemble_spectrum(u12, 2, 0, 25.0 / eps**2, mesh=MESH.scaled(eps))
        assert res.positive_values()[0] * eps**2 == pytest.approx(lam, rel=1e-9)


def test_exact_forms_recursion():
    # exact 1-form spectrum is the positive function spectrum
    prof = spindle(1.0)
    e1 = exact_form_spectrum(prof, 2, 1, 30.0, MESH)
    p0 = assemble_spectrum(prof, 2, 0, 30.0, mesh=MESH).positive_values()
    assert e1 == pytest.approx(p0, rel=1e-9)
    e2 = exact_form_spectrum(prof, 2, 2, 30.0, MESH)
    assert first_positive_exact(prof, 2, 2, MESH) == pytest.approx(e2[0], rel=1e-9)
    # each positive p-eigenvalue is exact or coexact, and coexact p is exact p+1
    for prof in (spindle(1.0), geo.annulus(1.0, 2.0)):
        for n in (2, 3):
            exact = {p: exact_form_spectrum(prof, n, p, 30.0, MESH) for p in range(1, n + 2)}
            for p in range(1, n + 1):
                full = assemble_spectrum(prof, n, p, 30.0, mesh=MESH).positive_values()
                split = np.sort(np.concatenate([exact[p], exact[p + 1]]))
                assert len(split) == len(full), (n, p)
                assert split == pytest.approx(full, rel=1e-6)


def test_annulus_has_no_middle_degree_zero_modes():
    # H^{p-1}(U1 cap U2) = 0 for 1 < p <= n: no lam = 0 in degrees 1..n-1
    u12 = geo.annulus(1.0, 2.0)
    res = assemble_spectrum(u12, 2, 1, 25.0, mesh=MESH)
    assert res.zero_count == 0
    # while degrees 0 and 2 carry the cohomology of S^2 x I
    assert assemble_spectrum(u12, 2, 0, 25.0, mesh=MESH).zero_count == 1
    assert assemble_spectrum(u12, 2, 2, 25.0, mesh=MESH).zero_count == 1


def test_xi_eps_endpoints():
    eps = 0.01
    assert xi_eps(2 * eps, eps) == 0.0
    assert xi_eps(2 * math.sqrt(eps), eps) == 1.0
    assert xi_eps(2 * eps**0.75, eps) == pytest.approx(0.5, rel=1e-12)
    assert xi_one(0.4) == 1.0 and xi_one(1.1) == 0.0 and 0 < xi_one(0.75) < 1


@pytest.fixture(scope="module")
def small_sweep():
    return sweep_epsilon(
        m1=spindle(1.0),
        m2=truncated_spindle(2.0, 1.0),
        n=2,
        degrees=[0, 1],
        epsilons=[0.2, 0.1],
        lam_max=40.0,
        k_track=3,
        mesh=MESH,
        method="fem",
    )


def test_sweep_rows_and_checks(small_sweep):
    rep = small_sweep
    assert len(rep.rows) == 2 * 2 * 3
    assert rep.checks["errors_decreasing"]
    assert rep.checks["zero_counts_constant"]
    assert rep.checks["mcgowan_below_min"]
    for r in rep.rows:
        assert r.lam_eps > 0 and r.lam_m1 > 0
        assert r.zero_count == (1 if r.degree == 0 else 0)


def test_sweep_mcgowan_entries(small_sweep):
    rep = small_sweep
    for (eps, p), m in rep.mcgowan.items():
        assert m.bound > 0
        assert m.c_rho == pytest.approx(partition_gradient_constant(eps))
    # the scaled-cover inputs grow like eps^-2
    m_02 = rep.mcgowan[(0.2, 1)]
    m_01 = rep.mcgowan[(0.1, 1)]
    assert m_01.mu_p_u2 == pytest.approx(4.0 * m_02.mu_p_u2, rel=1e-9)
    assert m_01.mu_pm1_u12 == pytest.approx(4.0 * m_02.mu_pm1_u12, rel=1e-9)


def test_sweep_diagnostics_structure(small_sweep):
    rep = small_sweep
    for (eps, p), diags in rep.diagnostics.items():
        for d in diags:
            assert d is not None
            assert d.neg_trace_sq >= 0
            assert d.cutoff_energy <= d.cutoff_energy_bound
            assert d.phi_minus_tail_sq >= 0


def test_sweep_rejects_a_repeated_degree():
    # each row would be written twice, and the error check would compare a
    # row with its own copy
    with pytest.raises(DomainError, match="degrees must not repeat"):
        sweep_epsilon(spindle(1.0), truncated_spindle(2.0, 1.0), 2, [0, 0], [0.2, 0.1], 20.0, 2, MeshSpec(h=0.02))


@pytest.mark.parametrize(
    "degrees, epsilons, k_track, message",
    [
        ([], [0.2], 2, "degrees must not repeat or be empty"),
        ([0], [], 2, "epsilons must be non-empty"),
        ([0], [0.2], 0, "k_track must be at least 1"),
        ([0], [0.2], -1, "k_track must be at least 1"),
    ],
)
def test_sweep_rejects_a_sweep_without_rows(degrees, epsilons, k_track, message):
    # with no rows every check of the report would hold vacuously
    with pytest.raises(DomainError, match=message):
        sweep_epsilon(spindle(1.0), truncated_spindle(2.0, 1.0), 2, degrees, epsilons, 20.0, k_track, MESH)


def test_sweep_computes_only_the_tracked_eigenforms(monkeypatch):
    # ARPACK returns values only; an eigenform comes from inverse iteration,
    # and only for a tracked row's eigenvalue
    eigsh, solve = splinalg.eigsh, fem.inverse_iteration
    vector_calls, eigenforms = [], []

    def spy_eigsh(*args, **kwargs):
        vector_calls.append(kwargs.get("return_eigenvectors", True))
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(splinalg, "eigsh", spy_eigsh)
    monkeypatch.setattr(fem, "inverse_iteration", lambda *a: eigenforms.append(a[-1]) or solve(*a))
    rep = sweep_epsilon(
        m1=spindle(1.0), m2=truncated_spindle(2.0, 1.0), n=2, degrees=[0, 1],
        epsilons=[0.2, 0.1], lam_max=20.0, k_track=2, mesh=MESH,
    )
    assert vector_calls and not any(vector_calls)
    assert 0 < len(eigenforms) <= 2 * 2 * 2
    assert all(d is not None for diags in rep.diagnostics.values() for d in diags)


def test_k_lowest_search_keeps_only_complete_values():
    # the search's result ends at lam*, its k-th positive value: every value
    # it holds is the full spectrum's, and past them it raises
    m_eps = connected_sum_profile(spindle(1.0), truncated_spindle(2.0, 1.0), 0.1)
    for p in (0, 1):
        full = assemble_spectrum(m_eps, 2, p, 40.0, mesh=MESH)
        part = _degree_spectrum(m_eps, 2, p, 40.0, 3, "fem", MESH, False, {})
        vals, whole = part.positive_values(), full.positive_values()
        assert part.lam_max == vals[2] and part.zero_count == full.zero_count
        assert vals == pytest.approx(whole[: len(vals)], rel=1e-10)
        assert vals[-1] == part.lam_max < whole[len(vals)]
        with pytest.raises(DomainError, match=f"fewer than {len(vals) + 1} positive eigenvalues"):
            part.positive_entry(len(vals) + 1)


def test_sweep_solves_or_counts_every_channel(monkeypatch):
    # every channel of M1 (solved through its slots) and of each M_eps
    # (solved as such, with fields) is solved, inertia-counted or bounded
    # out: its lower bound is above its degree's final lam*, the third
    # positive value; only the channels that can hold a tracked value are
    # solved
    solved, counted = [], []
    fem_spectrum, coarse_count = analysis.fem_spectrum, analysis.coarse_count
    monkeypatch.setattr(analysis, "fem_spectrum", lambda pr, *a, **kw: solved.append(pr) or fem_spectrum(pr, *a, **kw))
    monkeypatch.setattr(analysis, "coarse_count", lambda pr, *a: counted.append(pr) or coarse_count(pr, *a))
    m1, m2 = spindle(1.0), truncated_spindle(2.0, 1.0)
    rep = sweep_epsilon(m1=m1, m2=m2, n=2, degrees=[0, 1], epsilons=[0.2, 0.1], lam_max=40.0, k_track=3, mesh=MESH)
    lam_star = {(m1, r.degree): r.lam_m1 for r in rep.rows if r.k == 3}
    m_eps = {eps: connected_sum_profile(m1, m2, eps) for eps in (0.2, 0.1)}
    lam_star |= {(m_eps[r.eps], r.degree): r.lam_eps for r in rep.rows if r.k == 3}
    solved_keys = {(pr.profile, pr.label) for pr in solved}
    counted_keys = {(pr.profile, pr.label) for pr in counted}
    searched = [(m1, False)] + [(prof, True) for prof in m_eps.values()]
    bounded_out = 0
    for profile, with_fields in searched:
        for p in (0, 1):
            for prob in degree_problems(profile, 2, p, 40.0)[0]:
                units = {(u.profile, u.label) for u in ((prob,) if with_fields else prob.slot_problems())}
                if not (units <= solved_keys or units <= counted_keys):
                    assert prob.lower_bound() > lam_star[(profile, p)], (profile, prob.label)
                    bounded_out += 1
    assert bounded_out
    # one solve per scalar ODE in the run (McGowan's cover pieces included):
    # a lower cap reads the solve at a higher one
    scalar = [pr.ode_key for pr in solved if pr.size == 1]
    assert len(scalar) == len(set(scalar))
    # the full spectra below lam_max took 55 calls; the search takes 12, as
    # the degree-1 exceptional channel (bound 0) comes first and is solved
    # up to lam_max on M1 and each M_eps
    assert sum(pr.profile in {s[0] for s in searched} for pr in solved) <= 12


def test_search_with_both_methods_reports_a_channel_fem_misses(monkeypatch):
    # FEM, coarse counts included, sees nothing past the lowest channel;
    # the Sturm counts see values below lam*, so the count check raises
    # before any FEM solve of a missed channel: the solvers' disagreement is
    # reported, not skipped
    m_eps = connected_sum_profile(spindle(1.0), truncated_spindle(2.0, 1.0), 0.1)
    first = min(degree_problems(m_eps, 2, 0, 40.0)[0], key=lambda pr: pr.lower_bound()).label
    fem_spectrum, coarse_count = analysis.fem_spectrum, analysis.coarse_count
    solved = []

    def missed(pr, *a, **kw):
        solved.append(pr.label)
        return fem_spectrum(pr, *a, **kw) if pr.label == first else EigList(entries=[])

    monkeypatch.setattr(analysis, "fem_spectrum", missed)
    monkeypatch.setattr(analysis, "coarse_count", lambda pr, *a: coarse_count(pr, *a) if pr.label == first else 0)
    assert _degree_spectrum(m_eps, 2, 0, 40.0, 3, "fem", MESH, True, {}).positive_values().size == 3
    solved.clear()
    with pytest.raises(SolverDisagreementError, match="secular found [1-9]"):
        _degree_spectrum(m_eps, 2, 0, 40.0, 3, "both", MESH, True, {})
    assert set(solved) == {first}


def test_cross_validate_counts_each_value_in_its_bracket():
    # the Sturm counts place each secular eigenvalue in its FEM value's
    # CROSS_RTOL bracket: a scalar slot and a coupled channel's two slots
    tau = analysis.CROSS_RTOL
    scalar = degree_problems(spindle(1.0), 2, 0, 40.0)[0][0]
    coupled = next(pr for pr in degree_problems(truncated_spindle(2.0, 1.0), 2, 1, 40.0)[0] if pr.size == 2)
    for prob in (scalar, coupled):
        roots = list(transfer_spectrum(prob, 40.0).values())
        assert len(roots) >= 2, prob.label
        analysis._cross_validate(prob, roots, 40.0)
        analysis._cross_validate(prob, [roots[0] * (1 + tau / 2)] + roots[1:], 40.0)
        analysis._cross_validate(prob, roots[:-1] + [roots[-1] * (1 - tau / 2)], 40.0)
        for off in (roots[0] * (1 + 2 * tau), roots[0] * (1 - 2 * tau)):
            with pytest.raises(SolverDisagreementError, match="eigenvalue 0 disagrees"):
                analysis._cross_validate(prob, [off] + roots[1:], 40.0)
        with pytest.raises(SolverDisagreementError, match=f"secular found {len(roots)} eigenvalues, FEM {len(roots) - 1}"):
            analysis._cross_validate(prob, roots[1:], 40.0)
    # a cap within CROSS_RTOL above a secular eigenvalue may be a FEM value
    # just below that eigenvalue's own FEM value, which the solve does not
    # report, so the count at the cap is checked only to within the band
    assert scalar.label == "p0:n2:q0:kH:exceptional"
    roots = list(transfer_spectrum(scalar, 40.0).values())
    assert len(roots) == 3
    analysis._cross_validate(scalar, roots[:-1], roots[-1] * (1 + tau / 2))
    with pytest.raises(SolverDisagreementError, match="secular found 3 eigenvalues, FEM 2"):
        analysis._cross_validate(scalar, roots[:-1], roots[-1] * (1 + 3 * tau))


def test_secular_sweep_matches_the_full_spectra(monkeypatch):
    m1, m2 = spindle(1.0), truncated_spindle(2.0, 1.0)
    rep = sweep_epsilon(
        m1=m1, m2=m2, n=2, degrees=[0, 1], epsilons=[0.2, 0.1], lam_max=20.0, k_track=2, mesh=MESH,
        method="secular",
    )
    ref = {p: assemble_spectrum(m1, 2, p, 20.0, method="secular").positive_values() for p in (0, 1)}
    assert len(rep.rows) == 2 * 2 * 2
    for r in rep.rows:
        full = assemble_spectrum(connected_sum_profile(m1, m2, r.eps), 2, r.degree, 20.0, method="secular")
        assert r.lam_eps == pytest.approx(full.positive_values()[r.k - 1], rel=1e-10)
        assert r.lam_m1 == pytest.approx(ref[r.degree][r.k - 1], rel=1e-10)
        assert r.zero_count == full.zero_count and math.isnan(r.bord_ratio)
    # the secular search counts by Sturm, not by a FEM pencil
    monkeypatch.setattr(fem, "_assemble", lambda *a: pytest.fail("FEM pencil assembled"))
    m_eps = connected_sum_profile(m1, m2, 0.1)
    for with_fields in (False, True):
        assert len(_degree_spectrum(m_eps, 2, 1, 20.0, 2, "secular", MESH, with_fields, {}).positive_values()) >= 2


def test_sweep_rejects_a_k_track_beyond_the_spectrum():
    # 4 positive eigenvalues of M1 and of M_eps lie below 10 on functions
    with pytest.raises(DomainError, match=r"fewer than 5 positive eigenvalues below lam_max=10.0"):
        sweep_epsilon(
            m1=spindle(1.0), m2=truncated_spindle(2.0, 1.0), n=2, degrees=[0],
            epsilons=[0.2], lam_max=10.0, k_track=40, mesh=MESH,
        )


def test_sweep_rejects_unsorted_epsilons():
    for epsilons in ([0.1, 0.2], [0.1, 0.1]):
        with pytest.raises(DomainError):
            sweep_epsilon(
                m1=spindle(1.0), m2=truncated_spindle(2.0, 1.0), n=2, degrees=[0],
                epsilons=epsilons, lam_max=10.0, k_track=1,
            )


def test_boundary_diagnostics_rejects_an_eps_off_the_glue_radius():
    m_eps = connected_sum_profile(spindle(1.0), truncated_spindle(2.0, 1.0), 0.1)
    res = _degree_spectrum(m_eps, 2, 0, 20.0, None, "fem", MESH, True, {})
    fld = next(e.field for e in res.entries if e.field is not None)
    assert boundary_diagnostics(fld, 0.1, 2, 1.0).eps == 0.1
    with pytest.raises(DomainError, match="glued at eps=0.05"):
        boundary_diagnostics(fld, 0.05, 2, 1.0)


def test_boundary_diagnostics_rejects_a_glue_radius_without_its_seam():
    # glue_radius says eps, but no radial-minimum seam lies at eps
    tip = geo.BCKind.REGULAR_TIP
    prof = geo.Profile(spindle(1.0).segments, tip, tip, glue_radius=0.1)
    prob = degree_problems(prof, 2, 0, 20.0)[0][0]
    fld = fem.fem_spectrum(prob, MESH, 20.0, want_vectors=True).entries[0].field
    with pytest.raises(DomainError, match="glued at eps=0.1"):
        boundary_diagnostics(fld, 0.1, 2, 1.0)


def _per_point_diagnostics(field, eps):
    """(neg_trace_sq, phi_minus_tail_sq, cutoff_energy, psi_overlap) by the
    per-point loops: each active-slot value is embedded into the full block
    and projected on each eigenvector of A, gamma by gamma."""
    prob, profile = field.problem, field.problem.profile
    t_glue = next(s.position for s in profile.seams if s.kind is geo.SeamKind.RADIAL_MIN)
    seg_idx = profile.breakpoints.index(t_glue)
    seg = profile.segments[seg_idx]
    d = prob.orientation_signs(seg.orientation)

    def project(values):
        sigma = np.zeros(prob.block.size)
        for j, slot in enumerate(prob.slot_indices):
            sigma[slot] = d[j] * values[j]
        return prob.block.eigvecs.T @ sigma

    w = project(field.values_at(np.array([t_glue]))[0])
    neg = sum(w[i] ** 2 for i, g in enumerate(prob.block.gammas) if g < 0)
    tq, wq, vals = field.quadrature()
    mask = (tq >= t_glue) & (tq <= profile.breakpoints[seg_idx + 1])
    tq, wq = tq[mask], wq[mask]
    rq = seg.r_lo + (tq - t_glue)
    phi_minus_sq, phi_plus, psi = np.zeros(len(tq)), np.zeros(len(tq)), np.zeros(len(tq))
    for q, v in enumerate(vals[mask]):
        comp = project(v)
        for i, g in enumerate(prob.block.gammas):
            if g < 0:
                phi_minus_sq[q] += comp[i] ** 2
            else:
                phi_plus[q] += comp[i]
                psi[q] += eps**g * rq[q] ** (-g) * w[i]
    x1, xe, dxe = xi_one(rq), xi_eps(rq, eps), analysis.xi_eps_gradient(rq, eps)
    return (
        neg,
        np.sum(wq * ((1 - xe) * x1) ** 2 * phi_minus_sq),
        np.sum(wq * (dxe * x1) ** 2 * phi_minus_sq),
        np.sum(wq * (x1 * phi_plus - x1 * psi) * x1 * psi),
    )


def test_boundary_diagnostics_match_the_per_point_loops():
    # every positive eigenform of M_eps in degrees 0 to 2: alpha and beta
    # slots of two-slot blocks, exceptional channels and coupled channels
    m_eps = connected_sum_profile(spindle(1.0), truncated_spindle(2.0, 1.0), 0.1)
    sizes = set()
    for p in (0, 1, 2):
        for e in _degree_spectrum(m_eps, 2, p, 20.0, None, "fem", MESH, True, {}).entries:
            if e.value > 0.0:
                sizes.add((e.problem.slot_indices, e.problem.block.size))
                got = boundary_diagnostics(e.field, 0.1, 2, e.value)
                ref = _per_point_diagnostics(e.field, 0.1)
                assert got.neg_trace_sq == pytest.approx(ref[0], rel=1e-14, abs=1e-300)
                assert got.phi_minus_tail_sq == pytest.approx(ref[1], rel=1e-12, abs=1e-300)
                assert got.cutoff_energy == pytest.approx(ref[2], rel=1e-12, abs=1e-300)
                assert got.psi_overlap == pytest.approx(ref[3], rel=1e-12, abs=1e-300)
    assert sizes == {((0,), 1), ((0,), 2), ((1,), 2), ((0, 1), 2)}


def test_sweep_report_holds_only_numbers(small_sweep):
    # no eigenform, nor the pencil behind it, outlives the sweep: the report
    # pickles to containers, numbers, the rows, the diagnostics, the McGowan
    # reports and their field names
    seen = set()

    class Spy(pickle.Pickler):
        def persistent_id(self, obj):
            seen.add(type(obj))

    Spy(io.BytesIO()).dump(small_sweep)
    assert fem.FemField not in seen
    assert seen <= {
        tuple, list, dict, str, int, float, bool, type, analysis.SweepReport, analysis.SweepRow,
        analysis.BoundaryDiagnostics, analysis.McGowanReport,
    }
    assert all(len(diags) == 3 and all(d is not None for d in diags) for diags in small_sweep.diagnostics.values())


@pytest.mark.xfail(strict=True, raises=ConvergenceError, reason="coupled middle-degree values are double at odd n")
def test_sweep_middle_degree_at_n3():
    # p2:n3:q1:k1:plus_half's alpha and beta slots are Hodge duals, so the
    # coupled pencil holds 9.3267 twice and inverse iteration finds no
    # eigenvector for a value that is not simple
    sweep_epsilon(spindle(1.0), truncated_spindle(2.0, 1.0), 3, [2], [0.2], 20.0, 2, MeshSpec(h=0.05))


def test_boundary_diagnostics_values(small_sweep):
    # tracked eigenfunction boundary data shrinks with eps (Prop-bord style)
    d_02 = small_sweep.diagnostics[(0.2, 0)][0]
    d_01 = small_sweep.diagnostics[(0.1, 0)][0]
    assert d_01.neg_trace_sq < d_02.neg_trace_sq
    assert d_01.phi_minus_tail_sq < d_02.phi_minus_tail_sq

import math

import numpy as np
import pytest

from conesum import geometry as geo
from conesum.analysis import (
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
from conesum.errors import DomainError, EnumerationError, ZeroModeMismatchError
from conesum.geometry import connected_sum_profile, cover_profiles, spindle, truncated_spindle
from conesum.radial.fem import MeshSpec
from conesum.radial.problems import degree_problems
from conesum.radial.sturm import sturm_liouville_oracle

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
        entry, _ = res.positive_entry(k)
        assert entry.value == pytest.approx(vals[k - 1], rel=1e-12)
    with pytest.raises(DomainError):
        res.positive_entry(10**6)


def test_enumeration_certificate(spindle_spectra):
    cert = spindle_spectra[0].certificate
    assert cert["excluded_floor"] is None or cert["excluded_floor"] > cert["lam_max"]
    with pytest.raises(EnumerationError):
        degree_problems(spindle(1.0), 2, 0, 40.0, cap_factor=0.99)


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


def test_slot_cache_solves_each_slot_once(monkeypatch):
    import conesum.analysis as analysis

    prof = connected_sum_profile(spindle(1.0), truncated_spindle(2.0, 1.0), 0.025)
    degrees = range(5)
    alone = {p: assemble_spectrum(prof, 3, p, 40.0, mesh=MESH) for p in degrees}

    solved = []
    real = analysis.fem_spectrum

    def counting(prob, *args, **kwargs):
        solved.append((prob.label, prob.slot_indices))
        return real(prob, *args, **kwargs)

    monkeypatch.setattr(analysis, "fem_spectrum", counting)
    cache: dict = {}
    shared = {p: assemble_spectrum(prof, 3, p, 40.0, mesh=MESH, _slot_cache=cache) for p in degrees}
    for p in degrees:
        assert _entry_rows(shared[p]) == _entry_rows(alone[p]), p
        assert shared[p].zero_count == alone[p].zero_count
    # one FEM solve per distinct scalar slot, none on a coupled problem
    slots = {
        (s.label, s.slot_indices)
        for p in degrees
        for prob in degree_problems(prof, 3, p, 40.0)[0]
        for s in prob.slot_problems()
    }
    assert sorted(solved) == sorted(slots)


def test_unit_cover_inputs_solve_each_slot_once(monkeypatch):
    # mu^0(U12) for p = 1 and mu^1(U12) for p = 2 share U12's degree-0 slots
    import conesum.analysis as analysis

    eps = 0.1
    prof = connected_sum_profile(spindle(1.0), truncated_spindle(2.0, 1.0), eps)
    solved = []
    real = analysis.fem_spectrum

    def counting(prob, *args, **kwargs):
        solved.append((prob.profile, prob.label))
        return real(prob, *args, **kwargs)

    monkeypatch.setattr(analysis, "fem_spectrum", counting)
    cache: dict = {}
    slots: dict = {}
    for p in (1, 2):
        analysis._unit_cover_inputs(prof, 2, p, eps, MESH, cache, slots)
    assert sorted(cache) == [("u12", 0), ("u12", 1), ("u2", 1), ("u2", 2)]
    assert len(solved) == len(set(solved))
    assert cache[("u12", 1)] == pytest.approx(cache[("u12", 0)], rel=1e-9)


def test_coupled_problems_without_slot_reduction():
    # APS ends break the slot reduction, so eigenvalues alone are refused;
    # the coupled FEM solve behind eigenfields refuses them too, since an
    # APS end only drops dofs of scalar slots
    prof = truncated_spindle(2.0, 1.0, bc=geo.BCKind.APS)
    with pytest.raises(DomainError, match="no scalar slot reduction"):
        assemble_spectrum(prof, 2, 1, 20.0, mesh=MESH)
    with pytest.raises(DomainError, match="coupled problem at an APS end"):
        assemble_spectrum(prof, 2, 1, 20.0, mesh=MESH, want_fields=True)
    # scalar slots at the APS end still carry eigenfields
    res = assemble_spectrum(prof, 2, 0, 20.0, mesh=MESH, want_fields=True)
    assert [e for e in res.entries if e.value > 0.0]
    assert all((e.problem.label, e.index) in res.fields for e in res.entries if e.value > 0.0)


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
        m_eps = connected_sum_profile(spindle(1.0), truncated_spindle(2.0, 1.0), eps)
        rep = mcgowan_report(m_eps, 2, p, eps, MESH, _unit_cache=cache)
        assert (rep.mu_p_u1, rep.mu_p_u2, rep.mu_pm1_u12, rep.bound) == pytest.approx(frozen, rel=1e-10)


def test_first_positive_exact_solves_only_slots_that_can_win(monkeypatch):
    # unit U2 at p = 2: the whole exact-form spectrum below 25 takes 18 slot
    # solves; the search solves the two slots whose lower bound is below lam*
    import conesum.analysis as analysis

    eps = 0.2
    u2 = cover_profiles(connected_sum_profile(spindle(1.0), truncated_spindle(2.0, 1.0), eps), eps)[1]
    u2 = u2.scaled(1.0 / eps)
    solved = []
    real = analysis.fem_spectrum
    monkeypatch.setattr(analysis, "fem_spectrum", lambda prob, *args: solved.append(prob) or real(prob, *args))
    lam = first_positive_exact(u2, 2, 2, MESH)
    assert lam == pytest.approx(DEFAULT_SWEEP_MCGOWAN[(eps, 2)][1] * eps**2, rel=1e-10)
    assert len(solved) == 2
    assert all(prob.min_potential() / u2.r_max**2 <= lam for prob in solved)


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
    # mu^{p-1}(U12) scales exactly as eps^-2 under the annulus scaling
    m1, m2 = spindle(1.0), truncated_spindle(2.0, 1.0)
    vals = {}
    for eps in (0.2, 0.1):
        u12 = cover_profiles(connected_sum_profile(m1, m2, eps), eps)[2]
        res = assemble_spectrum(u12.scaled(1.0 / eps), 2, 0, 25.0, mesh=MESH)
        vals[eps] = res.positive_values()[0] / eps**2
    assert vals[0.2] * 0.2**2 == pytest.approx(vals[0.1] * 0.1**2, rel=1e-9)


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


def test_sweep_parallel_matches_serial(small_sweep):
    rep2 = sweep_epsilon(
        m1=spindle(1.0),
        m2=truncated_spindle(2.0, 1.0),
        n=2,
        degrees=[0, 1],
        epsilons=[0.2, 0.1],
        lam_max=40.0,
        k_track=3,
        mesh=MESH,
        method="fem",
        jobs=2,
    )
    a = [(r.eps, r.degree, r.k, r.lam_eps, r.bord_ratio) for r in small_sweep.rows]
    b = [(r.eps, r.degree, r.k, r.lam_eps, r.bord_ratio) for r in rep2.rows]
    assert a == b


def test_sweep_rejects_unsorted_epsilons():
    for epsilons in ([0.1, 0.2], [0.1, 0.1]):
        with pytest.raises(DomainError):
            sweep_epsilon(
                m1=spindle(1.0), m2=truncated_spindle(2.0, 1.0), n=2, degrees=[0],
                epsilons=epsilons, lam_max=10.0, k_track=1,
            )


def test_boundary_diagnostics_rejects_an_eps_off_the_glue_radius():
    m_eps = connected_sum_profile(spindle(1.0), truncated_spindle(2.0, 1.0), 0.1)
    res = assemble_spectrum(m_eps, 2, 0, 20.0, mesh=MESH, want_fields=True)
    fld = next(iter(res.fields.values()))
    assert boundary_diagnostics(fld, 0.1, 2, 1.0).eps == 0.1
    with pytest.raises(DomainError, match="glued at eps=0.05"):
        boundary_diagnostics(fld, 0.05, 2, 1.0)


def test_boundary_diagnostics_values(small_sweep):
    # tracked eigenfunction boundary data shrinks with eps (Prop-bord style)
    d_02 = small_sweep.diagnostics[(0.2, 0)][0]
    d_01 = small_sweep.diagnostics[(0.1, 0)][0]
    assert d_01.neg_trace_sq < d_02.neg_trace_sq
    assert d_01.phi_minus_tail_sq < d_02.phi_minus_tail_sq

"""Assembled p-form spectra, collapse sweeps, and the quantitative diagnostics.

assemble_spectrum merges the per-channel eigenvalue lists of a degree into
one spectrum with sphere multiplicities, certifying that every channel that
could contribute below the cutoff was enumerated, and counting zero modes
both analytically (harmonic matching systems) and numerically.

sweep_epsilon runs the collapse experiment: spectra of the connected sum for
a decreasing list of eps against the big summand's spectrum, the one-sided
upper-bound check, the Mayer-Vietoris lower bound for the first positive
eigenvalue (McGowan), constancy of the zero-mode counts, and the boundary
control of the tracked eigenfunctions at the gluing radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cone_operator import ALPHA, BETA, Family
from .errors import (
    DomainError,
    SolverDisagreementError,
    ZeroModeMismatchError,
)
from .geometry import Profile, SeamKind, connected_sum_profile, cover_profiles
from .radial.fem import FemField, MeshSpec, coarse_count, fem_spectrum
from .radial.firstorder import first_order_kernel
from .radial.problems import ChannelProblem, Eigenvalue, EigList, degree_problems, sort_eigenvalues
from .radial.transfer import transfer_spectrum

ZERO_GAP = 1e-5  # FEM's gap between zero modes and the first positive, and to the next
CROSS_RTOL = 1e-6
FIRST_EXACT_BOUND = 25.0  # first_positive_exact's initial enumeration bound at unit radius


@dataclass(eq=False)
class SpectrumResult:
    """Assembled spectrum of the degree-p Hodge Laplacian on one profile."""

    profile: Profile
    n: int
    degree: int
    lam_max: float
    entries: list[Eigenvalue]
    zero_count: int
    certificate: dict
    method: str
    fields: dict = field(default_factory=dict)  # (problem label, index) -> FemField

    def positive_values(self) -> np.ndarray:
        """Positive eigenvalues expanded with multiplicity, ascending."""
        out: list[float] = []
        for e in self.entries:
            if e.value > 0.0:
                out.extend([e.value] * e.multiplicity)
        return np.array(sorted(out))

    def positive_entry(self, k: int) -> tuple[Eigenvalue, int]:
        """The entry carrying the k-th positive eigenvalue (1-based, with
        multiplicity) and the eigenvalue's index within its channel problem."""
        if k < 1:
            raise DomainError("k is 1-based")
        seen = 0
        for e in sort_eigenvalues([e for e in self.entries if e.value > 0.0]):
            seen += e.multiplicity
            if seen >= k:
                return e, e.index
        raise DomainError(f"fewer than {k} positive eigenvalues below lam_max={self.lam_max}")


def assemble_spectrum(
    profile: Profile,
    n: int,
    p: int,
    lam_max: float,
    method: str = "fem",
    mesh: MeshSpec | None = None,
    cross_rtol: float = CROSS_RTOL,
    want_fields: bool = False,
    cap_factor: float = 1.0,
    _slot_cache: dict | None = None,
) -> SpectrumResult:
    """Full degree-p spectrum below lam_max; method in {fem, secular, both}.

    Eigenvalues come from the scalar slot problems of each channel
    (``ChannelProblem.slot_problems``): a coupled PLUS_HALF problem in degree
    q+1 has the positive spectrum of its alpha slot (degree q) and its beta
    slot (degree q+2).  Each slot is solved once per ``_slot_cache`` and
    looked up afterwards, so callers looping over degrees pass one dict;
    with method="both" each slot's FEM eigenvalues are checked once against
    the secular solver (equal counts, agreement to ``cross_rtol``, else
    SolverDisagreementError).  Zero modes are counted analytically from the
    harmonic matching systems; FEM's first that many eigenvalues per slot
    are its zero modes, once its spectrum shows a gap there
    (``_positive_entries``).  Reported eigenvalues come from FEM unless
    method="secular".

    ``want_fields`` (with FEM) solves every channel as such, coupled ones
    included, to attach its eigenfunctions; this is the only coupled FEM
    solve.  Without it, a coupled problem with Dirichlet-like or APS ends
    raises DomainError, since its slots do not carry its spectrum there;
    with it, only the APS ends raise (``ChannelProblem.endpoint``).
    """
    if method not in ("fem", "secular", "both"):
        raise DomainError(f"unknown method {method!r}")
    mesh = mesh or MeshSpec()
    problems, certificate = degree_problems(profile, n, p, lam_max, cap_factor)
    cache = _slot_cache if _slot_cache is not None else {}

    entries: list[Eigenvalue] = []
    fields: dict = {}
    zero_count = 0
    for prob in problems:
        kernel_dim = first_order_kernel(prob).dim
        zero_count += kernel_dim * prob.multiplicity
        if want_fields and method != "secular":
            fem_list = fem_spectrum(prob, mesh, lam_max, want_vectors=True)
            pos_entries = _positive_entries(prob, fem_list, kernel_dim, lam_max)
            if method == "both":
                fem_vals = [e.value for e in pos_entries]
                _cross_validate(prob, fem_vals, transfer_spectrum(prob, lam_max).values(), cross_rtol)
            for e, fld in zip(fem_list.entries, fem_list.meta["fields"]):
                fields[(prob.label, e.index)] = fld
        else:
            slot_entries = sort_eigenvalues(
                [
                    e
                    for slot in prob.slot_problems()
                    for e in _slot_spectrum(slot, lam_max, method, mesh, cross_rtol, cache)
                ]
            )
            # ranks after the kernel, as FEM indexes the channel's own spectrum
            pos_entries = [
                Eigenvalue(value=e.value, problem=prob, index=kernel_dim + i, method=e.method, error=e.error)
                for i, e in enumerate(slot_entries)
            ]
        entries.extend(pos_entries)
        entries.extend(
            Eigenvalue(value=0.0, problem=prob, index=i, method="exact") for i in range(kernel_dim)
        )
    return SpectrumResult(
        profile=profile,
        n=n,
        degree=p,
        lam_max=lam_max,
        entries=sort_eigenvalues(entries),
        zero_count=zero_count,
        certificate=certificate,
        method=method,
        fields=fields,
    )


def _slot_spectrum(
    slot: ChannelProblem,
    lam_max: float,
    method: str,
    mesh: MeshSpec,
    cross_rtol: float,
    cache: dict,
) -> list[Eigenvalue]:
    """Positive eigenvalues of one scalar slot problem, solved once per cache.

    The key holds the slot's label, which adds its degree to its block's
    label: that fixes the slot of a MINUS_HALF block and tells apart the two
    exceptional blocks of a harmonic sphere mode, which share a block label.
    """
    key = (slot.profile, slot.label, lam_max, method, mesh)
    if key not in cache:
        if method == "secular":
            cache[key] = transfer_spectrum(slot, lam_max).entries
        else:
            fem_list = fem_spectrum(slot, mesh, lam_max)
            pos = _positive_entries(slot, fem_list, first_order_kernel(slot).dim, lam_max)
            if method == "both":
                _cross_validate(slot, [e.value for e in pos], transfer_spectrum(slot, lam_max).values(), cross_rtol)
            cache[key] = pos
    return cache[key]


def _positive_entries(prob: ChannelProblem, fem_list: EigList, kernel_dim: int, lam_max: float) -> list:
    """FEM entries after the first d = kernel_dim: conforming FEM values are
    ordered upper bounds, so entries 0..d-1 are the zero modes, as in the
    secular solver.  FEM must show the gap: with w its values then lam_max,
    and s = |w| less each value's change under one mesh refinement (15 times
    its Richardson estimate; near a thin neck it does not shrink with h),
    s[:d] <= ZERO_GAP w[d] and s[d] > ZERO_GAP w[d+1], else
    ZeroModeMismatchError."""
    w, d = np.append(fem_list.values(), lam_max), kernel_dim
    s = np.abs(w) - 15.0 * np.append([e.error for e in fem_list.entries], 0.0)
    if (
        len(w) <= d
        or s[:d].max(initial=0.0) > ZERO_GAP * w[d]
        or (d + 1 < len(w) and s[d] <= ZERO_GAP * w[d + 1])
    ):
        raise ZeroModeMismatchError(f"{prob.label}: FEM values {w[: d + 2]} have no gap after kernel dimension {d}")
    return fem_list.entries[d:]


def _cross_validate(prob, fem_vals, sec_vals, rtol):
    if len(fem_vals) != len(sec_vals):
        raise SolverDisagreementError(
            f"{prob.label}: secular found {len(sec_vals)} eigenvalues, FEM {len(fem_vals)}"
        )
    for i, (a, b) in enumerate(zip(fem_vals, sec_vals)):
        if abs(a - b) > rtol * max(abs(a), abs(b), 1e-3):
            raise SolverDisagreementError(
                f"{prob.label}: eigenvalue {i} disagrees: fem {a} vs secular {b}"
            )


# ---------------------------------------------------------------------------
# exact-form spectra and the McGowan bound


def mcgowan_bound(mu_p_u1: float, mu_p_u2: float, mu_pm1_u12: float, omega: float, c_rho: float) -> float:
    """Lower bound for the first positive eigenvalue on exact p-forms:

        ( (1/mu^p(U1) + 1/mu^p(U2)) (omega c_rho / mu^{p-1}(U12) + 1) )^(-1).
    """
    for name, v in (
        ("mu_p_u1", mu_p_u1),
        ("mu_p_u2", mu_p_u2),
        ("mu_pm1_u12", mu_pm1_u12),
        ("omega", omega),
        ("c_rho", c_rho),
    ):
        if v <= 0:
            raise DomainError(f"{name} must be positive, got {v}")
    return 1.0 / ((1.0 / mu_p_u1 + 1.0 / mu_p_u2) * (omega * c_rho / mu_pm1_u12 + 1.0))


def exact_form_spectrum(
    profile: Profile,
    n: int,
    p: int,
    lam_max: float,
    mesh: MeshSpec | None = None,
) -> np.ndarray:
    """Positive eigenvalues on exact p-forms (with multiplicity) below lam_max:
    the FEM spectra of the ``_exact_slots``, zero modes checked and dropped as
    in assemble_spectrum.  For p = 1 it is the positive spectrum on functions."""
    if p < 1:
        raise DomainError("exact forms need p >= 1")
    mesh = mesh or MeshSpec()
    out: list[float] = []
    for prob in _exact_slots(profile, n, p, lam_max):
        for e in _slot_spectrum(prob, lam_max, "fem", mesh, CROSS_RTOL, {}):
            out.extend([e.value] * prob.multiplicity)
    return np.array(sorted(out))


def _exact_slots(profile, n, p, lam_max) -> list[ChannelProblem]:
    """Scalar slots carrying the exact p-form spectrum below lam_max (p >= 1):
    exact p-eigenvalues are coexact (p-1)-eigenvalues, those of the coclosed
    alpha slots of degree p-1 (MINUS_HALF and exceptional) and, through the
    PLUS_HALF pairing, of the closed MINUS_HALF beta slots of degree p."""
    alpha = degree_problems(profile, n, p - 1, lam_max)[0]
    beta = degree_problems(profile, n, p, lam_max)[0]
    return [pr for pr in alpha if pr.slots == (ALPHA,)] + [
        pr for pr in beta if pr.slots == (BETA,) and pr.block.family is Family.MINUS_HALF
    ]


def first_positive_exact(profile, n, p, mesh=None, _slot_cache=None) -> float:
    """First positive exact p-eigenvalue (for p = 0 on functions, as for p = 1):
    the least first positive eigenvalue of the ``_exact_slots``.

    Slots come in increasing order of their lower bound c / R_max^2, the one
    degree_problems' certificate rests on; the least value so far, lam*,
    ends the search at the first bound above it.  A slot is skipped when the inertia count
    of its coarse pencil at fem_spectrum's cap for lam* (``coarse_count``)
    is its kernel dimension, else solved up to lam*.  Until a slot has a
    value, slots are solved up to the enumeration bound, FIRST_EXACT_BOUND
    at unit radius, grown fourfold.  One ``_slot_cache`` solves a slot once per cap.
    """
    mesh = mesh or MeshSpec()
    cache = _slot_cache if _slot_cache is not None else {}
    r2 = profile.r_max**2
    bound = FIRST_EXACT_BOUND * max(1.0, 1.0 / r2)
    while True:
        best = math.inf
        for slot in sorted(_exact_slots(profile, n, max(p, 1), bound), key=ChannelProblem.min_potential):
            if slot.min_potential() / r2 > best:
                break
            if best < math.inf and coarse_count(slot, mesh, best) == first_order_kernel(slot).dim:
                continue
            pos = _slot_spectrum(slot, min(best, bound), "fem", mesh, CROSS_RTOL, cache)
            best = pos[0].value if pos else best
        if best < math.inf:
            return best
        bound *= 4.0


def partition_gradient_constant(eps: float) -> float:
    """c_rho for the log-linear partition of unity on the annulus [eps, 2 eps]:
    rho = log(r/eps)/log 2, so sup |d rho| = 1/(eps log 2)."""
    if eps <= 0:
        raise DomainError("eps must be positive")
    return 1.0 / (eps * math.log(2.0)) ** 2


@dataclass
class McGowanReport:
    eps: float
    degree: int
    mu_p_u1: float
    mu_p_u2: float
    mu_pm1_u12: float
    omega: float
    c_rho: float
    bound: float


def mcgowan_report(
    m_eps: Profile,
    n: int,
    p: int,
    eps: float,
    mesh: MeshSpec | None = None,
    omega: float = 1.0,
    c_rho: float | None = None,
    _unit_cache: dict | None = None,
) -> McGowanReport:
    """Evaluate the Mayer-Vietoris bound on the standard cover of m_eps.

    mu^p(U) is the first positive eigenvalue on exact p-forms of the cover
    element with absolute boundary conditions; for p = 1 the U12 input is the
    first positive Neumann eigenvalue on functions; first_positive_exact's
    search finds each.  U2 and U12 are exact eps-scalings of unit-size
    profiles, so they are solved once at unit scale and rescaled by 1/eps^2
    (cached across the sweep via ``_unit_cache``).
    """
    if not 1 <= p <= n:
        raise DomainError(f"McGowan bound applies for 1 <= p <= n, got p={p}")
    mesh = mesh or MeshSpec()
    mu1 = first_positive_exact(cover_profiles(m_eps, eps)[0], n, p, mesh)
    cache = _unit_cache if _unit_cache is not None else {}
    mu2, mu12 = (mu / eps**2 for mu in _unit_cover_inputs(m_eps, n, p, eps, mesh, cache, {}))
    c_rho_val = partition_gradient_constant(eps) if c_rho is None else c_rho
    return McGowanReport(
        eps=eps,
        degree=p,
        mu_p_u1=mu1,
        mu_p_u2=mu2,
        mu_pm1_u12=mu12,
        omega=omega,
        c_rho=c_rho_val,
        bound=mcgowan_bound(mu1, mu2, mu12, omega, c_rho_val),
    )


def _unit_cover_inputs(m_eps, n, p, eps, mesh, cache: dict, slot_cache: dict) -> tuple[float, float]:
    """Unit-scale mu^p(U2) and mu^{p-1}(U12), which do not depend on eps, cached
    under ("u2", p) and ("u12", p - 1); ``slot_cache`` lets U12's degrees share slots."""
    _, u2, u12 = cover_profiles(m_eps, eps)
    key_u2, key_u12 = ("u2", p), ("u12", p - 1)
    if key_u2 not in cache:
        cache[key_u2] = first_positive_exact(u2.scaled(1.0 / eps), n, p, mesh, slot_cache)
    if key_u12 not in cache:
        cache[key_u12] = first_positive_exact(u12.scaled(1.0 / eps), n, p - 1, mesh, slot_cache)
    return cache[key_u2], cache[key_u12]


# ---------------------------------------------------------------------------
# cut-off functions and boundary diagnostics


def xi_eps(r: np.ndarray, eps: float) -> np.ndarray:
    """Logarithmic cut-off: 0 below 2 eps, 1 above 2 sqrt(eps)."""
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore"):
        mid = (np.log(2 * eps) - np.log(r)) / np.log(math.sqrt(eps))
    return np.clip(np.where(r <= 2 * eps, 0.0, np.where(r >= 2 * math.sqrt(eps), 1.0, mid)), 0.0, 1.0)


def xi_eps_gradient(r: np.ndarray, eps: float) -> np.ndarray:
    """|d xi_eps| = 2 / (r |log eps|) on the transition annulus, else 0."""
    r = np.asarray(r, dtype=float)
    inside = (r > 2 * eps) & (r < 2 * math.sqrt(eps))
    return np.where(inside, 2.0 / (r * abs(math.log(eps))), 0.0)


def xi_one(r: np.ndarray) -> np.ndarray:
    """Smooth cut-off around the gluing point: 1 for r <= 1/2, 0 for r >= 1."""
    r = np.asarray(r, dtype=float)
    s = np.clip((r - 0.5) * 2.0, 0.0, 1.0)
    return 1.0 - (3.0 * s * s - 2.0 * s**3)


@dataclass
class BoundaryDiagnostics:
    """Boundary-control quantities of one tracked eigenfunction at radius eps."""

    eps: float
    lam: float
    neg_trace_sq: float  # |Pi_<0 sigma(eps)|^2
    ratio: float  # neg_trace_sq / eps
    phi_minus_tail_sq: float  # |(1 - xi_eps) xi_1 phi^-|^2
    cutoff_energy: float  # | |d xi_eps| xi_1 phi^- |^2
    cutoff_energy_bound: float  # 4 (lam + 1) / (n |log eps|)
    psi_overlap: float  # <xi_1 phi^+ - psi_1, psi_1>


def boundary_diagnostics(field: FemField, eps: float, n: int, lam: float) -> BoundaryDiagnostics:
    """Evaluate the collapse diagnostics for one normalized eigenfunction.

    The field must come from a connected-sum profile glued at ``eps``, else
    DomainError; the trace is taken at the gluing seam in the block
    coordinates of the big summand's cone, and the integrals run over that
    cone.
    """
    prob = field.problem
    profile = prob.profile
    if profile.glue_radius is None or abs(profile.glue_radius - eps) >= 1e-12:
        raise DomainError(f"diagnostics need a connected-sum profile glued at eps={eps}")
    seam = next(s for s in profile.seams if s.kind is SeamKind.RADIAL_MIN and abs(s.radius - eps) < 1e-12)
    t_glue = seam.position
    seg_idx = profile.breakpoints.index(t_glue)  # segment starting at the seam (m1 side)
    seg = profile.segments[seg_idx]
    d = prob.orientation_signs(seg.orientation)

    # block eigen-coordinates of the trace on the m1 side
    trace = field.values_at(np.array([t_glue]))[0]
    sigma_loc = _embed(prob, d * trace)
    w = prob.block.eigvecs.T @ sigma_loc
    neg = sum(w[i] ** 2 for i, g in enumerate(prob.block.gammas) if g < 0)
    pos_amp = {g: w[i] for i, g in enumerate(prob.block.gammas) if g > 0}

    # quadrature restricted to the m1 cone [eps, r_hi]
    tq, wq, vals = field.quadrature()
    t_top = profile.breakpoints[seg_idx + 1]
    mask = (tq >= t_glue) & (tq <= t_top)
    tq, wq, vals = tq[mask], wq[mask], vals[mask]
    rq = seg.r_lo + (tq - t_glue)
    sig = np.array([_embed(prob, d * v) for v in vals])
    comp = sig @ prob.block.eigvecs  # columns aligned with gammas
    phi_minus_sq = np.zeros(len(tq))
    phi_plus = np.zeros(len(tq))
    psi = np.zeros(len(tq))
    for i, g in enumerate(prob.block.gammas):
        if g < 0:
            phi_minus_sq += comp[:, i] ** 2
        else:
            phi_plus += comp[:, i]
            psi += eps**g * rq ** (-g) * pos_amp[g]
    x1 = xi_one(rq)
    xe = xi_eps(rq, eps)
    dxe = xi_eps_gradient(rq, eps)
    tail = float(np.sum(wq * ((1 - xe) * x1) ** 2 * phi_minus_sq))
    energy = float(np.sum(wq * (dxe * x1) ** 2 * phi_minus_sq))
    overlap = float(np.sum(wq * (x1 * phi_plus - x1 * psi) * x1 * psi))
    return BoundaryDiagnostics(
        eps=eps,
        lam=lam,
        neg_trace_sq=float(neg),
        ratio=float(neg / eps),
        phi_minus_tail_sq=tail,
        cutoff_energy=energy,
        cutoff_energy_bound=4.0 * (lam + 1.0) / (n * abs(math.log(eps))),
        psi_overlap=overlap,
    )


def _embed(prob: ChannelProblem, local_values: np.ndarray) -> np.ndarray:
    """Active-slot values into full block coordinates."""
    out = np.zeros(prob.block.size)
    for j, slot in enumerate(prob.slot_indices):
        out[slot] = local_values[j]
    return out


# ---------------------------------------------------------------------------
# the collapse sweep


@dataclass
class SweepRow:
    eps: float
    degree: int
    k: int
    lam_eps: float
    lam_m1: float
    abs_err: float
    rel_err: float
    bord_ratio: float
    mcgowan: float
    zero_count: int


@dataclass
class SweepReport:
    rows: list[SweepRow]
    diagnostics: dict
    mcgowan: dict
    zero_counts: dict
    checks: dict
    meta: dict


def _sweep_one_eps(args: tuple) -> tuple:
    (m1, m2, n, degrees, eps, lam_max, mesh, method, solver, omega, c_rho, cache) = args
    m_eps = connected_sum_profile(m1, m2, eps)
    mcg = {
        p: mcgowan_report(m_eps, n, p, eps, mesh, omega, c_rho, cache) for p in range(1, n + 1)
    }
    spectra = {
        p: assemble_spectrum(m_eps, n, p, lam_max, method, mesh, **solver, want_fields=True)
        for p in degrees
    }
    return eps, spectra, mcg


def sweep_epsilon(
    m1: Profile,
    m2: Profile,
    n: int,
    degrees: list[int],
    epsilons: list[float],
    lam_max: float,
    k_track: int,
    mesh: MeshSpec | None = None,
    method: str = "fem",
    omega: float = 1.0,
    c_rho: float | None = None,
    taka_margin: float = 1.05,
    final_rel_tol: float = 0.02,
    jobs: int = 1,
    cross_rtol: float = CROSS_RTOL,
    cap_factor: float = 1.0,
) -> SweepReport:
    """Collapse experiment: spectra of M_eps against M1 over a decreasing eps list.

    ``cross_rtol`` and ``cap_factor`` go to both assemble_spectrum calls,
    the M1 reference and each M_eps.  The McGowan bounds, for p = 1..n, come
    from first_positive_exact, which keeps cap_factor 1.

    With jobs > 1 the per-epsilon work runs in a process pool; every task is a
    pure function, so the aggregated report is identical for any job count.
    """
    if any(a <= b for a, b in zip(epsilons, epsilons[1:])):
        raise DomainError("epsilons must be strictly decreasing")
    mesh = mesh or MeshSpec()
    rows: list[SweepRow] = []
    diagnostics: dict = {}
    mcg: dict = {}
    zero_counts: dict = {}

    solver = {"cross_rtol": cross_rtol, "cap_factor": cap_factor}
    slot_cache: dict = {}
    ref = {
        p: assemble_spectrum(m1, n, p, lam_max, method, mesh, **solver, _slot_cache=slot_cache)
        for p in degrees
    }

    # unit-scale cover pieces are eps-independent: fill the cache once
    unit_cache: dict = {}
    unit_slots: dict = {}
    m_eps0 = connected_sum_profile(m1, m2, epsilons[0])
    for p in range(1, n + 1):
        _unit_cover_inputs(m_eps0, n, p, epsilons[0], mesh, unit_cache, unit_slots)
    tasks = [
        (m1, m2, n, degrees, eps, lam_max, mesh, method, solver, omega, c_rho, unit_cache)
        for eps in epsilons
    ]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = {r[0]: r for r in pool.map(_sweep_one_eps, tasks)}
    else:
        results = {r[0]: r for r in map(_sweep_one_eps, tasks)}

    for eps in epsilons:
        _, spectra, mcg_eps = results[eps]
        for p, rep in mcg_eps.items():
            mcg[(eps, p)] = rep
        for p in degrees:
            res = spectra[p]
            zero_counts[(eps, p)] = res.zero_count
            ref_pos = ref[p].positive_values()
            diag_list = []
            mcg_val = mcg[(eps, p)].bound if (eps, p) in mcg else float("nan")
            for k in range(1, k_track + 1):
                entry, idx = res.positive_entry(k)
                lam_e = entry.value
                lam_1 = float(ref_pos[k - 1])
                fld = res.fields.get((entry.problem.label, idx))
                d = boundary_diagnostics(fld, eps, n, lam_e) if fld is not None else None
                diag_list.append(d)
                rows.append(
                    SweepRow(
                        eps=eps,
                        degree=p,
                        k=k,
                        lam_eps=lam_e,
                        lam_m1=lam_1,
                        abs_err=abs(lam_e - lam_1),
                        rel_err=abs(lam_e - lam_1) / lam_1,
                        bord_ratio=d.ratio if d else float("nan"),
                        mcgowan=mcg_val,
                        zero_count=res.zero_count,
                    )
                )
            diagnostics[(eps, p)] = diag_list

    checks = _sweep_checks(rows, mcg, zero_counts, ref, epsilons, degrees, taka_margin, final_rel_tol, n)
    return SweepReport(
        rows=rows,
        diagnostics=diagnostics,
        mcgowan=mcg,
        zero_counts=zero_counts,
        checks=checks,
        meta={"lam_max": lam_max, "k_track": k_track, "method": method},
    )


def _sweep_checks(rows, mcg, zero_counts, ref, epsilons, degrees, taka_margin, final_rel_tol, n):
    by_pk: dict = {}
    for r in rows:
        by_pk.setdefault((r.degree, r.k), []).append(r)
    errors_decreasing = all(
        all(a.abs_err > b.abs_err for a, b in zip(seq, seq[1:]))
        for seq in by_pk.values()
    )
    final_ok = all(seq[-1].rel_err < final_rel_tol for seq in by_pk.values())
    taka_ok = all(seq[-1].lam_eps <= taka_margin * seq[-1].lam_m1 for seq in by_pk.values())
    zero_constant = all(
        len({zero_counts[(e, p)] for e in epsilons}) == 1 for p in degrees
    )
    min_positive = min(r.lam_eps for r in rows if r.k == 1) if rows else float("nan")
    mcg_ok = all(
        rep.bound <= min(r.lam_eps for r in rows if r.eps == eps_p[0] and r.k == 1)
        for eps_p, rep in mcg.items()
        if any(r.eps == eps_p[0] and r.k == 1 for r in rows)
    )
    bord = [r.bord_ratio for r in rows if r.k == 1 and not math.isnan(r.bord_ratio)]
    return {
        "errors_decreasing": errors_decreasing,
        "final_rel_err_ok": final_ok,
        "taka_ok": taka_ok,
        "zero_counts_constant": zero_constant,
        "mcgowan_below_min": mcg_ok,
        "min_positive": min_positive,
        "bord_ratio_max": max(bord) if bord else float("nan"),
    }

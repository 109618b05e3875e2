"""Assembled p-form spectra, collapse sweeps, and the quantitative diagnostics.

assemble_spectrum merges the per-channel eigenvalue lists of a degree into
one spectrum with sphere multiplicities, certifying that every channel that
could contribute below the cutoff was enumerated, and counting zero modes
both analytically (harmonic matching systems) and numerically.

sweep_epsilon runs the collapse experiment: the k lowest eigenvalues of the
connected sum for a decreasing list of eps against the big summand's, the one-sided
upper-bound check, the Mayer-Vietoris lower bound for the first positive
eigenvalue (McGowan), constancy of the zero-mode counts, and the boundary
control of the tracked eigenfunctions at the gluing radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import takewhile

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
from .radial.transfer import eigen_count, transfer_spectrum

ZERO_GAP = 1e-5  # FEM's gap between zero modes and the first positive, and to the next
CROSS_RTOL = 1e-6  # FEM against secular eigenvalues with method="both"
TAKA_MARGIN = 1.05  # sweep check: lam_eps <= TAKA_MARGIN lam_m1 at the last eps
FINAL_REL_TOL = 0.02  # sweep check: relative error below this at the last eps
MCGOWAN_OMEGA = 1.0  # omega of mcgowan_bound on the cover of mcgowan_report
FIRST_EXACT_BOUND = 25.0  # first_positive_exact's initial enumeration bound at unit radius


@dataclass(eq=False)
class SpectrumResult:
    """Assembled spectrum of the degree-p Hodge Laplacian on one profile,
    complete below ``lam_max``."""

    profile: Profile
    n: int
    degree: int
    lam_max: float
    entries: list[Eigenvalue]
    zero_count: int
    certificate: dict
    method: str

    def positive_values(self) -> np.ndarray:
        """Positive eigenvalues expanded with multiplicity, ascending."""
        return _positive_values(self.entries)

    def positive_entry(self, k: int) -> Eigenvalue:
        """The entry carrying the k-th positive eigenvalue (1-based, with
        multiplicity)."""
        if k < 1:
            raise DomainError("k is 1-based")
        e = _kth_positive(self.entries, k)
        if e is None:
            raise DomainError(f"fewer than {k} positive eigenvalues below lam_max={self.lam_max}")
        return e


def _positive_values(entries: list[Eigenvalue]) -> np.ndarray:
    return np.array(sorted(e.value for e in entries if e.value > 0.0 for _ in range(e.multiplicity)))


def _kth_positive(entries: list[Eigenvalue], k: int) -> Eigenvalue | None:
    """The entry carrying the k-th positive eigenvalue, counted with multiplicity, if any."""
    seen = 0
    for e in sort_eigenvalues([e for e in entries if e.value > 0.0]):
        seen += e.multiplicity
        if seen >= k:
            return e
    return None


def assemble_spectrum(
    profile: Profile,
    n: int,
    p: int,
    lam_max: float,
    method: str = "fem",
    mesh: MeshSpec | None = None,
    _slot_cache: dict | None = None,
) -> SpectrumResult:
    """Full degree-p spectrum below lam_max; method in {fem, secular, both}.

    Eigenvalues come from the scalar slot problems of each channel
    (``ChannelProblem.slot_problems``): a coupled PLUS_HALF problem in degree
    q+1 has the positive spectrum of its alpha slot (degree q) and its beta
    slot (degree q+2).  Each distinct radial ODE (``ChannelProblem.ode_key``)
    is solved once per ``_slot_cache``, up to the highest cap asked of it,
    and read from there at any lower cap (``_slot_spectrum``), so callers
    looping over degrees, or a whole run, pass one dict and dual degrees
    share its solves; with method="both" each solve's FEM eigenvalues are
    checked against the secular solver's Sturm counts (``_cross_validate``:
    as many secular eigenvalues below the cap, to within CROSS_RTOL, and one
    within CROSS_RTOL of each FEM value, else SolverDisagreementError).  Zero
    modes are counted analytically from the harmonic matching systems; FEM's
    first that many eigenvalues per slot are its zero modes, once its
    spectrum shows a gap there (``_positive_entries``).  Reported eigenvalues
    come from FEM unless method="secular".  A coupled problem with
    Dirichlet-like or APS ends raises DomainError, since its slots do not
    carry its spectrum there.
    """
    cache = _slot_cache if _slot_cache is not None else {}
    return _degree_spectrum(profile, n, p, lam_max, None, method, mesh or MeshSpec(), False, cache)


def _degree_spectrum(
    profile: Profile,
    n: int,
    p: int,
    lam_max: float,
    k: int | None,
    method: str,
    mesh: MeshSpec,
    want_fields: bool,
    cache: dict,
) -> SpectrumResult:
    """Zero modes and positive eigenvalues of degree p below lam_max, or with
    k only the k lowest positive ones (with multiplicity): ``_lowest`` over
    the channels of degree_problems(profile, n, p, lam_max).  The result
    reports lam_max = lam*, up to which it is complete.
    """
    if method not in ("fem", "secular", "both"):
        raise DomainError(f"unknown method {method!r}")
    problems, certificate = degree_problems(profile, n, p, lam_max)
    entries, lam_star = _lowest(problems, lam_max, k, method, mesh, want_fields, cache)
    return SpectrumResult(
        profile=profile,
        n=n,
        degree=p,
        lam_max=lam_star,
        entries=entries,
        zero_count=sum(e.multiplicity for e in entries if e.method == "exact"),
        certificate=certificate,
        method=method,
    )


def _lowest(
    problems: list[ChannelProblem],
    lam_max: float,
    k: int | None,
    method: str,
    mesh: MeshSpec,
    want_fields: bool,
    cache: dict,
) -> tuple[list[Eigenvalue], float]:
    """The zero modes and positive eigenvalues up to lam* of the problems,
    sorted, and lam*: lam_max, or with k the k-th positive value (with
    multiplicity) once k are found.

    Problems are visited in increasing ``lower_bound``; each has its zero
    modes counted and is solved (``_channel_spectrum``) up to lam* so far,
    except that once lam* < lam_max one with no zero mode is skipped when
    its bound exceeds lam* (without a count) or when ``_empty_below`` shows
    FEM would find nothing below lam* (not with method="secular", whose
    Sturm count ends an empty slot).  So FEM's gap check runs wherever a
    zero mode is.  Caps only fall, so no problem holds a value up to the
    final lam* beyond those found.
    """
    lam_star = lam_max
    entries: list[Eigenvalue] = []
    for prob in sorted(problems, key=ChannelProblem.lower_bound):
        zeros = _zero_modes(prob)
        entries += zeros
        if lam_star < lam_max and not zeros and (
            prob.lower_bound() > lam_star
            or (method != "secular" and _empty_below(prob, lam_star, method, mesh))
        ):
            continue
        entries += _channel_spectrum(prob, len(zeros), lam_star, method, mesh, want_fields, cache)
        kth = _kth_positive(entries, k) if k else None
        lam_star = kth.value if kth is not None else lam_max
    return sort_eigenvalues([e for e in entries if e.value <= lam_star]), lam_star


def _zero_modes(prob: ChannelProblem) -> list[Eigenvalue]:
    """The channel's zero modes, counted by its harmonic matching system."""
    return [Eigenvalue(value=0.0, problem=prob, index=i, method="exact") for i in range(first_order_kernel(prob).dim)]


def _channel_spectrum(
    prob: ChannelProblem,
    kernel_dim: int,
    cap: float,
    method: str,
    mesh: MeshSpec,
    want_fields: bool,
    cache: dict,
) -> list[Eigenvalue]:
    """Positive eigenvalues up to cap of one channel, indexed after its kernel.

    With ``want_fields`` and FEM the channel is solved as such, coupled
    ones included, and each entry carries its eigenform (``field``); this
    is the only coupled FEM solve, and a coupled problem at an APS end
    raises DomainError (``ChannelProblem.endpoint``).  A field computes its
    eigenvector (inverse iteration) on first read, so a caller pays only
    for the fields it reads.  With method="both" the channel's values are
    checked by the Sturm counts of its slots (``_cross_validate``).
    Otherwise the channel's slots are solved (``_slot_spectrum``), and its
    entries carry no field.
    """
    if want_fields and method != "secular":
        fem_list = fem_spectrum(prob, mesh, cap, want_vectors=True)
        pos_entries = _positive_entries(prob, fem_list, kernel_dim, cap)
        if method == "both":
            _cross_validate(prob, [e.value for e in pos_entries], cap)
        return pos_entries
    slot_entries = sort_eigenvalues(
        [e for slot in prob.slot_problems() for e in _slot_spectrum(slot, cap, method, mesh, cache)]
    )
    # ranks after the kernel, as FEM indexes the channel's own spectrum
    return [
        Eigenvalue(value=e.value, problem=prob, index=kernel_dim + i, method=e.method, error=e.error)
        for i, e in enumerate(slot_entries)
    ]


def _empty_below(prob: ChannelProblem, cap: float, method: str, mesh: MeshSpec):
    """Whether counts show that FEM would find no positive eigenvalue below
    cap of the channel, which has no zero mode: each of its scalar slots has
    no coarse eigenvalue below fem_spectrum's cap for cap (``coarse_count``).
    A coupled channel has the positive spectrum of its slots, so its own
    pencil is assembled only to be solved.  With method="both" the secular
    solver must agree: ``_cross_validate`` with no FEM value, whose count
    check raises SolverDisagreementError before any FEM solve.
    """
    empty = all(coarse_count(s, mesh, cap) == 0 for s in prob.slot_problems())
    if empty and method == "both":
        _cross_validate(prob, [], cap)
    return empty


def _slot_spectrum(
    slot: ChannelProblem,
    lam_max: float,
    method: str,
    mesh: MeshSpec,
    cache: dict,
) -> list[Eigenvalue]:
    """Positive eigenvalues up to lam_max of one scalar slot problem, solved
    once per distinct radial ODE in the cache.

    The key is the slot's ``ode_key`` with the method and mesh, so slots of
    different labels that are one ODE (Hodge-dual slots of a closed profile,
    for one) share a solve; the entries keep the slot that was solved as
    their problem.  The cache holds the solver's list and the cap it was solved
    to.  A request at a higher cap solves again and replaces it (with
    method="both" each solve's positive FEM values are checked by the slot's
    Sturm counts, ``_cross_validate``); one at a cap no higher
    reads the list up to its cap, as a fresh solve returns it, and reruns
    ``_positive_entries``, whose gap test is stricter at a lower cap.  A
    slot with another kernel dimension than the one solved raises
    ZeroModeMismatchError.
    """
    key = (slot.ode_key, method, mesh)
    kernel_dim = first_order_kernel(slot).dim
    hit = cache.get(key)
    if hit is not None and hit[1] != kernel_dim:
        raise ZeroModeMismatchError(
            f"{slot.label} and {hit[0]} are one radial ODE but have kernel dimensions {kernel_dim} and {hit[1]}"
        )
    if hit is None or hit[2] < lam_max:
        if method == "secular":
            solved = transfer_spectrum(slot, lam_max)
        else:
            solved = fem_spectrum(slot, mesh, lam_max)
            if method == "both":
                pos = _positive_entries(slot, solved, kernel_dim, lam_max)
                _cross_validate(slot, [e.value for e in pos], lam_max)
        cache[key] = hit = (slot.label, kernel_dim, lam_max, solved)
    below = EigList(entries=list(takewhile(lambda e: e.value <= lam_max, hit[3].entries)))
    return below.entries if method == "secular" else _positive_entries(slot, below, kernel_dim, lam_max)


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


def _cross_validate(prob: ChannelProblem, fem_vals, cap: float) -> None:
    """Check the positive FEM values up to cap of prob by Sturm counts alone.

    With a_1 <= .. <= a_m the values and tau = CROSS_RTOL, the i-th positive
    eigenvalue b_i of the secular problem agrees with a_i, |a_i - b_i| <=
    tau max(|a_i|, |b_i|, 1e-3), exactly when it lies in [lo_i, hi_i) with
    lo_i = a_i - tau max(a_i, 1e-3) and hi_i = max(a_i / (1 - tau), a_i +
    tau 1e-3), the upper end aside.  With P(lam) the number of
    positive eigenvalues below lam, summed over ``prob.slot_problems()`` as
    ``eigen_count`` less the kernel dimension (one walk per slot at every
    lo, hi and cap -+ b), the check passes iff P(cap - b) <= m <= P(cap + b)
    with b = tau max(cap, 1e-3), and, for every i, P(lo_i) <= i - 1 and
    P(hi_i) >= i.  The band b absorbs FEM's error at a cap that is itself a
    FEM value, whose secular eigenvalue may lie just below it.  No root is
    refined.  A count outside the band raises SolverDisagreementError
    first, then the first value outside its bracket.
    """
    a = np.sort(np.asarray(fem_vals, dtype=float))
    m = len(a)
    lo = a - CROSS_RTOL * np.maximum(a, 1e-3)
    hi = np.maximum(a / (1.0 - CROSS_RTOL), a + CROSS_RTOL * 1e-3)
    band = CROSS_RTOL * max(cap, 1e-3)
    lam = np.concatenate([lo, hi, [cap - band, cap + band]])
    live = lam > 0  # no positive eigenvalue lies below lam <= 0
    counts = np.zeros(lam.shape, dtype=int)
    for slot in prob.slot_problems():
        counts[live] += eigen_count(slot, lam[live]) - first_order_kernel(slot).dim
    if not counts[-2] <= m <= counts[-1]:
        found = counts[-2] if counts[-2] > m else counts[-1]
        raise SolverDisagreementError(f"{prob.label}: secular found {found} eigenvalues, FEM {m}")
    below, above = counts[:m], counts[m:-2]
    bad = np.flatnonzero((below > np.arange(m)) | (above <= np.arange(m)))
    if bad.size:
        i = bad[0]
        raise SolverDisagreementError(
            f"{prob.label}: eigenvalue {i} disagrees: fem {a[i]}, secular counts {below[i]} "
            f"eigenvalues below {lo[i]} and {above[i]} below {hi[i]}"
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
    entries, _ = _lowest(_exact_slots(profile, n, p, lam_max), lam_max, None, "fem", mesh or MeshSpec(), False, {})
    return _positive_values(entries)


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
    the least positive value of the ``_exact_slots``, by ``_lowest`` with
    k = 1, so each slot is solved up to the least value so far, lam*, or
    skipped by its lower bound or by a count.  The enumeration bound starts
    at FIRST_EXACT_BOUND at unit radius and grows fourfold until a slot has
    a value.  The answer is kept in ``_slot_cache`` under (profile, n,
    max(p, 1), mesh) beside the slot solves, so one dict searches each
    profile and degree once.
    """
    mesh = mesh or MeshSpec()
    cache = _slot_cache if _slot_cache is not None else {}
    key = (profile, n, max(p, 1), mesh)
    bound = FIRST_EXACT_BOUND * max(1.0, 1.0 / profile.r_max**2)
    while key not in cache:
        entries, _ = _lowest(_exact_slots(profile, n, max(p, 1), bound), bound, 1, "fem", mesh, False, cache)
        first = _kth_positive(entries, 1)
        if first is not None:
            cache[key] = first.value
        bound *= 4.0
    return cache[key]


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
    m1: Profile,
    m2: Profile,
    n: int,
    p: int,
    eps: float,
    mesh: MeshSpec | None = None,
    _slot_cache: dict | None = None,
) -> McGowanReport:
    """Evaluate the Mayer-Vietoris bound on the standard cover of
    connected_sum_profile(m1, m2, eps).

    mu^p(U) is the first positive eigenvalue on exact p-forms of the cover
    element with absolute boundary conditions; for p = 1 the U12 input is the
    first positive Neumann eigenvalue on functions; first_positive_exact's
    search finds each.  cover_profiles gives U2 and U12 at unit scale, so
    their values are divided by eps^2, and one ``_slot_cache`` searches each
    unit piece once for all eps (U12's degrees 0 and 1 are one search).  The
    bound takes omega = MCGOWAN_OMEGA and c_rho =
    partition_gradient_constant(eps), that of the log-linear partition of
    unity on U12.
    """
    if not 1 <= p <= n:
        raise DomainError(f"McGowan bound applies for 1 <= p <= n, got p={p}")
    cache = _slot_cache if _slot_cache is not None else {}
    u1, u2, u12 = cover_profiles(m1, m2, eps)
    mu1 = first_positive_exact(u1, n, p, mesh, cache)
    mu2 = first_positive_exact(u2, n, p, mesh, cache) / eps**2
    mu12 = first_positive_exact(u12, n, p - 1, mesh, cache) / eps**2
    c_rho = partition_gradient_constant(eps)
    return McGowanReport(
        eps=eps,
        degree=p,
        mu_p_u1=mu1,
        mu_p_u2=mu2,
        mu_pm1_u12=mu12,
        omega=MCGOWAN_OMEGA,
        c_rho=c_rho,
        bound=mcgowan_bound(mu1, mu2, mu12, MCGOWAN_OMEGA, c_rho),
    )


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
    seam = next((s for s in profile.seams if s.kind is SeamKind.RADIAL_MIN and abs(s.radius - eps) < 1e-12), None)
    if profile.glue_radius is None or abs(profile.glue_radius - eps) >= 1e-12 or seam is None:
        raise DomainError(f"diagnostics need a connected-sum profile glued at eps={eps}")
    t_glue = seam.position
    seg_idx = profile.breakpoints.index(t_glue)  # segment starting at the seam (m1 side)
    seg = profile.segments[seg_idx]
    d = prob.orientation_signs(seg.orientation)

    # rows of the active slots: the inactive ones are zero; columns follow gammas
    vecs = prob.block.eigvecs[list(prob.slot_indices)]
    gammas = np.array(prob.block.gammas)
    neg = gammas < 0

    # block eigen-coordinates of the trace on the m1 side
    w = (d * field.values_at(np.array([t_glue]))[0]) @ vecs
    neg_sq = float(np.sum(w[neg] ** 2))

    # quadrature restricted to the m1 cone [eps, r_hi]
    tq, wq, vals = field.quadrature()
    t_top = profile.breakpoints[seg_idx + 1]
    mask = (tq >= t_glue) & (tq <= t_top)
    tq, wq, vals = tq[mask], wq[mask], vals[mask]
    rq = seg.r_lo + (tq - t_glue)
    comp = (d * vals) @ vecs
    phi_minus_sq = np.sum(comp[:, neg] ** 2, axis=1)
    phi_plus = np.sum(comp[:, ~neg], axis=1)
    psi = (eps ** gammas[~neg] * rq[:, None] ** -gammas[~neg]) @ w[~neg]
    x1 = xi_one(rq)
    xe = xi_eps(rq, eps)
    dxe = xi_eps_gradient(rq, eps)
    tail = float(np.sum(wq * ((1 - xe) * x1) ** 2 * phi_minus_sq))
    energy = float(np.sum(wq * (dxe * x1) ** 2 * phi_minus_sq))
    overlap = float(np.sum(wq * (x1 * phi_plus - x1 * psi) * x1 * psi))
    return BoundaryDiagnostics(
        eps=eps,
        lam=lam,
        neg_trace_sq=neg_sq,
        ratio=neg_sq / eps,
        phi_minus_tail_sq=tail,
        cutoff_energy=energy,
        cutoff_energy_bound=4.0 * (lam + 1.0) / (n * abs(math.log(eps))),
        psi_overlap=overlap,
    )


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
) -> SweepReport:
    """Collapse experiment: spectra of M_eps against M1 over a decreasing eps list.

    The rows report the k_track lowest positive eigenvalues of each degree,
    so neither M1 nor any M_eps is solved up to lam_max: ``_degree_spectrum``
    solves, per degree, only the channels that can hold one of them, as
    assemble_spectrum solves them (M1 through its slots, each M_eps with
    fields).  ``method`` and ``mesh`` go to both.  The McGowan bounds, for
    p = 1..n and every eps, come from mcgowan_report.  One slot cache serves
    M1 and every McGowan report, so each radial ODE and each cover piece is
    solved once per run.  The report's checks use TAKA_MARGIN and
    FINAL_REL_TOL at the last eps.

    One loop visits the eps in order.  Each pass computes that eps's McGowan
    reports, then per degree of M_eps the zero-mode count, the tracked
    values and the boundary diagnostics of their eigenforms (None without
    one, as with method="secular").  The report keeps only numbers, so the
    pencils behind the fields are freed as the loop moves on.  An empty or
    non-decreasing eps list, an empty or repeating degree list and
    k_track < 1 raise DomainError: each would leave rows to check missing.
    """
    if not epsilons or any(a <= b for a, b in zip(epsilons, epsilons[1:])):
        raise DomainError(f"epsilons must be non-empty and strictly decreasing, got {epsilons}")
    if not degrees or len(set(degrees)) < len(degrees):
        raise DomainError(f"degrees must not repeat or be empty, got {degrees}")
    if k_track < 1:
        raise DomainError(f"k_track must be at least 1, got {k_track}")
    mesh = mesh or MeshSpec()
    rows: list[SweepRow] = []
    diagnostics: dict = {}
    zero_counts: dict = {}
    mcg: dict = {}

    cache: dict = {}
    ref = {p: _degree_spectrum(m1, n, p, lam_max, k_track, method, mesh, False, cache) for p in degrees}
    for eps in epsilons:
        for p in range(1, n + 1):
            mcg[(eps, p)] = mcgowan_report(m1, m2, n, p, eps, mesh, cache)
        m_eps = connected_sum_profile(m1, m2, eps)
        for p in degrees:
            res = _degree_spectrum(m_eps, n, p, lam_max, k_track, method, mesh, True, {})
            entries = [res.positive_entry(k) for k in range(1, k_track + 1)]
            diags = [
                boundary_diagnostics(e.field, eps, n, e.value) if e.field is not None else None for e in entries
            ]
            zero_counts[(eps, p)] = res.zero_count
            diagnostics[(eps, p)] = diags
            ref_pos = ref[p].positive_values()
            mcg_val = mcg[(eps, p)].bound if (eps, p) in mcg else float("nan")
            for k, (e, d) in enumerate(zip(entries, diags), start=1):
                lam_1 = float(ref_pos[k - 1])
                rows.append(
                    SweepRow(
                        eps=eps,
                        degree=p,
                        k=k,
                        lam_eps=e.value,
                        lam_m1=lam_1,
                        abs_err=abs(e.value - lam_1),
                        rel_err=abs(e.value - lam_1) / lam_1,
                        bord_ratio=d.ratio if d else float("nan"),
                        mcgowan=mcg_val,
                        zero_count=res.zero_count,
                    )
                )

    checks = _sweep_checks(rows, mcg, zero_counts, epsilons, degrees)
    return SweepReport(
        rows=rows,
        diagnostics=diagnostics,
        mcgowan=mcg,
        zero_counts=zero_counts,
        checks=checks,
        meta={"lam_max": lam_max, "k_track": k_track, "method": method},
    )


def _sweep_checks(rows, mcg, zero_counts, epsilons, degrees):
    by_pk: dict = {}
    for r in rows:
        by_pk.setdefault((r.degree, r.k), []).append(r)
    errors_decreasing = all(
        all(a.abs_err > b.abs_err for a, b in zip(seq, seq[1:]))
        for seq in by_pk.values()
    )
    final_ok = all(seq[-1].rel_err < FINAL_REL_TOL for seq in by_pk.values())
    taka_ok = all(seq[-1].lam_eps <= TAKA_MARGIN * seq[-1].lam_m1 for seq in by_pk.values())
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

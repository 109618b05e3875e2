"""Quadratic finite elements for the channel quadratic form on a profile.

The form discretised here is, in the global profile coordinate with the
continuous channel variables,

    B(u, v) = sum_seg  int  u' v' + (P_o(f) / f^2) u v  dt
            + sum_seams  <K_c u, v>(t_c)  +  endpoint terms,

with P_o the active block of A^2 + A (orientation-signed off-diagonal) and
K_c the seam corner matrices; the mass form is the plain L2 product.  The
mesh is graded so elements never exceed a fixed fraction of the local cone
radius, which in particular resolves the gluing annulus at h <= eps/10, and
every seam is a mesh vertex so derivative jumps cost nothing in accuracy.

Eigenvalues are extrapolated over two nested meshes (Richardson, order 4),
which also supplies the per-eigenvalue convergence estimate.

Each mesh gives one pencil K x = lam M x of half-bandwidth 3 * size - 1,
which :func:`band_assemble` scatters with one ``np.bincount`` per matrix
straight into LAPACK's upper band storage.  End conditions only drop end
dofs, by the per-slot mask of ``ChannelProblem.endpoint``, so the kept dofs
are renumbered in order.
:func:`inertia_count` counts the eigenvalues below a cap by Sylvester's law
of inertia (spectrum slicing, Ericsson-Ruhe 1980); :func:`solve_pencil`
computes that many by shift-invert ARPACK on a banded Cholesky.  It is the
only eigensolver of the package; the Sturm-Liouville oracle assembles its
own pencil with :func:`band_assemble` and solves it here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as splinalg
from scipy.linalg import blas, lapack

from ..errors import ConvergenceError, DomainError
from ..geometry import Profile
from .problems import ChannelProblem, Eigenvalue, EigList

# P2 shape functions on the unit reference element, nodes at 0, 1/2, 1
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(6)
_QX = 0.5 * (_GAUSS_X + 1.0)
_QW = 0.5 * _GAUSS_W
_N = np.stack(
    [(1 - _QX) * (1 - 2 * _QX), 4 * _QX * (1 - _QX), _QX * (2 * _QX - 1)], axis=1
)  # (6, 3)
_DN = np.stack([4 * _QX - 3, 4 - 8 * _QX, 4 * _QX - 1], axis=1)

CONV_RTOL = 1e-4  # largest accepted Richardson estimate, relative to max(|lam|, 1)
MIN_ELEMENTS = 2  # fewest elements on any segment


@dataclass(frozen=True)
class MeshSpec:
    """Mesh density: bulk size h, radial cap h <= radial_fraction * r."""

    h: float = 0.02
    radial_fraction: float = 0.1
    tip_floor: float = 1.0 / 64.0  # smallest element as a fraction of h

    def scaled(self, c: float) -> "MeshSpec":
        return MeshSpec(self.h * c, self.radial_fraction, self.tip_floor)


def _segment_radii(r_lo: float, r_hi: float, spec: MeshSpec) -> np.ndarray:
    floor_h = spec.h * spec.tip_floor
    radii = [r_lo]
    r = max(r_lo, floor_h if r_lo == 0.0 else r_lo)
    if r_lo == 0.0:
        radii.append(min(floor_h, 0.5 * (r_hi - r_lo)))
        r = radii[-1]
    while r < r_hi:
        step = min(spec.h, max(spec.radial_fraction * r, floor_h))
        r = r + step
        radii.append(r)
    pts = np.array(radii)
    if len(pts) - 1 < MIN_ELEMENTS:
        pts = np.linspace(r_lo, r_hi, MIN_ELEMENTS + 1)
    # rescale interior offsets so the last point lands exactly on r_hi
    pts = r_lo + (pts - r_lo) * (r_hi - r_lo) / (pts[-1] - r_lo)
    return pts


def make_mesh(profile: Profile, spec: MeshSpec) -> np.ndarray:
    """Vertex coordinates in global t; every segment boundary is a vertex."""
    nodes = [np.array([0.0])]
    t0 = 0.0
    for seg in profile.segments:
        radii = _segment_radii(seg.r_lo, seg.r_hi, spec)
        local = radii - seg.r_lo if seg.orientation > 0 else seg.r_hi - radii[::-1]
        nodes.append(t0 + local[1:])
        t0 += seg.length
    return np.concatenate(nodes)


def refine_mesh(nodes: np.ndarray) -> np.ndarray:
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    return np.sort(np.concatenate([nodes, mids]))


@dataclass(eq=False)
class FemField:
    """One discrete eigenfunction: P2 coefficients on the solve mesh."""

    problem: ChannelProblem
    vertices: np.ndarray  # (nv,)
    coeffs: np.ndarray  # (npoints, size): vertex/midpoint interleaved

    def values_at(self, ts: np.ndarray) -> np.ndarray:
        """(len(ts), size) array of the global channel variables."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        verts = self.vertices
        idx = np.clip(np.searchsorted(verts, ts, side="right") - 1, 0, len(verts) - 2)
        x = (ts - verts[idx]) / (verts[idx + 1] - verts[idx])
        shp = np.stack([(1 - x) * (1 - 2 * x), 4 * x * (1 - x), x * (2 * x - 1)], axis=1)
        pts = np.stack([2 * idx, 2 * idx + 1, 2 * idx + 2], axis=1)
        return np.einsum("eq,eqs->es", shp, self.coeffs[pts])

    def quadrature(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(tq, wq, values (nq, size)) Gauss data for integrating the field."""
        verts = self.vertices
        h = np.diff(verts)
        tq = verts[:-1, None] + h[:, None] * _QX[None, :]
        wq = h[:, None] * _QW[None, :]
        pts = np.stack(
            [2 * np.arange(len(h)), 2 * np.arange(len(h)) + 1, 2 * np.arange(len(h)) + 2], axis=1
        )
        vals = np.einsum("qi,eis->eqs", _N, self.coeffs[pts])
        return tq.ravel(), wq.ravel(), vals.reshape(-1, self.coeffs.shape[1])


def band_assemble(rows: np.ndarray, cols: np.ndarray, n: int, bw: int, *vals: np.ndarray) -> list:
    """Symmetric matrices summing each vals at (rows, cols), in upper band storage:
    shape (bw + 1, n), A[i, j] at [bw + i - j, j] as LAPACK's ``?pbtrf`` reads it.
    Entries below the diagonal are skipped, so the input lists both triangles.
    """
    upper = rows <= cols
    flat = (bw + rows[upper] - cols[upper]) * n + cols[upper]
    return [np.bincount(flat, weights=v[upper], minlength=(bw + 1) * n).reshape(bw + 1, n) for v in vals]


def band_to_sparse(ab: np.ndarray) -> sparse.dia_matrix:
    """The full symmetric matrix of an upper band storage array, in DIA format."""
    bw, n = ab.shape[0] - 1, ab.shape[1]
    # offset d >= 0 holds A[j - d, j] = ab[bw - d, j] at column j, offset -d
    # holds A[j + d, j] = ab[bw - d, j + d]
    padded = np.hstack([ab, np.zeros((bw + 1, bw))])
    lower = [padded[bw - d, d : d + n] for d in range(bw, 0, -1)]
    return sparse.dia_matrix((np.vstack(lower + [ab[::-1]]), np.arange(-bw, bw + 1)), shape=(n, n))


def _assemble(problem: ChannelProblem, nodes: np.ndarray):
    """Pencil (K, M) in upper band storage and the mask of the dofs it keeps.

    Dofs are ordered (point, slot); the end points drop the slots of
    ``ChannelProblem.endpoint`` and kept dof i becomes cumsum(keep)[i] - 1.
    An element's three points span 3 * size consecutive dofs, hence the
    half-bandwidth 3 * size - 1; dropping end dofs never widens it.
    """
    profile = problem.profile
    size = problem.size
    nel = len(nodes) - 1
    h = np.diff(nodes)
    # the profile radius is linear between breakpoints, with slope +-1
    bps = profile.breakpoints
    rq = np.interp(nodes[:-1, None] + h[:, None] * _QX[None, :], bps, [profile.radius(t) for t in bps])
    pot = np.where(
        (rq[:, -1] > rq[:, 0])[:, None, None], problem.potential_global(+1), problem.potential_global(-1)
    )  # (nel, size, size) by segment orientation
    ke_grad = np.einsum("qi,qj,q->ij", _DN, _DN, _QW)[None, :, :] / h[:, None, None]
    me = np.einsum("qi,qj,q->ij", _N, _N, _QW)[None, :, :] * h[:, None, None]
    ke_pot = np.einsum("eq,qi,qj->eij", _QW[None, :] * h[:, None] / (rq * rq), _N, _N)
    # element blocks indexed (element, point, slot, point, slot); element e
    # owns points 2e, 2e+1, 2e+2, that is dofs 2e*size .. 2e*size + 3*size - 1
    slot_eye = np.eye(size)[None, None, :, None, :]
    ke = ke_pot[:, :, None, :, None] * pot[:, None, :, None, :] + ke_grad[:, :, None, :, None] * slot_eye
    mel = np.broadcast_to(me[:, :, None, :, None] * slot_eye, ke.shape)
    dofs = 2 * size * np.arange(nel)[:, None] + np.arange(3 * size)
    shape = (nel, 3 * size, 3 * size)
    rows = [np.broadcast_to(dofs[:, :, None], shape).ravel()]
    cols = [np.broadcast_to(dofs[:, None, :], shape).ravel()]
    kvals, mvals = [ke.ravel()], [mel.ravel()]

    # seam corner matrices and endpoint natural terms, each at one vertex
    ends = problem.endpoint("start"), problem.endpoint("end")
    corners = list(zip(bps[1:-1], problem.seam_matrices()))
    corners += [(0.0, ends[0].k_matrix), (bps[-1], ends[1].k_matrix)]
    for t, mat in corners:
        if mat is not None:
            pdofs = 2 * size * int(np.argmin(np.abs(nodes - t))) + np.arange(size)
            rows.append(np.repeat(pdofs, size))
            cols.append(np.tile(pdofs, size))
            kvals.append(np.ravel(mat))
            mvals.append(np.zeros(size * size))

    keep = np.ones((2 * len(nodes) - 1, size), dtype=bool)
    keep[0], keep[-1] = ~ends[0].drop, ~ends[1].drop
    keep = keep.ravel()
    target = np.cumsum(keep) - 1
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    kept = keep[rows] & keep[cols]
    K, M = band_assemble(
        target[rows[kept]], target[cols[kept]], int(np.count_nonzero(keep)), 3 * size - 1,
        np.concatenate(kvals)[kept], np.concatenate(mvals)[kept],
    )
    return K, M, keep


def inertia_count(K: np.ndarray, M: np.ndarray, lam_cap: float) -> int:
    """Eigenvalues below lam_cap of the banded pencil K x = lam M x: negative pivots of
    K - lam_cap M = L D L^T (Sylvester), by a sparse LU that must not pivot."""
    lu = splinalg.splu(
        band_to_sparse(K - lam_cap * M).tocsc(),
        permc_spec="NATURAL",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    natural = np.arange(K.shape[1])
    if not (np.array_equal(lu.perm_r, natural) and np.array_equal(lu.perm_c, natural)):
        raise ConvergenceError("inertia count needs a factorisation without pivoting")
    return int(np.count_nonzero(lu.U.diagonal() < 0.0))


def solve_pencil(K: np.ndarray, M: np.ndarray, lam_cap: float, want_vectors: bool = False):
    """All eigenvalues below lam_cap of the banded pencil K x = lam M x, ascending.

    K and M are in upper band storage.  :func:`inertia_count` gives the
    count; that many eigenpairs come from shift-invert ARPACK at sigma = -1
    on U^-T M U^-1, with K + M = U^T U a banded Cholesky factorisation: its
    eigenvalues are nu = 1 / (lam + 1), and standard mode 3 returns
    sigma + 1/nu = lam with no M-products.  ARPACK never applies eigsh's
    first argument in this mode; K goes there for its shape.
    ``want_vectors`` returns U^-1 y for ARPACK's vectors y, M-orthonormal,
    as columns, else None.  Raises ConvergenceError if the count leaves
    ARPACK no room (count >= n - 1), if K + M is not positive definite, or
    if an eigenvalue returned is not below the cap.
    """
    bw, n = K.shape[0] - 1, K.shape[1]
    count = inertia_count(K, M, lam_cap)
    if count >= n - 1:
        raise ConvergenceError(f"{count} eigenvalues below {lam_cap} in a pencil of size {n}")
    if count == 0:
        return np.empty(0), (np.empty((n, 0)) if want_vectors else None)
    chol, info = lapack.dpbtrf(K + M)
    if info != 0:
        raise ConvergenceError(f"K + M is not positive definite (dpbtrf info {info})")
    mf = np.asfortranarray(M)

    def apply(y):
        z = lapack.dtbtrs(chol, y.reshape(n, 1))[0]
        z = blas.dsbmv(bw, 1.0, mf, z[:, 0])
        return lapack.dtbtrs(chol, z.reshape(n, 1), trans="T")[0][:, 0]

    try:
        result = splinalg.eigsh(
            band_to_sparse(K),
            k=count,
            sigma=-1.0,
            which="LM",
            OPinv=splinalg.LinearOperator((n, n), matvec=apply, dtype=float),
            v0=np.full(n, 1.0 / math.sqrt(n)),
            return_eigenvectors=want_vectors,
        )
    except splinalg.ArpackError as exc:  # pragma: no cover
        raise ConvergenceError(f"eigensolver failed: {exc}") from exc
    vals, vecs = result if want_vectors else (result, None)
    order = np.argsort(vals)
    vals = vals[order]
    if vals[-1] >= lam_cap:
        raise ConvergenceError(f"eigensolver missed an eigenvalue below {lam_cap}: got {vals[-1]}")
    if not want_vectors:
        return vals, None
    # x = U^-1 y has x^T M x = nu = 1 / (lam + 1)
    vecs = lapack.dtbtrs(chol, vecs[:, order])[0] * np.sqrt(1.0 + vals)
    return vals, vecs


def _check_resolution(profile: Profile, nodes: np.ndarray):
    """Elements touching a small-radius seam must resolve it (h <= r/2)."""
    for bp in profile.breakpoints[1:-1]:
        r_b = profile.radius(bp)
        j = int(np.argmin(np.abs(nodes - bp)))
        adjacent = []
        if j > 0:
            adjacent.append(nodes[j] - nodes[j - 1])
        if j < len(nodes) - 1:
            adjacent.append(nodes[j + 1] - nodes[j])
        if adjacent and max(adjacent) > 0.5 * r_b + 1e-15:
            raise ConvergenceError(
                f"mesh does not resolve the seam at radius {r_b:.4g}: "
                f"adjacent element {max(adjacent):.4g} exceeds r/2 (lower h)"
            )


def pencil_cap(lam_max: float) -> float:
    """fem_spectrum's cap: the Richardson value can lie below both meshes' values."""
    return lam_max * 1.25 + 1.0


def coarse_count(problem: ChannelProblem, mesh: MeshSpec, lam_max: float) -> int:
    """Coarse-mesh eigenvalues below pencil_cap(lam_max), one inertia count:
    fem_spectrum(problem, mesh, lam_max) returns at most this many."""
    K, M, _ = _assemble(problem, make_mesh(problem.profile, mesh))
    return inertia_count(K, M, pencil_cap(lam_max))


def single_mesh_eigenvalues(problem: ChannelProblem, nodes: np.ndarray, lam_max: float) -> np.ndarray:
    """Raw (unextrapolated) eigenvalues on one mesh; used by convergence studies."""
    K, M, _ = _assemble(problem, nodes)
    return solve_pencil(K, M, lam_max)[0]


def fem_spectrum(
    problem: ChannelProblem,
    mesh: MeshSpec,
    lam_max: float,
    want_vectors: bool = False,
) -> EigList:
    """Eigenvalues <= lam_max with Richardson extrapolation over two meshes.

    Entries report the extrapolated value and |lam_2 - lam_1| / 15 as the
    convergence estimate; ``want_vectors`` attaches the fine-mesh
    eigenfunctions (meta["fields"]) normalised to unit L2 norm.
    """
    if lam_max <= 0:
        raise DomainError(f"lam_max must be positive, got {lam_max}")
    nodes1 = make_mesh(problem.profile, mesh)
    _check_resolution(problem.profile, nodes1)
    nodes2 = refine_mesh(nodes1)
    lam_cap = pencil_cap(lam_max)

    vals1 = single_mesh_eigenvalues(problem, nodes1, lam_cap)
    K2, M2, keep = _assemble(problem, nodes2)
    vals2, vecs2 = solve_pencil(K2, M2, lam_cap, want_vectors)

    npair = min(len(vals1), len(vals2))
    if npair < len(vals2) and vals2[npair] <= lam_max:
        raise ConvergenceError(f"{problem.label}: refined mesh adds {vals2[npair]}, coarse one exceeds {lam_cap}")
    entries = []
    fields = []
    zero_floor = 1e-9 * max(lam_max, 1.0)
    for i in range(npair):
        l1, l2 = vals1[i], vals2[i]
        ext = l2 + (l2 - l1) / 15.0
        est = abs(l2 - l1) / 15.0
        if ext > lam_max:
            break
        if ext < -zero_floor * 10:
            raise ConvergenceError(f"negative eigenvalue {ext} from {problem.label}")
        if est > CONV_RTOL * max(abs(ext), 1.0):
            raise ConvergenceError(
                f"extrapolation not converged for {problem.label}: lam={ext}, est={est}"
            )
        entries.append(
            Eigenvalue(value=float(ext), problem=problem, index=i, method="fem", error=float(est))
        )
        if want_vectors:
            # M is the exact L2 Gram matrix, so M-normalised means unit L2 norm
            coeffs = np.zeros(len(keep))
            coeffs[keep] = vecs2[:, i]
            fields.append(FemField(problem=problem, vertices=nodes2, coeffs=coeffs.reshape(-1, problem.size)))
    return EigList(entries=entries, meta={"fields": fields if want_vectors else None})

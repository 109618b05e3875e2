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

Each mesh gives one banded pencil K x = lam M x, and :func:`solve_pencil`
returns every eigenvalue below a cap: Sylvester's law of inertia counts them
exactly (spectrum slicing, Ericsson-Ruhe 1980), and one shift-invert ARPACK
call computes that many.  It is the only eigensolver of the package; the
Sturm-Liouville oracle uses it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as splinalg

from ..errors import ConvergenceError, DomainError
from ..geometry import BCKind, Profile
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


@dataclass(frozen=True)
class MeshSpec:
    """Mesh density: bulk size h, radial cap h <= radial_fraction * r."""

    h: float = 0.02
    radial_fraction: float = 0.1
    tip_floor: float = 1.0 / 64.0  # smallest element as a fraction of h
    min_elements: int = 2

    def scaled(self, c: float) -> "MeshSpec":
        return MeshSpec(self.h * c, self.radial_fraction, self.tip_floor, self.min_elements)


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
    if len(pts) - 1 < spec.min_elements:
        pts = np.linspace(r_lo, r_hi, spec.min_elements + 1)
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

    @property
    def points(self) -> np.ndarray:
        verts = self.vertices
        out = np.empty(2 * len(verts) - 1)
        out[0::2] = verts
        out[1::2] = 0.5 * (verts[:-1] + verts[1:])
        return out

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


def _element_segments(profile: Profile, nodes: np.ndarray) -> np.ndarray:
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    bps = np.array(profile.breakpoints)
    return np.clip(np.searchsorted(bps, mids, side="right") - 1, 0, len(profile.segments) - 1)


def _assemble(problem: ChannelProblem, nodes: np.ndarray):
    profile = problem.profile
    size = problem.size
    nel = len(nodes) - 1
    npts = 2 * len(nodes) - 1
    ndof = npts * size
    seg_of = _element_segments(profile, nodes)

    rows, cols, kvals, mvals = [], [], [], []
    for si, seg in enumerate(profile.segments):
        els = np.nonzero(seg_of == si)[0]
        if len(els) == 0:
            continue
        h = nodes[els + 1] - nodes[els]
        tq = nodes[els, None] + h[:, None] * _QX[None, :]
        # local cone radius at quadrature points
        t0 = profile.breakpoints[si]
        rq = seg.r_lo + (tq - t0) if seg.orientation > 0 else seg.r_hi - (tq - t0)
        pot = problem.potential_global(seg.orientation)  # (size, size)
        invr2 = 1.0 / (rq * rq)
        # element matrices: (nel_s, 3, 3) scalar parts
        ke_grad = np.einsum("qi,qj,q->ij", _DN, _DN, _QW)[None, :, :] / h[:, None, None]
        me = np.einsum("qi,qj,q->ij", _N, _N, _QW)[None, :, :] * h[:, None, None]
        kw = invr2 * _QW[None, :] * h[:, None]  # (nel_s, 6)
        ke_pot = np.einsum("eq,qi,qj->eij", kw, _N, _N)  # scalar 1/r^2 weight
        pts = np.stack([2 * els, 2 * els + 1, 2 * els + 2], axis=1)  # (nel_s, 3)
        for a in range(size):
            for b in range(size):
                block = ke_pot * pot[a, b]
                if a == b:
                    block = block + ke_grad
                r = (pts[:, :, None] * size + a).repeat(3, axis=2)
                c = (pts[:, None, :] * size + b).repeat(3, axis=1)
                rows.append(r.ravel())
                cols.append(c.ravel())
                kvals.append(block.ravel())
                if a == b:
                    mvals.append(np.broadcast_to(me, block.shape).ravel())
                else:
                    mvals.append(np.zeros(block.size))

    # seam corner matrices and endpoint natural terms
    def add_point_matrix(point: int, mat: np.ndarray):
        for a in range(size):
            for b in range(size):
                if mat[a, b] != 0.0:
                    rows.append(np.array([point * size + a]))
                    cols.append(np.array([point * size + b]))
                    kvals.append(np.array([mat[a, b]]))
                    mvals.append(np.zeros(1))

    seam_ks = problem.seam_matrices()
    for bp, kmat in zip(profile.breakpoints[1:-1], seam_ks):
        if kmat is None:
            continue
        vi = int(np.argmin(np.abs(nodes - bp)))
        add_point_matrix(2 * vi, kmat)
    ends = {"start": 0, "end": npts - 1}
    constraints: dict[int, list[np.ndarray]] = {}
    for which, point in ends.items():
        data = problem.endpoint(which)
        if data.bc is BCKind.REGULAR_TIP:
            constraints[point] = [row for row in np.eye(size)]
            continue
        if data.k_matrix is not None:
            add_point_matrix(point, data.k_matrix)
        if data.constraints:
            constraints[point] = [np.asarray(c, dtype=float) for c in data.constraints]

    K = sparse.coo_matrix(
        (np.concatenate(kvals), (np.concatenate(rows), np.concatenate(cols))), shape=(ndof, ndof)
    ).tocsr()
    M = sparse.coo_matrix(
        (np.concatenate(mvals), (np.concatenate(rows), np.concatenate(cols))), shape=(ndof, ndof)
    ).tocsr()
    T = _constraint_transform(npts, size, constraints)
    return K, M, T


def _constraint_transform(npts: int, size: int, constraints: dict) -> sparse.csr_matrix:
    """Sparse map from reduced to full dofs eliminating the endpoint constraints.

    Constraints only sit at points 0 and npts-1, so the map is block
    diagonal: a null-space basis of each end's constraint rows around an
    identity on the interior dofs.
    """

    def end_basis(point: int) -> np.ndarray:
        if point not in constraints:
            return np.eye(size)
        cmat = np.vstack(constraints[point])
        q, _ = np.linalg.qr(cmat.T, mode="complete")
        return q[:, np.linalg.matrix_rank(cmat) :]

    blocks = [end_basis(0), sparse.identity((npts - 2) * size), end_basis(npts - 1)]
    return sparse.block_diag(blocks, format="csr")


def solve_pencil(K, M, lam_cap: float, want_vectors: bool = False):
    """All eigenvalues below lam_cap of the symmetric pencil K x = lam M x, ascending.

    The count is certified by Sylvester's law of inertia: it is the number
    of negative pivots of an LDL^T factorisation of K - lam_cap M (a sparse
    LU in natural order without pivoting, valid for these banded pencils).
    Shift-invert ARPACK then computes exactly that many eigenpairs;
    ``want_vectors`` returns them M-orthonormal as columns, else None.
    Raises ConvergenceError if the factorisation needs pivoting, if the
    count leaves ARPACK no room (count >= n - 1), or if the computed
    eigenvalues do not all lie below the cap.
    """
    n = K.shape[0]
    lu = splinalg.splu(
        (K - lam_cap * M).tocsc(),
        permc_spec="NATURAL",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    natural = np.arange(n)
    if not (np.array_equal(lu.perm_r, natural) and np.array_equal(lu.perm_c, natural)):
        raise ConvergenceError("inertia count needs a factorisation without pivoting")
    count = int(np.count_nonzero(lu.U.diagonal() < 0.0))
    if count >= n - 1:
        raise ConvergenceError(f"{count} eigenvalues below {lam_cap} in a pencil of size {n}")
    if count == 0:
        return np.empty(0), (np.empty((n, 0)) if want_vectors else None)
    try:
        result = splinalg.eigsh(
            K,
            k=count,
            M=M,
            sigma=-1.0,
            which="LM",
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
    return vals, (vecs[:, order] if want_vectors else None)


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
                f"adjacent element {max(adjacent):.4g} exceeds r/2 (enable grading or lower h)"
            )


def single_mesh_eigenvalues(problem: ChannelProblem, nodes: np.ndarray, lam_max: float) -> np.ndarray:
    """Raw (unextrapolated) eigenvalues on one mesh; used by convergence studies."""
    K, M, T = _assemble(problem, nodes)
    vals, _ = solve_pencil(T.T @ K @ T, T.T @ M @ T, lam_max)
    return vals


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
    lam_cap = lam_max * 1.25 + 1.0

    K1, M1, T1 = _assemble(problem, nodes1)
    vals1, _ = solve_pencil(T1.T @ K1 @ T1, T1.T @ M1 @ T1, lam_cap)
    K2, M2, T2 = _assemble(problem, nodes2)
    Kr2, Mr2 = T2.T @ K2 @ T2, T2.T @ M2 @ T2
    vals2, vecs2 = solve_pencil(Kr2, Mr2, lam_cap, want_vectors)

    npair = min(len(vals1), len(vals2))
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
        if want_vectors and vecs2 is not None and i < vecs2.shape[1]:
            full = T2 @ vecs2[:, i]
            coeffs = full.reshape(-1, problem.size)
            fld = FemField(problem=problem, vertices=nodes2, coeffs=coeffs)
            _, wq, vq = fld.quadrature()
            norm = math.sqrt(float(np.sum(wq * np.sum(vq * vq, axis=1))))
            fld.coeffs = coeffs / norm
            fields.append(fld)
    meta = {"nodes": len(nodes2), "fields": fields if want_vectors else None}
    return EigList(entries=entries, meta=meta)

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
scattered with one ``np.bincount`` per matrix straight into LAPACK's upper
band storage.  End conditions only drop end dofs, by the per-slot mask of
``ChannelProblem.endpoint``, so the kept dofs are renumbered in order.
Every channel of a profile is assembled on the same two meshes, so
:func:`_assemble` computes only K per channel: the element integrals are
cached per (profile, mesh), and the band positions of the kept entries and
M per mesh, slot count and end drops.  The caches are small LRU caches (a
sweep runs over many profiles), and their arrays, like the cached
:func:`make_mesh` vertices, are read-only.
:func:`inertia_count` counts the eigenvalues below a cap by Sylvester's law
of inertia (spectrum slicing, Ericsson-Ruhe 1980).  A scalar pencil's
midpoint block is diagonal, so by Haynsworth's inertia additivity that count
is its negative pivots plus a Sturm count (LAPACK ``dstebz``; Barth, Martin
and Wilkinson 1967) of the tridiagonal vertex Schur complement.  A coupled
pencil condenses to a block tridiagonal one, which ``dstebz`` cannot count,
so it keeps a sparse LDL^T until coupled FEM goes.  :func:`solve_pencil`
computes that many, values only, by shift-invert ARPACK on a banded Cholesky;
:func:`inverse_iteration` gives one eigenvector.  They are the only
eigensolvers of the package; the Sturm-Liouville oracle assembles its own
pencil with :func:`band_assemble` and solves it here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

# scipy.linalg before scipy.sparse: loading scipy's OpenBLAS starts a worker
# thread that spins for about 0.1 s before it sleeps, and scipy.sparse's
# imports take longer than that, so the spin ends before any command runs
from scipy.linalg import blas, lapack  # isort: skip
import scipy.sparse as sparse
import scipy.sparse.linalg as splinalg

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
SIMPLE_GAP = 1e-6  # inverse_iteration: least gap to the other eigenvalues, relative to max(|lam|, 1)
RESIDUAL_TOL = 1e-8  # inverse_iteration: largest |K x - lam M x|, relative to max(|lam|, 1)


@dataclass(frozen=True)
class MeshSpec:
    """Mesh density: bulk size h, radial cap h <= radial_fraction * r."""

    h: float = 0.02
    radial_fraction: float = 0.1
    tip_floor: float = 1.0 / 64.0  # smallest element as a fraction of h

    def __post_init__(self):
        # the mesher steps by these sizes: zero, negative or NaN never ends
        for name in ("h", "radial_fraction", "tip_floor"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise DomainError(f"MeshSpec.{name} must be positive and finite, got {value}")

    def scaled(self, c: float) -> "MeshSpec":
        return MeshSpec(self.h * c, self.radial_fraction, self.tip_floor)


def _segment_radii(r_lo: float, r_hi: float, spec: MeshSpec) -> np.ndarray:
    # the element floor h * tip_floor, capped at half the smaller positive end
    # radius: elements beside a seam of radius r must not exceed r/2
    floor_h = min(spec.h * spec.tip_floor, 0.5 * (r_lo or r_hi))
    radii = [r_lo] if r_lo > 0.0 else [0.0, floor_h]
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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=8)
def make_mesh(profile: Profile, spec: MeshSpec) -> np.ndarray:
    """Vertex coordinates in global t; every segment boundary is a vertex.
    The array is cached and read-only."""
    nodes = [np.array([0.0])]
    t0 = 0.0
    for seg in profile.segments:
        radii = _segment_radii(seg.r_lo, seg.r_hi, spec)
        local = radii - seg.r_lo if seg.orientation > 0 else seg.r_hi - radii[::-1]
        nodes.append(t0 + local[1:])
        t0 += seg.length
    return _read_only(np.concatenate(nodes))


def refine_mesh(nodes: np.ndarray) -> np.ndarray:
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    return np.sort(np.concatenate([nodes, mids]))


@dataclass(eq=False)
class FemField:
    """One discrete eigenfunction: P2 coefficients on the solve mesh, computed on
    first read by :func:`inverse_iteration` on a shared (K, M, keep, vals, lam_cap)."""

    problem: ChannelProblem
    vertices: np.ndarray  # (nv,)
    pencil: tuple  # shared by the fields of one fem_spectrum call
    index: int  # of the eigenvalue in vals

    @cached_property
    def coeffs(self) -> np.ndarray:
        """(npoints, size), vertex/midpoint interleaved, unit L2 norm."""
        K, M, keep, vals, lam_cap = self.pencil
        coeffs = np.zeros(len(keep))
        coeffs[keep] = inverse_iteration(K, M, vals, lam_cap, self.index)
        return coeffs.reshape(-1, self.problem.size)

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


def band_positions(rows: np.ndarray, cols: np.ndarray, n: int, bw: int) -> tuple[np.ndarray, np.ndarray]:
    """The entries on or above the diagonal (rows <= cols), and their flat
    index in upper band storage of shape (bw + 1, n), A[i, j] at [bw + i - j, j]."""
    upper = np.flatnonzero(rows <= cols)
    return upper, (bw + rows[upper] - cols[upper]) * n + cols[upper]


def band_assemble(rows: np.ndarray, cols: np.ndarray, n: int, bw: int, *vals: np.ndarray) -> list:
    """Symmetric matrices summing each vals at (rows, cols), in upper band storage:
    shape (bw + 1, n), A[i, j] at [bw + i - j, j] as LAPACK's ``?pbtrf`` reads it.
    Entries below the diagonal are skipped, so the input lists both triangles.
    """
    upper, flat = band_positions(rows, cols, n, bw)
    return [np.bincount(flat, weights=v[upper], minlength=(bw + 1) * n).reshape(bw + 1, n) for v in vals]


def band_to_sparse(ab: np.ndarray) -> sparse.dia_matrix:
    """The full symmetric matrix of an upper band storage array, in DIA format."""
    bw, n = ab.shape[0] - 1, ab.shape[1]
    # offset d >= 0 holds A[j - d, j] = ab[bw - d, j] at column j, offset -d
    # holds A[j + d, j] = ab[bw - d, j + d]
    padded = np.hstack([ab, np.zeros((bw + 1, bw))])
    lower = [padded[bw - d, d : d + n] for d in range(bw, 0, -1)]
    return sparse.dia_matrix((np.vstack(lower + [ab[::-1]]), np.arange(-bw, bw + 1)), shape=(n, n))


@lru_cache(maxsize=4)
def _mesh_integrals(profile: Profile, mesh_key: bytes) -> tuple:
    """What a mesh of the profile gives every channel: the per-element P2
    integrals ke_grad (of u' v'), me (of u v) and ke_pot (of u v / r^2), each
    (nel, 3, 3); the mask of elements whose radius grows with t, (nel, 1, 1);
    and the vertex of each corner term, the seams then the two ends.  The
    vertices are ``np.frombuffer(mesh_key)``; raises ConvergenceError if
    they do not resolve every seam (:func:`_check_resolution`).
    """
    nodes = np.frombuffer(mesh_key)
    _check_resolution(profile, nodes)
    h = np.diff(nodes)
    # the profile radius is linear between breakpoints, with slope +-1
    bps = profile.breakpoints
    rq = np.interp(nodes[:-1, None] + h[:, None] * _QX[None, :], bps, [profile.radius(t) for t in bps])
    ke_grad = np.einsum("qi,qj,q->ij", _DN, _DN, _QW)[None, :, :] / h[:, None, None]
    me = np.einsum("qi,qj,q->ij", _N, _N, _QW)[None, :, :] * h[:, None, None]
    ke_pot = np.einsum("eq,qi,qj->eij", _QW[None, :] * h[:, None] / (rq * rq), _N, _N)
    rising = (rq[:, -1] > rq[:, 0])[:, None, None]
    corners = tuple(int(np.argmin(np.abs(nodes - t))) for t in (*bps[1:-1], 0.0, bps[-1]))
    return (*map(_read_only, (ke_grad, me, ke_pot, rising)), corners)


@lru_cache(maxsize=8)
def _dof_layout(profile: Profile, mesh_key: bytes, size: int, drops: tuple[bytes, bytes], corners: tuple) -> tuple:
    """The channel-independent half of a pencil on one mesh, for problems of
    ``size`` slots whose ends drop the slots of ``drops`` (``EndpointData.drop``
    as bytes) and which have the corner terms flagged in ``corners``:
    (entries, flat, M, keep).  A pencil's entries are the element blocks,
    then each corner block; ``entries`` picks the kept ones on or above the
    diagonal, and ``flat`` is their index in upper band storage.  M is the
    mass band, and keep the mask of the kept dofs.
    """
    _, me, _, _, vertices = _mesh_integrals(profile, mesh_key)
    nel = len(me)
    # element blocks indexed (element, point, slot, point, slot); element e
    # owns points 2e, 2e+1, 2e+2, that is dofs 2e*size .. 2e*size + 3*size - 1
    dofs = 2 * size * np.arange(nel)[:, None] + np.arange(3 * size)
    shape = (nel, 3 * size, 3 * size)
    rows = [np.broadcast_to(dofs[:, :, None], shape).ravel()]
    cols = [np.broadcast_to(dofs[:, None, :], shape).ravel()]
    mvals = [(me[:, :, None, :, None] * np.eye(size)[None, None, :, None, :]).ravel()]
    for vertex, present in zip(vertices, corners):
        if present:
            pdofs = 2 * size * vertex + np.arange(size)
            rows.append(np.repeat(pdofs, size))
            cols.append(np.tile(pdofs, size))
            mvals.append(np.zeros(size * size))

    keep = np.ones((2 * nel + 1, size), dtype=bool)
    keep[0], keep[-1] = (~np.frombuffer(d, dtype=bool) for d in drops)
    keep = keep.ravel()
    target = np.cumsum(keep) - 1
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    kept = keep[rows] & keep[cols]
    n, bw = int(np.count_nonzero(keep)), 3 * size - 1
    upper, flat = band_positions(target[rows[kept]], target[cols[kept]], n, bw)
    entries = np.flatnonzero(kept)[upper]
    M = np.bincount(flat, weights=np.concatenate(mvals)[entries], minlength=(bw + 1) * n).reshape(bw + 1, n)
    # int32 indices halve what the cache holds; bincount widens them again
    return tuple(map(_read_only, (entries.astype(np.int32), flat.astype(np.int32), M, keep)))


def _assemble(problem: ChannelProblem, nodes: np.ndarray):
    """Pencil (K, M) in upper band storage and the mask of the dofs it keeps.

    Dofs are ordered (point, slot); the end points drop the slots of
    ``ChannelProblem.endpoint`` and kept dof i becomes cumsum(keep)[i] - 1.
    An element's three points span 3 * size consecutive dofs, hence the
    half-bandwidth 3 * size - 1; dropping end dofs never widens it.

    Only K depends on the channel beyond its slot count and end drops: it
    takes one product per element block and one ``np.bincount``.  The rest
    is cached, in small LRU caches so a run over many profiles holds few:
    per (profile, mesh) the element integrals (``_mesh_integrals``, 4
    meshes), and per mesh, slot count, end drops and corner terms the dof
    layout and M (``_dof_layout``, 8 layouts).  Entries are summed in the
    same order either way.  M and keep are those cached arrays, read-only;
    callers write only into copies (``K - lam M``, ``K + M``).
    """
    size = problem.size
    ends = problem.endpoint("start"), problem.endpoint("end")
    # seam corner matrices and endpoint natural terms, each at one vertex
    mats = [*problem.seam_matrices(), ends[0].k_matrix, ends[1].k_matrix]
    mesh_key = nodes.tobytes()
    ke_grad, _, ke_pot, rising, _ = _mesh_integrals(problem.profile, mesh_key)
    entries, flat, M, keep = _dof_layout(
        problem.profile, mesh_key, size, (ends[0].drop.tobytes(), ends[1].drop.tobytes()),
        tuple(mat is not None for mat in mats),
    )
    pot = np.where(rising, problem.potential_global(+1), problem.potential_global(-1))  # by segment orientation
    slot_eye = np.eye(size)[None, None, :, None, :]
    ke = ke_pot[:, :, None, :, None] * pot[:, None, :, None, :] + ke_grad[:, :, None, :, None] * slot_eye
    kvals = np.concatenate([ke.ravel(), *(np.ravel(mat) for mat in mats if mat is not None)])
    K = np.bincount(flat, weights=kvals[entries], minlength=M.size).reshape(M.shape)
    return K, M, keep


def inertia_count(K: np.ndarray, M: np.ndarray, lam_cap: float) -> int:
    """Eigenvalues below lam_cap of the banded pencil K x = lam M x: negative inertia
    of A = K - lam_cap M (Sylvester).  A scalar pencil is condensed onto its
    vertices: with midpoint pivots d, vertex-midpoint couplings l, r and vertex
    coupling c per element, the Schur complement has diagonal A_vv - l^2/d -
    r^2/d and off-diagonal c - l r/d; the count is count(d < 0) plus its Sturm
    count on (vl, 0], vl below its Gershgorin interval.  A dropped end vertex is
    padded as a decoupled unit diagonal, one positive eigenvalue; the first was
    dropped when M[0, 2] = 0, since a vertex-vertex mass (-h/30, int f^n N0 N2)
    never is and a midpoint-midpoint one always is.  Raises ConvergenceError on
    a zero midpoint pivot or a pivoting coupled LU; a value at the cap to
    rounding may count either way.
    """
    A = K - lam_cap * M
    if A.shape[0] != 3:  # coupled: SuperLU until coupled FEM goes (ROADMAP item 1, step 3)
        opts = dict(permc_spec="NATURAL", diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        lu = splinalg.splu(band_to_sparse(A).tocsc(), **opts)
        natural = np.arange(A.shape[1])
        if not (np.array_equal(lu.perm_r, natural) and np.array_equal(lu.perm_c, natural)):
            raise ConvergenceError("inertia count needs a factorisation without pivoting")
        return int(np.count_nonzero(lu.U.diagonal() < 0.0))
    pad = np.array([[0.0], [0.0], [1.0]])
    A = np.hstack([pad, A]) if M[0, 2] == 0.0 else A
    A = np.hstack([A, pad]) if A.shape[1] % 2 == 0 else A
    d, l, r, c = A[2, 1::2], A[1, 1::2], A[1, 2::2], A[0, 2::2]
    if not np.all(d):
        raise ConvergenceError(f"zero midpoint pivot in K - {lam_cap} M")
    v = A[2, ::2].copy()
    v[:-1] -= l * l / d
    v[1:] -= r * r / d
    e = c - l * r / d
    vl = -1.0 - 2.0 * (np.abs(v).max() + 2.0 * np.abs(e).max())
    # range "V" counts (vl, 0]; with a huge abstol dstebz never bisects, so cannot fail
    below = lapack.dstebz(v, e, 1, vl, 0.0, 0, 0, 1e300, "B")[0]
    return int(np.count_nonzero(d < 0.0)) + below


def solve_pencil(K: np.ndarray, M: np.ndarray, lam_cap: float) -> np.ndarray:
    """All eigenvalues below lam_cap of the banded pencil K x = lam M x, ascending.

    K and M are in upper band storage.  :func:`inertia_count` gives the
    count; that many eigenvalues come from shift-invert ARPACK at sigma = -1
    on U^-T M U^-1, with K + M = U^T U a banded Cholesky factorisation: its
    eigenvalues are nu = 1 / (lam + 1), and standard mode 3 returns
    sigma + 1/nu = lam with no M-products.  ARPACK never applies eigsh's
    first argument in this mode; K goes there for its shape.  No Ritz
    vectors are formed; :func:`inverse_iteration` gives the eigenvector of
    one value.  Raises ConvergenceError if the count leaves ARPACK no room
    (count >= n - 1), if K + M is not positive definite, or if an
    eigenvalue returned is not below the cap.
    """
    bw, n = K.shape[0] - 1, K.shape[1]
    count = inertia_count(K, M, lam_cap)
    if count >= n - 1:
        raise ConvergenceError(f"{count} eigenvalues below {lam_cap} in a pencil of size {n}")
    if count == 0:
        return np.empty(0)
    chol, info = lapack.dpbtrf(K + M)
    if info != 0:
        raise ConvergenceError(f"K + M is not positive definite (dpbtrf info {info})")
    mf = np.asfortranarray(M)

    def apply(y):
        z = lapack.dtbtrs(chol, y.reshape(n, 1))[0]
        z = blas.dsbmv(bw, 1.0, mf, z[:, 0])
        return lapack.dtbtrs(chol, z.reshape(n, 1), trans="T")[0][:, 0]

    try:
        vals = splinalg.eigsh(
            band_to_sparse(K),
            k=count,
            sigma=-1.0,
            which="LM",
            OPinv=splinalg.LinearOperator((n, n), matvec=apply, dtype=float),
            v0=np.full(n, 1.0 / math.sqrt(n)),
            return_eigenvectors=False,
        )
    except splinalg.ArpackError as exc:  # pragma: no cover
        raise ConvergenceError(f"eigensolver failed: {exc}") from exc
    vals = np.sort(vals)
    if vals[-1] >= lam_cap:
        raise ConvergenceError(f"eigensolver missed an eigenvalue below {lam_cap}: got {vals[-1]}")
    return vals


def inverse_iteration(K: np.ndarray, M: np.ndarray, vals: np.ndarray, lam_cap: float, i: int) -> np.ndarray:
    """M-normalised eigenvector of vals[i], where vals are all the eigenvalues
    below lam_cap of the banded pencil K x = lam M x (:func:`solve_pencil`).

    K - vals[i] M is factored once in general band storage (``dgbtrf``,
    partial pivoting) and solved twice from a fixed start vector (Parlett,
    *The Symmetric Eigenvalue Problem*, ch. 4).  Raises ConvergenceError if
    another value of vals, or lam_cap, lies within SIMPLE_GAP max(|lam|, 1)
    of lam = vals[i], so that its eigenvector is not determined, or if the
    residual |K x - lam M x| exceeds RESIDUAL_TOL max(|lam|, 1).
    """
    bw, n = K.shape[0] - 1, K.shape[1]
    lam = vals[i]
    scale = max(abs(lam), 1.0)
    if np.min(np.abs(np.append(np.delete(vals, i), lam_cap) - lam)) <= SIMPLE_GAP * scale:
        raise ConvergenceError(f"eigenvalue {lam} is not simple to {SIMPLE_GAP:g}: no eigenvector")
    shifted, mf = np.asfortranarray(K - lam * M), np.asfortranarray(M)
    # general band storage holds A[i, j] at [2 bw + i - j, j]; dgbtrf fills rows 0..bw-1
    gb = np.zeros((3 * bw + 1, n))
    gb[bw : 2 * bw + 1] = shifted
    for d in range(1, bw + 1):
        gb[2 * bw + d, : n - d] = shifted[bw - d, d:]
    lu, piv, _ = lapack.dgbtrf(gb, bw, bw)
    x = np.linspace(1.0, 2.0, n)
    for _ in range(2):
        y = lapack.dgbtrs(lu, bw, bw, blas.dsbmv(bw, 1.0, mf, x).reshape(n, 1), piv)[0][:, 0]
        x = y / math.sqrt(y @ blas.dsbmv(bw, 1.0, mf, y))
    residual = np.max(np.abs(blas.dsbmv(bw, 1.0, shifted, x)))
    if not residual <= RESIDUAL_TOL * scale:
        raise ConvergenceError(f"inverse iteration at {lam}: residual {residual} exceeds {RESIDUAL_TOL:g}")
    return x


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
    return solve_pencil(K, M, lam_max)


def fem_spectrum(
    problem: ChannelProblem,
    mesh: MeshSpec,
    lam_max: float,
    want_vectors: bool = False,
) -> EigList:
    """Eigenvalues <= lam_max with Richardson extrapolation over two meshes.

    Entries report the extrapolated value and |lam_2 - lam_1| / 15 as the
    convergence estimate; with ``want_vectors`` each entry also carries its
    eigenform (``Eigenvalue.field``), a fine-mesh :class:`FemField` of unit
    L2 norm.  The fields share the fine pencil, and each computes its
    eigenvector only when its ``coeffs`` are first read.
    """
    if not 0 < lam_max < math.inf:
        raise DomainError(f"lam_max must be positive and finite, got {lam_max}")
    nodes1 = make_mesh(problem.profile, mesh)
    nodes2 = refine_mesh(nodes1)
    lam_cap = pencil_cap(lam_max)

    vals1 = single_mesh_eigenvalues(problem, nodes1, lam_cap)
    K2, M2, keep = _assemble(problem, nodes2)
    vals2 = solve_pencil(K2, M2, lam_cap)
    # M is the exact L2 Gram matrix, so M-normalised means unit L2 norm
    pencil = (K2, M2, keep, vals2, lam_cap)

    npair = min(len(vals1), len(vals2))
    if npair < len(vals2) and vals2[npair] <= lam_max:
        raise ConvergenceError(f"{problem.label}: refined mesh adds {vals2[npair]}, coarse one exceeds {lam_cap}")
    found = []
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
        found.append((float(ext), float(est), i))
    # the two copies of a double value may extrapolate in either order, by
    # rounding: index by rank of the extrapolated value, as the slot path
    # does, so the lower copy is index 0 at any cap; the field keeps its pencil index
    found.sort(key=lambda f: f[0])
    entries = [
        Eigenvalue(
            value=ext,
            problem=problem,
            index=rank,
            method="fem",
            error=est,
            field=FemField(problem, nodes2, pencil, i) if want_vectors else None,
        )
        for rank, (ext, est, i) in enumerate(found)
    ]
    return EigList(entries=entries)

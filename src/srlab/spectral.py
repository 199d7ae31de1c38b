"""Finite-difference discretisation of L + V_alpha on a truncated box.

The kinetic part is assembled as sum_j D_j^T D_j from forward-difference
factors D_j ~ X_j with zero (Dirichlet) exterior values, mirroring the
Dirichlet-form definition of the operator: the result is symmetric positive
semidefinite by construction and second-order consistent at interior nodes
(the first-order errors of the paired forward/backward factors cancel).
The coefficient (1/2)(J_k x, e_j) of d/dt_k in X_j does not depend on x_j
or t, so sampling it at the source node equals sampling at the face
midpoint.  `assemble_operator` builds H in one pass; each exterior row
below a lower face has one nonzero, so that layer adds a diagonal to
D_j^T D_j.

The lowest eigenvalues come from ARPACK's implicitly restarted Lanczos
(`scipy.sparse.linalg.eigsh`).  Counts below a level are exact inertia
counts of the assembled matrix (Sylvester's law on a sparse symmetric LDL^T
factorisation, ordered by nested dissection of the operator's grid);
reading a growing count as essential spectrum of the continuum operator
remains a heuristic.  Dense eigensolver cross-checks for small grids live
in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .forms import QuadratureGrid, horizontal_coefficients
from .group import MetivierStructure, _require_finite
from .potential import potential_value_xt

# scipy.sparse.linalg (ARPACK, SuperLU) is imported inside the two solvers:
# in a fresh process it takes 0.09-0.14 s (about 80 ms in scipy.linalg) and
# 9 MB of RSS, which runs that never solve an eigenproblem do not pay.


Grid3 = QuadratureGrid   # the cell-midpoint grid, shared with the quadrature rules


def _difference(grid: Grid3, axis: int) -> sp.csr_matrix:
    # (Du)_i = (u_{i+1} - u_i)/h along one axis, with u = 0 past the upper face;
    # the axis's neighbour is `stride` entries on in the flat C-order index
    h = grid.hx if axis < grid.s.horizontal_dim else grid.ht
    stride = math.prod(grid.shape[axis + 1:])
    upper = np.full(grid.dim, 1.0 / h)
    upper.reshape(-1, grid.shape[axis], stride)[:, -1] = 0.0   # the upper face; tocsr drops 0s
    return sp.diags([np.full(grid.dim, -1.0 / h), upper[:-stride]], [0, stride], format="csr")


def _dissection_order(shape: tuple) -> np.ndarray:
    """C-order indices of a tensor grid's nodes in one-plane nested-dissection order.

    The difference stencil reaches only +-1 on every axis, so one node plane
    separates a box: cut the longest axis at its middle plane, order both
    halves the same way and number the plane last (A. George, SIAM J. Numer.
    Anal. 10, 1973).  A box's order depends only on its extents, so each
    extent is ordered once and shifted into place.
    """
    strides = np.array([math.prod(shape[a + 1:]) for a in range(len(shape))])
    memo = {}

    def natural(ext):
        return np.indices(ext).reshape(len(ext), -1).T @ strides

    def order(ext):
        if ext not in memo:
            a = max(range(len(ext)), key=ext.__getitem__)
            mid = ext[a] // 2
            memo[ext] = natural(ext) if ext[a] < 3 else np.concatenate([
                order(ext[:a] + (mid,) + ext[a + 1:]),
                order(ext[:a] + (ext[a] - mid - 1,) + ext[a + 1:]) + (mid + 1) * strides[a],
                natural(ext[:a] + (1,) + ext[a + 1:]) + mid * strides[a]])
        return memo[ext]

    return order(tuple(shape))


@dataclass(frozen=True)
class SparseSymmetricOperator:
    """A scipy CSR matrix that is exactly symmetric, checked once on build,
    with the node layout of its rows, the `grid_shape`.

    The input is copied to CSR with duplicates summed and indices sorted;
    ValueError is raised unless it equals its transpose entry for entry and
    has prod(grid_shape) rows.  The layout takes no part in equality; a
    matrix with no grid behind it takes the flat layout (dim,).
    """

    matrix: sp.csr_matrix
    grid_shape: tuple = field(compare=False, repr=False)

    def __post_init__(self):
        a = sp.csr_matrix(self.matrix, copy=True)
        a.sum_duplicates()
        a.sort_indices()
        if a.shape[0] != a.shape[1] or (a != a.T).nnz:
            raise ValueError("operator is not exactly symmetric")
        if a.shape[0] != math.prod(self.grid_shape):
            raise ValueError("node layout does not match the matrix dimension")
        object.__setattr__(self, "matrix", a)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def nnz(self) -> int:
        return int(self.matrix.nnz)

    @property
    def grid_order(self) -> np.ndarray:
        """Row order by nested dissection of the grid."""
        return _dissection_order(self.grid_shape)

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()


def assemble_operator(alpha: float, s: MetivierStructure, grid: Grid3) -> SparseSymmetricOperator:
    """H = sum_j D_j^T D_j + diag(V_alpha at nodes), exactly symmetric.

    A non-finite alpha, a grid built for other dimensions, a V_alpha that
    is not finite at some node, or an entry that overflows raise ValueError.
    The operator records the grid's node layout.
    """
    if grid.s.horizontal_dim != s.horizontal_dim or grid.s.m != s.m:
        raise ValueError("grid was built for a structure of different dimensions")
    x, t = grid.nodes()
    v = potential_value_xt(alpha, s, x, t)
    # The exterior rows of D_j below the lower faces (one nonzero each, so a
    # diagonal of D_j^T D_j) make those faces Dirichlet, not Neumann, so
    # eigenvalues do not increase as the box grows.  Added in D_j's row order,
    # each sum rounds as in the product with those rows stacked under D_j.
    d2 = s.horizontal_dim
    c = horizontal_coefficients(s, x)   # c[:, j, k] multiplies d/dt_k in X_j
    lower = [i == 0 for i in np.unravel_index(np.arange(grid.dim), grid.shape)]
    dt = [_difference(grid, d2 + k) for k in range(s.m)]
    inv_hx = 1.0 / grid.hx
    kin = None
    with np.errstate(over="ignore", invalid="ignore"):   # the entries are checked below
        for j in range(d2):
            dj = _difference(grid, j)
            for k in range(s.m):
                dj = dj + sp.diags(c[:, j, k], format="csr") @ dt[k]
            term = dj.T @ dj + sp.diags(lower[j] * (inv_hx * inv_hx))
            for k in range(s.m):
                term = term + sp.diags(lower[d2 + k] * (c[:, j, k] / grid.ht) ** 2)
            kin = term if kin is None else kin + term
    h = kin + sp.diags(v, format="csr")
    if not np.all(np.isfinite(h.data)):
        raise ValueError(f"an operator entry overflows at hx = {grid.hx}, ht = {grid.ht}")
    return SparseSymmetricOperator(h, grid_shape=grid.shape)


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: np.ndarray
    residual_norms: np.ndarray
    iterations: int
    converged: bool
    grid: Grid3 | None = None


def _inf_norm(a: sp.spmatrix) -> float:
    return float(abs(a).sum(axis=1).max())


def lanczos_lowest(h: SparseSymmetricOperator, k: int, tol: float = 1e-8,
                   max_iter: int = 1000, seed: int = 0,
                   grid: Grid3 | None = None) -> SpectrumResult:
    """Lowest k eigenpairs by implicitly restarted Lanczos (ARPACK, which="SA").

    `tol` bounds the true residual norms |H v - theta v| absolutely; ARPACK's
    own test is relative to |theta|, so it is handed tol / |H|_inf floored at eps
    (a subnormal one made reruns differ); `converged` is decided on the recomputed
    residuals.  `max_iter` is ARPACK's restart budget; `iterations` reports the
    operator applications made, about max(20, 2k + 1) - k per restart.
    Deterministic for a given seed (it draws the start vector).  Non-convergence is reported through
    `converged=False`, not as an exception: pairs ARPACK did not deliver
    read +inf in both `eigenvalues` and `residual_norms`.
    """
    n = h.dim
    if k < 1 or k >= n:
        raise ValueError("need 1 <= k < dimension")
    _require_finite("tol", tol, positive=True)
    import scipy.sparse.linalg as spla  # deferred, see the module imports
    a = h.matrix
    applications = 0

    def matvec(v):
        nonlocal applications
        applications += 1
        return a @ v

    v0 = np.random.default_rng(seed).standard_normal(n)
    scale = _inf_norm(a)
    try:
        theta, vectors = spla.eigsh(spla.LinearOperator((n, n), matvec=matvec, dtype=float),
                                    k=k, which="SA", v0=v0, maxiter=max_iter,
                                    tol=max(tol / scale, np.finfo(float).eps))
    except spla.ArpackNoConvergence as exc:
        theta, vectors = exc.eigenvalues, exc.eigenvectors
    order = np.argsort(theta)
    theta, vectors = theta[order], vectors[:, order]
    # in units of a power of two near |H|_inf, so no square overflows; the scaling
    # is exact, so norms that were finite keep their bits
    unit = 2.0 ** math.frexp(scale)[1]
    residuals = unit * np.linalg.norm((a @ vectors - vectors * theta) / unit, axis=0)
    pad = np.full(k - theta.size, np.inf)
    converged = bool(theta.size == k and np.all(residuals <= tol))
    return SpectrumResult(eigenvalues=np.concatenate([theta, pad]),
                          residual_norms=np.concatenate([residuals, pad]),
                          iterations=applications, converged=converged, grid=grid)


# Smallest |pivot| of H - lam*I, relative to |H - lam*I|_inf, below which the
# factorisation counts as singular and the count is refused: far above the
# LDL^T backward error (about dim * eps), far below the smallest relative
# pivot seen at levels 1e-6 off the spectrum of small test grids (3e-8).
PIVOT_RTOL = 1e-10


@dataclass(frozen=True)
class EigenCount:
    count: int
    is_lower_bound: bool
    smallest_pivot: float
    fill: int   # L.nnz + U.nnz of the factorisation


def eigen_count_below(h: SparseSymmetricOperator, lam: float,
                      budget: int = 50, tol: float = 1e-6,
                      max_iter: int = 2000, seed: int = 0,
                      k_start: int = 8) -> EigenCount:
    """Number of eigenvalues strictly below lam, by Sylvester's law of inertia.

    H - lam*I is factored P (H - lam*I) P^T = L D L^T by SuperLU in symmetric
    mode with diagonal pivots only, and the count is the number of negative
    pivots in D: exact for the assembled matrix up to the factorisation's
    backward error.  P is the operator's nested-dissection `grid_order`; the
    count does not depend on P, but `smallest_pivot` and `fill` do (a flat
    layout of a box fills several times more).  ValueError is raised when the
    smallest |pivot| is below PIVOT_RTOL * |H - lam*I|_inf (lam on an
    eigenvalue, as for a diagonal H), and when SuperLU took an off-diagonal
    pivot, which voids the congruence.  The pivot test does not certify a
    gap: a shift within rounding of an eigenvalue whose eigenvector is small
    where elimination ends can pass it, and its count may then be off by one.

    `is_lower_bound` is always False, `smallest_pivot` is min |D| and `fill`
    is the factor's stored entries, L.nnz + U.nnz.
    `budget`, `tol`, `max_iter`, `seed` and `k_start` are kept for callers of
    the former Lanczos count and do not affect the result; `tol` must still
    be finite and positive.
    """
    _require_finite("lam", lam)
    _require_finite("tol", tol, positive=True)
    import scipy.sparse.linalg as spla  # deferred, see the module imports
    order = h.grid_order
    shifted = (h.matrix[order][:, order] - lam * sp.identity(h.dim, format="csr")).tocsc()
    on_eigenvalue = f"lam = {lam} sits on an eigenvalue to working precision"
    try:
        lu = spla.splu(shifted, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:  # SuperLU met an exactly zero pivot
        raise ValueError(f"{on_eigenvalue} ({exc})") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise ValueError(f"factorisation of H - {lam}*I took an off-diagonal pivot; "
                         "the inertia count does not apply")
    pivots = lu.U.diagonal()
    smallest = float(np.min(np.abs(pivots)))
    if smallest < PIVOT_RTOL * _inf_norm(shifted):
        raise ValueError(f"{on_eigenvalue} (smallest pivot {smallest:.3e})")
    return EigenCount(count=int(np.sum(pivots < 0)), is_lower_bound=False,
                      smallest_pivot=smallest, fill=int(lu.L.nnz + lu.U.nnz))


@dataclass(frozen=True)
class BoxStudyRow:
    grid: Grid3
    eigenvalues: np.ndarray
    residual_norms: np.ndarray
    rel_change: np.ndarray | None


@dataclass(frozen=True)
class BoxStudy:
    alpha: float
    rows: list


def box_convergence_study(alpha: float, s: MetivierStructure, grids,
                          k: int, tol: float = 1e-6, max_iter: int = 2000,
                          seed: int = 0) -> BoxStudy:
    """Lowest-k eigenvalues over a nested family of boxes.

    Dirichlet eigenvalues are non-increasing along nested aligned grids; a
    stabilising tail is the discrete-spectrum signal, growing counts the
    opposite one.
    """
    grids = list(grids)
    for g0, g1 in zip(grids, grids[1:]):
        if g1.x_half < g0.x_half or g1.t_half < g0.t_half:
            raise ValueError("grids must be nested (non-decreasing half-widths)")
    rows = []
    prev = None
    for g in grids:
        op = assemble_operator(alpha, s, g)
        res = lanczos_lowest(op, k=k, tol=tol, max_iter=max_iter, seed=seed, grid=g)
        rel = None
        if prev is not None:
            m = min(len(prev), len(res.eigenvalues))
            denom = np.maximum(np.abs(prev[:m]), 1e-30)
            rel = np.abs(res.eigenvalues[:m] - prev[:m]) / denom
        rows.append(BoxStudyRow(grid=g, eigenvalues=res.eigenvalues,
                                residual_norms=res.residual_norms, rel_change=rel))
        prev = res.eigenvalues
    return BoxStudy(alpha=alpha, rows=rows)

"""Analytic test functions, quadrature of the energy forms, and Weyl translates.

Test functions expose exact Euclidean derivatives by order: `value(x, t)`,
`gradient(x, t)` -> (value, gx, gt) and `derivatives(x, t)`, which adds the
Hessians (hxx, hxt, htt); each kernel calls the lowest order it reads.  The
left-invariant calculus is then pure chain rule through the horizontal
fields X_j = d/dx_j + (1/2) sum_k (J_k x, e_j) d/dt_k.  Because the
coefficient of d/dt_k in X_j does not depend on x_j or t,

    sum_j X_j^2 f = tr Hxx + 2 sum_{jk} c_{jk} Hxt_{jk}
                    + sum_{kl} (sum_j c_{jk} c_{jl}) Htt_{kl},

with c_{jk}(x) = (1/2)(J_k x)_j.  A `SmoothBump` contracts this from its
profile derivatives without forming the Hessians; a left translate keeps
the tensor form.  Only integrals carry discretisation
error: the tensor midpoint rule is O(h^2) with positive weights.  A node sum
runs over C-order blocks of at most `_BLOCK` nodes, x-rows times t-rows passed
as broadcasting views: memory does not grow with the grid, and x-only and
t-only factors are evaluated once per table row.  A bump or central translate
sums only its x-ball's and t-ball's rows.  numpy sums each block pairwise and
the partials in order, so every sum is bit-stable run to run.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .group import GroupPoint, MetivierStructure, _dot, _require_finite
from .norms import weight_xt
from .potential import fit_loglog_slope  # noqa: F401  (re-exported: forms.fit_loglog_slope)
from .potential import (_grad_kaplan, _norm_jet, _potential,
                        potential_closed_form_xt, potential_value_xt)

_BLOCK = 1 << 14
_SUPPORT_SLACK = 1.0 + 1e-6   # support rows keep |x|^2 < a^2 times this (and t alike)


def _profile(sq, order: int):
    """(g, g', g'')[:order + 1] of g(s) = exp(-1/(1-s)) for s < 1, 0 otherwise.

    g'  = -g / (1-s)^2
    g'' = g (2s - 1) / (1-s)^4
    All three vanish smoothly at s = 1; evaluation is guarded so the
    rational factors are never formed where g underflows to zero.
    """
    sq = np.asarray(sq, dtype=float)
    inside = sq < 1.0 - 1e-9
    one_ms = np.where(inside, 1.0 - sq, 1.0)
    out = [np.where(inside, np.exp(-1.0 / one_ms), 0.0)]
    if order >= 1:
        out.append(np.where(inside, -out[0] / one_ms ** 2, 0.0))
    if order >= 2:
        out.append(np.where(inside, out[0] * (2.0 * sq - 1.0) / one_ms ** 4, 0.0))
    return out


@dataclass(frozen=True)
class SmoothBump:
    """Product bump psi(x, t) = g(|x|^2 / a^2) g(|t|^2 / b^2).

    Supported in {|x| <= a} x {|t| <= b}; psi and all derivatives vanish on
    the support boundary, and psi(identity) = g(0)^2 = e^{-2} > 0.
    """

    x_radius: float
    t_radius: float

    def __post_init__(self):
        for name in ("x_radius", "t_radius"):   # the profiles divide by the squares
            r = getattr(self, name)
            _require_finite(name, r, positive=True)
            if not 2.0 ** -1022 <= r * r < math.inf:
                raise ValueError(f"{name} squared leaves the normal double range, got {r}")

    def center(self, s: MetivierStructure) -> GroupPoint:
        return GroupPoint(np.zeros(s.horizontal_dim), np.zeros(s.m))

    def support_box(self, s: MetivierStructure):
        """(x_extent, t_extent) per axis around the center."""
        return (np.full(s.horizontal_dim, self.x_radius),
                np.full(s.m, self.t_radius))

    def _profiles(self, x, t, order: int):
        """The profiles [u, u', ...] of s_x = |x|^2/a^2 and [v, v', ...] of
        s_t = |t|^2/b^2, each to derivative `order`, and for order >= 1 the
        chain-rule factors dx = d s_x / d x = 2x/a^2 and dt = 2t/b^2."""
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        u = _profile(_dot(x, x) / self.x_radius ** 2, order)
        v = _profile(_dot(t, t) / self.t_radius ** 2, order)
        if order == 0:
            return u, v, None, None
        return u, v, 2.0 * x / self.x_radius ** 2, 2.0 * t / self.t_radius ** 2

    def value(self, x, t) -> np.ndarray:
        (u,), (v,), _, _ = self._profiles(x, t, 0)
        return u * v

    def gradient(self, x, t):
        """(value, gx, gt): the first three entries of `derivatives`."""
        (u, u1), (v, v1), dx, dt = self._profiles(x, t, 1)
        return u * v, (u1 * v)[..., None] * dx, (u * v1)[..., None] * dt

    def derivatives(self, x, t):
        """(value, gx, gt, hxx, hxt, htt) with batch shape (..., dims)."""
        (u, u1, u2), (v, v1, v2), dx, dt = self._profiles(x, t, 2)
        val = u * v
        gx = (u1 * v)[..., None] * dx
        gt = (u * v1)[..., None] * dt
        eye_x = np.eye(dx.shape[-1])
        eye_t = np.eye(dt.shape[-1])
        hxx = ((u2 * v)[..., None, None] * dx[..., :, None] * dx[..., None, :]
               + (u1 * v)[..., None, None] * (2.0 / self.x_radius ** 2) * eye_x)
        htt = ((u * v2)[..., None, None] * dt[..., :, None] * dt[..., None, :]
               + (u * v1)[..., None, None] * (2.0 / self.t_radius ** 2) * eye_t)
        hxt = (u1 * v1)[..., None, None] * dx[..., :, None] * dt[..., None, :]
        return val, gx, gt, hxx, hxt, htt

    def _value_and_sub_laplacian(self, s: MetivierStructure, x, t):
        """(psi, L psi) from one evaluation of the profiles, without the Hessians
        of `derivatives`: with c the X_j coefficients, dx, dt as in `_profiles`
        and |c|_F^2 = tr(c^T c),

            -L psi = u'' v |dx|^2 + u' v (2/a^2) 2n + 2 u' v' dx . (c dt)
                     + u v'' |c dt|^2 + u v' (2/b^2) |c|_F^2.
        """
        (u, u1, u2), (v, v1, v2), dx, dt = self._profiles(x, t, 2)
        c = horizontal_coefficients(s, x)
        c_dt = _dot(c, dt[..., None, :])
        c_flat = np.swapaxes(c, -1, -2).reshape(c.shape[:-2] + (s.m * s.horizontal_dim,))
        return u * v, -(u2 * v * _dot(dx, dx)
                        + u1 * v * (2.0 / self.x_radius ** 2) * dx.shape[-1]
                        + 2.0 * u1 * v1 * _dot(dx, c_dt)
                        + u * v2 * _dot(c_dt, c_dt)
                        + u * v1 * (2.0 / self.t_radius ** 2) * _dot(c_flat, c_flat))


@dataclass(frozen=True)
class TranslatedBump:
    """Left translate p -> psi(g^{-1} p) of a bump by a group element g.

    The pulled-back argument is an affine map of (x, t), so exact Euclidean
    derivatives follow from the constant Jacobian; the horizontal calculus
    then satisfies X_j (psi o L) = (X_j psi) o L identically.
    """

    bump: SmoothBump
    structure: MetivierStructure
    translation: GroupPoint

    def center(self, s: MetivierStructure) -> GroupPoint:
        return self.translation

    def support_box(self, s: MetivierStructure):
        bx, bt = self.bump.support_box(s)
        xc = self.translation.x
        # |t_q| <= b with t_q = t - tc - (1/2) sum_k (J_k xc, x) u_k widens the
        # t-extent by the largest possible twist over the x-support.
        sv = s._map_singular_values[:, 0]
        twist = 0.5 * sv * np.linalg.norm(xc) * (np.linalg.norm(xc) + self.bump.x_radius)
        return bx + np.abs(xc), bt + twist

    def _pullback(self, x, t):
        from .group import product
        xc, tc = self.translation.x, self.translation.t
        if np.any(xc):
            return product(self.structure, -xc, -tc, x, t)
        self.structure.check_dims(x, t)   # a central shift keeps x-rows and t-rows apart
        return np.asarray(x, dtype=float) - xc, np.asarray(t, dtype=float) - tc

    def _jacobian_tx(self) -> np.ndarray:
        """G with G[k, i] = d t_q[k] / d x[i] = -(1/2) (J_k xc)_i."""
        xc = self.translation.x
        return -0.5 * self.structure.apply_maps(xc)

    def value(self, x, t) -> np.ndarray:
        xq, tq = self._pullback(x, t)
        return self.bump.value(xq, tq)

    def gradient(self, x, t):
        xq, tq = self._pullback(x, t)
        val, gx, gt = self.bump.gradient(xq, tq)
        return val, gx + _dot(self._jacobian_tx().T, gt[..., None, :]), gt

    def derivatives(self, x, t):
        xq, tq = self._pullback(x, t)
        val, gx, gt, hxx, hxt, htt = self.bump.derivatives(xq, tq)
        g = self._jacobian_tx()
        gx_p = gx + _dot(g.T, gt[..., None, :])
        # Hess_f = DA^T Hess_psi DA with DA = [[I, 0], [G, I]]:
        #   Hxx_f = Hxx + G^T Htx + Hxt G + G^T Htt G,  Hxt_f = Hxt + G^T Htt
        htt_g = np.einsum("...kl,lj->...kj", htt, g)
        hxx_p = (hxx
                 + np.einsum("ki,...jk->...ij", g, hxt)
                 + np.einsum("...ik,kj->...ij", hxt, g)
                 + np.einsum("ki,...kj->...ij", g, htt_g))
        hxt_p = hxt + np.einsum("li,...lk->...ik", g, htt)
        return val, gx_p, gt, hxx_p, hxt_p, htt


def horizontal_coefficients(s: MetivierStructure, x) -> np.ndarray:
    """c with c[..., j, k] = (1/2)(J_k x)_j, the d/dt_k coefficient of X_j."""
    s.check_dims(x)
    return 0.5 * np.swapaxes(s.apply_maps(x), -1, -2)


def _value_and_horizontal_gradient(s: MetivierStructure, f, x, t):
    """(f, (X_1 f, ..., X_{2n} f)) at each point, from one `f.gradient` call."""
    s.check_dims(x, t)
    val, gx, gt = f.gradient(x, t)
    return val, gx + _dot(horizontal_coefficients(s, x), gt[..., None, :])


def horizontal_gradient(s: MetivierStructure, f, x, t) -> np.ndarray:
    """(X_1 f, ..., X_{2n} f) at each point, shape (..., 2n)."""
    return _value_and_horizontal_gradient(s, f, x, t)[1]


def sub_laplacian_apply(s: MetivierStructure, f, x, t) -> np.ndarray:
    """L f = -sum_j X_j^2 f, exact chain rule, batched.

    A `SmoothBump` contracts its own profile derivatives; any other f is
    contracted from the Hessians of `f.derivatives`.
    """
    s.check_dims(x, t)
    if isinstance(f, SmoothBump):
        return f._value_and_sub_laplacian(s, x, t)[1]
    _, _, _, hxx, hxt, htt = f.derivatives(x, t)
    c = horizontal_coefficients(s, x)
    term1 = np.einsum("...jj->...", hxx)
    term2 = 2.0 * np.einsum("...jk,...jk->...", c, hxt)
    m = np.einsum("...jk,...jl->...kl", c, c)
    term3 = np.einsum("...kl,...kl->...", m, htt)
    return -(term1 + term2 + term3)


@dataclass(frozen=True)
class QuadratureGrid:
    """Cell-midpoint tensor grid on the box

        [-x_half, x_half]^{2n} x (center_t + [-t_half, t_half]^m),

    with `nx` points on each horizontal axis and `nt` on each central one.
    It carries both the midpoint quadrature rule here and the
    finite-difference operator in `spectral` (as `Grid3`).  V_alpha has no
    value at the identity, so a grid with the identity as a node is refused:
    every axis has a node at 0, to within 1e-9 of its spacing.
    """

    s: MetivierStructure
    x_half: float
    t_half: float
    nx: int
    nt: int
    center_t: np.ndarray | None = None

    def __post_init__(self):
        if self.nx < 3 or self.nt < 3:
            raise ValueError("need at least 3 points per axis")
        _require_finite("x_half", self.x_half, positive=True)
        _require_finite("t_half", self.t_half, positive=True)
        ct = np.zeros(self.s.m) if self.center_t is None else np.asarray(self.center_t, float)
        object.__setattr__(self, "center_t", ct)
        h = (self.hx,) * self.s.horizontal_dim + (self.ht,) * self.s.m
        if all(np.abs(self.axis_nodes(a)).min() <= 1e-9 * h[a] for a in range(len(h))):
            raise ValueError("a grid node falls on the identity, where V_alpha has no "
                             "value; shift the box or use an even count on some axis")

    @property
    def hx(self) -> float:
        return 2.0 * self.x_half / self.nx

    @property
    def ht(self) -> float:
        return 2.0 * self.t_half / self.nt

    @property
    def shape(self) -> tuple:
        return (self.nx,) * self.s.horizontal_dim + (self.nt,) * self.s.m

    @property
    def dim(self) -> int:
        return math.prod(self.shape)   # a Python int: exact for any grid, even one never built

    @property
    def cell_volume(self) -> float:
        return self.hx ** self.s.horizontal_dim * self.ht ** self.s.m

    def axis_nodes(self, axis: int) -> np.ndarray:
        d = self.s.horizontal_dim
        if axis < d:
            return -self.x_half + (np.arange(self.nx) + 0.5) * self.hx
        return -self.t_half + (np.arange(self.nt) + 0.5) * self.ht + self.center_t[axis - d]

    def _tables(self):
        """The x-table (the nodes of the first 2n axes) and the t-table (of the
        last m axes), each in C order; the grid is their product in C order."""
        d = self.s.horizontal_dim
        return tuple(np.stack([m.ravel() for m in np.meshgrid(*map(self.axis_nodes, axes),
                                                               indexing="ij")], axis=-1)
                     for axes in (range(d), range(d, len(self.shape))))

    def nodes(self):
        """Flattened (x, t) node coordinates in C order over the axis tuple."""
        xs, ts = self._tables()
        return np.repeat(xs, len(ts), axis=0), np.tile(ts, (len(xs), 1))

    def covers(self, f) -> bool:
        bx, bt = f.support_box(self.s)
        cx, ct = f.center(self.s).x, f.center(self.s).t
        ok_x = np.all(np.abs(cx) + bx <= self.x_half + 1e-12)
        ok_t = np.all(np.abs(ct - self.center_t) + bt <= self.t_half + 1e-12)
        return bool(ok_x and ok_t)

    def translated(self, dt: np.ndarray) -> "QuadratureGrid":
        """Shift of the box along the centre; node sets translate exactly."""
        return replace(self, center_t=self.center_t + np.asarray(dt, float))

    def describe(self) -> dict:
        return {"lx": self.x_half, "lt": self.t_half, "nx": self.nx, "nt": self.nt,
                "hx": self.hx, "ht": self.ht, "dim": self.dim}


def _require_cover(grid: QuadratureGrid, f):
    if not grid.covers(f):
        raise ValueError("quadrature grid does not cover the support of the integrand")


def _support_rows(grid: QuadratureGrid, *fs):
    """(x-table rows, t-table rows) within `_SUPPORT_SLACK` of the x-ball and the
    t-ball of some f, a superset of the supports, on which the profile's guard
    zeroes the rest; None (the whole box) unless every f is a `SmoothBump` or a
    central translate, since other translates have sheared supports."""
    if not all(isinstance(f, SmoothBump) or (isinstance(f, TranslatedBump)
               and not np.any(f.translation.x)) for f in fs):
        return None
    xs, ts = grid._tables()
    bumps = [(getattr(f, "bump", f), f.center(grid.s).t) for f in fs]
    in_x = [_dot(xs, xs) < b.x_radius ** 2 * _SUPPORT_SLACK for b, _ in bumps]
    in_t = [_dot(ts - tc, ts - tc) < b.t_radius ** 2 * _SUPPORT_SLACK for b, tc in bumps]
    return np.flatnonzero(np.any(in_x, axis=0)), np.flatnonzero(np.any(in_t, axis=0))


def _ball_count(offsets, r2: float) -> int:
    """How many nodes of the product of the 1-D `offsets` have squared norm below
    r2, from sorted partial sums over each half of the axes, never the product."""
    def partial(axes):
        sums = np.zeros(1)
        for o in axes:
            sums = (sums[:, None] + o * o).ravel()
            sums = sums[sums < r2]
        return sums
    half = len(offsets) // 2
    return int(np.searchsorted(np.sort(partial(offsets[half:])),
                               r2 - partial(offsets[:half])).sum())


def _node_sum(grid: QuadratureGrid, term, rows=None):
    """Sum in C order of term(slice, x, t) over blocks of at most `_BLOCK` nodes of
    the product of the x- and t-tables or of their `rows`: views x (k, 1, 2n) of
    whole x-rows and t (1, c, m) of the t-table, or of one x-row and a t-chunk if
    the t-table alone exceeds `_BLOCK`, and the block's slice of the flat product.
    An empty product is one empty block, so the sum keeps term's shape."""
    xs, ts = grid._tables()
    if rows is not None:
        xs, ts = xs[rows[0]], ts[rows[1]]
    nt = len(ts)
    if not len(xs) * nt:
        return term(slice(0, 0), xs[:0, None], ts[None, :0])
    step, total = max(_BLOCK // nt, 1), 0.0
    for r in range(0, len(xs), step):
        x = xs[r:r + step, None]
        for c in range(0, nt, _BLOCK):
            t, lo = ts[None, c:c + _BLOCK], r * nt + c
            total = total + term(slice(lo, lo + x.shape[0] * t.shape[1]), x, t)
    return total


def dirichlet_form(alpha: float, s: MetivierStructure, f,
                   grid: QuadratureGrid) -> float:
    """integral of |grad_H f|^2 w_alpha over the grid box, midpoint rule."""
    _require_cover(grid, f)

    def energy(b, x, t):
        hg = horizontal_gradient(s, f, x, t)
        return np.sum(_dot(hg, hg) * weight_xt(alpha, x, t))
    return float(_node_sum(grid, energy, _support_rows(grid, f)) * grid.cell_volume)


def conjugation_residual(alpha: float, s: MetivierStructure, f,
                         grid: QuadratureGrid) -> float:
    """|LHS - RHS| of the ground-state-transform identity

        int |grad_H f|^2 w_alpha = int |grad_H (f sqrt(w_alpha))|^2
                                   + int V_alpha (f sqrt(w_alpha))^2,

    both sides by the same midpoint rule, so the residual is pure O(h^2)
    quadrature error.
    """
    if alpha < 2:
        raise ValueError("conjugation residual requires alpha >= 2 (V bounded below)")
    _require_cover(grid, f)

    def sides(b, x, t):
        val, hg = _value_and_horizontal_gradient(s, f, x, t)
        jet = _norm_jet(s, x, t)
        # X_j (f sqrt(w)) = sqrt(w) (X_j f - (1/2) g (X_j N) f), g = alpha N^{alpha-1}
        g, v = _potential(alpha, jet)
        w = np.exp(-g * jet.n / alpha)
        shifted = hg - (0.5 * g * val)[..., None] * _grad_kaplan(jet)
        phi = val * np.sqrt(w)
        return np.array([np.sum(_dot(hg, hg) * w),
                         np.sum(_dot(shifted, shifted) * w) + np.sum(phi * phi * v)])
    lhs, rhs = _node_sum(grid, sides, _support_rows(grid, f)) * grid.cell_volume
    return abs(float(lhs) - float(rhs))


def weyl_sequence(s: MetivierStructure, psi: SmoothBump, n: int) -> TranslatedBump:
    """Left translate of the bump by (0, n u_1) along the first central axis, n >= 0."""
    if n < 0:
        raise ValueError("translation index must be nonnegative")
    return TranslatedBump(psi, s, GroupPoint(np.zeros(s.horizontal_dim), n * np.eye(s.m)[0]))


@dataclass(frozen=True)
class WeylRecord:
    n_index: int
    residual: float
    psi_norm: float
    overlap_check: float
    lam: float


def _require_translate(n: int):
    if n < 2:
        raise ValueError("residual experiment requires n >= 2 (support inside the cylinder)")


def _weyl_base(s: MetivierStructure, psi: SmoothBump, n: int, grid: QuadratureGrid):
    """The support rows of psi, (psi, L psi) at their nodes, the squared norms
    and the overlap check.  A grid whose two support arrays (16 bytes a node)
    exceed physical memory is refused; when the whole box would not fit, the
    support is counted by factor, before any node table is formed."""
    nodes, have = grid.dim, os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if 16 * nodes > have:
        d = s.horizontal_dim
        nodes = math.prod(_ball_count([grid.axis_nodes(a) for a in axes], r ** 2 * _SUPPORT_SLACK)
                          for axes, r in ((range(d), psi.x_radius),
                                          (range(d, d + s.m), psi.t_radius)))
    if 16 * nodes > have:
        raise ValueError(f"a Weyl scan on {nodes} base nodes in the bump's support needs "
                         f"{16 * nodes} bytes for psi and L psi, more than the {have} bytes "
                         "of physical memory")
    _require_cover(grid, psi)
    rows = _support_rows(grid, psi)
    val, lpsi = np.empty((2, len(rows[0]) * len(rows[1])))

    def fill(b, x, t):
        val[b], lpsi[b] = (a.ravel() for a in psi._value_and_sub_laplacian(s, x, t))
        return np.array([np.sum(val[b] * val[b]), np.sum(lpsi[b] * lpsi[b])])
    norms_sq = _node_sum(grid, fill, rows) * grid.cell_volume
    return rows, val, lpsi, norms_sq, _overlap_norm_sq(s, psi, n, grid)


def weyl_residual(alpha: float, s: MetivierStructure, psi: SmoothBump, n: int,
                  lam: float, grid: QuadratureGrid, _base=None) -> WeylRecord:
    """Quadrature residual ||(lam + L + V_alpha) psi_n||_2 on a grid riding
    with the translate.

    `grid` is the base grid for psi around the identity; the riding grid is
    its translate by the central element (0, n u_1), so by left invariance
    psi_n and L psi_n there are exactly psi and L psi on `grid`, on the same
    support rows, and only V_alpha is evaluated at the riding nodes: on an
    H-type structure by the closed form `potential_closed_form_xt` from |x|^2
    and N, which criterion 3 binds to the norm jet within 1e-12, and otherwise
    by the jet, `potential_value_xt`.  The overlap check is `_overlap_norm_sq`,
    which for the same reason does not depend on n.  `weyl_scan` passes them
    through `_base`.  The index, lam and alpha are checked before the base is
    built.
    """
    _require_translate(n)
    _require_finite("lam", lam)
    _require_finite("alpha", alpha, positive=True)
    rows, val, lpsi, norms_sq, overlap = _weyl_base(s, psi, n, grid) if _base is None else _base
    moved = grid.translated(n * np.eye(s.m)[0])   # refuses a node on the identity
    v_alpha = potential_closed_form_xt if s.h_type else potential_value_xt
    # in units of a power of two at most |lam|, so no square overflows; the scaling
    # is exact, so residuals that were finite keep their bits
    unit = math.ldexp(1.0, max(0, math.frexp(abs(lam))[1] - 1))

    def res_sq(b, x, t):
        r = (lam * val[b] + lpsi[b] + v_alpha(alpha, s, x, t).ravel() * val[b]) / unit
        return np.sum(r * r)
    res = _node_sum(moved, res_sq, rows) * moved.cell_volume
    return WeylRecord(n_index=n, residual=unit * float(np.sqrt(res)),
                      psi_norm=float(np.sqrt(norms_sq[0])),
                      overlap_check=float(overlap), lam=lam)


def _overlap_norm_sq(s: MetivierStructure, psi: SmoothBump, n: int,
                     grid: QuadratureGrid) -> float:
    """||psi_n - psi_m||_2^2 on one grid covering both supports, for
    m = n + max(2, ceil(2 t_radius)), which makes the supports disjoint.

    The common grid keeps the base spacing; for integer shifts and even axis
    counts its nodes around each translate coincide exactly with the base
    grid's nodes around the identity.
    """
    m = n + max(2, int(math.ceil(2.0 * psi.t_radius)))
    lo, hi = float(n) - grid.t_half, float(m) + grid.t_half
    span = hi - lo
    count = int(round(span / grid.ht))
    if abs(count * grid.ht - span) > 1e-9:
        count = int(math.ceil(span / grid.ht))
    union = QuadratureGrid(s, grid.x_half, 0.5 * count * grid.ht, grid.nx, count,
                           0.5 * (lo + hi) * np.eye(s.m)[0])
    psi_n, psi_m = weyl_sequence(s, psi, n), weyl_sequence(s, psi, m)

    def diff_sq(b, x, t):
        diff = psi_n.value(x, t) - psi_m.value(x, t)
        return np.sum(diff * diff)
    return float(_node_sum(union, diff_sq, _support_rows(union, psi_n, psi_m)) * union.cell_volume)


@dataclass(frozen=True)
class WeylScan:
    alpha: float
    lam: float
    sup_cylinder: float
    psi_norm: float
    l_psi_norm: float
    bound: float
    records: list


def weyl_scan(alpha: float, s: MetivierStructure, psi: SmoothBump,
              n_values, grid: QuadratureGrid, lam: float | None = None,
              seed: int = 0) -> WeylScan:
    """Residuals over a family of central translates, with the uniform bound

        (|lam| + C) ||psi||_2 + ||L psi||_2,   C = sup_cylinder |V_alpha|,

    which controls every n >= 2 when alpha <= 2; C comes from the sandwich, so
    the bound is as rigorous as its constants.  When lam is None it defaults
    to 1 + max(0, -floor(V_alpha)) for alpha >= 2 and to 1 + C for alpha < 2
    (any resolvent-set shift works; the choice is recorded).  psi, L psi and
    the overlap check are computed once, on `grid`, for all translates, after
    the indices (at least one), alpha and a given lam are checked.  `seed` has no effect.
    """
    from .potential import cylinder_sup_potential, potential_bounds, sandwich_floor

    n_values = [int(n) for n in n_values]
    if not n_values:
        raise ValueError("need at least one translate index in n_values")
    for n in n_values:
        _require_translate(n)
    _require_finite("alpha", alpha, positive=True)
    if lam is not None:
        _require_finite("lam", lam)
    base = _weyl_base(s, psi, n_values[0], grid)
    sup_c = cylinder_sup_potential(alpha, s)
    if lam is None:
        lam = 1.0 + (max(0.0, -sandwich_floor(potential_bounds(alpha, s)))
                     if alpha >= 2 else sup_c)
    psi_norm, l_psi_norm = (float(v) for v in np.sqrt(base[3]))
    bound = (abs(lam) + sup_c) * psi_norm + l_psi_norm if math.isfinite(sup_c) else math.inf
    records = [weyl_residual(alpha, s, psi, n, lam, grid, _base=base) for n in n_values]
    return WeylScan(alpha=alpha, lam=float(lam), sup_cylinder=float(sup_c),
                    psi_norm=psi_norm, l_psi_norm=l_psi_norm, bound=float(bound),
                    records=records)

"""Independent oracles used across the test suite.

Finite differences run along the group's one-parameter subgroups
exp(s X_j) = (s e_j, 0), i.e. through the group product, so they probe the
left-invariant fields and not the Euclidean partials.  None of these call
the closed-form derivative code they are checking.  The unblocked quadrature
oracles check only the blocking of the node sums: they evaluate the same
pointwise kernels on every node of a `np.meshgrid` grid at once.
"""

import math
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from srlab import sublevel
from srlab.forms import QuadratureGrid, horizontal_gradient, sub_laplacian_apply
from srlab.group import GroupPoint, MetivierStructure, _dot, product, uniform_ball
from srlab.norms import norm_xt, quasi_distance_xt, weight_xt
from srlab.potential import _grad_kaplan, _norm_jet, potential_value_xt


def fd_xj(f, s: MetivierStructure, x, t, j: int, h: float) -> float:
    """Centered difference of f along X_j at (x, t)."""
    e = np.zeros(s.horizontal_dim)
    e[j] = h
    zp = np.zeros(s.m)
    xp, tp = product(s, x, t, e, zp)
    xm, tm = product(s, x, t, -e, zp)
    return (f(xp, tp) - f(xm, tm)) / (2.0 * h)


def fd_xj2(f, s: MetivierStructure, x, t, j: int, h: float) -> float:
    """Second difference of f along X_j at (x, t)."""
    e = np.zeros(s.horizontal_dim)
    e[j] = h
    zp = np.zeros(s.m)
    xp, tp = product(s, x, t, e, zp)
    xm, tm = product(s, x, t, -e, zp)
    return (f(xp, tp) - 2.0 * f(x, t) + f(xm, tm)) / (h * h)


def fd_grad_norm_sq(f, s, x, t, h):
    return sum(fd_xj(f, s, x, t, j, h) ** 2 for j in range(s.horizontal_dim))


def fd_sub_laplacian(f, s, x, t, h):
    return -sum(fd_xj2(f, s, x, t, j, h) for j in range(s.horizontal_dim))


def richardson_ratios(exact: float, fd_fn, h: float):
    """(err(h), err(h/2)) against the exact value."""
    e1 = abs(fd_fn(h) - exact)
    e2 = abs(fd_fn(h / 2.0) - exact)
    return e1, e2


def dense_operator_oracle(alpha, s, grid, potential_fn):
    """Hand-assembled dense H = sum_j D_j^T D_j + diag(V), independent loops.

    Builds each forward-difference factor entry by entry from the node list,
    with zero exterior values, and composes with plain matmuls.
    """
    shape = grid.shape
    dim = grid.dim
    x_nodes, _ = grid.nodes()
    strides = np.cumprod((shape + (1,))[::-1])[::-1][1:]

    def neighbor(flat, axis):
        idx = list(np.unravel_index(flat, shape))
        idx[axis] += 1
        if idx[axis] >= shape[axis]:
            return None
        return int(np.ravel_multi_index(idx, shape))

    h_of = [grid.hx] * s.horizontal_dim + [grid.ht] * s.m
    dense = np.zeros((dim, dim))
    for j in range(s.horizontal_dim):
        rows = []
        for row in range(dim):
            r = np.zeros(dim)
            r[row] -= 1.0 / h_of[j]
            nb = neighbor(row, j)
            if nb is not None:
                r[nb] += 1.0 / h_of[j]
            for k in range(s.m):
                c = 0.5 * float(s.maps[k][j] @ x_nodes[row])
                axis = s.horizontal_dim + k
                r[row] -= c / h_of[axis]
                nbk = neighbor(row, axis)
                if nbk is not None:
                    r[nbk] += c / h_of[axis]
            rows.append(r)
        # lower exterior layer: the only surviving difference reaches the
        # first node of the axis (everything else evaluates to zero there)
        for node in range(dim):
            idx = np.unravel_index(node, shape)
            if idx[j] == 0:
                r = np.zeros(dim)
                r[node] = 1.0 / h_of[j]
                rows.append(r)
            for k in range(s.m):
                if idx[s.horizontal_dim + k] == 0:
                    r = np.zeros(dim)
                    r[node] = 0.5 * float(s.maps[k][j] @ x_nodes[node]) / h_of[s.horizontal_dim + k]
                    rows.append(r)
        d = np.array(rows)
        dense += d.T @ d
    x, t = grid.nodes()
    dense += np.diag(potential_fn(x, t))
    return dense


def kron_difference(grid: QuadratureGrid, axis: int):
    """`spectral._difference` as the Kronecker chain I (x) D_1 (x) I of the
    one-axis forward difference with identities on the other axes."""
    shape = grid.shape
    h = grid.hx if axis < grid.s.horizontal_dim else grid.ht
    op = sp.diags([-np.ones(shape[axis]) / h, np.ones(shape[axis] - 1) / h], [0, 1],
                  format="csr")
    before = sp.identity(math.prod(shape[:axis]), format="csr")
    after = sp.identity(math.prod(shape[axis + 1:]), format="csr")
    return sp.kron(before, sp.kron(op, after, format="csr"), format="csr")


def thinness_tail_quad(spec, s: MetivierStructure, r: float, ell: float,
                       t_from: float) -> float:
    """The thinness tail beyond |t| = t_from by adaptive quadrature (positive level).

    The same integrand as `sublevel._tail_bound`: the band [t_from, k] by the
    cylinder measure, and beyond t_eff = max(t_from, k) the ell-th power of the
    pointwise bound vol_2n(min(c, tube(|t|))) vol_m(rho_t), integrated over
    {|x| <= c} x {|t| > t_eff}.  The tube is sqrt(level / ell(N)) with
    ell(N) = c_a1 N^(2a-4) - c_a2 N^(a-4) at N = N(0, |t| - rho_t) = 2 |t - rho_t|^(1/2).
    scipy quad runs in y = log(|t| / t_eff), split where the tube meets c.
    """
    from scipy.integrate import quad
    from scipy.optimize import brentq

    from srlab import potential

    const = potential.potential_bounds(spec.alpha, s)
    c = sublevel.cylinder_radius(spec, s)
    rho_t = sublevel._central_reach(s, c, r)
    k = sublevel.threshold_k(spec, s, r, center_x_norm=c)
    t_eff = max(t_from, k)
    a, dim_x, m = spec.alpha, s.horizontal_dim, s.m
    vol = sublevel.ball_volume
    slab = vol(m, rho_t)
    band = vol(dim_x, c) * (vol(dim_x, c) * slab) ** ell * (vol(m, t_eff) - vol(m, t_from))

    def excess(y):   # log tube - log c, in logs so that y may be large
        log_n = math.log(2.0) + 0.5 * (y + math.log(t_eff)
                                       + math.log1p(-rho_t / t_eff * math.exp(-y)))
        log_env = (math.log(const.c_a1) + (2.0 * a - 4.0) * log_n
                   + math.log1p(-(const.c_a2 / const.c_a1) * math.exp(-a * log_n)))
        return 0.5 * (math.log(spec.level) - log_env) - math.log(c)

    def f(y):
        log_beta = math.log(slab * vol(dim_x, c)) + dim_x * min(excess(y), 0.0)
        return math.exp(ell * log_beta + m * (math.log(t_eff) + y))

    split = 0.0 if excess(0.0) <= 0.0 else brentq(excess, 0.0, 1e3, xtol=1e-14)
    tail = (quad(f, 0.0, split, epsabs=0.0, epsrel=1e-12, limit=500)[0]
            + quad(f, split, math.inf, epsabs=0.0, epsrel=1e-12, limit=500)[0])
    return band + vol(dim_x, c) * m * vol(m, 1.0) * tail


def membership(spec, s: MetivierStructure, x, t, v_alpha=potential_value_xt) -> np.ndarray:
    """V_alpha <= level from the public kernel `v_alpha` (the norm jet, or
    `potential_closed_form_xt` on H-type maps) on every point off the identity.

    The identity reads V_alpha = 0 when alpha >= 2 and raises ValueError
    when alpha < 2, and a V_alpha that overflows raises ValueError, as
    `sublevel.in_sublevel_xt` documents.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    t = np.atleast_2d(np.asarray(t, dtype=float))
    off = norm_xt(x, t) != 0.0
    if spec.alpha < 2 and not np.all(off):
        raise ValueError("V_alpha undefined at the identity for alpha < 2")
    out = np.full(off.shape, 0.0 <= spec.level)
    out[off] = v_alpha(spec.alpha, s, x[off], t[off]) <= spec.level
    return out


def meshgrid_nodes(grid: QuadratureGrid):
    """A grid's (x, t) nodes from `np.meshgrid`, flattened in C order."""
    mesh = np.meshgrid(*(grid.axis_nodes(a) for a in range(len(grid.shape))), indexing="ij")
    flat = [m.reshape(-1) for m in mesh]
    d = grid.s.horizontal_dim
    return np.stack(flat[:d], axis=-1), np.stack(flat[d:], axis=-1)


def unblocked_dirichlet_form(alpha, s, f, grid):
    """`forms.dirichlet_form` as one sum over all nodes."""
    x, t = meshgrid_nodes(grid)
    hg = horizontal_gradient(s, f, x, t)
    return float(np.einsum("si,si->s", hg, hg) @ weight_xt(alpha, x, t) * grid.cell_volume)


def unblocked_conjugation_residual(alpha, s, f, grid):
    """`forms.conjugation_residual` as two sums over all nodes, with
    X_j (f sqrt(w)) = sqrt(w) (X_j f - (alpha / 2) N^(alpha - 1) f X_j N)."""
    x, t = meshgrid_nodes(grid)
    val, hg = f.value(x, t), horizontal_gradient(s, f, x, t)
    w = weight_xt(alpha, x, t)
    g = alpha * norm_xt(x, t) ** (alpha - 1.0)
    shifted = hg - (0.5 * g * val)[:, None] * _grad_kaplan(_norm_jet(s, x, t))
    phi = val * np.sqrt(w)
    lhs = np.einsum("si,si->s", hg, hg) @ w
    rhs = np.einsum("si,si->s", shifted, shifted) @ w + (phi * phi) @ potential_value_xt(alpha, s, x, t)
    return abs(float(lhs * grid.cell_volume) - float(rhs * grid.cell_volume))


def unblocked_weyl_records(alpha, s, psi, n_values, grid, lam):
    """(n, residual, psi_norm, overlap_check) per translate of `forms.weyl_scan`,
    each from one sum over all nodes.  The overlap grid is built as in
    `forms._overlap_norm_sq`: base spacing, t-axis 0 from n - t_half to
    m + t_half with m = n + max(2, ceil(2 t_radius))."""
    from srlab.forms import weyl_sequence

    x, t = meshgrid_nodes(grid)
    val, lpsi = psi.value(x, t), sub_laplacian_apply(s, psi, x, t)
    psi_norm = math.sqrt(float(np.sum(val * val)) * grid.cell_volume)
    records = []
    for n in n_values:
        e1 = np.eye(s.m)[0]
        v = potential_value_xt(alpha, s, *meshgrid_nodes(grid.translated(n * e1)))
        residual = math.sqrt(float(np.sum((lam * val + lpsi + v * val) ** 2)) * grid.cell_volume)
        m = n + max(2, math.ceil(2.0 * psi.t_radius))
        lo, hi = n - grid.t_half, m + grid.t_half
        count = round((hi - lo) / grid.ht)
        if abs(count * grid.ht - (hi - lo)) > 1e-9:
            count = math.ceil((hi - lo) / grid.ht)
        union = QuadratureGrid(s, grid.x_half, 0.5 * count * grid.ht, grid.nx, count,
                               0.5 * (lo + hi) * e1)
        xu, tu = meshgrid_nodes(union)
        diff = weyl_sequence(s, psi, n).value(xu, tu) - weyl_sequence(s, psi, m).value(xu, tu)
        records.append((n, residual, psi_norm, float(np.sum(diff * diff)) * union.cell_volume))
    return records


def thinness_every_member(spec, s: MetivierStructure, r: float, ell: float,
                          truncation_T: float, outer_samples: int, inner_samples: int,
                          seed: int) -> SimpleNamespace:
    """The thinness integral with every member's inner volume computed: the
    estimator without the Horvitz-Thompson selection, on the same outer draws,
    membership test and per-member substreams, so a member's score v_hat^ell
    has the integral's bits.  Serial.  Returns value, std_error, the per-position
    scores, the member mask and the central draws tau."""
    c = sublevel.cylinder_radius(spec, s)
    rng = sublevel.substream(seed, 0)
    xi = uniform_ball(rng, outer_samples, s.horizontal_dim, c)
    tau = uniform_ball(rng, outer_samples, s.m, truncation_T)
    outer_volume = (sublevel.ball_volume(s.horizontal_dim, c)
                    * sublevel.ball_volume(s.m, truncation_T))
    member = sublevel.in_sublevel_xt(spec, s, xi, tau)
    scores = np.zeros(outer_samples)
    for i in np.nonzero(member)[0]:
        est = sublevel.ball_intersection_volume(spec, s, GroupPoint(xi[i], tau[i]), r,
                                                inner_samples,
                                                rng=sublevel.substream(seed, 1, int(i)))
        scores[i] = est.value ** ell
    value, se = sublevel._mean_and_error(scores, outer_volume)
    return SimpleNamespace(value=value, std_error=se, scores=scores, member=member, tau=tau)


def unblocked_ball_hits(spec, s: MetivierStructure, center: GroupPoint, r: float,
                        n_samples: int, seed: int) -> int:
    """`sublevel.ball_intersection_volume`'s hit count with `rng=substream(seed, 0)`,
    with the ball and sublevel tests each run once on all `n_samples` points: the
    same region and draws, no blocks."""
    (rho_x,), (rho_t,), _ = sublevel._ball_regions(spec, s, [center.x], [center.t], r)
    rng = sublevel.substream(seed, 0)
    xi = uniform_ball(rng, n_samples, s.horizontal_dim, rho_x)
    tau = uniform_ball(rng, n_samples, s.m, rho_t) + center.t
    hits = quasi_distance_xt(s, center.x, center.t, xi, tau) < r
    return int(np.count_nonzero(sublevel.in_sublevel_xt(spec, s, xi[hits], tau[hits])))


def thinness_one_shot(spec, s: MetivierStructure, r: float, ell: float,
                      truncation_T: float, outer_samples: int, inner_samples: int,
                      seed: int) -> SimpleNamespace:
    """`sublevel.thinness_integral` with the outer membership test run once on
    the whole outer draw, not in blocks: the same draws, selection and
    per-member substreams.  Returns value, std_error, members and evaluated."""
    c = sublevel.cylinder_radius(spec, s)
    rng = sublevel.substream(seed, 0)
    xi = uniform_ball(rng, outer_samples, s.horizontal_dim, c)
    tau = uniform_ball(rng, outer_samples, s.m, truncation_T)
    idx = np.nonzero(sublevel.in_sublevel_xt(spec, s, xi, tau))[0]
    members = idx.size
    q = sublevel._inclusion_probability(spec, s, r, ell, c, tau[idx])
    keep = sublevel.substream(seed, 4).random(outer_samples)[idx] < q
    idx, q = idx[keep], q[keep]
    scores = np.zeros(outer_samples)
    regions = sublevel._ball_regions(spec, s, xi[idx], tau[idx], r)
    for i, qi, rho_x, rho_t, vol in zip(idx.tolist(), q.tolist(), *regions):
        k = sublevel._inner_hits(spec, s, xi[i], tau[i], r, rho_x, rho_t, inner_samples,
                                 sublevel.substream(seed, 1, i))
        scores[i] = (vol * (k / inner_samples)) ** ell / qi
    value, se = sublevel._mean_and_error(scores, sublevel.ball_volume(s.horizontal_dim, c)
                                         * sublevel.ball_volume(s.m, truncation_T))
    return SimpleNamespace(value=value, std_error=se, members=members, evaluated=idx.size)


def disc_take_then_copy(rng: np.random.Generator, count: int, radius: float):
    """`group.uniform_ball` at dim 2 with each round's kept rows taken into a new
    array and then copied into the output.  Returns (points, rejection rounds)."""
    out = np.empty((count, 2))
    kept = rounds = 0
    while kept < count:
        need = count - kept
        v = rng.random((need * 4 // 3 + 16, 2))
        v *= 2.0
        v -= 1.0
        v = np.take(v, np.flatnonzero(_dot(v, v) <= 1.0)[:need], axis=0)
        out[kept:kept + len(v)] = v
        kept += len(v)
        rounds += 1
    out *= radius
    return out, rounds

import math
import tracemalloc

import numpy as np
import pytest

from srlab import forms, norms, potential, sublevel
from srlab.forms import (QuadratureGrid, SmoothBump, TranslatedBump,
                         _overlap_norm_sq, _profile, conjugation_residual, dirichlet_form,
                         fit_loglog_slope, horizontal_gradient,
                         sub_laplacian_apply, weyl_residual, weyl_scan,
                         weyl_sequence)
from srlab.group import GroupPoint, product

import oracles
from conftest import count_calls, random_points


class CentralCoordinate:
    """Probe f(x, t) = t_1 with exact derivatives."""

    def value(self, x, t):
        return np.asarray(t, float)[..., 0]

    def derivatives(self, x, t):
        x = np.atleast_2d(np.asarray(x, float))
        t = np.atleast_2d(np.asarray(t, float))
        val = t[..., 0]
        gx = np.zeros_like(x)
        gt = np.zeros_like(t)
        gt[..., 0] = 1.0
        d, m = x.shape[-1], t.shape[-1]
        batch = x.shape[:-1]
        return (val, gx, gt, np.zeros(batch + (d, d)), np.zeros(batch + (d, m)),
                np.zeros(batch + (m, m)))

    def gradient(self, x, t):
        return self.derivatives(x, t)[:3]


class HorizontalSquare:
    """Probe f(x, t) = |x|^2."""

    def value(self, x, t):
        x = np.asarray(x, float)
        return np.einsum("...i,...i->...", x, x)

    def derivatives(self, x, t):
        x = np.atleast_2d(np.asarray(x, float))
        t = np.atleast_2d(np.asarray(t, float))
        d, m = x.shape[-1], t.shape[-1]
        batch = x.shape[:-1]
        hxx = np.broadcast_to(2.0 * np.eye(d), batch + (d, d)).copy()
        return (self.value(x, t), 2.0 * x, np.zeros_like(t), hxx,
                np.zeros(batch + (d, m)), np.zeros(batch + (m, m)))

    def gradient(self, x, t):
        return self.derivatives(x, t)[:3]


def test_profile_closed_forms():
    s = np.array([0.0, 0.3, 0.9, 1.0, 1.5])
    g, g1, g2 = _profile(s, 2)
    assert g[0] == pytest.approx(math.exp(-1.0))
    assert np.all(g[s >= 1.0] == 0.0) and np.all(g1[s >= 1.0] == 0.0)
    h = 1e-6
    for sv in (0.1, 0.5, 0.8):
        gp = (_profile(np.array([sv + h]), 2)[0] - _profile(np.array([sv - h]), 2)[0]) / (2 * h)
        assert gp[0] == pytest.approx(_profile(np.array([sv]), 2)[1][0], rel=1e-8)
        gpp = (_profile(np.array([sv + h]), 2)[1] - _profile(np.array([sv - h]), 2)[1]) / (2 * h)
        assert gpp[0] == pytest.approx(_profile(np.array([sv]), 2)[2][0], rel=1e-7)


def test_bump_support_and_center(heis):
    bump = SmoothBump(1.0, 1.0)
    assert bump.value(np.array([0.0, 0.0]), np.array([0.0])) == pytest.approx(math.exp(-2.0))
    assert bump.value(np.array([1.0, 0.0]), np.array([0.0])) == 0.0
    assert bump.value(np.array([0.5, 0.5]), np.array([1.2])) == 0.0
    val, gx, gt, hxx, hxt, htt = bump.derivatives(np.array([[0.999, 0.0]]), np.array([[0.0]]))
    assert abs(gx[0, 0]) < 1e-200  # flat at the support edge


def test_bump_radii_must_be_finite():
    for bad in (math.nan, math.inf, 0.0):
        with pytest.raises(ValueError, match="x_radius"):
            SmoothBump(bad, 1.0)
        with pytest.raises(ValueError, match="t_radius"):
            SmoothBump(1.0, bad)


def test_apply_xj_examples(heis):
    bump = SmoothBump(1.0, 1.0)
    for j in (0, 1):
        assert float(horizontal_gradient(heis, bump, [0.0, 0.0], [0.3])[j]) == 0.0
    probe = CentralCoordinate()
    p = GroupPoint([0.7, -1.3], [0.4])
    hg = np.squeeze(horizontal_gradient(heis, probe, p.x, p.t))
    assert float(hg[0]) == pytest.approx(-1.3 / 2.0)
    assert float(hg[1]) == pytest.approx(-0.7 / 2.0)


def test_apply_xj_fd_cross_check(heis):
    bump = SmoothBump(1.0, 1.0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(-0.7, 0.7, size=2)
        t = rng.uniform(-0.7, 0.7, size=1)
        for j in (0, 1):
            exact = float(horizontal_gradient(heis, bump, x, t)[j])
            e1, e2 = oracles.richardson_ratios(
                exact,
                lambda hh: oracles.fd_xj(lambda xx, tt: float(bump.value(xx, tt)),
                                         heis, x, t, j, hh),
                1e-3)
            if e2 > 1e-13:
                assert e1 / e2 == pytest.approx(4.0, abs=1.0)


def test_sub_laplacian_square_probe(heis, aniso):
    probe = HorizontalSquare()
    lf = sub_laplacian_apply(heis, probe, [0.3, 0.3], [5.0])
    assert float(np.squeeze(lf)) == pytest.approx(-4.0)
    lf = sub_laplacian_apply(aniso, probe, [1.0, 2.0, 3.0, 4.0], [0.5])
    assert float(np.squeeze(lf)) == pytest.approx(-8.0)


def test_sub_laplacian_fd(heis):
    bump = SmoothBump(1.0, 1.0)
    p = GroupPoint([0.3, 0.2], [0.4])
    exact = float(sub_laplacian_apply(heis, bump, p.x, p.t))
    fd = oracles.fd_sub_laplacian(lambda x, t: float(bump.value(x, t)),
                                  heis, p.x, p.t, 1e-4)
    assert fd == pytest.approx(exact, abs=1e-6)


def test_left_invariance_identity(heis):
    bump = SmoothBump(1.0, 1.0)
    rng = np.random.default_rng(1)
    g = GroupPoint(rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 1))
    shifted = TranslatedBump(bump, heis, g)
    x, t = random_points(heis, 300, seed=2)
    qx, qt = product(heis, -g.x, -g.t, x, t)
    assert np.max(np.abs(sub_laplacian_apply(heis, shifted, x, t)
                         - sub_laplacian_apply(heis, bump, qx, qt))) <= 1e-12
    assert np.max(np.abs(horizontal_gradient(heis, shifted, x, t)
                         - horizontal_gradient(heis, bump, qx, qt))) <= 1e-12


def test_translated_bump_fd(heis):
    """Chain rule through the affine pullback agrees with group-FD."""
    bump = SmoothBump(1.0, 1.0)
    g = GroupPoint([0.3, -0.7], [0.9])
    shifted = TranslatedBump(bump, heis, g)
    x = np.array([0.5, -0.4])
    t = np.array([1.2])
    for j in (0, 1):
        exact = float(horizontal_gradient(heis, shifted, x, t)[j])
        fd = oracles.fd_xj(lambda xx, tt: float(shifted.value(xx, tt)),
                           heis, x, t, j, 1e-6)
        assert fd == pytest.approx(exact, abs=1e-9)
    fd2 = oracles.fd_sub_laplacian(lambda xx, tt: float(shifted.value(xx, tt)),
                                   heis, x, t, 1e-4)
    assert fd2 == pytest.approx(float(sub_laplacian_apply(heis, shifted, x, t)), abs=1e-6)


def _support_sample(s, psi, seed):
    """Points inside and outside the support of `psi` and within 1e-9 of its
    boundary, in |x|^2 / a^2 and in |t|^2 / b^2."""
    rng = np.random.default_rng(seed)
    x, t = random_points(s, 300, seed, box=1.3)
    x, t = x * psi.x_radius, t * psi.t_radius
    offsets = np.array([-2e-9, -1e-9, -5e-10, 0.0, 5e-10, 1e-9, 2e-9])
    scale = np.sqrt(1.0 + offsets)[:, None]

    def edge(dim, radius):
        u = rng.standard_normal((offsets.size, dim))
        return u / np.linalg.norm(u, axis=1, keepdims=True) * radius * scale

    edge_x, edge_t = edge(s.horizontal_dim, psi.x_radius), edge(s.m, psi.t_radius)
    return (np.concatenate([x, edge_x, 0.5 * edge_x]), np.concatenate([t, 0.5 * edge_t, edge_t]))


@pytest.mark.parametrize("name", ["heis", "aniso", "quaternion"])
def test_bump_orders_agree(name, request):
    """value and gradient are the first entries of derivatives, bit for bit."""
    s = request.getfixturevalue(name)
    psi = SmoothBump(1.0, 1.5)
    xq, tq = _support_sample(s, psi, seed=3)
    val = psi.value(xq, tq)
    assert np.any(val > 0.0) and np.any(val == 0.0)
    shift = GroupPoint(np.linspace(-1.0, 1.0, s.horizontal_dim), np.linspace(2.0, 3.0, s.m))
    for f, (x, t) in ((psi, (xq, tq)),
                      (TranslatedBump(psi, s, shift), product(s, shift.x, shift.t, xq, tq))):
        full = f.derivatives(x, t)
        assert np.array_equal(f.value(x, t), full[0])
        gradient = f.gradient(x, t)
        assert len(gradient) == 3
        for got, want in zip(gradient, full):
            assert np.array_equal(got, want)


def test_contracted_laplacian_matches_hessians(heis, aniso, quaternion):
    """L psi of a bump, contracted from its profiles, equals the contraction of
    its Hessian tensors to 1e-13 of the largest value."""

    class Hessians:
        """Not a SmoothBump, so sub_laplacian_apply contracts the tensors."""

        def __init__(self, f):
            self.f = f

        def derivatives(self, x, t):
            return self.f.derivatives(x, t)

    for s in (heis, aniso, quaternion):
        for psi in (SmoothBump(1.0, 1.0), SmoothBump(3.0, 2.0), SmoothBump(0.7, 1.3)):
            x, t = _support_sample(s, psi, seed=5)
            got = sub_laplacian_apply(s, psi, x, t)
            want = sub_laplacian_apply(s, Hessians(psi), x, t)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            assert np.array_equal(got == 0.0, want == 0.0)


def test_grid_cover_validation(heis):
    bump = SmoothBump(1.0, 1.0)
    small = QuadratureGrid(heis, 0.5, 1.0, 8, 8)
    with pytest.raises(ValueError, match="cover"):
        dirichlet_form(2.0, heis, bump, small)
    shifted = weyl_sequence(heis, bump, 5)
    base = QuadratureGrid(heis, 1.0, 1.0, 8, 8)
    assert not base.covers(shifted)
    moved = base.translated(np.array([5.0]))
    assert moved.covers(shifted)


def test_dirichlet_form_basic(heis):
    bump = SmoothBump(1.0, 1.0)
    grid = QuadratureGrid(heis, 1.0, 1.0, 24, 24)

    class Zero:
        def value(self, x, t):
            return np.zeros(np.asarray(x).shape[:-1])

        def derivatives(self, x, t):
            x = np.atleast_2d(np.asarray(x, float))
            t = np.atleast_2d(np.asarray(t, float))
            d, m = x.shape[-1], t.shape[-1]
            b = x.shape[:-1]
            z = np.zeros
            return (z(b), z(b + (d,)), z(b + (m,)), z(b + (d, d)),
                    z(b + (d, m)), z(b + (m, m)))

        def gradient(self, x, t):
            return self.derivatives(x, t)[:3]

        def support_box(self, s):
            return np.zeros(s.horizontal_dim), np.zeros(s.m)

        def center(self, s):
            return GroupPoint(np.zeros(s.horizontal_dim), np.zeros(s.m))

    assert dirichlet_form(2.0, heis, Zero(), grid) == 0.0
    base = dirichlet_form(2.0, heis, bump, grid)
    assert base > 0.0

    class Scaled:
        def __init__(self, f, c):
            self.f, self.c = f, c

        def value(self, x, t):
            return self.c * self.f.value(x, t)

        def derivatives(self, x, t):
            return tuple(self.c * a for a in self.f.derivatives(x, t))

        def gradient(self, x, t):
            return self.derivatives(x, t)[:3]

        def support_box(self, s):
            return self.f.support_box(s)

        def center(self, s):
            return self.f.center(s)

    assert dirichlet_form(2.0, heis, Scaled(bump, 3.0), grid) == pytest.approx(9.0 * base, rel=1e-12)
    fine = dirichlet_form(2.0, heis, bump, QuadratureGrid(heis, 1.0, 1.0, 48, 48))
    assert abs(base - fine) / fine < 0.01


def test_conjugation_residual_convergence(heis):
    bump = SmoothBump(1.0, 1.0)
    res = {}
    for n in (12, 24, 48):
        res[n] = conjugation_residual(3.0, heis, bump, QuadratureGrid(heis, 1.0, 1.0, n, n))
    assert 3.0 <= res[12] / res[24] <= 5.0
    assert 3.0 <= res[24] / res[48] <= 5.0


def test_conjugation_residual_shifted_tiny(heis):
    """Away from the origin the integrands are C^inf: midpoint quadrature is
    superalgebraically accurate and the identity holds to near roundoff."""
    bump = SmoothBump(1.0, 1.0)
    shifted = TranslatedBump(bump, heis, GroupPoint([0, 0], [5.0]))
    grid = QuadratureGrid(heis, 1.0, 1.0, 32, 32, center_t=np.array([5.0]))
    assert conjugation_residual(2.0, heis, shifted, grid) <= 1e-13


def test_conjugation_residual_validation(heis):
    bump = SmoothBump(1.0, 1.0)
    grid = QuadratureGrid(heis, 1.0, 1.0, 16, 16)
    with pytest.raises(ValueError, match="alpha"):
        conjugation_residual(1.5, heis, bump, grid)


def test_conjugation_residual_evaluates_one_jet(heis, monkeypatch):
    """N, the weight, grad_H N and V_alpha all come from one norm jet of the nodes."""
    jets = count_calls(monkeypatch, "_norm_jet", potential, forms)
    norm_passes = count_calls(monkeypatch, "norm_xt", norms, potential, forms)
    weights = count_calls(monkeypatch, "weight_xt", norms, forms)
    conjugation_residual(3.0, heis, SmoothBump(1.0, 1.0), QuadratureGrid(heis, 1.0, 1.0, 8, 8))
    assert len(jets) == 1
    assert norm_passes == [] and weights == []


def test_weyl_sequence_translates(heis):
    bump = SmoothBump(1.0, 1.0)
    x0, t0 = np.array([[0.2, 0.1], [0.9, -0.3]]), np.array([[0.3], [-0.5]])
    assert np.array_equal(weyl_sequence(heis, bump, 0).value(x0, t0), bump.value(x0, t0))
    psi4 = weyl_sequence(heis, bump, 4)
    x = np.array([[0.2, 0.1]])
    assert psi4.value(x, np.array([[4.3]]))[0] == pytest.approx(
        bump.value(x, np.array([[0.3]]))[0])
    assert psi4.value(x, np.array([[0.3]]))[0] == 0.0
    with pytest.raises(ValueError):
        weyl_sequence(heis, bump, -1)
    # disjoint supports for |n - m| >= 2 with unit radii
    psi6 = weyl_sequence(heis, bump, 6)
    tgrid = np.linspace(2.0, 8.0, 2001)[:, None]
    xz = np.zeros((2001, 2))
    overlap = psi4.value(xz, tgrid) * psi6.value(xz, tgrid)
    assert np.all(overlap == 0.0)


def test_weyl_residual_record(heis):
    bump = SmoothBump(1.0, 1.0)
    grid = QuadratureGrid(heis, 1.0, 1.0, 32, 32)
    rec = weyl_residual(2.0, heis, bump, 4, 5.0, grid)
    assert rec.n_index == 4 and rec.residual > 0.0
    assert rec.overlap_check == pytest.approx(2.0 * rec.psi_norm ** 2, rel=1e-12)
    with pytest.raises(ValueError):
        weyl_residual(2.0, heis, bump, 1, 5.0, grid)
    # x nodes at 0 and a t node at -2: the translate by 2 has the identity as a node
    off = QuadratureGrid(heis, 1.0, 3.0, 5, 8, center_t=[0.625])
    with pytest.raises(ValueError, match="identity"):
        weyl_residual(2.0, heis, bump, 2, 5.0, off)


def test_weyl_scan_evaluates_bump_once(heis, monkeypatch):
    """Each translate reads psi and L psi off the base grid; only V_alpha moves.
    On a one-block grid both come from one evaluation of the bump's profiles."""
    laplacians = count_calls(monkeypatch, "_value_and_sub_laplacian", SmoothBump)
    profiles = count_calls(monkeypatch, "_profiles", SmoothBump)
    residuals = count_calls(monkeypatch, "weyl_residual", forms)
    # the overlap check is the one place translates are evaluated; stub it out
    overlaps = []
    monkeypatch.setattr(forms, "_overlap_norm_sq", lambda *a: overlaps.append(a) or 0.0)
    translated = [count_calls(monkeypatch, name, TranslatedBump)
                  for name in ("value", "derivatives")]
    n_values = [2, 3, 5, 8]
    weyl_scan(2.0, heis, SmoothBump(1.0, 1.0), n_values, QuadratureGrid(heis, 1.0, 1.0, 8, 8))
    assert len(laplacians) == 1 and len(profiles) == 1 and len(overlaps) == 1
    assert len(residuals) == len(n_values)
    assert translated == [[], []]


def test_weyl_residual_alone_matches_scan(heis):
    """A lone residual takes the scan's path: same bits, and psi_n's norm is psi's.

    The overlap check is computed at each call's own n, so it is compared in
    full only for the first translate, where the scan computes it too.
    """
    bump = SmoothBump(1.0, 1.0)
    grid = QuadratureGrid(heis, 1.0, 1.0, 24, 24)
    scan = weyl_scan(1.5, heis, bump, [2, 5, 17], grid)
    for rec in scan.records:
        alone = weyl_residual(1.5, heis, bump, rec.n_index, scan.lam, grid)
        assert (alone.residual, alone.psi_norm) == (rec.residual, rec.psi_norm)
        assert rec.psi_norm == scan.psi_norm
    first = scan.records[0]
    assert weyl_residual(1.5, heis, bump, first.n_index, scan.lam, grid) == first


def test_weyl_norms_left_invariant(heis):
    """||psi_n|| and ||L psi_n|| computed on the riding grid equal the base values."""
    bump = SmoothBump(1.0, 1.0)
    grid = QuadratureGrid(heis, 1.0, 1.0, 24, 24)
    x, t = grid.nodes()
    base_norm = math.sqrt(float(np.sum(bump.value(x, t) ** 2) * grid.cell_volume))
    base_l = sub_laplacian_apply(heis, bump, x, t)
    base_l_norm = math.sqrt(float(np.sum(base_l ** 2) * grid.cell_volume))
    for n in (2, 8, 32):
        moved = grid.translated(np.array([float(n)]))
        xm, tm = moved.nodes()
        psi_n = weyl_sequence(heis, bump, n)
        vals = psi_n.value(xm, tm)
        lvals = sub_laplacian_apply(heis, psi_n, xm, tm)
        assert math.sqrt(float(np.sum(vals ** 2) * moved.cell_volume)) == pytest.approx(
            base_norm, abs=1e-12)
        assert math.sqrt(float(np.sum(lvals ** 2) * moved.cell_volume)) == pytest.approx(
            base_l_norm, abs=1e-12)


def test_weyl_bound_small_alpha(heis):
    bump = SmoothBump(1.0, 1.0)
    grid = QuadratureGrid(heis, 1.0, 1.0, 32, 32)
    scan = weyl_scan(1.0, heis, bump, [2, 3, 4, 8], grid)
    assert all(r.residual <= scan.bound for r in scan.records)
    assert scan.lam == pytest.approx(1.0 + scan.sup_cylinder)
    with pytest.raises(ValueError, match="n_values"):
        weyl_scan(1.0, heis, bump, [], grid)


def test_weyl_residual_growth(heis):
    bump = SmoothBump(3.0, 2.0)
    grid = QuadratureGrid(heis, 3.0, 2.0, 32, 32)
    scan = weyl_scan(3.0, heis, bump, [8, 16, 32, 64], grid, lam=0.0)
    res = [r.residual for r in scan.records]
    assert all(b > a for a, b in zip(res, res[1:]))
    slope = fit_loglog_slope([8, 16, 32, 64], res)
    assert slope == pytest.approx(1.0, abs=0.15)


def _quaternion_grid(s):
    """5^7 nodes, not a multiple of the block; the t-shift keeps the identity
    off the nodes, and the box still covers the unit bump."""
    return QuadratureGrid(s, 1.0, 1.2, 5, 5, center_t=[0.1, 0.0, 0.0])


def _blocks(grid, rows=None):
    """The (slice, x, t) blocks `_node_sum` hands its term, in order."""
    blocks = []
    forms._node_sum(grid, lambda *blk: blocks.append(blk) or 0.0, rows)
    return blocks


def _assert_blocks_tile(blocks, want, size):
    """Each block is x-rows (k, 1, 2n) times t-rows (1, c, m), at most `_BLOCK`
    nodes; their slices tile range(size) in order, and broadcast to the block
    and flattened, the views concatenate to `want` bit for bit."""
    assert blocks[0][0].start == 0 and blocks[-1][0].stop == size
    for (b, x, t), nxt in zip(blocks, blocks[1:] + [(slice(size, None), None, None)]):
        assert b.stop == nxt[0].start
        assert x.shape[1] == 1 and t.shape[0] == 1
        assert b.stop - b.start == x.shape[0] * t.shape[1] <= forms._BLOCK
    for k in (1, 2):
        got = [np.broadcast_to(blk[k], (blk[1].shape[0], blk[2].shape[1], blk[k].shape[2]))
               for blk in blocks]
        assert np.array_equal(np.concatenate([g.reshape(-1, g.shape[2]) for g in got]),
                              want[k - 1])


def test_blocks_concatenate_to_nodes(heis, quaternion):
    """The blocks tile the grid in C order, each a run of whole x-rows times the
    t-table, and broadcast they carry the meshgrid's bits."""
    for grid in (QuadratureGrid(heis, 1.0, 1.0, 30, 30), _quaternion_grid(quaternion),
                 QuadratureGrid(heis, 1.0, 1.0, 7, 8)):
        assert grid.dim % forms._BLOCK != 0
        want = oracles.meshgrid_nodes(grid)
        got = grid.nodes()
        assert all(np.array_equal(g, w) and g.flags.c_contiguous for g, w in zip(got, want))
        blocks = _blocks(grid)
        n_t = grid.nt ** grid.s.m
        assert [b.start for b, _, _ in blocks] == list(
            range(0, grid.dim, forms._BLOCK // n_t * n_t))
        _assert_blocks_tile(blocks, want, grid.dim)


def test_blocked_sums_match_unblocked_oracle(heis, quaternion):
    """Dirichlet form, conjugation residual and Weyl records agree with one
    whole-grid sum: 1e-12 relative, the residual |lhs - rhs| 1e-15 absolute.
    The oracle's V_alpha is the norm jet, so on these H-type structures the
    Weyl records also bind the closed form of the riding passes to it, for
    alpha below, at and above 2 and translates up to 64."""
    bump = SmoothBump(1.0, 1.0)
    cases = ((heis, QuadratureGrid(heis, 1.0, 1.0, 30, 30), [2, 5, 17, 64]),
             (quaternion, _quaternion_grid(quaternion), [2, 4, 64]))
    for s, grid, n_values in cases:
        assert grid.dim > forms._BLOCK
        assert dirichlet_form(2.5, s, bump, grid) == pytest.approx(
            oracles.unblocked_dirichlet_form(2.5, s, bump, grid), rel=1e-12, abs=0.0)
        assert conjugation_residual(3.0, s, bump, grid) == pytest.approx(
            oracles.unblocked_conjugation_residual(3.0, s, bump, grid), rel=0.0, abs=1e-15)
        for alpha in (1.0, 1.5, 2.5, 4.0):
            scan = weyl_scan(alpha, s, bump, n_values, grid)
            want = oracles.unblocked_weyl_records(alpha, s, bump, n_values, grid, scan.lam)
            for rec, (n, residual, psi_norm, overlap) in zip(scan.records, want, strict=True):
                assert rec.n_index == n
                assert (rec.residual, rec.psi_norm, rec.overlap_check) == pytest.approx(
                    (residual, psi_norm, overlap), rel=1e-12, abs=0.0)


def test_support_blocks_tile_the_support_in_c_order(heis, quaternion):
    """Over a bump's support rows each block is whole support x-rows times the
    support t-rows, and broadcast the blocks concatenate to the whole grid's
    nodes on those rows, in C order."""
    for grid in (QuadratureGrid(heis, 1.0, 1.0, 30, 30), _quaternion_grid(quaternion)):
        rows = forms._support_rows(grid, SmoothBump(1.0, 1.0))
        n_t = grid.nt ** grid.s.m
        flat = np.arange(grid.dim)
        keep = np.isin(flat // n_t, rows[0]) & np.isin(flat % n_t, rows[1])
        assert 0 < keep.sum() < grid.dim
        want = [c[keep] for c in oracles.meshgrid_nodes(grid)]
        blocks = _blocks(grid, rows)
        per_block = forms._BLOCK // len(rows[1]) * len(rows[1])
        assert [b.start for b, _, _ in blocks] == list(range(0, keep.sum(), per_block))
        _assert_blocks_tile(blocks, want, keep.sum())


def test_long_t_table_blocks_stay_bounded(heis):
    """A t-table longer than `_BLOCK` is cut into t-chunks: each block is one
    x-row times at most `_BLOCK` t-rows, the blocks still tile the support in
    C order, and the sums match the unblocked oracles."""
    grid = QuadratureGrid(heis, 1.0, 1.0, 4, 16_390)
    bump = SmoothBump(1.0, 1.0)
    rows = forms._support_rows(grid, bump)
    assert [len(r) for r in rows] == [12, 16_390]
    blocks = _blocks(grid, rows)
    assert [(x.shape[0], t.shape[1]) for _, x, t in blocks] == [(1, forms._BLOCK), (1, 6)] * 12
    flat = np.arange(grid.dim)
    keep = np.isin(flat // grid.nt, rows[0])
    _assert_blocks_tile(blocks, [c[keep] for c in oracles.meshgrid_nodes(grid)], keep.sum())
    _assert_sums_match_oracle(heis, bump, grid, [2, 5])


def test_grid_with_no_node_in_the_support(heis):
    """A box too coarse to put a node inside the unit bump sums one empty
    block: every quadrature reads 0, as the whole-box sums do.  That holds
    also when only the x-rows are empty and the t-rows alone exceed `_BLOCK`."""
    bump = SmoothBump(1.0, 1.0)
    for grid, sizes in ((QuadratureGrid(heis, 10.0, 10.0, 4, 4), [0, 0]),
                        (QuadratureGrid(heis, 10.0, 1.0, 4, 16_390), [0, 16_390])):
        rows = forms._support_rows(grid, bump)
        assert [r.size for r in rows] == sizes
        assert [b for b, _, _ in _blocks(grid, rows)] == [slice(0, 0)]
        assert dirichlet_form(2.5, heis, bump, grid) == 0.0
        assert conjugation_residual(3.0, heis, bump, grid) == 0.0
        rec = weyl_scan(1.5, heis, bump, [2, 4], grid).records[0]
        assert (rec.residual, rec.psi_norm, rec.overlap_check) == (0.0, 0.0, 0.0)


def _assert_sums_match_oracle(s, f, grid, n_values=()):
    """Dirichlet form and Weyl records to 1e-12 relative, and the conjugation
    residual |lhs - rhs| to 1e-15 absolute, against the whole-grid oracles."""
    assert dirichlet_form(2.5, s, f, grid) == pytest.approx(
        oracles.unblocked_dirichlet_form(2.5, s, f, grid), rel=1e-12, abs=0.0)
    assert conjugation_residual(3.0, s, f, grid) == pytest.approx(
        oracles.unblocked_conjugation_residual(3.0, s, f, grid), rel=0.0, abs=1e-15)
    if n_values:
        scan = weyl_scan(1.5, s, f, n_values, grid)
        want = oracles.unblocked_weyl_records(1.5, s, f, n_values, grid, scan.lam)
        for rec, (n, residual, psi_norm, overlap) in zip(scan.records, want, strict=True):
            assert rec.n_index == n
            assert (rec.residual, rec.psi_norm, rec.overlap_check) == pytest.approx(
                (residual, psi_norm, overlap), rel=1e-12, abs=0.0)


def test_support_sums_on_off_centre_boxes_match_oracle(heis, quaternion):
    """The support rows are taken around the bump's centre, not the box's: on
    boxes shifted in t that still cover the unit bump, the sums agree with the
    whole-grid oracles."""
    bump = SmoothBump(1.0, 1.0)
    for grid in (QuadratureGrid(heis, 1.25, 1.25, 30, 30, center_t=[0.15]),
                 QuadratureGrid(quaternion, 1.2, 1.15, 5, 5, center_t=[0.1, 0.0, -0.1])):
        assert grid.covers(bump) and np.any(grid.center_t)
        rows = forms._support_rows(grid, bump)
        assert 0 < len(rows[0]) * len(rows[1]) < grid.dim
        _assert_sums_match_oracle(grid.s, bump, grid, [2, 5])


def test_non_central_translate_sums_over_the_whole_box(heis, monkeypatch):
    """A translate with an x-shift has a sheared support: it keeps the whole
    box, so its kernels see every node, and its sums match the oracles.  A
    central translate takes its support rows."""
    bump = SmoothBump(1.0, 1.0)
    shifted = TranslatedBump(bump, heis, GroupPoint(np.array([0.3, -0.2]), np.array([0.4])))
    grid = QuadratureGrid(heis, 1.8, 2.5, 26, 30, center_t=[0.4])
    assert grid.covers(shifted) and grid.dim > forms._BLOCK
    assert forms._support_rows(grid, shifted) is None
    _assert_sums_match_oracle(heis, shifted, grid)
    central = TranslatedBump(bump, heis, GroupPoint(np.zeros(2), np.array([0.4])))
    assert forms._support_rows(grid, central) is not None
    _assert_sums_match_oracle(heis, central, grid)
    seen = _points_seen(monkeypatch, forms, "_norm_jet", 1)
    conjugation_residual(3.0, heis, shifted, grid)
    assert sum(seen) == grid.dim


def _points_seen(monkeypatch, owner, name, arg):
    """Wrap owner.name, whose args[arg] and args[arg + 1] are x and t; the
    returned list grows by the number of nodes they broadcast to per call."""
    seen = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        seen.append(math.prod(np.broadcast_shapes(np.shape(args[arg])[:-1],
                                                  np.shape(args[arg + 1])[:-1])))
        return real(*args, **kwargs)
    monkeypatch.setattr(owner, name, counting)
    return seen


@pytest.mark.parametrize("name, count, dim, support", [("heis", 48, 110_592, 86_592),
                                                       ("quaternion", 8, 2_097_152, 367_360)])
def test_quadratures_evaluate_only_the_support(name, count, dim, support, request,
                                               monkeypatch):
    """Counted in advance: the unit bump's support rows hold 86,592 of the
    48^3 Heisenberg nodes (1,804 x-rows of 2,304, all 48 t-rows) and 367,360
    of the 8^7 quaternion nodes (1,312 of 4,096 and 280 of 512).  The base's
    psi and L psi, one riding pass's closed-form V_alpha and the conjugation
    residual's norm jet each see exactly those points.  The bump's profiles
    see x-rows and t-rows, not nodes: the x-profile runs once per support x-row
    for psi, and once more for each of the two translates of the overlap check."""
    s = request.getfixturevalue(name)
    grid = QuadratureGrid(s, 1.0, 1.0, count, count)
    bump = SmoothBump(1.0, 1.0)
    assert grid.dim == dim
    base_seen = _points_seen(monkeypatch, SmoothBump, "_value_and_sub_laplacian", 2)
    profiles, real_profile = [], forms._profile
    monkeypatch.setattr(forms, "_profile",
                        lambda sq, order: profiles.append(np.shape(sq)) or real_profile(sq, order))
    base = forms._weyl_base(s, bump, 2, grid)
    assert all(len(shape) == 2 and 1 in shape for shape in profiles)
    assert sum(k for k, one in profiles if one == 1) == 3 * len(base[0][0])
    ride_seen = _points_seen(monkeypatch, forms, "potential_closed_form_xt", 2)
    weyl_residual(1.5, s, bump, 5, 1.0, grid, _base=base)
    jet_seen = _points_seen(monkeypatch, forms, "_norm_jet", 1)
    conjugation_residual(2.0, s, bump, grid)
    assert sum(base_seen) == sum(ride_seen) == sum(jet_seen) == support
    assert len(base[1]) == len(base[2]) == support


@pytest.mark.parametrize("name", ["heis", "quaternion", "aniso"])
def test_weyl_riding_pass_takes_closed_form_on_h_type(name, request, monkeypatch):
    """With the base given, an H-type riding pass evaluates V_alpha from |x|^2
    and N only, never the norm jet; a structure without the flag goes through
    `potential_value_xt`, once per block."""
    s = request.getfixturevalue(name)
    grid = QuadratureGrid(s, 1.0, 1.0, 6, 6)
    bump = SmoothBump(1.0, 1.0)
    base = forms._weyl_base(s, bump, 2, grid)
    jet_calls = count_calls(monkeypatch, "_norm_jet", potential, forms)
    value_calls = count_calls(monkeypatch, "potential_value_xt", forms)
    rec = weyl_residual(1.5, s, bump, 2, 1.0, grid, _base=base)
    assert math.isfinite(rec.residual)
    blocks = len(_blocks(grid, base[0]))
    if s.h_type:
        assert jet_calls == [] and value_calls == []
    else:
        assert len(value_calls) == len(jet_calls) == blocks


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("count", [64, 600])
def test_weyl_refuses_base_arrays_beyond_physical_memory(quaternion, count):
    """psi and L psi on the 7.1e11 support nodes of 64^7 need 11 TB; both entry
    points refuse the grid before sampling or allocating, having counted the
    support by factor without a node table.  QuadratureGrid builds no nodes.  The
    node count of 600^7 exceeds int64, where a numpy product would wrap negative."""
    grid = QuadratureGrid(quaternion, 1.0, 1.0, count, count)
    assert grid.dim == count ** 7
    bump = SmoothBump(1.0, 1.0)
    with pytest.raises(ValueError, match="physical memory"):
        weyl_scan(2.0, quaternion, bump, [2], grid)
    with pytest.raises(ValueError, match="physical memory"):
        weyl_residual(2.0, quaternion, bump, 2, 1.0, grid)


def test_quadrature_memory_does_not_grow_with_grid(heis, quaternion):
    """Peak traced memory of a 6^7-node quaternion scan and of criterion 5's
    finest grid: about 16 bytes per base node and a few blocks, not a whole jet."""
    grid = QuadratureGrid(quaternion, 1.0, 1.0, 6, 6)
    peak = _traced_peak(weyl_scan, 1.5, quaternion, SmoothBump(1.0, 1.0), [2, 4, 8], grid)
    assert peak < 32 * 2 ** 20
    peak = _traced_peak(conjugation_residual, 2.0, heis, SmoothBump(1.0, 1.0),
                        QuadratureGrid(heis, 1.0, 1.0, 96, 96))
    assert peak < 16 * 2 ** 20


def test_weyl_scan_checks_indices_first(heis, monkeypatch):
    """A bad index anywhere in n_values raises before any quadrature."""
    def fail(*args, **kwargs):
        raise AssertionError("quadrature ran before the indices were checked")

    monkeypatch.setattr(forms, "_weyl_base", fail)
    monkeypatch.setattr(potential, "cylinder_sup_potential", fail)
    grid = QuadratureGrid(heis, 1.0, 1.0, 8, 8)
    for n_values in ([1, 2], [2, 8, 1]):
        with pytest.raises(ValueError, match=r"n >= 2"):
            weyl_scan(1.5, heis, SmoothBump(1.0, 1.0), n_values, grid)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.0, -1.0])
def test_weyl_checks_alpha_before_the_base(heis, monkeypatch, alpha):
    """A bad alpha raises before psi, L psi and the overlap grid are built."""
    def fail(*args, **kwargs):
        raise AssertionError("the Weyl base was built before alpha was checked")

    monkeypatch.setattr(forms, "_weyl_base", fail)
    grid = QuadratureGrid(heis, 1.0, 1.0, 8, 8)
    with pytest.raises(ValueError, match="alpha"):
        weyl_residual(alpha, heis, SmoothBump(1.0, 1.0), 2, 1.0, grid)
    with pytest.raises(ValueError, match="alpha"):
        weyl_scan(alpha, heis, SmoothBump(1.0, 1.0), [2, 4], grid)


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_weyl_checks_lam_before_the_base(heis, monkeypatch, lam):
    """A given non-finite lam raises before the base and the cylinder sup."""
    def fail(*args, **kwargs):
        raise AssertionError("the scan did work before lam was checked")

    monkeypatch.setattr(forms, "_weyl_base", fail)
    monkeypatch.setattr(potential, "cylinder_sup_potential", fail)
    grid = QuadratureGrid(heis, 1.0, 1.0, 8, 8)
    with pytest.raises(ValueError, match="lam"):
        weyl_scan(1.5, heis, SmoothBump(1.0, 1.0), [2, 4], grid, lam=lam)


def test_weyl_bound_holds_off_h_type(aniso):
    """On aniso the cylinder sup is the sandwich bound, so every residual of
    the bounded branch stays below the scan's bound."""
    grid = QuadratureGrid(aniso, 1.0, 1.0, 12, 12)
    for alpha in (1.0, 1.5, 2.0):
        scan = weyl_scan(alpha, aniso, SmoothBump(1.0, 1.0), [2, 4, 8, 16], grid)
        assert all(r.residual <= scan.bound for r in scan.records), alpha


def test_quadrature_grid_validation(heis):
    for bad in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="x_half"):
            QuadratureGrid(heis, bad, 1.0, 4, 4)
        with pytest.raises(ValueError, match="t_half"):
            QuadratureGrid(heis, 1.0, bad, 4, 4)
    with pytest.raises(ValueError, match="at least 3"):
        QuadratureGrid(heis, 1.0, 1.0, 1, 4)
    with pytest.raises(ValueError, match="identity"):
        QuadratureGrid(heis, 1, 1, 5, 5)
    # off-centre, but every axis still has a node at 0
    with pytest.raises(ValueError, match="identity"):
        QuadratureGrid(heis, 1.0, 1.0, 5, 4, center_t=[0.25])
    # the translates and the union grid of the Weyl experiment stay clear of it
    base = QuadratureGrid(heis, 1.0, 1.0, 8, 8)
    assert base.translated([2.0]).nodes()[1].min() > 0.0
    _overlap_norm_sq(heis, SmoothBump(1.0, 1.0), 2, QuadratureGrid(heis, 1.0, 1.0, 7, 8))


@pytest.mark.parametrize("name", ["heis", "quaternion"])
def test_per_node_kernels_do_not_call_einsum(name, request, monkeypatch):
    """The pointwise kernels and the quadratures contract through `_dot` and
    `apply_maps` only.  The structure is built before the patch, because its
    H-type check is a per-structure einsum."""
    s = request.getfixturevalue(name)

    def refuse(*args, **kwargs):
        raise AssertionError("np.einsum called on a per-node path")
    monkeypatch.setattr(np, "einsum", refuse)
    x, t = random_points(s, 64, seed=5, min_norm=0.1)
    bump = SmoothBump(1.0, 1.0)
    shifted = TranslatedBump(bump, s, GroupPoint(np.full(s.horizontal_dim, 0.5), np.ones(s.m)))
    assert np.all(np.isfinite(potential.potential_value_xt(3.0, s, x, t)))
    assert np.all(np.isfinite(norms.quasi_distance_xt(s, x[0], t[0], x, t)))
    assert sublevel.in_sublevel_xt(sublevel.SublevelSpec(3.0, 1.0), s, x, t).shape == (len(x),)
    for f in (bump, shifted):
        assert horizontal_gradient(s, f, x, t).shape == x.shape
    assert np.all(np.isfinite(sub_laplacian_apply(s, bump, x, t)))
    grid = QuadratureGrid(s, 1.0, 1.0, 4, 4)
    assert math.isfinite(conjugation_residual(3.0, s, bump, grid))
    assert len(weyl_scan(2.0, s, bump, [2, 3], grid).records) == 2

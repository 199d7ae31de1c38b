import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from srlab import forms, spectral
from srlab.forms import SmoothBump, sub_laplacian_apply
from srlab.potential import potential_value_xt
from srlab.group import MetivierStructure
from srlab.spectral import (Grid3, SparseSymmetricOperator, assemble_operator,
                            box_convergence_study, eigen_count_below, lanczos_lowest)

import oracles


def interior_mask(grid, layers=2):
    shape = grid.shape
    idx = np.unravel_index(np.arange(grid.dim), shape)
    inner = np.ones(grid.dim, bool)
    for ax, ii in enumerate(idx):
        inner &= (ii >= layers) & (ii < shape[ax] - layers)
    return inner


class GaussProbe:
    """Analytic probe exp(-(|x|^2 + |t|^2)/4); O(1) derivatives of all orders."""

    def value(self, x, t):
        return np.exp(-(np.einsum("si,si->s", x, x) + np.einsum("si,si->s", t, t)) / 4.0)

    def derivatives(self, x, t):
        val = self.value(x, t)
        d, m = x.shape[-1], t.shape[-1]
        gx = -0.5 * x * val[:, None]
        gt = -0.5 * t * val[:, None]
        hxx = (0.25 * np.einsum("si,sj->sij", x, x) - 0.5 * np.eye(d)[None]) * val[:, None, None]
        htt = (0.25 * np.einsum("si,sj->sij", t, t) - 0.5 * np.eye(m)[None]) * val[:, None, None]
        hxt = 0.25 * np.einsum("si,sj->sij", x, t) * val[:, None, None]
        return val, gx, gt, hxx, hxt, htt


def test_grid_validation(heis):
    with pytest.raises(ValueError, match="at least 3"):
        Grid3(heis, 1.0, 1.0, 2, 5)
    with pytest.raises(ValueError, match="identity"):
        Grid3(heis, 1.0, 1.0, 5, 5)
    g = Grid3(heis, 1.0, 2.0, 5, 6)
    assert g.hx == pytest.approx(0.4) and g.ht == pytest.approx(2.0 / 3.0)
    x, t = g.nodes()
    assert x.shape == (150, 2) and t.shape == (150, 1)
    from srlab.norms import norm_xt
    assert np.min(norm_xt(x, t)) > 0.0
    for bad in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match="x_half"):
            Grid3(heis, bad, 1.0, 4, 4)
        with pytest.raises(ValueError, match="t_half"):
            Grid3(heis, 1.0, bad, 4, 4)
    assert spectral.Grid3 is forms.QuadratureGrid


@pytest.mark.parametrize("name, nx", [("heis", 12), ("quaternion", 4)])
def test_operator_annihilates_constants_and_coordinates(name, nx, request):
    """sum_j D_j^T D_j u = 0 for u = 1, x_j, t_k wherever both neighbours along
    every axis are nodes: D_j u is constant in x_j and t there (X_j t_k =
    (1/2)(J_k x)_j does not depend on x_j), so the backward difference cancels."""
    s = request.getfixturevalue(name)
    g = Grid3(s, 1.0, 1.0, nx, nx)
    x, t = g.nodes()
    op = assemble_operator(3.0, s, g, potential=lambda x, t: np.zeros(x.shape[0]))
    inner = interior_mask(g, layers=1)
    assert np.any(inner)
    for u in [np.ones(g.dim), *x.T, *t.T]:
        assert np.max(np.abs((op.matrix @ u)[inner])) <= 1e-12


def test_assembly_refuses_grid_of_other_dimensions(heis, aniso):
    """A grid built for another structure is refused, also with a custom
    potential, which checks no dims itself."""
    n1m2 = MetivierStructure(n=1, m=2, maps=np.stack([np.array([[0.0, 1.0], [-1.0, 0.0]])] * 2))
    g = Grid3(heis, 1.0, 1.0, 4, 4)
    for other in (aniso, n1m2):
        for potential in (None, lambda x, t: np.ones(x.shape[0])):
            with pytest.raises(ValueError, match="dim"):
                assemble_operator(3.0, other, g, potential=potential)


def test_operator_csr_matches_meshgrid_rebuild(heis, aniso, monkeypatch):
    """`grid.nodes()` cuts its nodes from the x- and t-tables; the CSR arrays
    built on them are bit-identical to a rebuild whose nodes come from
    `np.meshgrid`, on a Heisenberg and an aniso box."""
    cases = ((heis, Grid3(heis, 3.0, 4.0, 10, 12)), (aniso, Grid3(aniso, 2.0, 2.0, 6, 8)))
    built = [assemble_operator(3.0, s, g).matrix for s, g in cases]
    monkeypatch.setattr(Grid3, "nodes", oracles.meshgrid_nodes)
    for (s, g), a in zip(cases, built):
        b = assemble_operator(3.0, s, g).matrix
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(a, part), getattr(b, part)), part


def test_assembly_psd_and_symmetric(heis):
    g = Grid3(heis, 1.5, 1.5, 6, 6)
    op = assemble_operator(3.0, heis, g, potential=lambda x, t: np.zeros(x.shape[0]))
    assert (op.matrix != op.matrix.T).nnz == 0
    ev = np.linalg.eigvalsh(op.to_dense())
    assert ev[0] >= -1e-10


def test_assembly_rejects_non_finite_input(heis):
    g = Grid3(heis, 1.0, 1.0, 4, 4)
    for alpha in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="alpha"):
            assemble_operator(alpha, heis, g)
    for bad in (np.nan, -np.inf):
        with pytest.raises(ValueError, match="potential"):
            assemble_operator(3.0, heis, g,
                              potential=lambda x, t: np.where(x[:, 0] > 0, bad, 1.0))
    walled = assemble_operator(3.0, heis, g,
                               potential=lambda x, t: np.where(x[:, 0] > 0, np.inf, 1.0))
    assert walled.dim == g.dim // 2


def test_dense_assembly_oracle(heis):
    for nx, nt in ((5, 6), (5, 4)):
        g = Grid3(heis, 1.5, 1.5, nx, nt)
        op = assemble_operator(2.5, heis, g)
        dense = oracles.dense_operator_oracle(
            2.5, heis, g, lambda x, t: potential_value_xt(2.5, heis, x, t))
        assert np.max(np.abs(op.to_dense() - dense)) <= 1e-12


def test_consistency_second_order(heis):
    probe = GaussProbe()
    errs = []
    for nx in (16, 32, 64):
        g = Grid3(heis, 1.5, 1.5, nx, nx)
        x, t = g.nodes()
        u = probe.value(x, t)
        op = assemble_operator(3.0, heis, g)
        exact = sub_laplacian_apply(heis, probe, x, t) + potential_value_xt(3.0, heis, x, t) * u
        errs.append(np.max(np.abs(op.matrix @ u - exact)[interior_mask(g)]))
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.5)
    assert errs[1] / errs[2] == pytest.approx(4.0, abs=0.5)


def test_consistency_bump_converges(heis):
    bump = SmoothBump(1.0, 1.0)
    errs = []
    for nx in (16, 32, 64):
        g = Grid3(heis, 1.3, 1.3, nx, nx)
        x, t = g.nodes()
        u = bump.value(x, t)
        op = assemble_operator(3.0, heis, g)
        exact = sub_laplacian_apply(heis, bump, x, t) + potential_value_xt(3.0, heis, x, t) * u
        errs.append(np.max(np.abs(op.matrix @ u - exact)[interior_mask(g)]))
    assert errs[0] > errs[1] > errs[2]


def test_lanczos_diagonal():
    op = SparseSymmetricOperator(sp.diags(np.arange(1.0, 41.0)))
    r = lanczos_lowest(op, k=5, tol=1e-10, seed=0)
    assert np.allclose(r.eigenvalues, [1, 2, 3, 4, 5], atol=1e-9)
    assert r.converged and np.all(r.residual_norms <= 1e-9)


def test_lanczos_dense_oracle(heis):
    g = Grid3(heis, 2.0, 2.0, 5, 6)
    op = assemble_operator(3.0, heis, g)
    dense = np.linalg.eigvalsh(op.to_dense())
    r = lanczos_lowest(op, k=8, tol=1e-10, seed=1)
    assert np.max(np.abs(r.eigenvalues - dense[:8])) <= 1e-8


def test_lanczos_validation():
    asym = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        SparseSymmetricOperator(asym)
    good = SparseSymmetricOperator(sp.identity(5, format="csr"))
    with pytest.raises(ValueError, match="dimension"):
        lanczos_lowest(good, k=5)
    for tol in (np.nan, np.inf, 0.0, -1e-8):
        with pytest.raises(ValueError, match="tol"):
            lanczos_lowest(good, k=2, tol=tol)


def test_lanczos_determinism():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((60, 60))
    op = SparseSymmetricOperator(sp.csr_matrix(a + a.T))
    r1 = lanczos_lowest(op, k=4, tol=1e-10, seed=9)
    r2 = lanczos_lowest(op, k=4, tol=1e-10, seed=9)
    assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
    assert np.array_equal(r1.residual_norms, r2.residual_norms)


def test_lanczos_nonconvergence_reported(heis):
    g = Grid3(heis, 2.0, 8.0, 9, 20)
    op = assemble_operator(2.0, heis, g)
    r = lanczos_lowest(op, k=6, tol=1e-12, max_iter=12, seed=0)
    assert not r.converged
    assert len(r.residual_norms) == 6


def test_lanczos_degenerate_pairs():
    """Exact multiplicities are recovered (restart logic)."""
    d = sp.diags(np.array([1.0, 1.0, 2.0, 2.0, 3.0, 5.0, 7.0, 9.0, 11.0, 13.0]))
    op = SparseSymmetricOperator(d)
    r = lanczos_lowest(op, k=5, tol=1e-10, max_iter=200, seed=3)
    assert np.allclose(r.eigenvalues, [1, 1, 2, 2, 3], atol=1e-8)


def test_eigen_count_below():
    op = SparseSymmetricOperator(sp.diags(np.arange(1.0, 11.0)))
    c = eigen_count_below(op, 5.5, budget=9)
    assert c.count == 5 and not c.is_lower_bound
    c0 = eigen_count_below(op, 0.5, budget=9)
    assert c0.count == 0
    everything = eigen_count_below(op, 100.0, budget=4)
    assert everything.count == 10 and not everything.is_lower_bound
    for lam in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="lam"):
            eigen_count_below(op, lam)
    with pytest.raises(ValueError, match="tol"):
        eigen_count_below(op, 5.5, tol=np.nan)


def test_eigen_count_refuses_shift_on_eigenvalue():
    op = SparseSymmetricOperator(sp.diags(np.arange(1.0, 11.0)))
    with pytest.raises(ValueError, match="eigenvalue"):
        eigen_count_below(op, 3.0)
    # a shift 1e-12 off an eigenvalue factors, but its pivot is below the guard
    with pytest.raises(ValueError, match="smallest pivot 1.000e-12"):
        eigen_count_below(op, 3.0 + 1e-12)
    assert eigen_count_below(op, 3.0 + 1e-6).count == 3
    assert eigen_count_below(op, 3.0 - 1e-6).count == 2


def test_eigen_count_matches_dense(heis):
    g = Grid3(heis, 2.0, 2.0, 5, 6)
    op = assemble_operator(3.0, heis, g)
    dense = np.linalg.eigvalsh(op.to_dense())
    lam = 12.0
    c = eigen_count_below(op, lam, budget=40, tol=1e-8)
    assert c.count == int(np.sum(dense < lam))


@pytest.mark.parametrize("name", ["heis", "aniso"])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(lx=st.floats(0.5, 3.0), lt=st.floats(0.5, 3.0), nx=st.integers(3, 8),
       nt=st.integers(3, 8), alpha=st.floats(2.0, 4.0), q=st.floats(0.0, 1.0))
def test_inertia_count_matches_dense(name, heis, aniso, lx, lt, nx, nt, alpha, q):
    """The inertia count is the eigvalsh count, on H-type and non-H-type grids."""
    s = heis if name == "heis" else aniso
    if s.horizontal_dim > 2:
        nx = 3 + nx % 2
    assume(nx % 2 == 0 or nt % 2 == 0)
    op = assemble_operator(alpha, s, Grid3(s, lx, lt, nx, nt))
    dense = np.linalg.eigvalsh(op.to_dense())
    lam = float(np.quantile(dense, q))
    assume(np.min(np.abs(dense - lam)) > 1e-6)
    assert eigen_count_below(op, lam).count == int(np.sum(dense < lam))


def test_box_study_nested_validation(heis):
    g1 = Grid3(heis, 2.0, 4.0, 6, 12)
    g0 = Grid3(heis, 2.0, 2.0, 6, 6)
    with pytest.raises(ValueError, match="nested"):
        box_convergence_study(3.0, heis, [g1, g0], k=2)


def test_box_monotonicity(heis):
    """Dirichlet eigenvalues do not increase when the box grows (aligned grids)."""
    grids = [Grid3(heis, 1.0, 1.0, 8, 8), Grid3(heis, 1.0, 2.0, 8, 16),
             Grid3(heis, 1.0, 4.0, 8, 32)]
    study = box_convergence_study(3.0, heis, grids, k=3, tol=1e-8)
    for prev, cur in zip(study.rows, study.rows[1:]):
        assert np.all(cur.eigenvalues <= prev.eigenvalues + 1e-7)


def test_clamped_potential_decouples(heis):
    """V = +inf outside a fixed ball: spectrum independent of the box."""
    from srlab.norms import norm_xt

    def clamped(x, t):
        v = potential_value_xt(3.0, heis, x, t)
        return np.where(norm_xt(x, t) <= 1.0, v, np.inf)

    g_small = Grid3(heis, 1.25, 1.25, 10, 10)
    g_big = Grid3(heis, 2.5, 2.5, 20, 20)
    ops = [assemble_operator(3.0, heis, g, potential=clamped) for g in (g_small, g_big)]
    ev = [np.linalg.eigvalsh(op.to_dense())[:4] for op in ops]
    assert np.max(np.abs(ev[0] - ev[1])) <= 1e-10

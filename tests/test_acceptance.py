"""Acceptance gate: one test per numbered criterion, at the stated tolerance.

Each test prints a single "PASS criterion N" line with the measured figures
(visible under pytest -s or in the captured output of a failing run) and
asserts its runtime budget.  Experiment configurations (grids, bump radii,
shift lambda, count level Lambda, t-ranges) are frozen here; everything is
seed-deterministic.
"""

import math
import time

import numpy as np
import pytest

from srlab.cli import run as cli_run
from srlab.forms import (QuadratureGrid, SmoothBump, TranslatedBump,
                         conjugation_residual, fit_loglog_slope,
                         sub_laplacian_apply, weyl_scan)
from srlab.group import GroupPoint, make_heisenberg, product
from srlab.norms import norm_xt, quasi_distance_xt, weight_xt
from srlab.potential import (check_sandwich, grad_norm_sq_xt,
                             laplacian_weight_xt, potential_closed_form_xt,
                             potential_value_xt, sub_laplacian_norm_xt)
from srlab.spectral import (Grid3, assemble_operator, box_convergence_study,
                            eigen_count_below, lanczos_lowest)
from srlab.sublevel import SublevelSpec, scaling_fit, thinness_integral

import oracles
from conftest import random_points

HEIS = make_heisenberg()


def _aniso():
    from conftest import ROT
    j = np.zeros((1, 4, 4))
    j[0, :2, :2] = ROT
    j[0, 2:, 2:] = 2.0 * ROT
    from srlab.group import MetivierStructure
    return MetivierStructure(n=2, m=1, maps=j)


def test_criterion_1_group_calculus_suite():
    t0 = time.time()
    n_pts = 10_000
    tol = 1e-12
    rng = np.random.default_rng(0)

    def draw():
        return (rng.uniform(-10, 10, size=(n_pts, 2)),
                rng.uniform(-10, 10, size=(n_pts, 1)))

    x1, t1 = draw()
    x2, t2 = draw()
    x3, t3 = draw()
    ax, at = product(HEIS, *product(HEIS, x1, t1, x2, t2), x3, t3)
    bx, bt = product(HEIS, x1, t1, *product(HEIS, x2, t2, x3, t3))
    assoc = max(np.max(np.abs(ax - bx)), np.max(np.abs(at - bt)))
    assert assoc <= tol

    r = np.exp(rng.uniform(-1.5, 1.5, size=n_pts))
    px, pt = product(HEIS, r[:, None] * x1, (r ** 2)[:, None] * t1,
                     r[:, None] * x2, (r ** 2)[:, None] * t2)
    qx, qt = product(HEIS, x1, t1, x2, t2)
    auto = max(np.max(np.abs(px - r[:, None] * qx)),
               np.max(np.abs(pt - (r ** 2)[:, None] * qt)))
    assert auto <= tol

    hom = np.max(np.abs(norm_xt(r[:, None] * x1, (r ** 2)[:, None] * t1)
                        - r * norm_xt(x1, t1)))
    assert hom <= tol

    gx, gt = draw()
    d0 = quasi_distance_xt(HEIS, x1, t1, x2, t2)
    lx, lt = product(HEIS, gx, gt, x1, t1)
    mx, mt = product(HEIS, gx, gt, x2, t2)
    dinv = np.max(np.abs(d0 - quasi_distance_xt(HEIS, lx, lt, mx, mt)))
    assert dinv <= tol

    bump = SmoothBump(1.0, 1.0)
    g = np.array([0.4, -0.9]), np.array([1.3])
    shifted = TranslatedBump(bump, HEIS, GroupPoint(*g))
    xs = rng.uniform(-1.5, 1.5, size=(n_pts, 2))
    ts = rng.uniform(-1.5, 1.5, size=(n_pts, 1))
    qx2, qt2 = product(HEIS, -g[0], -g[1], xs, ts)
    linv = np.max(np.abs(sub_laplacian_apply(HEIS, shifted, xs, ts)
                         - sub_laplacian_apply(HEIS, bump, qx2, qt2)))
    assert linv <= tol

    elapsed = time.time() - t0
    assert elapsed < 5.0
    print(f"\nPASS criterion 1: assoc {assoc:.2e}, dilation {auto:.2e}, "
          f"homogeneity {hom:.2e}, d-invariance {dinv:.2e}, "
          f"L-invariance {linv:.2e} at 1e4 points in {elapsed:.2f}s")


def test_criterion_2_fd_cross_validation():
    t0 = time.time()
    rng = np.random.default_rng(0)
    h = 1e-2
    floor = 1e-11
    quantities = {
        "grad_norm_sq": lambda x, t: (
            float(grad_norm_sq_xt(HEIS, x, t)),
            lambda hh: oracles.fd_grad_norm_sq(norm_xt, HEIS, x, t, hh)),
        "sub_laplacian_norm": lambda x, t: (
            float(sub_laplacian_norm_xt(HEIS, x, t)),
            lambda hh: oracles.fd_sub_laplacian(norm_xt, HEIS, x, t, hh)),
        "laplacian_weight": lambda x, t: (
            float(laplacian_weight_xt(3.0, HEIS, x, t)),
            lambda hh: oracles.fd_sub_laplacian(
                lambda xx, tt: weight_xt(3.0, xx, tt), HEIS, x, t, hh)),
    }
    measured = {name: 0 for name in quantities}
    ranges = {name: [math.inf, -math.inf] for name in quantities}
    for _ in range(100):
        x = rng.uniform(0.4, 1.6, size=2) * rng.choice([-1.0, 1.0], size=2)
        t = rng.uniform(0.4, 1.6, size=1) * rng.choice([-1.0, 1.0], size=1)
        for name, build in quantities.items():
            exact, fd = build(x, t)
            e1, e2 = oracles.richardson_ratios(exact, fd, h)
            if e2 <= floor * max(1.0, abs(exact)):
                continue  # nothing left to measure at this point
            ratio = e1 / e2
            measured[name] += 1
            ranges[name][0] = min(ranges[name][0], ratio)
            ranges[name][1] = max(ranges[name][1], ratio)
            assert 3.5 <= ratio <= 4.5, (name, x, t, ratio)
    assert all(count >= 95 for count in measured.values())
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print(f"\nPASS criterion 2: Richardson ratios in "
          + ", ".join(f"{n} [{r[0]:.2f}, {r[1]:.2f}] ({measured[n]} pts)"
                      for n, r in ranges.items())
          + f" in {elapsed:.2f}s")


def test_criterion_3_htype_reduction():
    t0 = time.time()
    x, t = random_points(HEIS, 100_000, seed=1, box=1.5)
    worst = 0.0
    for alpha in (1.0, 2.0, 3.0, 4.0):
        gap = np.max(np.abs(potential_value_xt(alpha, HEIS, x, t)
                            - potential_closed_form_xt(alpha, HEIS, x, t)))
        assert gap <= 1e-12, alpha
        worst = max(worst, gap)
    print(f"\nPASS criterion 3: closed-form gap <= {worst:.2e} "
          f"at 1e5 points, alpha in {{1,2,3,4}}, in {time.time()-t0:.2f}s")


def test_criterion_4_sandwich():
    t0 = time.time()
    x, t = random_points(HEIS, 100_000, seed=2, box=2.0)
    worst_eq = 0.0
    for alpha in (1.0, 2.0, 2.5, 3.0, 4.0):
        rep = check_sandwich(alpha, HEIS, (x, t))
        assert rep.n_violations == 0, alpha
        assert rep.max_equality_gap <= 1e-10, alpha
        worst_eq = max(worst_eq, rep.max_equality_gap)
    aniso = _aniso()
    xa, ta = random_points(aniso, 100_000, seed=3, box=2.0)
    strict = math.inf
    for alpha in (2.5, 3.0):
        rep = check_sandwich(alpha, aniso, (xa, ta))
        assert rep.n_violations == 0, alpha
        strict = min(strict, -rep.max_low_violation, -rep.max_high_violation)
    assert strict > 0.0  # inequalities are strict somewhere off H-type
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print(f"\nPASS criterion 4: zero violations at 1e5 points on both structures; "
          f"H-type equality gap {worst_eq:.2e} in {elapsed:.2f}s")


def test_criterion_5_conjugation_identity():
    t0 = time.time()
    bump = SmoothBump(1.0, 1.0)
    ratios = {}
    res3 = {n: conjugation_residual(3.0, HEIS, bump, QuadratureGrid(HEIS, 1.0, 1.0, n, n))
            for n in (12, 24, 48)}
    ratios["alpha=3"] = (res3[12] / res3[24], res3[24] / res3[48])
    res2 = {n: conjugation_residual(2.0, HEIS, bump, QuadratureGrid(HEIS, 1.0, 1.0, n, n))
            for n in (24, 48, 96)}
    ratios["alpha=2"] = (res2[24] / res2[48], res2[48] / res2[96])
    for key, pair in ratios.items():
        for ratio in pair:
            assert 3.0 <= ratio <= 5.0, (key, ratio)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print("\nPASS criterion 5: h-halving ratios "
          + ", ".join(f"{k}: {p[0]:.2f}/{p[1]:.2f}" for k, p in ratios.items())
          + f" (window [3,5]) in {elapsed:.2f}s")


def test_criterion_6_weyl_dichotomy():
    t0 = time.time()
    # bounded branch: unit bump inside the cylinder, auto lambda
    bump = SmoothBump(1.0, 1.0)
    grid = QuadratureGrid(HEIS, 1.0, 1.0, 48, 48)
    margins = {}
    for alpha in (1.0, 1.5, 2.0):
        scan = weyl_scan(alpha, HEIS, bump, range(2, 65), grid, seed=0)
        worst = max(r.residual for r in scan.records)
        assert worst <= scan.bound, alpha
        for r in scan.records:
            assert abs(r.overlap_check - 2.0 * r.psi_norm ** 2) <= 1e-10
        margins[alpha] = (worst, scan.bound)
    # growth branch: wide bump, lambda = 0, canonical dyadic range
    wide = SmoothBump(3.0, 2.0)
    wgrid = QuadratureGrid(HEIS, 3.0, 2.0, 48, 48)
    slopes = {}
    for alpha in (2.5, 3.0, 4.0):
        scan = weyl_scan(alpha, HEIS, wide, [4, 8, 16, 32, 64], wgrid, lam=0.0, seed=0)
        res = [r.residual for r in scan.records]
        assert all(b > a for a, b in zip(res, res[1:]))
        slope = fit_loglog_slope([4, 8, 16, 32, 64], res)
        assert slope == pytest.approx(alpha - 2.0, abs=0.15), alpha
        slopes[alpha] = slope
    elapsed = time.time() - t0
    assert elapsed < 120.0
    print("\nPASS criterion 6: bounded residuals "
          + ", ".join(f"a={a}: {m[0]:.2f}<={m[1]:.2f}" for a, m in margins.items())
          + "; slopes "
          + ", ".join(f"a={a}: {sl:+.3f} (target {a-2:+.1f})" for a, sl in slopes.items())
          + f" in {elapsed:.1f}s")


def test_criterion_7_thinness_scaling():
    t0 = time.time()
    slopes = {}
    t_ranges = {2.5: [512.0, 1024.0, 2048.0, 4096.0],
                3.0: [8.0, 16.0, 32.0, 64.0],
                4.0: [8.0, 16.0, 32.0, 64.0]}
    for alpha, ts in t_ranges.items():
        fit = scaling_fit(SublevelSpec(alpha, 10.0), HEIS, 1.0, ts, 200_000, seed=0)
        assert fit.slope == pytest.approx(HEIS.n * (2.0 - alpha), abs=0.15), alpha
        slopes[alpha] = fit.slope

    # threshold law: tail finite exactly when ell > m / (n (alpha - 2))
    for alpha in (2.5, 3.0, 4.0):
        crit = HEIS.m / (HEIS.n * (alpha - 2.0))
        for ell, expect in ((1.25 * crit, True), (0.8 * crit, False), (crit, False)):
            est = thinness_integral(SublevelSpec(alpha, 5.0), HEIS, 1.0, ell,
                                    truncation_T=16.0, outer_samples=40,
                                    inner_samples=10, seed=0)
            assert est.tail_finite == expect
            assert math.isfinite(est.tail_bound) == expect

    # the full-scale truncated integral at the stated sample counts
    est = thinness_integral(SublevelSpec(3.0, 10.0), HEIS, 1.0, 2.0,
                            truncation_T=64.0, outer_samples=100_000,
                            inner_samples=10_000, seed=0)
    assert est.value > 0.0 and est.tail_finite and math.isfinite(est.tail_bound)
    elapsed = time.time() - t0
    assert elapsed < 180.0
    print("\nPASS criterion 7: slopes "
          + ", ".join(f"a={a}: {sl:+.3f} (target {HEIS.n*(2-a):+.1f})"
                      for a, sl in slopes.items())
          + f"; threshold law exact; integral {est.value:.3f} +- {est.std_error:.3f}, "
          f"tail <= {est.tail_bound:.3f}, in {elapsed:.1f}s")


def test_criterion_8_spectral_dichotomy():
    t0 = time.time()
    # alpha = 3: lowest-5 Dirichlet eigenvalues freeze when Lt doubles 8 -> 16
    grids = [Grid3(HEIS, 3.0, 8.0, 25, 50), Grid3(HEIS, 3.0, 16.0, 25, 100)]
    study = box_convergence_study(3.0, HEIS, grids, k=5, tol=1e-6,
                                  max_iter=2000, seed=0)
    rel = study.rows[1].rel_change
    assert rel is not None and np.all(rel < 0.01)

    # dense-oracle equivalence on a grid of dimension <= 500
    g = Grid3(HEIS, 2.0, 2.0, 6, 12)  # dim 432
    op = assemble_operator(3.0, HEIS, g)
    dense = np.linalg.eigvalsh(op.to_dense())
    r = lanczos_lowest(op, k=8, tol=1e-10, seed=1)
    oracle_gap = float(np.max(np.abs(r.eigenvalues - dense[:8])))
    assert oracle_gap <= 1e-8

    # alpha = 2: count below a fixed level grows by >= 1.5x on the same doubling
    lam = 3.1
    c8 = eigen_count_below(assemble_operator(2.0, HEIS, Grid3(HEIS, 2.0, 8.0, 20, 50)),
                           lam, budget=36, tol=1e-4, max_iter=2500, seed=0, k_start=28)
    c16 = eigen_count_below(assemble_operator(2.0, HEIS, Grid3(HEIS, 2.0, 16.0, 20, 100)),
                            lam, budget=48, tol=1e-4, max_iter=3500, seed=0, k_start=40)
    assert not c8.is_lower_bound and not c16.is_lower_bound
    assert c16.count >= 1.5 * c8.count
    elapsed = time.time() - t0
    assert elapsed < 600.0
    print(f"\nPASS criterion 8: alpha=3 max rel change {np.max(rel):.2e} (<1%); "
          f"dense-oracle gap {oracle_gap:.2e}; alpha=2 counts below {lam}: "
          f"{c8.count} -> {c16.count} (ratio {c16.count/c8.count:.2f} >= 1.5) "
          f"in {elapsed:.1f}s")


def test_criterion_9_determinism(tmp_path):
    t0 = time.time()
    cmds = [
        ["verify", "--samples", "2000", "--seed", "7"],
        ["gamma", "--samples", "20000", "--seed", "7"],
        ["potential", "--alpha", "2.5", "--nx", "6", "--nt", "6", "--seed", "7"],
        ["weyl", "--alpha", "1.5", "--n-max", "8", "--grid", "16", "--seed", "7"],
        ["spectrum", "--alpha", "3", "--lx", "2", "--lt", "2", "--nx", "5",
         "--nt", "6", "--k", "4", "--seed", "7"],
        ["thinness", "--alpha", "3", "--m-level", "10", "--ell", "2",
         "--truncation", "16", "--outer", "2000", "--inner", "200", "--seed", "7"],
    ]
    for i, cmd in enumerate(cmds):
        out_a = tmp_path / f"a{i}"
        out_b = tmp_path / f"b{i}"
        assert cli_run(cmd + ["--output", str(out_a)]) == 0
        assert cli_run(cmd + ["--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes(), cmd[0]
        assert out_a.stat().st_size > 0
    print(f"\nPASS criterion 9: byte-identical reruns for all six seeded "
          f"subcommands in {time.time()-t0:.1f}s")

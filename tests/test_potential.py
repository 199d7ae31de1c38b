import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from srlab import potential
from srlab.group import (exact_condition_extremes, identity, point, uniform_ball,
                         verify_metivier)
from srlab.norms import norm_xt, weight_xt
from srlab.potential import (admissibility_report, check_sandwich,
                             constants_from_condition, cylinder_sup_potential,
                             essential_inf_estimate, grad_kaplan_xt,
                             grad_norm_sq, grad_norm_sq_xt, grad_weight,
                             grad_weight_xt, laplacian_weight,
                             laplacian_weight_xt, potential_bounds,
                             potential_closed_form_xt, potential_value,
                             potential_value_xt, sandwich_bounds_xt,
                             sandwich_floor, sub_laplacian_norm,
                             sub_laplacian_norm_xt)

import oracles
from conftest import count_calls, random_points, skew_structures


def test_grad_norm_sq_examples(heis):
    assert abs(grad_norm_sq(heis, point(heis, [1, 0], [0])) - 1.0) <= 1e-15
    assert grad_norm_sq(heis, point(heis, [0, 0], [0.7])) == 0.0
    v = grad_norm_sq(heis, point(heis, [1, 0], [1.0]))
    assert abs(v - 1.0 / math.sqrt(17.0)) <= 1e-15


def test_grad_norm_sq_range(heis, aniso):
    for s in (heis, aniso):
        x, t = random_points(s, 2000, seed=0)
        const = potential_bounds(1.0, None, s)
        gns = grad_norm_sq_xt(s, x, t)
        n = norm_xt(x, t)
        x2 = np.einsum("si,si->s", x, x)
        assert np.all(gns >= const.c * x2 / n ** 2 - 1e-12)
        assert np.all(gns <= const.C * x2 / n ** 2 + 1e-12)


def test_grad_kaplan_matches_grad_norm_sq(heis, aniso):
    for s in (heis, aniso):
        x, t = random_points(s, 500, seed=1)
        g = grad_kaplan_xt(s, x, t)
        assert np.max(np.abs(np.einsum("si,si->s", g, g)
                             - grad_norm_sq_xt(s, x, t))) <= 1e-13


def test_identity_rejected(heis):
    with pytest.raises(ValueError):
        grad_norm_sq(heis, identity(heis))
    with pytest.raises(ValueError):
        sub_laplacian_norm(heis, identity(heis))
    with pytest.raises(ValueError):
        potential_value(2.0, heis, identity(heis))


def test_sub_laplacian_examples(heis):
    assert abs(sub_laplacian_norm(heis, point(heis, [1, 0], [0])) + 3.0) <= 1e-14
    assert sub_laplacian_norm(heis, point(heis, [0, 0], [2.0])) == 0.0


def test_sub_laplacian_htype_identity(heis):
    """On H-type, LN = -(Q-1)|x|^2 / N^3."""
    x, t = random_points(heis, 1000, seed=2)
    ln = sub_laplacian_norm_xt(heis, x, t)
    n = norm_xt(x, t)
    x2 = np.einsum("si,si->s", x, x)
    assert np.max(np.abs(ln + 3.0 * x2 / n ** 3)) <= 1e-12


def test_fd_oracles_heisenberg(heis):
    """Closed forms match centered differences through X_j, order h^2."""
    rng = np.random.default_rng(3)
    h = 1e-2
    for _ in range(20):
        x = rng.uniform(0.4, 1.6, size=2) * rng.choice([-1.0, 1.0], size=2)
        t = rng.uniform(0.4, 1.6, size=1) * rng.choice([-1.0, 1.0], size=1)
        exact = float(grad_norm_sq_xt(heis, x, t))
        e1, e2 = oracles.richardson_ratios(
            exact, lambda hh: oracles.fd_grad_norm_sq(norm_xt, heis, x, t, hh), h)
        assert e1 / e2 == pytest.approx(4.0, abs=0.5)
        exact = float(sub_laplacian_norm_xt(heis, x, t))
        e1, e2 = oracles.richardson_ratios(
            exact, lambda hh: oracles.fd_sub_laplacian(norm_xt, heis, x, t, hh), h)
        assert e1 / e2 == pytest.approx(4.0, abs=0.5)


def test_grad_weight_examples(heis):
    g = grad_weight(2.0, heis, point(heis, [1, 0], [0]))
    assert abs(np.linalg.norm(g) - 2.0 * math.exp(-1.0)) <= 1e-15
    g0 = grad_weight(2.0, heis, point(heis, [0, 0], [1.0]))
    assert np.all(g0 == 0.0)
    x, t = random_points(heis, 200, seed=4)
    alpha = 1.7
    from srlab.potential import grad_weight_xt
    mag = np.linalg.norm(grad_weight_xt(alpha, heis, x, t), axis=1)
    n = norm_xt(x, t)
    expected = alpha * weight_xt(alpha, x, t) * n ** (alpha - 1) * np.sqrt(
        grad_norm_sq_xt(heis, x, t))
    assert np.max(np.abs(mag - expected)) <= 1e-14


def test_laplacian_weight_value_and_fd(heis):
    """L w_2 at ((1,0),0) is +4/e; pinned by the finite-difference oracle."""
    p = point(heis, [1.0, 0.0], [0.0])
    val = laplacian_weight(2.0, heis, p)
    assert abs(val - 4.0 * math.exp(-1.0)) <= 1e-14
    fd = oracles.fd_sub_laplacian(lambda x, t: weight_xt(2.0, x, t),
                                  heis, p.x, p.t, 1e-4)
    assert abs(fd - val) <= 1e-6
    assert laplacian_weight(2.0, heis, point(heis, [0, 0], [1.0])) == 0.0


def test_laplacian_weight_fd_random(heis):
    rng = np.random.default_rng(5)
    for alpha in (2.0, 3.0):
        for _ in range(10):
            x = rng.uniform(0.4, 1.5, size=2)
            t = rng.uniform(0.4, 1.5, size=1)
            exact = laplacian_weight(alpha, heis, point(heis, x, t))
            e1, e2 = oracles.richardson_ratios(
                exact,
                lambda hh: oracles.fd_sub_laplacian(
                    lambda xx, tt: weight_xt(alpha, xx, tt), heis, x, t, hh),
                1e-2)
            assert e1 / e2 == pytest.approx(4.0, abs=0.5)


def test_potential_consistency_with_weight_derivatives(heis, aniso):
    """V = -(1/4)|grad w|^2/w^2 - (1/2) Lw/w pointwise."""
    from srlab.potential import grad_weight_xt, laplacian_weight_xt
    for s in (heis, aniso):
        x, t = random_points(s, 400, seed=6)
        alpha = 2.4
        w = weight_xt(alpha, x, t)
        gw = grad_weight_xt(alpha, s, x, t)
        lw = laplacian_weight_xt(alpha, s, x, t)
        direct = (-0.25 * np.einsum("si,si->s", gw, gw) / w ** 2 - 0.5 * lw / w)
        assert np.max(np.abs(direct - potential_value_xt(alpha, s, x, t))) <= 1e-12


def test_potential_examples(heis):
    assert abs(potential_value(2.0, heis, point(heis, [1, 0], [0])) + 3.0) <= 1e-14
    assert abs(potential_value(4.0, heis, point(heis, [1, 0], [0])) + 8.0) <= 1e-14
    assert potential_value(3.0, heis, point(heis, [0, 0], [1.5])) == 0.0


def test_htype_closed_form(heis):
    x, t = random_points(heis, 10_000, seed=7, box=1.5)
    for alpha in (1.0, 2.0, 3.0, 4.0):
        gap = np.max(np.abs(potential_value_xt(alpha, heis, x, t)
                            - potential_closed_form_xt(alpha, heis, x, t)))
        assert gap <= 1e-12


def test_potential_bounds_constants(heis):
    c3 = potential_bounds(3.0, None, heis)
    assert c3.c_a1 == pytest.approx(2.25, abs=1e-14)
    assert c3.c_a2 == pytest.approx(7.5, abs=1e-14)
    # generic formula cross-check: C a^2/2 - (a/2)(4c - 2n - 2 - 2 m C0)
    assert c3.c_a2 == pytest.approx(
        1.0 * 9.0 / 2.0 - 1.5 * (4.0 - 2.0 - 2.0 - 2.0), abs=1e-14)
    c2 = potential_bounds(2.0, None, heis)
    assert c2.c_a1 == pytest.approx(1.0) and c2.c_a2 == pytest.approx(4.0)
    assert c2.c_a1 == c2.c_a3 and c2.c_a2 == c2.c_a4


def test_potential_bounds_aniso_exact(aniso):
    const = potential_bounds(2.5, None, aniso)
    assert const.c0 == 1.0 and const.C0 == 4.0
    assert const.c == 1.0 and const.C == 4.0


def test_c_a2_positive_random():
    rng = np.random.default_rng(8)
    for _ in range(100):
        c0 = rng.uniform(0.01, 2.0)
        C0 = c0 + rng.uniform(0.0, 3.0)
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        alpha = rng.uniform(0.05, 6.0)
        const = constants_from_condition(alpha, c0, C0, n, m)
        assert const.c_a2 > 0.0
        assert 4.0 * const.c - 2.0 * n - 2.0 <= 0.0


def test_constants_reject_degenerate():
    with pytest.raises(ValueError, match="c0"):
        constants_from_condition(2.0, 0.0, 1.0, 2, 1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="c0 must be finite"):
            constants_from_condition(3.0, bad, 1.0, 1, 1)
        with pytest.raises(ValueError, match="C0 must be finite"):
            constants_from_condition(3.0, 0.5, bad, 1, 1)


def test_sandwich_heisenberg_equality(heis):
    x, t = random_points(heis, 10_000, seed=9)
    for alpha in (1.0, 2.0, 3.0):
        rep = check_sandwich(alpha, heis, (x, t))
        assert rep.n_violations == 0
        assert rep.max_equality_gap <= 1e-10


def test_sandwich_aniso_strict(aniso):
    x, t = random_points(aniso, 10_000, seed=10)
    est = verify_metivier(aniso, 10_000, seed=0)
    rep = check_sandwich(2.5, aniso, (x, t), est=est)
    assert rep.n_violations == 0
    v = potential_value_xt(2.5, aniso, x, t)
    lo, hi = sandwich_bounds_xt(rep.constants, x, t)
    assert np.max(v - lo) > 1e-6 and np.max(hi - v) > 1e-6


def test_sandwich_x_zero_trivial(heis):
    t = np.linspace(0.5, 3.0, 7)[:, None]
    x = np.zeros((7, 2))
    rep = check_sandwich(3.0, heis, (x, t))
    assert rep.n_violations == 0
    lo, hi = sandwich_bounds_xt(rep.constants, x, t)
    assert np.all(lo == 0.0) and np.all(hi == 0.0)


def test_sandwich_floor_values(heis):
    assert sandwich_floor(potential_bounds(2.0, None, heis)) == -4.0
    assert sandwich_floor(potential_bounds(4.0, None, heis)) == pytest.approx(-8.0, abs=1e-12)


def test_essential_inf_alpha2(heis):
    est = essential_inf_estimate(2.0, heis, seed=0)
    assert est.analytic_floor == -4.0
    assert est.sampled_min >= -4.0 - 1e-9
    assert not est.unbounded_below
    # brute-force oracle over the closed form: min of u(1 - 4/N^2), u <= N^2
    ns = np.linspace(1e-3, 5.0, 4001)
    brute = np.min(ns ** 2 * (1.0 - 4.0 / ns ** 2))
    assert brute >= -4.0 and brute < -3.99


def test_essential_inf_alpha4(heis):
    est = essential_inf_estimate(4.0, heis, seed=0)
    assert est.analytic_floor == pytest.approx(-8.0, abs=1e-12)
    assert est.sampled_min >= -12.0
    assert est.sampled_min >= est.analytic_floor - 1e-9
    # grid-search oracle over (u, N): 4 u N^4 - 12 u with u = |x|^2 <= N^2
    ns = np.linspace(1e-3, 3.0, 3001)
    brute = np.min(4.0 * ns ** 2 * ns ** 4 - 12.0 * ns ** 2)
    assert est.sampled_min == pytest.approx(brute, abs=1e-2)
    assert brute == pytest.approx(-8.0, abs=1e-2)


def test_essential_inf_alpha_below_two(heis):
    est = essential_inf_estimate(1.5, heis, seed=0)
    assert est.unbounded_below
    assert est.analytic_floor is None
    shallow = essential_inf_estimate(1.0, heis, scale_range=(-40, 2),
                                     per_scale=50, seed=0, sentinel=-1e3)
    assert shallow.sentinel_hit


def test_admissibility_one_jet_per_shell(heis, monkeypatch):
    """Each probed shell is evaluated once, for the gradient, L w and the ratio alike."""
    jets = count_calls(monkeypatch, "_norm_jet", potential)
    rep = admissibility_report(3.0, heis, depth=6, per_shell=50)
    assert len(jets) == rep.inner_radii.size + rep.ratio_radii.size


def test_admissibility_classification(heis):
    assert admissibility_report(1.0, heis).condition_b
    rep3 = admissibility_report(3.0, heis)
    assert rep3.condition_a
    rep_half = admissibility_report(0.5, heis)
    assert not rep_half.condition_a and not rep_half.condition_b
    assert not rep_half.grad_locally_bounded


def test_scaling_law_along_orbits(heis):
    """N^{4-2a} V / |x|^2 + c_a2 N^{-a} is constant (= c_a1) on dilation orbits."""
    x, t = random_points(heis, 200, seed=11)
    alpha = 3.0
    const = potential_bounds(alpha, None, heis)
    for r in (0.5, 1.0, 2.0, 4.0):
        xr, tr = r * x, r * r * t
        n = norm_xt(xr, tr)
        x2 = np.einsum("si,si->s", xr, xr)
        w = (potential_value_xt(alpha, heis, xr, tr) * n ** (4 - 2 * alpha) / x2
             + const.c_a2 * n ** (-alpha))
        assert np.max(np.abs(w - const.c_a1)) <= 1e-10


def test_cylinder_sup(heis, quaternion):
    assert cylinder_sup_potential(2.0, heis) == pytest.approx(3.0, abs=1e-6)
    assert math.isinf(cylinder_sup_potential(3.0, heis))
    # exact on H-type: (a/2)(Q - 2 + a/2), at |x| = N = 1; no point of the
    # cylinder exceeds it, on a dense N-grid at |x| = 1 or sampled with V_alpha itself
    rng = np.random.default_rng(13)
    x = uniform_ball(rng, 20_000, 4, 1.0)
    t = rng.uniform(-30.0, 30.0, size=(20_000, 3))
    keep = norm_xt(x, t) >= 1.0
    ns = np.geomspace(1.0, 1e6, 100_001)
    e1 = np.zeros((ns.size, 4))
    e1[:, 0] = 1.0
    t_line = np.outer(np.sqrt(ns ** 4 - 1.0) / 4.0, [1.0, 0.0, 0.0])   # N = ns at |x| = 1
    for alpha in (0.5, 1.0, 1.5, 2.0):
        sup = cylinder_sup_potential(alpha, quaternion)
        assert sup == pytest.approx(0.5 * alpha * (8.0 + 0.5 * alpha), rel=1e-14)
        on_line = np.abs(potential_value_xt(alpha, quaternion, e1, t_line))
        assert np.max(on_line) == pytest.approx(sup, rel=1e-12)
        sampled = np.abs(potential_value_xt(alpha, quaternion, x[keep], t[keep]))
        assert np.max(sampled) <= sup * (1.0 + 1e-12)


def test_cylinder_sup_sampled(aniso):
    """Off H-type the cylinder is sampled: finite, seeded, and at least |V_alpha|
    at the axis point |x| = N = 1."""
    e1 = np.array([[1.0, 0.0, 0.0, 0.0]])
    for alpha in (1.0, 2.0):
        sup = cylinder_sup_potential(alpha, aniso, seed=4)
        assert math.isfinite(sup)
        assert cylinder_sup_potential(alpha, aniso, seed=4) == sup
        assert sup >= abs(potential_value_xt(alpha, aniso, e1, np.zeros((1, 1)))[0])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(s=skew_structures(), alpha=st.floats(1.5, 3.5), seed=st.integers(0, 2 ** 32 - 1))
def test_norm_jet_matches_fd_oracles(s, alpha, seed):
    """|grad_H N|^2, LN and V_alpha against differences through X_j, order h^2.

    Random skew structures, not H-type; the Metivier condition is not needed
    for these pointwise identities.  V_alpha is checked through the weight alone, as
    -(1/4) |grad_H w|^2 / w^2 - (1/2) (L w) / w with both derivatives of
    w = exp(-N^alpha) taken by the oracle.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.4, 1.6, size=s.horizontal_dim) * rng.choice([-1.0, 1.0], size=s.horizontal_dim)
    t = rng.uniform(0.4, 1.6, size=s.m) * rng.choice([-1.0, 1.0], size=s.m)

    def weight(xx, tt):
        return weight_xt(alpha, xx, tt)

    def fd_potential(h):
        w = weight(x, t)
        return (-0.25 * oracles.fd_grad_norm_sq(weight, s, x, t, h) / w ** 2
                - 0.5 * oracles.fd_sub_laplacian(weight, s, x, t, h) / w)

    cases = [
        (grad_norm_sq_xt(s, x, t),
         lambda hh: oracles.fd_grad_norm_sq(norm_xt, s, x, t, hh)),
        (sub_laplacian_norm_xt(s, x, t),
         lambda hh: oracles.fd_sub_laplacian(norm_xt, s, x, t, hh)),
        (potential_value_xt(alpha, s, x, t), fd_potential),
    ]
    for exact, fd in cases:
        e1, e2 = oracles.richardson_ratios(float(exact), fd, 1e-2)
        # where the h^2 term of the difference happens to vanish, the ratio
        # says nothing, but an error already this small does
        assert e1 <= 1e-7 * max(1.0, abs(float(exact))) or e1 / e2 == pytest.approx(4.0, abs=0.5)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(s=skew_structures(n_range=(1, 3), m_range=(1, 1)), alpha=st.floats(1.5, 4.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sandwich_random_one_dimensional_centre(s, alpha, seed):
    """The sandwich holds on random non-H-type structures with m = 1.

    There `exact_condition_extremes` gives (c0, C0) exactly, so the
    constants are rigorous; points span dilation scales 2^-4 .. 2^4.
    """
    assume(exact_condition_extremes(s)[0] > 1e-6)   # Metivier: J invertible
    rng = np.random.default_rng(seed)
    r = 2.0 ** rng.integers(-4, 5, size=(2000, 1))
    x = rng.uniform(-1.0, 1.0, size=(2000, s.horizontal_dim)) * r
    t = rng.uniform(-1.0, 1.0, size=(2000, s.m)) * r * r
    assert check_sandwich(alpha, s, (x, t)).n_violations == 0


def test_kernels_reject_non_finite_alpha(heis):
    x, t = random_points(heis, 10, seed=12)
    for alpha in (math.nan, math.inf, -math.inf, 0.0, -1.0):
        for kernel in (potential_value_xt, grad_weight_xt, laplacian_weight_xt):
            with pytest.raises(ValueError, match="alpha"):
                kernel(alpha, heis, x, t)
        with pytest.raises(ValueError, match="alpha"):
            potential_bounds(alpha, None, heis)
        with pytest.raises(ValueError, match="alpha"):
            cylinder_sup_potential(alpha, heis)
    for bad in (math.nan, math.inf, 0.0):
        with pytest.raises(ValueError, match="t_cap"):
            cylinder_sup_potential(1.5, heis, t_cap=bad)
    # a NaN slack made every comparison false, hiding real violations
    assert check_sandwich(3.0, heis, (x, t), slack=-1.0).n_violations > 0
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="slack"):
            check_sandwich(3.0, heis, (x, t), slack=bad)

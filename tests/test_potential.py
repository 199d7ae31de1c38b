import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from srlab import potential
from srlab.forms import SmoothBump, horizontal_gradient, sub_laplacian_apply
from srlab.group import (MetivierStructure, exact_condition_extremes, identity, point,
                         uniform_ball, verify_metivier)
from srlab.norms import BallSpec, in_ball_xt, norm_xt, quasi_distance_xt, weight_xt
from srlab.potential import (admissibility, check_sandwich,
                             constants_from_condition, cylinder_sup_potential,
                             grad_kaplan_xt,
                             grad_norm_sq_xt, grad_weight_xt,
                             laplacian_weight_xt, potential_bounds,
                             potential_closed_form_xt, potential_value_xt,
                             sandwich_bounds_xt, sandwich_floor,
                             sub_laplacian_norm_xt)

from srlab.sublevel import SublevelSpec, in_sublevel_xt

import oracles
from conftest import count_calls, quaternion_maps, random_points, skew_structures

# every public batch entry point that takes a structure, as (s, x, t) -> value
_STRUCTURE_ENTRY_POINTS = {
    "grad_kaplan_xt": grad_kaplan_xt,
    "grad_norm_sq_xt": grad_norm_sq_xt,
    "sub_laplacian_norm_xt": sub_laplacian_norm_xt,
    "grad_weight_xt": lambda s, x, t: grad_weight_xt(2.0, s, x, t),
    "laplacian_weight_xt": lambda s, x, t: laplacian_weight_xt(2.0, s, x, t),
    "potential_value_xt": lambda s, x, t: potential_value_xt(2.0, s, x, t),
    "potential_closed_form_xt": lambda s, x, t: potential_closed_form_xt(2.0, s, x, t),
    "quasi_distance_xt": lambda s, x, t: quasi_distance_xt(
        s, np.zeros(s.horizontal_dim), np.zeros(s.m), x, t),
    "in_ball_xt": lambda s, x, t: in_ball_xt(s, BallSpec(identity(s), 1.0), x, t),
    "in_sublevel_xt": lambda s, x, t: in_sublevel_xt(SublevelSpec(3.0, 0.0), s, x, t),
    "horizontal_gradient": lambda s, x, t: horizontal_gradient(s, SmoothBump(1.0, 1.0), x, t),
    "sub_laplacian_apply": lambda s, x, t: sub_laplacian_apply(s, SmoothBump(1.0, 1.0), x, t),
    "sandwich_bounds_xt": lambda s, x, t: sandwich_bounds_xt(
        potential_bounds(3.0, None, s), s, x, t),
}


@pytest.mark.parametrize("structure", ["heis", "quaternion"])
@pytest.mark.parametrize("name", sorted(_STRUCTURE_ENTRY_POINTS))
def test_entry_points_refuse_mismatched_dims(name, structure, request):
    """A t of length m + 1 or an x of length 2n + 1 raises; on m = 1 the long t
    used to broadcast through the J_t x einsum and return a value."""
    s = request.getfixturevalue(structure)
    d, m = s.horizontal_dim, s.m
    for x, t in ((np.ones((2, d)), np.ones((2, m + 1))),
                 (np.ones((2, d + 1)), np.ones((2, m)))):
        with pytest.raises(ValueError, match="dims"):
            _STRUCTURE_ENTRY_POINTS[name](s, x, t)


def test_grad_norm_sq_examples(heis):
    assert abs(float(grad_norm_sq_xt(heis, [1, 0], [0])) - 1.0) <= 1e-15
    assert float(grad_norm_sq_xt(heis, [0, 0], [0.7])) == 0.0
    v = float(grad_norm_sq_xt(heis, [1, 0], [1.0]))
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
    e = identity(heis)
    with pytest.raises(ValueError):
        grad_norm_sq_xt(heis, e.x, e.t)
    with pytest.raises(ValueError):
        sub_laplacian_norm_xt(heis, e.x, e.t)
    with pytest.raises(ValueError):
        potential_value_xt(2.0, heis, e.x, e.t)


def test_sub_laplacian_examples(heis):
    assert abs(float(sub_laplacian_norm_xt(heis, [1, 0], [0])) + 3.0) <= 1e-14
    assert float(sub_laplacian_norm_xt(heis, [0, 0], [2.0])) == 0.0


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
    g = grad_weight_xt(2.0, heis, [1, 0], [0])
    assert abs(np.linalg.norm(g) - 2.0 * math.exp(-1.0)) <= 1e-15
    g0 = grad_weight_xt(2.0, heis, [0, 0], [1.0])
    assert np.all(g0 == 0.0)
    x, t = random_points(heis, 200, seed=4)
    alpha = 1.7
    mag = np.linalg.norm(grad_weight_xt(alpha, heis, x, t), axis=1)
    n = norm_xt(x, t)
    expected = alpha * weight_xt(alpha, x, t) * n ** (alpha - 1) * np.sqrt(
        grad_norm_sq_xt(heis, x, t))
    assert np.max(np.abs(mag - expected)) <= 1e-14


def test_laplacian_weight_value_and_fd(heis):
    """L w_2 at ((1,0),0) is +4/e; pinned by the finite-difference oracle."""
    p = point(heis, [1.0, 0.0], [0.0])
    val = float(laplacian_weight_xt(2.0, heis, p.x, p.t))
    assert abs(val - 4.0 * math.exp(-1.0)) <= 1e-14
    fd = oracles.fd_sub_laplacian(lambda x, t: weight_xt(2.0, x, t),
                                  heis, p.x, p.t, 1e-4)
    assert abs(fd - val) <= 1e-6
    assert float(laplacian_weight_xt(2.0, heis, [0, 0], [1.0])) == 0.0


def test_laplacian_weight_fd_random(heis):
    rng = np.random.default_rng(5)
    for alpha in (2.0, 3.0):
        for _ in range(10):
            x = rng.uniform(0.4, 1.5, size=2)
            t = rng.uniform(0.4, 1.5, size=1)
            exact = float(laplacian_weight_xt(alpha, heis, x, t))
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
    assert abs(float(potential_value_xt(2.0, heis, [1, 0], [0])) + 3.0) <= 1e-14
    assert abs(float(potential_value_xt(4.0, heis, [1, 0], [0])) + 8.0) <= 1e-14
    assert float(potential_value_xt(3.0, heis, [0, 0], [1.5])) == 0.0


def test_htype_closed_form(heis):
    x, t = random_points(heis, 10_000, seed=7, box=1.5)
    for alpha in (1.0, 2.0, 3.0, 4.0):
        gap = np.max(np.abs(potential_value_xt(alpha, heis, x, t)
                            - potential_closed_form_xt(alpha, heis, x, t)))
        assert gap <= 1e-12


def test_norm_jet_refuses_scales_past_double_range(heis):
    """A batch with a point whose N^6 overflows raises: N = 1e60 with
    |x| = 1e-100 (V read -0.0 where the closed form gives 2.25e-80) and
    N = 1e52 (V read NaN).  So does one whose N^6 underflows (N = 1e-60).
    N of 2e50 and 1e45 still match the closed form.  The closed form raises
    on a batch where c1 N^{2a-4} overflows (alpha 200 at N = 1e3) or |x|^2
    times it does (alpha 4 at |x| = 1e60, N = 2e75), not a RuntimeWarning,
    inf or NaN."""
    for x, t in (([1e-100, 0.0], [2.5e119]), ([1e52, 0.0], [0.0]), ([1e-60, 0.0], [0.0])):
        with pytest.raises(ValueError, match="double range"):
            potential_value_xt(3.0, heis, [x], [t])
        with pytest.raises(ValueError, match="double range"):
            potential_value_xt(3.0, heis, [[1.0, 2.0], x], [[1.0], t])
    for x, t in (([1.0, 2.0], [1e100]), ([1e45, 0.0], [0.0])):
        v = float(potential_value_xt(3.0, heis, x, t))
        assert v == pytest.approx(float(potential_closed_form_xt(3.0, heis, x, t)), rel=1e-14)
    for alpha, x, t in ((200.0, [1e3, 0.0], [0.0]), (4.0, [1e60, 0.0], [1e150])):
        with pytest.raises(ValueError, match="closed form out of double range"):
            potential_closed_form_xt(alpha, heis, [[1.0, 0.5], x], [[0.25], t])
        assert np.all(np.isfinite(potential_closed_form_xt(alpha, heis, [[1.0, 0.5]], [[0.25]])))


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
    for alpha, word in ((1e-300, "underflows"), (1e300, "overflows")):
        with pytest.raises(ValueError, match=f"alpha = .* {word} the sandwich constants"):
            constants_from_condition(alpha, 1.0, 1.0, 1, 1)


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
    lo, hi = sandwich_bounds_xt(rep.constants, aniso, x, t)
    assert np.max(v - lo) > 1e-6 and np.max(hi - v) > 1e-6


def test_sandwich_x_zero_trivial(heis):
    t = np.linspace(0.5, 3.0, 7)[:, None]
    x = np.zeros((7, 2))
    rep = check_sandwich(3.0, heis, (x, t))
    assert rep.n_violations == 0
    lo, hi = sandwich_bounds_xt(rep.constants, heis, x, t)
    assert np.all(lo == 0.0) and np.all(hi == 0.0)


def test_sandwich_bounds_refuse_other_structure(heis, quaternion):
    """Constants for one homogeneous dimension are refused on another."""
    c = potential_bounds(3.0, None, heis)
    with pytest.raises(ValueError, match="Q = 4"):
        sandwich_bounds_xt(c, quaternion, np.ones((2, 4)), np.ones((2, 3)))


def test_sandwich_floor_values(heis):
    assert sandwich_floor(potential_bounds(2.0, None, heis)) == -4.0
    assert sandwich_floor(potential_bounds(4.0, None, heis)) == pytest.approx(-8.0, abs=1e-12)


def _axis_scan_min(alpha, s, n_max=5.0, points=200_000):
    """min of the jet's V_alpha on the axis (N e_1, 0), N in [1e-3, n_max]."""
    ns = np.linspace(1e-3, n_max, points)
    x = ns[:, None] * np.eye(s.horizontal_dim)[0]
    return float(potential_value_xt(alpha, s, x, np.zeros((points, s.m))).min())


def _check_exact_floor(alpha, s, floor):
    """ess inf is the sandwich floor, exact on H-type, and an axis scan of the jet
    comes down to it from above (at alpha = 2 only in the limit N -> 0)."""
    adm = admissibility(alpha, s)
    assert adm.ess_inf == pytest.approx(floor, rel=1e-5)
    assert adm.ess_inf == sandwich_floor(potential_bounds(alpha, None, s))
    assert adm.ess_inf_status == "exact"
    scan = _axis_scan_min(alpha, s)
    assert adm.ess_inf - 1e-9 <= scan <= adm.ess_inf + 1e-5


def test_essential_inf_alpha2(heis, quaternion):
    _check_exact_floor(2.0, heis, -4.0)
    _check_exact_floor(2.0, quaternion, -10.0)
    # brute-force oracle over the closed form: min of u(1 - 4/N^2), u <= N^2
    ns = np.linspace(1e-3, 5.0, 4001)
    brute = np.min(ns ** 2 * (1.0 - 4.0 / ns ** 2))
    assert brute >= -4.0 and brute < -3.99


def test_essential_inf_alpha3(heis, quaternion):
    _check_exact_floor(3.0, heis, -5.29333)
    _check_exact_floor(3.0, quaternion, -15.1458)


def test_essential_inf_alpha4(heis, quaternion):
    _check_exact_floor(4.0, heis, -8.0)
    _check_exact_floor(4.0, quaternion, -22.6274)
    # grid-search oracle over (u, N): 4 u N^4 - 12 u with u = |x|^2 <= N^2
    ns = np.linspace(1e-3, 3.0, 3001)
    brute = np.min(4.0 * ns ** 2 * ns ** 4 - 12.0 * ns ** 2)
    assert admissibility(4.0, heis).ess_inf == pytest.approx(brute, abs=1e-2)


def test_essential_inf_alpha_below_two(heis, quaternion):
    """Below alpha = 2, V_alpha is unbounded below along the axis: at N = 1e-12
    the jet's value is already below -1e3."""
    for s in (heis, quaternion):
        for alpha in (0.5, 1.0, 1.5):
            adm = admissibility(alpha, s)
            assert adm.ess_inf == -math.inf and adm.ess_inf_status == "exact"
            x = 1e-12 * np.eye(s.horizontal_dim)[:1]
            assert float(potential_value_xt(alpha, s, x, np.zeros((1, s.m)))[0]) < -1e3


def test_ess_inf_status(heis, aniso, quaternion):
    """Exact on H-type, a rigorous bound for m = 1, heuristic for m >= 2 off H-type."""
    li, lj = quaternion_maps()[:2]
    # |J_t x|^2 = (t_1^2 + 4 t_2^2) |x|^2: Metivier with (c0, C0) = (1, 4), not H-type
    stretched = MetivierStructure(n=2, m=2, maps=np.stack([li, 2.0 * lj]))
    assert admissibility(3.0, heis).ess_inf_status == "exact"
    assert admissibility(3.0, quaternion).ess_inf_status == "exact"
    assert admissibility(3.0, aniso).ess_inf_status == "bound"
    assert admissibility(3.0, stretched).ess_inf_status == "heuristic"
    for s in (aniso, stretched):
        assert admissibility(1.5, s).ess_inf_status == "exact"
        assert math.isfinite(admissibility(3.0, s).ess_inf)


def test_admissibility_evaluates_no_jet(heis, monkeypatch):
    """The verdicts and the floor are closed forms: no point is evaluated."""
    calls = count_calls(monkeypatch, "_norm_jet", potential)
    admissibility(3.0, heis)
    admissibility(1.5, heis)
    assert calls == []


_NEAR_THRESHOLDS = (1 - 1e-9, 1.0, 1 + 1e-9, 2 - 1e-9, 2.0, 2 + 1e-9,
                    0.96, 0.98, 0.99, 1.96, 1.98, 1.99, 2.01, 2.03, 2.04)


def test_admissibility_classification(heis, quaternion, aniso):
    """The exponent rule, also next to the thresholds where the old shell-sampled
    slopes misjudged it (0.96-0.99, 1.96-1.99, 2.01-2.04)."""
    assert admissibility(1.0, heis).condition_b
    assert admissibility(3.0, heis).condition_a
    half = admissibility(0.5, heis)
    assert not half.condition_a and not half.condition_b
    assert not half.grad_locally_bounded
    for s in (heis, quaternion, aniso):
        for alpha in _NEAR_THRESHOLDS:
            adm = admissibility(alpha, s)
            assert adm.alpha == alpha
            assert adm.grad_locally_bounded == (alpha >= 1)
            assert adm.lap_locally_bounded == (alpha >= 2)
            assert adm.ratio_globally_bounded == (1 <= alpha <= 2)
            assert adm.condition_a == (alpha >= 2)
            assert adm.condition_b == (1 <= alpha <= 2)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(s=skew_structures(), alpha=st.floats(0.05, 5.0))
def test_axis_point_identity(s, alpha):
    """At (e_1, 0): |grad_H N|^2 = 1 and h = (a-1)|grad_H N|^2 - N LN
    = a + 2n - 2 + 2 sum_k |J_k e_1|^2 > 0, the nonzero degree-0 factors
    behind the exact admissibility verdicts."""
    x, t = np.eye(s.horizontal_dim)[:1], np.zeros((1, s.m))
    gns = float(grad_norm_sq_xt(s, x, t)[0])
    h = (alpha - 1.0) * gns - float(sub_laplacian_norm_xt(s, x, t)[0])
    closed = alpha + 2 * s.n - 2 + 2 * float(np.sum(s.maps[:, :, 0] ** 2))
    assert gns == 1.0
    assert h == pytest.approx(closed, rel=1e-12, abs=1e-12) and h > 0


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


def test_cylinder_sup_from_the_sandwich_off_h_type(heis, aniso):
    """Off H-type the sup is the sandwich bound.  On aniso (m = 1, exact
    constants) it is |f_lo(1)| = c_a2 - c_a1, above the largest |V_alpha| at
    the axis points |x| = N = 1, at x = e3 (5.25 at alpha 1, 11 at alpha 2)."""
    for alpha, sup in ((0.5, 2.9375), (1.0, 6.75), (1.5, 11.4375), (2.0, 17.0)):
        assert cylinder_sup_potential(alpha, aniso) == sup
    e3 = np.array([[0.0, 0.0, 1.0, 0.0]])
    for alpha, axis_max in ((1.0, 5.25), (2.0, 11.0)):
        v_axis = potential_value_xt(alpha, aniso, e3, np.zeros((1, 1)))[0]
        assert abs(v_axis) == pytest.approx(axis_max)
        assert cylinder_sup_potential(alpha, aniso) >= axis_max
    # the stationary point N^a = u sits past 1 here, and u^(1/a) would overflow
    for s in (heis, aniso):
        assert math.isfinite(cylinder_sup_potential(1e-3, s))


def test_factor_sup_against_a_dense_grid():
    """sup over N >= 1 of |c1 N^{2a-4} - c2 N^{a-4}| against N in [1, 1e8]: each
    of f(1) (with c2 of either sign), the stationary peak and the alpha = 2
    limit decides one case."""
    ns = np.geomspace(1.0, 1e8, 200_001)
    for c1, c2, alpha, sup in ((0.25, 7.0, 1.0, 6.75), (1.0, -3.5, 1.0, 4.5),
                               (1.0, 0.8, 1.0, 0.4 / 1.2 ** 3), (1.0, 0.5, 2.0, 1.0)):
        assert potential._factor_sup(c1, c2, alpha) == pytest.approx(sup, rel=1e-15)
        f = c1 * ns ** (2.0 * alpha - 4.0) - c2 * ns ** (alpha - 4.0)
        assert np.max(np.abs(f)) == pytest.approx(sup, rel=1e-6)
        assert np.max(np.abs(f)) <= sup * (1.0 + 1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(s=skew_structures(m_range=(1, 1)), alpha=st.floats(0.05, 2.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_cylinder_sup_bounds_random_one_dimensional_centre(s, alpha, seed):
    """sup >= |V_alpha| at random cylinder points {|x| <= 1, N >= 1} of random
    m = 1 structures, half of them on |x| = 1, with |t| over 40 decades."""
    assume(exact_condition_extremes(s)[0] >= 0.05 ** 2)   # smallest singular value >= 0.05
    rng = np.random.default_rng(seed)
    x = uniform_ball(rng, 4000, s.horizontal_dim, 1.0)
    x[::2] /= np.linalg.norm(x[::2], axis=1, keepdims=True)
    t = rng.choice([-1.0, 1.0], size=(4000, 1)) * 10.0 ** rng.uniform(-3.0, 40.0, size=(4000, 1))
    keep = norm_xt(x, t) >= 1.0
    v = np.abs(potential_value_xt(alpha, s, x[keep], t[keep]))
    assert np.max(v) <= cylinder_sup_potential(alpha, s) * (1.0 + 1e-12)


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

    def w_alpha(xx, tt):
        return weight_xt(alpha, xx, tt)

    def fd_potential(h):
        w = w_alpha(x, t)
        return (-0.25 * oracles.fd_grad_norm_sq(w_alpha, s, x, t, h) / w ** 2
                - 0.5 * oracles.fd_sub_laplacian(w_alpha, s, x, t, h) / w)

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
        for kernel in (potential_value_xt, potential_closed_form_xt,
                       grad_weight_xt, laplacian_weight_xt):
            with pytest.raises(ValueError, match="alpha"):
                kernel(alpha, heis, x, t)
        with pytest.raises(ValueError, match="alpha"):
            potential_bounds(alpha, None, heis)
        with pytest.raises(ValueError, match="alpha"):
            cylinder_sup_potential(alpha, heis)
        with pytest.raises(ValueError, match="alpha"):
            admissibility(alpha, heis)
    # a NaN slack made every comparison false, hiding real violations
    assert check_sandwich(3.0, heis, (x, t), slack=-1.0).n_violations > 0
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="slack"):
            check_sandwich(3.0, heis, (x, t), slack=bad)

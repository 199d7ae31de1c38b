import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srlab import group, norms, potential, sublevel
from srlab.group import GroupPoint, MetivierStructure, make_heisenberg, point
from srlab.norms import norm_xt
from srlab.sublevel import (SublevelSpec, ball_intersection_volume, ball_volume,
                            bounding_cylinder, cylinder_radius, in_sublevel,
                            in_sublevel_xt, lower_envelope, scaling_fit,
                            substream, thinness_integral, threshold_k,
                            uniform_ball, worker_count)
from srlab.potential import potential_bounds, potential_value_xt, sandwich_floor

import oracles
from conftest import count_calls, quaternion_maps, random_points


def test_spec_validation():
    with pytest.raises(ValueError):
        SublevelSpec(0.0, 1.0)


def test_in_sublevel_examples(heis):
    spec = SublevelSpec(3.0, 0.0)
    assert in_sublevel(spec, heis, point(heis, [1.0, 0.0], [0.0]))
    assert not in_sublevel(spec, heis, point(heis, [3.0, 0.0], [0.0]))
    # x = 0 has V = 0: member iff level >= 0
    assert in_sublevel(spec, heis, point(heis, [0.0, 0.0], [2.0]))
    assert not in_sublevel(SublevelSpec(3.0, -1.0), heis, point(heis, [0.0, 0.0], [2.0]))


def test_identity_handling(heis):
    e = point(heis, [0.0, 0.0], [0.0])
    assert in_sublevel(SublevelSpec(2.0, 0.0), heis, e)
    assert not in_sublevel(SublevelSpec(2.0, -0.5), heis, e)
    with pytest.raises(ValueError):
        in_sublevel(SublevelSpec(1.5, 0.0), heis, e)
    # a batch holding the identity answers as point by point
    x = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0], [0.0, 0.0]])
    t = np.array([[0.0], [0.0], [0.0], [2.0]])
    for spec in (SublevelSpec(3.0, 0.0), SublevelSpec(2.0, -0.5)):
        expected = [in_sublevel(spec, heis, point(heis, xi, ti)) for xi, ti in zip(x, t)]
        assert in_sublevel_xt(spec, heis, x, t).tolist() == expected
    assert in_sublevel_xt(SublevelSpec(3.0, 0.0), heis, x, t).tolist() == [True, True, False, True]
    with pytest.raises(ValueError, match="identity"):
        in_sublevel_xt(SublevelSpec(1.5, 0.0), heis, x, t)


def test_in_sublevel_evaluates_one_jet(heis, monkeypatch):
    """Membership reads V_alpha off one norm jet, with no separate pass over N."""
    x, t = random_points(heis, 200, seed=4)
    jets = count_calls(monkeypatch, "_norm_jet", potential)
    norm_passes = count_calls(monkeypatch, "norm_xt", norms, potential, sublevel)
    in_sublevel_xt(SublevelSpec(3.0, 2.0), heis, x, t)
    assert len(jets) == 1 and norm_passes == []


def test_lower_envelope_is_lower_bound(heis, aniso):
    for s in (heis, aniso):
        const = potential_bounds(3.0, None, s)
        x, t = random_points(s, 3000, seed=0, box=3.0)
        u = np.linalg.norm(x, axis=1)
        v = potential_value_xt(3.0, s, x, t)
        assert np.all(lower_envelope(const, u) <= v + 1e-10)


def test_cylinder_radius_alpha4(heis):
    spec = SublevelSpec(4.0, 0.0)
    c = cylinder_radius(spec, heis)
    assert 3.0 ** 0.25 <= c <= 1.5


def test_cylinder_radius_empty_and_errors(heis):
    assert cylinder_radius(SublevelSpec(3.0, -1e15), heis) == 0.0
    with pytest.raises(ValueError):
        cylinder_radius(SublevelSpec(2.0, 1.0), heis)


def test_cylinder_contains_members(heis):
    """Hard assertion: no rejection-sampled member violates |x| <= c."""
    spec = SublevelSpec(3.0, 10.0)
    c = cylinder_radius(spec, heis)
    rng = np.random.default_rng(1)
    x = rng.uniform(-2.5, 2.5, size=(10_000, 2))
    t = rng.uniform(-40.0, 40.0, size=(10_000, 1))
    member = in_sublevel_xt(spec, heis, x, t)
    assert np.any(member)
    assert np.all(np.linalg.norm(x[member], axis=1) <= c)


@pytest.mark.parametrize("alpha", [3.0, 5.0])
def test_cylinder_encloses_near_floor_member(heis, alpha):
    """Just above the floor the sublevel set is a thin shell around the axis point
    (N*, 0; 0) where the sandwich floor is attained; the radius must enclose it."""
    const = potential_bounds(alpha, None, heis)
    floor = sandwich_floor(const)
    spec = SublevelSpec(alpha, floor + 1e-9 * abs(floor))
    n_star = (const.c_a2 * (alpha - 2.0) / (const.c_a1 * (2.0 * alpha - 2.0))) ** (1.0 / alpha)
    assert in_sublevel(spec, heis, point(heis, [n_star, 0.0], [0.0]))
    assert n_star <= cylinder_radius(spec, heis)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(alpha=st.floats(2.0, 8.0, exclude_min=True), frac=st.floats(0.0, 1.0))
def test_cylinder_radius_is_envelope_sup(heis, aniso, alpha, frac):
    """For levels from 1e-9 |floor| above the floor to 100: the envelope exceeds
    the level at and beyond c, and c is the sup of the envelope's sublevel set
    within the 1e-9 margin, both to the rounding of the envelope (8 ulp of the
    two terms c_a1 u^(2a-2) and c_a2 u^(a-2) it subtracts).  Closer to the
    floor the set is narrower than that rounding across the flat bottom."""
    for s in (heis, aniso):
        const = potential_bounds(alpha, None, s)
        floor = sandwich_floor(const)
        level = floor + 1e-9 * abs(floor) + frac * (100.0 - floor)
        c = cylinder_radius(SublevelSpec(alpha, level), s)

        def rounding(u):
            return 8.0 * np.finfo(float).eps * (const.c_a1 * u ** (2.0 * alpha - 2.0)
                                                 + const.c_a2 * u ** (alpha - 2.0))

        beyond = c * np.geomspace(1.0, 1e3, 200)
        assert np.all(lower_envelope(const, beyond) > level - rounding(beyond))
        inside = c * (1.0 - 2e-9)
        assert lower_envelope(const, inside) <= level + rounding(inside)


def test_cylinder_radius_clears_rounding_near_alpha_2(heis):
    """One ulp above alpha = 2 the 1e-9 margin sat inside the envelope's rounding."""
    alpha = 2.0 + 4e-16
    const = potential_bounds(alpha, None, heis)
    level = sandwich_floor(const) + 4e-9
    c = cylinder_radius(SublevelSpec(alpha, level), heis)
    rounding = 8.0 * np.finfo(float).eps * (const.c_a1 * c ** (2.0 * alpha - 2.0)
                                            + const.c_a2 * c ** (alpha - 2.0))
    assert lower_envelope(const, c) > level + rounding


def test_bounding_cylinder_encloses_ball(heis, aniso):
    for s in (heis, aniso):
        rng = np.random.default_rng(2)
        center = GroupPoint(rng.uniform(-1, 1, s.horizontal_dim),
                            rng.uniform(-3, 3, s.m))
        r = 1.3
        rho_x, rho_t = bounding_cylinder(s, center, r)
        from srlab.norms import quasi_distance_xt
        xi = uniform_ball(rng, 20_000, s.horizontal_dim, rho_x * 1.5)
        tau = uniform_ball(rng, 20_000, s.m, rho_t * 1.5) + center.t
        inside = quasi_distance_xt(s, center.x, center.t, xi, tau) < r
        assert np.all(np.linalg.norm(xi[inside], axis=1) <= rho_x + 1e-12)
        assert np.all(np.linalg.norm(tau[inside] - center.t, axis=1) <= rho_t + 1e-12)


def test_kaplan_ball_volume(heis):
    """MC against the closed form |B(e, r)| = pi^2 r^4 / 8 on the Heisenberg group."""
    everything = SublevelSpec(3.0, 1e12)
    for r in (0.5, 1.0, 2.0):
        est = ball_intersection_volume(everything, heis, point(heis, [0, 0], [0.0]),
                                       r, 200_000, seed=3)
        exact = math.pi ** 2 * r ** 4 / 8.0
        assert abs(est.value - exact) <= 3.0 * est.std_error
        assert est.value / r ** 4 == pytest.approx(math.pi ** 2 / 8.0, rel=0.02)


def test_slab_ball_volume_oracle(heis):
    """Central-slab intersection has an elementary closed form."""
    # B(e, 1) cap {t > 0} is half the ball by symmetry; emulate via level cut
    # on a potential-free membership by direct integration instead:
    rng = substream(9, 0)
    n = 400_000
    xi = uniform_ball(rng, n, 2, 1.0)
    tau = uniform_ball(rng, n, 1, 0.25)
    hits = (norm_xt(xi, tau) < 1.0) & (tau[:, 0] > 0.0)
    vol = ball_volume(2, 1.0) * ball_volume(1, 0.25) * hits.mean()
    exact = math.pi ** 2 / 16.0
    se = ball_volume(2, 1.0) * ball_volume(1, 0.25) * hits.std() / math.sqrt(n)
    assert abs(vol - exact) <= 3.0 * se


def test_empty_sublevel_volume(heis):
    empty = SublevelSpec(3.0, -1e15)
    est = ball_intersection_volume(empty, heis, point(heis, [0.3, 0], [5.0]), 1.0,
                                   1000, seed=0)
    assert est.value == 0.0 and est.std_error == 0.0


def test_volume_determinism(heis):
    spec = SublevelSpec(3.0, 10.0)
    c = point(heis, [0.5, 0.0], [16.0])
    a = ball_intersection_volume(spec, heis, c, 1.0, 50_000, seed=7)
    b = ball_intersection_volume(spec, heis, c, 1.0, 50_000, seed=7)
    assert a.value == b.value and a.std_error == b.std_error
    assert a.hit_count > 0


def test_measure_decay_along_centre(heis):
    """log-measure vs log|t| slope ~ n(2 - alpha) = -1 at alpha = 3."""
    spec = SublevelSpec(3.0, 10.0)
    vals = []
    for i, tv in enumerate((16.0, 32.0, 64.0)):
        est = ball_intersection_volume(spec, heis, point(heis, [0.5, 0.0], [tv]),
                                       1.0, 100_000, seed=11 + i)
        vals.append(est.value)
    slope = np.polyfit(np.log([16.0, 32.0, 64.0]), np.log(vals), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.15)


def test_scaling_fit_validation(heis):
    spec = SublevelSpec(3.0, 10.0)
    with pytest.raises(ValueError, match="at least 4"):
        scaling_fit(spec, heis, 1.0, [16, 32, 64], 1000)
    with pytest.raises(ValueError, match="threshold"):
        scaling_fit(spec, heis, 1.0, [2, 4, 8, 16], 1000)
    with pytest.raises(ValueError):
        scaling_fit(SublevelSpec(2.0, 1.0), heis, 1.0, [8, 16, 32, 64], 1000)
    # a NaN centre gave a NaN slope, a NaN height a misleading "no sublevel mass"
    with pytest.raises(ValueError, match="finite"):
        scaling_fit(spec, heis, 1.0, [8, 16, 32, 64], 1000, center_x=[math.nan, 0.0])
    with pytest.raises(ValueError, match="finite"):
        scaling_fit(spec, heis, 1.0, [8, 16, math.nan, 64], 1000)


def test_scaling_fit_retries_then_fails(heis, monkeypatch):
    """A zero estimate is retried once with 4x samples; a second zero is a failure."""
    spec = SublevelSpec(3.0, 10.0)
    calls = []

    def stub(spec, s, center, r, n_samples, rng=None, seed=0):
        calls.append(n_samples)
        value = float(center.t[0]) ** -1.0 if n_samples > 1000 else 0.0
        return sublevel.VolumeEstimate(value, 0.01 * value, n_samples, 1.0, 1, seed)

    monkeypatch.setattr(sublevel, "ball_intersection_volume", stub)
    fit = scaling_fit(spec, heis, 1.0, [8.0, 16.0, 32.0, 64.0], 1000)
    assert calls == [1000, 4000] * 4
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    monkeypatch.setattr(sublevel, "ball_intersection_volume",
                        lambda *a, **k: sublevel.VolumeEstimate(0.0, 0.0, 1, 1.0, 0, 0))
    with pytest.raises(RuntimeError, match="no sublevel mass"):
        scaling_fit(spec, heis, 1.0, [8.0, 16.0, 32.0, 64.0], 1000)


def test_scaling_fit_slope(heis):
    spec = SublevelSpec(3.0, 10.0)
    fit = scaling_fit(spec, heis, 1.0, [8.0, 16.0, 32.0, 64.0], 60_000, seed=0)
    assert fit.expected_slope == -1.0
    assert fit.slope == pytest.approx(-1.0, abs=0.15)
    assert fit.slope_stderr < 0.05


def test_threshold_k_formula(heis):
    spec = SublevelSpec(3.0, 10.0)
    const = potential_bounds(3.0, None, heis)
    k = threshold_k(spec, heis, 1.0, center_x_norm=0.5)
    rho_t = 0.25 + 0.5 * 1.0 * 0.5 * 1.5
    assert k == pytest.approx(rho_t + (2.0 * const.c_a2 / const.c_a1) ** (2.0 / 3.0))


def test_thinness_validation(heis):
    with pytest.raises(ValueError):
        thinness_integral(SublevelSpec(2.0, 1.0), heis, 1.0, 2.0)
    with pytest.raises(ValueError):
        thinness_integral(SublevelSpec(3.0, 1.0), heis, 1.0, 0.0)
    # one outer sample has standard error 0, as one inner sample does (not NaN)
    est = thinness_integral(SublevelSpec(3.0, 10.0), heis, 1.0, 2.0, 16.0,
                            outer_samples=1, inner_samples=10)
    assert est.std_error == 0.0 and math.isfinite(est.value)


def test_thinness_empty(heis):
    est = thinness_integral(SublevelSpec(3.0, -1e15), heis, 1.0, 2.0,
                            outer_samples=10, inner_samples=10, seed=0)
    assert est.value == 0.0 and est.tail_bound == 0.0 and est.tail_finite


def test_thinness_finite_case(heis):
    spec = SublevelSpec(3.0, 10.0)
    est = thinness_integral(spec, heis, 1.0, 2.0, truncation_T=32.0,
                            outer_samples=4000, inner_samples=400, seed=0)
    assert est.value > 0.0
    assert est.tail_finite and math.isfinite(est.tail_bound)
    assert est.ell_threshold == pytest.approx(1.0)
    bigger_t = thinness_integral(spec, heis, 1.0, 2.0, truncation_T=64.0,
                                 outer_samples=1000, inner_samples=100, seed=0)
    assert bigger_t.tail_bound < est.tail_bound
    # at a non-positive level the tube closes beyond k < T: no tail at all
    below = thinness_integral(SublevelSpec(3.0, -0.5), heis, 1.0, 2.0, truncation_T=16.0,
                              outer_samples=200, inner_samples=50)
    assert below.value > 0.0 and below.tail_finite and below.tail_bound == 0.0


@pytest.mark.parametrize("alpha, level, ell, t_from", [
    (3.0, 10.0, 2.0, 64.0), (3.0, 10.0, 2.0, 128.0), (3.0, 10.0, 2.0, 16.0),
    (2.5, 5.0, 2.5, 16.0), (2.5, 10.0, 2.5, 16.0), (3.0, 5.0, 1.25, 16.0),
    (4.0, 5.0, 0.625, 16.0)])
def test_tail_bound_is_upper_bound(heis, alpha, level, ell, t_from):
    """The tail bound lies above adaptive quadrature of its integrand, within 1 %."""
    spec = SublevelSpec(alpha, level)
    bound = sublevel._tail_bound(spec, heis, 1.0, ell, t_from)
    exact = oracles.thinness_tail_quad(spec, heis, 1.0, ell, t_from)
    assert exact <= bound <= 1.01 * exact


def test_thinness_divergent_tail(heis):
    spec = SublevelSpec(3.0, 10.0)
    est = thinness_integral(spec, heis, 1.0, 0.5, truncation_T=16.0,
                            outer_samples=500, inner_samples=50, seed=0)
    assert not est.tail_finite and math.isinf(est.tail_bound)


def test_threshold_law_classification(heis, aniso):
    """Tail finite exactly when ell > m / (n (alpha - 2))."""
    cases = [(heis, 3.0), (heis, 2.5), (heis, 4.0), (aniso, 3.0)]
    for s, alpha in cases:
        crit = s.m / (s.n * (alpha - 2.0))
        for ell, expect in ((crit * 1.2, True), (crit * 0.8, False), (crit, False)):
            est = thinness_integral(SublevelSpec(alpha, 5.0), s, 1.0, ell,
                                    truncation_T=16.0, outer_samples=50,
                                    inner_samples=10, seed=0)
            assert est.tail_finite == expect
            assert math.isfinite(est.tail_bound) == expect


def test_thinness_determinism_across_workers(heis, monkeypatch):
    spec = SublevelSpec(3.0, 10.0)
    monkeypatch.setenv("SRL_THREADS", "4")
    a = thinness_integral(spec, heis, 1.0, 2.0, 16.0, 1500, 200, seed=5)
    monkeypatch.setenv("SRL_THREADS", "1")
    b = thinness_integral(spec, heis, 1.0, 2.0, 16.0, 1500, 200, seed=5)
    assert a.value == b.value and a.std_error == b.std_error


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("SRL_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.delenv("SRL_THREADS")
    assert worker_count() >= 1


def test_spec_rejects_non_finite():
    for alpha in (math.nan, math.inf):
        with pytest.raises(ValueError, match="alpha"):
            SublevelSpec(alpha, 1.0)
    for level in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="level"):
            SublevelSpec(3.0, level)


def _quaternion_scaled():
    """n = m = 2, not H-type: D L_i D and D L_j D with D = diag(1, 1, 2, 2).

    L_i, L_j are left multiplications by the quaternion units, so J_t stays
    invertible for t != 0 (Metivier) while J_t^2 != -|t|^2 Id.
    """
    d = np.diag([1.0, 1.0, 2.0, 2.0])
    return MetivierStructure(n=2, m=2, maps=d @ quaternion_maps()[:2] @ d)


@pytest.mark.parametrize("name", ["heis", "quaternion_scaled"])
def test_thinness_computes_invariants_once(name, heis, monkeypatch):
    """One integral inverts the envelope and draws the sampled (c0, C0) at most once."""
    s = heis if name == "heis" else _quaternion_scaled()
    calls = {"verify": 0, "member": 0}
    verify = group.verify_metivier
    member = sublevel.ball_intersection_volume

    def counting_verify(*args, **kwargs):
        calls["verify"] += 1
        return verify(*args, **kwargs)

    def counting_member(*args, **kwargs):
        calls["member"] += 1
        return member(*args, **kwargs)

    monkeypatch.setattr(group, "verify_metivier", counting_verify)
    monkeypatch.setattr(sublevel, "ball_intersection_volume", counting_member)
    sublevel._envelope_inverse.cache_clear()
    thinness_integral(SublevelSpec(3.0, 10.0), s, 1.0, 2.0, 2.0, 600, 50, seed=0)
    assert calls["member"] > 1
    assert sublevel._envelope_inverse.cache_info().misses == 1
    assert calls["verify"] == (0 if s.h_type else 1)


@pytest.mark.parametrize("make", [make_heisenberg, _quaternion_scaled])
def test_thinness_takes_one_maps_svd(make, monkeypatch):
    """The maps' singular values come from one SVD per structure, not one per member."""
    s = make()  # fresh, so nothing is cached on it yet
    calls = {"svd": 0, "member": 0}
    svd = np.linalg.svd
    member = sublevel.ball_intersection_volume

    def counting_svd(*args, **kwargs):
        calls["svd"] += 1
        return svd(*args, **kwargs)

    def counting_member(*args, **kwargs):
        calls["member"] += 1
        return member(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(sublevel, "ball_intersection_volume", counting_member)
    thinness_integral(SublevelSpec(3.0, 10.0), s, 1.0, 2.0, 2.0, 600, 50, seed=0)
    assert calls["member"] > 1
    assert calls["svd"] <= 1


def test_worker_count_rejects_non_integer(monkeypatch):
    monkeypatch.setenv("SRL_THREADS", "abc")
    with pytest.raises(ValueError, match="SRL_THREADS"):
        worker_count()


def test_clamp_workers():
    huge = 10 ** 12
    assert sublevel._clamp_workers(huge, huge, 2) == 2
    assert sublevel._clamp_workers(huge, 3, 64) == 3
    assert sublevel._clamp_workers(4, huge, None) == 1
    assert sublevel._clamp_workers(1, 0, 8) == 1
    assert sublevel._clamp_workers(3, huge, 8) == 3

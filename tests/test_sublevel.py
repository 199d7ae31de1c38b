import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srlab import group, norms, potential, sublevel
from srlab.group import GroupPoint, MetivierStructure, make_heisenberg, point
from srlab.norms import norm_xt, quasi_distance_xt
from srlab.sublevel import (SublevelSpec, ball_intersection_volume, ball_volume,
                            bounding_cylinder, cylinder_radius, in_sublevel_xt, lower_envelope, scaling_fit,
                            substream, thinness_integral, threshold_k,
                            uniform_ball, worker_count)
from srlab.potential import potential_bounds, potential_value_xt, sandwich_floor

import oracles
from conftest import count_calls, quaternion_maps, random_points, time_cap


def test_spec_validation():
    with pytest.raises(ValueError):
        SublevelSpec(0.0, 1.0)


def test_in_sublevel_examples(heis):
    spec = SublevelSpec(3.0, 0.0)
    assert in_sublevel_xt(spec, heis, [1.0, 0.0], [0.0])[0]
    assert not in_sublevel_xt(spec, heis, [3.0, 0.0], [0.0])[0]
    # x = 0 has V = 0: member iff level >= 0
    assert in_sublevel_xt(spec, heis, [0.0, 0.0], [2.0])[0]
    assert not in_sublevel_xt(SublevelSpec(3.0, -1.0), heis, [0.0, 0.0], [2.0])[0]


def test_identity_handling(heis):
    e = point(heis, [0.0, 0.0], [0.0])
    assert in_sublevel_xt(SublevelSpec(2.0, 0.0), heis, e.x, e.t)[0]
    assert not in_sublevel_xt(SublevelSpec(2.0, -0.5), heis, e.x, e.t)[0]
    with pytest.raises(ValueError):
        in_sublevel_xt(SublevelSpec(1.5, 0.0), heis, e.x, e.t)
    # a batch holding the identity answers as point by point
    x = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0], [0.0, 0.0]])
    t = np.array([[0.0], [0.0], [0.0], [2.0]])
    for spec in (SublevelSpec(3.0, 0.0), SublevelSpec(2.0, -0.5)):
        expected = [in_sublevel_xt(spec, heis, xi[None], ti[None])[0] for xi, ti in zip(x, t)]
        assert in_sublevel_xt(spec, heis, x, t).tolist() == expected
    assert in_sublevel_xt(SublevelSpec(3.0, 0.0), heis, x, t).tolist() == [True, True, False, True]
    with pytest.raises(ValueError, match="identity"):
        in_sublevel_xt(SublevelSpec(1.5, 0.0), heis, x, t)


def test_in_sublevel_evaluates_one_jet(heis, monkeypatch):
    """Membership takes at most one norm jet and no separate pass over N; on
    heis a batch with no point in the closed form's rounding band takes none."""
    x, t = random_points(heis, 200, seed=4)
    on_level_set = float(potential_value_xt(3.0, heis, x[0], t[0]))
    jets = count_calls(monkeypatch, "_norm_jet", potential)
    norm_passes = count_calls(monkeypatch, "norm_xt", norms, potential, sublevel)
    in_sublevel_xt(SublevelSpec(3.0, 2.0), heis, x, t)
    assert jets == [] and norm_passes == []
    in_sublevel_xt(SublevelSpec(3.0, on_level_set), heis, x, t)
    assert len(jets) == 1 and norm_passes == []


@pytest.mark.parametrize("name", ["aniso", "random_m2"])
def test_in_sublevel_off_htype_evaluates_one_jet(name, request, monkeypatch):
    """Structures that are not H-type keep the single-jet path."""
    if name == "aniso":
        s = request.getfixturevalue("aniso")
    else:
        maps = np.random.default_rng(7).standard_normal((2, 4, 4))
        s = MetivierStructure(n=2, m=2, maps=maps - np.swapaxes(maps, 1, 2))
    x, t = random_points(s, 200, seed=5)
    jets = count_calls(monkeypatch, "_norm_jet", potential)
    member = in_sublevel_xt(SublevelSpec(3.0, 2.0), s, x, t)
    assert len(jets) == 1
    assert member.tolist() == oracles.jet_membership(SublevelSpec(3.0, 2.0), s, x, t).tolist()


_BAND_OFFSETS = [0.0] + [sign * 10.0 ** k for k in range(-15, -5) for sign in (1.0, -1.0)]


def _level_set_rays(alpha, s, level, x_dir, t_dir, t_norms):
    """Points (r x_dir, tau t_dir) at relative offsets from where V_alpha crosses
    the level along each ray, by bisection on r = |x|; a ray that does not
    cross contributes its closest approach."""
    radii = np.geomspace(1e-3, 1e2, 400)
    shape = (radii.size, t_norms.size)
    x = np.broadcast_to(radii[:, None, None] * x_dir, shape + x_dir.shape)
    t = np.broadcast_to(t_norms[:, None] * t_dir, shape + t_dir.shape)
    gap = potential_value_xt(alpha, s, x, t) - level          # (radii, rays)
    lo_i, ray = np.nonzero(np.sign(gap[:-1]) * np.sign(gap[1:]) < 0)
    lo, hi = radii[lo_i], radii[lo_i + 1]
    sign_lo = np.sign(gap[lo_i, ray])
    for _ in range(60):
        mid = np.sqrt(lo * hi)
        side = np.sign(potential_value_xt(alpha, s, mid[:, None] * x_dir,
                                          t_norms[ray, None] * t_dir) - level)
        lo, hi = np.where(side == sign_lo, mid, lo), np.where(side == sign_lo, hi, mid)
    closest = np.argmin(np.abs(gap), axis=0)
    r_star = np.concatenate([lo, radii[closest]])
    t_star = np.concatenate([t_norms[ray], t_norms])
    r = (r_star[:, None] * (1.0 + np.asarray(_BAND_OFFSETS))).ravel()
    tau = np.repeat(t_star, len(_BAND_OFFSETS))
    return r[:, None] * x_dir, tau[:, None] * t_dir


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from(["heis", "quaternion"]),
       alpha=st.sampled_from([1.5, 2.0, 2.5, 3.0, 4.0]),
       which=st.sampled_from(["zero", "floor", "above_floor", "drawn"]),
       drawn=st.floats(-20.0, 20.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_in_sublevel_band_matches_jet(heis, quaternion, name, alpha, which, drawn, seed):
    """Screened membership equals the jet's on points within 1e-15 .. 1e-6
    (relative, in |x|) of the level set, with identity rows in the batch."""
    s = heis if name == "heis" else quaternion
    # alpha < 2 has no sandwich floor; -1 stands in for it
    floor = sandwich_floor(potential_bounds(alpha, None, s)) if alpha >= 2 else -1.0
    level = {"zero": 0.0, "floor": floor, "above_floor": floor + 1e-9 * abs(floor),
             "drawn": drawn}[which]
    spec = SublevelSpec(alpha, level)
    rng = np.random.default_rng(seed)
    x_dir = rng.standard_normal(s.horizontal_dim)
    t_dir = rng.standard_normal(s.m)
    x_dir, t_dir = x_dir / np.linalg.norm(x_dir), t_dir / np.linalg.norm(t_dir)
    t_norms = np.concatenate([[0.0], rng.uniform(0.0, 2.0, 5)])
    x, t = _level_set_rays(alpha, s, level, x_dir, t_dir, t_norms)
    x = np.concatenate([np.zeros((2, s.horizontal_dim)), x])
    t = np.concatenate([np.zeros((2, s.m)), t])
    if alpha < 2:
        with pytest.raises(ValueError, match="identity"):
            in_sublevel_xt(spec, s, x, t)
        x, t = x[2:], t[2:]
    expected = oracles.jet_membership(spec, s, x, t)
    assert in_sublevel_xt(spec, s, x, t).tolist() == expected.tolist()


@pytest.mark.parametrize("alpha", [1.5, 3.0, 8.0])
def test_in_sublevel_extreme_scales_match_jet(heis, quaternion, alpha):
    """Where the closed form's intermediates leave their safe range but the
    jet's stay normal (N up to 1e50 by the axis) the jet decides, so
    membership stays the jet's.  Past that (N^6 beyond the double range) the
    jet raises, and so does membership."""
    for s in (heis, quaternion):
        for scale in 10.0 ** np.arange(-80.0, 81.0, 10.0):
            x = np.zeros((3, s.horizontal_dim))
            t = np.zeros((3, s.m))
            x[:, 0] = [scale, 1e-40 * scale ** 0.5, 1e-100 * scale]
            t[:, 0] = [0.0, scale, 0.25 * scale ** 2]
            for level in (0.0, 1e-300, -1e-300, 1.0):
                spec = SublevelSpec(alpha, level)
                with np.errstate(all="ignore"):
                    if 1e-50 <= scale <= 1e50:
                        expected = oracles.jet_membership(spec, s, x, t)
                        assert in_sublevel_xt(spec, s, x, t).tolist() == expected.tolist()
                        continue
                    for membership in (oracles.jet_membership, in_sublevel_xt):
                        with pytest.raises(ValueError, match="double range"):
                            membership(spec, s, x, t)


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


@pytest.mark.parametrize("name, xc, tc", [("heis", [0.3, 0.0], 20.0),
                                          ("heis", [0.3, 0.0], 60.0),
                                          ("quaternion_scaled", [0.0] * 4, 10.0),
                                          ("quaternion_scaled", [0.0] * 4, 20.0)])
def test_tube_encloses_ball_members(heis, name, xc, tc):
    """Hard assertion: every member of B ∩ Omega, rejection-sampled in the
    untightened `bounding_cylinder`, has |x| at most the region radius that
    `ball_intersection_volume` used, at centres where the tube binds."""
    s = heis if name == "heis" else _QUATERNION_SCALED
    spec = SublevelSpec(3.0, 10.0)
    center = GroupPoint(np.asarray(xc), tc * np.eye(s.m)[0])
    rho_x, rho_t = bounding_cylinder(s, center, 1.0)
    est = ball_intersection_volume(spec, s, center, 1.0, 100, seed=0)
    region_x = (est.region_volume / ball_volume(s.m, rho_t)
                / ball_volume(s.horizontal_dim, 1.0)) ** (1.0 / s.horizontal_dim)
    assert region_x < 0.5 * min(rho_x, cylinder_radius(spec, s))
    rng = np.random.default_rng(5)
    xi = uniform_ball(rng, 200_000, s.horizontal_dim, rho_x)
    tau = uniform_ball(rng, 200_000, s.m, rho_t) + center.t
    kept = quasi_distance_xt(s, center.x, center.t, xi, tau) < 1.0
    kept[kept] = in_sublevel_xt(spec, s, xi[kept], tau[kept])
    assert np.count_nonzero(kept) >= 20
    assert np.all(np.linalg.norm(xi[kept], axis=1) <= region_x)


@pytest.mark.parametrize("alpha", [3.0, 5.0])
def test_cylinder_encloses_near_floor_member(heis, alpha):
    """Just above the floor the sublevel set is a thin shell around the axis point
    (N*, 0; 0) where the sandwich floor is attained; the radius must enclose it."""
    const = potential_bounds(alpha, None, heis)
    floor = sandwich_floor(const)
    spec = SublevelSpec(alpha, floor + 1e-9 * abs(floor))
    n_star = (const.c_a2 * (alpha - 2.0) / (const.c_a1 * (2.0 * alpha - 2.0))) ** (1.0 / alpha)
    assert in_sublevel_xt(spec, heis, [n_star, 0.0], [0.0])[0]
    assert n_star <= cylinder_radius(spec, heis)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(alpha=st.floats(2.0, 8.0, exclude_min=True), frac=st.floats(0.0, 1.0))
def test_cylinder_radius_is_envelope_sup(heis, aniso, alpha, frac):
    """For levels from 1e-9 |floor| above the floor to 100: the envelope exceeds
    the level at and beyond c, and c is the sup of the envelope's sublevel set
    within the 1e-9 margin, both to the rounding of the envelope (8 ulp of the
    two terms c_a1 u^(2a-2) and c_a2 u^(a-2) it subtracts).  Closer to the
    floor the set is narrower than that rounding across the flat bottom."""
    for s in (heis, aniso, _QUATERNION_SCALED):
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


def test_cylinder_radius_near_the_double_range(heis):
    """Where doubling past the crossing overflows the envelope, the overflow
    clears the level, and the radius is the crossing (level / c_a1)^(1/(2a-2))
    of the leading term (H-type, far beyond the turning point)."""
    with np.errstate(over="ignore"):
        for alpha in (3.0, 8.0):
            const = potential_bounds(alpha, None, heis)
            for level in (1e308, sys.float_info.max):
                c = cylinder_radius(SublevelSpec(alpha, level), heis)
                crossing = (level / const.c_a1) ** (1.0 / (2.0 * alpha - 2.0))
                assert c == pytest.approx(crossing, rel=1e-9)


@pytest.mark.parametrize("alpha, radius", [(1500.0, 1.0004630965716728),
                                           (1e4, 1.0000693371303262)])
def test_cylinder_radius_at_large_alpha(heis, alpha, radius):
    """Past alpha ~ 1000 both envelope terms overflow at 2 u_m and their
    difference is NaN, which clears: the radius returns at once, unchanged
    from before the enclosure test, and without an overflow warning."""
    sublevel._envelope_inverse.cache_clear()
    with time_cap(5.0), np.errstate(all="raise"):
        assert cylinder_radius(SublevelSpec(alpha, 10.0), heis) == radius


def test_cylinder_radius_stall_raises(heis, monkeypatch):
    """An inversion that needs more than `_MAX_STEPS` tests is a ValueError, not a hang."""
    const = potential_bounds(2.0001, None, heis)
    assert sublevel._envelope_inverse.__wrapped__(const, 10.0) > 0.0   # 8 doublings
    monkeypatch.setattr(sublevel, "_MAX_STEPS", 4)
    with pytest.raises(ValueError, match="did not settle"):
        sublevel._envelope_inverse.__wrapped__(const, 10.0)


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
    # the same points from the caller's generator: `seed` was not used, so it reads None
    d = ball_intersection_volume(spec, heis, c, 1.0, 50_000, rng=substream(7, 0))
    assert (a.seed, d.seed, d.value) == (7, None, a.value)
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
    (4.0, 5.0, 0.625, 16.0), (3.0, 10.0, 1.001, 16.0)])
def test_tail_bound_is_upper_bound(heis, alpha, level, ell, t_from):
    """The tail bound lies above adaptive quadrature of its integrand, within 1 %."""
    spec = SublevelSpec(alpha, level)
    bound = sublevel._tail_bound(spec, heis, 1.0, ell, t_from)
    exact = oracles.thinness_tail_quad(spec, heis, 1.0, ell, t_from)
    assert exact <= bound <= 1.01 * exact


def test_tail_bound_past_double_range_is_inf(heis):
    """Large ell near alpha = 2: the bound is finite in exact arithmetic but past
    the double range, so it reads inf instead of raising OverflowError.  Just
    above the threshold (delta = 4e-6) |t| and the cell factor would overflow
    on the grid; in logs the bound stays finite."""
    assert sublevel._tail_bound(SublevelSpec(2.01, 10.0), heis, 1.0, 150.0, 16.0) == math.inf
    assert math.isfinite(sublevel._tail_bound(SublevelSpec(2.05, 10.0), heis, 1.0, 60.0, 16.0))
    assert math.isfinite(sublevel._tail_bound(SublevelSpec(3.0, 10.0), heis, 1.0, 1 + 4e-6, 16.0))


@pytest.mark.parametrize("alpha", [100.0, 300.0])
def test_tail_bound_below_double_range_is_positive(heis, alpha):
    """At large alpha the tube bound makes the tail far below 2^-1074; it reads
    as the smallest positive double, an upper bound, not as 0."""
    bound = sublevel._tail_bound(SublevelSpec(alpha, 10.0), heis, 1.0, 2.0, 64.0)
    assert bound == math.ulp(0.0)


def test_mean_and_error_scaling_is_exact():
    """Scaling by a power of two leaves ordinary scores' results bit for bit,
    and keeps the error finite where squaring the scores would overflow."""
    scores = np.random.default_rng(0).exponential(size=500) * 3.7
    scores[::7] = 0.0
    n = scores.size
    plain = (2.5 * float(scores.mean()), 2.5 * float(scores.std(ddof=1) / math.sqrt(n)))
    assert sublevel._mean_and_error(scores, 2.5) == plain
    value, se = sublevel._mean_and_error(scores * 1e226, 1.0)
    assert value > 1e226 and 0.0 < se < math.inf
    assert sublevel._mean_and_error(np.zeros(3), 1.0) == (0.0, 0.0)
    assert sublevel._mean_and_error(np.array([4.0]), 2.0) == (8.0, 0.0)


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


def test_thinness_rerun_is_bit_identical(heis):
    spec = SublevelSpec(3.0, 10.0)
    a = thinness_integral(spec, heis, 1.0, 2.0, 16.0, 1500, 200, seed=5)
    b = thinness_integral(spec, heis, 1.0, 2.0, 16.0, 1500, 200, seed=5)
    assert 0 < a.evaluated < a.members    # the selection skips members
    assert a == b and worker_count() == 1


@pytest.mark.parametrize("name", ["heis", "aniso"])
def test_thinness_below_the_tube_is_the_oracle(name, heis, aniso):
    """With T below the tube's reach every q is 1: every member is computed and
    value and std_error are the every-member oracle's, bit for bit."""
    s = heis if name == "heis" else aniso
    spec = SublevelSpec(3.0, 10.0)
    c = cylinder_radius(spec, s)
    T = 0.9 * sublevel._central_reach(s, c, 1.0)
    est = thinness_integral(spec, s, 1.0, 2.0, T, 600, 60, seed=2)
    ref = oracles.thinness_every_member(spec, s, 1.0, 2.0, T, 600, 60, 2)
    assert np.all(sublevel._inclusion_probability(spec, s, 1.0, 2.0, c, ref.tau) == 1.0)
    assert est.members == est.evaluated == int(ref.member.sum()) > 0
    assert (est.value, est.std_error) == (ref.value, ref.std_error)


def test_thinness_scores_are_weighted_oracle_scores(heis, monkeypatch):
    """A computed member scores the oracle's v_hat^ell / q to the bit, the others
    0; the kept members are those with u < q on the selection stream, and no
    weighted score passes beta_max^ell."""
    spec, r, ell, T, outer, seed = SublevelSpec(3.0, 10.0), 1.0, 2.0, 64.0, 1200, 3
    seen = []     # every score vector `_mean_and_error` sees; the integral's comes last
    mean_and_error = sublevel._mean_and_error
    monkeypatch.setattr(sublevel, "_mean_and_error", lambda scores, scale: (
        seen.append(scores.copy()) or mean_and_error(scores, scale)))
    est = thinness_integral(spec, heis, r, ell, T, outer, 100, seed=seed)
    scores = seen[-1]
    ref = oracles.thinness_every_member(spec, heis, r, ell, T, outer, 100, seed)
    c = cylinder_radius(spec, heis)
    q = np.zeros(outer)
    q[ref.member] = sublevel._inclusion_probability(spec, heis, r, ell, c, ref.tau[ref.member])
    kept = ref.member & (substream(seed, 4).random(outer) < q)
    expected = np.zeros(outer)
    expected[kept] = ref.scores[kept] / q[kept]
    assert scores.tolist() == expected.tolist()
    assert est.members == int(ref.member.sum()) and est.evaluated == int(kept.sum())
    assert 0 < est.evaluated < est.members
    beta_max = ball_volume(2, c) * ball_volume(1, sublevel._central_reach(heis, c, r))
    assert scores.max() <= beta_max ** ell * (1.0 + 1e-9)


@pytest.mark.parametrize("name", ["heis", "quaternion_scaled"])
def test_inclusion_probability_is_the_tube_bound(name, heis):
    """q = (min(c, tube) / c)^(n ell) with tube = sqrt(level / ell(N)) at
    N = N(0, |t| - rho_t), and exactly 1 where the tube is unusable (ell not yet
    positive and nondecreasing) or wider than c."""
    s = heis if name == "heis" else _quaternion_scaled()
    spec, r, ell = SublevelSpec(3.0, 10.0), 1.0, 2.0
    const = potential_bounds(3.0, None, s)
    c = cylinder_radius(spec, s)
    rho_t = sublevel._central_reach(s, c, r)
    # the draw plus one central point in each regime: the origin (q = 1) and
    # 40 rho_t along e_1, so both show whatever the draw holds
    e_1 = np.eye(s.m)[:1]
    t = np.concatenate([uniform_ball(np.random.default_rng(0), 400, s.m, 40.0 * rho_t),
                        np.zeros_like(e_1), 40.0 * rho_t * e_1])
    q = sublevel._inclusion_probability(spec, s, r, ell, c, t)
    turn = potential._turning_point(const.c_a1, const.c_a2, 3.0, 0)
    for qi, ti in zip(q, np.linalg.norm(t, axis=1)):
        tube = c
        if ti > rho_t:
            n_min = float(norm_xt([0.0], [ti - rho_t]))
            ell_n = potential._envelope_factor(const.c_a1, const.c_a2, 3.0, n_min)
            tube = math.sqrt(spec.level / ell_n) if n_min >= turn and ell_n > 0.0 else c
        if tube >= c:
            assert qi == 1.0
        else:
            assert qi == pytest.approx((tube / c) ** (s.n * ell), rel=1e-12, abs=0.0)
    assert np.any(q < 0.01) and np.any(q == 1.0)
    # a level below 0 closes the tube wherever it is usable
    closed = sublevel._inclusion_probability(SublevelSpec(3.0, -0.5), s, r, ell,
                                             cylinder_radius(SublevelSpec(3.0, -0.5), s), t)
    assert np.any(closed == 0.0) and np.all((closed == 0.0) | (closed == 1.0))


def test_thinness_selection_is_unbiased(heis):
    """Over 30 seeds the mean of (selected - every-member) estimates is within
    4 standard errors of 0; both share the outer draws and the computed v_hat."""
    spec = SublevelSpec(3.0, 10.0)
    diffs = []
    for seed in range(100, 130):
        est = thinness_integral(spec, heis, 1.0, 2.0, 16.0, 400, 50, seed=seed)
        diffs.append(est.value - oracles.thinness_every_member(
            spec, heis, 1.0, 2.0, 16.0, 400, 50, seed).value)
    diffs = np.asarray(diffs)
    assert np.count_nonzero(diffs) > 20
    assert abs(diffs.mean()) <= 4.0 * diffs.std(ddof=1) / math.sqrt(diffs.size)


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


_QUATERNION_SCALED = _quaternion_scaled()   # shared, so its sampled (c0, C0) are drawn once


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

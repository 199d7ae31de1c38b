"""Sublevel sets of the potential, Monte Carlo measures, and thinness integrals.

For alpha > 2 the set Omega = {V_alpha <= M} is confined to a cylinder
|x| <= c(alpha, M) and becomes polynomially thin along the centre: the
measure of Omega inside a ball around (x, t) decays like |t|^{n(2-alpha)}.
This module computes the cylinder radius by inverting the sandwich lower
bound, estimates ball-intersection measures and the truncated thinness
integral by seeded Monte Carlo, attaches an analytic tail bound (finite
exactly when ell > m / (n (alpha - 2))), and fits the decay exponent.

All sampling is counter-seeded: identical inputs and seed reproduce every
estimate bit for bit, regardless of the worker count used for the outer
loop (workers only fill disjoint slots of a preallocated array).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .group import GroupPoint, MetivierStructure, _require_finite, uniform_ball
from .norms import norm_xt, quasi_distance_xt
from .potential import (PotentialConstants, _AtIdentity, _envelope_factor,
                        _turning_point, fit_loglog_slope, potential_bounds,
                        potential_value_xt)


def worker_count() -> int:
    """Requested Monte Carlo worker count: SRL_THREADS if set, else the cores.

    A value that is not an integer raises ValueError; values below 1 mean 1.
    """
    env = os.environ.get("SRL_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"SRL_THREADS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def _clamp_workers(requested: int, members: int, cpus: int | None) -> int:
    """Workers actually used: at most one per core and one per member, at least 1."""
    return max(1, min(requested, cpus or 1, members))


def substream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic child generator addressed by an integer key path."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def ball_volume(dim: int, radius: float) -> float:
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0) * radius ** dim


def _mean_and_error(scores: np.ndarray, scale: float):
    """scale times (the mean of the scores, its standard error); one score has error 0."""
    n = scores.size
    se = float(scores.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return scale * float(scores.mean()), scale * se


@dataclass(frozen=True)
class SublevelSpec:
    alpha: float
    level: float

    def __post_init__(self):
        _require_finite("alpha", self.alpha, positive=True)
        _require_finite("level", self.level)


def in_sublevel_xt(spec: SublevelSpec, s: MetivierStructure, x, t) -> np.ndarray:
    """Membership V_alpha(x, t) <= level, batched, from one norm jet.

    At the identity V extends by 0 when alpha >= 2; for alpha < 2 the
    identity is rejected (the potential has no value there).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    t = np.atleast_2d(np.asarray(t, dtype=float))
    try:
        return potential_value_xt(spec.alpha, s, x, t) <= spec.level
    except _AtIdentity:
        if spec.alpha < 2:
            raise ValueError("V_alpha undefined at the identity for alpha < 2") from None
    off = norm_xt(x, t) != 0.0
    out = np.full(off.shape, 0.0 <= spec.level)
    out[off] = potential_value_xt(spec.alpha, s, x[off], t[off]) <= spec.level
    return out


def in_sublevel(spec: SublevelSpec, s: MetivierStructure, p: GroupPoint) -> bool:
    s.check_point(p)
    return bool(in_sublevel_xt(spec, s, p.x[None, :], p.t[None, :])[0])


def lower_envelope(const: PotentialConstants, u) -> np.ndarray:
    """phi(u) = inf over N >= u of the sandwich lower bound at |x| = u.

    The bound L(u, N) = u^2 ell(N), with the envelope factor
    ell(N) = c_a1 N^{2a-4} - c_a2 N^{a-4}, is smallest over N >= u at
    N = max(u, N_s), N_s the k = 0 `_turning_point` (0 for a <= 4, where
    ell is increasing).
    """
    if const.alpha <= 2:
        raise ValueError("lower envelope needs alpha > 2")
    u = np.asarray(u, dtype=float)
    n_star = np.maximum(u, _turning_point(const.c_a1, const.c_a2, const.alpha, 0))
    with np.errstate(divide="ignore", invalid="ignore"):
        val = u * u * _envelope_factor(const.c_a1, const.c_a2, const.alpha, n_star)
    return np.where(u == 0.0, 0.0, val)


def cylinder_radius(spec: SublevelSpec, s: MetivierStructure,
                    est=None) -> float:
    """Radius c with |x| <= c for every member of the sublevel set.

    Inverts the lower envelope: c = sup { u : phi(u) <= level }.  phi falls
    to its minimum, the sandwich floor, at the k = 2 `_turning_point` u_m
    and rises after it, so c is 0 (empty sublevel set) when the level is
    below phi(u_m), and otherwise the one crossing beyond u_m, bracketed by
    doubling and bisected.  So that c stays an enclosure in floating point,
    its relative margin starts at 1e-9 and doubles until phi(c) exceeds the
    level by phi's rounding, 8 ulp of c_a1 c^(2a-2) + c_a2 c^(a-2), then
    narrows until the radius 2e-9 below c does not.  The inversion depends
    only on the sandwich constants and the level and is memoised on them.
    """
    if spec.alpha <= 2:
        raise ValueError("cylinder confinement requires alpha > 2")
    return _envelope_inverse(potential_bounds(spec.alpha, est, s), spec.level)


@lru_cache(maxsize=256)
def _envelope_inverse(const: PotentialConstants, level: float) -> float:
    lo = _turning_point(const.c_a1, const.c_a2, const.alpha, 2)
    if level < lower_envelope(const, lo):
        return 0.0
    hi = 2.0 * lo
    while lower_envelope(const, hi) <= level:
        lo, hi = hi, 2.0 * hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if lower_envelope(const, mid) <= level:
            lo = mid
        else:
            hi = mid

    def clears(u):   # phi(u) above the level by more than 8 ulp of its two terms
        a = const.alpha
        return lower_envelope(const, u) > level + 8.0 * np.finfo(float).eps * (
            const.c_a1 * u ** (2.0 * a - 2.0) + const.c_a2 * u ** (a - 2.0))

    inner, margin = hi, 1e-9
    while not clears(hi * (1.0 + margin)):
        inner, margin = hi * (1.0 + margin), 2.0 * margin
    outer = hi * (1.0 + margin)
    while outer > inner * (1.0 + 1e-9):
        mid = 0.5 * (inner + outer)
        inner, outer = (inner, mid) if clears(mid) else (mid, outer)
    # where phi is flat to its rounding, `clears` is not monotone: step down
    # while the radius 2e-9 below still clears (never below hi, where phi > level)
    while margin > 1e-9 and outer * (1.0 - 2e-9) > hi and clears(outer * (1.0 - 2e-9)):
        outer *= 1.0 - 2e-9
    return float(outer)


def _central_reach(s: MetivierStructure, xc_norm: float, r: float) -> float:
    """Central extent r^2/4 + (kappa/2) |xc| (|xc| + r) of a ball B((xc, tc), r).

    The ball's own central reach plus the largest twist of the group product
    over the x-range, with kappa the bound |sum_k (J_k a, b) u_k| <= kappa |a| |b|
    from the maps' largest singular values.
    """
    kappa = float(np.sqrt(np.sum(s._map_singular_values[:, 0] ** 2)))
    return 0.25 * r * r + 0.5 * kappa * xc_norm * (xc_norm + r)


def bounding_cylinder(s: MetivierStructure, center: GroupPoint, r: float):
    """(rho_x, rho_t): B(center, r) lies inside {|xi| <= rho_x, |tau - tc| <= rho_t}.

    The x-part is |xc| + r; the central part is `_central_reach` (no
    unproven quasi-triangle constant is needed).
    """
    _require_finite("r", r, positive=True)
    xc_norm = float(np.linalg.norm(center.x))
    return xc_norm + r, _central_reach(s, xc_norm, r)


def _tube_radius(const: PotentialConstants, level: float, n_min: float):
    """Largest |x| compatible with membership when every point has N >= n_min.

    Valid when the envelope factor ell(N) is positive and nondecreasing
    beyond n_min; returns None when unusable and 0.0 when membership is
    impossible (level below the floor on the region).
    """
    if n_min < _turning_point(const.c_a1, const.c_a2, const.alpha, 0):
        return None
    ell = _envelope_factor(const.c_a1, const.c_a2, const.alpha, n_min)
    if ell <= 0.0:
        return None
    if level < 0.0:
        return 0.0
    return math.sqrt(level / ell)


@dataclass(frozen=True)
class VolumeEstimate:
    value: float
    std_error: float
    n_samples: int
    region_volume: float
    hit_count: int
    seed: int


def ball_intersection_volume(spec: SublevelSpec, s: MetivierStructure,
                             center: GroupPoint, r: float, n_samples: int,
                             seed: int = 0,
                             rng: np.random.Generator | None = None) -> VolumeEstimate:
    """Monte Carlo measure of (sublevel set) intersect B(center, r).

    Uniform samples in the exact bounding cylinder of the ball (tightened by
    the cylinder radius and the central tube bound when alpha > 2) are scored
    by ball membership and sublevel membership and scaled by the region
    volume.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    s.check_point(center)
    rho_x, rho_t = bounding_cylinder(s, center, r)
    if spec.alpha > 2:
        const = potential_bounds(spec.alpha, None, s)
        rho_x = min(rho_x, cylinder_radius(spec, s))
        t_norm = float(np.linalg.norm(center.t))
        if t_norm > rho_t:
            n_min = float(norm_xt([0.0], [t_norm - rho_t]))   # N >= N(0, |t| - rho_t)
            tube = _tube_radius(const, spec.level, n_min)
            if tube is not None:
                rho_x = min(rho_x, tube * (1.0 + 1e-12))
    if rho_x == 0.0:
        return VolumeEstimate(0.0, 0.0, n_samples, 0.0, 0, seed)
    if rng is None:
        rng = substream(seed, 0)
    xi = uniform_ball(rng, n_samples, s.horizontal_dim, rho_x)
    tau = uniform_ball(rng, n_samples, s.m, rho_t) + center.t
    vol = ball_volume(s.horizontal_dim, rho_x) * ball_volume(s.m, rho_t)
    hits = quasi_distance_xt(s, center.x, center.t, xi, tau) < r
    score = np.zeros(n_samples)
    if np.any(hits):
        score[hits] = in_sublevel_xt(spec, s, xi[hits], tau[hits])
    value, se = _mean_and_error(score, vol)
    return VolumeEstimate(value=value, std_error=se,
                          n_samples=n_samples, region_volume=vol,
                          hit_count=int(score.sum()), seed=seed)


def threshold_k(spec: SublevelSpec, s: MetivierStructure, r: float,
                center_x_norm: float = 0.0) -> float:
    """Central height beyond which the envelope factor exceeds half its top.

    Smallest k with c_a2 / (k - rho_t)^{a/2} <= c_a1 / 2, i.e.
    k = rho_t + (2 c_a2 / c_a1)^{2/a}, with rho_t the central reach of the
    bounding cylinder.
    """
    const = potential_bounds(spec.alpha, None, s)
    c = cylinder_radius(spec, s)
    rho_t = _central_reach(s, min(center_x_norm, c), r)
    return rho_t + (2.0 * const.c_a2 / const.c_a1) ** (2.0 / const.alpha)


@dataclass(frozen=True)
class ThinnessEstimate:
    ell: float
    r: float
    value: float
    std_error: float
    outer_samples: int
    inner_samples: int
    truncation_T: float
    tail_bound: float
    tail_finite: bool
    ell_threshold: float
    threshold_k: float
    seed: int


def _tail_bound(spec: SublevelSpec, s: MetivierStructure, r: float,
                ell: float, t_from: float) -> float:
    """Upper bound for the thinness integral beyond |t| = t_from.

    Integrates beta^ell, beta(|t|) = vol_2n(min(c, tube)) vol_m(rho_t) >=
    |Omega cap B(y, r)|, over {|x| <= c, |t| > t_eff = max(t_from, k)} in
    y = log(|t| / t_eff); the band [t_from, k] takes the cylinder measure.
    beta does not increase, so the log-integrand rises with slope <= m: each
    cell is at most its left node times expm1(m dy) / m.  Once the tube is
    below c (by y_max, as tube <= sqrt(2 level / c_a1) N^(2-a)), the slope
    is <= -delta = m - ell n (a - 2), so the rest is f(y_max) / delta at most.
    """
    const = potential_bounds(spec.alpha, None, s)
    c = cylinder_radius(spec, s)
    if c == 0.0:
        return 0.0
    rho_t = _central_reach(s, c, r)
    k = threshold_k(spec, s, r, center_x_norm=c)
    t_eff = max(t_from, k)
    dim_x = s.horizontal_dim
    m = s.m
    a = const.alpha
    box_measure = ball_volume(dim_x, c)
    slab = ball_volume(m, rho_t)

    band = 0.0
    if t_eff > t_from:
        beta_max = box_measure * slab
        band = box_measure * beta_max ** ell * (ball_volume(m, t_eff) - ball_volume(m, t_from))

    delta = -(ell * s.n * (2.0 - spec.alpha) + m)
    if delta <= 0:
        return math.inf
    if spec.level <= 0:
        return band
    # the tube is below c once N >= n_c, i.e. |t| >= rho_t + (n_c / N(0, 1))^2
    log_n_c = (0.5 * math.log(2.0 * spec.level / const.c_a1) - math.log(c)) / (a - 2.0)
    log_u_c = 2.0 * (log_n_c - math.log(float(norm_xt([0.0], [1.0]))))
    y_max = max(60.0 / delta + 10.0, float(np.logaddexp(math.log(rho_t), log_u_c))
                - math.log(t_eff))
    ys = np.linspace(0.0, y_max, 20000)
    svals = t_eff * np.exp(ys)
    n_min = norm_xt(np.zeros((svals.size, 1)), (svals - rho_t)[:, None])
    # the envelope factor ell(N) of `_tube_radius` in log space, which does not
    # overflow: log c_a1 + (2a-4) log N + log1p(-(c_a2/c_a1) N^-a)
    log_n = np.log(n_min)
    log_ell_n = (math.log(const.c_a1) + (2.0 * a - 4.0) * log_n
                 + np.log1p(-(const.c_a2 / const.c_a1) * np.exp(-a * log_n)))
    log_tube = np.minimum(0.5 * (math.log(spec.level) - log_ell_n), math.log(c))
    log_beta = math.log(slab) + math.log(ball_volume(dim_x, 1.0)) + dim_x * log_tube
    surface_m = m * ball_volume(m, 1.0)
    log_integrand = ell * log_beta + m * (math.log(t_eff) + ys)
    peak = float(np.max(log_integrand))
    f = np.exp(log_integrand - peak)
    cells = float(np.sum(f[:-1])) * math.expm1(m * ys[1]) / m
    tail = math.exp(peak) * (cells + float(f[-1]) / delta)
    return band + box_measure * surface_m * tail


def thinness_integral(spec: SublevelSpec, s: MetivierStructure, r: float,
                      ell: float, truncation_T: float = 64.0,
                      outer_samples: int = 100_000, inner_samples: int = 10_000,
                      seed: int = 0) -> ThinnessEstimate:
    """MC estimate of the truncated thinness integral with analytic tail.

        integral over {y in Omega, |t(y)| <= T} of |Omega cap B(y, r)|^ell,

    outer points uniform in the confining cylinder {|x| <= c, |t| <= T},
    inner measures by `ball_intersection_volume` with per-member substreams.
    The tail beyond T gets an upper bound, finite exactly when
    ell > m / (n (alpha - 2)): `_tail_bound` sums the pointwise tube bound on
    a log grid at left nodes times each cell's largest rise, and bounds the
    part beyond the grid by its geometric decay.
    """
    if spec.alpha <= 2:
        raise ValueError("thinness experiment requires alpha > 2")
    _require_finite("r", r, positive=True)
    _require_finite("ell", ell, positive=True)
    _require_finite("truncation_T", truncation_T, positive=True)
    if outer_samples < 1 or inner_samples < 1:
        raise ValueError("sample counts must be >= 1")
    ell_threshold = s.m / (s.n * (spec.alpha - 2.0))
    c = cylinder_radius(spec, s)
    kval = threshold_k(spec, s, r, center_x_norm=c)
    value = se = tail = 0.0
    tail_finite = True     # an empty sublevel set has no tail
    if c > 0.0:
        rng = substream(seed, 0)
        xi = uniform_ball(rng, outer_samples, s.horizontal_dim, c)
        tau = uniform_ball(rng, outer_samples, s.m, truncation_T)
        outer_volume = ball_volume(s.horizontal_dim, c) * ball_volume(s.m, truncation_T)
        member = in_sublevel_xt(spec, s, xi, tau)
        idx = np.nonzero(member)[0]
        scores = np.zeros(outer_samples)

        def run_member(pos: int) -> float:
            i = int(idx[pos])
            center = GroupPoint(xi[i], tau[i])
            est = ball_intersection_volume(spec, s, center, r, inner_samples,
                                           rng=substream(seed, 1, i))
            return est.value ** ell

        workers = _clamp_workers(worker_count(), idx.size, os.cpu_count())
        if workers > 1 and idx.size > 8:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                scores[idx] = list(pool.map(run_member, range(idx.size)))
        else:
            scores[idx] = [run_member(pos) for pos in range(idx.size)]

        value, se = _mean_and_error(scores, outer_volume)
        tail_finite = ell > ell_threshold
        tail = _tail_bound(spec, s, r, ell, truncation_T) if tail_finite else math.inf
    return ThinnessEstimate(ell=ell, r=r, value=value, std_error=se,
                            outer_samples=outer_samples,
                            inner_samples=inner_samples,
                            truncation_T=truncation_T, tail_bound=tail,
                            tail_finite=tail_finite,
                            ell_threshold=ell_threshold, threshold_k=kval,
                            seed=seed)


@dataclass(frozen=True)
class ScalingFit:
    slope: float
    intercept: float
    slope_stderr: float
    ci95: float
    expected_slope: float
    t_values: tuple
    estimates: tuple
    std_errors: tuple
    samples: int
    seed: int


def scaling_fit(spec: SublevelSpec, s: MetivierStructure, r: float,
                t_values, samples: int, seed: int = 0,
                center_x: np.ndarray | None = None) -> ScalingFit:
    """Least-squares slope of log |Omega cap B(y, r)| against log |t|.

    Centers ride along the centre at y = (center_x, t u_1); all t values
    must lie beyond the threshold k of the thinness lemma.  A zero estimate
    is retried once with 4x samples, then reported as failure.
    """
    if spec.alpha <= 2:
        raise ValueError("scaling fit requires alpha > 2")
    t_values = [float(v) for v in t_values]
    if len(t_values) < 4:
        raise ValueError("need at least 4 central heights")
    if center_x is None:
        center_x = np.zeros(s.horizontal_dim)
        center_x[0] = 0.5
    center_x = np.asarray(center_x, dtype=float)
    kval = threshold_k(spec, s, r, center_x_norm=float(np.linalg.norm(center_x)))
    if min(t_values) <= kval:
        raise ValueError(f"all central heights must exceed the threshold k = {kval:.3f}")
    estimates, std_errors = [], []
    for pos, tv in enumerate(t_values):
        center = GroupPoint(center_x, tv * np.eye(s.m)[0])
        est = ball_intersection_volume(spec, s, center, r, samples,
                                       rng=substream(seed, 2, pos))
        if est.value == 0.0:
            est = ball_intersection_volume(spec, s, center, r, 4 * samples,
                                           rng=substream(seed, 3, pos))
        if est.value == 0.0:
            raise RuntimeError(f"no sublevel mass found near t = {tv}; widen samples")
        estimates.append(est.value)
        std_errors.append(est.std_error)
    slope = fit_loglog_slope(t_values, estimates)
    lx = np.log(np.asarray(t_values))
    xbar = lx.mean()
    sxx = float(np.sum((lx - xbar) ** 2))
    intercept = float(np.log(np.asarray(estimates)).mean() - slope * xbar)
    sigma_log = np.asarray(std_errors) / np.asarray(estimates)
    slope_se = float(np.sqrt(np.sum(((lx - xbar) / sxx) ** 2 * sigma_log ** 2)))
    return ScalingFit(slope=slope, intercept=intercept, slope_stderr=slope_se,
                      ci95=1.96 * slope_se,
                      expected_slope=s.n * (2.0 - spec.alpha),
                      t_values=tuple(t_values), estimates=tuple(estimates),
                      std_errors=tuple(std_errors), samples=samples, seed=seed)

"""Sublevel sets of the potential, Monte Carlo measures, and thinness integrals.

For alpha > 2 the set Omega = {V_alpha <= M} is confined to a cylinder
|x| <= c(alpha, M) and becomes polynomially thin along the centre: the
measure of Omega inside a ball around (x, t) decays like |t|^{n(2-alpha)}.
This module computes the cylinder radius by inverting the sandwich lower
bound, estimates ball-intersection measures and the truncated thinness
integral by seeded Monte Carlo, attaches an analytic tail bound (finite
exactly when ell > m / (n (alpha - 2))), and fits the decay exponent.
The integral computes inner measures for a Horvitz-Thompson selection of
its members, with inclusion probabilities from the same tube bound.

Membership V_alpha <= level takes at most one norm jet per batch.  On
H-type groups the closed form |x|^2 (c1 N^{2a-4} - c2 N^{a-4}), from |x|^2
and N alone, decides every point outside a band of 1e-9 of its two terms
around the level, and the jet decides the points inside it; other
structures evaluate the jet on every point.

All sampling is counter-seeded: identical inputs and seed reproduce every
estimate bit for bit.  The outer loop is serial; each member's inner volume
draws from its own substream, so the order of evaluation changes nothing.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .group import GroupPoint, MetivierStructure, _require_finite, uniform_ball
from .norms import _radial, norm_xt, quasi_distance_xt
from .potential import (PotentialConstants, _AtIdentity, _closed_form_coeffs,
                        _envelope_factor, _envelope_terms, _turning_point,
                        fit_loglog_slope, potential_bounds, potential_value_xt)

_LOG_MAX_DOUBLE = math.log(sys.float_info.max)
_MAX_STEPS = 4096   # envelope tests per radius: doubling leaves the double range in < 2100


def worker_count() -> int:
    """Monte Carlo worker count: always 1, as the outer loop is serial.

    `perfbench/layers.py` reads it for the `sublevel.workers` metric.
    """
    return 1


def substream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic child generator addressed by an integer key path."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def ball_volume(dim: int, radius: float) -> float:
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0) * radius ** dim


def _mean_and_error(scores: np.ndarray, scale: float):
    """scale times (the mean of the scores, its standard error); one score has error 0.

    The scores are divided by a power of two near their largest magnitude, so
    `std` cannot overflow squaring them; the division and the product back are
    exact (bar scores below 2^-1022 of the largest), so the results are those
    of the unscaled scores wherever those are finite.
    """
    n = scores.size
    unit = 2.0 ** math.frexp(float(np.max(np.abs(scores), initial=0.0)))[1]
    scaled = scores / unit
    se = float(scaled.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return scale * (unit * float(scaled.mean())), scale * (unit * se)


@dataclass(frozen=True)
class SublevelSpec:
    alpha: float
    level: float

    def __post_init__(self):
        _require_finite("alpha", self.alpha, positive=True)
        _require_finite("level", self.level)


def in_sublevel_xt(spec: SublevelSpec, s: MetivierStructure, x, t) -> np.ndarray:
    """Membership V_alpha(x, t) <= level, batched, with at most one norm jet.

    On H-type groups the closed form |x|^2 (c1 N^{2a-4} - c2 N^{a-4}) decides
    every point farther than 1e-9 of its two terms from the level, and
    `potential_value_xt` evaluates only the points left in that band (see
    `_closed_form_decides`), so the answer is the jet's, bit for bit.  Other
    structures evaluate the jet on every point.  At the identity V extends
    by 0 when alpha >= 2; for alpha < 2 the identity is rejected (the
    potential has no value there).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    t = np.atleast_2d(np.asarray(t, dtype=float))
    if s.h_type:
        s.check_dims(x, t)
        _, _, x2, n = _radial(x, t)
        decided, v = _closed_form_decides(spec, s, x2, n)
        out, band = v <= spec.level, ~decided     # the band holds the identity
        if not np.any(band):
            return out
    else:
        try:
            return potential_value_xt(spec.alpha, s, x, t) <= spec.level
        except _AtIdentity:
            n = norm_xt(x, t)
            out, band = np.empty(n.shape, dtype=bool), np.ones(n.shape, dtype=bool)
    at_identity = n == 0.0
    if np.any(at_identity):
        if spec.alpha < 2:
            raise ValueError("V_alpha undefined at the identity for alpha < 2")
        out[at_identity] = 0.0 <= spec.level
        band &= ~at_identity
    if np.any(band):
        x = np.broadcast_to(x, n.shape + x.shape[-1:])[band]
        t = np.broadcast_to(t, n.shape + t.shape[-1:])[band]
        out[band] = potential_value_xt(spec.alpha, s, x, t) <= spec.level
    return out


def _closed_form_decides(spec: SublevelSpec, s: MetivierStructure, x2, n):
    """(decided, v): v the H-type closed form of V_alpha from |x|^2 and N, and
    where it settles membership as the norm jet would.

    The jet's V_alpha is within about 2e-15 of the two terms
    |x|^2 (c1 N^{2a-4} + c2 N^{a-4}) of the closed form (8e-13 for maps
    H-type only to the 1e-12 tolerance the structure accepts) while every
    intermediate of either is a normal double.  Each intermediate is a
    constant times N^k or N^k |x|^2 with |k| <= 2a + 6, or a term its sum
    dominates (|x|^6 beside 16 |J_t x|^2, which sum to |x|^2 N^4), so that
    holds when |log2 N| (2a + 8) <= 450 and |x|^2 >= 2^-450.  There a point
    whose v lies more than 1e-9 of the two terms from the level is on the
    same side of it as the jet's value.
    """
    a = spec.alpha
    c1, c2 = _closed_form_coeffs(a, s)
    reach = 2.0 ** (450.0 / (2.0 * a + 8.0))
    with np.errstate(all="ignore"):
        lead, tail = _envelope_terms(c1, c2, a, n)
        v = x2 * (lead - tail)
        clear = np.abs(v - spec.level) > 1e-9 * x2 * (lead + tail)
    return clear & (n >= 1.0 / reach) & (n <= reach) & (x2 >= 2.0 ** -450), v


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


def cylinder_radius(spec: SublevelSpec, s: MetivierStructure) -> float:
    """Radius c with |x| <= c for every member of the sublevel set.

    Inverts the lower envelope: c = sup { u : phi(u) <= level }.  phi falls
    to its minimum, the sandwich floor, at the k = 2 `_turning_point` u_m
    and rises after it, so c is 0 (empty sublevel set) when the level is
    below phi(u_m).  Otherwise c is a u past u_m where phi(u) clears the level
    by phi's rounding, 8 ulp of c_a1 u^(2a-2) + c_a2 u^(a-2), which proves the
    enclosure as phi rises, while c (1 - 2e-9) does not clear: doubling from
    u_m, bisection on that test to 1e-12, then steps down by 2e-9.  A phi that
    overflows (inf, or NaN from inf - inf) clears, and more than `_MAX_STEPS`
    tests raise ValueError.  The inversion depends only on the sandwich
    constants and the level and is memoised on them.
    """
    if spec.alpha <= 2:
        raise ValueError("cylinder confinement requires alpha > 2")
    return _envelope_inverse(potential_bounds(spec.alpha, None, s), spec.level)


@lru_cache(maxsize=256)
def _envelope_inverse(const: PotentialConstants, level: float) -> float:
    a = const.alpha
    u_m = _turning_point(const.c_a1, const.c_a2, a, 2)
    if level < lower_envelope(const, u_m):
        return 0.0

    calls = iter(range(_MAX_STEPS))   # each loop step tests once, so this bounds every loop

    def clears(u):   # phi(u) above the level by more than 8 ulp of its two terms, or overflowed
        if next(calls, None) is None:
            raise ValueError(f"cylinder radius did not settle for alpha = {a}, level = {level}")
        with np.errstate(over="ignore", invalid="ignore"):
            phi = lower_envelope(const, u)
            return phi == math.inf or not phi <= level + 8.0 * np.finfo(float).eps * (
                const.c_a1 * np.power(u, 2.0 * a - 2.0) + const.c_a2 * np.power(u, a - 2.0))

    lo, hi = u_m, 2.0 * u_m
    while not clears(hi):   # phi overflows, and clears, once hi leaves the double range
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if clears(mid) else (mid, hi)
    # where phi is flat to its rounding, `clears` is not monotone: step down
    # while the radius 2e-9 below still clears
    while hi * (1.0 - 2e-9) > u_m and clears(hi * (1.0 - 2e-9)):
        hi *= 1.0 - 2e-9
    return float(hi)


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


@dataclass(frozen=True)
class VolumeEstimate:
    value: float
    std_error: float
    n_samples: int
    region_volume: float
    hit_count: int
    seed: int | None     # None when the caller's generator drew the points


def ball_intersection_volume(spec: SublevelSpec, s: MetivierStructure,
                             center: GroupPoint, r: float, n_samples: int,
                             seed: int = 0,
                             rng: np.random.Generator | None = None) -> VolumeEstimate:
    """Monte Carlo measure of (sublevel set) intersect B(center, r).

    Uniform samples in the exact bounding cylinder of the ball (tightened by
    the cylinder radius and the tube `_log_tube` when alpha > 2) are scored by
    ball and sublevel membership and scaled by the region volume.  They come
    from `rng` if given (the estimate's `seed` is then None), else from `seed`.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    s.check_dims(center.x, center.t)
    rho_x, rho_t = bounding_cylinder(s, center, r)
    if spec.alpha > 2:
        c = cylinder_radius(spec, s)
        rho_x = min(rho_x, c)
        if c > 0.0:
            # N >= N(0, |tc| - rho_t) on the ball; the 1e-12 slack covers the tube's
            # round trip through exp and log, a few ulp of log values below about 50
            log_tube = _log_tube(potential_bounds(spec.alpha, None, s), spec.level, c,
                                 _log_gap_norm(float(np.linalg.norm(center.t)) - rho_t))
            rho_x = min(rho_x, math.exp(float(log_tube)) * (1.0 + 1e-12))
    if rng is None:
        rng = substream(seed, 0)
    else:
        seed = None
    if rho_x == 0.0:
        return VolumeEstimate(0.0, 0.0, n_samples, 0.0, 0, seed)
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
    rho_t = _central_reach(s, min(center_x_norm, cylinder_radius(spec, s)), r)
    return rho_t + (2.0 * const.c_a2 / const.c_a1) ** (2.0 / const.alpha)


@dataclass(frozen=True)
class ThinnessEstimate:
    ell: float
    r: float
    value: float
    std_error: float
    outer_samples: int
    inner_samples: int
    members: int
    evaluated: int
    truncation_T: float
    tail_bound: float
    tail_finite: bool
    ell_threshold: float
    threshold_k: float
    seed: int


def _log_gap_norm(gap) -> np.ndarray:
    """log N(0, t) at |t| = max(gap, 0), batched: log N(0, 1) + (1/2) log |t|."""
    with np.errstate(divide="ignore"):
        return math.log(float(norm_xt([0.0], [1.0]))) + 0.5 * np.log(np.maximum(gap, 0.0))


def _log_tube(const: PotentialConstants, level: float, c: float, log_n) -> np.ndarray:
    """log min(c, tube) where every point has N >= e^log_n, batched in logs.

    The tube, the largest |x| of a member there, is sqrt(level / ell(N)) with
    ell(N) = c_a1 N^(2a-4) (1 - (c_a2/c_a1) N^-a) where ell is positive and
    nondecreasing; elsewhere the result is log c, and a level <= 0 closes it
    (-inf).  The ball region, the selection and the tail read it at
    log_n = log N(0, |t| - rho_t) (`_log_gap_norm`), with rho_t the central
    reach; min(c, tube)^(2n) vol_2n(1) vol_m(rho_t) is then the bound
    beta(|t|) >= |Omega cap B(y, r)| that `_tail_bound` integrates.
    """
    a = const.alpha
    log_n = np.asarray(log_n, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_ell_n = (math.log(const.c_a1) + (2.0 * a - 4.0) * log_n
                     + np.log1p(-(const.c_a2 / const.c_a1) * np.exp(-a * log_n)))
        log_level = math.log(level) if level > 0.0 else -math.inf
        log_tube = np.minimum(0.5 * (log_level - log_ell_n), math.log(c))
        turn = _turning_point(const.c_a1, const.c_a2, a, 0)
        log_turn = math.log(turn) if turn > 0.0 else -math.inf
        usable = (log_n >= log_turn) & (log_ell_n > -math.inf)   # nan is not usable
    return np.where(usable, log_tube, math.log(c))


def _inclusion_probability(spec: SublevelSpec, s: MetivierStructure, r: float,
                           ell: float, c: float, t) -> np.ndarray:
    """q = (beta(|t|) / beta_max)^(ell/2) = (min(c, tube) / c)^(n ell), from `_log_tube`.

    Exactly 1 where the tube is unusable or wider than c, 0 where it is closed.
    """
    const = potential_bounds(spec.alpha, None, s)
    log_n = _log_gap_norm(np.linalg.norm(t, axis=-1) - _central_reach(s, c, r))
    log_ratio = _log_tube(const, spec.level, c, log_n) - math.log(c)
    return np.exp((0.5 * ell * s.horizontal_dim) * log_ratio)


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
    Every factor is taken in logs, as |t| = t_eff e^y and beta_max^ell can
    pass the double range; a bound past that range is inf, also on the
    finite side of the threshold (large ell near a = 2), and a positive bound
    below it is the smallest positive double, never 0.
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
    beta_max = box_measure * slab
    band_volume = ball_volume(m, t_eff) - ball_volume(m, t_from)
    delta = -(ell * s.n * (2.0 - spec.alpha) + m)
    if delta <= 0:
        return math.inf
    log_band = (math.log(box_measure) + ell * math.log(beta_max) + math.log(band_volume)
                if t_eff > t_from else -math.inf)
    log_tail = -math.inf
    if spec.level > 0:
        # the tube is below c once N >= n_c, i.e. |t| >= rho_t + (n_c / N(0, 1))^2
        log_n1 = float(_log_gap_norm(1.0))
        log_n_c = (0.5 * math.log(2.0 * spec.level / const.c_a1) - math.log(c)) / (a - 2.0)
        log_u_c = 2.0 * (log_n_c - log_n1)
        y_c = float(np.logaddexp(math.log(rho_t), log_u_c)) - math.log(t_eff)
        # past y_c the slope is <= -delta and settles there within a few units,
        # so f(y_max) / delta is close for any such y_max: the grid need not grow as 1 / delta
        y_max = max(min(60.0 / delta, 60.0), y_c) + 10.0
        ys = np.linspace(0.0, y_max, 20000)
        # log N(0, |t| - rho_t) = log N(0, 1) + (1/2) log(|t| - rho_t)
        log_t = math.log(t_eff) + ys
        log_n = log_n1 + 0.5 * (log_t + np.log1p(-rho_t / t_eff * np.exp(-ys)))
        log_tube = _log_tube(const, spec.level, c, log_n)
        log_beta = math.log(slab) + math.log(ball_volume(dim_x, 1.0)) + dim_x * log_tube
        log_integrand = ell * log_beta + m * log_t
        peak = float(np.max(log_integrand))
        f = np.exp(log_integrand - peak)
        m_dy = m * float(ys[1])
        log_cell = m_dy + math.log1p(-math.exp(-m_dy)) - math.log(m)   # log(expm1(m dy) / m)
        log_cells = math.log(float(np.sum(f[:-1]))) + log_cell
        log_rest = math.log(float(f[-1])) - math.log(delta) if f[-1] > 0.0 else -math.inf
        log_tail = (math.log(box_measure) + math.log(m * ball_volume(m, 1.0)) + peak
                    + float(np.logaddexp(log_cells, log_rest)))
    log_bound = float(np.logaddexp(log_band, log_tail))
    if log_bound == -math.inf:   # the tube is closed (level <= 0) and no band is left
        return 0.0
    return max(math.exp(log_bound), math.ulp(0.0)) if log_bound < _LOG_MAX_DOUBLE else math.inf


def thinness_integral(spec: SublevelSpec, s: MetivierStructure, r: float,
                      ell: float, truncation_T: float = 64.0,
                      outer_samples: int = 100_000, inner_samples: int = 10_000,
                      seed: int = 0) -> ThinnessEstimate:
    """MC estimate of the truncated thinness integral with analytic tail.

        integral over {y in Omega, |t(y)| <= T} of |Omega cap B(y, r)|^ell,

    outer points uniform in the confining cylinder {|x| <= c, |t| <= T}.
    Horvitz-Thompson selection: member i gets its inner volume v_hat, from
    `ball_intersection_volume` on its own substream, only when u_i < q_i, u_i
    the i-th draw of one selection stream over the outer positions, and then
    scores v_hat^ell / q_i; the other members score 0.
    q_i = (beta(|t_i|) / beta_max)^(ell/2) comes from the tube bound the tail integrates,
    beta(|t|) / beta_max = (min(c, tube(N(0, |t| - rho_t))) / c)^(2n), and is 1
    where the tube does not reach.  As v_hat <= beta, a weighted score is at
    most beta_max^ell (up to rounding), so the unbiased estimate gains no heavy
    tail.  `members` counts the outer points in Omega, `evaluated` the inner
    volumes computed.  The tail beyond T gets an upper bound, finite exactly
    when ell > m / (n (alpha - 2)): `_tail_bound` sums the pointwise tube
    bound on a log grid at left nodes times each cell's largest rise, and
    bounds the part beyond the grid by its geometric decay.  For ell = 2 the
    value is biased upward by Var v_hat, v_hat a member's inner estimate
    (Jensen: E[v_hat^2] = v^2 + Var v_hat); README gives the measured sizes.
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
    members = evaluated = 0
    tail_finite = True     # an empty sublevel set has no tail
    if c > 0.0:
        rng = substream(seed, 0)
        xi = uniform_ball(rng, outer_samples, s.horizontal_dim, c)
        tau = uniform_ball(rng, outer_samples, s.m, truncation_T)
        outer_volume = ball_volume(s.horizontal_dim, c) * ball_volume(s.m, truncation_T)
        member = in_sublevel_xt(spec, s, xi, tau)
        idx = np.nonzero(member)[0]
        members = idx.size
        q = _inclusion_probability(spec, s, r, ell, c, tau[idx])
        keep = substream(seed, 4).random(outer_samples)[idx] < q
        idx, q = idx[keep], q[keep]
        evaluated = idx.size
        scores = np.zeros(outer_samples)
        for i, qi in zip(idx, q):
            est = ball_intersection_volume(spec, s, GroupPoint(xi[i], tau[i]), r,
                                           inner_samples, rng=substream(seed, 1, int(i)))
            scores[i] = est.value ** ell / qi

        value, se = _mean_and_error(scores, outer_volume)
        tail_finite = ell > ell_threshold
        tail = _tail_bound(spec, s, r, ell, truncation_T) if tail_finite else math.inf
    return ThinnessEstimate(ell=ell, r=r, value=value, std_error=se,
                            outer_samples=outer_samples,
                            inner_samples=inner_samples,
                            members=members, evaluated=evaluated,
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

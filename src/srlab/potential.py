"""Horizontal calculus of the norm and the conjugated Schrodinger potential.

Everything here is exact pointwise arithmetic (no quadrature): the squared
horizontal gradient and sub-Laplacian of the norm N, the derivatives of the
weight w_alpha = exp(-N^alpha), the potential

    V_alpha = (1/4) alpha^2 N^{2 alpha - 2} |grad_H N|^2
            - (1/2) alpha (alpha - 1) N^{alpha - 2} |grad_H N|^2
            + (1/2) alpha N^{alpha - 1} (LN),

its two-sided polynomial sandwich with explicit constants, and diagnostics
(essential infimum, admissibility probes for uniqueness of the self-adjoint
extension, sup of |V_alpha| on the unit cylinder).

Every consumer, here and in `forms` and `sublevel`, evaluates the norm jet
`_norm_jet` at most once per batch, and each formula is written once.

Conventions at degenerate points: values carrying a |x|^2 factor extend
continuously to 0 on the set {x = 0}, while the identity itself is a hard
error (`sublevel.in_sublevel_xt` alone reads V_alpha as 0 there when
alpha >= 2).  sign(0) = 0, which the formulas below realise without
branching because |J_t x|^2 already vanishes with x or t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .group import (ConditionEstimate, GroupPoint, MetivierStructure,
                    _require_finite, exact_condition_extremes,
                    homogeneous_dimension, uniform_ball, unit_sample)
from .norms import _radial, _weight, norm_xt


class _AtIdentity(ValueError):
    """A batch holds the group identity, where N = 0 and the formulas have no value."""


def _off_identity(x, t):
    """`norms._radial` (x, t, |x|^2, N); the identity is a hard error."""
    x, t, x2, n = _radial(x, t)
    if np.any(n == 0.0):
        raise _AtIdentity("formula undefined at the group identity (N = 0)")
    return x, t, x2, n


class _NormJet(NamedTuple):
    """Pointwise quantities of N that every kernel below is built from."""

    x: np.ndarray
    x2: np.ndarray      # |x|^2
    n: np.ndarray       # N
    jt_x: np.ndarray    # J_t x, shape (..., 2n)
    gns: np.ndarray     # |grad_H N|^2
    ln: np.ndarray      # L N


def _norm_jet(s: MetivierStructure, x, t) -> _NormJet:
    """N, J_t x, |grad_H N|^2 and LN in one pass over (x, t).

    |grad_H N|^2 = N^{-6} (|x|^6 + 16 |J_t x|^2) and
    LN = (3/N) |grad_H N|^2 - N^{-3} ((2 + 2n) |x|^2 + 2 sum_k |J_k x|^2);
    J_t x = sum_k t_k J_k x reuses the J_k x of the sum.
    """
    x, t, x2, n = _off_identity(x, t)
    jk_x = np.einsum("kij,...j->...ki", s.maps, x)
    jt_x = np.einsum("...k,...ki->...i", t, jk_x)
    n3 = n * n * n
    gns = (x2 * x2 * x2 + 16.0 * np.einsum("...i,...i->...", jt_x, jt_x)) / (n3 * n3)
    jk_sum = np.einsum("...ki,...ki->...", jk_x, jk_x)
    ln = 3.0 * gns / n - ((2.0 + 2.0 * s.n) * x2 + 2.0 * jk_sum) / n3
    return _NormJet(x, x2, n, jt_x, gns, ln)


def _grad_kaplan(jet: _NormJet) -> np.ndarray:
    return (jet.x2[..., None] * jet.x + 4.0 * jet.jt_x) / (jet.n ** 3)[..., None]


def _weight_terms(alpha: float, jet: _NormJet):
    """(g, |grad_H w|^2 / w^2, (L w) / w) for w = w_alpha, from one power of N.

    g = alpha N^{alpha-1} is the slope of the log-gradient,
    grad_H log w = -g grad_H N, so |grad_H w|^2 / w^2 = g^2 |grad_H N|^2.
    Every kernel taking alpha checks it here (finite, > 0).
    """
    _require_finite("alpha", alpha, positive=True)
    u = alpha * jet.n ** (alpha - 2.0)
    grad_sq = u * u * (jet.n * jet.n) * jet.gns
    return u * jet.n, grad_sq, u * ((alpha - 1.0) * jet.gns - jet.n * jet.ln) - grad_sq


def _potential(alpha: float, jet: _NormJet) -> np.ndarray:
    _, grad_sq, lw = _weight_terms(alpha, jet)
    return -0.25 * grad_sq - 0.5 * lw


def grad_kaplan_xt(s: MetivierStructure, x, t) -> np.ndarray:
    """Horizontal-frame coefficients (X_1 N, ..., X_{2n} N), shape (..., 2n).

    X_j N = N^{-3} (|x|^2 x_j + 4 (J_t x)_j); vanishes on {x = 0}.
    """
    return _grad_kaplan(_norm_jet(s, x, t))


def grad_norm_sq_xt(s: MetivierStructure, x, t) -> np.ndarray:
    """|grad_H N|^2 = N^{-6} (|x|^6 + 16 |J_t x|^2)."""
    return _norm_jet(s, x, t).gns


def sub_laplacian_norm_xt(s: MetivierStructure, x, t) -> np.ndarray:
    """LN = (3/N) |grad_H N|^2 - N^{-3} ((2 + 2n) |x|^2 + 2 sum_k |J_k x|^2)."""
    return _norm_jet(s, x, t).ln


def grad_weight_xt(alpha: float, s: MetivierStructure, x, t) -> np.ndarray:
    """grad_H w_alpha = -alpha w_alpha N^{alpha-1} grad_H N, shape (..., 2n)."""
    jet = _norm_jet(s, x, t)
    g = _weight_terms(alpha, jet)[0]
    return (-g * _weight(alpha, jet.n))[..., None] * _grad_kaplan(jet)


def laplacian_weight_xt(alpha: float, s: MetivierStructure, x, t) -> np.ndarray:
    """L w_alpha, exact.

    L w_alpha = w_alpha [ -alpha^2 N^{2 alpha - 2} |grad_H N|^2
                          + alpha (alpha - 1) N^{alpha - 2} |grad_H N|^2
                          - alpha N^{alpha - 1} (LN) ].

    The last sign follows from L = -sum X_j^2 and is pinned by the
    finite-difference oracle tests (and by consistency with V_alpha below).
    """
    jet = _norm_jet(s, x, t)
    return _weight(alpha, jet.n) * _weight_terms(alpha, jet)[2]


def potential_value_xt(alpha: float, s: MetivierStructure, x, t) -> np.ndarray:
    """V_alpha = -(1/4)|grad w|^2/w^2 - (1/2) (L w)/w, expanded in N-quantities."""
    return _potential(alpha, _norm_jet(s, x, t))


def _envelope_factor(c1: float, c2: float, alpha: float, n):
    """c1 N^{2a-4} - c2 N^{a-4}: the sandwich bounds and the H-type closed form
    of V_alpha are |x|^2 times this factor."""
    return c1 * n ** (2.0 * alpha - 4.0) - c2 * n ** (alpha - 4.0)


def _turning_point(c1: float, c2: float, alpha: float, k: int) -> float:
    """Minimiser of N^k (c1 N^{2a-4} - c2 N^{a-4}) on N > 0 for alpha > 2, k in {0, 2}.

    The stationary point N^a = c2 (a-4+k) / (c1 (2a-4+k)) when a > 4 - k;
    0.0 when a <= 4 - k, where N^k times the factor is increasing.
    """
    if alpha <= 4.0 - k:
        return 0.0
    return (c2 * (alpha - 4.0 + k) / (c1 * (2.0 * alpha - 4.0 + k))) ** (1.0 / alpha)


def _closed_form_coeffs(alpha: float, s: MetivierStructure):
    """(c1, c2) with H-type V_alpha / |x|^2 = c1 N^{2a-4} - c2 N^{a-4}:
    c1 = a^2/4, c2 = (a/2)(Q+a-2)."""
    q = homogeneous_dimension(s)
    return 0.25 * alpha * alpha, 0.5 * alpha * (q + alpha - 2.0)


def potential_closed_form_xt(alpha: float, s: MetivierStructure, x, t) -> np.ndarray:
    """H-type closed form (alpha^2/4) N^{2a-4} |x|^2 - (a/2)(Q+a-2) N^{a-4} |x|^2."""
    _, _, x2, n = _off_identity(x, t)
    return x2 * _envelope_factor(*_closed_form_coeffs(alpha, s), alpha, n)


# scalar wrappers on GroupPoint

def grad_norm_sq(s: MetivierStructure, p: GroupPoint) -> float:
    s.check_point(p)
    return float(grad_norm_sq_xt(s, p.x, p.t))


def sub_laplacian_norm(s: MetivierStructure, p: GroupPoint) -> float:
    s.check_point(p)
    return float(sub_laplacian_norm_xt(s, p.x, p.t))


def grad_weight(alpha: float, s: MetivierStructure, p: GroupPoint) -> np.ndarray:
    s.check_point(p)
    return grad_weight_xt(alpha, s, p.x, p.t)


def laplacian_weight(alpha: float, s: MetivierStructure, p: GroupPoint) -> float:
    s.check_point(p)
    return float(laplacian_weight_xt(alpha, s, p.x, p.t))


def potential_value(alpha: float, s: MetivierStructure, p: GroupPoint) -> float:
    s.check_point(p)
    return float(potential_value_xt(alpha, s, p.x, p.t))


@dataclass(frozen=True)
class PotentialConstants:
    """Constants of the two-sided sandwich

        N^{2a-4} |x|^2 (c_a1 - c_a2 / N^a) <= V_a <= N^{2a-4} |x|^2 (c_a3 - c_a4 / N^a)

    built from the extremes (c0, C0) of |J_t x|^2 on unit pairs via
    c = min(c0, 1), C = max(C0, 1).  c_a4 has no guaranteed sign.
    """

    c0: float
    C0: float
    c: float
    C: float
    c_a1: float
    c_a2: float
    c_a3: float
    c_a4: float
    alpha: float
    Q: int

    def __post_init__(self):
        if self.c_a1 <= 0 or self.c_a3 <= 0:
            raise ValueError("c_a1 and c_a3 must be positive")
        if self.c_a2 <= 0:
            raise ValueError("c_a2 must be positive")


def constants_from_condition(alpha: float, c0: float, C0: float,
                             n: int, m: int) -> PotentialConstants:
    _require_finite("alpha", alpha, positive=True)
    _require_finite("c0", c0)
    _require_finite("C0", C0)
    if c0 <= 0:
        raise ValueError("c0 must be positive (Metivier condition failed)")
    if C0 < c0:
        raise ValueError("need c0 <= C0")
    c = min(c0, 1.0)
    C = max(C0, 1.0)
    c_a1 = c * alpha * alpha / 4.0
    c_a2 = C * alpha * alpha / 2.0 - 0.5 * alpha * (4.0 * c - 2.0 * n - 2.0 - 2.0 * m * C0)
    c_a3 = C * alpha * alpha / 4.0
    c_a4 = c * alpha * alpha / 2.0 - 0.5 * alpha * (4.0 * C - 2.0 * n - 2.0 - 2.0 * m * c0)
    return PotentialConstants(c0=c0, C0=C0, c=c, C=C, c_a1=c_a1, c_a2=c_a2,
                              c_a3=c_a3, c_a4=c_a4, alpha=alpha, Q=2 * n + 2 * m)


def potential_bounds(alpha: float, est: ConditionEstimate | None,
                     s: MetivierStructure) -> PotentialConstants:
    """Sandwich constants for (alpha, structure).

    Where the extremes of |J_t x|^2 are exactly computable (H-type gives
    (1, 1); a one-dimensional centre gives the squared extreme singular
    values of the single map) the exact values override the sampled
    estimate, so the resulting bounds are rigorous rather than
    sample-dependent.  Otherwise (a non-H-type structure with m >= 2) the
    sampled (c0, C0) are used, without an estimate those of a 10,000-pair
    sample drawn once per structure.  Those constants are heuristic, not
    rigorous: a sample can miss the true extremes, and the sandwich built
    from it can fail at some points.
    """
    if est is None:
        c0, C0 = s._condition_extremes
    else:
        c0, C0 = exact_condition_extremes(s) or (est.c0, est.C0)
    return constants_from_condition(alpha, c0, C0, s.n, s.m)


def _sandwich(const: PotentialConstants, x2: np.ndarray, n: np.ndarray):
    a = const.alpha
    return (x2 * _envelope_factor(const.c_a1, const.c_a2, a, n),
            x2 * _envelope_factor(const.c_a3, const.c_a4, a, n))


def sandwich_bounds_xt(const: PotentialConstants, x, t):
    """Pointwise (lower, upper) sandwich values for V_alpha."""
    _, _, x2, n = _off_identity(x, t)
    return _sandwich(const, x2, n)


@dataclass(frozen=True)
class SandwichReport:
    n_points: int
    n_violations: int
    violations: list
    max_low_violation: float
    max_high_violation: float
    max_equality_gap: float
    constants: PotentialConstants


def check_sandwich(alpha: float, s: MetivierStructure, points,
                   est: ConditionEstimate | None = None,
                   slack: float = 1e-12) -> SandwichReport:
    """Assert lower <= V_alpha <= upper at each supplied point.

    `points` is a pair of arrays (x of shape (N, 2n), t of shape (N, m)).  A
    point violates if it exceeds a bound by more than `slack * max(1, scale)`
    (pure float headroom; the inequality itself is rigorous for exact
    constants).
    """
    x, t = points
    _require_finite("slack", slack)
    const = potential_bounds(alpha, est, s)
    jet = _norm_jet(s, x, t)
    v = _potential(alpha, jet)
    lo, hi = _sandwich(const, jet.x2, jet.n)
    scale = np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    low_excess = lo - v
    high_excess = v - hi
    bad = (low_excess > slack * scale) | (high_excess > slack * scale)
    idx = np.nonzero(bad)[0]
    violations = [(int(i), float(v[i]), float(lo[i]), float(hi[i])) for i in idx[:100]]
    return SandwichReport(
        n_points=int(v.size),
        n_violations=int(bad.sum()),
        violations=violations,
        max_low_violation=float(np.max(low_excess)) if v.size else 0.0,
        max_high_violation=float(np.max(high_excess)) if v.size else 0.0,
        max_equality_gap=float(np.max(np.abs(hi - lo))) if v.size else 0.0,
        constants=const,
    )


def sandwich_floor(const: PotentialConstants) -> float:
    """Analytic lower bound for V_alpha from the sandwich, alpha >= 2 only.

    The worst case of the lower bound sits on |x| = N, where it reads
    phi(N) = c_a1 N^{2a-2} - c_a2 N^{a-2}; for alpha = 2 the infimum is
    -c_a2 (as N -> 0), for alpha > 2 it is the interior minimum of phi.
    """
    a = const.alpha
    if a < 2:
        raise ValueError("no finite sandwich floor for alpha < 2")
    if a == 2:
        return -const.c_a2
    n_star = _turning_point(const.c_a1, const.c_a2, a, 2)
    phi = const.c_a1 * n_star ** (2.0 * a - 2.0) - const.c_a2 * n_star ** (a - 2.0)
    return min(0.0, phi)


@dataclass(frozen=True)
class EssentialInfEstimate:
    sampled_min: float
    analytic_floor: float | None
    unbounded_below: bool
    sentinel: float
    sentinel_hit: bool
    scales: tuple
    per_scale: int
    seed: int


def essential_inf_estimate(alpha: float, s: MetivierStructure,
                           scale_range: tuple[int, int] = (-20, 5),
                           per_scale: int = 200, seed: int = 0,
                           sentinel: float = -1e6) -> EssentialInfEstimate:
    """Sampled minimum of V_alpha over a dilation-graded cloud.

    Each scale 2^j carries `per_scale` random points dilated onto the shell
    N = 2^j, plus the deterministic axis point (2^j e_1, 0) where the lower
    bound is attained.  For alpha >= 2 the analytic sandwich floor is
    attached; for alpha < 2 the potential is unbounded below (reported, not
    clamped) and the running minimum may cross the sentinel.
    """
    rng = np.random.default_rng(seed)
    lo, hi = scale_range
    scales = tuple(2.0 ** j for j in range(lo, hi + 1))
    running_min = math.inf
    for r in scales:
        x, t = _shell_points(s, rng, per_scale, r)
        running_min = min(running_min, float(potential_value_xt(alpha, s, x, t).min()))
    floor = sandwich_floor(potential_bounds(alpha, None, s)) if alpha >= 2 else None
    return EssentialInfEstimate(
        sampled_min=running_min,
        analytic_floor=floor,
        unbounded_below=alpha < 2,
        sentinel=sentinel,
        sentinel_hit=running_min < sentinel,
        scales=(float(scales[0]), float(scales[-1])),
        per_scale=per_scale,
        seed=seed,
    )


def _shell_points(s: MetivierStructure, rng: np.random.Generator,
                  count: int, radius: float):
    """Random points with N = radius exactly, plus the |x| = N axis point."""
    raw = unit_sample(rng, count, s.horizontal_dim + s.m)
    x = raw[:, : s.horizontal_dim]
    t = raw[:, s.horizontal_dim:]
    n_unit = norm_xt(x, t)
    x = x / n_unit[:, None]
    t = t / (n_unit ** 2)[:, None]
    x = np.concatenate([x, np.eye(s.horizontal_dim)[:1]], axis=0)
    t = np.concatenate([t, np.zeros((1, s.m))], axis=0)
    return x * radius, t * radius * radius


def fit_loglog_slope(ns, values) -> float:
    """Least-squares slope of log(values) against log(ns)."""
    ln = np.log(np.asarray(ns, dtype=float))
    lv = np.log(np.asarray(values, dtype=float))
    ln = ln - ln.mean()
    return float((ln @ (lv - lv.mean())) / (ln @ ln))


@dataclass(frozen=True)
class AdmissibilityReport:
    alpha: float
    inner_radii: np.ndarray
    grad_sup: np.ndarray
    lap_sup: np.ndarray
    ratio_radii: np.ndarray
    ratio_sup: np.ndarray
    grad_locally_bounded: bool
    lap_locally_bounded: bool
    ratio_globally_bounded: bool
    condition_a: bool
    condition_b: bool


def admissibility_report(alpha: float, s: MetivierStructure,
                         depth: int = 14, per_shell: int = 400,
                         seed: int = 0, slope_tol: float = 0.05) -> AdmissibilityReport:
    """Numerical probes behind uniqueness of the self-adjoint extension.

    (a) requires |grad_H w_alpha| and |L w_alpha| bounded on punctured balls
    around the identity, probed on shells N = 2^{-j}; (b) requires the global
    ratio |grad_H w_alpha| / ((1 + N) w_alpha) bounded, probed on shells
    N = 2^{+-j}.  Boundedness is classified by the log-log slope of the shell
    sups toward the relevant end.  These are sup probes: they are conservative
    for (a), whose second half is really an integrability condition.
    """
    rng = np.random.default_rng(seed)
    inner_radii = 2.0 ** (-np.arange(0, depth + 1, dtype=float))
    grad_sup = np.empty_like(inner_radii)
    lap_sup = np.empty_like(inner_radii)
    for i, r in enumerate(inner_radii):
        jet = _norm_jet(s, *_shell_points(s, rng, per_shell, r))
        w = _weight(alpha, jet.n)
        _, grad_sq, lw = _weight_terms(alpha, jet)
        grad_sup[i] = float((w * np.sqrt(grad_sq)).max())   # |grad w| = w |grad log w|
        lap_sup[i] = float(np.abs(w * lw).max())

    ratio_radii = 2.0 ** np.arange(-depth, depth + 1, dtype=float)
    ratio_sup = np.empty_like(ratio_radii)
    for i, r in enumerate(ratio_radii):
        jet = _norm_jet(s, *_shell_points(s, rng, per_shell, r))
        # |grad w| / ((1+N) w) = |grad log w| / (1+N); the weight cancels
        # exactly and would underflow for large N if kept.
        ratio_sup[i] = float((np.sqrt(_weight_terms(alpha, jet)[1]) / (1.0 + jet.n)).max())

    def slope(radii, sups, part):
        keep = sups[part] > 0    # a vanishing sup carries no slope
        if keep.sum() < 2:
            return 0.0
        return fit_loglog_slope(radii[part][keep], sups[part][keep])

    # slope of sup vs radius toward r -> 0: negative slope means blow-up
    small = slice(len(inner_radii) - 8, len(inner_radii))
    grad_ok = slope(inner_radii, grad_sup, small) >= -slope_tol
    lap_ok = slope(inner_radii, lap_sup, small) >= -slope_tol
    k = len(ratio_radii)
    low = slice(0, 8)          # radii 2^{-depth} .. : boundedness near identity
    high = slice(k - 8, k)     # radii .. 2^{depth}: boundedness at infinity
    ratio_ok = (slope(ratio_radii, ratio_sup, low) >= -slope_tol
                and slope(ratio_radii, ratio_sup, high) <= slope_tol)
    return AdmissibilityReport(
        alpha=alpha,
        inner_radii=inner_radii, grad_sup=grad_sup, lap_sup=lap_sup,
        ratio_radii=ratio_radii, ratio_sup=ratio_sup,
        grad_locally_bounded=grad_ok,
        lap_locally_bounded=lap_ok,
        ratio_globally_bounded=ratio_ok,
        condition_a=grad_ok and lap_ok,
        condition_b=grad_ok and ratio_ok,
    )


def cylinder_sup_potential(alpha: float, s: MetivierStructure,
                           samples: int = 200_000, seed: int = 0,
                           t_cap: float = 100.0) -> float:
    """sup |V_alpha| over the cylinder {|x| <= 1, N >= 1}.

    Finite precisely when alpha <= 2.  On H-type structures it is exact:
    |V_alpha| = |x|^2 |f(N)| with f = c1 N^{2a-4} - c2 N^{a-4} the closed
    form, which on N >= 1 rises from f(1) = c1 - c2 < 0 to one positive peak
    below c1 (the limit c1 at a = 2), and c1 <= c2 - c1 because Q >= 2.  So
    the sup is |f(1)|, attained at |x| = N = 1.  Otherwise the cylinder,
    with |t| <= t_cap, is sampled.
    """
    _require_finite("alpha", alpha, positive=True)
    _require_finite("t_cap", t_cap, positive=True)
    if alpha > 2:
        return math.inf
    if s.h_type:
        return abs(_envelope_factor(*_closed_form_coeffs(alpha, s), alpha, 1.0))
    rng = np.random.default_rng(seed)
    x = uniform_ball(rng, samples, s.horizontal_dim, 1.0)
    t = unit_sample(rng, samples, s.m) * rng.uniform(0.0, t_cap, size=(samples, 1))
    jet = _norm_jet(s, x, t)
    keep = jet.n >= 1.0
    if not np.any(keep):
        raise RuntimeError("no cylinder samples with N >= 1; increase samples")
    return float(np.abs(_potential(alpha, jet)[keep]).max())

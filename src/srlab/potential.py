"""Horizontal calculus of the norm and the conjugated Schrodinger potential.

Everything here is exact pointwise arithmetic (no quadrature): the squared
horizontal gradient and sub-Laplacian of the norm N, the derivatives of the
weight w_alpha = exp(-N^alpha), the potential

    V_alpha = (1/4) alpha^2 N^{2 alpha - 2} |grad_H N|^2
            - (1/2) alpha (alpha - 1) N^{alpha - 2} |grad_H N|^2
            + (1/2) alpha N^{alpha - 1} (LN),

its two-sided polynomial sandwich with explicit constants, and diagnostics:
exact admissibility verdicts for uniqueness of the self-adjoint extension
and the essential infimum, both from homogeneity with no sampling, and the
sup of |V_alpha| on the unit cylinder from the sandwich.

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

from .group import (ConditionEstimate, MetivierStructure,
                    _dot, _require_finite, exact_condition_extremes,
                    homogeneous_dimension)
from .norms import _radial, _weight


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
    J_t x = sum_k t_k J_k x reuses the J_k x of the sum, which one
    `apply_maps` call gives.  A batch with a point whose N^6 overflows or
    falls below the smallest normal double (N outside about [2^-170, 2^170])
    raises ValueError: there the quotient would read a wrong finite value or NaN.
    """
    s.check_dims(x, t)
    x, t, x2, n = _off_identity(x, t)
    with np.errstate(over="ignore"):
        n3 = n * n * n
        n6 = n3 * n3
    if np.any((n6 == np.inf) | (n6 < np.finfo(float).tiny)):
        raise ValueError("norm jet out of double range: N^6 overflows or underflows "
                         "(N outside about [2^-170, 2^170])")
    jk_x = s.apply_maps(x)
    jt_x = _dot(np.swapaxes(jk_x, -1, -2), t[..., None, :])
    gns = (x2 * x2 * x2 + 16.0 * _dot(jt_x, jt_x)) / n6
    jk_flat = jk_x.reshape(jk_x.shape[:-2] + (s.m * s.horizontal_dim,))
    jk_sum = _dot(jk_flat, jk_flat)
    ln = 3.0 * gns / n - ((2.0 + 2.0 * s.n) * x2 + 2.0 * jk_sum) / n3
    return _NormJet(x, x2, n, jt_x, gns, ln)


def _grad_kaplan(jet: _NormJet) -> np.ndarray:
    return (jet.x2[..., None] * jet.x + 4.0 * jet.jt_x) / (jet.n * jet.n * jet.n)[..., None]


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


def _envelope_terms(c1: float, c2: float, alpha: float, n):
    """(c1 N^{2a-4}, c2 N^{a-4}), the two terms of `_envelope_factor`."""
    return c1 * n ** (2.0 * alpha - 4.0), c2 * n ** (alpha - 4.0)


def _envelope_factor(c1: float, c2: float, alpha: float, n):
    """c1 N^{2a-4} - c2 N^{a-4}: the sandwich bounds and the H-type closed form
    of V_alpha are |x|^2 times this factor."""
    lead, tail = _envelope_terms(c1, c2, alpha, n)
    return lead - tail


def _stationary_power(c1: float, c2: float, alpha: float, k: int) -> float:
    """N^a = c2 (a-4+k) / (c1 (2a-4+k)), where N^k (c1 N^{2a-4} - c2 N^{a-4}) is stationary."""
    return c2 * (alpha - 4.0 + k) / (c1 * (2.0 * alpha - 4.0 + k))


def _turning_point(c1: float, c2: float, alpha: float, k: int) -> float:
    """Minimiser of N^k (c1 N^{2a-4} - c2 N^{a-4}) on N > 0 for alpha > 2, k in {0, 2}:
    `_stationary_power` ** (1/a) when a > 4 - k, else 0.0 (the product increases)."""
    if alpha <= 4.0 - k:
        return 0.0
    return _stationary_power(c1, c2, alpha, k) ** (1.0 / alpha)


def _factor_sup(c1: float, c2: float, alpha: float) -> float:
    """sup over N >= 1 of |f| = |c1 N^{2a-4} - c2 N^{a-4}| for 0 < alpha <= 2: at N = 1,
    at the stationary point N^a = u when u > 1 and alpha < 2, where
    f = u^{(a-4)/a} (c1 u - c2) (u^{1/a} may overflow), or as N -> inf (c1 at a = 2, else 0)."""
    u = _stationary_power(c1, c2, alpha, 0) if alpha < 2 else 0.0
    peak = abs(u ** ((alpha - 4.0) / alpha) * (c1 * u - c2)) if u > 1.0 else 0.0
    return max(abs(_envelope_factor(c1, c2, alpha, 1.0)), c1 if alpha == 2 else 0.0, peak)


def _closed_form_coeffs(alpha: float, s: MetivierStructure):
    """(c1, c2) with H-type V_alpha / |x|^2 = c1 N^{2a-4} - c2 N^{a-4}:
    c1 = a^2/4, c2 = (a/2)(Q+a-2)."""
    q = homogeneous_dimension(s)
    return 0.25 * alpha * alpha, 0.5 * alpha * (q + alpha - 2.0)


def potential_closed_form_xt(alpha: float, s: MetivierStructure, x, t) -> np.ndarray:
    """H-type closed form (alpha^2/4) N^{2a-4} |x|^2 - (a/2)(Q+a-2) N^{a-4} |x|^2.

    alpha is checked as `potential_value_xt` checks it, and a batch whose
    terms overflow to a non-finite value raises ValueError.
    """
    _require_finite("alpha", alpha, positive=True)
    s.check_dims(x, t)
    _, _, x2, n = _off_identity(x, t)
    with np.errstate(over="ignore", invalid="ignore"):
        v = x2 * _envelope_factor(*_closed_form_coeffs(alpha, s), alpha, n)
    if not np.all(np.isfinite(v)):
        raise ValueError("closed form out of double range: a term of V_alpha overflows")
    return v


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
    if c_a1 == 0.0 or not all(map(math.isfinite, (c_a2, c_a3, c_a4))):
        raise ValueError(f"alpha = {alpha} {'under' if c_a1 == 0.0 else 'over'}flows "
                         "the sandwich constants")
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


def sandwich_bounds_xt(const: PotentialConstants, s: MetivierStructure, x, t):
    """Pointwise (lower, upper) sandwich values for V_alpha on the structure s.

    Coordinates must match s, and the constants must be for a group of the
    homogeneous dimension of s.
    """
    s.check_dims(x, t)
    if const.Q != homogeneous_dimension(s):
        raise ValueError(f"constants are for Q = {const.Q}, the structure has "
                         f"Q = {homogeneous_dimension(s)}")
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


def fit_loglog_slope(ns, values) -> float:
    """Least-squares slope of log(values) against log(ns)."""
    ln = np.log(np.asarray(ns, dtype=float))
    lv = np.log(np.asarray(values, dtype=float))
    ln = ln - ln.mean()
    return float((ln @ (lv - lv.mean())) / (ln @ ln))


@dataclass(frozen=True)
class Admissibility:
    alpha: float
    grad_locally_bounded: bool
    lap_locally_bounded: bool
    ratio_globally_bounded: bool
    condition_a: bool
    condition_b: bool
    ess_inf: float
    ess_inf_status: str


def admissibility(alpha: float, s: MetivierStructure) -> Admissibility:
    """Exact verdicts behind uniqueness of the self-adjoint extension, and ess inf V_alpha.

    (a) asks |grad_H w_alpha| and |L w_alpha| bounded on punctured balls
    around the identity; (b) asks the ratio |grad_H w_alpha| / ((1 + N) w_alpha)
    bounded globally.  Each is a power of N times a homogeneous factor of
    degree 0, continuous off the identity, so bounded (Folland-Stein, ch. 1):
    |grad_H w| / w = a N^{a-1} |grad_H N|, (L w) / w = a N^{a-2} h
    - a^2 N^{2a-2} |grad_H N|^2 with h = (a-1)|grad_H N|^2 - N LN, and the
    ratio goes like N^{a-1} at 0 and N^{a-2} at infinity.  At the axis point
    (e_1, 0), |grad_H N| = 1 and h = a + 2n - 2 + 2 sum_k |J_k e_1|^2 > 0, so
    no factor vanishes identically, and the verdicts are the exponent rule:
    the gradient is bounded near the identity iff a >= 1, L w iff a >= 2,
    the ratio iff 1 <= a <= 2.

    ess inf V_alpha is -inf for a < 2 (on the axis V = c1 N^{2a-2} - c2 N^{a-2}
    with c2 > 0), and otherwise the sandwich floor: exact on H-type groups,
    where the sandwich is an equality; a rigorous lower bound for m = 1;
    heuristic for m >= 2 off H-type (sampled constants).
    """
    _require_finite("alpha", alpha, positive=True)
    grad_ok, lap_ok, ratio_ok = alpha >= 1, alpha >= 2, 1 <= alpha <= 2
    if alpha < 2:
        ess_inf, status = -math.inf, "exact"
    else:
        ess_inf = sandwich_floor(potential_bounds(alpha, None, s))
        status = "exact" if s.h_type else "bound" if s.m == 1 else "heuristic"
    return Admissibility(alpha=alpha, grad_locally_bounded=grad_ok,
                         lap_locally_bounded=lap_ok, ratio_globally_bounded=ratio_ok,
                         condition_a=grad_ok and lap_ok, condition_b=grad_ok and ratio_ok,
                         ess_inf=ess_inf, ess_inf_status=status)


def cylinder_sup_potential(alpha: float, s: MetivierStructure) -> float:
    """sup |V_alpha| over the cylinder {|x| <= 1, N >= 1}; inf for alpha > 2.

    |V_alpha| <= |x|^2 |f(N)| for one of the two sandwich factors f of
    `potential_bounds`, and |x| = 1 reaches every N >= 1: the larger `_factor_sup`.
    Rigorous wherever the constants are: H-type (exact, (a/2)(Q - 2 + a/2) at
    |x| = N = 1) and m = 1; heuristic for m >= 2 off H-type (sampled constants).
    """
    _require_finite("alpha", alpha, positive=True)
    if alpha > 2:
        return math.inf
    const = potential_bounds(alpha, None, s)
    return max(_factor_sup(const.c_a1, const.c_a2, alpha),
               _factor_sup(const.c_a3, const.c_a4, alpha))

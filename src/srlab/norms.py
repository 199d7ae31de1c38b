"""Homogeneous norm, quasi-distance and the exponential weights.

The fixed homogeneous norm is N(x, t) = (|x|^4 + 16 |t|^2)^{1/4}, the norm
entering the fundamental solution of the sub-Laplacian on H-type groups.
It is 1-homogeneous for the dilations (r x, r^2 t) and satisfies a
quasi-triangle inequality N(p q) <= gamma (N(p) + N(q)) whose optimal
constant is only estimated here, never proven.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .group import MetivierStructure, _dot, _require_finite, product


def _radial(x, t):
    """(x, t, |x|^2, N) as float arrays: the one place N is computed.  A point whose
    |x|^4 + 16 |t|^2 overflows (|x| above about 1e77, |t| above about 1e154)
    raises ValueError."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    try:
        with np.errstate(over="raise"):
            x2 = _dot(x, x)
            return x, t, x2, (x2 * x2 + 16.0 * _dot(t, t)) ** 0.25
    except FloatingPointError:
        raise ValueError("N out of double range: |x|^4 + 16 |t|^2 overflows") from None


def norm_xt(x, t) -> np.ndarray:
    """N on raw coordinate arrays (..., 2n) and (..., m)."""
    return _radial(x, t)[3]


def quasi_distance_xt(s: MetivierStructure, x1, t1, x2, t2) -> np.ndarray:
    """d(p, q) = N(p^{-1} q); left-invariant by construction."""
    x, t = product(s, -np.asarray(x1, float), -np.asarray(t1, float), x2, t2)
    return norm_xt(x, t)


def _weight(alpha: float, n) -> np.ndarray:
    """w_alpha = exp(-N^alpha) from N; alpha must be finite and positive."""
    _require_finite("alpha", alpha, positive=True)
    return np.exp(-n ** alpha)


def weight_xt(alpha: float, x, t) -> np.ndarray:
    return _weight(alpha, norm_xt(x, t))


@dataclass(frozen=True)
class GammaEstimate:
    """Empirical lower bound for the quasi-triangle constant gamma.

    gamma_hat = max over sampled pairs of N(p q) / (N(p) + N(q)); the true
    constant is at least this large.  The identity pair is always included,
    so gamma_hat >= 1.
    """

    gamma_hat: float
    samples: int
    seed: int

    def __post_init__(self):
        if self.gamma_hat < 1.0:
            raise ValueError("gamma_hat cannot be below 1")


def estimate_gamma(s: MetivierStructure, samples: int, seed: int = 0) -> GammaEstimate:
    """Sampled quasi-triangle ratio maximum over dilation-graded random pairs.

    Pairs are drawn as one array so that, for a fixed seed, a larger sample
    count extends the smaller one; gamma_hat is then monotone in `samples`.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    d = s.horizontal_dim + s.m
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((samples, 2 * d + 2))
    scale1 = np.exp(raw[:, 0])
    scale2 = np.exp(raw[:, 1])
    x1 = raw[:, 2: 2 + s.horizontal_dim] * scale1[:, None]
    t1 = raw[:, 2 + s.horizontal_dim: 2 + d] * scale1[:, None] ** 2
    x2 = raw[:, 2 + d: 2 + d + s.horizontal_dim] * scale2[:, None]
    t2 = raw[:, 2 + d + s.horizontal_dim:] * scale2[:, None] ** 2
    xp, tp = product(s, x1, t1, x2, t2)
    ratios = norm_xt(xp, tp) / (norm_xt(x1, t1) + norm_xt(x2, t2))
    gamma_hat = max(1.0, float(ratios.max()))
    return GammaEstimate(gamma_hat=gamma_hat, samples=samples, seed=seed)

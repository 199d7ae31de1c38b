import math

import numpy as np
import pytest

from srlab.group import GroupPoint, dilate, identity, inverse, point, product
from srlab.norms import (BallSpec, estimate_gamma, in_ball, kaplan_norm,
                         norm_xt, quasi_distance, quasi_distance_xt, weight,
                         weight_xt)

from conftest import random_points


def test_norm_examples(heis):
    assert kaplan_norm(heis, point(heis, [1.0, 0.0], [0.0])) == 1.0
    assert kaplan_norm(heis, point(heis, [0.0, 0.0], [1.0])) == 2.0
    val = kaplan_norm(heis, point(heis, [1.0, 1.0], [0.5]))
    assert abs(val - 8.0 ** 0.25) <= 1e-15


def test_norm_zero_iff_identity(heis):
    assert kaplan_norm(heis, identity(heis)) == 0.0
    assert kaplan_norm(heis, point(heis, [1e-8, 0.0], [0.0])) > 0.0


def test_homogeneity(heis):
    x, t = random_points(heis, 10_000, seed=0, box=5.0)
    rng = np.random.default_rng(1)
    r = np.exp(rng.uniform(-2.0, 2.0, size=x.shape[0]))
    lhs = norm_xt(r[:, None] * x, (r ** 2)[:, None] * t)
    assert np.max(np.abs(lhs - r * norm_xt(x, t))) <= 1e-12


def test_symmetry_exact(heis):
    x, t = random_points(heis, 1000, seed=2)
    assert np.array_equal(norm_xt(-x, -t), norm_xt(x, t))


def test_distance_examples(heis):
    p = point(heis, [0.3, -0.4], [0.8])
    assert quasi_distance(heis, p, p) == 0.0
    assert quasi_distance(heis, identity(heis), point(heis, [0, 0], [1.0])) == 2.0


def test_distance_left_invariance(heis):
    xg, tg = random_points(heis, 1000, seed=3)
    xp, tp = random_points(heis, 1000, seed=4)
    xq, tq = random_points(heis, 1000, seed=5)
    d0 = quasi_distance_xt(heis, xp, tp, xq, tq)
    gx1, gt1 = product(heis, xg, tg, xp, tp)
    gx2, gt2 = product(heis, xg, tg, xq, tq)
    d1 = quasi_distance_xt(heis, gx1, gt1, gx2, gt2)
    assert np.max(np.abs(d0 - d1)) <= 1e-12


def test_weight_examples(heis):
    assert weight(3.7, heis, identity(heis)) == 1.0
    w = weight(2.0, heis, point(heis, [1.0, 0.0], [0.0]))
    assert abs(w - np.exp(-1.0)) <= 1e-15
    w4 = weight(4.0, heis, point(heis, [0.0, 0.0], [1.0]))
    assert abs(w4 - np.exp(-16.0)) <= 1e-22
    with pytest.raises(ValueError):
        weight(0.0, heis, identity(heis))


def test_weight_homogeneity_transfer(heis):
    x, t = random_points(heis, 10_000, seed=6)
    rng = np.random.default_rng(7)
    r = np.exp(rng.uniform(-1.0, 1.0, size=x.shape[0]))
    alpha = 2.5
    lhs = weight_xt(alpha, r[:, None] * x, (r ** 2)[:, None] * t)
    rhs = np.exp(-(r * norm_xt(x, t)) ** alpha)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_in_ball(heis):
    c = point(heis, [0.7, 0.1], [2.0])
    assert in_ball(heis, BallSpec(c, 0.5), c)
    assert not in_ball(heis, BallSpec(identity(heis), 1.0), point(heis, [0, 0], [1.0]))
    ball = BallSpec(point(heis, [0.0, 0.0], [5.0]), 1.0)
    inside = point(heis, [0.0, 0.0], [5.2])
    assert abs(quasi_distance(heis, ball.center, inside) - 2.0 * 0.2 ** 0.5) <= 1e-12
    assert in_ball(heis, ball, inside)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            BallSpec(c, bad)


def test_gamma_lower_bound_properties(heis):
    est = estimate_gamma(heis, 10_000, seed=0)
    assert est.gamma_hat >= 1.0
    assert est.gamma_hat <= 3.0  # sanity: this norm is near-metric

    # central-axis pairs: the norm restricted to the centre is subadditive
    rng = np.random.default_rng(8)
    t1 = rng.uniform(-5, 5, size=(500, 1))
    t2 = rng.uniform(-5, 5, size=(500, 1))
    z = np.zeros((500, 2))
    px, pt = product(heis, z, t1, z, t2)
    ratios = norm_xt(px, pt) / (norm_xt(z, t1) + norm_xt(z, t2))
    assert np.all(ratios <= 1.0 + 1e-12)

    # p = q = ((1,0),0): central increment cancels, ratio exactly 1
    x = np.array([1.0, 0.0])
    px, pt = product(heis, x, np.zeros(1), x, np.zeros(1))
    assert norm_xt(px, pt) / (2.0 * norm_xt(x, np.zeros(1))) == 1.0


def test_gamma_monotone_in_samples(heis):
    small = estimate_gamma(heis, 1_000, seed=11)
    large = estimate_gamma(heis, 10_000, seed=11)
    assert large.gamma_hat >= small.gamma_hat
    again = estimate_gamma(heis, 10_000, seed=11)
    assert again.gamma_hat == large.gamma_hat
    with pytest.raises(ValueError, match="samples"):
        estimate_gamma(heis, 0)
